"""The one way a test makes the package cold: every cached answer and memo term dropped."""

import importlib
import pkgutil

import pytest

import sytcount
from sytcount._memo import Memo, MemoMap


def _package_stores():
    """Every functools cache (an object with `cache_info` and `cache_clear`) and every
    Memo or MemoMap of per-width memos held at module level anywhere in the package,
    each once."""
    modules = [importlib.import_module(f"sytcount.{info.name}")
               for info in pkgutil.iter_modules(sytcount.__path__)]
    values = {id(value): value for module in modules for value in vars(module).values()}
    caches = [value for value in values.values()
              if hasattr(value, "cache_info") and hasattr(value, "cache_clear")]
    memos = [value for value in values.values() if isinstance(value, (Memo, MemoMap))]
    return caches, memos


def _clear_package():
    caches, memos = _package_stores()
    for cached in caches:
        cached.cache_clear()
    for memo in memos:
        memo.clear()


@pytest.fixture
def package_stores():
    """The package's functools caches and memos, as `cold` finds them."""
    return _package_stores()


@pytest.fixture
def cold():
    """A cold package before the test and again after it; call it to go cold mid-test."""
    _clear_package()
    yield _clear_package
    _clear_package()
