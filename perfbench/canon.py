"""Canonical text of benchmark outputs, shared by the worker and the references.

An output is reduced to plain JSON (integers and fractions become exact
decimal strings) and hashed, so the worker and the reference side compare
SHA-256 digests instead of shipping large integers between processes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def plain(value):
    """Exact JSON-ready form: ints and Fractions as strings, sequences as lists."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(value) -> str:
    return sha256_text(json.dumps(plain(value), separators=(",", ":")))


def _drop_elapsed(obj):
    if isinstance(obj, dict):
        return {key: _drop_elapsed(val) for key, val in obj.items() if key != "elapsed"}
    if isinstance(obj, list):
        return [_drop_elapsed(item) for item in obj]
    return obj


def file_digest(text: str) -> str:
    """Digest of a CLI output file. JSON documents lose every `elapsed` field,
    the only wall-clock value in any report; other text is hashed as is."""
    try:
        document = json.loads(text)
    except ValueError:
        return sha256_text(text)
    return sha256_text(json.dumps(_drop_elapsed(document), sort_keys=True,
                                  separators=(",", ":")))
