"""Growing sequence memos that threads can share, and a map of them by width."""

import threading
from typing import Callable


class Memo:
    """The terms of a sequence whose next term is `step(terms)`.

    Extension holds a lock, so each term is built once and in order however
    many threads ask for it; a term already built is read without the lock.
    """

    def __init__(self, seed: list, step: Callable) -> None:
        self._seed_len = len(seed)
        self._step = step
        self._lock = threading.Lock()
        self._terms = list(seed)

    def __getitem__(self, n: int):
        if n.__class__ is not int:  # True == 1: a bool must not read term 1
            raise TypeError(f"memo indices are integers, not {n!r}")
        terms = self._terms
        if 0 <= n < len(terms):
            return terms[n]
        if n < 0:
            raise ValueError("n must be >= 0")
        with self._lock:
            while len(terms) <= n:
                terms.append(self._step(terms))
        return terms[n]

    def clear(self) -> None:
        """Drop every term past the seed."""
        with self._lock:
            del self._terms[self._seed_len:]


class MemoMap(dict):
    """Memos by width, each made once by `make(width)` when first asked for (under
    a lock; a memo made is read without it). As a decorator it replaces `make`."""

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self._make = make
        self._lock = threading.Lock()

    def __missing__(self, key):
        if type(key) is not int:  # 3.0 == 3: a float must not make width 3's memo
            raise TypeError(f"memo widths are integers, not {key!r}")
        with self._lock:
            if key not in self:
                self[key] = self._make(key)
        return self[key]
