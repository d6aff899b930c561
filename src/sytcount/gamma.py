"""Triangular count tables and their three-term recurrences.

The entry at (n, i) of the width-s table counts standard Young tableaux with
n cells, at most s columns, and second-minus-third column difference i (for
s = 2 this reduces to indexing two-column shapes by their second column).
Each table can be built two independent ways: definitionally, by bucketing one
corner-growth sweep by that difference, or by a three-term row recurrence whose
correction terms are the same buckets restricted to equal adjacent columns.
`verify.compare_methods` compares the two routes entrywise.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import add, and_, not_, rshift, sub

from ._memo import Memo, MemoMap
from .counting import syt_count_hlf
from .shapes import ColumnShape, r3_shape

DEFINITIONAL = "definitional"
RECURRENCE = "recurrence"
# The method names callers pass, mapped to the route names a table records.
TABLE_METHODS = {"definition": DEFINITIONAL, "recurrence": RECURRENCE}


class NegativeEntryError(ArithmeticError):
    """A recurrence subtraction went below zero, i.e. an entry's correction total
    was larger than its three-term sum."""


# --- the two-column triangle ------------------------------------------------

def _next_alpha_row(rows: list[list[int]]) -> list[int]:
    padded = rows[-1] + [0]  # the new row may be one entry longer
    return [1] + [padded[j] + padded[j - 1] for j in range(1, len(rows) // 2 + 1)]


_alpha_rows = Memo([[1]], _next_alpha_row)


def alpha(n: int, i: int) -> int:
    """Count of standard tableaux of column shape (n-i, i).

    Built row by row from the two-term recurrence
    alpha(n, i) = alpha(n-1, i) + alpha(n-1, i-1) with alpha(n, 0) = 1;
    positions with i > n // 2 hold no shape and return 0.
    """
    if not n.__class__ is i.__class__ is int:  # no float or bool
        raise TypeError(f"alpha needs integers, got {(n, i)!r}")
    if n < 0 or i < 0:
        raise ValueError("alpha needs n >= 0 and i >= 0")
    if i > n // 2:
        return 0
    return _alpha_rows[n][i]


def ballot_entry(j: int, k: int) -> int:
    """Ballot-triangle entry, read off the two-column triangle as (2j-k, j-k)."""
    if not j.__class__ is k.__class__ is int:  # 2j-k would turn a bool into an int
        raise TypeError(f"ballot indices must be integers, got {(j, k)!r}")
    if 2 * j - k < 0 or j - k < 0:
        raise ValueError(f"ballot indices need 2j-k >= 0 and j-k >= 0, got {(j, k)!r}")
    return alpha(2 * j - k, j - k)


# --- the corner-growth sweep ---------------------------------------------------------
# A shape on n cells with at most s columns is named by the tuple of its column
# differences d_k = c_k - c_(k+1), k = 2..s (c_(s+1) = 0), packed into one integer of
# 16-bit digits, d_2 lowest; d_1 = n - w is what its weight w = 2 d_2 + ... + s d_s
# leaves, so the tuple names a shape on every level n >= w. A cell on column 1 keeps the
# tuple; one on column k > 1 moves a unit from d_(k-1) to d_k. So the tuples are numbered
# once, in order of weight, each with the number it pulls from per column k > 1: the
# tuple it was before a cell went on column k, or 0, a zero count, where column k cannot
# lose a cell. A level's fillings are then the previous level's (the column-1 pull) plus
# one pull per column, each a pass in C. d_2 is the table index i; row j >= 1 keeps the
# tuples with d_j = 0, for j = 1 those of weight n.
_FIELD = 16
_DIGIT = (1 << _FIELD) - 1


class _Lattice:
    """The tuples of one width numbered so far, and the fillings of the last level."""

    def __init__(self) -> None:
        self.counts = [0]  # fillings by number; number 0 is no shape
        self.pulls: list[array] = []  # per column k = 2, 3, ...: what each number pulls
        self.members: list[array] = []  # per d_2: the numbers with that d_2, ascending
        self.zeros: list[list[bytearray]] = []  # per row j >= 2, per d_2: d_j == 0
        self.older: dict[int, int] = {}  # number by key, weight n - 2
        self.last: dict[int, int] = {}  # number by key, weight n - 1

    def number(self, s: int, n: int) -> tuple[list[int], list[int]]:
        """Drop what a failed step left, then number the tuples of weight n with their
        pulls and zero flags. Return their keys and the first number of each d_2
        bucket among them, with one past the last."""
        pulls, members, zeros, size = self.pulls, self.members, self.zeros, len(self.counts)
        for pull in pulls:
            del pull[size:]
        for i, numbers in enumerate(members):
            del numbers[bisect_left(numbers, size):]
            for flags in zeros:
                del flags[i][len(numbers):]
        # per column k in 2..min(s, n): the key change, a unit from d_(k-1) (d_1 for
        # k = 2) to d_k, and the keys it grows into weight n: those of weight n - 2 for
        # k = 2, else those of weight n - 1 with d_(k-1) > 0
        older, last = self.older, self.last
        moves = [(1, older)] if n >= 2 else []
        fresh = {key + 1 for key in older} if n else {0}
        for k in range(3, min(s, n) + 1):
            low = _FIELD * (k - 3)  # the digit of d_(k-1)
            move = (1 << low + _FIELD) - (1 << low)
            moves.append((move, last))
            fresh.update(compress(map(add, last, repeat(move)), _digits(last, low)))
        fresh = sorted(fresh, key=_DIGIT.__and__)  # numbered by d_2, the table index
        cuts = [size + bisect_left(fresh, i, key=_DIGIT.__and__) for i in range(n // 2 + 2)]
        for k, (move, source) in enumerate(moves):
            if k == len(pulls):  # column k + 2 is new: no older tuple has d_(k+2) > 0
                pulls.append(array("I", [0]) * size)
            pulls[k].extend(map(source.get, map(sub, fresh, repeat(move)), repeat(0)))
        while len(members) <= n // 2:
            members.append(array("I"))
            for flags in zeros:
                flags.append(bytearray())
        while len(zeros) < min(s - 1, n) - 1:  # a new row j: no older tuple has d_j > 0
            zeros.append([bytearray(b"\1") * len(numbers) for numbers in members])
        for i, numbers in enumerate(members):
            numbers.extend(range(cuts[i], cuts[i + 1]))
        for j, flags in enumerate(zeros, 2):
            fresh_flags = bytearray(map(not_, _digits(fresh, _FIELD * (j - 2))))
            for i, bucket in enumerate(flags):
                bucket += fresh_flags[cuts[i] - size:cuts[i + 1] - size]
        return fresh, cuts


def _digits(keys, shift: int):
    """The digit at bit `shift` of each key."""
    return map(and_, map(rshift, keys, repeat(shift)), repeat(_DIGIT))


def _next_level(lattice: _Lattice | None, s: int, n: int) -> tuple[_Lattice, tuple]:
    """Number the tuples of weight n, pull level n - 1's fillings into level n, and
    bucket level n into min(s, n + 1) table rows, row j >= 1 restricted to
    c_j = c_(j+1): to the shapes whose column j + 1 is blocked. `None` has numbered
    nothing yet."""
    if n >= _DIGIT:  # a borrow past a zero digit must read _DIGIT, not a shape's digit
        raise OverflowError(f"the sweep's {_FIELD}-bit digits stop at {_DIGIT} cells")
    lattice = lattice or _Lattice()
    counts, size = lattice.counts, len(lattice.counts)
    fresh, cuts = lattice.number(s, n)
    grown = counts + [0] * len(fresh) if n else [0, 1]
    for pull in lattice.pulls:
        grown = map(add, grown, map(counts.__getitem__, pull))
    counts = list(grown)
    values = [list(map(counts.__getitem__, numbers)) for numbers in lattice.members]
    rows = [tuple(map(sum, values))]
    if n:
        rows.append(tuple(sum(counts[a:b]) for a, b in zip(cuts, cuts[1:])))
    rows.extend(tuple(map(sum, map(compress, values, flags))) for flags in lattice.zeros)
    lattice.counts, lattice.older, lattice.last = counts, lattice.last, dict(
        zip(fresh, range(size, size + len(fresh))))
    return lattice, tuple(rows)


@MemoMap
def _sweep(s: int) -> Memo:
    lattice = None  # the tuples numbered so far, with the last level's fillings

    def step(levels: list[tuple]) -> tuple:
        nonlocal lattice  # a first step (also after clear()) starts afresh
        lattice, level = _next_level(lattice if levels else None, s, len(levels))
        return level

    return Memo([], step)


# --- definitional entries and correction terms -------------------------------

def _check_indices(s: int, n: int, i: int, j: int = 1) -> None:
    if not s.__class__ is n.__class__ is i.__class__ is j.__class__ is int:  # no bool
        raise TypeError("table indices (s, n, i and j) must be integers")
    if s < 3:
        raise ValueError("width bound must be at least 3 (use alpha for s = 2)")
    if n < 0 or i < 0:
        raise ValueError("need n >= 0 and i >= 0")


# typed: 3.0 == 3, so an untyped cache would answer a float from an int's entry
@lru_cache(maxsize=None, typed=True)
def gamma_def(s: int, n: int, i: int) -> int:
    """Entry (n, i) of the width-s table: the fillings of the shapes on n cells with
    c2 - c3 = i, read off level n of the width-s corner-growth sweep."""
    _check_indices(s, n, i)
    return row[i] if i < len(row := _sweep[s][n][0]) else 0


@lru_cache(maxsize=None, typed=True)
def correction_r(s: int, j: int, n: int, i: int) -> int:
    """Entry (n, i) restricted to shapes whose j-th and (j+1)-th columns have the
    same length (missing columns count as 0), read off the same sweep level."""
    _check_indices(s, n, i, j)
    if not 1 <= j <= s - 1:
        raise ValueError(f"need 1 <= j <= s-1, got j={j}")
    # no shape on n cells reaches column n + 1, so all have c_j = c_(j+1) = 0 for j > n
    return row[i] if i < len(row := _sweep[s][n][j if j <= n else 0]) else 0


def correction_r3(n: int, i: int) -> int:
    """Three-column correction term: the count of the unique equal-first-two-
    columns shape on n-1 cells, or 0 when no such shape exists."""
    shape = r3_shape(n, i)
    return syt_count_hlf(shape) if shape is not None else 0


def _entry_correction(s: int, n: int, i: int) -> int:
    """The correction total subtracted while producing entry (n, i) by recurrence: the
    shapes on n - 1 cells with c_j = c_(j+1), for j = 1 at index i - 1 and for
    j = 3..s-1 at index i. For s = 3 the j = 1 term is the closed one-shape rule, which
    has no shape at i = 0; the `gamma3` suite checks that it equals the generic
    family's."""
    if s == 3:
        return correction_r3(n, i)
    total = correction_r(s, 1, n - 1, i - 1) if i else 0
    return total + sum(correction_r(s, j, n - 1, i) for j in range(3, s))


# --- recurrence-built tables --------------------------------------------------

def _recurrence_entry(s: int, n: int, i: int, prev_row: list[int]) -> int:
    prev = [0, *prev_row, 0, 0]  # entries outside the previous row read as 0
    value = prev[i] + (s - 2) * prev[i + 1] + prev[i + 2]
    correction = _entry_correction(s, n, i)
    if value < correction:
        raise NegativeEntryError(
            f"entry ({n},{i}) of the width-{s} table went negative: its three-term sum "
            f"{value} is below its correction total {correction}")
    return value - correction


@MemoMap
def _rec_rows(s: int) -> Memo:
    return Memo([[1]], lambda rows: [_recurrence_entry(s, len(rows), i, rows[-1])
                                     for i in range(len(rows) // 2 + 1)])


@lru_cache(maxsize=None, typed=True)
def gamma_rec(s: int, n: int, i: int) -> int:
    """Entry (n, i) of the width-s table, by the three-term row recurrence.

    Row 0 is the empty shape's [1]; every later row comes from the recurrence, with
    all out-of-range entries read as 0. Width 3 reads no sweep level on this route.
    """
    _check_indices(s, n, i)
    return _rec_rows[s][n][i] if i <= n // 2 else 0


@dataclass
class GammaTable:
    """A materialized triangular table for one width bound.

    Row n holds entries i = 0 .. n // 2; `method` records which route built
    the rows ("definitional" or "recurrence").
    """

    s: int
    method: str
    rows: list[list[int]]


def _two_column_def(n: int, i: int) -> int:
    cols = (n - i, i) if i else ((n,) if n else ())
    return syt_count_hlf(ColumnShape(cols))


def _table_row(s: int, n: int, method: str) -> list[int]:
    """Row n of the width-s table, s >= 2, built by `method`.

    Width 2 is the two-column triangle (hook counts of the shapes (n-i, i), or its
    two-term recurrence); wider definitional rows are sweep levels. The list is a copy.
    """
    if method == DEFINITIONAL:
        return ([_two_column_def(n, i) for i in range(n // 2 + 1)] if s == 2
                else list(_sweep[s][n][0]))
    if method == RECURRENCE:
        return list((_alpha_rows if s == 2 else _rec_rows[s])[n])
    raise ValueError(f"unknown method {method!r}")


def build_table(s: int, max_n: int, method: str = DEFINITIONAL) -> GammaTable:
    """Materialize the width-s table for rows 0..max_n by the chosen route."""
    if not s.__class__ is max_n.__class__ is int:  # 3.0 would read width 3's rows
        raise TypeError(f"width and row count must be integers, got {(s, max_n)!r}")
    if s < 2:
        raise ValueError("width bound must be at least 2")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    return GammaTable(s=s, method=method,
                      rows=[_table_row(s, n, method) for n in range(max_n + 1)])

