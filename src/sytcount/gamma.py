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

from dataclasses import dataclass
from functools import lru_cache

from ._memo import Memo, MemoMap
from .counting import syt_count_hlf
from .shapes import ColumnShape, r3_shape

DEFINITIONAL = "definitional"
RECURRENCE = "recurrence"
# The method names callers pass, mapped to the route names a table records.
TABLE_METHODS = {"definition": DEFINITIONAL, "recurrence": RECURRENCE}


class NegativeEntryError(ArithmeticError):
    """A recurrence subtraction went below zero, i.e. a correction term was
    larger than what the three-term sum provides."""


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
# A shape with at most s columns is packed into one integer of 16-bit digits, lowest
# first: c1 - c2, ..., c_(s-1) - c_s, c_s. Digit 1 is the table index i (c2 for s = 2),
# and a cell can go on column k + 1 > 1 only while digit k - 1, c_k - c_(k+1), is > 0.
_FIELD = 16
_DIGIT = (1 << _FIELD) - 1


def _next_level(frontier: dict[int, int], s: int, n: int) -> tuple[dict[int, int], tuple]:
    """Grow the packed shapes on n cells, mapped to their fillings, into those on n + 1
    cells, and bucket level n on the way into min(s, n + 1) table rows, row j >= 1
    restricted to c_j = c_(j+1): to the shapes whose column j + 1 is blocked."""
    if n + 1 > _DIGIT:  # no digit of a shape on n + 1 cells exceeds n + 1
        raise OverflowError(f"the sweep's {_FIELD}-bit digits stop at {_DIGIT} cells")
    rows = [[0] * (n // 2 + 1) for _ in range(min(s, n + 1))]
    # per column k + 1 in 2..n+1: the digit it needs nonzero, the key change, the row
    moves = [(_FIELD * (k - 1), (1 << _FIELD * k) - (1 << _FIELD * (k - 1)), rows[k])
             for k in range(1, len(rows))]
    row, grown = rows[0], {}
    get = grown.get
    for key, count in frontier.items():
        i = key >> _FIELD & _DIGIT
        row[i] += count
        grown[key + 1] = get(key + 1, 0) + count
        for shift, move, blocked in moves:
            if key >> shift & _DIGIT:
                grown[key + move] = get(key + move, 0) + count
            else:
                blocked[i] += count
    return grown, tuple(map(tuple, rows))


@MemoMap
def _sweep(s: int) -> Memo:
    frontier: dict[int, int] = {}  # only the next level's shapes

    def step(levels: list[tuple]) -> tuple:
        nonlocal frontier  # a first step (also after clear()) starts afresh
        frontier, level = _next_level(frontier if levels else {0: 1}, s, len(levels))
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


@dataclass(frozen=True)
class CorrectionTerm:
    """One correction term subtracted by a row recurrence, with its indices."""

    s: int
    j: int
    n: int
    i: int
    value: int


def entry_corrections(s: int, n: int, i: int) -> list[CorrectionTerm]:
    """Correction terms subtracted while producing entry (n, i) by recurrence.

    For s = 3 the single term comes from the closed one-shape rule; its
    (j, n, i) coordinates record the equivalent generic family (j=1, shifted
    index), an equality the verification suites enforce.
    """
    if i == 0:
        return [CorrectionTerm(s, j, n - 1, 0, correction_r(s, j, n - 1, 0))
                for j in range(3, s)]
    if s == 3:
        return [CorrectionTerm(3, 1, n - 1, i - 1, correction_r3(n, i))]
    terms = [CorrectionTerm(s, 1, n - 1, i - 1, correction_r(s, 1, n - 1, i - 1))]
    terms.extend(CorrectionTerm(s, j, n - 1, i, correction_r(s, j, n - 1, i))
                 for j in range(3, s))
    return terms


def row_correction_terms(s: int, n: int) -> list[CorrectionTerm]:
    """Every correction term subtracted while producing row n by recurrence."""
    terms: list[CorrectionTerm] = []
    for i in range(n // 2 + 1):
        terms.extend(entry_corrections(s, n, i))
    return terms


# --- recurrence-built tables --------------------------------------------------

def seed_rows(s: int) -> int:
    """Index of the last definitionally seeded row of a recurrence table."""
    return max(3, s - 1)


def _recurrence_entry(s: int, n: int, i: int, prev_row: list[int]) -> int:
    prev = prev_row + [0, 0]  # entries past the previous row read as 0
    if i == 0:
        value = (s - 2) * prev[0] + prev[1]
    else:
        value = prev[i - 1] + (s - 2) * prev[i] + prev[i + 1]
    for term in entry_corrections(s, n, i):
        value -= term.value
        if value < 0:
            raise NegativeEntryError(
                f"entry ({n},{i}) of the width-{s} table went negative "
                f"after subtracting {term}")
    return value


@MemoMap
def _rec_rows(s: int) -> Memo:
    def step(rows: list[list[int]]) -> list[int]:
        n = len(rows)
        if n <= seed_rows(s):
            return _table_row(s, n, DEFINITIONAL)
        return [_recurrence_entry(s, n, i, rows[n - 1]) for i in range(n // 2 + 1)]

    return Memo([], step)


def gamma_rec(s: int, n: int, i: int) -> int:
    """Entry (n, i) of the width-s table, by the three-term row recurrence.

    Rows 0 .. max(3, s-1) are seeded definitionally; later rows come from the
    recurrence with all out-of-range entries read as 0.
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

