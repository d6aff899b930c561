"""Triangular count tables and their three-term recurrences.

The entry at (n, i) of the width-s table counts standard Young tableaux with
n cells, at most s columns, and second-minus-third column difference i (for
s = 2 this reduces to indexing two-column shapes by their second column).
Each table can be built two independent ways: definitionally, by summing
hook-length counts over the matching shape family, or by a three-term row
recurrence whose correction terms are themselves explicit family sums.
Comparing the two routes entrywise is the point of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from ._memo import Memo, MemoMap
from .counting import _hook_count, syt_count_hlf
from .report import VerificationReport, run_check, timed_report
from .shapes import ColumnShape, _families, r3_shape

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
    if n < 0 or i < 0:
        raise ValueError("alpha needs n >= 0 and i >= 0")
    if i > n // 2:
        return 0
    return _alpha_rows[n][i]


def ballot_entry(j: int, k: int) -> int:
    """Ballot-triangle entry, read off the two-column triangle as (2j-k, j-k)."""
    if 2 * j - k < 0 or j - k < 0:
        raise ValueError(f"ballot indices need 2j-k >= 0 and j-k >= 0, got {(j, k)!r}")
    return alpha(2 * j - k, j - k)


# --- definitional entries and correction terms -------------------------------

def _check_indices(s: int, n: int, i: int) -> None:
    if s < 3:
        raise ValueError("width bound must be at least 3 (use alpha for s = 2)")
    if n < 0 or i < 0:
        raise ValueError("need n >= 0 and i >= 0")


@cache
def gamma_def(s: int, n: int, i: int) -> int:
    """Entry (n, i) of the width-s table, by hook-length sums over its c2 - c3 bucket."""
    _check_indices(s, n, i)
    return sum(map(_hook_count, _families(n, s).get(i, ())))


@cache
def correction_r(s: int, j: int, n: int, i: int) -> int:
    """Hook-length sum over the (n, i) family restricted to shapes whose j-th
    and (j+1)-th columns have the same length (missing columns count as 0)."""
    _check_indices(s, n, i)
    if not 1 <= j <= s - 1:
        raise ValueError(f"need 1 <= j <= s-1, got j={j}")
    zeros = (0,) * s
    return sum(_hook_count(cols) for cols in _families(n, s).get(i, ())
               if (padded := cols + zeros)[j - 1] == padded[j])


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
    if i > n // 2:
        return 0
    return _rec_rows[s][n][i]


@dataclass
class GammaTable:
    """A materialized triangular table for one width bound.

    Row n holds entries i = 0 .. n // 2; `method` records which route built
    the rows ("definitional" or "recurrence").
    """

    s: int
    method: str
    rows: list[list[int]]

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, i: int) -> int:
        if not 0 <= n < len(self.rows):
            raise IndexError(f"row {n} not in table (max {self.max_n})")
        row = self.rows[n]
        return row[i] if 0 <= i < len(row) else 0

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n])


def _two_column_def(n: int, i: int) -> int:
    cols = (n - i, i) if i else ((n,) if n else ())
    return syt_count_hlf(ColumnShape(cols))


def _table_row(s: int, n: int, method: str) -> list[int]:
    """Row n of the width-s table, s >= 2, built by `method`.

    Width 2 is the two-column triangle: hook counts of the shapes (n-i, i)
    definitionally, the two-term recurrence otherwise. The list is a copy.
    """
    if method == DEFINITIONAL:
        entry = _two_column_def if s == 2 else lambda n, i: gamma_def(s, n, i)
        return [entry(n, i) for i in range(n // 2 + 1)]
    if method == RECURRENCE:
        return list((_alpha_rows if s == 2 else _rec_rows[s])[n])
    raise ValueError(f"unknown method {method!r}")


def build_table(s: int, max_n: int, method: str = DEFINITIONAL) -> GammaTable:
    """Materialize the width-s table for rows 0..max_n by the chosen route."""
    if s < 2:
        raise ValueError("width bound must be at least 2")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    return GammaTable(s=s, method=method,
                      rows=[_table_row(s, n, method) for n in range(max_n + 1)])


def compare_methods(s: int, max_n: int) -> VerificationReport:
    """Entrywise comparison of the definitional and recurrence tables."""
    if s < 3:
        raise ValueError("width bound must be at least 3")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")

    def checks():
        entries = [(n, i) for n in range(max_n + 1) for i in range(n // 2 + 1)]
        def cases():
            for n, i in entries:
                by_def, by_rec = gamma_def(s, n, i), gamma_rec(s, n, i)
                yield (f"n={n}, i={i}: definitional={by_def}, recurrence={by_rec}",
                       by_def == by_rec)
        yield run_check("gamma-def-vs-recurrence",
                        f"s={s}, n<={max_n} ({len(entries)} entries)", cases())

    return timed_report(f"gamma-compare-s{s}", checks())
