"""Totals, reference sequences, recurrence breakdowns, and exact ratios.

tau(s, n) is the total number of standard Young tableaux with n cells and at
most s columns, i.e. the n-th row sum of the width-s table. Reference
sequences (Catalan, Motzkin, central binomial, involutions) are computed by
their own recurrences and never routed through tableau counting, so they can
serve as independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import comb
from operator import add, mul
from typing import NamedTuple

from ._memo import Memo
from .gamma import alpha, gamma_def, gamma_rec, row_correction_terms

TAU_METHODS = ("definition", "recurrence", "closed")


class RecurrenceMismatchError(ArithmeticError):
    """The totals recurrence failed to reproduce an independently computed total."""


def parity_indicator(n: int) -> int:
    """1 if n is even, 0 otherwise. The single parity definition used everywhere."""
    return 1 if n % 2 == 0 else 0


def _parity_term(n: int) -> int:
    """The Catalan term C_{n/2} of the totals recurrence when n is even, else 0."""
    return catalan(n // 2) if parity_indicator(n) else 0


# --- reference sequences (independent of all tableau counting) ----------------

def _next_catalan(terms: list[int]) -> int:
    m = len(terms) - 1
    quotient, remainder = divmod(terms[m] * 2 * (2 * m + 1), m + 2)
    if remainder:  # pragma: no cover - the recurrence is exact
        raise ArithmeticError("Catalan recurrence lost exactness")
    return quotient


_catalans = Memo([1], _next_catalan)


def catalan(n: int) -> int:
    """n-th Catalan number, via C_{m+1} = C_m * 2(2m+1) / (m+2)."""
    return _catalans[n]


def _next_motzkin(terms: list[int]) -> int:
    m = len(terms)
    numerator = (2 * m + 1) * terms[m - 1] + 3 * (m - 1) * terms[m - 2]
    quotient, remainder = divmod(numerator, m + 2)
    if remainder:  # pragma: no cover - the recurrence is exact
        raise ArithmeticError("Motzkin recurrence lost exactness")
    return quotient


_motzkins = Memo([1, 1], _next_motzkin)


def motzkin(n: int) -> int:
    """n-th Motzkin number, via (m+2) M_m = (2m+1) M_{m-1} + 3(m-1) M_{m-2}."""
    return _motzkins[n]


def central_binomial(n: int) -> int:
    """Middle binomial coefficient C(n, n // 2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(n, n // 2)


_involutions = Memo([1, 1], lambda terms: terms[-1] + (len(terms) - 1) * terms[-2])


def involutions(n: int) -> int:
    """Number of involutions of n letters: I(n) = I(n-1) + (n-1) I(n-2)."""
    return _involutions[n]


# --- totals -------------------------------------------------------------------

def _check_totals_args(s: int, n: int) -> None:
    if s < 2:
        raise ValueError("width bound must be at least 2")
    if n < 0:
        raise ValueError("cell count must be >= 0")


def _growth_totals(s: int) -> Memo:
    frontier: dict[tuple[int, ...], int] = {}

    def step(totals: list[int]) -> int:
        # Keep only the current level; a first step (also after clear()) starts afresh.
        nonlocal frontier
        if len(totals) == 1:
            frontier = {(0,) * s: 1}
        level: dict[tuple[int, ...], int] = {}
        get = level.get
        for cols, count in frontier.items():
            for k in range(s):
                if k == 0 or cols[k - 1] > cols[k]:
                    grown = cols[:k] + (cols[k] + 1,) + cols[k + 1:]
                    level[grown] = get(grown, 0) + count
        frontier = level
        return sum(level.values())

    return Memo([1], step)


# One totals memo per width, held as the terms of a memo indexed by s.
_growth_states = Memo([], lambda widths: _growth_totals(len(widths)))


def tau_growth(s: int, n: int) -> int:
    """Total tableau count by a level-by-level corner-growth sweep.

    Carries the full shape -> count map from one cell count to the next, so
    consecutive totals for one s cost a single dictionary pass each. The
    verification suites check it against the definitional and series routes.
    """
    _check_totals_args(s, n)
    return _growth_states[s][n]


# --- totals by Gessel's Bessel determinant --------------------------------------
# A series is its list of exponential generating function coefficients up to one
# degree, so the product is the binomial convolution and stays integral.

def _determinant_totals(s: int, degree: int) -> list[int]:
    """tau_s(0..degree) from Gessel's determinant, 1 <= i, j <= m = s // 2:
    det[I_{i-j} + I_{i+j-1}] for s = 2m, e^x det[I_{i-j} - I_{i+j}] for s = 2m+1,
    where I_v(2x) has coefficient C(n, (n-|v|)/2) when n >= |v| and n = v mod 2.
    It counts at most s rows, hence by conjugation at most s columns."""
    binomials = [[1]]
    for _ in range(degree):
        binomials.append([1, *map(add, binomials[-1], binomials[-1][1:]), 1])

    def times(a: list[int], b: list[int]) -> list[int]:
        return [sum(map(mul, map(mul, row, a), b[n::-1]))
                for n, row in enumerate(binomials)]

    def divide(c: list[int], a: list[int]) -> list[int]:
        q = []  # a * q = c: q_n = c_n - sum_{k>=1} C(n,k) a_k q_{n-k}, exact as a_0 = 1
        for n, row in enumerate(binomials):
            q.append(c[n] - sum(map(mul, map(mul, row[1:], a[1:]), q[::-1])))
        return q

    def bessel(v: int) -> list[int]:
        return [comb(n, (n - v) // 2) if n >= v and (n - v) % 2 == 0 else 0
                for n in range(degree + 1)]

    m, odd = divmod(s, 2)
    matrix = [[[x - y if odd else x + y
                for x, y in zip(bessel(abs(i - j)), bessel(i + j - 1 + odd))]
               for j in range(1, m + 1)] for i in range(1, m + 1)]
    total = [1] * (degree + 1) if odd else [1] + [0] * degree  # e^x or 1
    for k, row in enumerate(matrix):
        pivot = row[k]
        if pivot[0] != 1:
            raise ArithmeticError(f"width-{s} pivot {k} has constant term {pivot[0]}")
        total = times(total, pivot)
        for lower in matrix[k + 1:]:
            factor = divide(lower[k], pivot)
            for c in range(k + 1, m):
                lower[c] = [x - y for x, y in zip(lower[c], times(factor, row[c]))]
    return total


def _series_totals(s: int) -> Memo:
    batch = [1]

    def step(totals: list[int]) -> int:
        # Terms come in order, so a rebuild at n doubles the degree n - 1 built so
        # far: O(log n) rebuilds per width. A first step (also after clear()) rebuilds.
        nonlocal batch
        n = len(totals)
        if n == 1 or n >= len(batch):
            batch = _determinant_totals(s, max(n, 2 * n - 2))
        return batch[n]

    return Memo([1], step)


# One series totals memo per width, held as the terms of a memo indexed by s.
_series_states = Memo([], lambda widths: _series_totals(len(widths)))


def tau_series(s: int, n: int) -> int:
    """Total tableau count from Gessel's Bessel determinant, in exact integers.

    No shape is enumerated. The ratios use this route; the growth sweep is its
    cross-check in the `ratio` suite.
    """
    _check_totals_args(s, n)
    return _series_states[s][n]


@cache
def _tau_definition(s: int, n: int) -> int:
    if s == 2:
        return sum(alpha(n, i) for i in range(n // 2 + 1))
    return sum(gamma_def(s, n, i) for i in range(n // 2 + 1))


def _rec_row_sum(s: int, n: int) -> int:
    return sum(gamma_rec(s, n, i) for i in range(n // 2 + 1))


_tau2_chain = Memo([1], lambda terms: 2 * terms[-1] - _parity_term(len(terms) - 1))


def _checked_steps(s: int) -> Memo:
    """Steps s, s+1, ... of the width-s totals recurrence, each verified once."""
    return Memo([None] * s,
                lambda steps: tau_recurrence_step(s, len(steps), method="recurrence"))


_steps_checked = Memo([], lambda widths: _checked_steps(len(widths)))


def _tau_recurrence(s: int, n: int) -> int:
    if s == 2:
        return _tau2_chain[n]
    # Walk the step identity once per new row so every recurrence total is
    # certified against the row sums it aggregates.
    _steps_checked[s][n]
    return _rec_row_sum(s, n)


def tau(s: int, n: int, method: str = "definition") -> int:
    """Total number of standard tableaux with n cells and at most s columns.

    Args:
        s: width bound, at least 2.
        n: cell count, at least 0.
        method: "definition" (row sum of the definitional table),
            "recurrence" (seeded rows plus the totals recurrence), or
            "closed" (central binomial for s=2, Motzkin for s=3).
    """
    _check_totals_args(s, n)
    if method == "definition":
        return _tau_definition(s, n)
    if method == "recurrence":
        return _tau_recurrence(s, n)
    if method == "closed":
        if s == 2:
            return central_binomial(n)
        if s == 3:
            return motzkin(n)
        raise ValueError(f"no closed form is available for s={s}")
    raise ValueError(f"unknown method {method!r}; expected one of {TAU_METHODS}")


# --- the totals recurrence, term by term ---------------------------------------

@dataclass(frozen=True)
class TauRecurrenceTerms:
    """Term breakdown of one step of the totals recurrence:
    tau_s(n) = main - parity_term - gamma0_term - correction_total."""

    s: int
    n: int
    main: int              # s * tau_s(n-1)
    parity_term: int       # Catalan term, present only when n-1 is even
    gamma0_term: int       # entry (n-1, 0) of the width-s table; 0 for s=2
    correction_total: int  # every correction term feeding row n

    @property
    def value(self) -> int:
        return self.main - self.parity_term - self.gamma0_term - self.correction_total


def correction_aggregate(s: int, n: int) -> int:
    """Sum of every correction term subtracted while producing row n by
    recurrence, the i = 0 ones included. Identically zero for s = 2, whose
    row recurrence needs no corrections."""
    if s == 2:
        return 0
    return sum(term.value for term in row_correction_terms(s, n))


def tau_recurrence_step(s: int, n: int, method: str = "definition") -> TauRecurrenceTerms:
    """Compute one step of the totals recurrence and verify it exactly.

    The four terms are assembled from `method` values ("definition" or
    "recurrence") and checked against tau_s(n) computed the same way; a
    mismatch raises RecurrenceMismatchError carrying the full breakdown.
    """
    if s < 2:
        raise ValueError("width bound must be at least 2")
    if s == 2 and n < 1:
        raise ValueError("the two-column step needs n >= 1")
    if s >= 3 and n < s:
        raise ValueError(f"the width-{s} step needs n >= {s}")
    if method == "definition":
        total_prev, total_here = _tau_definition(s, n - 1), _tau_definition(s, n)
        gamma0 = 0 if s == 2 else gamma_def(s, n - 1, 0)
    elif method == "recurrence":
        if s == 2:
            total_prev, total_here = _tau2_chain[n - 1], _tau2_chain[n]
        else:
            total_prev, total_here = _rec_row_sum(s, n - 1), _rec_row_sum(s, n)
        gamma0 = 0 if s == 2 else gamma_rec(s, n - 1, 0)
    else:
        raise ValueError(f"unknown method {method!r}")
    terms = TauRecurrenceTerms(
        s=s, n=n,
        main=s * total_prev,
        parity_term=_parity_term(n - 1),
        gamma0_term=gamma0,
        correction_total=correction_aggregate(s, n),
    )
    if terms.value != total_here:
        raise RecurrenceMismatchError(
            f"tau_{s}({n}) = {total_here} but the step gives {terms.value}: {terms}")
    return terms


# --- exact ratios ---------------------------------------------------------------

def approx_decimal(value: Fraction, digits: int = 12) -> str:
    """Render an exact rational as a plain decimal string with `digits`
    significant digits. Presentation only; never used in comparisons."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with localcontext() as ctx:
        ctx.prec = digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient, "f")


def ratio(s: int, n: int) -> Fraction:
    """Exact consecutive-totals ratio tau_s(n) / tau_s(n-1)."""
    if n < 1:
        raise ValueError("ratio needs n >= 1")
    return Fraction(tau_series(s, n), tau_series(s, n - 1))


class RatioParts(NamedTuple):
    """The three exact shares of the deficit 3 - tau_3(n)/tau_3(n-1)."""

    parity: Fraction
    gamma0: Fraction
    correction: Fraction

    @property
    def total(self) -> Fraction:
        return self.parity + self.gamma0 + self.correction


def ratio_decomposition(n: int) -> RatioParts:
    """Split 3 - ratio(3, n) into its parity, leading-entry and correction
    shares; the three parts sum to the deficit exactly."""
    if n < 3:
        raise ValueError("the decomposition needs n >= 3")
    denominator = tau_series(3, n - 1)
    return RatioParts(
        parity=Fraction(_parity_term(n - 1), denominator),
        gamma0=Fraction(gamma_def(3, n - 1, 0), denominator),
        correction=Fraction(correction_aggregate(3, n), denominator),
    )


class RatioRow(NamedTuple):
    n: int
    value: Fraction
    approx: str


def ratio_table(s: int, max_n: int, digits: int = 12) -> list[RatioRow]:
    """Exact ratios for n = 1..max_n, each with a presentation decimal."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    rows = []
    for n in range(1, max_n + 1):
        value = ratio(s, n)
        rows.append(RatioRow(n, value, approx_decimal(value, digits)))
    return rows
