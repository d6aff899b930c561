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
from functools import lru_cache
from itertools import chain, repeat
from math import comb
from operator import add, mul
from typing import NamedTuple

from ._memo import Memo, MemoMap
from .gamma import (DEFINITIONAL, RECURRENCE, TABLE_METHODS, _entry_correction, _sweep,
                    _table_row)

TAU_METHODS = ("definition", "recurrence", "closed")


class RecurrenceMismatchError(ArithmeticError):
    """The totals recurrence failed to reproduce an independently computed total."""


def parity_indicator(n: int) -> int:
    """1 if n is even, 0 otherwise. The single parity definition used everywhere."""
    return 1 if n % 2 == 0 else 0


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
    if n.__class__ is not int:  # comb accepts True as 1
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(n, n // 2)


_involutions = Memo([1, 1], lambda terms: terms[-1] + (len(terms) - 1) * terms[-2])


def involutions(n: int) -> int:
    """Number of involutions of n letters: I(n) = I(n-1) + (n-1) I(n-2)."""
    return _involutions[n]


# --- totals -------------------------------------------------------------------

def _check_totals_args(s: int, n: int) -> None:
    if not s.__class__ is n.__class__ is int:  # no float or bool, whatever is cached
        raise TypeError(f"width and cell count must be integers, got {(s, n)!r}")
    if s < 2:
        raise ValueError("width bound must be at least 2")
    if n < 0:
        raise ValueError("cell count must be >= 0")


def tau_growth(s: int, n: int) -> int:
    """Total tableau count: level n of the width-s corner-growth sweep that gives the
    definitional rows and correction terms, summed. `verify` checks it against
    Frobenius totals and the series route."""
    _check_totals_args(s, n)
    return sum(_sweep[s][n][0])


# --- totals by Gessel's Bessel determinant --------------------------------------
# A series is its list of exponential generating function coefficients, so a product
# is the binomial convolution and stays integral. The determinant is e^x or 1 times the
# pivots of an elimination without row swaps, and coefficient n of a product or quotient
# reads only coefficients <= n of its inputs, so the elimination runs one n at a time.

@MemoMap
def _series_states(s: int) -> Memo:
    """tau_s(n) from Gessel's determinant, 1 <= i, j <= m = s // 2:
    det[I_{i-j} + I_{i+j-1}] for s = 2m, e^x det[I_{i-j} - I_{i+j}] for s = 2m+1,
    where I_v(2x) has coefficient C(n, (n-|v|)/2) when n >= |v| and n = v mod 2.
    It counts at most s rows, hence by conjugation at most s columns."""
    m, odd = divmod(s, 2)
    # Only these series keep their history: row k with rows 0..k-1 eliminated (entries
    # k..m-1, the pivot first), the factors that eliminate it from the rows below, and
    # e^x or 1 times pivots 0..k-1. Every other entry needs only its coefficient n.
    rows = [[[] for _ in range(k, m)] for k in range(m)]
    factors = [[[] for _ in range(k + 1, m)] for k in range(m)]
    products = [[] for _ in range(m)]
    binomial = [1]  # C(n, j) for j = 0..n

    def step(totals: list[int]) -> int:
        nonlocal binomial
        n = len(totals)
        for series in chain(*rows, *factors, products):
            del series[n:]  # drop what clear() or a failed step left past n
        if not n:
            binomial = [1]
        bessel = [comb(n, (n - v) // 2) if n >= v and (n - v) % 2 == 0 else 0
                  for v in range(2 * m + 1)]
        entry = [[bessel[abs(i - j)] + (-1) ** odd * bessel[i + j + 1 + odd]
                  for j in range(m)] for i in range(m)]
        products[0].append(1 if odd or not n else 0)  # e^x or 1
        for k, row in enumerate(rows):
            for series, x in zip(row, entry[k][k:]):
                series.append(x)
            pivot = row[0]
            if pivot[0] != 1:  # the factors are exact only while it is 1
                raise ArithmeticError(f"width-{s} pivot {k} has constant term {pivot[0]}")
            total = sum(map(mul, map(mul, binomial, products[k]), reversed(pivot)))
            if k + 1 == m:  # the last pivot has no rows below it
                break
            products[k + 1].append(total)
            # factor * pivot = entry: q_n = e_n - sum_{j=1..n} C(n, j) p_j q_{n-j}
            weights = list(map(mul, binomial[:0:-1], pivot[:0:-1]))  # j = n..1
            for factor, lower in zip(factors[k], entry[k + 1:]):
                factor.append(lower[k] - sum(map(mul, weights, factor)))
                scaled = list(map(mul, binomial, reversed(factor)))  # C(n, j) q_{n-j}
                for c, series in enumerate(row[1:], k + 1):
                    lower[c] -= sum(map(mul, scaled, series))
        binomial = [1, *map(add, binomial, binomial[1:]), 1]  # for step n + 1
        return total

    return Memo([], step)


def tau_series(s: int, n: int) -> int:
    """Total tableau count from Gessel's Bessel determinant, in exact integers.

    No shape is enumerated. The ratios use this route; the growth sweep is its
    cross-check in the `ratio` suite.
    """
    _check_totals_args(s, n)
    return _series_states[s][n]


@MemoMap
def _steps_checked(s: int) -> Memo:
    """The width-s totals step on the recurrence rows from n = 1 on, at every width,
    each step verified once: term n is its `TauRecurrenceTerms`."""
    return Memo([None],
                lambda steps: tau_recurrence_step(s, len(steps), method="recurrence"))


def _tau_recurrence(s: int, n: int) -> int:
    # Walk the step identity once per new row so every recurrence total is
    # certified against the row sums it aggregates.
    _steps_checked[s][n]
    return sum(_table_row(s, n, RECURRENCE))


# The widths with a closed-form total, and the reference sequence giving it.
CLOSED_FORMS = {2: central_binomial, 3: motzkin}


# typed, like gamma_def: a float or bool argument misses and meets the gate
@lru_cache(maxsize=None, typed=True)
def tau(s: int, n: int, method: str = "definition") -> int:
    """Total number of standard tableaux with n cells and at most s columns.

    Args:
        s: width bound, at least 2.
        n: cell count, at least 0.
        method: "definition" (row sum of the definitional table: hook counts
            of the two-column shapes for s=2, the `tau_growth` sweep otherwise),
            "recurrence" (row sum of the recurrence table, once the totals
            recurrence has been verified on every step up to n), or
            "closed" (central binomial for s=2, Motzkin for s=3).
    """
    _check_totals_args(s, n)
    if method == "definition":
        return sum(_table_row(s, n, DEFINITIONAL))
    if method == "recurrence":
        return _tau_recurrence(s, n)
    if method == "closed":
        if s not in CLOSED_FORMS:
            raise ValueError(f"no closed form is available for s={s}")
        return CLOSED_FORMS[s](n)
    raise ValueError(f"unknown method {method!r}; expected one of {TAU_METHODS}")


# --- the totals recurrence, term by term ---------------------------------------

@dataclass(frozen=True)
class TauRecurrenceTerms:
    """Term breakdown of one step of the totals recurrence, which holds for every
    n >= 1 at every width s >= 2:
    tau_s(n) = main - parity_term - gamma0_term - correction_total."""

    s: int
    n: int
    main: int              # s * tau_s(n-1)
    parity_term: int       # Catalan term C_((n-1)/2), present only when n-1 is even
    gamma0_term: int       # entry (n-1, 0) of the width-s table; 0 for s=2
    correction_total: int  # every correction total feeding row n; 0 for s=2

    @property
    def value(self) -> int:
        return self.main - self.parity_term - self.gamma0_term - self.correction_total


def tau_recurrence_step(s: int, n: int, method: str = "definition") -> TauRecurrenceTerms:
    """Compute one step of the totals recurrence, n >= 1, and verify it exactly.

    Rows n-1 and n come from the table that `method` names ("definition" or
    "recurrence", as in TABLE_METHODS). The four terms are assembled from row
    n-1 and the correction totals of row n's entries (none at width 2, whose row
    recurrence needs no corrections), and checked against the sum of row n; a
    mismatch raises RecurrenceMismatchError carrying the full breakdown. This is
    the one place that builds the terms: `ratio_decomposition` reads them.
    """
    _check_totals_args(s, n)  # 2.0 would put a float in the terms
    if n < 1:
        raise ValueError("the totals step needs n >= 1")
    if method not in TABLE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    prev, here = (_table_row(s, k, TABLE_METHODS[method]) for k in (n - 1, n))
    terms = TauRecurrenceTerms(
        s=s, n=n,
        main=s * sum(prev),
        parity_term=catalan((n - 1) // 2) if parity_indicator(n - 1) else 0,
        gamma0_term=0 if s == 2 else prev[0],
        correction_total=0 if s == 2 else sum(
            _entry_correction(s, n, i) for i in range(n // 2 + 1)),
    )
    if terms.value != (total := sum(here)):
        raise RecurrenceMismatchError(
            f"tau_{s}({n}) = {total} but the step gives {terms.value}: {terms}")
    return terms


# --- exact ratios ---------------------------------------------------------------

def approx_decimal(value: Fraction, digits: int = 12) -> str:
    """Render an exact rational as a plain decimal string with `digits`
    significant digits. Presentation only; never used in comparisons."""
    if value.__class__ is not Fraction:  # 3 has a numerator too
        raise TypeError(f"value must be a Fraction, got {value!r}")
    if digits.__class__ is not int:  # True would pass as 1 digit
        raise TypeError(f"digits must be an integer, got {digits!r}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    with localcontext() as ctx:
        ctx.prec = digits
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient, "f")


@lru_cache(maxsize=None, typed=True)
def ratio(s: int, n: int) -> Fraction:
    """Exact consecutive-totals ratio tau_s(n) / tau_s(n-1)."""
    if n.__class__ is not int:  # 0.5 must not fail the range check first
        raise TypeError(f"n must be an integer, got {n!r}")
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
    """Split 3 - ratio(3, n) into its parity, leading-entry and correction shares:
    the subtracted terms of the verified step `tau_recurrence_step(3, n)`, each over
    `tau_series(3, n - 1)`. The three parts sum to the deficit exactly."""
    if n.__class__ is not int:  # True must not fail the range check first
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise ValueError("the decomposition needs n >= 3")
    step, denominator = tau_recurrence_step(3, n), tau_series(3, n - 1)
    return RatioParts(*(Fraction(term, denominator) for term in
                        (step.parity_term, step.gamma0_term, step.correction_total)))


class RatioRow(NamedTuple):
    n: int
    value: Fraction
    approx: str


def ratio_table(s: int, max_n: int) -> list[RatioRow]:
    """Exact ratios for n = 1..max_n, each with a 12-digit presentation decimal."""
    if max_n.__class__ is not int:  # range(1, True + 1) would give one row
        raise TypeError(f"max_n must be an integer, got {max_n!r}")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    values = map(ratio, repeat(s), range(1, max_n + 1))
    return [RatioRow(n, value, approx_decimal(value)) for n, value in enumerate(values, 1)]
