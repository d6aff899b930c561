"""Verification suites: every identity the library relies on, cross-checked
over explicit ranges against independent routes, with machine-readable
reports."""

from __future__ import annotations

import inspect
import time
from fractions import Fraction
from math import factorial

from .counting import (DEFAULT_ENUMERATION_CAP, syt_count_hlf,
                       syt_count_recursive, syt_enumerate)
from .gamma import (NegativeEntryError, _recurrence_entry, _two_column_def, alpha,
                    ballot_entry, compare_methods, correction_r, correction_r3, gamma_def)
from .report import CheckResult, VerificationReport, run_check
from .sequences import (RecurrenceMismatchError, catalan, central_binomial,
                        involutions, motzkin, parity_indicator, ratio, ratio_decomposition,
                        tau, tau_growth, tau_recurrence_step, tau_series)
from .shapes import ColumnShape, conjugate, partitions_at_most


def _timed(suite: str, builders) -> VerificationReport:
    start = time.perf_counter()
    checks = [check for build in builders for check in build()]
    return VerificationReport(suite=suite, checks=checks,
                              elapsed=time.perf_counter() - start)


def _skipped(name: str, reason: str) -> CheckResult:
    return CheckResult(name=name, scope=f"skipped: {reason}", passed=True, checked=0)


# --- two-column triangle -------------------------------------------------------

def suite_alpha(max_n: int = 40, catalan_n: int = 30) -> VerificationReport:
    """Initial conditions, definitional agreement, columnwise sums, and the
    Catalan diagonal of the two-column triangle."""

    def initial_conditions():
        def cases():
            for n in range(max_n + 1):
                yield f"alpha({n},0) != 1", alpha(n, 0) == 1
            for i in range(1, max_n + 1):
                yield f"alpha(1,{i}) != 0", alpha(1, i) == 0
            for n in range(max_n + 1):
                for i in range(n // 2 + 1, n + 2):
                    yield f"alpha({n},{i}) != 0", alpha(n, i) == 0
        yield run_check("alpha-initial-conditions", f"n<={max_n}", cases())

    def hlf_agreement():
        def cases():
            for n in range(max_n + 1):
                for i in range(n // 2 + 1):
                    yield (f"alpha({n},{i}) != hook count",
                           alpha(n, i) == _two_column_def(n, i))
        yield run_check("alpha-hook-agreement", f"n<={max_n}", cases())

    def columnwise():
        def cases():
            for n in range(1, max_n + 1):
                for i in range(1, n // 2 + 1):
                    total = sum(alpha(h, i - 1) for h in range(2 * i - 1, n))
                    yield f"columnwise sum fails at ({n},{i})", alpha(n, i) == total
        yield run_check("alpha-columnwise-sum", f"1<=i<=n//2, n<={max_n}", cases())

    def catalan_diagonal():
        def cases():
            for k in range(catalan_n + 1):
                yield f"alpha({2 * k},{k}) != catalan({k})", alpha(2 * k, k) == catalan(k)
        yield run_check("alpha-catalan-diagonal", f"k<={catalan_n}", cases())

    def ballot():
        def cases():
            for j in range(catalan_n + 1):
                yield f"ballot({j},{j}) != 1", ballot_entry(j, j) == 1
                yield (f"ballot({j},0) != catalan({j})",
                       ballot_entry(j, 0) == catalan(j))
        yield run_check("ballot-reindexing", f"j<={catalan_n}", cases())

    return _timed("alpha", [initial_conditions, hlf_agreement, columnwise,
                            catalan_diagonal, ballot])


# --- width-3 table ---------------------------------------------------------------

def _recurrence_identity_check(s: int, max_n: int) -> CheckResult:
    """The row recurrence applied to the definitional previous row, so the
    recurrence itself is what gets tested."""
    def cases():
        for n in range(1, max_n + 1):
            prev_row = [gamma_def(s, n - 1, i) for i in range((n - 1) // 2 + 1)]
            for i in range(n // 2 + 1):
                try:
                    ok = _recurrence_entry(s, n, i, prev_row) == gamma_def(s, n, i)
                except NegativeEntryError:
                    ok = False
                yield (f"recurrence misses definitional value at s={s}, n={n}, i={i}", ok)
    return run_check(f"recurrence-identity-s{s}", f"1<=n<={max_n}", cases())


def suite_gamma3(max_n: int = 40, r3_cross_n: int = 30) -> VerificationReport:
    """The width-3 table: both build routes agree, the recurrence holds on
    definitional values, the one-shape correction matches the generic family,
    and row sums are Motzkin numbers."""

    def both_routes():
        yield from compare_methods(3, max_n).checks

    def identity():
        yield _recurrence_identity_check(3, max_n)

    def r3_vs_generic():
        def cases():
            for n in range(1, r3_cross_n + 1):
                for i in range(1, n // 2 + 1):
                    generic = correction_r(3, 1, n - 1, i - 1)
                    yield (f"correction mismatch at n={n}, i={i}",
                           correction_r3(n, i) == generic)
        yield run_check("r3-equals-generic-correction", f"n<={r3_cross_n}", cases())

    def motzkin_rows():
        bound = min(25, max_n)
        def cases():
            for n in range(bound + 1):
                row = sum(gamma_def(3, n, i) for i in range(n // 2 + 1))
                yield f"row sum at n={n} is not motzkin({n})", row == motzkin(n)
        yield run_check("gamma3-motzkin-row-sums", f"n<={bound}", cases())

    return _timed("gamma3", [both_routes, identity, r3_vs_generic, motzkin_rows])


def suite_gammas(max_n: int = 25) -> VerificationReport:
    """Width-4 and width-5 tables: both build routes agree and the recurrence
    holds on definitional values."""
    builders = []
    for s in (4, 5):
        builders.append(lambda s=s: iter(compare_methods(s, max_n).checks))
        builders.append(lambda s=s: iter([_recurrence_identity_check(s, max_n)]))
    return _timed("gammaS", builders)


# --- totals ----------------------------------------------------------------------

def _step_check(s: int, n_lo: int, n_hi: int) -> CheckResult:
    def cases():
        for n in range(n_lo, n_hi + 1):
            try:
                tau_recurrence_step(s, n, method="definition")
            except RecurrenceMismatchError as exc:
                yield str(exc), False
            else:
                yield "", True
    return run_check(f"tau{s}-step-breakdown", f"{n_lo}<=n<={n_hi}", cases())


def suite_tau(max2: int = 60, max3: int = 40, max45: int = 25) -> VerificationReport:
    """Totals by every route agree with each other and with the reference
    sequences, and the step-by-step recurrence breakdown holds exactly."""

    def tau2_threeway():
        def cases():
            for n in range(max2 + 1):
                by_def = tau(2, n, "definition")
                ok = (by_def == tau(2, n, "recurrence") == tau(2, n, "closed")
                      == central_binomial(n))
                yield f"tau_2({n}) routes disagree", ok
        yield run_check("tau2-three-methods", f"n<={max2}", cases())

    def tau2_steps():
        yield _step_check(2, 1, max2)

    def tau3_motzkin():
        def cases():
            for n in range(max3 + 1):
                by_def = tau(3, n, "definition")
                ok = by_def == tau(3, n, "recurrence") == motzkin(n)
                yield f"tau_3({n}) routes disagree", ok
        yield run_check("tau3-motzkin", f"n<={max3}", cases())

    def tau3_steps():
        if max3 >= 3:
            yield _step_check(3, 3, max3)
        else:
            yield _skipped("tau3-step-breakdown", "needs n >= 3")

    def tau3_anchors():
        anchors = {4: (12, 0, 2, 1, 9), 6: (63, 0, 7, 5, 51)}
        def cases():
            for n, expected in anchors.items():
                if n > max3:
                    continue
                t = tau_recurrence_step(3, n, method="definition")
                got = (t.main, t.parity_term, t.gamma0_term, t.correction_total, t.value)
                yield f"anchor at n={n}: {got} != {expected}", got == expected
        yield run_check("tau3-step-anchors", "n in {4, 6}", cases())

    def taus_agree():
        def cases():
            for s in (4, 5):
                for n in range(max45 + 1):
                    yield (f"tau_{s}({n}) definition != recurrence",
                           tau(s, n, "definition") == tau(s, n, "recurrence"))
        yield run_check("tauS-def-vs-rec", f"s in {{4,5}}, n<={max45}", cases())

    def taus_steps():
        for s in (4, 5):
            if max45 >= s:
                yield _step_check(s, s, max45)
            else:
                yield _skipped(f"tau{s}-step-breakdown", f"needs n >= {s}")

    def tau4_anchor():
        def cases():
            if max45 >= 4:
                t = tau_recurrence_step(4, 4, method="definition")
                got = (t.main, t.parity_term, t.gamma0_term, t.correction_total, t.value)
                yield f"tau_4(4) anchor: {got}", got == (16, 0, 2, 4, 10)
        yield run_check("tau4-step-anchor", "n=4", cases())

    def growth_agrees():
        bound = min(20, max2, max3, max45)
        def cases():
            for s in (2, 3, 4, 5):
                for n in range(bound + 1):
                    yield (f"growth total != definitional at s={s}, n={n}",
                           tau_growth(s, n) == tau(s, n, "definition"))
        yield run_check("tau-growth-agreement", f"s<=5, n<={bound}", cases())

    return _timed("tau", [tau2_threeway, tau2_steps, tau3_motzkin, tau3_steps,
                          tau3_anchors, taus_agree, taus_steps, tau4_anchor,
                          growth_agrees])


# --- ratios ------------------------------------------------------------------------

def suite_ratio(max3: int = 200, max45: int = 120, cross_n: int = 40) -> VerificationReport:
    """Series totals agree with the growth sweep, and the exact ratios
    tau_s(n) / tau_s(n-1) keep their bound, approach, and decomposition properties."""
    ranges = {3: max3, 4: max45, 5: max45}

    def series_vs_growth():
        cases = ((f"series total != growth total at s={s}, n={n}",
                  tau_series(s, n) == tau_growth(s, n))
                 for s in range(2, 8) for n in range(cross_n + 1))
        yield run_check("ratio-totals-series-vs-growth", f"2<=s<=7, n<={cross_n}", cases)

    def strict_bound():
        def cases():
            for s, hi in ranges.items():
                for n in range(1, hi + 1):
                    yield f"ratio({s},{n}) >= {s}", ratio(s, n) < s
        yield run_check("ratio-strict-bound", f"s in {{3,4,5}}, n up to {ranges}", cases())

    def limit_proximity():
        if max3 < 200:
            yield _skipped("ratio3-limit-proximity", "needs n = 200")
            return
        gap = 3 - ratio(3, 200)
        yield run_check("ratio3-limit-proximity", "n=200, tolerance 1/20",
                        [(f"3 - ratio(3,200) = {gap}", abs(gap) < Fraction(1, 20))])

    def deficit_monotone():
        # For s=4 consecutive exact ratios repeat in pairs, so per-step
        # decrease is non-strict there; the approach is certified by each
        # step being non-increasing plus a strict drop across the window.
        def cases():
            for s, hi in ranges.items():
                values = [s - ratio(s, n) for n in range(50, hi + 1)]
                for offset in range(len(values) - 1):
                    yield (f"deficit increased at s={s}, n={50 + offset + 1}",
                           values[offset + 1] <= values[offset])
                if len(values) >= 2:
                    yield (f"deficit failed to drop across the window for s={s}",
                           values[-1] < values[0])
        yield run_check("ratio-deficit-monotone", f"s in {{3,4,5}}, 50<=n, caps {ranges}",
                        cases())

    def even_equality():
        bound = min(60, max3)
        def cases():
            for n in range(1, bound + 1):
                value = ratio(2, n)
                expected_equal = parity_indicator(n) == 1
                yield (f"ratio(2,{n}) = {value}",
                       value <= 2 and (value == 2) == expected_equal)
        yield run_check("ratio2-even-equality", f"n<={bound}", cases())

    def decomposition():
        hi = min(40, max3)
        if hi < 3:
            yield _skipped("ratio3-decomposition", "needs n >= 3")
            return
        def cases():
            for n in range(3, hi + 1):
                parts = ratio_decomposition(n)
                yield (f"decomposition at n={n} does not sum to the deficit",
                       parts.total == 3 - ratio(3, n))
        yield run_check("ratio3-decomposition-exact", f"3<=n<={hi}", cases())
        lo = 10
        if hi <= lo:
            yield _skipped("ratio3-decomposition-shrink", f"needs n > {lo}")
            return
        strict = hi >= 40
        early, late = ratio_decomposition(lo), ratio_decomposition(hi)
        def shrink_cases():
            yield (f"parity share grew: {late.parity} > {early.parity}",
                   late.parity <= early.parity)
            if strict:
                yield ("gamma0 share did not shrink", late.gamma0 < early.gamma0)
                yield ("correction share did not shrink",
                       late.correction < early.correction)
            else:
                yield ("gamma0 share grew", late.gamma0 <= early.gamma0)
                yield ("correction share grew", late.correction <= early.correction)
        yield run_check("ratio3-decomposition-shrink", f"n={lo} vs n={hi}",
                        shrink_cases())

    return _timed("ratio", [series_vs_growth, strict_bound, limit_proximity,
                            deficit_monotone, even_equality, decomposition])


# --- brute-force oracles --------------------------------------------------------------

def suite_oracle(max_cells: int = 12, conj_cells: int = 20, ident_n: int = 10,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """The three per-shape counting routes agree, counts are conjugation
    invariant, and the classical square-sum and involution identities hold."""

    def triple_agreement():
        bound = min(max_cells, cap)  # explicit listing never outruns the cap

        def cases():
            for n in range(bound + 1):
                for cols in partitions_at_most(n, 6):
                    shape = ColumnShape(cols)
                    hook = syt_count_hlf(shape)
                    removal = syt_count_recursive(shape)
                    listed = sum(1 for _ in syt_enumerate(shape, cap=cap))
                    yield (f"counts disagree on {shape}: hook={hook}, "
                           f"removal={removal}, listed={listed}",
                           hook == removal == listed)
        yield run_check("oracle-triple-agreement",
                        f"shapes with <={bound} cells, <=6 columns", cases())

    def conjugation():
        def cases():
            for n in range(conj_cells + 1):
                for cols in partitions_at_most(n, max(n, 1)):
                    shape = ColumnShape(cols)
                    flipped = conjugate(shape)
                    yield (f"count changed under conjugation of {shape}",
                           syt_count_hlf(shape) == syt_count_hlf(flipped))
        yield run_check("conjugation-invariance", f"shapes with <={conj_cells} cells",
                        cases())

    def square_sum():
        def cases():
            for n in range(ident_n + 1):
                total = sum(syt_count_hlf(ColumnShape(cols)) ** 2
                            for cols in partitions_at_most(n, max(n, 1)))
                yield f"sum of squares at n={n} is not {n}!", total == factorial(n)
        yield run_check("square-sum-factorial", f"n<={ident_n}", cases())

    def involution_sum():
        def cases():
            for n in range(ident_n + 1):
                total = sum(syt_count_hlf(ColumnShape(cols))
                            for cols in partitions_at_most(n, max(n, 1)))
                yield (f"count sum at n={n} is not involutions({n})",
                       total == involutions(n))
        yield run_check("involution-sum", f"n<={ident_n}", cases())

    return _timed("oracle", [triple_agreement, conjugation, square_sum,
                             involution_sum])


# --- dispatch -----------------------------------------------------------------------

_SUITES = {"alpha": suite_alpha, "gamma3": suite_gamma3, "gammaS": suite_gammas,
           "tau": suite_tau, "ratio": suite_ratio, "oracle": suite_oracle}
SUITE_NAMES = (*_SUITES, "all")

# Under `max_cells = m` every range becomes m, except these: min(default, m // divisor).
# The divisor 2 is there because the Catalan diagonal puts 2k cells at k.
_CAPPED_RANGES = {"catalan_n": 2, "r3_cross_n": 1, "cross_n": 1, "conj_cells": 1,
                  "ident_n": 1}


def run_suite(name: str, max_cells: int | None = None,
              oracle_cap: int | None = None) -> VerificationReport:
    """Run one named suite (or "all"), clipping ranges to `max_cells` when given."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    if oracle_cap is not None and oracle_cap < 0:
        raise ValueError("oracle_cap must be >= 0")

    def build(suite: str) -> VerificationReport:
        params = inspect.signature(_SUITES[suite]).parameters
        ranges = {} if max_cells is None else {
            param: min(spec.default, max_cells // _CAPPED_RANGES[param])
            if param in _CAPPED_RANGES else max_cells
            for param, spec in params.items() if param != "cap"}
        if "cap" in params and oracle_cap is not None:
            ranges["cap"] = oracle_cap
        return _SUITES[suite](**ranges)

    if name != "all":
        return build(name)
    return _timed("all", [lambda suite=suite: build(suite).checks for suite in _SUITES])
