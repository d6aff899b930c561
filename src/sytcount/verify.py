"""Verification suites: every identity the library relies on, cross-checked
over explicit ranges against independent routes, with machine-readable
reports."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import factorial
from typing import Callable, Iterable, Iterator

from .counting import (DEFAULT_ENUMERATION_CAP, _hook_count, listed_counts, syt_count_hlf,
                       syt_count_hook_product, syt_count_recursive)
from .gamma import (_recurrence_entry, _two_column_def, alpha, ballot_entry, correction_r,
                    correction_r3, gamma_def, gamma_rec)
from .report import CheckResult, VerificationReport, run_check, skip_check, timed_report
from .sequences import (catalan, central_binomial, involutions, motzkin, parity_indicator,
                        ratio, ratio_decomposition, tau, tau_growth, tau_recurrence_step,
                        tau_series)
from .shapes import ColumnShape, _transpose, enumerate_family, partitions_at_most


def _range(max_cells: int | None, default: int, divisor: int = 0) -> int:
    """A suite range: `default` when `max_cells` is None, else `max_cells` itself, or
    `min(default, max_cells // divisor)` for a range capped by a divisor."""
    if max_cells is None:
        return default
    return min(default, max_cells // divisor) if divisor else max_cells


def _agree(name: str, scope: str, points: Iterable[tuple], routes: list[Callable],
           text: str) -> CheckResult:
    """One case per point, an argument tuple: it passes when every route gives the same
    value there. A failing case is described by `text.format(*point, *values)`, `values`
    being each route's result in route order; a passing one is never formatted. A route
    that raises an `ArithmeticError` fails the case, its exception standing in for its
    value."""
    def cases():
        for point in points:
            values, raised = [], False
            for route in routes:
                try:
                    values.append(route(*point))
                except ArithmeticError as exc:  # a wrong route fails its case, not `verify`
                    values.append(f"{exc.__class__.__name__}({exc})")
                    raised = True
            ok = not raised and len(set(values)) == 1
            yield None if ok else text.format(*point, *values), ok
    return run_check(name, scope, cases())


# --- two-column triangle -------------------------------------------------------

def suite_alpha(max_cells: int | None = None) -> Iterator[CheckResult]:
    """Initial conditions, definitional agreement, columnwise sums, and the
    Catalan diagonal of the two-column triangle."""
    max_n, catalan_n = _range(max_cells, 40), _range(max_cells, 30, 2)  # 2k cells at k
    def cases():
        for n in range(max_n + 1):
            yield f"alpha({n},0) != 1", alpha(n, 0) == 1
        for i in range(1, max_n + 1):
            yield f"alpha(1,{i}) != 0", alpha(1, i) == 0
        for n in range(max_n + 1):
            for i in range(n // 2 + 1, n + 2):
                yield f"alpha({n},{i}) != 0", alpha(n, i) == 0
    yield run_check("alpha-initial-conditions", f"n<={max_n}", cases())

    yield _agree("alpha-hook-agreement", f"n<={max_n}",
                 ((n, i) for n in range(max_n + 1) for i in range(n // 2 + 1)),
                 [alpha, _two_column_def], "alpha({},{}) != hook count")

    yield _agree("alpha-columnwise-sum", f"1<=i<=n//2, n<={max_n}",
                 ((n, i) for n in range(1, max_n + 1) for i in range(1, n // 2 + 1)),
                 [alpha, lambda n, i: sum(alpha(h, i - 1) for h in range(2 * i - 1, n))],
                 "columnwise sum fails at ({},{})")

    yield _agree("alpha-catalan-diagonal", f"k<={catalan_n}",
                 ((2 * k, k) for k in range(catalan_n + 1)),
                 [alpha, lambda n, k: catalan(k)], "alpha({0},{1}) != catalan({1})")

    def cases():
        for j in range(catalan_n + 1):
            yield f"ballot({j},{j}) != 1", ballot_entry(j, j) == 1
            yield (f"ballot({j},0) != catalan({j})",
                   ballot_entry(j, 0) == catalan(j))
    yield run_check("ballot-reindexing", f"j<={catalan_n}", cases())


# --- width-3 table ---------------------------------------------------------------

def compare_methods(s: int, max_n: int) -> VerificationReport:
    """Entrywise comparison of the definitional and recurrence tables."""
    if not s.__class__ is max_n.__class__ is int:  # True would compare rows 0..1
        raise TypeError(f"width and row count must be integers, got {(s, max_n)!r}")
    if s < 3:
        raise ValueError("width bound must be at least 3")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    def checks():  # drawn by timed_report, so `elapsed` covers the comparison
        entries = [(s, n, i) for n in range(max_n + 1) for i in range(n // 2 + 1)]
        yield _agree("gamma-def-vs-recurrence",
                     f"s={s}, n<={max_n} ({len(entries)} entries)",
                     entries, [gamma_def, gamma_rec],
                     "n={1}, i={2}: definitional={3}, recurrence={4}")
    return timed_report(f"gamma-compare-s{s}", checks())


def _recurrence_identity_check(s: int, max_n: int) -> CheckResult:
    """The row recurrence applied to the previous validated-shape row, so the recurrence
    itself is what gets tested, against that row's own entry and against gamma_def."""
    @cache
    def row(n):  # built once per n, from validated shapes and their hook counts
        entries = [0] * (n // 2 + 1)
        for shape in enumerate_family(n, s):
            entries[shape.column(2) - shape.column(3)] += syt_count_hlf(shape)
        return entries
    return _agree(f"recurrence-identity-s{s}", f"1<=n<={max_n}",
                  ((s, n, i) for n in range(1, max_n + 1) for i in range(n // 2 + 1)),
                  [lambda s, n, i: _recurrence_entry(s, n, i, row(n - 1)),
                   lambda s, n, i: row(n)[i], gamma_def],
                  "recurrence misses definitional value at s={}, n={}, i={}: "
                  "recurrence={}, shapes={}, gamma_def={}")


def suite_gamma3(max_cells: int | None = None) -> Iterator[CheckResult]:
    """The width-3 table: both build routes agree, the recurrence holds on
    definitional values, the one-shape correction matches the generic family,
    and row sums are Motzkin numbers."""
    max_n, r3_cross_n = _range(max_cells, 40), _range(max_cells, 30, 1)
    yield from compare_methods(3, max_n).checks
    yield _recurrence_identity_check(3, max_n)

    yield _agree("r3-equals-generic-correction", f"n<={r3_cross_n}",
                 ((n, i) for n in range(1, r3_cross_n + 1) for i in range(1, n // 2 + 1)),
                 [correction_r3, lambda n, i: correction_r(3, 1, n - 1, i - 1)],
                 "correction mismatch at n={}, i={}")

    bound = _range(max_cells, 25, 1)
    yield _agree("gamma3-motzkin-row-sums", f"n<={bound}", product(range(bound + 1)),
                 [lambda n: sum(gamma_def(3, n, i) for i in range(n // 2 + 1)), motzkin],
                 "row sum at n={0} is not motzkin({0})")


def suite_gammas(max_cells: int | None = None) -> Iterator[CheckResult]:
    """Width-4 and width-5 tables: both build routes agree and the recurrence
    holds on definitional values."""
    max_n = _range(max_cells, 25)
    for s in (4, 5):
        yield from compare_methods(s, max_n).checks
        yield _recurrence_identity_check(s, max_n)


# --- totals ----------------------------------------------------------------------

def _step_check(s: int, max_n: int) -> CheckResult:
    """The totals step on the definitional rows against the series totals, which read
    no table row, from n = 1 for s = 2, else n = s, to `max_n`. This range and its
    skip record are pinned by the `tau` golden digests and perfbench's `verify-cli`
    outputs; they are not the step's domain, which starts at n = 1 at every width."""
    name = f"tau{s}-step-breakdown"
    lo = 1 if s == 2 else s
    if s > 2 and max_n < s:
        return skip_check(name, f"needs n >= {s}")
    return _agree(name, f"{lo}<=n<={max_n}", product([s], range(lo, max_n + 1)),
                  [lambda s, n: tau_recurrence_step(s, n, "definition").value,
                   tau_series],
                  "tau_{}({}) step breakdown: step={}, total={}")


def _step_terms(s: int, n: int) -> tuple[int, ...]:
    """The width-s totals step as (main, parity, gamma0, corrections, value)."""
    t = tau_recurrence_step(s, n, method="definition")
    return t.main, t.parity_term, t.gamma0_term, t.correction_total, t.value


def suite_tau(max_cells: int | None = None) -> Iterator[CheckResult]:
    """Totals by every route agree with each other and with the reference
    sequences, and the step-by-step recurrence breakdown holds exactly."""
    max2, max3, max45 = _range(max_cells, 60), _range(max_cells, 40), _range(max_cells, 25)
    anchors = {(3, 4): (12, 0, 2, 1, 9), (3, 6): (63, 0, 7, 5, 51),  # in _step_terms' order
               (4, 4): (16, 0, 2, 4, 10)}
    by_def, by_rec, closed = (partial(tau, method=method)
                              for method in ("definition", "recurrence", "closed"))
    yield _agree("tau2-three-methods", f"n<={max2}", product([2], range(max2 + 1)),
                 [by_def, by_rec, closed, lambda s, n: central_binomial(n)],
                 "tau_{}({}) routes disagree")
    yield _step_check(2, max2)

    yield _agree("tau3-motzkin", f"n<={max3}", product([3], range(max3 + 1)),
                 [by_def, by_rec, lambda s, n: motzkin(n)], "tau_{}({}) routes disagree")
    yield _step_check(3, max3)

    yield _agree("tau3-step-anchors", "n in {4, 6}", [(3, n) for n in (4, 6) if n <= max3],
                 [_step_terms, lambda s, n: anchors[s, n]], "anchor at n={1}: {2} != {3}")

    yield _agree("tauS-def-vs-rec", f"s in {{4,5}}, n<={max45}",
                 product((4, 5), range(max45 + 1)), [by_def, by_rec],
                 "tau_{}({}) definition != recurrence")
    for s in (4, 5):
        yield _step_check(s, max45)

    yield _agree("tau4-step-anchor", "n=4", [(4, 4)] if max45 >= 4 else [],
                 [_step_terms, lambda s, n: anchors[s, n]], "tau_4(4) anchor: {2}")

    # tau(s, n, "definition") reads the same sweep: match Frobenius totals instead.
    bound = _range(max_cells, 20, 1)
    yield _agree("tau-growth-agreement", f"s<=5, n<={bound}",
                 product((2, 3, 4, 5), range(bound + 1)),
                 [tau_growth, lambda s, n: sum(map(_hook_count, partitions_at_most(n, s)))],
                 "growth total != definitional at s={}, n={}")


# --- ratios ------------------------------------------------------------------------

def suite_ratio(max_cells: int | None = None) -> Iterator[CheckResult]:
    """Series totals agree with the growth sweep, and the exact ratios
    tau_s(n) / tau_s(n-1) keep their bound, approach, and decomposition properties."""
    max3, max45 = _range(max_cells, 200), _range(max_cells, 120)
    cross_n = _range(max_cells, 40, 1)
    ranges = {3: max3, 4: max45, 5: max45}
    yield _agree("ratio-totals-series-vs-growth", f"2<=s<=7, n<={cross_n}",
                 product(range(2, 8), range(cross_n + 1)), [tau_series, tau_growth],
                 "series total != growth total at s={}, n={}")

    def cases():
        for s, hi in ranges.items():
            for n in range(1, hi + 1):
                yield f"ratio({s},{n}) >= {s}", ratio(s, n) < s
    yield run_check("ratio-strict-bound", f"s in {{3,4,5}}, n up to {ranges}", cases())

    if max3 < 200:
        yield skip_check("ratio3-limit-proximity", "needs n = 200")
    else:
        gap = 3 - ratio(3, 200)
        yield run_check("ratio3-limit-proximity", "n=200, tolerance 1/20",
                        [(f"3 - ratio(3,200) = {gap}", abs(gap) < Fraction(1, 20))])

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

    bound = _range(max_cells, 60, 1)
    def cases():
        for n in range(1, bound + 1):
            value = ratio(2, n)
            expected_equal = parity_indicator(n) == 1
            yield (f"ratio(2,{n}) = {value}",
                   value <= 2 and (value == 2) == expected_equal)
    yield run_check("ratio2-even-equality", f"n<={bound}", cases())

    # The decomposition checks come last: a range too small for them ends the suite.
    hi = _range(max_cells, 40, 1)
    if hi < 3:
        yield skip_check("ratio3-decomposition", "needs n >= 3")
        return
    yield _agree("ratio3-decomposition-exact", f"3<=n<={hi}", product(range(3, hi + 1)),
                 [lambda n: ratio_decomposition(n).total, lambda n: 3 - ratio(3, n)],
                 "decomposition at n={} does not sum to the deficit")
    lo = 10
    if hi <= lo:
        yield skip_check("ratio3-decomposition-shrink", f"needs n > {lo}")
        return
    strict = hi >= 40
    early, late = ratio_decomposition(lo), ratio_decomposition(hi)
    def cases():
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
                    cases())


# --- brute-force oracles --------------------------------------------------------------

def suite_oracle(max_cells: int | None = None,
                 cap: int | None = None) -> Iterator[CheckResult]:
    """The four per-shape counting routes agree, counts are conjugation
    invariant, and the classical square-sum and involution identities hold.
    Listing fillings stays at 12 cells at most, and within `cap` (None: the default)."""
    bound = min(_range(max_cells, 12, 1), DEFAULT_ENUMERATION_CAP if cap is None else cap)
    conj_cells, ident_n = _range(max_cells, 20, 1), _range(max_cells, 10, 1)
    tally = listed_counts((bound,) * 6, bound)
    yield _agree("oracle-triple-agreement", f"shapes with <={bound} cells, <=6 columns",
                 ((ColumnShape(cols),) for n in range(bound + 1)
                  for cols in partitions_at_most(n, 6)),
                 [syt_count_hlf, syt_count_hook_product, syt_count_recursive,
                  lambda shape: tally[shape.columns]],
                 "counts disagree on {}: hook={}, product={}, removal={}, listed={}")

    yield _agree("conjugation-invariance", f"shapes with <={conj_cells} cells",
                 ((ColumnShape(cols),) for n in range(conj_cells + 1)
                  for cols in partitions_at_most(n, max(n, 1))),
                 [syt_count_hlf, lambda shape: _hook_count(_transpose(shape.columns))],
                 "count changed under conjugation of {}")

    def counts(n):  # the count of each shape on n cells
        return [syt_count_hlf(ColumnShape(c)) for c in partitions_at_most(n, max(n, 1))]
    yield _agree("square-sum-factorial", f"n<={ident_n}", product(range(ident_n + 1)),
                 [lambda n: sum(c * c for c in counts(n)), factorial],
                 "sum of squares at n={0} is not {0}!")
    yield _agree("involution-sum", f"n<={ident_n}", product(range(ident_n + 1)),
                 [lambda n: sum(counts(n)), involutions],
                 "count sum at n={0} is not involutions({0})")


# --- dispatch -----------------------------------------------------------------------

_SUITES = {"alpha": suite_alpha, "gamma3": suite_gamma3, "gammaS": suite_gammas,
           "tau": suite_tau, "ratio": suite_ratio, "oracle": suite_oracle}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, max_cells: int | None = None,
              oracle_cap: int | None = None) -> VerificationReport:
    """Run one named suite (or "all"): its default ranges, or under `max_cells` each range
    becomes `max_cells`, the capped ones at most their default. See `suite_oracle`'s cap."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    for arg, value in (("max_cells", max_cells), ("oracle_cap", oracle_cap)):
        if value is not None and value.__class__ is not int:  # no float or bool
            raise TypeError(f"{arg} must be an integer, got {value!r}")
        if value is not None and value < 0:
            raise ValueError(f"{arg} must be >= 0")
    suites = dict(_SUITES, oracle=partial(_SUITES["oracle"], cap=oracle_cap))
    chosen = suites.values() if name == "all" else [suites[name]]
    return timed_report(name, (check for suite in chosen for check in suite(max_cells)))
