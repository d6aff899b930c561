"""Acceptance suite: every exit criterion at its stated range and tolerance.

Each criterion is one test; on success it prints one PASS line (visible with
``pytest -rA`` or ``-s``). Exact equality everywhere; the only tolerance is
the stated 1/20 window around the limit in criterion 7, checked on exact
rationals.
"""

import json
import re
from fractions import Fraction
from math import comb, factorial

from sytcount.cli import run
from sytcount.counting import listed_counts, syt_count_hlf, syt_count_recursive
from sytcount.gamma import alpha, correction_r, correction_r3
from sytcount.sequences import (catalan, involutions, motzkin, ratio,
                                ratio_decomposition, tau, tau_recurrence_step)
from sytcount.shapes import ColumnShape, partitions_at_most
from sytcount.verify import compare_methods


def two_column(n, i):
    return ColumnShape((n - i, i) if i else ((n,) if n else ()))


def test_criterion_1_oracle_concordance():
    listed = listed_counts((12,) * 6, 12)
    for n in range(13):
        for cols in partitions_at_most(n, 6):
            shape = ColumnShape(cols)
            by_hook = syt_count_hlf(shape)
            assert by_hook == syt_count_recursive(shape)
            assert by_hook == listed[cols]
    for n in range(11):
        counts = [syt_count_hlf(ColumnShape(cols))
                  for cols in partitions_at_most(n, max(n, 1))]
        assert sum(c * c for c in counts) == factorial(n)
        assert sum(counts) == involutions(n)
    print("ACCEPTANCE 1: PASS - three counting routes agree on every shape "
          "with <= 12 cells and <= 6 columns; classical identities hold to n=10")


def test_criterion_2_two_column_triangle():
    for n in range(41):
        assert alpha(n, 0) == 1
        for i in range(n // 2 + 1, n + 2):
            assert alpha(n, i) == 0
        for i in range(1, n // 2 + 1):
            assert alpha(n, i) == alpha(n - 1, i) + alpha(n - 1, i - 1)
            assert alpha(n, i) == sum(alpha(h, i - 1) for h in range(2 * i - 1, n))
        for i in range(n // 2 + 1):
            assert alpha(n, i) == syt_count_hlf(two_column(n, i))
    assert all(alpha(1, i) == 0 for i in range(1, 42))
    for k in range(31):
        assert alpha(2 * k, k) == catalan(k)
    print("ACCEPTANCE 2: PASS - two-column triangle: initial conditions, "
          "recurrence, columnwise sums and hook agreement to n=40; Catalan "
          "diagonal to k=30")


def test_criterion_3_two_column_totals():
    for n in range(61):
        value = tau(2, n, "definition")
        assert value == tau(2, n, "recurrence")
        assert value == tau(2, n, "closed")
        assert value == comb(n, n // 2)
    for n in range(1, 61):
        step = tau_recurrence_step(2, n)
        assert step.value == tau(2, n, "definition")
        assert step.main == 2 * tau(2, n - 1, "definition")
        assert step.parity_term == (catalan((n - 1) // 2) if (n - 1) % 2 == 0 else 0)
        assert step.gamma0_term == 0
        assert step.correction_total == 0
    print("ACCEPTANCE 3: PASS - width-2 totals equal the middle binomial "
          "coefficient by all three methods to n=60; step breakdown exact")


def test_criterion_4_width3_recurrences():
    report = compare_methods(3, 40)
    assert report.overall
    assert report.checks[0].checked == sum(n // 2 + 1 for n in range(41))
    for n in range(1, 31):
        for i in range(1, n // 2 + 1):
            assert correction_r3(n, i) == correction_r(3, 1, n - 1, i - 1)
    print("ACCEPTANCE 4: PASS - width-3 recurrence reproduces definitional "
          "entries to n=40; one-shape correction equals the generic family "
          "to n=30")


def test_criterion_5_width3_totals_are_motzkin():
    for n in range(41):
        assert tau(3, n, "definition") == motzkin(n)
        assert tau(3, n, "recurrence") == motzkin(n)
    for n in range(3, 41):
        assert tau_recurrence_step(3, n).value == motzkin(n)
    anchor = tau_recurrence_step(3, 4)
    assert (anchor.main, anchor.parity_term, anchor.gamma0_term,
            anchor.correction_total, anchor.value) == (12, 0, 2, 1, 9)
    anchor = tau_recurrence_step(3, 6)
    assert (anchor.main, anchor.parity_term, anchor.gamma0_term,
            anchor.correction_total, anchor.value) == (63, 0, 7, 5, 51)
    print("ACCEPTANCE 5: PASS - width-3 totals are Motzkin numbers to n=40; "
          "step breakdown exact with both desk anchors")


def test_criterion_6_general_width_recurrences():
    for s in (4, 5):
        report = compare_methods(s, 25)
        assert report.overall
        for n in range(s, 26):
            assert tau_recurrence_step(s, n).value == tau(s, n, "definition")
    anchor = tau_recurrence_step(4, 4)
    assert (anchor.main, anchor.parity_term, anchor.gamma0_term,
            anchor.correction_total, anchor.value) == (16, 0, 2, 4, 10)
    print("ACCEPTANCE 6: PASS - width-4 and width-5 recurrences reproduce "
          "definitional entries to n=25; totals step exact incl. the "
          "width-4 anchor 10 = 16 - 0 - 2 - 4")


def test_criterion_7_ratio_properties():
    caps = {3: 200, 4: 120, 5: 120}
    for s, hi in caps.items():
        values = [ratio(s, n) for n in range(1, hi + 1)]
        assert all(v < s for v in values)
        deficits = [s - v for v in values[49:]]   # n = 50 .. hi
        assert all(later <= earlier
                   for earlier, later in zip(deficits, deficits[1:]))
        assert deficits[-1] < deficits[0]
    assert abs(3 - ratio(3, 200)) < Fraction(1, 20)
    for n in range(3, 41):
        parts = ratio_decomposition(n)
        assert parts.total == 3 - ratio(3, n)
    early, late = ratio_decomposition(10), ratio_decomposition(40)
    assert late.parity <= early.parity     # both endpoints even: exactly zero
    assert late.gamma0 < early.gamma0
    assert late.correction < early.correction
    print("ACCEPTANCE 7: PASS - ratios strictly below s (s=3 to n=200, "
          "s=4,5 to n=120); 3 - ratio(3,200) within 1/20; deficits "
          "monotone; decomposition exact and shrinking")


def test_criterion_8_cli_determinism(capsys):
    assert run(["tau", "--columns", "3", "--cells", "6",
                "--method", "definition"]) == 0
    assert capsys.readouterr().out == "51\n"
    assert run(["hook", "--shape", "3,3"]) == 0
    assert capsys.readouterr().out == "5\n"

    status = run(["verify", "--suite", "gamma3", "--max-cells", "12"])
    first = capsys.readouterr().out
    assert status == 0
    report = json.loads(first)
    assert report["schema"] == 1 and report["overall"] is True

    assert run(["verify", "--suite", "gamma3", "--max-cells", "12"]) == 0
    second = capsys.readouterr().out

    def without_elapsed(text):
        return re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": X', text)

    assert without_elapsed(first) == without_elapsed(second)

    assert run(["verify", "--suite", "all", "--max-cells", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] is True
    print("ACCEPTANCE 8: PASS - CLI goldens byte-stable outside elapsed; "
          "verify --suite all --max-cells 12 exits 0")
