import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sytcount
import sytcount.counting as counting
import sytcount.gamma as gamma
import sytcount.sequences as seq
from sytcount import verify
from sytcount.cli import run
from sytcount.counting import HookDivisionError
from sytcount.report import CheckResult, VerificationReport
from sytcount.shapes import ColumnShape
from sytcount.verify import run_suite


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def strip_elapsed(text):
    return re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": X', text)


def test_tau_single_value(capsys):
    status, out, _ = invoke(capsys, "tau", "--columns", "3", "--cells", "6",
                            "--method", "definition")
    assert status == 0
    assert out == "51\n"


def test_tau_closed_and_recurrence(capsys):
    assert invoke(capsys, "tau", "--columns", "2", "--cells", "5",
                  "--method", "closed")[1] == "10\n"
    assert invoke(capsys, "tau", "--columns", "4", "--cells", "4",
                  "--method", "recurrence")[1] == "10\n"


def test_tau_sequence_csv(capsys):
    status, out, _ = invoke(capsys, "tau", "--columns", "2", "--max-cells", "6")
    assert status == 0
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2", "3,3",
                                "4,6", "5,10", "6,20"]


def test_tau_sequence_json(capsys):
    status, out, _ = invoke(capsys, "tau", "--columns", "3", "--max-cells", "4",
                            "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["s"] == 3
    assert [entry["value"] for entry in payload["values"]] == ["1", "1", "2", "4", "9"]


def test_tau_usage_errors(capsys):
    assert invoke(capsys, "tau", "--columns", "3")[0] == 2
    assert invoke(capsys, "tau", "--columns", "3", "--cells", "4",
                  "--max-cells", "8")[0] == 2
    assert invoke(capsys, "tau", "--columns", "4", "--cells", "4",
                  "--method", "closed")[0] == 2
    assert invoke(capsys, "tau", "--columns", "1", "--cells", "4")[0] == 2


@pytest.mark.parametrize("argv, message", [
    (["tau", "--columns", "3", "--cells", "-1"], "--cells must be >= 0"),
    (["tau", "--columns", "3", "--max-cells", "-1"], "--max-cells must be >= 0"),
    (["gamma", "--columns", "3", "--cells", "-1", "--diff", "0"],
     "--cells and --diff must be >= 0"),
    (["gamma", "--columns", "3", "--cells", "4", "--diff", "-1"],
     "--cells and --diff must be >= 0"),
    (["table", "--columns", "3", "--max-cells", "-1"], "--max-cells must be >= 0"),
    (["ratio", "--columns", "1", "--max-cells", "4"], "--columns must be at least 2"),
    (["ratio", "--columns", "3", "--max-cells", "0"], "--max-cells must be >= 1")])
def test_count_gates_exit_two_with_their_messages(capsys, argv, message):
    status, out, err = invoke(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.endswith(f"sytcount: error: {message}\n")


def test_gamma_entry(capsys):
    assert invoke(capsys, "gamma", "--columns", "4", "--cells", "4",
                  "--diff", "1")[1] == "3\n"
    assert invoke(capsys, "gamma", "--columns", "3", "--cells", "6", "--diff", "2",
                  "--method", "recurrence")[1] == "9\n"
    assert invoke(capsys, "gamma", "--columns", "2", "--cells", "6",
                  "--diff", "0")[0] == 2


def test_hook_golden(capsys):
    status, out, _ = invoke(capsys, "hook", "--shape", "3,3")
    assert status == 0
    assert out == "5\n"


def test_hook_empty_shape(capsys):
    assert invoke(capsys, "hook", "--shape", "")[1] == "1\n"


def test_hook_malformed_shape(capsys):
    status, _, err = invoke(capsys, "hook", "--shape", "1,2")
    assert status == 2
    assert "--shape" in err


def test_oracle_count_and_cap(capsys):
    assert invoke(capsys, "oracle", "--shape", "2,1")[1] == "2\n"
    status, _, err = invoke(capsys, "oracle", "--shape", "9,9")
    assert status == 2
    assert "cap" in err
    assert invoke(capsys, "oracle", "--shape", "3,3", "--oracle-cap", "6")[1] == "5\n"


def test_table_csv_golden(capsys):
    status, out, _ = invoke(capsys, "table", "--columns", "3", "--max-cells", "4",
                            "--method", "recurrence")
    assert status == 0
    assert out.splitlines() == [
        "n,i,value", "0,0,1", "1,0,1", "2,0,1", "2,1,1",
        "3,0,2", "3,1,2", "4,0,4", "4,1,3", "4,2,2"]


def test_table_json(capsys):
    status, out, _ = invoke(capsys, "table", "--columns", "4", "--max-cells", "3",
                            "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["method"] == "definitional"
    assert payload["rows"] == [["1"], ["1"], ["1", "1"], ["2", "2"]]


def test_table_width_two(capsys):
    status, out, _ = invoke(capsys, "table", "--columns", "2", "--max-cells", "4")
    assert status == 0
    assert out.splitlines() == [
        "n,i,value", "0,0,1", "1,0,1", "2,0,1", "2,1,1",
        "3,0,1", "3,1,2", "4,0,1", "4,1,3", "4,2,2"]
    assert invoke(capsys, "table", "--columns", "1", "--max-cells", "4")[0] == 2


def test_ratio_csv_golden(capsys):
    status, out, _ = invoke(capsys, "ratio", "--columns", "3", "--max-cells", "5")
    assert status == 0
    assert out.splitlines() == [
        "n,numerator,denominator,approx",
        "1,1,1,1", "2,2,1,2", "3,2,1,2", "4,9,4,2.25", "5,7,3,2.33333333333"]


def test_ratio_decompose_csv(capsys):
    status, out, _ = invoke(capsys, "ratio", "--columns", "3", "--max-cells", "4",
                            "--decompose")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == ("n,numerator,denominator,approx,parity_num,parity_den,"
                        "gamma0_num,gamma0_den,correction_num,correction_den")
    assert all(line.count(",") == 9 for line in lines)
    assert lines[4] == "4,9,4,2.25,0,1,1,2,1,4"


def test_ratio_decompose_json(capsys):
    status, out, _ = invoke(capsys, "ratio", "--columns", "3", "--max-cells", "4",
                            "--decompose", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    last = payload["rows"][-1]
    assert last["decomposition"] == {
        "parity": {"numerator": "0", "denominator": "1"},
        "gamma0": {"numerator": "1", "denominator": "2"},
        "correction": {"numerator": "1", "denominator": "4"},
    }


def test_ratio_decompose_needs_width_three(capsys):
    assert invoke(capsys, "ratio", "--columns", "4", "--max-cells", "5",
                  "--decompose")[0] == 2


def test_verify_gamma3_all_pass(capsys):
    status, out, _ = invoke(capsys, "verify", "--suite", "gamma3",
                            "--max-cells", "12")
    assert status == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["suite"] == "gamma3"
    assert report["overall"] is True
    assert all(c["counterexample"] is None for c in report["checks"])


def test_verify_output_is_deterministic_outside_elapsed(capsys):
    _, first, _ = invoke(capsys, "verify", "--suite", "alpha", "--max-cells", "10")
    _, second, _ = invoke(capsys, "verify", "--suite", "alpha", "--max-cells", "10")
    assert strip_elapsed(first) == strip_elapsed(second)


def test_verify_csv_format(capsys):
    status, out, _ = invoke(capsys, "verify", "--suite", "oracle",
                            "--max-cells", "6", "--format", "csv")
    assert status == 0
    assert out.splitlines()[0] == "name,scope,passed,checked,counterexample"


def test_verify_failure_exits_one(capsys, monkeypatch):
    failing = VerificationReport(
        suite="alpha",
        checks=[CheckResult("broken", "n<=1", False, 1, "n=1")])
    monkeypatch.setattr("sytcount.cli.run_suite", lambda *a, **k: failing)
    status, out, _ = invoke(capsys, "verify", "--suite", "alpha")
    assert status == 1
    assert json.loads(out)["overall"] is False


def test_verify_csv_quotes_commas_quotes_and_newlines(capsys, monkeypatch):
    record = ["broken", "n<=1, i<=0", "fail", "1", 'saw "a,b"\nthen c']
    failing = VerificationReport(
        suite="alpha",
        checks=[CheckResult(record[0], record[1], False, 1, record[4])])
    monkeypatch.setattr("sytcount.cli.run_suite", lambda *a, **k: failing)
    status, out, _ = invoke(capsys, "verify", "--suite", "alpha", "--format", "csv")
    assert status == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["name", "scope", "passed", "checked", "counterexample"], record]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    status, out, _ = invoke(capsys, "table", "--columns", "3", "--max-cells", "2",
                            "--out", str(target))
    assert status == 0
    assert out == ""
    assert target.read_text() == "n,i,value\n0,0,1\n1,0,1\n2,0,1\n2,1,1\n"


def test_verify_rejects_negative_oracle_cap(capsys):
    status, out, err = invoke(capsys, "verify", "--suite", "oracle", "--oracle-cap", "-1")
    assert status == 2
    assert out == ""
    assert "--oracle-cap must be >= 0" in err
    with pytest.raises(ValueError):
        run_suite("oracle", max_cells=4, oracle_cap=-1)


def test_run_suite_rejects_an_unknown_suite_naming_the_known_ones():
    with pytest.raises(ValueError, match=re.escape(f"unknown suite 'nope'; expected one of "
                                                   f"{verify.SUITE_NAMES}")):
        run_suite("nope")


@pytest.mark.parametrize("suite", ["tau", "alpha", "oracle", "all"])
def test_run_suite_rejects_negative_max_cells(suite, capsys):
    with pytest.raises(ValueError, match="max_cells must be >= 0"):
        run_suite(suite, max_cells=-1)
    status, out, err = invoke(capsys, "verify", "--suite", suite, "--max-cells", "-1")
    assert status == 2
    assert out == ""
    assert "--max-cells must be >= 0" in err


@pytest.mark.parametrize("suite, sizes", [
    ("alpha", {"max_cells": True}), ("alpha", {"max_cells": 2.0}),
    ("all", {"max_cells": False}), ("oracle", {"max_cells": 4, "oracle_cap": True}),
    ("oracle", {"max_cells": 4, "oracle_cap": 5.0}), ("oracle", {"oracle_cap": False})])
def test_run_suite_rejects_non_integer_sizes(suite, sizes):
    bad = next(k for k, v in sizes.items() if v.__class__ is not int)
    with pytest.raises(TypeError, match=f"{bad} must be an integer, got {sizes[bad]!r}"):
        run_suite(suite, **sizes)


# Under a max_cells above every capped default, each capped range stays at its default,
# and the other ranges (all but fixed anchors and the n = 200 window) become max_cells.
CAPPED_SCOPES = {
    ("alpha", 70): {"alpha-catalan-diagonal": "k<=30", "ballot-reindexing": "j<=30"},
    ("gamma3", 45): {"r3-equals-generic-correction": "n<=30",
                     "gamma3-motzkin-row-sums": "n<=25"},
    ("tau", 30): {"tau-growth-agreement": "s<=5, n<=20"},
    ("ratio", 70): {"ratio-totals-series-vs-growth": "2<=s<=7, n<=40",
                    "ratio2-even-equality": "n<=60",
                    "ratio3-decomposition-exact": "3<=n<=40",
                    "ratio3-decomposition-shrink": "n=10 vs n=40"},
    ("oracle", 30): {"oracle-triple-agreement": "shapes with <=12 cells, <=6 columns",
                     "conjugation-invariance": "shapes with <=20 cells",
                     "square-sum-factorial": "n<=10", "involution-sum": "n<=10"},
}
FIXED_SCOPES = {"tau3-step-anchors": "n in {4, 6}", "tau4-step-anchor": "n=4",
                "ratio3-limit-proximity": "skipped: needs n = 200"}


@pytest.mark.parametrize("suite, max_cells", CAPPED_SCOPES)
def test_capped_ranges_stay_at_their_defaults_and_the_rest_follow_max_cells(suite,
                                                                             max_cells):
    checks = run_suite(suite, max_cells=max_cells).checks
    capped = CAPPED_SCOPES[suite, max_cells]
    assert all(c.passed and (c.checked or c.name in FIXED_SCOPES) for c in checks)
    assert {c.name: c.scope for c in checks if c.name in capped} == capped
    for c in checks:
        if c.name in FIXED_SCOPES:
            assert c.scope == FIXED_SCOPES[c.name]
        elif c.name not in capped:
            assert re.search(rf"\b{max_cells}\b", c.scope), (c.name, c.scope)


def test_run_suite_binds_the_oracle_cap_to_the_listing():
    triple = run_suite("oracle", max_cells=12, oracle_cap=5).checks[0]
    assert (triple.name, triple.scope) == ("oracle-triple-agreement",
                                           "shapes with <=5 cells, <=6 columns")
    assert triple.passed and triple.checked > 0
    assert [c.scope for c in run_suite("all", max_cells=12, oracle_cap=5).checks
            if c.name == "oracle-triple-agreement"] == [triple.scope]


def test_oracle_rejects_negative_cap(capsys):
    status, out, err = invoke(capsys, "oracle", "--shape", "2,1", "--oracle-cap", "-1")
    assert status == 2
    assert out == ""
    assert "--oracle-cap must be >= 0" in err
    assert "enumeration cap" not in err


def test_oracle_rejects_a_negative_cap_before_counting_cells(capsys):
    # the empty shape has 0 cells, so a cell check alone would blame the shape
    status, out, err = invoke(capsys, "oracle", "--shape", "", "--oracle-cap", "-1")
    assert status == 2
    assert out == ""
    assert err.endswith("sytcount: error: --oracle-cap must be >= 0\n")


def test_oracle_default_cap_guard(capsys):
    assert invoke(capsys, "oracle", "--shape", "9,9") == (
        2, "", "usage: sytcount [-h] {tau,gamma,table,hook,oracle,ratio,verify} ...\n"
        "sytcount: error: --shape: shape has 18 cells, above the enumeration cap of 16 "
        "(raise --oracle-cap to override)\n")
    assert invoke(capsys, "oracle", "--shape", "8,8")[:2] == (0, "1430\n")


@pytest.mark.parametrize("text, reason", [
    ("1,2", "column lengths must be weakly decreasing: (1, 2)"),
    ("2,x", "malformed shape text: '2,x'")])
def test_oracle_malformed_shape(capsys, text, reason):
    assert invoke(capsys, "oracle", "--shape", text) == (
        2, "", "usage: sytcount [-h] {tau,gamma,table,hook,oracle,ratio,verify} ...\n"
        f"sytcount: error: --shape: {reason}\n")


def test_oracle_cap_counts_cells(capsys):
    assert invoke(capsys, "oracle", "--shape", "1", "--oracle-cap", "0") == (
        2, "", "usage: sytcount [-h] {tau,gamma,table,hook,oracle,ratio,verify} ...\n"
        "sytcount: error: --shape: shape has 1 cells, above the enumeration cap of 0 "
        "(raise --oracle-cap to override)\n")
    assert invoke(capsys, "oracle", "--shape", "", "--oracle-cap", "0")[:2] == (0, "1\n")


def test_oracle_lists_what_the_hook_formula_counts(capsys, monkeypatch):
    shapes = [("4,4,4,4",), ("9,9", "--oracle-cap", "18"), ("3,2,1",)]
    by_hook = [invoke(capsys, "hook", "--shape", shape[0]) for shape in shapes]
    def refuse(cols):
        raise AssertionError(f"the oracle read a count for {cols}")
    monkeypatch.setattr(counting, "_hook_count", refuse)
    monkeypatch.setattr(counting, "_removal_count", refuse)
    listed = [invoke(capsys, "oracle", "--shape", *shape) for shape in shapes]
    assert listed == by_hook == [(0, "24024\n", ""), (0, "4862\n", ""), (0, "16\n", "")]


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(Path(sytcount.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "sytcount", "oracle", "--shape", "2,1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "2\n")


def test_usage_errors(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "verify", "--suite", "nonsense")[0] == 2


def test_checks_without_cases_say_they_were_skipped():
    report = run_suite("all", max_cells=2)
    assert [c.name for c in report.checks
            if c.checked == 0 and "skipped" not in c.scope] == []
    monotone = {c.name: c for c in report.checks}["ratio-deficit-monotone"]
    assert monotone.scope.startswith("skipped: no cases in ")


def test_ratio_suite_cross_checks_series_against_growth():
    checks = {c.name: c for c in run_suite("ratio", max_cells=10).checks}
    cross = checks["ratio-totals-series-vs-growth"]
    assert (cross.scope, cross.passed, cross.checked) == ("2<=s<=7, n<=10", True, 6 * 11)


def test_oracle_listing_range_stays_capped_under_large_max_cells():
    checks = {c.name: c for c in run_suite("oracle", max_cells=20).checks}
    triple = checks["oracle-triple-agreement"]
    assert triple.scope == "shapes with <=12 cells, <=6 columns"
    assert triple.passed and triple.checked > 0
    assert checks["conjugation-invariance"].scope == "shapes with <=20 cells"


def test_oracle_catches_a_dropped_filling(monkeypatch):
    listed, dropped = verify.listed_counts, []

    def dropping(*args):
        tally = listed(*args)
        cols = list(tally)[50]  # one listed filling of this shape goes missing
        tally[cols] -= 1
        dropped.append(ColumnShape(cols))
        return tally
    monkeypatch.setattr(verify, "listed_counts", dropping)
    checks = {c.name: c for c in run_suite("oracle", max_cells=8).checks}
    triple = checks["oracle-triple-agreement"]
    assert len(dropped) == 1
    assert not triple.passed and triple.checked > 0
    assert triple.counterexample.startswith(f"counts disagree on {dropped[0]}: ")


def test_verify_catches_a_sweep_count_off_by_one(cold, monkeypatch):
    next_level = gamma._next_level

    def off_by_one(frontier, s, n):
        grown, level = next_level(frontier, s, n)
        if (s, n) == (4, 8):
            level = ((level[0][0] + 1, *level[0][1:]), *level[1:])
        return grown, level
    monkeypatch.setattr(gamma, "_next_level", off_by_one)
    # the routes that do not read the sweep: validated shapes and Frobenius totals
    for suite, independent in (("gammaS", "recurrence-identity-s4"),
                               ("tau", "tau-growth-agreement")):
        checks = {c.name: c for c in run_suite(suite, max_cells=12).checks}
        assert not checks[independent].passed, suite
        assert "n=8" in checks[independent].counterexample


# (suite, check, position, route, the point where it is off by one, scope, checked,
# counterexample) at --max-cells 12: each agreement check names the first point where
# its routes part, and still counts every case.
BROKEN_ROUTES = [
    ("alpha", "alpha-hook-agreement", 1, "_two_column_def", (7, 2), "n<=12", 49,
     "alpha(7,2) != hook count"),
    ("alpha", "alpha-columnwise-sum", 2, "alpha", (7, 2), "1<=i<=n//2, n<=12", 36,
     "columnwise sum fails at (7,2)"),
    ("alpha", "alpha-catalan-diagonal", 3, "catalan", (3,), "k<=6", 7,
     "alpha(6,3) != catalan(3)"),
    ("gammaS", "recurrence-identity-s4", 1, "gamma_def", (4, 7, 2), "1<=n<=12", 48,
     "recurrence misses definitional value at s=4, n=7, i=2: recurrence=35, shapes=35, "
     "gamma_def=36"),
    ("gamma3", "r3-equals-generic-correction", 2, "correction_r3", (7, 2), "n<=12", 36,
     "correction mismatch at n=7, i=2"),
    ("gamma3", "gamma3-motzkin-row-sums", 3, "motzkin", (7,), "n<=12", 13,
     "row sum at n=7 is not motzkin(7)"),
    ("tau", "tau2-three-methods", 0, "central_binomial", (7,), "n<=12", 13,
     "tau_2(7) routes disagree"),
    ("tau", "tau3-motzkin", 2, "motzkin", (7,), "n<=12", 13, "tau_3(7) routes disagree"),
    ("tau", "tauS-def-vs-rec", 5, "tau", (5, 7, "recurrence"), "s in {4,5}, n<=12", 26,
     "tau_5(7) definition != recurrence"),
    ("tau", "tau-growth-agreement", 9, "tau_growth", (4, 7), "s<=5, n<=12", 52,
     "growth total != definitional at s=4, n=7"),
    ("ratio", "ratio-totals-series-vs-growth", 0, "tau_series", (5, 7), "2<=s<=7, n<=12",
     78, "series total != growth total at s=5, n=7"),
    ("oracle", "oracle-triple-agreement", 0, "syt_count_recursive", (ColumnShape((3, 1)),),
     "shapes with <=12 cells, <=6 columns", 227,
     "counts disagree on 3,1: hook=3, product=3, removal=4, listed=3"),
    ("oracle", "conjugation-invariance", 1, "syt_count_hlf", (ColumnShape((3, 1)),),
     "shapes with <=12 cells", 272, "count changed under conjugation of 3,1"),
    ("oracle", "square-sum-factorial", 2, "factorial", (7,), "n<=10", 11,
     "sum of squares at n=7 is not 7!"),
    ("oracle", "involution-sum", 3, "involutions", (7,), "n<=10", 11,
     "count sum at n=7 is not involutions(7)"),
]


@pytest.mark.parametrize("suite, name, position, route, point, scope, checked, text",
                         BROKEN_ROUTES, ids=[case[1] for case in BROKEN_ROUTES])
def test_agreement_checks_report_the_first_point_where_routes_part(
        monkeypatch, suite, name, position, route, point, scope, checked, text):
    real = getattr(verify, route)

    def off_by_one(*args, **kwargs):
        return real(*args, **kwargs) + ((*args, *kwargs.values()) == point)
    monkeypatch.setattr(verify, route, off_by_one)
    record = run_suite(suite, max_cells=12).checks[position]
    assert record == CheckResult(name=name, scope=scope, passed=False, checked=checked,
                                 counterexample=text)


def test_conjugation_invariance_counts_the_transpose(monkeypatch):
    # 2,1,1 is the transpose of 3,1; a route that skipped the transpose would part there
    real = verify._hook_count
    monkeypatch.setattr(verify, "_hook_count",
                        lambda cols: real(cols) + (cols == (2, 1, 1)))
    record = run_suite("oracle", max_cells=12).checks[1]
    assert record == CheckResult(name="conjugation-invariance",
                                 scope="shapes with <=12 cells", passed=False, checked=272,
                                 counterexample="count changed under conjugation of 3,1")


def test_routes_that_raise_alike_still_fail_and_other_errors_propagate():
    def broken(n):
        raise ZeroDivisionError("no value")
    record = verify._agree("both-raise", "n<=1", [(0,), (1,)], [broken, broken],
                           "n={}: {} vs {}")
    assert record == CheckResult(
        name="both-raise", scope="n<=1", passed=False, checked=2,
        counterexample="n=0: ZeroDivisionError(no value) vs ZeroDivisionError(no value)")
    with pytest.raises(TypeError):  # a bug in a check is not a failing case
        verify._agree("typed", "n<=0", [(0,)], [broken, lambda n: n + "1"], "{}")


def test_agree_formats_only_the_failing_cases():
    formatted = []

    class Point(int):  # a point that notes each time a text shows it
        def __format__(self, spec):
            formatted.append(int(self))
            return str(int(self))
    record = verify._agree("formats", "n<=2", [(Point(n),) for n in range(3)],
                           [int, lambda n: n + (n == 1)], "n={}: {} vs {}")
    assert record == CheckResult(name="formats", scope="n<=2", passed=False, checked=3,
                                 counterexample="n=1: 1 vs 2")
    assert formatted == [1]


def test_the_step_breakdown_totals_do_not_share_the_step_rows(monkeypatch):
    # The step and the definitional totals both read the same table rows; with both off
    # by one at (3, 7) only an independent total sees the step go wrong.
    step, tau = verify.tau_recurrence_step, verify.tau

    def step_off(s, n, method):
        terms = step(s, n, method)
        return replace(terms, main=terms.main + 1) if (s, n) == (3, 7) else terms

    def tau_off(s, n, method):
        return tau(s, n, method) + ((s, n) == (3, 7))
    monkeypatch.setattr(verify, "tau_recurrence_step", step_off)
    monkeypatch.setattr(verify, "tau", tau_off)
    record = run_suite("tau", max_cells=12).checks[3]
    assert record == CheckResult(
        name="tau3-step-breakdown", scope="3<=n<=12", passed=False, checked=10,
        counterexample="tau_3(7) step breakdown: step=128, total=127")


def _inexact(count):
    raise HookDivisionError("planted")


def _mismatch(terms):
    raise seq.RecurrenceMismatchError("planted")


# As BROKEN_ROUTES, for routes the off-by-one helper cannot reach: these return records,
# which `tweak` alters, or `tweak` replaces the value by an exception. A route that `gamma`
# also reads (gamma_rec, syt_count_hlf) is patched there too.
BROKEN_RECORD_ROUTES = [
    ("gammaS", "gamma-def-vs-recurrence", 0, "gamma_rec", (4, 7, 2), lambda v: v + 1,
     "s=4, n<=12 (49 entries)", 49, "n=7, i=2: definitional=35, recurrence=36"),
    ("gamma3", "recurrence-identity-s3", 1, "syt_count_hlf", (ColumnShape((2, 2, 1)),),
     _inexact, "1<=n<=12", 48, "recurrence misses definitional value at s=3, n=5, i=0: "
     "recurrence=7, shapes=HookDivisionError(planted), gamma_def=7"),
    ("tau", "tau3-step-breakdown", 3, "tau_recurrence_step", (3, 7, "definition"),
     lambda t: replace(t, main=t.main + 1), "3<=n<=12", 10,
     "tau_3(7) step breakdown: step=128, total=127"),
    ("tau", "tau3-step-breakdown", 3, "tau_recurrence_step", (3, 7, "definition"),
     _mismatch, "3<=n<=12", 10,
     "tau_3(7) step breakdown: step=RecurrenceMismatchError(planted), total=127"),
    ("tau", "tau3-step-anchors", 4, "tau_recurrence_step", (3, 6, "definition"),
     lambda t: replace(t, main=t.main + 1), "n in {4, 6}", 2,
     "anchor at n=6: (64, 0, 7, 5, 52) != (63, 0, 7, 5, 51)"),
    ("tau", "tau4-step-anchor", 8, "tau_recurrence_step", (4, 4, "definition"),
     lambda t: replace(t, main=t.main + 1), "n=4", 1, "tau_4(4) anchor: (17, 0, 2, 4, 11)"),
    ("ratio", "ratio3-decomposition-exact", 5, "ratio_decomposition", (7,),
     lambda parts: parts._replace(parity=parts.parity + 1), "3<=n<=12", 10,
     "decomposition at n=7 does not sum to the deficit"),
    ("ratio", "ratio3-decomposition-exact", 5, "tau_recurrence_step", (3, 7, "definition"),
     lambda t: replace(t, gamma0_term=t.gamma0_term + 1), "3<=n<=12", 10,
     "decomposition at n=7 does not sum to the deficit"),
    ("oracle", "oracle-triple-agreement", 0, "syt_count_hook_product",
     (ColumnShape((3, 1)),), _inexact, "shapes with <=12 cells, <=6 columns", 227,
     "counts disagree on 3,1: hook=3, product=HookDivisionError(planted), removal=3, "
     "listed=3"),
]


def test_a_route_that_raises_fails_its_case(cold, monkeypatch):
    # the recurrence subtracts a wrong correction until an entry goes negative at n=24
    real = gamma.syt_count_hlf
    monkeypatch.setattr(gamma, "syt_count_hlf",
                        lambda shape: real(shape) + (shape == ColumnShape((2, 2, 1))))
    record = run_suite("gamma3").checks[0]
    assert record == CheckResult(name="gamma-def-vs-recurrence",
                                 scope="s=3, n<=40 (441 entries)", passed=False,
                                 checked=441,
                                 counterexample="n=6, i=2: definitional=9, recurrence=8")


@pytest.mark.parametrize("suite, name, position, route, point, tweak, scope, checked, text",
                         BROKEN_RECORD_ROUTES, ids=[c[1] for c in BROKEN_RECORD_ROUTES])
def test_agreement_checks_show_the_values_where_routes_part(
        monkeypatch, suite, name, position, route, point, tweak, scope, checked, text):
    def broken(real):
        def route_at(*args, **kwargs):
            value = real(*args, **kwargs)
            return tweak(value) if (*args, *kwargs.values()) == point else value
        return route_at
    for module in (gamma, verify):
        if hasattr(module, route):
            monkeypatch.setattr(module, route, broken(getattr(module, route)))
    record = run_suite(suite, max_cells=12).checks[position]
    assert record == CheckResult(name=name, scope=scope, passed=False, checked=checked,
                                 counterexample=text)
