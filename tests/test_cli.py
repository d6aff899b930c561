import json
import re

import pytest

from sytcount.cli import run
from sytcount.report import CheckResult, VerificationReport
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
