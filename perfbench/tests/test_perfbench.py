"""Tests of the benchmark itself: references, inputs, tracing and the gate.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import references  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SMALL_OPS = [
    ["ratio_table", 3, 20], ["ratio_table", 5, 15], ["ratio_decompositions", 3, 12],
    ["build_table", 4, 14, "definitional"], ["build_table", 4, 14, "recurrence"],
    ["build_table", 6, 10, "definitional"],
    ["cli", ["tau", "--columns", "4", "--max-cells", "40", "--method", "recurrence"]],
    ["cli", ["verify", "--suite", "gammaS", "--max-cells", "30"]],
] + workloads.point_queries(seed=3, count=300)


def test_references_match_known_values():
    assert references.motzkin(6) == 51
    assert references.tau4(4) == 10
    assert references.tau5(5) == 26
    assert references.frobenius((3, 3)) == 5
    assert references.frobenius((5, 3)) == 28
    assert references.middle_binomial(6) == 20
    assert references.catalan(5) == 42
    assert references.table_row(3, 4) == (4, 3, 2)
    assert references.tau(6, 6) == 76  # every shape on 6 cells: involutions(6)
    assert references.approx(references.ratio(3, 5)) == "2.33333333333"


def test_closed_forms_agree_with_shape_sums():
    for s, closed in ((2, references.middle_binomial), (3, references.motzkin),
                      (4, references.tau4), (5, references.tau5)):
        for n in range(16):
            assert closed(n) == sum(references.frobenius(p)
                                    for p in references.partitions(n, s)), (s, n)


def test_point_query_stream_is_fixed_by_seed():
    assert workloads.operations("point-queries", 7) == workloads.operations("point-queries", 7)
    assert workloads.operations("point-queries", 7) != workloads.operations("point-queries", 8)
    assert len(workloads.operations("point-queries", -1)) == workloads.QUERY_COUNT


def test_fixed_workloads_do_not_depend_on_seed():
    for name in ("ratio-sweep", "table-build", "verify-cli"):
        assert workloads.operations(name, 1) == workloads.operations(name, 99)


def _worker(tmp_path, trace):
    out = tmp_path / ("traced" if trace else "plain")
    out.mkdir()
    return bench.spawn({"root": str(bench.ROOT), "ops": SMALL_OPS, "trace": trace,
                        "setup_only": False, "tmp_dir": str(out), "spans_path": None})


def test_traced_and_untraced_outputs_are_identical_and_correct(tmp_path):
    plain = _worker(tmp_path, trace=False)
    traced = _worker(tmp_path, trace=True)
    assert plain["cold"]["all_empty"] and "sytcount.counting._hook_count" in plain["cold"]["caches"]
    assert plain["errors"] == traced["errors"] == {}
    assert plain["digests"] == traced["digests"]
    assert plain["digests"] == references.expected_digests(SMALL_OPS)

    layers = traced["layers"]
    assert set(bench.PER_LAYER) - set(layers) == {"trace_overhead_s", "ops_failed_frac"}
    assert all(layers[f"{layer}.calls"] > 0 for layer in
               ("shapes", "counting", "gamma", "sequences", "verify", "report", "cli"))
    self_total = sum(layers[f"{layer}.self_s"] for layer in
                     ("shapes", "counting", "gamma", "sequences", "verify", "report", "cli"))
    assert 0 < self_total <= sum(traced["latency_ns"]) / 1e9
    assert layers["verify.cases_checked"] > 0
    assert layers["shapes.shapes_yielded"] > 0
    assert layers["cli.bytes_out"] > 0


def test_gate_counts_mismatches_and_errors():
    ops = [["tau", 3, 6, "definition"], ["tau", 4, 4, "closed"], ["ratio", 3, 5]]
    good = references.expected_digests(ops)
    result = {"digests": [good[0], "0" * 64, None], "errors": {"2": "ValueError: x"}}
    checks = bench.gate(ops, [result])
    assert (checks["attempted"], checks["failed"], checks["checked"]) == (3, 2, 2)


def test_gate_refuses_a_run_that_checked_nothing():
    result = {"digests": [None], "errors": {"0": "ValueError: x"}}
    with pytest.raises(bench.BenchError):
        bench.gate([["ratio", 3, 5]], [result])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ratio-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert spec["paths"] == ["perfbench"]
