"""Cold-process benchmark of sytcount.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout root is the parent of this directory and must hold
`src/sytcount`; the working directory does not matter. Each worker
is a fresh single-threaded interpreter (every sytcount module memoizes, so
only a new process is cold), and one runs at a time. Workers are started
until `--seconds` have passed, at least one of them. Eight more start,
set up and exit, so `setup_s` is a median of several spawns. A "query" is
one top-level call a workload makes: a library call, or one `cli.run`.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` untraced and traced workers alternate and it carries the
per-layer metrics of the traced ones plus the tracing overhead. Every
output is checked against `references` after the timed windows; the line
before the last is a JSON record of the run's context, sample counts and
percentiles, also written under `.bench_build/perfbench/results/`.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import references
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PYCACHE = BUILD / "pycache"

SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
              "query_p50_us": "us", "query_p99_ms": "ms"}
PER_LAYER = {
    "shapes.calls": "count", "shapes.self_s": "s", "shapes.shapes_yielded": "count",
    "shapes.partitions_hit_ratio": "ratio",
    "counting.calls": "count", "counting.self_s": "s", "counting.hook_evals": "count",
    "counting.hook_hit_ratio": "ratio", "counting.fillings_listed": "count",
    "gamma.calls": "count", "gamma.self_s": "s", "gamma.def_misses": "count",
    "gamma.correction_misses": "count", "gamma.def_hit_ratio": "ratio",
    "sequences.calls": "count", "sequences.self_s": "s",
    "sequences.tau_growth_self_s": "s",
    "verify.calls": "count", "verify.self_s": "s", "verify.cases_checked": "count",
    "report.calls": "count", "report.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace_overhead_s": "s", "ops_failed_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summary(values: list[float]) -> dict:
    """Median, plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    out = {"samples": len(values), "median": statistics.median(values)}
    for pct in (99.9, 99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = percentile(values, pct)
            break
    return out


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never searches upward."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def context(args, ops: list) -> dict:
    uname = platform.uname()
    params = ops if args.workload != "point-queries" else {
        "queries": len(ops), "hook_max_cells": workloads.HOOK_MAX_CELLS,
        "max_cells": workloads.QUERY_MAX_CELLS, "ratio_max_cells": workloads.RATIO_MAX_CELLS,
        "kinds": workloads.QUERY_KINDS}
    return {"workload": args.workload, "why": workloads.WHY[args.workload],
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "parameters": params, "machine": f"{uname.system} {uname.release} {uname.machine}",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit()}


def build() -> None:
    """Byte-compile the package and the worker's helpers into the build dir,
    so no worker pays for compilation and nothing is written into src/."""
    sys.pycache_prefix = str(PYCACHE)
    for path in (ROOT / "src" / "sytcount", HERE):
        if not compileall.compile_dir(str(path), quiet=1, maxlevels=0):
            raise BenchError(f"could not byte-compile {path}")


# ru_maxrss survives exec, so a worker started straight from this process
# would report this process's peak as its own. Each worker is therefore
# started by a fresh small interpreter (about 13 MiB), which also passes the
# worker its spawn time for `setup_s`.
LAUNCHER = ("import subprocess, sys, time; "
            "sys.exit(subprocess.call(sys.argv[1:] + [repr(time.monotonic())]))")


def spawn(request: dict) -> dict:
    """Run one worker to completion and return its result."""
    cmd = [sys.executable, "-I", "-S", "-c", LAUNCHER,
           sys.executable, "-I", "-X", f"pycache_prefix={PYCACHE}", str(HERE / "worker.py")]
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=str(ROOT),
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(json.dumps(request), timeout=WORKER_TIMEOUT_S)
        except BaseException as exc:  # timeout, interrupt or termination
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out)


def run_workers(args, ops: list, tmp_root: Path) -> tuple[list, list]:
    """Set-up-only workers, then workers until the run time is spent.
    Returns the set-up times and the worker results."""
    def request(index: int, trace: bool, setup_only: bool) -> dict:
        tmp_dir = tmp_root / f"w{index}"
        tmp_dir.mkdir(parents=True)
        spans = None
        if trace:
            (BUILD / "spans").mkdir(parents=True, exist_ok=True)
            spans = str(BUILD / "spans" / f"{args.workload}-seed{args.seed}-w{index}.csv.gz")
        return {"root": str(ROOT), "ops": ops, "trace": trace, "setup_only": setup_only,
                "tmp_dir": str(tmp_dir), "spans_path": spans}

    probes = 0 if args.trace else SETUP_PROBES
    setups = [spawn(request(-k - 1, False, True))["setup_s"] for k in range(probes)]
    results = []
    deadline = time.monotonic() + args.seconds
    while len(results) < (2 if args.trace else 1) or time.monotonic() < deadline:
        traced = bool(args.trace) and len(results) % 2 == 1
        result = spawn(request(len(results), traced, False))
        result["traced"] = traced
        shutil.rmtree(tmp_root / f"w{len(results)}")
        results.append(result)
        if not traced:
            setups.append(result["setup_s"])
    return setups, results


def gate(ops: list, results: list) -> dict:
    """Compare every output with its reference; count mismatches and errors."""
    expected = references.expected_digests(ops)
    attempted = failed = checked = 0
    first_failures = []
    for result in results:
        for index, got in enumerate(result["digests"]):
            attempted += 1
            error = result["errors"].get(str(index))
            if got is not None:
                checked += 1
            if error is not None or got != expected[index]:
                failed += 1
                if len(first_failures) < 5:
                    first_failures.append({"op": ops[index], "error": error})
    if checked == 0:
        raise BenchError("no output was checked")
    return {"attempted": attempted, "failed": failed, "checked": checked,
            "ops_failed_frac": failed / attempted, "first_failures": first_failures}


def end_to_end(setups: list, results: list) -> tuple[dict, dict]:
    walls = [r["wall_s"] for r in results]
    rss = [r["peak_rss_kib"] / 1024 for r in results]
    latencies = [ns for r in results for ns in r["latency_ns"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mib": statistics.median(rss),
        # Per worker first: a workload with a few distinct calls has gaps
        # between them that a pooled percentile would jump across.
        "query_p50_us": statistics.median(percentile(r["latency_ns"], 50)
                                          for r in results) / 1e3,
        "query_p99_ms": statistics.median(percentile(r["latency_ns"], 99)
                                          for r in results) / 1e6,
    }
    detail = {"setup_s": summary(setups), "wall_s": summary(walls),
              "peak_rss_mib": summary(rss),
              "query_latency_us": summary([ns / 1e3 for ns in latencies]),
              "per_worker": {"setup_s": setups, "wall_s": walls, "peak_rss_mib": rss}}
    return values, detail


def per_layer(results: list, checks: dict) -> tuple[dict, dict]:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in PER_LAYER if name in traced[0]["layers"]}
    values["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    values["ops_failed_frac"] = checks["ops_failed_frac"]
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise BenchError(f"per-layer metrics missing: {sorted(missing)}")
    if any(r["digests"] != plain[0]["digests"] for r in results):
        raise BenchError("traced and untraced outputs differ")
    detail = {"traced_workers": len(traced), "untraced_workers": len(plain),
              "spans": [r["spans"] for r in traced]}
    return values, detail


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so `spawn` stops its worker
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sytcount" / "__init__.py").is_file():
        print(f"error: no sytcount package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = workloads.operations(args.workload, args.seed)
    tmp_root = BUILD / "tmp" / str(os.getpid())
    try:
        build()
        setups, results = run_workers(args, ops, tmp_root)
        checks = gate(ops, results)
        if args.trace:
            metrics, detail = per_layer(results, checks)
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(setups, results)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    record = {"context": context(args, ops), "cold_state": results[0]["cold"],
              "workers": len(results), "gate": checks, "detail": detail,
              "metrics": metrics}
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
