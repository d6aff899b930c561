"""The benchmark's workloads and the inputs each one hands to a worker.

An input is a list of operations, each `[kind, *arguments]` with plain JSON
arguments; the worker turns them into sytcount calls. Only point-queries
depends on the seed. The other three are fixed sequences taken from the
package's acceptance ranges and CLI, so every seed runs the same work on them.
"""

from __future__ import annotations

import random

WHY = {
    "ratio-sweep": "exact ratio tables for s=3,4 at the acceptance ranges and s=5 to "
                   "n=80; almost all time is the tau_growth corner sweep, bypassing hook "
                   "counts and family scans",
    "table-build": "whole tables by both routes for s=3..6: bulk family enumeration and "
                   "hook sums that fill the caches, bypassing tau_growth",
    "point-queries": "seeded stream of single library calls on random inputs that "
                     "mostly hit warm caches: per-call and memo overhead",
    "verify-cli": "fixed cli.run sequence of verify suites and exports to files: the "
                  "only workload through verify, report and cli",
}

WORKLOADS = tuple(WHY)

# The CLI worker appends "--out <file>" to every argv below.
VERIFY_CLI = (
    ("verify", "--suite", "alpha"),
    ("verify", "--suite", "gamma3"),
    ("verify", "--suite", "tau"),
    ("verify", "--suite", "oracle"),
    ("verify", "--suite", "gammaS", "--max-cells", "30"),
    ("verify", "--suite", "oracle", "--format", "csv"),
    ("table", "--columns", "5", "--max-cells", "35", "--method", "recurrence",
     "--format", "json"),
    ("tau", "--columns", "4", "--max-cells", "40", "--method", "recurrence"),
    ("ratio", "--columns", "3", "--max-cells", "80", "--decompose", "--format", "json"),
)

# Sized so that one-off cold misses (family scans, recurrence rows, growth
# sweeps) stay well under 1% of the stream while hook misses on random
# shapes stay above it: p99 then falls where latencies are dense.
QUERY_COUNT = 40000
HOOK_MAX_CELLS = 40     # n bound for hook queries
QUERY_MAX_CELLS = 24    # n bound for gamma and tau queries
RATIO_MAX_CELLS = 40    # n bound for ratio queries
QUERY_KINDS = (("syt_count_hlf", 3), ("gamma_def", 2), ("gamma_rec", 2),
               ("tau", 2), ("ratio", 1))


def tau_methods(s: int) -> tuple[str, ...]:
    """The tau methods that apply to width s."""
    return ("definition", "recurrence", "closed") if s <= 3 else ("definition", "recurrence")


def _random_shape(rng: random.Random, cells: int, width: int) -> list[int]:
    cuts = sorted(rng.randint(0, cells) for _ in range(width - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [cells])]
    return sorted((p for p in parts if p), reverse=True)


def point_queries(seed: int, count: int = QUERY_COUNT) -> list[list]:
    """A stream of `count` single library calls drawn from `seed`."""
    rng = random.Random(seed)
    kinds = [kind for kind, weight in QUERY_KINDS for _ in range(weight)]
    stream = []
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind == "syt_count_hlf":
            cols = _random_shape(rng, rng.randint(0, HOOK_MAX_CELLS), rng.randint(1, 6))
            stream.append([kind, cols])
        elif kind in ("gamma_def", "gamma_rec"):
            s, n = rng.randint(3, 6), rng.randint(0, QUERY_MAX_CELLS)
            stream.append([kind, s, n, rng.randint(0, n // 2)])
        elif kind == "tau":
            s = rng.randint(2, 6)
            stream.append([kind, s, rng.randint(0, QUERY_MAX_CELLS),
                           rng.choice(tau_methods(s))])
        else:
            stream.append([kind, rng.randint(2, 6), rng.randint(1, RATIO_MAX_CELLS)])
    return stream


def operations(workload: str, seed: int) -> list[list]:
    """The inputs of one run of `workload`."""
    if workload == "ratio-sweep":
        # The decompositions are one call: 38 sub-millisecond calls would put
        # the median on whichever of them the host's jitter reordered.
        # s=5 stops at n=80, short of the acceptance range's 120. A 120 sweep
        # takes 7-10 s, too long for a run to hold enough workers for a steady
        # median; at 80 a worker takes about 3.5 s.
        return [["ratio_table", 3, 200], ["ratio_table", 4, 120], ["ratio_table", 5, 80],
                ["ratio_decompositions", 3, 40]]
    if workload == "table-build":
        return [["build_table", 3, 80, "definitional"], ["build_table", 3, 80, "recurrence"],
                ["build_table", 4, 50, "definitional"], ["build_table", 4, 50, "recurrence"],
                ["build_table", 5, 45, "recurrence"], ["build_table", 6, 45, "definitional"]]
    if workload == "point-queries":
        return point_queries(seed)
    if workload == "verify-cli":
        return [["cli", list(argv)] for argv in VERIFY_CLI]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
