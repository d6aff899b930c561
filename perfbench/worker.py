"""One cold run of a workload, in a fresh interpreter.

Reads a JSON request on stdin, imports sytcount from the checkout, asserts
that every functools cache in it is empty, and turns the operations into
calls: that is its set-up. It times the calls, records peak memory, and
after the timed window hashes every output for the parent's correctness
gate. Prints one JSON result on stdout. With "trace" set, the calls run
through `tracer.Tracer` and the result carries the per-layer numbers.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _caches(modules: dict) -> dict:
    """Every functools cache object in sytcount, by defining qualified name."""
    found = {}
    for module in modules.values():
        for obj in vars(module).values():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def _resolve(op: list, sytcount, out_path: str):
    """The callable and arguments of one operation."""
    kind, args = op[0], op[1:]
    if kind == "cli":
        return sytcount.cli.run, ([*args[0], "--out", out_path],)
    if kind == "ratio_decompositions":
        decompose = sytcount.ratio_decomposition
        return (lambda lo, hi: [decompose(n) for n in range(lo, hi + 1)]), tuple(args)
    if kind == "syt_count_hlf":
        return sytcount.syt_count_hlf, (sytcount.ColumnShape(tuple(args[0])),)
    if kind in ("ratio_table", "build_table", "gamma_def", "gamma_rec", "tau", "ratio"):
        return getattr(sytcount, kind), tuple(args)
    raise ValueError(f"unknown operation kind {kind!r}")


def _hit_ratio(info) -> float:
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def _cache_metrics(caches: dict) -> dict:
    """Counters read from cache_info() after the run. A cache that a later
    version of sytcount no longer has reads 0 instead of failing the run."""
    def info(name):
        obj = caches.get(name)
        return obj.cache_info() if obj is not None else None

    metrics = {}
    for metric, name, field in (
            ("counting.hook_evals", "sytcount.counting._hook_count", "misses"),
            ("counting.hook_hit_ratio", "sytcount.counting._hook_count", "ratio"),
            ("shapes.partitions_hit_ratio", "sytcount.shapes.partitions_at_most", "ratio"),
            ("gamma.def_misses", "sytcount.gamma.gamma_def", "misses"),
            ("gamma.correction_misses", "sytcount.gamma.correction_r", "misses"),
            ("gamma.def_hit_ratio", "sytcount.gamma.gamma_def", "ratio")):
        got = info(name)
        if got is None:
            metrics[metric] = 0
        else:
            metrics[metric] = _hit_ratio(got) if field == "ratio" else got.misses
    return metrics


def run(request: dict, spawned: float) -> dict:
    root = request["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import sytcount
    import sytcount.cli
    origin = os.path.dirname(os.path.abspath(sytcount.__file__))
    if origin != os.path.join(root, "src", "sytcount"):
        raise RuntimeError(f"sytcount imported from {origin}, not from the checkout")
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "sytcount" or name.startswith("sytcount.")}
    caches = _caches(modules)
    warm = {name: obj.cache_info().currsize for name, obj in caches.items()
            if obj.cache_info().currsize}
    if warm:
        raise RuntimeError(f"caches not cold at worker start: {warm}")
    cold = {"caches": sorted(caches), "all_empty": True}

    tracer = None
    if request["trace"]:
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(modules)

    ops = request["ops"]
    tmp_dir = request["tmp_dir"]
    out_paths = [os.path.join(tmp_dir, f"{index:03d}.out") for index in range(len(ops))]
    calls = [_resolve(op, sytcount, path) for op, path in zip(ops, out_paths)]
    setup_s = time.monotonic() - spawned
    if request["setup_only"]:
        return {"setup_s": setup_s, "cold": cold}

    clock = time.perf_counter_ns
    latencies = []
    outputs = []
    errors = {}
    start = time.perf_counter()
    for index, (fn, args) in enumerate(calls):
        began = clock()
        try:
            outputs.append(fn(*args))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            errors[index] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - began)
    wall = time.perf_counter() - start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Outside the timed window from here on.
    sys.path.insert(0, HERE)
    from canon import digest, file_digest
    digests = []
    bytes_out = 0
    for index, (op, out) in enumerate(zip(ops, outputs)):
        if index in errors:
            digests.append(None)
            continue
        if op[0] == "cli":
            text = ""
            if os.path.exists(out_paths[index]):  # a usage error writes no file
                with open(out_paths[index], encoding="utf-8") as handle:
                    text = handle.read()
            bytes_out += len(text.encode("utf-8"))
            out = [out, file_digest(text)]
        elif op[0] == "build_table":
            out = out.rows
        try:
            digests.append(digest(out))
        except TypeError as exc:
            digests.append(None)
            errors[index] = f"unexpected output: {exc}"

    result = {"setup_s": setup_s, "cold": cold, "wall_s": wall, "peak_rss_kib": peak_rss_kib,
              "latency_ns": latencies, "digests": digests,
              "errors": {str(k): v for k, v in errors.items()}}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers.update(_cache_metrics(caches))
        layers["cli.bytes_out"] = bytes_out
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        if request.get("spans_path"):
            tracer.write_spans(request["spans_path"])
    return result


if __name__ == "__main__":
    # The last argument is the monotonic time at which the worker was spawned.
    json.dump(run(json.load(sys.stdin), float(sys.argv[-1])), sys.stdout)
