"""Per-layer spans for a traced worker.

`Tracer.install` wraps the public functions and public methods of each
sytcount layer module, and rebinds every name other sytcount modules
imported them under (for example `gamma.syt_count_hlf`), so calls between
layers pass through the wrappers too. Each call is a span with a parent; a
generator a layer returns or receives is traced one `next()` at a time and
charged to the module its code lives in. A layer's self time is the time
of its spans minus the time of their child spans. Spans stay in memory
until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import Counter

LAYERS = ("shapes", "counting", "gamma", "sequences", "verify", "report", "cli")


class Tracer:
    def __init__(self) -> None:
        self._clock = time.perf_counter_ns
        self._stack: list[list] = []   # [span id, parent id, name, start, child ns]
        self._next_id = 0
        self._layer_of: dict[str, str] = {}
        self.spans: list[tuple] = []   # (span id, parent id, name, start ns, end ns)
        self.self_ns: Counter = Counter()      # per layer
        self.fn_self_ns: Counter = Counter()   # per "layer.function"
        self.calls: Counter = Counter()        # wrapped calls per layer
        self.yielded: Counter = Counter()      # items per traced generator name
        self.cases_checked = 0                 # sum of CheckResult.checked over run_suite

    # --- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, 0, 0]
        self._stack.append(frame)
        frame[3] = self._clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = self._clock()
        self._stack.pop()
        duration = end - frame[3]
        own = duration - frame[4]
        name = frame[2]
        self.self_ns[self._layer_of[name]] += own
        self.fn_self_ns[name] += own
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((frame[0], frame[1], name, frame[3], end))

    def _iterate(self, gen, name: str):
        while True:
            frame = self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            self.yielded[name] += 1
            yield item

    def _traced_generator(self, gen, name: str | None = None):
        """Wrap a generator from a layer module; others pass through."""
        frame = gen.gi_frame
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        layer = module.rpartition(".")[2]
        if not module.startswith("sytcount.") or layer not in LAYERS:
            return gen
        name = name or f"{layer}.{gen.__qualname__}"
        self._layer_of[name] = layer
        return self._iterate(gen, name)

    # --- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        self._layer_of[name] = layer
        count_cases = name == "verify.run_suite"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            if any(inspect.isgenerator(arg) for arg in args):
                args = tuple(tracer._traced_generator(arg) if inspect.isgenerator(arg)
                             else arg for arg in args)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if inspect.isgenerator(result):
                return tracer._traced_generator(result, name)
            if count_cases:
                tracer.cases_checked += sum(check.checked for check in result.checks)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the layers among `modules` (name -> module, every loaded
        sytcount module) and rebind the wrapped names everywhere."""
        replacement = {}
        for layer in LAYERS:
            module = modules[f"sytcount.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replacement[id(obj)] = self.wrap(layer, f"{layer}.{attr}", obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapped = replacement.get(id(obj))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(layer, name, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(layer, name, obj.__func__)))

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = self.calls[layer]
            metrics[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        metrics["sequences.tau_growth_self_s"] = self.fn_self_ns["sequences.tau_growth"] / 1e9
        metrics["shapes.shapes_yielded"] = self.yielded["shapes.enumerate_family"]
        metrics["counting.fillings_listed"] = self.yielded["counting.syt_enumerate"]
        metrics["verify.cases_checked"] = self.cases_checked
        return metrics

    def write_spans(self, path: str) -> None:
        """One CSV line per span: id, parent id (0 at the top), name, start and
        end in nanoseconds of the worker's performance counter."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            handle.writelines(f"{i},{p},{n},{a},{b}\n" for i, p, n, a, b in self.spans)
