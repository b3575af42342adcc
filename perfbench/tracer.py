"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps, in every cmiplab module, each public module-level
function, each public method and classmethod of the classes the module
defines, and each dataclass `__post_init__` (the validation pass behind every
construction).  The private `verify._check_*` functions are wrapped too, so
the time of each invariant check can be reported.  Modules import names with
`from .qcore import ...`, so after wrapping, every module attribute that is
bound to an original function is re-bound to its wrapper.

A span is one wrapped call: its name, start, end, the span that caused it and
the benchmark operation it belongs to.  Self time is a span's duration minus
the time its wrapped children cover, summed per module (layer).  Time spent in
numpy or in unwrapped helpers counts toward the innermost wrapped caller, so
random draws made inside `run_session` are qkd42 time.

Spans are kept in memory, up to `SPAN_CAP` of them, and written out by
`write()` when the run ends; the aggregates cover every call, stored or not.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("qcore", "interferometer", "entanglement_lab", "tomography",
          "qkd42", "rng", "cli", "verify")

QCORE_OBJECTS = ("qcore.StateVector.__post_init__",
                 "qcore.Operator.__post_init__",
                 "qcore.DensityMatrix.__post_init__")
SOLVERS = ("interferometer.solve_gamma1", "interferometer.solve_gamma2")
SPAN_CAP = 50_000  # spans kept for the trace file; aggregates cover all calls


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # span-name table, index = key
        self.calls: list[int] = []          # key -> call count
        self.incl_s: list[float] = []       # key -> inclusive seconds
        self.self_s = [0.0] * len(LAYERS)   # layer -> self seconds
        self.spans: list[tuple] = []        # (id, parent, key, op, t0, t1)
        self.spans_dropped = 0
        self.op = -1                        # current benchmark operation
        self.pulses = 0
        self.log_bytes = 0
        self.catalog_in_reconstruct = 0
        self.check_names: dict[int, str] = {}
        self._stack: list[list] = []        # frames [span id, child seconds]
        self._next_id = 0
        self._reconstruct_depth = 0
        self._check_seq: list[int] = []

    # -- instrumentation -------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"cmiplab.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for li, layer in enumerate(LAYERS):
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wanted = not name.startswith("_") or (
                        layer == "verify" and name.startswith("_check_"))
                    if wanted:
                        replaced[obj] = self._wrap(obj, f"{layer}.{name}", li)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not name.startswith("_")):
                    self._wrap_class(obj, f"{layer}.{name}", li)
        package_mod = importlib.import_module("cmiplab")
        for mod in (package_mod, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def _wrap_class(self, cls, qual, li):
        for name, attr in list(vars(cls).items()):
            if name == "__post_init__" and dataclasses.is_dataclass(cls):
                setattr(cls, name, self._wrap(attr, f"{qual}.{name}", li))
            elif name.startswith("_"):
                continue
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(
                    self._wrap(attr.__func__, f"{qual}.{name}", li)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, f"{qual}.{name}", li))

    def _key(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.incl_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, li: int):
        key = self._key(name)
        pre, fin, post = self._hooks(name, key)
        stack, spans, calls, incl, self_s = (
            self._stack, self.spans, self.calls, self.incl_s, self.self_s)
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if pre is not None:
                pre(args, kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                incl[key] += dur
                self_s[li] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, key, tracer.op, t0, t1))
                else:
                    tracer.spans_dropped += 1
                if fin is not None:
                    fin()
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self, name, key):
        """(before, finally, on-result) callbacks for counters that need a
        call's arguments, its result or its nesting; None where unused."""
        if name == "qkd42.run_session":
            def pre(args, kwargs):
                cfg = args[0] if args else kwargs["cfg"]
                self.pulses += cfg.n_pulses
            return pre, None, None
        if name == "qkd42.pulse_log_csv":
            def post(text):
                self.log_bytes += len(text)
            return None, None, post
        if name == "tomography.reconstruct":
            def pre(args, kwargs):
                self._reconstruct_depth += 1

            def fin():
                self._reconstruct_depth -= 1
            return pre, fin, None
        if name == "tomography.projector_catalog":
            def pre(args, kwargs):
                if self._reconstruct_depth:
                    self.catalog_in_reconstruct += 1
            return pre, None, None
        if name == "verify.run_all":
            def pre(args, kwargs):
                self._check_seq = []

            def post(results):
                # run_all returns its results in the order it ran the checks
                for check_key, res in zip(self._check_seq, results):
                    self.check_names[check_key] = res.name
            return pre, None, post
        if name.startswith("verify._check_"):
            def pre(args, kwargs):
                self._check_seq.append(key)
            return pre, None, None
        return None, None, None

    # -- results -----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def layer_metrics(self, ops: int, check_names, output_bytes: int) -> dict:
        """Per-operation layer metrics, keyed by BENCHMARK.json names."""
        per_op = 1.0 / ops
        m = {}
        for li, layer in enumerate(LAYERS):
            m[f"{layer}.self_ms"] = (self.self_s[li] * 1e3 * per_op, "ms")
        runs = self.count("interferometer.run_cmip")
        recons = self.count("tomography.reconstruct")
        counts = {
            "qcore.objects": sum(self.count(n) for n in QCORE_OBJECTS),
            "qcore.postselect.calls": self.count("qcore.postselect"),
            "qcore.concurrence.calls": self.count("qcore.concurrence"),
            "interferometer.run_cmip.calls": runs,
            "entanglement_lab.apply_cmip_signal.calls":
                self.count("entanglement_lab.apply_cmip_signal"),
            "tomography.reconstruct.calls": recons,
            "qkd42.pulses": self.pulses,
            "qkd42.log_bytes": self.log_bytes,
            "rng.streams": self.count("rng.stream"),
            "cli.output_bytes": output_bytes,
        }
        for name, value in counts.items():
            m[name] = (value * per_op, "bytes" if name.endswith("bytes") else "count")
        solver_calls = sum(self.count(n) for n in SOLVERS)
        m["interferometer.solver_calls_per_run"] = (
            solver_calls / runs if runs else 0.0, "ratio")
        m["tomography.catalog_builds_per_reconstruct"] = (
            self.catalog_in_reconstruct / recons if recons else 0.0, "ratio")
        by_check = defaultdict(float)
        for key, check in self.check_names.items():
            by_check[check] += self.incl_s[key]
        for check in check_names:
            m[f"verify.check.{check}.ms"] = (by_check[check] * 1e3 * per_op, "ms")
        return m

    def write(self, path, meta: dict):
        """Span table as JSON: a name table plus one row per stored span."""
        doc = {
            **meta,
            "columns": ["id", "parent", "name", "op", "start_s", "end_s"],
            "names": self.names,
            "spans_stored": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
