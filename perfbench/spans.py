"""Span tracing around calls into the fnar modules, installed from outside.

The tracer replaces public functions (and the ``apply_grid`` methods of the
interaction operators) with wrappers that record one span per call: name,
start, end, parent span and the operation it belongs to. Nothing in
``src/fnar`` changes; ``uninstall`` puts every original back, so untraced
operations run the unmodified code.

A span name is ``<module>.<function>``; the module part is the layer. A
layer's self time is its span's duration minus the durations of its direct
children (children of one span never overlap: the program is sequential).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc

PACKAGE = "fnar"


def _iterations(result):
    return result.iterations


def _tracemalloc_peak(call):
    """Run ``call`` under tracemalloc; return (result, peak bytes allocated in it)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# (module, attribute, what to record as the span's value). An attribute
# "Class.method" wraps the method on every class of the module that defines it.
# CSV readers and writers are deliberately not listed: under a CLI command span
# they count as the command's own (I/O) time.
TRACED = (
    ("simulate", "simulate_mc_panel", None),
    ("simulate", "neumann_solve", _iterations),
    ("basis", "build_bspline_basis", None),
    ("network", "build_lattice_weights", None),
    ("network", "build_quadratic_weights", None),
    ("interaction", "network_lag", None),
    ("interaction", "InteractionOperator.apply_grid", None),
    ("estimator", "build_instruments", None),
    ("estimator", "fit_2sls", None),
    ("estimator", "fit_gmm", _iterations),
    ("estimator", "estimate_variance", "tracemalloc"),
    ("estimator", "estimate_fixed_effects", None),
    ("effects", "impulse_response", None),
    ("effects", "risk_key_player", None),
    ("montecarlo", "run_mc", None),
)


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, op, value]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # tracemalloc slows every allocation, so it watches only the first
        # call that asks for it; the peak depends on the input size alone
        self._memory_sampled = False

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list, value=None) -> None:
        record[2] = time.perf_counter()
        record[5] = value
        self._stack.pop()

    def _wrap(self, fn, name, observe):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer.open(name)
            value = None
            try:
                if observe == "tracemalloc" and not tracer._memory_sampled:
                    tracer._memory_sampled = True
                    result, value = _tracemalloc_peak(lambda: fn(*args, **kwargs))
                else:
                    result = fn(*args, **kwargs)
                    if callable(observe):
                        value = observe(result)
            finally:
                tracer.close(record, value)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function wherever an fnar module holds a reference to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr, observe in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                base_name, method = attr.split(".")
                base = getattr(module, base_name)
                for cls in [base, *_subclasses(base)]:
                    if method in cls.__dict__:
                        original = cls.__dict__[method]
                        wrapper = self._wrap(original, f"{module_name}.{method}", observe)
                        self._patches.append((cls, method, original))
                        setattr(cls, method, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, f"{module_name}.{attr}", observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "value"],
                       "spans": self.spans}, fh)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class SpanStats:
    """Per-name totals over the spans of a chosen set of operations."""

    def __init__(self, spans: list[list], ops: set[int]):
        self.duration: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.value_sum: dict[str, float] = {}
        self.value_max: dict[str, float] = {}
        self.layer_busy: dict[str, float] = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, op, value) in enumerate(spans):
            if op not in ops:
                continue
            dur = end - start
            self.duration[name] = self.duration.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[index]
            self.calls[name] = self.calls.get(name, 0) + 1
            if value is not None:
                self.value_sum[name] = self.value_sum.get(name, 0.0) + value
                self.value_max[name] = max(self.value_max.get(name, 0.0), value)
            layer = name.split(".")[0]
            if not _has_ancestor_in(spans, parent, layer):
                self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + dur


def _has_ancestor_in(spans, parent, layer):
    while parent >= 0:
        if spans[parent][0].split(".")[0] == layer:
            return True
        parent = spans[parent][3]
    return False
