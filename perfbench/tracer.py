"""Per-layer call counts and times, recorded from outside the program.

`Tracer.install(am)` replaces the public functions of each amstack layer
module, and the hot public methods of `ComputationGraph` and
`SubstrateModel`, with wrappers that count calls and time them. A
function is wrapped once and the wrapper is put in every module that
holds it, so names a layer imports from another (`scheduler.query`,
`envelope.analytic_latency`, ...) are counted once, under the layer
that defines them. `ComputationGraph.node` is an index into a tuple and
stays unwrapped: its cost would be mostly the wrapper's own.

Self time is a call's duration minus the durations of the wrapped calls
it made; time in unwrapped code (json, numpy, the caller's own loop)
counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict

LAYERS = ("dsl", "graph", "substrate", "scheduler", "envelope", "runtime")
GRAPH_METHODS = ("in_edges", "out_edges", "sink_ids", "source_ids", "topo_order", "by_name", "depth", "operator_nodes")
MODEL_METHODS = ("profile", "device", "classes_for", "devices_of_class", "comm_cost_ms", "mean_link_bandwidth")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._child_s: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, key: str, fn):
        calls, total_s, self_s, child_s = self.calls, self.total_s, self.self_s, self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[key] += 1
                total_s[key] += dt
                self_s[key] += dt - child_s.pop()
                if child_s:
                    child_s[-1] += dt

        return wrapper

    def _set(self, owner, name: str, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, am):
        """Wrap the layers of the imported package `am` (the `amstack` module)."""
        modules = {layer: getattr(am, layer) for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in modules:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._set(module, name, wrapped[id(obj)])
        for name in GRAPH_METHODS:
            self._wrap_method(am.graph.ComputationGraph, name, f"graph.{name}")
        for name in MODEL_METHODS:
            self._wrap_method(am.substrate.SubstrateModel, name, f"substrate.{name}")

    def _wrap_method(self, cls, name: str, key: str):
        """Wrap a plain method or property; anything else (a field, a cached
        attribute, a name that is gone) is left alone and counts no calls."""
        attr = cls.__dict__.get(name)
        if isinstance(attr, property) and attr.fget is not None:
            self._set(cls, name, property(self.wrap(key, attr.fget)))
        elif isinstance(attr, types.FunctionType):
            self._set(cls, name, self.wrap(key, attr))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds) over every wrapped function of it."""
        out = {layer: (0, 0.0) for layer in LAYERS}
        for key, n in self.calls.items():
            layer = key.partition(".")[0]
            calls, self_s = out[layer]
            out[layer] = (calls + n, self_s + self.self_s[key])
        return out
