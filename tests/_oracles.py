"""Independent reference implementations used to cross-check the library.

These deliberately avoid the production code paths: the makespan oracle is
a plain topological list scheduler driven by exhaustive assignment
enumeration, the dominance check is the quadratic pairwise definition, the
Pareto filter is the all-pairs loop that sort-filter-skyline must match
point for point, the graph and platform lookups are linear scans over the
models' tuples, which the indexed lookups of ComputationGraph and
SubstrateModel must match, and the trace writer is json.dumps of each
event, which the line templates of runtime.trace_to_jsonl must match byte
for byte.
"""

import itertools
import json
import math

import numpy as np

from amstack import graph as graphmod, scheduler
from amstack.errors import StackError

# ---------------------------------------------------------------------------
# ComputationGraph lookups


def in_edges(graph, node_id):
    return [e for e in graph.edges if e.consumer == node_id]


def out_edges(graph, node_id):
    return [e for e in graph.edges if e.producer == node_id]


def source_ids(graph):
    return {n.id for n in graph.nodes if n.kind == "source"}


def sink_ids(graph):
    has_out = {e.producer for e in graph.edges}
    return {n.id for n in graph.nodes if n.id not in has_out}


def by_name(graph, name):
    for n in graph.nodes:
        if n.name == name:
            return n
    raise KeyError(name)


def topo_order(graph):
    """Kahn's algorithm keeping the ready list sorted by insertion."""
    indeg = {n.id: 0 for n in graph.nodes}
    for e in graph.edges:
        indeg[e.consumer] += 1
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for e in out_edges(graph, i):
            indeg[e.consumer] -= 1
            if indeg[e.consumer] == 0:
                lo = 0
                while lo < len(ready) and ready[lo] < e.consumer:
                    lo += 1
                ready.insert(lo, e.consumer)
    if len(order) != len(graph.nodes):
        raise StackError("E-CYCLE", "computation graph contains a cycle")
    return order


def cut_bandwidth(graph, upstream):
    """Total bytes/s crossing a topological cut (upstream -> rest)."""
    total = 0.0
    for e in graph.edges:
        if e.producer in upstream and e.consumer not in upstream:
            total += graphmod.edge_bandwidth(graph, e)
    return total


# ---------------------------------------------------------------------------
# SubstrateModel lookups


def device(model, device_id):
    for d in model.devices:
        if d.id == device_id:
            return d
    raise KeyError(device_id)


def profile(model, operator, variant, device_class):
    for p in model.profiles:
        if (p.operator, p.variant, p.device_class) == (operator, variant, device_class):
            return p
    raise KeyError((operator, variant, device_class))


def classes_for(model, operator):
    seen = []
    for p in model.profiles:
        if p.operator == operator and p.device_class not in seen:
            seen.append(p.device_class)
    return sorted(seen)


def query(model, operator, device_class):
    hits = [p for p in model.profiles if p.operator == operator and p.device_class == device_class]
    hits.sort(key=lambda p: (p.latency_mean_ms, p.variant))
    return hits


# ---------------------------------------------------------------------------
# Scheduling and dominance


def oracle_makespan(graph, model, assignment):
    lane_free = {d.id: [0.0] * d.core_count for d in model.devices}
    finish = {}
    for nid in graph.topo_order():
        node = graph.node(nid)
        if node.kind != "operator":
            continue
        dev_id, variant = assignment[nid]
        ready = 0.0
        for e in graph.in_edges(nid):
            pred = graph.node(e.producer)
            if pred.kind == "source":
                continue
            ready = max(
                ready, finish[pred.id] + model.comm_cost_ms(assignment[pred.id][0], dev_id, pred.message_size)
            )
        lanes = lane_free[dev_id]
        lane = min(range(len(lanes)), key=lambda i: lanes[i])
        start = max(ready, lanes[lane])
        lat = model.profile(node.name, variant, model.device(dev_id).device_class).latency_mean_ms
        lanes[lane] = start + lat
        finish[nid] = start + lat
    return max(finish.values(), default=0.0)


def oracle_optimum(graph, model):
    ops = graph.operator_nodes()
    spaces = [scheduler.candidates(n, model) for n in ops]
    best = math.inf
    for combo in itertools.product(*spaces):
        assignment = {n.id: (d.id, p.variant) for n, (d, p) in zip(ops, combo)}
        best = min(best, oracle_makespan(graph, model, assignment))
    return best


def dominates(a, b):
    """4-axis dominance over ConfigPoint-likes (latency, throughput,
    variability, energy), throughput maximized, the rest minimized."""
    no_worse = (
        a.latency_ms <= b.latency_ms
        and a.variability_ms <= b.variability_ms
        and a.energy_rate_w <= b.energy_rate_w
        and a.throughput_hz >= b.throughput_hz
    )
    strictly = (
        a.latency_ms < b.latency_ms
        or a.variability_ms < b.variability_ms
        or a.energy_rate_w < b.energy_rate_w
        or a.throughput_hz > b.throughput_hz
    )
    return no_worse and strictly


def brute_force_frontier(points):
    return [p for p in points if not any(dominates(q, p) for q in points)]


def pareto_filter(points):
    """(survivors in (latency, -throughput) order, dominated count) by the
    all-pairs numpy loop that envelope.pareto_filter's sort-filter-skyline
    replaced."""
    objs = np.array([[p.latency_ms, p.variability_ms, p.energy_rate_w, -p.throughput_hz] for p in points])
    n = len(points)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        leq = np.all(objs <= objs[i], axis=1)
        strict = np.any(objs < objs[i], axis=1)
        if np.any(leq & strict):
            keep[i] = False
    survivors = [p for i, p in enumerate(points) if keep[i]]
    survivors.sort(key=lambda p: (p.latency_ms, -p.throughput_hz))
    return tuple(survivors), n - len(survivors)


# ---------------------------------------------------------------------------
# Trace persistence


def trace_to_jsonl(trace):
    lines = [
        json.dumps({"t": e.t, "node": e.node, "kind": e.kind, "detail": e.detail}, sort_keys=True)
        for e in trace.events
    ]
    return "\n".join(lines) + ("\n" if lines else "")
