"""Performance envelope: configuration enumeration and Pareto filtering.

A configuration fixes one (device, variant) per operator node. Each one
is scored on four axes: end-to-end latency mean (ms), achieved sink
throughput (Hz), end-to-end latency variability (ms, root-sum-square of
stage stds along the worst path), and platform energy rate (W).

Latency and variability come from `scheduler.worst_path_latency`, a
forward pass over the graph in topological order, not from enumerating
its paths, so no path count bounds the envelope. It returns exactly what
`analytic_latency` returns from the enumeration: every node keeps the
prefix the enumeration would meet first (higher latency, then more hops,
then the smaller name and id sequences), each sum is formed by the
additions of `path_metrics` in their order, and float addition is
monotone, so the kept prefixes make the worst float. Where a prefix lost
by so little that rounding could still tie it with the winner, a second
pass keeps every such prefix and chooses by the same order.

Dominance is 4-dimensional: a point dominates another when it is no worse
on every axis (lower latency, variability, and energy; higher throughput)
and strictly better on at least one. Duplicated points never dominate
each other, so exact duplicates are both kept. The filter is
sort-filter-skyline (Börzsönyi, Kossmann and Stocker, ICDE 2001; Chomicki
et al., ICDE 2003), and it is exact: a point that dominates another is
lexicographically smaller on (latency, variability, energy, -throughput),
so it is visited first, and dominance is transitive, so a point that some
dropped point dominates is also dominated by a kept one. Each point is
therefore compared only with the points kept before it. A point with a
NaN axis fails every comparison, so it dominates nothing and is kept.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from .errors import StackError
from .graph import ComputationGraph
from .scheduler import Mapping, candidates, energy_rate_w, utilization_check, worst_path_latency
from .substrate import SubstrateModel

DEFAULT_LIMIT = 10_000


@dataclass(frozen=True)
class ConfigPoint:
    mapping: Mapping
    latency_ms: float
    throughput_hz: float
    variability_ms: float
    energy_rate_w: float

    def metrics(self) -> tuple[float, float, float, float]:
        return (self.latency_ms, self.throughput_hz, self.variability_ms, self.energy_rate_w)

    def digest(self, graph: ComputationGraph) -> str:
        return "|".join(
            f"{graph.node(nid).name}={dev}:{var}" for nid, (dev, var) in sorted(self.mapping.assignment.items())
        )


@dataclass(frozen=True)
class ParetoFrontier:
    points: tuple[ConfigPoint, ...]
    dominated_count: int


def evaluate_config(
    assignment: dict[int, tuple[str, str]], graph: ComputationGraph, model: SubstrateModel
) -> ConfigPoint:
    """Score one complete assignment.

    Throughput is the sink rate when every device keeps up; past
    utilization 1 it degrades proportionally (the pipeline slows to what
    the busiest device sustains, scaled to the sink's rate).
    """
    latency, variability = worst_path_latency(graph, model, assignment)
    util = utilization_check(assignment, graph, model)
    max_util = max(util.values(), default=0.0)
    sink_rate = min((graph.node(s).required_freq_hz for s in graph.sink_ids), default=0.0)
    throughput = sink_rate if max_util <= 1.0 else sink_rate / max_util
    energy = energy_rate_w(graph, model, assignment)
    mapping = Mapping(dict(assignment), latency, util)
    return ConfigPoint(mapping, latency, throughput, variability, energy)


def enumerate_configs(
    graph: ComputationGraph, model: SubstrateModel, limit: int = DEFAULT_LIMIT, seed: int = 0
) -> list[ConfigPoint]:
    """Evaluate the assignment space, exhaustively when it fits the limit.

    Above the limit, a seeded uniform sample of `limit` distinct
    assignments is evaluated instead; the same seed always yields the same
    point set. E-EMPTY when some node has no candidates at all.
    """
    ops = graph.operator_nodes()
    per_node = []
    for node in ops:
        cands = candidates(node, model)
        if not cands:
            raise StackError("E-EMPTY", f"no valid assignment: '{node.name}' has no candidates")
        per_node.append([(d.id, p.variant) for d, p in cands])

    total = 1
    for c in per_node:
        total *= len(c)

    points = []
    if total <= limit:
        for pick in itertools.product(*(range(len(c)) for c in per_node)):
            assignment = {node.id: per_node[i][pick[i]] for i, node in enumerate(ops)}
            points.append(evaluate_config(assignment, graph, model))
    else:
        rng = random.Random(seed)
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < limit:
            pick = tuple(rng.randrange(len(c)) for c in per_node)
            chosen.add(pick)
        for pick in sorted(chosen):
            assignment = {node.id: per_node[i][pick[i]] for i, node in enumerate(ops)}
            points.append(evaluate_config(assignment, graph, model))
    return points


def pareto_filter(points: list[ConfigPoint]) -> ParetoFrontier:
    """Exact dominance filter by sort-filter-skyline; output ordered by
    (latency, -throughput), ties in input order."""
    if not points:
        raise StackError("E-EMPTY", "cannot filter an empty point set")
    # minimize latency, variability, energy, -throughput
    objs = [(p.latency_ms, p.variability_ms, p.energy_rate_w, -p.throughput_hz) for p in points]
    # an axis that is NaN fails every comparison: such a point is never
    # dominated and dominates nothing, so it skips the sort and stays
    keep = [not (lat == lat and var == var and energy == energy and thr == thr) for lat, var, energy, thr in objs]
    window: list[tuple[float, float, float, float]] = []  # objectives kept so far, in visit order
    for i in sorted((i for i in range(len(points)) if not keep[i]), key=objs.__getitem__):
        o = objs[i]
        _, var, energy, thr = o
        # every kept point comes first in the sort, so its latency is no higher
        if not any(w[1] <= var and w[2] <= energy and w[3] <= thr and w != o for w in window):
            window.append(o)
            keep[i] = True
    survivors = [p for p, kept in zip(points, keep) if kept]
    survivors.sort(key=lambda p: (p.latency_ms, -p.throughput_hz))
    return ParetoFrontier(tuple(survivors), len(points) - len(survivors))


# ---------------------------------------------------------------------------
# Export

CSV_HEADER = "latency_ms,throughput_hz,variability_ms,energy_w,config"


def export_envelope(frontier: ParetoFrontier, graph: ComputationGraph, fmt: str = "csv") -> str:
    if fmt == "csv":
        rows = [CSV_HEADER]
        for p in frontier.points:
            rows.append(
                f"{p.latency_ms!r},{p.throughput_hz!r},{p.variability_ms!r},{p.energy_rate_w!r},{p.digest(graph)}"
            )
        return "\n".join(rows) + "\n"
    if fmt == "json":
        doc = {
            "dominated_count": frontier.dominated_count,
            "points": [
                {
                    "latency_ms": p.latency_ms,
                    "throughput_hz": p.throughput_hz,
                    "variability_ms": p.variability_ms,
                    "energy_w": p.energy_rate_w,
                    "assignment": {
                        graph.node(nid).name: {"device": dev, "variant": var}
                        for nid, (dev, var) in sorted(p.mapping.assignment.items())
                    },
                }
                for p in frontier.points
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    raise StackError("E-FORMAT", f"unknown envelope format '{fmt}'")
