"""Dataflow IR: lowering, rate/bandwidth analysis, buffer sizing, paths.

A resolved program lowers to a ComputationGraph: one node per source or
operator reachable through the bindings, one edge per (input, binding)
pair. Nodes fire periodically at their required frequency and read the
latest sample on each input port (sample-and-hold), so every analysis
here treats required_freq as the effective firing rate.

Graphs are immutable once built; analyses return new values (buffer_sizing
returns a new graph rather than mutating edges).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

from .dsl import Diagnostic, ResolvedProgram
from .errors import StackError

PATH_ENUMERATION_BOUND = 10_000


@dataclass(frozen=True)
class Node:
    id: int
    name: str
    kind: str  # "source" | "operator"
    required_freq_hz: float
    message_size: int | None = None  # bytes per output sample
    mapping_constraint: tuple[str, str] | None = None  # (device_class, strength)

    @property
    def period_ms(self) -> float:
        return 1000.0 / self.required_freq_hz


@dataclass(frozen=True)
class Edge:
    producer: int
    consumer: int
    port: int
    buffer_capacity: int | None = None  # filled by buffer_sizing


@dataclass(frozen=True)
class ComputationGraph:
    """Nodes and edges; the lookups below read indexes built once per
    instance on first use. The indexes are not fields, so eq, hash and repr
    see only the nodes and edges, and every index is read-only."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @cached_property
    def name_index(self) -> Mapping[str, Node]:
        """name -> node; the first node of a name wins."""
        index: dict[str, Node] = {}
        for n in self.nodes:
            index.setdefault(n.name, n)
        return MappingProxyType(index)

    def by_name(self, name: str) -> Node:
        return self.name_index[name]

    @cached_property
    def _adjacency(self) -> tuple[dict[int, tuple[Edge, ...]], dict[int, tuple[Edge, ...]]]:
        """(consumer -> in-edges, producer -> out-edges), each in edge order."""
        ins: dict[int, list[Edge]] = {}
        outs: dict[int, list[Edge]] = {}
        for e in self.edges:
            ins.setdefault(e.consumer, []).append(e)
            outs.setdefault(e.producer, []).append(e)
        return {k: tuple(v) for k, v in ins.items()}, {k: tuple(v) for k, v in outs.items()}

    def in_edges(self, node_id: int) -> tuple[Edge, ...]:
        return self._adjacency[0].get(node_id, ())

    def out_edges(self, node_id: int) -> tuple[Edge, ...]:
        return self._adjacency[1].get(node_id, ())

    @cached_property
    def source_ids(self) -> frozenset[int]:
        return frozenset(n.id for n in self.nodes if n.kind == "source")

    @cached_property
    def sink_ids(self) -> frozenset[int]:
        return frozenset(n.id for n in self.nodes if not self.out_edges(n.id))

    @cached_property
    def path_plan(self) -> tuple[tuple[int, str, bool, bool, tuple[tuple[int, bool, int | None], ...]], ...]:
        """The nodes some source reaches, in topological order, each as (id,
        name, is a source, is a sink, in-edges from reached producers as
        (producer id, producer is a source, producer message_size), in edge
        order): the walk of `critical_paths`, for a forward pass."""
        reached: set[int] = set()
        plan = []
        for nid in self.topo_order():
            node = self.nodes[nid]
            ins = tuple(
                (e.producer, self.nodes[e.producer].kind == "source", self.nodes[e.producer].message_size)
                for e in self.in_edges(nid)
                if e.producer in reached
            )
            if node.kind == "source" or ins:
                reached.add(nid)
                plan.append((nid, node.name, node.kind == "source", nid in self.sink_ids, ins))
        return tuple(plan)

    def operator_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "operator"]

    def topo_order(self) -> list[int]:
        """Kahn topological sort; raises E-CYCLE if the graph has one."""
        indeg = {n.id: 0 for n in self.nodes}
        for e in self.edges:
            indeg[e.consumer] += 1
        ready = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(ready)  # smallest ready id first, for determinism
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for e in self.out_edges(i):
                indeg[e.consumer] -= 1
                if indeg[e.consumer] == 0:
                    heapq.heappush(ready, e.consumer)
        if len(order) != len(self.nodes):
            raise StackError("E-CYCLE", "computation graph contains a cycle")
        return order

    def depth(self) -> dict[int, int]:
        """Longest-path depth from any source (sources are depth 0)."""
        d = {i: 0 for i in range(len(self.nodes))}
        for i in self.topo_order():
            for e in self.out_edges(i):
                d[e.consumer] = max(d[e.consumer], d[i] + 1)
        return d


@dataclass(frozen=True)
class RateReport:
    node_rate_hz: dict[int, float]
    edge_oversampling: dict[tuple[int, int, int], float]  # (producer, consumer, port)
    warnings: list[Diagnostic] = field(default_factory=list)


@dataclass(frozen=True)
class BandwidthReport:
    per_edge_bps: dict[tuple[int, int, int], float]
    node_output_bps: dict[int, float]  # rate x message size, sinks included
    stage_cut_bps: list[float]  # cut k separates depth < k from depth >= k


def lower(program: ResolvedProgram) -> tuple[ComputationGraph, list[Diagnostic]]:
    """Lower a diagnostic-free resolved program to a validated DAG.

    Declarations not reachable through any binding are dropped with an
    E-ORPHAN warning. Mapping annotations collapse onto nodes: a
    requirement beats any hint, later statements beat earlier ones.
    """
    diags: list[Diagnostic] = []
    constraint: dict[str, tuple[str, str]] = {}
    for m in program.maps:
        prev = constraint.get(m.operator)
        strength = "requirement" if m.strength == "requirement" else "hint"
        if prev is not None and prev[1] == "requirement" and strength == "hint":
            continue
        constraint[m.operator] = (m.device_class, strength)

    nodes: list[Node] = []
    id_by_alias: dict[str, int] = {}  # source name or binding result -> node id

    source_decls = {s.name: s for s in program.sources}
    used_sources: list[str] = []
    seen_sources = set()
    for b in program.bindings:
        for inp in b.inputs:
            if inp in source_decls and inp not in seen_sources:
                seen_sources.add(inp)
                used_sources.append(inp)
    for name in used_sources:
        s = source_decls[name]
        nodes.append(Node(len(nodes), name, "source", s.frequency.hz, s.message_size))
        id_by_alias[name] = nodes[-1].id

    op_decls = {o.name: o for o in program.operators}
    edges: list[Edge] = []
    for b in program.bindings:
        o = op_decls[b.operator]
        node = Node(
            len(nodes),
            b.operator,
            "operator",
            o.frequency.hz,
            o.message_size,
            constraint.get(b.operator),
        )
        nodes.append(node)
        for port, inp in enumerate(b.inputs):
            edges.append(Edge(id_by_alias[inp], node.id, port))
        id_by_alias[b.result] = node.id

    reachable = set(used_sources) | {b.operator for b in program.bindings}
    for decl in list(program.sources) + list(program.operators):
        if decl.name not in reachable:
            diags.append(
                Diagnostic("warning", "E-ORPHAN", f"declaration '{decl.name}' is unreachable from the bindings")
            )

    graph = ComputationGraph(tuple(nodes), tuple(edges))
    graph.topo_order()  # E-CYCLE assertion; resolve() ordering makes this unreachable
    return graph, diags


def rate_analysis(graph: ComputationGraph) -> RateReport:
    """Effective rates under periodic activation plus per-edge oversampling.

    A consumer firing faster than its producer re-reads the same sample;
    every such edge gets a W-OVERSAMPLE warning.
    """
    rates = {n.id: n.required_freq_hz for n in graph.nodes}
    oversampling = {}
    warnings = []
    for e in graph.edges:
        factor = rates[e.consumer] / rates[e.producer]
        oversampling[(e.producer, e.consumer, e.port)] = factor
        if factor > 1.0:
            p, c = graph.node(e.producer), graph.node(e.consumer)
            warnings.append(
                Diagnostic(
                    "warning",
                    "W-OVERSAMPLE",
                    f"{c.name} at {c.required_freq_hz:g} Hz consumes {p.name} at "
                    f"{p.required_freq_hz:g} Hz (factor {factor:g})",
                )
            )
    return RateReport(rates, oversampling, warnings)


def edge_bandwidth(graph: ComputationGraph, edge: Edge) -> float:
    p = graph.node(edge.producer)
    if p.message_size is None:
        raise StackError("E-NOSIZE", f"node '{p.name}' has no message_size")
    return p.required_freq_hz * p.message_size


def aggregate_bandwidth(graph: ComputationGraph) -> BandwidthReport:
    """Per-edge, per-node-output, and per-stage-cut byte rates.

    Stage cut k separates nodes of depth < k from depth >= k; cut 1 is the
    sensing boundary (all edges leaving the sources).
    """
    per_edge = {}
    for e in graph.edges:
        per_edge[(e.producer, e.consumer, e.port)] = edge_bandwidth(graph, e)
    node_out = {}
    for n in graph.nodes:
        if n.message_size is None:
            raise StackError("E-NOSIZE", f"node '{n.name}' has no message_size")
        node_out[n.id] = n.required_freq_hz * n.message_size
    depth = graph.depth()
    max_depth = max(depth.values(), default=0)
    cuts = []
    for k in range(1, max_depth + 1):
        total = 0.0
        for e in graph.edges:
            if depth[e.producer] < k <= depth[e.consumer]:
                total += per_edge[(e.producer, e.consumer, e.port)]
        cuts.append(total)
    return BandwidthReport(per_edge, node_out, cuts)


def buffer_sizing(graph: ComputationGraph) -> ComputationGraph:
    """Size each edge buffer for rate mismatch plus one slot of phase slack.

    capacity = ceil(max(rates) / min(rates)) + 1, so equal-rate edges get
    double buffering and a 100 Hz producer feeding a 10 Hz consumer gets 11.
    """
    sized = []
    for e in graph.edges:
        pr = graph.node(e.producer).required_freq_hz
        cr = graph.node(e.consumer).required_freq_hz
        ratio = max(pr, cr) / min(pr, cr)
        sized.append(replace(e, buffer_capacity=math.ceil(ratio) + 1))
    return ComputationGraph(graph.nodes, tuple(sized))


def total_buffer_bytes(graph: ComputationGraph) -> int:
    """Total buffer footprint of a sized graph; unknown sizes count as 0."""
    total = 0
    for e in graph.edges:
        size = graph.node(e.producer).message_size
        if e.buffer_capacity is not None and size is not None:
            total += e.buffer_capacity * size
    return total


def critical_paths(graph: ComputationGraph, bound: int = PATH_ENUMERATION_BOUND) -> list[list[int]]:
    """All simple source->sink paths, longest (by hop count) first.

    Ties break on the node-name sequence, so the ordering is total and
    deterministic. E-PATHBOUND once more than `bound` paths exist.
    """
    sinks = graph.sink_ids
    paths: list[list[int]] = []

    def walk(node_id: int, acc: list[int]):
        acc.append(node_id)
        if node_id in sinks and len(acc) > 1:
            if len(paths) >= bound:
                raise StackError("E-PATHBOUND", f"more than {bound} source->sink paths")
            paths.append(list(acc))
        for e in sorted(graph.out_edges(node_id), key=lambda e: e.consumer):
            walk(e.consumer, acc)
        acc.pop()

    for src in sorted(graph.source_ids):
        walk(src, [])
    paths.sort(key=lambda p: (-len(p), [graph.node(i).name for i in p]))
    return paths


# ---------------------------------------------------------------------------
# Export


def graph_to_dot(graph: ComputationGraph) -> str:
    lines = ["digraph computation {", "  rankdir=LR;"]
    for n in graph.nodes:
        shape = "ellipse" if n.kind == "source" else "box"
        lines.append(f'  n{n.id} [label="{n.name}\\n{n.required_freq_hz:g} Hz" shape={shape}];')
    for e in graph.edges:
        attrs = f' [label="p{e.port}"]'
        lines.append(f"  n{e.producer} -> n{e.consumer}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
