"""Static mapping and admission control.

The mapper is HEFT (heterogeneous earliest finish time) list scheduling:

1. Upward ranks: rank(n) = w(n) + max over successors s of (c(n, s) + rank(s)),
   where w(n) is the mean over compatible device classes of the best
   variant latency, and c(n, s) is the producer's message size divided by
   the mean link bandwidth of the platform.
2. Tasks are visited in decreasing rank (ties: node id) and placed on the
   (device, variant) pair minimizing earliest finish time, with
   insertion-based slot search over each device's core lanes.

Deviations from textbook HEFT required by this domain:

* Only operator nodes are tasks. Sources are sensors: they occupy no
  compute and their output is available at t = 0 at zero transfer cost.
* Devices have core_count parallel lanes; a task occupies one lane.
* require_map restricts a node's candidate devices to the named class
  (empty candidate set raises E-UNSCHEDULABLE, never a silent override).
* hint only breaks ties: among candidates whose EFT is within 5 percent
  of the best, hinted-class candidates win. Removing hints therefore
  never moves the makespan estimate by more than that window.

Admission layers utilization, latency, frequency, variance, and energy
checks on top of a HEFT mapping; infeasibility is a verdict carrying
recomputable margins, not an error. The one-shot HEFT makespan estimates
a single wave; sustained-rate feasibility is what the utilization and
frequency checks cover (queueing below utilization 1 is ignored here and
validated against the simulator).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dsl import ContractStmt
from .errors import StackError
from .graph import ComputationGraph, critical_paths
from .substrate import Device, SubstrateModel, VariantProfile, allowed_classes, assigned_profile, query, validate_coverage

HINT_TIE_WINDOW = 0.05


@dataclass(frozen=True)
class Mapping:
    assignment: dict[int, tuple[str, str]]  # node id -> (device id, variant)
    makespan_estimate_ms: float
    utilization: dict[str, float]  # device id -> fraction (may exceed 1)

    def to_json_dict(self, graph: ComputationGraph) -> dict:
        return {
            "assignment": [
                {"node": graph.node(nid).name, "device": dev, "variant": var}
                for nid, (dev, var) in sorted(self.assignment.items())
            ],
            "makespan_ms": self.makespan_estimate_ms,
            "utilization": [{"device": d, "value": u} for d, u in sorted(self.utilization.items())],
        }


@dataclass(frozen=True)
class Violation:
    kind: str  # UTILIZATION | LATENCY | FREQUENCY | VARIANCE | ENERGY | COVERAGE
    detail: str
    margin: float  # amount by which the constraint is exceeded


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: str  # "feasible" | "infeasible"
    violations: tuple[Violation, ...]
    mapping: Mapping | None  # present iff feasible

    def to_json_dict(self, graph: ComputationGraph) -> dict:
        doc = {
            "verdict": self.verdict,
            "violations": [
                {"kind": v.kind, "detail": v.detail, "margin": v.margin} for v in self.violations
            ],
        }
        if self.mapping is not None:
            doc["mapping"] = self.mapping.to_json_dict(graph)
        return doc


@dataclass(frozen=True)
class SubContract:
    node_id: int
    latency_budget_ms: float
    derived_from: str


def candidates(node, model: SubstrateModel) -> list[tuple[Device, VariantProfile]]:
    """(device, variant) pairs a node may run on, honoring require_map."""
    classes = allowed_classes(node, model)
    out = []
    for dev in sorted(model.devices, key=lambda d: d.id):
        if dev.device_class in classes:
            for prof in query(model, node.name, dev.device_class):
                out.append((dev, prof))
    return out


def upward_ranks(graph: ComputationGraph, model: SubstrateModel) -> dict[int, float]:
    mean_bw = model.mean_link_bandwidth()
    ranks: dict[int, float] = {}
    ops = {n.id: n for n in graph.operator_nodes()}

    def mean_cost(node) -> float:
        classes = allowed_classes(node, model)
        if not classes:
            raise StackError("E-UNSCHEDULABLE", f"no compatible device class for '{node.name}'")
        best = [query(model, node.name, c)[0].latency_mean_ms for c in classes]
        return sum(best) / len(best)

    for nid in reversed(graph.topo_order()):
        if nid not in ops:
            continue
        node = ops[nid]
        succ_part = 0.0
        for e in graph.out_edges(nid):
            if e.consumer not in ops:
                continue
            comm = (node.message_size or 0) / mean_bw * 1000.0
            succ_part = max(succ_part, comm + ranks[e.consumer])
        ranks[nid] = mean_cost(node) + succ_part
    return ranks


class _LaneSchedule:
    """Busy intervals per (device, lane) supporting insertion-based search."""

    def __init__(self, model: SubstrateModel):
        self.lanes = {d.id: [[] for _ in range(d.core_count)] for d in model.devices}

    def earliest_fit(self, device_id: str, ready: float, duration: float) -> tuple[float, int]:
        best_start, best_lane = None, None
        for idx, lane in enumerate(self.lanes[device_id]):
            start = ready
            for s, e in lane:
                if start + duration <= s:
                    break
                start = max(start, e)
            if best_start is None or start < best_start:
                best_start, best_lane = start, idx
        return best_start, best_lane

    def occupy(self, device_id: str, lane: int, start: float, end: float):
        intervals = self.lanes[device_id][lane]
        intervals.append((start, end))
        intervals.sort()


def heft_schedule(graph: ComputationGraph, model: SubstrateModel) -> Mapping:
    """Map every operator node to a (device, variant); E-UNSCHEDULABLE if
    some node has an empty candidate set."""
    ranks = upward_ranks(graph, model)
    order = sorted(ranks, key=lambda nid: (-ranks[nid], nid))

    lanes = _LaneSchedule(model)
    finish: dict[int, float] = {}
    placed_device: dict[int, str] = {}
    assignment: dict[int, tuple[str, str]] = {}

    for nid in order:
        node = graph.node(nid)
        cands = candidates(node, model)
        if not cands:
            raise StackError("E-UNSCHEDULABLE", f"no (device, variant) candidate for '{node.name}'")
        evaluated = []  # (eft, device id, variant, device, profile, start, lane)
        for dev, prof in cands:
            ready = 0.0
            for e in graph.in_edges(nid):
                pred = graph.node(e.producer)
                if pred.kind == "source":
                    continue  # sensor data is already in shared memory
                comm = model.comm_cost_ms(placed_device[pred.id], dev.id, pred.message_size)
                ready = max(ready, finish[pred.id] + comm)
            start, lane = lanes.earliest_fit(dev.id, ready, prof.latency_mean_ms)
            evaluated.append((start + prof.latency_mean_ms, dev.id, prof.variant, dev, prof, start, lane))
        best_eft = min(t[0] for t in evaluated)
        pool = [t for t in evaluated if t[0] <= best_eft * (1.0 + HINT_TIE_WINDOW)]
        if node.mapping_constraint is not None and node.mapping_constraint[1] == "hint":
            hinted = [t for t in pool if t[3].device_class == node.mapping_constraint[0]]
            if hinted:
                pool = hinted
        chosen = min(pool, key=lambda t: (t[0], t[1], t[2]))
        eft, dev_id, variant, dev, prof, start, lane = chosen
        lanes.occupy(dev_id, lane, start, eft)
        finish[nid] = eft
        placed_device[nid] = dev_id
        assignment[nid] = (dev_id, variant)

    makespan = max(finish.values(), default=0.0)
    util = utilization_check(assignment, graph, model)
    return Mapping(assignment, makespan, util)


def utilization_check(
    assignment: dict[int, tuple[str, str]], graph: ComputationGraph, model: SubstrateModel
) -> dict[str, float]:
    """Sustained-rate demand per device: sum of latency x rate over cores."""
    util = {d.id: 0.0 for d in model.devices}
    for nid, (dev_id, _) in assignment.items():
        node = graph.node(nid)
        prof = assigned_profile(model, node, assignment)
        util[dev_id] += (prof.latency_mean_ms / 1000.0) * node.required_freq_hz / model.device(dev_id).core_count
    return util


def assigned_latency_ms(graph: ComputationGraph, model: SubstrateModel, assignment, node_id: int) -> float:
    return assigned_profile(model, graph.node(node_id), assignment).latency_mean_ms


def path_metrics(
    graph: ComputationGraph, model: SubstrateModel, assignment, path: list[int]
) -> tuple[float, float]:
    """(latency, variability) of one source->sink path under an assignment.

    Latency sums operator execution means and cross-device transfer costs;
    variability is the root sum of squares of the same operators' stds
    (stage latencies treated as independent).
    """
    latency = 0.0
    var = 0.0
    for i, nid in enumerate(path):
        node = graph.node(nid)
        if node.kind == "source":
            continue
        prof = assigned_profile(model, node, assignment)
        latency += prof.latency_mean_ms
        var += prof.latency_std_ms**2
        if i > 0:
            pred = graph.node(path[i - 1])
            if pred.kind != "source":
                latency += model.comm_cost_ms(assignment[pred.id][0], assignment[nid][0], pred.message_size)
    return latency, math.sqrt(var)


def analytic_latency(
    graph: ComputationGraph, model: SubstrateModel, assignment
) -> tuple[float, float, list[int]]:
    """Worst path latency, its variability, and the path itself."""
    best = (0.0, 0.0, [])
    for path in critical_paths(graph):
        lat, var = path_metrics(graph, model, assignment, path)
        if lat > best[0]:
            best = (lat, var, path)
    return best


def worst_path_latency(graph: ComputationGraph, model: SubstrateModel, assignment) -> tuple[float, float]:
    """`analytic_latency(...)[:2]`, by one forward pass over `graph.path_plan`
    instead of enumerating the paths, so it has no path bound.

    Each reached node keeps its best prefix: higher latency, then more
    hops, then the smaller name sequence, then the smaller id sequence,
    the order in which `analytic_latency` meets the paths. A candidate via
    an in-edge is `(prefix + mean) + transfer`, the additions of
    `path_metrics` in its order, so every path's float is the
    enumeration's. Float addition is monotone, so the best prefix also
    makes the worst latency L; only equal prefixes need the tie order.

    A dropped prefix can still end in a tie at L when rounding later makes
    two different sums one float. Every running sum lies in [0, L], so
    each of the at most 2 x |nodes| later additions closes the gap by at
    most ulp(L). The pass records the smallest gap by which a prefix lost;
    only when it is within that bound does `_tied_variability` rerun the
    pass keeping every prefix within the bound. A negative or NaN mean or
    transfer breaks that argument, so such inputs, which no loaded model
    holds, are enumerated instead.
    """
    nodes, plan = graph.nodes, graph.path_plan
    profile, device, comm = model.profile, model.device, model.comm_cost_ms
    n = len(nodes)
    lat, var, hops, pred = [0.0] * n, [0.0] * n, [0] * n, [-1] * n  # best prefix per node
    dev: list[str | None] = [None] * n
    gap = math.inf  # smallest margin by which a dropped prefix lost on latency
    worst = -1  # the sink ending the worst path so far

    def precedes(u: int, w: int) -> bool:
        """Whether the best prefix ending at u comes before the one at w (-1: empty)."""
        hu, hw = hops[u] if u >= 0 else 0, hops[w] if w >= 0 else 0
        if hu != hw:
            return hu > hw
        pu, pw = [], []
        while u >= 0:
            pu.append(u)
            u = pred[u]
        while w >= 0:
            pw.append(w)
            w = pred[w]
        pu.reverse()
        pw.reverse()
        nu, nw = [nodes[i].name for i in pu], [nodes[i].name for i in pw]
        return nu < nw if nu != nw else pu < pw

    for nid, name, is_source, is_sink, ins in plan:
        if is_source:
            best, via, mean, sq_std, d = 0.0, -1, 0.0, 0.0, None  # the path that starts here
        else:
            d, variant = assignment[nid]
            prof = profile(name, variant, device(d).device_class)
            mean, sq_std = prof.latency_mean_ms, prof.latency_std_ms**2
            if not mean >= 0.0:
                return analytic_latency(graph, model, assignment)[:2]
            dev[nid], best, via = d, None, -1
        for u, u_is_source, size in ins:
            if is_source:
                cand = lat[u]  # path_metrics adds nothing for a source
            else:
                cand = lat[u] + mean
                if not u_is_source:
                    transfer = comm(dev[u], d, size)
                    if not transfer >= 0.0:
                        return analytic_latency(graph, model, assignment)[:2]
                    cand += transfer
            if best is None or cand > best:
                if best is not None and cand - best < gap:
                    gap = cand - best
                best, via = cand, u
            elif cand < best:
                if best - cand < gap:
                    gap = best - cand
            elif u != via and precedes(u, via):
                via = u
        lat[nid], pred[nid] = best, via
        if via < 0:
            hops[nid] = 1
        else:
            hops[nid] = hops[via] + 1
            var[nid] = var[via] if is_source else var[via] + sq_std
        if is_sink and hops[nid] > 1:
            if worst < 0 or best > lat[worst] or (best == lat[worst] and precedes(nid, worst)):
                worst = nid

    if worst < 0 or not lat[worst] > 0.0:
        return 0.0, 0.0  # analytic_latency's result when no path beats 0.0
    latency = lat[worst]
    bound = 2 * n * math.ulp(latency)
    if gap <= bound:
        return latency, math.sqrt(_tied_variability(graph, model, assignment, lat, latency, bound))
    return latency, math.sqrt(var[worst])


def _tied_variability(graph, model, assignment, best: list[float], latency: float, bound: float) -> float:
    """The squared-std sum of the path `analytic_latency` picks, by a pass
    that keeps, per node and prefix latency within `bound` of the node's
    `best`, the first prefix in the tie order. Equal latencies stay equal
    through the same additions, so dropping the later of two is exact."""
    names = [n.name for n in graph.nodes]

    def order(entry):  # (hops, ids, squared-std sum) -> its place in the tie order
        return -entry[0], [names[i] for i in entry[1]], entry[1]

    kept: dict[int, dict[float, tuple[int, tuple[int, ...], float]]] = {}
    chosen = None
    for nid, _name, is_source, is_sink, ins in graph.path_plan:
        if is_source:
            here = {0.0: (1, (nid,), 0.0)}
        else:
            here = {}
            prof = assigned_profile(model, graph.node(nid), assignment)
            mean, sq_std, d = prof.latency_mean_ms, prof.latency_std_ms**2, assignment[nid][0]
        for u, u_is_source, size in ins:
            for prefix, (h, ids, sq) in kept[u].items():
                if is_source:
                    cand = prefix
                else:
                    cand = prefix + mean
                    if not u_is_source:
                        cand += model.comm_cost_ms(assignment[u][0], d, size)
                    sq = sq + sq_std
                if best[nid] - cand > bound:
                    continue
                entry = (h + 1, ids + (nid,), sq)
                old = here.get(cand)
                if old is None or order(entry) < order(old):
                    here[cand] = entry
        kept[nid] = here
        entry = here.get(latency) if is_sink else None
        if entry is not None and (chosen is None or order(entry) < order(chosen)):
            chosen = entry
    return chosen[2]


def energy_rate_w(graph: ComputationGraph, model: SubstrateModel, assignment) -> float:
    """Platform power: per-invocation energy at the required rates plus the
    idle power of every device in the model."""
    rate = sum(d.idle_power_w for d in model.devices)
    for nid in assignment:
        node = graph.node(nid)
        prof = assigned_profile(model, node, assignment)
        rate += node.required_freq_hz * prof.energy_per_invocation_mj / 1000.0
    return rate


def admit(
    graph: ComputationGraph, model: SubstrateModel, contracts: list[ContractStmt] | None = None
) -> FeasibilityReport:
    """Full admission pipeline; feasible iff every check passes."""
    contracts = list(contracts or [])
    violations: list[Violation] = []

    coverage = [d for d in validate_coverage(model, graph) if d.severity == "error"]
    if coverage:
        violations = [Violation("COVERAGE", d.message, 0.0) for d in coverage]
        return FeasibilityReport("infeasible", tuple(violations), None)

    try:
        mapping = heft_schedule(graph, model)
    except StackError as exc:
        return FeasibilityReport("infeasible", (Violation("COVERAGE", str(exc), 0.0),), None)

    for dev_id, util in sorted(mapping.utilization.items()):
        if util > 1.0:
            violations.append(
                Violation("UTILIZATION", f"device {dev_id} demand {util:.3f} exceeds capacity", util - 1.0)
            )

    for node in graph.operator_nodes():
        lat = assigned_latency_ms(graph, model, mapping.assignment, node.id)
        if lat > node.period_ms:
            violations.append(
                Violation(
                    "FREQUENCY",
                    f"'{node.name}' needs {node.required_freq_hz:g} Hz but its assigned latency is {lat:g} ms",
                    lat - node.period_ms,
                )
            )

    e2e_latency, e2e_var, _ = analytic_latency(graph, model, mapping.assignment)
    for c in contracts:
        if c.scope == "end_to_end":
            if c.latency_bound_ms is not None and e2e_latency > c.latency_bound_ms:
                violations.append(
                    Violation(
                        "LATENCY",
                        f"end-to-end latency {e2e_latency:g} ms exceeds bound {c.latency_bound_ms:g} ms",
                        e2e_latency - c.latency_bound_ms,
                    )
                )
            if c.max_latency_std_ms is not None and e2e_var > c.max_latency_std_ms:
                violations.append(
                    Violation(
                        "VARIANCE",
                        f"end-to-end latency std {e2e_var:g} ms exceeds bound {c.max_latency_std_ms:g} ms",
                        e2e_var - c.max_latency_std_ms,
                    )
                )
            if c.min_frequency_hz is not None:
                sink_rate = min(
                    (graph.node(s).required_freq_hz for s in graph.sink_ids), default=0.0
                )
                if sink_rate < c.min_frequency_hz:
                    violations.append(
                        Violation(
                            "FREQUENCY",
                            f"sink rate {sink_rate:g} Hz is below the contract {c.min_frequency_hz:g} Hz",
                            c.min_frequency_hz - sink_rate,
                        )
                    )
        else:
            node = graph.name_index.get(c.scope)
            if node is None or node.id not in mapping.assignment:
                continue
            prof = assigned_profile(model, node, mapping.assignment)
            lat = prof.latency_mean_ms
            if c.latency_bound_ms is not None and lat > c.latency_bound_ms:
                violations.append(
                    Violation(
                        "LATENCY",
                        f"'{node.name}' latency {lat:g} ms exceeds bound {c.latency_bound_ms:g} ms",
                        lat - c.latency_bound_ms,
                    )
                )
            if c.max_latency_std_ms is not None and prof.latency_std_ms > c.max_latency_std_ms:
                violations.append(
                    Violation(
                        "VARIANCE",
                        f"'{node.name}' latency std {prof.latency_std_ms:g} ms exceeds bound "
                        f"{c.max_latency_std_ms:g} ms",
                        prof.latency_std_ms - c.max_latency_std_ms,
                    )
                )
            if c.min_frequency_hz is not None and lat > 1000.0 / c.min_frequency_hz:
                violations.append(
                    Violation(
                        "FREQUENCY",
                        f"'{node.name}' cannot sustain {c.min_frequency_hz:g} Hz with latency {lat:g} ms",
                        lat - 1000.0 / c.min_frequency_hz,
                    )
                )

    for c in contracts:
        if c.scope == "end_to_end" and c.energy_bound_w is not None:
            rate = energy_rate_w(graph, model, mapping.assignment)
            if rate > c.energy_bound_w:
                violations.append(
                    Violation(
                        "ENERGY",
                        f"platform draws {rate:g} W, contract allows {c.energy_bound_w:g} W",
                        rate - c.energy_bound_w,
                    )
                )

    if violations:
        return FeasibilityReport("infeasible", tuple(violations), None)
    return FeasibilityReport("feasible", (), mapping)


def decompose_contract(
    latency_bound_ms: float,
    path: list[int],
    graph: ComputationGraph,
    model: SubstrateModel,
    assignment: dict[int, tuple[str, str]],
    derived_from: str = "end_to_end",
) -> list[SubContract]:
    """Split an end-to-end latency bound over a path's operator nodes.

    Budgets are proportional to the mapped latency means, rounded at 1 us
    with largest-remainder correction so they sum to the bound exactly.
    E-EMPTYPATH if the path has no operator node.
    """
    ops = [nid for nid in path if graph.node(nid).kind == "operator"]
    if not ops:
        raise StackError("E-EMPTYPATH", "path has no operator nodes to budget")
    weights = [assigned_latency_ms(graph, model, assignment, nid) for nid in ops]
    total_weight = sum(weights)
    bound_us = round(latency_bound_ms * 1000.0)
    exact = [bound_us * w / total_weight for w in weights]
    base = [math.floor(x) for x in exact]
    remainder = bound_us - sum(base)
    by_frac = sorted(range(len(ops)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in by_frac[:remainder]:
        base[i] += 1
    return [
        SubContract(nid, budget_us / 1000.0, derived_from) for nid, budget_us in zip(ops, base)
    ]


def report_to_json(report: FeasibilityReport, graph: ComputationGraph) -> str:
    return json.dumps(report.to_json_dict(graph), indent=2, sort_keys=True)
