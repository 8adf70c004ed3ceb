"""Discrete-event simulation of a mapped computation graph.

Execution model
---------------
Every node is released periodically at its required frequency with phase 0
(all first activations at t = 0, the conservative simultaneous release).
An activation reads the latest sample on each input port (sample-and-hold;
a port that has never produced is read as absent), then queues one job on
the node's assigned device. Devices run core_count FIFO lanes without
preemption: the job takes the lane that frees up earliest, at enqueue
time. Service time comes from the assigned variant profile, either the
mean (deterministic mode) or a truncated normal sample from a per-node
seeded stream (stochastic mode), times any disturbance factor active at
the activation instant.

A job's deadline is its activation plus one period. Jobs that have not
finished by their deadline log a miss at the deadline instant (so stalls
longer than the run still show up) and their output is still delivered
when they do finish, replacing its producer's latest sample.

Each producer holds just its latest sample, which every consumer reads;
edge buffer capacities (graph.buffer_sizing) are a memory-footprint
analysis and never change a trace.

Sink nodes additionally emit one command per period, at the deadline,
no matter what: the emission carries the freshest inputs with a per-port
staleness reading (flagged stale past 2 producer periods). This is what
keeps actuation cadence independent of upstream stalls.

Samples carry provenance: an output's origin is the oldest origin among
the inputs its producing job consumed. End-to-end latency is measured at
sink job completion as finish time minus that origin, i.e. the age of the
oldest sensor data that influenced the command.

Adaptation
----------
When enabled, per-node latency budgets (from contract decomposition, or
per-operator latency contracts directly) drive a windowed detector invoked
at every completion: the last W response times are kept per node, and once
their p95 exceeds budget x (1 + theta) for k consecutive completions the
node is moved - first to the fastest variant on its current device, else
to the compatible device with the lowest observed busy utilization
(require_map is honored; with nowhere to go the deviation is logged
unresolved). Every decision starts a cooldown of C periods during which
the node cannot change again.

Metrics are a pure function of the trace: simulate() computes them by
replaying its own trace, and replay() reproduces them from a stored one.

Trace files
-----------
trace.jsonl holds one JSON object per event, byte-equal to
json.dumps(event, sort_keys=True). trace_to_jsonl writes the six event
shapes the simulator logs (activate, start, finish, miss, source emit and
sink emit) from fixed line templates and hands any other shape or value
(remap, variant_switch, NaN or infinity, numbers that are not exactly int
or float, non-string port keys, missing or extra keys) to json.dumps
itself. trace_from_jsonl parses each line on its own, so a line holding
anything but one event object is an error that names it.

Both the run and the parse build hundreds of thousands of event tuples and
detail dicts that form no reference cycles, yet CPython's cyclic collector
would rescan all of them again and again as the trace grows. So the
collector is paused while they are built; reference counting still frees
everything that is dropped, and a cycle made meanwhile is collected once
the collector runs again.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

import numpy as np

from .dsl import ContractStmt
from .errors import StackError
from .graph import ComputationGraph
from .scheduler import Mapping, analytic_latency, decompose_contract
from .substrate import SubstrateModel, allowed_classes, assigned_profile, finite_number, query

# event priorities at equal timestamps: finishes publish and free lanes
# first, sensor data lands before consumers activate, misses are logged
# before the deadline emission goes out
_FINISH, _START, _SOURCE_EMIT, _ACTIVATE, _DEADLINE, _SINK_EMIT = range(6)

STALE_PERIODS = 2.0  # a sample older than this many producer periods is stale


@dataclass(frozen=True)
class AdaptationParams:
    window: int = 20  # W completions per evaluation window
    threshold: float = 0.10  # theta, tolerated fraction over budget
    confirm: int = 2  # k consecutive breaches before acting
    cooldown_periods: int = 50  # C periods between changes of one node


def _check_duration(duration_s: float):
    """A run or trace window must be finite and positive: an infinite one
    never ends, and metrics divide by it."""
    if not (finite_number(duration_s) and duration_s > 0):
        raise StackError("E-SCHEMA", f"duration must be a finite number of seconds > 0, got {duration_s}")


@dataclass(frozen=True)
class SimConfig:
    duration_s: float
    seed: int = 0
    mode: str = "deterministic"  # or "stochastic"
    adaptation: bool = False
    adaptation_params: AdaptationParams = field(default_factory=AdaptationParams)

    def __post_init__(self):
        _check_duration(self.duration_s)


@dataclass(frozen=True)
class Disturbance:
    operator: str
    factor: float  # multiplier on sampled service time
    t_start: float
    t_end: float


class TraceEvent(NamedTuple):
    t: float
    node: str
    kind: str  # activate | start | finish | miss | emit | remap | variant_switch
    detail: dict


@dataclass(frozen=True)
class SimTrace:
    duration_s: float
    events: tuple[TraceEvent, ...]


@dataclass(frozen=True)
class MetricsReport:
    duration_s: float
    per_node: dict[str, dict]
    per_device: dict[str, dict]
    end_to_end: dict
    contracts: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "per_node": self.per_node,
            "per_device": self.per_device,
            "end_to_end": self.end_to_end,
            "contracts": self.contracts,
        }

    def all_contracts_held(self) -> bool:
        return all(c["held"] for c in self.contracts)


def load_disturbances(path: str) -> list[Disturbance]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StackError("E-IO", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StackError("E-SCHEMA", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise StackError("E-SCHEMA", "disturbance file must be a JSON array", "/")
    out = []
    for i, row in enumerate(doc):
        if not isinstance(row, dict) or set(row) != {"op", "factor", "t0", "t1"}:
            raise StackError("E-SCHEMA", "disturbance rows need exactly op, factor, t0, t1", f"/{i}")
        if not isinstance(row["op"], str):
            raise StackError("E-SCHEMA", "op must be a string", f"/{i}/op")
        for key in ("factor", "t0", "t1"):
            if not finite_number(row[key]):
                raise StackError("E-SCHEMA", f"{key} must be a finite number", f"/{i}/{key}")
        out.append(Disturbance(row["op"], float(row["factor"]), float(row["t0"]), float(row["t1"])))
    return out


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile; None on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class _Sample:
    produced_t: float
    origin_t: float


@dataclass
class _Job:
    job_id: int
    node_id: int
    activation_t: float
    deadline_t: float
    service_s: float
    device_id: str
    lane: int
    origin_t: float | None
    energy_mj: float


class _Adaptation:
    """Windowed-p95 deviation detector and remapping policy."""

    def __init__(self, graph, model, params: AdaptationParams, budgets: dict[int, float]):
        self.graph = graph
        self.model = model
        self.params = params
        self.budgets = budgets
        self.window: dict[int, deque] = {nid: deque(maxlen=params.window) for nid in budgets}
        self.consec: dict[int, int] = {nid: 0 for nid in budgets}
        self.cooldown_until: dict[int, float] = {nid: 0.0 for nid in budgets}

    def on_completion(self, sim: "_Simulator", nid: int, t: float, response_ms: float):
        if nid not in self.budgets:
            return
        win = self.window[nid]
        win.append(response_ms)
        if t < self.cooldown_until[nid] or len(win) < self.params.window:
            return
        budget = self.budgets[nid]
        p95 = percentile(list(win), 95.0)
        if p95 > budget * (1.0 + self.params.threshold):
            self.consec[nid] += 1
        else:
            self.consec[nid] = 0
            return
        if self.consec[nid] < self.params.confirm:
            return
        self._act(sim, nid, t, p95, budget)
        node = self.graph.node(nid)
        self.cooldown_until[nid] = t + self.params.cooldown_periods / node.required_freq_hz
        win.clear()
        self.consec[nid] = 0

    def _act(self, sim: "_Simulator", nid: int, t: float, p95: float, budget: float):
        node = self.graph.node(nid)
        dev_id, variant = sim.assignment[nid]
        dev = self.model.device(dev_id)
        base = {"p95_ms": p95, "budget_ms": budget}
        profiles = query(self.model, node.name, dev.device_class)
        if profiles and profiles[0].variant != variant:
            sim.assignment[nid] = (dev_id, profiles[0].variant)
            sim.log(t, node.name, "variant_switch", dict(base, device=dev_id, from_variant=variant, to_variant=profiles[0].variant))
            return
        classes = allowed_classes(node, self.model)
        targets = [d for d in self.model.devices if d.device_class in classes]
        target = min(targets, key=lambda d: (sim.busy_utilization(d.id, t), d.id))
        if target.id == dev_id:
            sim.log(t, node.name, "remap", dict(base, unresolved=True, device=dev_id))
            return
        new_variant = query(self.model, node.name, target.device_class)[0].variant
        sim.assignment[nid] = (target.id, new_variant)
        sim.log(
            t,
            node.name,
            "remap",
            dict(base, from_device=dev_id, to_device=target.id, from_variant=variant, to_variant=new_variant),
        )


class _Simulator:
    def __init__(
        self,
        graph: ComputationGraph,
        model: SubstrateModel,
        mapping: Mapping,
        contracts: list[ContractStmt],
        config: SimConfig,
        disturbances: list[Disturbance],
    ):
        self.graph = graph
        self.model = model
        self.config = config
        self.contracts = contracts
        self.assignment = dict(mapping.assignment)  # mutable under adaptation
        for n in graph.operator_nodes():
            if n.id not in self.assignment:
                raise StackError("E-NOMAPPING", f"operator '{n.name}' has no assignment")
        for d in disturbances:
            if not (d.factor > 0):
                raise StackError("E-SCHEMA", f"disturbance factor must be positive, got {d.factor}")
            if not (0.0 <= d.t_start < d.t_end <= config.duration_s):
                raise StackError(
                    "E-SCHEMA",
                    f"disturbance interval [{d.t_start}, {d.t_end}) must lie within the {config.duration_s} s run",
                )
        self.disturbances = disturbances

        self.latest: dict[int, _Sample] = {}  # producer id -> its newest output
        self.lane_free: dict[str, list[float]] = {d.id: [0.0] * d.core_count for d in model.devices}
        self.busy_done_s: dict[str, float] = {d.id: 0.0 for d in model.devices}
        self.rng: dict[int, random.Random] = {
            n.id: random.Random(f"{config.seed}/{n.name}") for n in graph.operator_nodes()
        }
        self.events: list[TraceEvent] = []
        # pending work only: (t, priority, tie key, payload), where the tie
        # key is the node id of a release or sink emit and the job id of a
        # job event; the two kinds never share a priority
        self.heap: list = []
        self.next_job_id = 0

        budgets: dict[int, float] = {}
        if config.adaptation:
            for c in contracts:
                if c.scope == "end_to_end" and c.latency_bound_ms is not None:
                    _, _, path = analytic_latency(graph, model, self.assignment)
                    if path:
                        for sc in decompose_contract(c.latency_bound_ms, path, graph, model, self.assignment):
                            budgets.setdefault(sc.node_id, sc.latency_budget_ms)
            for c in contracts:
                if c.scope != "end_to_end" and c.latency_bound_ms is not None and c.scope in graph.name_index:
                    budgets[graph.by_name(c.scope).id] = c.latency_bound_ms
        self.adaptation = _Adaptation(graph, model, config.adaptation_params, budgets) if config.adaptation else None

    # -- plumbing --------------------------------------------------------

    def push(self, t: float, prio: int, key: int, payload):
        heapq.heappush(self.heap, (t, prio, key, payload))

    def log(self, t: float, node: str, kind: str, detail: dict):
        self.events.append(TraceEvent(t, node, kind, detail))

    def busy_utilization(self, device_id: str, t: float) -> float:
        if t <= 0.0:
            return 0.0
        dev = self.model.device(device_id)
        return self.busy_done_s[device_id] / (t * dev.core_count)

    def disturbance_factor(self, name: str, t: float) -> float:
        f = 1.0
        for d in self.disturbances:
            if d.operator == name and d.t_start <= t < d.t_end:
                f *= d.factor
        return f

    def draw_service(self, node, t: float) -> tuple[float, float]:
        """(service seconds, energy mJ) for one invocation released at t."""
        prof = assigned_profile(self.model, node, self.assignment)
        if self.config.mode == "stochastic":
            drawn = self.rng[node.id].gauss(prof.latency_mean_ms, prof.latency_std_ms)
            lat_ms = max(0.1 * prof.latency_mean_ms, drawn)
        else:
            lat_ms = prof.latency_mean_ms
        return lat_ms * self.disturbance_factor(node.name, t) / 1000.0, prof.energy_per_invocation_mj

    def read_inputs(self, nid: int, t: float):
        """Latest sample per port: (staleness map, stale flags, oldest origin)."""
        staleness: dict[str, float | None] = {}
        flags: dict[str, bool] = {}
        origin: float | None = None
        for e in sorted(self.graph.in_edges(nid), key=lambda e: e.port):
            sample = self.latest.get(e.producer)
            key = str(e.port)
            if sample is None:
                staleness[key] = None
                flags[key] = False
                continue
            age_s = t - sample.produced_t
            staleness[key] = age_s * 1000.0
            producer_period = 1.0 / self.graph.node(e.producer).required_freq_hz
            flags[key] = age_s > STALE_PERIODS * producer_period
            origin = sample.origin_t if origin is None else min(origin, sample.origin_t)
        return staleness, flags, origin

    # -- event handlers ----------------------------------------------------

    def release(self, node, k: int):
        """Queue release k of a node if it falls inside the run. The node id
        is the tie key, so equal-time releases pop in node-id order."""
        t = k / node.required_freq_hz
        if t < self.config.duration_s - 1e-9:
            self.push(t, _SOURCE_EMIT if node.kind == "source" else _ACTIVATE, node.id, k)

    def run(self) -> SimTrace:
        for n in self.graph.nodes:
            self.release(n, 0)
        handlers = (  # indexed by event priority
            self._on_job_finish,
            self._on_job_start,
            self._on_source_emit,
            self._on_activate,
            self._on_deadline,
            self._on_sink_emit,
        )
        end = self.config.duration_s + 1e-9
        while self.heap:
            t, prio, key, payload = heapq.heappop(self.heap)
            if t > end:
                break
            handlers[prio](t, key, payload)
        return SimTrace(self.config.duration_s, tuple(self.events))

    def _on_source_emit(self, t: float, nid: int, k: int):
        node = self.graph.node(nid)
        self.release(node, k + 1)
        self.latest[nid] = _Sample(t, t)
        self.log(t, node.name, "emit", {"produced_t": t})

    def _on_activate(self, t: float, nid: int, k: int):
        node = self.graph.node(nid)
        self.release(node, k + 1)
        staleness, _flags, origin = self.read_inputs(nid, t)
        service, energy = self.draw_service(node, t)
        dev_id, _variant = self.assignment[nid]
        lanes = self.lane_free[dev_id]
        lane = min(range(len(lanes)), key=lambda i: lanes[i])
        start = max(t, lanes[lane])
        finish = start + service
        lanes[lane] = finish
        period = 1.0 / node.required_freq_hz
        job = _Job(self.next_job_id, nid, t, t + period, service, dev_id, lane, origin, energy)
        self.next_job_id += 1
        self.log(t, node.name, "activate", {"job": job.job_id, "staleness_ms": staleness})
        end = self.config.duration_s + 1e-9
        if start <= end:
            self.push(start, _START, job.job_id, job)
        if finish <= end:
            self.push(finish, _FINISH, job.job_id, job)
        # a job misses iff it finishes after its deadline: lanes never
        # preempt, so the finish is known here, and a finish exactly at the
        # deadline pops first (_FINISH < _DEADLINE)
        if finish > job.deadline_t:
            self.push(job.deadline_t, _DEADLINE, job.job_id, job)
        if nid in self.graph.sink_ids and t + period <= end:
            self.push(t + period, _SINK_EMIT, nid, t)

    def _on_job_start(self, t: float, job_id: int, job: _Job):
        dev = self.model.device(job.device_id)
        self.log(
            t,
            self.graph.node(job.node_id).name,
            "start",
            {"job": job_id, "device": job.device_id, "lane": job.lane, "cores": dev.core_count},
        )

    def _on_job_finish(self, t: float, job_id: int, job: _Job):
        node = self.graph.node(job.node_id)
        self.busy_done_s[job.device_id] += job.service_s
        self.latest[job.node_id] = _Sample(t, job.origin_t if job.origin_t is not None else job.activation_t)
        response_ms = (t - job.activation_t) * 1000.0
        detail = {
            "job": job_id,
            "device": job.device_id,
            "lane": job.lane,
            "activation_t": job.activation_t,
            "service_ms": job.service_s * 1000.0,
            "response_ms": response_ms,
            "late": t > job.deadline_t + 1e-9,
            "energy_mj": job.energy_mj,
            "e2e_ms": None if job.origin_t is None else (t - job.origin_t) * 1000.0,
            "sink": job.node_id in self.graph.sink_ids,
        }
        self.log(t, node.name, "finish", detail)
        if self.adaptation is not None:
            self.adaptation.on_completion(self, job.node_id, t, response_ms)

    def _on_deadline(self, t: float, job_id: int, job: _Job):
        self.log(t, self.graph.node(job.node_id).name, "miss", {"job": job_id, "deadline_t": t})

    def _on_sink_emit(self, t: float, nid: int, activation_t: float):
        node = self.graph.node(nid)
        staleness, flags, origin = self.read_inputs(nid, t)
        self.log(
            t,
            node.name,
            "emit",
            {
                "activation_t": activation_t,
                "staleness_ms": staleness,
                "stale": flags,
                "age_ms": None if origin is None else (t - origin) * 1000.0,
            },
        )


def simulate(
    graph: ComputationGraph,
    model: SubstrateModel,
    mapping: Mapping,
    contracts: list[ContractStmt] | None = None,
    config: SimConfig | None = None,
    disturbances: list[Disturbance] | None = None,
) -> tuple[SimTrace, MetricsReport]:
    if config is None:
        config = SimConfig(duration_s=1.0)
    contracts = list(contracts or [])
    sim = _Simulator(graph, model, mapping, contracts, config, list(disturbances or []))
    with _collector_paused():
        trace = sim.run()
        return trace, replay(trace, contracts=contracts, model=model)


@contextmanager
def _collector_paused():
    """Pause automatic cyclic garbage collection, then restore its previous
    state. Safe around code that builds many objects but no reference
    cycles (see "Trace files" above)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Replay: metrics as a pure function of the trace


def replay(
    trace: SimTrace, contracts: list[ContractStmt] | None = None, model: SubstrateModel | None = None
) -> MetricsReport:
    """Recompute the metrics report from a trace.

    simulate() itself computes its report through this function, so replay
    equality is structural. Contracts (and the model, for energy bounds)
    are needed only to reproduce contract verdicts; a malformed trace
    raises E-MALFORMED.
    """
    contracts = list(contracts or [])
    duration = trace.duration_s
    _check_duration(duration)

    activates: dict[str, int] = {}
    responses: dict[str, list[float]] = {}
    misses: dict[str, int] = {}
    emits: dict[str, list[float]] = {}
    max_stale: dict[str, float] = {}
    sink_names: set[str] = set()
    e2e_samples: dict[str, list[float]] = {}
    stale_emits: dict[str, int] = {}
    busy_ms: dict[str, float] = {}
    cores: dict[str, int] = {}
    open_starts: dict[int, tuple[str, float]] = {}
    energy_mj_total = 0.0

    def _touch(name):
        activates.setdefault(name, 0)
        responses.setdefault(name, [])
        misses.setdefault(name, 0)
        emits.setdefault(name, [])

    last_t = 0.0
    try:
        for i, e in enumerate(trace.events):
            t, node, kind, d = e  # unpacked once: a NamedTuple's attributes are slower than locals
            # written so that NaN fails it, and a string or None raises
            if not (last_t - 1e-12 <= t < math.inf):
                raise StackError("E-MALFORMED", f"trace event {i + 1}: times must be finite, >= 0, nondecreasing")
            last_t = t
            _touch(node)
            if kind == "activate":
                activates[node] += 1
            elif kind == "start":
                open_starts[d["job"]] = (d["device"], t)
                cores[d["device"]] = d["cores"]
                busy_ms.setdefault(d["device"], 0.0)
                continue
            elif kind == "finish":
                response_ms, e2e_ms = d["response_ms"], d.get("e2e_ms")
                if not (_finite(response_ms) or finite_number(response_ms)):
                    _not_a_number(i, e, "response_ms", response_ms)
                if not (e2e_ms is None or _finite(e2e_ms) or finite_number(e2e_ms)):
                    _not_a_number(i, e, "e2e_ms", e2e_ms)
                responses[node].append(response_ms)
                energy_mj_total += d.get("energy_mj", 0.0)
                if d["job"] in open_starts:
                    dev, start_t = open_starts.pop(d["job"])
                    busy_ms[dev] = busy_ms.get(dev, 0.0) + (t - start_t) * 1000.0
                if d.get("sink") and e2e_ms is not None:
                    sink_names.add(node)
                    e2e_samples.setdefault(node, []).append(e2e_ms)
                continue
            elif kind == "miss":
                misses[node] += 1
                continue
            elif kind == "emit":
                emits[node].append(t)
                if "stale" not in d:
                    continue
                sink_names.add(node)
                stale_emits.setdefault(node, 0)
                if any(d["stale"].values()):
                    stale_emits[node] += 1
            else:
                continue
            # an activation or a sink emit: the largest staleness per node,
            # with _finite(v) written inline, as a call per value is ~2% of replay
            for v in d.get("staleness_ms", {}).values():
                if v is not None:
                    if not (type(v) is float and v - v == 0.0 or finite_number(v)):
                        _not_a_number(i, e, "staleness_ms", v)
                    top = max_stale.get(node)
                    if top is None:
                        max_stale[node] = v if v > 0.0 else 0.0  # max(0.0, v)
                    elif v > top:
                        max_stale[node] = v
    except (KeyError, TypeError, AttributeError) as exc:
        raise StackError("E-MALFORMED", f"trace event {i + 1} ({e.kind!r} at t={e.t!r}): bad field {exc}") from exc
    for name in activates:
        if not isinstance(name, str):
            raise StackError("E-MALFORMED", f"trace node names must be strings, got {name!r}")
    for dev, n in cores.items():
        if not (isinstance(dev, str) and type(n) is int and n >= 1):
            raise StackError("E-MALFORMED", f"start events need a string device and integer cores >= 1: {dev!r}, {n!r}")

    # jobs still running when the window closed count as busy to the end
    for job_id, (dev, start_t) in open_starts.items():
        busy_ms[dev] = busy_ms.get(dev, 0.0) + (duration - start_t) * 1000.0

    per_node = {}
    for name in sorted(activates):
        rs = responses[name]
        n_emits = len(emits[name])
        completions = len(rs)
        achieved = (n_emits if n_emits else completions) / duration
        per_node[name] = {
            "achieved_hz": achieved,
            "completions": completions,
            "emits": n_emits,
            "p50_ms": percentile(rs, 50.0),
            "p95_ms": percentile(rs, 95.0),
            "p99_ms": percentile(rs, 99.0),
            "misses": misses[name],
            "max_staleness_ms": max_stale.get(name),
        }

    per_device = {}
    for dev in sorted(busy_ms):
        per_device[dev] = {"busy_utilization": busy_ms[dev] / (duration * 1000.0 * cores[dev])}

    primary_sink = min(sink_names) if sink_names else None
    sink_emit_times = emits.get(primary_sink, []) if primary_sink else []
    inter = np.diff(sorted(sink_emit_times)) if len(sink_emit_times) > 1 else []
    e2e = e2e_samples.get(primary_sink, []) if primary_sink else []
    end_to_end = {
        "sink": primary_sink,
        "emits": len(sink_emit_times),
        "jitter_ms": float(np.std(inter) * 1000.0) if len(sink_emit_times) > 1 else None,
        "p50_ms": percentile(e2e, 50.0),
        "p95_ms": percentile(e2e, 95.0),
        "p99_ms": percentile(e2e, 99.0),
        "stale_emits": stale_emits.get(primary_sink, 0) if primary_sink else 0,
    }

    verdicts = []

    def _verdict(scope, metric, bound, observed, held):
        verdicts.append(
            {"scope": scope, "metric": metric, "bound": bound, "observed": observed, "held": bool(held)}
        )

    for c in contracts:
        if c.scope == "end_to_end":
            if c.latency_bound_ms is not None:
                obs = end_to_end["p95_ms"]
                _verdict("end_to_end", "latency_p95_ms", c.latency_bound_ms, obs, obs is not None and obs <= c.latency_bound_ms)
            if c.min_frequency_hz is not None:
                obs = len(sink_emit_times) / duration
                _verdict("end_to_end", "frequency_hz", c.min_frequency_hz, obs, obs >= c.min_frequency_hz - 1.0 / duration)
            if c.max_latency_std_ms is not None:
                obs = float(np.std(e2e)) if e2e else None
                _verdict("end_to_end", "latency_std_ms", c.max_latency_std_ms, obs, obs is not None and obs <= c.max_latency_std_ms)
            if c.energy_bound_w is not None and model is not None:
                obs = energy_mj_total / 1000.0 / duration + sum(d.idle_power_w for d in model.devices)
                _verdict("end_to_end", "energy_w", c.energy_bound_w, obs, obs <= c.energy_bound_w)
        else:
            rs = responses.get(c.scope, [])
            if c.latency_bound_ms is not None:
                obs = percentile(rs, 95.0)
                _verdict(c.scope, "latency_p95_ms", c.latency_bound_ms, obs, obs is not None and obs <= c.latency_bound_ms)
            if c.min_frequency_hz is not None:
                obs = len(rs) / duration
                _verdict(c.scope, "frequency_hz", c.min_frequency_hz, obs, obs >= c.min_frequency_hz - 1.0 / duration)
            if c.max_latency_std_ms is not None:
                obs = float(np.std(rs)) if rs else None
                _verdict(c.scope, "latency_std_ms", c.max_latency_std_ms, obs, obs is not None and obs <= c.max_latency_std_ms)

    return MetricsReport(duration, per_node, per_device, end_to_end, verdicts)


def _finite(x) -> bool:
    return type(x) is float and x - x == 0.0  # inf - inf and NaN - NaN are NaN


def _not_a_number(i: int, e: TraceEvent, key: str, value):
    raise StackError(
        "E-MALFORMED", f"trace event {i + 1} ({e.kind!r} at t={e.t!r}): {key} must be a finite number, got {value!r}"
    )


# ---------------------------------------------------------------------------
# Trace persistence


# Line templates for the event shapes the simulator logs. Each takes a
# detail dict and returns its JSON text, or None when a key or a value is
# not of the one form the template writes: a str, a finite float (written
# by float.__repr__, as json does), an int (int.__repr__), a bool, None.


def _staleness_text(ports) -> str | None:
    if type(ports) is not dict:
        return None
    parts = []
    for key in sorted(ports):
        v = ports[key]
        if type(key) is not str:
            return None
        if v is None:
            parts.append(f"{_json_str(key)}: null")
        elif _finite(v):
            parts.append(f"{_json_str(key)}: {v!r}")
        else:
            return None
    return "{" + ", ".join(parts) + "}"


def _stale_text(ports) -> str | None:
    if type(ports) is not dict:
        return None
    parts = []
    for key in sorted(ports):
        v = ports[key]
        if type(key) is not str or type(v) is not bool:
            return None
        parts.append(f"{_json_str(key)}: {'true' if v else 'false'}")
    return "{" + ", ".join(parts) + "}"


_ACTIVATE_KEYS = frozenset(("job", "staleness_ms"))
_START_KEYS = frozenset(("cores", "device", "job", "lane"))
_FINISH_KEYS = frozenset(
    ("activation_t", "device", "e2e_ms", "energy_mj", "job", "lane", "late", "response_ms", "service_ms", "sink")
)
_MISS_KEYS = frozenset(("deadline_t", "job"))
_SOURCE_EMIT_KEYS = frozenset(("produced_t",))
_SINK_EMIT_KEYS = frozenset(("activation_t", "age_ms", "stale", "staleness_ms"))


def _activate_text(d) -> str | None:
    if d.keys() != _ACTIVATE_KEYS or type(d["job"]) is not int:
        return None
    staleness = _staleness_text(d["staleness_ms"])
    return None if staleness is None else f'{{"job": {d["job"]!r}, "staleness_ms": {staleness}}}'


def _start_text(d) -> str | None:
    if d.keys() != _START_KEYS:
        return None
    cores, device, job, lane = d["cores"], d["device"], d["job"], d["lane"]
    if not (type(cores) is type(job) is type(lane) is int and type(device) is str):
        return None
    return f'{{"cores": {cores!r}, "device": {_json_str(device)}, "job": {job!r}, "lane": {lane!r}}}'


def _finish_text(d) -> str | None:
    if d.keys() != _FINISH_KEYS:
        return None
    activation_t, service_ms, response_ms, energy_mj = d["activation_t"], d["service_ms"], d["response_ms"], d["energy_mj"]
    device, job, lane, late, sink, e2e_ms = d["device"], d["job"], d["lane"], d["late"], d["sink"], d["e2e_ms"]
    total = activation_t + service_ms + response_ms + energy_mj  # finite iff all are, unless it overflows
    if not (
        type(activation_t) is type(service_ms) is type(response_ms) is type(energy_mj) is float
        and total - total == 0.0
        and type(job) is type(lane) is int
        and type(late) is type(sink) is bool
        and type(device) is str
    ):
        return None
    if e2e_ms is None:
        e2e = "null"
    elif _finite(e2e_ms):
        e2e = repr(e2e_ms)
    else:
        return None
    return (
        f'{{"activation_t": {activation_t!r}, "device": {_json_str(device)}, "e2e_ms": {e2e}, '
        f'"energy_mj": {energy_mj!r}, "job": {job!r}, "lane": {lane!r}, "late": {"true" if late else "false"}, '
        f'"response_ms": {response_ms!r}, "service_ms": {service_ms!r}, "sink": {"true" if sink else "false"}}}'
    )


def _miss_text(d) -> str | None:
    if d.keys() != _MISS_KEYS or not _finite(d["deadline_t"]) or type(d["job"]) is not int:
        return None
    return f'{{"deadline_t": {d["deadline_t"]!r}, "job": {d["job"]!r}}}'


def _emit_text(d) -> str | None:
    if d.keys() == _SOURCE_EMIT_KEYS:
        return f'{{"produced_t": {d["produced_t"]!r}}}' if _finite(d["produced_t"]) else None
    if d.keys() != _SINK_EMIT_KEYS or not _finite(d["activation_t"]):
        return None
    age_ms = d["age_ms"]
    if age_ms is None:
        age = "null"
    elif _finite(age_ms):
        age = repr(age_ms)
    else:
        return None
    stale, staleness = _stale_text(d["stale"]), _staleness_text(d["staleness_ms"])
    if stale is None or staleness is None:
        return None
    return f'{{"activation_t": {d["activation_t"]!r}, "age_ms": {age}, "stale": {stale}, "staleness_ms": {staleness}}}'


_DETAIL_TEXT = {
    "activate": _activate_text,
    "start": _start_text,
    "finish": _finish_text,
    "miss": _miss_text,
    "emit": _emit_text,
}


def trace_to_jsonl(trace: SimTrace) -> str:
    """One line per event, byte-equal to json.dumps(event, sort_keys=True)
    (see "Trace files" above)."""
    lines = []
    append = lines.append
    last_t, t_text = None, ""
    for t, node, kind, detail in trace.events:
        text = None
        if type(kind) is str and type(detail) is dict and type(node) is str and _finite(t):
            template = _DETAIL_TEXT.get(kind)
            if template is not None:
                try:
                    text = template(detail)
                except TypeError:  # e.g. port keys of mixed types, which do not sort
                    pass
        if text is None:
            append(json.dumps({"t": t, "node": node, "kind": kind, "detail": detail}, sort_keys=True))
            continue
        if t != last_t or not t:  # equal floats other than zero have one repr
            last_t, t_text = t, repr(t)
        append(f'{{"detail": {text}, "kind": "{kind}", "node": {_json_str(node)}, "t": {t_text}}}')
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str, duration_s: float | None = None) -> SimTrace:
    events = []
    append, loads, event = events.append, json.loads, TraceEvent
    with _collector_paused():
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                row = loads(line)
                append(event(row["t"], row["node"], row["kind"], row["detail"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise StackError("E-MALFORMED", f"bad trace line {i + 1}: {exc}") from exc
    if duration_s is None:
        duration_s = max((e.t for e in events), default=0.0)
    return SimTrace(duration_s, tuple(events))


def metrics_to_json(report: MetricsReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
