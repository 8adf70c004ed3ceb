import json
import math

import pytest

from amstack import dsl, fixtures, graph as G, runtime, scheduler, substrate
from amstack.errors import StackError


def _mapping(g, model):
    return scheduler.heft_schedule(g, model)


def _run(g, model, mapping, duration=1.0, contracts=None, disturbances=None, **cfg):
    config = runtime.SimConfig(duration_s=duration, **cfg)
    return runtime.simulate(G.buffer_sizing(g), model, mapping, contracts, config, disturbances)


# ---------------------------------------------------------------------------
# deadline semantics


def test_robot_vacuum_emits_50_no_misses(robot_vacuum):
    program, g, model = robot_vacuum
    trace, metrics = _run(g, model, _mapping(g, model), contracts=list(program.contracts))
    assert metrics.per_node["Control"]["emits"] == 50
    assert sum(v["misses"] for v in metrics.per_node.values()) == 0
    assert metrics.all_contracts_held()


def test_av_emits_100_per_second(av):
    program, g, model = av
    trace, metrics = _run(g, model, _mapping(g, model), contracts=list(program.contracts))
    assert metrics.per_node["Control"]["emits"] == 100
    assert metrics.end_to_end["emits"] == 100


def test_upstream_stall_keeps_cadence_and_flags_staleness(av):
    program, g, model = av
    mapping = _mapping(g, model)
    stall = [runtime.Disturbance("Planning", 100.0, 0.3, 0.6)]
    trace, metrics = _run(g, model, mapping, disturbances=stall)
    assert metrics.per_node["Control"]["emits"] == 100  # cadence unchanged
    # Planning misses logged inside the window even though nothing finishes
    plan_misses = [e for e in trace.events if e.kind == "miss" and e.node == "Planning"]
    assert plan_misses
    assert all(0.3 <= e.t <= 1.0 for e in plan_misses)
    assert metrics.end_to_end["stale_emits"] > 0
    # without the stall there are no stale flags
    _, clean = _run(g, model, mapping)
    assert clean.end_to_end["stale_emits"] == 0


def test_sink_liveness_counts(robot_vacuum, av, orb):
    for (program, g, model), duration in ((robot_vacuum, 0.73), (av, 1.0), (orb, 0.5)):
        trace, metrics = _run(g, model, _mapping(g, model), duration=duration)
        sink = metrics.end_to_end["sink"]
        freq = g.by_name(sink).required_freq_hz
        assert abs(metrics.per_node[sink]["emits"] - math.floor(duration * freq)) <= 1


def test_deterministic_trace_repeatable(av):
    program, g, model = av
    mapping = _mapping(g, model)
    t1, m1 = _run(g, model, mapping, seed=5)
    t2, m2 = _run(g, model, mapping, seed=5)
    assert t1 == t2
    assert m1 == m2


def test_stochastic_mode_seeded(orb):
    _, g, model = orb
    mapping = _mapping(g, model)
    t1, _ = _run(g, model, mapping, mode="stochastic", seed=11)
    t2, _ = _run(g, model, mapping, mode="stochastic", seed=11)
    t3, _ = _run(g, model, mapping, mode="stochastic", seed=12)
    assert t1 == t2
    assert t1 != t3
    services = [e.detail["service_ms"] for e in t1.events if e.kind == "finish" and e.node == "Matching"]
    assert len(set(services)) > 1  # actually sampling
    assert all(s >= 0.1 * 9.0 for s in services)  # truncation floor


def test_missing_assignment_rejected(robot_vacuum):
    _, g, model = robot_vacuum
    with pytest.raises(StackError) as err:
        _run(g, model, scheduler.Mapping({}, 0.0, {}))
    assert err.value.code == "E-NOMAPPING"


def test_trace_time_ordered_and_start_finish_paired(av):
    _, g, model = av
    trace, _ = _run(g, model, _mapping(g, model))
    times = [e.t for e in trace.events]
    assert times == sorted(times)
    starts = {e.detail["job"] for e in trace.events if e.kind == "start"}
    finishes = {e.detail["job"] for e in trace.events if e.kind == "finish"}
    assert finishes <= starts  # unfinished tails are allowed, orphans are not


def test_utilization_matches_analytic(robot_vacuum, av, orb, diamond):
    for _, g, model in (robot_vacuum, av, orb, diamond):
        mapping = _mapping(g, model)
        report = scheduler.admit(g, model)
        assert report.verdict == "feasible"
        _, metrics = _run(g, model, mapping)
        for dev, value in metrics.per_device.items():
            analytic = mapping.utilization[dev]
            assert abs(value["busy_utilization"] - analytic) <= 0.05 * max(analytic, 1e-9) + 1e-9


# ---------------------------------------------------------------------------
# adaptation


def _orb_scenario(adapt, duration=3.0, disturbances=None, params=None):
    program, diags = dsl.load_program(fixtures.path("orb.amg"))
    g, _ = G.lower(program)
    model = substrate.load_profiles(fixtures.path("orb_substrate.json"))
    mapping = scheduler.heft_schedule(g, model)
    contracts = [dsl.ContractStmt(scope="end_to_end", latency_bound_ms=33.3)]
    config = runtime.SimConfig(
        duration_s=duration,
        adaptation=adapt,
        adaptation_params=params or runtime.AdaptationParams(),
    )
    trace, metrics = runtime.simulate(G.buffer_sizing(g), model, mapping, contracts, config, disturbances or [])
    return g, model, trace, metrics


def test_no_disturbance_no_adaptation_events():
    _, _, trace, _ = _orb_scenario(adapt=True)
    assert not [e for e in trace.events if e.kind in ("remap", "variant_switch")]


def test_disturbance_triggers_remap_and_improves_p95():
    dist = runtime.load_disturbances(fixtures.path("orb_disturbance.json"))
    _, _, trace_off, metrics_off = _orb_scenario(adapt=False, disturbances=dist)
    g, model, trace_on, metrics_on = _orb_scenario(adapt=True, disturbances=dist)

    assert not [e for e in trace_off.events if e.kind == "remap"]
    remaps = [e for e in trace_on.events if e.kind == "remap" and not e.detail.get("unresolved")]
    assert len(remaps) == 1
    remap = remaps[0]
    assert remap.node == "Matching"
    assert remap.detail["to_device"] == "gpu0"

    params = runtime.AdaptationParams()
    period = 1.0 / g.by_name("Matching").required_freq_hz
    onset = dist[0].t_start
    deadline = onset + (params.window * params.confirm + params.cooldown_periods) * period
    assert remap.t <= deadline

    assert metrics_on.end_to_end["p95_ms"] < metrics_off.end_to_end["p95_ms"]


def test_no_thrash_between_remaps():
    dist = [runtime.Disturbance("Matching", 3.0, 0.5, 2.9)]
    g, model, trace, _ = _orb_scenario(adapt=True, duration=3.0, disturbances=dist)
    params = runtime.AdaptationParams()
    period = 1.0 / g.by_name("Matching").required_freq_hz
    changes = [e.t for e in trace.events if e.kind in ("remap", "variant_switch") and e.node == "Matching"]
    for a, b in zip(changes, changes[1:]):
        assert b - a >= params.cooldown_periods * period - 1e-9


def test_single_option_disturbance_logs_unresolved():
    ast, _ = dsl.parse_text(
        "require S { frequency >= 30 Hz }\nrequire F { frequency >= 30 Hz }\nnode x = F(S)"
    )
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": "F", "variant": "base", "class": "cpu", "lat_ms_mean": 5.0, "lat_ms_std": 0, "energy_mj": 0}
            ],
        }
    )
    mapping = scheduler.heft_schedule(g, model)
    contracts = [dsl.ContractStmt(scope="F", latency_bound_ms=6.0)]
    config = runtime.SimConfig(duration_s=3.0, adaptation=True)
    dist = [runtime.Disturbance("F", 3.0, 0.5, 3.0)]
    trace, _ = runtime.simulate(G.buffer_sizing(g), model, mapping, contracts, config, dist)
    unresolved = [e for e in trace.events if e.kind == "remap" and e.detail.get("unresolved")]
    assert unresolved
    real = [e for e in trace.events if e.kind == "remap" and not e.detail.get("unresolved")]
    assert not real
    assert not [e for e in trace.events if e.kind == "variant_switch"]
    # no thrash: unresolved decisions also respect the cooldown
    times = [e.t for e in unresolved]
    period = 1.0 / 30.0
    for a, b in zip(times, times[1:]):
        assert b - a >= runtime.AdaptationParams().cooldown_periods * period - 1e-9


def test_post_disturbance_p95_under_budget():
    dist = runtime.load_disturbances(fixtures.path("orb_disturbance.json"))
    g, model, trace, _ = _orb_scenario(adapt=True, disturbances=dist)
    t_end = dist[0].t_end
    tail = [
        e.detail["response_ms"]
        for e in trace.events
        if e.kind == "finish" and e.node == "Matching" and e.t > t_end + 0.2
    ]
    budget = 33.3 * 9.0 / 27.0  # matching share of the decomposed bound
    assert runtime.percentile(tail, 95.0) <= budget * (1 + runtime.AdaptationParams().threshold)


# ---------------------------------------------------------------------------
# replay


def test_replay_equals_simulate(av):
    program, g, model = av
    contracts = list(program.contracts)
    trace, metrics = _run(g, model, _mapping(g, model), contracts=contracts)
    assert runtime.replay(trace, contracts=contracts, model=model) == metrics


def test_replay_empty_trace_all_zero():
    report = runtime.replay(runtime.SimTrace(1.0, ()))
    assert report.per_node == {}
    assert report.per_device == {}
    assert report.end_to_end["emits"] == 0
    assert report.contracts == []


def test_replay_counts_misses():
    events = tuple(
        runtime.TraceEvent(0.1 * i, "F", "miss", {"job": i, "deadline_t": 0.1 * i}) for i in range(5)
    )
    report = runtime.replay(runtime.SimTrace(1.0, events))
    assert report.per_node["F"]["misses"] == 5


def test_replay_rejects_out_of_order():
    events = (
        runtime.TraceEvent(0.5, "F", "miss", {}),
        runtime.TraceEvent(0.1, "F", "miss", {}),
    )
    with pytest.raises(StackError) as err:
        runtime.replay(runtime.SimTrace(1.0, events))
    assert err.value.code == "E-MALFORMED"


def test_trace_jsonl_roundtrip(robot_vacuum):
    program, g, model = robot_vacuum
    contracts = list(program.contracts)
    trace, metrics = _run(g, model, _mapping(g, model), contracts=contracts)
    text = runtime.trace_to_jsonl(trace)
    loaded = runtime.trace_from_jsonl(text, duration_s=trace.duration_s)
    assert runtime.replay(loaded, contracts=contracts, model=model) == metrics


def test_trace_jsonl_malformed():
    with pytest.raises(StackError) as err:
        runtime.trace_from_jsonl('{"not valid\n')
    assert err.value.code == "E-MALFORMED"


def test_miss_accounting_exact(av):
    # misses == late finishes + jobs whose deadline passed unfinished
    _, g, model = av
    stall = [runtime.Disturbance("Planning", 100.0, 0.3, 0.6)]
    trace, metrics = _run(g, model, _mapping(g, model), disturbances=stall)
    late = {}
    activations = {}  # job id -> (node, activation t)
    finished = set()
    for e in trace.events:
        if e.kind == "activate":
            activations[e.detail["job"]] = (e.node, e.t)
        elif e.kind == "finish":
            finished.add(e.detail["job"])
            if e.detail["late"]:
                late[e.node] = late.get(e.node, 0) + 1
    for job, (node, t_act) in activations.items():
        deadline = t_act + 1.0 / g.by_name(node).required_freq_hz
        if job not in finished and deadline <= trace.duration_s + 1e-9:
            late[node] = late.get(node, 0) + 1
    for name, row in metrics.per_node.items():
        assert row["misses"] == late.get(name, 0), name


def test_metrics_report_invariants(robot_vacuum, av, orb):
    for _, g, model in (robot_vacuum, av, orb):
        _, metrics = _run(g, model, _mapping(g, model), duration=1.0)
        for name, row in metrics.per_node.items():
            required = g.by_name(name).required_freq_hz
            assert row["achieved_hz"] <= required * (1.0 + 1.0 / required) + 1e-9
        for row in metrics.per_device.values():
            assert 0.0 <= row["busy_utilization"] <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# disturbance validation


def test_disturbance_validation(robot_vacuum):
    _, g, model = robot_vacuum
    mapping = _mapping(g, model)
    with pytest.raises(StackError):
        _run(g, model, mapping, disturbances=[runtime.Disturbance("Control", -1.0, 0.0, 1.0)])
    with pytest.raises(StackError):
        _run(g, model, mapping, disturbances=[runtime.Disturbance("Control", 2.0, 0.8, 0.2)])
    with pytest.raises(StackError):  # window must lie within the run
        _run(g, model, mapping, duration=1.0, disturbances=[runtime.Disturbance("Control", 2.0, 0.5, 3.0)])



@pytest.mark.parametrize(
    "row, path",
    [
        ({"op": "F", "factor": "abc", "t0": 0.0, "t1": 1.0}, "/0/factor"),
        ({"op": "F", "factor": float("nan"), "t0": 0.0, "t1": 1.0}, "/0/factor"),
        ({"op": "F", "factor": 2.0, "t0": True, "t1": 1.0}, "/0/t0"),
        ({"op": "F", "factor": 2.0, "t0": 0.0, "t1": float("inf")}, "/0/t1"),
        ({"op": 5, "factor": 2.0, "t0": 0.0, "t1": 1.0}, "/0/op"),
    ],
)
def test_disturbance_file_field_types(tmp_path, row, path):
    p = tmp_path / "dist.json"
    p.write_text(json.dumps([row]))
    with pytest.raises(StackError) as err:
        runtime.load_disturbances(str(p))
    assert err.value.code == "E-SCHEMA"
    assert err.value.path == path


# Only the raise is asserted: a run with an unchecked infinite duration
# would never end.
_BAD_DURATIONS = [float("inf"), float("nan"), 0.0, -1.0, True]


@pytest.mark.parametrize("duration", _BAD_DURATIONS)
def test_sim_config_rejects_bad_duration(duration):
    with pytest.raises(StackError) as err:
        runtime.SimConfig(duration_s=duration)
    assert err.value.code == "E-SCHEMA"


@pytest.mark.parametrize("duration", _BAD_DURATIONS)
def test_replay_rejects_bad_duration(duration):
    with pytest.raises(StackError) as err:
        runtime.replay(runtime.SimTrace(duration, ()))
    assert err.value.code == "E-SCHEMA"


# Hand-written traces, each wrong in one field, and what the error names.
_MALFORMED_TRACES = {
    "finish-without-response": ([(0.5, "F", "finish", {"job": 0})], "event 1"),
    "string-t-after-number": ([(0.1, "F", "miss", {}), ("0.2", "F", "miss", {})], "event 2"),
    "nan-t": ([(float("nan"), "F", "miss", {})], "event 1"),
    "negative-t": ([(-0.1, "F", "miss", {})], "event 1"),
    "zero-cores": ([(0.0, "F", "start", {"job": 0, "device": "d0", "lane": 0, "cores": 0})], "'d0'"),
    "integer-node": ([(0.1, "F", "miss", {}), (0.2, 3, "miss", {})], "got 3"),
    "staleness-list": ([(0.1, "F", "activate", {"job": 0, "staleness_ms": [1]})], "event 1"),
    "stale-number": ([(0.1, "F", "emit", {"stale": 5})], "event 1"),
    "string-response": ([(0.5, "F", "finish", {"job": 0, "response_ms": "x"})], "event 1 ('finish' at t=0.5): response_ms"),
    "string-response-then-number": (
        [(0.5, "F", "finish", {"job": 0, "response_ms": "x"}), (0.6, "F", "finish", {"job": 1, "response_ms": 1.0})],
        "event 1 ('finish' at t=0.5): response_ms",
    ),
    "infinite-staleness": (
        [(0.1, "F", "activate", {"job": 0, "staleness_ms": {"0": 1.0, "1": math.inf}})],
        "event 1 ('activate' at t=0.1): staleness_ms must be a finite number, got inf",
    ),
    "nan-staleness": (
        [(0.1, "F", "activate", {"job": 0, "staleness_ms": {"0": math.nan}})],
        "event 1 ('activate' at t=0.1): staleness_ms must be a finite number, got nan",
    ),
    "infinite-sink-staleness": (
        [(0.1, "F", "emit", {"activation_t": 0.1, "age_ms": 1.0, "stale": {"0": False}, "staleness_ms": {"0": math.inf}})],
        "event 1 ('emit' at t=0.1): staleness_ms must be a finite number, got inf",
    ),
    "nan-sink-staleness": (
        [(0.1, "F", "emit", {"activation_t": 0.1, "age_ms": None, "stale": {"0": True}, "staleness_ms": {"0": math.nan}})],
        "event 1 ('emit' at t=0.1): staleness_ms must be a finite number, got nan",
    ),
    "string-sink-e2e": (
        [(0.5, "F", "finish", {"job": 0, "response_ms": 1.0, "sink": True, "e2e_ms": "y"})],
        "event 1 ('finish' at t=0.5): e2e_ms",
    ),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_TRACES))
def test_malformed_trace_fields_are_e_malformed(name):
    rows, names = _MALFORMED_TRACES[name]
    text = "".join(json.dumps({"t": t, "node": n, "kind": k, "detail": d}) + "\n" for t, n, k, d in rows)
    with pytest.raises(StackError) as err:
        runtime.replay(runtime.trace_from_jsonl(text, duration_s=1.0))
    assert err.value.code == "E-MALFORMED"
    assert names in err.value.message
