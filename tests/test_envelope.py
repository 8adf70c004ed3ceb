import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from _oracles import brute_force_frontier as _bff, dominates
from amstack import dsl, envelope, graph as G, scheduler, substrate
from amstack.errors import StackError


def brute_force_frontier(points):
    return _bff(points), dominates


def _point(lat, thr, var, energy):
    mapping = scheduler.Mapping({}, lat, {})
    return envelope.ConfigPoint(mapping, lat, thr, var, energy)


# ---------------------------------------------------------------------------
# enumeration


def test_orb_space_is_exhaustive_64(orb):
    _, g, model = orb
    points = envelope.enumerate_configs(g, model)
    assert len(points) == 64  # 4 candidates per stage, 3 stages


def test_limit_sampling_deterministic(orb):
    _, g, model = orb
    a = envelope.enumerate_configs(g, model, limit=10, seed=42)
    b = envelope.enumerate_configs(g, model, limit=10, seed=42)
    assert len(a) == 10
    assert [p.metrics() for p in a] == [p.metrics() for p in b]
    assert len({p.digest(g) for p in a}) == 10
    c = envelope.enumerate_configs(g, model, limit=10, seed=43)
    assert [p.metrics() for p in a] != [p.metrics() for p in c]


def test_single_candidate_space():
    ast, _ = dsl.parse_text("require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\nnode x = F(S)")
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": "F", "variant": "base", "class": "cpu", "lat_ms_mean": 3.0, "lat_ms_std": 0, "energy_mj": 0}
            ],
        }
    )
    points = envelope.enumerate_configs(g, model)
    assert len(points) == 1


def test_enumerate_empty_space_raises(orb):
    _, g, _ = orb
    empty = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [],
        }
    )
    with pytest.raises(StackError) as err:
        envelope.enumerate_configs(g, empty)
    assert err.value.code == "E-EMPTY"


# ---------------------------------------------------------------------------
# evaluate


def _chain_model(stds, lats=None):
    lats = lats or [10.0] * len(stds)
    lines = ["require S { frequency >= 10 Hz; message_size = 1 B }"]
    prev = "S"
    for i in range(len(stds)):
        lines.append(f"require F{i} {{ frequency >= 10 Hz; message_size = 1 B }}")
        lines.append(f"node r{i} = F{i}({prev})")
        prev = f"r{i}"
    ast, _ = dsl.parse_text("\n".join(lines))
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 4, "link_bw_bps": 1e9, "idle_w": 1.0}],
            "profiles": [
                {"op": f"F{i}", "variant": "base", "class": "cpu", "lat_ms_mean": lats[i], "lat_ms_std": stds[i], "energy_mj": 2.0}
                for i in range(len(stds))
            ],
        }
    )
    assignment = {g.by_name(f"F{i}").id: ("d", "base") for i in range(len(stds))}
    return g, model, assignment


def test_variability_root_sum_square():
    g, model, assignment = _chain_model([3.0, 4.0])
    point = envelope.evaluate_config(assignment, g, model)
    assert point.variability_ms == pytest.approx(5.0)


def test_variability_zero_stds():
    g, model, assignment = _chain_model([0.0, 0.0, 0.0])
    point = envelope.evaluate_config(assignment, g, model)
    assert point.variability_ms == 0.0


def test_throughput_degrades_past_capacity():
    # 2 nodes x 10 Hz x 10 ms on 4 cores: util 0.05 -> full sink rate
    g, model, assignment = _chain_model([0.0, 0.0])
    assert envelope.evaluate_config(assignment, g, model).throughput_hz == pytest.approx(10.0)
    # 300 ms stages at 10 Hz on 4 cores: util 1.5 -> sink rate scaled down
    g, model, assignment = _chain_model([0.0, 0.0], lats=[300.0, 300.0])
    point = envelope.evaluate_config(assignment, g, model)
    assert point.throughput_hz == pytest.approx(10.0 / 1.5)


def test_orb_fast_all_gpu_config_hand_values(orb):
    _, g, model = orb
    assignment = {
        g.by_name("Keypoints").id: ("gpu0", "fast"),
        g.by_name("Descriptors").id: ("gpu0", "base"),
        g.by_name("Matching").id: ("gpu0", "base"),
    }
    point = envelope.evaluate_config(assignment, g, model)
    # same-device comm is free: latency is the sum of the three means
    assert point.latency_ms == pytest.approx(13.0 + 4.5 + 6.5)
    assert point.variability_ms == pytest.approx(math.sqrt(1.0**2 + 0.3**2 + 0.5**2))
    # gpu carries (13+4.5+6.5) ms x 60 Hz over 2 lanes = 0.72 utilization
    assert point.throughput_hz == pytest.approx(60.0)
    # energy: invocations plus idle power of both devices
    expected_energy = (60 * 60.0 + 60 * 20.0 + 60 * 25.0) / 1000.0 + 6.0 + 10.0
    assert point.energy_rate_w == pytest.approx(expected_energy)


# ---------------------------------------------------------------------------
# pareto filter


def test_pareto_three_point_example():
    # (1, 10, 0.1) beats (1.5, 10, 0.2) outright, and also (2, 5, 0.1):
    # lower latency and higher throughput with nothing worse
    pts = [
        _point(1.0, 10.0, 0.1, 5.0),
        _point(2.0, 5.0, 0.1, 5.0),
        _point(1.5, 10.0, 0.2, 5.0),
    ]
    frontier = envelope.pareto_filter(pts)
    expected, dominates = brute_force_frontier(pts)
    assert [p.metrics() for p in frontier.points] == [p.metrics() for p in expected]
    assert len(frontier.points) == 1
    assert frontier.dominated_count == 2
    kept = {(p.latency_ms, p.throughput_hz) for p in frontier.points}
    assert (1.5, 10.0) not in kept
    for p in pts[1:]:
        assert any(dominates(q, p) for q in frontier.points)


def test_pareto_single_point():
    frontier = envelope.pareto_filter([_point(1.0, 1.0, 1.0, 1.0)])
    assert len(frontier.points) == 1
    assert frontier.dominated_count == 0


def test_pareto_duplicates_retained():
    pts = [_point(1.0, 2.0, 3.0, 4.0), _point(1.0, 2.0, 3.0, 4.0)]
    frontier = envelope.pareto_filter(pts)
    assert len(frontier.points) == 2


def test_pareto_empty_raises():
    with pytest.raises(StackError):
        envelope.pareto_filter([])


def test_pareto_matches_bruteforce_random():
    rng = random.Random(0xF0F)
    for _ in range(30):
        pts = [
            _point(rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(0, 2), rng.uniform(1, 20))
            for _ in range(rng.randint(1, 120))
        ]
        frontier = envelope.pareto_filter(pts)
        expected, dominates = brute_force_frontier(pts)
        assert len(frontier.points) == len(expected)
        assert frontier.dominated_count == len(pts) - len(expected)
        # every excluded point has a dominating witness inside the frontier
        front = list(frontier.points)
        for p in pts:
            if all(p.metrics() != q.metrics() for q in front):
                assert any(dominates(q, p) for q in front)


def test_pareto_monotone_under_additions():
    rng = random.Random(0xADD)
    pts = [_point(rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(0, 2), rng.uniform(1, 20)) for _ in range(40)]
    frontier_before = envelope.pareto_filter(pts[:30])
    frontier_after = envelope.pareto_filter(pts)
    before_metrics = {p.metrics() for p in frontier_before.points}
    after_metrics = {p.metrics() for p in frontier_after.points}
    _, dominates = brute_force_frontier(pts)
    for m in before_metrics - after_metrics:
        # a removed point must now be dominated by some new frontier member
        victim = next(p for p in frontier_before.points if p.metrics() == m)
        assert any(dominates(q, victim) for q in frontier_after.points)


def test_sampled_frontier_consistent_with_exhaustive(orb):
    _, g, model = orb
    full = envelope.pareto_filter(envelope.enumerate_configs(g, model))
    sampled = envelope.pareto_filter(envelope.enumerate_configs(g, model, limit=20, seed=7))
    _, dominates = brute_force_frontier(list(full.points))
    for p in sampled.points:
        assert not any(dominates(p, q) for q in full.points)


@st.composite
def _point_sets(draw):
    """Points drawn from a few objective rows: exact duplicates, ties on one
    to three axes, 0.0 against -0.0, infinities and NaN."""
    axis = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats())
    rows = draw(st.lists(st.tuples(axis, axis, axis, axis), min_size=1, max_size=6))
    return [_point(*row) for row in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=40))]


@settings(max_examples=300, deadline=None)
@given(_point_sets())
@example([_point(1.0, 2.0, 3.0, 4.0)])
@example([_point(1.0, 1.0, 2.0, 1.0), _point(1.0, 1.0, 1.0, 2.0)])  # equal (latency, throughput): input order
@example([_point(2.0, 1.0, 1.0, 1.0), _point(math.nan, 1.0, 1.0, 1.0), _point(1.0, 1.0, 1.0, 1.0)])  # NaN in a sort
@example([_point(0.0, 1.0, 0.0, 1.0), _point(-0.0, 1.0, -0.0, 1.0), _point(0.0, -0.0, 1.0, 1.0), _point(0.0, 0.0, 1.0, 1.0)])
def test_pareto_filter_matches_the_all_pairs_oracle(points):
    frontier = envelope.pareto_filter(points)
    survivors, dominated = _oracles.pareto_filter(points)
    assert [id(p) for p in frontier.points] == [id(p) for p in survivors]
    assert frontier.dominated_count == dominated


# ---------------------------------------------------------------------------
# reach: more paths than critical_paths enumerates


def test_envelope_evaluates_graphs_past_the_path_bound():
    # one source and 9 fully connected layers of 3 operators: 3**9 = 19,683 paths
    rng = random.Random(0x3A9)
    lines, prev, ops = ["require S { frequency >= 10 Hz; message_size = 1 KB }"], ["S"], []
    for layer in range(9):
        names = []
        for j in range(3):
            op = f"F{layer}x{j}"
            lines.append(f"require {op} {{ frequency >= 10 Hz; message_size = {rng.randint(1, 64)} KB }}")
            lines.append(f"node n{layer}_{j} = {op}({', '.join(prev)})")
            names.append(f"n{layer}_{j}")
            ops.append(op)
        prev = names
    ast, _ = dsl.parse_text("\n".join(lines))
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    devices = [
        {"id": "cpu0", "name": "cpu0", "class": "cpu", "cores": 8, "link_bw_bps": 1e9, "idle_w": 1.0},
        {"id": "gpu0", "name": "gpu0", "class": "gpu", "cores": 4, "link_bw_bps": 4e8, "idle_w": 2.0},
    ]
    profiles = [
        {"op": op, "variant": "base", "class": c, "lat_ms_mean": round(rng.uniform(0.5, 3.0), 3),
         "lat_ms_std": round(rng.uniform(0.0, 0.3), 4), "energy_mj": 1.0}
        for op in ops
        for c in ("cpu", "gpu")
    ]
    model = substrate.model_from_dict({"devices": devices, "profiles": profiles})
    with pytest.raises(StackError) as err:
        G.critical_paths(g)
    assert err.value.code == "E-PATHBOUND"
    paths = G.critical_paths(g, bound=10**5)
    assert len(paths) == 3**9

    points = envelope.enumerate_configs(g, model, limit=5)
    assert len(points) == 5
    for p in points:
        best = (0.0, 0.0)  # analytic_latency's rule: the first path of the worst latency
        for path in paths:
            lat, var = scheduler.path_metrics(g, model, p.mapping.assignment, path)
            if lat > best[0]:
                best = (lat, var)
        assert (p.latency_ms, p.variability_ms) == best


# ---------------------------------------------------------------------------
# export


def test_csv_export_shape(orb):
    _, g, model = orb
    frontier = envelope.pareto_filter(envelope.enumerate_configs(g, model))
    text = envelope.export_envelope(frontier, g, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "latency_ms,throughput_hz,variability_ms,energy_w,config"
    assert len(lines) == len(frontier.points) + 1
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_json_export_roundtrip(orb):
    _, g, model = orb
    frontier = envelope.pareto_filter(envelope.enumerate_configs(g, model))
    doc = json.loads(envelope.export_envelope(frontier, g, "json"))
    assert doc["dominated_count"] == frontier.dominated_count
    metrics = [(r["latency_ms"], r["throughput_hz"], r["variability_ms"], r["energy_w"]) for r in doc["points"]]
    assert metrics == [p.metrics() for p in frontier.points]
    assignments = [
        {g.by_name(name).id: (a["device"], a["variant"]) for name, a in r["assignment"].items()} for r in doc["points"]
    ]
    assert assignments == [p.mapping.assignment for p in frontier.points]
