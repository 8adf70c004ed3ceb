import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import oracle_optimum
from amstack import dsl, fixtures, graph as G, scheduler, substrate
from amstack.errors import StackError


# ---------------------------------------------------------------------------
# heft


def test_heft_reproduces_hand_trace(diamond):
    _, g, model = diamond
    expected = json.loads(fixtures.read("diamond_expected.json"))
    mapping = scheduler.heft_schedule(g, model)
    got = {g.node(nid).name: [dev, var] for nid, (dev, var) in mapping.assignment.items()}
    assert got == expected["assignment"]
    assert mapping.makespan_estimate_ms == pytest.approx(expected["makespan_ms"], abs=1e-9)


def test_heft_within_factor_of_bruteforce(diamond, robot_vacuum, orb):
    for _, g, model in (diamond, robot_vacuum, orb):
        assert len(g.operator_nodes()) <= 6
        mapping = scheduler.heft_schedule(g, model)
        optimum = oracle_optimum(g, model)
        assert mapping.makespan_estimate_ms <= 1.5 * optimum + 1e-9


def test_heft_single_node_single_device():
    ast, _ = dsl.parse_text("require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\nnode x = F(S)")
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": "F", "variant": "base", "class": "cpu", "lat_ms_mean": 7.5, "lat_ms_std": 0, "energy_mj": 0}
            ],
        }
    )
    mapping = scheduler.heft_schedule(g, model)
    assert mapping.assignment[g.by_name("F").id] == ("d", "base")
    assert mapping.makespan_estimate_ms == 7.5


def test_heft_honors_require_map(av):
    _, g, model = av
    mapping = scheduler.heft_schedule(g, model)
    dev_id, _ = mapping.assignment[g.by_name("2DPerception").id]
    assert model.device(dev_id).device_class == "gpu"


def test_heft_unschedulable_when_no_candidates():
    ast, _ = dsl.parse_text(
        "require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\nnode x = F(S)\nrequire_map F on dsp"
    )
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": "F", "variant": "base", "class": "cpu", "lat_ms_mean": 1.0, "lat_ms_std": 0, "energy_mj": 0}
            ],
        }
    )
    with pytest.raises(StackError) as err:
        scheduler.heft_schedule(g, model)
    assert err.value.code == "E-UNSCHEDULABLE"


def _hint_model():
    return {
        "devices": [
            {"id": "c", "name": "c", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0},
            {"id": "g", "name": "g", "class": "gpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0},
        ],
        "profiles": [
            {"op": "F", "variant": "base", "class": "cpu", "lat_ms_mean": 10.0, "lat_ms_std": 0, "energy_mj": 0},
            {"op": "F", "variant": "base", "class": "gpu", "lat_ms_mean": 10.3, "lat_ms_std": 0, "energy_mj": 0},
        ],
    }


def _hint_graph(hint):
    text = "require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\nnode x = F(S)"
    if hint:
        text += "\nhint F on gpu"
    ast, _ = dsl.parse_text(text)
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    return g


def test_hint_breaks_ties_within_window():
    model = substrate.model_from_dict(_hint_model())
    without = scheduler.heft_schedule(_hint_graph(False), model)
    with_hint = scheduler.heft_schedule(_hint_graph(True), model)
    g = _hint_graph(True)
    assert without.assignment[1] == ("c", "base")  # plain min EFT
    assert with_hint.assignment[g.by_name("F").id] == ("g", "base")  # hint wins inside 5%
    # hint neutrality: makespan moved by no more than the window
    assert with_hint.makespan_estimate_ms <= without.makespan_estimate_ms * (1 + scheduler.HINT_TIE_WINDOW) + 1e-9


def test_hint_ignored_outside_window():
    doc = _hint_model()
    doc["profiles"][1]["lat_ms_mean"] = 12.0  # 20% worse than best
    model = substrate.model_from_dict(doc)
    mapping = scheduler.heft_schedule(_hint_graph(True), model)
    assert mapping.assignment[1] == ("c", "base")


def test_hint_neutrality_on_fixtures(robot_vacuum, av):
    for program, g, model in (robot_vacuum, av):
        # keep requirements, drop hints only
        reqs = tuple(m for m in program.maps if m.strength == "requirement")
        g_nohint, _ = G.lower(
            dsl.ResolvedProgram(program.sources, program.operators, program.bindings, reqs, program.contracts)
        )
        with_hints = scheduler.heft_schedule(g, model).makespan_estimate_ms
        without = scheduler.heft_schedule(g_nohint, model).makespan_estimate_ms
        assert abs(with_hints - without) <= scheduler.HINT_TIE_WINDOW * max(with_hints, without) + 1e-9


def test_heft_deterministic(av):
    _, g, model = av
    m1 = scheduler.heft_schedule(g, model)
    m2 = scheduler.heft_schedule(g, model)
    assert m1 == m2


# ---------------------------------------------------------------------------
# utilization


def _util_case(n_nodes, cores=1):
    lines = ["require S { frequency >= 50 Hz }"]
    names = []
    for i in range(n_nodes):
        lines.append(f"require F{i} {{ frequency >= 50 Hz }}")
        lines.append(f"node r{i} = F{i}(S)")
        names.append(f"F{i}")
    ast, _ = dsl.parse_text("\n".join(lines))
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": cores, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": n, "variant": "base", "class": "cpu", "lat_ms_mean": 10.0, "lat_ms_std": 0, "energy_mj": 0}
                for n in names
            ],
        }
    )
    assignment = {g.by_name(n).id: ("d", "base") for n in names}
    return scheduler.utilization_check(assignment, g, model)["d"]


def test_utilization_half():
    assert _util_case(1) == pytest.approx(0.5)


def test_utilization_exactly_one_is_boundary():
    util = _util_case(2)
    assert util == pytest.approx(1.0)
    # boundary: not a violation
    assert not util > 1.0


def test_utilization_over_one_flagged():
    assert _util_case(3) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# admit


def test_admit_robot_vacuum_feasible(robot_vacuum):
    program, g, model = robot_vacuum
    report = scheduler.admit(g, model, list(program.contracts))
    assert report.verdict == "feasible"
    assert report.mapping is not None
    assert report.violations == ()


def test_admit_tiny_latency_bound_infeasible(robot_vacuum):
    program, g, model = robot_vacuum
    contracts = [dsl.ContractStmt(scope="end_to_end", latency_bound_ms=0.001)]
    report = scheduler.admit(g, model, contracts)
    assert report.verdict == "infeasible"
    assert report.mapping is None
    lat = [v for v in report.violations if v.kind == "LATENCY"]
    assert lat and lat[0].margin > 0
    # margin is recomputable: analytic latency minus the bound
    mapping = scheduler.heft_schedule(g, model)
    analytic, _, _ = scheduler.analytic_latency(g, model, mapping.assignment)
    assert lat[0].margin == pytest.approx(analytic - 0.001)


def test_admit_overload_infeasible():
    # three 50 Hz nodes at 10 ms and a fourth at 33 ms on one core: 2.3x demand
    lines = ["require S { frequency >= 50 Hz }"]
    for i, lat in enumerate((10.0, 10.0, 10.0, 16.0)):
        lines.append(f"require F{i} {{ frequency >= 50 Hz }}")
        lines.append(f"node r{i} = F{i}(S)")
    ast, _ = dsl.parse_text("\n".join(lines))
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": f"F{i}", "variant": "base", "class": "cpu", "lat_ms_mean": lat, "lat_ms_std": 0, "energy_mj": 0}
                for i, lat in enumerate((10.0, 10.0, 10.0, 16.0))
            ],
        }
    )
    report = scheduler.admit(g, model)
    assert report.verdict == "infeasible"
    util = [v for v in report.violations if v.kind == "UTILIZATION"]
    assert util and util[0].margin == pytest.approx(2.3 - 1.0)
    # frequency violations too: 16 ms > 20 ms period is fine, so only F3 is ok;
    # all nodes fit their periods individually here
    assert not [v for v in report.violations if v.kind == "FREQUENCY"]


def test_admit_coverage_violation():
    ast, _ = dsl.parse_text("require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\nnode x = F(S)")
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [],
        }
    )
    report = scheduler.admit(g, model)
    assert report.verdict == "infeasible"
    assert report.violations[0].kind == "COVERAGE"


# ---------------------------------------------------------------------------
# worst path: the forward pass against the enumeration

_DEVICES = [
    {"id": "d0", "name": "d0", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0},
    {"id": "d1", "name": "d1", "class": "gpu", "cores": 1, "link_bw_bps": 4e8, "idle_w": 0},
]
# sums of these round onto one another: 0.1 + 0.2 is 0.30000000000000004
_TIE_PRONE_MS = [0.1, 0.2, 0.3, 0.30000000000000004, 0.3000000000000001]


def _path_case(nodes, edges, profiles, assignment):
    """(graph, model, assignment) from node rows (name, kind, message_size),
    (producer, consumer) pairs and (op, variant, class, mean, std) profiles."""
    ports: dict[int, int] = {}
    edge_rows = []
    for p, c in edges:
        edge_rows.append(G.Edge(p, c, ports.get(c, 0)))
        ports[c] = ports.get(c, 0) + 1
    graph = G.ComputationGraph(
        tuple(G.Node(i, name, kind, 10.0, size) for i, (name, kind, size) in enumerate(nodes)), tuple(edge_rows)
    )
    rows = [
        {"op": op, "variant": v, "class": c, "lat_ms_mean": mean, "lat_ms_std": std, "energy_mj": 0}
        for op, v, c, mean, std in profiles
    ]
    return graph, substrate.model_from_dict({"devices": _DEVICES, "profiles": rows}), assignment


def _x_against_y_plus_z(x_ms=0.3000000000000001, z_first=False):
    """S feeds X (x_ms, std 5) and Y (0.1) -> Z (0.2); both reach J (1 us)
    and then K (100 ms). With the default x_ms the sums into J differ but
    are one float at K; with 0.30000000000000004 they are equal at J."""
    names = ["S", "X", "Y", "Z", "J", "K"]
    means = {"X": (x_ms, 5.0), "Y": (0.1, 0.1), "Z": (0.2, 0.1), "J": (1e-3, 0.0), "K": (100.0, 0.0)}
    into_j = [(3, 4), (1, 4)] if z_first else [(1, 4), (3, 4)]
    return _path_case(
        [(name, "source" if name == "S" else "operator", None) for name in names],
        [(0, 1), (0, 2), (2, 3), *into_j, (4, 5)],
        [(op, "v", "cpu", mean, std) for op, (mean, std) in means.items()],
        {i: ("d0", "v") for i in range(1, len(names))},
    )


def _equal_names():
    """S feeds two nodes named A, equal in latency, unequal in std, both
    into B, the higher id first: only the id sequence orders the paths."""
    return _path_case(
        [("S", "source", None), ("A", "operator", None), ("A", "operator", None), ("B", "operator", None)],
        [(0, 1), (0, 2), (2, 3), (1, 3)],
        [("A", "v0", "cpu", 0.1, 0.0), ("A", "v1", "cpu", 0.1, 5.0), ("B", "v0", "cpu", 0.2, 0.1)],
        {1: ("d0", "v0"), 2: ("d0", "v1"), 3: ("d0", "v0")},
    )


def _two_sinks():
    """P feeds sinks B (id 2) and A (id 3), equal in latency, unequal in
    std: their prefixes are one path, so only the whole paths order them."""
    return _path_case(
        [("S", "source", None), ("P", "operator", None), ("B", "operator", None), ("A", "operator", None)],
        [(0, 1), (1, 2), (1, 3)],
        [("P", "v", "cpu", 0.2, 0.0), ("B", "v", "cpu", 0.1, 5.0), ("A", "v", "cpu", 0.1, 0.1)],
        {1: ("d0", "v"), 2: ("d0", "v"), 3: ("d0", "v")},
    )


@st.composite
def _path_cases(draw):
    """Random DAGs: repeated operator names, parallel edges, several sinks,
    sources that also consume, operators no source reaches, message sizes
    None, 0 or positive on two devices, and tie-prone latencies."""
    nodes, edges = [], []
    for i in range(draw(st.integers(1, 8))):
        kind = "source" if i == 0 or draw(st.integers(0, 5)) == 0 else "operator"
        name = f"S{i}" if kind == "source" else draw(st.sampled_from("ABC"))
        nodes.append((name, kind, draw(st.sampled_from([None, 0, 1, 1000, 123457]))))
        if i:
            edges += [(p, i) for p in draw(st.lists(st.integers(0, i - 1), max_size=3))]
    means = st.sampled_from([*_TIE_PRONE_MS, 1e-3, 100.0])
    profiles = [
        (op, v, c, draw(means), draw(st.sampled_from([0.0, 0.1, 5.0])))
        for op in "ABC"
        for v in ("v0", "v1")
        for c in ("cpu", "gpu")
    ]
    picks = st.tuples(st.sampled_from(["d0", "d1"]), st.sampled_from(["v0", "v1"]))
    assignment = {i: draw(picks) for i, (_, kind, _) in enumerate(nodes) if kind == "operator"}
    return _path_case(nodes, edges, profiles, assignment)


@settings(max_examples=500, deadline=None)
@given(_path_cases())
@example(_x_against_y_plus_z())
@example(_x_against_y_plus_z(z_first=True))
@example(_x_against_y_plus_z(x_ms=0.30000000000000004))
@example(_equal_names())
@example(_two_sinks())
def test_worst_path_latency_equals_the_enumeration(case):
    graph, model, assignment = case
    assert scheduler.worst_path_latency(graph, model, assignment) == scheduler.analytic_latency(graph, model, assignment)[:2]


def test_worst_path_keeps_the_enumerations_rounding_tie():
    # one best prefix per node keeps X (variability 5.0); the enumeration
    # meets Y-Z first among the paths of the one worst float
    graph, model, assignment = _x_against_y_plus_z()
    latency, variability, path = scheduler.analytic_latency(graph, model, assignment)
    assert [graph.node(i).name for i in path] == ["S", "Y", "Z", "J", "K"]
    assert scheduler.worst_path_latency(graph, model, assignment) == (latency, math.sqrt(0.1**2 + 0.1**2))


@pytest.mark.parametrize("negative", ["mean", "transfer"])
def test_worst_path_latency_enumerates_a_negative_latency(negative):
    # no loaded model holds one: near 2**53 the sums into J differ by one
    # and meet at K, and then M's mean, or a transfer into M from a negative
    # message size, brings L down to about 16, whose ulp is far below that
    # gap, so only the enumeration keeps the tie
    names = ["S", "X", "Y", "Z", "J", "K", "M"]
    drop = 16.0 - 2.0**53
    means = {"X": (2.0**53 - 1, 5.0), "Y": (2.0**53 - 4, 0.1), "Z": (2.0, 0.1), "J": (0.25, 0.0), "K": (2.0, 0.0),
             "M": (drop if negative == "mean" else 1.0, 0.0)}
    graph, _, assignment = _path_case(
        [(name, "source" if name == "S" else "operator", int(drop) if name == "K" else None) for name in names],
        [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4), (4, 5), (5, 6)],
        [],
        {i: ("d0", "v") for i in range(1, len(names))},
    )
    if negative == "transfer":
        assignment[6] = ("d1", "v")
    model = substrate.SubstrateModel(
        (substrate.Device("d0", "d0", "cpu", 1, 1e3, 0.0), substrate.Device("d1", "d1", "cpu", 1, 1e3, 0.0)),
        tuple(substrate.VariantProfile(op, "v", "cpu", mean, std, 0.0) for op, (mean, std) in means.items()),
    )
    latency, variability, path = scheduler.analytic_latency(graph, model, assignment)
    assert (path, variability) == ([0, 2, 3, 4, 5, 6], math.sqrt(0.1**2 + 0.1**2)) and 0.0 < latency < 20.0
    assert scheduler.worst_path_latency(graph, model, assignment) == (latency, variability)


# ---------------------------------------------------------------------------
# contract decomposition


def _decompose_simple(bound_ms, lats):
    lines = ["require S { frequency >= 1 Hz }"]
    prev = "S"
    for i in range(len(lats)):
        lines.append(f"require F{i} {{ frequency >= 1 Hz }}")
        lines.append(f"node r{i} = F{i}({prev})")
        prev = f"r{i}"
    ast, _ = dsl.parse_text("\n".join(lines))
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": f"F{i}", "variant": "base", "class": "cpu", "lat_ms_mean": lat, "lat_ms_std": 0, "energy_mj": 0}
                for i, lat in enumerate(lats)
            ],
        }
    )
    assignment = {g.by_name(f"F{i}").id: ("d", "base") for i in range(len(lats))}
    path = G.critical_paths(g)[0]
    return scheduler.decompose_contract(bound_ms, path, g, model, assignment)


def test_decompose_proportional_identity():
    subs = _decompose_simple(10.0, [2.0, 3.0, 5.0])
    assert [s.latency_budget_ms for s in subs] == [2.0, 3.0, 5.0]


def test_decompose_equal_split():
    subs = _decompose_simple(10.0, [4.0, 4.0, 4.0, 4.0])
    assert [s.latency_budget_ms for s in subs] == [2.5, 2.5, 2.5, 2.5]


def test_decompose_orb_budgets(orb):
    _, g, model = orb
    mapping = scheduler.heft_schedule(g, model)
    path = G.critical_paths(g)[0]
    subs = scheduler.decompose_contract(33.3, path, g, model, mapping.assignment)
    by_name = {g.node(s.node_id).name: s.latency_budget_ms for s in subs}
    assert by_name["Keypoints"] == pytest.approx(14.8, abs=1e-3)
    assert by_name["Descriptors"] == pytest.approx(7.4, abs=1e-3)
    assert by_name["Matching"] == pytest.approx(11.1, abs=1e-3)
    assert sum(round(s.latency_budget_ms * 1000) for s in subs) == round(33.3 * 1000)


def test_decompose_conservation_random():
    rng = random.Random(0xDEC0)
    for _ in range(1000):
        n = rng.randint(1, 8)
        lats = [rng.uniform(0.1, 50.0) for _ in range(n)]
        bound = rng.uniform(0.5, 500.0)
        subs = _decompose_simple(bound, lats)
        bound_us = round(bound * 1000)
        budgets_us = [round(s.latency_budget_ms * 1000) for s in subs]
        assert sum(budgets_us) == bound_us
        total = sum(lats)
        for us, lat in zip(budgets_us, lats):
            assert abs(us - bound_us * lat / total) <= 1.0  # within 1 us of exact


def test_decompose_empty_path():
    ast, _ = dsl.parse_text("require S { frequency >= 1 Hz }\nrequire F { frequency >= 1 Hz }\nnode x = F(S)")
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": "F", "variant": "base", "class": "cpu", "lat_ms_mean": 1.0, "lat_ms_std": 0, "energy_mj": 0}
            ],
        }
    )
    with pytest.raises(StackError) as err:
        scheduler.decompose_contract(10.0, [g.by_name("S").id], g, model, {})
    assert err.value.code == "E-EMPTYPATH"


# ---------------------------------------------------------------------------
# export


def test_mapping_and_report_json(robot_vacuum):
    program, g, model = robot_vacuum
    report = scheduler.admit(g, model, list(program.contracts))
    doc = json.loads(scheduler.report_to_json(report, g))
    assert doc["verdict"] == "feasible"
    assert {row["node"] for row in doc["mapping"]["assignment"]} == {"2DPerception", "Localization", "Control"}
    assert set(doc["mapping"]) == {"assignment", "makespan_ms", "utilization"}
