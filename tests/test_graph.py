import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from amstack import dsl, graph as G
from amstack.errors import StackError


def _lower(text):
    ast, diags = dsl.parse_text(text)
    assert ast is not None, diags
    resolved, rdiags = dsl.resolve(ast)
    assert resolved is not None, rdiags
    return G.lower(resolved)


# ---------------------------------------------------------------------------
# lower


def test_lower_robot_vacuum_shape(robot_vacuum):
    _, g, _ = robot_vacuum
    assert len(g.nodes) == 7
    assert len(g.edges) == 7
    names = {(g.node(e.producer).name, g.node(e.consumer).name) for e in g.edges}
    assert names == {
        ("IR", "2DPerception"),
        ("Camera", "2DPerception"),
        ("Camera", "Localization"),
        ("IMU", "Localization"),
        ("WO", "Localization"),
        ("2DPerception", "Control"),
        ("Localization", "Control"),
    }
    freqs = {n.name: n.required_freq_hz for n in g.nodes}
    assert freqs == {
        "IR": 50.0, "Camera": 30.0, "IMU": 100.0, "WO": 50.0,
        "2DPerception": 50.0, "Localization": 50.0, "Control": 50.0,
    }


def test_lower_av_shape(av):
    _, g, _ = av
    assert len(g.nodes) == 12
    sinks = {g.node(i).name for i in g.sink_ids}
    assert sinks == {"Control"}
    assert g.by_name("Control").required_freq_hz == 100.0
    assert g.by_name("Camera").required_freq_hz == 30.0
    assert g.by_name("GNSS").required_freq_hz == 100.0


def test_lower_single_binding():
    g, diags = _lower("require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\nnode x = F(S)")
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert not diags


def test_lower_orphan_warning():
    g, diags = _lower(
        "require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\n"
        "require Spare { frequency >= 5 Hz }\nnode x = F(S)"
    )
    assert len(g.nodes) == 2
    assert any(d.code == "E-ORPHAN" for d in diags)


def test_lower_requirement_beats_hint():
    g, _ = _lower(
        "require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\nnode x = F(S)\n"
        "hint F on gpu\nrequire_map F on fpga"
    )
    assert g.by_name("F").mapping_constraint == ("fpga", "requirement")


def test_lower_is_deterministic(av):
    program, g, _ = av
    g2, _ = G.lower(program)
    assert g == g2


# ---------------------------------------------------------------------------
# rates


def test_rate_oversampling_av(av):
    _, g, _ = av
    report = G.rate_analysis(g)
    plan, ctrl = g.by_name("Planning"), g.by_name("Control")
    assert report.edge_oversampling[(plan.id, ctrl.id, 0)] == 10.0
    assert any("Control" in d.message for d in report.warnings)
    track, pred = g.by_name("Tracking"), g.by_name("Prediction")
    assert report.edge_oversampling[(track.id, pred.id, 0)] == 1.0
    cam, perc = g.by_name("Camera"), g.by_name("2DPerception")
    assert report.edge_oversampling[(cam.id, perc.id, 0)] == 1.0
    # warnings exactly on factor > 1 edges
    flagged = {k for k, v in report.edge_oversampling.items() if v > 1.0}
    assert len(report.warnings) == len(flagged)


# ---------------------------------------------------------------------------
# bandwidth


def test_bandwidth_av_reproduces_stage_rates(av):
    _, g, _ = av
    report = G.aggregate_bandwidth(g)
    sensing = report.stage_cut_bps[0]
    assert abs(sensing - 100e6) <= 0.10 * 100e6
    assert abs(report.node_output_bps[g.by_name("PerceptionFusion").id] - 5e6) <= 0.10 * 5e6
    assert abs(report.node_output_bps[g.by_name("Prediction").id] - 200e3) <= 0.10 * 200e3
    assert abs(report.node_output_bps[g.by_name("Control").id] - 5e3) <= 0.10 * 5e3


def test_bandwidth_simple_product():
    g, _ = _lower(
        "require S { frequency >= 10 Hz; message_size = 1000 B }\n"
        "require F { frequency >= 10 Hz; message_size = 1 B }\nnode x = F(S)"
    )
    report = G.aggregate_bandwidth(g)
    s, f = g.by_name("S"), g.by_name("F")
    assert report.per_edge_bps[(s.id, f.id, 0)] == 10_000.0


def test_bandwidth_missing_size_raises():
    g, _ = _lower("require S { frequency >= 10 Hz }\nrequire F { frequency >= 10 Hz }\nnode x = F(S)")
    with pytest.raises(StackError) as err:
        G.aggregate_bandwidth(g)
    assert err.value.code == "E-NOSIZE"


def test_bandwidth_cut_conservation(av):
    # any topological cut total equals the sum of its crossing edges
    _, g, _ = av
    report = G.aggregate_bandwidth(g)
    depth = g.depth()
    for k in range(1, max(depth.values()) + 1):
        upstream = {i for i, d in depth.items() if d < k}
        assert math.isclose(_oracles.cut_bandwidth(g, upstream), report.stage_cut_bps[k - 1])


# ---------------------------------------------------------------------------
# buffers


def test_buffer_sizing_formula_cases():
    for pr, cr, expected in ((100, 10, 11), (10, 10, 2), (10, 100, 11)):
        g, _ = _lower(
            f"require S {{ frequency >= {pr} Hz }}\nrequire F {{ frequency >= {cr} Hz }}\nnode x = F(S)"
        )
        sized = G.buffer_sizing(g)
        assert sized.edges[0].buffer_capacity == expected


def test_buffer_sizing_symmetric_and_at_least_two():
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.randint(1, 500), rng.randint(1, 500)
        g1, _ = _lower(f"require S {{ frequency >= {a} Hz }}\nrequire F {{ frequency >= {b} Hz }}\nnode x = F(S)")
        g2, _ = _lower(f"require S {{ frequency >= {b} Hz }}\nrequire F {{ frequency >= {a} Hz }}\nnode x = F(S)")
        c1 = G.buffer_sizing(g1).edges[0].buffer_capacity
        c2 = G.buffer_sizing(g2).edges[0].buffer_capacity
        assert c1 == c2 >= 2


def test_total_buffer_bytes(robot_vacuum):
    _, g, _ = robot_vacuum
    sized = G.buffer_sizing(g)
    total = G.total_buffer_bytes(sized)
    expected = sum(
        e.buffer_capacity * g.node(e.producer).message_size for e in sized.edges
    )
    assert total == expected > 0


# ---------------------------------------------------------------------------
# critical paths


def test_critical_paths_av(av):
    _, g, _ = av
    paths = G.critical_paths(g)
    names = [[g.node(i).name for i in p] for p in paths]
    assert names[0] == [
        "Camera", "2DPerception", "PerceptionFusion", "Tracking", "Prediction", "Planning", "Control",
    ]
    assert len(names[0]) - 1 == 6  # hops
    assert all(len(a) >= len(b) for a, b in zip(names, names[1:]))


def test_critical_paths_robot_vacuum(robot_vacuum):
    _, g, _ = robot_vacuum
    paths = [[g.node(i).name for i in p] for p in G.critical_paths(g)]
    assert ["IR", "2DPerception", "Control"] in paths
    assert all(len(p) == 3 for p in paths)


def test_critical_paths_single_node():
    g = G.ComputationGraph((G.Node(0, "S", "source", 10.0),), ())
    assert G.critical_paths(g) == []


def test_critical_paths_bound():
    # a ladder of 2-input operators doubles the path count per stage
    lines = ["require S0 { frequency >= 1 Hz }", "require S1 { frequency >= 1 Hz }"]
    for i in range(14):
        lines.append(f"require F{i} {{ frequency >= 1 Hz }}")
    prev = ["S0", "S1"]
    for i in range(14):
        lines.append(f"node r{i} = F{i}({prev[0]}, {prev[1]})")
        prev = [prev[0] if i % 2 else f"r{i}", f"r{i}"]
    lines.append("require Join { frequency >= 1 Hz }")
    lines.append(f"node out = Join({prev[1]})")
    g, _ = _lower("\n".join(lines))
    with pytest.raises(StackError) as err:
        G.critical_paths(g, bound=10)
    assert err.value.code == "E-PATHBOUND"


# ---------------------------------------------------------------------------
# export


def test_graph_dot_output(robot_vacuum):
    _, g, _ = robot_vacuum
    dot = G.graph_to_dot(g)
    assert dot.startswith("digraph")
    assert "Control" in dot and "->" in dot


def test_bandwidth_zero_message_size_is_zero():
    g = G.ComputationGraph(
        (G.Node(0, "S", "source", 10.0, 0), G.Node(1, "F", "operator", 10.0, 0)),
        (G.Edge(0, 1, 0),),
    )
    report = G.aggregate_bandwidth(g)
    assert report.per_edge_bps[(0, 1, 0)] == 0.0
    assert report.stage_cut_bps == [0.0]


# ---------------------------------------------------------------------------
# indexed lookups against the scan oracles


@st.composite
def _graphs(draw):
    """Small graphs with repeated names, unsorted edges and, half the time,
    cycles (self-loops included)."""
    n = draw(st.integers(1, 9))
    nodes = tuple(
        G.Node(i, draw(st.sampled_from("ABCD")), draw(st.sampled_from(["source", "operator"])), 10.0)
        for i in range(n)
    )
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 2))
    edges = [G.Edge(p, c, port) for p, c, port in draw(st.lists(ends, max_size=18))]
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        edges = [e for e in edges if rank[e.producer] < rank[e.consumer]]
    return G.ComputationGraph(nodes, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_graph_lookups_match_scan_oracles(g):
    for i in range(len(g.nodes) + 1):
        assert list(g.in_edges(i)) == _oracles.in_edges(g, i)
        assert list(g.out_edges(i)) == _oracles.out_edges(g, i)
    assert g.source_ids == _oracles.source_ids(g)
    assert g.sink_ids == _oracles.sink_ids(g)
    for name in "ABCDE":
        try:
            expected = _oracles.by_name(g, name)
        except KeyError:
            with pytest.raises(KeyError):
                g.by_name(name)
        else:
            assert g.by_name(name) is expected
    try:
        expected = _oracles.topo_order(g)
    except StackError:
        with pytest.raises(StackError) as err:
            g.topo_order()
        assert err.value.code == "E-CYCLE"
    else:
        assert g.topo_order() == expected


def test_graph_indexes_are_read_only_and_not_fields(av):
    _, g, _ = av
    fresh = G.ComputationGraph(g.nodes, g.edges)
    control = g.by_name("Control")  # builds the indexes of g, not of fresh
    assert isinstance(g.in_edges(control.id), tuple) and g.sink_ids == {control.id}
    assert isinstance(g.sink_ids, frozenset) and isinstance(g.source_ids, frozenset)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    with pytest.raises(TypeError):
        g.name_index["Control"] = g.node(0)
