"""The trace codec: the templated writer against json.dumps, what the
per-line reader accepts and rejects, and the collector state around the
calls that pause it."""

import gc
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from amstack import graph as G, runtime, scheduler
from amstack.errors import StackError

# ---------------------------------------------------------------------------
# writer: byte-equal to json.dumps(event, sort_keys=True)

_NAMES = st.one_of(
    st.sampled_from(["Control", "cpu0", "Käfer", "相机", "a\"b\\c", "\U0001f916", ""]),
    st.text(max_size=6),
)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1, 2.5e-7]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_INTS = st.one_of(st.sampled_from([0, 2**63, 2**64 + 1, -(2**63) - 1]), st.integers(-(2**70), 2**70))
# values the templates do not write themselves: json.dumps writes them, or
# raises for np.float32 in both writers
_ODD = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None, True, False, "x", 3, 0.5]),
    st.builds(list),
    st.builds(dict),
    _FLOATS.map(np.float64),
    st.floats(-1e6, 1e6).map(np.float32),
    _INTS,
)
_PORTS = st.one_of(st.sampled_from(["0", "1", "2", "10", "ü"]), st.text(max_size=3))


def _ports(values):
    return st.dictionaries(_PORTS, values, max_size=4)


def _shapes():
    """(kind, detail strategy) for every kind the simulator logs."""
    base = {"p95_ms": _FLOATS, "budget_ms": _FLOATS}
    return [
        ("activate", st.fixed_dictionaries({"job": _INTS, "staleness_ms": _ports(st.one_of(st.none(), _FLOATS))})),
        ("start", st.fixed_dictionaries({"job": _INTS, "device": _NAMES, "lane": _INTS, "cores": _INTS})),
        (
            "finish",
            st.fixed_dictionaries(
                {
                    "job": _INTS,
                    "device": _NAMES,
                    "lane": _INTS,
                    "activation_t": _FLOATS,
                    "service_ms": _FLOATS,
                    "response_ms": _FLOATS,
                    "late": st.booleans(),
                    "energy_mj": _FLOATS,
                    "e2e_ms": st.one_of(st.none(), _FLOATS),
                    "sink": st.booleans(),
                }
            ),
        ),
        ("miss", st.fixed_dictionaries({"job": _INTS, "deadline_t": _FLOATS})),
        ("emit", st.fixed_dictionaries({"produced_t": _FLOATS})),
        (
            "emit",
            st.fixed_dictionaries(
                {
                    "activation_t": _FLOATS,
                    "staleness_ms": _ports(st.one_of(st.none(), _FLOATS)),
                    "stale": _ports(st.booleans()),
                    "age_ms": st.one_of(st.none(), _FLOATS),
                }
            ),
        ),
        ("remap", st.fixed_dictionaries({**base, "unresolved": st.just(True), "device": _NAMES})),
        (
            "variant_switch",
            st.fixed_dictionaries({**base, "device": _NAMES, "from_variant": _NAMES, "to_variant": _NAMES}),
        ),
    ]


_MUTATIONS = ["none", "none", "value", "value", "port-value", "drop", "extra", "int-port", "t", "node", "kind"]


@st.composite
def _events(draw):
    kind, details = draw(st.sampled_from(_shapes()))
    detail = draw(details)
    t = draw(_FLOATS)
    node = draw(_NAMES)
    mutation = draw(st.sampled_from(_MUTATIONS))
    ports = [v for v in detail.values() if isinstance(v, dict)]
    if mutation == "value" and detail:
        detail[draw(st.sampled_from(sorted(detail)))] = draw(_ODD)
    elif mutation == "port-value" and ports:
        ports[-1][draw(_PORTS)] = draw(_ODD)
    elif mutation == "drop" and detail:
        del detail[draw(st.sampled_from(sorted(detail)))]
    elif mutation == "extra":
        detail[draw(_NAMES)] = draw(st.one_of(_FLOATS, _ODD))
    elif mutation == "int-port" and ports:
        ports[0][draw(st.integers(0, 12))] = None
    elif mutation == "t":
        t = draw(_ODD)
    elif mutation == "node":
        node = draw(_ODD)
    elif mutation == "kind":
        kind = draw(st.one_of(_NAMES, _ODD))
    return runtime.TraceEvent(t, node, kind, detail)


def _outcome(write, trace):
    try:
        return write(trace)
    except (TypeError, ValueError) as exc:  # e.g. np.float32, or port keys of mixed types
        return type(exc), str(exc)


_E = runtime.TraceEvent


def _finish(**changes):
    detail = {"job": 3, "device": "gpu0", "lane": 0, "activation_t": 0.25, "service_ms": 4.0, "response_ms": 5.0,
              "late": False, "energy_mj": 1.5, "e2e_ms": 9.0, "sink": True}
    return _E(0.255, "Control", "finish", {**detail, **changes})


def _sink_emit(**changes):
    detail = {"activation_t": 0.25, "staleness_ms": {"0": 1.0}, "stale": {"0": False}, "age_ms": 2.0}
    return _E(0.26, "Control", "emit", {**detail, **changes})


@settings(max_examples=300, deadline=None)
@given(st.lists(_events(), max_size=8))
@example([_E(-0.0, "A", "miss", {"job": 2**64, "deadline_t": 5e-324})])
@example([_E(1e16, "Käfer", "start", {"job": 0, "device": "相机", "lane": 1, "cores": 2})])
@example([_E(0.5, "A", "activate", {"job": 1, "staleness_ms": {"2": 1.0, "10": None}})])
@example([_E(0.5, "A", "activate", {"job": 1, "staleness_ms": {2: 1.0, 10: None}})])
@example([_E(0.5, "A", "activate", {"job": 1, "staleness_ms": {2: 1.0, "10": None}})])
@example([_E(0.5, "A", "emit", {"produced_t": float("nan")})])
@example([_E(np.float64(0.5), "A", "emit", {"produced_t": np.float64(0.25)})])
@example([_E(0.5, "A", "emit", {"produced_t": np.float32(0.25)})])
@example([_E(0.5, "A", "miss", {"job": True, "deadline_t": 1})])
@example([_E(0.5, "A", "emit", {"activation_t": 0.4, "staleness_ms": {}, "stale": {"0": 1}, "age_ms": None})])
@example([_finish(), _finish(e2e_ms=None, late=True, sink=False), _sink_emit(), _sink_emit(age_ms=None, stale={})])
@example([_finish(late=1), _finish(sink=0), _finish(e2e_ms=float("inf")), _finish(job=1.0), _finish(device=7)])
@example([_finish(response_ms=float("nan")), _finish(energy_mj=3), _finish(activation_t=1e308, service_ms=1e308)])
@example([_sink_emit(age_ms=float("-inf")), _sink_emit(staleness_ms={"0": float("nan")}), _sink_emit(stale={"0": 1})])
@example([_E(0.5, "A", "activate", {"job": 1, "staleness_ms": {"0": float("inf"), "1": 2}})])
def test_writer_matches_json_dumps(events):
    trace = runtime.SimTrace(1.0, tuple(events))
    assert _outcome(runtime.trace_to_jsonl, trace) == _outcome(_oracles.trace_to_jsonl, trace)


def test_simulated_shapes_take_the_templates(av, monkeypatch):
    """Every event of a run without adaptation is written by a template:
    json.dumps is never called."""
    _, g, model = av
    stall = [runtime.Disturbance("Planning", 100.0, 0.3, 0.6)]
    config = runtime.SimConfig(duration_s=1.0)
    trace, _ = runtime.simulate(g, model, scheduler.heft_schedule(g, model), [], config, stall)
    shapes = {(e.kind, frozenset(e.detail)) for e in trace.events}
    assert {kind for kind, _ in shapes} == {"activate", "start", "finish", "miss", "emit"}
    assert len(shapes) == 6  # two emit shapes: source and sink
    expected = _oracles.trace_to_jsonl(trace)

    def no_dumps(*args, **kwargs):
        raise AssertionError("an event fell back to json.dumps")

    monkeypatch.setattr(json, "dumps", no_dumps)
    assert runtime.trace_to_jsonl(trace) == expected


# ---------------------------------------------------------------------------
# reader: one json.loads per line


_LINE = '{"detail": {}, "kind": "miss", "node": "F", "t": 0.1}'


def test_reader_skips_blank_lines_and_reads_crlf():
    text = f"\n   \n{_LINE}\r\n\t\r\n{_LINE}\r\n \n"
    trace = runtime.trace_from_jsonl(text, duration_s=1.0)
    assert trace.events == (runtime.TraceEvent(0.1, "F", "miss", {}),) * 2


@pytest.mark.parametrize(
    "text, line",
    [
        (f"{_LINE} {_LINE}\n", 1),  # two objects on one line
        (f"{_LINE}, {_LINE}\n", 1),  # ... joined by a comma
        (f"{_LINE}\n{_LINE[:20]}\n{_LINE[20:]}\n", 2),  # one object over two lines
        (f"[{_LINE}]\n", 1),
        (f"{_LINE}\n1.5\n", 2),
        ('"a string"\n', 1),
    ],
)
def test_reader_rejects_anything_but_one_object_per_line(text, line):
    with pytest.raises(StackError) as err:
        runtime.trace_from_jsonl(text, duration_s=1.0)
    assert err.value.code == "E-MALFORMED"
    assert f"bad trace line {line}:" in err.value.message


# ---------------------------------------------------------------------------
# the collector state around simulate and trace_from_jsonl


@pytest.fixture
def collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(robot_vacuum, collector, enabled):
    _, g, model = robot_vacuum
    (gc.enable if enabled else gc.disable)()
    trace, _ = runtime.simulate(G.buffer_sizing(g), model, scheduler.heft_schedule(g, model))
    assert gc.isenabled() is enabled
    runtime.trace_from_jsonl(runtime.trace_to_jsonl(trace))
    assert gc.isenabled() is enabled
    with pytest.raises(StackError):
        runtime.trace_from_jsonl(f"{_LINE}\nnot json\n")
    assert gc.isenabled() is enabled
