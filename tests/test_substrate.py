import json

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from amstack import dsl, fixtures, graph as G, substrate
from amstack.errors import StackError


def test_load_av_fixture():
    model = substrate.load_profiles(fixtures.path("av_substrate.json"))
    assert len(model.devices) == 2
    assert {d.device_class for d in model.devices} == {"cpu", "gpu"}
    ops = {p.operator for p in model.profiles}
    for op in ("2DPerception", "Planning", "Control", "Tracking"):
        assert op in ops


def test_schema_rejects_empty_devices(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"devices": [], "profiles": []}))
    with pytest.raises(StackError) as err:
        substrate.load_profiles(str(p))
    assert err.value.code == "E-SCHEMA"


def test_schema_rejects_unknown_field(tmp_path):
    doc = {
        "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 1, "ghz": 3}],
        "profiles": [],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(StackError) as err:
        substrate.load_profiles(str(p))
    assert err.value.code == "E-SCHEMA"
    assert "ghz" in str(err.value)


def test_duplicate_profile_key(tmp_path):
    row = {"op": "F", "variant": "v", "class": "cpu", "lat_ms_mean": 1.0, "lat_ms_std": 0.0, "energy_mj": 0.0}
    doc = {
        "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 1}],
        "profiles": [row, dict(row)],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(StackError) as err:
        substrate.load_profiles(str(p))
    assert err.value.code == "E-DUPKEY"


def test_missing_file_is_io_error():
    with pytest.raises(StackError) as err:
        substrate.load_profiles("/does/not/exist.json")
    assert err.value.code == "E-IO"


def test_query_sorted_and_empty(orb):
    _, _, model = orb
    profs = substrate.query(model, "Keypoints", "gpu")
    assert [p.variant for p in profs] == ["fast", "accurate"]
    assert substrate.query(model, "NoSuchOp", "cpu") == []


def test_query_control_single_profile(av):
    _, _, model = av
    assert len(substrate.query(model, "Control", "cpu")) == 1


def test_query_tie_break_on_variant_name():
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": "F", "variant": "zeta", "class": "cpu", "lat_ms_mean": 2.0, "lat_ms_std": 0, "energy_mj": 0},
                {"op": "F", "variant": "alpha", "class": "cpu", "lat_ms_mean": 2.0, "lat_ms_std": 0, "energy_mj": 0},
            ],
        }
    )
    assert [p.variant for p in substrate.query(model, "F", "cpu")] == ["alpha", "zeta"]


def test_coverage_av_clean(av):
    _, g, model = av
    assert substrate.validate_coverage(model, g) == []


def _tiny_graph(map_stmt=""):
    text = f"require S {{ frequency >= 10 Hz }}\nrequire Foo {{ frequency >= 10 Hz }}\nnode x = Foo(S)\n{map_stmt}"
    ast, _ = dsl.parse_text(text)
    resolved, _ = dsl.resolve(ast)
    g, _ = G.lower(resolved)
    return g


def test_coverage_missing_profile():
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [],
        }
    )
    diags = substrate.validate_coverage(model, _tiny_graph())
    assert [d.code for d in diags] == ["E-NOPROFILE"]


def test_coverage_map_conflict():
    model = substrate.model_from_dict(
        {
            "devices": [{"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}],
            "profiles": [
                {"op": "Foo", "variant": "base", "class": "cpu", "lat_ms_mean": 1.0, "lat_ms_std": 0, "energy_mj": 0}
            ],
        }
    )
    diags = substrate.validate_coverage(model, _tiny_graph("require_map Foo on fpga"))
    assert [d.code for d in diags] == ["E-MAPCONFLICT"]


def test_coverage_monotone_in_profiles():
    base = {
        "devices": [
            {"id": "c", "name": "c", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0},
            {"id": "f", "name": "f", "class": "fpga", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0},
        ],
        "profiles": [],
    }
    g = _tiny_graph("require_map Foo on fpga")
    sparse = substrate.model_from_dict(base)
    n_before = len(substrate.validate_coverage(sparse, g))
    base["profiles"].append(
        {"op": "Foo", "variant": "base", "class": "fpga", "lat_ms_mean": 1.0, "lat_ms_std": 0, "energy_mj": 0}
    )
    richer = substrate.model_from_dict(base)
    assert len(substrate.validate_coverage(richer, g)) <= n_before


def test_comm_cost_model(diamond):
    _, _, model = diamond
    assert model.comm_cost_ms("d0", "d0", 10**6) == 0.0
    assert model.comm_cost_ms("d0", "d1", 500_000) == pytest.approx(5.0)
    assert model.comm_cost_ms("d0", "d1", None) == 0.0


# ---------------------------------------------------------------------------
# field types: finite numbers (not bools) and string ids

_DEVICE = {"id": "d", "name": "d", "class": "cpu", "cores": 1, "link_bw_bps": 1e9, "idle_w": 0}
_PROFILE = {"op": "F", "variant": "v", "class": "cpu", "lat_ms_mean": 1.0, "lat_ms_std": 0.0, "energy_mj": 0.0}


@pytest.mark.parametrize(
    "table, key, value",
    [
        ("devices", "id", 7),
        ("devices", "name", None),
        ("devices", "cores", True),
        ("devices", "cores", 2.0),
        ("devices", "link_bw_bps", float("inf")),
        ("devices", "link_bw_bps", False),
        ("devices", "idle_w", float("nan")),
        pytest.param("devices", "idle_w", 10**400, id="devices-idle_w-int-beyond-float"),
        ("profiles", "op", 3),
        ("profiles", "variant", ["v"]),
        ("profiles", "lat_ms_mean", float("nan")),
        ("profiles", "lat_ms_mean", True),
        ("profiles", "lat_ms_std", float("inf")),
        ("profiles", "energy_mj", "1"),
    ],
)
def test_schema_rejects_bad_field_types(tmp_path, table, key, value):
    doc = {"devices": [dict(_DEVICE)], "profiles": [dict(_PROFILE)]}
    doc[table][0][key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))  # writes NaN and Infinity as json.load accepts them
    with pytest.raises(StackError) as err:
        substrate.load_profiles(str(p))
    assert err.value.code == "E-SCHEMA"
    assert err.value.path == f"/{table}/0/{key}"


# ---------------------------------------------------------------------------
# indexed lookups against the scan oracles

_IDS, _OPS, _VARIANTS, _CLASSES = "abc", "FG", "xyz", ("cpu", "gpu", "dsp")


@st.composite
def _models(draw):
    """Platform models with repeated device ids, repeated profile keys and
    latency ties, which the file loader rejects but the model accepts."""
    devices = tuple(
        substrate.Device(draw(st.sampled_from(_IDS)), f"dev{i}", draw(st.sampled_from(_CLASSES)), 1, 1e9, 0.0)
        for i in range(draw(st.integers(1, 4)))
    )
    profiles = tuple(
        substrate.VariantProfile(
            draw(st.sampled_from(_OPS)),
            draw(st.sampled_from(_VARIANTS)),
            draw(st.sampled_from(_CLASSES)),
            draw(st.sampled_from([1.0, 2.0, 3.0])),
            0.0,
            float(i),  # tells apart profiles that tie on every sort key
        )
        for i in range(draw(st.integers(0, 10)))
    )
    return substrate.SubstrateModel(devices, profiles)


def _same(lookup, oracle):
    try:
        expected = oracle()
    except KeyError:
        with pytest.raises(KeyError):
            lookup()
    else:
        assert lookup() is expected


@settings(max_examples=300, deadline=None)
@given(_models())
def test_model_lookups_match_scan_oracles(model):
    for dev_id in _IDS:
        _same(lambda: model.device(dev_id), lambda: _oracles.device(model, dev_id))
    for op in _OPS:
        assert model.classes_for(op) == _oracles.classes_for(model, op)
        for cls in _CLASSES:
            hits = substrate.query(model, op, cls)
            assert [id(p) for p in hits] == [id(p) for p in _oracles.query(model, op, cls)]
            hits.clear()  # a caller's list is its own
            assert substrate.query(model, op, cls) == _oracles.query(model, op, cls)
            for var in _VARIANTS:
                _same(lambda: model.profile(op, var, cls), lambda: _oracles.profile(model, op, var, cls))


def test_model_indexes_are_not_fields(orb):
    _, _, model = orb
    fresh = substrate.SubstrateModel(model.devices, model.profiles)
    assert model.profile("Keypoints", "fast", "gpu") and model.device("gpu0") and model.classes_for("Matching")
    assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)
