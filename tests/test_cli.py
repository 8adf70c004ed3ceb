import json
import os

from amstack import fixtures
from amstack.cli import main


RV = fixtures.path("robot_vacuum.amg")
RVS = fixtures.path("robot_vacuum_substrate.json")
AV = fixtures.path("av.amg")
AVS = fixtures.path("av_substrate.json")
ORB = fixtures.path("orb.amg")
ORBS = fixtures.path("orb_substrate.json")
ORB_DIST = fixtures.path("orb_disturbance.json")


def _write_json(path, doc):
    path.write_text(json.dumps(doc))  # NaN and Infinity go out as json.load accepts them
    return str(path)


def _bad_inputs(tmp_path):
    """name -> (argv, what the error names) of one rejected input each; none
    starts an unbounded run."""
    profiles = json.loads(open(RVS).read())
    profiles["profiles"][0]["lat_ms_mean"] = float("nan")
    nan_profiles = _write_json(tmp_path / "nan.json", profiles)
    bad_factor = _write_json(tmp_path / "dist.json", [{"op": "Matching", "factor": "abc", "t0": 0, "t1": 1}])
    at_zero = tmp_path / "t0.jsonl"
    at_zero.write_text('{"detail": {}, "kind": "miss", "node": "F", "t": 0.0}\n')
    return {
        "nan-profile": (["check", RV, "--profiles", nan_profiles], "(at /profiles/0/lat_ms_mean)"),
        "bad-factor": (["simulate", ORB, "--profiles", ORBS, "--disturb", bad_factor], "(at /0/factor)"),
        "duration-nan": (["simulate", RV, "--profiles", RVS, "--duration", "nan"], "duration"),
        "duration-negative": (["simulate", RV, "--profiles", RVS, "--duration", "-1"], "duration"),
        "report-duration-zero": (["report", str(at_zero), "--duration", "0"], "duration"),
        "report-all-at-zero": (["report", str(at_zero)], "duration"),
    }


def test_bad_inputs_are_schema_errors_without_traceback(tmp_path, capsys, caplog):
    for name, (argv, names) in _bad_inputs(tmp_path).items():
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        assert "error[E-SCHEMA]" in err and names in err and "Traceback" not in err, (name, err)
    assert not caplog.records  # the E-INTERNAL path logs the traceback here


def test_malformed_traces_exit_1_without_traceback(tmp_path, capsys, caplog):
    lines = [
        '{"detail": {"job": 0}, "kind": "finish", "node": "F", "t": 0.5}',
        '{"detail": {}, "kind": "miss", "node": "F", "t": 0.1}\n{"detail": {}, "kind": "miss", "node": "F", "t": "x"}',
        '{"detail": {"cores": 0, "device": "d0", "job": 0, "lane": 0}, "kind": "start", "node": "F", "t": 0.0}',
        '{"detail": {}, "kind": "miss", "node": 3, "t": 0.1}',
        '{"detail": {"job": 0, "staleness_ms": [1]}, "kind": "activate", "node": "F", "t": 0.1}',
        '{"detail": {"stale": 5}, "kind": "emit", "node": "F", "t": 0.1}',
        '{"detail": {}, "kind": "miss", "node": "F", "t": NaN}',
        '{"detail": {"job": 0, "response_ms": "x"}, "kind": "finish", "node": "F", "t": 0.5}',
        '{"detail": {"job": 0, "response_ms": "x"}, "kind": "finish", "node": "F", "t": 0.5}\n'
        '{"detail": {"job": 1, "response_ms": 1.0}, "kind": "finish", "node": "F", "t": 0.6}',
        '{"detail": {"e2e_ms": "y", "job": 0, "response_ms": 1.0, "sink": true}, "kind": "finish", "node": "F", "t": 0.5}',
        '{"detail": {"job": 0, "staleness_ms": {"0": Infinity}}, "kind": "activate", "node": "F", "t": 0.1}',
        '{"detail": {"job": 0, "staleness_ms": {"0": NaN}}, "kind": "activate", "node": "F", "t": 0.1}',
        '{"detail": {"activation_t": 0.1, "age_ms": 1.0, "stale": {"0": false}, "staleness_ms": {"0": Infinity}}, '
        '"kind": "emit", "node": "F", "t": 0.1}',
        '{"detail": {"activation_t": 0.1, "age_ms": 1.0, "stale": {"0": false}, "staleness_ms": {"0": NaN}}, '
        '"kind": "emit", "node": "F", "t": 0.1}',
    ]
    for i, text in enumerate(lines):
        path = tmp_path / f"trace{i}.jsonl"
        path.write_text(text + "\n")
        assert main(["report", str(path), "--duration", "1"]) == 1, text
        err = capsys.readouterr().err
        assert "error[E-MALFORMED]" in err and "Traceback" not in err, (text, err)
    assert not caplog.records


def test_check_feasible_exit_0(capsys):
    assert main(["check", RV, "--profiles", RVS]) == 0
    assert "feasible" in capsys.readouterr().out


def test_check_impossible_bound_exit_2(capsys):
    rc = main(["check", RV, "--profiles", RVS, "--contract", "end_to_end latency <= 0.001 ms"])
    assert rc == 2
    assert "LATENCY" in capsys.readouterr().out


def test_missing_file_exit_1(capsys):
    assert main(["check", "/no/such/file.amg", "--profiles", RVS]) == 1
    assert "E-IO" in capsys.readouterr().err


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.amg"
    bad.write_text("node x = F(\n")
    assert main(["check", str(bad), "--profiles", RVS]) == 1
    assert "E-PAREN" in capsys.readouterr().err


def test_unknown_operator_envelope_exit_1(tmp_path, capsys):
    prog = tmp_path / "p.amg"
    prog.write_text("require S { frequency >= 10 Hz }\nrequire Foo { frequency >= 10 Hz }\nnode x = Foo(S)\n")
    rc = main(["envelope", str(prog), "--profiles", RVS])
    assert rc == 1
    assert "E-NOPROFILE" in capsys.readouterr().err


def test_simulate_writes_outputs_exit_0(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", AV, "--profiles", AVS, "--duration", "1.0", "--out", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["per_node"]["Control"]["emits"] == 100
    assert (out / "trace.jsonl").exists()


def test_simulate_contract_violation_exit_3():
    rc = main(["simulate", ORB, "--profiles", ORBS, "--duration", "3.0", "--disturb", ORB_DIST])
    assert rc == 3


def test_simulate_adaptation_recovers_exit_0():
    rc = main(["simulate", ORB, "--profiles", ORBS, "--duration", "3.0", "--disturb", ORB_DIST, "--adapt"])
    assert rc == 0


def test_simulate_infeasible_requires_force(tmp_path, capsys):
    rc = main(["simulate", RV, "--profiles", RVS, "--contract", "end_to_end latency <= 0.001 ms"])
    assert rc == 2
    rc = main(
        ["simulate", RV, "--profiles", RVS, "--contract", "end_to_end latency <= 0.001 ms", "--force"]
    )
    assert rc == 3  # runs, but the impossible contract is violated


def test_envelope_limit_one(tmp_path, capsys):
    out = tmp_path / "env"
    rc = main(["envelope", ORB, "--profiles", ORBS, "--limit", "1", "--out", str(out), "--seed", "42"])
    assert rc == 0
    lines = (out / "envelope.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + the single evaluated config


def test_envelope_rows_undominated(tmp_path):
    out = tmp_path / "env"
    assert main(["envelope", ORB, "--profiles", ORBS, "--out", str(out)]) == 0
    rows = (out / "envelope.csv").read_text().strip().splitlines()[1:]
    assert len(rows) >= 1
    vals = [tuple(map(float, r.split(",")[:4])) for r in rows]
    for a in vals:
        for b in vals:
            dominated = (
                b[0] <= a[0] and b[2] <= a[2] and b[3] <= a[3] and b[1] >= a[1]
                and (b[0] < a[0] or b[2] < a[2] or b[3] < a[3] or b[1] > a[1])
            )
            assert not dominated


def test_report_roundtrip(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", RV, "--profiles", RVS, "--duration", "1.0", "--out", str(out)]) == 0
    rep = tmp_path / "rep"
    rc = main(["report", str(out / "trace.jsonl"), "--duration", "1.0", "--out", str(rep)])
    assert rc == 0
    sim_metrics = json.loads((out / "metrics.json").read_text())
    rep_metrics = json.loads((rep / "metrics.json").read_text())
    # replay has no contract list, everything else matches
    sim_metrics["contracts"] = []
    assert rep_metrics == sim_metrics


def test_schedule_json_format(capsys):
    rc = main(["schedule", AV, "--profiles", AVS, "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert {row["node"] for row in doc["assignment"]} >= {"Planning", "Control"}


def _run_twice(tmp_path, name, argv_fn):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{name}-{tag}"
        assert argv_fn(str(out)) in (0, 2, 3)
        blob = {}
        for f in sorted(os.listdir(out)):
            blob[f] = (out / f).read_bytes()
        outs.append(blob)
    assert outs[0] == outs[1], f"{name} outputs differ between identical runs"


def test_outputs_byte_stable(tmp_path):
    _run_twice(tmp_path, "check", lambda o: main(["check", AV, "--profiles", AVS, "--out", o]))
    _run_twice(tmp_path, "schedule", lambda o: main(["schedule", AV, "--profiles", AVS, "--out", o]))
    _run_twice(
        tmp_path,
        "envelope",
        lambda o: main(["envelope", ORB, "--profiles", ORBS, "--limit", "16", "--seed", "9", "--out", o]),
    )
    _run_twice(
        tmp_path,
        "simulate",
        lambda o: main(
            ["simulate", ORB, "--profiles", ORBS, "--duration", "1.0", "--stochastic", "--seed", "7", "--out", o]
        ),
    )
