"""Tests of the benchmark itself: generator, checks, tracer, metric names.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import re

import pytest

import checks
import gen
import run
from amstack import dsl, envelope, graph as graphmod, runtime, scheduler, substrate
from tracer import Tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_generated(tmp_path, ops, seed=0):
    amg, profiles, counts = gen.write(ops, seed, str(tmp_path))
    program, _ = dsl.load_program(amg)
    graph, _ = graphmod.lower(program)
    return program, graph, substrate.load_profiles(profiles), counts


def test_generator_is_deterministic():
    assert gen.generate(21, 7) == gen.generate(21, 7)
    assert gen.generate(21, 7)[:2] != gen.generate(21, 8)[:2]


def test_generator_counts_do_not_depend_on_the_seed():
    want = {"edges": 400, "nodes": 203, "operators": 201, "paths": 2748779069440, "profiles": 904}
    assert all(gen.generate(201, seed)[2] == want for seed in range(5))


def test_generator_path_count_matches_enumeration(tmp_path):
    _, graph, _, counts = load_generated(tmp_path, 21)
    assert (counts["nodes"], counts["edges"]) == (len(graph.nodes), len(graph.edges))
    assert counts["paths"] == len(graphmod.critical_paths(graph)) == 40
    assert len(graph.sink_ids) == 1


@pytest.fixture
def small_envelope(tmp_path):
    _, graph, model, _ = load_generated(tmp_path, 11, seed=3)
    points = envelope.enumerate_configs(graph, model, limit=400, seed=3)
    return points, envelope.pareto_filter(points)


def test_frontier_check_accepts_the_pareto_filter(small_envelope):
    points, frontier = small_envelope
    assert checks.frontier_problems(points, frontier.points, frontier.dominated_count) == []


def test_frontier_check_rejects_an_added_dominated_point(small_envelope):
    points, frontier = small_envelope
    kept = {id(p) for p in frontier.points}
    dropped = next(p for p in points if id(p) not in kept)
    bad = list(frontier.points) + [dropped]
    assert checks.frontier_problems(points, bad, frontier.dominated_count - 1)


def test_frontier_check_rejects_a_dropped_frontier_point(small_envelope):
    points, frontier = small_envelope
    bad = list(frontier.points)[1:]
    assert checks.frontier_problems(points, bad, frontier.dominated_count + 1)


def test_frontier_check_rejects_a_wrong_dominated_count(small_envelope):
    points, frontier = small_envelope
    assert checks.frontier_problems(points, frontier.points, frontier.dominated_count + 1)


def test_replay_check_rejects_a_perturbed_report(tmp_path):
    program, graph, model, _ = load_generated(tmp_path, 11)
    contracts = list(program.contracts)
    mapping = scheduler.heft_schedule(graph, model)
    trace, metrics = runtime.simulate(graph, model, mapping, contracts, runtime.SimConfig(duration_s=2.0))
    parsed = runtime.trace_from_jsonl(runtime.trace_to_jsonl(trace), duration_s=2.0)
    assert checks.replay_problems(runtime, parsed, contracts, model, metrics) == []
    e2e = dict(metrics.end_to_end, p95_ms=metrics.end_to_end["p95_ms"] + 1e-9)
    perturbed = dataclasses.replace(metrics, end_to_end=e2e)
    assert checks.replay_problems(runtime, parsed, contracts, model, perturbed)


def test_one_pass_times_simulates_own_replay_and_counts_the_check_once(tmp_path):
    import amstack

    wl = run.Workload("small-sim", ops=11, duration_s=2.0)
    inputs = run.make_inputs(wl, 0, tmp_path)
    tracer = Tracer()
    tracer.install(amstack)
    try:
        r = run.one_pass(wl, 0, inputs, run.Ops(), reimport=False, tracer=tracer)
    finally:
        tracer.uninstall()
    # simulate replays its own trace once; the report step replays it again
    assert tracer.calls["runtime.replay"] == 2
    assert 0 < r["sim_replay_s"] < tracer.total_s["runtime.replay"]
    assert r["sim_replay_s"] < tracer.total_s["runtime.simulate"]
    # the check is repeated for run.MIN_TIMED_S but counted once in total_s
    stages = r["setup_s"] + r["check_s"] + r["main_s"] + r["result_s"]
    assert stages <= r["total_s"] < stages + run.MIN_TIMED_S / 2


def test_ops_count_a_repeated_call_once_and_keep_its_failure():
    ops = run.Ops()
    for error in (None, "E-PATHBOUND", None):
        ops.record("check", error)
    ops.record("setup")
    ops.check("replay", [])
    assert (ops.attempted, ops.failed) == (3, 1)
    assert ops.errors == ["check: E-PATHBOUND"] and ops.problems == []


def test_every_input_set_has_a_reference_record():
    reference = json.loads(run.REFERENCE_FILE.read_text(encoding="utf-8"))
    for name in run.WORKLOADS:
        assert sorted(map(int, reference[name])) == list(range(run.INPUT_SETS)), name


def test_diamond_check_passes():
    import amstack

    assert checks.diamond_problems(amstack, run.FIXTURES) == []


def test_reference_check_names_the_differing_key():
    stats = {"sink_emits": 300, "e2e_p95_ms": 4011.0}
    assert checks.reference_problems(stats, {"sink_emits": 300}) == []
    assert checks.reference_problems(stats, {"e2e_p95_ms": 4012.0})[0].startswith("e2e_p95_ms")


def test_tracer_counts_imported_names_once_and_uninstalls(tmp_path):
    import amstack

    _, graph, model, _ = load_generated(tmp_path, 21)
    original = scheduler.query
    tracer = Tracer()
    tracer.install(amstack)
    try:
        assert scheduler.query is substrate.query is not original
        scheduler.admit(graph, model, [])
    finally:
        tracer.uninstall()
    assert scheduler.query is original and substrate.query is original
    assert tracer.calls["scheduler.admit"] == 1
    assert tracer.calls["graph.critical_paths"] == 1
    assert tracer.calls["scheduler.path_metrics"] == 40
    assert "scheduler.query" not in tracer.calls and tracer.calls["substrate.query"] > 0
    assert tracer.self_s["scheduler.admit"] <= tracer.total_s["scheduler.admit"]


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
