"""amstack benchmark: three workloads through the public API, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/amstack. The workload's
inputs are made from the seed. With --trace 0 the workload is run again
and again for S seconds (at least once) and the end-to-end metrics are
medians over the passes. With --trace 1 it makes one untraced pass, runs
the same subcommands through amstack.cli.main, then one pass with every
layer wrapped (tracer.py), and reports the per-layer metrics. Every pass
is checked (checks.py). The seed picks one of INPUT_SETS input sets
(seed mod INPUT_SETS), each with statistics recorded in reference.json.
The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "amstack" / "fixtures"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

ENVELOPE_LIMIT = 10_000  # the CLI's default --limit
MIN_TIMED_S = 0.1  # a call shorter than this is repeated and reported per call
SETUP_MIN_REPEATS = 5
MIN_PASSES = 2  # so that every timed run makes the determinism check
INPUT_SETS = 32  # seeds 0..31, recorded in reference.json by record.py
EVENT_KINDS = ("activate", "start", "finish", "miss", "emit", "remap", "variant_switch")
CLI_SUBCOMMANDS = ("check", "envelope", "simulate", "report")
REFERENCE_FILE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int | None  # synthetic operator count; None runs the bundled av fixture
    duration_s: float | None  # simulated seconds; None runs the envelope flow
    stochastic: bool = False
    adapt: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("envelope-synth20", ops=21, duration_s=None),
        Workload("sim-synth200", ops=201, duration_s=30.0),
        Workload("sim-av-adapt", ops=None, duration_s=300.0, stochastic=True, adapt=True),
    )
}

# name -> unit. main_s and result_s are the two subcommands after `check`:
# envelope-synth20 enumerate_configs | pareto_filter + CSV/JSON export;
# sim-* `simulate --out` | `report`. work_per_s is configurations per
# second of enumerate_configs, or trace events per second of simulate.
END_TO_END = {
    "setup_s": "s",
    "check_s": "s",
    "main_s": "s",
    "work_per_s": "1/s",
    "result_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dsl.load_program_s": "s",
    "graph.lower_s": "s",
    "graph.critical_paths_calls": "count",
    "graph.critical_paths_s": "s",
    "graph.edge_scan_calls": "count",
    "graph.edge_scan_s": "s",
    "graph.sink_ids_calls": "count",
    "graph.sink_ids_s": "s",
    "graph.topo_order_s": "s",
    "graph.buffer_sizing_s": "s",
    "substrate.load_profiles_s": "s",
    "substrate.profile_calls": "count",
    "substrate.profile_s": "s",
    "substrate.device_calls": "count",
    "substrate.device_s": "s",
    "substrate.query_calls": "count",
    "substrate.query_s": "s",
    "substrate.validate_coverage_s": "s",
    "scheduler.admit_s": "s",
    "scheduler.heft_schedule_s": "s",
    "scheduler.analytic_latency_calls": "count",
    "scheduler.analytic_latency_s": "s",
    "scheduler.path_metrics_calls": "count",
    "scheduler.path_metrics_s": "s",
    "scheduler.utilization_check_s": "s",
    "scheduler.energy_rate_w_s": "s",
    "envelope.configs_evaluated": "count",
    "envelope.evaluate_config_s": "s",
    "envelope.pareto_filter_s": "s",
    "envelope.export_s": "s",
    "envelope.frontier_size": "count",
    "envelope.dominated_count": "count",
    "envelope.frontier_ratio": "ratio",
    "runtime.sim_loop_s": "s",
    "runtime.replay_s": "s",
    "runtime.trace_write_s": "s",
    "runtime.trace_bytes": "bytes",
    "runtime.trace_read_s": "s",
    "runtime.rss_growth_mb": "MB",
    "runtime.events": "count",
    **{f"runtime.events.{kind}": "count" for kind in EVENT_KINDS},
    "runtime.adaptation_actions": "count",
    **{name: unit for sub in CLI_SUBCOMMANDS for name, unit in ((f"cli.{sub}_s", "s"), (f"cli.{sub}_exit", "code"))},
    "cli.outputs_compared": "count",
    **{name: unit for layer in ("dsl", "graph", "substrate", "scheduler", "envelope", "runtime")
       for name, unit in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s"))},
    "trace.untraced_total_s": "s",
    "trace.traced_total_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Ops:
    """The pipeline calls and checks of a run, with what failed.

    Each is counted once however often the run repeats it for timing, and
    it failed if any repeat failed, so that attempted and failed depend on
    the workload and the seed, not on how many passes fit in the run.
    """

    def __init__(self):
        self.outcomes: dict[str, str | None] = {}  # name -> first error
        self.problems: list[str] = []  # failed correctness checks

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(error is not None for error in self.outcomes.values())

    @property
    def errors(self) -> list[str]:
        return [f"{what}: {error}" for what, error in self.outcomes.items() if error is not None]

    def record(self, what: str, error: str | None = None):
        if self.outcomes.get(what) is None:
            self.outcomes[what] = error

    def check(self, what: str, problems: list[str]):
        self.record(what, "; ".join(problems) if problems else None)
        self.problems += [f"{what}: {p}" for p in problems if f"{what}: {p}" not in self.problems]


@dataclass(frozen=True)
class Inputs:
    amg: str
    profiles: str
    disturb: str | None
    counts: dict | None


def make_inputs(wl: Workload, seed: int, work_dir: Path) -> Inputs:
    if wl.ops is None:
        return Inputs(str(FIXTURES / "av.amg"), str(FIXTURES / "av_substrate.json"),
                      str(FIXTURES / "av_disturbance.json"), None)
    amg, profiles, counts = gen.write(wl.ops, seed, str(work_dir))
    return Inputs(amg, profiles, None, counts)


def import_amstack():
    """Import amstack afresh, so its module bodies run again."""
    for name in [n for n in sys.modules if n == "amstack" or n.startswith("amstack.")]:
        del sys.modules[name]
    am = importlib.import_module("amstack")
    if Path(am.__file__).resolve().parent != SRC / "amstack":
        raise RuntimeError(f"imported amstack from {am.__file__}, not from {SRC}")
    return am


def setup(inputs: Inputs, reimport: bool = True):
    """(seconds, (am, program, graph, model)): import, load_program, lower, load_profiles."""
    t0 = time.perf_counter()
    am = import_amstack() if reimport else sys.modules["amstack"]
    program, diags = am.dsl.load_program(inputs.amg)
    if program is None:
        raise RuntimeError(f"{inputs.amg} does not load: {[d.format_human() for d in diags]}")
    graph, _ = am.graph.lower(program)
    model = am.substrate.load_profiles(inputs.profiles)
    return time.perf_counter() - t0, (am, program, graph, model)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_pass(wl: Workload, seed: int, inputs: Inputs, ops: Ops, reimport=True, tracer=None, save_dir=None) -> dict:
    """Run the workload once: setup, check, then envelope or simulate + report.

    Returns the stage times, the output digests (keyed by the file the CLI
    writes), the statistics compared with the reference, and the objects
    the correctness checks need.
    """
    clock = time.perf_counter
    gc.collect()  # every pass starts with the same collector state
    t_start = clock()
    setup_s, (am, program, graph, model) = setup(inputs, reimport)
    ops.record("setup")
    contracts = list(program.contracts)
    r = {"setup_s": setup_s, "am": am, "contracts": contracts, "model": model}

    # check: validate_coverage, admit, report_to_json, repeated when short
    calls, report, error = 0, None, None
    t0 = clock()
    while error is None and (calls == 0 or clock() - t0 < MIN_TIMED_S):
        am.substrate.validate_coverage(model, graph)
        try:
            report = am.scheduler.admit(graph, model, contracts)
        except am.StackError as exc:
            report, error = None, exc.code
        else:
            report_text = am.scheduler.report_to_json(report, graph)
        calls += 1
    check_loop_s = clock() - t0
    r["check_s"] = check_loop_s / calls
    ops.record("check", error)

    if wl.duration_s is None:
        t0 = clock()
        points = am.envelope.enumerate_configs(graph, model, limit=ENVELOPE_LIMIT, seed=seed)
        t1 = clock()
        frontier = am.envelope.pareto_filter(points)
        csv_text = am.envelope.export_envelope(frontier, graph, "csv")
        json_text = am.envelope.export_envelope(frontier, graph, "json")
        t2 = clock()
        ops.record("envelope")
        r.update(main_s=t1 - t0, result_s=t2 - t1, work_per_s=len(points) / (t1 - t0), points=points, frontier=frontier)
        outputs = {"envelope/envelope.csv": csv_text, "envelope/envelope.json": json_text + "\n"}
    else:
        if report is not None and report.mapping is not None:
            mapping = report.mapping
        else:
            mapping = am.scheduler.heft_schedule(graph, model)
            ops.record("heft_schedule")
        disturbances = am.runtime.load_disturbances(inputs.disturb) if inputs.disturb else []
        config = am.runtime.SimConfig(
            duration_s=wl.duration_s,
            seed=seed,
            mode="stochastic" if wl.stochastic else "deterministic",
            adaptation=wl.adapt,
        )
        replay_before = tracer.total_s["runtime.replay"] if tracer else 0.0
        t0 = clock()
        sized = am.graph.buffer_sizing(graph)
        rss0, ts0 = max_rss_mb(), clock()
        trace, metrics = am.runtime.simulate(sized, model, mapping, contracts, config, disturbances)
        ts1, rss1 = clock(), max_rss_mb()
        sim_replay_s = (tracer.total_s["runtime.replay"] - replay_before) if tracer else 0.0
        trace_text = am.runtime.trace_to_jsonl(trace)
        metrics_text = am.runtime.metrics_to_json(metrics)
        t1 = clock()
        ops.record("simulate")
        parsed = am.runtime.trace_from_jsonl(trace_text, duration_s=config.duration_s)
        report_out = am.runtime.metrics_to_json(am.runtime.replay(parsed))
        t2 = clock()
        ops.record("report")
        r.update(
            main_s=t1 - t0,
            result_s=t2 - t1,
            work_per_s=len(trace.events) / (ts1 - ts0),
            sim_replay_s=sim_replay_s,
            rss_growth_mb=rss1 - rss0,
            trace_bytes=len(trace_text.encode("utf-8")),
            parsed=parsed,
            metrics=metrics,
        )
        outputs = {
            "simulate/trace.jsonl": trace_text,
            "simulate/metrics.json": metrics_text + "\n",
            "report/metrics.json": report_out + "\n",
        }
        if save_dir is not None:
            save_dir.mkdir(parents=True, exist_ok=True)
            (save_dir / "trace.jsonl").write_text(trace_text, encoding="utf-8")
    r["total_s"] = t2 - t_start - (check_loop_s - r["check_s"])  # the check counted once

    if report is not None:
        outputs["check/feasibility.json"] = report_text + "\n"
    r["files"] = {key: sha256(text) for key, text in outputs.items()}
    if wl.duration_s is None:
        r["stats"] = {
            "evaluated": len(points),
            "dominated_count": frontier.dominated_count,
            "frontier": [list(p.metrics()) for p in frontier.points],
            "envelope_csv_sha256": r["files"]["envelope/envelope.csv"],
        }
    else:
        kinds = Counter(e.kind for e in trace.events)
        e2e = metrics.end_to_end
        r["stats"] = {
            "events": {kind: kinds[kind] for kind in EVENT_KINDS},
            "sink_emits": e2e["emits"],
            "e2e_p50_ms": e2e["p50_ms"],
            "e2e_p95_ms": e2e["p95_ms"],
            "contracts_held": metrics.all_contracts_held(),
        }
    return r


def check_pass(r: dict, ops: Ops, reference: dict | None):
    """Correctness checks on one pass; they are not part of any timing."""
    if "frontier" in r:
        fr = r["frontier"]
        ops.check("frontier", checks.frontier_problems(r["points"], fr.points, fr.dominated_count))
    if "parsed" in r:
        problems = checks.replay_problems(r["am"].runtime, r["parsed"], r["contracts"], r["model"], r["metrics"])
        ops.check("replay", problems)
    if reference is not None:
        ops.check("reference", checks.reference_problems(r["stats"], reference))


def load_reference(workload: str, seed: int) -> dict | None:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def timed_run(wl: Workload, seed: int, seconds: float, inputs: Inputs, ops: Ops, reference) -> tuple[dict, list]:
    """Loop the workload for `seconds`; end-to-end metrics are medians over passes."""
    setups = []
    t0 = time.perf_counter()
    while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() - t0 < MIN_TIMED_S * SETUP_MIN_REPEATS:
        setups.append(setup(inputs)[0])
        ops.record("setup")
    ops.check("diamond", checks.diamond_problems(sys.modules["amstack"], FIXTURES))

    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        r = one_pass(wl, seed, inputs, ops)
        check_pass(r, ops, reference)
        if passes:
            same = (r["files"], r["stats"]) == (passes[0]["files"], passes[0]["stats"])
            ops.check("determinism", [] if same else ["outputs differ between passes of one seed"])
        passes.append({k: v for k, v in r.items() if k in END_TO_END or k in ("files", "stats")})
        del r
    setups += [p["setup_s"] for p in passes]
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": max_rss_mb()}
    for name in ("check_s", "main_s", "work_per_s", "result_s", "total_s"):
        metrics[name] = statistics.median(p[name] for p in passes)
    return metrics, passes


def run_cli(wl: Workload, seed: int, inputs: Inputs, work: Path, expected_files: dict, ops: Ops) -> dict:
    """Run the workload's subcommands through amstack.cli.main and compare files."""
    cli = importlib.import_module("amstack.cli")
    common = [inputs.amg, "--profiles", inputs.profiles, "--seed", str(seed)]
    argvs = {"check": ["check", *common]}
    if wl.duration_s is None:
        argvs["envelope"] = ["envelope", *common]
    else:
        sim = ["simulate", *common, "--duration", repr(wl.duration_s)]
        sim += ["--stochastic"] * wl.stochastic + ["--adapt"] * wl.adapt
        sim += ["--disturb", inputs.disturb] if inputs.disturb else []
        argvs["simulate"] = sim
        argvs["report"] = ["report", str(work / "api" / "trace.jsonl"), "--duration", repr(wl.duration_s)]
    out = {}
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"], out[f"cli.{sub}_exit"] = 0.0, -1
    compared, problems = 0, []
    for sub, argv in argvs.items():
        out_dir = work / f"cli_{sub}"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = cli.main([*argv, "--out", str(out_dir)])
            out[f"cli.{sub}_s"] = time.perf_counter() - t0
        out[f"cli.{sub}_exit"] = code
        ops.record(f"cli {sub}", None if code in (0, 2, 3) else f"exit {code}")
        if code == 1:  # an error writes no files; it is counted as failed above
            continue
        for key, digest in expected_files.items():
            if not key.startswith(sub + "/"):
                continue
            path = out_dir / key.partition("/")[2]
            compared += 1
            if not path.is_file() or sha256(path.read_text(encoding="utf-8")) != digest:
                problems.append(f"{sub}: {path.name} differs from the API-composed output")
    ops.check("cli outputs", problems)
    out["cli.outputs_compared"] = compared
    return out


def traced_run(wl: Workload, seed: int, inputs: Inputs, work: Path, ops: Ops, reference) -> dict:
    """Untraced pass, the CLI on the same files, then one traced pass."""
    setup(inputs)
    ops.check("diamond", checks.diamond_problems(sys.modules["amstack"], FIXTURES))
    base = one_pass(wl, seed, inputs, ops, reimport=False, save_dir=work / "api")
    check_pass(base, ops, reference)
    base = {k: base[k] for k in ("total_s", "files", "rss_growth_mb") if k in base}
    metrics = run_cli(wl, seed, inputs, work, base["files"], ops)

    tracer = Tracer()
    tracer.install(sys.modules["amstack"])
    try:
        r = one_pass(wl, seed, inputs, ops, reimport=False, tracer=tracer)
    finally:
        tracer.uninstall()
    check_pass(r, ops, reference)

    t, c = tracer.total_s.get, tracer.calls.get
    for name in PER_LAYER:  # <layer>.<function>_s and _calls of a wrapped function
        key, _, kind = name.rpartition("_")
        if key in tracer.calls and kind in ("s", "calls"):
            metrics[name] = t(key) if kind == "s" else c(key)
    metrics["graph.edge_scan_calls"] = c("graph.in_edges", 0) + c("graph.out_edges", 0)
    metrics["graph.edge_scan_s"] = t("graph.in_edges", 0.0) + t("graph.out_edges", 0.0)
    metrics["envelope.export_s"] = t("envelope.export_envelope", 0.0)
    metrics["envelope.configs_evaluated"] = c("envelope.evaluate_config", 0)
    metrics["envelope.evaluate_config_s"] = tracer.self_s.get("envelope.evaluate_config", 0.0)
    if "frontier" in r:
        metrics["envelope.frontier_size"] = len(r["frontier"].points)
        metrics["envelope.dominated_count"] = r["frontier"].dominated_count
        metrics["envelope.frontier_ratio"] = len(r["frontier"].points) / len(r["points"])

    events = r["stats"].get("events", {})
    metrics["runtime.sim_loop_s"] = t("runtime.simulate", 0.0) - r.get("sim_replay_s", 0.0)
    metrics["runtime.trace_write_s"] = t("runtime.trace_to_jsonl", 0.0)
    metrics["runtime.trace_read_s"] = t("runtime.trace_from_jsonl", 0.0)
    metrics["runtime.trace_bytes"] = r.get("trace_bytes", 0)
    metrics["runtime.rss_growth_mb"] = base.get("rss_growth_mb", 0.0)
    metrics["runtime.events"] = sum(events.values())
    for kind in EVENT_KINDS:
        metrics[f"runtime.events.{kind}"] = events.get(kind, 0)
    metrics["runtime.adaptation_actions"] = events.get("remap", 0) + events.get("variant_switch", 0)
    for layer, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"], metrics[f"{layer}.self_s"] = calls, self_s
    metrics["trace.untraced_total_s"] = base["total_s"]
    metrics["trace.traced_total_s"] = r["total_s"]
    metrics["trace.overhead_ratio"] = r["total_s"] / base["total_s"]
    for name in PER_LAYER:  # a layer function the workload never calls
        metrics.setdefault(name, 0.0 if PER_LAYER[name] == "s" else 0)
    return metrics


def summary(wl: Workload, metrics: dict, ops: Ops, passes: list) -> list[str]:
    """Human-readable lines: the metrics under the names the docs use and the digests."""
    lines = [f"perfbench {wl.name}: {len(passes)} passes, {ops.attempted} operations, {ops.failed} failed"]
    named = {"setup_s": "s", "check_s": "s"}
    values = dict(metrics)
    if wl.duration_s is None:
        values["envelope_s"] = metrics["main_s"] + metrics["result_s"]
        values["envelope_configs_per_s"] = metrics["work_per_s"]
        named.update(envelope_s="s", envelope_configs_per_s="1/s")
    else:
        values.update(simulate_s=metrics["main_s"], sim_events_per_s=metrics["work_per_s"],
                      report_s=metrics["result_s"])
        named.update(simulate_s="s", sim_events_per_s="1/s", report_s="s")
    values["failed_op_share"] = ops.failed / ops.attempted
    named.update(total_s="s", peak_rss_mb="MB", failed_op_share="ratio")
    lines += [f"  {name:<24} {values[name]:.6g} {unit}" for name, unit in named.items()]
    lines += [f"  sha256 {key}: {digest}" for key, digest in sorted(passes[0]["files"].items())]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="amstack benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "amstack" / "__init__.py").is_file():
        print(f"perfbench: no amstack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    seed = args.seed % INPUT_SETS
    reference = load_reference(wl.name, seed)
    ops = Ops()
    if reference is None:  # the statistics cannot be checked: counted as failed
        ops.record("reference", f"none recorded for seed {seed}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        inputs = make_inputs(wl, seed, work)
        if args.trace:
            values = traced_run(wl, seed, inputs, work, ops, reference)
            units = PER_LAYER
        else:
            values, passes = timed_run(wl, seed, args.seconds, inputs, ops, reference)
            units = END_TO_END
            print("\n".join(summary(wl, values, ops, passes)))
    print(f"  input set: seed {seed} (--seed {args.seed} mod {INPUT_SETS})")
    if inputs.counts:
        print(f"  inputs: {json.dumps(inputs.counts, sort_keys=True)}")
    for error in ops.errors:
        print(f"  failed: {error}")
    for problem in ops.problems:
        print(f"  CHECK FAILED {problem}")
    result = {
        "correct": not ops.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
