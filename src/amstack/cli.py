"""Command-line front door.

Subcommands: check, schedule, envelope, simulate, report. Exit codes are a
contract: 0 success/feasible, 1 usage or E-* error, 2 infeasible,
3 contract violated during simulation - never anything else. Machine
outputs (JSON/CSV, written files) are byte-stable for identical inputs
and seed. AMSTACK_LOG=debug|info|warning controls log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import dsl, envelope, graph as graphmod, runtime, scheduler, substrate
from .errors import StackError

log = logging.getLogger("amstack")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_CONTRACT = 3


def _setup_logging():
    level = os.environ.get("AMSTACK_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _emit_diagnostics(diags, fmt):
    if not diags:
        return
    if fmt == "json":
        print(dsl.diagnostics_to_json(list(diags)), file=sys.stderr)
    else:
        for d in diags:
            print(d.format_human(), file=sys.stderr)


def _load_pipeline(args):
    """spec + profiles -> (resolved program, graph, model); raises StackError."""
    program, diags = dsl.load_program(args.spec)
    _emit_diagnostics(diags, args.format)
    if program is None:
        raise StackError("E-PARSE", f"{args.spec} has errors")
    graph, gdiags = graphmod.lower(program)
    _emit_diagnostics(gdiags, args.format)
    model = substrate.load_profiles(args.profiles)
    return program, graph, model


def _parse_contract_flag(text: str) -> dsl.ContractStmt:
    """Contract override syntax: 'end_to_end latency <= 100 ms; energy <= 50 W'."""
    scope, _, attrs = text.strip().partition(" ")
    ast, diags = dsl.parse_text(f"contract {scope} {{ {attrs} }}")
    if ast is None or not ast.contracts:
        raise StackError("E-CONTRACT", f"cannot parse contract override '{text}': "
                         + "; ".join(d.message for d in diags if d.severity == "error"))
    return ast.contracts[0]


def _contracts(args, program) -> list[dsl.ContractStmt]:
    if args.contract:  # flags win over the .amg file
        return [_parse_contract_flag(c) for c in args.contract]
    return list(program.contracts)


def _write(args, name: str, content: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    log.info("wrote %s", path)
    return path


def cmd_check(args) -> int:
    program, graph, model = _load_pipeline(args)
    coverage = substrate.validate_coverage(model, graph)
    _emit_diagnostics(coverage, args.format)
    report = scheduler.admit(graph, model, _contracts(args, program))
    text = scheduler.report_to_json(report, graph)
    if args.out:
        _write(args, "feasibility.json", text + "\n")
    if args.format == "json":
        print(text)
    else:
        print(f"verdict: {report.verdict}")
        for v in report.violations:
            print(f"  {v.kind}: {v.detail} (margin {v.margin:g})")
        if report.mapping is not None:
            print(f"makespan estimate: {report.mapping.makespan_estimate_ms:g} ms")
    return EXIT_OK if report.verdict == "feasible" else EXIT_INFEASIBLE


def cmd_schedule(args) -> int:
    program, graph, model = _load_pipeline(args)
    mapping = scheduler.heft_schedule(graph, model)
    text = json.dumps(mapping.to_json_dict(graph), indent=2, sort_keys=True)
    if args.out:
        _write(args, "mapping.json", text + "\n")
    if args.format == "json":
        print(text)
    else:
        for row in mapping.to_json_dict(graph)["assignment"]:
            print(f"{row['node']} -> {row['device']} ({row['variant']})")
        print(f"makespan estimate: {mapping.makespan_estimate_ms:g} ms")
    return EXIT_OK


def cmd_envelope(args) -> int:
    program, graph, model = _load_pipeline(args)
    coverage = [d for d in substrate.validate_coverage(model, graph) if d.severity == "error"]
    if coverage:
        _emit_diagnostics(coverage, args.format)
        raise StackError(coverage[0].code, coverage[0].message)
    points = envelope.enumerate_configs(graph, model, limit=args.limit, seed=args.seed)
    frontier = envelope.pareto_filter(points)
    csv_text = envelope.export_envelope(frontier, graph, "csv")
    json_text = envelope.export_envelope(frontier, graph, "json")
    if args.out:
        _write(args, "envelope.csv", csv_text)
        _write(args, "envelope.json", json_text + "\n")
    if args.format == "json":
        print(json_text)
    elif args.format == "csv":
        print(csv_text, end="")
    else:
        print(f"evaluated {len(points)} configurations; frontier size {len(frontier.points)} "
              f"({frontier.dominated_count} dominated)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    program, graph, model = _load_pipeline(args)
    contracts = _contracts(args, program)
    report = scheduler.admit(graph, model, contracts)
    if report.mapping is not None:
        mapping = report.mapping
    elif args.force:
        mapping = scheduler.heft_schedule(graph, model)
    else:
        if args.format == "json":
            print(scheduler.report_to_json(report, graph))
        else:
            print("mapping infeasible; rerun with --force to simulate anyway", file=sys.stderr)
            for v in report.violations:
                print(f"  {v.kind}: {v.detail}", file=sys.stderr)
        return EXIT_INFEASIBLE

    disturbances = runtime.load_disturbances(args.disturb) if args.disturb else []
    params = runtime.AdaptationParams()
    if args.adapt_params:
        try:
            w, theta, k, c = args.adapt_params.split(",")
            params = runtime.AdaptationParams(int(w), float(theta), int(k), int(c))
        except ValueError as exc:
            raise StackError("E-USAGE", f"--adapt-params expects W,theta,k,C: {exc}") from exc
    config = runtime.SimConfig(
        duration_s=args.duration,
        seed=args.seed,
        mode="stochastic" if args.stochastic else "deterministic",
        adaptation=args.adapt,
        adaptation_params=params,
    )
    trace, metrics = runtime.simulate(graph, model, mapping, contracts, config, disturbances)
    metrics_text = runtime.metrics_to_json(metrics)
    if args.out:
        _write(args, "trace.jsonl", runtime.trace_to_jsonl(trace))
        _write(args, "metrics.json", metrics_text + "\n")
    if args.format == "json":
        print(metrics_text)
    else:
        e = metrics.end_to_end
        print(f"simulated {config.duration_s:g} s; sink {e['sink']} emitted {e['emits']} commands")
        for c in metrics.contracts:
            status = "held" if c["held"] else "VIOLATED"
            print(f"  contract {c['scope']} {c['metric']} <= {c['bound']:g}: {status} (observed {c['observed']})")
    return EXIT_OK if metrics.all_contracts_held() else EXIT_CONTRACT


def cmd_report(args) -> int:
    try:
        with open(args.trace, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StackError("E-IO", f"cannot read {args.trace}: {exc}") from exc
    trace = runtime.trace_from_jsonl(text, duration_s=args.duration)
    metrics = runtime.replay(trace)
    metrics_text = runtime.metrics_to_json(metrics)
    if args.out:
        _write(args, "metrics.json", metrics_text + "\n")
    if args.format == "json":
        print(metrics_text)
    else:
        print(f"replayed {len(trace.events)} events over {trace.duration_s:g} s")
        for name, row in metrics.per_node.items():
            print(f"  {name}: {row['achieved_hz']:g} Hz achieved, p95 {row['p95_ms']}, misses {row['misses']}")
        for dev, row in metrics.per_device.items():
            print(f"  {dev}: busy {row['busy_utilization']:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="amstack", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, spec=True):
        if spec:
            sp.add_argument("spec", help=".amg program file")
            sp.add_argument("--profiles", required=True, help="substrate profile JSON")
        sp.add_argument("--format", choices=["human", "json", "csv"], default="human")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="directory for machine-readable outputs")

    sp = sub.add_parser("check", help="admission verdict for a program on a platform")
    common(sp)
    sp.add_argument("--contract", action="append", help="override contracts, e.g. 'end_to_end latency <= 100 ms'")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("schedule", help="print the static device mapping")
    common(sp)
    sp.set_defaults(fn=cmd_schedule)

    sp = sub.add_parser("envelope", help="enumerate configurations and export the Pareto frontier")
    common(sp)
    sp.add_argument("--limit", type=int, default=envelope.DEFAULT_LIMIT)
    sp.set_defaults(fn=cmd_envelope)

    sp = sub.add_parser("simulate", help="discrete-event simulation with contract verdicts")
    common(sp)
    sp.add_argument("--contract", action="append")
    sp.add_argument("--duration", type=float, default=1.0, help="simulated seconds")
    sp.add_argument("--disturb", help="JSON file of latency disturbances")
    sp.add_argument("--adapt", action="store_true", help="enable runtime adaptation")
    sp.add_argument("--adapt-params", help="W,theta,k,C adaptation tuning")
    sp.add_argument("--stochastic", action="store_true", help="sample latencies instead of using means")
    sp.add_argument("--force", action="store_true", help="simulate even when admission fails")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("report", help="recompute metrics from a stored trace")
    common(sp, spec=False)
    sp.add_argument("trace", help="trace.jsonl file")
    sp.add_argument("--duration", type=float, help="simulated seconds of the original run")
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except StackError as exc:
        where = f" (at {exc.path})" if exc.path else ""
        print(f"error[{exc.code}]: {exc.message}{where}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # contract: exit codes are only ever 0/1/2/3
        log.exception("internal error")
        print(f"error[E-INTERNAL]: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
