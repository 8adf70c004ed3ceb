"""Correctness checks run on every pass of the benchmark.

Each check returns a list of problems; an empty list means it passed.
They use independent definitions rather than the code under test: the
dominance predicate of tests/_oracles.py, the hand-traced diamond
schedule, and reference values recorded from an earlier commit.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _oracle_dominates():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from _oracles import dominates
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return dominates


def frontier_problems(points, frontier, dominated_count: int) -> list[str]:
    """Two-sided O(n*f) dominance check of a frontier against every point.

    No frontier point may be dominated by any evaluated point; every
    dropped point must be dominated by some frontier point; and the
    frontier size plus the dominated count must equal the points evaluated.
    """
    dominates = _oracle_dominates()
    problems = []
    evaluated = {id(p) for p in points}
    kept = {id(p) for p in frontier}
    if not kept <= evaluated:
        problems.append("frontier holds a point that was not evaluated")
    if len(frontier) + dominated_count != len(points):
        problems.append(f"frontier {len(frontier)} + dominated {dominated_count} != evaluated {len(points)}")
    for i, f in enumerate(frontier):
        if any(dominates(p, f) for p in points):
            problems.append(f"frontier point {i} is dominated")
    for i, p in enumerate(points):
        if id(p) not in kept and not any(dominates(f, p) for f in frontier):
            problems.append(f"dropped point {i} is dominated by no frontier point")
    return problems


def replay_problems(runtime, parsed_trace, contracts, model, expected) -> list[str]:
    """replay of the trace read back from its JSONL must equal simulate's report."""
    if runtime.replay(parsed_trace, contracts, model) != expected:
        return ["replay of the serialized trace differs from simulate's metrics"]
    return []


def diamond_problems(am, fixtures_dir: Path) -> list[str]:
    """HEFT must reproduce the hand-traced diamond mapping and makespan."""
    program, _ = am.dsl.load_program(str(fixtures_dir / "diamond.amg"))
    graph, _ = am.graph.lower(program)
    model = am.substrate.load_profiles(str(fixtures_dir / "diamond_substrate.json"))
    expected = json.loads((fixtures_dir / "diamond_expected.json").read_text(encoding="utf-8"))
    mapping = am.scheduler.heft_schedule(graph, model)
    got = {graph.node(nid).name: [dev, var] for nid, (dev, var) in mapping.assignment.items()}
    problems = []
    if got != expected["assignment"]:
        problems.append(f"diamond mapping {got} != {expected['assignment']}")
    if not math.isclose(mapping.makespan_estimate_ms, expected["makespan_ms"], rel_tol=1e-12):
        problems.append(f"diamond makespan {mapping.makespan_estimate_ms} != {expected['makespan_ms']}")
    return problems


def reference_problems(stats: dict, reference: dict) -> list[str]:
    """Simulated statistics or frontier rows must equal the recorded ones."""
    return [f"{key}: {stats.get(key)!r} != reference {want!r}"
            for key, want in reference.items() if stats.get(key) != want]
