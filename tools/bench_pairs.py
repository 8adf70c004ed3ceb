"""Benchmark two commits against each other in alternating pairs.

    python3 tools/bench_pairs.py --base REV --change REV --out BENCH_N.json
        [--workloads W,...] [--pairs 10] [--seed 100] [--traced-pairs 0]

Each commit is exported once with `git archive` (its committed files only,
as the benchmark measures them) into a new temporary directory, which is
removed at the end. Pair i runs `python3 perfbench/run.py --workload W
--seed SEED+i --trace 0 --seconds S` on both checkouts, base first when i
is even and change first when i is odd, one process at a time; S is
BENCHMARK.json's run_seconds. `--traced-pairs N` adds N pairs with
`--trace 1` (per-layer metrics) in the same order.

The output holds, per workload, every run (side, pair, seed, correct,
attempted, failed, metrics) and, per metric, each side's median and
quartiles (statistics.quantiles, n=4), the change's median against the
base's in percent, and the number of pairs the change won, by the
direction BENCHMARK.json gives the metric (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def checkout(commit: str, dest: Path):
    """Export the committed files of `commit` into the new directory `dest`."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the change's delta and wins."""
    by_pair: dict[int, dict[str, dict]] = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    names = sorted({name for r in runs for name in r["metrics"]})
    out = {}
    for name in names:
        row = {}
        for side in SIDES:
            values = [r["metrics"][name] for r in runs if r["side"] == side and name in r["metrics"]]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            row[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        base, change = row["base"]["median"], row["change"]["median"]
        row["change_pct"] = (change - base) / base * 100.0 if base else None
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            row["better"] = better[name]
            row["change_wins"] = sum(
                sign * (p["change"][name] - p["base"][name]) < 0 for p in by_pair.values() if len(p) == 2
            )
        out[name] = row
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    p.add_argument("--base", required=True, help="the parent revision")
    p.add_argument("--change", required=True, help="the revision under test")
    p.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    p.add_argument("--workloads", help="comma-separated; default every BENCHMARK.json workload")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--traced-pairs", type=int, default=0)
    p.add_argument("--seed", type=int, default=100, help="seed of pair 0; pair i uses seed + i")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    revs = dict(zip(SIDES, (args.base, args.change)))
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in revs.items()}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: work / side for side in SIDES}
    try:
        for side in SIDES:
            checkout(commits[side], trees[side])
        doc = {"base": commits["base"], "change": commits["change"], "seconds": seconds, "workloads": {}}
        for workload in workloads:
            entry = doc["workloads"][workload] = {}
            for trace, n_pairs, key in ((0, args.pairs, "timed"), (1, args.traced_pairs, "traced")):
                runs = []
                for i in range(n_pairs):
                    seed = args.seed + i
                    for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                        r = run_once(trees[side], workload, seed, seconds, trace)
                        runs.append({"side": side, "pair": i, "seed": seed, **r})
                        print(f"{workload} {key} pair {i} {side}: correct {r['correct']} "
                              f"{r['attempted']}/{r['failed']} total_s {r['metrics'].get('total_s')}", flush=True)
                    entry[key] = {"runs": runs, "summary": summarize(runs, better)}
                    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
