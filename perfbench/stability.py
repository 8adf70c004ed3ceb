"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/stability.py [--workload NAME] --seeds 0-9 [--out FILE]

For every end-to-end metric it prints the median of the runs, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. Without --workload it runs every
workload. Runs one process at a time with the BENCHMARK.json run length;
--out writes the summaries and per-seed results as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def measure(workload: str, seeds: list[int], bench: dict) -> dict:
    runs = {}
    for seed in seeds:
        result = run_once(workload, seed, bench["run_seconds"])
        result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
        runs[str(seed)] = result
        print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              f"{ {k: round(v, 6) for k, v in result['metrics'].items()} }", flush=True)
    summary = {}
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        s = spread([r["metrics"][name] for r in runs.values()])
        summary[name] = dict(s, bound=bound)
        flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] < bound else "OVER")
        print(f"  {name:<14} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}  bound {bound}  {flag}", flush=True)
    return {"summary": summary, "runs": runs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one workload; all of them when omitted")
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--out")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    doc = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
           "workloads": {w: measure(w, seeds, bench) for w in workloads}}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
