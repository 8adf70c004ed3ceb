"""Record the reference statistics that run.py checks every pass against.

    python3 perfbench/record.py

Runs one untraced pass of every workload per seed and writes
perfbench/reference.json: {workload: {seed: stats}}. The stats are the
simulated event counts by kind, sink emits, end-to-end p50/p95 and
contract verdict (sim-*), or the frontier rows, dominated count and CSV
digest (envelope-synth20). Run it only on a commit whose outputs are
known good: every later run must reproduce these values exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
from stability import parse_seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default=f"0-{run.INPUT_SETS - 1}", help="inclusive range, e.g. 0-31")
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for name, wl in run.WORKLOADS.items():
        reference[name] = {}
        for seed in parse_seeds(args.seeds):
            ops = run.Ops()
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
                r = run.one_pass(wl, seed, run.make_inputs(wl, seed, Path(tmp)), ops)
                run.check_pass(r, ops, None)
            if ops.problems:
                raise SystemExit(f"{name} seed {seed}: {ops.problems}")
            reference[name][str(seed)] = r["stats"]
            print(f"{name} seed {seed}: {json.dumps(r['stats'])[:120]}", flush=True)
    blocks = []
    for name, seeds in reference.items():
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(stats, sort_keys=True)}" for seed, stats in seeds.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    run.REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
