"""Seeded synthetic layered programs for the amstack benchmark.

Shape: two 10 Hz sources, `layers` layers of WIDTH operators, and one
sink. Lane j of layer 0 reads source j mod 2. An operator in a later layer
reads its own lane of the layer before and one other lane, at a per-layer
shift the seed picks, so it has two inputs and every node feeds the next
layer. The sink reads the whole last layer, which leaves it the only sink.

The seed picks only the shifts and the numbers (message sizes,
latencies, energies, and which half of the (operator, class) pairs get a
second variant). Node, edge, path and profile counts depend on the
operator count alone, so two seeds give the same amount of work.

    python3 perfbench/gen.py --ops 21 --seed 0 --out DIR

writes DIR/synth.amg and DIR/synth_substrate.json and prints the counts.
"""

from __future__ import annotations

import argparse
import json
import os
import random

WIDTH = 5
FREQ_HZ = 10
CLASSES = ("cpu", "gpu", "dsp")
DEVICES = [
    {"id": "cpu0", "name": "host CPU", "class": "cpu", "cores": 8, "link_bw_bps": 10e9, "idle_w": 10.0},
    {"id": "gpu0", "name": "GPU", "class": "gpu", "cores": 4, "link_bw_bps": 8e9, "idle_w": 20.0},
    {"id": "dsp0", "name": "DSP", "class": "dsp", "cores": 2, "link_bw_bps": 4e9, "idle_w": 3.0},
]
# (latency factor range, energy mJ per ms of latency) per class
CLASS_COST = {"cpu": ((1.5, 3.0), 2.0), "gpu": ((0.3, 0.8), 6.0), "dsp": ((0.6, 1.5), 1.0)}


def layer_count(ops: int) -> int:
    """Layers of WIDTH operators that, with the sink, come closest to `ops`."""
    return max(1, round((ops - 1) / WIDTH))


def _structure(ops: int, rng: random.Random):
    """[(node name, operator name, input node names)] in binding order."""
    layers = layer_count(ops)
    rows = []
    prev = ["s0", "s1"]
    for layer in range(layers):
        shift = rng.randrange(1, WIDTH)
        names = [f"n{layer}_{lane}" for lane in range(WIDTH)]
        for lane, name in enumerate(names):
            inputs = [prev[lane % 2]] if layer == 0 else [prev[lane], prev[(lane + shift) % WIDTH]]
            rows.append((name, f"Op{layer}x{lane}", list(inputs)))
        prev = names
    rows.append(("sink", "Sink", list(prev)))
    return rows


def count_paths(rows) -> int:
    """Source->sink paths by dynamic programming over the binding order."""
    paths = {"s0": 1, "s1": 1}
    for name, _op, inputs in rows:
        paths[name] = sum(paths[i] for i in inputs)
    return paths[rows[-1][0]]


def generate(ops: int, seed: int) -> tuple[str, str, dict]:
    """(.amg text, substrate JSON text, counts) for `ops` operators."""
    rng = random.Random(f"perfbench/{ops}/{seed}")
    rows = _structure(ops, rng)

    lines = [f"# synthetic layered program: {len(rows)} operators, seed {seed}", ""]
    for src in ("S0", "S1"):
        lines.append(f"require {src} {{ frequency = {FREQ_HZ} Hz; message_size = {rng.randint(64, 512)} KB }}")
    for _name, op, _inputs in rows:
        lines.append(f"require {op} {{ frequency = {FREQ_HZ} Hz; message_size = {rng.randint(1, 64)} KB }}")
    lines.append("")
    alias = {"s0": "S0", "s1": "S1"}
    for name, op, inputs in rows:
        lines.append(f"node {name} = {op}({', '.join(alias.get(i, i) for i in inputs)})")
    lines += ["", "contract end_to_end { latency <= 1000 ms }", ""]
    amg = "\n".join(lines)

    pairs = [(op, cls) for _name, op, _inputs in rows for cls in CLASSES]
    two_variants = set(rng.sample(range(len(pairs)), len(pairs) // 2))
    base_ms = {op: rng.uniform(0.5, 3.0) for _name, op, _inputs in rows}
    profiles = []
    for k, (op, cls) in enumerate(pairs):
        (lo, hi), mj_per_ms = CLASS_COST[cls]
        mean = round(base_ms[op] * rng.uniform(lo, hi), 3)
        variants = [("base", mean)]
        if k in two_variants:
            variants.append(("lite", round(mean * rng.uniform(0.5, 0.8), 3)))
        for variant, lat in variants:
            profiles.append(
                {
                    "op": op,
                    "variant": variant,
                    "class": cls,
                    "lat_ms_mean": lat,
                    "lat_ms_std": round(lat * rng.uniform(0.05, 0.15), 4),
                    "energy_mj": round(lat * mj_per_ms * rng.uniform(0.8, 1.2), 3),
                }
            )
    substrate = json.dumps({"devices": DEVICES, "profiles": profiles}, indent=2, sort_keys=True) + "\n"

    counts = {
        "operators": len(rows),
        "nodes": len(rows) + 2,
        "edges": sum(len(inputs) for _name, _op, inputs in rows),
        "paths": count_paths(rows),
        "profiles": len(profiles),
    }
    return amg, substrate, counts


def write(ops: int, seed: int, out_dir: str) -> tuple[str, str, dict]:
    """Write the generated pair into `out_dir`; returns (amg path, substrate path, counts)."""
    amg, substrate, counts = generate(ops, seed)
    os.makedirs(out_dir, exist_ok=True)
    amg_path = os.path.join(out_dir, "synth.amg")
    sub_path = os.path.join(out_dir, "synth_substrate.json")
    with open(amg_path, "w", encoding="utf-8") as fh:
        fh.write(amg)
    with open(sub_path, "w", encoding="utf-8") as fh:
        fh.write(substrate)
    return amg_path, sub_path, counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ops", type=int, required=True, help="operator count (rounded to layers of 5 plus a sink)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    args = p.parse_args(argv)
    _, _, counts = write(args.ops, args.seed, args.out)
    print(json.dumps(counts, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
