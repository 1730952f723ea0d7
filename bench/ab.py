"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 bench/ab.py BASE CHANGE --workload paired_n13
        [--workload oracle_audit ...] [--seed 1] [--pairs 10] [--trace 0]

Each `--workload` given gets its own pairs and its own block of output.
Each pair runs `perfbench/run.py` once in the checkout BASE and once in
CHANGE, through `collect.run_one`, and flips which side goes first on
every pair, so drift in machine speed falls on both sides alike. Each run
lasts the benchmark's `run_seconds`. With `--trace 0` the metrics compared are
BENCHMARK.json's end-to-end ones, with `--trace 1` its per-layer ones. For
each metric this prints both sides' median and quartiles, the change of the
median in %, the pairs the change wins by the metric's `better` direction,
and whether the change's median clears the base's interquartile range.
A last line counts the pairs whose two runs' record `fingerprint`s, the
digest of the workload's results, are equal; a pair with a run that printed
no fingerprint is counted as not compared. It exits 1 if any run, of any
workload, is not `correct`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from collect import ROOT, SECONDS, run_one

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(base: list, change: list, metrics: list) -> list:
    """One row per metric present in every run: base[i] and change[i] map
    metric names to values for pair i; metrics are BENCHMARK.json entries."""
    rows = []
    for m in metrics:
        name = m["name"]
        if not all(name in run for run in base + change):
            continue
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        sign = 1.0 if m["better"] == "higher" else -1.0
        bq, cq = np.percentile(b, [25, 50, 75]), np.percentile(c, [25, 50, 75])
        gain = sign * (cq[1] - bq[1])
        rows.append({
            "name": name, "unit": m["unit"],
            "base": bq.tolist(), "change": cq.tolist(),
            "pct": 100.0 * (cq[1] - bq[1]) / bq[1] if bq[1] else float("nan"),
            "won": sum(sign * (y - x) > 0 for x, y in zip(b, c)),
            "pairs": len(b),
            "clears_iqr": bool(gain > bq[2] - bq[0]),
        })
    return rows


def format_rows(rows: list) -> str:
    out = []
    for r in rows:
        (b1, b, b3), (c1, c, c3) = r["base"], r["change"]
        out.append(f"{r['name']:<40} {b:.4g} [{b1:.4g}-{b3:.4g}] -> "
                   f"{c:.4g} [{c1:.4g}-{c3:.4g}] {r['unit']}  {r['pct']:+.1f} %  "
                   f"won {r['won']}/{r['pairs']}"
                   f"{'  clears IQR' if r['clears_iqr'] else ''}")
    return "\n".join(out)


def fingerprint_line(base: list, change: list) -> str:
    """How many pairs have equal record fingerprints; base[i] and change[i]
    are pair i's fingerprints, None where a run printed none."""
    compared = [(b, c) for b, c in zip(base, change)
                if b is not None and c is not None]
    equal = sum(b == c for b, c in compared)
    missing = len(base) - len(compared)
    return (f"stream fingerprints equal in {equal}/{len(base)} pairs"
            + (f" ({missing} not compared)" if missing else ""))


def compare(args, workload: str) -> bool:
    """Run one workload's alternating pairs and print its block; False if
    any run was not correct."""
    sides = {"base": (args.base.resolve(), []), "change": (args.change.resolve(), [])}
    fingerprints = {"base": [], "change": []}
    correct = True
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            checkout, runs = sides[side]
            run = run_one(checkout, workload, args.seed, args.trace)
            correct &= run["correct"] and run["exit_code"] == 0
            runs.append({k: v["value"] for k, v in run["metrics"].items()})
            fingerprints[side].append(run.get("record", {}).get("fingerprint"))
            print(f"{workload} pair {i + 1} {side}: exit {run['exit_code']}",
                  file=sys.stderr)
    metrics = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    print(f"{workload} seed {args.seed}, {args.pairs} pairs, trace {args.trace},"
          f" {SECONDS} s per run; median [q1-q3] base -> change")
    print(format_rows(summarize(sides["base"][1], sides["change"][1], metrics)))
    print(fingerprint_line(fingerprints["base"], fingerprints["change"]))
    return correct


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, action="append",
                   help="repeat for several workloads, one block each")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not all([compare(args, workload) for workload in args.workload]):
        print("error: a run failed its correctness checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
