"""Run the benchmark's three workloads and keep their results in one file.

    python3 bench/collect.py --tag <tag> [--seed 1] [--checkout DIR]

For each workload, and with tracing off (`--trace 0`, end-to-end metrics)
and on (`--trace 1`, per-layer metrics), this runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace X

in the checkout DIR (default: the checkout holding this script), with T the
benchmark's `run_seconds` from BENCHMARK.json, so every collection runs for
the same length. Each run is kept as the merge of the two JSON lines it
prints last, its record and its result, plus its exit code and `clean`:
whether `git status --porcelain -- src/relaymatch` in the checkout printed
nothing (true), something (false), or failed because the checkout has no
git (null), taken before the run. The runs are
written to BENCH_<tag>.json at the root of this script's checkout, so a
parent commit can be measured from a clean copy of it and its file still
lands here. Runs are sequential; the whole collection takes about six times
T plus set-up. Timings are reports, not checks: the script exits non-zero
only when a run does not print its result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paired_n13", "sweep_n8_n20", "oracle_audit")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def tree_clean(checkout: Path):
    """True when git sees no change to src/relaymatch in the checkout, False
    when it does, None when the checkout has no git."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src/relaymatch"],
                              cwd=checkout, capture_output=True, text=True,
                              check=False)
    except FileNotFoundError:     # no git installed
        return None
    return None if proc.returncode else proc.stdout == ""


def run_one(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    clean = tree_clean(checkout)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} without "
                           f"a result:\n{proc.stderr[-2000:]}")
    return {**json.loads(lines[-2]), **json.loads(lines[-1]),
            "exit_code": proc.returncode, "clean": clean}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--checkout", type=Path, default=ROOT)
    args = p.parse_args(argv)
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_one(args.checkout.resolve(), workload, args.seed, trace)
            print(f"{workload} --trace {trace}: exit {run['exit_code']}",
                  file=sys.stderr)
            runs.append(run)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({"tag": args.tag, "runs": runs}, indent=1,
                              sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
