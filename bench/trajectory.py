"""Measure several commits on benchmark workloads in one session.

    python3 bench/trajectory.py TREE... --workload W [--workload W2 ...]
        --rounds R

Each TREE names a commit of this repository. Each is checked out with
`git worktree add --detach` into one temporary directory, and when the
script ends, also on an error, every worktree is removed and `git worktree
prune` is run. A round runs `perfbench/run.py` once per workload in every
tree through `collect.run_one`, at the benchmark's seed 1: in the order
given on odd rounds and in reverse on even ones. R must be even, so every
tree's mean position in the session is the same and a drift of machine
speed that is linear in time falls on all trees alike (Kalibera and Jones,
"Rigorous benchmarking in reasonable time", ISMM 2013); with an odd R the
trees given last would run later on average. Each tree is measured by its
own `perfbench/`.

The session is written to TRAJECTORY.json at the root of this script's
checkout, again after every run, so a run that fails or a session that is
stopped leaves the runs done so far with `"complete": false`. Per tree it
holds the name given, the full commit, its `src_sha256` (perfbench's
digest of `src/relaymatch`, from the runs' records), every run as
`collect.run_one` returns it plus its round and workload, and per workload
and BENCHMARK.json end-to-end metric the median and quartiles over the
rounds. Timings are reports, not checks: the script fails only when a run
prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from collect import ROOT, SECONDS, run_one

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def git(repo: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def quartiles(runs: list, metrics: list) -> dict:
    """Per metric present in every run, its unit and the runs' median and
    quartiles."""
    out = {}
    for m in metrics:
        values = [run["metrics"][m["name"]]["value"] for run in runs
                  if m["name"] in run["metrics"]]
        if values and len(values) == len(runs):
            q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
            out[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3}
    return out


def write(session: dict, out: Path) -> None:
    """Summarise every tree's runs so far and write the session to `out`."""
    for entry in session["trees"]:
        runs = entry["runs"]
        entry["src_sha256"] = runs[0].get("record", {}).get("src_sha256") if runs else None
        entry["summary"] = {w: quartiles([run for run in runs if run["workload"] == w],
                                         BENCHMARK["end_to_end"])
                            for w in session["workloads"]}
    out.write_text(json.dumps(session, indent=1, sort_keys=True) + "\n")


def measure(repo: Path, trees: list, workloads: list, rounds: int, out: Path) -> dict:
    """Run the interleaved rounds over worktrees of `repo`, writing the
    session to `out` after every run, and return it."""
    if rounds < 2 or rounds % 2:
        raise ValueError(f"rounds must be even and positive, not {rounds}")
    commits = [git(repo, "rev-parse", "--verify", f"{tree}^{{commit}}") for tree in trees]
    session = {"workloads": workloads, "rounds": rounds, "seed": SEED,
               "seconds": SECONDS, "complete": False,
               "trees": [{"tree": tree, "commit": commit, "runs": []}
                         for tree, commit in zip(trees, commits)]}
    entries = session["trees"]
    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        checkouts = []
        try:
            for i, commit in enumerate(commits):
                checkout = Path(tmp) / f"{i}-{commit[:12]}"
                git(repo, "worktree", "add", "--detach", str(checkout), commit)
                checkouts.append(checkout)
            for r in range(rounds):
                order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
                for i in order:
                    for workload in workloads:
                        run = run_one(checkouts[i], workload, SEED, 0)
                        print(f"round {r + 1} {trees[i]} {workload}: "
                              f"exit {run['exit_code']}", file=sys.stderr)
                        entries[i]["runs"].append({**run, "round": r + 1,
                                                   "workload": workload})
                        write(session, out)
        finally:
            for checkout in checkouts:
                subprocess.run(["git", "worktree", "remove", "--force", str(checkout)],
                               cwd=repo, capture_output=True, check=False)
            subprocess.run(["git", "worktree", "prune"], cwd=repo,
                           capture_output=True, check=False)
    session["complete"] = True
    write(session, out)
    return session


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", help="commits to measure, oldest first")
    p.add_argument("--workload", required=True, action="append",
                   help="repeat for several workloads")
    p.add_argument("--rounds", type=int, required=True, help="an even number")
    args = p.parse_args(argv)
    out = ROOT / "TRAJECTORY.json"
    measure(ROOT, args.trees, args.workload, args.rounds, out)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
