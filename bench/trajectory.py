"""Measure several trees on benchmark workloads in one session.

    python3 bench/trajectory.py TREE... --workload W [--workload W2 ...]
        --rounds R [--seed 1] [--trace 0|1 ...] --out SESSION.json

A TREE naming a directory is measured in place, uncommitted changes
included; any other TREE is a commit, checked out by `git worktree add
--detach` into a temporary directory that is deleted, and `git worktree
prune` run, when the script ends, also on an error. Round r runs, in every
tree, the tree's own

    python3 perfbench/run.py --workload W --seed S --seconds T --trace X

once per workload and per `--trace` given (default 0; 1 gives the
per-layer metrics), T being BENCHMARK.json's `run_seconds`; the trees go
in the order given on odd rounds and reversed on even ones. R must be
even, so every tree's mean position is the same and a drift of machine
speed linear in time falls on all trees alike (Kalibera and Jones,
"Rigorous benchmarking in reasonable time", ISMM 2013). Give one tree
twice for an A/A control. A committed BENCH_<tag>.json is a one-tree
session: `. --workload paired_n13 --workload sweep_n8_n20 --workload
oracle_audit --trace 0 --trace 1 --rounds 2 --out BENCH_<tag>.json`.

A run keeps the merge of the two JSON lines perfbench prints last, its
`record` and its result (`metrics`, `correct`, ...), plus `exit_code`,
`clean` (whether `git status --porcelain -- src/relaymatch` printed
nothing before the run; null without git), its round, workload and trace.
The session goes to `--out` after every run, `"complete": false` until
the last: per tree the name given, the commit (a directory's `git
rev-parse HEAD`, or null), `src_sha256`, every run, and per workload the
median and quartiles of each BENCHMARK.json metric (end-to-end from trace
0 runs, per-layer from trace 1 runs). With two trees, base and change, it
then prints a verdict per workload and trace over the pairs (round i's
two runs) and the pairs with equal record `fingerprint`s. It raises when
a run prints no result, and exits 1, after writing the session, when any
run is not `correct` or exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
METRICS = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}    # by --trace
# A gain is claimed only from at least ten pairs of runs, better in nine of
# them and in the median by more than the base's interquartile range; with
# fewer pairs the quartiles are a handful of runs pulled together, so
# "clears IQR" is not marked.
MIN_CLAIM_PAIRS = 10


def git(repo: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def head(directory: Path):
    """The commit checked out in `directory`, None outside a repository."""
    try:
        return git(directory, "rev-parse", "--verify", "HEAD")
    except subprocess.CalledProcessError:
        return None


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


def runs_of(runs: list, workload: str, trace: int) -> list:
    return [run for run in runs if run["workload"] == workload and run["trace"] == trace]


def write(session: dict, out: Path) -> None:
    """Summarise every tree's runs so far and write the session to `out`."""
    for entry in session["trees"]:
        runs = entry["runs"]
        entry["src_sha256"] = runs[0].get("record", {}).get("src_sha256") if runs else None
        entry["summary"] = {w: {name: q for t in session["traces"]
                                for name, q in quartiles(runs_of(runs, w, t),
                                                         METRICS[t]).items()}
                            for w in session["workloads"]}
    out.write_text(json.dumps(session, indent=1, sort_keys=True) + "\n")


@contextlib.contextmanager
def checkouts(repo: Path, trees: list):
    """Yield one (directory, commit) per tree, commits of `repo` or
    directories: a directory as given, with its HEAD or None; a commit
    checked out in a temporary worktree, which is gone on exit."""
    directories = [Path(tree).resolve() if Path(tree).is_dir() else None
                   for tree in trees]
    commits = [head(directory) if directory else
               git(repo, "rev-parse", "--verify", f"{tree}^{{commit}}")
               for tree, directory in zip(trees, directories)]
    try:
        with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
            for i, commit in enumerate(commits):
                if directories[i] is None:
                    directories[i] = Path(tmp) / f"{i}-{commit[:12]}"
                    git(repo, "worktree", "add", "--detach", str(directories[i]), commit)
            yield list(zip(directories, commits))
    finally:    # the worktrees' directories are gone: drop their records
        subprocess.run(["git", "worktree", "prune"], cwd=repo, capture_output=True,
                       check=False)


def measure(repo: Path, trees: list, workloads: list, rounds: int, out: Path,
            seed: int, traces: list) -> dict:
    """Run the interleaved rounds over `trees`, commits of `repo` or
    directories, writing the session to `out` after every run."""
    if rounds < 2 or rounds % 2:
        raise ValueError(f"rounds must be even and positive, not {rounds}")
    with checkouts(repo, trees) as places:
        session = {"workloads": workloads, "rounds": rounds, "seed": seed,
                   "traces": traces, "seconds": SECONDS, "complete": False,
                   "trees": [{"tree": tree, "commit": commit, "runs": []}
                             for tree, (_, commit) in zip(trees, places)]}
        for r in range(rounds):
            order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                for workload in workloads:
                    for trace in traces:
                        run = run_one(places[i][0], workload, seed, trace)
                        print(f"round {r + 1} {trees[i]} {workload} trace {trace}: "
                              f"exit {run['exit_code']}", file=sys.stderr)
                        session["trees"][i]["runs"].append(
                            {**run, "round": r + 1, "workload": workload, "trace": trace})
                        write(session, out)
    session["complete"] = True
    write(session, out)
    return session


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
            "clears_iqr": len(b) >= MIN_CLAIM_PAIRS and bool(gain > bq[2] - bq[0]),
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


def verdict(session: dict, workload: str, trace: int) -> str:
    """The two-tree block for one workload and trace; pair i is round i's
    two runs."""
    sides = [runs_of(entry["runs"], workload, trace) for entry in session["trees"]]
    values = [[{k: v["value"] for k, v in run["metrics"].items()} for run in side]
              for side in sides]
    fingerprints = [[run.get("record", {}).get("fingerprint") for run in side]
                    for side in sides]
    base, change = (entry["tree"] for entry in session["trees"])
    return "\n".join([
        f"{workload} seed {session['seed']}, {session['rounds']} pairs, "
        f"trace {trace}, {session['seconds']} s per run; "
        f"median [q1-q3] {base} -> {change}",
        format_rows(summarize(*values, METRICS[trace])),
        fingerprint_line(*fingerprints)])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", help="commits or directories, oldest first")
    p.add_argument("--workload", required=True, action="append",
                   help="repeat for several workloads")
    p.add_argument("--rounds", type=int, required=True, help="an even number")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), action="append",
                   help="repeat to run both; default 0")
    p.add_argument("--out", type=Path, required=True, help="session JSON to write")
    args = p.parse_args(argv)
    session = measure(ROOT, args.trees, args.workload, args.rounds, args.out,
                      args.seed, args.trace or [0])
    if len(args.trees) == 2:
        for workload in args.workload:
            for trace in session["traces"]:
                print(verdict(session, workload, trace))
    print(args.out)
    if not all(run["correct"] and run["exit_code"] == 0
               for entry in session["trees"] for run in entry["runs"]):
        print("error: a run failed its checks or exited non-zero", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
