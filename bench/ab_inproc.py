"""Compare one solver of two checkouts in one process, instance by instance.

    python3 bench/ab_inproc.py BASE CHANGE --solver S --n N --rounds R
        [--instances K] [--quota Q] [--seed 1]
    python3 bench/ab_inproc.py BASE CHANGE --solver audit --rounds R
        [--instances K] [--seed 1]

Both checkouts' `src/relaymatch` packages are loaded under aliases into
this one process, so both sides share one interpreter, one heap and one
machine phase. Every round solves the same K instances. Each instance is
generated by each side's own package from the same topology seed and solved
by base and change in turn; only the solver call is timed. The side that
goes first flips from instance to instance, and the side that starts a
round flips from round to round (a round's line names it). `--solver
exhaustive` times the oracle, `exhaustive_search`, on the benchmark's
`oracle_audit` shape (3 relays x 2 radios, air-to-air, quota 1 or 2); the
walks run on its `paired_n13` shape (5 relays x 2 radios, air-to-air,
quota 1 to 3). `--quota Q` gives every source quota Q. R, K and N below 1
are refused before any package is loaded. Run an A/A control
(the same checkout on both sides) next to every A/B reading: the spread it
shows is what the setup itself gives.

`--solver audit` times whole units of the benchmark's `oracle_audit`
workload instead: instance k is `OracleAudit.run_unit(k)` from this
checkout's `perfbench/workloads.py`, run once through each side's package
(oracle, one PMA run, two stability checks and the potential-identity
audit), timed by the workload's own clock. Units 16b to 16b + 15 hold one
instance of each quota pattern, so K = 16 covers every pattern once. Its
shape is fixed: `--n` and `--quota` are refused.

Per round this prints each side's ms per instance (exhaustive, audit) or
us per activation (the walks, one activation per trace entry), then the
medians over rounds, the rounds the change won, and how many instances
had equal results on both sides: matchings and lambda bytes (every trace
entry's for a walk, the optimum's for `exhaustive`), or the audit's items
(its stream fingerprint's input) with no failed check. It exits 1 when any
result differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from work import load_workloads, positive

WALKS = ("pma", "best_response", "many_to_one", "substitutable")


def load(tree: Path, alias: str):
    """The relaymatch package of checkout `tree`, imported as `alias`."""
    package = tree / "src" / "relaymatch"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def instances(rm, args, seeds):
    """(topology, profiles, caps, solver seed) per seed, from package rm."""
    shape = (dict(num_relays=3, radios_per_relay=2, source_radios=(1, 2))
             if args.solver == "exhaustive" else
             dict(num_relays=5, radios_per_relay=2))
    if args.quota is not None:
        shape["source_radios"] = args.quota
    params = rm.TopologyParams(num_sources=args.n, path_loss=rm.AIR_TO_AIR, **shape)
    out = []
    for topo_seed, solver_seq in seeds:
        topo = rm.generate_topology(params, topo_seed)
        out.append((topo, rm.default_profiles(topo), rm.build_capacity_table(topo),
                    solver_seq))
    return out


def solve_timed(rm, instance, kind):
    """(seconds, activations, strategies, lambda bytes) of one run: the
    trace's lambdas for a walk, the optimum's lambda for the oracle."""
    topo, profiles, caps, seq = instance
    if kind == "exhaustive":
        t0 = time.perf_counter()
        m, lam = rm.exhaustive_search(topo, profiles, caps)
        return time.perf_counter() - t0, 1, m.strategies, lam.hex()
    config = rm.SolverConfig(kind=kind)
    rng = np.random.default_rng(seq)
    t0 = time.perf_counter()
    m, trace = rm.solve(topo, profiles, caps, config, rng)
    return time.perf_counter() - t0, len(trace), m.strategies, trace.lam.tobytes()


class Audit:
    """One side's `oracle_audit` workload, run unit by unit."""

    def __init__(self, rm, workloads, seed):
        self.workload = workloads.OracleAudit(seed, smoke=False)
        self.workload.setup(rm, None)

    def timed(self, k):
        """(seconds, 1, the unit's items, whether every check passed)."""
        out = self.workload.run_unit(k)
        return out.wall, 1, out.items, not out.failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--solver", required=True, choices=WALKS + ("exhaustive", "audit"))
    p.add_argument("--n", type=positive, help="number of sources")
    p.add_argument("--rounds", type=positive, required=True)
    p.add_argument("--instances", type=positive, default=10, help="per round")
    p.add_argument("--quota", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    audit = args.solver == "audit"
    if audit and (args.n is not None or args.quota is not None):
        p.error("--solver audit runs the oracle_audit shape; --n and --quota do not apply")
    if not audit and args.n is None:
        p.error(f"--solver {args.solver} needs --n")

    sides = {"base": load(args.base.resolve(), "relaymatch_base"),
             "change": load(args.change.resolve(), "relaymatch_change")}
    if audit:
        workloads = load_workloads()
        run = {side: Audit(rm, workloads, args.seed).timed for side, rm in sides.items()}
    else:
        seeds = []
        for child in np.random.SeedSequence(args.seed).spawn(args.instances):
            topo_seq, solver_seq = child.spawn(2)
            seeds.append((int(topo_seq.generate_state(1, np.uint64)[0]), solver_seq))
        work = {side: instances(rm, args, seeds) for side, rm in sides.items()}
        run = {side: (lambda i, rm=rm, side=side:
                      solve_timed(rm, work[side][i], args.solver))
               for side, rm in sides.items()}

    walk = args.solver in WALKS
    unit = "us/activation" if walk else "ms/instance"
    shape = "oracle_audit units" if audit else f"n={args.n} quota {args.quota or 'mixed'}"
    print(f"{args.solver} {shape}, "
          f"{args.instances} instances x {args.rounds} rounds, seed {args.seed}")
    readings = {"base": [], "change": []}
    same = [0, 0]
    for r in range(args.rounds):
        seconds = dict.fromkeys(sides, 0.0)
        count = dict.fromkeys(sides, 0)
        for i in range(args.instances):
            order = ("base", "change") if (r + i) % 2 == 0 else ("change", "base")
            runs = {}
            for side in order:
                runs[side] = run[side](i)
                seconds[side] += runs[side][0]
                count[side] += runs[side][1] if walk else 1
            if r == 0:
                base_run, change_run = runs["base"], runs["change"]
                same[0] += base_run[2] == change_run[2]
                same[1] += (base_run[3] and change_run[3] if audit else
                            base_run[3] == change_run[3])
        for side in sides:
            readings[side].append(seconds[side] / count[side] * (1e6 if walk else 1e3))
        first = "base" if r % 2 == 0 else "change"
        print(f"round {r + 1} ({first} first): base {readings['base'][-1]:.4g}"
              f" -> change {readings['change'][-1]:.4g} {unit}")
    base, change = (statistics.median(readings[s]) for s in ("base", "change"))
    won = sum(c < b for b, c in zip(readings["base"], readings["change"]))
    print(f"median: base {base:.4g} -> change {change:.4g} {unit} "
          f"({100.0 * (change - base) / base:+.1f} %), "
          f"change won {won}/{args.rounds} rounds")
    if audit:
        print(f"equal items {same[0]}/{args.instances}, "
              f"all checks passed {same[1]}/{args.instances}")
    else:
        print(f"equal matchings {same[0]}/{args.instances}, "
              f"equal trace lambda bytes {same[1]}/{args.instances}")
    return 0 if same == [args.instances] * 2 else 1


if __name__ == "__main__":
    sys.exit(main())
