"""Command-line front end: gen, run, ensemble, verify, oracle.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime error.
A runtime error prints one line, or its traceback under --debug.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, EnumerationLimitError, from_fields
from .experiments import ExperimentConfig, run_ensemble, run_sweep
from .matching import (Matching, _state, default_profiles, enumerate_strategies,
                       global_satisfaction, is_feasible, is_stable)
from .radio import (PATH_LOSS_PRESETS, TopologyParams, build_capacity_table,
                    build_gain_table, generate_topology, load_topology,
                    save_topology)
from .solvers import (ENUMERATION_CAP, SOLVER_KINDS, SolverConfig,
                      exhaustive_search, solve)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the CLI contract wants 1. Here and in
    every subcommand, a prefix of a flag is an unrecognized argument."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _at_least(least, name):
    """argparse type for an int >= least; the error names the value as name."""
    def integer(text) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be >= {least}, not {value}")
        return value
    return integer


_seed = _at_least(0, "seed")


def _load_instance(path):
    topology, gains = load_topology(path)
    caps = build_capacity_table(topology, gains)
    profiles = default_profiles(topology)
    return topology, caps, profiles


def preset_path(name: str) -> Path:
    return Path(str(resources.files("relaymatch") / "presets" / f"{name}.json"))


def _resolve_config(path_or_name) -> ExperimentConfig:
    p = Path(path_or_name)
    if not p.exists():
        candidate = preset_path(str(path_or_name))
        if candidate.exists():
            p = candidate
        else:
            raise ConfigurationError(f"no config file or preset named {path_or_name!r}")
    return ExperimentConfig.from_json(p)


def _cmd_gen(args) -> int:
    doc = {}
    if args.config is not None:
        with open(args.config) as fh:
            doc = json.load(fh)
    flags = {"num_sources": args.sources, "num_relays": args.relays,
             "radios_per_relay": args.radios_per_relay,
             "path_loss": args.path_loss and asdict(PATH_LOSS_PRESETS[args.path_loss])}
    if isinstance(doc, dict):       # one document: a flag fixes what the file sets
        doc = {**doc, **{k: v for k, v in flags.items() if v is not None}}
    params = from_fields(TopologyParams, doc)
    topology = generate_topology(params, args.seed)
    gains = build_gain_table(topology)
    save_topology(args.out, topology, gains)
    print(f"wrote topology with {topology.num_sources} sources and "
          f"{topology.num_radios} relay radios to {args.out}")
    return 0


def _cmd_run(args) -> int:
    topology, caps, profiles = _load_instance(args.topology)
    config = SolverConfig(kind=args.solver)
    matching, trace = solve(topology, profiles, caps, config,
                            np.random.default_rng(args.seed))
    trace.write_csv(sys.stdout)
    lam = global_satisfaction(matching, profiles, caps)
    print(f"final_lambda,{lam!r}", file=sys.stderr)
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(matching.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_ensemble(args) -> int:
    config = _resolve_config(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    if args.solver is not None:
        kept = [s for s in config.solvers if s.kind == args.solver]
        if not kept:
            raise ConfigurationError(f"config has no solver of kind {args.solver!r}")
        config.solvers = kept
    if args.workers is not None:
        config.workers = args.workers
    if config.sweep_num_sources is not None:
        run_sweep(config, out_dir=args.out)
    else:
        run_ensemble(config, out_dir=args.out)
    print(f"ensemble complete; results in {args.out}")
    return 0


def _cmd_verify(args) -> int:
    topology, caps, profiles = _load_instance(args.topology)
    with open(args.matching) as fh:
        matching = Matching.from_dict(json.load(fh), topology.num_radios)
    if not is_feasible(matching, topology):
        print("INFEASIBLE")
        return 2
    result = is_stable(matching, topology, profiles, caps)
    if result.stable:
        print("stable")
    else:
        n, better = result.witness
        print(f"unstable: source {n} improves by switching to radios {list(better)}")

    # potential-identity audit on every unilateral deviation, the space
    # is_stable has just scanned: dU and the base lambda from the state it
    # kept on the matching, no utility kept; dLambda from a full rebuild of
    # each deviated matching, built directly: with_strategy would keep each
    spaces = {q: enumerate_strategies(topology.num_radios, q) for q in set(topology.quotas)}
    strategies = list(matching.strategies)
    state = _state(matching, profiles, caps)
    worst, count = 0.0, 0
    for n, current in enumerate(matching.strategies):
        u = state.utility(n, current)
        for cand in spaces[topology.quotas[n]]:
            if cand != current:
                strategies[n] = cand
                du = state.utility(n, cand) - u
                deviated = Matching(strategies, topology.num_radios)
                dlam = global_satisfaction(deviated, profiles, caps) - state.lam
                worst = max(worst, abs(du - dlam))
                count += 1
        strategies[n] = current
    print(f"potential-identity max deviation over {count} deviations: {worst:.3e}")
    return 0 if result.stable or args.allow_unstable else 2


def _cmd_oracle(args) -> int:
    topology, caps, profiles = _load_instance(args.topology)
    matching, lam = exhaustive_search(topology, profiles, caps, cap=args.cap)
    print(f"optimal_lambda,{lam!r}")
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(matching.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="relaymatch",
                     description="UAV relay-selection matching simulator")
    parser.add_argument("--debug", action="store_true",
                        help="print a runtime error's traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate and save a seeded topology")
    p.add_argument("--sources", type=int, default=None, help="number of source UAVs")
    p.add_argument("--relays", type=int, default=None, help="number of relay UAVs")
    p.add_argument("--radios-per-relay", type=int, default=None)
    p.add_argument("--path-loss", choices=sorted(PATH_LOSS_PRESETS),
                   default=None, help="path-loss preset")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file with topology parameters")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one solver on one instance")
    p.add_argument("--topology", type=Path, required=True,
                   help="topology JSON written by gen")
    p.add_argument("--solver", choices=SOLVER_KINDS, default="pma")
    p.add_argument("--seed", type=_seed, default=0, help="seeds the solver only")
    p.add_argument("--out", type=Path, default=None, help="write final matching JSON")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ensemble", help="run a full replicated experiment")
    p.add_argument("--config", required=True,
                   help="experiment config JSON path or preset name (fig2, fig3, fig4)")
    p.add_argument("--seed", type=_seed, default=None, help="override master seed")
    p.add_argument("--solver", choices=SOLVER_KINDS, default=None,
                   help="restrict to one solver from the config")
    p.add_argument("--workers", type=_at_least(1, "workers"), default=None,
                   help="override the config's worker processes; results do not change")
    p.add_argument("--out", type=Path, required=True,
                   help="results directory")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("verify", help="stability and potential-identity audit")
    p.add_argument("--topology", type=Path, required=True)
    p.add_argument("--matching", type=Path, required=True)
    p.add_argument("--allow-unstable", action="store_true",
                   help="exit 0 even when a blocking deviation exists")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive search for the global optimum")
    p.add_argument("--topology", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--cap", type=_at_least(0, "cap"), default=ENUMERATION_CAP)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        else:
            print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
