"""Command-line front end: gen, run, ensemble, verify, oracle.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime error.
A runtime error prints one line, or its traceback under --debug.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, EnumerationLimitError, from_fields
from .experiments import (OUT_DIR_ENV, ExperimentConfig, _resolve_out_dir,
                          run_ensemble, run_sweep)
from .matching import (Matching, default_profiles, enumerate_strategies,
                       global_satisfaction, is_feasible, is_stable, relay_utility)
from .radio import (PATH_LOSS_PRESETS, TopologyParams, build_capacity_table,
                    build_gain_table, generate_topology, load_topology,
                    save_topology)
from .solvers import (ENUMERATION_CAP, SOLVER_KINDS, SolverConfig,
                      exhaustive_search, solve)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_topology_flags(p):
    p.add_argument("--sources", type=int, default=None, help="number of source UAVs")
    p.add_argument("--relays", type=int, default=None, help="number of relay UAVs")
    p.add_argument("--radios-per-relay", type=int, default=None)
    p.add_argument("--path-loss", choices=sorted(PATH_LOSS_PRESETS),
                   default=None, help="path-loss preset")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file with topology parameters")


def _non_negative(name):
    """argparse type for an int >= 0; the error names the value as name."""
    def non_negative_int(text) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be >= 0, not {value}")
        return value
    return non_negative_int


_seed = _non_negative("seed")


def _topology_params(args) -> TopologyParams:
    doc = {}
    if args.config is not None:
        with open(args.config) as fh:
            doc = json.load(fh)
    flags = {"num_sources": args.sources, "num_relays": args.relays,
             "radios_per_relay": args.radios_per_relay,
             "path_loss": PATH_LOSS_PRESETS.get(args.path_loss)}
    return replace(from_fields(TopologyParams, doc),
                   **{k: v for k, v in flags.items() if v is not None})


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
    params = _topology_params(args)
    topology = generate_topology(params, args.seed)
    gains = build_gain_table(topology)
    save_topology(args.out, topology, gains)
    print(f"wrote topology with {topology.num_sources} sources and "
          f"{topology.num_radios} relay radios to {args.out}")
    return 0


def _cmd_run(args) -> int:
    if args.topology is not None:
        given = [f"--{dest.replace('_', '-')}" for dest in
                 ("sources", "relays", "radios_per_relay", "path_loss", "config")
                 if getattr(args, dest) is not None]
        if given:
            raise ConfigurationError(
                f"--topology fixes the instance; {', '.join(given)} would be ignored")
        topology, caps, profiles = _load_instance(args.topology)
    else:
        topology = generate_topology(_topology_params(args), args.seed)
        caps = build_capacity_table(topology)
        profiles = default_profiles(topology)
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
    out = _resolve_out_dir(config, args.out)
    if out is None:
        # run_ensemble keeps results in memory without one; here they would be lost
        raise ConfigurationError(
            f"no output directory: pass --out, set {OUT_DIR_ENV} or give out_dir "
            "in the config")
    if config.sweep_num_sources is not None:
        run_sweep(config, out_dir=out)
    else:
        run_ensemble(config, out_dir=out)
    print(f"ensemble complete; results in {out}")
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

    # potential-identity audit on sampled unilateral deviations: dU and the
    # base lambda from the kernel state kept on the matching, dLambda from a
    # full rebuild of each deviated matching
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    base = global_satisfaction(matching, profiles, caps)
    for _ in range(args.samples):
        n = int(rng.integers(topology.num_sources))
        space = enumerate_strategies(topology.num_radios, topology.quotas[n])
        cand = space[int(rng.integers(len(space)))]
        du = (relay_utility(matching, n, cand, profiles, caps)
              - relay_utility(matching, n, matching.radios_of(n), profiles, caps))
        dlam = global_satisfaction(matching.with_strategy(n, cand),
                                   profiles, caps) - base
        worst = max(worst, abs(du - dlam))
    print(f"potential-identity max deviation over {args.samples} samples: {worst:.3e}")
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
    _add_topology_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one solver on one instance")
    _add_topology_flags(p)
    p.add_argument("--topology", type=Path, default=None,
                   help="topology JSON (otherwise generated from flags)")
    p.add_argument("--solver", choices=SOLVER_KINDS, default="pma")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=Path, default=None, help="write final matching JSON")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ensemble", help="run a full replicated experiment")
    p.add_argument("--config", required=True,
                   help="experiment config JSON path or preset name (fig2, fig3, fig4)")
    p.add_argument("--seed", type=_seed, default=None, help="override master seed")
    p.add_argument("--solver", choices=SOLVER_KINDS, default=None,
                   help="restrict to one solver from the config")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("verify", help="stability and potential-identity audit")
    p.add_argument("--topology", type=Path, required=True)
    p.add_argument("--matching", type=Path, required=True)
    p.add_argument("--samples", type=_non_negative("sample count"), default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--allow-unstable", action="store_true",
                   help="exit 0 even when a blocking deviation exists")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive search for the global optimum")
    p.add_argument("--topology", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--cap", type=_non_negative("cap"), default=ENUMERATION_CAP)
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
