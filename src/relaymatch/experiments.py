"""Seeded ensemble runner, metric aggregation and result persistence.

Seed discipline: a master seed feeds numpy's SeedSequence; replication i
uses child i, which is split again into one topology seed plus one
independent stream per solver. Every solver within a replication therefore
sees the identical topology (paired comparison) while drawing from its own
stream, and reruns of the same config reproduce every byte of output.
"""

from __future__ import annotations

import hashlib
import json
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, matching, solvers
from .errors import ConfigurationError, from_fields
from .matching import default_profiles, global_satisfaction
from .radio import (TopologyParams, build_capacity_table, build_gain_table,
                    generate_topology)
from .solvers import IterationTrace, SolverConfig, solve

METRICS = ("runs", "cdf", "trace")
#: module constants that change results, recorded in every manifest
RESULT_CONSTANTS = ((solvers, ("ANNEAL_SCALE", "BETA_MAX", "STOP_WINDOW",
                               "IMPROVEMENT_TOL", "ENUMERATION_CAP", "RADIO_QUOTA")),
                    (matching, ("SATISFACTION_TOL", "STABILITY_CAP")))


@dataclass
class ExperimentConfig:
    topology: TopologyParams = field(default_factory=TopologyParams)
    solvers: list[SolverConfig] = field(default_factory=lambda: [SolverConfig(kind="pma")])
    replications: int = 1
    master_seed: int = 0
    metrics: tuple[str, ...] = ("runs", "cdf")
    workers: int = 1
    store_traces: bool = True
    sweep_num_sources: Optional[list[int]] = None

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if not self.solvers:
            raise ConfigurationError("at least one solver is required")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be >= 0")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise ConfigurationError(
                f"unknown metrics {unknown}; choose from {list(METRICS)}")
        if "trace" in self.metrics and not self.store_traces:
            raise ConfigurationError(
                "metric 'trace' needs store_traces: the mean trace is built "
                "from the stored traces")
        kinds = [s.kind for s in self.solvers]
        if len(set(kinds)) < len(kinds):
            raise ConfigurationError(
                f"solver kinds {kinds} repeat; a kind names one output series")
        sweep = self.sweep_num_sources or []
        repeats = sorted({n for n in sweep if sweep.count(n) > 1})
        if repeats:
            raise ConfigurationError(f"sweep_num_sources repeats sizes {repeats}; "
                                     "a size names one n<N> output directory")

    def to_dict(self) -> dict:
        return asdict(self)

    def _recorded(self) -> dict:
        """Every setting that changes results: to_dict() without workers,
        which changes only how fast they are produced."""
        doc = self.to_dict()
        del doc["workers"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return from_fields(cls, doc)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def config_hash(self) -> str:
        """Digest of every setting that changes results, the manifest's
        config block."""
        payload = json.dumps(self._recorded(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


@dataclass
class RunRecord:
    replication: int
    solver: str
    topology_seed: int
    final_lambda: float
    convergence_iteration: Optional[int]
    iterations: int
    num_sources: int
    matching: dict
    trace: Optional[IterationTrace] = None


def _replication_seeds(master_seed: int, replications: int, n_solvers: int):
    """Yields (topology_seed, [solver SeedSequence, ...]) per replication."""
    root = np.random.SeedSequence(master_seed)
    for child in root.spawn(replications):
        parts = child.spawn(1 + n_solvers)
        topo_seed = int(parts[0].generate_state(1, np.uint64)[0])
        yield topo_seed, parts[1:]


def _run_replication(config: ExperimentConfig, index: int, topo_seed: int,
                     solver_seeds) -> list:
    try:
        topology = generate_topology(config.topology, topo_seed)
        gains = build_gain_table(topology)
        caps = build_capacity_table(topology, gains)
        profiles = default_profiles(topology)
        records = []
        for solver_cfg, seed_seq in zip(config.solvers, solver_seeds):
            rng = np.random.default_rng(seed_seq)
            m, trace = solve(topology, profiles, caps, solver_cfg, rng)
            records.append(RunRecord(
                replication=index,
                solver=solver_cfg.kind,
                topology_seed=topo_seed,
                final_lambda=float(global_satisfaction(m, profiles, caps)),
                convergence_iteration=trace.convergence_iteration,
                iterations=trace.num_iterations,
                num_sources=topology.num_sources,
                matching=m.to_dict(),
                trace=trace if config.store_traces else None,
            ))
        return records
    except Exception as exc:
        kind = ConfigurationError if isinstance(exc, ConfigurationError) else RuntimeError
        raise kind(f"replication {index} (topology seed {topo_seed}) failed: {exc}") from exc


@dataclass
class EnsembleResult:
    config: ExperimentConfig
    records: list

    @property
    def solver_names(self) -> list:
        return [s.kind for s in self.config.solvers]

    def records_for(self, solver: str) -> list:
        out = [r for r in self.records if r.solver == solver]
        if not out:
            raise ConfigurationError(f"no runs recorded for solver {solver!r}")
        return out

    def final_lambdas(self, solver: str) -> np.ndarray:
        return np.array([r.final_lambda for r in self.records_for(solver)])

    def satisfaction_proportion(self, solver: str) -> float:
        recs = self.records_for(solver)
        return float(np.mean([r.final_lambda / r.num_sources for r in recs]))

    def non_converged_fraction(self, solver: str) -> float:
        recs = self.records_for(solver)
        capped = sum(1 for r in recs if r.convergence_iteration is None)
        return capped / len(recs)

    def mean_trace(self, solver: str) -> np.ndarray:
        """Mean lambda at each iteration; shorter runs are held at their final
        value so the average reflects a converged system."""
        traces = [r.trace for r in self.records_for(solver)]
        if any(t is None for t in traces):
            raise ConfigurationError("traces were not stored for this ensemble")
        per_iter = [t.lambda_per_iteration() for t in traces]
        length = max(len(lam) for lam in per_iter)
        acc = np.zeros(length)
        for t, lam in zip(traces, per_iter):
            acc[:len(lam)] += lam
            if len(lam) < length:
                acc[len(lam):] += lam[-1] if len(lam) else t.initial_lambda
        return acc / len(traces)


def convergence_cdf(result: EnsembleResult, solver: str):
    """Empirical CDF of convergence iterations over converged runs.

    Runs that hit the iteration cap carry no convergence iteration; they are
    excluded here and surfaced via non_converged_fraction instead.
    """
    recs = result.records_for(solver)
    vals = sorted(r.convergence_iteration for r in recs
                  if r.convergence_iteration is not None)
    if not vals:
        raise ConfigurationError(f"no converged runs for solver {solver!r}")
    xs = sorted(set(vals))
    n = len(vals)
    counts = np.searchsorted(vals, xs, side="right")
    return np.array(xs), counts / n


def satisfaction_vs_n(results: Sequence) -> list:
    """Rows of (num_sources, solver, mean final lambda / N) from a sequence of
    (N, EnsembleResult) pairs."""
    rows = []
    for n, result in results:
        for solver in result.solver_names:
            rows.append({"num_sources": n, "solver": solver,
                         "proportion": result.satisfaction_proportion(solver)})
    return rows


def run_ensemble(config: ExperimentConfig, out_dir=None) -> EnsembleResult:
    """Run every configured solver on every replication's topology (shared
    within a replication); with out_dir, persist CSVs plus a manifest there.
    The config checked itself when it was built, before any replication
    runs; one that sets sweep_num_sources belongs to run_sweep."""
    if config.sweep_num_sources is not None:
        raise ConfigurationError(
            "sweep_num_sources is set: run_sweep runs one ensemble per size, "
            "run_ensemble only topology.num_sources")
    seeds = list(_replication_seeds(config.master_seed, config.replications,
                                    len(config.solvers)))
    # fork starts every worker up front, so start no more than there is work
    workers = min(config.workers, len(seeds))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(
                _run_replication,
                [config] * len(seeds), range(len(seeds)),
                [s[0] for s in seeds], [s[1] for s in seeds]))
    else:
        chunks = [_run_replication(config, i, topo_seed, solver_seeds)
                  for i, (topo_seed, solver_seeds) in enumerate(seeds)]
    records = [r for chunk in chunks for r in chunk]
    result = EnsembleResult(config=config, records=records)

    if out_dir is not None:
        write_result(result, out_dir)
    return result


def run_sweep(config: ExperimentConfig, out_dir=None) -> list:
    """Run one ensemble per entry of sweep_num_sources; each N gets its own
    deterministic seed root derived from (master_seed, N); with out_dir,
    each size writes under out_dir/n<N>. Each size's topology parameters
    check themselves when they are built, before the first replication runs."""
    if not config.sweep_num_sources:
        raise ConfigurationError("sweep_num_sources is empty")
    out = None if out_dir is None else Path(out_dir)
    subs = [(n, replace(
        config, topology=replace(config.topology, num_sources=n),
        master_seed=int(np.random.SeedSequence(
            (config.master_seed, n)).generate_state(1)[0]),
        sweep_num_sources=None))
        for n in map(int, config.sweep_num_sources)]
    results = [(n, run_ensemble(sub, out_dir=None if out is None else out / f"n{n}"))
               for n, sub in subs]

    if out is not None:
        with open(out / "satisfaction_vs_n.csv", "w") as fh:
            fh.write("num_sources,solver,proportion\n")
            for row in satisfaction_vs_n(results):
                fh.write(f"{row['num_sources']},{row['solver']},{row['proportion']!r}\n")
        _write_manifest(config, out, sweep=[n for n, _ in subs],
                        master_seeds={str(n): sub.master_seed for n, sub in subs})
    return results


@cache
def _source_digest() -> str:
    """sha256 over every file of the package but __pycache__, in sorted
    path order, each as its path relative to the source root and then its
    bytes: perfbench's source_identity rule, so a manifest and a BENCH
    record can be matched. Computed once per process, on the first
    manifest write."""
    package = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package.parent).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _code_block() -> dict:
    """The manifest's code block: what besides the config changes results,
    namely the sources, the result-changing module constants and the Python
    and numpy versions (the draw mirror reproduces numpy's algorithms)."""
    return {
        "src_sha256": _source_digest(),
        "constants": {name: getattr(module, name)
                      for module, names in RESULT_CONSTANTS for name in names},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _write_manifest(config: ExperimentConfig, out: Path, **extra) -> None:
    manifest = {
        "code": _code_block(),
        "config": config._recorded(),
        "config_sha256": config.config_hash(),
        "version": __version__,
        **extra,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_result(result: EnsembleResult, out_dir) -> None:
    """Persist the selected metrics as CSV: per-run records ("runs"),
    convergence CDFs ("cdf") and mean traces ("trace"), plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = result.config

    if "runs" in config.metrics:
        with open(out / "runs.csv", "w") as fh:
            fh.write("replication,solver,topology_seed,final_lambda,"
                     "convergence_iteration,iterations,num_sources\n")
            for r in result.records:
                conv = ("" if r.convergence_iteration is None
                        else r.convergence_iteration)
                fh.write(f"{r.replication},{r.solver},{r.topology_seed},"
                         f"{r.final_lambda!r},{conv},{r.iterations},{r.num_sources}\n")

    if "cdf" in config.metrics:
        for solver in result.solver_names:
            try:
                xs, ps = convergence_cdf(result, solver)
            except ConfigurationError:
                continue
            with open(out / f"cdf_{solver}.csv", "w") as fh:
                fh.write("iterations,cumulative_probability\n")
                for x, p in zip(xs, ps):
                    fh.write(f"{x},{float(p)!r}\n")
                fh.write(f"# non_converged_fraction,"
                         f"{result.non_converged_fraction(solver)!r}\n")

    if "trace" in config.metrics:
        for solver in result.solver_names:
            trace = result.mean_trace(solver)
            with open(out / f"mean_trace_{solver}.csv", "w") as fh:
                fh.write("iteration,mean_lambda\n")
                for k, lam in enumerate(trace, start=1):
                    fh.write(f"{k},{float(lam)!r}\n")

    seeds = {r.replication: r.topology_seed for r in result.records}
    _write_manifest(config, out, topology_seeds=list(seeds.values()))
