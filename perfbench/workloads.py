"""The three benchmark workloads.

Each workload is a closed loop: unit k of work starts when unit k - 1 has
finished and its outputs have been checked. Unit k is a pure function of
(workload seed, k), so the first `det_units` units of every run with one
seed produce the same outputs; the deterministic metrics and the stream
fingerprint are taken from them.

A unit returns an Outcome. Only the program's own work is inside the
timed region; the checks run after it, with references to relaymatch's
functions taken before any tracing wrapper was installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

TOL = 1e-10          # satisfaction-scale tolerance, as in the acceptance gate


@dataclasses.dataclass
class Outcome:
    attempted: int                  # replications attempted in the unit
    rep_seconds: list = dataclasses.field(default_factory=list)
    wall: float = 0.0               # timed wall time of the unit
    probe: float = 0.0              # calibration probe time around the unit
    pma: list = dataclasses.field(default_factory=list)
    ratios: list = dataclasses.field(default_factory=list)   # PMA λ / reference λ
    items: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)
    failed: int = 0                 # replications that raised or failed a check
    bytes_written: int = 0
    warnings: list = dataclasses.field(default_factory=list)


def unit_seed(seed: int, k: int) -> int:
    """Master seed of unit k: a child of the workload seed."""
    seq = np.random.SeedSequence(seed, spawn_key=(k,))
    return int(seq.generate_state(1, np.uint64)[0])


def pma_stats(lam, num_sources, trace):
    """(λ/N, activations, accepted proposals, convergence iteration)."""
    return (lam / num_sources, len(trace), int(trace.accepted.sum()),
            trace.convergence_iteration)


def csv_number(text):
    """A number written to a CSV, plain or as numpy 2's np.float64(...)
    repr; the second return value tells which."""
    if text.startswith("np.float64(") and text.endswith(")"):
        return float(text[len("np.float64("):-1]), False
    return float(text), True


def strategies(matching_dict):
    return [matching_dict[k] for k in sorted(matching_dict, key=int)]


class Checks:
    """Correctness checks over relaymatch outputs.

    Holds the unwrapped functions, so checks are never traced and never
    counted in a layer's calls.
    """

    def __init__(self, rm):
        self.rm = rm
        self.generate_topology = rm.radio.generate_topology
        self.build_gain_table = rm.radio.build_gain_table
        self.build_capacity_table = rm.radio.build_capacity_table
        self.global_satisfaction = rm.matching.global_satisfaction
        self.is_feasible = rm.matching.is_feasible

    def instance(self, params, topo_seed):
        topo = self.generate_topology(params, topo_seed)
        caps = self.build_capacity_table(topo, self.build_gain_table(topo))
        return topo, self.rm.matching.default_profiles(topo), caps

    def record(self, rec, params, failures):
        """Feasibility and the recorded λ of one ensemble RunRecord."""
        topo, profiles, caps = self.instance(params, rec.topology_seed)
        m = self.rm.matching.Matching.from_dict(rec.matching, topo.num_radios)
        tag = f"replication {rec.replication} solver {rec.solver}"
        ok = True
        if not self.is_feasible(m, topo):
            failures.append(f"{tag}: infeasible matching")
            ok = False
        fresh = self.global_satisfaction(m, profiles, caps)
        if abs(fresh - rec.final_lambda) > TOL:
            failures.append(f"{tag}: final_lambda {rec.final_lambda!r} != "
                            f"fresh global_satisfaction {fresh!r}")
            ok = False
        if rec.trace is None:
            failures.append(f"{tag}: trace missing")
            ok = False
        return ok


class PairedN13:
    """Fig2-shaped paired ensemble in memory: N=13, 5 relays x 2 radios,
    air-to-air, all four solvers, one replication per run_ensemble call."""

    name = "paired_n13"
    solvers = ("pma", "best_response", "many_to_one", "substitutable")
    reps_per_unit = 1
    granularity = 1

    def __init__(self, seed, smoke):
        self.seed = seed
        self.det_units = 2 if smoke else 32

    def setup(self, rm, workdir):
        self.rm = rm
        self.params = rm.TopologyParams(num_sources=13, num_relays=5,
                                        radios_per_relay=2,
                                        path_loss=rm.AIR_TO_AIR)
        self.template = rm.ExperimentConfig(
            topology=self.params,
            solvers=[rm.SolverConfig(kind=k) for k in self.solvers],
            replications=1, metrics=("runs",), store_traces=True, workers=1)
        self.configs = [dataclasses.replace(self.template,
                                            master_seed=unit_seed(self.seed, k))
                        for k in range(self.det_units)]
        self.checks = Checks(rm)

    def run_unit(self, k):
        config = (self.configs[k] if k < len(self.configs) else
                  dataclasses.replace(self.template,
                                      master_seed=unit_seed(self.seed, k)))
        t0 = perf_counter()
        result = self.rm.experiments.run_ensemble(config)
        wall = perf_counter() - t0

        out = Outcome(attempted=1, rep_seconds=[wall], wall=wall)
        records = result.records
        names = [r.solver for r in records]
        ok = names == list(self.solvers)
        if not ok:
            out.failures.append(f"unit {k}: solvers {names}")
        for rec in records:
            ok &= self.checks.record(rec, self.params, out.failures)
            out.items.append([rec.solver, repr(rec.final_lambda),
                              strategies(rec.matching),
                              *pma_stats(rec.final_lambda, rec.num_sources,
                                         rec.trace)[1:]])
        pma = records[0]
        out.pma.append(pma_stats(pma.final_lambda, pma.num_sources, pma.trace))
        out.ratios.append(pma.final_lambda / max(r.final_lambda for r in records))
        out.failed = 0 if ok else 1
        return out


class OracleAudit:
    """Criterion-2-shaped audit: 4 sources, 3 relays x 2 radios, quota 1 or
    2. Per instance: exhaustive search, one default run_pma, is_stable on
    both results and a 200-sample potential-identity audit.

    Exhaustive search costs 7^a * 22^b profiles for a sources of quota 1
    and b of quota 2, a 98-fold spread, so a random draw of quotas would
    make throughput depend on the seed. Each block of instances therefore
    holds one instance per quota pattern, each the first seed child drawn
    whose topology has that pattern, and runs stop only at block ends.
    """

    name = "oracle_audit"
    reps_per_unit = 1
    samples = 200

    def __init__(self, seed, smoke):
        self.seed = seed
        # smoke runs use the two cheapest patterns only
        self.patterns = (0, 1) if smoke else tuple(range(16))
        self.granularity = len(self.patterns)
        self.det_units = self.granularity * (1 if smoke else 4)

    def setup(self, rm, workdir):
        self.rm = rm
        self.params = rm.TopologyParams(num_sources=4, num_relays=3,
                                        radios_per_relay=2, source_radios=(1, 2),
                                        path_loss=rm.AIR_TO_AIR)
        self.pma_config = rm.SolverConfig(kind="pma")
        self.checks = Checks(rm)
        self._blocks = {}
        self._block(0)

    def _block(self, b):
        """(topology seed, PMA stream, audit stream) per pattern of block b."""
        if b not in self._blocks:
            slots = {}
            for t in itertools.count():
                child = np.random.SeedSequence(self.seed, spawn_key=(b, t))
                topo_seq, pma_seq, audit_seq = child.spawn(3)
                topo_seed = int(topo_seq.generate_state(1, np.uint64)[0])
                topo = self.checks.generate_topology(self.params, topo_seed)
                pattern = sum((s.num_radios - 1) << i
                              for i, s in enumerate(topo.sources))
                if pattern in self.patterns and pattern not in slots:
                    slots[pattern] = (topo_seed, pma_seq, audit_seq)
                    if len(slots) == len(self.patterns):
                        break
            self._blocks[b] = [slots[p] for p in self.patterns]
        return self._blocks[b]

    def _identity_audit(self, m, topo, profiles, caps, audit_seq):
        """Largest |ΔU - Δλ| over sampled unilateral deviations from m."""
        matching = self.rm.matching
        rng = np.random.default_rng(audit_seq)
        spaces = [matching.enumerate_strategies(topo.num_radios, q)
                  for q in topo.quotas]
        base = matching.global_satisfaction(m, profiles, caps)
        worst = 0.0
        for _ in range(self.samples):
            n = int(rng.integers(topo.num_sources))
            cand = spaces[n][int(rng.integers(len(spaces[n])))]
            du = (matching.relay_utility(m, n, cand, profiles, caps)
                  - matching.relay_utility(m, n, m.radios_of(n), profiles, caps))
            dlam = matching.global_satisfaction(m.with_strategy(n, cand),
                                                profiles, caps) - base
            worst = max(worst, abs(du - dlam))
        return worst

    def run_unit(self, k):
        rm = self.rm
        topo_seed, pma_seq, audit_seq = self._block(k // self.granularity)[
            k % self.granularity]
        t0 = perf_counter()
        topo = rm.radio.generate_topology(self.params, topo_seed)
        caps = rm.radio.build_capacity_table(topo, rm.radio.build_gain_table(topo))
        profiles = rm.matching.default_profiles(topo)
        opt_m, opt_lam = rm.solvers.exhaustive_search(topo, profiles, caps)
        pma_m, trace = rm.solvers.run_pma(topo, profiles, caps, self.pma_config,
                                          rng=np.random.default_rng(pma_seq))
        opt_stable = rm.matching.is_stable(opt_m, topo, profiles, caps).stable
        pma_stable = rm.matching.is_stable(pma_m, topo, profiles, caps).stable
        identity = self._identity_audit(pma_m, topo, profiles, caps, audit_seq)
        wall = perf_counter() - t0

        out = Outcome(attempted=1, rep_seconds=[wall], wall=wall)
        c = self.checks
        fail = out.failures
        tag = f"instance {k} (topology seed {topo_seed})"
        for label, m in (("oracle", opt_m), ("pma", pma_m)):
            if not c.is_feasible(m, topo):
                fail.append(f"{tag}: {label} matching infeasible")
        fresh_opt = c.global_satisfaction(opt_m, profiles, caps)
        if abs(fresh_opt - opt_lam) > TOL:
            fail.append(f"{tag}: oracle λ {opt_lam!r} != fresh {fresh_opt!r}")
        pma_lam = c.global_satisfaction(pma_m, profiles, caps)
        if pma_lam > opt_lam + TOL:
            fail.append(f"{tag}: PMA λ {pma_lam!r} exceeds oracle λ {opt_lam!r}")
        if not opt_stable:
            fail.append(f"{tag}: the global optimum is reported unstable")
        if identity > TOL:
            fail.append(f"{tag}: potential-identity error {identity:.3e}")
        out.failed = 1 if fail else 0
        out.pma.append(pma_stats(pma_lam, topo.num_sources, trace))
        out.ratios.append(pma_lam / opt_lam)
        out.items.append([repr(opt_lam), list(opt_m.strategies), repr(pma_lam),
                          list(pma_m.strategies), *out.pma[0][1:],
                          opt_stable, pma_stable, repr(identity)])
        return out


def _timed_call(fn, *args):
    """Runs in a pool worker: the call's result and its wall time."""
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def timed_pool(sink):
    """A ProcessPoolExecutor whose map appends each task's worker-side wall
    time to `sink`, so replications run in the pool are timed one by one."""

    class TimedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, timeout=None, chunksize=1):
            results = super().map(_timed_call, itertools.repeat(fn), *iterables,
                                  timeout=timeout, chunksize=chunksize)
            for value, seconds in results:
                sink.append(seconds)
                yield value

    return TimedPool


class SweepN8N20:
    """`relaymatch ensemble` sweep over N in {8, 20}: pma + substitutable,
    traces stored, runs/cdf/trace written to a fresh directory, and
    min(2, nproc) pool workers.

    A sweep replication is replication i at every N: an N=8 and an N=20
    ensemble replication. Timing them apart would give a two-humped
    distribution whose median falls in the gap between the humps.
    """

    name = "sweep_n8_n20"
    sizes = (8, 20)
    solvers = ("pma", "substitutable")
    granularity = 1

    def __init__(self, seed, smoke):
        self.seed = seed
        self.replications = 2 if smoke else 24
        self.reps_per_unit = self.replications
        self.det_units = 1 if smoke else 2
        self.workers = min(2, os.cpu_count() or 1)

    def setup(self, rm, workdir):
        self.rm = rm
        self.workdir = Path(workdir)
        self.config_path = self.workdir / "sweep.json"
        doc = {"topology": {"num_relays": 5, "radios_per_relay": 2,
                            "path_loss": dataclasses.asdict(rm.AIR_TO_AIR)},
               "solvers": [{"kind": k} for k in self.solvers],
               "replications": self.replications,
               "metrics": ["runs", "cdf", "trace"],
               "store_traces": True,
               "sweep_num_sources": list(self.sizes),
               "workers": self.workers}
        self.config_path.write_text(json.dumps(doc, indent=2))
        self.config = rm.ExperimentConfig.from_json(self.config_path)
        rm.cli.build_parser().parse_args(self._argv(0, self.workdir))
        self.checks = Checks(rm)

    def instrument(self):
        """Capture the sweep results and time pool tasks one by one."""
        self.rep_seconds = []
        self.captured = []
        self.rm.experiments.ProcessPoolExecutor = timed_pool(self.rep_seconds)
        run_sweep = self.rm.cli.run_sweep

        def capture(config, out_dir=None):
            results = run_sweep(config, out_dir=out_dir)
            self.captured.append(results)
            return results

        self.rm.cli.run_sweep = capture

    def _argv(self, k, out):
        return ["ensemble", "--config", str(self.config_path),
                "--seed", str(unit_seed(self.seed, k)), "--out", str(out)]

    def run_unit(self, k):
        out_dir = Path(tempfile.mkdtemp(prefix=f"sweep{k}-", dir=self.workdir))
        argv = self._argv(k, out_dir)
        first = len(self.rep_seconds)
        self.captured.clear()
        try:
            t0 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.rm.cli.main(argv)
            wall = perf_counter() - t0
            out = Outcome(attempted=self.reps_per_unit, wall=wall)
            timed = self.rep_seconds[first:]
            if len(timed) == self.replications * len(self.sizes):
                # pool tasks arrive N by N, replications in order within each
                out.rep_seconds = [sum(timed[i::self.replications])
                                   for i in range(self.replications)]
            else:
                # no pool: replications are not timed one by one
                out.rep_seconds = [wall / self.reps_per_unit] * self.reps_per_unit
            self._check(k, rc, out_dir, out)
            out.bytes_written = sum(f.stat().st_size for f in out_dir.rglob("*")
                                    if f.is_file())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def _check(self, k, rc, out_dir, out):
        fail = out.failures
        tag = f"sweep {k}"
        if rc != 0:
            fail.append(f"{tag}: relaymatch ensemble exited {rc}")
        expected = ["manifest.json", "satisfaction_vs_n.csv"]
        for n in self.sizes:
            expected += [f"n{n}/{f}" for f in ("runs.csv", "manifest.json")]
            for s in self.solvers:
                expected += [f"n{n}/cdf_{s}.csv", f"n{n}/mean_trace_{s}.csv"]
        for rel in expected:
            path = out_dir / rel
            if not path.is_file():
                fail.append(f"{tag}: missing {rel}")
            elif "/cdf_" in rel or "/mean_trace_" in rel:
                rows = [ln for ln in path.read_text().splitlines()[1:]
                        if ln and not ln.startswith("#")]
                last, plain = csv_number(rows[-1].split(",")[1]) if rows else (0, 1)
                if "/cdf_" in rel and last != 1.0:
                    fail.append(f"{tag}: {rel} does not end at 1")
                if not plain:
                    out.warnings.append(f"{rel.split('/')[-1]} writes numpy "
                                        "reprs (np.float64(...)), not plain numbers")
            elif rel.endswith("runs.csv"):
                lines = path.read_text().splitlines()
                if len(lines) != 1 + self.replications * len(self.solvers):
                    fail.append(f"{tag}: {rel} has {len(lines) - 1} runs")
        results = self.captured[0] if len(self.captured) == 1 else []
        if [n for n, _ in results] != list(self.sizes):
            fail.append(f"{tag}: swept sizes {[n for n, _ in results]}")
        for n, result in results:
            if len(result.records) != self.replications * len(self.solvers):
                fail.append(f"{tag}: N={n} has {len(result.records)} runs")
        sweep_failed = bool(fail)
        bad_reps = set()
        for n, result in results:
            params = dataclasses.replace(self.config.topology, num_sources=n)
            by_rep = {}
            for rec in result.records:
                if not self.checks.record(rec, params, fail):
                    bad_reps.add(rec.replication)
                by_rep.setdefault(rec.replication, []).append(rec)
                out.items.append([n, rec.replication, rec.solver,
                                  repr(rec.final_lambda), strategies(rec.matching),
                                  *pma_stats(rec.final_lambda, n, rec.trace)[1:]])
            for recs in by_rep.values():
                pma = recs[self.solvers.index("pma")]
                out.pma.append(pma_stats(pma.final_lambda, n, pma.trace))
                out.ratios.append(pma.final_lambda / max(r.final_lambda for r in recs))
        # a sweep-level failure fails every replication of the sweep
        out.failed = out.attempted if sweep_failed else len(bad_reps)


WORKLOADS = {w.name: w for w in (PairedN13, SweepN8N20, OracleAudit)}
