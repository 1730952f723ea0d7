"""relaymatch benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload paired_n13 --seed 1 --seconds 30 --trace 0

Run from the root of a relaymatch checkout; relaymatch is imported from
its src/ directory. With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics of BENCHMARK.json; with --trace 1
it holds the per-layer metrics, measured by a separate traced pass. The
line before it is a JSON record of the run: machine, inputs, stream
fingerprint, deterministic counts and any failed checks. The exit code is
0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from probe import REF_PROBE_S, probe
from spans import Tracer
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
HIT_RATIO = 0.95     # PMA "hits" when it reaches this share of the reference λ


def _activations(args, kwargs, result):
    return len(result[1])


def _profiles(args, kwargs, result):
    from relaymatch.matching import count_strategies
    topo = args[0]
    return math.prod(count_strategies(topo.num_radios, s.num_radios)
                     for s in topo.sources)


# (module, attribute, span name, what to count from the call's arguments
# and result). Each name is wrapped where its caller looks it up; private
# helpers are not wrapped.
WRAPPED = [
    ("solvers", "pma_propose", "solvers.pma_propose", None),
    ("solvers", "run_pma", "solvers.run_pma", _activations),
    ("solvers", "run_many_to_one", "solvers.run_many_to_one", _activations),
    ("solvers", "run_best_response", "solvers.run_best_response", _activations),
    ("solvers", "run_substitutable", "solvers.run_substitutable", None),
    ("solvers", "exhaustive_search", "solvers.exhaustive_search", _profiles),
    ("experiments", "solve", "solvers.solve", None),
    ("experiments", "generate_topology", "radio.generate_topology", None),
    ("experiments", "build_gain_table", "radio.build_gain_table", None),
    ("experiments", "build_capacity_table", "radio.build_capacity_table", None),
    ("experiments", "global_satisfaction", "matching.global_satisfaction", None),
    ("experiments", "run_ensemble", "experiments.run_ensemble", None),
    ("experiments", "write_result", "experiments.write_result", None),
    ("radio", "generate_topology", "radio.generate_topology", None),
    ("radio", "build_gain_table", "radio.build_gain_table", None),
    ("radio", "build_capacity_table", "radio.build_capacity_table", None),
    ("matching", "global_satisfaction", "matching.global_satisfaction", None),
    ("matching", "relay_utility", "matching.relay_utility", None),
    ("matching", "is_stable", "matching.is_stable", None),
    ("cli", "run_sweep", "experiments.run_sweep", None),
    ("cli", "main", "cli.main", None),
]


def import_relaymatch(with_cli):
    """Import relaymatch afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules
                 if m == "relaymatch" or m.startswith("relaymatch.")]:
        del sys.modules[name]
    rm = importlib.import_module("relaymatch")
    if with_cli:
        importlib.import_module("relaymatch.cli")
    return rm


def scaled(seconds, probe_s):
    """A measured time expressed at the reference probe speed."""
    return seconds * REF_PROBE_S / probe_s


def setup(workload, workdir):
    """Import relaymatch and build the workload's inputs SETUP_REPEATS
    times; the last import is the one measured. Returns the module, the raw
    set-up times and the probe time around each."""
    times, probes = [], [probe()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        rm = import_relaymatch(with_cli=workload.name == "sweep_n8_n20")
        workload.setup(rm, workdir)
        times.append(perf_counter() - t0)
        probes.append(probe())
    if Path(rm.__file__).resolve().parent != SRC / "relaymatch":
        raise RuntimeError(f"relaymatch imported from {rm.__file__}, not {SRC}")
    return rm, times, [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def run_pass(workload, seconds, tracer=None):
    """Run units until the next block of units would pass `seconds`; the
    first workload.det_units units always run."""
    outcomes = []
    t0 = perf_counter()
    before = probe()
    while True:
        k = len(outcomes)
        if tracer is not None:
            tracer.unit = k
        try:
            out = workload.run_unit(k)
        except Exception:
            out = Outcome(attempted=workload.reps_per_unit,
                          failed=workload.reps_per_unit,
                          failures=[f"unit {k} raised:\n" + traceback.format_exc()])
        after = probe()
        out.probe = (before + after) / 2
        before = after
        outcomes.append(out)
        done = len(outcomes)
        if done >= workload.det_units and done % workload.granularity == 0:
            elapsed = perf_counter() - t0
            blocks = done // workload.granularity
            if elapsed * (blocks + 1) / blocks > seconds:
                return outcomes


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def deterministic(outcomes, det_units):
    """Fingerprint and counts over the first det_units units."""
    det = outcomes[:det_units]
    pma = [p for o in det for p in o.pma]
    ratios = [r for o in det for r in o.ratios]
    conv = [p[3] for p in pma if p[3] is not None]
    items = [item for o in det for item in o.items]
    blob = json.dumps(items, sort_keys=True).encode()
    return {
        "fingerprint": hashlib.sha256(blob).hexdigest(),
        "units": len(det),
        "pma_runs": len(pma),
        "pma_satisfaction": statistics.fmean(p[0] for p in pma) if pma else 0.0,
        "pma_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "pma_hit_fraction": (sum(r >= HIT_RATIO for r in ratios) / len(ratios)
                             if ratios else 0.0),
        "pma_activations": sum(p[1] for p in pma),
        "pma_accepted": sum(p[2] for p in pma),
        "pma_convergence_iter_p50": statistics.median(conv) if conv else 0,
        "pma_unconverged": len(pma) - len(conv),
        "bytes_written": sum(o.bytes_written for o in det),
    }


def peak_rss_mb(workers):
    """Peak resident set of this process plus `workers` times that of the
    largest pool child (shared copy-on-write pages count once per process,
    so with a pool this is an upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if child else 0)) / 1024.0


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def timings(outcomes, setup_times, setup_probes, scale):
    """Set-up time, throughput and per-replication percentiles, raw or
    scaled to the reference probe speed."""
    def t(seconds, probe_s):
        return scaled(seconds, probe_s) if scale else seconds

    reps = [t(s, o.probe) * 1000.0 for o in outcomes for s in o.rep_seconds]
    wall = sum(t(o.wall, o.probe) for o in outcomes if o.rep_seconds)
    return {
        "setup_s": (statistics.median(map(t, setup_times, setup_probes)), "s"),
        "replications_per_s": (len(reps) / wall if wall else 0.0, "1/s"),
        "rep_ms_p50": (statistics.median(reps) if reps else 0.0, "ms"),
        "rep_ms_p90": (quantile(reps, 90) if reps else 0.0, "ms"),
    }


def end_to_end(workload, outcomes, det, setup_times, setup_probes):
    workers = getattr(workload, "workers", 1)
    return {
        **timings(outcomes, setup_times, setup_probes, scale=True),
        "pma_satisfaction": (det["pma_satisfaction"], "ratio"),
        "pma_ratio": (det["pma_ratio"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(workers), "MB"),
    }


def per_layer(workload, tracer, traced, untraced, det, worker_cpu):
    """Per-layer metrics of the traced pass. Times are means per call;
    call counts are per replication of the deterministic units."""
    allspans = tracer.summary()
    detspans = tracer.summary(set(range(workload.det_units)))
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "count": 0}

    def s(name, spans=allspans):
        return spans.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name, scale):
        return ratio(s(name)["total"] * scale, s(name)["calls"])

    def calls(name):
        return ratio(s(name, detspans)["calls"],
                     sum(o.attempted for o in traced[:workload.det_units]))

    traced_wall = sum(o.wall for o in traced)
    common = min(len(traced), len(untraced))
    sweeps = s("cli.main")["calls"]
    pma, m2o = s("solvers.run_pma"), s("solvers.run_many_to_one")
    inner = s("solvers.run_pma/many_to_one")
    workers = getattr(workload, "workers", 1)
    metrics = {
        "solvers.pma_propose.us": (per_call("solvers.pma_propose", 1e6), "us"),
        "solvers.pma_propose.calls": (calls("solvers.pma_propose"), "count"),
        "solvers.pma.us_per_activation": (ratio(pma["total"] * 1e6, pma["count"]),
                                          "us"),
        "solvers.many_to_one.us_per_activation": (ratio(m2o["total"] * 1e6,
                                                        m2o["count"]), "us"),
        "solvers.best_response.us_per_activation": (
            ratio(s("solvers.run_best_response")["total"] * 1e6,
                  s("solvers.run_best_response")["count"]), "us"),
        "solvers.run_pma.self_ms": (ratio((pma["self"] + inner["self"]) * 1e3,
                                          pma["calls"] + inner["calls"]), "ms"),
        "solvers.pma.activations": (ratio(det["pma_activations"], det["pma_runs"]),
                                    "count"),
        "solvers.pma.accept_ratio": (ratio(det["pma_accepted"],
                                           det["pma_activations"]), "ratio"),
        "solvers.pma.convergence_iter_p50": (det["pma_convergence_iter_p50"], "count"),
        "solvers.exhaustive_search.ms": (per_call("solvers.exhaustive_search", 1e3),
                                         "ms"),
        "solvers.exhaustive_search.profiles_per_s": (
            ratio(s("solvers.exhaustive_search")["count"],
                  s("solvers.exhaustive_search")["total"]), "1/s"),
        "solvers.run_substitutable.ms": (per_call("solvers.run_substitutable", 1e3),
                                         "ms"),
        "matching.global_satisfaction.us": (
            per_call("matching.global_satisfaction", 1e6), "us"),
        "matching.global_satisfaction.calls": (calls("matching.global_satisfaction"),
                                               "count"),
        "matching.relay_utility.us": (per_call("matching.relay_utility", 1e6), "us"),
        "matching.is_stable.ms": (per_call("matching.is_stable", 1e3), "ms"),
        "experiments.run_ensemble.s": (per_call("experiments.run_ensemble", 1), "s"),
        "experiments.write_result.ms": (per_call("experiments.write_result", 1e3),
                                        "ms"),
        "experiments.bytes_written": (ratio(det["bytes_written"], det["units"]),
                                      "bytes"),
        "experiments.worker_cpu_s": (ratio(worker_cpu, sweeps), "s"),
        "experiments.parallel_efficiency": (
            ratio(worker_cpu, workers * s("experiments.run_ensemble")["total"])
            if workers > 1 else 0.0, "ratio"),
        "cli.main.self_ms": (ratio(s("cli.main")["self"] * 1e3, sweeps), "ms"),
        "radio.generate_topology.us": (per_call("radio.generate_topology", 1e6), "us"),
        "radio.build_gain_table.us": (per_call("radio.build_gain_table", 1e6), "us"),
        "radio.build_capacity_table.us": (per_call("radio.build_capacity_table", 1e6),
                                          "us"),
        "share.pma_many_to_one": (ratio(pma["total"] + m2o["total"], traced_wall),
                                  "ratio"),
        "share.exhaustive_search": (ratio(s("solvers.exhaustive_search")["total"],
                                          traced_wall), "ratio"),
        "trace.overhead_ratio": (
            ratio(sum(scaled(o.wall, o.probe) for o in traced[:common]),
                  sum(scaled(o.wall, o.probe) for o in untraced[:common])), "ratio"),
    }
    counts = {"pma_propose_calls": s("solvers.pma_propose", detspans)["calls"],
              "global_satisfaction_calls":
                  s("matching.global_satisfaction", detspans)["calls"],
              "exhaustive_profiles": s("solvers.exhaustive_search", detspans)["count"]}
    return metrics, counts


def machine():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def source_identity():
    """The commit checked out, when the checkout is a git work tree, and a
    digest of the relaymatch sources, which identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "relaymatch").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: each workload runs one short round")
    p.add_argument("--spans", type=Path, default=None,
                   help="with --trace 1, write the raw spans here as JSON lines")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "relaymatch" / "__init__.py").is_file():
        print(f"error: no relaymatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RELAYMATCH_OUT", None)   # would redirect sweep outputs
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        rm, setup_times, setup_probes = setup(workload, workdir)
        if hasattr(workload, "instrument"):
            workload.instrument()
        if args.trace:
            untraced = run_pass(workload, args.seconds / 2)
            tracer = Tracer()
            for module, attr, name, measure in WRAPPED:
                mod = getattr(rm, module, None)
                if mod is not None:
                    tracer.wrap(mod, attr, name, measure)
            cpu1 = children_cpu_s()
            traced = run_pass(workload, args.seconds / 2, tracer)
            worker_cpu = children_cpu_s() - cpu1
            tracer.unwrap_all()
            outcomes = untraced + traced
            det = deterministic(traced, workload.det_units)
            metrics, counts = per_layer(workload, tracer, traced, untraced, det,
                                        worker_cpu)
            if args.spans is not None:
                tracer.write(args.spans)
        else:
            outcomes = run_pass(workload, args.seconds)
            det = deterministic(outcomes, workload.det_units)
            metrics = end_to_end(workload, outcomes, det, setup_times, setup_probes)
            counts = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    samples = sum(len(o.rep_seconds) for o in outcomes)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "machine": machine(), **source_identity(),
        "samples": samples, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "probe_ms_median": 1000 * statistics.median(o.probe for o in outcomes),
        "unscaled": {name: value for name, (value, _) in
                     timings(outcomes, setup_times, setup_probes, False).items()},
        "fingerprint": det.pop("fingerprint"), "counts": {**det, **counts},
        "failures": failures[:20],
        "warnings": sorted({w for o in outcomes for w in o.warnings}),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for line in failures[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
