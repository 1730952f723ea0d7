"""Count the work of benchmark units exactly: instructions, C calls, exp calls.

    python3 bench/work.py TREE... --workload W --units K --out WORK.json

A TREE is a directory, measured in place, or a commit, checked out as
bench/trajectory.py does. For each tree in turn, its `src/relaymatch` is
imported afresh and units 0..K-1 of workload W from this checkout's
perfbench/workloads.py run at seed 1, so the units are the benchmark's own.
Within each unit's timed region (between the two readings of the
workload's clock, so its checks are left out) it counts:

- `instructions`: bytecode instructions executed in frames of the tree's
  relaymatch sources (sys.settrace with f_trace_opcodes);
- `c_calls`: calls those frames make into C functions (sys.setprofile
  `c_call` events), the cost instructions miss;
- `exp_calls`: the calls of math.exp among them;
- `callees`: those C calls per callee, by name, most first; they sum to
  `c_calls`, and the numpy calls a change saves show here even where the
  instructions barely move;
- `top`: the ten code objects with the most instructions.

The counts depend on no clock, so two processes give equal counts on one
CPython version, which WORK.json records with the counts per unit and
their means per unit per tree. The mean's `top` is per unit as well: each
code object's instructions over all K units, divided by K, and so are the
mean's `callees`, cut to the ten most called. sweep_n8_n20
runs with one worker, so the work of its pool is counted too. Tracing
makes a unit of paired_n13 take about four seconds, and one of
sweep_n8_n20 (48 replications) two and a half minutes. The script
reports; it refuses a K below 1 and exits non-zero only when a unit fails
its workload's checks.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path

from trajectory import ROOT, checkouts

SEED = 1
TOP = 10


def load_workloads():
    """This checkout's perfbench/workloads.py, as a module."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_relaymatch(src: Path):
    """relaymatch, with its cli, imported afresh from `src`."""
    for name in [m for m in sys.modules if m.split(".")[0] == "relaymatch"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        rm = importlib.import_module("relaymatch")
        importlib.import_module("relaymatch.cli")
    finally:
        sys.path.remove(str(src))
    return rm


def label(code) -> str:
    name = getattr(code, "co_qualname", code.co_name)
    return f"{name} ({Path(code.co_filename).name}:{code.co_firstlineno})"


class Meter:
    """Counts work in frames whose file lies under `package`, while on. Its
    `clock` stands in for the workload's perf_counter: the first reading of
    a unit turns counting on, the second turns it off."""

    def __init__(self, package: Path, clock):
        self.prefix = str(package) + os.sep
        self.perf_counter = clock
        self.on = False
        self.instructions, self.callees = Counter(), Counter()

    def clock(self):
        self.on = not self.on
        sys.settrace(self.call if self.on else None)
        sys.setprofile(self.profile if self.on else None)
        return self.perf_counter()

    def call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            frame.f_trace_opcodes = True
            return self.opcode
        return None

    def opcode(self, frame, event, arg):
        if event == "opcode":
            self.instructions[frame.f_code] += 1
        return self.opcode

    def profile(self, frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename.startswith(self.prefix):
            self.callees[callee(arg)] += 1

    def counts(self) -> dict:
        return {"instructions": sum(self.instructions.values()),
                "c_calls": sum(self.callees.values()),
                "exp_calls": self.callees[callee(math.exp)],
                "callees": dict(self.callees.most_common()),
                "top": top(self.instructions)}


def callee(fn) -> str:
    """A C function's name: its module and qualified name, or for a method
    its type's qualified name (ndarray.take, list.append)."""
    module = getattr(fn, "__module__", None)
    return f"{module}.{fn.__qualname__}" if module else fn.__qualname__


def top(instructions: Counter) -> list:
    """The code objects with the most instructions, by name, with their
    counts and shares."""
    total = sum(instructions.values())
    return [[label(code), n, n / total] for code, n in instructions.most_common(TOP)]


def measure(workloads, directory: Path, workload: str, units: int) -> dict:
    """The counts of `workload`'s units on the tree in `directory`, per unit
    and as means per unit."""
    rm = import_relaymatch(directory / "src")
    package = Path(rm.__file__).parent
    if package.resolve() != (directory / "src" / "relaymatch").resolve():
        raise RuntimeError(f"relaymatch imported from {package}, not {directory}")
    job = workloads.WORKLOADS[workload](SEED, smoke=False)
    job.workers = 1     # read by sweep_n8_n20 only
    out, total, callees = [], Counter(), Counter()
    with tempfile.TemporaryDirectory(prefix="work-") as workdir:
        job.setup(rm, workdir)
        if hasattr(job, "instrument"):
            job.instrument()
        for k in range(units):
            meter = Meter(package, workloads.perf_counter)
            workloads.perf_counter = meter.clock
            try:
                outcome = job.run_unit(k)
            finally:
                workloads.perf_counter = meter.perf_counter
                sys.settrace(None)
                sys.setprofile(None)
            if meter.on or outcome.failed:
                raise RuntimeError(f"unit {k} of {workload} failed or left its "
                                   f"timed region open: {outcome.failures[:3]}")
            out.append(meter.counts())
            total.update(meter.instructions)
            callees.update(meter.callees)
    mean = {key: sum(unit[key] for unit in out) / units
            for key in ("instructions", "c_calls", "exp_calls")}
    mean["callees"] = [[name, n / units] for name, n in callees.most_common(TOP)]
    mean["top"] = [[name, n / units, share] for name, n, share in top(total)]
    return {"units": out, "mean": mean}


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv=None) -> int:
    workloads = load_workloads()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", help="commits or directories")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--units", type=positive, required=True)
    p.add_argument("--out", type=Path, required=True, help="WORK.json to write")
    args = p.parse_args(argv)
    report = {"python": platform.python_version(), "workload": args.workload,
              "units": args.units, "seed": SEED, "trees": []}
    with checkouts(ROOT, args.trees) as places:
        for tree, (directory, commit) in zip(args.trees, places):
            entry = {"tree": tree, "commit": commit,
                     **measure(workloads, directory, args.workload, args.units)}
            report["trees"].append(entry)
            mean = entry["mean"]
            print(f"{tree}: {mean['instructions'] / 1e6:.3f} M instructions, "
                  f"{mean['c_calls'] / 1e3:.1f} k C calls, "
                  f"{mean['exp_calls'] / 1e3:.2f} k exp calls per unit")
            for name, n, share in mean["top"]:
                print(f"    {100 * share:5.1f} %  {name}")
            print("  C calls per unit:")
            for name, n in mean["callees"]:
                print(f"    {n:9.1f}  {name}")
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
