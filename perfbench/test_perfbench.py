"""Smoke tests of the benchmark itself: tiny inputs, each workload once.

    python3 -m pytest perfbench -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root, workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(Path(root) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


@functools.lru_cache(maxsize=None)
def smoke(workload, seed, trace, repeat=0):
    """(result, record) of one smoke run from the repository root."""
    del repeat  # distinguishes deliberate reruns in the cache
    rc, lines, err = run(ROOT, workload, seed, trace)
    assert rc == 0, err
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, record = smoke(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    for key in ("nproc", "cpu", "python", "numpy"):
        assert record["machine"][key]
    assert record["seed"] == 1 and record["src_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_follows_the_seed(workload):
    _, first = smoke(workload, 1, 1)
    _, again = smoke(workload, 1, 1, repeat=1)
    _, untraced = smoke(workload, 1, 0)
    _, other = smoke(workload, 2, 1)
    assert first["fingerprint"] == again["fingerprint"] == untraced["fingerprint"]
    assert first["counts"] == again["counts"]
    assert other["fingerprint"] != first["fingerprint"]


def test_spans_nest_and_are_written(tmp_path):
    path = tmp_path / "spans.jsonl"
    rc, _, err = run(ROOT, "paired_n13", 1, 1, "--spans", str(path))
    assert rc == 0, err
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    names = {s["name"] for s in spans}
    assert {"experiments.run_ensemble", "solvers.solve", "solvers.run_pma",
            "solvers.pma_propose", "radio.generate_topology"} <= names
    for i, s in enumerate(spans):
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert s["parent"] < i and s["unit"] == parent["unit"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def _copy_checkout(dest, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_a_wrong_lambda_fails_the_run(tmp_path):
    _copy_checkout(tmp_path)
    target = tmp_path / "src" / "relaymatch" / "experiments.py"
    code = target.read_text()
    line = "final_lambda=float(global_satisfaction(m, profiles, caps)),"
    assert line in code, "the recorded-λ line moved; update this test"
    target.write_text(code.replace(
        line, "final_lambda=float(global_satisfaction(m, profiles, caps)) + 1e-6,"))
    rc, lines, err = run(tmp_path, "paired_n13", 1, 0)
    assert rc != 0
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "final_lambda" in err


def test_without_the_program_it_fails_without_a_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    rc, lines, _ = run(tmp_path, WORKLOADS[0], 1, 0)
    assert rc != 0
    assert not any(line.startswith('{"correct"') for line in lines)
