"""Tests for bench/ab.py's pair summary and run loop and bench/collect.py's
run record; no benchmark runs."""

import importlib
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

RATE = {"name": "replications_per_s", "unit": "1/s", "better": "higher"}
P50 = {"name": "rep_ms_p50", "unit": "ms", "better": "lower"}


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("ab")


def test_summary_medians_quartiles_and_pairs_won(ab):
    base = [{"replications_per_s": x, "rep_ms_p50": y}
            for x, y in ((10.0, 5.0), (11.0, 6.0), (12.0, 7.0))]
    change = [{"replications_per_s": x, "rep_ms_p50": y}
              for x, y in ((12.0, 6.0), (13.0, 5.0), (14.0, 8.0))]
    rate, p50 = ab.summarize(base, change, [RATE, P50])
    assert rate["base"] == [10.5, 11.0, 11.5]
    assert rate["change"] == [12.5, 13.0, 13.5]
    assert rate["pct"] == pytest.approx(100 * 2 / 11)
    assert (rate["won"], rate["pairs"], rate["clears_iqr"]) == (3, 3, True)
    # lower is better: only the second pair's change is faster
    assert p50["won"] == 1 and p50["pct"] == 0.0 and not p50["clears_iqr"]
    assert "won 3/3  clears IQR" in ab.format_rows([rate])


def test_summary_needs_the_gain_to_clear_the_base_spread(ab):
    base = [{"rep_ms_p50": x} for x in (30.0, 34.0, 38.0, 42.0)]
    change = [{"rep_ms_p50": x} for x in (29.0, 33.0, 37.0, 41.0)]
    (row,) = ab.summarize(base, change, [RATE, P50])   # no rate in the runs
    assert row["won"] == 4 and not row["clears_iqr"]


def test_pairs_alternate_and_a_failed_check_exits_one(ab, monkeypatch, capsys):
    calls = []

    def fake_run_one(checkout, workload, seed, trace):
        calls.append(checkout.name)
        value = 2.0 if checkout.name == "change" else 1.0
        return {"correct": len(calls) != 3, "exit_code": 0,
                "metrics": {"replications_per_s": {"unit": "1/s", "value": value}}}

    monkeypatch.setattr(ab, "run_one", fake_run_one)
    assert ab.main(["base", "change", "--workload", "w", "--pairs", "3"]) == 1
    assert calls == ["base", "change", "change", "base", "base", "change"]
    out = capsys.readouterr().out
    assert "replications_per_s" in out and "won 3/3" in out


def test_fingerprints_compared_per_pair(ab, monkeypatch, capsys):
    # pair 1 equal, pair 2 unequal, pair 3 equal, pair 4's change printed
    # no record
    runs = iter([("base", "a"), ("change", "a"), ("change", "c"), ("base", "b"),
                 ("base", "d"), ("change", "d"), ("change", None), ("base", "e")])

    def fake_run_one(checkout, workload, seed, trace):
        side, fingerprint = next(runs)
        assert checkout.name == side
        run = {"correct": True, "exit_code": 0,
               "metrics": {"replications_per_s": {"unit": "1/s", "value": 1.0}}}
        if fingerprint is not None:
            run["record"] = {"fingerprint": fingerprint}
        return run

    monkeypatch.setattr(ab, "run_one", fake_run_one)
    assert ab.main(["base", "change", "--workload", "w", "--pairs", "4"]) == 0
    out = capsys.readouterr().out
    assert "stream fingerprints equal in 2/4 pairs (1 not compared)" in out
    assert ab.fingerprint_line(["x"] * 10, ["x"] * 10) == \
        "stream fingerprints equal in 10/10 pairs"


def test_one_block_per_workload_and_any_failure_exits_one(ab, monkeypatch, capsys):
    calls = []

    def fake_run_one(checkout, workload, seed, trace):
        calls.append((workload, checkout.name))
        rate = {"w1": 1.0, "w2": 3.0}[workload] * (2 if checkout.name == "change" else 1)
        # only the first workload's last run fails
        return {"correct": len(calls) != 4, "exit_code": 0,
                "metrics": {"replications_per_s": {"unit": "1/s", "value": rate}},
                "record": {"fingerprint": workload}}

    monkeypatch.setattr(ab, "run_one", fake_run_one)
    argv = ["base", "change", "--workload", "w1", "--workload", "w2", "--pairs", "2"]
    assert ab.main(argv) == 1
    assert calls == [("w1", "base"), ("w1", "change"), ("w1", "change"), ("w1", "base"),
                     ("w2", "base"), ("w2", "change"), ("w2", "change"), ("w2", "base")]
    blocks = capsys.readouterr().out.split("w2 seed 1")
    assert len(blocks) == 2 and blocks[0].startswith("w1 seed 1, 2 pairs")
    for block, (b, c) in zip(blocks, (("1", "2"), ("3", "6"))):
        assert "replications_per_s" in block and f" {b} [{b}-{b}] -> {c} [" in block
        assert "stream fingerprints equal in 2/2 pairs" in block


STUB_RUN = """import json
print(json.dumps({"record": {"fingerprint": "f"}}))
print(json.dumps({"correct": True}))
"""


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                    *args], cwd=repo, check=True, capture_output=True)


def test_run_record_says_whether_the_sources_were_clean(monkeypatch, tmp_path):
    # a stub perfbench/run.py stands in for the benchmark
    monkeypatch.syspath_prepend(str(BENCH))
    collect = importlib.import_module("collect")
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    repo = tmp_path / "checkout"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "relaymatch").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    source = repo / "src" / "relaymatch" / "kernel.py"
    source.write_text("x = 1\n")

    def clean():
        run = collect.run_one(repo, "w", 1, 0)
        assert run["correct"] and run["record"] == {"fingerprint": "f"}
        return run["clean"]

    assert clean() is None                      # no git
    git(repo, "init", "-q")
    git(repo, "add", "src")
    git(repo, "commit", "-q", "-m", "sources")
    # perfbench/ is untracked, but only src/relaymatch counts
    assert clean() is True
    source.write_text("x = 2\n")
    assert clean() is False
    git(repo, "commit", "-q", "-am", "edit")
    (repo / "src" / "relaymatch" / "new.py").write_text("")
    assert clean() is False
