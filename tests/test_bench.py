"""Tests for bench/trajectory.py's rounds, trees, run record and two-tree
verdict, smoke runs of bench/work.py, and every bench script's parser; no
perfbench runs."""

import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

RATE = {"name": "replications_per_s", "unit": "1/s", "better": "higher"}
P50 = {"name": "rep_ms_p50", "unit": "ms", "better": "lower"}


@pytest.fixture
def trajectory(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("trajectory")


@pytest.fixture
def sides(monkeypatch, tmp_path):
    """Two directory trees, base and change, outside any repository."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    for name in ("base", "change"):
        (tmp_path / name).mkdir()
    return [str(tmp_path / "base"), str(tmp_path / "change")]


def test_summary_medians_quartiles_and_pairs_won(trajectory):
    base = [{"replications_per_s": x, "rep_ms_p50": y}
            for x, y in ((10.0, 5.0), (11.0, 6.0), (12.0, 7.0))]
    change = [{"replications_per_s": x, "rep_ms_p50": y}
              for x, y in ((12.0, 6.0), (13.0, 5.0), (14.0, 8.0))]
    rate, p50 = trajectory.summarize(base, change, [RATE, P50])
    assert rate["base"] == [10.5, 11.0, 11.5]
    assert rate["change"] == [12.5, 13.0, 13.5]
    assert rate["pct"] == pytest.approx(100 * 2 / 11)
    # three pairs are too few to mark a gain, however clear
    assert (rate["won"], rate["pairs"], rate["clears_iqr"]) == (3, 3, False)
    # lower is better: only the second pair's change is faster
    assert p50["won"] == 1 and p50["pct"] == 0.0 and not p50["clears_iqr"]
    assert "won 3/3" in trajectory.format_rows([rate])
    assert "clears IQR" not in trajectory.format_rows([rate])
    # ten pairs, the claim rule's minimum, are enough
    base = [{"replications_per_s": 10.0 + i / 10} for i in range(10)]
    change = [{"replications_per_s": 12.0 + i / 10} for i in range(10)]
    (rate,) = trajectory.summarize(base, change, [RATE])
    assert (rate["won"], rate["pairs"], rate["clears_iqr"]) == (10, 10, True)
    assert "won 10/10  clears IQR" in trajectory.format_rows([rate])


def test_summary_needs_the_gain_to_clear_the_base_spread(trajectory):
    base = [{"rep_ms_p50": x} for x in (30.0, 34.0, 38.0, 42.0)]
    change = [{"rep_ms_p50": x} for x in (29.0, 33.0, 37.0, 41.0)]
    (row,) = trajectory.summarize(base, change, [RATE, P50])   # no rate in the runs
    assert row["won"] == 4 and not row["clears_iqr"]


def test_pairs_alternate_and_a_failed_check_exits_one(trajectory, sides, monkeypatch,
                                                      tmp_path, capsys):
    calls = []

    def fake_run_one(checkout, workload, seed, trace):
        calls.append(checkout.name)
        value = 2.0 if checkout.name == "change" else 1.0
        return {"correct": len(calls) != 3, "exit_code": 0,
                "metrics": {"replications_per_s": {"unit": "1/s", "value": value}}}

    monkeypatch.setattr(trajectory, "run_one", fake_run_one)
    committed = (BENCH.parent / "TRAJECTORY.json").read_bytes()
    out = tmp_path / "ab.json"
    argv = [*sides, "--workload", "w", "--rounds", "4", "--out", str(out)]
    assert trajectory.main(argv) == 1
    assert calls == ["base", "change", "change", "base"] * 2
    printed = capsys.readouterr().out
    assert "replications_per_s" in printed and "won 4/4" in printed
    # the failed run is kept in a complete session, written to --out only
    session = json.loads(out.read_text())
    assert session["complete"] and session["seed"] == 1 and session["traces"] == [0]
    base, change = session["trees"]
    assert base["tree"] == sides[0] and base["commit"] is None
    assert [run["correct"] for run in change["runs"]] == [True, False, True, True]
    assert (BENCH.parent / "TRAJECTORY.json").read_bytes() == committed


def test_fingerprints_compared_per_pair(trajectory, sides, monkeypatch, tmp_path,
                                        capsys):
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

    monkeypatch.setattr(trajectory, "run_one", fake_run_one)
    argv = [*sides, "--workload", "w", "--rounds", "4", "--out", str(tmp_path / "s")]
    assert trajectory.main(argv) == 0
    out = capsys.readouterr().out
    assert "stream fingerprints equal in 2/4 pairs (1 not compared)" in out
    assert trajectory.fingerprint_line(["x"] * 10, ["x"] * 10) == \
        "stream fingerprints equal in 10/10 pairs"


def test_one_block_per_workload_and_any_failure_exits_one(trajectory, sides,
                                                          monkeypatch, tmp_path,
                                                          capsys):
    calls = []

    def fake_run_one(checkout, workload, seed, trace):
        calls.append((workload, checkout.name))
        rate = {"w1": 1.0, "w2": 3.0}[workload] * (2 if checkout.name == "change" else 1)
        # only the first workload's last run fails, by its exit code
        return {"correct": True, "exit_code": int(len(calls) == 7),
                "metrics": {"replications_per_s": {"unit": "1/s", "value": rate}},
                "record": {"fingerprint": workload}}

    monkeypatch.setattr(trajectory, "run_one", fake_run_one)
    argv = [*sides, "--workload", "w1", "--workload", "w2", "--rounds", "2",
            "--out", str(tmp_path / "s")]
    assert trajectory.main(argv) == 1
    assert calls == [("w1", "base"), ("w2", "base"), ("w1", "change"), ("w2", "change"),
                     ("w1", "change"), ("w2", "change"), ("w1", "base"), ("w2", "base")]
    blocks = capsys.readouterr().out.split("w2 seed 1")
    assert len(blocks) == 2 and blocks[0].startswith("w1 seed 1, 2 pairs")
    for block, (b, c) in zip(blocks, (("1", "2"), ("3", "6"))):
        assert "replications_per_s" in block and f" {b} [{b}-{b}] -> {c} [" in block
        assert "stream fingerprints equal in 2/2 pairs" in block


def test_seed_and_trace_reach_every_run(trajectory, sides, monkeypatch, tmp_path,
                                        capsys):
    seen = []

    def fake_run_one(checkout, workload, seed, trace):
        seen.append((seed, trace))
        us = 5.0 if checkout.name == "base" else 4.0
        return {"correct": True, "exit_code": 0, "metrics": {
            "solvers.pma.us_per_activation": {"unit": "us", "value": us},
            "replications_per_s": {"unit": "1/s", "value": 1.0}}}

    monkeypatch.setattr(trajectory, "run_one", fake_run_one)
    out = tmp_path / "traced.json"
    argv = [*sides, "--workload", "w", "--rounds", "2", "--seed", "2", "--trace", "1",
            "--out", str(out)]
    assert trajectory.main(argv) == 0
    assert seen == [(2, 1)] * 4
    # --trace 1 summarises BENCHMARK.json's per-layer metrics only
    printed = capsys.readouterr().out
    assert printed.startswith("w seed 2, 2 pairs, trace 1")
    assert "solvers.pma.us_per_activation" in printed and "won 2/2" in printed
    assert "replications_per_s" not in printed
    session = json.loads(out.read_text())
    assert (session["seed"], session["traces"]) == (2, [1])
    assert list(session["trees"][1]["summary"]["w"]) == ["solvers.pma.us_per_activation"]


def test_session_without_out_exits_before_any_run(trajectory, sides, monkeypatch,
                                                  capsys):
    # a default --out would overwrite the committed TRAJECTORY.json
    def no_measure(*args):
        raise AssertionError("measure was reached")

    monkeypatch.setattr(trajectory, "measure", no_measure)
    committed = (BENCH.parent / "TRAJECTORY.json").read_bytes()
    with pytest.raises(SystemExit) as err:
        trajectory.main([*sides, "--workload", "w", "--rounds", "2"])
    assert err.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert (BENCH.parent / "TRAJECTORY.json").read_bytes() == committed


@pytest.mark.parametrize("script", ["trajectory.py", "work.py"])
def test_bench_script_parses_help(script):
    proc = subprocess.run([sys.executable, str(BENCH / script), "--help"],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr


# reports the end-to-end rate at --trace 0 and a per-layer time at --trace 1
STUB_RUN = """import json, sys
trace = sys.argv[sys.argv.index("--trace") + 1]
metric = {"0": ("replications_per_s", "1/s"),
          "1": ("solvers.pma.us_per_activation", "us")}
name, unit = metric[trace]
print(json.dumps({"record": {"fingerprint": "f", "src_sha256": "s"}}))
print(json.dumps({"correct": True, "metrics": {name: {"unit": unit, "value": 1.0}}}))
"""


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                    *args], cwd=repo, check=True, capture_output=True)


def stub_checkout(tmp_path):
    """A checkout whose perfbench/run.py is STUB_RUN, outside any repository."""
    repo = tmp_path / "checkout"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "relaymatch").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    return repo


def test_run_record_says_whether_the_sources_were_clean(trajectory, monkeypatch,
                                                        tmp_path):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    repo = stub_checkout(tmp_path)
    source = repo / "src" / "relaymatch" / "kernel.py"
    source.write_text("x = 1\n")

    def clean():
        run = trajectory.run_one(repo, "w", 1, 0)
        assert run["correct"] and run["record"]["fingerprint"] == "f"
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


def test_one_tree_session_with_both_traces_is_a_bench_file(trajectory, monkeypatch,
                                                          tmp_path):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    repo = stub_checkout(tmp_path)
    out = tmp_path / "BENCH_t.json"
    argv = [str(repo), "--workload", "w", "--trace", "0", "--trace", "1",
            "--rounds", "2", "--out", str(out)]
    assert trajectory.main(argv) == 0
    session = json.loads(out.read_text())
    assert session["complete"] and session["traces"] == [0, 1]
    (tree,) = session["trees"]
    assert [(run["round"], run["trace"]) for run in tree["runs"]] == [
        (1, 0), (1, 1), (2, 0), (2, 1)]
    for run in tree["runs"]:
        # the fields every committed BENCH run has
        assert {"record", "metrics", "correct", "exit_code", "clean"} <= set(run)
        assert run["clean"] is None and run["exit_code"] == 0
    # end-to-end metrics from the untraced runs, per-layer from the traced
    assert sorted(tree["summary"]["w"]) == ["replications_per_s",
                                            "solvers.pma.us_per_activation"]
    assert tree["src_sha256"] == "s"


# reads the tree's `speed`, logs it with the directory it ran in, and
# reports it as the rate; a negative speed prints no result
TRAJECTORY_STUB = """import json, os, pathlib
speed = pathlib.Path("speed").read_text().strip()
with open({log!r}, "a") as fh:
    fh.write(speed + " " + os.getcwd() + "\\n")
if float(speed) >= 0:
    print(json.dumps({{"record": {{"src_sha256": "digest " + speed}}}}))
    print(json.dumps({{"correct": True, "metrics": {{
        "replications_per_s": {{"unit": "1/s", "value": float(speed)}}}}}}))
"""


def test_trajectory_interleaves_worktrees_and_always_removes_them(trajectory,
                                                                   monkeypatch,
                                                                   tmp_path):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(TRAJECTORY_STUB.format(log=str(log)))
    git(repo, "init", "-q")
    for speed in ("1.0", "2.0", "-1"):
        (repo / "speed").write_text(speed + "\n")
        git(repo, "add", ".")
        git(repo, "commit", "-q", "-m", f"speed {speed}")
    (repo / "speed").write_text("9.0\n")       # uncommitted: only in place

    def worktrees():
        out = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=repo,
                             capture_output=True, text=True, check=True).stdout
        return out.count("worktree ")

    def ran():
        """Each run's speed and directory, in order."""
        return [tuple(line.split(" ", 1)) for line in log.read_text().splitlines()]

    out = tmp_path / "TRAJECTORY.json"
    # an odd round count would run the trees given last later on average
    with pytest.raises(ValueError, match="even"):
        trajectory.measure(repo, ["HEAD~2", "HEAD~1"], ["w"], 3, out, 1, [0])
    assert not log.exists() and not out.exists() and worktrees() == 1

    session = trajectory.measure(repo, ["HEAD~2", "HEAD~1"], ["w"], 4, out, 1, [0])
    # the order flips every round
    assert [speed for speed, _ in ran()] == ["1.0", "2.0", "2.0", "1.0"] * 2
    slow, fast = session["trees"]
    assert slow["tree"] == "HEAD~2" and len(slow["commit"]) == 40
    assert slow["src_sha256"] == "digest 1.0" and fast["src_sha256"] == "digest 2.0"
    assert [run["round"] for run in fast["runs"]] == [1, 2, 3, 4]
    assert all(run["workload"] == "w" and run["exit_code"] == 0 for run in fast["runs"])
    assert fast["summary"]["w"]["replications_per_s"] == {
        "unit": "1/s", "median": 2.0, "q1": 2.0, "q3": 2.0}
    assert session["rounds"] == 4 and session["workloads"] == ["w"]
    assert session["seed"] == 1 and session["complete"]
    assert json.loads(out.read_text()) == session
    assert worktrees() == 1 and not any(scratch.iterdir())

    # a run without a result stops the session; the runs before it are
    # written and the worktrees still go
    with pytest.raises(RuntimeError, match="without a result"):
        trajectory.measure(repo, ["HEAD~1", "HEAD"], ["w"], 2, out, 1, [0])
    partial = json.loads(out.read_text())
    assert not partial["complete"]
    assert [len(entry["runs"]) for entry in partial["trees"]] == [1, 0]
    assert partial["trees"][0]["summary"]["w"]["replications_per_s"]["median"] == 2.0
    assert partial["trees"][1]["src_sha256"] is None
    assert worktrees() == 1 and not any(scratch.iterdir())
    with pytest.raises(subprocess.CalledProcessError):
        trajectory.measure(repo, ["HEAD", "no-such-commit"], ["w"], 2, out, 1, [0])
    assert worktrees() == 1

    # a directory runs in place, its uncommitted edit included, with no
    # worktree of its own; given twice, as an A/A control, it keeps two
    # entries
    log.unlink()
    session = trajectory.measure(repo, ["HEAD~1", str(repo), str(repo)], ["w"], 2,
                                 out, 1, [0])
    assert [speed for speed, _ in ran()] == ["2.0", "9.0", "9.0", "9.0", "9.0", "2.0"]
    directories = {speed: cwd for speed, cwd in ran()}
    assert directories["9.0"] == str(repo.resolve())
    assert Path(directories["2.0"]).parent.parent == scratch
    commit, first, second = session["trees"]
    assert commit["commit"] == subprocess.run(
        ["git", "rev-parse", "HEAD~1"], cwd=repo, capture_output=True, text=True,
        check=True).stdout.strip()
    assert first["tree"] == second["tree"] == str(repo)
    assert first["commit"] == second["commit"] == subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True,
        check=True).stdout.strip()
    assert len(first["runs"]) == len(second["runs"]) == 2
    assert first["summary"]["w"]["replications_per_s"]["median"] == 9.0
    assert worktrees() == 1 and not any(scratch.iterdir())


def test_work_counts_are_equal_in_two_processes(tmp_path):
    reports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"work{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "work.py"), str(BENCH.parent),
             "--workload", "oracle_audit", "--units", "2", "--out", str(out)],
            capture_output=True, text=True, timeout=300, check=False,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]
    (tree,) = reports[0]["trees"]
    units, mean = tree["units"], tree["mean"]
    assert len(units) == 2
    for unit in units:
        assert unit["instructions"] > unit["c_calls"] > unit["exp_calls"] > 0
        assert len(unit["top"]) == 10
    assert mean["instructions"] == (units[0]["instructions"] + units[1]["instructions"]) / 2
    # the mean's top counts are per unit too: each share is its count over
    # the mean's instructions
    assert len(mean["top"]) == 10
    for _, count, share in mean["top"]:
        assert share == pytest.approx(count / mean["instructions"], rel=1e-12)
    assert reports[0]["python"] == platform.python_version()


def test_work_counts_c_calls_per_callee(tmp_path):
    # the per-callee counts of a unit are all of its C calls, by name
    out = tmp_path / "work.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "work.py"), str(BENCH.parent),
         "--workload", "oracle_audit", "--units", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    (tree,) = json.loads(out.read_text())["trees"]
    (unit,) = tree["units"]
    callees = unit["callees"]
    assert sum(callees.values()) == unit["c_calls"]
    assert callees["math.exp"] == unit["exp_calls"] > 0
    assert list(callees.values()) == sorted(callees.values(), reverse=True)
    assert tree["mean"]["callees"] == [[name, float(n)] for name, n in
                                       list(callees.items())[:10]]
    for name, n in tree["mean"]["callees"]:
        assert f"{n:9.1f}  {name}" in proc.stdout


@pytest.mark.parametrize("script,argv", [
    ("work", [".", "--workload", "oracle_audit", "--units", "0", "--out", "w.json"]),
], ids=["work-units"])
def test_empty_runs_are_refused_before_any_setup(script, argv, monkeypatch, capsys):
    # an empty run has no mean or median: argparse refuses it before the
    # workload's set-up or the packages' loading
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module(script)

    def no_setup(*args):
        raise AssertionError("set-up was reached")

    monkeypatch.setattr(module, "measure", no_setup)
    with pytest.raises(SystemExit) as err:
        module.main(argv)
    assert err.value.code == 2
    assert "must be at least 1, not 0" in capsys.readouterr().err
