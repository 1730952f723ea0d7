"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import json
import math
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import relaymatch as rm
from relaymatch import cli, experiments
from relaymatch.cli import main
from relaymatch.matching import _MatchingState, count_strategies

from conftest import make_instance
from test_solvers import PINNED_CSV_DIGESTS


SMALL = dict(num_sources=3, num_relays=2, radios_per_relay=1, source_radios=(1, 2),
             path_loss=rm.AIR_TO_AIR)


def make_topology_file(tmp_path, name="topo.json", **params):
    topology = rm.generate_topology(rm.TopologyParams(**{**SMALL, **params}), 17)
    path = tmp_path / name
    rm.save_topology(path, topology)
    return path


def set_leaf(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


class TestGen:
    def test_writes_topology(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        code = main(["gen", "--sources", "3", "--relays", "2", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["sources"]) == 3
        assert "3 sources" in capsys.readouterr().out

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen", "--seed", "42", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # sha256 of `relaymatch gen --seed S --path-loss P` output with the
    # default topology parameters; pins the file format byte for byte
    GEN_DIGESTS = {
        (0, "macro"): "9798abd5261503a69866c72fd8ae69044307a2d2e6e6f3e96c1b92a49f2fde55",
        (0, "los-2ghz"): "c89c9a656e8687161bf1b33dd45fa40f1344da972147dc64addd1de4486eb943",
        (0, "air-to-air"): "1fde35dcb400586674621a73d92da29bf7f95b0c5bbf2063fa08b09412e55960",
        (1, "macro"): "73a5f12a29e6b81b16dabcb6b285b3b21f73a9b73965e31988a422754cb3f125",
        (1, "los-2ghz"): "5267f1364007f137a4283fc7cbfdb3acba15640455872045456d2a7e150dbe31",
        (1, "air-to-air"): "9790d30a55cc87b1ad4a9234bef0c654bf835930dd5f888e506ba6ba086dc9b6",
        (2, "macro"): "4b2158256c540d15e673eda7bba925d6c5afc324c7c7bf5278a7685e48234b22",
        (2, "los-2ghz"): "9e4ccded14e95579a0096634c5055fb9e4e83a5e0630792c7fa02139f7ca8dbb",
        (2, "air-to-air"): "2fc2f7d4d18f85e7bb81b8361394f7a9fa99dded637265e0e2fa740ad65d054f",
    }

    @pytest.mark.parametrize("seed,preset", sorted(GEN_DIGESTS))
    def test_pinned_output(self, tmp_path, seed, preset):
        out = tmp_path / "topo.json"
        assert main(["gen", "--seed", str(seed), "--path-loss", preset,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            self.GEN_DIGESTS[(seed, preset)]

    def test_config_file_and_preset_flag(self, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"num_sources": 2, "num_relays": 2}))
        out = tmp_path / "topo.json"
        code = main(["gen", "--config", str(cfg), "--path-loss", "air-to-air",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["path_loss"]["intercept_db"] == 103.0

    def test_flag_fixes_a_value_the_config_file_sets(self, tmp_path, capsys):
        # the file and the flags are decoded as one document
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"num_sources": 0}))
        out = tmp_path / "topo.json"
        assert main(["gen", "--config", str(cfg), "--sources", "3",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["sources"]) == 3
        out.unlink()
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        assert "need at least one source and one relay" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "t.json")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_config_not_an_object_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps([1, 2]))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "t.json")])
        assert code == 1
        assert "TopologyParams must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("doc,named", [
        ({"area_side_m": math.nan}, "TopologyParams key 'area_side_m'"),
        ({"rate_requirement_bps": [1e7, math.nan]},
         "TopologyParams key 'rate_requirement_bps'"),
        ({"path_loss": {"slope_db": math.inf}}, "PathLossModel key 'slope_db'"),
        ({"area_side_m": 10 ** 400}, "TopologyParams key 'area_side_m'"),
    ], ids=["nan-area", "nan-rate", "infinite-slope", "int-past-float-range"])
    def test_non_finite_config_value_exits_one(self, tmp_path, capsys, doc, named):
        # these used to exit 2 from inside numpy's uniform draw or the geometry
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(doc))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "t.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert named in err and "expected float" in err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("doc,named", [
        ({"bandwidth_hz": 0}, "bandwidth must be positive"),
        ({"path_loss": {"shadowing_sigma_db": -1.0}},
         "path_loss.shadowing_sigma_db must be >= 0"),
        ({"path_loss": {"min_distance_m": 0.0}}, "path_loss.min_distance_m must be > 0"),
        ({"path_loss": {"min_distance_m": -3.0}}, "path_loss.min_distance_m must be > 0"),
    ], ids=["zero-bandwidth", "negative-shadowing", "zero-min-distance",
            "negative-min-distance"])
    def test_invalid_topology_exits_one_before_writing(self, tmp_path, capsys,
                                                       doc, named):
        # a zero bandwidth was written and only refused by `run --topology`;
        # a negative sigma silently meant no shadowing; a min distance <= 0
        # cannot clamp a coincident link, whose gain math.log10 then refuses
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(doc))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "t.json")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_oversized_topology_exits_one_before_any_draw(self, tmp_path, capsys,
                                                          monkeypatch):
        # this config used to loop in the per-source draw until killed; the
        # first source the loop completes would raise, and so exit 2
        def no_source(**fields):
            raise AssertionError("generate_topology entered its source loop")

        monkeypatch.setattr(rm.radio, "SourceNode", no_source)
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"num_sources": 100000000000}))
        code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "t.json")])
        assert code == 1
        assert ("num_sources x num_relays x radios_per_relay = 100000000000 x 5 x 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "t.json").exists()

    def test_bad_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--path-loss", "underwater", "--out",
                  str(tmp_path / "t.json")])
        assert err.value.code == 1


@pytest.mark.parametrize("argv,unknown", [
    (["gen", "--sour", "3", "--rel", "2", "--out", "t.json"], "--sour 3 --rel 2"),
    (["run", "--topology", "t.json", "--sol", "best_response", "--se", "3"],
     "--sol best_response --se 3"),
    (["--deb", "run", "--topology", "t.json"], "--deb"),
], ids=["gen", "run", "debug"])
def test_flag_prefix_exits_one(tmp_path, capsys, monkeypatch, argv, unknown):
    # argparse used to take any unambiguous prefix of a flag
    monkeypatch.chdir(tmp_path)
    make_topology_file(tmp_path, name="t.json")
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert f"error: unrecognized arguments: {unknown}\n" in captured.err
    assert captured.out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


@pytest.mark.parametrize("argv", [
    ["gen", "--out", "t.json"],
    ["run", "--topology", "t.json"],
    ["ensemble", "--config", "fig2", "--out", "r"],
], ids=["gen", "run", "ensemble"])
def test_negative_seed_exits_one(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seed", "-1"])
    assert err.value.code == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", [["--samples", "5"], ["--seed", "0"]],
                         ids=["samples", "seed"])
def test_verify_has_no_sampler_flags(tmp_path, capsys, monkeypatch, flag):
    # verify audits every deviation, so it takes no sample count and no seed
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--topology", "t.json", "--matching", "m.json", *flag])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert f"error: unrecognized arguments: {' '.join(flag)}\n" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("debug", [False, True])
def test_runtime_error_traceback_only_under_debug(tmp_path, capsys, monkeypatch,
                                                   debug):
    def failing_solver(*args, **kwargs):
        raise RuntimeError("solver broke")

    monkeypatch.setattr(cli, "solve", failing_solver)
    topo = make_topology_file(tmp_path)
    argv = ["run", "--topology", str(topo)]
    assert main(["--debug", *argv] if debug else argv) == 2
    err = capsys.readouterr().err
    if debug:
        assert err.startswith("Traceback (most recent call last):")
        assert "in failing_solver" in err
        assert err.endswith("RuntimeError: solver broke\n")
    else:
        assert err == "runtime error: solver broke\n"


class TestRun:
    def test_trace_on_stdout_lambda_on_stderr(self, tmp_path, capsys):
        topo = make_topology_file(tmp_path)
        out = tmp_path / "matching.json"
        code = main(["run", "--topology", str(topo), "--solver", "pma",
                     "--seed", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("iteration,lambda,actor,accepted")
        assert captured.err.startswith("final_lambda,")
        assert out.exists()

    def test_missing_topology_exits_one(self, tmp_path, capsys):
        code = main(["run", "--topology", str(tmp_path / "absent.json")])
        assert code == 1

    @pytest.mark.parametrize("flag", [["--sources", "3"], ["--relays", "2"],
                                      ["--radios-per-relay", "2"],
                                      ["--path-loss", "macro"],
                                      ["--config", "params.json"]])
    def test_topology_file_rejects_instance_flags(self, tmp_path, capsys, flag):
        # the file fixes the instance; only gen takes these flags
        topo = make_topology_file(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["run", "--topology", str(topo), *flag])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("corrupt,named", [
        (lambda doc: doc["path_loss"].update(slope=20.0),
         "unknown PathLossModel keys: slope"),
        (lambda doc: doc.pop("seed"), "missing Topology keys: seed"),
        (lambda doc: doc["sources"][0].update(num_radios=0), "quota"),
        (lambda doc: doc["gains"]["source_to_relay"].pop(), "gain tables"),
        (lambda doc: doc["gains"]["source_to_relay"][0].pop(),
         "LinkGainTable key 'source_to_relay'"),
        (lambda doc: doc["sources"].__setitem__(0, 5), "SourceNode"),
        (lambda doc: doc["sources"][0].update(num_radios="2"),
         "SourceNode key 'num_radios': expected int, not '2'"),
        (lambda doc: doc["sources"][0].update(num_radios=1.5),
         "SourceNode key 'num_radios': expected int, not 1.5"),
        (lambda doc: doc["relays"][0]["radios"][0].update(bandwidth_hz="1e7"),
         "RelayRadio key 'bandwidth_hz': expected float, not '1e7'"),
        (lambda doc: doc["sources"][0].update(position=[1.0]),
         "SourceNode key 'position': expected tuple[float, float]"),
    ], ids=["unknown-key", "missing-key", "quota-zero", "gain-shape", "ragged-gain-row",
            "node-not-object", "quota-string", "quota-float", "bandwidth-string",
            "position-short"])
    def test_malformed_topology_file_exits_one(self, tmp_path, capsys, corrupt, named):
        path = make_topology_file(tmp_path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        code = main(["run", "--topology", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize("corrupt,named", [
        (lambda doc: [s.update(id=7) for s in doc["sources"][:2]],
         "SourceNode key 'id': ids must be the positions 0..2 in order, "
         "not [7, 7, 2]"),
        (lambda doc: doc["relays"][1].update(id=0), "RelayNode key 'id'"),
        (lambda doc: doc["relays"][1]["radios"][0].update(id=42),
         "RelayRadio key 'id'"),
        (lambda doc: [r["radios"][0].update(channel=42) for r in doc["relays"]],
         "RelayRadio key 'channel': channels must be distinct, [42] repeat"),
    ], ids=["source-id", "relay-id", "radio-id", "repeated-channel"])
    def test_ids_off_position_or_shared_channel_exit_one(self, tmp_path, capsys,
                                                         corrupt, named):
        # solvers index nodes by position; such a file used to run and exit 0
        path = make_topology_file(tmp_path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        code = main(["run", "--topology", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "configuration error" in captured.err and named in captured.err

    @pytest.mark.parametrize("path,value,named", [
        (("gains", "source_to_relay", 0, 0), math.nan,
         "LinkGainTable key 'source_to_relay': expected ndarray"),
        (("gains", "relay_to_destination", 1), math.inf,
         "LinkGainTable key 'relay_to_destination'"),
        (("sources", 1, "position", 0), -math.inf,
         "SourceNode key 'position'"),
        (("noise_density_dbm_hz",), math.nan,
         "Topology key 'noise_density_dbm_hz': expected float, not nan"),
    ], ids=["nan-gain", "infinite-gain", "infinite-position", "nan-noise"])
    def test_non_finite_topology_value_exits_one(self, tmp_path, capsys, path,
                                                 value, named):
        # json reads NaN and Infinity; a NaN gain used to run and exit 0
        topo = make_topology_file(tmp_path)
        doc = json.loads(topo.read_text())
        set_leaf(doc, path, value)
        topo.write_text(json.dumps(doc))
        code = main(["run", "--topology", str(topo)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "configuration error" in captured.err and named in captured.err

    def test_topology_file_not_an_object_exits_one(self, tmp_path, capsys):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps([1, 2]))
        code = main(["run", "--topology", str(path)])
        assert code == 1
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify", "oracle"])
    def test_negative_shadowing_sigma_in_topology_file_exits_one(self, tmp_path,
                                                                 capsys, command):
        # such a file used to load, and rebuilding its gains drew no shadowing
        path = make_topology_file(tmp_path)
        matching = tmp_path / "matching.json"
        assert main(["oracle", "--topology", str(path), "--out", str(matching)]) == 0
        doc = json.loads(path.read_text())
        doc["path_loss"]["shadowing_sigma_db"] = -4.0
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        extra = ["--matching", str(matching)] if command == "verify" else []
        code = main([command, "--topology", str(path), *extra])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "configuration error" in captured.err
        assert "path_loss.shadowing_sigma_db must be >= 0" in captured.err

    def test_exhaustive_is_no_solver_kind(self, tmp_path, capsys):
        # the oracle is exhaustive_search and `relaymatch oracle`
        with pytest.raises(rm.ConfigurationError, match="unknown solver kind"):
            rm.SolverConfig(kind="exhaustive")
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"solvers": [{"kind": "exhaustive"}]}))
        code = main(["ensemble", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "unknown solver kind 'exhaustive'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        with pytest.raises(SystemExit) as err:
            main(["run", "--solver", "exhaustive"])
        assert err.value.code == 1
        assert "invalid choice: 'exhaustive'" in capsys.readouterr().err

    def test_topology_file_is_required(self, tmp_path, capsys, monkeypatch):
        # the instance comes only from a topology file written by gen
        ran = []
        monkeypatch.setattr(cli, "solve", lambda *a, **k: ran.append(a))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["run", "--solver", "substitutable", "--seed", "1"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "the following arguments are required: --topology" in captured.err
        assert captured.out == "" and ran == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", sorted(PINNED_CSV_DIGESTS))
    def test_topology_file_replays_pinned_trace(self, tmp_path, capsys, kind):
        # the same instance saved by save_topology gives the library's
        # pinned trace CSV at seed 1, byte for byte
        topology, _, _ = make_instance(2026, num_sources=8, num_relays=5,
                                       radios_per_relay=2, source_radios=(2, 3))
        path = tmp_path / "topo.json"
        rm.save_topology(path, topology)
        code = main(["run", "--topology", str(path), "--solver", kind, "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CSV_DIGESTS[kind]


class TestEnsembleCommand:
    def test_config_file_run(self, tmp_path, capsys):
        config = rm.ExperimentConfig(
            topology=rm.TopologyParams(num_sources=3, num_relays=2,
                                       radios_per_relay=1,
                                       source_radios=(1, 2),
                                       path_loss=rm.AIR_TO_AIR),
            solvers=[rm.SolverConfig(kind="pma")],
            replications=2, master_seed=5, metrics=("runs",),
            store_traces=False)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "results"
        code = main(["ensemble", "--config", str(path), "--out", str(out)])
        assert code == 0
        assert (out / "runs.csv").exists()

    def test_solver_filter_must_match(self, tmp_path, capsys):
        config = rm.ExperimentConfig(
            topology=rm.TopologyParams(num_sources=2, num_relays=2),
            solvers=[rm.SolverConfig(kind="pma")],
            replications=1, metrics=("runs",), store_traces=False)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config.to_dict()))
        code = main(["ensemble", "--config", str(path),
                     "--solver", "best_response", "--out", str(tmp_path / "r")])
        assert code == 1
        assert not (tmp_path / "r").exists()

    def test_workers_flag_changes_no_output_byte(self, tmp_path, capsys, monkeypatch):
        # --workers overrides the config's workers, as --seed overrides its
        # master seed, and stays out of every file the ensemble writes
        config = rm.ExperimentConfig(
            topology=rm.TopologyParams(num_sources=3, num_relays=2,
                                       radios_per_relay=1, source_radios=(1, 2),
                                       path_loss=rm.AIR_TO_AIR),
            solvers=[rm.SolverConfig(kind="pma"), rm.SolverConfig(kind="many_to_one")],
            replications=2, master_seed=5, metrics=("runs", "cdf", "trace"))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config.to_dict()))
        pools = []
        pool = experiments.ProcessPoolExecutor

        def spy(max_workers):
            pools.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", spy)
        outputs = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["ensemble", "--config", str(path), "--workers", workers,
                         "--out", str(out)]) == 0
            outputs[workers] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert pools == [2]
        assert outputs["1"] == outputs["2"]
        assert sorted(outputs["1"]) == [
            "cdf_many_to_one.csv", "cdf_pma.csv", "manifest.json",
            "mean_trace_many_to_one.csv", "mean_trace_pma.csv", "runs.csv"]
        manifest = json.loads(outputs["2"]["manifest.json"])
        assert manifest["config_sha256"] == config.config_hash()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_one_before_running(self, tmp_path, capsys,
                                                       monkeypatch, workers):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "topology": {"num_sources": 2, "num_relays": 2},
            "solvers": [{"kind": "pma"}], "metrics": ["runs"]}))
        ran = []
        monkeypatch.setattr(experiments, "solve", lambda *a, **k: ran.append(a))
        with pytest.raises(SystemExit) as err:
            main(["ensemble", "--config", str(path), "--workers", workers,
                  "--out", str(tmp_path / "r")])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert f"workers must be >= 1, not {workers}" in captured.err
        assert captured.out == "" and ran == []
        assert not (tmp_path / "r").exists()

    def test_unknown_config_exits_one(self, tmp_path, capsys):
        assert main(["ensemble", "--config", "no-such-preset",
                     "--out", str(tmp_path / "r")]) == 1
        assert "no-such-preset" in capsys.readouterr().err

    def test_removed_solver_setting_exits_one(self, tmp_path, capsys):
        # the annealing schedule is fixed; an old config that sets it fails
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"solvers": [{"kind": "pma", "stop_window": 50}]}))
        code = main(["ensemble", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_prints_directory_written(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "topology": {"num_sources": 2, "num_relays": 2},
            "solvers": [{"kind": "pma"}], "metrics": ["runs"]}))
        out = tmp_path / "results"
        assert main(["ensemble", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"ensemble complete; results in {out}\n"
        assert (out / "runs.csv").exists()

    def test_no_output_directory_exits_one_before_running(self, tmp_path, capsys,
                                                          monkeypatch):
        # without --out the results would have nowhere to go
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "topology": {"num_sources": 2, "num_relays": 2},
            "solvers": [{"kind": "pma"}], "metrics": ["runs"]}))
        ran = []
        monkeypatch.setattr(experiments, "solve", lambda *a, **k: ran.append(a))
        with pytest.raises(SystemExit) as err:
            main(["ensemble", "--config", str(path)])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "the following arguments are required: --out" in captured.err
        assert captured.out == "" and ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    def test_unknown_metric_exits_one(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"solvers": [{"kind": "pma"}],
                                    "metrics": ["runs", "cdfs"]}))
        code = main(["ensemble", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "cdfs" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("doc", [
        {"topology": {"num_sources": 0}},
        {"topology": {"num_relays": 2}, "sweep_num_sources": [3, 0]},
        {"topology": {"bandwidth_hz": 0}},
        {"topology": {"path_loss": {"shadowing_sigma_db": -1.0}}},
    ], ids=["ensemble", "sweep", "zero-bandwidth", "negative-shadowing"])
    def test_invalid_topology_exits_one_before_writing(self, tmp_path, capsys, doc):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({**doc, "solvers": [{"kind": "substitutable"}],
                                    "metrics": ["runs"]}))
        code = main(["ensemble", "--config", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("doc,named", [
        ({"topology": 5}, "TopologyParams must be a JSON object"),
        ({"solvers": [5]}, "SolverConfig must be a JSON object"),
        ({"solvers": {"kind": "pma"}},
         "ExperimentConfig key 'solvers': expected list[SolverConfig]"),
        ([1], "ExperimentConfig must be a JSON object"),
        ({"topology": {"num_sources": 2, "path_loss": [1, 2]}},
         "PathLossModel must be a JSON object"),
        ({"topology": {"num_sources": 2, "source_radios": 2.0}}, "source_radios"),
        ({"topology": {"num_sources": 2, "source_radios": [1, 2, 3]}}, "source_radios"),
        ({"sweep_num_sources": 5}, "sweep_num_sources"),
        ({"sweep_num_sources": [3, 4, 3]}, "sweep_num_sources repeats sizes [3]"),
        ({"master_seed": -1}, "master_seed"),
        ({"replications": "3"}, "ExperimentConfig key 'replications': expected int"),
        ({"solvers": [{"kind": "pma", "max_iterations": "5"}]},
         "ExperimentConfig key 'solvers': SolverConfig key 'max_iterations': "
         "expected int, not '5'"),
        ({"workers": True, "topology": {"num_sources": 4}},
         "ExperimentConfig key 'workers': expected int, not True"),
        ({"topology": {"num_sources": 4.5}},
         "TopologyParams key 'num_sources': expected int, not 4.5"),
        ({"store_traces": "no"}, "ExperimentConfig key 'store_traces': expected bool"),
        ({"metrics": "runs"}, "ExperimentConfig key 'metrics': expected tuple[str, ...]"),
        ({"topology": {"bandwidth_hz": math.inf}},
         "TopologyParams key 'bandwidth_hz': expected float, not inf"),
    ], ids=["topology-int", "solver-int", "solvers-object", "top-level-list",
            "path-loss-list", "source-radios-float", "source-radios-triple",
            "sweep-int", "sweep-repeated-size", "negative-master-seed",
            "replications-string", "max-iterations-string", "workers-bool",
            "num-sources-float",
            "store-traces-string", "metrics-string", "infinite-bandwidth"])
    def test_malformed_config_exits_one_before_writing(self, tmp_path, capsys,
                                                       monkeypatch, doc, named):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        ran = []
        monkeypatch.setattr(experiments, "solve", lambda *a, **k: ran.append(a))
        code = main(["ensemble", "--config", str(path), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert "configuration error" in err and named in err
        assert ran == [] and not (tmp_path / "r").exists()

    def test_sweep_topology_block_is_refused_at_load(self, tmp_path, capsys):
        # no run uses the top-level 0 sources, but config_sha256 records them
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "topology": {"num_sources": 0, "num_relays": 2, "radios_per_relay": 1,
                         "source_radios": 1},
            "sweep_num_sources": [2], "solvers": [{"kind": "pma"}],
            "metrics": ["runs"]}))
        assert main(["ensemble", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        assert ("ExperimentConfig key 'topology': need at least one source and one relay"
                in capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    # config_sha256 of each preset; the JSON decoder must not move them
    PRESET_DIGESTS = {
        "fig2": "c22549b36ae77795129758727e4bd8531a2e432e08b868efc2af1e3d83e69b5b",
        "fig3": "fa2c34d72fa8751e24f4c1d660ac24f8b1629df506642f577200d1ff7c09e627",
        "fig4": "99628f35767c9767d755d4920ef7502aa01d2ec6b1d53d8c63f409d9ad886aed",
    }

    def test_presets_parse(self):
        from relaymatch.cli import _resolve_config
        for name in ("fig2", "fig3", "fig4"):
            config = _resolve_config(name)
            assert config.replications >= 100
            assert config.config_hash() == self.PRESET_DIGESTS[name]
        # an int given for a float field is kept as written, so its hash holds
        config = rm.ExperimentConfig.from_dict(
            {"topology": {"bandwidth_hz": 10000000, "area_side_m": 2000}})
        assert config.topology.bandwidth_hz == 10000000
        assert config.config_hash() == (
            "569c91a9adfcc7c4e0974a5691f60a17abfc8846b966ee46fb6b28cfb554275e")


class TestVerify:
    def test_oracle_output_verifies_stable(self, tmp_path, capsys):
        topo_path = make_topology_file(tmp_path)
        matching_path = tmp_path / "matching.json"
        assert main(["oracle", "--topology", str(topo_path),
                     "--out", str(matching_path)]) == 0
        code = main(["verify", "--topology", str(topo_path),
                     "--matching", str(matching_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "stable" in captured.out
        assert "potential-identity" in captured.out

    def test_unstable_matching_exits_two_unless_allowed(self, tmp_path, capsys):
        topo_path = make_topology_file(tmp_path, name="t2.json", num_sources=2,
                                       num_relays=2, source_radios=1)
        topology, _ = rm.load_topology(topo_path)
        caps = rm.build_capacity_table(topology)
        profiles = rm.default_profiles(topology)
        crowded = None
        import numpy as np
        for l in range(topology.num_radios):
            m = rm.Matching([(l,), (l,)], topology.num_radios)
            if not rm.is_stable(m, topology, profiles, caps).stable:
                crowded = m
                break
        assert crowded is not None, "expected a crowded unstable matching"
        matching_path = tmp_path / "crowded.json"
        matching_path.write_text(json.dumps(crowded.to_dict()))
        args = ["verify", "--topology", str(topo_path),
                "--matching", str(matching_path)]
        assert main(args) == 2
        capsys.readouterr()
        assert main(args + ["--allow-unstable"]) == 0
        assert "unstable" in capsys.readouterr().out

    @staticmethod
    def _deviations(topology):
        return sum(count_strategies(topology.num_radios, q) - 1 for q in topology.quotas)

    def test_audit_keeps_one_kernel_state(self, tmp_path, capsys, monkeypatch):
        # one state kept on the matching for is_stable and the audit's dU
        # and base lambda, one full rebuild per deviated matching for
        # dLambda, and no deviated matching kept on the audited one
        topo_path = make_topology_file(tmp_path)
        topology, _ = rm.load_topology(topo_path)
        deviations = self._deviations(topology)
        matching_path = tmp_path / "matching.json"
        assert main(["run", "--topology", str(topo_path), "--seed", "2",
                     "--out", str(matching_path)]) == 0
        capsys.readouterr()
        built, audited = [], []
        init = _MatchingState.__init__
        is_stable = cli.is_stable

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        def spy(m, *args):
            audited.append(m)
            return is_stable(m, *args)

        monkeypatch.setattr(_MatchingState, "__init__", counting_init)
        monkeypatch.setattr(cli, "is_stable", spy)
        assert main(["verify", "--topology", str(topo_path), "--matching",
                     str(matching_path), "--allow-unstable"]) == 0
        assert f"over {deviations} deviations: " in capsys.readouterr().out
        assert len(built) == 1 + deviations
        (m,) = audited
        assert m._children is None

    def test_audit_keeps_no_utility(self, tmp_path, capsys, monkeypatch):
        # every dU is read from the state is_stable kept on the matching,
        # where relay_utility would keep each one beside it
        topo_path = make_topology_file(tmp_path)
        topology, _ = rm.load_topology(topo_path)
        matching_path = tmp_path / "matching.json"
        assert main(["run", "--topology", str(topo_path), "--seed", "2",
                     "--out", str(matching_path)]) == 0
        capsys.readouterr()
        audited, utilities = [], []
        is_stable, utility = cli.is_stable, _MatchingState.utility

        def spy(m, *args):
            audited.append(m)
            return is_stable(m, *args)

        def counting(state, source, radios):
            utilities.append(source)
            return utility(state, source, radios)

        monkeypatch.setattr(cli, "is_stable", spy)
        monkeypatch.setattr(_MatchingState, "utility", counting)
        assert main(["verify", "--topology", str(topo_path), "--matching",
                     str(matching_path), "--allow-unstable"]) == 0
        (m,) = audited
        assert len(utilities) == self._deviations(topology) + topology.num_sources
        assert m._kernel[4] == [None] * topology.num_sources

    def test_audit_builds_each_strategy_space_once(self, tmp_path, capsys, monkeypatch):
        topo_path = make_topology_file(tmp_path)
        topology, _ = rm.load_topology(topo_path)
        assert len(set(topology.quotas)) == 2
        matching_path = tmp_path / "matching.json"
        assert main(["run", "--topology", str(topo_path), "--seed", "2",
                     "--out", str(matching_path)]) == 0
        capsys.readouterr()
        quotas = []
        enumerate_strategies = cli.enumerate_strategies

        def spy(num_radios, quota):
            quotas.append(quota)
            return enumerate_strategies(num_radios, quota)

        monkeypatch.setattr(cli, "enumerate_strategies", spy)
        assert main(["verify", "--topology", str(topo_path), "--matching",
                     str(matching_path)]) == 0
        assert sorted(quotas) == sorted(set(topology.quotas))
        # every deviation: 3 + 2 + 3 strategies other than each source's own
        assert self._deviations(topology) == 8
        assert capsys.readouterr().out == (
            "stable\npotential-identity max deviation over 8 deviations: 3.331e-16\n")

    def test_a_wrong_utility_on_one_deviation_is_found(self, tmp_path, capsys,
                                                       monkeypatch):
        # a sampler could miss the one deviation whose utility is off
        topo_path = make_topology_file(tmp_path)
        topology, _ = rm.load_topology(topo_path)
        matching_path = tmp_path / "matching.json"
        assert main(["run", "--topology", str(topo_path), "--seed", "2",
                     "--out", str(matching_path)]) == 0
        capsys.readouterr()
        held = json.loads(matching_path.read_text())
        n = topology.num_sources - 1
        target = [s for s in cli.enumerate_strategies(topology.num_radios,
                                                      topology.quotas[n])
                  if list(s) != held[str(n)]][-1]
        utility = _MatchingState.utility

        def faulty(state, source, radios):
            u = utility(state, source, radios)
            return u + 1e-6 if (source, tuple(radios)) == (n, target) else u

        monkeypatch.setattr(_MatchingState, "utility", faulty)
        assert main(["verify", "--topology", str(topo_path), "--matching",
                     str(matching_path), "--allow-unstable"]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        assert float(printed.rsplit(": ", 1)[1]) >= 1e-6

    @pytest.mark.parametrize("doc", [{"a": [1]}, [[0]], {"0": "x", "1": [0]},
                                     {"-1": [0]}, {"0": [0], "00": [1], "2": []},
                                     {"0": [1], "2": [0]}],
                             ids=["key-not-int", "list", "radios-not-list",
                                  "negative-key", "non-canonical-key", "gap-in-ids"])
    def test_malformed_matching_exits_one(self, tmp_path, capsys, doc):
        topo_path = make_topology_file(tmp_path)
        matching_path = tmp_path / "bad.json"
        matching_path.write_text(json.dumps(doc))
        code = main(["verify", "--topology", str(topo_path),
                     "--matching", str(matching_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "configuration error" in captured.err and captured.out == ""

    def test_infeasible_matching_exits_two(self, tmp_path, capsys):
        topo_path = make_topology_file(tmp_path, name="t3.json", num_sources=3,
                                       num_relays=2, source_radios=1)
        matching_path = tmp_path / "bad.json"
        # quota is 1 radio per source, so holding two violates feasibility
        matching_path.write_text(json.dumps({"0": [0, 1], "1": [], "2": []}))
        code = main(["verify", "--topology", str(topo_path),
                     "--matching", str(matching_path)])
        assert code == 2
        assert "INFEASIBLE" in capsys.readouterr().out


class TestOracle:
    def test_cap_exceeded_exits_two(self, tmp_path, capsys):
        topo_path = make_topology_file(tmp_path, name="big.json",
                                       num_sources=13, num_relays=5,
                                       radios_per_relay=2, source_radios=3)
        code = main(["oracle", "--topology", str(topo_path)])
        assert code == 2
        assert "exceed" in capsys.readouterr().err

    def test_cap_at_and_below_profile_count(self, tmp_path, capsys):
        topo_path = make_topology_file(tmp_path, name="small.json")
        topology, _ = rm.load_topology(topo_path)
        total = math.prod(count_strategies(topology.num_radios, q)
                          for q in topology.quotas)
        code = main(["oracle", "--topology", str(topo_path), "--cap", str(total)])
        assert code == 0
        assert capsys.readouterr().out.startswith("optimal_lambda,")
        code = main(["oracle", "--topology", str(topo_path), "--cap", str(total - 1)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{total} strategy profiles exceed" in captured.err
        assert captured.out == ""

    def test_negative_cap_exits_one(self, tmp_path, capsys):
        # --cap -1 used to run and exit 2 with "... exceed the
        # exhaustive-search cap of -1"
        topo_path = make_topology_file(tmp_path, name="small.json")
        with pytest.raises(SystemExit) as err:
            main(["oracle", "--topology", str(topo_path), "--cap", "-1"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "cap must be >= 0" in captured.err and captured.out == ""


def numeric_leaves(doc, path=()):
    """The path of every number in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from numeric_leaves(value, path + (i,))
    elif type(doc) in (int, float):
        yield path


# the numbers of make_topology_file's file
LEAVES = list(numeric_leaves(json.loads(json.dumps(rm.radio.topology_to_dict(
    rm.generate_topology(rm.TopologyParams(**SMALL), 17))))))
EDGE_VALUES = [0, 1, -1, 1e300, -1e300, 1e-320, math.nan, math.inf, -math.inf]
# a small ensemble config: 3 sources, 2 one-radio relays, one PMA replication
CONFIG = rm.ExperimentConfig(
    topology=rm.TopologyParams(num_sources=3, num_relays=2, radios_per_relay=1),
    solvers=[rm.SolverConfig(kind="pma")], metrics=("runs",)).to_dict()
CONFIG_LEAVES = list(numeric_leaves(json.loads(json.dumps(CONFIG))))
MATCHING = {"0": [0], "1": [1], "2": [0]}
NOT_FINITE = re.compile(r"\b(nan|-?inf(inity)?)\b", re.IGNORECASE)


class TestFiniteOrRefused:
    """Every number a topology file holds reaches the solvers only through
    the capacity table, which refuses what would not be finite."""

    @pytest.mark.parametrize("command", ["run", "oracle", "verify"])
    @pytest.mark.parametrize("path,named", [
        (("gains", "source_to_relay", 0, 0), "gains.source_to_relay[0][0] = 1e+300"),
        (("sources", 0, "tx_power_dbm"), "sources[0].tx_power_dbm = 1e+300"),
        (("noise_density_dbm_hz",), "noise_density_dbm_hz = 1e+300"),
    ], ids=["gain", "tx-power", "noise-density"])
    def test_overflowing_input_exits_one_naming_it(self, tmp_path, capsys, command,
                                                    path, named):
        # a gain of 1e300 used to make run print final_lambda,nan and exit 0
        # and oracle exit 2 ("only int indices permitted"); a power of 1e300
        # exited 2 with "(34, 'Numerical result out of range')"
        topo = make_topology_file(tmp_path)
        matching = tmp_path / "matching.json"
        matching.write_text(json.dumps({"0": [0], "1": [1], "2": [0]}))
        doc = json.loads(topo.read_text())
        set_leaf(doc, path, 1e300)
        topo.write_text(json.dumps(doc))
        extra = ["--matching", str(matching)] if command == "verify" else []
        code = main([command, "--topology", str(topo), *extra])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "configuration error: source 0, radio 0: " in captured.err
        assert named in captured.err

    def test_capacity_table_refuses_an_overflowing_power(self):
        params = rm.TopologyParams(num_sources=2, num_relays=1, sv_tx_power_dbm=1e300)
        topology = rm.generate_topology(params, 0)
        with pytest.raises(rm.ConfigurationError, match=r"sources\[0\].tx_power_dbm"):
            rm.build_capacity_table(topology)

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(LEAVES), value=st.sampled_from(EDGE_VALUES))
    def test_every_number_is_finite_or_refused_by_name(self, tmp_path, capsys, path,
                                                       value):
        # each command that reads the file either refuses it, naming the key
        # that was set, or prints only finite numbers
        topo, matching = tmp_path / "topo.json", tmp_path / "matching.json"
        matching.write_text(json.dumps({"0": [0], "1": [1], "2": [0]}))
        doc = json.loads(make_topology_file(tmp_path, name="base.json").read_text())
        set_leaf(doc, path, value)
        topo.write_text(json.dumps(doc))
        key = [part for part in path if isinstance(part, str)][-1]
        for argv in (["run"], ["oracle"],
                     ["verify", "--matching", str(matching), "--allow-unstable"]):
            code = main([*argv, "--topology", str(topo)])
            captured = capsys.readouterr()
            if code == 1:
                assert "configuration error" in captured.err and key in captured.err
            else:
                assert code == 0, captured.err
                printed = captured.out + captured.err
                assert not re.search(r"nan|inf", printed, re.IGNORECASE), printed

    @settings(derandomize=True, max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(CONFIG_LEAVES), value=st.sampled_from(EDGE_VALUES))
    def test_every_config_number_is_finite_or_refused(self, tmp_path, capsys, path,
                                                      value):
        # a refusal inside a replication used to exit 2 ("runtime error"):
        # a power, noise density or path loss of ±1e300, a bandwidth of
        # 1e-320, an area side of 1e300
        doc = json.loads(json.dumps(CONFIG))
        set_leaf(doc, path, value)
        config, out = tmp_path / "exp.json", tmp_path / "r"
        config.write_text(json.dumps(doc))
        code = main(["ensemble", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        if code == 1:
            assert "configuration error" in captured.err, captured.err
            assert not out.exists()
        else:
            assert code == 0, captured.err
            written = [p.read_text() for p in sorted(out.iterdir())]
            assert written and not NOT_FINITE.search(captured.out + "".join(written))
        shutil.rmtree(out, ignore_errors=True)

    @settings(derandomize=True, max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(source=st.sampled_from(sorted(MATCHING)), value=st.sampled_from(EDGE_VALUES))
    def test_every_matching_number_is_an_id_or_refused(self, tmp_path, capsys, source,
                                                       value):
        topo, matching = tmp_path / "topo.json", tmp_path / "matching.json"
        if not topo.exists():
            make_topology_file(tmp_path, name="topo.json")
        matching.write_text(json.dumps({**MATCHING, source: [value]}))
        code = main(["verify", "--topology", str(topo), "--matching", str(matching),
                     "--allow-unstable"])
        captured = capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["matching.json", "topo.json"]
        if code == 1:
            assert "configuration error" in captured.err and captured.out == ""
        else:
            assert code == 0, captured.err
            assert not NOT_FINITE.search(captured.out + captured.err), captured.out
