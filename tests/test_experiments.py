"""Unit tests for the ensemble runner, metrics and persistence."""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relaymatch as rm
from relaymatch import experiments, matching, solvers
from relaymatch.errors import ConfigurationError
from relaymatch.experiments import (_replication_seeds, run_ensemble,
                                    run_sweep, write_result)


def small_config(**overrides):
    base = dict(
        topology=rm.TopologyParams(num_sources=4, num_relays=2,
                                   radios_per_relay=2, source_radios=(1, 2),
                                   path_loss=rm.AIR_TO_AIR),
        solvers=[rm.SolverConfig(kind="pma"),
                 rm.SolverConfig(kind="substitutable")],
        replications=4,
        master_seed=77,
        metrics=("runs", "cdf", "trace"),
    )
    base.update(overrides)
    return rm.ExperimentConfig(**base)


class TestConfig:
    def test_round_trip_through_dict(self):
        config = small_config()
        doc = json.loads(json.dumps(config.to_dict()))
        restored = rm.ExperimentConfig.from_dict(doc)
        assert restored.to_dict() == config.to_dict()
        assert restored.config_hash() == config.config_hash()

    def test_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config().to_dict()))
        assert rm.ExperimentConfig.from_json(path).to_dict() == small_config().to_dict()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(replications=0)
        with pytest.raises(ConfigurationError):
            small_config(solvers=[])
        with pytest.raises(ConfigurationError):
            small_config(workers=0)

    def test_hash_ignores_workers(self, tmp_path):
        # the output directory is the caller's argument, never a config key
        with pytest.raises(ConfigurationError, match="out_dir"):
            rm.ExperimentConfig.from_dict({"out_dir": str(tmp_path)})
        config = small_config()
        assert small_config(workers=2).config_hash() == config.config_hash()
        assert small_config(master_seed=78).config_hash() != config.config_hash()
        for workers in (1, 2):
            run_ensemble(small_config(workers=workers, replications=2),
                         out_dir=tmp_path / str(workers))
        hashes = {json.loads((tmp_path / w / "manifest.json").read_text())
                  ["config_sha256"] for w in ("1", "2")}
        assert hashes == {small_config(workers=2, replications=2).config_hash()}
        assert config.config_hash() == (
            "7043a0e454cc6696ee19c2221b8ad82a9ed9c5f7c129ab9291e2da4c7bff4290")

    @pytest.mark.parametrize("change,named", [
        ({"bogus": 1}, "bogus"),
        ({"solvers": [{"kind": "pma", "seed": 3}]}, "seed"),
        ({"solvers": [{"kind": "pma", "stop_window": 50}]}, "stop_window"),
        ({"solvers": [{"kind": "substitutable", "radio_quota": 2}]}, "radio_quota"),
        ({"solvers": [{"kind": "best_response", "strategy_cap": 10 ** 8}]},
         "strategy_cap"),
        ({"satisfaction_slope": 2e-6}, "satisfaction_slope"),
        ({"topology": {"num_sources": 4, "bogus": 1}}, "bogus"),
        ({"topology": {"path_loss": {"slope": 20.0}}}, "slope"),
    ], ids=["top-level", "solver-seed", "solver-stop-window", "solver-radio-quota",
            "solver-strategy-cap", "satisfaction-slope", "topology", "path-loss"])
    def test_unknown_keys_rejected(self, change, named):
        doc = {**small_config().to_dict(), **change}
        with pytest.raises(ConfigurationError, match=f"unknown .*{named}"):
            rm.ExperimentConfig.from_dict(doc)

    def test_unknown_metric_rejected(self):
        # "cdfs" used to be accepted and write nothing
        with pytest.raises(ConfigurationError, match="cdfs"):
            small_config(metrics=("runs", "cdfs"))
        doc = {**small_config().to_dict(), "metrics": ["trace", "runs", "mean"]}
        with pytest.raises(ConfigurationError, match="mean"):
            rm.ExperimentConfig.from_dict(doc)

    def test_trace_metric_requires_stored_traces(self):
        # the mean trace is built from stored traces; without them no
        # mean_trace_*.csv used to be written, silently
        with pytest.raises(ConfigurationError, match="store_traces"):
            small_config(store_traces=False)
        small_config(store_traces=False, metrics=("runs", "cdf"))

    def test_repeated_solver_kind_rejected(self):
        # one kind names one series; two pma configs would be merged into it
        with pytest.raises(ConfigurationError, match="repeat"):
            small_config(solvers=[rm.SolverConfig(kind="pma"),
                                  rm.SolverConfig(kind="pma", max_iterations=2)])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_is_exact(self, data):
        # only valid parameters can be built; an int given for a float field
        # must come back as an int
        def number(lo, hi):
            return st.one_of(st.integers(lo, hi), st.floats(lo, hi))

        def ordered(values):
            return values.map(lambda pair: tuple(sorted(pair)))

        positive = st.one_of(st.integers(1, 10 ** 9), st.floats(1e-6, 1e300))
        path_loss = st.one_of(
            st.sampled_from(sorted(rm.PATH_LOSS_PRESETS.values(), key=repr)),
            st.builds(rm.PathLossModel, number(-1e300, 1e300), number(-1e300, 1e300),
                      number(0, 1e300), positive))
        topology = st.builds(
            rm.TopologyParams,
            num_sources=st.integers(1, 30), num_relays=st.integers(1, 10),
            radios_per_relay=st.integers(1, 4),
            source_radios=st.one_of(st.none(), st.integers(1, 3), ordered(
                st.tuples(st.integers(1, 3), st.integers(1, 3)))),
            area_side_m=number(400, 1e300), bandwidth_hz=positive,
            rate_requirement_bps=ordered(st.tuples(positive, positive)),
            source_annulus=ordered(st.lists(st.floats(0, 1, exclude_min=True),
                                            min_size=2, max_size=2, unique=True)),
            path_loss=path_loss)
        kinds = data.draw(st.lists(st.sampled_from(rm.solvers.SOLVER_KINDS),
                                   min_size=1, unique=True))
        solvers = [rm.SolverConfig(kind=k,
                                   max_iterations=data.draw(st.integers(1, 10 ** 4)))
                   for k in kinds]
        config = rm.ExperimentConfig(
            topology=data.draw(topology), solvers=solvers,
            replications=data.draw(st.integers(1, 1000)),
            master_seed=data.draw(st.integers(0, 2 ** 63)),
            metrics=tuple(data.draw(st.lists(st.sampled_from(["runs", "cdf", "trace"]),
                                             unique=True))),
            sweep_num_sources=data.draw(st.one_of(
                st.none(), st.lists(st.integers(1, 30), min_size=1, unique=True))))
        restored = rm.ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert restored.config_hash() == config.config_hash()


class TestSeedDiscipline:
    def test_replication_seeds_deterministic_and_distinct(self):
        a = [(s, [x.entropy for x in seqs])
             for s, seqs in _replication_seeds(5, 6, 2)]
        b = [(s, [x.entropy for x in seqs])
             for s, seqs in _replication_seeds(5, 6, 2)]
        assert a == b
        topo_seeds = [s for s, _ in a]
        assert len(set(topo_seeds)) == len(topo_seeds)

    def test_solvers_within_replication_share_topology(self):
        result = run_ensemble(small_config())
        by_rep = {}
        for r in result.records:
            by_rep.setdefault(r.replication, set()).add(r.topology_seed)
        assert all(len(seeds) == 1 for seeds in by_rep.values())


class TestEnsemble:
    def test_record_counts_and_names(self):
        result = run_ensemble(small_config())
        assert len(result.records) == 4 * 2
        assert result.solver_names == ["pma", "substitutable"]
        with pytest.raises(ConfigurationError):
            result.records_for("nope")

    def test_single_run_wraps_one_record(self):
        config = small_config(replications=1,
                              solvers=[rm.SolverConfig(kind="pma")])
        result = run_ensemble(config)
        assert len(result.records) == 1

    def test_rerun_is_identical(self):
        a = run_ensemble(small_config())
        b = run_ensemble(small_config())
        np.testing.assert_array_equal(a.final_lambdas("pma"),
                                      b.final_lambdas("pma"))

    def test_aggregates(self):
        result = run_ensemble(small_config())
        recs = result.records_for("pma")
        assert len(recs) == 4
        np.testing.assert_array_equal(result.final_lambdas("pma"),
                                      [r.final_lambda for r in recs])
        assert result.satisfaction_proportion("pma") == pytest.approx(
            np.mean([r.final_lambda / r.num_sources for r in recs]))
        assert 0.0 <= result.satisfaction_proportion("pma") <= 1.0
        assert 0.0 <= result.non_converged_fraction("pma") <= 1.0

    def test_mean_trace_requires_stored_traces(self):
        result = run_ensemble(small_config(store_traces=False,
                                           metrics=("runs", "cdf")))
        with pytest.raises(ConfigurationError):
            result.mean_trace("pma")

    def test_mean_trace_holds_final_value(self):
        result = run_ensemble(small_config())
        trace = result.mean_trace("pma")
        lengths = [r.trace.num_iterations for r in result.records_for("pma")]
        assert len(trace) == max(lengths)
        finals = [r.trace.lambda_per_iteration()[-1]
                  for r in result.records_for("pma")]
        assert trace[-1] == pytest.approx(np.mean(finals))


class TestConvergenceCdf:
    def test_step_cdf_properties(self):
        result = run_ensemble(small_config())
        xs, ps = rm.convergence_cdf(result, "pma")
        assert (np.diff(xs) > 0).all()
        assert (np.diff(ps) >= 0).all()
        assert ps[-1] == pytest.approx(1.0)

    def test_all_converging_at_same_iteration(self):
        # substitutable is deterministic per instance but iteration counts vary;
        # synthesize the degenerate case through a single record instead
        result = run_ensemble(small_config(replications=1,
                                           solvers=[rm.SolverConfig(kind="pma")]))
        xs, ps = rm.convergence_cdf(result, "pma")
        assert len(xs) == 1 and ps[0] == 1.0


class TestPersistence:
    def test_output_files_and_manifest(self, tmp_path):
        config = small_config()
        result = run_ensemble(config, out_dir=tmp_path)
        assert (tmp_path / "runs.csv").exists()
        assert (tmp_path / "cdf_pma.csv").exists()
        assert (tmp_path / "mean_trace_pma.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_sha256"] == config.config_hash()
        # the manifest records exactly the settings the hash digests
        block = json.dumps(manifest["config"], sort_keys=True).encode()
        assert manifest["config_sha256"] == hashlib.sha256(block).hexdigest()
        assert "workers" not in manifest["config"]
        assert "out_dir" not in manifest["config"]
        assert manifest["version"] == rm.__version__
        assert len(manifest["topology_seeds"]) == config.replications
        header = (tmp_path / "runs.csv").read_text().splitlines()[0]
        assert header == ("replication,solver,topology_seed,final_lambda,"
                          "convergence_iteration,iterations,num_sources")

    def test_manifest_names_the_code(self, tmp_path, monkeypatch):
        # the sources are hashed once per process, on the first manifest
        # write, by perfbench's source_identity rule
        experiments._source_digest.cache_clear()
        config = small_config(replications=1)
        run_ensemble(config, out_dir=tmp_path / "a")
        run_ensemble(config, out_dir=tmp_path / "b")
        assert experiments._source_digest.cache_info().misses == 1
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        code = manifest["code"]
        assert code["constants"] == {
            "ANNEAL_SCALE": solvers.ANNEAL_SCALE, "BETA_MAX": solvers.BETA_MAX,
            "STOP_WINDOW": solvers.STOP_WINDOW,
            "IMPROVEMENT_TOL": solvers.IMPROVEMENT_TOL,
            "ENUMERATION_CAP": solvers.ENUMERATION_CAP,
            "RADIO_QUOTA": solvers.RADIO_QUOTA,
            "SATISFACTION_TOL": matching.SATISFACTION_TOL,
            "STABILITY_CAP": matching.STABILITY_CAP}
        assert code["python"] == platform.python_version()
        assert code["numpy"] == np.__version__
        src = Path(rm.__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted((src / "relaymatch").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(src).as_posix().encode())
                digest.update(path.read_bytes())
        assert code["src_sha256"] == digest.hexdigest()
        # the block lies outside config, so the config hash ignores it
        assert manifest["config_sha256"] == config.config_hash()
        assert "code" not in manifest["config"]

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        run_ensemble(config, out_dir=tmp_path / "a")
        run_ensemble(config, out_dir=tmp_path / "b")
        for name in ("runs.csv", "cdf_pma.csv", "mean_trace_pma.csv",
                     "manifest.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_library_writes_nothing_without_out_dir(self, tmp_path, monkeypatch):
        # the environment names no output directory: without out_dir a run
        # stays in memory
        monkeypatch.setenv("RELAYMATCH_OUT", str(tmp_path))
        run_ensemble(small_config(replications=1))
        assert list(tmp_path.iterdir()) == []
        run_sweep(small_config(sweep_num_sources=[2], replications=1))
        assert list(tmp_path.iterdir()) == []

    def test_aggregate_csv_cells_are_plain_numbers(self, tmp_path):
        run_ensemble(small_config(), out_dir=tmp_path)
        paths = sorted(tmp_path.glob("cdf_*.csv")) + sorted(
            tmp_path.glob("mean_trace_*.csv"))
        assert len(paths) == 4
        for path in paths:
            for line in path.read_text().splitlines()[1:]:
                cells = line.split(",")
                # the comment line carries a label, then the number
                for cell in cells[1:] if line.startswith("#") else cells:
                    float(cell)

    def test_manifest_seeds_come_from_records(self, tmp_path, monkeypatch):
        # the manifest lists the topology seeds the records ran on, without
        # deriving them from the config a second time
        result = run_ensemble(small_config())
        monkeypatch.setattr(experiments, "_replication_seeds", None)
        write_result(result, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["topology_seeds"] == [
            r.topology_seed for r in result.records if r.solver == "pma"]

    def test_runs_csv_only_when_selected(self, tmp_path):
        run_ensemble(small_config(metrics=("cdf",)), out_dir=tmp_path)
        assert not (tmp_path / "runs.csv").exists()
        assert (tmp_path / "cdf_pma.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_write_result_idempotent(self, tmp_path):
        result = run_ensemble(small_config())
        write_result(result, tmp_path)
        first = (tmp_path / "runs.csv").read_bytes()
        write_result(result, tmp_path)
        assert (tmp_path / "runs.csv").read_bytes() == first


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        config = small_config(sweep_num_sources=[2, 3],
                              solvers=[rm.SolverConfig(kind="pma")],
                              replications=2, metrics=("runs",),
                              store_traces=False)
        results = run_sweep(config, out_dir=tmp_path)
        assert [n for n, _ in results] == [2, 3]
        assert (tmp_path / "satisfaction_vs_n.csv").exists()
        assert (tmp_path / "n2" / "runs.csv").exists()
        assert (tmp_path / "n3" / "runs.csv").exists()
        rows = rm.satisfaction_vs_n(results)
        assert [r["num_sources"] for r in rows] == [2, 3]
        assert all(0.0 <= r["proportion"] <= 1.0 for r in rows)

    def test_sweep_writes_only_the_sweep_layout(self, tmp_path):
        # each size writes under n<N>/ only, never at the top of the directory
        run_sweep(small_config(sweep_num_sources=[2, 3], replications=2),
                  out_dir=tmp_path)
        per_size = ["runs.csv", "manifest.json", "cdf_pma.csv",
                    "cdf_substitutable.csv", "mean_trace_pma.csv",
                    "mean_trace_substitutable.csv"]
        expected = {"manifest.json", "satisfaction_vs_n.csv"} | {
            f"n{n}/{name}" for n in (2, 3) for name in per_size}
        written = {p.relative_to(tmp_path).as_posix()
                   for p in tmp_path.rglob("*") if p.is_file()}
        assert written == expected
        assert len(written) == 14

    def test_manifest_seeds_are_the_seeds_run(self, tmp_path):
        # each size runs from its own master seed, so the top-level manifest
        # records those and leaves topology seeds to the per-size manifests
        run_sweep(small_config(sweep_num_sources=[2, 3], replications=2),
                  out_dir=tmp_path)
        used = {int(line.split(",")[2])
                for path in tmp_path.rglob("runs.csv")
                for line in path.read_text().splitlines()[1:]}
        manifests = {p.relative_to(tmp_path).as_posix(): json.loads(p.read_text())
                     for p in tmp_path.rglob("manifest.json")}
        listed = [s for doc in manifests.values()
                  for s in doc.get("topology_seeds", [])]
        assert len(listed) == 4 and set(listed) <= used
        top = manifests["manifest.json"]
        for n in (2, 3):
            assert (top["master_seeds"][str(n)]
                    == manifests[f"n{n}/manifest.json"]["config"]["master_seed"])

    def test_ensemble_refuses_a_sweep_before_running(self, tmp_path, monkeypatch):
        # it would run only topology.num_sources and record the sweep as run
        ran = []
        monkeypatch.setattr(experiments, "_run_replication",
                            lambda *args: ran.append(args))
        config = small_config(sweep_num_sources=[5, 6])
        with pytest.raises(ConfigurationError, match="run_sweep"):
            run_ensemble(config, out_dir=tmp_path / "r")
        assert ran == [] and not (tmp_path / "r").exists()

    def test_repeated_size_rejected(self):
        # a repeat would run twice, rewrite n3/ and duplicate its CSV rows
        with pytest.raises(ConfigurationError, match=r"repeats sizes \[3\]"):
            small_config(sweep_num_sources=[3, 2, 3])

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(small_config(sweep_num_sources=[]))

    def test_sweep_seeds_differ_per_size(self, tmp_path):
        config = small_config(sweep_num_sources=[2, 3],
                              solvers=[rm.SolverConfig(kind="pma")],
                              replications=2, metrics=("runs",),
                              store_traces=False)
        results = run_sweep(config)
        seeds = {n: {r.topology_seed for r in res.records}
                 for n, res in results}
        assert seeds[2] != seeds[3]


class TestWorkerPool:
    def test_parallel_matches_serial(self):
        serial = run_ensemble(small_config(workers=1))
        parallel = run_ensemble(small_config(workers=2))
        np.testing.assert_array_equal(serial.final_lambdas("pma"),
                                      parallel.final_lambdas("pma"))

    @pytest.mark.parametrize("replications,started", [(1, []), (3, [3]), (6, [4])])
    def test_pool_sized_to_the_work(self, monkeypatch, replications, started):
        # an idle worker is still forked; a spy pool records the size asked for
        pools = []

        class SpyPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
        pooled = run_ensemble(small_config(workers=4, replications=replications))
        assert pools == started
        serial = run_ensemble(small_config(replications=replications))
        np.testing.assert_array_equal(pooled.final_lambdas("pma"),
                                      serial.final_lambdas("pma"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_refused_input_stays_a_configuration_error(self, tmp_path, workers):
        # the capacity table refuses the power inside the replication, in
        # this process or in a pool worker; it used to become a RuntimeError
        config = small_config(workers=workers, replications=2,
                              topology=rm.TopologyParams(num_sources=2, num_relays=1,
                                                         sv_tx_power_dbm=1e300))
        with pytest.raises(ConfigurationError,
                           match=r"^replication 0 \(topology seed \d+\) failed: "
                                 r"source 0, radio 0: .*sources\[0\]\.tx_power_dbm"):
            run_ensemble(config, out_dir=tmp_path / "r")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("sweep", [None, [2, 3]])
    def test_output_bytes_identical_for_any_worker_count(self, tmp_path, sweep):
        run = run_sweep if sweep else run_ensemble
        files = {}
        for workers in (1, 2):
            out = tmp_path / str(workers)
            run(small_config(workers=workers, replications=2,
                             sweep_num_sources=sweep), out_dir=out)
            files[workers] = {str(p.relative_to(out)): p.read_bytes()
                              for p in out.rglob("*") if p.is_file()}
        assert len(files[1]) >= 6
        assert files[1] == files[2]
