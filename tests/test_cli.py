"""End-to-end command-line pipeline: simulate -> fit -> summarize."""

import ast
import concurrent.futures
import itertools
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msfactor.cli
from msfactor.cli import main
from msfactor.diagnostics import summarize
from msfactor.model import NetworkDataset
from msfactor.sampler import SampleLog
from msfactor.whitening import NotPositiveDefiniteError


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small simulate -> fit -> summarize run shared by the checks."""
    root = tmp_path_factory.mktemp("pipeline")
    sim_dir = root / "sim"
    fit_dir = root / "fit"
    sum_dir = root / "sum"

    sim_cfg = _write(root / "sim.json", {
        "n": 12, "k": 2, "subjects": 3, "seed": 101,
    })
    assert main(["simulate", "--config", sim_cfg, "--out", str(sim_dir)]) == 0

    fit_cfg = _write(root / "fit.json", {
        "data": str(sim_dir / "dataset.json"),
        "k": 2, "seed": 11, "iterations": 60, "warmup": 30,
        "tau": 0.3, "step_size": 0.05, "leapfrog_steps": 5,
    })
    assert main(["fit", "--config", fit_cfg, "--out", str(fit_dir)]) == 0

    sum_cfg = _write(root / "sum.json", {"fit_dir": str(fit_dir), "burn_in": 0.5})
    assert main([
        "summarize", "--config", sum_cfg, "--out", str(sum_dir),
        "--truth", str(sim_dir / "truth.json"),
    ]) == 0
    return root, sim_dir, fit_dir, sum_dir


class TestPipeline:
    def test_simulate_outputs(self, pipeline):
        _, sim_dir, _, _ = pipeline
        dataset = json.loads((sim_dir / "dataset.json").read_text())
        assert dataset["n"] == 12
        assert np.asarray(dataset["subjects"]).shape == (3, 12, 12)
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert len(truth["frame"]) == 12
        assert len(truth["partition"]["levels"]) == 2
        assert (sim_dir / "effective_config.json").exists()

    def test_simulate_reads_the_design_constants(self, tmp_path, monkeypatch):
        # truth.json records the design each run used
        monkeypatch.setattr(msfactor.cli, "LOADINGS", (2.0, 3.0))
        monkeypatch.setattr(msfactor.cli, "OFFSET", -1.5)
        monkeypatch.setattr(msfactor.cli, "LEVEL_VALUES", (0.5, -2.0))
        cfg = _write(tmp_path / "sim.json", {"n": 10, "k": 2, "subjects": 3, "seed": 7})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
        truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
        assert truth["a"] == [0.5, 0.5] and truth["b"] == [-2.0, -2.0]
        assert truth["offsets"] == [-1.5, -1.5, -1.5]
        loadings = np.exp(truth["log_loadings"])
        assert loadings.shape == (3, 2) and np.all((loadings >= 2.0) & (loadings <= 3.0))

    def test_fit_outputs(self, pipeline):
        _, _, fit_dir, _ = pipeline
        assert (fit_dir / "chain_00" / "trace.csv").exists()
        assert (fit_dir / "chain_00" / "w_trace.csv").exists()
        meta = json.loads((fit_dir / "run_meta.json").read_text())
        assert meta["chains"]["chain_00"]["n_draws"] == 30
        counts = meta["chains"]["chain_00"]
        assert counts["grad_evals"] > 0 and counts["grads_reused"] >= 0
        assert 0.0 <= counts["saturated_logit_share"] <= 1.0
        assert 0 <= counts["w_flips"] <= 29 * 12 * 2
        effective = json.loads((fit_dir / "effective_config.json").read_text())
        assert effective["seed"] == 11 and effective["thin"] == 1

    def test_summary_metrics(self, pipeline):
        _, _, _, sum_dir = pipeline
        payload = json.loads((sum_dir / "summary.json").read_text())
        w_prob = np.asarray(payload["w_prob"])
        assert w_prob.shape == (12, 2)
        assert np.all((w_prob >= 0.0) & (w_prob <= 1.0))
        q_mean = np.asarray(payload["q_mean"])
        np.testing.assert_allclose(q_mean.T @ q_mean, np.eye(2), atol=1e-8)
        assert 0.0 <= payload["recovery"]["subspace_error"] <= np.sqrt(2.0) + 1e-12
        assert len(payload["recovery"]["level_recovery"]) == 2
        for value in payload["recovery"]["level_recovery"]:
            assert 0.0 <= value <= 1.0
        assert (sum_dir / "factors" / "factor_1.csv").exists()
        rows = (sum_dir / "factors" / "factor_2.csv").read_text().splitlines()
        assert len(rows) == 12 and len(rows[0].split(",")) == 12

    def test_summary_matches_direct_computation(self, pipeline):
        _, _, fit_dir, sum_dir = pipeline
        log = SampleLog.from_csv(
            fit_dir / "chain_00" / "trace.csv", fit_dir / "chain_00" / "w_trace.csv"
        )
        direct = summarize({"chain_00": log}, burn_in=0.5)
        payload = json.loads((sum_dir / "summary.json").read_text())
        np.testing.assert_array_equal(np.asarray(payload["w_prob"]), direct.w_prob)
        np.testing.assert_array_equal(np.asarray(payload["q_mean"]), direct.q_mean)
        np.testing.assert_array_equal(np.asarray(payload["d_mean"]), direct.d_mean)
        assert payload["ess"] == direct.ess


class TestOutcomes:
    def test_counts_match_the_trace(self, tmp_path, monkeypatch):
        """With warmup 0 and thin 1 every move is a trace row."""
        # one auxiliary attempt per exchange move, so some moves are skipped
        monkeypatch.setattr(msfactor.sampler, "AUX_ATTEMPTS", 1)
        sim = _write(tmp_path / "sim.json", {"n": 5, "k": 3, "subjects": 2, "seed": 4})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        fit = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "sim" / "dataset.json"), "k": 3, "seed": 6,
            "iterations": 60, "warmup": 0, "thin": 1, "tau": 0.3, "leapfrog_steps": 3,
            "window": 0.5,
        })
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "fit")]) == 0
        meta = json.loads((tmp_path / "fit" / "run_meta.json").read_text())["chains"]["chain_00"]
        hmc, exchange = meta["outcomes"]["hmc"], meta["outcomes"]["exchange"]
        assert list(hmc) == ["accepted", "mh", "rank", "divergence"]
        assert list(exchange) == [
            "accepted", "mh", "rank", "reverse_rank", "aux_exhausted", "divergence",
        ]
        assert sum(hmc.values()) == sum(exchange.values()) == 60
        log = SampleLog.from_csv(tmp_path / "fit" / "chain_00" / "trace.csv",
                                 tmp_path / "fit" / "chain_00" / "w_trace.csv")
        assert log.n_draws == 60
        assert hmc["accepted"] == log.hmc_accept.sum() == 60 * meta["hmc_accept_rate"]
        assert exchange["accepted"] == log.exch_accept.sum() == 60 * meta["exch_accept_rate"]
        assert exchange["aux_exhausted"] == log.exch_skipped.sum() == meta["exch_skip_count"] > 0


class TestDeterminism:
    def test_simulate_repeats_bytewise(self, tmp_path):
        cfg = _write(tmp_path / "sim.json", {"n": 10, "k": 2, "subjects": 2, "seed": 7})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "two")]) == 0
        assert (tmp_path / "one" / "dataset.json").read_text() == (
            tmp_path / "two" / "dataset.json"
        ).read_text()

    def test_fit_and_summary_repeat(self, tmp_path):
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 3})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        fit = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "sim" / "dataset.json"),
            "k": 1, "seed": 5, "iterations": 40, "warmup": 20,
            "tau": 0.3, "leapfrog_steps": 3,
        })
        for name in ("f1", "f2"):
            assert main(["fit", "--config", fit, "--out", str(tmp_path / name)]) == 0
            cfg = _write(tmp_path / f"{name}.json", {"fit_dir": str(tmp_path / name)})
            assert main([
                "summarize", "--config", cfg, "--out", str(tmp_path / f"{name}_sum"),
            ]) == 0
        assert (tmp_path / "f1" / "chain_00" / "trace.csv").read_text() == (
            tmp_path / "f2" / "chain_00" / "trace.csv"
        ).read_text()
        assert (tmp_path / "f1_sum" / "summary.json").read_text() == (
            tmp_path / "f2_sum" / "summary.json"
        ).read_text()

    def test_seed_override_changes_draws(self, tmp_path):
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 3})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        for seed in (5, 6):
            fit = _write(tmp_path / "fit.json", {
                "data": str(tmp_path / "sim" / "dataset.json"),
                "k": 1, "seed": seed, "iterations": 40, "warmup": 20,
                "tau": 0.3, "leapfrog_steps": 3,
            })
            assert main(["fit", "--config", fit, "--out", str(tmp_path / f"s{seed}")]) == 0
        assert (tmp_path / "s5" / "chain_00" / "trace.csv").read_text() != (
            tmp_path / "s6" / "chain_00" / "trace.csv"
        ).read_text()


class TestMultiChain:
    @staticmethod
    def _fit_args(tmp_path, chains):
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 13})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        fit = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "sim" / "dataset.json"),
            "k": 1, "seed": 17, "iterations": 30, "warmup": 10,
            "tau": 0.3, "leapfrog_steps": 2, "chains": chains,
        })
        return ["fit", "--config", fit, "--out", str(tmp_path / "fit")]

    def test_two_chains_fit_and_pool(self, tmp_path):
        assert main(self._fit_args(tmp_path, chains=2)) == 0
        assert (tmp_path / "fit" / "chain_00" / "trace.csv").exists()
        assert (tmp_path / "fit" / "chain_01" / "trace.csv").exists()
        meta = json.loads((tmp_path / "fit" / "run_meta.json").read_text())
        assert set(meta["chains"]) == {"chain_00", "chain_01"}

        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(tmp_path / "fit")})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 0
        payload = json.loads((tmp_path / "sum" / "summary.json").read_text())
        assert payload["meta"]["chains"] == ["chain_00", "chain_01"]
        assert set(payload["ess"]) == {"chain_00", "chain_01"}

    def test_summarize_reads_the_chains_run_meta_lists(self, tmp_path):
        # a 1-chain fit into the directory of a 2-chain fit leaves chain_01
        # behind; the summary is the 1-chain fit's alone
        assert main(self._fit_args(tmp_path, chains=2)) == 0
        assert main(self._fit_args(tmp_path, chains=1)) == 0
        assert (tmp_path / "fit" / "chain_01" / "trace.csv").exists()
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(tmp_path / "fit")})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 0
        payload = json.loads((tmp_path / "sum" / "summary.json").read_text())
        assert payload["meta"]["chains"] == ["chain_00"]
        assert list(payload["ess"]) == ["chain_00"]
        assert payload["meta"]["n_retained"] == 10

    def test_run_meta_listing_no_chains_exits_2(self, pipeline, tmp_path, capsys):
        _, _, fit_dir, _ = pipeline
        copy = tmp_path / "fit"
        shutil.copytree(fit_dir, copy)
        meta = json.loads((copy / "run_meta.json").read_text())
        _write(copy / "run_meta.json", {**meta, "chains": {}})
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(copy)})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 2
        assert "no chains listed in" in capsys.readouterr().err
        assert not (tmp_path / "sum").exists()

    @pytest.mark.parametrize("with_truth", [False, True], ids=["no-truth", "truth-of-3-levels"])
    def test_run_meta_k_other_than_the_trace_s_exits_2(self, pipeline, tmp_path, capsys,
                                                       with_truth):
        # the pipeline's fit has n = 12 and k = 2; its run_meta.json now says k = 3
        _, _, fit_dir, _ = pipeline
        copy = tmp_path / "fit"
        shutil.copytree(fit_dir, copy)
        meta = json.loads((copy / "run_meta.json").read_text())
        meta["chains"]["chain_00"]["k"] = 3
        _write(copy / "run_meta.json", meta)
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(copy)})
        args = ["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]
        if with_truth:
            sim = _write(tmp_path / "sim.json", {"n": 12, "k": 3, "subjects": 1, "seed": 5})
            assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
            args += ["--truth", str(tmp_path / "sim" / "truth.json")]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "chain_00" in err and "(12, 2)" in err and "(12, 3)" in err
        assert not (tmp_path / "sum").exists()


class _SerialPool:
    """In-process stand-in for the chain pool, built from max_workers only."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


class TestDatasetParsing:
    @pytest.mark.parametrize("chains", [1, 2])
    def test_fit_parses_the_dataset_once(self, tmp_path, monkeypatch, chains):
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 13})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        fit = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "sim" / "dataset.json"),
            "k": 1, "seed": 17, "iterations": 4, "warmup": 2,
            "tau": 0.3, "leapfrog_steps": 2, "chains": chains,
        })
        parses = []
        from_json = NetworkDataset.from_json.__func__

        def counting(cls, text):
            parses.append(text)
            return from_json(cls, text)

        monkeypatch.setattr(NetworkDataset, "from_json", classmethod(counting))
        monkeypatch.setattr(msfactor.cli, "ProcessPoolExecutor", _SerialPool)
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "fit")]) == 0
        assert len(parses) == 1
        for c in range(chains):
            assert (tmp_path / "fit" / f"chain_{c:02d}" / "trace.csv").exists()


class TestChainPoolContract:
    def test_every_chain_goes_through_the_module_pool(self, tmp_path, monkeypatch):
        """Chains run through the pool class that msfactor.cli.ProcessPoolExecutor names.

        The benchmark's traced run (perfbench/tracing.py::run_pipeline)
        sets cli.ProcessPoolExecutor to a serial pool, so that every
        chain runs in the benchmark's own process, under its tracer.
        The attribute is an ordinary module global, None until set, and
        cmd_fit reads it when it starts the pool, so a class set there
        is the one used.
        """
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 13})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        fit = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "sim" / "dataset.json"),
            "k": 1, "seed": 17, "iterations": 4, "warmup": 2,
            "tau": 0.3, "leapfrog_steps": 2, "chains": 2,
        })
        pools, ran = [], []

        class RecordingPool(_SerialPool):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                pools.append(max_workers)

            def map(self, fn, jobs):
                def recorded(job):
                    ran.append((job[0], os.getpid()))
                    return fn(job)
                return map(recorded, jobs)

        monkeypatch.setattr(msfactor.cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(msfactor.cli.os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "fit")]) == 0
        assert pools == [2]
        assert ran == [(0, os.getpid()), (1, os.getpid())]
        meta = json.loads((tmp_path / "fit" / "run_meta.json").read_text())
        assert set(meta["chains"]) == {"chain_00", "chain_01"}


    def test_pool_is_bounded_by_the_core_count(self, tmp_path, monkeypatch):
        # fork starts every worker at the first submit, so a pool as wide
        # as the chain count would start one sampler per chain at once
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 13})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        fit = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "sim" / "dataset.json"),
            "k": 1, "seed": 17, "iterations": 4, "warmup": 2,
            "tau": 0.3, "leapfrog_steps": 2, "chains": 2,
        })
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "wide")]) == 0

        pools = []

        def recording_pool(max_workers):
            pools.append(max_workers)
            return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)

        monkeypatch.setattr(msfactor.cli, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(msfactor.cli.os, "sched_getaffinity", lambda pid: {0})
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "narrow")]) == 0
        assert pools == [1]
        for chain in ("chain_00", "chain_01"):
            for name in ("trace.csv", "w_trace.csv"):
                narrow = (tmp_path / "narrow" / chain / name).read_bytes()
                assert narrow == (tmp_path / "wide" / chain / name).read_bytes()


    def test_pool_is_bounded_by_the_affinity_mask(self, monkeypatch):
        # a narrower mask than the machine's cores, as taskset or a cpuset
        # leaves it, sizes the pool; without the call, the core count does
        monkeypatch.setattr(msfactor.cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(msfactor.cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert msfactor.cli._usable_cores() == 1
        monkeypatch.delattr(msfactor.cli.os, "sched_getaffinity")
        assert msfactor.cli._usable_cores() == 8
        monkeypatch.setattr(msfactor.cli.os, "cpu_count", lambda: None)
        assert msfactor.cli._usable_cores() == 1


class TestFailureModes:
    def test_missing_config_field(self, tmp_path, capsys):
        cfg = _write(tmp_path / "fit.json", {"data": "x.json", "k": 1, "seed": 0})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "iterations" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", [1, 2])
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"config {cfg} must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_data_file(self, tmp_path, capsys):
        cfg = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "absent.json"), "k": 1, "seed": 0, "iterations": 10,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_invalid_dataset(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({
            "n": 2, "subjects": [[[0, 1], [0, 0]]],
        }))
        cfg = _write(tmp_path / "fit.json", {
            "data": str(data), "k": 1, "seed": 0, "iterations": 10,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "asymmetric" in capsys.readouterr().err

    def test_bad_dimensions(self, tmp_path, capsys):
        cfg = _write(tmp_path / "sim.json", {"n": 4, "k": 5, "subjects": 1, "seed": 0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_impossible_geometry_is_runtime_failure(self, tmp_path, capsys):
        # two nodes cannot carry two +-1 levels; the search must exhaust
        cfg = _write(tmp_path / "sim.json", {"n": 2, "k": 2, "subjects": 1, "seed": 0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "full-rank" in capsys.readouterr().err

    def test_rank_failure_reaching_main_is_runtime_failure(self, tmp_path, capsys, monkeypatch):
        # a NotPositiveDefiniteError is a ValueError, yet it is a rank
        # failure of the run, not a config problem
        def failing_simulate(*args, **kwargs):
            raise NotPositiveDefiniteError("pivot 1 not positive definite")

        monkeypatch.setattr(msfactor.cli, "simulate_dataset", failing_simulate)
        cfg = _write(tmp_path / "sim.json", {"n": 6, "k": 2, "subjects": 1, "seed": 0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "pivot 1 not positive definite" in capsys.readouterr().err

    def test_summarize_without_chains(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(empty)})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path)]) == 2
        # the chains are those run_meta.json lists, and there is none
        assert "run_meta.json" in capsys.readouterr().err

    def test_warmup_exceeding_iterations(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"n": 2, "subjects": [[[0, 0], [0, 0]]]}))
        cfg = _write(tmp_path / "fit.json", {
            "data": str(data), "k": 1, "seed": 0, "iterations": 10, "warmup": 20,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "warmup" in capsys.readouterr().err

    # the last is a well-formed dataset of one node, which no fit can use
    @pytest.mark.parametrize("payload", [{"n": 4}, [1, 2], {"n": 1, "subjects": [[[0]]]}])
    def test_malformed_dataset(self, tmp_path, capsys, payload):
        data = tmp_path / "data.json"
        data.write_text(json.dumps(payload))
        cfg = _write(tmp_path / "fit.json", {
            "data": str(data), "k": 1, "seed": 0, "iterations": 10,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        assert f"data file {data} " in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_non_integer_n_in_dataset(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"n": 16.0, "subjects": np.zeros((2, 16, 16), int).tolist()}))
        cfg = _write(tmp_path / "fit.json", {
            "data": str(data), "k": 2, "seed": 0, "iterations": 4,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert str(data) in err and "n must be an integer" in err
        assert not (tmp_path / "fit" / "chain_00").exists()

    def _summarize_with_edited_truth(self, pipeline, tmp_path, monkeypatch, edit):
        """Exit code of summarize given the pipeline's truth after edit,
        and the trace pairs it read."""
        _, sim_dir, fit_dir, _ = pipeline
        truth = json.loads((sim_dir / "truth.json").read_text())
        edit(truth)
        bad = _write(tmp_path / "truth.json", truth)
        loads = []
        monkeypatch.setattr(msfactor.cli.SampleLog, "from_csv",
                            classmethod(lambda cls, *paths: loads.append(paths)))
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(fit_dir)})
        args = ["summarize", "--config", cfg, "--out", str(tmp_path / "sum"), "--truth", bad]
        return main(args), loads

    def test_truth_file_is_checked_before_any_trace(self, pipeline, tmp_path, capsys,
                                                    monkeypatch):
        code, loads = self._summarize_with_edited_truth(
            pipeline, tmp_path, monkeypatch, lambda truth: truth.pop("partition")
        )
        assert code == 2
        assert "truth file" in capsys.readouterr().err
        assert loads == []

    def test_non_finite_truth_frame_exits_2_before_any_trace(self, pipeline, tmp_path, capsys,
                                                            monkeypatch):
        def nan_frame(truth):
            truth["frame"][3][1] = math.nan     # json.dumps writes a bare NaN

        code, loads = self._summarize_with_edited_truth(pipeline, tmp_path, monkeypatch, nan_frame)
        assert code == 2
        err = capsys.readouterr().err
        assert f"truth file {tmp_path / 'truth.json'}" in err and "finite" in err
        assert loads == []
        assert not (tmp_path / "sum").exists()

    def test_truth_frame_of_other_shape_exits_2_before_any_trace(self, pipeline, tmp_path,
                                                                 capsys, monkeypatch):
        def drop_a_row(truth):
            truth["frame"].pop()

        code, loads = self._summarize_with_edited_truth(pipeline, tmp_path, monkeypatch, drop_a_row)
        assert code == 2
        err = capsys.readouterr().err
        assert f"truth file {tmp_path / 'truth.json'}" in err
        assert "frame must be 12 x 2, got shape (11, 2)" in err
        assert loads == []
        assert not (tmp_path / "sum").exists()

    def test_fit_dir_that_is_not_a_directory_exits_2(self, tmp_path, capsys):
        absent = tmp_path / "absent"
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(absent)})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 2
        assert f"config field fit_dir does not name a directory: {absent}" in capsys.readouterr().err
        assert not (tmp_path / "sum").exists()

    @pytest.mark.parametrize("text", ["{not json", '{"chains": [1]}', '{"chain": {}}'],
                             ids=["not-json", "chains-not-an-object", "no-chains-key"])
    def test_unreadable_run_meta_exits_2(self, pipeline, tmp_path, capsys, text):
        _, _, fit_dir, _ = pipeline
        copy = tmp_path / "fit"
        shutil.copytree(fit_dir, copy)
        (copy / "run_meta.json").write_text(text)
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(copy)})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 2
        assert f"cannot read the fit's sizes from {copy / 'run_meta.json'}" in capsys.readouterr().err
        assert not (tmp_path / "sum").exists()

    def test_missing_truth_file(self, pipeline, tmp_path, capsys):
        _, _, fit_dir, _ = pipeline
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(fit_dir)})
        absent = str(tmp_path / "absent.json")
        args = ["summarize", "--config", cfg, "--out", str(tmp_path / "sum"), "--truth", absent]
        assert main(args) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_missing_w_trace(self, pipeline, tmp_path, capsys):
        _, _, fit_dir, _ = pipeline
        copy = tmp_path / "fit"
        (copy / "chain_00").mkdir(parents=True)
        for name in ("run_meta.json", "chain_00/trace.csv"):
            (copy / name).write_bytes((fit_dir / name).read_bytes())
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(copy)})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 2
        assert "w_trace.csv" in capsys.readouterr().err

    def test_pool_start_failure(self, pipeline, tmp_path, capsys, monkeypatch):
        _, sim_dir, _, _ = pipeline

        def no_pool(max_workers):
            raise OSError("cannot start workers")

        monkeypatch.setattr(msfactor.cli, "ProcessPoolExecutor", no_pool)
        cfg = _write(tmp_path / "fit.json", {
            "data": str(sim_dir / "dataset.json"), "k": 2, "seed": 0,
            "iterations": 4, "chains": 2,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        assert "error: cannot start workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("simulate", ["--chains", "2"]),
        ("fit", ["--truth", "x"]),
        ("summarize", ["--seed", "3"]),
        # flags retired in favour of the config fields seed and chains
        ("fit", ["--seed", "3"]),
        ("fit", ["--chains", "2"]),
        ("simulate", ["--seed", "3"]),
    ])
    def test_subcommand_rejects_flags_it_does_not_read(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(tmp_path / "cfg.json"), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field", [
        ("simulate", "subject"),
        ("fit", "warmpu"),
        # settings retired to sampler constants
        ("fit", "target_accept"),
        ("fit", "max_rejection_attempts"),
        # the simulated design, retired to cli constants
        ("simulate", "loading_min"),
        ("simulate", "loading_max"),
        ("simulate", "offset"),
        ("simulate", "a"),
        ("simulate", "b"),
        ("summarize", "burnin"),
    ])
    def test_unknown_config_field_exits_2(self, pipeline, tmp_path, capsys, command, field):
        _, sim_dir, fit_dir, _ = pipeline
        cfg = {
            "simulate": {"n": 6, "k": 2, "subjects": 1, "seed": 0},
            "fit": {"data": str(sim_dir / "dataset.json"), "k": 2, "seed": 1, "iterations": 4},
            "summarize": {"fit_dir": str(fit_dir)},
        }[command]
        path = _write(tmp_path / "cfg.json", {**cfg, field: 0.9})
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown config field: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, field, value", [
        ("simulate", "seed", -1),
        ("simulate", "subjects", 0),
        ("fit", "chains", 0),
        ("fit", "iterations", 0),
        ("fit", "k", 0),
        ("fit", "tau", math.inf),
        ("fit", "anneal_from", math.inf),
        ("fit", "window", math.inf),
        ("fit", "step_size", math.inf),
        ("fit", "step_size", -math.inf),
        ("fit", "seed", -1),
        # an int beyond the largest float, which json reads exactly
        pytest.param("fit", "tau", 10**400, id="fit-tau-int_beyond_float"),
    ])
    def test_unusable_value_exits_2_naming_the_field(
        self, pipeline, tmp_path, capsys, command, field, value
    ):
        _, sim_dir, _, _ = pipeline
        cfg = {
            "simulate": {"n": 6, "k": 2, "subjects": 1, "seed": 0},
            "fit": {"data": str(sim_dir / "dataset.json"), "k": 2, "seed": 1, "iterations": 4},
        }[command]
        # json writes nan and inf as NaN and Infinity, which json reads back
        path = _write(tmp_path / "cfg.json", {**cfg, field: value})
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert f"config field {field} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "fit", "summarize"])
    def test_out_field_follows_the_field_rules(self, pipeline, tmp_path, monkeypatch, capsys,
                                               command):
        _, sim_dir, fit_dir, _ = pipeline
        cfg = {
            "simulate": {"n": 6, "k": 2, "subjects": 1, "seed": 0},
            "fit": {"data": str(sim_dir / "dataset.json"), "k": 2, "seed": 1, "iterations": 4},
            "summarize": {"fit_dir": str(fit_dir)},
        }[command]
        monkeypatch.chdir(tmp_path)
        bad = _write(tmp_path / "bad.json", {**cfg, "out": 5})
        assert main([command, "--config", bad]) == 2
        assert "config field out must be str" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]
        # null takes the default, the working directory
        unset = _write(tmp_path / "unset.json", {**cfg, "out": None})
        assert main([command, "--config", unset]) == 0
        effective = json.loads((tmp_path / "effective_config.json").read_text())
        assert effective["out"] == "."

    def test_seed_beyond_float_is_accepted(self, tmp_path):
        # a seed is never a float, and numpy seeds from an int of any size
        path = _write(tmp_path / "cfg.json", {"n": 6, "k": 2, "subjects": 1, "seed": 10**400})
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0

    def test_effective_configs_load_as_configs(self, pipeline, tmp_path):
        # each command, given only its required fields, records every field
        # it reads with the value it used, and "out"; run again from that
        # record, it writes the same bytes
        _, sim_dir, fit_dir, _ = pipeline
        fit_data = str(sim_dir / "dataset.json")
        for command, given, defaults, output in (
            ("simulate", {"n": 12, "k": 2, "subjects": 3, "seed": 101}, {}, "dataset.json"),
            ("fit", {"data": fit_data, "k": 2, "seed": 11, "iterations": 4}, {
                "chains": 1, "warmup": 2, "thin": 1, "tau": 0.2, "anneal_from": None,
                "step_size": 0.05, "leapfrog_steps": 10, "window": 0.25,
            }, "chain_00/trace.csv"),
            ("summarize", {"fit_dir": str(fit_dir)}, {"burn_in": 0.5}, "summary.json"),
        ):
            first, again = tmp_path / command, tmp_path / f"{command}_again"
            cfg = _write(tmp_path / f"{command}.json", given)
            assert main([command, "--config", cfg, "--out", str(first)]) == 0
            effective = first / "effective_config.json"
            assert json.loads(effective.read_text()) == {**given, **defaults, "out": str(first)}
            assert main([command, "--config", str(effective), "--out", str(again)]) == 0
            assert (again / output).read_bytes() == (first / output).read_bytes()

    def test_unorthonormalizable_mean_frame_gives_null_subspace_error(
        self, pipeline, tmp_path, monkeypatch
    ):
        _, sim_dir, fit_dir, _ = pipeline
        _whiten_draws_only(monkeypatch)
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(fit_dir), "burn_in": 0.5})
        assert main([
            "summarize", "--config", cfg, "--out", str(tmp_path / "sum"),
            "--truth", str(sim_dir / "truth.json"),
        ]) == 0
        payload = json.loads((tmp_path / "sum" / "summary.json").read_text())
        assert payload["meta"]["q_mean_orthonormalized"] is False
        assert payload["recovery"]["subspace_error"] is None
        assert len(payload["recovery"]["level_recovery"]) == 2

    @pytest.mark.parametrize("n, k, mean_frame", [
        (12, 3, "orthonormalized"),
        (12, 3, "unorthonormalizable"),
        (10, 2, "orthonormalized"),
    ])
    def test_truth_of_other_sizes_exits_2_before_any_trace(
        self, pipeline, tmp_path, capsys, monkeypatch, n, k, mean_frame
    ):
        # the pipeline's fit has n = 12 and k = 2
        _, _, fit_dir, _ = pipeline
        sim_cfg = _write(tmp_path / "sim.json", {"n": n, "k": k, "subjects": 1, "seed": 5})
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
        truth = str(tmp_path / "sim" / "truth.json")
        if mean_frame == "unorthonormalizable":
            _whiten_draws_only(monkeypatch)
        loads = []
        from_csv = msfactor.cli.SampleLog.from_csv
        monkeypatch.setattr(msfactor.cli.SampleLog, "from_csv",
                            lambda *paths: loads.append(paths) or from_csv(*paths))
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(fit_dir), "burn_in": 0.5})
        args = ["summarize", "--config", cfg, "--out", str(tmp_path / "sum"), "--truth", truth]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"truth file {truth} has n = {n} and depth {k}" in err
        assert "chain_00 was fit with n = 12 and k = 2" in err
        assert loads == []
        assert not (tmp_path / "sum").exists()


def _whiten_draws_only(monkeypatch):
    """Make every mean frame fail to re-orthonormalise in summarize.

    Every draw's matrix is two-valued per column; the mean frame's is not.
    """
    whiten = msfactor.diagnostics.whiten

    def whiten_draws_only(x):
        if any(np.unique(col).size > 2 for col in x.T):
            raise NotPositiveDefiniteError(1)
        return whiten(x)

    monkeypatch.setattr(msfactor.diagnostics, "whiten", whiten_draws_only)


def _edited_fit(fit_dir, root, trace=None, w_trace=None):
    """A copy of a fit whose chain_00 trace files went through the edits.

    Each edit maps the file's rows, as lists of cell strings with the
    header first, to new rows.
    """
    copy = root / "fit"
    shutil.copytree(fit_dir, copy)
    for name, edit in (("trace.csv", trace), ("w_trace.csv", w_trace)):
        if edit is not None:
            path = copy / "chain_00" / name
            rows = [line.split(",") for line in path.read_text().splitlines()]
            path.write_text("".join(",".join(row) + "\n" for row in edit(rows)))
    return copy


def _set_cell(column, value, row=1):
    def edit(rows):
        rows[row][rows[0].index(column)] = value
        return rows
    return edit


class TestTraceValidation:
    """summarize exits 2, naming the file, on a trace pair that does not fit together."""

    def _summarize(self, pipeline, tmp_path, capsys, **edits):
        _, _, fit_dir, _ = pipeline
        edited = _edited_fit(fit_dir, tmp_path, **edits)
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(edited)})
        code = main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")])
        return code, capsys.readouterr().err

    def test_missing_trace_column(self, pipeline, tmp_path, capsys):
        renamed = _set_cell("U", "energy", row=0)
        code, err = self._summarize(pipeline, tmp_path, capsys, trace=renamed)
        assert code == 2
        assert "trace.csv" in err and "column U" in err

    def test_non_numeric_trace_cell(self, pipeline, tmp_path, capsys):
        code, err = self._summarize(pipeline, tmp_path, capsys, trace=_set_cell("U", "energy"))
        assert code == 2
        assert "trace.csv" in err and "energy" in err
        assert not (tmp_path / "sum").exists()

    @pytest.mark.parametrize("column", ["hmc_accept", "exch_accept", "exch_skipped"])
    def test_non_binary_flag(self, pipeline, tmp_path, capsys, column):
        code, err = self._summarize(pipeline, tmp_path, capsys, trace=_set_cell(column, "2"))
        assert code == 2
        assert "trace.csv" in err and column in err

    @pytest.mark.parametrize("name", ["x", "w_x_1"])
    def test_w_trace_column_without_a_node(self, pipeline, tmp_path, capsys, name):
        renamed = _set_cell("w_0_1", name, row=0)
        code, err = self._summarize(pipeline, tmp_path, capsys, w_trace=renamed)
        assert code == 2
        assert "w_trace.csv" in err

    def test_non_binary_w_cell(self, pipeline, tmp_path, capsys):
        code, err = self._summarize(pipeline, tmp_path, capsys, w_trace=_set_cell("w_0_1", "0.5"))
        assert code == 2
        assert "w_trace.csv" in err

    def test_w_trace_row_count_differs(self, pipeline, tmp_path, capsys):
        code, err = self._summarize(pipeline, tmp_path, capsys, w_trace=lambda rows: rows[:-1])
        assert code == 2
        assert "w_trace.csv" in err

    def test_w_trace_iterations_differ(self, pipeline, tmp_path, capsys):
        def shift(rows):
            return rows[:1] + [[str(int(row[0]) + 1000)] + row[1:] for row in rows[1:]]

        code, err = self._summarize(pipeline, tmp_path, capsys, w_trace=shift)
        assert code == 2
        assert "w_trace.csv" in err and "iteration" in err

    def test_non_integer_w_trace_iteration(self, pipeline, tmp_path, capsys):
        code, err = self._summarize(pipeline, tmp_path, capsys,
                                    w_trace=_set_cell("iteration", "31.5"))
        assert code == 2
        assert "w_trace.csv" in err

    def test_non_integer_trace_iteration(self, pipeline, tmp_path, capsys):
        def add_half(rows):
            rows[1][0] += ".5"
            return rows

        code, err = self._summarize(pipeline, tmp_path, capsys, trace=add_half)
        assert code == 2
        assert "w_trace.csv iteration numbers differ" in err

    def test_reordered_trace_columns(self, pipeline, tmp_path, capsys):
        def swap(rows):     # U and a_1 trade places, names and cells alike
            i, j = rows[0].index("U"), rows[0].index("a_1")
            for row in rows:
                row[i], row[j] = row[j], row[i]
            return rows

        code, err = self._summarize(pipeline, tmp_path, capsys, trace=swap)
        assert code == 2
        assert "trace.csv has 'a_1' where its writer puts column U" in err

    @pytest.mark.parametrize("edit", [lambda row: row + ["0"], lambda row: row[:-1]],
                             ids=["wider", "narrower"])
    def test_trace_row_width_differs_from_header(self, pipeline, tmp_path, capsys, edit):
        def rewidth(rows):
            return rows[:1] + [edit(row) for row in rows[1:]]

        code, err = self._summarize(pipeline, tmp_path, capsys, trace=rewidth)
        assert code == 2
        assert "trace.csv" in err and "cells a row" in err

    def test_w_trace_header_longer_than_its_writer_s(self, pipeline, tmp_path, capsys):
        def extra(rows):
            return [rows[0] + ["w_x"]] + [row + ["0"] for row in rows[1:]]

        code, err = self._summarize(pipeline, tmp_path, capsys, w_trace=extra)
        assert code == 2
        assert "w_trace.csv" in err and "'w_x' where its writer puts no column" in err

    def test_unedited_copy_summarizes(self, pipeline, tmp_path, capsys):
        code, _ = self._summarize(pipeline, tmp_path, capsys, trace=lambda rows: rows)
        assert code == 0


class TestWTraceNodes:
    """w_trace.csv holds every node, and summarize refuses one that does not."""

    @pytest.fixture
    def fit_cfg(self, tmp_path):
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 3})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0

        def write(**extra):
            return _write(tmp_path / "fit.json", {
                "data": str(tmp_path / "sim" / "dataset.json"),
                "k": 1, "seed": 5, "iterations": 6, "warmup": 2,
                "tau": 0.3, "leapfrog_steps": 2, **extra,
            })
        return write

    @pytest.mark.parametrize(
        "nodes", [[0, 8], [-1], [2, 2], [0, "1"], [True], [7, 6, 5, 4, 3, 2, 1, 0], None]
    )
    def test_fit_rejects_bad_node_ids(self, tmp_path, capsys, fit_cfg, nodes):
        # no node subset can be chosen: the field is unknown, whatever it holds
        cfg = fit_cfg(w_trace_nodes=nodes)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        assert "w_trace_nodes" in capsys.readouterr().err
        assert not (tmp_path / "fit" / "chain_00").exists()

    @pytest.mark.parametrize("nodes", [[0, 1, 2, 3, 4], [5, 6, 7]])
    def test_summarize_rejects_partial_w_trace(self, tmp_path, capsys, fit_cfg, nodes):
        assert main(["fit", "--config", fit_cfg(), "--out", str(tmp_path / "full")]) == 0

        def keep_nodes(rows):
            keep = [0] + [
                c for c, name in enumerate(rows[0][1:], start=1)
                if int(name.split("_")[1]) in nodes
            ]
            return [[row[c] for c in keep] for row in rows]

        fit_dir = _edited_fit(tmp_path / "full", tmp_path, w_trace=keep_nodes)
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(fit_dir)})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 2
        err = capsys.readouterr().err
        assert "w_trace" in err and "cover" in err
        assert not (tmp_path / "sum" / "summary.json").exists()


def _assert_traces_match_at_one_and_two_threads(tmp_path, n, k, subjects):
    """The same fit run with 1 and with 2 BLAS threads writes the same traces."""
    sim = _write(tmp_path / "sim.json", {"n": n, "k": k, "subjects": subjects, "seed": 9})
    assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
    fit = _write(tmp_path / "fit.json", {
        "data": str(tmp_path / "sim" / "dataset.json"),
        "k": k, "seed": 4, "iterations": 8, "warmup": 4,
        "tau": 0.3, "leapfrog_steps": 3, "step_size": 0.01,
    })
    src = str(Path(msfactor.cli.__file__).parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        }
        out = tmp_path / f"threads_{threads}"
        subprocess.run(
            [sys.executable, "-m", "msfactor.cli", "fit", "--config", fit, "--out", str(out)],
            env=env, check=True, timeout=120, capture_output=True,
        )
        outputs[threads] = out / "chain_00"
    for name in ("trace.csv", "w_trace.csv"):
        assert (outputs["1"] / name).read_bytes() == (outputs["2"] / name).read_bytes()


class TestBlasThreads:
    def test_traces_do_not_depend_on_blas_thread_count(self, tmp_path):
        # n=128, k=20 puts the frame products above OpenBLAS's threshold
        # for splitting a matrix product across threads
        _assert_traces_match_at_one_and_two_threads(tmp_path, 128, 20, 2)

    def test_large_state_traces_do_not_depend_on_blas_thread_count(self, tmp_path):
        # S*k + S + n*k = 10261 coordinates puts the kinetic energy's
        # dot product above OpenBLAS's threshold for splitting it
        _assert_traces_match_at_one_and_two_threads(tmp_path, 512, 20, 1)


def _src_env():
    src = str(Path(msfactor.cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestStartup:
    def test_cli_import_does_not_load_scipy_optimize(self):
        code = "import sys, msfactor.cli; assert 'scipy.optimize' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True, timeout=60)

    def test_cli_import_does_not_load_the_process_pool(self, pipeline):
        # the pool's module loads when a fit first runs chains in parallel,
        # and the attribute stays None, so each such fit imports the pool
        root, sim_dir, _, _ = pipeline
        out = root / "pooled_startup"
        cfg = _write(root / "fit_pooled.json", {
            "data": str(sim_dir / "dataset.json"), "k": 2, "seed": 3,
            "iterations": 4, "warmup": 2, "chains": 2,
        })
        args = ["fit", "--config", cfg, "--out", str(out)]
        code = ("import sys, msfactor.cli; "
                "assert 'concurrent.futures.process' not in sys.modules; "
                "assert msfactor.cli.ProcessPoolExecutor is None; "
                f"assert msfactor.cli.main({args!r}) == 0; "
                "assert 'concurrent.futures.process' in sys.modules; "
                "assert msfactor.cli.ProcessPoolExecutor is None")
        subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True, timeout=120,
                       capture_output=True)
        meta = json.loads((out / "run_meta.json").read_text())
        assert set(meta["chains"]) == {"chain_00", "chain_01"}
        for chain in meta["chains"]:
            assert (out / chain / "trace.csv").exists()

    def test_summarize_with_truth_does_not_load_scipy_optimize(self, pipeline):
        root, sim_dir, fit_dir, _ = pipeline
        cfg = _write(root / "sum_startup.json", {"fit_dir": str(fit_dir)})
        code = (
            "import sys; from msfactor.cli import main; "
            f"assert main(['summarize', '--config', {cfg!r}, '--out', {str(root / 'sum_startup')!r}, "
            f"'--truth', {str(sim_dir / 'truth.json')!r}]) == 0; "
            "assert 'scipy.optimize' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True, timeout=120,
                       capture_output=True)

    @pytest.mark.parametrize("command", ["import", "fit", "summarize"])
    def test_no_scipy_module_is_loaded(self, pipeline, command):
        root, sim_dir, fit_dir, _ = pipeline
        out = str(root / f"no_scipy_{command}")
        if command == "fit":
            cfg = _write(root / "fit_startup.json", {
                "data": str(sim_dir / "dataset.json"), "k": 2, "seed": 3,
                "iterations": 1, "warmup": 0,
            })
            args = ["fit", "--config", cfg, "--out", out]
        else:
            cfg = _write(root / "sum_no_scipy.json", {"fit_dir": str(fit_dir)})
            args = ["summarize", "--config", cfg, "--out", out,
                    "--truth", str(sim_dir / "truth.json")]
        run = "" if command == "import" else f"assert main({args!r}) == 0; "
        code = (
            "import sys; from msfactor.cli import main; " + run
            + "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded"
        )
        subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True, timeout=120,
                       capture_output=True)


class TestRuntimeDependencies:
    """The commands need numpy alone; scipy is for the tests."""

    def test_no_module_imports_scipy(self):
        package = Path(msfactor.cli.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            # ast.walk reaches imports inside functions, so lazy ones too
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
        assert not found

    def test_declared_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert [dep.split(">")[0].split("=")[0] for dep in project["dependencies"]] == ["numpy"]


class TestReadmeConfigTable:
    def test_table_names_exactly_each_subcommands_fields(self):
        # a row with an empty first cell continues the subcommand above it,
        # and "all" adds its fields to every subcommand
        readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = readme.index("| subcommand | field | kind | default |") + 2
        tables = {"simulate": msfactor.cli._SIMULATE_FIELDS, "fit": msfactor.cli._FIT_FIELDS,
                  "summarize": msfactor.cli._SUMMARIZE_FIELDS}
        listed, command = {name: [] for name in tables}, None
        for line in itertools.takewhile(lambda line: line.startswith("|"), readme[start:]):
            first, fields = line.split("|")[1:3]
            command = first.strip().strip("`") or command
            for name in tables if command == "all" else [command]:
                listed[name] += re.findall(r"`([^`]+)`", fields)
        assert {name: sorted(names) for name, names in listed.items()} == {
            name: sorted(table) for name, table in tables.items()
        }


# test-only code left in the package on purpose, each with the ROADMAP
# item that moves it out
_UNCALLED_ALLOWED = set()


def _definitions_and_names():
    """The package's definitions, {"module.name" or "module.Class.name":
    the key that mentions it}, and every key the package or the benchmark
    mentions.  A module-level function, class or method is mentioned by
    its name; a module-level assigned name by "module.name": read in its
    module, imported from it, or read as an attribute of it."""
    package = Path(msfactor.cli.__file__).parent
    benchmark = [
        path for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    defined, named = {}, set()
    for path in sorted(package.glob("*.py")) + benchmark:
        tree = ast.parse(path.read_text())
        # a name read, an attribute or an import mentions a definition; an
        # assignment does not read what it assigns, and a string such as a
        # trace label does not call it
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named |= {node.id, f"{path.stem}.{node.id}"}
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                if isinstance(node.value, ast.Name):
                    named.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.split(".")[-1]
                named |= {f"{module}.{alias.name}" for alias in node.names}
        if path.parent != package:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update({
                    f"{path.stem}.{node.name}.{item.name}": item.name
                    for item in node.body if isinstance(item, ast.FunctionDef)
                })
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update({
                    f"{path.stem}.{target.id}": f"{path.stem}.{target.id}"
                    for target in targets if isinstance(target, ast.Name)
                })
    assert defined
    return defined, named


class TestNoUncalledCode:
    """Every function, class, method and module-level name is mentioned by
    the program or the benchmark."""

    def test_public_functions_are_named_outside_their_definition(self):
        defined, named = _definitions_and_names()
        assert defined["sampler.OFFSET_SD"] == "sampler.OFFSET_SD"
        uncalled = {
            name for name, key in defined.items()
            if not name.rsplit(".", 1)[1].startswith("_") and key not in named
        }
        assert uncalled == _UNCALLED_ALLOWED

    def test_private_code_is_named_outside_its_definition(self):
        # a helper a refactor leaves behind fails here; dunders are
        # called by the language
        defined, named = _definitions_and_names()
        last = {name: name.rsplit(".", 1)[1] for name in defined}
        private = [
            name for name in defined
            if last[name].startswith("_") and not (last[name].startswith("__") and name.endswith("__"))
        ]
        assert "sampler._evaluator" in private and "sampler.SampleLog.to_csv" not in private
        assert "sampler.ChainState.__post_init__" not in private and "cli._REQUIRED" in private
        assert [name for name in private if defined[name] not in named] == []


class TestNoUnreadParameters:
    def test_every_parameter_is_read_in_its_body(self):
        # a parameter a refactor leaves behind fails here; self and cls are
        # the language's
        package = Path(msfactor.cli.__file__).parent
        unread = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                args = node.args
                params = [
                    arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
                    + [args.vararg, args.kwarg] if arg is not None
                ]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {
                    name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
                }
                where = f"{path.stem}.{getattr(node, 'name', '<lambda>')}"
                unread += [
                    f"{where}({param})" for param in params
                    if param not in ("self", "cls") and param not in read
                ]
        assert unread == []


def _reference_matrix_csv(path, mat):
    """Per-value writer the factor writer must match byte for byte."""
    with open(path, "w") as fh:
        for row in mat:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


class TestFactorWriter:
    @pytest.mark.parametrize("q, scale", [
        (np.array([0.37]), 2.5),
        (np.array([0.0, -1.5, 0.0, 2.0, -0.0]), -0.7),
        (np.array([-0.0, 3e-200, -1e150, 0.1]), 0.0),
        (np.random.default_rng(8).standard_normal(40), 31.25),
    ])
    def test_bytes_match_per_value_writer(self, tmp_path, q, scale):
        mat = scale * np.outer(q, q)
        msfactor.cli._write_symmetric_csv(tmp_path / "fast.csv", mat)
        _reference_matrix_csv(tmp_path / "reference.csv", mat)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_summary_removes_factors_past_its_depth(self, pipeline, tmp_path):
        # a 3-level summary written where a deeper one was leaves no factor_4
        _, sim_dir, _, _ = pipeline
        fit_cfg = _write(tmp_path / "fit.json", {
            "data": str(sim_dir / "dataset.json"), "k": 3, "seed": 5, "iterations": 10,
        })
        assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path / "fit")]) == 0
        factors = tmp_path / "sum" / "factors"
        factors.mkdir(parents=True)
        (factors / "factor_4.csv").write_text("0\n")
        (factors / "notes.txt").write_text("kept\n")
        sum_cfg = _write(tmp_path / "sum.json", {"fit_dir": str(tmp_path / "fit")})
        assert main(["summarize", "--config", sum_cfg, "--out", str(tmp_path / "sum")]) == 0
        assert sorted(path.name for path in factors.iterdir()) == [
            "factor_1.csv", "factor_2.csv", "factor_3.csv", "notes.txt",
        ]

    def test_summary_factors_match_per_value_writer(self, pipeline, tmp_path):
        _, _, fit_dir, sum_dir = pipeline
        logs = {d.name: SampleLog.from_csv(d / "trace.csv", d / "w_trace.csv")
                for d in sorted(fit_dir.glob("chain_*"))}
        summary = summarize(logs, burn_in=0.5)
        for j, mat in enumerate(summary.factors, start=1):
            _reference_matrix_csv(tmp_path / "reference.csv", mat)
            written = (sum_dir / "factors" / f"factor_{j}.csv").read_bytes()
            assert written == (tmp_path / "reference.csv").read_bytes()


class TestChainFailures:
    @pytest.fixture
    def fit_cfg(self, tmp_path):
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 2, "subjects": 2, "seed": 3})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0

        def write(**fields):
            return _write(tmp_path / "fit.json", {
                "data": str(tmp_path / "sim" / "dataset.json"),
                "k": 2, "seed": 5, "iterations": 6, "warmup": 2,
                "tau": 0.3, "leapfrog_steps": 2, **fields,
            })
        return write

    @staticmethod
    def _failing_run_chain(*args, **kwargs):
        raise ValueError("array must not contain infs or NaNs")

    @pytest.mark.parametrize("chains", [1, 2])
    def test_error_inside_a_chain_is_a_runtime_failure(
        self, tmp_path, capfd, monkeypatch, fit_cfg, chains
    ):
        # forked pool workers inherit the patched run_chain
        monkeypatch.setattr(msfactor.cli, "run_chain", self._failing_run_chain)
        cfg = fit_cfg(chains=chains)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 3
        err = capfd.readouterr().err
        assert "error: chain_00: ValueError: array must not contain infs or NaNs" in err
        assert "Traceback" in err

    def test_dead_chain_worker_is_a_runtime_failure(self, tmp_path, capfd, monkeypatch, fit_cfg):
        # a worker that exits without raising, as under the OOM killer,
        # breaks the pool; forked workers inherit the patched run_chain
        pools = []

        def forked_pool(max_workers):
            pools.append(max_workers)
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=max_workers, mp_context=multiprocessing.get_context("fork"))

        monkeypatch.setattr(msfactor.cli, "ProcessPoolExecutor", forked_pool)
        monkeypatch.setattr(msfactor.cli, "run_chain", lambda *args, **kwargs: os._exit(9))
        cfg = fit_cfg(chains=2)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 3
        assert "error: a chain worker died" in capfd.readouterr().err
        assert len(pools) == 1 and pools[0] <= 2

    @pytest.mark.parametrize("field, value", [
        ("step_size", 0.0),
        ("leapfrog_steps", 0),
        ("window", -0.1),
        ("thin", 0),
        ("tau", 0.0),
        ("anneal_from", -1.0),
        ("k", 9),
    ])
    def test_bad_sampler_setting_exits_2_before_any_chain(
        self, tmp_path, capsys, monkeypatch, fit_cfg, field, value
    ):
        monkeypatch.setattr(msfactor.cli, "run_chain", self._failing_run_chain)
        cfg = fit_cfg(**{field: value})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "fit" / "chain_00").exists()
