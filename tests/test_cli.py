"""End-to-end command-line pipeline: simulate -> fit -> summarize."""

import json
import os
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

    def test_fit_outputs(self, pipeline):
        _, _, fit_dir, _ = pipeline
        assert (fit_dir / "chain_00" / "trace.csv").exists()
        assert (fit_dir / "chain_00" / "w_trace.csv").exists()
        meta = json.loads((fit_dir / "run_meta.json").read_text())
        assert meta["chains"]["chain_00"]["n_draws"] == 30
        counts = meta["chains"]["chain_00"]
        assert counts["grad_evals"] > 0 and counts["grads_reused"] >= 0
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
        direct = summarize(log, burn_in=0.5)
        payload = json.loads((sum_dir / "summary.json").read_text())
        np.testing.assert_array_equal(np.asarray(payload["w_prob"]), direct.w_prob)
        np.testing.assert_array_equal(np.asarray(payload["q_mean"]), direct.q_mean)
        np.testing.assert_array_equal(np.asarray(payload["d_mean"]), direct.d_mean)
        assert payload["ess"]["chain_00"] == direct.ess


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
        fit = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "sim" / "dataset.json"),
            "k": 1, "seed": 5, "iterations": 40, "warmup": 20,
            "tau": 0.3, "leapfrog_steps": 3,
        })
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "s5")]) == 0
        assert main([
            "fit", "--config", fit, "--out", str(tmp_path / "s6"), "--seed", "6",
        ]) == 0
        assert (tmp_path / "s5" / "chain_00" / "trace.csv").read_text() != (
            tmp_path / "s6" / "chain_00" / "trace.csv"
        ).read_text()


class TestMultiChain:
    def test_two_chains_fit_and_pool(self, tmp_path):
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 13})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        fit = _write(tmp_path / "fit.json", {
            "data": str(tmp_path / "sim" / "dataset.json"),
            "k": 1, "seed": 17, "iterations": 30, "warmup": 10,
            "tau": 0.3, "leapfrog_steps": 2,
        })
        assert main([
            "fit", "--config", fit, "--out", str(tmp_path / "fit"), "--chains", "2",
        ]) == 0
        assert (tmp_path / "fit" / "chain_00" / "trace.csv").exists()
        assert (tmp_path / "fit" / "chain_01" / "trace.csv").exists()
        meta = json.loads((tmp_path / "fit" / "run_meta.json").read_text())
        assert set(meta["chains"]) == {"chain_00", "chain_01"}

        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(tmp_path / "fit")})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 0
        payload = json.loads((tmp_path / "sum" / "summary.json").read_text())
        assert payload["meta"]["chains"] == ["chain_00", "chain_01"]
        assert set(payload["ess"]) == {"chain_00", "chain_01"}


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
            raise NotPositiveDefiniteError(1)

        monkeypatch.setattr(msfactor.cli, "simulate_dataset", failing_simulate)
        cfg = _write(tmp_path / "sim.json", {"n": 6, "k": 2, "subjects": 1, "seed": 0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "pivot 1 not positive definite" in capsys.readouterr().err

    def test_summarize_without_chains(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(empty)})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "chain" in capsys.readouterr().err

    def test_warmup_exceeding_iterations(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"n": 2, "subjects": [[[0, 0], [0, 0]]]}))
        cfg = _write(tmp_path / "fit.json", {
            "data": str(data), "k": 1, "seed": 0, "iterations": 10, "warmup": 20,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [{"n": 4}, [1, 2]])
    def test_malformed_dataset(self, tmp_path, capsys, payload):
        data = tmp_path / "data.json"
        data.write_text(json.dumps(payload))
        cfg = _write(tmp_path / "fit.json", {
            "data": str(data), "k": 1, "seed": 0, "iterations": 10,
        })
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        assert "data file" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_truth_file_is_checked_before_any_trace(self, pipeline, tmp_path, capsys,
                                                    monkeypatch):
        _, sim_dir, fit_dir, _ = pipeline
        truth = json.loads((sim_dir / "truth.json").read_text())
        del truth["partition"]
        bad = _write(tmp_path / "truth.json", truth)
        loads = []
        monkeypatch.setattr(msfactor.cli.SampleLog, "from_csv",
                            classmethod(lambda cls, *paths: loads.append(paths)))
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(fit_dir)})
        args = ["summarize", "--config", cfg, "--out", str(tmp_path / "sum"), "--truth", bad]
        assert main(args) == 2
        assert "truth file" in capsys.readouterr().err
        assert loads == []

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
    ])
    def test_subcommand_rejects_flags_it_does_not_read(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(tmp_path / "cfg.json"), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unorthonormalizable_mean_frame_gives_null_subspace_error(
        self, pipeline, tmp_path, monkeypatch
    ):
        # every draw's matrix is two-valued per column; the mean frame is not
        _, sim_dir, fit_dir, _ = pipeline
        whiten = msfactor.diagnostics.whiten

        def whiten_draws_only(x):
            if any(np.unique(col).size > 2 for col in x.T):
                raise NotPositiveDefiniteError(1)
            return whiten(x)

        monkeypatch.setattr(msfactor.diagnostics, "whiten", whiten_draws_only)
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(fit_dir), "burn_in": 0.5})
        assert main([
            "summarize", "--config", cfg, "--out", str(tmp_path / "sum"),
            "--truth", str(sim_dir / "truth.json"),
        ]) == 0
        payload = json.loads((tmp_path / "sum" / "summary.json").read_text())
        assert payload["meta"]["q_mean_orthonormalized"] is False
        assert payload["recovery"]["subspace_error"] is None
        assert len(payload["recovery"]["level_recovery"]) == 2


class TestWTraceNodes:
    @pytest.fixture
    def fit_cfg(self, tmp_path):
        sim = _write(tmp_path / "sim.json", {"n": 8, "k": 1, "subjects": 2, "seed": 3})
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0

        def write(nodes):
            return _write(tmp_path / "fit.json", {
                "data": str(tmp_path / "sim" / "dataset.json"),
                "k": 1, "seed": 5, "iterations": 6, "warmup": 2,
                "tau": 0.3, "leapfrog_steps": 2, "w_trace_nodes": nodes,
            })
        return write

    @pytest.mark.parametrize("nodes", [[0, 8], [-1], [2, 2], [0, "1"], [True]])
    def test_fit_rejects_bad_node_ids(self, tmp_path, capsys, fit_cfg, nodes):
        assert main(["fit", "--config", fit_cfg(nodes), "--out", str(tmp_path / "fit")]) == 2
        assert "w_trace_nodes" in capsys.readouterr().err
        assert not (tmp_path / "fit" / "chain_00").exists()

    @pytest.mark.parametrize("nodes", [[0, 1, 2, 3, 4], [5, 6, 7]])
    def test_summarize_rejects_partial_w_trace(self, tmp_path, capsys, fit_cfg, nodes):
        assert main(["fit", "--config", fit_cfg(nodes), "--out", str(tmp_path / "fit")]) == 0
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(tmp_path / "fit")})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 2
        assert "w_trace_nodes" in capsys.readouterr().err
        assert not (tmp_path / "sum" / "summary.json").exists()

    def test_full_node_list_in_any_order_summarizes(self, tmp_path, fit_cfg):
        nodes = [7, 6, 5, 4, 3, 2, 1, 0]
        assert main(["fit", "--config", fit_cfg(nodes), "--out", str(tmp_path / "fit")]) == 0
        cfg = _write(tmp_path / "sum.json", {"fit_dir": str(tmp_path / "fit")})
        assert main(["summarize", "--config", cfg, "--out", str(tmp_path / "sum")]) == 0


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

    def test_summary_factors_match_per_value_writer(self, pipeline, tmp_path):
        _, _, fit_dir, sum_dir = pipeline
        logs = [SampleLog.from_csv(d / "trace.csv", d / "w_trace.csv")
                for d in sorted(fit_dir.glob("chain_*"))]
        summary = summarize(msfactor.cli._pool_logs(logs, 0.5), burn_in=0.0)
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

    @pytest.mark.parametrize("field, value", [
        ("step_size", 0.0),
        ("leapfrog_steps", 0),
        ("target_accept", 1.5),
        ("window", -0.1),
        ("max_rejection_attempts", 0),
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
