"""Tests of the benchmark's own checks: each must fail on a corrupted output.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import WORKLOADS, generate, retained_draws, write_inputs  # noqa: E402
from msfactor import cli, diagnostics, model, partition, prior, sampler, whitening  # noqa: E402

MODULES = {"cli": cli, "model": model, "whitening": whitening, "sampler": sampler,
           "diagnostics": diagnostics, "prior": prior, "partition": partition}
TINY = dataclasses.replace(
    WORKLOADS["recovery"], name="tiny", index=9, n=12, k=2, subjects=3,
    fit={"iterations": 60, "warmup": 30, "tau": 0.3, "step_size": 0.05,
         "leapfrog_steps": 5, "anneal_from": 0.5, "chains": 2, "thin": 1},
)
BURN_IN = 0.5


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A 2-chain fit and its summary, run in-process with serial chains."""
    root = tmp_path_factory.mktemp("tiny")
    data, truth = write_inputs(TINY, 5, root / "inputs")
    fit_cfg = root / "fit.json"
    fit_cfg.write_text(json.dumps({"data": str(data), "k": TINY.k, "seed": 5, **TINY.fit}))
    sum_cfg = root / "summarize.json"
    sum_cfg.write_text(json.dumps({"fit_dir": str(root / "fit"), "burn_in": BURN_IN}))
    _, codes = tracing.run_pipeline(
        MODULES,
        ["fit", "--config", str(fit_cfg), "--out", str(root / "fit")],
        ["summarize", "--config", str(sum_cfg), "--out", str(root / "summary"),
         "--truth", str(truth)],
    )
    assert codes == (0, 0)
    return root


@pytest.fixture
def outputs(pristine, tmp_path):
    """A private copy of the pristine outputs that a test may corrupt."""
    for name in ("fit", "summary", "inputs"):
        shutil.copytree(pristine / name, tmp_path / name)
    return tmp_path


def _chains(root):
    return {d.name: checks.read_chain(d) for d in sorted((root / "fit").glob("chain_*"))}


def _summary_failures(root):
    truth = json.loads((root / "inputs" / "truth.json").read_text())
    return checks.check_summary(root / "summary", _chains(root), BURN_IN, truth["frame"])


def _trace_failures(root):
    return checks.check_traces(_chains(root), retained_draws(TINY.fit), TINY.n, TINY.k,
                               TINY.subjects)


def test_checks_pass_on_pristine_outputs(outputs):
    chains = _chains(outputs)
    assert _trace_failures(outputs) == []
    assert checks.check_acceptance(chains) == []
    assert _summary_failures(outputs) == []
    rng = np.random.default_rng(0)
    assert checks.check_cells(chains, whitening.whiten, whitening.rank_ok, rng) == []
    data = model.NetworkDataset.from_json((outputs / "inputs" / "dataset.json").read_text())
    tau = TINY.fit["tau"]
    assert checks.check_gradient(MODULES, data, chains["chain_00"], tau, rng) == []

    def skewed_grad(state, data):
        g_ld, g_z, g_lg = sampler.potential_grad(state, data)
        return g_ld, g_z * 1.01 + 1.0, g_lg

    broken = {**MODULES, "sampler": types.SimpleNamespace(**{**vars(sampler), "potential_grad": skewed_grad})}
    assert checks.check_gradient(broken, data, chains["chain_00"], tau, rng)


@pytest.mark.parametrize("path", [
    ("w_prob", 0, 0), ("d_mean", 1, 1), ("q_mean", 3, 0), ("recovery", "subspace_error"),
])
def test_perturbed_summary_entry_fails(outputs, path):
    summary_path = outputs / "summary" / "summary.json"
    payload = json.loads(summary_path.read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1e-6
    summary_path.write_text(json.dumps(payload))
    assert _summary_failures(outputs)


def test_perturbed_factor_file_fails(outputs):
    path = outputs / "summary" / "factors" / "factor_2.csv"
    rows = path.read_text().splitlines()
    cells = rows[3].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)
    rows[3] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    assert _summary_failures(outputs)


def test_non_finite_trace_value_fails(outputs):
    path = outputs / "fit" / "chain_01" / "trace.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[6] = "nan"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert _trace_failures(outputs)


@pytest.mark.parametrize("name", ["trace.csv", "w_trace.csv"])
def test_truncated_trace_fails(outputs, name):
    path = outputs / "fit" / "chain_00" / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert _trace_failures(outputs)


def test_chain_without_acceptance_fails(outputs):
    chains = _chains(outputs)
    chains["chain_01"]["exch_accept"][:] = 0.0
    assert checks.check_acceptance(chains)


def test_whitening_without_cell_structure_fails(outputs):
    def rotated(x):
        q = whitening.whiten(x)
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.eye(q.shape[1])
        rot[:2, :2] = [[c, -s], [s, c]]
        return q @ rot

    rng = np.random.default_rng(0)
    assert checks.check_cells(_chains(outputs), rotated, whitening.rank_ok, rng)


def test_inputs_repeat_from_seed(tmp_path):
    for workload in WORKLOADS.values():
        first = write_inputs(workload, 3, tmp_path / "a")
        again = write_inputs(workload, 3, tmp_path / "b")
        other = write_inputs(workload, 4, tmp_path / "c")
        for x, y, z in zip(first, again, other):
            assert x.read_bytes() == y.read_bytes()
            assert x.read_bytes() != z.read_bytes()


def test_input_frame_is_cholesky_whitening():
    dataset, truth = generate(WORKLOADS["recovery"], 2)
    rp = partition.RecursivePartition.from_json(json.dumps(truth["partition"]))
    w = rp.membership_matrix().astype(float)
    x = w * np.asarray(truth["a"]) + (1.0 - w) * np.asarray(truth["b"])
    np.testing.assert_allclose(truth["frame"], whitening.whiten(x), atol=1e-12)
    adj = np.asarray(dataset["subjects"])
    model.NetworkDataset(n=dataset["n"], adjacency=adj).validate()


def test_bulk_ess_separates_independent_and_correlated_draws():
    rng = np.random.default_rng(1)
    iid = rng.standard_normal((2, 400))
    ar = np.zeros((2, 400))
    for t in range(1, 400):
        ar[:, t] = 0.95 * ar[:, t - 1] + rng.standard_normal(2)
    assert 500 < tracing.bulk_ess(iid) < 1200
    assert tracing.bulk_ess(ar) < 100
    assert tracing.bulk_ess(np.ones((2, 50))) == 0.0


def test_tracer_counts_calls_and_restores_functions(outputs):
    originals = (whitening.cholesky, model.NetworkDataset.__dict__["from_json"])
    tracer = tracing.Tracer()
    data_text = (outputs / "inputs" / "dataset.json").read_text()
    with tracing.installed(tracer, MODULES):
        assert prior.cholesky is not originals[0]
        model.NetworkDataset.from_json(data_text)
        whitening.rank_ok(np.eye(3))
    assert (whitening.cholesky, model.NetworkDataset.__dict__["from_json"]) == originals
    stats = tracing.aggregate(tracer.spans)
    assert stats["model.NetworkDataset.from_json"]["calls"] == 1
    assert stats["model.NetworkDataset.validate"]["calls"] == 1
    assert stats["whitening.cholesky"]["calls"] == 1
    rank = stats["whitening.rank_ok"]
    assert rank["self_s"] <= rank["s"]
    assert tracing.count_within(tracer.spans, "whitening.cholesky", "whitening.rank_ok") == 1


def test_benchmark_json_matches_manifest():
    from manifest import manifest

    written = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert written == manifest()
