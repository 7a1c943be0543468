"""Acceptance suite: one seeded end-to-end verdict per core guarantee.

Slower than the unit files on purpose.  Every test pins its seeds, and
wall-time budgets are asserted where they matter.  `pytest -v
tests/test_acceptance.py` prints one pass/fail line per guarantee, in
order: frame structure, orthonormality and invariances, gradient
exactness, integrator accuracy, exchange-kernel correctness against an
enumerated target, recovery of the generative prior from empty data,
synthetic structure recovery with concentration, mixing of the rate
traces, and a full-scale command-line smoke run.
"""

import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.special import logit
from scipy.stats import kstest

from msfactor.cli import main
from msfactor.diagnostics import (
    ess_batch_means,
    partition_recovery,
    subspace_error,
    summarize,
)
from msfactor.model import NetworkDataset, SubjectParams, simulate_dataset
from msfactor.partition import random_partition
from msfactor.prior import ColumnValues, MixtureProbs, build_x
from msfactor.sampler import (
    ChainState,
    ExchangeConfig,
    HmcConfig,
    SampleLog,
    exchange_update,
    initial_state,
    leapfrog,
    potential,
    potential_grad,
    run_chain,
)
from msfactor.whitening import rank_ok, whiten
from test_partition import cells_at_level


def _random_instance(rng, n_low=4, n_high=64, k_cap=8):
    """Partition-structured matrix with generic values, resampled to full rank."""
    n = int(rng.integers(n_low, n_high + 1))
    k = int(rng.integers(1, min(k_cap, n) + 1))
    while True:
        w = random_partition(n, k, rng)
        values = ColumnValues(a=rng.standard_normal(k), b=rng.standard_normal(k))
        x = build_x(w, values)
        if rank_ok(x):
            return w, values, x


def test_whitened_columns_follow_partition_cells():
    # 200 random sizes; each whitened column j must be constant on every
    # level-j cell (exactly) and carry at most 2^j distinct values.
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        w, _, x = _random_instance(rng)
        q = whiten(x)
        for j in range(1, w.shape[1] + 1):
            col = q[:, j - 1]
            for members in cells_at_level(w, j).values():
                idx = sorted(members)
                assert np.all(col[idx] == col[idx[0]])
            ordered = np.sort(col)
            groups = 1 + int(np.count_nonzero(np.diff(ordered) > 1e-8))
            assert groups <= 2 ** j
    assert time.perf_counter() - start < 10.0


def test_frames_orthonormal_and_invariant():
    # Orthonormality to 1e-10, plus invariance to positive column rescaling
    # and to swapping a column's value pair while complementing its weights.
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for _ in range(100):
        w, values, x = _random_instance(rng)
        k = w.shape[1]
        q = whiten(x)
        gram = q.T @ q
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-10

        scale = rng.uniform(0.2, 5.0, size=k)
        assert np.max(np.abs(whiten(x * scale) - q)) <= 1e-10

        j = int(rng.integers(k))
        a_sw, b_sw = values.a.copy(), values.b.copy()
        a_sw[j], b_sw[j] = values.b[j], values.a[j]
        w_sw = w.copy()
        w_sw[:, j] = 1.0 - w[:, j]
        x_sw = build_x(w_sw, ColumnValues(a=a_sw, b=b_sw))
        assert np.max(np.abs(whiten(x_sw) - q)) <= 1e-10
    assert time.perf_counter() - start < 5.0


def _flatten(state):
    sp = state.subject_params
    return np.concatenate([sp.log_loadings.ravel(), sp.offsets, state.logits.ravel()])


def _rebuild(state, vec):
    sp = state.subject_params
    s, k = sp.log_loadings.shape
    n = state.n_nodes
    return dataclasses.replace(
        state,
        logits=vec[s * k + s:].reshape(n, k),
        subject_params=SubjectParams(
            log_loadings=vec[: s * k].reshape(s, k),
            offsets=vec[s * k: s * k + s],
        ),
    )


def test_potential_gradient_matches_finite_differences():
    # 50 random small instances; central differences at step 1e-5; the
    # worst coordinate must agree to 1e-5 relative (floored at 1).
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        s = int(rng.integers(1, 3))
        tau = (0.2, 0.5)[trial % 2]
        adj = np.triu(rng.random((s, n, n)) < 0.4, k=1)
        adj = (adj + np.swapaxes(adj, 1, 2)).astype(np.float64)
        data = NetworkDataset(n=n, adjacency=adj)
        while True:
            state = ChainState(
                logits=rng.normal(0.0, 2.0, size=(n, k)),
                values=ColumnValues(
                    a=rng.standard_normal(k), b=rng.standard_normal(k)
                ),
                probs=MixtureProbs(p=rng.uniform(0.1, 0.9, size=k)),
                subject_params=SubjectParams(
                    log_loadings=rng.normal(0.0, 1.0, size=(s, k)),
                    offsets=rng.normal(0.0, 1.0, size=s),
                ),
                tau=tau,
            )
            relaxed = build_x(state.relaxed_weights(), state.values)
            if rank_ok(relaxed):
                break
        g_ld, g_z, g_lg = potential_grad(state, data)
        grad = np.concatenate([g_ld.ravel(), g_z, g_lg.ravel()])
        vec = _flatten(state)
        for i in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fd = (
                potential(_rebuild(state, vp), data)
                - potential(_rebuild(state, vm), data)
            ) / (2.0 * h)
            worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-5
    assert time.perf_counter() - start < 30.0


def test_leapfrog_reversible_and_second_order():
    # Round trip under velocity flip returns to the start below 1e-8, and
    # the harmonic-oscillator energy error decays as step^2.
    rng = np.random.default_rng(1004)
    data = NetworkDataset(
        n=4,
        adjacency=np.array(
            [[[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]],
            dtype=np.float64,
        ),
    )
    state = initial_state(data, 2, tau=0.5, rng=rng)

    def grad_fn(vec):
        g_ld, g_z, g_lg = potential_grad(_rebuild(state, vec), data)
        return np.concatenate([g_ld.ravel(), g_z, g_lg.ravel()])

    pos0 = _flatten(state)
    vel0 = rng.standard_normal(pos0.size)
    omega = rng.uniform(0.5, 2.0, size=pos0.size)
    pos1, vel1, grad1 = leapfrog(pos0, vel0, grad_fn(pos0), grad_fn, 0.05, 25, omega)
    pos2, vel2, _ = leapfrog(pos1, -vel1, grad1, grad_fn, 0.05, 25, omega)
    assert np.max(np.abs(pos2 - pos0)) < 1e-8
    assert np.max(np.abs(vel2 + vel0)) < 1e-8

    # U(s) = s^2/2 integrated to time 2.0 from (1.3, 0.4)
    unit = np.ones(1)
    h_grid = np.array([0.2, 0.1, 0.05, 0.025])
    h0 = 0.5 * (1.3 ** 2 + 0.4 ** 2)
    errors = []
    for step in h_grid:
        pos, vel, _ = leapfrog(
            np.array([1.3]), np.array([0.4]), np.array([1.3]), lambda v: v,
            step, int(round(2.0 / step)), unit,
        )
        errors.append(abs(0.5 * (pos[0] ** 2 + vel[0] ** 2) - h0))
    slope = np.polyfit(np.log(h_grid), np.log(errors), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_exchange_kernel_matches_enumerated_posterior():
    # Freeze the pattern (saturated logits) and the values (window 0), run
    # the exchange kernel alone, and compare the rate's first two moments
    # against quadrature over the pattern-enumerated target density.
    rng = np.random.default_rng(5)
    n = 3
    w = np.array([[1.0], [0.0], [1.0]])
    tau = 0.05
    logits = tau * 800.0 * (2.0 * w - 1.0)  # expit(+-800) is exactly 1.0 / 0.0
    values = ColumnValues(a=np.array([1.0]), b=np.array([-1.0]))
    state = ChainState(
        logits=logits,
        values=values,
        probs=MixtureProbs(p=np.array([0.5])),
        subject_params=SubjectParams(
            log_loadings=np.zeros((1, 1)), offsets=np.zeros(1)
        ),
        tau=tau,
    )
    assert np.array_equal(state.relaxed_weights(), w)

    ones = int(w.sum())
    patterns = [
        np.array([[b0], [b1], [b2]], dtype=np.float64)
        for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)
    ]
    admissible = [
        rank_ok(build_x(y, values)) for y in patterns
    ]
    grid = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    normalizer = np.zeros_like(grid)
    for y, good in zip(patterns, admissible):
        if good:
            c = y.sum()
            normalizer += grid ** c * (1.0 - grid) ** (n - c)
    density = grid ** ones * (1.0 - grid) ** (n - ones) / normalizer
    density /= np.trapezoid(density, grid)
    m1 = np.trapezoid(grid * density, grid)
    m2 = np.trapezoid(grid ** 2 * density, grid)

    cfg = ExchangeConfig(window=0.0)  # values frozen; only the rate moves
    start = time.perf_counter()
    trace = np.empty(50000)
    accepted_total = 0
    for it in range(50000):
        state, accepted = exchange_update(state, None, cfg, rng)
        accepted_total += accepted
        trace[it] = state.probs.p[0]
    elapsed = time.perf_counter() - start

    assert np.array_equal(state.relaxed_weights(), w)
    assert accepted_total > 0
    se1 = trace.std() / np.sqrt(ess_batch_means(trace))
    se2 = (trace ** 2).std() / np.sqrt(ess_batch_means(trace ** 2))
    assert abs(trace.mean() - m1) < 3.0 * se1
    assert abs((trace ** 2).mean() - m2) < 3.0 * se2
    assert elapsed < 60.0


def test_empty_data_chain_recovers_gaussian_prior():
    # With no data the chain's value marginals must come back standard
    # normal.  KS critical values are Monte Carlo calibrated at the 1%
    # level on the thinned sample size.
    seed = 12
    rng = np.random.default_rng(seed)
    init = initial_state(None, 2, tau=0.5, rng=rng, n=3, n_subjects=1)
    log = run_chain(
        None,
        init,
        HmcConfig(warmup=1000, leapfrog_steps=10, step_size=0.1),
        ExchangeConfig(window=1.0),
        51000,
        rng,
    )
    cal_rng = np.random.default_rng(seed * 100)
    for series in (log.a[:, 0], log.a[:, 1], log.b[:, 0], log.b[:, 1]):
        ess = ess_batch_means(series)
        stride = max(1, int(np.ceil(1.5 * series.size / max(ess, 1.0))))
        thinned = series[::stride]
        stat = kstest(thinned, "norm").statistic
        critical = np.quantile(
            [
                kstest(cal_rng.standard_normal(thinned.size), "norm").statistic
                for _ in range(500)
            ],
            0.99,
        )
        assert stat < critical


def _recovery_run(n_subjects):
    """Simulate at a pinned seed, fit, and summarize one recovery chain."""
    data_rng = np.random.default_rng(7)
    n, k = 32, 3
    w = random_partition(n, k, data_rng)
    values = ColumnValues(a=np.full(k, 1.0), b=np.full(k, -1.0))
    loadings = data_rng.uniform(20.0, 40.0, size=(n_subjects, k))
    sp = SubjectParams(
        log_loadings=np.log(loadings),
        offsets=np.full(n_subjects, logit(0.1)),
    )
    data, truth = simulate_dataset(w, values, sp, data_rng)

    rng = np.random.default_rng(7)
    init = initial_state(data, k, tau=0.1, rng=rng)
    log = run_chain(
        data,
        init,
        HmcConfig(warmup=2500, leapfrog_steps=15, step_size=0.05),
        ExchangeConfig(),
        5000,
        rng,
        anneal_from=0.5,
    )
    summ = summarize({"chain_00": log}, burn_in=0.0)
    result = {
        "err": subspace_error(truth["frame"], summ.q_mean),
        "rec1": partition_recovery(summ.w_prob, w, 1),
    }
    if n_subjects == 10:
        result.update(
            ess=summ.ess["chain_00"],
            n_draws=log.n_draws,
            w_prob=summ.w_prob,
            w_hard=log.w_hard,
        )
    return result


@pytest.fixture(scope="module")
def recovery_runs():
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        res10, res20 = list(pool.map(_recovery_run, (10, 20)))
    return res10, res20, time.perf_counter() - start


def test_synthetic_recovery_concentrates(recovery_runs):
    # 10 subjects must recover the frame and the coarsest split; doubling
    # the subjects must not push the frame error up by more than noise.
    res10, res20, elapsed = recovery_runs
    assert res10["err"] < 0.2
    assert res10["rec1"] >= 0.9
    assert res20["err"] <= res10["err"] + 0.05
    assert elapsed < 900.0


def test_rate_traces_mix_and_ambiguous_nodes_switch(recovery_runs):
    # Rate ESS normalized to 5000 post-warmup iterations must clear 100,
    # and any node left ambiguous must actually alternate sides.
    res10, _, _ = recovery_runs
    scale = 5000.0 / res10["n_draws"]
    for j in range(3):
        assert res10["ess"][f"p_{j + 1}"] * scale > 100.0
    w_prob = res10["w_prob"]
    w_hard = res10["w_hard"]
    for i, j in np.argwhere((w_prob > 0.1) & (w_prob < 0.9)):
        assert np.abs(np.diff(w_hard[:, i, j])).sum() >= 10.0


def test_full_scale_pipeline_smoke(tmp_path):
    # simulate + short fit at n=128, k=30, S=20: must finish cleanly with
    # finite draws (no rank failures, no NaN), well inside ten minutes.
    start = time.perf_counter()
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"n": 128, "k": 30, "subjects": 20, "seed": 909}))
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(sim_dir)]) == 0

    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps({
        "data": str(sim_dir / "dataset.json"),
        "k": 30, "iterations": 50, "warmup": 25, "seed": 910,
        "tau": 0.2, "anneal_from": 0.5, "leapfrog_steps": 10,
    }))
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--config", str(fit_cfg), "--out", str(fit_dir)]) == 0

    log = SampleLog.from_csv(
        fit_dir / "chain_00" / "trace.csv",
        fit_dir / "chain_00" / "w_trace.csv",
    )
    assert log.n_draws == 25
    for arr in (log.u, log.a, log.b, log.p, log.offsets, log.log_loadings):
        assert np.isfinite(arr).all()
    assert time.perf_counter() - start < 600.0
