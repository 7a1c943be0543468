"""Posterior kernels: potential, gradients, leapfrog, HMC, exchange, logging."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit, logit
from scipy.stats import invgamma

import msfactor.prior
import msfactor.sampler
from msfactor.diagnostics import ess_batch_means
from msfactor.model import NetworkDataset, SubjectParams
from msfactor.partition import random_partition
from msfactor.prior import ColumnValues, MixtureProbs, build_x
from msfactor.sampler import (
    ChainState,
    ExchangeConfig,
    HmcConfig,
    InitializationError,
    SampleLog,
    _Step,
    exchange_update,
    hmc_update,
    initial_state,
    leapfrog,
    potential,
    potential_grad,
    run_chain,
)
from msfactor.whitening import NotPositiveDefiniteError, rank_ok


def _log_likelihood(data, q, sp):
    """Reference Bernoulli log-likelihood over every subject's pairs i < j."""
    d = np.exp(sp.log_loadings)
    psi = np.einsum("ik,sk,jk->sij", q, d, q) + sp.offsets[:, None, None]
    iu = np.triu_indices(data.n, k=1)
    psi_u = psi[:, iu[0], iu[1]]
    return float(np.sum(data.adjacency[:, iu[0], iu[1]] * psi_u - np.logaddexp(0.0, psi_u)))


def _toy_data(n, s, seed, density=0.4):
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((s, n, n)) < density, k=1)
    adj = adj + np.swapaxes(adj, 1, 2)
    return NetworkDataset(n=n, adjacency=adj.astype(np.float64))


def _generic_state(seed, n=4, k=2, s=2, tau=0.7):
    rng = np.random.default_rng(seed)
    state = initial_state(None, k, tau, rng, n=n, n_subjects=s)
    return dataclasses.replace(
        state,
        subject_params=SubjectParams(
            log_loadings=0.4 * rng.standard_normal((s, k)),
            offsets=0.8 * rng.standard_normal(s),
        ),
        probs=MixtureProbs(p=rng.uniform(0.2, 0.8, size=k)),
    )


def _rebuild(state, vec):
    sp = state.subject_params
    s, k = sp.log_loadings.shape
    return dataclasses.replace(
        state,
        logits=vec[s * k + s:].reshape(state.n_nodes, k),
        subject_params=SubjectParams(
            log_loadings=vec[: s * k].reshape(s, k),
            offsets=vec[s * k: s * k + s],
        ),
    )


def _flatten(state):
    sp = state.subject_params
    return np.concatenate([sp.log_loadings.ravel(), sp.offsets, state.logits.ravel()])


def _force(state, data):
    """A fresh gradient-only pass of the force the trajectories integrate."""
    return msfactor.sampler._evaluator(state, data)(_flatten(state)).copy()


def _force_bound(exact):
    """How far the force may stray from the exact gradient: 64 float32
    epsilons, relative to the gradient's largest entry (at least 1).
    Fixed from the dtype before it was measured."""
    return 64 * np.finfo(np.float32).eps * max(1.0, np.abs(exact).max())


def _reference_potential(state, data):
    """U built term by term, apart from the program: scipy's inverse-gamma
    density of each loading times its log-scale Jacobian d, the N(0, 10^2)
    kernel of each offset, the Bernoulli(p) mass at the relaxed weights
    (scipy's expit), the standard-normal kernel of a and b, the gram term
    ((n - k - 1)/2) log det X'X, and with data the likelihood."""
    sp, values, p = state.subject_params, state.values, state.probs.p
    w = expit(state.logits / state.tau)
    x = build_x(w, values)
    n, k = x.shape
    terms = [
        np.sum(invgamma.logpdf(np.exp(sp.log_loadings), 0.1, scale=0.1) + sp.log_loadings),
        np.sum(-sp.offsets**2 / 200.0),
        np.sum(w * np.log(p) + (1.0 - w) * np.log1p(-p)),
        -(values.a @ values.a + values.b @ values.b) / 2.0,
        (n - k - 1) / 2.0 * np.linalg.slogdet(x.T @ x)[1],
    ]
    if data is not None:
        q = x @ np.linalg.inv(np.linalg.cholesky(x.T @ x)).T
        terms.append(_log_likelihood(data, q, sp))
    return -math.fsum(terms)


class TestPotential:
    def test_term_decomposition(self):
        # with data and without, at n = k + 1, where the gram term is 0,
        # and at n > k + 1
        for seed, n, k in ((8, 4, 2), (9, 3, 2), (10, 7, 3), (11, 4, 3)):
            state = _generic_state(seed, n=n, k=k)
            for data in (_toy_data(n, 2, seed + 100), None):
                expect = _reference_potential(state, data)
                assert potential(state, data) == pytest.approx(expect, rel=1e-12)

    def test_hand_value_two_nodes(self):
        tau = 0.5
        logits = tau * np.array([[logit(0.9)], [logit(0.1)]])
        state = ChainState(
            logits=logits,
            values=ColumnValues(a=np.array([1.0]), b=np.array([-1.0])),
            probs=MixtureProbs(p=np.array([0.35])),
            subject_params=SubjectParams(
                log_loadings=np.array([[math.log(2.0)]]), offsets=np.array([0.3])
            ),
            tau=tau,
        )
        data = NetworkDataset(n=2, adjacency=np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        w = expit(logits / tau)
        # frame is +-1/sqrt 2 for any w1 > w2, so the single edge sees
        # psi = 2 * (-1/2) + 0.3 regardless of the exact weights
        psi = -0.7
        ll = psi - math.log1p(math.exp(psi))
        lp = (
            0.1 * math.log(0.1)
            - math.lgamma(0.1)
            - 0.1 * math.log(2.0)
            - 0.05
            - 0.5 * (0.3 / 10.0) ** 2
        )
        lg = float(
            np.sum(w * math.log(0.35) + (1.0 - w) * math.log(0.65))
        )
        lab = -1.0
        assert potential(state, data) == pytest.approx(-(ll + lp + lg + lab), abs=1e-12)

    def test_prior_only_drops_likelihood(self):
        state = _generic_state(10)
        data = _toy_data(4, 2, 11)
        with_data = potential(state, data)
        without = potential(state, None)
        assert with_data - without == pytest.approx(
            -_log_likelihood(data, _frame_of(state), state.subject_params), abs=1e-10
        )


def _saturated(state):
    return dataclasses.replace(state, logits=800.0 * state.tau * np.sign(state.logits))


class TestPotentialPipeline:
    """potential is a value-only pass of the evaluator the trajectories use."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_data", [True, False])
    @pytest.mark.parametrize("saturate", [False, True])
    def test_equals_stagewise_assembly_bit_for_bit(self, seed, with_data, saturate):
        # U matches the reference assembled term by term, and the value-only
        # pass gives the paired pass's U bit for bit
        state = _generic_state(200 + seed, n=7, k=3, s=3)
        if saturate:
            state = _saturated(state)
            assert set(np.unique(state.relaxed_weights())) == {0.0, 1.0}
        data = _toy_data(7, 3, 300 + seed) if with_data else None
        u = potential(state, data)
        assert u == pytest.approx(_reference_potential(state, data), rel=1e-12)
        pos = msfactor.sampler._pack(state.subject_params, state.logits)
        paired, _ = msfactor.sampler._evaluator(state, data)(pos, with_potential=True)
        assert u.hex() == paired.hex()

    def test_rank_deficient_state_raises(self):
        # every node on side1 of both levels: two equal constant columns
        state = dataclasses.replace(
            _generic_state(44, n=5, k=2), logits=np.full((5, 2), 400.0)
        )
        for data in (_toy_data(5, 2, 45), None):
            with pytest.raises(NotPositiveDefiniteError):
                potential(state, data)

    def _spied(self, monkeypatch):
        sampler = msfactor.sampler
        calls = []
        for name in ("whiten_backward", "log_likelihood", "log_likelihood_grads"):
            def spy(*args, name=name, original=getattr(sampler, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(sampler, name, spy)
        return calls

    def test_potential_runs_no_backward_or_gradient_pass(self, monkeypatch):
        calls = self._spied(monkeypatch)
        data = _toy_data(6, 2, 46)
        for state in (_generic_state(47, n=6), _saturated(_generic_state(48, n=6))):
            potential(state, data)
            potential(state, None)
        assert calls == ["log_likelihood"] * 2

    def test_exchange_step_runs_no_backward_or_gradient_pass(self, monkeypatch):
        calls = self._spied(monkeypatch)
        data = _toy_data(6, 2, 49)
        state = _generic_state(50, n=6)
        cur = _Step(state, potential(state, data), None, "start")
        rng = np.random.default_rng(51)
        outcomes = set()
        for _ in range(30):
            cur = msfactor.sampler._exchange_step(cur, data, rng, 0.5)
            outcomes.add(cur.outcome == "accepted")
        assert outcomes == {True, False}
        assert calls
        assert set(calls) == {"log_likelihood"}


def _frame_of(state):
    from msfactor.whitening import whiten

    return whiten(build_x(state.relaxed_weights(), state.values))


class TestPotentialGrad:
    def test_matches_central_differences(self):
        state = _generic_state(12)
        data = _toy_data(4, 2, 13)
        g_ld, g_z, g_lg = potential_grad(state, data)
        grad = np.concatenate([g_ld.ravel(), g_z, g_lg.ravel()])
        vec = _flatten(state)
        h = 1e-6
        for i in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fd = (potential(_rebuild(state, vp), data) - potential(_rebuild(state, vm), data)) / (
                2 * h
            )
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_prior_only_differences(self):
        state = _generic_state(14)
        g_ld, g_z, g_lg = potential_grad(state, None)
        grad = np.concatenate([g_ld.ravel(), g_z, g_lg.ravel()])
        vec = _flatten(state)
        h = 1e-6
        for i in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fd = (potential(_rebuild(state, vp), None) - potential(_rebuild(state, vm), None)) / (
                2 * h
            )
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_prior_only_subject_blocks_are_exact(self):
        # signed zeros included: offsets of -0.0 and 0.0 keep their signs
        state = _generic_state(21, s=4)
        sp = state.subject_params
        offsets = np.concatenate([sp.offsets[:2], [-0.0, 0.0]])
        state = dataclasses.replace(
            state, subject_params=SubjectParams(log_loadings=sp.log_loadings, offsets=offsets)
        )
        g_ld, g_z, _ = potential_grad(state, None)
        loading = msfactor.sampler.LOADING_SHAPE - msfactor.sampler.LOADING_RATE / np.exp(
            sp.log_loadings
        )
        assert np.array_equal(g_ld, loading)
        assert np.array_equal(g_z, offsets / msfactor.sampler.OFFSET_SD**2)
        assert np.array_equal(np.signbit(g_z), np.signbit(offsets))

    def test_saturated_logits_have_zero_gradient(self):
        # at weights exactly 0/1 the relaxation slope vanishes, freezing them
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        state = ChainState(
            logits=0.5 * 800.0 * (2.0 * w0 - 1.0),
            values=ColumnValues(a=np.array([0.9, 1.7]), b=np.array([-1.1, 0.4])),
            probs=MixtureProbs(p=np.array([0.4, 0.6])),
            subject_params=SubjectParams(log_loadings=np.zeros((1, 2)), offsets=np.zeros(1)),
            tau=0.5,
        )
        _, _, g_lg = potential_grad(state, _toy_data(3, 1, 15))
        assert np.all(g_lg == 0.0)


    def test_with_potential_matches_separate_calls(self):
        # the evaluator's paired pass, which the last leapfrog step uses,
        # at toy size and at the full-scale workload's n=128, k=30, S=20
        cases = [(_generic_state(16), _toy_data(4, 2, 17))]
        n, k, s = 128, 30, 20
        state = _generic_state(18, n=n, k=k, s=s, tau=0.2)
        state = dataclasses.replace(
            state,
            subject_params=SubjectParams(
                log_loadings=np.random.default_rng(19).normal(3.0, 1.0, size=(s, k)),
                offsets=np.linspace(-4.0, 2.0, s),
            ),
        )
        cases.append((state, _toy_data(n, s, 20, density=0.2)))
        for state, data in cases:
            pos = msfactor.sampler._pack(state.subject_params, state.logits)
            u, grad = msfactor.sampler._evaluator(state, data)(pos, with_potential=True)
            assert u == potential(state, data)
            np.testing.assert_array_equal(grad, _force(state, data))

    def test_full_scale_central_differences(self):
        # n=128, k=30, S=3 with loadings and offsets large enough that the
        # log-odds saturate (|psi| > 30); sampled coordinates of all blocks
        n, k, s, tau = 128, 30, 3, 0.2
        rng = np.random.default_rng(2024)
        data = _toy_data(n, s, 2025, density=0.3)
        state = initial_state(data, k, tau, rng)
        state = dataclasses.replace(
            state,
            subject_params=SubjectParams(
                log_loadings=rng.normal(4.0, 1.5, size=(s, k)),
                offsets=np.array([-6.0, -1.0, 4.0]),
            ),
        )
        q = _frame_of(state)
        sp = state.subject_params
        psi = np.einsum("ik,sk,jk->sij", q, np.exp(sp.log_loadings), q)
        psi += sp.offsets[:, None, None]
        off = ~np.eye(n, dtype=bool)
        assert np.abs(psi[:, off]).max() > 30.0

        grad = np.concatenate([g.ravel() for g in potential_grad(state, data)])
        vec = _flatten(state)
        sizes = (s * k, s, n * k)
        starts = (0, s * k, s * k + s)
        coords = np.concatenate([
            start + rng.choice(size, size=min(6, size), replace=False)
            for start, size in zip(starts, sizes)
        ])
        h = 1e-5
        u0 = abs(potential(state, data))
        for i in coords:
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fd = (potential(_rebuild(state, vp), data) - potential(_rebuild(state, vm), data)) / (
                2 * h
            )
            # 1e-6 relative, plus the rounding of U (~9e4 here) in the difference
            allowed = 1e-6 * max(1.0, abs(fd)) + 10.0 * np.finfo(float).eps * u0 / h
            assert abs(grad[i] - fd) <= allowed, (i, grad[i], fd)


class TestCanonicalize:
    def test_potential_invariant_on_orbit(self):
        # relabelling every level's sides leaves U unchanged, with data and
        # without; the logits' gradient negates and the other blocks agree
        for seed in range(20):
            state = _generic_state(16 + seed)
            twin = dataclasses.replace(
                state,
                logits=-state.logits,
                values=ColumnValues(a=state.values.b, b=state.values.a),
                probs=MixtureProbs(p=1.0 - state.probs.p),
            )
            for data in (_toy_data(4, 2, 17 + seed), None):
                assert potential(twin, data) == pytest.approx(potential(state, data), rel=1e-12)
                g_ld, g_z, g_lg = potential_grad(state, data)
                t_ld, t_z, t_lg = potential_grad(twin, data)
                np.testing.assert_allclose(t_ld, g_ld, rtol=0.0, atol=1e-11)
                np.testing.assert_allclose(t_z, g_z, rtol=0.0, atol=1e-11)
                np.testing.assert_allclose(t_lg, -g_lg, rtol=0.0, atol=1e-11)


class TestLeapfrog:
    def test_reversible(self):
        rng = np.random.default_rng(18)
        pos = rng.standard_normal(3)
        vel = rng.standard_normal(3)
        omega = np.array([1.0, 2.0, 0.5])
        grad = lambda q: q
        p1, v1 = leapfrog(pos, vel, grad, 0.1, 25, omega)
        p2, v2 = leapfrog(p1, -v1, grad, 0.1, 25, omega)
        np.testing.assert_allclose(p2, pos, atol=1e-12)
        np.testing.assert_allclose(-v2, vel, atol=1e-12)

    def test_energy_error_second_order(self):
        # quadratic well, fixed horizon; halving h should quarter the error
        def energy_error(h):
            steps = round(2.0 / h)
            q = np.array([1.3])
            v = np.array([0.4])
            h0 = 0.5 * (q[0] ** 2 + v[0] ** 2)
            q1, v1 = leapfrog(q, v, lambda s: s, h, steps, np.ones(1))
            return abs(0.5 * (q1[0] ** 2 + v1[0] ** 2) - h0)

        hs = np.array([0.2, 0.1, 0.05, 0.025])
        errs = np.array([energy_error(h) for h in hs])
        assert np.all(np.diff(errs) < 0.0)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.9 < slope < 2.1

    def test_energy_drift_small_at_working_step(self):
        q1, v1 = leapfrog(np.array([1.3]), np.array([0.4]), lambda s: s, 0.1, 10, np.ones(1))
        h0 = 0.5 * (1.3**2 + 0.4**2)
        assert abs(0.5 * (q1[0] ** 2 + v1[0] ** 2) - h0) < 1e-2

    def test_volume_preserved(self):
        # the update is linear for a quadratic potential; its 4x4 matrix
        # over (position, velocity) must have unit determinant
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        omega = np.array([2.0, 0.5])
        cols = []
        for e in np.eye(4):
            p1, v1 = leapfrog(e[:2], e[2:], lambda q: a @ q, 0.3, 7, omega)
            cols.append(np.concatenate([p1, v1]))
        det = np.linalg.det(np.column_stack(cols))
        assert det == pytest.approx(1.0, abs=1e-10)

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            leapfrog(np.zeros(1), np.zeros(1), lambda q: q, 0.1, 0, np.ones(1))

    def test_gradient_exceptions_propagate(self):
        def broken(_):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            leapfrog(np.zeros(1), np.zeros(1), broken, 0.1, 3, np.ones(1))


class TestUpdates:
    def test_hmc_update_moves_or_stays(self):
        state = _generic_state(19)
        data = _toy_data(4, 2, 20)
        new, accepted = hmc_update(state, data, HmcConfig(step_size=0.05), np.random.default_rng(1))
        assert isinstance(accepted, bool) or accepted in (True, False)
        if not accepted:
            assert new is state

    def test_exchange_update_changes_only_values_and_rates(self):
        state = _generic_state(22)
        rng = np.random.default_rng(2)
        for _ in range(20):
            new, accepted = exchange_update(state, None, ExchangeConfig(window=0.25), rng)
            if accepted:
                break
        assert accepted
        np.testing.assert_array_equal(new.logits, state.logits)
        assert new.subject_params is state.subject_params
        assert not np.array_equal(new.probs.p, state.probs.p)

    def test_huge_step_rejects_without_crashing(self):
        data = _toy_data(6, 2, 31)
        init = initial_state(data, 2, 0.5, np.random.default_rng(3))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=1000.0, leapfrog_steps=10, warmup=0),
            ExchangeConfig(window=0.25),
            iterations=30,
            rng=np.random.default_rng(41),
        )
        assert log.hmc_accept.sum() == 0
        assert np.isfinite(log.u).all()


    def test_overflowing_frame_gradient_rejects(self, monkeypatch):
        # tiny loadings meet the loading prior's steep pull toward larger
        # values: one step of 0.8073 lands the log-loadings near 708, past
        # the log of float32's largest value (about 88.7), so the force's
        # float32 stage would overflow there; the trajectory rejects before
        # that position's likelihood or backward pass
        data = _toy_data(12, 2, 31)
        init = initial_state(data, 2, 0.5, np.random.default_rng(3))
        state = dataclasses.replace(
            init,
            subject_params=SubjectParams(
                log_loadings=np.full((2, 2), -10.0), offsets=init.subject_params.offsets
            ),
        )
        backward = []
        original = msfactor.sampler.whiten_backward

        def spy(passes, grad_q, grad_log_det):
            out = original(passes, grad_q, grad_log_det)
            backward.append((np.isfinite(grad_q).all(), np.isfinite(out).all()))
            return out

        monkeypatch.setattr(msfactor.sampler, "whiten_backward", spy)
        omega = np.ones(_flatten(state).size)
        out = msfactor.sampler._hmc_step(
            _Step(state, 1.5, None, "start"), data, np.random.default_rng(0), 0.8073, 1, omega
        )
        assert backward == [(True, True)]     # the start's pass alone
        assert out.outcome == "divergence"
        assert out.state is state
        assert out.outcome != "accepted"
        assert out.alpha == 0.0
        assert out.u == 1.5

    def test_trajectory_end_reuses_last_gradient_pass(self, monkeypatch):
        state = _generic_state(32)
        data = _toy_data(4, 2, 33)
        calls = []

        def recording(name):
            original = getattr(msfactor.sampler, name)

            def stage(data, q, *args):
                calls.append((name, q.copy()))   # the frame each stage runs on
                return original(data, q, *args)

            return stage

        for name in ("log_likelihood", "log_likelihood_grads"):
            monkeypatch.setattr(msfactor.sampler, name, recording(name))
        omega = np.ones(_flatten(state).size)
        u_cur = potential(state, data)
        calls.clear()
        out = msfactor.sampler._hmc_step(
            _Step(state, u_cur, None, "start"), data, np.random.default_rng(5), 0.05, 4, omega
        )
        names = [name for name, _ in calls]
        assert names == ["log_likelihood_grads"] * 5 + ["log_likelihood"]
        np.testing.assert_array_equal(calls[-1][1], calls[-2][1])
        assert out.outcome == "accepted"
        assert out.u == potential(out.state, data)


class TestCarriedGradient:
    """The chain hands each state's gradient from move to move."""

    WARMUP, ANNEAL_FROM, TAU = 10, 2.0, 0.5

    def _fit(self, monkeypatch, data, seed):
        # every odd annealing step refuses its temperature, so some
        # trajectories start right after a failed annealing step
        sampler = msfactor.sampler
        warmup, a0, tau = self.WARMUP, self.ANNEAL_FROM, self.TAU
        refused = {a0 + (tau - a0) * min(1.0, t / warmup) for t in range(1, warmup, 2)}
        steps, exchanges, requested = [], [], []
        hmc_step, exchange_step = sampler._hmc_step, sampler._exchange_step
        evaluator, leapfrog_ = sampler._evaluator, sampler.leapfrog

        def refusing_evaluator(state, data, *precision):
            if state.tau in refused:
                def refuse(v, with_potential=False, with_grad=True):
                    raise NotPositiveDefiniteError(0)
                return refuse
            return evaluator(state, data, *precision)

        def recording_hmc(cur, data, rng, step, n_steps, omega):
            carried = None if cur.grad is None else cur.grad.copy()
            out = hmc_step(cur, data, rng, step, n_steps, omega)
            steps.append((cur.state, carried, out.outcome == "accepted"))
            return out

        def recording_exchange(*args):
            out = exchange_step(*args)
            exchanges.append(out.outcome == "accepted")
            return out

        def counting_leapfrog(position, velocity, grad_fn, *args):
            def counted(v):
                if np.isfinite(v).all():
                    requested.append(v.size)
                return grad_fn(v)
            return leapfrog_(position, velocity, counted, *args)

        monkeypatch.setattr(sampler, "_evaluator", refusing_evaluator)
        monkeypatch.setattr(sampler, "_hmc_step", recording_hmc)
        monkeypatch.setattr(sampler, "_exchange_step", recording_exchange)
        monkeypatch.setattr(sampler, "leapfrog", counting_leapfrog)
        rng = np.random.default_rng(seed)
        init = initial_state(data, 2, tau, rng, n=6, n_subjects=2)
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=0.3, leapfrog_steps=4, warmup=warmup),
            ExchangeConfig(window=0.5),
            iterations=60,
            rng=rng,
            anneal_from=a0,
        )
        return log, steps, exchanges, requested

    @pytest.mark.parametrize("with_data", [True, False])
    def test_carried_gradient_equals_a_fresh_pass(self, monkeypatch, with_data):
        data = _toy_data(6, 2, 35) if with_data else None
        _, steps, exchanges, _ = self._fit(monkeypatch, data, seed=36)
        seen = set()
        for t, (state, carried, _) in enumerate(steps):
            annealed = t <= self.WARMUP and not (t % 2 == 1 and t < self.WARMUP)
            if not annealed and (t == 0 or exchanges[t - 1]):
                # the start, or an accepted exchange: nothing to carry
                assert carried is None
                continue
            assert carried is not None
            assert carried.tobytes() == _force(state, data).tobytes()
            if annealed:
                seen.add("annealing step")
            else:
                seen.add("accepted HMC" if steps[t - 1][2] else "rejected HMC")
                seen.add("rejected exchange")
                if t % 2 == 1 and t < self.WARMUP:
                    seen.add("failed annealing step")
        assert seen == {
            "annealing step", "accepted HMC", "rejected HMC",
            "rejected exchange", "failed annealing step",
        }

    def test_divergent_trajectory_carries_its_start_gradient(self):
        state = _generic_state(40)
        data = _toy_data(4, 2, 41)
        omega = np.ones(_flatten(state).size)
        u_cur = potential(state, data)
        fresh = _force(state, data)
        out = msfactor.sampler._hmc_step(
            _Step(state, u_cur, None, "start"), data, np.random.default_rng(42), 1000.0, 5, omega
        )
        assert out.state is state and out.outcome != "accepted"
        assert out.alpha == 0.0 and out.u == u_cur
        assert 1 <= out.evals < 6
        assert out.grad.tobytes() == fresh.tobytes()
        # the same trajectory from the carried gradient computes one pass fewer
        again = msfactor.sampler._hmc_step(
            _Step(state, u_cur, out.grad, "start"), data, np.random.default_rng(42), 1000.0, 5,
            omega,
        )
        assert again.state is state and again.grad is out.grad
        assert again.evals == out.evals - 1

    def test_gradient_counts_match_leapfrog_requests(self, monkeypatch):
        log, steps, _, requested = self._fit(monkeypatch, _toy_data(6, 2, 35), seed=36)
        assert log.meta["grads_reused"] == sum(carried is not None for _, carried, _ in steps)
        assert log.meta["grads_reused"] > 0
        assert log.meta["grad_evals"] + log.meta["grads_reused"] == len(requested)

    def test_evaluator_matches_potential_grad_across_positions(self):
        # one evaluator reuses its gradient vector from call to call, and
        # gives the force of a fresh pass at every position
        base = _generic_state(37, n=5, k=2, s=3)
        data = _toy_data(5, 3, 38)
        rng = np.random.default_rng(39)
        evaluate = msfactor.sampler._evaluator(base, data)
        vec = _flatten(base)
        positions = [vec + 0.3 * rng.standard_normal(vec.size) for _ in range(4)]
        saturated = vec.copy()
        saturated[-base.logits.size:] = 800.0 * base.tau * np.sign(base.logits.ravel())
        for v in positions + [saturated]:
            state = _rebuild(base, v)
            expected = _force(state, data)
            assert evaluate(v).tobytes() == expected.tobytes()
            u, grad = evaluate(v, with_potential=True)
            assert u == potential(state, data)
            assert grad.tobytes() == expected.tobytes()
            exact = np.concatenate([g.ravel() for g in potential_grad(state, data)])
            assert np.abs(grad - exact).max() <= _force_bound(exact)


def _full_scale_case(seed):
    """A state and dataset at the fullscale workload's n=128, k=30, S=20."""
    n, k, s = 128, 30, 20
    rng = np.random.default_rng(seed)
    state = dataclasses.replace(
        initial_state(None, k, 0.2, rng, n=n, n_subjects=s),
        subject_params=SubjectParams(
            log_loadings=rng.normal(3.0, 1.0, size=(s, k)), offsets=np.linspace(-4.0, 2.0, s),
        ),
    )
    return state, _toy_data(n, s, seed + 1, density=0.2)


class TestForce:
    """The trajectories integrate a force whose S x n x n stage is float32."""

    @pytest.mark.parametrize("case", ["toy", "full_scale"])
    def test_within_fixed_bound_of_exact_gradient(self, case):
        if case == "toy":
            cases = [(_generic_state(70 + i), _toy_data(4, 2, 80 + i)) for i in range(3)]
        else:
            cases = [_full_scale_case(90 + i) for i in range(2)]
        for state, data in cases:
            exact = np.concatenate([g.ravel() for g in potential_grad(state, data)])
            force = _force(state, data)
            assert force.tobytes() != exact.tobytes()    # the stage did run in float32
            assert np.abs(force - exact).max() <= _force_bound(exact)

    def test_prior_only_force_is_the_exact_gradient(self):
        # without data no likelihood stage runs, at either precision
        state = _generic_state(73)
        exact = np.concatenate([g.ravel() for g in potential_grad(state, None)])
        assert _force(state, None).tobytes() == exact.tobytes()

    def test_loading_past_float32_range_diverges(self):
        # exp(90) / 2 overflows float32: the force rejects that position,
        # while U and the exact gradient, in float64, still take it
        state, data = _generic_state(74), _toy_data(4, 2, 75)
        sp = state.subject_params
        log_loadings = sp.log_loadings.copy()
        log_loadings[0, 0] = 90.0
        state = dataclasses.replace(
            state, subject_params=SubjectParams(log_loadings=log_loadings, offsets=sp.offsets)
        )
        with pytest.raises(msfactor.sampler._DivergenceError):
            _force(state, data)
        assert np.isfinite(potential(state, data))
        assert all(np.isfinite(g).all() for g in potential_grad(state, data))

    def test_full_scale_trajectory_is_reversible(self):
        # forward, then back from the flipped velocity, under the force
        state, data = _full_scale_case(94)
        evaluate = msfactor.sampler._evaluator(state, data)
        pos = _flatten(state)
        vel = np.random.default_rng(95).standard_normal(pos.size)
        omega = np.ones(pos.size)
        p1, v1 = leapfrog(pos, vel, evaluate, 1e-3, 10, omega)
        assert np.abs(p1 - pos).max() > 0.1
        p2, v2 = leapfrog(p1, -v1, evaluate, 1e-3, 10, omega)
        assert np.abs(p2 - pos).max() <= 1e-12
        assert np.abs(v2 + vel).max() <= 1e-12


class _MetropolisDraw:
    """A Generator whose scalar uniform, the Metropolis draw of both moves,
    is u; sizes lists the shapes of its array uniforms."""

    def __init__(self, u, seed):
        self._rng, self._u, self.sizes = np.random.default_rng(seed), u, []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size=None):
        if size is None:
            return self._u
        self.sizes.append(size)
        return self._rng.random(size)


class TestOutcomes:
    """Each move names its outcome; every cause of rejection is forced once."""

    @staticmethod
    def _start(seed):
        state, data = _generic_state(seed), _toy_data(4, 2, seed + 1)
        return _Step(state, potential(state, data), None, "start"), data

    @staticmethod
    def _hmc(cur, data, rng, step=0.05):
        omega = np.ones(_flatten(cur.state).size)
        return msfactor.sampler._hmc_step(cur, data, rng, step, 4, omega)

    @staticmethod
    def _exchange(cur, data, rng, window=0.25):
        return msfactor.sampler._exchange_step(cur, data, rng, window)

    @staticmethod
    def _assert_kept(cur, out):
        assert out.state is cur.state and out.u == cur.u and out.grad is cur.grad

    def test_hmc_accepted(self):
        cur, data = self._start(60)
        out = self._hmc(cur, data, _MetropolisDraw(0.0, 62))
        assert out.outcome == "accepted" and 0.0 < out.alpha <= 1.0
        assert out.state is not cur.state and out.u == potential(out.state, data)

    def test_hmc_mh(self):
        cur, data = self._start(60)
        out = self._hmc(cur, data, _MetropolisDraw(1.0, 62))
        assert out.outcome == "mh" and 0.0 < out.alpha <= 1.0
        assert out.state is cur.state and out.u == cur.u and out.evals == 5

    def test_hmc_divergence(self):
        cur, data = self._start(60)
        out = self._hmc(cur, data, np.random.default_rng(63), step=1000.0)
        assert out.outcome == "divergence" and out.alpha == 0.0
        assert out.state is cur.state and out.u == cur.u

    def test_hmc_rank(self, monkeypatch):
        # the whitening fails at the trajectory's second gradient pass
        cur, data = self._start(60)
        fresh = _force(cur.state, data)
        whitened, passes = msfactor.sampler._whitened, []

        def failing_after_one_pass(x):
            passes.append(x)
            if len(passes) > 1:
                raise NotPositiveDefiniteError(1)
            return whitened(x)

        monkeypatch.setattr(msfactor.sampler, "_whitened", failing_after_one_pass)
        out = self._hmc(cur, data, np.random.default_rng(63))
        assert out.outcome == "rank" and out.alpha == 0.0 and len(passes) == 2
        assert out.evals == 1
        assert out.state is cur.state and out.u == cur.u
        assert out.grad.tobytes() == fresh.tobytes()

    def test_exchange_accepted(self):
        cur, data = self._start(64)
        cur = cur._replace(grad=np.zeros(_flatten(cur.state).size))
        out = self._exchange(cur, data, _MetropolisDraw(0.0, 66))
        assert out.outcome == "accepted" and out.grad is None
        assert not np.array_equal(out.state.values.a, cur.state.values.a)
        assert out.u == potential(out.state, data)

    def test_exchange_mh(self):
        cur, data = self._start(64)
        out = self._exchange(cur, data, _MetropolisDraw(1.0, 66))
        assert out.outcome == "mh"
        self._assert_kept(cur, out)

    def test_exchange_aux_exhausted(self, monkeypatch):
        # a_j - b_j of 1e-9 leaves every pattern's matrix below the pivot
        # floor, and the zero window keeps those values in the proposal
        state, data = _generic_state(64), _toy_data(4, 2, 65)
        state = dataclasses.replace(
            state, values=ColumnValues(a=np.array([1.0, 2.0]), b=np.array([1.0, 2.0]) + 1e-9)
        )
        assert not rank_ok(build_x(state.hard_weights(), state.values))
        cur = _Step(state, 0.0, None, "start")
        rng = _MetropolisDraw(0.0, 66)
        monkeypatch.setattr(msfactor.sampler, "AUX_ATTEMPTS", 1)
        out = self._exchange(cur, data, rng, window=0.0)
        assert out.outcome == "aux_exhausted"
        assert rng.sizes == [(4, 2)]     # one auxiliary pattern drawn
        self._assert_kept(cur, out)

    def test_exchange_reverse_rank(self, monkeypatch):
        cur, data = self._start(64)
        monkeypatch.setattr(msfactor.sampler, "rank_ok", lambda x: False)
        out = self._exchange(cur, data, _MetropolisDraw(0.0, 66))
        assert out.outcome == "reverse_rank"
        self._assert_kept(cur, out)

    def test_exchange_rank(self, monkeypatch):
        cur, data = self._start(64)

        def unwhitenable(state, data):
            raise NotPositiveDefiniteError(1)

        monkeypatch.setattr(msfactor.sampler, "potential", unwhitenable)
        out = self._exchange(cur, data, _MetropolisDraw(0.0, 66))
        assert out.outcome == "rank"
        self._assert_kept(cur, out)

    def test_exchange_divergence(self, monkeypatch):
        cur, data = self._start(64)
        monkeypatch.setattr(msfactor.sampler, "potential", lambda state, data: np.nan)
        out = self._exchange(cur, data, _MetropolisDraw(0.0, 66))
        assert out.outcome == "divergence"
        self._assert_kept(cur, out)


class TestExchangeTargets:
    def test_rate_posterior_with_intractable_support_constraint(self):
        """Long-run rate moments match quadrature on an enumerated target.

        Three nodes, two levels, weights pinned by saturated logits and a
        zero proposal window, so only the rates move.  Some assignment
        patterns are rank-deficient, which makes the support-restricted
        normalizer a genuine function of the rates; the move must hit the
        restricted target without ever evaluating that normalizer.
        """
        n, k = 3, 2
        values = ColumnValues(a=np.array([0.9, 1.7]), b=np.array([-1.1, 0.4]))
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

        patterns = []
        for bits in range(2 ** (n * k)):
            w = np.array(
                [(bits >> t) & 1 for t in range(n * k)], dtype=np.float64
            ).reshape(n, k)
            patterns.append((w, rank_ok(build_x(w, values))))
        assert sum(ok for _, ok in patterns) == 60

        m = 800
        grid = (np.arange(m) + 0.5) / m
        p1g, p2g = np.meshgrid(grid, grid, indexing="ij")

        def mass(s1, s2):
            return (
                p1g**s1 * (1 - p1g) ** (n - s1) * p2g**s2 * (1 - p2g) ** (n - s2)
            )

        norm_fn = np.zeros_like(p1g)
        for w, ok in patterns:
            if ok:
                s1, s2 = w.sum(axis=0)
                norm_fn += mass(s1, s2)
        target = mass(2, 2) / norm_fn
        total = target.sum()
        want = {
            "p1": (target * p1g).sum() / total,
            "p2": (target * p2g).sum() / total,
            "p1_sq": (target * p1g**2).sum() / total,
        }

        tau = 0.5
        init = ChainState(
            logits=tau * 800.0 * (2.0 * w0 - 1.0),
            values=values,
            probs=MixtureProbs(p=np.full(k, 0.5)),
            subject_params=SubjectParams(log_loadings=np.zeros((1, k)), offsets=np.zeros(1)),
            tau=tau,
        )
        log = run_chain(
            data=None,
            init=init,
            hmc_cfg=HmcConfig(step_size=0.1, leapfrog_steps=1, warmup=0),
            exch_cfg=ExchangeConfig(window=0.0),
            iterations=12000,
            rng=np.random.default_rng(3),
        )
        # the construction only stands while the assignments stay pinned
        assert np.all(log.w_hard == w0[None])
        assert np.all(log.a == values.a) and np.all(log.b == values.b)

        got = {
            "p1": log.p[:, 0],
            "p2": log.p[:, 1],
            "p1_sq": log.p[:, 0] ** 2,
        }
        for key, series in got.items():
            mcse = series.std() / math.sqrt(ess_batch_means(series))
            assert series.mean() == pytest.approx(want[key], abs=4 * mcse)

    def test_move_never_enumerates_patterns(self):
        src = inspect.getsource(msfactor.sampler)
        assert "itertools" not in src
        assert "product(" not in src
        assert "combinations" not in src

    def test_zero_window_freezes_values(self):
        init = initial_state(None, 1, 0.5, np.random.default_rng(2), n=4, n_subjects=1)
        log = run_chain(
            data=None,
            init=init,
            hmc_cfg=HmcConfig(step_size=0.05, leapfrog_steps=3, warmup=100),
            exch_cfg=ExchangeConfig(window=0.0),
            iterations=400,
            rng=np.random.default_rng(21),
        )
        assert np.all(log.a == init.values.a)
        assert np.all(log.b == init.values.b)
        assert np.unique(log.p).size > 10

    def test_auxiliary_exhaustion_is_survivable(self, monkeypatch):
        # with one rejection attempt some moves must be skipped, not fail
        monkeypatch.setattr(msfactor.sampler, "AUX_ATTEMPTS", 1)
        values = ColumnValues(a=np.array([0.9, 1.7]), b=np.array([-1.1, 0.4]))
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        init = ChainState(
            logits=0.5 * 800.0 * (2.0 * w0 - 1.0),
            values=values,
            probs=MixtureProbs(p=np.full(2, 0.5)),
            subject_params=SubjectParams(log_loadings=np.zeros((1, 2)), offsets=np.zeros(1)),
            tau=0.5,
        )
        log = run_chain(
            data=None,
            init=init,
            hmc_cfg=HmcConfig(step_size=0.1, leapfrog_steps=1, warmup=0),
            exch_cfg=ExchangeConfig(window=0.0),
            iterations=200,
            rng=np.random.default_rng(9),
        )
        assert log.exch_skipped.sum() > 0
        assert log.exch_accept.sum() > 0
        assert log.n_draws == 200


class TestInitialState:
    def test_from_data(self):
        data = _toy_data(8, 3, 23)
        state = initial_state(data, 2, 0.5, np.random.default_rng(5))
        assert state.n_nodes == 8
        assert state.subject_params.n_subjects == 3
        np.testing.assert_allclose(
            state.subject_params.offsets, logit(data.edge_density()), atol=1e-12
        )
        assert rank_ok(build_x(state.relaxed_weights(), state.values))

    def test_without_data_needs_dimensions(self):
        with pytest.raises(InitializationError):
            initial_state(None, 2, 0.5, np.random.default_rng(0))

    def test_impossible_geometry_exhausts(self):
        # two nodes cannot support two distinct +-1 columns
        with pytest.raises(InitializationError, match="full-rank"):
            initial_state(
                None, 2, 0.5, np.random.default_rng(0), n=2, n_subjects=1
            )

    def test_exhausted_start_names_the_draws_made(self, monkeypatch):
        prior = msfactor.prior
        draws = []

        def counting(n, k, rng):
            draws.append(1)
            return random_partition(n, k, rng)

        monkeypatch.setattr(prior, "PARTITION_ATTEMPTS", 7)
        monkeypatch.setattr(prior, "random_partition", counting)
        with pytest.raises(InitializationError) as err:
            initial_state(None, 2, 0.5, np.random.default_rng(0), n=2, n_subjects=1)
        assert len(draws) == 7
        assert f"in {len(draws)} attempts" in str(err.value)


class TestRunChain:
    def _quick(self, seed, iterations=30, warmup=10, thin=1):
        data = _toy_data(4, 2, 25)
        init = initial_state(data, 2, 0.5, np.random.default_rng(6))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=0.05, leapfrog_steps=3, warmup=warmup),
            ExchangeConfig(window=0.25),
            iterations=iterations,
            rng=np.random.default_rng(seed),
            thin=thin,
        )
        return log

    def test_deterministic(self):
        one = self._quick(7)
        two = self._quick(7)
        np.testing.assert_array_equal(one.u, two.u)
        np.testing.assert_array_equal(one.a, two.a)
        np.testing.assert_array_equal(one.p, two.p)
        np.testing.assert_array_equal(one.w_hard, two.w_hard)

    def test_thinning_keeps_every_third(self):
        log = self._quick(8, iterations=10, warmup=0, thin=3)
        np.testing.assert_array_equal(log.iterations, [0, 3, 6, 9])

    @pytest.mark.parametrize("step_size", [0.01, 0.05])
    def test_no_warmup_runs_at_the_configured_step(self, step_size):
        # exp(log(0.01)) is 0.010000000000000004, so the step must not
        # pass through the dual-averaging log scale
        data = _toy_data(4, 2, 25)
        init = initial_state(data, 2, 0.5, np.random.default_rng(6))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=step_size, leapfrog_steps=3, warmup=0),
            ExchangeConfig(window=0.25),
            iterations=5,
            rng=np.random.default_rng(7),
        )
        assert np.all(log.step_sizes == step_size)
        assert log.meta["final_step_size"] == step_size

    def test_each_row_records_the_step_its_trajectory_ran_at(self, monkeypatch):
        # the step freezes after the moves of iteration warmup, so that
        # iteration's trajectory runs at the last adapted step
        warmup, ran = 10, []
        hmc_step = msfactor.sampler._hmc_step

        def recording(cur, data, rng, step, n_steps, omega):
            ran.append(step)
            return hmc_step(cur, data, rng, step, n_steps, omega)

        monkeypatch.setattr(msfactor.sampler, "_hmc_step", recording)
        data = _toy_data(4, 2, 26)
        log = run_chain(
            data,
            initial_state(data, 2, 0.5, np.random.default_rng(8)),
            HmcConfig(step_size=0.05, leapfrog_steps=3, warmup=warmup),
            ExchangeConfig(window=0.25),
            iterations=16,
            rng=np.random.default_rng(9),
        )
        assert log.step_sizes.tolist() == ran[warmup:]
        frozen = log.meta["final_step_size"]
        assert log.step_sizes[0] != frozen
        assert np.all(log.step_sizes[1:] == frozen)

    def test_zero_iterations(self):
        log = self._quick(9, iterations=0, warmup=0)
        assert log.n_draws == 0

    def test_recorded_energy_matches_state(self, monkeypatch):
        # each iteration ends with the exchange move, so with warmup 0 and
        # thin 1 the states it returns are the recorded ones, in order
        visited = []
        exchange_step = msfactor.sampler._exchange_step

        def capture(*args, **kwargs):
            out = exchange_step(*args, **kwargs)
            visited.append(out[0])
            return out

        monkeypatch.setattr(msfactor.sampler, "_exchange_step", capture)
        log = self._quick(10, iterations=20, warmup=0)
        assert len(visited) == log.n_draws == 20
        data = _toy_data(4, 2, 25)
        for t, state in enumerate(visited):
            np.testing.assert_array_equal(log.a[t], state.values.a)
            np.testing.assert_array_equal(log.b[t], state.values.b)
            np.testing.assert_array_equal(log.p[t], state.probs.p)
            np.testing.assert_array_equal(log.offsets[t], state.subject_params.offsets)
            np.testing.assert_array_equal(log.log_loadings[t], state.subject_params.log_loadings)
            np.testing.assert_array_equal(log.w_hard[t], state.hard_weights())
            assert potential(state, data) == pytest.approx(log.u[t], rel=1e-6, abs=1e-6)

    def test_annealing_path_runs(self):
        init = initial_state(None, 1, 0.5, np.random.default_rng(11), n=4, n_subjects=1)
        log = run_chain(
            data=None,
            init=init,
            hmc_cfg=HmcConfig(step_size=0.05, leapfrog_steps=2, warmup=20),
            exch_cfg=ExchangeConfig(window=0.1),
            iterations=40,
            rng=np.random.default_rng(12),
            anneal_from=5.0,
        )
        assert log.n_draws == 20
        assert np.isfinite(log.u).all()

    @staticmethod
    def _annealed(data, init, anneal_from, seed=9):
        return run_chain(
            data,
            init,
            HmcConfig(step_size=0.05, leapfrog_steps=3, warmup=10),
            ExchangeConfig(window=0.25),
            iterations=30,
            rng=np.random.default_rng(seed),
            anneal_from=anneal_from,
        )

    def test_only_the_exchange_move_calls_rank_ok(self, monkeypatch):
        # the start and each annealing step are rank-tested by the
        # whitening that computes their potential
        inside, outside = [], []
        exchange, test = msfactor.sampler._exchange_step, msfactor.sampler.rank_ok
        in_exchange = []

        def counting_rank_ok(x):
            (inside if in_exchange else outside).append(x.shape)
            return test(x)

        def tracked_exchange(*args):
            in_exchange.append(True)
            try:
                return exchange(*args)
            finally:
                in_exchange.pop()

        monkeypatch.setattr(msfactor.sampler, "rank_ok", counting_rank_ok)
        monkeypatch.setattr(msfactor.sampler, "_exchange_step", tracked_exchange)
        data = _toy_data(4, 2, 25)
        init = initial_state(data, 2, 0.5, np.random.default_rng(6))
        self._annealed(data, init, anneal_from=2.0)
        assert outside == []
        assert inside

    def test_unwhitenable_annealing_step_keeps_state_and_potential(self, monkeypatch):
        # if no retempered state can be whitened, the chain never leaves
        # the target temperature and equals the chain without annealing
        data = _toy_data(4, 2, 25)
        init = initial_state(data, 2, 0.5, np.random.default_rng(6))
        plain = self._annealed(data, init, anneal_from=None)
        original = msfactor.sampler.potential
        original_evaluator = msfactor.sampler._evaluator
        refused = []

        def potential_at_target_only(state, data):
            if state.tau != init.tau:
                refused.append(state.tau)
                raise NotPositiveDefiniteError(0)
            return original(state, data)

        def evaluator_at_target_only(state, data):
            evaluate = original_evaluator(state, data)

            def refusing(v, with_potential=False, with_grad=True):
                if state.tau != init.tau:
                    refused.append(state.tau)
                    raise NotPositiveDefiniteError(0)
                return evaluate(v, with_potential, with_grad)

            return refusing

        monkeypatch.setattr(msfactor.sampler, "potential", potential_at_target_only)
        monkeypatch.setattr(msfactor.sampler, "_evaluator", evaluator_at_target_only)
        annealed = self._annealed(data, init, anneal_from=2.0)
        assert len(refused) == 10
        for f in dataclasses.fields(SampleLog):
            if f.name != "meta":
                np.testing.assert_array_equal(
                    getattr(annealed, f.name), getattr(plain, f.name)
                )
        assert annealed.meta == plain.meta

    def test_exchange_window_adapts_after_each_50_warmup_iterations(self, monkeypatch):
        windows = []

        def refusing_exchange(cur, data, rng, window):
            windows.append(window)
            return _Step(cur.state, cur.u, cur.grad, "mh")

        monkeypatch.setattr(msfactor.sampler, "_exchange_step", refusing_exchange)
        data = _toy_data(4, 2, 25)
        init = initial_state(data, 2, 0.5, np.random.default_rng(6))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=0.05, leapfrog_steps=1, warmup=100),
            ExchangeConfig(window=0.25),
            iterations=120,
            rng=np.random.default_rng(3),
        )
        # a block of 50 with no acceptance shrinks the window once
        shrink = math.exp(0.8 * -0.35)
        expected = [0.25] * 50 + [0.25 * shrink] * 50 + [0.25 * shrink**2] * 20
        np.testing.assert_allclose(windows, expected, rtol=1e-12)
        assert log.meta["window_scale"] == pytest.approx(shrink**2, rel=1e-12)

    def test_meta_counts_saturated_logits_and_flips(self):
        data = _toy_data(6, 2, 43)
        init = initial_state(data, 2, 0.5, np.random.default_rng(44))
        saturated = np.zeros(init.logits.shape, dtype=bool)
        saturated[:4] = True    # 8 of the 12 logits, |l / tau| = 100
        sign = np.where(init.logits >= 0.0, 1.0, -1.0)
        logits = sign * np.where(saturated, 100.0, 0.02) * init.tau
        log = run_chain(
            data,
            dataclasses.replace(init, logits=logits),
            HmcConfig(step_size=0.01, leapfrog_steps=5, warmup=0),
            ExchangeConfig(window=0.25),
            iterations=40,
            rng=np.random.default_rng(45),
        )
        assert msfactor.sampler.SATURATED_LOGIT == 30.0
        assert log.meta["saturated_logit_share"] == 8 / 12
        flips = sum(
            int(np.count_nonzero(row != prev)) for prev, row in zip(log.w_hard, log.w_hard[1:])
        )
        assert log.meta["w_flips"] == flips > 0
        assert (log.w_hard[:, saturated] == log.w_hard[0, saturated]).all()

    def test_rank_deficient_start_rejected(self):
        w_bad = np.ones((3, 2))
        init = ChainState(
            logits=0.5 * 800.0 * (2.0 * w_bad - 1.0),
            values=ColumnValues(a=np.ones(2), b=-np.ones(2)),
            probs=MixtureProbs(p=np.full(2, 0.5)),
            subject_params=SubjectParams(log_loadings=np.zeros((1, 2)), offsets=np.zeros(1)),
            tau=0.5,
        )
        with pytest.raises(InitializationError):
            run_chain(
                None, init, HmcConfig(), ExchangeConfig(), 10, np.random.default_rng(0)
            )

    def test_argument_validation(self):
        data = _toy_data(4, 2, 25)
        init = initial_state(data, 2, 0.5, np.random.default_rng(6))
        with pytest.raises(ValueError, match="iterations"):
            run_chain(data, init, HmcConfig(), ExchangeConfig(), -1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="thin"):
            run_chain(
                data, init, HmcConfig(), ExchangeConfig(), 10, np.random.default_rng(0), thin=0
            )
        with pytest.raises(ValueError, match="anneal"):
            run_chain(
                data,
                init,
                HmcConfig(),
                ExchangeConfig(),
                10,
                np.random.default_rng(0),
                anneal_from=0.0,
            )


class TestStepSize:
    def test_dual_averaging_follows_its_recursion_and_freezes(self):
        step0, target, warmup = 0.05, msfactor.sampler.TARGET_ACCEPT, 300
        alphas = np.random.default_rng(50).uniform(size=warmup)
        alphas[::7], alphas[3::11] = 0.0, 1.0
        part = msfactor.sampler._StepSize(step0, warmup)
        # Hoffman & Gelman 2014, section 3.2, with gamma 0.05, t0 10, kappa 0.75
        mu, log_avg, stat = np.log(10.0 * step0), np.log(step0), 0.0
        for t, alpha in enumerate(alphas.tolist()):
            part.update(t, alpha)
            t1 = t + 1
            stat += (target - alpha - stat) / (t1 + 10.0)
            log_step = mu - np.sqrt(t1) / 0.05 * stat
            eta = t1 ** (-0.75)
            log_avg = eta * log_step + (1.0 - eta) * log_avg
            assert part.step == float(np.exp(log_step))
        for t, alpha in [(warmup, 0.0), (warmup + 1, 1.0), (warmup + 50, 0.3)]:
            part.update(t, alpha)
            assert part.step == float(np.exp(log_avg))


class TestKineticDiagonal:
    def test_refreshes_from_the_position_variance(self):
        base = _generic_state(51)
        m, warmup = _flatten(base).size, 200
        # the widest coordinates reach the 1e4 clip
        positions = np.random.default_rng(52).standard_normal((warmup, m))
        positions *= np.geomspace(1e-3, 1e3, m)
        part = msfactor.sampler._KineticDiagonal(m, warmup)
        for t, pos in enumerate(positions):
            part.update(t, _rebuild(base, pos))
            if t + 1 in (100, 150):
                collected = positions[warmup // 10:t + 1]
                c = len(collected)
                var = np.var(collected, axis=0, ddof=1)
                expected = np.clip((c * var + 5.0) / (c + 5.0), 1e-4, 1e4)
                assert (expected == 1e4).any()
                np.testing.assert_allclose(part.omega, expected, rtol=1e-12)
                refreshed = part.omega.copy()
            elif t + 1 < 100:
                assert (part.omega == 1.0).all()
            else:
                assert part.omega.tobytes() == refreshed.tobytes()

    def test_short_warmup_keeps_unit_omega(self):
        # refreshes at 6 and 9 hold 5 and 8 positions, too few to refresh
        base = _generic_state(53)
        m, warmup = _flatten(base).size, 12
        rng = np.random.default_rng(54)
        part = msfactor.sampler._KineticDiagonal(m, warmup)
        for t in range(warmup):
            part.update(t, _rebuild(base, 10.0 * rng.standard_normal(m)))
            assert (part.omega == 1.0).all()


class TestExchangeWindow:
    def test_scale_moves_only_after_each_block_of_50(self):
        part = msfactor.sampler._ExchangeWindow()
        accepted = np.random.default_rng(55).random(300) < 0.4
        scale = 1.0
        for t, acc in enumerate(accepted):
            before = part.scale
            part.update(t, acc)
            if (t + 1) % 50:
                assert part.scale == before
            else:
                rate = accepted[t - 49:t + 1].sum() / 50.0
                scale *= math.exp(0.8 * (rate - 0.35))
                assert part.scale == pytest.approx(scale, rel=1e-12)

    def test_accepts_grow_the_scale_until_it_clips(self):
        part = msfactor.sampler._ExchangeWindow()
        for t in range(50):
            part.update(t, True)
        assert part.scale == pytest.approx(math.exp(0.8 * 0.65), rel=1e-12)
        for t in range(50, 50 * 12):
            part.update(t, True)
        assert part.scale == 40.0
        for t in range(50 * 12, 50 * 60):
            part.update(t, False)
        assert part.scale == 0.01


class TestConfigValidation:
    def test_hmc_config(self):
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.0)
        with pytest.raises(ValueError):
            HmcConfig(leapfrog_steps=0)
        with pytest.raises(ValueError):
            HmcConfig(warmup=-1)

    def test_exchange_config(self):
        with pytest.raises(ValueError):
            ExchangeConfig(window=-0.1)
        ExchangeConfig(window=0.0)

    def test_state_validation(self):
        values = ColumnValues(a=np.ones(2), b=-np.ones(2))
        probs = MixtureProbs(p=np.full(2, 0.5))
        sp = SubjectParams(log_loadings=np.zeros((1, 2)), offsets=np.zeros(1))
        with pytest.raises(ValueError):
            ChainState(logits=np.zeros((4, 3)), values=values, probs=probs,
                       subject_params=sp, tau=0.5)
        with pytest.raises(ValueError):
            ChainState(logits=np.zeros((4, 2)), values=values, probs=probs,
                       subject_params=sp, tau=0.0)
        with pytest.raises(ValueError):
            ChainState(
                logits=np.zeros((4, 2)),
                values=values,
                probs=MixtureProbs(p=np.full(3, 0.5)),
                subject_params=sp,
                tau=0.5,
            )

    def test_weight_views(self):
        state = ChainState(
            logits=np.array([[1.0], [-2.0], [0.0]]),
            values=ColumnValues(a=np.ones(1), b=-np.ones(1)),
            probs=MixtureProbs(p=np.array([0.5])),
            subject_params=SubjectParams(log_loadings=np.zeros((1, 1)), offsets=np.zeros(1)),
            tau=2.0,
        )
        np.testing.assert_allclose(
            state.relaxed_weights(), expit(np.array([[0.5], [-1.0], [0.0]])), atol=1e-15
        )
        np.testing.assert_array_equal(state.hard_weights(), [[1.0], [0.0], [0.0]])


class TestSampleLogCsv:
    def test_round_trip_exact(self, tmp_path):
        data = _toy_data(4, 2, 25)
        init = initial_state(data, 2, 0.5, np.random.default_rng(6))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=0.05, leapfrog_steps=3, warmup=10),
            ExchangeConfig(window=0.25),
            iterations=40,
            rng=np.random.default_rng(13),
        )
        trace = tmp_path / "trace.csv"
        w_trace = tmp_path / "w_trace.csv"
        log.to_csv(trace, w_trace)
        back = SampleLog.from_csv(trace, w_trace)
        for f in dataclasses.fields(SampleLog):
            if f.name != "meta":
                got, expected = getattr(back, f.name), getattr(log, f.name)
                np.testing.assert_array_equal(got, expected, err_msg=f.name)
                assert got.dtype == expected.dtype, f.name
                assert got.shape == expected.shape, f.name
                # reductions over these sum in memory order, as on run_chain's arrays
                assert got.flags["C_CONTIGUOUS"], f.name

    def test_header_names(self, tmp_path):
        data = _toy_data(3, 1, 27)
        init = initial_state(data, 1, 0.5, np.random.default_rng(8))
        log = run_chain(
            data,
            init,
            HmcConfig(warmup=0),
            ExchangeConfig(),
            iterations=2,
            rng=np.random.default_rng(14),
        )
        trace = tmp_path / "trace.csv"
        w_trace = tmp_path / "w_trace.csv"
        log.to_csv(trace, w_trace)
        header = trace.read_text().splitlines()[0].split(",")
        assert header[:5] == ["iteration", "U", "hmc_accept", "exch_accept", "h"]
        assert "a_1" in header and "p_1" in header and "z_1" in header
        assert "logd_1_1" in header
        w_header = w_trace.read_text().splitlines()[0].split(",")
        assert w_header == ["iteration", "w_0_1", "w_1_1", "w_2_1"]

    def test_exch_skipped_round_trip(self, tmp_path, monkeypatch):
        # one auxiliary attempt per move, so some moves are skipped
        monkeypatch.setattr(msfactor.sampler, "AUX_ATTEMPTS", 1)
        values = ColumnValues(a=np.array([0.9, 1.7]), b=np.array([-1.1, 0.4]))
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        init = ChainState(
            logits=0.5 * 800.0 * (2.0 * w0 - 1.0),
            values=values,
            probs=MixtureProbs(p=np.full(2, 0.5)),
            subject_params=SubjectParams(log_loadings=np.zeros((1, 2)), offsets=np.zeros(1)),
            tau=0.5,
        )
        log = run_chain(
            data=None,
            init=init,
            hmc_cfg=HmcConfig(step_size=0.1, leapfrog_steps=1, warmup=0),
            exch_cfg=ExchangeConfig(window=0.0),
            iterations=60,
            rng=np.random.default_rng(9),
        )
        assert 0 < log.exch_skipped.sum() < log.n_draws
        trace = tmp_path / "trace.csv"
        w_trace = tmp_path / "w_trace.csv"
        log.to_csv(trace, w_trace)
        back = SampleLog.from_csv(trace, w_trace)
        np.testing.assert_array_equal(back.exch_skipped, log.exch_skipped)

    @staticmethod
    def _reference_trace(log, path):
        """Per-cell writer the one-call trace writer must match byte for byte."""
        k = log.a.shape[1]
        s = log.offsets.shape[1]
        cols = ["iteration", "U", "hmc_accept", "exch_accept", "h", "exch_skipped"]
        cols += [f"a_{j + 1}" for j in range(k)]
        cols += [f"b_{j + 1}" for j in range(k)]
        cols += [f"p_{j + 1}" for j in range(k)]
        cols += [f"z_{i + 1}" for i in range(s)]
        cols += [f"logd_{i + 1}_{j + 1}" for i in range(s) for j in range(k)]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for t in range(log.n_draws):
                row = [
                    str(int(log.iterations[t])),
                    format(log.u[t], ".17g"),
                    str(int(log.hmc_accept[t])),
                    str(int(log.exch_accept[t])),
                    format(log.step_sizes[t], ".17g"),
                    str(int(log.exch_skipped[t])),
                ]
                row += [format(v, ".17g") for v in log.a[t]]
                row += [format(v, ".17g") for v in log.b[t]]
                row += [format(v, ".17g") for v in log.p[t]]
                row += [format(v, ".17g") for v in log.offsets[t]]
                row += [format(v, ".17g") for v in log.log_loadings[t].ravel()]
                fh.write(",".join(row) + "\n")

    @pytest.mark.parametrize("case", ["edge_values", "thinned", "no_draws"])
    def test_trace_bytes_match_per_cell_writer(self, tmp_path, case):
        data = _toy_data(6, 3, 33)
        init = initial_state(data, 2, 0.5, np.random.default_rng(7))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=0.05, leapfrog_steps=2, warmup=4),
            ExchangeConfig(window=0.25),
            iterations=4 if case == "no_draws" else 16,
            rng=np.random.default_rng(23),
            thin=3 if case == "thinned" else 1,
        )
        assert log.n_draws == {"edge_values": 12, "thinned": 4, "no_draws": 0}[case]
        if case == "edge_values":
            # values a chain rarely visits, and iteration numbers past 2^31
            edge = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0 / 3.0,
                    np.inf, -np.inf, np.nan, 0.1, 123456789.0]
            log.u[:] = edge
            log.step_sizes[:] = edge[::-1]
            log.a[:, 0] = edge
            log.b[:, 1] = edge[::-1]
            log.p[:, 0] = 1.0 / 3.0
            log.offsets[:, 2] = edge
            log.log_loadings[:, 1, 0] = edge
            log.hmc_accept[:] = np.arange(12) % 2 == 0
            log.exch_skipped[:] = np.arange(12) % 3 == 0
            log.iterations[:] = 2**31 - 6 + np.arange(12) * (2**33 + 1)
        log.to_csv(tmp_path / "trace.csv", tmp_path / "w_trace.csv")
        self._reference_trace(log, tmp_path / "reference.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @staticmethod
    def _reference_w_trace(log, path):
        """Per-cell writer the buffered w_trace writer must match byte for byte."""
        k = log.a.shape[1]
        sel = range(log.w_hard.shape[1])
        with open(path, "w") as fh:
            fh.write(",".join(["iteration"] + [f"w_{i}_{j + 1}" for i in sel for j in range(k)]) + "\n")
            for t in range(log.n_draws):
                row = [str(int(log.iterations[t]))]
                row += [str(int(log.w_hard[t, i, j])) for i in sel for j in range(k)]
                fh.write(",".join(row) + "\n")

    def test_w_trace_bytes_match_per_cell_writer(self, tmp_path):
        data = _toy_data(7, 2, 29)
        init = initial_state(data, 3, 0.5, np.random.default_rng(4))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=0.05, leapfrog_steps=2, warmup=5),
            ExchangeConfig(window=0.25),
            iterations=25,
            rng=np.random.default_rng(17),
        )
        rng = np.random.default_rng(3)
        # patterns that vary from draw to draw and iteration numbers of
        # several widths
        log.w_hard[:] = rng.random(log.w_hard.shape) < 0.5
        log.iterations[:] = np.arange(log.n_draws) * 7 + 5
        log.to_csv(tmp_path / "trace.csv", tmp_path / "w_trace.csv")
        self._reference_w_trace(log, tmp_path / "reference.csv")
        assert (tmp_path / "w_trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @staticmethod
    def _reference_from_csv(trace_path, w_trace_path):
        """Per-cell reader the loadtxt reader must match array for array."""
        with open(trace_path) as fh:
            header = fh.readline().strip().split(",")
            body = [line.strip().split(",") for line in fh if line.strip()]
        col = {name: idx for idx, name in enumerate(header)}
        k = sum(1 for name in header if name.startswith("a_"))
        s = sum(1 for name in header if name.startswith("z_"))
        raw = np.asarray(body, dtype=np.float64) if body else np.empty((0, len(header)))
        t_n = raw.shape[0]
        ld = np.empty((t_n, s, k))
        for i in range(s):
            for j in range(k):
                ld[:, i, j] = raw[:, col[f"logd_{i + 1}_{j + 1}"]]
        with open(w_trace_path) as fh:
            w_header = fh.readline().strip().split(",")
            w_body = [line.strip().split(",") for line in fh if line.strip()]
        w_raw = np.asarray(w_body, dtype=np.float64) if w_body else np.empty((0, len(w_header)))
        n = len(w_header[1:]) // k
        w_col = {name: idx for idx, name in enumerate(w_header)}
        w_hard = np.zeros((t_n, n, k))
        for i in range(n):
            for j in range(k):
                w_hard[:, i, j] = w_raw[:, w_col[f"w_{i}_{j + 1}"]]
        return {
            "iterations": raw[:, col["iteration"]].astype(np.int64),
            "u": raw[:, col["U"]],
            "hmc_accept": raw[:, col["hmc_accept"]].astype(bool),
            "exch_accept": raw[:, col["exch_accept"]].astype(bool),
            "exch_skipped": raw[:, col["exch_skipped"]].astype(bool),
            "step_sizes": raw[:, col["h"]],
            "a": raw[:, [col[f"a_{j + 1}"] for j in range(k)]],
            "b": raw[:, [col[f"b_{j + 1}"] for j in range(k)]],
            "p": raw[:, [col[f"p_{j + 1}"] for j in range(k)]],
            "offsets": raw[:, [col[f"z_{i + 1}"] for i in range(s)]],
            "log_loadings": ld,
            "w_hard": w_hard,
        }

    @pytest.mark.parametrize("iterations, warmup", [(30, 10), (12, 12)])
    def test_reader_matches_per_cell_reader(self, tmp_path, iterations, warmup):
        data = _toy_data(6, 3, 31)
        init = initial_state(data, 2, 0.5, np.random.default_rng(5))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=0.05, leapfrog_steps=2, warmup=warmup),
            ExchangeConfig(window=0.25),
            iterations=iterations,
            rng=np.random.default_rng(19),
        )
        assert log.n_draws == iterations - warmup
        trace = tmp_path / "trace.csv"
        w_trace = tmp_path / "w_trace.csv"
        log.to_csv(trace, w_trace)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = SampleLog.from_csv(trace, w_trace)
        reference = self._reference_from_csv(trace, w_trace)
        for name, expected in reference.items():
            got = getattr(back, name)
            assert got.dtype == expected.dtype, name
            assert got.shape == expected.shape, name
            np.testing.assert_array_equal(got, expected, err_msg=name)
        # reductions over these sum in memory order, so the summaries
        # depend on their layout, which is C order in run_chain's logs
        assert back.log_loadings.flags["C_CONTIGUOUS"]
        assert back.w_hard.flags["C_CONTIGUOUS"]

    @pytest.fixture
    def written(self, tmp_path):
        """A trace pair with varied patterns and iteration numbers of two widths."""
        data = _toy_data(5, 2, 37)
        init = initial_state(data, 2, 0.5, np.random.default_rng(6))
        log = run_chain(
            data,
            init,
            HmcConfig(step_size=0.05, leapfrog_steps=2, warmup=3),
            ExchangeConfig(window=0.25),
            iterations=15,
            rng=np.random.default_rng(21),
        )
        log.w_hard[:] = np.random.default_rng(2).random(log.w_hard.shape) < 0.5
        trace, w_trace = tmp_path / "trace.csv", tmp_path / "w_trace.csv"
        log.to_csv(trace, w_trace)
        return log, trace, w_trace

    @pytest.mark.parametrize("edit", ["crlf", "no_final_newline"])
    def test_w_trace_line_ends_read_as_loadtxt_reads_them(self, written, edit):
        log, trace, w_trace = written
        text = w_trace.read_bytes()
        w_trace.write_bytes(text.replace(b"\n", b"\r\n") if edit == "crlf" else text[:-1])
        back = SampleLog.from_csv(trace, w_trace)
        raw = np.loadtxt(w_trace, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(back.iterations, raw[:, 0])
        assert back.w_hard.dtype == raw.dtype
        np.testing.assert_array_equal(back.w_hard, raw[:, 1:].reshape(log.w_hard.shape))
        np.testing.assert_array_equal(back.w_hard, log.w_hard)

    @pytest.mark.parametrize("edit", [
        lambda row: row[:1] + ["2"] + row[2:],     # a cell 2
        lambda row: row[:-1],                      # a short row
        lambda row: [row[0] + ".5"] + row[1:],     # a non-integer iteration
    ])
    def test_malformed_w_trace_row_is_an_error_naming_the_file(self, written, edit):
        _, trace, w_trace = written
        lines = w_trace.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        w_trace.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            SampleLog.from_csv(trace, w_trace)
        assert str(w_trace) in str(err.value)
