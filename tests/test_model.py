"""Network likelihood, subject-parameter prior via the potential, and data simulation."""

import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit, logit

from msfactor.model import (
    NetworkDataset,
    SubjectParams,
    _expit,
    _logit,
    log_likelihood,
    log_likelihood_grads,
    simulate_dataset,
)
from msfactor.partition import random_partition
from msfactor.prior import ColumnValues, MixtureProbs
from msfactor.sampler import ChainState, potential


def _empty_data(n, s):
    return NetworkDataset(n=n, adjacency=np.zeros((s, n, n)))


def _log_likelihood(data, q, sp):
    """The value stage."""
    return log_likelihood(data, q, np.exp(sp.log_loadings), sp.offsets)


def _grads(data, q, sp, with_value=False):
    """The float64 gradient stage's (g_q, g_ld, g_z); with with_value the
    value stage runs first, and its result leads."""
    ll = (_log_likelihood(data, q, sp),) if with_value else ()
    return (*ll, *log_likelihood_grads(data, q, np.exp(sp.log_loadings), sp.offsets, np.float64))


def _identity_frame(n, k):
    return np.eye(n)[:, :k]


def _log_prior_theta(sp):
    """The subject parameters' log prior, read from the potential of a
    prior-only state whose other terms are known: n = k + 1 nodes, so the
    gram term is 0, weights exactly 0 or 1 at p = 1/2, and a = 1, b = -1."""
    k = sp.depth
    w = np.triu(np.ones((k + 1, k)))
    state = ChainState(
        logits=400.0 * (2.0 * w - 1.0), values=ColumnValues(a=np.ones(k), b=-np.ones(k)),
        probs=MixtureProbs(p=np.full(k, 0.5)), subject_params=sp, tau=0.5,
    )
    return -potential(state, None) - (k + 1) * k * math.log(0.5) + k


class TestLogPriorTheta:
    def test_unit_loading_zero_offset(self):
        # inverse-gamma(0.1, 0.1) at d = 1, log-scale Jacobian log d = 0
        sp = SubjectParams(log_loadings=np.zeros((1, 1)), offsets=np.zeros(1))
        expect = 0.1 * math.log(0.1) - math.lgamma(0.1) - 0.1
        assert _log_prior_theta(sp) == pytest.approx(expect, abs=1e-13)
        assert _log_prior_theta(sp) == pytest.approx(-2.58297116103361, abs=1e-13)

    def test_additive_over_subjects(self):
        one = SubjectParams(log_loadings=np.array([[0.3, -0.2]]), offsets=np.array([1.5]))
        two = SubjectParams(
            log_loadings=np.array([[0.3, -0.2], [0.3, -0.2]]),
            offsets=np.array([1.5, 1.5]),
        )
        assert _log_prior_theta(two) == pytest.approx(2 * _log_prior_theta(one), abs=1e-12)

    def test_offset_kernel(self):
        base = SubjectParams(log_loadings=np.zeros((1, 1)), offsets=np.zeros(1))
        moved = SubjectParams(log_loadings=np.zeros((1, 1)), offsets=np.array([10.0]))
        assert _log_prior_theta(moved) - _log_prior_theta(base) == pytest.approx(-0.5, abs=1e-13)

    def test_log_scale_density(self):
        # direct inverse-gamma density times the change-of-variable factor d
        ld = 0.7
        d = math.exp(ld)
        sp = SubjectParams(log_loadings=np.array([[ld]]), offsets=np.zeros(1))
        dens = 0.1 * math.log(0.1) - math.lgamma(0.1) - 1.1 * math.log(d) - 0.1 / d
        assert _log_prior_theta(sp) == pytest.approx(dens + math.log(d), abs=1e-12)


class TestLogLikelihood:
    def test_flat_odds_counts_pairs(self):
        # identity-column frames put zero off the diagonal, so every edge is a coin flip
        n, s, k = 5, 3, 2
        sp = SubjectParams(log_loadings=np.zeros((s, k)), offsets=np.zeros(s))
        got = _log_likelihood(_empty_data(n, s), _identity_frame(n, k), sp)
        assert got == pytest.approx(s * n * (n - 1) / 2 * math.log(0.5), abs=1e-12)

    def test_single_edge_hand_value(self):
        q = np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
        sp = SubjectParams(log_loadings=np.array([[math.log(2.0)]]), offsets=np.zeros(1))
        got = _log_likelihood(_empty_data(2, 1), q, sp)
        # psi_12 = 2 * (1/sqrt2) * (-1/sqrt2) = -1, no edge present
        assert got == pytest.approx(-math.log1p(math.exp(-1.0)), abs=1e-14)
        assert got == pytest.approx(-0.31326168751822286, abs=1e-14)

    def test_saturated_edge_vanishes(self):
        q = np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
        sp = SubjectParams(log_loadings=np.array([[math.log(80.0)]]), offsets=np.zeros(1))
        got = _log_likelihood(_empty_data(2, 1), q, sp)
        assert abs(got) < 1e-12

    def test_column_sign_flip_invariant(self):
        rng = np.random.default_rng(2)
        n, s, k = 6, 2, 3
        q = np.linalg.qr(rng.standard_normal((n, k)))[0]
        sp = SubjectParams(log_loadings=rng.standard_normal((s, k)), offsets=rng.standard_normal(s))
        adj = rng.integers(0, 2, size=(s, n, n))
        adj = np.triu(adj, 1) + np.swapaxes(np.triu(adj, 1), 1, 2)
        data = NetworkDataset(n=n, adjacency=adj.astype(np.float64))
        flipped = q.copy()
        flipped[:, 1] *= -1.0
        assert _log_likelihood(data, flipped, sp) == pytest.approx(
            _log_likelihood(data, q, sp), abs=1e-12
        )


class TestGradients:
    def _random_setup(self, seed, n=4, s=2, k=2):
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((n, k)))[0]
        sp = SubjectParams(
            log_loadings=rng.standard_normal((s, k)) * 0.5,
            offsets=rng.standard_normal(s),
        )
        adj = rng.integers(0, 2, size=(s, n, n))
        adj = np.triu(adj, 1) + np.swapaxes(np.triu(adj, 1), 1, 2)
        data = NetworkDataset(n=n, adjacency=adj.astype(np.float64))
        return data, q, sp

    def test_matches_central_differences(self):
        data, q, sp = self._random_setup(7)
        g_q, g_ld, g_z = _grads(data, q, sp)
        h = 1e-6

        for i in range(q.shape[0]):
            for m in range(q.shape[1]):
                qp, qm = q.copy(), q.copy()
                qp[i, m] += h
                qm[i, m] -= h
                fd = (_log_likelihood(data, qp, sp) - _log_likelihood(data, qm, sp)) / (2 * h)
                assert g_q[i, m] == pytest.approx(fd, abs=1e-6)

        for s_i in range(sp.n_subjects):
            for m in range(sp.depth):
                ldp, ldm = sp.log_loadings.copy(), sp.log_loadings.copy()
                ldp[s_i, m] += h
                ldm[s_i, m] -= h
                fd = (
                    _log_likelihood(data, q, SubjectParams(ldp, sp.offsets))
                    - _log_likelihood(data, q, SubjectParams(ldm, sp.offsets))
                ) / (2 * h)
                assert g_ld[s_i, m] == pytest.approx(fd, abs=1e-6)

            zp, zm = sp.offsets.copy(), sp.offsets.copy()
            zp[s_i] += h
            zm[s_i] -= h
            fd = (
                _log_likelihood(data, q, SubjectParams(sp.log_loadings, zp))
                - _log_likelihood(data, q, SubjectParams(sp.log_loadings, zm))
            ) / (2 * h)
            assert g_z[s_i] == pytest.approx(fd, abs=1e-6)

    def test_offset_gradient_at_flat_odds(self):
        # all edges present against probability 1/2 leaves residual 1/2 per pair
        n, k = 5, 2
        adj = np.ones((1, n, n)) - np.eye(n)
        data = NetworkDataset(n=n, adjacency=adj)
        sp = SubjectParams(log_loadings=np.zeros((1, k)), offsets=np.zeros(1))
        _, _, g_z = _grads(data, _identity_frame(n, k), sp)
        assert g_z[0] == pytest.approx(n * (n - 1) / 2 * 0.5, abs=1e-12)

    def test_sign_flip_negates_frame_column(self):
        data, q, sp = self._random_setup(11)
        g_q, g_ld, g_z = _grads(data, q, sp)
        flipped = q.copy()
        flipped[:, 0] *= -1.0
        g_q2, g_ld2, g_z2 = _grads(data, flipped, sp)
        np.testing.assert_allclose(g_q2[:, 0], -g_q[:, 0], atol=1e-12)
        np.testing.assert_allclose(g_q2[:, 1], g_q[:, 1], atol=1e-12)
        np.testing.assert_allclose(g_ld2, g_ld, atol=1e-12)
        np.testing.assert_allclose(g_z2, g_z, atol=1e-12)


def _textbook(data, q, sp):
    """Reference value and gradients: einsum log-odds, expit residual,
    upper-triangle sums."""
    d = np.exp(sp.log_loadings)
    psi = np.einsum("ik,sk,jk->sij", q, d, q) + sp.offsets[:, None, None]
    iu = np.triu_indices(data.n, k=1)
    psi_u = psi[:, iu[0], iu[1]]
    a_u = data.adjacency[:, iu[0], iu[1]]
    softplus = np.maximum(psi_u, 0.0) + np.log1p(np.exp(-np.abs(psi_u)))
    value = float(np.sum(a_u * psi_u - softplus))
    resid = data.adjacency - expit(psi)
    idx = np.arange(data.n)
    resid[:, idx, idx] = 0.0
    g_q = np.einsum("sij,jm,sm->im", resid, q, d)
    g_ld = 0.5 * d * np.einsum("im,sij,jm->sm", q, resid, q)
    g_z = resid[:, iu[0], iu[1]].sum(axis=1)
    return value, (g_q, g_ld, g_z), psi


def _random_problem(seed, n, s, k, log_mean=0.0, offset_scale=1.0):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    sp = SubjectParams(
        log_loadings=log_mean + 0.5 * rng.standard_normal((s, k)),
        offsets=rng.standard_normal(s) * offset_scale,
    )
    adj = np.triu(rng.random((s, n, n)) < 0.4, 1)
    adj = adj + np.swapaxes(adj, 1, 2)
    return NetworkDataset(n=n, adjacency=adj.astype(np.float64)), q, sp


def _assert_close(got, ref):
    scale = max(np.abs(ref).max(), 1e-300)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)


# (n, s, k, log_mean, offset_scale, the subject left without edges or None)
_KERNEL_CASES = [
    (2, 1, 1, 0.0, 1.0, None),
    (2, 3, 2, 0.0, 1.0, None),
    (7, 1, 3, 0.0, 1.0, None),
    (9, 4, 3, 0.0, 1.0, None),
    (12, 3, 4, 5.0, 20.0, None),    # saturated: log-odds beyond +-40
    (128, 4, 30, 5.0, 40.0, None),  # saturated, at full size
    (16, 3, 2, 0.0, 1.0, 1),
]


def _kernel_case_id(case):
    *sizes, bare = case
    return "-".join(map(str, sizes)) + ("" if bare is None else f"-bare{bare}")


class TestFusedKernel:
    @pytest.mark.parametrize(
        "n, s, k, log_mean, offset_scale, bare",
        _KERNEL_CASES,
        ids=[_kernel_case_id(case) for case in _KERNEL_CASES],
    )
    def test_matches_textbook_formulas(self, n, s, k, log_mean, offset_scale, bare):
        data, q, sp = _random_problem(n * 100 + s, n, s, k, log_mean, offset_scale)
        if bare is not None:
            adj = data.adjacency.copy()
            adj[bare] = 0.0
            assert data.adjacency[bare].any()
            data = NetworkDataset(n=n, adjacency=adj)
        value, grads, psi = _textbook(data, q, sp)
        if log_mean > 0.0:
            assert np.abs(psi[:, ~np.eye(n, dtype=bool)]).max() > 40.0
        assert _log_likelihood(data, q, sp) == pytest.approx(value, rel=1e-12, abs=0.0)
        for got, ref in zip(_grads(data, q, sp), grads):
            _assert_close(got, ref)
        paired = _grads(data, q, sp, with_value=True)
        assert paired[0] == _log_likelihood(data, q, sp)
        for got, ref in zip(paired[1:], grads):
            _assert_close(got, ref)

    def test_interleaved_datasets_leave_earlier_results_intact(self):
        small = _random_problem(1, 5, 3, 2)
        large = _random_problem(2, 11, 2, 3, log_mean=3.0, offset_scale=5.0)
        # the small dataset again under a wider frame: the kept work
        # arrays follow the frame width, and no result aliases them
        _, q4, sp4 = _random_problem(5, 5, 3, 4)
        wide = (small[0], q4, sp4)
        problems = (small, large, wide)
        first = [_grads(*p, with_value=True) for p in problems]
        kept = [[np.copy(part) for part in out] for out in first]
        for p in (small, wide, large, small, wide, small, large):
            data, q, sp = p
            moved = SubjectParams(sp.log_loadings + 0.3, sp.offsets - 0.2)
            _log_likelihood(data, q, moved)
            _grads(data, q, moved)
        for out, copy, p in zip(first, kept, problems):
            for part, saved in zip(out, copy):
                np.testing.assert_array_equal(part, saved)
            value, grads, _ = _textbook(*p)
            assert out[0] == pytest.approx(value, rel=1e-12, abs=0.0)
            for got, ref in zip(out[1:], grads):
                _assert_close(got, ref)

    def test_dataset_built_after_the_last_is_dropped(self):
        # del frees a dataset at once (no cycle holds one), and CPython
        # commonly gives its address to the next one built, which a cache
        # keyed by address alone would take for the dropped one
        problems = [_random_problem(seed, 6, 2, 2) for seed in (7, 8, 9)]
        cases = [(data.adjacency, q, sp) for data, q, sp in problems]
        del problems
        data = None
        for adj, q, sp in cases:
            del data
            data = NetworkDataset(n=6, adjacency=adj)
            value, grads, _ = _textbook(data, q, sp)
            got = _grads(data, q, sp, with_value=True)
            assert got[0] == pytest.approx(value, rel=1e-12, abs=0.0)
            for part, ref in zip(got[1:], grads):
                _assert_close(part, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_stages_agree_in_either_order(self, dtype):
        # the gradient stage writes R [q | 1] into the float64 S x n x (k + 1)
        # buffer that the value stage keeps, so each stage must overwrite
        # all it reads: the force is one function of the position, whichever
        # pass computes it
        data, q, sp = _random_problem(12, 9, 3, 4, offset_scale=2.0)
        _, q2, sp2 = _random_problem(13, 9, 3, 4, log_mean=1.0)
        d, z = np.exp(sp.log_loadings), sp.offsets
        d2, z2 = np.exp(sp2.log_loadings), sp2.offsets
        values, grads = [], []

        def value():
            values.append(log_likelihood(data, q, d, z).hex())

        def gradient():
            grads.append(b"".join(g.tobytes() for g in log_likelihood_grads(data, q, d, z, dtype)))

        def elsewhere():
            log_likelihood_grads(data, q2, d2, z2, dtype)
            log_likelihood(data, q2, d2, z2)

        for sequence in ((gradient, value, gradient), (value, gradient, value)):
            for stage in sequence:
                stage()
            for stage in sequence:
                elsewhere()
                stage()
        assert len(values) == 6 and len(set(values)) == 1
        assert len(grads) == 6 and len(set(grads)) == 1

    @pytest.mark.parametrize("value, grads, grad_dtype", [
        pytest.param(True, False, np.float64, id="True-False"),
        pytest.param(False, True, np.float64, id="False-True"),
        pytest.param(True, True, np.float64, id="True-True"),
        pytest.param(False, True, np.float32, id="False-True-float32"),
        pytest.param(True, True, np.float32, id="True-True-float32"),
    ])
    def test_warm_pass_allocates_less_than_one_frame_product(self, value, grads, grad_dtype):
        # every S x n x (k + 1) product, the float64 copy of a float32
        # R [q | 1] and the edge gather write into kept buffers, so a warm
        # call of either stage allocates only small results; True-True runs
        # both stages, value first, as an evaluation of U and its force does
        n, s, k = 128, 20, 30
        data, q, sp = _random_problem(6, n, s, k)
        d = np.exp(sp.log_loadings)

        def evaluate():
            if value:
                log_likelihood(data, q, d, sp.offsets)
            if grads:
                log_likelihood_grads(data, q, d, sp.offsets, grad_dtype)

        evaluate()
        tracemalloc.start()
        try:
            evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s * n * (k + 1) * 8

    def test_pickled_dataset_carries_only_its_adjacency(self):
        data, q, sp = _random_problem(3, 16, 4, 2)
        _grads(data, q, sp, with_value=True)
        payload = pickle.dumps(data)
        assert len(payload) < data.adjacency.nbytes + 1024
        back = pickle.loads(payload)
        assert _log_likelihood(back, q, sp) == _log_likelihood(data, q, sp)

    def test_adjacency_is_read_only(self):
        data, _, _ = _random_problem(4, 4, 1, 1)
        with pytest.raises(ValueError):
            data.adjacency[0, 0, 1] = 1.0

    def test_unpickled_dataset_is_read_only_and_equal(self):
        data, _, _ = _random_problem(4, 5, 1, 2)
        back = pickle.loads(pickle.dumps(data))
        assert back.n == data.n
        np.testing.assert_array_equal(back.adjacency, data.adjacency)
        assert not back.adjacency.flags.writeable

    def test_unpickling_checks_the_adjacency(self):
        data, _, _ = _random_problem(4, 5, 1, 2)
        bad = data.adjacency.copy()
        bad[0, 0, 1] = bad[0, 1, 0] = 2.0
        object.__setattr__(data, "adjacency", bad)   # past the constructor's checks
        payload = pickle.dumps(data)
        with pytest.raises(ValueError, match=r"non-binary entry at subject 0, \(0, 1\)"):
            pickle.loads(payload)


class TestNetworkDataset:
    def _sym(self, n, s=1):
        return np.zeros((s, n, n))

    def test_shape_error(self):
        with pytest.raises(ValueError, match="4 x 4"):
            NetworkDataset(n=4, adjacency=np.zeros((2, 3, 3)))

    def test_non_binary_first_offender(self):
        adj = self._sym(3, s=2)
        adj[1, 0, 2] = 0.5
        adj[1, 2, 0] = 0.5
        with pytest.raises(ValueError, match=r"subject 1, \(0, 2\)"):
            NetworkDataset(n=3, adjacency=adj)

    def test_asymmetry_detected(self):
        adj = self._sym(3)
        adj[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="asymmetric"):
            NetworkDataset(n=3, adjacency=adj)

    def test_diagonal_detected(self):
        adj = self._sym(3)
        adj[0, 2, 2] = 1.0
        with pytest.raises(ValueError, match="node 2"):
            NetworkDataset(n=3, adjacency=adj)

    def test_valid_passes(self):
        adj = self._sym(3)
        adj[0, 0, 1] = adj[0, 1, 0] = 1.0
        NetworkDataset(n=3, adjacency=adj)

    def test_edge_density(self):
        adj = self._sym(3, s=2)
        adj[0, 0, 1] = adj[0, 1, 0] = 1.0  # 1 of 3 pairs, subject 0
        data = NetworkDataset(n=3, adjacency=adj)
        assert data.edge_density() == pytest.approx(1 / 6)

    def test_json_round_trip(self):
        rng = np.random.default_rng(4)
        adj = rng.integers(0, 2, size=(2, 4, 4))
        adj = np.triu(adj, 1) + np.swapaxes(np.triu(adj, 1), 1, 2)
        data = NetworkDataset(n=4, adjacency=adj.astype(np.float64))
        back = NetworkDataset.from_json(data.to_json())
        assert back.n == 4
        np.testing.assert_array_equal(back.adjacency, data.adjacency)

    def test_from_json_validates(self):
        bad = json.dumps({"n": 2, "subjects": [[[0, 2], [2, 0]]]})
        with pytest.raises(ValueError, match="non-binary"):
            NetworkDataset.from_json(bad)


class TestSimulate:
    def _setup(self, n, k, s, seed, offset, ld=-40.0):
        rng = np.random.default_rng(seed)
        w = random_partition(n, k, rng)
        values = ColumnValues(a=np.ones(k), b=-np.ones(k))
        sp = SubjectParams(
            log_loadings=np.full((s, k), ld),
            offsets=np.full(s, offset),
        )
        return w, values, sp, rng

    def test_deterministic(self):
        args1 = self._setup(10, 2, 3, 21, 0.0, ld=0.0)
        args2 = self._setup(10, 2, 3, 21, 0.0, ld=0.0)
        data1, _ = simulate_dataset(*args1)
        data2, _ = simulate_dataset(*args2)
        assert data1.to_json() == data2.to_json()

    def test_offset_controls_density(self):
        data, _ = simulate_dataset(*self._setup(40, 2, 5, 23, 10.0))
        assert data.edge_density() == pytest.approx(expit(10.0), abs=0.005)

    def test_zero_odds_near_half(self):
        data, _ = simulate_dataset(*self._setup(40, 2, 5, 29, 0.0))
        assert data.edge_density() == pytest.approx(0.5, abs=0.03)

    def test_output_is_valid_and_truth_consistent(self):
        # construction checks the adjacency
        _, truth = simulate_dataset(*self._setup(12, 3, 2, 31, 0.0, ld=0.5))
        q = truth["frame"]
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)


class TestSpecialFunctions:
    def test_expit_matches_scipy(self):
        x = np.linspace(-700.0, 700.0, 20001)
        np.testing.assert_allclose(_expit(x), expit(x), rtol=1e-14, atol=0)

    def test_expit_overflow_is_exact_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _expit(np.array([-800.0, -1e308, 800.0]))
        assert out.tolist() == [0.0, 0.0, 1.0]

    def test_logit_matches_scipy(self):
        p = np.concatenate([np.geomspace(1e-12, 0.5, 500), 1.0 - np.geomspace(1e-12, 0.5, 500)])
        np.testing.assert_allclose(_logit(p), logit(p), rtol=1e-12, atol=1e-15)
        assert _logit(0.5) == 0.0
