"""Posterior summaries, effective sample size, and recovery metrics."""

import math

import numpy as np
import pytest

import msfactor.diagnostics
import msfactor.whitening
from msfactor.diagnostics import (
    ess_batch_means,
    partition_recovery,
    subspace_error,
    summarize,
)
from msfactor.prior import ColumnValues, build_x
from msfactor.sampler import SampleLog
from msfactor.whitening import NotPositiveDefiniteError, whiten


def _make_log(a, b, p, w, offsets=None, log_loadings=None, u=None):
    a = np.asarray(a, dtype=np.float64)
    t_n, k = a.shape
    n = np.asarray(w).shape[1]
    s = 1 if offsets is None else np.asarray(offsets).shape[1]
    return SampleLog(
        iterations=np.arange(t_n, dtype=np.int64),
        u=np.zeros(t_n) if u is None else np.asarray(u, dtype=np.float64),
        hmc_accept=np.ones(t_n, dtype=bool),
        exch_accept=np.ones(t_n, dtype=bool),
        exch_skipped=np.zeros(t_n, dtype=bool),
        step_sizes=np.full(t_n, 0.05),
        a=a,
        b=np.asarray(b, dtype=np.float64),
        p=np.asarray(p, dtype=np.float64),
        offsets=np.zeros((t_n, s)) if offsets is None else np.asarray(offsets, dtype=np.float64),
        log_loadings=(
            np.zeros((t_n, s, k))
            if log_loadings is None
            else np.asarray(log_loadings, dtype=np.float64)
        ),
        w_hard=np.asarray(w, dtype=np.float64),
    )


def _random_log(t_n, seed):
    rng = np.random.default_rng(seed)
    k, s, n = 3, 2, 6
    a = rng.standard_normal((t_n, k))
    b = rng.standard_normal((t_n, k))
    # a mix of raw draws on either side of the a > b convention, and
    # one column of b constant (its ESS is 0)
    b[:, 2] = -5.0
    return _make_log(
        a, b, rng.random((t_n, k)), (rng.random((t_n, n, k)) < 0.5).astype(float),
        offsets=rng.standard_normal((t_n, s)),
        log_loadings=rng.standard_normal((t_n, s, k)),
        u=rng.standard_normal(t_n),
    )


def _two_chains():
    """Chains of unequal length, each with draws on both sides of a > b."""
    chains = {"chain_00": _random_log(300, seed=1), "chain_01": _random_log(150, seed=2)}
    for log in chains.values():
        assert (log.a < log.b).any() and (log.a > log.b).any()
    return chains


def _canonical(log, burn_in):
    """A chain's retained draws under the a_j > b_j convention."""
    start = math.floor(log.n_draws * burn_in)
    a, b, p, w = log.a[start:], log.b[start:], log.p[start:], log.w_hard[start:]
    swap = a < b
    return {
        "a": np.maximum(a, b), "b": np.minimum(a, b), "p": np.where(swap, 1.0 - p, p),
        "w": np.where(swap[:, None, :], 1.0 - w, w), "z": log.offsets[start:],
        "U": log.u[start:], "loadings": np.exp(log.log_loadings[start:]),
    }


class TestEssBatchMeans:
    def test_independent_draws_near_nominal(self):
        x = np.random.default_rng(42).standard_normal(10000)
        assert 7000 < ess_batch_means(x) <= 10000

    def test_autocorrelated_draws_discounted(self):
        rng = np.random.default_rng(42)
        phi = 0.9
        e = rng.standard_normal(10000)
        x = np.empty(10000)
        x[0] = e[0]
        for t in range(1, 10000):
            x[t] = phi * x[t - 1] + e[t]
        # stationary autocorrelation time gives T * (1-phi)/(1+phi) ~ 526
        est = ess_batch_means(x)
        assert 263 < est < 1052

    def test_constant_series(self):
        assert ess_batch_means(np.full(500, 3.7)) == 0.0

    def test_capped_at_length(self):
        x = np.random.default_rng(3).standard_normal(400)
        assert ess_batch_means(x) <= 400

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="100"):
            ess_batch_means(np.zeros(99))


class TestSubspaceError:
    def test_identical_frames(self):
        q = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 2)))[0]
        assert subspace_error(q, q) == 0.0

    def test_invariant_to_column_permutation_and_sign(self):
        q = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 3)))[0]
        other = q[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0])
        assert subspace_error(other, q) == pytest.approx(0.0, abs=1e-12)

    def test_invariant_to_rotation_within_span(self):
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert subspace_error(q @ rot, q) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_complements(self):
        eye = np.eye(6)
        assert subspace_error(eye[:, 3:5], eye[:, :2]) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        q1 = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        assert subspace_error(q1, q2) == pytest.approx(subspace_error(q2, q1), abs=1e-14)

    def test_non_orthonormal_rejected(self):
        q = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 2)))[0]
        with pytest.raises(ValueError, match="orthonormal"):
            subspace_error(2.0 * q, q)

    @pytest.mark.parametrize("side", ["estimate", "reference"])
    def test_nan_frame_rejected(self, side):
        q = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 2)))[0]
        bad = q.copy()
        bad[3, 1] = math.nan
        frames = (bad, q) if side == "estimate" else (q, bad)
        with pytest.raises(ValueError, match=f"{side} frame is not orthonormal"):
            subspace_error(*frames)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            subspace_error(np.eye(4)[:, :2], np.eye(5)[:, :2])


class TestPartitionRecovery:
    W = np.array([[1.0], [1.0], [1.0], [0.0]])

    def test_exact_membership(self):
        assert partition_recovery(self.W, self.W, 1) == 1.0

    def test_complemented_membership(self):
        # side labels carry no meaning; the split is what is scored
        assert partition_recovery(1.0 - self.W, self.W, 1) == 1.0

    def test_uninformative_probabilities(self):
        w_prob = np.full((4, 1), 0.5)
        assert partition_recovery(w_prob, self.W, 1) == pytest.approx(0.75)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError, match="level"):
            partition_recovery(np.full((4, 1), 0.5), self.W, 2)
        with pytest.raises(ValueError, match="level"):
            partition_recovery(np.full((4, 1), 0.5), self.W, 0)

    def test_row_count_checked(self):
        with pytest.raises(ValueError, match="rows"):
            partition_recovery(np.full((5, 1), 0.5), self.W, 1)

    def test_crossed_labels(self):
        a, b = np.array([[0], [0], [1], [1]]), np.array([[0], [1], [0], [1]])
        assert partition_recovery(a, b, 1) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.integers(0, 2, size=(15, 1))
            b = rng.integers(0, 2, size=(15, 1))
            assert partition_recovery(a, b, 1) == partition_recovery(b, a, 1)


def _assignment_agreement(labels_a, labels_b):
    """Reference: best label bijection by assignment, for any label count."""
    from scipy.optimize import linear_sum_assignment

    _, ai = np.unique(np.asarray(labels_a), return_inverse=True)
    _, bi = np.unique(np.asarray(labels_b), return_inverse=True)
    m = max(ai.max(), bi.max()) + 1
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (ai, bi), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / ai.size


class TestPartitionRecoveryAgainstAssignment:
    """partition_recovery scores one 0/1 level against another: the
    thresholded posterior column against the truth's."""

    def test_random_binary_labels(self):
        rng = np.random.default_rng(43)
        for _ in range(400):
            n = int(rng.integers(1, 25))
            a = rng.integers(0, 2, size=n)
            b = rng.integers(0, 2, size=n)
            assert partition_recovery(a[:, None], b[:, None], 1) == _assignment_agreement(a, b)

    @pytest.mark.parametrize("a, b", [
        ([0], [0]),
        ([0], [1]),
        ([1, 1, 1], [1, 1, 1]),
        ([0, 0, 0, 0], [0, 1, 1, 0]),
        ([0, 1, 1, 0, 0], [1, 1, 1, 1, 1]),
    ])
    def test_single_label_vectors(self, a, b):
        col_a, col_b = np.array(a)[:, None], np.array(b)[:, None]
        assert partition_recovery(col_a, col_b, 1) == _assignment_agreement(a, b)
        assert partition_recovery(col_b, col_a, 1) == _assignment_agreement(b, a)


class TestSummarize:
    def test_single_draw_reproduces_itself(self):
        w = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]])
        a = np.array([[1.0, 0.8]])
        b = np.array([[-1.0, -0.6]])
        log = _make_log(a, b, np.array([[0.6, 0.7]]), w,
                        log_loadings=np.array([[[0.5, -0.2]]]))
        out = summarize({"chain_00": log}, burn_in=0.0)
        np.testing.assert_array_equal(out.w_prob, w[0])
        x = build_x(w[0], ColumnValues(a=a[0], b=b[0]))
        np.testing.assert_allclose(out.q_mean, whiten(x), atol=1e-12)
        np.testing.assert_allclose(out.d_mean, np.exp([[0.5, -0.2]]), atol=1e-14)
        assert out.meta["n_frame_draws"] == 1
        assert out.ess["chain_00"]["a_1"] is None

    def test_label_swapped_draws_agree(self):
        # two raw draws on the same orbit collapse to one canonical answer
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        log = _make_log(
            a=np.array([[1.0, 0.8], [-1.0, 0.8]]),
            b=np.array([[-1.0, -0.6], [1.0, -0.6]]),
            p=np.array([[0.6, 0.7], [0.4, 0.7]]),
            w=np.stack([w0, np.column_stack([1.0 - w0[:, 0], w0[:, 1]])]),
        )
        out = summarize({"chain_00": log}, burn_in=0.0)
        np.testing.assert_array_equal(out.w_prob, w0)
        assert out.meta["n_frame_draws"] == 2

    def test_burn_in_discards_front(self):
        w_a = np.array([[1.0], [0.0], [1.0]])
        w_b = np.array([[0.0], [1.0], [1.0]])
        w = np.stack([w_a] * 5 + [w_b] * 5)
        ones = np.ones((10, 1))
        log = _make_log(ones, -ones, 0.5 * ones, w)
        out = summarize({"chain_00": log}, burn_in=0.5)
        np.testing.assert_array_equal(out.w_prob, w_b)
        assert out.meta["n_retained"] == 5

    def test_rank_deficient_draws_skipped(self):
        # with side values (0, -1) an all-ones pattern collapses the column
        good = np.array([[1.0], [0.0], [1.0]])
        bad = np.ones((3, 1))
        a = np.zeros((2, 1))
        b = -np.ones((2, 1))
        log = _make_log(a, b, 0.5 * np.ones((2, 1)), np.stack([good, bad]))
        out = summarize({"chain_00": log}, burn_in=0.0)
        assert out.meta["n_frame_draws"] == 1
        assert out.meta["n_rank_skipped"] == 1
        x = build_x(good, ColumnValues(a=a[0], b=b[0]))
        np.testing.assert_allclose(out.q_mean, whiten(x), atol=1e-12)

    def test_all_rank_deficient_rejected(self):
        log = _make_log(
            np.zeros((1, 1)), -np.ones((1, 1)), 0.5 * np.ones((1, 1)), np.ones((1, 3, 1))
        )
        with pytest.raises(ValueError, match="full-rank"):
            summarize({"chain_00": log}, burn_in=0.0)

    def test_empty_log_rejected(self):
        log = _make_log(np.empty((0, 1)), np.empty((0, 1)), np.empty((0, 1)),
                        np.empty((0, 3, 1)))
        with pytest.raises(ValueError, match="empty"):
            summarize({"chain_00": log})

    def test_burn_in_validated(self):
        ones = np.ones((1, 1))
        log = _make_log(ones, -ones, 0.5 * ones, np.ones((1, 3, 1)))
        for burn_in in (-0.1, 1.0):
            with pytest.raises(ValueError, match="burn_in"):
                summarize({"chain_00": log}, burn_in=burn_in)

    def test_empty_chain_rejected(self):
        chains = {"chain_00": _random_log(10, seed=6), "chain_01": _random_log(0, seed=7)}
        with pytest.raises(ValueError, match="chain_01: empty"):
            summarize(chains, 0.5)

    def test_no_chains_rejected(self):
        with pytest.raises(ValueError, match="no chains"):
            summarize({}, 0.5)

    def test_each_chain_is_cut_on_its_own_then_pooled(self):
        chains = _two_chains()
        out = summarize(chains, burn_in=0.3)
        kept = [_canonical(log, 0.3) for log in chains.values()]
        pooled = {key: np.concatenate([c[key] for c in kept]) for key in ("a", "b", "w", "loadings")}
        assert out.meta["n_retained"] == 210 + 105
        assert out.meta["chains"] == ["chain_00", "chain_01"] and out.meta["burn_in"] == 0.3
        np.testing.assert_array_equal(out.w_prob, pooled["w"].mean(axis=0))
        np.testing.assert_array_equal(out.d_mean, pooled["loadings"].mean(axis=0))
        frames = []
        for w, a, b in zip(pooled["w"], pooled["a"], pooled["b"]):
            try:
                frames.append(whiten(build_x(w, ColumnValues(a=a, b=b))))
            except NotPositiveDefiniteError:
                pass
        frames = np.array(frames)
        signs = np.sign(np.einsum("tik,ik->tk", frames, frames[0]))
        signs[signs == 0.0] = 1.0
        assert out.meta["n_frame_draws"] == len(frames)
        np.testing.assert_allclose(
            out.q_mean, whiten((frames * signs[:, None, :]).mean(axis=0)), atol=1e-12)

    @staticmethod
    def _fail_on_mean_frame(monkeypatch, error):
        """Whiten the one retained draw, then raise on the mean frame."""
        calls = []

        def whiten_once(x):
            calls.append(x)
            if len(calls) > 1:
                raise error
            return whiten(x)

        monkeypatch.setattr(msfactor.diagnostics, "whiten", whiten_once)
        w = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]])
        return _make_log(np.array([[1.0, 0.8]]), np.array([[-1.0, -0.6]]),
                         np.array([[0.6, 0.7]]), w)

    def test_rank_failure_of_mean_frame_is_reported(self, monkeypatch):
        log = self._fail_on_mean_frame(monkeypatch, NotPositiveDefiniteError(1))
        assert summarize({"chain_00": log}, burn_in=0.0).meta["q_mean_orthonormalized"] is False

    def test_other_error_in_mean_frame_propagates(self, monkeypatch):
        log = self._fail_on_mean_frame(monkeypatch, RuntimeError("whitening bug"))
        with pytest.raises(RuntimeError, match="whitening bug"):
            summarize({"chain_00": log}, burn_in=0.0)

    def test_each_frame_is_factored_once_per_pass(self, monkeypatch):
        # whitening is the rank test: a full-rank draw costs its two
        # passes' factors and nothing more, as does the mean frame
        factored = []
        factor = msfactor.whitening._factor_or_none

        def counting(s):
            factored.append(s.shape)
            return factor(s)

        monkeypatch.setattr(msfactor.whitening, "_factor_or_none", counting)
        w0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        w1 = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        ones = np.ones((3, 2))
        log = _make_log(ones, -ones, 0.5 * ones, np.stack([w0, w1, w0]))
        out = summarize({"chain_00": log}, burn_in=0.0)
        assert out.meta["n_frame_draws"] == 3
        assert len(factored) == 2 * 3 + 2

    def test_factor_outer_products(self):
        w = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]])
        a = np.array([[1.0, 0.8]])
        b = np.array([[-1.0, -0.6]])
        log = _make_log(a, b, np.array([[0.6, 0.7]]), w,
                        log_loadings=np.array([[[0.5, -0.2]]]))
        out = summarize({"chain_00": log}, burn_in=0.0)
        assert len(out.factors) == 2
        for j, factor in enumerate(out.factors):
            scale = out.d_mean[:, j].mean()
            np.testing.assert_allclose(
                factor, scale * np.outer(out.q_mean[:, j], out.q_mean[:, j]), atol=1e-12
            )


class TestChainEss:
    """summarize's ESS is per chain, from that chain's retained draws alone."""

    @pytest.mark.parametrize("t_n, burn_in", [(400, 0.5), (400, 0.0), (250, 0.3), (150, 0.2)])
    def test_equals_summarize_ess(self, t_n, burn_in):
        # a chain's ESS does not depend on the chains pooled with it
        log = _random_log(t_n, seed=t_n)
        assert (log.a < log.b).any() and (log.a > log.b).any()
        alone = summarize({"chain_00": log}, burn_in).ess
        pooled = summarize({"chain_00": log, "chain_01": _random_log(120, seed=3)}, burn_in).ess
        assert pooled["chain_00"] == alone["chain_00"]
        assert list(pooled) == ["chain_00", "chain_01"]

    def test_series_are_canonical(self):
        # under the a_j > b_j convention a is the larger level value and p
        # is flipped wherever a draw had them the other way round
        chains = _two_chains()
        out = summarize(chains, burn_in=0.3)
        for name, log in chains.items():
            kept = _canonical(log, 0.3)
            expected = {f"{key}_{j + 1}": kept[key][:, j] for key in "abp" for j in range(3)}
            expected.update({f"z_{i + 1}": kept["z"][:, i] for i in range(2)})
            expected["U"] = kept["U"]
            assert list(out.ess[name]) == list(expected)
            for series, values in expected.items():
                assert out.ess[name][series] == ess_batch_means(values), (name, series)

    def test_short_log_gives_none(self):
        out = summarize({"chain_00": _random_log(120, seed=5)}, burn_in=0.5)
        assert len(out.ess["chain_00"]) == 3 * 3 + 2 + 1
        assert all(value is None for value in out.ess["chain_00"].values())
