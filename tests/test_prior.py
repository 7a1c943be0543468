"""Structured-matrix prior: construction, sampling, and log-density terms."""

import math

import numpy as np
import pytest

from msfactor.prior import (
    ColumnValues,
    MixtureProbs,
    build_x,
    full_rank_pattern,
    log_bernoulli_mass,
    log_gaussian_ab,
)
from msfactor.model import SubjectParams
from msfactor.sampler import _potential_from
from msfactor.whitening import NotPositiveDefiniteError, _whitened, rank_ok, whiten


class TestBuildX:
    def test_direct_substitution(self):
        values = ColumnValues(a=np.array([2.0]), b=np.array([-1.0]))
        np.testing.assert_array_equal(build_x(np.array([[1.0], [0.0]]), values), [[2.0], [-1.0]])

    def test_all_ones_gives_constant_columns(self):
        values = ColumnValues(a=np.array([3.0, -2.0]), b=np.array([0.0, 0.0]))
        x = build_x(np.ones((4, 2)), values)
        np.testing.assert_array_equal(x, np.tile([3.0, -2.0], (4, 1)))
        assert not rank_ok(x)

    def test_relaxed_midpoint(self):
        values = ColumnValues(a=np.array([1.0]), b=np.array([0.0]))
        x = build_x(np.full((3, 1), 0.5), values)
        np.testing.assert_array_equal(x, np.full((3, 1), 0.5))

    def test_binary_columns_have_two_values(self):
        rng = np.random.default_rng(1)
        values = ColumnValues(a=rng.standard_normal(3), b=rng.standard_normal(3))
        w = (rng.random((10, 3)) < 0.5).astype(np.float64)
        x = build_x(w, values)
        for j in range(3):
            assert np.unique(x[:, j]).size <= 2


class TestLabelSwap:
    def test_swap_leaves_matrix_and_frame_unchanged(self):
        rng = np.random.default_rng(3)
        values = ColumnValues(a=rng.standard_normal(2), b=rng.standard_normal(2))
        w = (rng.random((6, 2)) < 0.5).astype(np.float64)
        x = build_x(w, values)
        swapped = build_x(1.0 - w, ColumnValues(a=values.b, b=values.a))
        np.testing.assert_array_equal(swapped, x)
        if rank_ok(x):
            np.testing.assert_array_equal(whiten(swapped), whiten(x))

    def test_mass_consistent_under_complement(self):
        rng = np.random.default_rng(5)
        w = (rng.random((7, 2)) < 0.4).astype(np.float64)
        p = np.array([0.3, 0.8])
        direct = log_bernoulli_mass(w, MixtureProbs(p=p))
        flipped = log_bernoulli_mass(1.0 - w, MixtureProbs(p=1.0 - p))
        assert direct == pytest.approx(flipped, abs=1e-12)


def _sample_prior(n, k, rng):
    """The prior's draw: a, b standard normal, p uniform, then Bernoulli(p) patterns."""
    values = ColumnValues(a=rng.standard_normal(k), b=rng.standard_normal(k))
    p = rng.uniform(size=k)
    w = full_rank_pattern(
        lambda: (rng.random((n, k)) < p).astype(np.float64), values, 1000
    )
    return values, w


class TestSamplePrior:
    def test_postcondition_rank_ok(self):
        values, w = _sample_prior(8, 2, np.random.default_rng(11))
        assert rank_ok(build_x(w, values))
        assert set(np.unique(w)) <= {0.0, 1.0}

    def test_single_cell_case(self):
        values, w = _sample_prior(1, 1, np.random.default_rng(13))
        assert rank_ok(build_x(w, values))

    def test_paper_scale_always_succeeds(self):
        for seed in range(50):
            values, w = _sample_prior(128, 30, np.random.default_rng(seed))
            assert w is not None
            assert rank_ok(build_x(w, values))


class TestFullRankPattern:
    values = ColumnValues(a=np.ones(2), b=-np.ones(2))

    def test_returns_first_full_rank_draw_and_stops(self):
        bad = np.ones((4, 2))
        good = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        later = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        draws = iter([bad, bad, good, later])
        calls = []

        def draw():
            calls.append(1)
            return next(draws)

        assert full_rank_pattern(draw, self.values, 10) is good
        assert len(calls) == 3

    def test_exhaustion_draws_max_attempts_then_returns_none(self):
        calls = []

        def draw():
            calls.append(1)
            return np.ones((4, 2))

        assert full_rank_pattern(draw, self.values, 7) is None
        assert len(calls) == 7


class TestLogBernoulliMass:
    def test_single_entry(self):
        got = log_bernoulli_mass(np.array([[1.0]]), MixtureProbs(p=np.array([0.5])))
        assert got == pytest.approx(math.log(0.5), abs=1e-15)

    def test_all_ones_half(self):
        w = np.ones((5, 3))
        got = log_bernoulli_mass(w, MixtureProbs(p=np.full(3, 0.5)))
        assert got == pytest.approx(15 * math.log(0.5), abs=1e-12)

    def test_cross_pattern(self):
        # log 0.2 + log 0.3 + log 0.8 + log 0.7, summed exactly
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = log_bernoulli_mass(w, MixtureProbs(p=np.array([0.2, 0.7])))
        assert got == pytest.approx(-3.3932292120129786, abs=1e-14)

    def test_relaxed_weights_accepted(self):
        w = np.array([[0.25, 0.75]])
        p = np.array([0.4, 0.6])
        got = log_bernoulli_mass(w, MixtureProbs(p=p))
        expect = (
            0.25 * math.log(0.4)
            + 0.75 * math.log(0.6)
            + 0.75 * math.log(0.6)
            + 0.25 * math.log(0.4)
        )
        assert got == pytest.approx(expect, abs=1e-12)

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError):
            log_bernoulli_mass(np.array([[1.2]]), MixtureProbs(p=np.array([0.5])))

    def test_boundary_rate_rejected(self):
        with pytest.raises(ValueError):
            MixtureProbs(p=np.array([0.0]))
        with pytest.raises(ValueError):
            MixtureProbs(p=np.array([1.0]))


class TestLogGaussianAb:
    def test_mode(self):
        assert log_gaussian_ab(ColumnValues(a=np.zeros(3), b=np.zeros(3))) == 0.0

    def test_two_halves(self):
        got = log_gaussian_ab(ColumnValues(a=np.array([1.0]), b=np.array([-1.0])))
        assert got == pytest.approx(-1.0, abs=1e-15)

    def test_mixed(self):
        got = log_gaussian_ab(ColumnValues(a=np.array([1.0, 2.0]), b=np.zeros(2)))
        assert got == pytest.approx(-2.5, abs=1e-15)


def _gram_term(x):
    """The prior's Jacobian weight ((n - k - 1)/2) log det(X'X), as the
    potential takes it: the whitening's log-det through _potential_from."""
    n, k = x.shape
    sp = SubjectParams(log_loadings=np.zeros((1, k)), offsets=np.zeros(1))
    w = np.zeros((n, k))
    probs = MixtureProbs(p=np.full(k, 0.5))
    values = ColumnValues(a=np.zeros(k), b=np.zeros(k))
    log_det = _whitened(x)[1]
    return _potential_from(sp, probs, values, w, 0.0, 0.0) - _potential_from(
        sp, probs, values, w, log_det, 0.0
    )


class TestLogDetGram:
    def test_identity_columns(self):
        assert _whitened(np.eye(5)[:, :2])[1] == 0.0
        assert _gram_term(np.eye(5)[:, :2]) == 0.0

    def test_vanishes_at_critical_dimension(self):
        # n = k + 1 makes the exponent zero regardless of the gram matrix
        assert _gram_term(np.array([[1.0], [-1.0]])) == 0.0
        assert _gram_term(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])) == 0.0

    def test_hand_gram(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        assert _gram_term(x) == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
        x5 = np.vstack([x, [1.0, 1.0]])     # n - k - 1 = 2, X'X = [[3, 2], [2, 3]]
        assert _gram_term(x5) == pytest.approx(math.log(5.0), abs=1e-12)

    def test_rank_error_propagates(self):
        with pytest.raises(NotPositiveDefiniteError):
            _whitened(np.ones((4, 2)))


class TestValueValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ColumnValues(a=np.zeros(2), b=np.zeros(3))

    def test_weight_shape_checked(self):
        values = ColumnValues(a=np.zeros(2), b=np.ones(2))
        with pytest.raises(ValueError):
            build_x(np.zeros((4, 3)), values)
