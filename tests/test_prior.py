"""Structured-matrix prior: construction, sampling, and its terms of the potential."""

import math

import numpy as np
import pytest
from scipy.special import logit
from scipy.stats import invgamma

from msfactor.prior import ColumnValues, MixtureProbs, build_x, full_rank_pattern
from msfactor.model import SubjectParams
from msfactor.sampler import ChainState, potential
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
        a, b = [1.0, 2.0], [-1.0, 0.5]
        direct = _mass_term(w, p, a, b)
        flipped = _mass_term(1.0 - w, 1.0 - p, b, a)
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


# inverse-gamma(0.1, 0.1) log prior of a unit loading, on the log scale
_UNIT_LOADING = float(invgamma.logpdf(1.0, 0.1, scale=0.1))


def _potential_at(w, p, a, b):
    """U of a prior-only state with one subject, unit loadings and a zero
    offset, whose relaxed weights are w: exactly, where w is 0 or 1."""
    tau = 0.5
    k = w.shape[1]
    state = ChainState(
        logits=tau * np.clip(logit(w), -800.0, 800.0),
        values=ColumnValues(a=a, b=b),
        probs=MixtureProbs(p=p),
        subject_params=SubjectParams(log_loadings=np.zeros((1, k)), offsets=np.zeros(1)),
        tau=tau,
    )
    return potential(state, None)


def _mass_term(w, p, a, b):
    """U's Bernoulli(p) mass at w, with U's other terms taken out in closed form."""
    n, k = w.shape
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    x = build_x(w, ColumnValues(a=a, b=b))
    gram = (n - k - 1) / 2 * np.linalg.slogdet(x.T @ x)[1]
    return -_potential_at(w, p, a, b) - k * _UNIT_LOADING - gram + 0.5 * (a @ a + b @ b)


class TestLogBernoulliMass:
    def test_single_entry(self):
        got = _mass_term(np.array([[1.0]]), np.array([0.5]), [1.0], [-1.0])
        assert got == pytest.approx(math.log(0.5), abs=1e-13)

    def test_all_ones_half(self):
        got = _mass_term(np.ones((5, 1)), np.array([0.5]), [1.0], [-1.0])
        assert got == pytest.approx(5 * math.log(0.5), abs=1e-12)

    def test_cross_pattern(self):
        # log 0.2 + log 0.3 + log 0.8 + log 0.7, summed exactly
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = _mass_term(w, np.array([0.2, 0.7]), [1.0, 2.0], [0.0, 0.0])
        assert got == pytest.approx(-3.3932292120129786, abs=1e-13)

    def test_relaxed_weights_accepted(self):
        # plugged in as they are; each column holds 1/4 and 3/4, so it
        # weighs log p + log(1 - p) once
        w = np.array([[0.25, 0.75], [0.75, 0.25]])
        got = _mass_term(w, np.array([0.4, 0.6]), [1.0, 1.0], [0.0, 0.0])
        assert got == pytest.approx(2 * (math.log(0.4) + math.log(0.6)), abs=1e-12)

    def test_boundary_rate_rejected(self):
        with pytest.raises(ValueError):
            MixtureProbs(p=np.array([0.0]))
        with pytest.raises(ValueError):
            MixtureProbs(p=np.array([1.0]))


def _gaussian_term(a, b):
    """U's standard-normal a, b term, -sum(a^2 + b^2)/2, at n = k + 1, where
    the gram term vanishes, with U's other terms taken out in closed form.
    Column j of x is a_j on row j and b_j elsewhere, so a != b gives full rank."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    k = a.size
    w = np.eye(k + 1, k)
    u = _potential_at(w, np.full(k, 0.5), a, b)
    return -u - k * _UNIT_LOADING - (k + 1) * k * math.log(0.5)


class TestLogGaussianAb:
    def test_mode(self):
        # a = b = 0 makes X zero, so the mode is approached: the term is
        # -3 eps^2 / 2, which reads 0 at eps = 1e-100
        for eps in (1e-3, 1e-100):
            got = _gaussian_term(np.full(3, eps), np.zeros(3))
            assert got == pytest.approx(-1.5 * eps**2, abs=1e-12)

    def test_two_halves(self):
        got = _gaussian_term(np.array([1.0]), np.array([-1.0]))
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_mixed(self):
        got = _gaussian_term(np.array([1.0, 2.0]), np.zeros(2))
        assert got == pytest.approx(-2.5, abs=1e-12)


def _gram_term(x):
    """U's gram term ((n - k - 1)/2) log det(X'X) at a two-valued x, with
    U's other terms taken out in closed form."""
    n, k = x.shape
    a, b = x.max(axis=0), x.min(axis=0)
    u = _potential_at((x == a).astype(np.float64), np.full(k, 0.5), a, b)
    return -u - k * _UNIT_LOADING - n * k * math.log(0.5) + 0.5 * (a @ a + b @ b)


class TestLogDetGram:
    def test_identity_columns(self):
        assert _whitened(np.eye(5)[:, :2])[1] == 0.0
        assert _gram_term(np.eye(5)[:, :2]) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_at_critical_dimension(self):
        # n = k + 1 makes the exponent zero regardless of the gram matrix
        assert _gram_term(np.array([[1.0], [-1.0]])) == pytest.approx(0.0, abs=1e-12)
        x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert _gram_term(x) == pytest.approx(0.0, abs=1e-12)

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
