"""Cholesky, the whitening transform, rank checks, and column grouping."""

import numpy as np
import pytest

from msfactor.partition import random_partition
from msfactor.prior import ColumnValues, build_x
from msfactor.whitening import (
    NotPositiveDefiniteError,
    cholesky,
    extract_column_partition,
    rank_ok,
    whiten,
    whiten_backward,
    whiten_with_factors,
)


def _structured_frame(n, k, rng):
    """A full-rank structured matrix from a random partition, with its source."""
    for _ in range(100):
        rp = random_partition(n, k, rng)
        values = ColumnValues(
            a=rng.standard_normal(k), b=rng.standard_normal(k)
        )
        x = build_x(rp.membership_matrix().astype(np.float64), values)
        if rank_ok(x):
            return rp, values, x
    raise AssertionError("no full-rank structured draw")


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_hand_factor(self):
        low = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(
            low, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=0, atol=1e-15
        )

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            s = m @ m.T + 5 * np.eye(5)
            low = cholesky(s)
            np.testing.assert_allclose(low @ low.T, s, rtol=1e-10)
            assert np.all(low.diagonal() > 0)
            assert np.all(np.triu(low, k=1) == 0.0)

    def test_rank_one_rejected_with_pivot_index(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert exc.value.pivot_index == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestWhiten:
    def test_two_node_column(self):
        q = whiten(np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(q, [[1 / np.sqrt(2)], [-1 / np.sqrt(2)]], atol=1e-15)

    def test_orthonormal_input_fixed_point(self):
        q0 = np.eye(5)[:, :3]
        np.testing.assert_allclose(whiten(q0), q0, atol=1e-14)

    def test_orthonormality_tight(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(3, 40))
            k = int(rng.integers(1, min(n, 8) + 1))
            x = rng.standard_normal((n, k))
            q = whiten(x)
            worst = max(worst, np.abs(q.T @ q - np.eye(k)).max())
        assert worst <= 1e-10

    def test_span_preserved(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((9, 4))
        q = whiten(x)
        # projecting X onto span(Q) reproduces X
        np.testing.assert_allclose(q @ (q.T @ x), x, atol=1e-8)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            k = int(rng.integers(1, min(n, 6) + 1))
            x = rng.standard_normal((n, k))
            c = rng.uniform(0.1, 10.0, size=k)
            np.testing.assert_allclose(whiten(x * c), whiten(x), atol=1e-10)

    def test_triangular_propagation(self):
        # column j of Q depends only on columns 1..j of X
        rng = np.random.default_rng(29)
        x = rng.standard_normal((10, 4))
        q = whiten(x)
        for j in range(1, 4):
            bumped = x.copy()
            bumped[:, j:] += rng.standard_normal((10, 4 - j))
            if not rank_ok(bumped):
                continue
            q2 = whiten(bumped)
            np.testing.assert_allclose(q2[:, :j], q[:, :j], atol=1e-12)

    def test_rank_deficient_raises(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            whiten(x)
        assert exc.value.pivot_index == 1

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            whiten(np.ones((2, 3)))


class TestStructuredUniqueValues:
    def test_unique_value_counts_and_cell_equality(self):
        rng = np.random.default_rng(41)
        rp, _, x = _structured_frame(8, 3, rng)
        q = whiten(x)
        for j in range(1, 4):
            col = q[:, j - 1]
            labels = extract_column_partition(col, tol=1e-8)
            assert labels.max() + 1 <= 2 ** j
            for cell in rp.cells_at_level(j).values():
                members = sorted(cell)
                vals = col[members]
                assert np.ptp(vals) <= 1e-8

    def test_label_partition_matches_cells(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            rp, _, x = _structured_frame(16, 3, rng)
            q = whiten(x)
            for j in range(1, 4):
                labels = extract_column_partition(q[:, j - 1], tol=1e-8)
                groups = {}
                for node, lab in enumerate(labels):
                    groups.setdefault(lab, set()).add(node)
                derived = {frozenset(g) for g in groups.values()}
                true_cells = set(rp.cells_at_level(j).values())
                # grouping can only merge cells that share a value by chance;
                # every derived group must be a union of true cells
                for g in derived:
                    parts = [c for c in true_cells if c <= g]
                    assert frozenset().union(*parts) == g


class TestExtractColumnPartition:
    def test_two_groups(self):
        labels = extract_column_partition(np.array([0.5, 0.5, -0.5, -0.5]), tol=1e-8)
        assert labels.tolist() == [0, 0, 1, 1]

    def test_constant_column(self):
        labels = extract_column_partition(np.full(6, 2.5), tol=1e-3)
        assert labels.tolist() == [0] * 6

    def test_first_occurrence_numbering(self):
        labels = extract_column_partition(np.array([3.0, -1.0, 3.0, 7.0]), tol=1e-8)
        assert labels.tolist() == [0, 1, 0, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_column_partition(np.array([]))


class TestRankOk:
    def test_identical_columns(self):
        x = np.ones((4, 2))
        assert not rank_ok(x)

    def test_orthonormal_columns(self):
        assert rank_ok(np.eye(6)[:, :3])

    def test_duplicate_split_same_values(self):
        values = ColumnValues(a=np.array([1.5, 1.5]), b=np.array([-0.5, -0.5]))
        w = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        assert not rank_ok(build_x(w, values))

    def test_wide_matrix_false(self):
        assert not rank_ok(np.ones((2, 3)))


def _whiten_central_differences(x, g_q, h=1e-6):
    """Central differences of sum(whiten(x) * g_q), entry by entry."""
    num = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            up = x.copy()
            dn = x.copy()
            up[i, j] += h
            dn[i, j] -= h
            num[i, j] = (np.sum(whiten(up) * g_q) - np.sum(whiten(dn) * g_q)) / (2 * h)
    return num


class TestWhitenBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((7, 3))
        g_q = rng.standard_normal((7, 3))
        _, passes = whiten_with_factors(x)
        g_x = whiten_backward(passes, g_q)
        num = _whiten_central_differences(x, g_q)
        np.testing.assert_allclose(g_x, num, rtol=1e-6, atol=1e-8)


def _loop_cholesky(s, eps=1e-12):
    """Column-by-column reference factor with the relative pivot floor."""
    s = np.asarray(s, dtype=np.float64)
    k = s.shape[0]
    floor = eps * max(s.diagonal().max(), 0.0)
    low = np.zeros((k, k))
    for j in range(k):
        pivot = s[j, j] - low[j, :j] @ low[j, :j]
        if not pivot > floor:
            raise NotPositiveDefiniteError(j)
        low[j, j] = np.sqrt(pivot)
        if j + 1 < k:
            low[j + 1:, j] = (s[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def _failing_pivot(factor, s):
    try:
        factor(s)
    except NotPositiveDefiniteError as err:
        return err.pivot_index
    return None


class TestLapackCholesky:
    @pytest.mark.parametrize("k", [1, 3, 30])
    def test_matches_loop_reference(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(10):
            x = rng.standard_normal((k + 20, k)) * rng.uniform(0.1, 10.0, size=k)
            s = x.T @ x
            ref = _loop_cholesky(s)
            low = cholesky(s)
            np.testing.assert_allclose(low, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
            assert np.all(np.triu(low, k=1) == 0.0)

    @staticmethod
    def _patterns():
        rng = np.random.default_rng(7)
        x = rng.standard_normal((12, 5))
        repeated = x.copy()
        repeated[:, 3] = repeated[:, 1]
        constant = x.copy()
        constant[:, 0] = 1.0
        constant[:, 2] = -2.5
        zero = x.copy()
        zero[:, 4] = 0.0
        return {"repeated": (repeated, 3), "constant": (constant, 2), "zero": (zero, 4)}

    @pytest.mark.parametrize("name", ["repeated", "constant", "zero"])
    def test_rank_deficient_pivot_index(self, name):
        x, expected = self._patterns()[name]
        s = x.T @ x
        assert _failing_pivot(_loop_cholesky, s) == expected
        assert _failing_pivot(cholesky, s) == expected

    def test_indefinite_pivot_index(self):
        # a negative pivot with a zero diagonal after it: the entries past
        # the failing pivot are unfactored and must not be tested
        s = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert _failing_pivot(_loop_cholesky, s) == 1
        assert _failing_pivot(cholesky, s) == 1

    @pytest.mark.parametrize("j", [0, 2, 4])
    @pytest.mark.parametrize("ratio, fails", [(0.5, True), (2.0, False)])
    def test_pivot_floor_relative(self, j, ratio, fails):
        # a factor whose pivot j squared sits at ratio x the relative floor
        rng = np.random.default_rng(31 + j)
        low = np.tril(rng.uniform(0.5, 1.5, size=(5, 5)))
        low[j, j] = 0.0
        floor = 1e-12 * (low @ low.T).diagonal().max()
        low[j, j] = np.sqrt(ratio * floor)
        s = low @ low.T
        expected = j if fails else None
        assert _failing_pivot(_loop_cholesky, s) == expected
        assert _failing_pivot(cholesky, s) == expected

    def test_random_structured_patterns_agree_with_loop(self):
        rng = np.random.default_rng(43)
        for k in (3, 6):
            for _ in range(100):
                w = (rng.random((2 * k, k)) < 0.5).astype(np.float64)
                values = ColumnValues(
                    a=rng.choice([1.0, 2.0], size=k), b=rng.choice([-1.0, 0.0], size=k)
                )
                x = build_x(w, values)
                s = x.T @ x
                assert _failing_pivot(cholesky, s) == _failing_pivot(_loop_cholesky, s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal", "after_negative_pivot"])
    def test_nan_rejected(self, where):
        s = np.eye(3) * 2.0
        if where == "diagonal":
            s[1, 1] = np.nan
        elif where == "off_diagonal":
            s[2, 1] = s[1, 2] = np.nan
        else:
            # numpy's factor raises LinAlgError here rather than return NaN
            s[0, 0] = -1.0
            s[1, 0] = s[0, 1] = np.nan
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(s)

    @pytest.mark.parametrize(
        "s", [np.array([[1.0, 0.5], [0.2, 1.0]]), np.ones((2, 3)), np.ones(3)]
    )
    def test_malformed_input_is_plain_value_error(self, s):
        with pytest.raises(ValueError) as exc:
            cholesky(s)
        assert type(exc.value) is ValueError

    def test_whiten_is_first_output_of_whiten_with_factors(self):
        x = np.random.default_rng(59).standard_normal((9, 4))
        np.testing.assert_array_equal(whiten(x), whiten_with_factors(x)[0])
        with pytest.raises(ValueError):
            whiten(np.ones(4))


class TestBackwardSymmetrization:
    @pytest.mark.parametrize("k", [1, 3, 7, 30])
    def test_matches_half_lower_sum(self, k):
        # whiten_backward forms phi(M) + phi(M)' as M on and below the
        # diagonal and M' above it; phi is tril with a halved diagonal.
        # Equal bytes hold for every nonzero and +0.0 entry; a -0.0 off
        # the diagonal would come out as +0.0 from the sum
        from msfactor.whitening import _lower_mask

        rng = np.random.default_rng(k)
        for _ in range(200):
            m = rng.standard_normal((k, k)) * 10.0 ** rng.integers(-8, 9, size=(k, k))
            m[rng.random((k, k)) < 0.1] = 0.0
            h = np.tril(m)
            np.fill_diagonal(h, 0.5 * m.diagonal())
            assert np.where(_lower_mask(k), m, m.T).tobytes() == (h + h.T).tobytes()

    @pytest.mark.parametrize("k", [1, 3, 30])
    def test_backward_matches_half_lower_form(self, k):
        rng = np.random.default_rng(300 + k)
        x = rng.standard_normal((k + 20, k)) * rng.uniform(0.1, 10.0, size=k)
        _, passes = whiten_with_factors(x)
        g_q = rng.standard_normal(x.shape)
        g = g_q
        for q, _, linv in reversed(passes):
            h = np.tril(g.T @ q)
            np.fill_diagonal(h, 0.5 * h.diagonal())
            g = (g - q @ (h + h.T)) @ linv
        assert whiten_backward(passes, g_q).tobytes() == g.tobytes()


class TestDirectLapack:
    @pytest.mark.parametrize("k", [1, 3, 30])
    def test_factor_and_inverse_equal_numpy_linalg(self, k):
        # the whitening calls the gufuncs behind np.linalg.cholesky and
        # np.linalg.inv directly; a numpy that changes them fails here
        rng = np.random.default_rng(400 + k)
        for _ in range(20):
            x = rng.standard_normal((k + 20, k)) * rng.uniform(0.1, 10.0, size=k)
            s = x.T @ x
            low = cholesky(s)
            assert low.tobytes() == np.linalg.cholesky(s).tobytes()
            _, passes = whiten_with_factors(x)
            for _, low, linv in passes:
                ref = np.where(np.tri(k, dtype=bool), np.linalg.inv(low), 0.0)
                assert linv.tobytes() == ref.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [np.array([[1.0, 2.0], [2.0, 1.0]]), -np.eye(3)])
    def test_indefinite_raises_without_warnings(self, s):
        # a failed factor comes back as NaN; NaN inputs: test_nan_rejected
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", ["repeated", "nan"])
    def test_whitening_failure_raises_without_warnings(self, bad):
        x = np.random.default_rng(67).standard_normal((8, 3))
        if bad == "repeated":
            x[:, 2] = x[:, 1]
        else:
            x[4, 1] = np.nan
        assert not rank_ok(x)
        with pytest.raises(NotPositiveDefiniteError):
            whiten_with_factors(x)

    def test_pivot_search_bisects(self, monkeypatch):
        # a 128 x 30 draw whose last column repeats the one before fails at
        # pivot 29; the search factors at most 1 + ceil(log2 30) blocks
        import msfactor.whitening

        x = np.random.default_rng(61).standard_normal((128, 30))
        x[:, 29] = x[:, 28]
        calls = []
        original = msfactor.whitening._factor_or_none

        def counting(s, floor):
            calls.append(s.shape[0])
            return original(s, floor)

        monkeypatch.setattr(msfactor.whitening, "_factor_or_none", counting)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            whiten(x)
        assert exc.value.pivot_index == 29
        assert calls[0] == 30
        assert len(calls) <= 1 + 5


class TestInverseFactor:
    @pytest.mark.parametrize("k", [1, 3, 30])
    def test_lower_triangular_inverse_of_each_pass(self, k):
        rng = np.random.default_rng(200 + k)
        x = rng.standard_normal((k + 20, k)) * rng.uniform(0.1, 10.0, size=k)
        _, passes = whiten_with_factors(x)
        for _, low, linv in passes:
            assert np.all(np.triu(linv, k=1) == 0.0)
            np.testing.assert_allclose(low @ linv, np.eye(k), rtol=0, atol=1e-12)

    @staticmethod
    def _ill_conditioned(rng, n=40, k=30):
        # singular values from 1e-3 to 1e3; column scales spanning that
        # range would put the smallest pivot at the relative floor
        u = np.linalg.qr(rng.standard_normal((n, k)))[0]
        v = np.linalg.qr(rng.standard_normal((k, k)))[0]
        return (u * np.logspace(-3, 3, k)) @ v.T

    def test_ill_conditioned_frame_orthonormal(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            q = whiten(self._ill_conditioned(rng))
            assert np.abs(q.T @ q - np.eye(30)).max() <= 1e-10

    def test_ill_conditioned_backward_matches_finite_differences(self):
        rng = np.random.default_rng(67)
        x = self._ill_conditioned(rng)
        g_q = rng.standard_normal(x.shape)
        _, passes = whiten_with_factors(x)
        g_x = whiten_backward(passes, g_q)
        num = _whiten_central_differences(x, g_q)
        np.testing.assert_allclose(g_x, num, rtol=0, atol=1e-6 * np.abs(g_x).max())

    def test_infinite_gradient_comes_back_non_finite(self):
        rng = np.random.default_rng(71)
        _, passes = whiten_with_factors(rng.standard_normal((7, 3)))
        g_q = rng.standard_normal((7, 3))
        g_q[2, 1] = np.inf
        # the sampler's trajectories run under this errstate
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g_x = whiten_backward(passes, g_q)
        assert not np.isfinite(g_x).all()
