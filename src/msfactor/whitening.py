"""Cholesky whitening of structured matrices onto the Stiefel manifold.

whiten() maps a full-column-rank n x k matrix X to Q = X L^-T with
L the lower Cholesky factor of X'X.  Because L^-T is upper triangular,
column j of Q mixes only columns 1..j of X, so a matrix whose first j
columns are constant on a cell keeps that cell structure in Q.

The factor and its inverse are LAPACK's, called through the gufuncs
behind np.linalg.cholesky and np.linalg.inv without their wrappers;
the relative pivot floor is checked on the factor's diagonal
afterwards.  Each whitening pass inverts its factor once, zeroing the
inverse above the diagonal, so every solve against L or L' is a matrix
product.  Products check nothing: an overflowed gradient comes back as
inf/nan for the sampler to reject as a divergence.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.linalg import _umath_linalg

PIVOT_EPS = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot at or below the relative floor; doubles as the rank test."""

    def __init__(self, pivot_index, message=None):
        self.pivot_index = pivot_index
        super().__init__(
            message or f"pivot {pivot_index} not positive definite"
        )


def _lapack_errstate():
    # np.linalg's own state around these kernels, except that the
    # invalid flag of a failed factor (which comes back filled with NaN)
    # is ignored rather than raised: the NaN pivot fails the floor
    return np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore")


def cholesky(s):
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    A pivot <= PIVOT_EPS * max(diag(s)) raises NotPositiveDefiniteError
    carrying the failing pivot index.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = max(np.abs(s).max(), 1.0)
    if np.abs(s - s.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    with _lapack_errstate():
        return _factor(s)


def _floor(s):
    return PIVOT_EPS * max(s.diagonal().max(), 0.0)


def _factor_or_none(s, floor):
    # the squared pivots of the factor are the loop's pivots, so the
    # relative floor is applied to the smallest afterwards; a failed or
    # NaN factor makes the minimum NaN, which fails it.  The caller holds
    # _lapack_errstate().
    low = _umath_linalg.cholesky_lo(s, signature="d->d")
    return low if low.diagonal().min() ** 2 > floor else None


def _factor(s):
    # cholesky without the input checks, for callers that build s = X'X
    # and hold _lapack_errstate()
    floor = _floor(s)
    low = _factor_or_none(s, floor)
    if low is None:
        # the failing pivot is the last of the first leading block that
        # fails; failing blocks are nested, so bisect between a block
        # that factors (the empty one) and one that fails (the whole)
        good, bad = 0, s.shape[0]
        while bad - good > 1:
            m = (good + bad) // 2
            if _factor_or_none(s[:m, :m], floor) is None:
                bad = m
            else:
                good = m
        raise NotPositiveDefiniteError(bad - 1)
    return low


def _whiten_pass(x):
    low = _factor(x.T @ x)
    # the mask keeps L^-1 exactly lower triangular, so column j of the
    # frame mixes only columns 1..j of x
    inv = _umath_linalg.inv(low, signature="d->d")
    linv = np.where(_lower_mask(low.shape[0]), inv, 0.0)
    return x @ linv.T, low, linv


def _whitened(x):
    """Both passes on a float n x k matrix, unchecked: (q, passes)."""
    with _lapack_errstate():
        first = _whiten_pass(x)
        second = _whiten_pass(first[0])
    return second[0], [first, second]


def whiten(x):
    """Orthonormalize the columns of x by two-pass Cholesky whitening."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {x.shape}")
    return whiten_with_factors(x)[0]


def rank_ok(x):
    """True iff x has full column rank under the whitening pivot rule."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < x.shape[1]:
        return False
    s = x.T @ x
    with _lapack_errstate():
        return _factor_or_none(s, _floor(s)) is not None


def extract_column_partition(column, tol=1e-8):
    """Group a column's entries into clusters of near-equal values.

    Single-linkage on the sorted values with gap threshold tol; labels
    are integers numbered by first occurrence along the column.
    """
    v = np.asarray(column, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("empty column")
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    boundary = np.diff(sorted_v) > tol
    group_sorted = np.concatenate(([0], np.cumsum(boundary)))
    groups = np.empty(v.size, dtype=np.int64)
    groups[order] = group_sorted
    # relabel so the first node of each cluster fixes its id
    labels = np.full(v.size, -1, dtype=np.int64)
    remap = {}
    for i, g in enumerate(groups):
        if g not in remap:
            remap[g] = len(remap)
        labels[i] = remap[g]
    return labels


def whiten_with_factors(x):
    """Both whitening passes with their factors, for gradient work.

    The second pass whitens the first-pass frame again, taking the
    orthonormality error from eps * cond(X)^2 down to ~eps.  The
    composite is still X (L2 L1)^-T with L2 L1 lower triangular, so
    the triangular column structure is preserved exactly.

    Returns (q, passes) where passes = [(q1, low1, linv1), (q2, low2,
    linv2)], linv the lower-triangular inverse of low, and q = q2 is
    the refined frame.
    """
    x = np.asarray(x, dtype=np.float64)
    n, k = x.shape
    if n < k:
        raise ValueError(f"need n >= k, got {n} x {k}")
    return _whitened(x)


@functools.lru_cache(maxsize=None)
def _lower_mask(k):
    mask = np.tri(k, dtype=bool)
    mask.flags.writeable = False    # shared by every call at this k
    return mask


def whiten_backward(passes, grad_q):
    """Pull a gradient w.r.t. the whitened frame back to the input matrix.

    For one pass Q = X L^-T, the adjoint is
        X_bar = (G - Q (phi(G'Q) + phi(G'Q)')) L^-1
    with phi the lower-triangle mask at half diagonal; applied once per
    whitening pass, innermost last.
    """
    g = grad_q
    mask = _lower_mask(g.shape[1])
    for q, _, linv in reversed(passes):
        # phi(M) + phi(M)' is M on and below the diagonal and M' above
        # it; forming it directly gives the same values (a zero may
        # differ in sign) without halving the diagonal and adding
        m = g.T @ q
        g = (g - q @ np.where(mask, m, m.T)) @ linv
    return g
