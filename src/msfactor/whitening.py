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
product.  This module alone reads the factor: _whitened returns log
det(X'X) / 2 beside the frame, and whiten_backward pulls a gradient
w.r.t. both back to X.  Products check nothing: an overflowed gradient
comes back as inf/nan for the sampler to reject as a divergence.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.linalg import _umath_linalg

PIVOT_EPS = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot at or below the relative floor; doubles as the rank test."""


def _ignore_fp_errors():
    """The program's one floating-point error state: every flag ignored.

    Each caller checks what it computes instead.  A failed factor comes
    back filled with NaN, and the NaN pivot fails the floor; a sigmoid's
    overflowed exp gives exactly 0; a trajectory rejects a non-finite
    position, gradient or energy as a divergence.
    """
    return np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore")


def _factor_or_none(s):
    """Lower Cholesky factor of s, or None below the relative pivot floor.

    The factor is rejected when a pivot is <= PIVOT_EPS * max(diag(s)).
    Its squared pivots are the loop's pivots, so the floor is applied to
    the smallest afterwards; a failed or NaN factor makes the minimum
    NaN, which fails it.  The caller holds _ignore_fp_errors().
    """
    floor = PIVOT_EPS * s.diagonal().max()
    low = _umath_linalg.cholesky_lo(s, signature="d->d")
    return low if low.diagonal().min() ** 2 > floor else None


def _whiten_pass(x):
    low = _factor_or_none(x.T @ x)
    if low is None:
        raise NotPositiveDefiniteError("matrix is not positive definite above the pivot floor")
    # the mask keeps L^-1 exactly lower triangular, so column j of the
    # frame mixes only columns 1..j of x
    inv = _umath_linalg.inv(low, signature="d->d")
    linv = np.where(_lower_mask(low.shape[0]), inv, 0.0)
    return x @ linv.T, low, linv


def _whitened(x):
    """Both whitening passes on a float n x k matrix, unchecked.

    The second pass whitens the first-pass frame again, taking the
    orthonormality error from eps * cond(X)^2 down to ~eps.  The
    composite is still X (L2 L1)^-T with L2 L1 lower triangular, so
    the triangular column structure is preserved exactly.

    Returns (q, log_det, passes): q = q2 the refined frame, log_det =
    sum(log(diag(L1))) = log det(X'X) / 2 from the first pass's factor,
    and passes = [(q1, low1, linv1), (q2, low2, linv2)], linv the
    lower-triangular inverse of low, for whiten_backward.
    """
    with _ignore_fp_errors():
        first = _whiten_pass(x)
        second = _whiten_pass(first[0])
    log_det = float(np.log(first[1].diagonal()).sum())
    return second[0], log_det, [first, second]


def whiten(x):
    """Orthonormalize the columns of x by two-pass Cholesky whitening."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {x.shape}")
    n, k = x.shape
    if n < k:
        raise ValueError(f"need n >= k, got {n} x {k}")
    return _whitened(x)[0]


def rank_ok(x):
    """True iff x has full column rank under the whitening pivot rule."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < x.shape[1]:
        return False
    with _ignore_fp_errors():
        return _factor_or_none(x.T @ x) is not None


@functools.lru_cache(maxsize=None)
def _lower_mask(k):
    mask = np.tri(k, dtype=bool)
    mask.flags.writeable = False    # shared by every call at this k
    return mask


def whiten_backward(passes, grad_q, grad_log_det):
    """Pull gradients w.r.t. the frame and the log-det back to the input.

    Returns the gradient w.r.t. X of <grad_q, Q> + grad_log_det *
    log_det, for the passes and log_det of _whitened(X); grad_q None
    drops the frame term.  For one pass Q = X L^-T, the frame's adjoint is
        X_bar = (G - Q (phi(G'Q) + phi(G'Q)')) L^-1
    with phi the lower-triangle mask at half diagonal, applied once per
    whitening pass, innermost last.  The log-det's is
        d(log det(X'X) / 2)/dX = X (X'X)^-1 = Q1 L1^-1.
    """
    q1, _, linv1 = passes[0]
    g_log_det = grad_log_det * (q1 @ linv1)
    if grad_q is None:
        return g_log_det
    g = grad_q
    mask = _lower_mask(g.shape[1])
    for q, _, linv in reversed(passes):
        # phi(M) + phi(M)' is M on and below the diagonal and M' above
        # it; forming it directly gives the same values (a zero may
        # differ in sign) without halving the diagonal and adding
        m = g.T @ q
        g = (g - q @ np.where(mask, m, m.T)) @ linv
    return g + g_log_det
