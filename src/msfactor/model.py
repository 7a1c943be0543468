"""Logistic latent-factor model for a population of binary networks.

Each subject's n x n symmetric adjacency matrix has independent upper
triangle entries A[s, i, j] ~ Bernoulli(sigmoid(psi[s, i, j])) with
log-odds psi_s = Q diag(d_s) Q' + z_s built from a shared orthonormal
frame Q, per-subject nonnegative loadings d_s, and a scalar offset z_s.
Diagonals are excluded throughout.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .prior import build_x
from .whitening import whiten

LOADING_SHAPE = 0.1   # inverse-gamma shape for each loading
LOADING_RATE = 0.1    # inverse-gamma rate
OFFSET_SD = 10.0      # normal prior sd for each offset


def _expit(x):
    """Logistic sigmoid; an overflowed exp gives exactly 0, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _logit(p):
    """Log-odds of a probability."""
    return np.log(p / (1.0 - p))


@dataclass(frozen=True)
class NetworkDataset:
    """S binary undirected networks on a common node set.

    The adjacency is a read-only copy, so what the likelihood derives
    from it once per dataset stays valid.
    """

    n: int
    adjacency: np.ndarray  # S x n x n, arrays of 0/1

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 3 or a.shape[1] != self.n or a.shape[2] != self.n:
            raise ValueError(f"adjacency must be S x {self.n} x {self.n}, got {a.shape}")
        a = a.astype(np.float64)
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    @property
    def n_subjects(self):
        return self.adjacency.shape[0]

    def validate(self):
        """Reject non-binary entries, asymmetry, or nonzero diagonals."""
        a = self.adjacency
        bad = np.flatnonzero(~np.isin(a, (0.0, 1.0)))
        if bad.size:
            s, i, j = np.unravel_index(bad[0], a.shape)
            raise ValueError(f"non-binary entry at subject {s}, ({i}, {j})")
        mismatch = np.flatnonzero(a != np.swapaxes(a, 1, 2))
        if mismatch.size:
            s, i, j = np.unravel_index(mismatch[0], a.shape)
            raise ValueError(f"asymmetric entry at subject {s}, ({i}, {j})")
        diag = np.flatnonzero(np.diagonal(a, axis1=1, axis2=2))
        if diag.size:
            s, i = np.unravel_index(diag[0], (a.shape[0], self.n))
            raise ValueError(f"nonzero diagonal at subject {s}, node {i}")

    def edge_density(self):
        pairs = self.n * (self.n - 1) / 2
        upper = np.triu_indices(self.n, k=1)
        return float(self.adjacency[:, upper[0], upper[1]].mean()) if pairs else 0.0

    def to_json(self):
        return json.dumps({
            "n": self.n,
            "subjects": self.adjacency.astype(int).tolist(),
        })

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        data = cls(n=payload["n"], adjacency=np.asarray(payload["subjects"], dtype=np.float64))
        data.validate()
        return data


@dataclass(frozen=True)
class SubjectParams:
    """Per-subject log-loadings (S x k) and offsets (S,)."""

    log_loadings: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        ld = np.asarray(self.log_loadings, dtype=np.float64)
        z = np.asarray(self.offsets, dtype=np.float64)
        if ld.ndim != 2 or z.ndim != 1 or ld.shape[0] != z.size:
            raise ValueError(
                f"log_loadings must be S x k with matching offsets, got {ld.shape} and {z.shape}"
            )
        object.__setattr__(self, "log_loadings", ld)
        object.__setattr__(self, "offsets", z)

    @property
    def n_subjects(self):
        return self.offsets.size

    @property
    def depth(self):
        return self.log_loadings.shape[1]


# Work arrays of the likelihood pass, held for one dataset at a time:
# (weak reference to the dataset, 2A - 1, two S x n x n scratch arrays).
# Reusing them spares a page-faulting allocation per call; they live
# here rather than on the dataset, so pickling a dataset never copies
# them.  Not thread-safe: chains run in separate processes.
_workspace = None


def _work_arrays(data):
    global _workspace
    if _workspace is None or _workspace[0]() is not data:
        _workspace = None  # free the previous dataset's arrays first
        shape = data.adjacency.shape
        _workspace = (
            weakref.ref(data), 2.0 * data.adjacency - 1.0, np.empty(shape), np.empty(shape)
        )
    return _workspace[1:]


def _diagonals(a):
    """Writable view of the diagonal of every S x n x n slice."""
    s, n, _ = a.shape
    return a.reshape(s, n * n)[:, :: n + 1]


def _checked(data, q, sp):
    q = np.asarray(q, dtype=np.float64)
    if q.shape[0] != data.n:
        raise ValueError(f"frame has {q.shape[0]} rows, data has {data.n} nodes")
    if sp.n_subjects != data.n_subjects or sp.depth != q.shape[1]:
        raise ValueError("subject parameters do not match data/frame dimensions")
    return q


def _likelihood_pass(data, q, d, z, value, grads):
    """One forward pass: (log-likelihood or None, gradients or None).

    Unchecked, on plain arrays: frame q (n x k), loadings d =
    exp(log_loadings) (S x k) and offsets z (S,).  Works on the full
    n x n matrices: every off-diagonal pair appears twice, so
    upper-triangle sums are halves of full sums.  Scaling by a power of
    two is exact short of the subnormal range, so the pass carries
    psi / 2 and twice the residual and takes the factors back out where
    a product is formed anyway.
    """
    a2, psi, work = _work_arrays(data)
    half_d = 0.5 * d
    np.matmul(q * half_d[:, None, :], q.T, out=psi)
    psi += (0.5 * z)[:, None, None]     # psi / 2

    g = None
    if grads:
        # twice the residual A - sigmoid(psi) = (A - 1/2) - tanh(psi / 2) / 2
        np.tanh(psi, out=work)
        np.subtract(a2, work, out=work)
        _diagonals(work)[:] = 0.0
        rq = work @ q
        g_q = np.einsum("sim,sm->im", rq, half_d)
        g_ld = 0.25 * d * np.einsum("im,sim->sm", q, rq)
        g_z = 0.25 * work.sum(axis=(1, 2))
        g = (g_q, g_ld, g_z)

    ll = None
    if value:
        # sum of A psi - log(1 + exp(psi)) off the diagonal, with
        # log(1 + exp(t)) = max(t, 0) + log1p(exp(-|t|)); psi is spent
        psi *= 2.0
        _diagonals(psi)[:] = 0.0
        # einsum's own loop, not a BLAS dot: OpenBLAS splits a long dot
        # product across threads, so its rounding follows the thread count
        a_psi = np.einsum("sij,sij->", data.adjacency, psi)
        np.abs(psi, out=work)
        np.negative(work, out=work)
        np.exp(work, out=work)
        np.log1p(work, out=work)
        np.maximum(psi, 0.0, out=psi)
        psi += work
        _diagonals(psi)[:] = 0.0
        ll = 0.5 * float(a_psi - psi.sum())
    return ll, g


def log_likelihood(data, q, sp):
    """Bernoulli log-likelihood over all subjects' upper triangles."""
    q = _checked(data, q, sp)
    return _likelihood_pass(
        data, q, np.exp(sp.log_loadings), sp.offsets, value=True, grads=False
    )[0]


def log_prior_theta(sp):
    """Log prior of the subject parameters.

    Loadings are inverse-gamma(0.1, 0.1), expressed on the log scale
    (the log d Jacobian is included); offsets carry a normal(0, 10^2)
    kernel without its constant.
    """
    ld = sp.log_loadings
    d = np.exp(ld)
    shape, rate = LOADING_SHAPE, LOADING_RATE
    per = shape * np.log(rate) - math.lgamma(shape) - shape * ld - rate / d
    kern = -0.5 * (sp.offsets / OFFSET_SD) @ (sp.offsets / OFFSET_SD)
    return float(per.sum() + kern)


def log_likelihood_grads(data, q, sp, with_value=False):
    """Gradients of log_likelihood w.r.t. (q, log_loadings, offsets).

    One fused pass per call.  The log-odds of all subjects come from a
    single batched product psi = (q diag(d_s)) q' + z_s.  The symmetric
    zero-diagonal residual R_s = A_s - sigmoid(psi_s) is formed in place
    through sigmoid(x) = (1 + tanh(x/2)) / 2, as (A_s - 1/2) -
    tanh(psi_s/2) / 2, and RQ_s = R_s q is taken once; all three
    gradients reduce from it:
      d/dq[i, m]          = sum_s d[s, m] * RQ_s[i, m]
      d/dlog_loadings[s,m]= d[s, m] * q[:, m]' RQ_s[:, m] / 2
      d/doffsets[s]       = sum of R_s above the diagonal
                          = sum of all of R_s / 2
    With with_value, returns (log_likelihood, g_q, g_ld, g_z), the value
    taken from the same pass.
    """
    q = _checked(data, q, sp)
    ll, g = _likelihood_pass(
        data, q, np.exp(sp.log_loadings), sp.offsets, value=with_value, grads=True
    )
    return (ll, *g) if with_value else g


def simulate_dataset(rp, values, probs, sp, rng):
    """Generate networks whose shared frame whitens a partition-structured matrix.

    Returns (dataset, truth) where truth records the frame, partition,
    values, probs, and subject parameters that produced the data.
    """
    w = rp.membership_matrix().astype(np.float64)
    q = whiten(build_x(w, values))
    d = np.exp(sp.log_loadings)
    psi = np.matmul(q * d[:, None, :], q.T) + sp.offsets[:, None, None]
    prob = _expit(psi)
    upper = rng.random(prob.shape) < prob
    adj = np.triu(upper, k=1)
    adj = adj + np.swapaxes(adj, 1, 2)
    data = NetworkDataset(n=rp.n, adjacency=adj.astype(np.float64))
    truth = {
        "frame": q,
        "partition": rp,
        "values": values,
        "probs": probs,
        "subject_params": sp,
        "membership": w,
    }
    return data, truth
