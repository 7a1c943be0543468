"""Logistic latent-factor model for a population of binary networks.

Each subject's n x n symmetric adjacency matrix has independent upper
triangle entries A[s, i, j] ~ Bernoulli(sigmoid(psi[s, i, j])) with
log-odds psi_s = Q diag(d_s) Q' + z_s built from a shared orthonormal
frame Q, per-subject nonnegative loadings d_s, and a scalar offset z_s.
Diagonals are excluded throughout.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .prior import build_x
from .whitening import _ignore_fp_errors, whiten


def _expit(x):
    """Logistic sigmoid; an overflowed exp gives exactly 0, without a warning."""
    with _ignore_fp_errors():
        return 1.0 / (1.0 + np.exp(-x))


def _logit(p):
    """Log-odds of a probability."""
    return np.log(p / (1.0 - p))


@dataclass(frozen=True, eq=False)
class NetworkDataset:
    """S binary undirected networks on a common node set.

    Checked when built.  The adjacency is a read-only copy, so what the
    likelihood derives from it once per dataset stays valid; datasets
    compare and hash by identity, which keys that derived state.
    """

    n: int
    adjacency: np.ndarray  # S x n x n, arrays of 0/1

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        a = np.asarray(self.adjacency)
        if a.ndim != 3 or a.shape[1] != self.n or a.shape[2] != self.n:
            raise ValueError(f"adjacency must be S x {self.n} x {self.n}, got {a.shape}")
        a = a.astype(np.float64)
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)
        self.validate()

    def __reduce__(self):
        # unpickled through the constructor, so a chain worker's copy is
        # checked and read-only like every other dataset
        return type(self), (self.n, self.adjacency)

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
        """The share of edges among all subjects' pairs i < j."""
        _, _, packed, edges, _ = _dataset_arrays(self)
        return edges.size / packed.size if packed.size else 0.0

    def to_json(self):
        return json.dumps({
            "n": self.n,
            "subjects": self.adjacency.astype(int).tolist(),
        })

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        return cls(n=payload["n"], adjacency=np.asarray(payload["subjects"], dtype=np.float64))


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


@functools.lru_cache(maxsize=1)
def _dataset_arrays(data):
    """What the likelihood stages derive from one dataset, kept for the last
    one asked for; the cache holds that dataset, so no other can take its
    identity meanwhile.  They are 2A - 1 in float32 (its entries are +-1,
    exact at either precision), the flat indices of the pairs i < j within
    one n x n slice, an S x P buffer for every subject's packed pairs, the
    positions of the edges among them, and room for the log-odds at the
    edges.  Reusing them spares a page-faulting allocation per call; they
    live here rather than on the dataset, so pickling a dataset never
    copies them.  Not thread-safe: chains run in separate processes.
    """
    adj = data.adjacency
    s, n, _ = adj.shape
    rows, cols = np.triu_indices(n, k=1)
    pairs = rows * n + cols
    packed = np.empty((s, pairs.size))
    # the edges are read once, through the packed buffer
    edges = np.flatnonzero(_packed(adj, pairs, packed))
    return (2.0 * adj - 1.0).astype(np.float32), pairs, packed, edges, np.empty(edges.size)


@functools.lru_cache(maxsize=2)
def _work_arrays(data, width, dtype):
    """The product's buffers at one precision for one dataset and frame
    width w = k + 1, kept for the last two asked for: the value stage's
    float64 ones and the gradient stage's, float32 in a chain.  They are
    [q | 1] (n x w) and its transpose, one S x n x w array for [q | 1]
    scaled per subject and then R [q | 1], and one S x n x n array for
    psi / 2 and then twice the residual.  Kept and not thread-safe, as
    _dataset_arrays.
    """
    s, n, _ = data.adjacency.shape
    # the ones column of [q | 1] (row of its transpose) is written once, here
    return (np.ones((n, width), dtype), np.ones((width, n), dtype),
            np.empty((s, n, width), dtype), np.empty((s, n, n), dtype))


def _packed(a, pairs, out):
    """The pairs i < j of every S x n x n slice of a, written into out (S x P)."""
    s, n, _ = a.shape
    # in range by construction; "clip" spares take's buffered copy
    return np.take(a.reshape(s, n * n), pairs, axis=1, out=out, mode="clip")


def _diagonals(a):
    """Writable view of the diagonal of every S x n x n slice."""
    s, n, _ = a.shape
    return a.reshape(s, n * n)[:, :: n + 1]


def _half_log_odds(work, q, half_dz):
    """psi / 2 for every subject from the halved loadings and offsets, in
    work's buffers at their precision."""
    q1, q1t, wide, psi = work
    k = q.shape[1]
    q1[:, :k] = q
    q1t[:k] = q.T
    np.multiply(q1, half_dz[:, None, :], out=wide)
    return np.matmul(wide, q1t, out=psi)


def log_likelihood(data, q, d, z):
    """The Bernoulli log-likelihood, in float64.

    Unchecked, on plain arrays: frame q (n x k), loadings d =
    exp(log_loadings) (S x k) and offsets z (S,).  The offsets ride as
    a ones column of the frame, so the log-odds of all subjects come
    from a single batched product psi_s = [q | 1] diag([d_s | z_s])
    [q | 1]', taken against a C-contiguous copy of [q | 1]' (numpy's
    batched product is slower with the transposed view).  Products,
    scalings and gathers write into buffers kept per dataset, frame
    width and precision, which log_likelihood_grads shares: each stage
    overwrites all it reads, so neither depends on which ran last.  The
    value is summed over the packed pairs i < j only, each counted once:
      sum over edges of psi - sum of softplus(psi),
    with softplus(t) = max(t, 0) + log1p(exp(-|t|)) and sum max(t, 0)
    = (sum t + sum |t|) / 2.  Scaling by a power of two is exact short
    of the subnormal range, so both stages carry psi / 2 (and the
    gradient stage twice the residual) and take the factors back out
    where a product or a sum is formed anyway.  Every long sum is a
    numpy reduction, not a BLAS dot: OpenBLAS splits a long dot product
    across threads, so its rounding would follow the thread count.
    """
    _, pairs, packed, edges, at_edges = _dataset_arrays(data)
    work = _work_arrays(data, q.shape[1] + 1, np.float64)
    half_dz = 0.5 * np.column_stack((d, z))
    half = _packed(_half_log_odds(work, q, half_dz), pairs, packed).reshape(-1)
    on_edges = np.take(half, edges, out=at_edges, mode="clip").sum()   # as in _packed
    total = half.sum()
    np.abs(half, out=half)
    total_abs = half.sum()
    np.multiply(half, -2.0, out=half)   # -|psi|
    np.exp(half, out=half)
    np.log1p(half, out=half)
    return float(2.0 * on_edges - total - total_abs - half.sum())


def log_likelihood_grads(data, q, d, z, dtype):
    """Gradients (g_q, g_ld, g_z) of the log-likelihood w.r.t. (q,
    log_loadings, offsets), on log_likelihood's arguments.

    The S x n x n stage runs at dtype: the product psi_s / 2, then the
    symmetric zero-diagonal residual R_s = A_s - sigmoid(psi_s) in
    place through sigmoid(x) = (1 + tanh(x/2)) / 2, as (A_s - 1/2) -
    tanh(psi_s/2) / 2, and RQ_s = R_s [q | 1]; float32 halves its time
    at n = 128.  RQ_s is then held in float64, in log_likelihood's
    S x n x w buffer, its last column R_s's row sums, and the gradients
    all reduce from it in float64:
      d/dq[i, m]          = sum_s d[s, m] * RQ_s[i, m]
      d/dlog_loadings[s,m]= d[s, m] * q[:, m]' RQ_s[:, m] / 2
      d/doffsets[s]       = sum of R_s above the diagonal
                          = sum_i RQ_s[i, k] / 2
    Every off-diagonal pair appears twice in R_s, so upper-triangle
    sums are halves of full sums.
    """
    k = q.shape[1]
    a2 = _dataset_arrays(data)[0]
    half_dz = 0.5 * np.column_stack((d, z))
    stage = _work_arrays(data, k + 1, dtype)
    q1, _, wide, r = stage
    # twice the residual A - sigmoid(psi) = (A - 1/2) - tanh(psi / 2) / 2
    _half_log_odds(stage, q, half_dz.astype(dtype, copy=False))
    np.tanh(r, out=r)
    np.subtract(a2, r, out=r)
    _diagonals(r)[:] = 0.0
    # at float64 the two buffers are one, and numpy skips the self-copy
    rq = _work_arrays(data, k + 1, np.float64)[2]
    np.copyto(rq, np.matmul(r, q1, out=wide))
    g_q = np.einsum("sim,sm->im", rq[..., :k], half_dz[:, :k])
    g_ld = 0.25 * d * np.einsum("im,sim->sm", q, rq[..., :k])
    g_z = 0.25 * rq[..., k].sum(axis=1)
    return g_q, g_ld, g_z


def simulate_dataset(w, values, sp, rng):
    """Generate networks whose shared frame whitens the structured matrix of
    membership matrix w (n x k, 0/1).

    Returns (dataset, {"frame": q}), q the frame that produced the data.
    """
    q = whiten(build_x(w, values))
    d = np.exp(sp.log_loadings)
    psi = np.matmul(q * d[:, None, :], q.T) + sp.offsets[:, None, None]
    prob = _expit(psi)
    upper = rng.random(prob.shape) < prob
    adj = np.triu(upper, k=1)
    adj = adj + np.swapaxes(adj, 1, 2)
    data = NetworkDataset(n=w.shape[0], adjacency=adj.astype(np.float64))
    return data, {"frame": q}
