"""Posterior summaries and convergence diagnostics.

Summaries are computed from hard assignment patterns plus the level
values: every retained draw's frame is rebuilt by whitening the
structured matrix implied by (W, a, b), which makes the results
reproducible from the trace files alone.  Each chain is cut after
burn-in and put under the label convention once; its ESS and the
pooled summaries both read that one result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .prior import ColumnValues, build_x
from .whitening import NotPositiveDefiniteError, whiten


def ess_batch_means(series):
    """Effective sample size by the batch-means method.

    Uses floor(sqrt(T)) batches; estimates the asymptotic variance from
    the batch-mean spread.  Returns 0 for a constant series, and never
    more than T.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    t_n = x.size
    if t_n < 100:
        raise ValueError(f"need at least 100 draws, got {t_n}")
    if np.ptp(x) == 0.0:
        return 0.0
    overall = x.var(ddof=1)
    n_batches = math.isqrt(t_n)
    size = t_n // n_batches
    batches = x[: n_batches * size].reshape(n_batches, size)
    bm_var = batches.mean(axis=1).var(ddof=1)
    if bm_var == 0.0:
        return float(t_n)
    ess = t_n * overall / (size * bm_var)
    return float(min(ess, t_n))


def subspace_error(q_hat, q_ref):
    """Frobenius distance between column-space projectors, normalized.

    ||P_hat - P_ref||_F / ||P_ref||_F with P = Q Q'; equals sqrt(2) for
    orthogonal complements of equal dimension.
    """
    q_hat = np.asarray(q_hat, dtype=np.float64)
    q_ref = np.asarray(q_ref, dtype=np.float64)
    if q_hat.shape != q_ref.shape:
        raise ValueError(f"frame shapes differ: {q_hat.shape} vs {q_ref.shape}")
    k = q_ref.shape[1]
    for name, q in (("estimate", q_hat), ("reference", q_ref)):
        gram = q.T @ q
        if not np.abs(gram - np.eye(k)).max() <= 1e-6:   # NaN fails too
            raise ValueError(f"{name} frame is not orthonormal within 1e-6")
    p_hat = q_hat @ q_hat.T
    p_ref = q_ref @ q_ref.T
    return float(np.linalg.norm(p_hat - p_ref) / np.linalg.norm(p_ref))


def partition_recovery(w_prob, w_truth, level):
    """Agreement between thresholded posterior assignments and a split.

    Hard-assigns node i to side1 when w_prob[i, level-1] > 0.5 and
    returns the share of nodes on the same side as in column level-1
    of the reference membership matrix w_truth (n x k, 0/1), under the
    better of the two side labelings: max(same, n - same) / n.
    """
    w_prob = np.asarray(w_prob, dtype=np.float64)
    n, k = w_truth.shape
    if not 1 <= level <= k:
        raise ValueError(f"level {level} out of range 1..{k}")
    if w_prob.shape[0] != n:
        raise ValueError(f"w_prob has {w_prob.shape[0]} rows, partition has {n} nodes")
    same = int(np.count_nonzero((w_prob[:, level - 1] > 0.5) == w_truth[:, level - 1]))
    return max(same, n - same) / n


@dataclass
class PosteriorSummary:
    w_prob: np.ndarray        # n x k, Pr(side1) under canonical labels
    q_mean: np.ndarray        # n x k, sign-aligned mean, re-orthonormalized
    d_mean: np.ndarray        # S x k, loadings on the natural scale
    factors: list             # k dense n x n log-odds contributions
    ess: dict                 # chain name -> series name -> ESS, None below 100 draws
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "w_prob": self.w_prob.tolist(),
            "q_mean": self.q_mean.tolist(),
            "d_mean": self.d_mean.tolist(),
            "ess": self.ess,
            "meta": self.meta,
        }


def _retained(name, log, burn_in):
    """One chain's draws after burn-in, under the a_j >= b_j convention.

    Where a draw has a_j < b_j its level values swap, p_j becomes
    1 - p_j and assignment column j is complemented.
    """
    if log.n_draws == 0:
        raise ValueError(f"{name}: empty sample log")
    start = int(math.floor(log.n_draws * burn_in))
    a, b, p, w = log.a[start:], log.b[start:], log.p[start:], log.w_hard[start:]
    swap = a < b
    if swap.any():
        w = np.where(swap[:, None, :], 1.0 - w, w)
    return {
        "a": np.where(swap, b, a), "b": np.where(swap, a, b), "p": np.where(swap, 1.0 - p, p),
        "w": w, "loadings": np.exp(log.log_loadings[start:]),
        "offsets": log.offsets[start:], "u": log.u[start:],
    }


def _ess(draws):
    """Batch-means ESS of one chain's retained a, b, p, offsets and U."""
    k, s = draws["a"].shape[1], draws["offsets"].shape[1]
    series = {f"{name}_{j + 1}": draws[name][:, j] for name in "abp" for j in range(k)}
    series.update({f"z_{i + 1}": draws["offsets"][:, i] for i in range(s)})
    series["U"] = draws["u"]
    ess = {}
    for name, values in series.items():
        try:
            ess[name] = ess_batch_means(values)
        except ValueError:
            ess[name] = None
    return ess


def summarize(chains, burn_in=0.5):
    """Reduce chains' sample logs to posterior point summaries and ESS values.

    chains maps each chain's name to its SampleLog, in chain order, and
    burn_in is the fraction of each chain's draws discarded from its
    front. ESS is per chain; every other summary pools the chains'
    retained draws in chain order. Logs hold raw draws; the label
    convention (a_j > b_j) is imposed here, so file-loaded and
    in-memory logs behave identically.
    """
    if not 0.0 <= burn_in < 1.0:
        raise ValueError(f"burn_in must be in [0, 1), got {burn_in}")
    if not chains:
        raise ValueError("no chains to summarize")
    retained = {name: _retained(name, log, burn_in) for name, log in chains.items()}
    a, b, w, loadings = (np.concatenate([r[key] for r in retained.values()])
                         for key in ("a", "b", "w", "loadings"))
    kept = a.shape[0]

    w_prob = w.mean(axis=0)
    d_mean = loadings.mean(axis=0)

    q_sum = None
    q_ref = None
    used = 0
    for t in range(kept):
        try:  # whitening is the rank test
            q = whiten(build_x(w[t], ColumnValues(a=a[t], b=b[t])))
        except NotPositiveDefiniteError:
            continue
        if q_ref is None:
            q_ref = q
            q_sum = np.zeros_like(q)
        flip = np.sign(np.einsum("ik,ik->k", q, q_ref))
        flip[flip == 0.0] = 1.0
        q_sum += q * flip
        used += 1
    if used == 0:
        raise ValueError("no retained draw had a full-rank hard pattern")
    # re-orthonormalize the columnwise average so downstream consumers
    # (projector distances, factor outer products) get a frame
    q_mean = q_sum / used
    orthonormalized = True
    try:
        q_mean = whiten(q_mean)
    except NotPositiveDefiniteError:
        orthonormalized = False

    level_scale = d_mean.mean(axis=0)
    factors = [
        level_scale[j] * np.outer(q_mean[:, j], q_mean[:, j])
        for j in range(q_mean.shape[1])
    ]

    return PosteriorSummary(
        w_prob=w_prob,
        q_mean=q_mean,
        d_mean=d_mean,
        factors=factors,
        ess={name: _ess(r) for name, r in retained.items()},
        meta={
            "n_retained": kept,
            "n_frame_draws": used,
            "n_rank_skipped": kept - used,
            "burn_in": burn_in,
            "q_mean_orthonormalized": orthonormalized,
            "chains": list(chains),
        },
    )
