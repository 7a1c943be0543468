"""Two-value structured matrices and their multi-scale orthogonal prior.

A structured matrix has columns taking one of two values per level:
x[i, j] = a[j] if node i is assigned to side1 at level j, else b[j].
The prior draws a, b standard normal, assignment rates p uniform, the
binary assignment matrix Bernoulli(p) columnwise, and rejects draws
whose structured matrix is column-rank-deficient.  This module holds
the structured matrix and full_rank_pattern, its rejection loop; the
prior's log-density and its gradient are terms of the sampler's
potential, in sampler._evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import random_partition
from .whitening import rank_ok

# random_partition draws random_full_rank_partition makes before it gives up
PARTITION_ATTEMPTS = 1000


class InitializationError(RuntimeError):
    """No valid starting partition or state could be constructed."""


@dataclass(frozen=True)
class ColumnValues:
    """Per-level value pair (a[j], b[j]) for the two sides."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError(f"a and b must be 1-d of equal length, got {a.shape} vs {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def depth(self):
        return self.a.size


@dataclass(frozen=True)
class MixtureProbs:
    """Per-level side1 assignment probabilities, strictly inside (0, 1)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"p must be 1-d, got shape {p.shape}")
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ValueError("assignment probabilities must lie strictly in (0, 1)")
        object.__setattr__(self, "p", p)


def build_x(w, values):
    """Assemble the n x k matrix: w * a + (1 - w) * b columnwise.

    w holds assignment weights, binary or relaxed in [0, 1].
    """
    return w * values.a + (1.0 - w) * values.b


def full_rank_pattern(draw, values, max_attempts):
    """The first pattern from draw() whose structured matrix has full rank.

    draw() is called once per attempt.  Returns None when max_attempts
    draws all fail.
    """
    for _ in range(max_attempts):
        w = draw()
        if rank_ok(build_x(w, values)):
            return w
    return None


def random_full_rank_partition(n, k, values, rng):
    """W of the first of PARTITION_ATTEMPTS random_partition draws that is
    full rank under values; InitializationError when none is."""
    w = full_rank_pattern(lambda: random_partition(n, k, rng), values, PARTITION_ATTEMPTS)
    if w is None:
        raise InitializationError(
            f"no full-rank partition in {PARTITION_ATTEMPTS} attempts (n={n}, k={k})"
        )
    return w
