"""Recursive binary partitions of a node set, held as membership matrices.

A depth-k recursive partition is a stack of k two-way splits of
{0, ..., n-1}.  The program holds it as its n x k membership matrix W:
W[i, j] is 1 iff node i is on side1 of split j+1.  No tree is stored;
the level-j cells are the groups of nodes that agree on the first j
columns of W.  RecursivePartition is the codec of truth.json's
"partition" entry, which lists each split's two sides.
"""

from __future__ import annotations

import json

import numpy as np


class RecursivePartition:
    """A membership matrix as truth.json lists it: each split's two sides."""

    def __init__(self, w):
        w = np.asarray(w)
        if w.ndim != 2 or w.shape[0] < 1:
            raise ValueError(f"membership must be n x k with n >= 1, got shape {w.shape}")
        if not np.isin(w, (0, 1)).all():
            raise ValueError("membership entries must be 0 or 1")
        w = w.astype(np.int64)
        w.flags.writeable = False
        self._w = w

    def membership_matrix(self):
        """A copy of W: n x k, entry (i, j) is 1 iff node i is on side1 of level j+1."""
        return self._w.copy()

    def to_json(self):
        levels = [
            [np.flatnonzero(col).tolist(), np.flatnonzero(col == 0).tolist()]
            for col in self._w.T
        ]
        return json.dumps({"n": self._w.shape[0], "levels": levels})

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        n, levels = payload["n"], payload["levels"]
        full = frozenset(range(n))
        w = np.zeros((n, len(levels)), dtype=np.int64)
        for j, (s1, s2) in enumerate(levels):
            side1, side2 = frozenset(s1), frozenset(s2)
            if side1 & side2:
                raise ValueError(f"level {j + 1}: sides overlap")
            if side1 | side2 != full:
                raise ValueError(f"level {j + 1}: sides do not cover 0..{n - 1}")
            w[:, j] = [i in side1 for i in range(n)]
        return cls(w)


def random_partition(n, k, rng):
    """W (n x k, 0/1 float64) of k independent fair two-way splits, each
    with both sides nonempty."""
    if n < 2:
        raise ValueError(f"need n >= 2 to split, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1 levels, got {k}")
    if n < k:
        raise ValueError(f"need n >= k for a full-rank frame, got n={n}, k={k}")
    w = np.empty((n, k))
    for j in range(k):
        while True:
            mask = rng.random(n) < 0.5
            if 0 < mask.sum() < n:
                break
        w[:, j] = mask
    return w

