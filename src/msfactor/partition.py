"""Recursive binary partitions of a node set.

A depth-k recursive partition is a stack of k two-way splits of
{0, ..., n-1}.  Intersecting the first j splits induces the level-j
cells; cells are labeled by the bit string of side choices, one bit
per level ('0' = side1, '1' = side2).

partition_distance scores two labelings by their best agreement under
relabeling.  Two labels need no search (the bijection is the identity
or the swap), so scipy.optimize is imported only for three or more,
and the CLI, which compares binary levels, never loads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BiPartition:
    """One two-way split of the node set, at a given 1-based level."""

    level: int
    side1: frozenset
    side2: frozenset


@dataclass(frozen=True)
class RecursivePartition:
    """Stack of two-way splits, one per level 1..k."""

    n: int
    levels: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        full = frozenset(range(self.n))
        for pos, split in enumerate(self.levels):
            if split.level != pos + 1:
                raise ValueError(
                    f"levels must be numbered consecutively from 1; "
                    f"position {pos} holds level {split.level}"
                )
            if split.side1 & split.side2:
                raise ValueError(f"level {split.level}: sides overlap")
            if (split.side1 | split.side2) != full:
                raise ValueError(
                    f"level {split.level}: sides do not cover 0..{self.n - 1}"
                )

    @property
    def depth(self):
        return len(self.levels)

    def cells_at_level(self, j):
        """Nonempty intersections of the first j splits.

        Returns a dict mapping bit-string labels ('0' = side1 at that
        level) to frozensets of node indices.
        """
        if not 1 <= j <= self.depth:
            raise ValueError(f"level {j} out of range 1..{self.depth}")
        cells = {"": frozenset(range(self.n))}
        for split in self.levels[:j]:
            nxt = {}
            for label, members in cells.items():
                for bit, side in (("0", split.side1), ("1", split.side2)):
                    piece = members & side
                    if piece:
                        nxt[label + bit] = piece
            cells = nxt
        return cells

    def membership_matrix(self):
        """n x k binary matrix; entry (i, j) is 1 iff node i is on side1 of level j+1."""
        w = np.zeros((self.n, self.depth), dtype=np.int64)
        for pos, split in enumerate(self.levels):
            w[sorted(split.side1), pos] = 1
        return w

    def to_json(self):
        payload = {
            "n": self.n,
            "levels": [
                [sorted(s.side1), sorted(s.side2)] for s in self.levels
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        levels = tuple(
            BiPartition(level=i + 1, side1=frozenset(s1), side2=frozenset(s2))
            for i, (s1, s2) in enumerate(payload["levels"])
        )
        return cls(n=payload["n"], levels=levels)


def random_partition(n, k, rng):
    """Draw k independent fair two-way splits, each with both sides nonempty."""
    if n < 2:
        raise ValueError(f"need n >= 2 to split, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1 levels, got {k}")
    if n < k:
        raise ValueError(f"need n >= k for a full-rank frame, got n={n}, k={k}")
    levels = []
    for j in range(1, k + 1):
        while True:
            mask = rng.random(n) < 0.5
            if 0 < mask.sum() < n:
                break
        side1 = frozenset(np.flatnonzero(mask).tolist())
        side2 = frozenset(np.flatnonzero(~mask).tolist())
        levels.append(BiPartition(level=j, side1=side1, side2=side2))
    return RecursivePartition(n=n, levels=tuple(levels))


def partition_distance(labels_a, labels_b):
    """1 - (best-case label agreement under relabeling) / n.

    Zero iff the two labelings induce the same partition.  With at most
    two labels the optimal bijection is the identity or the swap; with
    more it is found by assignment on the confusion matrix.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"label vectors must share 1-d shape, got {a.shape} vs {b.shape}")
    n = a.size
    if n == 0:
        raise ValueError("empty label vectors")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    m = max(ai.max(), bi.max()) + 1
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (ai, bi), 1)
    if m <= 2:
        agreement = max(np.trace(confusion), np.trace(confusion[::-1]))
    else:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-confusion)
        agreement = confusion[rows, cols].sum()
    return 1.0 - agreement / n
