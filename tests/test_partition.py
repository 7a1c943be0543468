"""Membership matrix draws, their cells, and the truth-file codec."""

import json

import numpy as np
import pytest

from msfactor.diagnostics import partition_recovery
from msfactor.partition import RecursivePartition, random_partition


def _rp(n, splits):
    levels = [[sorted(s1), sorted(s2)] for s1, s2 in splits]
    return RecursivePartition.from_json(json.dumps({"n": n, "levels": levels}))


def _w(n, splits):
    return _rp(n, splits).membership_matrix()


def cells_at_level(w, j):
    """Nonempty intersections of the first j splits of membership matrix w.

    Returns a dict mapping bit-string labels ('0' = side1 at that level)
    to frozensets of node indices, in label order.  The whitening and
    acceptance tests import it; TestCells checks it.
    """
    if not 1 <= j <= w.shape[1]:
        raise ValueError(f"level {j} out of range 1..{w.shape[1]}")
    cells = {}
    for node, bits in enumerate((1 - w[:, :j]).astype(np.int64).tolist()):
        cells.setdefault("".join(map(str, bits)), []).append(node)
    return {label: frozenset(cells[label]) for label in sorted(cells)}


def _set_based_draw(n, k, rng):
    """Reference: the split draw as (side1, side2) frozenset pairs."""
    splits = []
    for _ in range(k):
        while True:
            mask = rng.random(n) < 0.5
            if 0 < mask.sum() < n:
                break
        splits.append((
            frozenset(np.flatnonzero(mask).tolist()),
            frozenset(np.flatnonzero(~mask).tolist()),
        ))
    return splits


def _intersected_cells(n, splits, j):
    """Reference: level-j cells by intersecting the first j splits."""
    cells = {"": frozenset(range(n))}
    for side1, side2 in splits[:j]:
        nxt = {}
        for label, members in cells.items():
            for bit, side in (("0", side1), ("1", side2)):
                piece = members & side
                if piece:
                    nxt[label + bit] = piece
        cells = nxt
    return cells


class TestCells:
    def test_two_crossing_splits_give_four_singletons(self):
        cells = cells_at_level(_w(4, [({0, 1}, {2, 3}), ({0, 2}, {1, 3})]), 2)
        assert cells == {
            "00": frozenset({0}),
            "01": frozenset({1}),
            "10": frozenset({2}),
            "11": frozenset({3}),
        }

    def test_repeated_split_drops_empty_intersections(self):
        cells = cells_at_level(_w(4, [({0, 1}, {2, 3}), ({0, 1}, {2, 3})]), 2)
        assert cells == {"00": frozenset({0, 1}), "11": frozenset({2, 3})}

    def test_cells_partition_the_nodes(self):
        rng = np.random.default_rng(3)
        cells = cells_at_level(random_partition(128, 3, rng), 3)
        assert len(cells) <= 8
        assert sum(len(c) for c in cells.values()) == 128
        union = frozenset().union(*cells.values())
        assert union == frozenset(range(128))

    def test_level_out_of_range(self):
        w = _w(4, [({0, 1}, {2, 3})])
        with pytest.raises(ValueError):
            cells_at_level(w, 0)
        with pytest.raises(ValueError):
            cells_at_level(w, 2)

    def test_cells_refine_previous_level(self):
        rng = np.random.default_rng(17)
        w = random_partition(40, 5, rng)
        for j in range(2, 6):
            coarse = list(cells_at_level(w, j - 1).values())
            for cell in cells_at_level(w, j).values():
                assert any(cell <= parent for parent in coarse)

    def test_cells_match_set_intersection_at_every_level(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(2, 40)), int(rng.integers(1, 7))
            splits = _set_based_draw(n, min(k, n), rng)
            w = _w(n, splits)
            for j in range(1, w.shape[1] + 1):
                got = cells_at_level(w, j)
                expected = _intersected_cells(n, splits, j)
                assert got == expected
                assert list(got) == list(expected)

    def test_cell_count_monotone_and_bounded(self):
        rng = np.random.default_rng(23)
        w = random_partition(30, 6, rng)
        counts = [len(cells_at_level(w, j)) for j in range(1, 7)]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
        assert all(c <= min(30, 2 ** j) for j, c in enumerate(counts, start=1))


class TestValidation:
    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            _rp(3, [({0, 1}, {1, 2})])

    def test_non_covering_sides_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            _rp(3, [({0}, {2})])

    def test_non_binary_membership_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            RecursivePartition(np.array([[1], [2]]))
        with pytest.raises(ValueError, match="0 or 1"):
            RecursivePartition(np.array([[1.0], [0.5]]))

    def test_empty_node_set_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            _rp(0, [])


class TestRandomPartition:
    def test_two_nodes_single_split(self):
        for seed in range(10):
            w = random_partition(2, 1, np.random.default_rng(seed))
            sides = set(cells_at_level(w, 1).values())
            assert sides == {frozenset({0}), frozenset({1})}

    def test_deterministic_given_seed(self):
        a = random_partition(16, 4, np.random.default_rng(99))
        b = random_partition(16, 4, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_sides_always_nonempty(self):
        for seed in range(100):
            side1_sizes = random_partition(64, 6, np.random.default_rng(seed)).sum(axis=0)
            assert ((0 < side1_sizes) & (side1_sizes < 64)).all()

    def test_membership_equals_set_based_draw(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(2, 50)), int(rng.integers(1, 8))
            k = min(k, n)
            state = rng.bit_generator.state
            splits = _set_based_draw(n, k, rng)
            rng.bit_generator.state = state
            w = random_partition(n, k, rng)
            assert w.dtype == np.float64
            assert w.tolist() == [[int(i in s1) for s1, _ in splits] for i in range(n)]

    def test_dimension_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_partition(1, 1, rng)
        with pytest.raises(ValueError):
            random_partition(3, 4, rng)
        with pytest.raises(ValueError):
            random_partition(4, 0, rng)


class TestMembershipMatrix:
    def test_matches_side_assignment(self):
        w = _w(4, [({0, 1}, {2, 3}), ({0, 2}, {1, 3})])
        assert w.tolist() == [[1, 1], [1, 0], [0, 1], [0, 0]]

    def test_shape_and_binary(self):
        w = RecursivePartition(random_partition(20, 4, np.random.default_rng(5))).membership_matrix()
        assert w.shape == (20, 4)
        assert set(np.unique(w)) <= {0, 1}

    def test_returns_a_copy_of_the_held_matrix(self):
        source = np.array([[1, 0], [0, 1], [1, 1]])
        rp = RecursivePartition(source)
        source[0, 0] = 0
        w = rp.membership_matrix()
        w[:] = 0
        assert rp.membership_matrix().tolist() == [[1, 0], [0, 1], [1, 1]]

    def test_equality_compares_memberships(self):
        # side order and depth are part of W
        w = _w(4, [({0, 1}, {2, 3})])
        assert np.array_equal(w, [[1], [1], [0], [0]])
        assert not np.array_equal(w, _w(4, [({2, 3}, {0, 1})]))
        assert w.shape != _w(4, [({0, 1}, {2, 3}), ({0, 1}, {2, 3})]).shape


class TestPartitionDistance:
    """The distance between two splits is 1 - partition_recovery."""

    def test_identity(self):
        w = _w(4, [({0, 1}, {2, 3})])
        assert 1.0 - partition_recovery(w, w, 1) == 0.0

    def test_relabeling_invariance(self):
        w = _w(4, [({0, 1}, {2, 3})])
        swapped = _w(4, [({2, 3}, {0, 1})])
        assert 1.0 - partition_recovery(w, swapped, 1) == 0.0
        assert 1.0 - partition_recovery(swapped, w, 1) == 0.0


class TestJsonRoundTrip:
    def test_round_trip_identity(self):
        w = random_partition(12, 3, np.random.default_rng(7))
        text = RecursivePartition(w).to_json()
        assert np.array_equal(RecursivePartition.from_json(text).membership_matrix(), w)

    def test_text_round_trips_byte_for_byte(self):
        for seed in range(10):
            text = RecursivePartition(random_partition(30, 5, np.random.default_rng(seed))).to_json()
            assert RecursivePartition.from_json(text).to_json() == text

    def test_payload_shape(self):
        rp = _rp(3, [({0, 2}, {1})])
        payload = json.loads(rp.to_json())
        assert payload == {"n": 3, "levels": [[[0, 2], [1]]]}

