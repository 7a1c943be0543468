"""Recursive partition construction, cells, serialization, and distance."""

import json

import numpy as np
import pytest

from msfactor.partition import (
    BiPartition,
    RecursivePartition,
    partition_distance,
    random_partition,
)


def _rp(n, splits):
    levels = tuple(
        BiPartition(level=i + 1, side1=frozenset(s1), side2=frozenset(s2))
        for i, (s1, s2) in enumerate(splits)
    )
    return RecursivePartition(n=n, levels=levels)


class TestCells:
    def test_two_crossing_splits_give_four_singletons(self):
        rp = _rp(4, [({0, 1}, {2, 3}), ({0, 2}, {1, 3})])
        cells = rp.cells_at_level(2)
        assert cells == {
            "00": frozenset({0}),
            "01": frozenset({1}),
            "10": frozenset({2}),
            "11": frozenset({3}),
        }

    def test_repeated_split_drops_empty_intersections(self):
        rp = _rp(4, [({0, 1}, {2, 3}), ({0, 1}, {2, 3})])
        cells = rp.cells_at_level(2)
        assert cells == {"00": frozenset({0, 1}), "11": frozenset({2, 3})}

    def test_cells_partition_the_nodes(self):
        rng = np.random.default_rng(3)
        rp = random_partition(128, 3, rng)
        cells = rp.cells_at_level(3)
        assert len(cells) <= 8
        assert sum(len(c) for c in cells.values()) == 128
        union = frozenset().union(*cells.values())
        assert union == frozenset(range(128))

    def test_level_out_of_range(self):
        rp = _rp(4, [({0, 1}, {2, 3})])
        with pytest.raises(ValueError):
            rp.cells_at_level(0)
        with pytest.raises(ValueError):
            rp.cells_at_level(2)

    def test_cells_refine_previous_level(self):
        rng = np.random.default_rng(17)
        rp = random_partition(40, 5, rng)
        for j in range(2, 6):
            coarse = list(rp.cells_at_level(j - 1).values())
            for cell in rp.cells_at_level(j).values():
                assert any(cell <= parent for parent in coarse)

    def test_cell_count_monotone_and_bounded(self):
        rng = np.random.default_rng(23)
        rp = random_partition(30, 6, rng)
        counts = [len(rp.cells_at_level(j)) for j in range(1, 7)]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
        assert all(c <= min(30, 2 ** j) for j, c in enumerate(counts, start=1))


class TestValidation:
    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            _rp(3, [({0, 1}, {1, 2})])

    def test_non_covering_sides_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            _rp(3, [({0}, {2})])

    def test_bad_level_numbering_rejected(self):
        levels = (BiPartition(level=2, side1=frozenset({0}), side2=frozenset({1})),)
        with pytest.raises(ValueError, match="consecutively"):
            RecursivePartition(n=2, levels=levels)


class TestRandomPartition:
    def test_two_nodes_single_split(self):
        for seed in range(10):
            rp = random_partition(2, 1, np.random.default_rng(seed))
            sides = {rp.levels[0].side1, rp.levels[0].side2}
            assert sides == {frozenset({0}), frozenset({1})}

    def test_deterministic_given_seed(self):
        a = random_partition(16, 4, np.random.default_rng(99))
        b = random_partition(16, 4, np.random.default_rng(99))
        assert a == b

    def test_sides_always_nonempty(self):
        for seed in range(100):
            rp = random_partition(64, 6, np.random.default_rng(seed))
            for split in rp.levels:
                assert split.side1 and split.side2

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
        rp = _rp(4, [({0, 1}, {2, 3}), ({0, 2}, {1, 3})])
        w = rp.membership_matrix()
        assert w.tolist() == [[1, 1], [1, 0], [0, 1], [0, 0]]

    def test_shape_and_binary(self):
        rp = random_partition(20, 4, np.random.default_rng(5))
        w = rp.membership_matrix()
        assert w.shape == (20, 4)
        assert set(np.unique(w)) <= {0, 1}


class TestJsonRoundTrip:
    def test_round_trip_identity(self):
        rp = random_partition(12, 3, np.random.default_rng(7))
        assert RecursivePartition.from_json(rp.to_json()) == rp

    def test_payload_shape(self):
        rp = _rp(3, [({0, 2}, {1})])
        payload = json.loads(rp.to_json())
        assert payload == {"n": 3, "levels": [[[0, 2], [1]]]}


class TestPartitionDistance:
    def test_identity(self):
        assert partition_distance([0, 0, 1, 1], [0, 0, 1, 1]) == 0.0

    def test_relabeling_invariance(self):
        assert partition_distance([0, 0, 1, 1], [1, 1, 0, 0]) == 0.0

    def test_crossed_labels(self):
        assert partition_distance([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partition_distance([0, 1], [0, 1, 0])

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.integers(0, 3, size=15)
            b = rng.integers(0, 3, size=15)
            assert partition_distance(a, b) == pytest.approx(partition_distance(b, a))


def _assignment_distance(labels_a, labels_b):
    """Reference: best label bijection by assignment, for any label count."""
    from scipy.optimize import linear_sum_assignment

    _, ai = np.unique(np.asarray(labels_a), return_inverse=True)
    _, bi = np.unique(np.asarray(labels_b), return_inverse=True)
    m = max(ai.max(), bi.max()) + 1
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (ai, bi), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return 1.0 - confusion[rows, cols].sum() / ai.size


class TestPartitionDistanceAgainstAssignment:
    def test_random_binary_labels(self):
        rng = np.random.default_rng(43)
        for _ in range(400):
            n = int(rng.integers(1, 25))
            a = rng.integers(0, 2, size=n)
            b = rng.integers(0, 2, size=n)
            assert partition_distance(a, b) == _assignment_distance(a, b)

    @pytest.mark.parametrize("a, b", [
        ([0], [0]),
        ([0], [1]),
        ([1, 1, 1], [1, 1, 1]),
        ([0, 0, 0, 0], [0, 1, 1, 0]),
        ([3, 7, 7, 3, 3], [5, 5, 5, 5, 5]),
    ])
    def test_single_label_vectors(self, a, b):
        assert partition_distance(a, b) == _assignment_distance(a, b)
        assert partition_distance(b, a) == _assignment_distance(b, a)

    def test_more_than_two_labels(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            a = rng.integers(0, 4, size=18)
            b = rng.integers(0, 3, size=18)
            assert partition_distance(a, b) == _assignment_distance(a, b)
