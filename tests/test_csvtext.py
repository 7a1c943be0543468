"""The vectorised '%.17g' formatter against Python's own '%' on each value."""

import numpy as np

from msfactor.csvtext import SLOT, g17_slots


def _texts(values):
    slots = g17_slots(np.asarray(values, dtype=np.float64)).reshape(-1, SLOT)
    return [slot[slot != 0].tobytes().decode() for slot in slots]


def _assert_exact(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = _texts(values)
    wrong = [(v, g) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
    assert not wrong, f"{len(wrong)} of {values.size} differ, first {wrong[:3]}"


def _ties(seed, count):
    """Exact 17-digit ties m 2**-j: m odd, m 5**j of 18 digits, ending in 5.

    Returns (value, its first 17 digits) pairs; j runs over 2..25, which
    puts the values from 1e-8 to 1e16, most of them in the fast range.
    """
    rng = np.random.default_rng(seed)
    ties = []
    for j, u in zip(rng.integers(2, 26, count).tolist(), rng.random(count).tolist()):
        lo, hi = -(-10**17 // 5**j), min(2**53, 10**18 // 5**j)
        m = (lo + int(u * (hi - lo))) | 1
        if m < 2**53 and 10**17 <= m * 5**j < 10**18:
            ties.append((m * 2.0**-j, m * 5**j // 10))
    return ties


class TestExactness:
    def test_decade_boundaries_and_neighbours(self):
        powers = 10.0 ** np.arange(-5, 11)
        _assert_exact(np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ]))

    def test_special_values(self):
        _assert_exact([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf])
        assert _texts([0.0, -0.0]) == ["0", "-0"]

    def test_seeded_values_over_the_range(self):
        rng = np.random.default_rng(2024)
        size = 100_000
        values = 10.0 ** rng.uniform(-6.0, 10.0, size) * rng.choice([-1.0, 1.0], size)
        _assert_exact(values)

    def test_integers_print_as_percent_d(self):
        values = np.array([0, 1, 9, 10, 41, 200, 2**31 - 6, 10**15 + 1, 2**53])
        assert _texts(values.astype(np.float64)) == ["%d" % v for v in values]

    def test_exact_ties_round_half_even(self):
        assert "%.17g" % (211 / 2**21) == "0.00010061264038085938"
        ties = _ties(5, 20_000)
        # both parities below the tie, so rounding half up differs on some
        assert {low % 2 for _, low in ties} == {0, 1}
        values = np.array([v for v, _ in ties] + [211 / 2**21])
        _assert_exact(np.concatenate([values, -values]))

