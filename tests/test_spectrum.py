import math

import numpy as np
import pytest

from boxforce import WellSide, energy_level, level_gap
from boxforce.spectrum import offsets

P = WellSide.PLUS
M = WellSide.MINUS


def test_side_constants():
    assert (P.offset, M.offset) == (0.5, 0.0)
    assert offsets([P, M, M, P]).tolist() == [0.5, 0.0, 0.0, 0.5]
    assert (P.sigma, P.tau) == (0, -1)
    assert (M.sigma, M.tau) == (1, 1)
    assert P.ground_energy == 0.25
    assert M.ground_energy == 1.0


@pytest.mark.parametrize(
    "side, n, expected",
    [
        (P, 3, 6.25),
        (M, 3, 9.0),
        (P, 1, 0.25),
        (M, 1, 1.0),
    ],
)
def test_energy_level_values(side, n, expected):
    assert energy_level(side, n) == expected


def test_ground_state_split_is_three_quarters():
    assert energy_level(M, 1) - energy_level(P, 1) == 0.75


def test_energy_level_rejects_nonpositive_indices():
    for n in (0, -1, -100, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            energy_level(P, n)
        with pytest.raises(ValueError):
            energy_level(M, n)
    assert energy_level(M, 3.0) == 9.0  # an integral float passes


def test_energy_level_exact_at_large_index():
    assert energy_level(P, 10_000_000) == 99999990000000.25
    assert energy_level(M, 10_000_000) == 1.0e14


def test_extended_spectrum_symmetry():
    # the level formula at every integer n, the Poisson split's premise: PLUS levels are symmetric under
    # n -> 1 - n, MINUS levels under n -> -n
    n = np.arange(-1000, 1001, dtype=np.float64)
    assert np.array_equal(level_gap(P, n), level_gap(P, 1 - n))
    assert np.array_equal(level_gap(M, n), level_gap(M, -n))


def test_level_spacing_strictly_increasing():
    for side in (P, M):
        previous_gap = 0.0
        for n in range(1, 1000):
            gap = energy_level(side, n + 1) - energy_level(side, n)
            assert gap > previous_gap
            previous_gap = gap


def test_level_gap_matches_energy_difference():
    n = np.arange(1, 2000, dtype=np.float64)
    for side in (P, M):
        expected = np.array([energy_level(side, int(k)) - side.ground_energy for k in n])
        assert np.array_equal(level_gap(side, n), expected)
