"""Single-particle spectra of the two half wells.

A box is split in the middle by a thin wall. Both outer ends are hard
(Dirichlet) walls, while the two faces of the partition impose different
conditions: the right half sees a Neumann face, the left half a Dirichlet
face. In dimensionless units the right well then carries the levels
(n - 1/2)^2 and the left well the levels n^2, n = 1, 2, 3, ...

Levels are exact closed forms evaluated on demand; nothing is tabulated.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = ["WellSide", "energy_level", "energy_level_extended", "level_gap"]


class WellSide(Enum):
    """One half of the divided box, tagged by its boundary face at the partition."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def ground_energy(self) -> float:
        """Lowest level e_1: 1/4 for PLUS, 1 for MINUS."""
        return 0.25 if self is WellSide.PLUS else 1.0

    @property
    def sigma(self) -> int:
        """n = 0 correction entering the two-sided level sum (0 for PLUS, 1 for MINUS)."""
        return 0 if self is WellSide.PLUS else 1

    @property
    def tau(self) -> int:
        """Sign of the Fourier modes in the resummed level sums (-1 for PLUS, +1 for MINUS)."""
        return -1 if self is WellSide.PLUS else 1


def energy_level(side: WellSide, n: int) -> float:
    """Dimensionless energy of level n >= 1 of one half well.

    (n - 1/2)^2 for PLUS, n^2 for MINUS; exact in double precision up to
    n = 10**7.
    """
    if not (1 <= n < math.inf and n % 1 == 0):  # an integral float such as 3.0 passes; nan and inf fail
        raise ValueError(f"level index must be a positive integer, got {n}")
    return energy_level_extended(side, n)


def energy_level_extended(side: WellSide, n: int) -> float:
    """Level formula evaluated at any integer n.

    The two-sided Poisson sums need the spectrum continued to n <= 0; the
    PLUS levels are symmetric under n -> 1 - n and the MINUS levels under
    n -> -n.
    """
    if side is WellSide.PLUS:
        return (n - 0.5) ** 2
    return float(n * n)


def level_gap(side: WellSide, n):
    """e_n - e_1 in a cancellation-free form: n(n-1) for PLUS, (n-1)(n+1) for MINUS.

    Accepts a scalar or a numpy array of level indices.
    """
    if side is WellSide.PLUS:
        return n * (n - 1.0)
    return (n - 1.0) * (n + 1.0)


def plus_mask(sides: Sequence[WellSide]) -> np.ndarray:
    """A bool array, True where sides[i] is WellSide.PLUS, built with no Python-level call per side."""
    return np.fromiter(map(operator.is_, sides, repeat(WellSide.PLUS)), dtype=bool, count=len(sides))
