"""Single-particle spectra of the two half wells.

A box is split in the middle by a thin wall. Both outer ends are hard
(Dirichlet) walls, while the two faces of the partition impose different
conditions: the right half (PLUS) sees a Neumann face, the left half (MINUS)
a Dirichlet face. In dimensionless units a well's levels are e_n = (n - c)^2,
n = 1, 2, 3, ..., with c = 1/2 for PLUS and c = 0 for MINUS. The offset c
(WellSide.offset) is the one fact that tells the wells apart: every per-well
constant, here and in the solver's kernels, is derived from it.

Levels are exact closed forms evaluated on demand; nothing is tabulated.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = ["WellSide", "energy_level", "level_gap"]


class WellSide(Enum):
    """One half of the divided box, tagged by its boundary face at the partition."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def offset(self) -> float:
        """c in e_n = (n - c)^2: 1/2 for PLUS (Neumann face), 0 for MINUS (Dirichlet face)."""
        return 0.5 if self is WellSide.PLUS else 0.0

    @property
    def ground_energy(self) -> float:
        """Lowest level e_1 = (1 - c)^2."""
        return (1.0 - self.offset) ** 2

    @property
    def sigma(self) -> float:
        """n = 0 correction entering the two-sided level sum, 1 - 2c."""
        return 1.0 - 2.0 * self.offset

    @property
    def tau(self) -> float:
        """Sign of the Fourier modes in the resummed level sums, cos(2 pi c)."""
        return math.cos(2.0 * math.pi * self.offset)


def energy_level(side: WellSide, n: int) -> float:
    """Dimensionless energy of level n >= 1 of one half well, exact in double precision up to n = 10**7."""
    if not (1 <= n < math.inf and n % 1 == 0):  # an integral float such as 3.0 passes; nan and inf fail
        raise ValueError(f"level index must be a positive integer, got {n}")
    return (n - side.offset) ** 2


def level_gap(side: WellSide, n):
    """e_n - e_1 in a cancellation-free form, (n - 1)(n + 1 - 2c), for a scalar or a numpy array of any integers n.

    Symmetric under n -> 2c - n, the reflection the Poisson split's two-sided level sums rest on.
    """
    return (n - 1.0) * (n + side.sigma)


def offsets(sides: Sequence[WellSide]) -> np.ndarray:
    """c of each of sides as a float array, built with no Python-level call per side."""
    is_plus = np.fromiter(map(operator.is_, sides, repeat(WellSide.PLUS)), dtype=float, count=len(sides))
    is_plus *= WellSide.PLUS.offset  # MINUS's c is 0
    return is_plus
