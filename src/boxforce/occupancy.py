"""Bose-Einstein occupations and the particle-number constraint.

Each half well holds a fixed number N of ideal bosons. The occupations are
N_n = 1/(exp(alpha + b e_n) - 1) at inverse temperature b = 1/t, and the
multiplier alpha is fixed by the constraint S = sum_n N_n = N.

The constraint is solved in the shifted variable x = alpha + b e_1 > 0.
At low temperature alpha approaches log1p(1/N) - b e_1, a difference of
two numbers of order b, while x stays of order 1/N; solving for x keeps
the ground-state occupation fully resolved at every temperature. The level
cutoff (TAIL_EXPONENT) and the batched monotone Newton iteration of
solve_rows are choices of this implementation; only the occupation formula
and the constraint itself are physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .spectrum import WellSide, level_gap

__all__ = [
    "ThermoPoint",
    "AlphaSolution",
    "RowSolutions",
    "ConstraintSolverError",
    "occupation",
    "total_number",
    "solve_rows",
    "solve_alpha",
    "OVERFLOW_EXPONENT",
    "TAIL_EXPONENT",
    "DEFAULT_TOL",
]

# exp saturates float64 near 709; past this the occupation is 0 to machine precision
OVERFLOW_EXPONENT = 700.0
# Level sums keep every level with b * (e_n - e_1) <= TAIL_EXPONENT, which is
# n <= floor(sqrt(TAIL_EXPONENT * t)) + 1 (at most one level more). Each
# discarded term is below exp(-x - TAIL_EXPONENT) and the terms fall off at
# least like a Gaussian in n, so the discarded tail of sum_n e_n N_n, the
# heavier of the two sums, is below ~2 sqrt(TAIL_EXPONENT / pi)
# exp(-TAIL_EXPONENT) ~ 3e-17 of the sum; the tail of sum_n N_n is smaller.
TAIL_EXPONENT = 40.0
DEFAULT_TOL = 1e-12
MAX_ITER = 200
# rows whose cutoff passes this many levels (t > ~2.5e14) are not attempted
MAX_LEVELS = 100_000_000
# largest (rows x levels) temporary of a level-sum pass, in float64 elements
_TILE = 1 << 14


@dataclass(frozen=True)
class ThermoPoint:
    """One (particle number, temperature) evaluation point."""

    n_particles: int
    t: float

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError(f"particle number must be >= 1, got {self.n_particles}")
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"temperature must be finite and positive, got {self.t}")

    @property
    def b(self) -> float:
        """Inverse temperature."""
        return 1.0 / self.t


@dataclass(frozen=True)
class AlphaSolution:
    """Constraint-solved multiplier for one half well.

    shifted_alpha is x = alpha + b e_1; its positivity encodes a finite,
    positive ground-state occupation. residual is |sum_n N_n - N| and force
    is sum_n e_n N_n, both from the level sums at the returned multiplier.
    iterations counts the level-sum evaluations of the solve.
    """

    alpha: float
    shifted_alpha: float
    residual: float
    levels_used: int
    iterations: int
    force: float


class ConstraintSolverError(RuntimeError):
    """A constraint solve failed; carries the interval its iterates covered."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (bracket: [{bracket[0]!r}, {bracket[1]!r}])")
        self.bracket = bracket


def occupation(alpha: float, b: float, energy: float) -> float:
    """Bose-Einstein occupation 1/(exp(alpha + b*energy) - 1).

    Returns exactly 0.0 once the exponent passes the float64 overflow
    threshold. Raises ValueError when alpha + b*energy <= 0, where the
    occupation would be divergent or negative.
    """
    z = alpha + b * energy
    if z <= 0.0:
        raise ValueError(f"alpha + b*e must be positive, got {z}")
    if z > OVERFLOW_EXPONENT:
        return 0.0
    return 1.0 / math.expm1(z)


def _cutoff(b: np.ndarray) -> np.ndarray:
    """Levels summed per row (see TAIL_EXPONENT), capped at MAX_LEVELS + 1."""
    width = np.floor(np.sqrt(TAIL_EXPONENT / b)) + 1.0
    return np.minimum(width, MAX_LEVELS + 1).astype(np.int64)


def _tiles(levels: np.ndarray):
    """(row slice, first level, end level) tiles of at most _TILE elements.

    Rows come sorted by level count. Consecutive rows share a tile while
    they fit padded to the widest of them; a row wider than _TILE is cut
    along its levels.
    """
    start = 0
    while start < len(levels):
        fits = np.count_nonzero(np.arange(1, len(levels) - start + 1) * levels[start:] <= _TILE)
        end = start + max(int(fits), 1)
        width = int(levels[end - 1])
        for lo in range(0, width, _TILE):
            yield slice(start, end), lo, min(lo + _TILE, width)
        start = end


def _gaps(plus: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Gaps e_n - e_1 of a tile: one row shared by all rows when they are of one well."""
    if plus.all():
        return level_gap(WellSide.PLUS, n)
    if not plus.any():
        return level_gap(WellSide.MINUS, n)
    return np.where(plus[:, None], level_gap(WellSide.PLUS, n), level_gap(WellSide.MINUS, n))


def _level_sums(plus, x, b, levels):
    """sum_n N_n, its x-derivative and sum_n e_n N_n per row, from one pass over the levels.

    Row i is a well (plus[i]), a shifted multiplier x[i] and an inverse
    temperature b[i], summed over levels 1 .. levels[i]; rows come sorted
    by levels. Padding past a row's cutoff gets an infinite exponent, so an
    occupation of 0, as do exponents past ~709 (call under np.errstate).
    """
    number = np.zeros(len(x))
    squares = np.zeros(len(x))
    weighted = np.zeros(len(x))
    for rows, lo, hi in _tiles(levels):
        n = np.arange(lo + 1.0, hi + 1.0)
        gap = _gaps(plus[rows], n)
        exponent = b[rows, None] * gap
        if levels[rows.start] < hi:  # the shortest row of the tile ends inside it
            exponent[n > levels[rows, None]] = np.inf
        exponent += x[rows, None]
        occ = 1.0 / np.expm1(exponent)
        number[rows] += occ.sum(axis=1)
        weighted[rows] += (occ * gap).sum(axis=1)
        occ *= occ
        squares[rows] += occ.sum(axis=1)
    ground = np.where(plus, WellSide.PLUS.ground_energy, WellSide.MINUS.ground_energy)
    # d N_n / dx = -N_n (N_n + 1) and e_n = e_1 + gap_n
    return number, -(squares + number), weighted + ground * number


def total_number(side: WellSide, alpha: float, b: float) -> float:
    """Total occupation sum over the levels of one half well, cut off at TAIL_EXPONENT."""
    x = alpha + b * side.ground_energy
    if not (b > 0.0 and x > 0.0):
        raise ValueError(f"need b > 0 and alpha + b*e_1 > 0, got b = {b}, alpha + b*e_1 = {x}")
    levels = _cutoff(np.array([b]))
    if levels[0] > MAX_LEVELS:
        raise ValueError(f"inverse temperature {b} needs more than {MAX_LEVELS} levels")
    with np.errstate(over="ignore"):
        number, _, _ = _level_sums(np.array([side is WellSide.PLUS]), np.array([x]), np.array([b]), levels)
    return float(number[0])


class RowSolutions(NamedTuple):
    """Per-row arrays from solve_rows, for rows that all hold n_particles.

    A row with converged False failed (see solve_rows), or its cutoff passed
    MAX_LEVELS; its shifted_alpha is then the last iterate.
    """

    alpha: np.ndarray
    shifted_alpha: np.ndarray
    residual: np.ndarray
    levels_used: np.ndarray
    iterations: np.ndarray
    force: np.ndarray
    converged: np.ndarray
    n_particles: int

    def solution(self, row: int) -> AlphaSolution:
        """One row as an AlphaSolution; raises ConstraintSolverError if it failed."""
        x = float(self.shifted_alpha[row])
        if not self.converged[row]:
            raise ConstraintSolverError(
                f"constraint solve failed after {self.iterations[row]} evaluations over "
                f"{self.levels_used[row]} levels",
                (math.log1p(1.0 / self.n_particles), x),
            )
        return AlphaSolution(
            float(self.alpha[row]), x, float(self.residual[row]), int(self.levels_used[row]),
            int(self.iterations[row]), float(self.force[row]),
        )


def solve_rows(
    sides: Sequence[WellSide], n_particles: int, b, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER
) -> RowSolutions:
    """Solve sum_n N_n = N on many rows at once, one row per (sides[i], b[i]).

    Every row holds the same N = n_particles; b is an array, or a scalar
    broadcast over the rows. Each row starts at x0 = log1p(1/N), where
    level 1 alone holds N particles, so S(x0) >= N. S is a sum of
    log-convex decreasing terms, so log S is convex and decreasing, and
    Newton on log S - log N, x <- x - log(S/N) S/S', climbs to the root
    from the left with no bracket; its steps are longer than Newton's on
    S - N and exact where one exponential dominates (high t). Rows drop out
    once |S - N| <= tol * N. A row that reaches max_iter evaluations, or
    whose step goes non-finite, stops unconverged and leaves the other
    rows untouched.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    rows = len(sides)
    plus = np.fromiter((side is WellSide.PLUS for side in sides), dtype=bool, count=rows)
    target = float(n_particles)
    b = np.full(rows, b, dtype=np.float64)
    levels = _cutoff(b)
    x = np.full(rows, math.log1p(1.0 / target))
    number = np.full(rows, np.nan)
    force = np.full(rows, np.nan)
    iterations = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    live = np.argsort(levels, kind="stable")  # rows of similar width share tiles
    live = live[levels[live] <= MAX_LEVELS]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for count in range(1, max_iter + 1):
            if not live.size:
                break
            s, slope, f = _level_sums(plus[live], x[live], b[live], levels[live])
            excess = s - target
            done = np.abs(excess) <= tol * target
            step = np.log1p(excess / target) * s / slope
            moving = ~done & np.isfinite(step) & (count < max_iter)
            number[live] = s
            force[live] = f
            iterations[live] = count
            converged[live[done]] = True
            live = live[moving]
            x[live] -= step[moving]
    alpha = x - b * np.where(plus, WellSide.PLUS.ground_energy, WellSide.MINUS.ground_energy)
    return RowSolutions(alpha, x, np.abs(number - target), levels, iterations, force, converged, n_particles)


def solve_alpha(
    side: WellSide, point: ThermoPoint, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER
) -> AlphaSolution:
    """Solve sum_n N_n = N for the multiplier of one half well.

    A one-row solve_rows call: Newton on log sum_n N_n in x = alpha + b e_1,
    climbing monotonically from the exact lower bound x0 = log1p(1/N) until
    |sum_n N_n - N| <= tol * N. Raises ConstraintSolverError, carrying the
    interval [x0, last iterate], when the solve fails.
    """
    return solve_rows((side,), point.n_particles, point.b, tol, max_iter).solution(0)
