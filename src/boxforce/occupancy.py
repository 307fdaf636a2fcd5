"""Bose-Einstein occupations and the particle-number constraint.

Each half well holds a fixed number N of ideal bosons. The occupations are
N_n = 1/(exp(alpha + b e_n) - 1) at inverse temperature b = 1/t, and the
multiplier alpha is fixed by the constraint S = sum_n N_n = N.

The constraint is solved in the shifted variable x = alpha + b e_1 > 0.
At low temperature alpha approaches log1p(1/N) - b e_1, a difference of
two numbers of order b, while x stays of order 1/N; solving for x keeps
the ground-state occupation fully resolved at every temperature. A row's
levels stay fixed during a solve, so solve_rows builds the level plan of
each group of rows once and runs Newton on it to the end. A wide row far
from condensation (see NODE_STEP) sums its levels as one integral instead,
on ~100 trapezoid nodes, which Poisson summation makes exact up to a
remainder far below rounding. The level cutoff (TAIL_EXPONENT), the node
rule and the batched monotone Newton iteration are choices of this
implementation; only the occupation formula and the constraint itself are
physics.
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
    "ConstraintSolverError",
    "occupation",
    "total_number",
    "solve_alpha",
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
# largest (rows x levels) plan chunk or level-sum temporary, in float64 elements
_TILE = 1 << 14
# A row of more than NODE_LEVELS levels whose start x0 = log1p(1/N) has
# x0 t >= POLE_DISTANCE**2 sums its levels as one integral (_node_plan). The
# levels are symmetric about n = 1/2 (PLUS) or n = 0 (MINUS), so the sum over
# n >= 1 is half the sum over all integers n, less N(0)/2 for MINUS, and by
# Poisson summation that sum is the integral of N(n) up to ~2 pi (t / d)
# exp(-2 pi d), d = sqrt(alpha t) being the distance from the real n axis of
# the occupation's nearest pole. x only climbs from x0, so d >= sqrt(99) at
# every iterate, and the remainder is below ~1e-26 of the sum. The integral
# is the trapezoid rule of step NODE_STEP in s, n - centre = sqrt(x0 t)
# sinh(s), whose error falls like exp(-pi^2 / (2 NODE_STEP)), the mapped
# integrand being analytic for |Im s| < ~pi/4. Against math.fsum direct sums
# it measured ~2e-9 relative at step 0.2 and at most 4.4e-16, the rounding
# floor, at 0.12. The nodes reach s = asinh(sqrt(TAIL_EXPONENT / x0)), the
# level cutoff, so the discarded tail is the one TAIL_EXPONENT bounds. That
# is 24 nodes a row at N = 1, 61 at N = 1e4 and 99 at N = 1e8, at any t.
NODE_STEP = 0.12
POLE_DISTANCE = 10.0
NODE_LEVELS = 1 << 10


def check_domain(n_particles: int = 1, t=1.0) -> None:
    """The model's input rule, raising ValueError: N finite and >= 1, t positive with finite t and 1/t.

    The rule is symmetric under t <-> 1/t, so it checks b = 1/t unchanged. On
    an array (or numpy scalar) t the smallest and largest elements decide, a
    nan reaching both; a Python float or int takes no numpy call. A left-out
    argument passes.
    """
    if not 1 <= n_particles < math.inf:
        raise ValueError(f"particle number must be finite and >= 1, got {n_particles}")
    for end in (t,) if type(t) in (float, int) else (float(np.min(t)), float(np.max(t))):
        if not (0.0 < end < math.inf and 1.0 / end < math.inf):
            raise ValueError(f"temperature (or b = 1/t) must be positive with finite t and 1/t, got {end}")


def check_tolerance(tol: float) -> None:
    """The solver tolerance rule, 0 < tol < 1 (a nan fails). Raises ValueError."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


@dataclass(frozen=True)
class ThermoPoint:
    """One (particle number, temperature) evaluation point."""

    n_particles: int
    t: float

    def __post_init__(self) -> None:
        check_domain(self.n_particles, self.t)

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
    if not z > 0.0:
        raise ValueError(f"alpha + b*e must be positive, got {z}")
    if z > OVERFLOW_EXPONENT:
        return 0.0
    return 1.0 / math.expm1(z)


def _cutoff(b: np.ndarray) -> np.ndarray:
    """Levels summed per row, floor(sqrt(TAIL_EXPONENT / b)) + 1, capped at MAX_LEVELS + 1."""
    return np.minimum(np.sqrt(TAIL_EXPONENT / b), MAX_LEVELS).astype(np.int64) + 1


def _groups(levels: np.ndarray):
    """Slices of rows sorted by levels that share a plan, at most _TILE elements padded to its widest row."""
    start = 0
    while start < len(levels):
        fits = np.count_nonzero(np.arange(1, len(levels) - start + 1) * levels[start:] <= _TILE)
        end = start + max(int(fits), 1)  # a row wider than _TILE is a group alone
        yield slice(start, end)
        start = end


def _gaps(plus: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Gaps e_n - e_1 of a plan: one row shared by all rows when they are of one well."""
    if np.count_nonzero(plus) in (0, len(plus)):
        return level_gap(WellSide.PLUS if plus[0] else WellSide.MINUS, n)
    return np.where(plus[:, None], level_gap(WellSide.PLUS, n), level_gap(WellSide.MINUS, n))


def _plans(plus, b, levels):
    """Chunks of _TILE levels of a plan: exponent bases b (e_n - e_1), inf past each row's cutoff, gaps, no weights."""
    for lo in range(0, int(levels[-1]), _TILE):
        hi = min(lo + _TILE, int(levels[-1]))
        n = np.arange(lo + 1.0, hi + 1.0)
        gap = _gaps(plus, n)
        base = b[:, None] * gap
        if levels[0] < hi:  # the shortest row ends inside the chunk
            base[n > levels[:, None]] = np.inf
        yield base, gap, None


def _node_count(x0: float) -> int:
    """Nodes a row takes in a call starting at x0: the last passes the level cutoff (see NODE_STEP)."""
    return int(math.asinh(math.sqrt(TAIL_EXPONENT / x0)) / NODE_STEP) + 2


def _node_plan(ground, b, x0, nodes):
    """The one chunk of a node plan (see NODE_STEP): exponent bases, gaps e(n) - e_1 and weights at each row's nodes.

    Node k of a row sits at n = centre + c sinh(k NODE_STEP), c = sqrt(x0 t),
    with weight NODE_STEP c cosh(k NODE_STEP): the trapezoid rule over the
    whole line, halved for n >= 1, folded onto k >= 0. The centre node
    counts half, and a MINUS row (ground energy 1) drops half of N(0) there
    as well, n = 0 being no level.
    """
    s = np.arange(nodes) * NODE_STEP
    c = np.sqrt(x0 / b)[:, None]
    u = c * np.sinh(s)
    gap = u * u - ground[:, None]
    weight = (NODE_STEP * c) * np.cosh(s)
    weight[:, 0] = 0.5 * (weight[:, 0] - (ground == WellSide.MINUS.ground_energy))
    return [(b[:, None] * gap, gap, weight)]


def _level_sums(x, plans):
    """sum_n N_n, sum_n N_n^2 and sum_n (e_n - e_1) N_n per row at x over a plan (call under np.errstate).

    A plan chunk is (base, gap, weight): levels carry no weight, nodes the
    weights of _node_plan.
    """
    sums = None  # most plans are one chunk, whose sums are the totals
    for base, gap, weight in plans:
        occ = base + x[:, None]
        np.expm1(occ, out=occ)
        np.divide(1.0, occ, out=occ)
        mass = occ if weight is None else occ * weight
        number, weighted = mass.sum(axis=1), (mass * gap).sum(axis=1)
        mass *= occ
        chunk = (number, mass.sum(axis=1), weighted)
        sums = chunk if sums is None else tuple(total + part for total, part in zip(sums, chunk))
    return sums


def total_number(side: WellSide, alpha: float, b: float) -> float:
    """Total occupation sum over the levels of one half well, cut off at TAIL_EXPONENT."""
    check_domain(t=b)
    x = alpha + b * side.ground_energy
    if not x > 0.0:
        raise ValueError(f"alpha + b*e_1 must be positive, got {x}")
    levels = _cutoff(np.array([b]))
    if levels[0] > MAX_LEVELS:
        raise ValueError(f"inverse temperature {b} needs more than {MAX_LEVELS} levels")
    with np.errstate(over="ignore"):
        number, _, _ = _level_sums(np.array([x]), _plans(np.array([side is WellSide.PLUS]), np.array([b]), levels))
    return float(number[0])


class RowSolutions(NamedTuple):
    """Per-row arrays from solve_rows, for rows that all hold n_particles.

    A row with converged False failed (see solve_rows), or its cutoff passed
    MAX_LEVELS; its shifted_alpha is then the last iterate. levels_used is
    the row's level cutoff, also where its sums ran on nodes.
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
    S - N and exact where one exponential dominates (high t). A row stops
    once |S - N| <= tol * N, or unconverged at max_iter evaluations or a
    non-finite step. Groups of rows (_groups) are solved one by one: the
    level plan is built once, the rows still iterating hold their x in a
    compact array, and a row that stops leaves both and has its results
    written, once. A row of more than NODE_LEVELS levels whose start
    satisfies x0 t >= POLE_DISTANCE**2 gets a plan of ~100 trapezoid nodes
    in place of its levels, whose sums match the direct ones to rounding
    (see NODE_STEP); the test costs O(1) in a call without such wide rows.
    Any other row wider than _TILE levels rebuilds its plan chunk by chunk
    on each evaluation, which keeps memory bounded.
    """
    check_tolerance(tol)
    rows = len(sides)
    plus = np.fromiter((side is WellSide.PLUS for side in sides), dtype=bool, count=rows)
    ground = np.where(plus, WellSide.PLUS.ground_energy, WellSide.MINUS.ground_energy)
    target = float(n_particles)
    b = np.full(rows, b, dtype=np.float64)
    levels = _cutoff(b)
    x0 = math.log1p(1.0 / target)
    x = np.full(rows, x0)
    number, weighted = np.full((2, rows), np.nan)  # weighted is sum_n (e_n - e_1) N_n
    iterations = np.zeros(rows, dtype=np.int64)
    order = np.argsort(levels, kind="stable")
    order = order[levels[order] <= MAX_LEVELS]
    groups = []  # (rows, nodes a row, 0 for levels) per group
    if order.size and levels[order[-1]] > NODE_LEVELS:  # O(1) unless the call has a wide row
        wide = (levels[order] > NODE_LEVELS) & (x0 >= POLE_DISTANCE**2 * b[order])
        routed, order = order[wide], order[~wide]
        nodes = _node_count(x0)
        groups = [(routed[group], nodes) for group in _groups(np.full(routed.size, nodes))]
    groups += [(order[group], 0) for group in _groups(levels[order])]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for live, nodes in groups:  # live: the group's rows still iterating, xs their iterates
            if nodes:
                plans = _node_plan(ground[live], b[live], x0, nodes)
            else:  # the plan of a row wider than _TILE is rebuilt chunk by chunk on each evaluation
                plans = None if levels[live[-1]] > _TILE else list(_plans(plus[live], b[live], levels[live]))
            xs = x[live]
            for count in range(1, max_iter + 1):
                s, squares, w = _level_sums(xs, plans or _plans(plus[live], b[live], levels[live]))
                excess = s - target
                step = np.log1p(excess / target) * s / (squares + s)  # S' = -sum_n N_n (N_n + 1)
                stop = (np.abs(excess) <= tol * target) | ~np.isfinite(step)
                stopped = live.size if count == max_iter else np.count_nonzero(stop)
                if stopped == live.size:  # the usual end of a group: every row stops at once
                    x[live], number[live], weighted[live], iterations[live] = xs, s, w, count
                    break
                if stopped:
                    out, keep = live[stop], ~stop
                    x[out], number[out], weighted[out], iterations[out] = xs[stop], s[stop], w[stop], count
                    live, xs, step = live[keep], xs[keep], step[keep]
                    if plans:  # a gap row shared by the group stays
                        plans = [
                            (base[keep], gap if gap.ndim == 1 else gap[keep], weight if weight is None else weight[keep])
                            for base, gap, weight in plans
                        ]
                xs += step
    residual = np.abs(number - target)
    converged = residual <= tol * target  # false where a row stopped early or was not attempted
    force = weighted + ground * number
    return RowSolutions(x - b * ground, x, residual, levels, iterations, force, converged, n_particles)


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
