"""Bose-Einstein occupations and the particle-number constraint.

Each half well holds a fixed number N of ideal bosons. The occupations are
N_n = 1/(exp(alpha + b e_n) - 1) at inverse temperature b = 1/t, and the
multiplier alpha is fixed by the constraint S = sum_n N_n = N.

The constraint is solved in the shifted variable x = alpha + b e_1 > 0.
At low temperature alpha approaches log1p(1/N) - b e_1, a difference of
two numbers of order b, while x stays of order 1/N; solving for x keeps
the ground-state occupation fully resolved at every temperature. A row's
levels stay fixed during a solve, so solve_rows builds the level plan of
each group of rows once and runs Newton on it to the end, stepping in
w = log(expm1 x), where log S is nearly linear, from each row's start (see
REMAINDER_LIMIT). A plan lays its rows' levels end to end, each row a run
of exactly its own levels, and sums each run pairwise, so a row's sums
round the same in any group. A wide row sums its levels as one integral
instead, on at most 100 fixed nodes, which Poisson summation makes exact
up to a remainder far below rounding. Far from condensation the integrand
is the occupation itself (see NODE_STEP). Near it, the occupation's pole
at zero exponent is split off and summed in closed form, and only the
analytic remainder is integrated (see _SPLIT_STEP). The level cutoff
(TAIL_EXPONENT), both node rules, the start and the batched Newton
iteration are choices of this implementation; only the occupation formula
and the constraint itself are physics.
"""

from __future__ import annotations

import functools
import math
import sys
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
# The smallest tolerance accepted. The float64 sums round to ~1e-15 N, so a
# smaller tol asks for digits they do not hold: over N = 1 to 1e300 and t =
# 1e-300 to 2e14 every row converged at 2e-15 but one (N = 1, MINUS, t = 2e14)
# failed at 1e-15. The floor keeps a factor 5 above 2e-15, and at it every row
# still converges within 6 evaluations (tests/test_occupancy.py).
MIN_TOL = 1e-14
MAX_ITER = 200
# rows whose cutoff passes this many levels (t > ~2.5e14) are not attempted
MAX_LEVELS = 100_000_000
# largest plan or level-sum temporary, in float64 elements: the levels (or
# nodes) of a group's rows, laid end to end
_TILE = 1 << 14
# A row of more than NODE_LEVELS levels (t > ~26,200) sums its levels as one
# integral. The levels are symmetric about n = 1/2 (PLUS) or n = 0 (MINUS), so
# the sum over n >= 1 is half the sum over all integers n, less N(0)/2 for
# MINUS, and by Poisson summation that sum is the integral of N(n) up to
# ~2 pi (t / d) exp(-2 pi d), d being the distance from the real n axis of the
# integrand's nearest pole. POLE_DISTANCE picks the integrand. A row whose
# lower bound x0 = log1p(1/N) has x0 t >= POLE_DISTANCE**2 integrates the
# occupation itself (_node_plan): its nearest pole lies d = sqrt(alpha t)
# away, and solve_rows keeps every iterate, its start too, at x >= x0, so
# d >= sqrt(99) and the remainder is below ~1e-26 of the sum. The integral
# is the trapezoid rule of step NODE_STEP in s, n - centre = sqrt(x0 t)
# sinh(s), whose error falls like
# exp(-pi^2 / (2 NODE_STEP)), the mapped integrand being analytic for
# |Im s| < ~pi/4. Against math.fsum direct sums it measured ~2e-9 relative at
# step 0.2 and at most 4.4e-16, the rounding floor, at 0.12. The nodes reach
# s = asinh(sqrt(TAIL_EXPONENT / x0)), the level cutoff, so the discarded tail
# is the one TAIL_EXPONENT bounds. That is 24 nodes a row at N = 1, 61 at
# N = 1e4 and 99 at N = 1e8, at any t. Any other wide row is near
# condensation, and takes the pole split of _SPLIT_STEP.
NODE_STEP = 0.12
POLE_DISTANCE = 10.0
NODE_LEVELS = 1 << 10
# A wide row with x0 t < POLE_DISTANCE**2 splits its occupation 1/expm1(z),
# z = alpha + b (n - c)^2 with c = 1/2 (PLUS) or 0 (MINUS), into the pole 1/z
# and the remainder r(z) = 1/expm1(z) - 1/z (_split_sums). The pole's lattice
# sum is closed form in A = alpha t (_lattice). r is analytic at z = 0 and its
# nearest poles, z = +-2 pi i, lie ~sqrt(pi t) >= 286 from the real n axis, so
# its lattice sum is sqrt(t) times the integral of r(alpha + v^2) dv to far
# below rounding; so are those of z/expm1(z), for the force, and of r', for
# Newton's derivative. The integrals are the trapezoid rule of step
# _SPLIT_STEP in s on the double-exponential map v = sinh((pi/2) sinh s),
# s in [0, 4), _SPLIT_NODES nodes a row at any N and t: r decays only like
# -1/v^2, which a sinh map cannot follow. The last node sits at v ~ 2e18, so
# the discarded tail of r is ~5e-19. Against math.fsum direct sums the rule
# measured, in the worst of sum N_n, sum N_n^2 and sum (e_n - e_1) N_n,
# ~4e-11 relative at step 0.07, ~3e-14 at 0.05 and at most 1.5e-15, the
# rounding floor, at 0.04 (N = 1e3 to 1e16, t from the NODE_LEVELS threshold
# to x0 t = 100 or 1e10, both wells, at x0, the root and three times the root). Far
# from condensation the split loses digits to cancellation between the pole
# sum and the integral of r (at N = 1, t = 1e10, with the head series widened
# to reach alpha ~ 11: ~7e-12 in sum N_n and ~1e-10 in the force sum), which
# is why POLE_DISTANCE stays.
_SPLIT_STEP = 0.04
_SPLIT_NODES = 100
# terms of the power series of _series, which reach rounding for |Y| <= 12
_SERIES_TERMS = 18
# Newton starts each row (_start) at the root of a pole model of its sum,
# clamped at the root's exact lower bound x0 = log1p(1/N), inside the model's
# window, and at x0 outside it. Split as for _SPLIT_STEP, a row's sum is
# t q(A), A = alpha t, from the pole, q being half its lattice sum
# (_pole_sums), plus the remainder's, sqrt(t) R(alpha) less r(alpha)/2 for
# MINUS, whose level n = 0 is no level; R(alpha) is the integral of
# r(alpha + v^2) over v >= 0. The model takes the remainder to first order in
# alpha: t q(A) + sqrt(t) (C + R1 alpha) + 1/4 - alpha/24 (MINUS) = N, with
# C = R(0) = (sqrt(pi)/2) zeta(1/2) (REMAINDER_LIMIT), R1 = R'(0)
# (REMAINDER_SLOPE) and -r(alpha)/2 = 1/4 - alpha/24 + O(alpha^3). Its root
# in u = A + e_1 = x t is one Newton step from the root of the model at
# alpha = 0, read from a table of q's inverse (_start_tables) with np.interp.
# The model drops O(alpha^2) terms, sqrt(t) R''(0) alpha^2/2 with R''(0) =
# -0.0225857. The window where it is used keeps the edges derived from the
# model at alpha = 0, which drops sqrt(t) (R(alpha) - C) ~ R1 alpha sqrt(t),
# R1 = 0.18423:
# * near the ground state alpha -> -e_1/t, and the model is off by ~R1 e_1 /
#   sqrt(t) particles; x0 is off by the population of level 2, ~1/expm1((e_2
#   - e_1)/t). The model's error is the smaller for t > 0.68 (PLUS) and 1.48
#   (MINUS), and below START_T, the larger, both wells keep x0. The rows
#   that stop on their first evaluation, t < ~0.07 at any N, lie there;
# * far from condensation the model is N = sqrt(t) (pi/(2 sqrt(alpha)) + C),
#   and its error relative to N, (R(alpha) - C)/(N/sqrt(t)), reaches 1 at
#   alpha = 1.12, N = START_DEGENERACY sqrt(t). Past that its root carries
#   no information on N (it tends to alpha = 1.47 as N/sqrt(t) -> 0), and
#   the row keeps x0.
# Over N = 1 to 1e300 and t = 1e-300 to 2e14 every row converges within 6
# evaluations, and within 4 from the model's root; the mean per row on the
# large_n grid (N = 1e4, t = 1 to 1e8) is 2.13 (tests/test_occupancy.py).
REMAINDER_LIMIT = -1.2942054864133927
REMAINDER_SLOPE = 0.18423437000566129
START_T = 1.48
START_DEGENERACY = 0.19
_START_KNOTS = 2161
_START_SHIFT = 1024.0


def check_domain(n_particles: int = 1, t=1.0) -> None:
    """The model's input rule, raising ValueError: 1 <= N and 0 < t, both in the float range, and 1/t finite.

    The rule is symmetric under t <-> 1/t, so it checks b = 1/t unchanged. An
    int N or t past the largest float fails (the int/float comparison is
    exact), as float() of it would overflow. On an array (or numpy scalar) t
    the smallest and largest elements decide, a nan reaching both; a Python
    float or int takes no numpy call. A left-out argument passes.
    """
    if not 1 <= n_particles <= sys.float_info.max:
        raise ValueError(f"particle number must be >= 1 and within the float range, got {n_particles}")
    for end in (t,) if type(t) in (float, int) else (float(np.min(t)), float(np.max(t))):
        if not (0.0 < end <= sys.float_info.max and 1.0 / end < math.inf):
            raise ValueError(f"temperature (or b = 1/t) must be positive, t and 1/t within the float range, got {end}")


def check_tolerance(tol: float) -> None:
    """The solver tolerance rule, MIN_TOL <= tol < 1 (a nan fails). Raises ValueError."""
    if not MIN_TOL <= tol < 1.0:
        raise ValueError(f"tol must lie in [{MIN_TOL}, 1), got {tol}")


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
    """A failed constraint solve; bracket is (x0, last iterate): the root's exact lower bound and where x stopped."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (bracket: [{bracket[0]!r}, {bracket[1]!r}])")
        self.bracket = bracket


def occupation(alpha: float, b: float, energy: float) -> float:
    """Bose-Einstein occupation 1/(exp(alpha + b*energy) - 1).

    Returns exactly 0.0 once the exponent passes the float64 overflow
    threshold. Raises ValueError when alpha + b*energy <= 0, where the
    occupation would be divergent or negative, or b fails check_domain.
    """
    check_domain(t=b)
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
    """Slices of consecutive rows that share a plan, their levels adding up to at most _TILE (a wider row alone)."""
    ends = np.add.accumulate(levels)
    start = taken = 0
    while start < len(levels):
        end = max(int(ends.searchsorted(taken + _TILE, side="right")), start + 1)
        yield slice(start, end)
        start, taken = end, ends[end - 1]


def _level_plan(plus, b, levels):
    """A level plan: exponent bases b (e_n - e_1) and gaps of n = 1..levels[r] for each row r, no weights.

    The rows, sorted by levels, lay their levels end to end, row r's run
    beginning at starts[r]. A plan is (base, gap, weight, counts, starts),
    counts being each row's run length. Every row has at least one level
    (_cutoff), and np.add.reduceat in _level_sums needs that: it returns
    the next element, not 0, for an empty run.
    """
    ends = np.add.accumulate(levels)
    starts = ends - levels
    widest = int(levels[-1])
    n = np.arange(1.0, widest + 1.0)
    gaps = np.concatenate((level_gap(WellSide.MINUS, n), level_gap(WellSide.PLUS, n)))
    gap = gaps[np.arange(int(ends[-1])) - np.repeat(starts - widest * plus, levels)]  # a PLUS row reads the second half
    return np.repeat(b, levels) * gap, gap, None, levels, starts


def _node_count(x0: float) -> int:
    """Nodes a row takes in a call starting at x0: the last passes the level cutoff (see NODE_STEP)."""
    return int(math.asinh(math.sqrt(TAIL_EXPONENT / x0)) / NODE_STEP) + 2


def _node_plan(ground, b, x0, nodes):
    """A node plan (see NODE_STEP): exponent bases, gaps e(n) - e_1 and weights at each row's nodes.

    Node k of a row sits at n = centre + c sinh(k NODE_STEP), c = sqrt(x0 t),
    with weight NODE_STEP c cosh(k NODE_STEP): the trapezoid rule over the
    whole line, halved for n >= 1, folded onto k >= 0. The centre node
    counts half, and a MINUS row (ground energy 1) drops half of N(0) there
    as well, n = 0 being no level. The plan has the form of _level_plan's,
    each row a run of its nodes in place of its levels; no run is empty,
    a row taking at least 24 nodes (x0 <= log 2).
    """
    s = np.arange(nodes) * NODE_STEP
    c = np.sqrt(x0 / b)[:, None]
    u = c * np.sinh(s)
    gap = u * u - ground[:, None]
    weight = (NODE_STEP * c) * np.cosh(s)
    weight[:, 0] = 0.5 * (weight[:, 0] - (ground == WellSide.MINUS.ground_energy))
    counts = np.full(len(b), nodes)
    return (b[:, None] * gap).ravel(), gap.ravel(), weight.ravel(), counts, np.arange(0, gap.size, nodes)


def _level_sums(x, plan):
    """sum_n N_n, sum_n N_n^2 and sum_n (e_n - e_1) N_n per row at x over a plan (call under np.errstate).

    A plan is (base, gap, weight, counts, starts) (_level_plan): levels carry
    no weight, nodes the weights of _node_plan. np.add.reduceat sums each
    row's run pairwise, the same wherever the run lies in the plan.
    """
    base, gap, weight, counts, starts = plan
    occ = np.repeat(x, counts)
    occ += base
    np.expm1(occ, out=occ)
    np.divide(1.0, occ, out=occ)
    mass = occ if weight is None else occ * weight
    number, weighted = np.add.reduceat(mass, starts), np.add.reduceat(mass * gap, starts)
    mass *= occ
    return number, np.add.reduceat(mass, starts), weighted


def _series_matrix(terms: int) -> np.ndarray:
    """Rows: the power series in Y of S(Y) = sinh(y)/y, E(Y) = (y cosh y - sinh y)/y^3, S' and E', Y = y^2."""
    odd = [math.factorial(2 * k + 1) for k in range(terms + 1)]
    s = [1.0 / odd[k] for k in range(terms)]
    e = [2.0 * (k + 1) / odd[k + 1] for k in range(terms)]
    return np.array([s, e, *([k * c for k, c in enumerate(f)][1:] + [0.0] for f in (s, e))])


# Module constants are built with math, not numpy ufuncs, which would page in
# their code at import time.
_SERIES = _series_matrix(_SERIES_TERMS)
# the nodes of the split rule (see _SPLIT_STEP): v^2 and the folded trapezoid weights dv, centre halved
_SPLIT_V2 = np.array([math.sinh(0.5 * math.pi * math.sinh(k * _SPLIT_STEP)) ** 2 for k in range(_SPLIT_NODES)])
_SPLIT_WEIGHT = np.array([
    (0.5 if k == 0 else 1.0) * _SPLIT_STEP * 0.5 * math.pi * math.cosh(k * _SPLIT_STEP)
    * math.cosh(0.5 * math.pi * math.sinh(k * _SPLIT_STEP))
    for k in range(_SPLIT_NODES)
])
# The head, the nodes with v^2 <= 1/4, takes r from its series, as z = alpha + v^2
# may come near 0 there. Elsewhere z > 1/4 - b e_1 and the direct 1/expm1(z) - 1/z
# loses at most ~8 ulp, on nodes whose share of the sum is small. On the split
# route alpha < 3.75 at the root (S(3.75) < N there) and at every iterate tested
# (peak 0.46, tests/test_occupancy.py), so the head's Y = (z/2)^2 stays below 4.
_SPLIT_HEAD = int(np.count_nonzero(_SPLIT_V2 <= 0.25))


def _series(y2):
    """rho(Y) = (y coth y - 1)/y^2 = E/S and d rho/dY at Y = y2 from _SERIES (Y < 0 continues y to i y)."""
    powers = np.empty((_SERIES_TERMS - 1,) + y2.shape)
    powers[:] = y2
    np.cumprod(powers, axis=0, out=powers)  # Y, Y^2, ...
    # einsum, not @: a BLAS call pages in ~0.25 MB of library code for this small product
    sums = _SERIES[:, :1] + np.einsum("ck,kr->cr", _SERIES[:, 1:], powers.reshape(_SERIES_TERMS - 1, -1))
    s, e, ds, de = sums.reshape((4,) + y2.shape)
    return e / s, (de * s - e * ds) / (s * s)


def _lattice(p):
    """Phi(A) = sum_{n != 0} 1/(A + n^2) and -Phi'(A) = sum_{n != 0} 1/(A + n^2)^2 at A = p - 1 > -1.

    p = 1 + A, the distance from the pole at A = -1 (level n = +-1), comes in
    without cancellation. The closed form Phi = (pi/a) coth(pi a) - 1/A,
    a = sqrt(A), serves A >= 1. For -1/2 <= A < 1 it cancels, and Phi =
    pi^2 rho(pi^2 A) comes from the series of _series. For A < -1/2 it
    continues to -(pi/a) cot(pi a) - 1/A, a = sqrt(-A), taken through the
    complement 1 - a = p / (1 + a) so that the pole stays resolved. Measured
    against mpmath: <= 1.7e-15 relative from p = 1e-14 to 1e8.
    """
    a2 = p - 1.0
    phi, squares = np.empty_like(p), np.empty_like(p)
    hyperbolic, trigonometric = a2 >= 1.0, a2 < -0.5
    series = ~(hyperbolic | trigonometric)
    if hyperbolic.any():
        A = a2[hyperbolic]
        a = np.sqrt(A)
        value = math.pi / (a * np.tanh(math.pi * a)) - 1.0 / A
        phi[hyperbolic] = value
        squares[hyperbolic] = (value + (math.pi / np.sinh(math.pi * a)) ** 2 - 1.0 / A) / (2.0 * A)
    if series.any():
        rho, slope = _series(math.pi**2 * a2[series])
        phi[series] = math.pi**2 * rho
        squares[series] = -(math.pi**4) * slope
    if trigonometric.any():
        A = a2[trigonometric]
        a = np.sqrt(-A)
        angle = math.pi * p[trigonometric] / (1.0 + a)
        sine = np.sin(angle)
        cot = np.cos(angle) / sine
        phi[trigonometric] = math.pi * cot / a - 1.0 / A
        squares[trigonometric] = 0.5 * (math.pi / (a * sine)) ** 2 - math.pi * cot / (2.0 * a**3) - 1.0 / (A * A)
    return phi, squares


def _split_plan(ground, b):
    """A split plan (see _SPLIT_STEP): node weights sqrt(t) dv per row, less half of n = 0 for MINUS, and (t, e_1)."""
    t = 1.0 / b
    weight = np.sqrt(t)[:, None] * _SPLIT_WEIGHT
    weight[:, 0] -= 0.5 * (ground == WellSide.MINUS.ground_energy)
    return weight, np.stack((t, ground), axis=1)


def _pole_sums(xt, ground):
    """The pole's lattice sum sum_{n != c} 1/(A + (n - c)^2) and that of its squares, A = xt - e_1, per row.

    The lattice is the integers for MINUS (ground energy 1, c = 0), where
    the sum is Phi(A), and the half-integers for PLUS (ground energy 1/4,
    c = 1/2), where in units of 1/2 it is the odd half of the integers,
    4 Phi(4A) - Phi(A); the sum of squares is -d/dA of either. Both wells'
    Phi come from one _lattice call, the PLUS weight of Phi(A) being 1 and
    the MINUS one 0.
    """
    scale = 1.0 / ground  # 4 for PLUS, 1 for MINUS
    other = (scale - 1.0) / 3.0  # the weight of Phi(A): 1 for PLUS, 0 for MINUS
    phi, squares = _lattice(np.concatenate((scale * xt, xt + (1.0 - ground))))
    count = len(xt)
    return scale * phi[:count] - other * phi[count:], scale * scale * squares[:count] - other * squares[count:]


def _split_sums(x, plan):
    """The sums of _level_sums at x over a split plan (call under np.errstate).

    With A = alpha t = x t - e_1, the pole's sum over n >= 1 is (t/2) times
    its lattice sum (_pole_sums), n = 0 being no level for MINUS. The
    remainder r, r' and z/expm1(z) are summed on the nodes, and
    sum_n (e_n - e_1) N_n = t (sum_n z_n N_n - x S).
    """
    weight, rows = plan
    t, ground = rows.T
    xt = x * t
    pole, pole_squares = _pole_sums(xt, ground)
    z = ((xt - ground) / t)[:, None] + _SPLIT_V2
    occ = 1.0 / np.expm1(np.minimum(z, OVERFLOW_EXPONENT))  # expm1 is slow where it overflows
    inverse = 1.0 / z
    terms = np.empty((3,) + z.shape)  # r(z), -r'(z) = N (N + 1) - 1/z^2 = r (N + 1/z) + N and z N at each node
    np.subtract(occ, inverse, out=terms[0])
    np.multiply(terms[0], occ + inverse, out=terms[1])
    terms[1] += occ
    np.multiply(z, occ, out=terms[2])
    u = 0.5 * z[:, :_SPLIT_HEAD]  # r(z) = (coth(z/2) - 1)/2 - 1/z = (u rho(u^2) - 1)/2
    rho, slope = _series(u * u)
    terms[0, :, :_SPLIT_HEAD] = 0.5 * (u * rho - 1.0)
    terms[1, :, :_SPLIT_HEAD] = -0.25 * (rho + 2.0 * u * u * slope)
    terms[2, :, :_SPLIT_HEAD] = 1.0 + 2.0 * u * terms[0, :, :_SPLIT_HEAD]
    remainder, derivative, moment = np.einsum("krn,rn->kr", terms, weight)
    number = 0.5 * t * pole + remainder
    squares = 0.5 * t * t * pole_squares + derivative - number  # sum N^2 = sum N (N + 1) - S
    return number, squares, t * (moment - x * number)


def _routes(plus, ground, b, levels, x0):
    """Yield (kernel, plan, rows) per group (_groups) of rows started at x0, rows being the group's indices.

    A row of at most NODE_LEVELS levels sums its levels. A wider row sums
    them as one integral on at most 100 nodes, whose sums match the direct
    ones to rounding: the occupation's own where x0 t >= POLE_DISTANCE**2
    (see NODE_STEP), the pole split's nearer condensation (see _SPLIT_STEP).
    A row past MAX_LEVELS is in no group. Each plan is built when its group
    is taken, and none holds more than _TILE levels or nodes unless
    NODE_LEVELS is raised past _TILE, a row wider than that being a group
    alone.
    """
    order = np.argsort(levels, kind="stable")
    ordered = levels[order]
    narrow, attempted = ordered.searchsorted((NODE_LEVELS, MAX_LEVELS), side="right")
    routed, order, ordered = order[narrow:attempted], order[:narrow], ordered[:narrow]
    if routed.size:
        split = x0 < POLE_DISTANCE**2 * b[routed]
        on_nodes, on_split = routed[~split], routed[split]
        nodes = _node_count(x0) if on_nodes.size else 0  # x0 t >= 100 on the node route, so 40 / x0 is finite there
        for group in _groups(np.full(on_nodes.size, nodes)):
            on = on_nodes[group]
            yield _level_sums, _node_plan(ground[on], b[on], x0, nodes), on
        for group in _groups(np.full(on_split.size, _SPLIT_NODES)):
            on = on_split[group]
            yield _split_sums, _split_plan(ground[on], b[on]), on
    for group in _groups(ordered):
        on = order[group]
        yield _level_sums, _level_plan(plus[on], b[on], ordered[group]), on


@functools.cache
def _start_tables():
    """The pole model's inverse for both wells (see REMAINDER_LIMIT), built on first use: one table (keys, values).

    q falls monotonically in u = x t = A + e_1, from 1/u near u = 0 to
    (pi/2)/sqrt(u) far out, so log q ascends over the knots, which run
    down in log u = 2 sinh(s) from 34 to -20, s uniform: dense where q turns
    from one form to the other, sparse along both asymptotes, where log(u q)
    is nearly linear in log q. A knot's key is log q, less _START_SHIFT for
    MINUS, whose knots come first; its value is log(u q) + i d log q / d log u,
    the slope running from -1 near u = 0 to about -1/2 far out, from q' =
    -(the pole's sum of squares)/2, which _pole_sums returns with q. Read by
    linear interpolation, u is off by at most 1.0e-6 relative and the slope
    by 6.3e-7 (against _lattice at 200,001 points). u = e^34 lies past the
    model's root on every row it is used on under MAX_LEVELS (alpha <= 1.12
    there, so u <= 1.12 t + 1 < 3e14). Below u = e^-20, log(u q) = log(1 +
    u (q - 1/u)) < 3e-9 and the slope is -1 to the same order, and -1j
    stands in for the value: past the last PLUS knot as the interpolant's
    right value, and past the last MINUS knot as two more knots, one a unit
    further and one a unit before the first PLUS key. On a row it is used on
    log q < log(1.8e308) < 710, so a MINUS key stays below the PLUS knots.
    That value must be exact: above N ~ 1e154 sum_n N_n^2 overflows, Newton
    cannot step, and only a start within tol of the root converges.
    """
    log_u = 2.0 * np.sinh(np.linspace(math.asinh(17.0), math.asinh(-10.0), _START_KNOTS))
    u = np.exp(log_u)
    ground = np.repeat([WellSide.MINUS.ground_energy, WellSide.PLUS.ground_energy], _START_KNOTS)
    with np.errstate(over="ignore"):  # sinh overflows at large u, where its term in the sum of squares is 0
        pole, squares = (sums.reshape(2, -1) for sums in _pole_sums(np.tile(u, 2), ground))  # MINUS, PLUS
    q = 0.5 * pole
    slope = -0.5 * u * squares / q  # u q'/q
    log_q = np.log(q)
    keys = np.concatenate((log_q[0] - _START_SHIFT, [log_q[0, -1] - _START_SHIFT + 1.0, log_q[1, 0] - 1.0], log_q[1]))
    values = np.concatenate((log_u + log_q[0] + 1j * slope[0], [-1j, -1j], log_u + log_q[1] + 1j * slope[1]))
    return keys, values


def _start(plus, ground, b, target, x0):
    """Each row's first iterate: the pole model's root (see REMAINDER_LIMIT), clamped at x0.

    A row keeps x0 unless START_T <= t <= (N / START_DEGENERACY)^2. The
    table gives the root u0 = x t of the model at alpha = 0, t q(u) = N -
    C sqrt(t) (- 1/4 for MINUS), and the slope s = d log q / d log u there;
    one Newton step in x adds the model's terms linear in alpha = x - b e_1,
    K alpha with K = R1 sqrt(t) (- 1/24 for MINUS). Call under np.errstate.
    """
    inside = (b <= 1.0 / START_T) & (b >= (START_DEGENERACY / target) ** 2)
    if not np.count_nonzero(inside):
        return np.full(b.size, x0)
    root_b = np.sqrt(b)
    image = np.where(plus, 0.0, 0.25)  # MINUS: the n = 0 image, -r(alpha)/2 = 1/4 - alpha/24 + O(alpha^3)
    pole = target - (REMAINDER_LIMIT / root_b + image)  # t q(u0)
    keys, values = _start_tables()
    key = np.log(pole * b) - (4.0 * _START_SHIFT) * image  # log q, less _START_SHIFT for MINUS
    fit = np.interp(key, keys, values, right=-1j)
    x = np.exp(fit.real) / pole  # x = u0 / t = (u0 q) / (t q)
    # x - K alpha / (t q s / x + K) = x (scaled + b e_1) / (scaled + x), scaled = t q s / K; K > 0 on every row inside
    scaled = pole / (REMAINDER_SLOPE / root_b - image / 6.0) * fit.imag
    x *= (scaled + b * ground) / (scaled + x)
    return np.maximum(np.where(inside, x, x0), x0)  # where, not a product: a row outside may hold a nan


def total_number(side: WellSide, alpha: float, b: float) -> float:
    """Total occupation sum over the levels of one half well, cut off at TAIL_EXPONENT.

    The sum takes the route _routes gives a solve_rows row, the integrand
    picked by this call's x t in place of x0 t.
    """
    check_domain(t=b)
    x = alpha + b * side.ground_energy
    if not x > 0.0:
        raise ValueError(f"alpha + b*e_1 must be positive, got {x}")
    plus, ground, row = np.array([side is WellSide.PLUS]), np.array([side.ground_energy]), np.array([b])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for kernel, plan, _ in _routes(plus, ground, row, _cutoff(row), x):
            return float(kernel(np.array([x]), plan)[0][0])
    raise ValueError(f"inverse temperature {b} needs more than {MAX_LEVELS} levels")


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
        """One row as an AlphaSolution; raises ConstraintSolverError, bracket [x0, last iterate], if it failed."""
        if not self.converged[row]:
            raise ConstraintSolverError(
                f"constraint solve failed after {self.iterations[row]} evaluations over "
                f"{self.levels_used[row]} levels",
                (math.log1p(1.0 / self.n_particles), self.shifted_alpha[row].item()),
            )
        return AlphaSolution(**{name: getattr(self, name)[row].item() for name in AlphaSolution.__dataclass_fields__})


def solve_rows(
    sides: Sequence[WellSide], n_particles: int, b, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER
) -> RowSolutions:
    """Solve sum_n N_n = N on many rows at once, one row per (sides[i], b[i]).

    Every row holds the same N = n_particles; b is an array, or a scalar
    broadcast over the rows. At x0 = log1p(1/N) level 1 alone holds N
    particles, so S(x0) >= N: x0 is the root's exact lower bound. A row's
    start (see REMAINDER_LIMIT) depends on its own (N, t, well) alone. Newton's step in x, log(S/N) S/(S + sum_n N_n^2),
    is taken in w = log(expm1 x), w += step/(1 - e^-x). There d log S/dw
    is minus a weighted mean of (1 - e^-x)/(1 - e^-z_n), z_n = x + b (e_n -
    e_1), in (0, 1], so log S is linear in w for one level and nearly so far
    from condensation (w ~ x) and in degenerate rows (w ~ log x, S a power
    of x). A step may overshoot the root, the next ones returning from the
    right. Iterates are clamped at x0, which the node route rests on (see
    NODE_STEP). A row stops once |S - N| <= tol * N, or unconverged at
    max_iter evaluations or a non-finite step; over N = 1 to 1e300 and t =
    1e-300 to 2e14 every row stopped converged within 6 evaluations, at
    DEFAULT_TOL and at MIN_TOL, and the clamp never acted
    (tests/test_occupancy.py). The groups of _routes, which also picks each
    group's route by x0, are solved one by one on plans built once. A
    stopped row stays in its group's plan, frozen at its x, where each
    kernel keeps its sums its own; the group writes its results once, when
    its last row stops or at max_iter (at max_iter = 0 each row reports its
    start).
    """
    check_tolerance(tol)
    rows = len(sides)
    plus = np.fromiter((side is WellSide.PLUS for side in sides), dtype=bool, count=rows)
    ground = np.where(plus, WellSide.PLUS.ground_energy, WellSide.MINUS.ground_energy)
    target = float(n_particles)
    b = np.full(rows, b, dtype=np.float64)
    levels = _cutoff(b)
    x0 = math.log1p(1.0 / target)
    number, weighted = np.full((2, rows), np.nan)  # weighted is sum_n (e_n - e_1) N_n
    iterations = np.zeros(rows, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _start(plus, ground, b, target, x0)
        for kernel, plan, group in _routes(plus, ground, b, levels, x0):
            xs, moving, evaluations = x[group], True, 0
            for count in range(1, max_iter + 1):
                evaluations += moving  # a row counts the evaluations up to the one it stopped on
                s, squares, w = kernel(xs, plan)
                excess = s - target
                step = np.log1p(excess / target) * s / (squares + s)  # S' = -sum_n N_n (N_n + 1)
                moving = (np.abs(excess) > tol * target) & np.isfinite(step)
                if count == max_iter or np.count_nonzero(moving) == 0:
                    x[group], number[group], weighted[group], iterations[group] = xs, s, w, evaluations
                    break
                moved = np.maximum(np.log1p(np.expm1(xs) * np.exp(step / -np.expm1(-xs))), x0)  # w += step dw/dx
                xs = np.where(moving, moved, xs)  # a stopped row keeps its x
    residual = np.abs(number - target)
    converged = residual <= tol * target  # false where a row stopped early or was not attempted
    force = weighted + ground * number
    return RowSolutions(x - b * ground, x, residual, levels, iterations, force, converged, n_particles)


def solve_alpha(
    side: WellSide, point: ThermoPoint, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER
) -> AlphaSolution:
    """Solve sum_n N_n = N for the multiplier of one half well.

    A one-row solve_rows call: Newton on log sum_n N_n in w = log(expm1 x),
    x = alpha + b e_1, from the row's start (see REMAINDER_LIMIT) until
    |sum_n N_n - N| <= tol * N.
    Raises ConstraintSolverError, carrying the bracket [x0, last iterate],
    when the solve fails.
    """
    return solve_rows((side,), point.n_particles, point.b, tol, max_iter).solution(0)
