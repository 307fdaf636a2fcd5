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
w = log(expm1 x), where log S is nearly linear. A wide row sums its levels
as one integral instead, on at most 100 fixed nodes, which Poisson
summation makes exact up to a remainder far below rounding. Far
from condensation the integrand is the occupation itself (see NODE_STEP).
Near it, the occupation's pole at zero exponent is split off and summed in
closed form, and only the analytic remainder is integrated (see
_SPLIT_STEP). The level cutoff (TAIL_EXPONENT), both node rules and the
batched Newton iteration are choices of this implementation; only
the occupation formula and the constraint itself are physics.
"""

from __future__ import annotations

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
MAX_ITER = 200
# rows whose cutoff passes this many levels (t > ~2.5e14) are not attempted
MAX_LEVELS = 100_000_000
# largest (rows x levels) plan or level-sum temporary, in float64 elements
_TILE = 1 << 14
# A row of more than NODE_LEVELS levels (t > ~26,200) sums its levels as one
# integral. The levels are symmetric about n = 1/2 (PLUS) or n = 0 (MINUS), so
# the sum over n >= 1 is half the sum over all integers n, less N(0)/2 for
# MINUS, and by Poisson summation that sum is the integral of N(n) up to
# ~2 pi (t / d) exp(-2 pi d), d being the distance from the real n axis of the
# integrand's nearest pole. POLE_DISTANCE picks the integrand. A row whose
# start x0 = log1p(1/N) has x0 t >= POLE_DISTANCE**2 integrates the occupation
# itself (_node_plan): its nearest pole lies d = sqrt(alpha t) away, and
# solve_rows keeps every iterate at x >= x0, so d >= sqrt(99) and the
# remainder is below ~1e-26 of the sum. The integral is the trapezoid rule
# of step NODE_STEP in s, n - centre = sqrt(x0 t) sinh(s), whose error falls like
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
    """A failed constraint solve; bracket is (x0, last iterate): the root's exact lower bound and where x stopped."""

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


def _level_plan(plus, b, levels):
    """A level plan: exponent bases b (e_n - e_1), inf past each row's cutoff, the gaps, no weights."""
    n = np.arange(1.0, levels[-1] + 1.0)
    gap = np.where(plus[:, None], level_gap(WellSide.PLUS, n), level_gap(WellSide.MINUS, n))
    base = b[:, None] * gap
    if levels[0] < levels[-1]:  # the shortest row ends inside the plan
        base[n > levels[:, None]] = np.inf
    return base, gap, None


def _node_count(x0: float) -> int:
    """Nodes a row takes in a call starting at x0: the last passes the level cutoff (see NODE_STEP)."""
    return int(math.asinh(math.sqrt(TAIL_EXPONENT / x0)) / NODE_STEP) + 2


def _node_plan(ground, b, x0, nodes):
    """A node plan (see NODE_STEP): exponent bases, gaps e(n) - e_1 and weights at each row's nodes.

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
    return b[:, None] * gap, gap, weight


def _level_sums(x, plan):
    """sum_n N_n, sum_n N_n^2 and sum_n (e_n - e_1) N_n per row at x over a plan (call under np.errstate).

    A plan is (base, gap, weight): levels carry no weight, nodes the weights
    of _node_plan.
    """
    base, gap, weight = plan
    occ = base + x[:, None]
    np.expm1(occ, out=occ)
    np.divide(1.0, occ, out=occ)
    mass = occ if weight is None else occ * weight
    number, weighted = mass.sum(axis=1), (mass * gap).sum(axis=1)
    mass *= occ
    return number, mass.sum(axis=1), weighted


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


def _split_sums(x, plan):
    """The sums of _level_sums at x over a split plan (call under np.errstate).

    With A = alpha t = x t - e_1, the pole's sum over n >= 1 is (t/2) times
    sum_{n != c} 1/(A + (n - c)^2): Phi(A) for MINUS (n = 0 is no level), and
    4 Phi(4A) - Phi(A) for PLUS, its lattice being the odd half of the
    integers in units of 1/2. The remainder r, r' and z/expm1(z) are summed
    on the nodes, and sum_n (e_n - e_1) N_n = t (sum_n z_n N_n - x S).
    """
    weight, rows = plan
    t, ground = rows.T
    xt = x * t
    scale = 1.0 / ground  # 4 for PLUS, 1 for MINUS
    other = (scale - 1.0) / 3.0  # the weight of Phi(A): 1 for PLUS, 0 for MINUS
    phi, squares = _lattice(np.concatenate((scale * xt, xt + (1.0 - ground))))
    count = len(x)
    pole = scale * phi[:count] - other * phi[count:]
    pole_squares = scale * scale * squares[:count] - other * squares[count:]
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
    is taken. Routing costs O(1) in a call without wide rows, and no plan is
    wider than _TILE levels unless NODE_LEVELS is raised past it.
    """
    order = np.argsort(levels, kind="stable")
    order = order[levels[order] <= MAX_LEVELS]
    if order.size and levels[order[-1]] > NODE_LEVELS:  # O(1) unless the call has a wide row
        wide = levels[order] > NODE_LEVELS
        routed, order = order[wide], order[~wide]
        split = x0 < POLE_DISTANCE**2 * b[routed]
        nodes, on_nodes, on_split = _node_count(x0), routed[~split], routed[split]
        for group in _groups(np.full(on_nodes.size, nodes)):
            on = on_nodes[group]
            yield _level_sums, _node_plan(ground[on], b[on], x0, nodes), on
        for group in _groups(np.full(on_split.size, _SPLIT_NODES)):
            on = on_split[group]
            yield _split_sums, _split_plan(ground[on], b[on]), on
    for group in _groups(levels[order]):
        on = order[group]
        yield _level_sums, _level_plan(plus[on], b[on], levels[on]), on


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
    level 1 alone holds N particles, so S(x0) >= N, the root's exact lower
    bound. Newton's step in x, log(S/N) S/(S + sum_n N_n^2), is taken in
    w = log(expm1 x), w += step/(1 - e^-x). There d log S/dw is minus a
    weighted mean of (1 - e^-x)/(1 - e^-z_n), z_n = x + b (e_n - e_1), in
    (0, 1], so log S is linear in w for one level and nearly so far from
    condensation (w ~ x) and in degenerate rows (w ~ log x, S a power of x).
    The first step climbs from x0; a step may overshoot the root, the next
    ones returning from the right. Iterates are clamped at x0, which the
    node route rests on (see NODE_STEP). A row stops once |S - N| <= tol * N,
    or unconverged at max_iter evaluations or a non-finite step; over N = 1
    to 1e300 and t = 1e-300 to 2e14 every row stopped converged within 6
    evaluations and the clamp never acted (tests/test_occupancy.py). The
    groups of _routes, which also picks each group's route, are solved one
    by one: the plan is built once, the rows still iterating hold their x in
    a compact array, and a row that stops leaves both and has its results
    written, once.
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for kernel, plan, live in _routes(plus, ground, b, levels, x0):  # live: rows still iterating, xs their x
            xs = x[live]
            for count in range(1, max_iter + 1):
                s, squares, w = kernel(xs, plan)
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
                    plan = tuple(part if part is None else part[keep] for part in plan)  # one row per live row
                xs = np.maximum(np.log1p(np.expm1(xs) * np.exp(step / -np.expm1(-xs))), x0)  # w += step dw/dx
    residual = np.abs(number - target)
    converged = residual <= tol * target  # false where a row stopped early or was not attempted
    force = weighted + ground * number
    return RowSolutions(x - b * ground, x, residual, levels, iterations, force, converged, n_particles)


def solve_alpha(
    side: WellSide, point: ThermoPoint, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER
) -> AlphaSolution:
    """Solve sum_n N_n = N for the multiplier of one half well.

    A one-row solve_rows call: Newton on log sum_n N_n in w = log(expm1 x),
    x = alpha + b e_1, from the exact lower bound x0 = log1p(1/N) until
    |sum_n N_n - N| <= tol * N. Raises ConstraintSolverError, carrying the
    bracket [x0, last iterate], when the solve fails.
    """
    return solve_rows((side,), point.n_particles, point.b, tol, max_iter).solution(0)
