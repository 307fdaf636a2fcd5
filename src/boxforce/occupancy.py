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
instead, exact by Poisson summation up to a remainder far below rounding
(see NODE_LEVELS): a power series in the fugacity e^-alpha for alpha > 1;
for |alpha| <= 1 the occupation's pole, summed in closed form, plus the
remainder's power series in alpha, with zeta values for coefficients. The
level cutoff (TAIL_EXPONENT), the series' lengths, the start and the
batched Newton iteration are choices of this implementation; only the
occupation formula and the constraint itself are physics.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .spectrum import WellSide, level_gap, plus_mask

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
# series terms) of a group's rows, laid end to end
_TILE = 1 << 14
# A row of more than NODE_LEVELS levels (t > ~26,200) sums its levels as one
# integral (_split_sums). The levels are symmetric about n = c, c = 1/2 (PLUS)
# or 0 (MINUS), so the sum over n >= 1 is half that over all integers, less
# N(0)/2 for MINUS (n = 0 is no level), and by Poisson summation sqrt(t) times
# the integral over v = (n - c)/sqrt(t) of the integrand in z = alpha + v^2,
# up to ~2 pi (t / d) exp(-2 pi d), d the distance of its nearest pole from
# the real n axis. Each evaluation picks the integrand row by row, by alpha:
# * alpha > _FUGACITY_ALPHA = 1 (_fugacity_sums): the occupation 1/expm1(z),
#   its nearest pole d = sqrt(alpha t) > 161 away. Its integrals are Bose
#   functions of z = e^-alpha: S = (sqrt(pi t)/2) Li_{1/2}(z), less 1/(2 expm1
#   alpha) for MINUS; Newton's sum of squares, sum_n N_n (N_n + 1) - S, is
#   (sqrt(pi t)/2) sum_k (k - 1) z^k / sqrt(k), summed so and not as that
#   difference, less N(0)^2/2 for MINUS; the force sum_n e_n N_n is t (sqrt(pi
#   t)/4) Li_{3/2}(z) (e_0 = 0). _FUGACITY_TERMS terms reach rounding at z <= e^-1.
# * alpha <= 1 (_series_sums): the pole split. The pole 1/z has a closed-form
#   lattice sum in A = alpha t (_lattice). The remainder r(z) = 1/expm1(z) -
#   1/z is analytic, its poles z = +-2 pi i lying ~sqrt(pi t) >= 286 from the
#   axis, so its sum is sqrt(t) R(alpha), less r(alpha)/2 for MINUS, R(alpha)
#   the integral of r(alpha + v^2) over v >= 0; so are those of -r' (Newton's
#   derivative) and of z/expm1(z) (the force). R is the Bose integral less its
#   pole, a power series in alpha (Robinson, Phys. Rev. 83, 678, 1951): R =
#   (sqrt(pi)/2) sum_j zeta(1/2 - j) (-alpha)^j / j!, -R' is the same series
#   one zeta further on, and the force's integral (sqrt(pi)/2) (alpha Li_{1/2}
#   + Li_{3/2}/2) is (sqrt(pi)/2) sum_j (1/2 - j) zeta(3/2 - j) (-alpha)^j / j!.
#   The n = 0 terms -r(alpha)/2, r'(alpha)/2 and -alpha/expm1(alpha)/2 are the
#   Bernoulli series of 1/expm1. All six converge for |alpha| < 2 pi, and
#   _SPLIT_TERMS terms reach rounding on |alpha| <= 1: the tail is below 3e-19
#   of each remainder sum and 2e-18 of each n = 0 term. solve_rows keeps x >=
#   x0 > 0, so alpha > -b e_1 >= -1/26,214.
# Against math.fsum direct sums (N = 1 to 1e9, t from the NODE_LEVELS
# threshold to 1e10, both wells, at x0, the root, three times the root, x = 5
# and alpha = 1, 1 +- 1e-12) the fugacity series measured at most 6.7e-16
# relative in sum N_n, sum N_n^2 and sum (e_n - e_1) N_n, and the pole split
# 1.2e-15, 3.1e-15 and 4.8e-15, the last at the seam alpha = 1, where the force
# sum's difference t (sum z_n N_n - x S) cancels.
NODE_LEVELS = 1 << 10
_FUGACITY_ALPHA = 1.0
_FUGACITY_TERMS = 40
_SPLIT_TERMS = 24
# (sqrt(pi)/2) zeta(3/2 - j), j = 0 to _SPLIT_TERMS + 1, correctly rounded; R(0) and -R'(0) are
# its second and third terms (REMAINDER_LIMIT, REMAINDER_SLOPE)
_HALF_ZETA = (
    2.315157373394117, -1.2942054864133927, -0.18423437000566129, -0.02258567211536955,
    0.007547931605094415, 0.003935743821742784, -0.0027399205314769313, -0.0023675180274514026,
    0.0024342597059879663, 0.002897110889608891, -0.003913607235741434, -0.005913058740388699,
    0.009877993850802229, 0.018076351735955325, -0.03595862868120471, -0.0772570590173243,
    0.1782858592666647, 0.4398089174133524, -1.1549568520124947, -3.2167904243727765,
    9.471397009687397, 29.394663383471567, -95.90524020159963, -328.17149516208156,
    1175.177502755837, 4395.329566221276,
)
# the Bernoulli numbers B_0 to B_(_SPLIT_TERMS + 1): 1/expm1(z) = sum_n B_n z^(n-1) / n!
_BERNOULLI = (
    1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0, -691 / 2730, 0.0, 7 / 6, 0.0,
    -3617 / 510, 0.0, 43867 / 798, 0.0, -174611 / 330, 0.0, 854513 / 138, 0.0, -236364091 / 2730, 0.0,
)
# terms of the power series of _series, which reach rounding for |Y| <= 12
_SERIES_TERMS = 18
# Newton starts each row (_start) at the root of a pole model of its sum,
# clamped at the root's exact lower bound x0 = log1p(1/N), inside the model's
# window, and at x0 outside it. Split as for NODE_LEVELS, a row's sum is
# t q(A), A = alpha t, from the pole, q being half its lattice sum
# (_pole_sums), plus the remainder's, sqrt(t) R(alpha) less r(alpha)/2 for
# MINUS. The model takes the remainder to first order in alpha: t q(A) +
# sqrt(t) (C + R1 alpha) + 1/4 - alpha/24 (MINUS) = N, with C = R(0) =
# (sqrt(pi)/2) zeta(1/2) (REMAINDER_LIMIT) and R1 = R'(0) = -(sqrt(pi)/2)
# zeta(-1/2) (REMAINDER_SLOPE), the first two terms of R's series
# (_HALF_ZETA), and -r(alpha)/2 = 1/4 - alpha/24 + O(alpha^3). Its root in
# u = A + e_1 = x t is one Newton step from the root of the model at alpha =
# 0, read from a table of q's inverse (_start_tables) with np.interp. The
# model drops O(alpha^2) terms, sqrt(t) R''(0) alpha^2/2 with R''(0) =
# (sqrt(pi)/2) zeta(-3/2) = -0.0225857. The window where it is used keeps the
# edges derived from the model at alpha = 0, which drops sqrt(t) (R(alpha) -
# C) ~ R1 alpha sqrt(t), R1 = 0.18423:
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
REMAINDER_LIMIT = _HALF_ZETA[1]
REMAINDER_SLOPE = -_HALF_ZETA[2]
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


def _level_plan(plus, b, levels, scale):
    """A level plan: exponent bases b (e_n - e_1) and gaps of n = 1..levels[r] for each row r.

    The rows, sorted by levels, lay their levels end to end, row r's run
    beginning at starts[r]. A plan is (base, gap, counts, starts, scale),
    counts being each row's run length and scale its sums' power of two c
    (_routes). Every row has at least one level (_cutoff), and
    np.add.reduceat in _level_sums needs that: it returns the next element,
    not 0, for an empty run.
    """
    ends = np.add.accumulate(levels)
    starts = ends - levels
    widest = int(levels[-1])
    n = np.arange(1.0, widest + 1.0)
    gaps = np.concatenate((level_gap(WellSide.MINUS, n), level_gap(WellSide.PLUS, n)))
    gap = gaps[np.arange(ends[-1]) - (starts - widest * plus).repeat(levels)]  # a PLUS row reads the second half
    return b.repeat(levels) * gap, gap, levels, starts, scale


def _level_sums(x, plan):
    """c S = c sum_n N_n per row at x over a plan of scale c, and its other two sums on demand (call under np.errstate).

    Returns (c S, squares, moment): squares() gives c sum_n N_n^2 and
    moment() c sum_n (e_n - e_1) N_n. Each forms its sum only when called,
    from the evaluation's occupations c N_n, which neither alters, so
    either may be called after the other. np.add.reduceat sums each row's
    run (_level_plan) pairwise, the same wherever the run lies in the plan.
    """
    base, gap, counts, starts, scale = plan
    occ = x.repeat(counts)
    occ += base
    np.expm1(occ, out=occ)
    np.divide(scale, occ, out=occ)  # c N_n
    return (np.add.reduceat(occ, starts), lambda: np.add.reduceat(occ * occ, starts) / scale,
            lambda: np.add.reduceat(occ * gap, starts))


def _series_matrix(terms: int) -> np.ndarray:
    """Rows: the power series in Y of S(Y) = sinh(y)/y, E(Y) = (y cosh y - sinh y)/y^3, S' and E', Y = y^2."""
    odd = [math.factorial(2 * k + 1) for k in range(terms + 1)]
    s = [1.0 / odd[k] for k in range(terms)]
    e = [2.0 * (k + 1) / odd[k + 1] for k in range(terms)]
    return np.array([s, e, *([k * c for k, c in enumerate(f)][1:] + [0.0] for f in (s, e))])


def _split_matrix(terms: int) -> np.ndarray:
    """The power series in alpha of R, -R' and the force moment, then of the n = 0 terms (see NODE_LEVELS)."""
    z, bernoulli, fact = _HALF_ZETA, _BERNOULLI, [math.factorial(j) for j in range(terms + 2)]
    return np.array([
        [
            [(-1) ** j * z[j + 1] / fact[j] for j in range(terms)],  # R
            [(-1) ** j * z[j + 2] / fact[j] for j in range(terms)],  # -R'
            [(-1) ** j * (0.5 - j) * z[j] / fact[j] for j in range(terms)],  # integral of z/expm1(z)
        ],
        [
            [-bernoulli[j + 1] / (2 * fact[j + 1]) for j in range(terms)],  # -r/2
            [(j + 1) * bernoulli[j + 2] / (2 * fact[j + 2]) for j in range(terms)],  # r'/2
            [-bernoulli[j] / (2 * fact[j]) for j in range(terms)],  # -alpha/expm1(alpha)/2
        ],
    ])


# Module constants are built with math, not numpy ufuncs, which would page in
# their code at import time.
_SERIES = _series_matrix(_SERIES_TERMS)
_SPLIT_SERIES = _split_matrix(_SPLIT_TERMS)
_SPLIT_POWERS = np.array([[float(j)] for j in range(_SPLIT_TERMS)])
_FUGACITY_POWERS = np.array([[float(k)] for k in range(1, _FUGACITY_TERMS + 1)])
# the power series in z = e^-alpha, from z, of S, sum_n N_n^2 and the force, over sqrt(t) (see NODE_LEVELS):
# (sqrt(pi)/2) k^-1/2 times 1 (Li_{1/2}), k - 1 (Li_{-1/2} - Li_{1/2}) and 1/(2k) (Li_{3/2}/2)
_FUGACITY_SERIES = np.array([[math.sqrt(math.pi / k) / 2.0 * w(k) for k in range(1, _FUGACITY_TERMS + 1)]
                             for w in (lambda k: 1.0, lambda k: k - 1.0, lambda k: 0.5 / k)])


def _series(y2):
    """rho(Y) = (y coth y - 1)/y^2 = E/S and d rho/dY at Y = y2 from _SERIES (Y < 0 continues y to i y)."""
    powers = np.empty((_SERIES_TERMS - 1,) + y2.shape)
    powers[0] = y2
    for k in range(1, _SERIES_TERMS - 1):  # Y, Y^2, ...: 4x np.cumprod's speed on the start table's 1,668 points
        np.multiply(powers[k - 1], y2, out=powers[k])
    # einsum, not @: a BLAS call pages in ~0.25 MB of library code for this small product
    sums = _SERIES[:, :1] + np.einsum("ck,kr->cr", _SERIES[:, 1:], powers.reshape(_SERIES_TERMS - 1, -1))
    s, e, ds, de = sums.reshape((4,) + y2.shape)
    return e / s, (de * s - e * ds) / (s * s)


def _lattice(p, scale=1.0):
    """Phi(A) = sum_{n != 0} 1/(A + n^2) and c times -Phi'(A) = sum_{n != 0} 1/(A + n^2)^2 at A = p - 1 > -1.

    p = 1 + A, the distance from the pole at A = -1 (level n = +-1), comes in
    without cancellation. The closed form Phi = (pi/a) coth(pi a) - 1/A,
    a = sqrt(A), serves A >= 1. For -1/2 <= A < 1 it cancels, and Phi =
    pi^2 rho(pi^2 A) comes from the series of _series. For A < -1/2 it
    continues to -(pi/a) cot(pi a) - 1/A, a = sqrt(-A), taken through the
    complement 1 - a = p / (1 + a) so that the pole stays resolved. Measured
    against mpmath: <= 1.7e-15 relative from p = 1e-14 to 1e8. -Phi' ~ 2/p^2
    overflows below p ~ 1e-154; the power of two c = scale enters before squaring.
    """
    low = math.ldexp(1.0, (math.frexp(scale)[1] - 1) // 2)  # and high = scale / low
    a2 = p - 1.0
    phi, squares = np.empty_like(p), np.empty_like(p)
    hyperbolic, trigonometric = a2 >= 1.0, a2 < -0.5
    series = ~(hyperbolic | trigonometric)
    if np.count_nonzero(hyperbolic):
        A = a2[hyperbolic]
        a = np.sqrt(A)
        value = math.pi / (a * np.tanh(math.pi * a)) - 1.0 / A
        phi[hyperbolic] = value
        squares[hyperbolic] = scale * ((value + (math.pi / np.sinh(math.pi * a)) ** 2 - 1.0 / A) / (2.0 * A))
    if np.count_nonzero(series):
        rho, slope = _series(math.pi**2 * a2[series])
        phi[series] = math.pi**2 * rho
        squares[series] = -(math.pi**4 * scale) * slope
    if np.count_nonzero(trigonometric):
        A = a2[trigonometric]
        a = np.sqrt(-A)
        angle = math.pi * p[trigonometric] / (1.0 + a)
        sine = np.sin(angle)
        cot = np.cos(angle) / sine
        phi[trigonometric] = math.pi * cot / a - 1.0 / A
        pole, twist = math.pi / (a * sine), math.pi * cot / (2.0 * a**3)
        squares[trigonometric] = 0.5 * ((low * pole) * (scale / low * pole)) - scale * twist - scale / (A * A)
    return phi, squares


def _split_plan(ground, b, scale):
    """A split plan (see NODE_LEVELS): (rows, c), c its scale (_routes), rows t, e_1, c sqrt(t) and c for MINUS."""
    t = 1.0 / b
    image = ground == WellSide.MINUS.ground_energy
    return np.stack((t, ground, scale * np.sqrt(t), scale * image)), scale


def _pole_sums(xt, ground, scale=1.0):
    """The pole's lattice sum sum_{n != c} 1/(A + (n - c)^2) and c times that of its squares, A = xt - e_1, per row.

    The lattice is the integers for MINUS (ground energy 1, c = 0), where
    the sum is Phi(A), and the half-integers for PLUS (ground energy 1/4,
    c = 1/2), where in units of 1/2 it is the odd half of the integers,
    4 Phi(4A) - Phi(A); the sum of squares is -d/dA of either, scaled by the
    power of two c = scale inside _lattice. Both wells' Phi come from one
    _lattice call, Phi(A) at the PLUS rows alone.
    """
    weight = 1.0 / ground  # 4 for PLUS, 1 for MINUS
    plus = np.flatnonzero(weight > 1.0)
    phi, squares = _lattice(np.concatenate((weight * xt, xt[plus] + 0.75)), scale)
    count = len(xt)
    pole, pole_squares = weight * phi[:count], weight * weight * squares[:count]
    pole[plus] -= phi[count:]
    pole_squares[plus] -= squares[count:]
    return pole, pole_squares


def _series_sums(x, alpha, rows, scale):
    """_split_sums' three sums on rows with |alpha| <= 1, by the pole split (see NODE_LEVELS).

    The pole's sum over n >= 1 is (t/2) times its lattice sum (_pole_sums); the remainder's sums of
    r, -r' and z/expm1(z), with MINUS's n = 0 image, one product; sum_n (e_n - e_1) N_n = t (sum_n z_n N_n - x S).
    """
    t, ground = rows[:2]
    pole, pole_squares = _pole_sums(x * t, ground, scale)
    powers = np.power(alpha, _SPLIT_POWERS)  # 1, alpha, alpha^2, ...
    remainder, derivative, moment = np.einsum("wck,kr,wr->cr", _SPLIT_SERIES, powers, rows[2:])
    number = 0.5 * scale * t * pole + remainder
    # sum N^2 = sum N (N + 1) - S
    return number, 0.5 * t * t * pole_squares + derivative - number, t * (moment - x * number)


def _fugacity_sums(x, alpha, rows, scale):
    """_split_sums' three sums on rows with alpha > 1, in z = e^-alpha (see NODE_LEVELS); the moment is f - e_1 S."""
    t, ground, root_t, image = rows
    # z = e^-x e^(b e_1): alpha = x - b e_1 would carry its own rounding, ~1e-15 at alpha ~ 10, into z
    powers = np.power(np.exp(-x) * np.exp(ground / t), _FUGACITY_POWERS)  # z, z^2, ...
    number, squares, force = root_t * np.einsum("ck,kr->cr", _FUGACITY_SERIES, powers)
    ground_occupation = 1.0 / np.expm1(alpha)
    image = image * (0.5 * ground_occupation)  # c N(0)/2 for MINUS, 0 for PLUS
    number -= image
    return number, squares - image * ground_occupation, t * force - ground * number


def _split_sums(x, plan):
    """c S at x over a split plan of scale c and its other two sums on demand, as _level_sums returns them.

    Each row takes the branch of its alpha = x - b e_1 (see NODE_LEVELS): the
    pole split up to _FUGACITY_ALPHA, the fugacity series past it. Call under np.errstate.
    """
    rows, scale = plan
    t, ground = rows[:2]
    alpha = (x * t - ground) / t
    sums = np.empty((3, x.size))
    series = alpha <= _FUGACITY_ALPHA
    for branch, on in ((_series_sums, series), (_fugacity_sums, ~series)):
        count = np.count_nonzero(on)
        if count == x.size:  # every row on one branch: no gather or scatter
            sums = branch(x, alpha, rows, scale)
        elif count:
            sums[:, on] = branch(x[on], alpha[on], rows[:, on], scale)
    number, squares, moment = sums
    return number, lambda: squares, lambda: moment


def _routes(plus, ground, b, levels, scale):
    """Yield (kernel, plan, rows) per group (_groups) of rows, rows being the group's indices.

    Every plan sums at scale c, a power of two: its kernel returns c times
    S, sum_n N_n^2 and sum_n (e_n - e_1) N_n. solve_rows takes c = 2^-e, e
    the binary exponent of N (c N in [1/2, 1)), so that c sum_n N_n^2 stays
    finite where sum_n N_n^2, ~N^2, overflows (past N ~ 1.3e154): a level
    plan sums c N_n, and a split plan takes c into its lattice sum of squares
    before squaring (_lattice). Scaling by a power of two is exact while the
    scaled terms stay normal, as they do up to N = 1e150 at least
    (tests/test_occupancy.py), so there each sum is c times the unscaled
    one, bit for bit.

    A row of at most NODE_LEVELS levels sums its levels, a wider one sums
    them as one integral (_split_sums), and a row past MAX_LEVELS is in no
    group. Each plan is built when its group is taken and holds at most
    _TILE levels or series terms, a row wider than that being a group alone.
    """
    order = levels.argsort(kind="stable")
    ordered = levels[order]
    narrow, attempted = ordered.searchsorted((NODE_LEVELS, MAX_LEVELS), side="right").tolist()
    wide = order[narrow:attempted]
    for group in _groups(np.full(wide.size, max(_SPLIT_TERMS, _FUGACITY_TERMS))) if wide.size else ():
        on = wide[group]
        yield _split_sums, _split_plan(ground[on], b[on], scale), on
    for group in _groups(ordered[:narrow]):
        on = order[group]
        yield _level_sums, _level_plan(plus[on], b[on], ordered[group], scale), on


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
    return np.fmax(np.where(inside, x, x0), x0)  # fmax: a nan root (past N ~ 5e307, scaled overflows) keeps x0


def total_number(side: WellSide, alpha: float, b: float) -> float:
    """Total occupation sum over the levels of one half well, cut off at TAIL_EXPONENT.

    The sum takes the route _routes gives a solve_rows row. It reads S
    alone, so a level kernel forms neither of its other sums, and sums at
    scale 1.
    """
    check_domain(t=b)
    x = alpha + b * side.ground_energy
    if not x > 0.0:
        raise ValueError(f"alpha + b*e_1 must be positive, got {x}")
    plus, ground, row = plus_mask((side,)), np.array([side.ground_energy]), np.array([b])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for kernel, plan, _ in _routes(plus, ground, row, _cutoff(row), 1.0):
            return float(kernel(np.array([x]), plan)[0][0])
    raise ValueError(f"inverse temperature {b} needs more than {MAX_LEVELS} levels")


class RowSolutions(NamedTuple):
    """Per-row arrays from solve_rows, for rows that all hold n_particles.

    A row with converged False failed (see solve_rows), or its cutoff passed
    MAX_LEVELS; its shifted_alpha is then the last iterate. levels_used is
    the row's level cutoff, a wide row's too (its sums ran as one integral).
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
    right. Iterates are clamped at x0, which keeps a wide row's alpha above
    -b e_1, inside the pole split's domain (see NODE_LEVELS). A row stops
    once |S - N| <= tol * N, or unconverged at max_iter evaluations or a
    non-finite step; over N = 1 to 1e300 and t = 1e-300 to 2e14 every row
    stopped converged within 6 evaluations, at DEFAULT_TOL and at MIN_TOL,
    and the clamp never acted (tests/test_occupancy.py). The groups of
    _routes are solved one by one on plans built once, at the scale c of
    _routes: the solve runs on c S against c N, and the sums are unscaled
    once all groups are solved. A stopped row stays in its group's plan,
    frozen at its x, where each kernel keeps its sums its own. An
    evaluation reads S; sum_n N_n^2 only where a step may follow, and the
    force moment sum_n (e_n - e_1) N_n once per group, on the evaluation
    where it stops: when its last row stops (by tol or a non-finite step) or
    at max_iter. The group then writes its results (at max_iter = 0 each row
    reports its start).
    """
    check_tolerance(tol)
    plus = plus_mask(sides)
    ground = 1.0 - 0.75 * plus  # WellSide.ground_energy: 1/4 for PLUS, 1 for MINUS
    target = float(n_particles)
    scale = math.ldexp(1.0, -math.frexp(target)[1])
    scaled_target, x0 = scale * target, math.log1p(1.0 / target)
    # 0-d arrays, read on every evaluation: a ufunc converts a Python float operand on each call
    scale, scaled_target, limit, x0 = map(np.array, (scale, scaled_target, tol * scaled_target, x0))
    b = np.full(plus.size, b, dtype=np.float64)
    levels = _cutoff(b)
    sums = np.full((2, plus.size), np.nan)
    number, weighted = sums[0], sums[1]  # weighted: sum_n (e_n - e_1) N_n; both at scale c until the groups are solved
    iterations = np.zeros(plus.size, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _start(plus, ground, b, target, x0)
        for kernel, plan, group in _routes(plus, ground, b, levels, scale):
            xs, moving, evaluations = x[group], True, 0
            for count in range(1, max_iter + 1):
                evaluations += moving  # a row counts the evaluations up to the one it stopped on
                s, squares, moment = kernel(xs, plan)
                excess = s - scaled_target
                moving = np.abs(excess) > limit
                if count < max_iter and np.count_nonzero(moving):  # no step on the group's last evaluation
                    step = np.log1p(excess / scaled_target) * s / (squares() + s)  # S' = -sum_n N_n (N_n + 1)
                    moving &= np.isfinite(step)
                if count == max_iter or np.count_nonzero(moving) == 0:
                    x[group], number[group], weighted[group], iterations[group] = xs, s, moment(), evaluations
                    break
                moved = np.maximum(np.log1p(np.expm1(xs) * np.exp(step / -np.expm1(-xs))), x0)  # w += step dw/dx
                np.copyto(xs, moved, where=moving)  # a stopped row keeps its x
    sums /= scale
    residual = np.abs(number - target)
    converged = residual <= tol * target  # false where a row stopped early or was not attempted
    force = weighted + ground * number
    return RowSolutions(x - b * ground, x, residual, levels, iterations, force, converged, n_particles)


def force_difference(solved: RowSolutions, b) -> np.ndarray:
    """f_minus - f_plus at each b[i] of a solve_rows call whose rows are the PLUS wells, then the MINUS ones.

    Where both roots lie on the fugacity series (alpha > 1, wide rows; see
    NODE_LEVELS) the forces, ~N t/2, differ by ~(N/2) sqrt(t/pi), below their
    rounding. There MINUS's alpha is PLUS's plus d, the root of sqrt(t) sum_k
    c_k z^k expm1(-k d) = 1/(2 expm1(alpha + d)) (c_k: S's series in z =
    e^-alpha), one Newton step from the roots' difference, and the difference
    is t sqrt(t) sum_k (sqrt(pi)/4) k^-3/2 z^k expm1(-k d), which cancels nothing.
    """
    count = len(solved.force) // 2
    difference = solved.force[count:] - solved.force[:count]
    on = solved.levels_used[:count] > NODE_LEVELS  # then alpha- > 1 puts both roots on the series (alpha- < alpha+)
    if np.count_nonzero(on) and np.count_nonzero(on := on & (solved.alpha[count:] > _FUGACITY_ALPHA)):
        t, plus = 1.0 / np.broadcast_to(b, on.shape)[on], solved.alpha[:count][on]
        d = solved.alpha[count:][on] - plus
        powers, image = np.power(np.exp(-plus), _FUGACITY_POWERS), np.expm1(plus + d)
        series, k = _FUGACITY_SERIES, _FUGACITY_POWERS  # c_k k is the sum of the first two rows
        excess = np.sqrt(t) * np.einsum("k,kr->r", series[0], powers * np.expm1(-k * d))
        slope = np.sqrt(t) * np.einsum("k,kr->r", series[0] + series[1], powers * np.exp(-k * d))
        d += (excess - 0.5 / image) / (slope - 0.5 * (image + 1.0) / image**2)
        difference[on] = t * np.sqrt(t) * np.einsum("k,kr->r", series[2], powers * np.expm1(-k * d))
    return difference


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
