"""Bose-Einstein occupations and the particle-number constraint.

Each half well holds N ideal bosons, with occupations N_n = 1/(exp(alpha +
b e_n) - 1) at b = 1/t and the multiplier alpha fixed by S = sum_n N_n = N.
These two formulas are the physics; the rest is this implementation's
choice, documented where it is defined. solve_rows solves the constraint
on many rows at once (solve_alpha is one row of it). _routes groups its
rows and gives each group a kernel and a plan: _split_sums, one integral
(the SPLIT_FLOOR block), for the rows over SPLIT_FLOOR levels when together
they would sum more than SPLIT_COST levels, and _level_sums, the sums over a
row's levels up to the TAIL_EXPONENT cutoff, for the rest. _start gives each
row's first iterate (the REMAINDER_LIMIT block). check_domain and
check_tolerance are the input rules.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# level_gap is not called here (_level_plan forms its gaps from their indices), but bench/spans.py wraps
# occupancy.level_gap by name, and the name must stay importable for that
from .spectrum import WellSide, level_gap, offsets  # noqa: F401

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
# smaller tol asks for digits they do not hold: on the domain of solve_rows'
# step bound every row converged at 2e-15 but one (N = 1, MINUS, t = 2e14)
# failed at 1e-15. The floor keeps a factor 5 above 2e-15.
MIN_TOL = 1e-14
MAX_ITER = 200
# rows whose cutoff (_cutoff) passes this many levels are not attempted: they
# stop unconverged, with no evaluation
MAX_LEVELS = 100_000_000
# largest plan or level-sum temporary, in float64 elements: the levels (or
# series terms) of a group's rows, laid end to end
_TILE = 1 << 14
# A row of more than SPLIT_FLOOR levels (t >= 409.6) may sum its levels as one
# integral (_split_sums). _routes sends all such rows of a call there together
# when their levels add up to more than SPLIT_COST, the level terms that cost
# about as much as one split evaluation's fixed ~25-35 us of numpy calls, and
# keeps them on their levels otherwise: net_force's two rows, of equal
# cutoffs, are split past 1,024 levels each (t > ~26,200), a one-row call past
# 2,048 (t > ~104,900), and a sweep's rows over the floor once they are more
# than a handful. Below the floor a split evaluation would not pay for itself
# in any call, and its series would leave their domain (alpha >= -1/409.6,
# below). The levels (n - c)^2 (spectrum) are symmetric about n = c, so the
# sum over n >= 1 is half that over all integers less the image of n = 0,
# (1 - 2c)/2 times its term, and by Poisson summation sqrt(t) times
# the integral over v = (n - c)/sqrt(t) of the integrand in z = alpha + v^2,
# up to ~2 pi (t / d) exp(-2 pi d), d the distance of its nearest pole from
# the real n axis. Each evaluation picks the integrand row by row, by alpha:
# * alpha > _FUGACITY_ALPHA = 1 (_fugacity_sums): the occupation 1/expm1(z),
#   its nearest pole d = sqrt(alpha t) > 20.2 away. Its integrals are Bose
#   functions of z = e^-alpha: S = (sqrt(pi t)/2) Li_{1/2}(z) less N(0)'s
#   image; Newton's sum of squares, sum_n N_n (N_n + 1) - S, is (sqrt(pi
#   t)/2) sum_k (k - 1) z^k / sqrt(k), summed so and not as that difference,
#   less N(0)^2's image; the force sum_n e_n N_n is t (sqrt(pi t)/4)
#   Li_{3/2}(z) (e_0 = 0). _FUGACITY_TERMS terms reach rounding at z <= e^-1.
# * alpha <= 1 (_series_sums): the pole split. The pole 1/z has a closed-form
#   lattice sum in A = alpha t (_lattice). The remainder r(z) = 1/expm1(z) -
#   1/z is analytic, its poles z = +-2 pi i lying ~sqrt(pi t) >= 35.8 from the
#   axis, so its sum is sqrt(t) R(alpha) less r(alpha)'s image, R(alpha)
#   the integral of r(alpha + v^2) over v >= 0; so are those of -r' (Newton's
#   derivative) and of z/expm1(z) (the force). R is the Bose integral less its
#   pole, a power series in alpha (Robinson, Phys. Rev. 83, 678, 1951): R =
#   (sqrt(pi)/2) sum_j zeta(1/2 - j) (-alpha)^j / j!, -R' is the same series
#   one zeta further on, and the force's integral (sqrt(pi)/2) (alpha Li_{1/2}
#   + Li_{3/2}/2) is (sqrt(pi)/2) sum_j (1/2 - j) zeta(3/2 - j) (-alpha)^j / j!.
#   The images, (1 - 2c) times -r(alpha)/2, r'(alpha)/2 and
#   -alpha/expm1(alpha)/2, are Bernoulli series of 1/expm1. All six converge for |alpha| < 2 pi, and
#   _SPLIT_TERMS terms reach rounding on |alpha| <= 1: the tail is below 3e-19
#   of each remainder sum and 2e-18 of each n = 0 term. solve_rows keeps x >=
#   x0 > 0, so alpha > -b e_1 >= -1/409.6.
# Against math.fsum direct sums (N = 1 to 1e9 by decades, 14 t from
# SPLIT_FLOOR's 409.6 to 1e10, both wells, at x0, the root, three times the
# root, x = 5 and alpha = 1, 1 +- 1e-12, the seam also on 60 t) the fugacity
# series measured at most 6.7e-16, 1.0e-15 and 5.6e-16 relative in sum N_n,
# sum N_n^2 and sum (e_n - e_1) N_n, and the pole split 1.3e-15, 2.7e-15 and
# 3.6e-15, each at the seam alpha = 1, where the pole's sum and the
# remainder's cancel; the rows with alpha < 0 (t <= 3e4) 6.7e-16, 1.3e-15 and
# 4.4e-16. Each series is summed from its highest power down (_split_matrix);
# from the lowest up the pole split read 2.7e-15, 6.0e-15 and 6.7e-15
# (test_split_sums_at_the_seam_match_direct_sums).
SPLIT_FLOOR = 1 << 7
SPLIT_COST = 1 << 11
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
# zeta(2k + 2) - 1, k = 0 to _LATTICE_TERMS, correctly rounded: the sums over |n| >= 2 of _lattice's series
_ZETA_TAIL = (
    0.6449340668482264, 0.08232323371113819, 0.01734306198444914, 0.00407735619794434, 0.0009945751278180853,
    0.0002460865533080483, 6.124813505870483e-05, 1.528225940865187e-05, 3.81729326499984e-06,
    9.539620338727962e-07, 2.38450502727733e-07, 5.960818905125948e-08, 1.4901554828365043e-08,
    3.725334024788457e-09, 9.313274324196682e-10, 2.3283118336765053e-10, 5.820772087902701e-11,
    1.4551921891041985e-11, 3.637979547378651e-12, 9.094947840263888e-13, 2.2737368458246524e-13,
    5.684341987627585e-14, 1.4210854828031608e-14, 3.552713691337114e-15, 8.881784210930816e-16,
    2.220446050798042e-16, 5.551115124845481e-17, 1.3877787809725232e-17, 3.4694469521659225e-18,
)
# terms of _lattice's series, which reach rounding for |A| < 1
_LATTICE_TERMS = 28
# Newton starts each row (_start) at the root of whichever of three models of
# its sum is exact in its own regime, each model's window set by the error its
# derivation leaves, and clamped at the root's exact lower bound x0 =
# log1p(1/N). Split as for SPLIT_FLOOR, a row's sum is t q(A), A = alpha t,
# from the pole, q being half its lattice sum (_pole_sums), plus the
# remainder's, sqrt(t) R(alpha) less r(alpha)'s image.
# * Pole model: the remainder to first order in alpha, t q(A) + sqrt(t) (C +
#   R1 alpha) + (1 - 2c) (1/4 - alpha/24) = N, with C = R(0) = (sqrt(pi)/2)
#   zeta(1/2) (REMAINDER_LIMIT) and R1 = R'(0) = -(sqrt(pi)/2) zeta(-1/2)
#   (REMAINDER_SLOPE), the first two terms of R's series (_HALF_ZETA), and
#   -r(alpha)/2 = 1/4 - alpha/24 + O(alpha^3). Its root in u = A + e_1 = x t
#   is one Newton step from the root of the model at alpha = 0, read from a
#   table of q's inverse (_start_tables), u off by at most 1.0e-6. It drops
#   sqrt(t) R''(0) alpha^2/2, R''(0) = (sqrt(pi)/2) zeta(-3/2) = -0.0225857,
#   which near condensation, N = sqrt(t) ((pi/2)/sqrt(alpha) + C), reaches
#   the table's 1e-6 of N at alpha = START_POLE_ALPHA, N = 8.26 sqrt(t).
# * Fugacity model: the wide kernel's integral itself, N = sqrt(t) F(alpha) -
#   (1 - 2c)/(2 expm1(alpha)), F = (sqrt(pi)/2) Li_{1/2}(e^-alpha), exact up
#   to the Poisson remainder ~pi sqrt(t/alpha) exp(-2 pi sqrt(A)), 2
#   exp(-2 pi sqrt(A)) of N near condensation. Its root is read from a table
#   of F's inverse (_fugacity_table), F off by at most 2.5e-7, which the
#   remainder passes below A = START_FUGACITY_A.
# * Low-t model: x0 corrected by the populations P of levels 2 to 4 at x0, x
#   = log1p(1/(N - P)), P = sum_{k=1..3} 1/expm1(x0 + b k (k + 2 - 2c)). It
#   drops level 5's population, below 1.4e-6 at t < START_T, and P's fall
#   from x0 to x, ~P^2/N^3 of N. Where P is below half an ulp of N (t below
#   ~0.05 to 0.1 as N grows) the root rounds to x0.
# Rows below START_T take the low-t model. START_T = 1.48 is the pole model's
# edge near the ground state (alpha -> -e_1/t), where its root at alpha = 0
# is off by ~R1 e_1/sqrt(t) particles and x0 by level 2's population, the two
# equal at t = 0.68 for PLUS and 1.48 for MINUS. Above it a row takes the
# fugacity model where, at leading order, alpha > START_POLE_ALPHA and A >=
# START_FUGACITY_A (_start), and the pole model elsewhere: near condensation,
# and at small N and t, where A is too small for the fugacity model. There,
# at N ~ 1 to 10 and t ~ 1 to 25, rows take up to 4 evaluations; elsewhere a
# row starts within ~1e-6 of N of its root and stops by its second or third
# (test_latin_hypercube_rows_converge_within_four_evaluations). On the
# large_n grid (N = 1e4, t = 1 to 1e8) every row stops by its second
# (test_start_cuts_evaluations_on_the_benchmark_grids).
REMAINDER_LIMIT = _HALF_ZETA[1]
REMAINDER_SLOPE = -_HALF_ZETA[2]
START_T = 1.48
START_POLE_ALPHA = 0.027
START_FUGACITY_A = 6.42
_START_KNOTS = 2161
_START_SHIFT = 1024.0
_FUGACITY_KNOTS = 2200
# the window edges as N/sqrt(t) and as N/t at leading order (see _start)
_POLE_DENSITY = 0.5 * math.pi / math.sqrt(START_POLE_ALPHA) + REMAINDER_LIMIT
_FUGACITY_REACH = 0.5 * math.pi / math.sqrt(START_FUGACITY_A)


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
    """(rows, ends) per slice of consecutive rows that share a plan, their levels adding up to at most _TILE.

    A row wider than _TILE is a slice alone. ends is the running sum of the
    slice's levels, where each row's run ends in its plan (_level_plan).
    """
    ends = np.add.accumulate(levels)
    start = taken = 0
    while start < len(levels):
        end = max(int(ends.searchsorted(taken + _TILE, side="right")), start + 1)
        yield slice(start, end), ends[start:end] - taken if start else ends[:end]  # the first slice's need no shift
        start, taken = end, ends[end - 1]


def _level_plan(c, b, levels, ends, scale):
    """A level plan: exponent bases b (e_n - e_1) and gaps of n = 1..levels[r] for each row r of offset c[r].

    The rows, sorted by levels, lay their levels end to end, row r's run
    ending at ends[r] (_groups) and beginning at starts[r]. A plan is (base,
    gap, counts, starts, scale), counts being each row's run length and
    scale its sums' power of two s (_routes). Each gap is formed from its
    level's place in the run, k = n - 1, as k (k + 2 - 2c), the factors of
    level_gap's (n - 1)(n + 1 - 2c). Both are integers held exactly, so
    their product rounds once, as level_gap's does, and every gap and base
    is level_gap's bit for bit. Every row has at least one level (_cutoff),
    and np.add.reduceat in _level_sums needs that: it returns the next
    element, not 0, for an empty run.
    """
    starts = ends - levels
    k = np.arange(float(ends[-1]))
    k -= starts.repeat(levels)
    gap = (2.0 - 2.0 * c).repeat(levels)  # k + 2 - 2c, once k is added
    gap += k
    gap *= k
    base = b.repeat(levels)
    base *= gap
    return base, gap, levels, starts, scale


def _level_sums(x, plan):
    """s S = s sum_n N_n per row at x over a plan of scale s, and its other two sums on demand (call under np.errstate).

    Returns (s S, squares, moment): squares() gives s sum_n N_n^2 and
    moment() s sum_n (e_n - e_1) N_n. Each forms its sum only when called,
    from the evaluation's occupations s N_n, which neither alters, so
    either may be called after the other. np.add.reduceat sums each row's
    run (_level_plan) pairwise, the same wherever the run lies in the plan.
    """
    base, gap, counts, starts, scale = plan
    occ = x.repeat(counts)
    occ += base
    np.expm1(occ, out=occ)
    np.divide(scale, occ, out=occ)  # s N_n
    return (np.add.reduceat(occ, starts), lambda: np.add.reduceat(occ * occ, starts) / scale,
            lambda: np.add.reduceat(occ * gap, starts))


def _split_matrix(terms: int) -> np.ndarray:
    """The power series in alpha of R, -R' and the force moment, then of the n = 0 terms (see SPLIT_FLOOR).

    Each row runs from the highest power down, the order its terms are summed in (_LATTICE_SERIES).
    """
    z, bernoulli, fact = _HALF_ZETA, _BERNOULLI, [math.factorial(j) for j in range(terms + 2)]
    powers = range(terms - 1, -1, -1)
    return np.array([
        [(-1) ** j * z[j + 1] / fact[j] for j in powers],  # R
        [(-1) ** j * z[j + 2] / fact[j] for j in powers],  # -R'
        [(-1) ** j * (0.5 - j) * z[j] / fact[j] for j in powers],  # integral of z/expm1(z)
        [-bernoulli[j + 1] / (2 * fact[j + 1]) for j in powers],  # -r/2
        [(j + 1) * bernoulli[j + 2] / (2 * fact[j + 2]) for j in powers],  # r'/2
        [-bernoulli[j] / (2 * fact[j]) for j in powers],  # -alpha/expm1(alpha)/2
    ])


# Module constants are built with math, not numpy ufuncs, which would page in
# their code at import time. The series tables are contracted with np.einsum,
# not @: @ is as accurate and 2-4 times as fast on them, but it calls BLAS,
# whose first call pages in ~0.25 MB of work buffer, and on _LATTICE_SERIES it
# rounds ~0.6% of points differently, which would move _start_tables and so
# the last bits of a few level rows' roots.
# Phi's and -Phi''s series in y = -A, 2 (zeta(2k + 2) - 1) y^k and 2 (k + 1) (zeta(2k + 4) - 1) y^k, highest
# power first: summed from the smallest terms, as by Horner, they reach rounding (from the largest, ~3 ulps off)
_LATTICE_SERIES = np.array([[2.0 * _ZETA_TAIL[k] for k in reversed(range(_LATTICE_TERMS))],
                            [2.0 * (k + 1) * _ZETA_TAIL[k + 1] for k in reversed(range(_LATTICE_TERMS))]])
_LATTICE_POWERS = np.array([[float(k)] for k in reversed(range(_LATTICE_TERMS))])
_LATTICE_ODD = slice(_LATTICE_TERMS % 2, None, 2)  # the rows of odd powers
# _pole_sums' lattice points are w xt + 0 and xt + 3/4 (_pole_weights)
_LATTICE_SHIFT = np.array([[0.0], [0.75]])
_SPLIT_SERIES = _split_matrix(_SPLIT_TERMS)
_SPLIT_POWERS = np.array([[float(j)] for j in reversed(range(_SPLIT_TERMS))])
_SPLIT_ODD = slice(_SPLIT_TERMS % 2, None, 2)
_FUGACITY_POWERS = np.array([[float(k)] for k in range(_FUGACITY_TERMS, 0, -1)])
# the low-t model's gaps of levels 2 to 4, k (k + 2 - 2c) = k (k + 2) - 2k c for k = 1 to 3
_X0_EXACT = 0.5 * math.log(3.0 * 2.0**54)  # see _low_t_start
_LOW_T_GAPS = np.array([[[3.0], [8.0], [15.0]], [[2.0], [4.0], [6.0]]])
# the power series in z = e^-alpha of S, sum_n N_n^2 and the force, over sqrt(t) (see SPLIT_FLOOR), from the
# highest power down to z: (sqrt(pi)/2) k^-1/2 times 1 (Li_{1/2}), k - 1 (Li_{-1/2} - Li_{1/2}) and 1/(2k) (Li_{3/2}/2)
_FUGACITY_SERIES = np.array([[math.sqrt(math.pi / k) / 2.0 * w(k) for k in range(_FUGACITY_TERMS, 0, -1)]
                             for w in (lambda k: 1.0, lambda k: k - 1.0, lambda k: 0.5 / k)])


def _powers(base, exponents, odd):
    """base^k for each k of the column exponents, odd slicing the rows of odd k: |base|^k, those rows given base's sign.

    np.power takes a slow path on a negative base, ~26 times the time of a positive one.
    """
    powers = np.power(np.abs(base), exponents)
    np.copysign(powers[odd], base, out=powers[odd])
    return powers


def _on_branches(on, branches, arrays, *shared):
    """(value, *thunks) of branches[0] where on holds, of branches[1] elsewhere, each on its arrays' elements.

    All on one branch, it runs with no gather or scatter; else a thunk scatters both branches' thunks.
    """
    count = np.count_nonzero(on)
    if count == on.size or not count:
        return branches[0 if count else 1](*arrays, *shared)
    parts = [(where, branch(*(array[..., where] for array in arrays), *shared))
             for where, branch in ((on, branches[0]), (~on, branches[1]))]

    def merged(k):
        out = np.empty(on.shape)
        for where, sums in parts:
            out[where] = sums[k]() if k else sums[k]
        return out

    return (merged(0), *(functools.partial(merged, k) for k in range(1, len(parts[0][1]))))


def _coth_lattice(p, scale):
    """_lattice on A = p - 1 >= 1: the closed form."""
    A = p - 1.0
    a = np.sqrt(A)
    pi_a, inverse = math.pi * a, 1.0 / A
    phi = math.pi / (a * np.tanh(pi_a)) - inverse
    return phi, lambda: scale * ((phi + (math.pi / np.sinh(pi_a)) ** 2 - inverse) / (2.0 * A))


def _zeta_lattice(p, scale):
    """_lattice on -1 < A = p - 1 < 1: the n = +-1 terms apart and the zeta series, both sums formed at once."""
    y = 1.0 - p
    sums = np.empty((2, y.size))
    step = _TILE // _LATTICE_TERMS  # points per power table of at most _TILE elements
    for start in range(0, y.size, step):
        tile = slice(start, start + step)
        np.einsum("ck,kr->cr", _LATTICE_SERIES, _powers(y[tile], _LATTICE_POWERS, _LATTICE_ODD), out=sums[:, tile])
    low = math.ldexp(1.0, (math.frexp(scale)[1] - 1) // 2)  # and high = scale / low
    return 2.0 / p + sums[0], lambda: 2.0 * ((low / p) * (scale / low / p)) + scale * sums[1]


def _lattice(p, scale=1.0):
    """Phi(A) = sum_{n != 0} 1/(A + n^2) and a thunk for s times -Phi'(A) = sum_{n != 0} 1/(A + n^2)^2, A = p - 1 > -1.

    p = 1 + A, 1-D, the distance from the pole at A = -1 (level n = +-1), comes in
    without cancellation. The closed form Phi = (pi/a) coth(pi a) - 1/A,
    a = sqrt(A), serves A >= 1. Below A = 1 it cancels, and the n = +-1
    terms 2/p and 2/p^2 are taken apart: the sums over |n| >= 2 are power
    series in y = -A, Phi = 2/p + sum_k 2 (zeta(2k + 2) - 1) y^k and -Phi' =
    2/p^2 + sum_k 2 (k + 1) (zeta(2k + 4) - 1) y^k, which converge for |A| <
    4, and _LATTICE_TERMS terms, one product with a table of y's powers, reach rounding on -1 < A < 1.
    Measured against mpmath from p = 1e-14 to 1e8: below A = 1 <= 2.2e-16
    relative in Phi and 4.4e-16 in -Phi', and in the closed form, which
    cancels most just above A = 1, <= 5.1e-16 and 1.1e-15. -Phi' ~ 2/p^2
    overflows below p ~ 1e-154; the power of two s = scale enters before
    squaring.
    """
    return _on_branches(p >= 2.0, (_coth_lattice, _zeta_lattice), (p,), scale)


def _pole_weights(c):
    """_pole_sums' row weights at offset c, w = 1/e_1: points' (w, 1), pole sum's (w, -2c) and squares' (w^2, -2c)."""
    weight = 1.0 / (1.0 - c) ** 2
    even = -2.0 * c
    return weight, np.ones_like(weight), weight, even, weight * weight, even


def _pole_sums(xt, weights, scale=1.0):
    """The pole's lattice sum sum_{n != c} 1/(A + (n - c)^2), A = xt - e_1, per row, and a thunk: s times its squares'.

    The points n - c (spectrum) are the integers at c = 0, where the sum is
    Phi(A), and at c = 1/2, in units of 1/2, the odd integers, where it is
    4 Phi(4A) - Phi(A): in both w Phi(w xt - 1) - 2c Phi(A). The sum
    of squares is -d/dA of it, times s = scale, taken inside _lattice. One
    _lattice call takes each row's two points, w xt and xt + 3/4, weights
    being the rows' _pole_weights.
    """
    phi, squares = _lattice((xt * weights[:2] + _LATTICE_SHIFT).ravel(), scale)
    return (weights[2:4] * phi.reshape(2, -1)).sum(0), lambda: (weights[4:] * squares().reshape(2, -1)).sum(0)


def _split_plan(c, b, scale):
    """A split plan (see SPLIT_FLOOR) for rows of offset c: (rows, s), s its scale (_routes), rows their constants.

    They are t, e_1, s sqrt(t), s (1 - 2c), s t/2, t^2/2, e^(b e_1) and the _pole_weights, built once.
    """
    t = 1.0 / b
    half_t = 0.5 * t
    ground = (1.0 - c) ** 2
    # np.array stacks the rows at less cost than np.stack
    return np.array((t, ground, scale * np.sqrt(t), scale * (1.0 - 2.0 * c), scale * half_t, half_t * t,
                     np.exp(ground / t), *_pole_weights(c))), scale


def _series_sums(x, alpha, xt, rows, scale):
    """_split_sums' sums on rows with |alpha| <= 1, by the pole split (see SPLIT_FLOOR).

    The pole's sum over n >= 1 is (t/2) times its lattice sum (_pole_sums); the remainder's sums of r, -r' and
    z/expm1(z) and their n = 0 images are one two-operand product, weighted afterwards by s sqrt(t) and s (1 - 2c);
    sum_n (e_n - e_1) N_n = t (sum_n z_n N_n - x S). The last two sums are thunks.
    """
    t, root_t, image, half_ct, half_tt = rows[0], rows[2], rows[3], rows[4], rows[5]
    pole, pole_squares = _pole_sums(xt, rows[7:], scale)
    powers = _powers(alpha, _SPLIT_POWERS, _SPLIT_ODD)  # ..., alpha^2, alpha, 1
    series = np.einsum("ck,kr->cr", _SPLIT_SERIES, powers)
    weighted = root_t * series[:3]
    weighted += image * series[3:]
    remainder, derivative, moment = weighted[0], weighted[1], weighted[2]  # indexing, not iterating: a view each
    number = half_ct * pole + remainder
    # sum N^2 = sum N (N + 1) - S
    return number, lambda: half_tt * pole_squares() + derivative - number, lambda: t * (moment - x * number)


def _fugacity_sums(x, alpha, xt, rows, scale):
    """_split_sums' sums on rows with alpha > 1, in z = e^-alpha (see SPLIT_FLOOR); the moment is f - e_1 S."""
    t, ground, root_t, image = rows[0], rows[1], rows[2], rows[3]
    # z = e^-x e^(b e_1): alpha = x - b e_1 would carry its own rounding, ~1e-15 at alpha ~ 10, into z
    powers = np.power(np.exp(-x) * rows[6], _FUGACITY_POWERS)  # ..., z^2, z
    sums = root_t * np.einsum("ck,kr->cr", _FUGACITY_SERIES, powers)
    number, squares, force = sums[0], sums[1], sums[2]
    ground_occupation = 1.0 / np.expm1(alpha)
    image = image * (0.5 * ground_occupation)  # s (1 - 2c) N(0)/2
    number -= image
    return number, lambda: squares - image * ground_occupation, lambda: t * force - ground * number


def _split_sums(x, plan):
    """s S at x over a split plan of scale s and its other two sums on demand, as _level_sums returns them.

    Each row takes the branch of its alpha = x - b e_1 (see SPLIT_FLOOR): the
    pole split up to _FUGACITY_ALPHA, the fugacity series past it. Call under np.errstate.
    """
    rows, scale = plan
    t, ground = rows[0], rows[1]
    xt = x * t
    alpha = (xt - ground) / t
    return _on_branches(alpha <= _FUGACITY_ALPHA, (_series_sums, _fugacity_sums), (x, alpha, xt, rows), scale)


def _routes(c, b, levels, scale):
    """Yield (kernel, plan, rows) per group (_groups) of the rows of offsets c, rows being the group's indices.

    Every plan sums at scale s, a power of two: its kernel returns s times
    S, sum_n N_n^2 and sum_n (e_n - e_1) N_n. solve_rows takes s = 2^-e, e
    the binary exponent of N (s N in [1/2, 1)), so that s sum_n N_n^2 stays
    finite where sum_n N_n^2, ~N^2, overflows (past N ~ 1.3e154): a level
    plan sums s N_n, and a split plan takes s into its lattice sum of squares
    before squaring (_lattice). Scaling by a power of two is exact while the
    scaled terms stay normal, as they do up to N = 1e150 at least
    (tests/test_occupancy.py), so there each sum is s times the unscaled
    one, bit for bit.

    The rows over SPLIT_FLOOR levels sum them as one integral (_split_sums)
    if together they would sum more than SPLIT_COST levels; otherwise they
    sum their levels, as every row at or below the floor does. A row past
    MAX_LEVELS is in no group. Each plan is built when its group is taken
    and holds at most _TILE levels or series terms, a row wider than that
    being a group alone.
    """
    order = levels.argsort(kind="stable")
    ordered = levels[order]
    narrow, attempted = ordered.searchsorted((SPLIT_FLOOR, MAX_LEVELS), side="right").tolist()
    # a Python sum: on a two-row call ndarray.sum costs ~1 us more
    if narrow < attempted and sum(ordered[narrow:attempted].tolist()) <= SPLIT_COST:
        narrow = attempted
    wide = order[narrow:attempted]
    for group, _ in _groups(np.full(wide.size, max(_SPLIT_TERMS, _FUGACITY_TERMS))) if wide.size else ():
        on = wide[group]
        yield _split_sums, _split_plan(c[on], b[on], scale), on
    for group, ends in _groups(ordered[:narrow]):
        on = order[group]
        yield _level_sums, _level_plan(c[on], b[on], ordered[group], ends, scale), on


@functools.cache
def _start_tables():
    """The pole model's inverse for both wells (see REMAINDER_LIMIT), built on first use: one table (keys, values).

    q falls monotonically in u = x t = A + e_1, from 1/u near u = 0 to
    (pi/2)/sqrt(u) far out, so log q ascends over the knots, which run
    down in log u = 2 sinh(s) from 34 to -20, s uniform: dense where q turns
    from one form to the other, sparse along both asymptotes, where log(u q)
    is nearly linear in log q. A knot's key is log q less (1 - 2c)
    _START_SHIFT, MINUS's knots coming first; its value is log(u q) + i d
    log q / d log u, the slope running from -1 near u = 0 to about -1/2 far
    out, from q' = -(the pole's sum of squares)/2, which _pole_sums returns
    with q. Read by
    linear interpolation, u is off by at most 1.0e-6 relative and the slope
    by 6.3e-7 (against _lattice at 200,001 points). u = e^34 lies past the
    model's root on every row it is used on under MAX_LEVELS: where A >=
    START_FUGACITY_A its window keeps alpha <= START_POLE_ALPHA at leading
    order (0.0269 measured), so u <= 0.03 t + 1 < 8e12, and elsewhere u <
    START_FUGACITY_A + 1. Below u = e^-20, log(u q) = log(1 +
    u (q - 1/u)) < 3e-9 and the slope is -1 to the same order, and -1j
    stands in for the value: past the last PLUS knot as the interpolant's
    right value, and past the last MINUS knot as two more knots, one a unit
    further and one a unit before the first PLUS key. On a row it is used on
    log q < log(1.8e308) < 710, so a MINUS key stays below the PLUS knots.
    """
    log_u = 2.0 * np.sinh(np.linspace(math.asinh(17.0), math.asinh(-10.0), _START_KNOTS))
    u = np.exp(log_u)
    c = np.repeat([WellSide.MINUS.offset, WellSide.PLUS.offset], _START_KNOTS)
    with np.errstate(over="ignore"):  # sinh overflows at large u, where its term in the sum of squares is 0
        pole, squares = _pole_sums(np.tile(u, 2), np.array(_pole_weights(c)))
        pole, squares = pole.reshape(2, -1), squares().reshape(2, -1)  # MINUS, PLUS
    q = 0.5 * pole
    slope = -0.5 * u * squares / q  # u q'/q
    log_q = np.log(q)
    keys = np.concatenate((log_q[0] - _START_SHIFT, [log_q[0, -1] - _START_SHIFT + 1.0, log_q[1, 0] - 1.0], log_q[1]))
    values = np.concatenate((log_u + log_q[0] + 1j * slope[0], [-1j, -1j], log_u + log_q[1] + 1j * slope[1]))
    return keys, values


@functools.cache
def _fugacity_table():
    """F's inverse (see REMAINDER_LIMIT), built on first use: (keys, values).

    F = (sqrt(pi)/2) Li_{1/2}(e^-alpha) falls monotonically in alpha, from
    (pi/2)/sqrt(alpha) near 0 to (sqrt(pi)/2) e^-alpha far out. The knots
    run down in log alpha = 2 sinh(s) from 3 to -8, s uniform, dense where F
    turns from one form to the other. Up to alpha = 1 F is (pi/2)/sqrt(alpha)
    + R(alpha), past it the Li_{1/2} series, the rows of _SPLIT_SERIES (R,
    -R') and _FUGACITY_SERIES (row 0) that the wide kernel sums, each summed
    here by Horner's rule over the knots, a term at a time. A knot's key is
    log F, ascending; its value is w + i d log F / dw in w = log(expm1(alpha)),
    in which log F runs from -w/2 near 0 to -w far out, the slope from -1/2
    to -1. Read by linear interpolation, F is off by at most 2.5e-7 of itself
    (test_fugacity_table_matches_polylog_between_knots). The fugacity window
    (alpha > START_POLE_ALPHA at leading order) lies inside the knots up to
    N = 1, t = MAX_LEVELS^2 / TAIL_EXPONENT (alpha ~ 17 < e^3).
    """
    alpha = np.exp(2.0 * np.sinh(np.linspace(math.asinh(1.5), math.asinh(-4.0), _FUGACITY_KNOTS)))
    f, minus_df = np.zeros((2, alpha.size))  # F and -dF/dalpha, each branch summed into its slice
    seam = int(np.count_nonzero(alpha > _FUGACITY_ALPHA))  # the knots past the seam come first
    z = np.exp(-alpha[:seam])
    series, moment = f[:seam], minus_df[:seam]  # (sqrt(pi)/2) sum_k z^k / sqrt(k) and sum_k sqrt(k) z^k
    for term, k in zip(_FUGACITY_SERIES[0], _FUGACITY_POWERS[:, 0]):
        series += term
        series *= z
        moment += k * term
        moment *= z
    near, remainder, slope = alpha[seam:], f[seam:], minus_df[seam:]  # R and -R'
    for r, minus_r in _SPLIT_SERIES[:2].T:
        remainder *= near
        remainder += r
        slope *= near
        slope += minus_r
    root = np.sqrt(near)
    remainder += 0.5 * math.pi / root
    root *= near
    slope += 0.25 * math.pi / root
    values = np.empty(alpha.size, dtype=complex)
    values.imag = minus_df / f * np.expm1(-alpha)  # d log F / dw = (F'/F) (1 - e^-alpha)
    values.real = np.log(np.expm1(alpha))
    return np.log(f), values


def _pole_start(c, b, shift, target, x0):
    """The pole model's root (see REMAINDER_LIMIT) on its rows, clamped at x0.

    The table gives the root u0 = x t of the model at alpha = 0, t q(u) = N -
    C sqrt(t) - (1 - 2c)/4, and the slope s = d log q / d log u there;
    one Newton step in x adds the model's terms linear in alpha = x - b e_1,
    K alpha with K = R1 sqrt(t) - (1 - 2c)/24.
    """
    root_b = np.sqrt(b)
    image = 0.25 - 0.5 * c  # (1 - 2c)/4: n = 0's image (c from spectrum; see REMAINDER_LIMIT)
    pole = target - (REMAINDER_LIMIT / root_b + image)  # t q(u0)
    keys, values = _start_tables()
    key = np.log(pole * b) - (4.0 * _START_SHIFT) * image  # log q less (1 - 2c) _START_SHIFT
    fit = np.interp(key, keys, values, right=-1j)
    x = np.exp(fit.real) / pole  # x = u0 / t = (u0 q) / (t q)
    # x - K alpha / (t q s / x + K) = x (scaled + b e_1) / (scaled + x), scaled = t q s / K; K > 0 on every row
    scaled = pole / (REMAINDER_SLOPE / root_b - image / 6.0) * fit.imag
    x *= (scaled + shift) / (scaled + x)
    return np.fmax(x, x0)  # fmax: a nan root (past N ~ 5e307, scaled overflows) keeps x0


def _fugacity_start(c, b, shift, target, x0):
    """The fugacity model's root (see REMAINDER_LIMIT) on its rows, clamped at x0.

    The model is F - I = N sqrt(b), I = (1 - 2c) sqrt(b)/(2 expm1(alpha))
    being the image's population over sqrt(t), and the table
    (_fugacity_table) gives alpha, so I, at any F. Two Newton steps in F from
    F = N sqrt(b), with dI/dF = -I/(F d log F / dw), then a last reading give
    alpha: I is nearly linear in F, and after them the root is within the
    table's error of the model's from A ~ 10, and 1e-6 of N at A = 5 (a
    fixed-point step for I in place of the first leaves ~6e-5 of N at A =
    10). At N ~ 1 on the window's edge, where A at leading order overshoots
    and I is as large as N, F can step to 0 or below; fmax then keeps x0.
    """
    keys, values = _fugacity_table()
    root_b = np.sqrt(b)
    density = target * root_b  # N sqrt(b), the model's F without its image
    image = (0.5 - c) * root_b
    fit = np.interp(np.log(density), keys, values)
    held = image / np.exp(fit.real)
    slope = fit.imag * density
    step = held * slope / (slope + held)
    f = step + density
    fit = np.interp(np.log(f), keys, values)
    held = image / np.exp(fit.real)
    slope = fit.imag * f
    f -= (step - held) * slope / (slope + held)
    fit = np.interp(np.log(f), keys, values)
    return np.fmax(np.log1p(np.exp(fit.real)) + shift, x0)


def _low_t_start(c, b, shift, target, x0):
    """The low-t model's root (see REMAINDER_LIMIT) on its rows.

    Where levels 2 to 4 hold less than half an ulp of N at x0, N less their
    population rounds to N, and the row starts at x0 bit for bit. They hold
    less than 3 e^(-2b) (gaps 3 - 2c >= 2), so where every row has 2b >
    log(3 2^54 / N) the model is not formed.
    """
    if b.min() > _X0_EXACT - 0.5 * math.log(target):
        return x0.repeat(b.size)
    held = (1.0 / np.expm1(x0 + b * (_LOW_T_GAPS[0] - _LOW_T_GAPS[1] * c))).sum(0)  # levels 2 to 4 at x0
    return np.log1p(1.0 / (target - held))


def _start(c, b, target, x0, shift):
    """Each row's first iterate, c its offset and shift b e_1: the root of its model (see REMAINDER_LIMIT).

    Below START_T a row takes the low-t model. Above it, at leading order
    N/sqrt(t) = (pi/2)/sqrt(alpha) + C and A = alpha t = (pi t/(2 N))^2; so
    alpha > START_POLE_ALPHA and A >= START_FUGACITY_A, the fugacity model's
    window, is b below a bound set by N, below 1/START_T at any N >= 1; the
    other rows take the pole model. A call computes only the models its rows
    take, on no gathered copy when all take one. Call under np.errstate.
    """
    low = b > 1.0 / START_T
    fugacity = b < min((_POLE_DENSITY / target) ** 2, _FUGACITY_REACH / target)
    counts = np.count_nonzero(low), np.count_nonzero(fugacity)
    if b.size in counts or counts == (0, 0):
        model = _low_t_start if counts[0] else _fugacity_start if counts[1] else _pole_start
        return model(c, b, shift, target, x0)
    x = np.empty(b.size)
    for on, model in ((low, _low_t_start), (fugacity, _fugacity_start), (~(low | fugacity), _pole_start)):
        if np.count_nonzero(on):
            x[on] = model(c[on], b[on], shift[on], target, x0)
    return x


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
    row = np.array([b])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for kernel, plan, _ in _routes(np.array([side.offset]), row, _cutoff(row), 1.0):
            return float(kernel(np.array([x]), plan)[0][0])
    raise ValueError(f"inverse temperature {b} needs more than {MAX_LEVELS} levels")


class RowSolutions(NamedTuple):
    """Per-row arrays from solve_rows, for rows that all hold n_particles.

    A row with converged False failed (see solve_rows), or its cutoff passed
    MAX_LEVELS; its shifted_alpha is then the last iterate. levels_used is
    the row's level cutoff, a wide row's too. wide is the route _routes gave
    the row, True where its sums ran as one integral (_split_sums); it
    depends on the call's other rows.
    """

    alpha: np.ndarray
    shifted_alpha: np.ndarray
    residual: np.ndarray
    levels_used: np.ndarray
    iterations: np.ndarray
    force: np.ndarray
    converged: np.ndarray
    wide: np.ndarray
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
    broadcast over the rows. The solve runs in x = alpha + b e_1, of order
    1/N at low t, where alpha ~ log1p(1/N) - b e_1 cancels. At x0 =
    log1p(1/N) level 1 alone holds N particles, so S(x0) >= N: x0 is the
    root's exact lower bound. A row's start (_start) depends on its own (N,
    t, well) alone. Newton's step in x, log(S/N) S/(S + sum_n N_n^2), is
    taken in w = log(expm1 x), w += step/(1 - e^-x). There d log S/dw is
    minus a weighted mean of (1 - e^-x)/(1 - e^-z_n), z_n = x + b (e_n -
    e_1), in (0, 1], so log S is linear in w for one level and nearly so far
    from condensation (w ~ x) and in degenerate rows (w ~ log x, S a power
    of x). A step may overshoot the root, the next ones returning from the
    right. Iterates are clamped at x0, which keeps a wide row's alpha above
    -b e_1, inside the pole split's domain (SPLIT_FLOOR). A row stops once
    |S - N| <= tol * N, or unconverged at max_iter evaluations or a
    non-finite step. Over N = 1 to 1e300 and t = 1e-300 to 2e14 every row
    stops converged within 4 evaluations, at DEFAULT_TOL and at MIN_TOL, and
    the clamp never acts (test_every_row_converges_within_six_evaluations,
    test_latin_hypercube_rows_converge_within_four_evaluations).

    The groups of _routes are solved one by one, each on a plan built once
    and summed at _routes' scale s; the sums are unscaled once all groups
    are solved. A stopped row stays in its group's plan, frozen at its x,
    where each kernel keeps its sums its own. An evaluation reads S; sum_n
    N_n^2 only where a step may follow, and the force moment sum_n (e_n -
    e_1) N_n once per group, on the evaluation where it stops: when its last
    row stops (by tol or a non-finite step) or at max_iter. The group then
    writes its results (at max_iter = 0 each row reports its start).
    """
    check_tolerance(tol)
    c = offsets(sides)
    target = float(n_particles)
    scale = math.ldexp(1.0, -math.frexp(target)[1])
    scaled_target, x0 = scale * target, math.log1p(1.0 / target)
    # 0-d arrays, read on every evaluation: a ufunc converts a Python float operand on each call
    scale, scaled_target, limit, x0 = map(np.array, (scale, scaled_target, tol * scaled_target, x0))
    # np.empty plus a fill, here and below, is np.full without its Python-level wrapper
    b, given = np.empty(c.size), b
    b[...] = given
    levels = _cutoff(b)
    sums = np.empty((2, c.size))
    sums.fill(np.nan)
    number, weighted = sums[0], sums[1]  # weighted: sum_n (e_n - e_1) N_n; both at scale s until the groups are solved
    iterations = np.zeros(c.size, dtype=np.int64)
    wide = np.zeros(c.size, dtype=bool)
    ground = (1.0 - c) ** 2  # e_1
    shift = b * ground
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = _start(c, b, target, x0, shift)
        for kernel, plan, group in _routes(c, b, levels, scale):
            xs, moving, evaluations = x[group], True, 0
            if kernel is _split_sums:
                wide[group] = True
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
    return RowSolutions(x - shift, x, residual, levels, iterations, force, converged, wide, n_particles)


def force_difference(solved: RowSolutions, b) -> np.ndarray:
    """f_minus - f_plus at each b[i] of a solve_rows call whose rows are the PLUS wells, then the MINUS ones.

    Where both roots lie on the fugacity series (alpha > 1, wide rows; see
    SPLIT_FLOOR) the forces, ~N t/2, differ by ~(N/2) sqrt(t/pi), below their
    rounding. There MINUS's alpha is PLUS's plus d, the root of sqrt(t) sum_k
    c_k z^k expm1(-k d) = 1/(2 expm1(alpha + d)) (c_k: S's series in z =
    e^-alpha), one Newton step from the roots' difference, and the difference
    is t sqrt(t) sum_k (sqrt(pi)/4) k^-3/2 z^k expm1(-k d), which cancels nothing.
    """
    count = len(solved.force) // 2
    difference = solved.force[count:] - solved.force[:count]
    # the wells of a b share its cutoff, so its route; then alpha- > 1 puts both roots on the series (alpha- < alpha+)
    on = solved.wide[:count]
    if np.count_nonzero(on) and np.count_nonzero(on := on & (solved.alpha[count:] > _FUGACITY_ALPHA)):
        t, alpha = 1.0 / np.broadcast_to(b, on.shape)[on], solved.alpha[:count][on]  # PLUS's alpha
        d = solved.alpha[count:][on] - alpha
        powers, image = np.power(np.exp(-alpha), _FUGACITY_POWERS), np.expm1(alpha + d)
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

    A one-row solve_rows call, converged once |sum_n N_n - N| <= tol * N.
    Raises ConstraintSolverError, carrying the bracket [x0, last iterate],
    when the solve fails.
    """
    return solve_rows((side,), point.n_particles, point.b, tol, max_iter).solution(0)
