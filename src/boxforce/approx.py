"""Closed-form and semi-analytic approximations to the net force.

One function per temperature regime (delta_f_low_t, delta_f_linear,
semi_analytic_delta_f, delta_f_high_t), each stating its form and window,
and the small-b machinery behind the high-t law, checked against the exact
sums: the level sums by two routes (theta_partition_sum, poisson_force_sum)
and the fugacity expansion (fugacity_expansion).

All quantities are dimensionless. Regime edges are reported through
validity flags rather than errors, so a full temperature sweep can plot
an approximation outside its window and mark it as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .occupancy import ConstraintSolverError, check_domain
from .spectrum import WellSide, offsets

__all__ = [
    "LinearForce",
    "FugacityExpansion",
    "MethodOutOfRangeError",
    "delta_f_low_t",
    "delta_f_linear",
    "bose_integral_closed",
    "semi_analytic_total_number",
    "semi_analytic_alpha",
    "semi_analytic_force",
    "semi_analytic_delta_f",
    "theta_partition_sum",
    "poisson_force_sum",
    "fugacity_expansion",
    "delta_f_high_t",
]

_SQRT_PI = math.sqrt(math.pi)
# relative truncation of the direct theta sums; absolute cutoff of the Fourier tails
_SERIES_TOL = 1e-16


class MethodOutOfRangeError(RuntimeError):
    """The semi-analytic constraint admits no solution inside its domain."""


def delta_f_low_t(n_particles: int, t):
    """Two-level low-temperature net force at t (scalar or array): 3N/4 + 3 exp(-3/t) - 2 exp(-2/t).

    Keeps only the first excited level of each well on top of the
    macroscopically occupied ground states; intended for t below about 1.
    """
    check_domain(n_particles, t)
    with np.errstate(over="ignore"):  # -3/t may overflow to -inf, whose exp is the right 0
        return 0.75 * n_particles + 3.0 * np.exp(-3.0 / t) - 2.0 * np.exp(-2.0 / t)


@dataclass(frozen=True)
class LinearForce:
    """Linear-decrease estimate with its validity marker (arrays for an array t)."""

    value: float
    in_range: bool  # False above t ~ 2N/3 where the linear picture breaks down


def delta_f_linear(n_particles: int, t) -> LinearForce:
    """Heuristic linear decrease of the net force at t (scalar or array): 3N/4 - t/(e - 1)^2.

    Counts the order-sqrt(t) levels whose occupation is neither classical
    nor exponentially suppressed. Flagged out of range above t = 2N/3, by a mask on an array t.
    """
    check_domain(n_particles, t)
    value = 0.75 * n_particles - t / (math.e - 1.0) ** 2
    return LinearForce(value, t <= 2.0 * n_particles / 3.0)


def bose_integral_closed(alpha: float) -> float:
    """Small-alpha closed form of integral_0^inf (a + s^2)/(exp(a + s^2) - 1) ds.

    Equals (sqrt(pi)/96) (63 - 35 alpha); the dropped remainder is of order
    alpha^2 on top of a half-percent bias from the three-term kernel fit.
    """
    return _SQRT_PI / 96.0 * (63.0 - 35.0 * alpha)


def _bracket_primitive(alpha, w):
    """A(r w)/r with r = sqrt|alpha| and A = arctan (alpha > 0) or arctanh (alpha < 0); w itself at alpha = 0.

    Each row evaluates only its own branch, on arrays too (call under
    np.errstate: arctanh is nan past 1, and alpha = 0 divides 0 by 0 before
    w, the limit of both branches, replaces it); a nan alpha takes none and
    stays nan.
    """
    r = np.sqrt(np.abs(alpha))
    out = np.asarray(r * w)  # 0-d for a scalar alpha, so the ufuncs below can write into it
    np.arctan(out, out=out, where=alpha > 0.0)
    np.arctanh(out, out=out, where=alpha < 0.0)
    out /= r
    np.copyto(out, w, where=alpha == 0.0)
    return out


def _trapezoid_rows(c, b):
    """Row constants of _trapezoid_number at offset c: b e_1, b e_2, sqrt(b) and s2 = sqrt(b e_2), its integral's start."""
    b_e2 = b * (2.0 - c) ** 2
    return b * (1.0 - c) ** 2, b_e2, np.sqrt(b), np.sqrt(b_e2)


def _trapezoid_number(alpha, rows):
    """S(alpha) of semi_analytic_total_number on the row constants of _trapezoid_rows, in one primitive call.

    The tail, the integral of 1/(alpha + s^2) over [s2, root] with root =
    sqrt(2 - alpha), is A(r/s2)/r - A(r/root)/r, where r = sqrt|alpha| and A
    = arctan (alpha > 0) or arctanh (alpha < 0). As A(x) - A(y) = A((x -
    y)/(1 + x y)) for arctan and A((x - y)/(1 - x y)) for arctanh, both are
    A(r w)/r with w = (root - s2)/(alpha + s2 root). This is exact on -b e_1
    < alpha < 2: there alpha + s2 root > 0, and for alpha < 0 r/s2 and
    r/root lie in (0, 1), so |r w| < 1.
    """
    b_e1, b_e2, sqrt_b, s2 = rows
    root = np.sqrt(2.0 - alpha)
    width = root - s2
    head = 1.0 / (alpha + b_e1) + 0.5 / (alpha + b_e2) - 0.75
    # the tail integral less the edge correction width/2, both over sqrt(b)
    return head + (_bracket_primitive(alpha, width / (alpha + s2 * root)) - 0.5 * width) / sqrt_b


def semi_analytic_total_number(side: WellSide, alpha, b):
    """Trapezoid-rule estimate of the total occupation at multiplier alpha.

    Keeps levels 1 and 2 explicitly, converts the rest of the sum into an
    integral cut off where the exponent reaches 2, and linearizes the
    Bose kernel on that range. Defined for -b e_1 < alpha < 2, on arrays too.
    The integral is one arctan or arctanh value through A(x) - A(y) = A((x
    - y)/(1 +- x y)) (_trapezoid_number). Over t = 1e-2 to 1e7 and alpha
    from the pole to 1.9, S is within 2e-15 of mpmath quadrature relative to
    the summed magnitudes of its level, edge and tail terms, which cancel
    near alpha = 2 (test_total_number_matches_quadrature_oracle).
    """
    check_domain(t=b)
    e1 = side.ground_energy
    if not (np.all(alpha + b * e1 > 0.0) and np.all(alpha < 2.0)):
        raise ValueError(f"need -b*e_1 < alpha < 2, got b = {b}, alpha = {alpha}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _trapezoid_number(alpha, _trapezoid_rows(side.offset, b))


def semi_analytic_rows(sides, n_particles: int, t) -> tuple[np.ndarray, list[Exception | None]]:
    """Solve the trapezoid-rule constraint S = N for alpha on the rows (sides[i], t[i]) at once.

    S falls from +inf at the pole alpha = -b e_1, so the pole and alpha = 2
    bracket each root. Illinois false-position steps on (S - N)(alpha + b e_1),
    finite and nearly linear at the pole, land at least tol/2 inside each
    bracket until hi - lo <= tol = 1e-15 + 4 eps |alpha|, in at most 200
    steps. On N in [1, 1e7] and t in [1e-3, 1e7], both wells, a call takes at
    most 13 (test_illinois_steps_stay_within_thirteen). Returns alpha (nan
    where a row failed) and each row's error or None: MethodOutOfRangeError
    if S > N at alpha = 2, else ConstraintSolverError.
    """
    c = offsets(sides)
    b = 1.0 / np.broadcast_to(t, c.shape)
    with np.errstate(all="ignore"):
        rows = _trapezoid_rows(c, b)
        pole = rows[0]  # b e_1
        ends = np.stack((-pole + 1e-10 * np.maximum(1.0, pole), np.full(len(c), 2.0 - 1e-12)))
        lo, hi = ends
        f_lo, f_hi = (_trapezoid_number(ends, rows) - n_particles) * (ends + pole)
        out_of_range = f_hi > 0.0
        live = (f_lo >= 0.0) & (f_hi <= 0.0)  # false on nan
        moved_lo = moved_hi = np.zeros(len(c), dtype=bool)
        two_eps = 2.0 * np.finfo(float).eps
        for step in range(201):  # at most 200 steps
            tol = 1e-15 + two_eps * np.abs(lo + hi)
            live &= hi - lo > tol
            if step == 200 or not np.count_nonzero(live):
                break
            # np.clip without its Python-level wrapper; the two differ only in a zero's sign, which moves no S
            half = 0.5 * tol
            x = np.minimum(np.maximum(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo + half), hi - half)
            f = (_trapezoid_number(x, rows) - n_particles) * (x + pole)
            up = live & (f > 0.0)  # the root lies above x
            down = live & (f <= 0.0)  # a nan drops the row
            # Illinois: an end kept twice in a row has its value halved
            f_lo = np.where(up, f, np.where(down & moved_hi, 0.5 * f_lo, f_lo))
            f_hi = np.where(down, f, np.where(up & moved_lo, 0.5 * f_hi, f_hi))
            lo = np.where(up, x, lo)
            hi = np.where(down, x, hi)
            moved_lo, moved_hi = up, down
    converged = hi - lo <= tol
    errors = [None] * len(c)
    for row in np.flatnonzero(~converged).tolist():
        if out_of_range[row]:
            errors[row] = MethodOutOfRangeError(f"constraint still above N = {n_particles} at alpha = 2")
        else:
            bracket = (lo[row].item(), hi[row].item())
            errors[row] = ConstraintSolverError("no sign change, a non-finite value or no convergence", bracket)
    return np.where(converged, 0.5 * (lo + hi), np.nan), errors


def _solved(alpha: np.ndarray, errors: list[Exception | None]) -> list[float]:
    """The alphas of semi_analytic_rows; raises the first row error."""
    for error in filter(None, errors):
        raise error
    return alpha.tolist()


def semi_analytic_alpha(side: WellSide, n_particles: int, t: float) -> float:
    """Solve the trapezoid-rule constraint for alpha, meant for t >> 1: one row of semi_analytic_rows."""
    check_domain(n_particles, t)
    return _solved(*semi_analytic_rows((side,), n_particles, t))[0]


def semi_analytic_force(side: WellSide, alpha, t, n_particles: int):
    """Trapezoid-rule force on one half well at multiplier alpha (scalars or arrays).

    (-N alpha + 1/2 - sqrt(e_1)) t plus the closed Bose integral times t^(3/2).
    """
    check_domain(n_particles, t)
    linear = (-n_particles * alpha + 0.5 - math.sqrt(side.ground_energy)) * t
    return linear + bose_integral_closed(alpha) * t**1.5


def semi_analytic_delta_f(n_particles: int, t: float) -> float:
    """Net force f_minus - f_plus from the semi-analytic constraint, both wells in one two-row call.

    Equals (N t + (35/96) sqrt(pi) t^(3/2)) (alpha_plus - alpha_minus) plus
    (sqrt(e_1_plus) - sqrt(e_1_minus)) t.
    """
    check_domain(n_particles, t)
    alpha_plus, alpha_minus = _solved(*semi_analytic_rows((WellSide.PLUS, WellSide.MINUS), n_particles, t))
    f_plus = semi_analytic_force(WellSide.PLUS, alpha_plus, t, n_particles)
    return semi_analytic_force(WellSide.MINUS, alpha_minus, t, n_particles) - f_plus


def theta_partition_sum(side: WellSide, k: int, b: float, method: str = "direct") -> float:
    """Level sum sum_{n>=1} exp(-k b e_n), by two routes.

    "direct" accumulates the level terms until one falls below the relative
    cutoff; "poisson" evaluates the Fourier-resummed form
    -sigma/2 + sqrt(pi/(4kb)) * sum_m tau^m exp(-pi^2 m^2/(kb)), whose tail
    is cut once the exponential drops below the cutoff. Their agreement,
    this module's central identity check, is absolute past kb ~ 10, where
    the Poisson terms cancel down to a sum below their rounding: over kb =
    10 to 1e6 within 5e-17 for PLUS and 2.2e-15 for MINUS, whose -1/2
    cancels. So at kb = 100 the PLUS Poisson value is 2.8e-7 relative off,
    and at kb = 1e4 it is -3.7e-18 for a positive sum.
    """
    u = _theta_exponent(k, b)
    if method == "direct":
        total, c = 0.0, side.offset
        n = 1
        while True:
            term = math.exp(-u * (n - c) ** 2)
            total += term
            if term <= _SERIES_TOL * total:  # an all-zero tail ends the sum once the terms underflow
                return total
            n += 1
    if method == "poisson":
        return -0.5 * side.sigma + math.sqrt(math.pi / (4.0 * u)) * _fourier_sum(side, u, force=False)
    raise ValueError(f"method must be 'direct' or 'poisson', got {method!r}")


def poisson_force_sum(side: WellSide, k: int, b: float) -> float:
    """Fourier-resummed form of sum_{n>=1} e_n exp(-k b e_n).

    sqrt(pi/(16 k^3 b^3)) * sum_m tau^m (1 - 2 pi^2 m^2/(kb)) exp(-pi^2 m^2/(kb)).
    Absolute, as theta_partition_sum's Poisson route: within 1.3e-16 of the
    direct sums over kb = 10 to 1e6, 6e-11 relative for MINUS at kb ~ 13.
    """
    u = _theta_exponent(k, b)
    return math.sqrt(math.pi / (16.0 * u**3)) * _fourier_sum(side, u, force=True)


def _theta_exponent(k: int, b: float) -> float:
    if not (1 <= k < math.inf and k % 1 == 0):  # an integral float such as 2.0 passes
        raise ValueError(f"k must be a positive integer, got {k}")
    check_domain(t=b)
    return k * b


def _fourier_sum(side: WellSide, u: float, force: bool) -> float:
    """Two-sided Fourier sum over m, paired as 1 + 2 sum_{m>=1} tau^m (...) w_m."""
    total = 1.0
    m = 1
    while True:
        expo = math.pi**2 * m * m / u
        w = math.exp(-expo) if expo <= 700.0 else 0.0
        if w < _SERIES_TOL:
            return total
        factor = (1.0 - 2.0 * expo) if force else 1.0
        total += 2.0 * side.tau**m * factor * w
        m += 1


@dataclass(frozen=True)
class FugacityExpansion:
    """Two-term small-b expansion of the fugacity q = exp(-alpha)."""

    q_leading: float      # order sqrt(b): 2 N sqrt(b/pi)
    q_subleading: float   # order b: 2 N (sigma - sqrt(2) N) b/pi
    b: float

    @property
    def total(self) -> float:
        return self.q_leading + self.q_subleading

    @property
    def is_valid(self) -> bool:
        """The expansion only parametrizes a Bose gas while 0 < q < 1."""
        return 0.0 < self.total < 1.0


def fugacity_expansion(side: WellSide, n_particles: int, b: float) -> FugacityExpansion:
    """Expand the fugacity of one half well for small inverse temperature.

    Validity requires N sqrt(b) to be small; outside that window the
    returned expansion is flagged invalid rather than rejected.
    """
    check_domain(n_particles, b)
    q1 = 2.0 * n_particles * math.sqrt(b / math.pi)
    q2 = 2.0 * n_particles * (side.sigma - math.sqrt(2.0) * n_particles) * b / math.pi
    return FugacityExpansion(q1, q2, b)


def delta_f_high_t(n_particles: int, t):
    """Leading high-temperature net force at t (scalar or array): (N/2) sqrt(t/pi).

    The remainder delta_f - (N/2) sqrt(t/pi) tends to the constant
    c(N) = N/(2 pi) - (sqrt(2) - 1) N^2/pi, the gap closing like 1/sqrt(t)
    (test_remainder_approaches_its_constant). The relative error, of order
    N/sqrt(t), therefore dies off only as 1/sqrt(t), and the law is within
    5% only for t of order 100 N^2 (test_criterion_06_high_t_asymptotics).
    """
    check_domain(n_particles, t)
    return 0.5 * n_particles * np.sqrt(t / math.pi)
