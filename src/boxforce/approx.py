"""Closed-form and semi-analytic approximations to the net force.

Four regimes are covered, together with the summation identities used to
validate them against the exact level sums:

* two-level form for t below about 1,
* heuristic linear decrease, valid up to roughly t = 2N/3,
* trapezoid-rule (sum-to-integral) treatment giving a semi-analytic
  constraint plus a two-term force expression, aimed at t well above 1,
* fugacity expansion with Fourier-resummed level sums for the
  square-root-of-t asymptotics.

All quantities are dimensionless. Regime edges are reported through
validity flags rather than errors, so a full temperature sweep can plot
an approximation outside its window and mark it as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .occupancy import ConstraintSolverError, check_domain
from .spectrum import WellSide, energy_level

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
# below this |alpha| the arctan/arctanh branches are replaced by their common series
_ALPHA_SERIES_CUTOFF = 1e-6


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


def _bracket_primitive(alpha, v, v3, v5):
    """A(sqrt|alpha| * v)/sqrt|alpha| with A = arctan (alpha > 0) or arctanh (alpha < 0); v3, v5 are v^3, v^5.

    This is the antiderivative of 1/(alpha + s^2) evaluated at s = 1/v, on
    arrays too (call under np.errstate: the branch not taken may be nan).
    Both branches share the series v - alpha v^3/3 + alpha^2 v^5/5 near
    alpha = 0, which replaces them below the cutoff where they lose digits.
    """
    r = np.sqrt(np.abs(alpha))
    branch = np.where(alpha > 0.0, np.arctan(r * v), np.arctanh(r * v)) / r
    series = v - alpha * v3 / 3.0 + alpha * alpha * v5 / 5.0
    return np.where(np.abs(alpha) < _ALPHA_SERIES_CUTOFF, series, branch)


def _trapezoid_rows(e1, e2, b):
    """The row constants of _trapezoid_number: b e_1, b e_2, sqrt(b), s2 = sqrt(b e_2) and (1/s2)^k, k = 1, 3, 5."""
    s2 = np.sqrt(b * e2)  # the integral starts at s2
    v = 1.0 / s2
    return b * e1, b * e2, np.sqrt(b), s2, (v, v**3, v**5)


def _trapezoid_number(alpha, rows):
    b_e1, b_e2, sqrt_b, s2, s2_powers = rows
    root = np.sqrt(2.0 - alpha)
    head = 1.0 / (alpha + b_e1) + 0.5 / (alpha + b_e2) - 0.75
    edge = -(root - s2) / (2.0 * sqrt_b)
    v = 1.0 / root
    tail = (_bracket_primitive(alpha, *s2_powers) - _bracket_primitive(alpha, v, v**3, v**5)) / sqrt_b
    return head + edge + tail


def semi_analytic_total_number(side: WellSide, alpha, b):
    """Trapezoid-rule estimate of the total occupation at multiplier alpha.

    Keeps levels 1 and 2 explicitly, converts the rest of the sum into an
    integral cut off where the exponent reaches 2, and linearizes the
    Bose kernel on that range. Defined for -b e_1 < alpha < 2, on arrays too.
    """
    check_domain(t=b)
    e1 = side.ground_energy
    if not (np.all(alpha + b * e1 > 0.0) and np.all(alpha < 2.0)):
        raise ValueError(f"need -b*e_1 < alpha < 2, got b = {b}, alpha = {alpha}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _trapezoid_number(alpha, _trapezoid_rows(e1, energy_level(side, 2), b))


def semi_analytic_rows(sides, n_particles: int, t) -> tuple[np.ndarray, list[Exception | None]]:
    """Solve the trapezoid-rule constraint S = N for alpha on the rows (sides[i], t[i]) at once.

    S falls from +inf at the pole alpha = -b e_1, so the pole and alpha = 2
    bracket each root. Illinois false-position steps on (S - N)(alpha + b e_1),
    finite and nearly linear at the pole, land at least tol/2 inside each
    bracket until hi - lo <= tol = 1e-15 + 4 eps |alpha|, in at most 200 steps.
    Returns alpha (nan where a row failed) and each row's error or None:
    MethodOutOfRangeError if S > N at alpha = 2, else ConstraintSolverError.
    """
    levels = {side: (side.ground_energy, energy_level(side, 2)) for side in WellSide}
    e1, e2 = np.array([levels[side] for side in sides]).T
    b = 1.0 / np.broadcast_to(t, e1.shape)
    pole = b * e1
    ends = np.stack((-pole + 1e-10 * np.maximum(1.0, pole), np.full(len(e1), 2.0 - 1e-12)))
    with np.errstate(all="ignore"):
        rows = _trapezoid_rows(e1, e2, b)
        lo, hi = ends
        f_lo, f_hi = (_trapezoid_number(ends, rows) - n_particles) * (ends + pole)
        out_of_range = f_hi > 0.0
        live = (f_lo >= 0.0) & (f_hi <= 0.0)  # false on nan
        moved_lo = moved_hi = np.zeros(len(e1), dtype=bool)
        for step in range(201):  # at most 200 steps
            tol = 1e-15 + 2.0 * np.finfo(float).eps * np.abs(lo + hi)
            live &= hi - lo > tol
            if step == 200 or not live.any():
                break
            x = np.clip(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo + 0.5 * tol, hi - 0.5 * tol)
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
    errors = [
        None if good
        else MethodOutOfRangeError(f"constraint still above N = {n_particles} at alpha = 2") if high
        else ConstraintSolverError("no sign change, a non-finite value or no convergence", (left, right))
        for good, high, left, right in zip(converged, out_of_range.tolist(), lo.tolist(), hi.tolist())
    ]
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
    is cut once the exponential drops below the cutoff. The two routes
    agree to near machine precision, which is this module's central
    identity check.
    """
    u = _theta_exponent(k, b)
    if method == "direct":
        total = 0.0
        n = 1
        while True:
            term = math.exp(-u * energy_level(side, n))
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
    c(N) = N/(2 pi) - (sqrt(2) - 1) N^2/pi (-11.593 at N = 10, -1302.57 at
    N = 100), the gap closing like 1/sqrt(t). The relative error therefore
    dies off only as 1/sqrt(t), at about 0.4-0.45 N/sqrt(t) near t = 100 N^2,
    and falls below 5% only for t >~ 80 N^2 (N = 100: ratio 0.675 at t = N^2,
    0.956 at t = 100 N^2).
    """
    check_domain(n_particles, t)
    return 0.5 * n_particles * np.sqrt(t / math.pi)
