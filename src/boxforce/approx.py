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
import warnings
from dataclasses import dataclass

import numpy as np

from .occupancy import ConstraintSolverError, ThermoPoint
from .spectrum import WellSide, energy_level

__all__ = [
    "LinearForce",
    "FugacityExpansion",
    "MethodOutOfRangeError",
    "QuadratureError",
    "delta_f_low_t",
    "delta_f_linear",
    "trapezoid_sum",
    "bose_integral_closed",
    "bose_integral_quadrature",
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


class QuadratureError(RuntimeError):
    """An adaptive quadrature did not converge."""


def delta_f_low_t(n_particles: int, t: float) -> float:
    """Two-level low-temperature net force: 3N/4 + 3 exp(-3/t) - 2 exp(-2/t).

    Keeps only the first excited level of each well on top of the
    macroscopically occupied ground states; intended for t below about 1.
    """
    ThermoPoint(n_particles, t)  # validates N and t
    return 0.75 * n_particles + 3.0 * math.exp(-3.0 / t) - 2.0 * math.exp(-2.0 / t)


@dataclass(frozen=True)
class LinearForce:
    """Linear-decrease estimate with its validity marker."""

    value: float
    in_range: bool  # False above t ~ 2N/3 where the linear picture breaks down


def delta_f_linear(n_particles: int, t: float) -> LinearForce:
    """Heuristic linear decrease of the net force: 3N/4 - t/(e - 1)^2.

    Counts the order-sqrt(t) levels whose occupation is neither classical
    nor exponentially suppressed. Flagged out of range above t = 2N/3.
    """
    ThermoPoint(n_particles, t)  # validates N and t
    value = 0.75 * n_particles - t / (math.e - 1.0) ** 2
    return LinearForce(value, t <= 2.0 * n_particles / 3.0)


def _quad(fn, a: float, b: float, **kwargs) -> float:
    from scipy import integrate  # only the quadrature helpers need scipy: import it on first use
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _ = integrate.quad(fn, a, b, **kwargs)
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(str(exc)) from None
    return value


def trapezoid_sum(term_function, s1: float, ds: float) -> float:
    """Sum-to-integral replacement: y(s1)/2 + (1/ds) * integral of y over [s1, inf).

    Approximates sum_k y(s1 + k*ds) for a function vanishing at infinity;
    the smaller the spacing ds, the better the replacement.
    """
    if ds <= 0.0:
        raise ValueError(f"spacing must be positive, got {ds}")
    tail = _quad(term_function, s1, np.inf, limit=200)
    return 0.5 * term_function(s1) + tail / ds


def bose_integral_closed(alpha: float) -> float:
    """Small-alpha closed form of integral_0^inf (a + s^2)/(exp(a + s^2) - 1) ds.

    Equals (sqrt(pi)/96) (63 - 35 alpha); the dropped remainder is of order
    alpha^2 on top of a half-percent bias from the three-term kernel fit.
    """
    return _SQRT_PI / 96.0 * (63.0 - 35.0 * alpha)


def bose_integral_quadrature(alpha: float) -> float:
    """Adaptive quadrature of integral_0^inf (a + s^2)/(exp(a + s^2) - 1) ds.

    Serves as the oracle for the closed form above. The integrand value 1
    at a + s^2 = 0 is supplied by a series patch. Restricted to alpha > -1.
    """
    if alpha <= -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")

    def integrand(s: float) -> float:
        z = alpha + s * s
        if abs(z) < 1e-8:
            return 1.0 - 0.5 * z + z * z / 12.0
        if z > 700.0:
            return 0.0
        return z / math.expm1(z)

    return _quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=300)


def _bracket_primitive(alpha, v):
    """A(sqrt|alpha| * v)/sqrt|alpha| with A = arctan (alpha > 0) or arctanh (alpha < 0).

    This is the antiderivative of 1/(alpha + s^2) evaluated at s = 1/v, on
    arrays too (call under np.errstate: the branch not taken may be nan).
    Both branches share the series v - alpha v^3/3 + alpha^2 v^5/5 near
    alpha = 0, which replaces them below the cutoff where they lose digits.
    """
    r = np.sqrt(np.abs(alpha))
    branch = np.where(alpha > 0.0, np.arctan(r * v), np.arctanh(r * v)) / r
    series = v - alpha * v**3 / 3.0 + alpha * alpha * v**5 / 5.0
    return np.where(np.abs(alpha) < _ALPHA_SERIES_CUTOFF, series, branch)


def _trapezoid_number(e1, e2, alpha, b):
    sqrt_b = np.sqrt(b)
    s2 = np.sqrt(b * e2)
    root = np.sqrt(2.0 - alpha)
    head = 1.0 / (alpha + b * e1) + 0.5 / (alpha + b * e2) - 0.75
    edge = -(root - s2) / (2.0 * sqrt_b)
    tail = (_bracket_primitive(alpha, 1.0 / s2) - _bracket_primitive(alpha, 1.0 / root)) / sqrt_b
    return head + edge + tail


def semi_analytic_total_number(side: WellSide, alpha, b):
    """Trapezoid-rule estimate of the total occupation at multiplier alpha.

    Keeps levels 1 and 2 explicitly, converts the rest of the sum into an
    integral cut off where the exponent reaches 2, and linearizes the
    Bose kernel on that range. Defined for -b e_1 < alpha < 2, on arrays too.
    """
    e1 = side.ground_energy
    if np.any(b <= 0.0) or np.any(alpha + b * e1 <= 0.0) or np.any(alpha >= 2.0):
        raise ValueError(f"need b > 0 and -b*e_1 < alpha < 2, got b = {b}, alpha = {alpha}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _trapezoid_number(e1, energy_level(side, 2), alpha, b)


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
        lo, hi = ends
        f_lo, f_hi = (_trapezoid_number(e1, e2, ends, b) - n_particles) * (ends + pole)
        out_of_range = f_hi > 0.0
        live = (f_lo >= 0.0) & (f_hi <= 0.0)  # false on nan
        moved_lo = moved_hi = np.zeros(len(e1), dtype=bool)
        for step in range(201):  # at most 200 steps
            tol = 1e-15 + 2.0 * np.finfo(float).eps * np.abs(lo + hi)
            live &= hi - lo > tol
            if step == 200 or not live.any():
                break
            x = np.clip(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo + 0.5 * tol, hi - 0.5 * tol)
            f = (_trapezoid_number(e1, e2, x, b) - n_particles) * (x + pole)
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
    ThermoPoint(n_particles, t)  # validates N and t
    return _solved(*semi_analytic_rows((side,), n_particles, t))[0]


def semi_analytic_force(side: WellSide, alpha, t, n_particles: int):
    """Trapezoid-rule force on one half well at multiplier alpha (scalars or arrays).

    (-N alpha + 1/2 - sqrt(e_1)) t plus the closed Bose integral times t^(3/2).
    """
    linear = (-n_particles * alpha + 0.5 - math.sqrt(side.ground_energy)) * t
    return linear + bose_integral_closed(alpha) * t**1.5


def semi_analytic_delta_f(n_particles: int, t: float) -> float:
    """Net force f_minus - f_plus from the semi-analytic constraint, both wells in one two-row call.

    Equals (N t + (35/96) sqrt(pi) t^(3/2)) (alpha_plus - alpha_minus) plus
    (sqrt(e_1_plus) - sqrt(e_1_minus)) t.
    """
    ThermoPoint(n_particles, t)  # validates N and t
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
            if term < _SERIES_TOL * total:
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
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if b <= 0.0:
        raise ValueError(f"inverse temperature must be positive, got {b}")
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
    if n_particles < 1:
        raise ValueError(f"particle number must be >= 1, got {n_particles}")
    if b <= 0.0:
        raise ValueError(f"inverse temperature must be positive, got {b}")
    q1 = 2.0 * n_particles * math.sqrt(b / math.pi)
    q2 = 2.0 * n_particles * (side.sigma - math.sqrt(2.0) * n_particles) * b / math.pi
    return FugacityExpansion(q1, q2, b)


def delta_f_high_t(n_particles: int, t: float) -> float:
    """Leading high-temperature net force: (N/2) sqrt(t/pi).

    The remainder delta_f - (N/2) sqrt(t/pi) is of order N^2 t^0: it tends
    to about -0.13 N^2 (-0.116 N^2 at N = 10, -0.130 N^2 at N = 100, both at
    t = 1e8). The relative error therefore dies off only as 1/sqrt(t), at
    about 0.4-0.45 N/sqrt(t) near t = 100 N^2, and falls below 5% only for
    t >~ 80 N^2 (N = 100: ratio 0.675 at t = N^2, 0.956 at t = 100 N^2).
    """
    ThermoPoint(n_particles, t)  # validates N and t
    return 0.5 * n_particles * math.sqrt(t / math.pi)
