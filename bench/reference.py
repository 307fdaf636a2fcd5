"""Reference values for the correctness gate, computed without boxforce.

Everything here is written from the physics in README.md and shares no
code with the package under test, so a defect in boxforce cannot move the
values the benchmark checks it against:

* the exact forces solve the particle-number constraint by Newton's method
  on log S(x), where S(x) = sum_n 1/(exp(x + b (e_n - e_1)) - 1) is
  log-convex and decreasing, so the iteration started at the exact lower
  bound x0 = log1p(1/N) climbs monotonically to the root; the level sums
  run over every level whose exponent is below 60 + x, far past the point
  where the package's relative cutoff stops;
* the semi-analytic rows re-derive the trapezoid-rule constraint with the
  tail integral of 1/(alpha + s^2) in an atan/atanh-difference form (no
  series branch) and solve it by bisection;
* the other approximations are their one-line closed forms.

The reference itself is checked against the mpmath oracle in
tests/_oracles.py (``oracle_mismatches``), at points cheap enough to run
on every benchmark run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A row or call passes the gate when f_plus and f_minus are within REL_TOL
# relative of the reference and delta_f within REL_TOL * max(|f_plus|,
# |f_minus|): at t = 1e8 the net force is ~5e-5 of either half-well force,
# so a relative bound on delta_f would demand more digits than exist.
REL_TOL = 1e-9
# The reference must agree with the mpmath oracle two orders tighter than
# the gate it serves.
ORACLE_REL_TOL = 1e-11
# Statuses that mean "value computed"; switching between them is allowed.
VALUE_STATUSES = ("ok", "out-of-range")
# Levels are summed while b * (e_n - e_1) < _TAIL_EXPONENT; the discarded
# tail is below exp(-60) * sqrt(t) relative, ~1e-22 at t = 1e8.
_TAIL_EXPONENT = 60.0


@dataclass(frozen=True)
class Expected:
    """Reference values of one (N, t, method) record; None where a method has none."""

    alpha_plus: float | None
    alpha_minus: float | None
    f_plus: float | None
    f_minus: float | None
    delta_f: float


def _ground_energy(plus: bool) -> float:
    return 0.25 if plus else 1.0


def exact_half(plus: bool, n_particles: int, t: float) -> tuple[float, float]:
    """(alpha, f) of one half well from the exact constraint and level sum."""
    b = 1.0 / t
    n = np.arange(1.0, math.isqrt(int(_TAIL_EXPONENT * t) + 1) + 3.0)
    energies = (n - 0.5) ** 2 if plus else n * n
    scaled_gap = b * (energies - _ground_energy(plus))
    log_target = math.log(n_particles)
    x = math.log1p(1.0 / n_particles)
    with np.errstate(over="ignore"):
        for _ in range(200):
            occ = 1.0 / np.expm1(x + scaled_gap)
            total = float(occ.sum())
            residual = math.log(total) - log_target  # ~ relative residual in N
            if abs(residual) <= 1e-14:
                break
            # |d log S / dx| = sum o(o+1) / sum o >= 1, so the step is well conditioned
            x += residual * total / float((occ * (occ + 1.0)).sum())
        else:
            raise ArithmeticError(f"reference solve did not converge at N={n_particles}, t={t}")
        occ = 1.0 / np.expm1(x + scaled_gap)
    return x - b * _ground_energy(plus), float((energies * occ).sum())


def _tail_integral(alpha: float, lo: float, hi: float) -> float:
    """Integral of 1/(alpha + s^2) over [lo, hi], for lo, hi > sqrt(max(0, -alpha))."""
    if alpha == 0.0:
        return (hi - lo) / (hi * lo)
    c = math.sqrt(abs(alpha))
    if alpha > 0.0:
        return math.atan(c * (hi - lo) / (alpha + hi * lo)) / c
    return math.atanh(c * (hi - lo) / (hi * lo + alpha)) / c


def _trapezoid_number(plus: bool, alpha: float, b: float) -> float:
    """Levels 1 and 2 kept; the rest as an integral up to exponent 2 with a linearized kernel."""
    e1 = _ground_energy(plus)
    e2 = 2.25 if plus else 4.0
    s2 = math.sqrt(b * e2)
    root = math.sqrt(2.0 - alpha)
    head = 1.0 / (alpha + b * e1) + 0.5 / (alpha + b * e2) - 0.75
    edge = (s2 - root) / (2.0 * math.sqrt(b))
    return head + edge + _tail_integral(alpha, s2, root) / math.sqrt(b)


def semi_analytic_half(plus: bool, n_particles: int, t: float) -> tuple[float, float]:
    """(alpha, f) from the trapezoid-rule constraint and the two-term force."""
    b = 1.0 / t
    lo, hi = -b * _ground_energy(plus), 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= 1e-16 * max(1.0, abs(mid)):
            break
        if _trapezoid_number(plus, mid, b) > n_particles:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    linear = (-n_particles * alpha + 0.5 - math.sqrt(_ground_energy(plus))) * t
    bose_integral = math.sqrt(math.pi) / 96.0 * (63.0 - 35.0 * alpha)
    return alpha, linear + bose_integral * t**1.5


def expected(n_particles: int, t: float, method: str) -> Expected:
    """Reference record for one (N, t, method)."""
    if method in ("numeric", "semi-analytic"):
        half = exact_half if method == "numeric" else semi_analytic_half
        alpha_plus, f_plus = half(True, n_particles, t)
        alpha_minus, f_minus = half(False, n_particles, t)
        return Expected(alpha_plus, alpha_minus, f_plus, f_minus, f_minus - f_plus)
    if method == "low-t":
        value = 0.75 * n_particles + 3.0 * math.exp(-3.0 / t) - 2.0 * math.exp(-2.0 / t)
    elif method == "linear":
        value = 0.75 * n_particles - t / (math.e - 1.0) ** 2
    elif method == "high-t":
        value = 0.5 * n_particles * math.sqrt(t / math.pi)
    else:
        raise ValueError(f"no reference for method {method!r}")
    return Expected(None, None, None, None, value)


def _close(value, ref: float, scale: float) -> bool:
    return value is not None and math.isfinite(value) and abs(value - ref) <= REL_TOL * scale


def passes(record: tuple, n_particles: int, t: float, method: str, ref: Expected) -> bool:
    """Gate one output record (t, method, alpha_plus, alpha_minus, f_plus, f_minus, delta_f, status).

    The record must name the expected method and temperature (to 1e-12
    relative, so a grid rebuilt with other rounding still lines up), carry
    a value status, and match the reference: multipliers within REL_TOL *
    max(1, |alpha|), forces and delta_f as described at REL_TOL. Records
    of delta-only methods are held to REL_TOL * max(|delta_f|, 3N/4), the
    net force's zero-temperature value setting the scale.
    """
    rec_t, rec_method, alpha_plus, alpha_minus, f_plus, f_minus, delta_f, status = record
    if rec_method != method or status not in VALUE_STATUSES:
        return False
    if not (rec_t is not None and abs(rec_t - t) <= 1e-12 * t):
        return False
    if ref.f_plus is None:
        return _close(delta_f, ref.delta_f, max(abs(ref.delta_f), 0.75 * n_particles))
    if ref.alpha_plus is not None and not (
        _close(alpha_plus, ref.alpha_plus, max(1.0, abs(ref.alpha_plus)))
        and _close(alpha_minus, ref.alpha_minus, max(1.0, abs(ref.alpha_minus)))
    ):
        return False
    return (
        _close(f_plus, ref.f_plus, abs(ref.f_plus))
        and _close(f_minus, ref.f_minus, abs(ref.f_minus))
        and _close(delta_f, ref.delta_f, max(abs(ref.f_plus), abs(ref.f_minus)))
    )


def oracle_mismatches(points: list[tuple[int, float]]) -> list[str]:
    """Check the exact reference against the mpmath oracle; returns one message per miss.

    The oracle's cost grows with sqrt(t) (about 2 s a point at t = 100), so
    callers pick few, low-t points.
    """
    from _oracles import mp_half_force  # tests/_oracles.py, put on sys.path by the caller

    misses = []
    for n_particles, t in points:
        ref = expected(n_particles, t, "numeric")
        f_plus = float(mp_half_force(True, n_particles, t))
        f_minus = float(mp_half_force(False, n_particles, t))
        scale = max(abs(f_plus), abs(f_minus))
        errors = (
            abs(ref.f_plus - f_plus) / abs(f_plus),
            abs(ref.f_minus - f_minus) / abs(f_minus),
            abs(ref.delta_f - (f_minus - f_plus)) / scale,
        )
        if max(errors) > ORACLE_REL_TOL:
            misses.append(f"reference vs mpmath oracle at N={n_particles}, t={t!r}: errors {errors}")
    return misses
