"""Independent high-precision oracles used to pin expected values.

Everything here recomputes physics from first principles with mpmath's
arbitrary-precision arithmetic and deliberately shares no code with the
package under test: levels come from the closed forms, the constraint is
solved by plain bisection, and sums are truncated only when terms fall
below the working precision.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

mp.dps = 40

_TAIL_EXPONENT = 200  # exp(-200) ~ 1e-87, far below dps=40 resolution


def mp_energy(plus: bool, n: int):
    return (mpf(2 * n - 1) / 2) ** 2 if plus else mpf(n) ** 2


def _gaps(plus: bool, n_max: int):
    return [mpf(n * (n - 1)) if plus else mpf((n - 1) * (n + 1)) for n in range(1, n_max + 1)]


def _factors(b, gaps):
    """exp(b g) of each level up to the truncation, computed once per solve."""
    return [mp.exp(b * g) for g in gaps if b * g <= _TAIL_EXPONENT]


def _terms(x, factors):
    """Occupations 1/(e^x exp(b g) - 1); level 1 (g = 0) keeps expm1, which resolves x ~ 1/N."""
    ex = mp.exp(x)
    return [1 / mp.expm1(x)] + [1 / (ex * f - 1) for f in factors[1:]]


def _total(x, factors):
    return mp.fsum(_terms(x, factors))


def _force(x, factors, gaps, e1):
    return mp.fsum((g + e1) * occ for g, occ in zip(gaps, _terms(x, factors)))


def _levels_needed(b) -> int:
    # past gap = TAIL/b every term is below the bisection's resolution
    return max(8, int(math.isqrt(int(_TAIL_EXPONENT / b)) + 4))


def mp_solve_x(plus: bool, n_particles: int, b, bisections: int = 130):
    """Shifted multiplier x = alpha + b e_1 by bisection on the exact bound."""
    gaps = _gaps(plus, _levels_needed(b))
    factors = _factors(b, gaps)
    lo = mp.log(1 + mpf(1) / n_particles)
    hi = 2 * lo
    while _total(hi, factors) > n_particles:
        lo, hi = hi, 2 * hi
    for _ in range(bisections):
        mid = (lo + hi) / 2
        if _total(mid, factors) > n_particles:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2, gaps, factors


def mp_half_force(plus: bool, n_particles: int, t):
    b = mpf(1) / t
    x, gaps, factors = mp_solve_x(plus, n_particles, b)
    e1 = mpf(1) / 4 if plus else mpf(1)
    return _force(x, factors, gaps, e1)


def mp_delta_f(n_particles: int, t):
    return mp_half_force(False, n_particles, t) - mp_half_force(True, n_particles, t)


def direct_force_theta(plus: bool, k: int, b: float) -> float:
    """Plain float sum of e_n exp(-k b e_n), the oracle for the resummed form."""
    total = 0.0
    n = 1
    while True:
        e = (n - 0.5) ** 2 if plus else float(n * n)
        term = e * math.exp(-k * b * e)
        total += term
        if n > 3 and term < 1e-18 * total:
            return total
        n += 1


def bose_integral_quadrature(alpha: float) -> float:
    """integral_0^inf (a + s^2)/(exp(a + s^2) - 1) ds by mpmath quadrature, for alpha > -1.

    The oracle for approx.bose_integral_closed. For alpha < 0 the range is
    split at s = sqrt(-alpha), where a + s^2 = 0 and the integrand has its
    removable point (value 1).
    """
    if alpha <= -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    a = mpf(alpha)
    points = [0, mp.sqrt(-a), mp.inf] if alpha < 0.0 else [0, mp.inf]
    return float(mp.quad(lambda s: (a + s * s) / mp.expm1(a + s * s), points))


def _bose_remainder(z, derivative: int):
    """r(z) = 1/expm1(z) - 1/z (derivative 0) or r'(z) (1), the Bose occupation less its pole at z = 0.

    Near z = 0 the difference cancels, so |z| < 1/2 takes the Taylor series
    r(z) = -1/2 + sum_k B_2k z^(2k-1) / (2k)!, whose radius is 2 pi; 30
    terms reach ~1e-70 there.
    """
    if abs(z) < 0.5:
        terms = [mp.bernoulli(2 * k) / mp.factorial(2 * k) for k in range(1, 31)]  # of z^(2k-1)
        if derivative == 0:
            return -mpf(1) / 2 + mp.fsum(c * z ** (2 * k + 1) for k, c in enumerate(terms))
        return mp.fsum((2 * k + 1) * c * z ** (2 * k) for k, c in enumerate(terms))
    if derivative == 0:
        return 1 / mp.expm1(z) - 1 / z
    return 1 / (z * z) - mp.exp(z) / mp.expm1(z) ** 2


def mp_remainder_integral(derivative: int = 0, alpha=0):
    """integral_0^inf r^(derivative)(alpha + v^2) dv by mpmath quadrature (r as in _bose_remainder).

    This is R(alpha), the pole-split remainder's lattice sum per sqrt(t), at
    derivative 0, and R'(alpha) at 1. R(0) = (sqrt(pi)/2) zeta(1/2).
    """
    a = mpf(alpha)
    return mp.quad(lambda v: _bose_remainder(a + v * v, derivative), [0, 1, 10, mp.inf])


def _mp_lattice(a2):
    """Phi(A) = sum_{n != 0} 1/(A + n^2) at A = a2 > -1, A != 0, in closed form (A < 0 through complex sqrt)."""
    a = mp.sqrt(mpf(a2) + 0j)
    return mp.re(mp.pi / (a * mp.tanh(mp.pi * a))) - 1 / mpf(a2)


def _mp_lattice_squares(a2):
    """-Phi'(A) = sum_{n != 0} 1/(A + n^2)^2 at A = a2 > -1, A != 0.

    The exact derivative of _mp_lattice's closed form, not a numerical one.
    """
    a2 = mpf(a2)
    a = mp.sqrt(a2 + 0j)
    pole = mp.pi**2 / (2 * a2 * mp.sinh(mp.pi * a) ** 2) + mp.pi / (2 * a**3 * mp.tanh(mp.pi * a))
    return mp.re(pole) - 1 / a2**2


def mp_pole_slope(plus: bool, u):
    """(q, d log q / d log u) of the pole model at u = A + e_1, q = (4 Phi(4A) - Phi(A))/2 (PLUS) or Phi(A)/2 (MINUS)."""
    def q(v):
        if plus:
            return (4 * _mp_lattice(4 * v - 1) - _mp_lattice(v - mpf(1) / 4)) / 2
        return _mp_lattice(v - 1) / 2

    u = mpf(u)
    return q(u), u * mp.diff(q, u) / q(u)


def mp_delta_f_polylog(n_particles: int, t):
    """delta_f from the Bose functions: per well N = Li_{1/2}(z)/e - (sigma/2) z/(1 - z), f = (t/(2e)) Li_{3/2}(z).

    e = 2/sqrt(pi t), z = e^-alpha and sigma = 1 for MINUS, whose level n =
    0 is no level. This is Poisson summation of the level sums, exact up to
    ~exp(-2 pi sqrt(alpha t)) and the level cutoff's ~1e-17; it holds only
    for alpha > 0, where the polylogs' series converge. So the root is
    sought by the secant method in log alpha, from the root of Li_{1/2}(z)
    = N e: z = N e where N e < 1, else Li_{1/2} ~ sqrt(pi/alpha) + zeta(1/2),
    its limit near alpha = 0. The polylogs are real there, and only their
    real parts are taken.
    """
    t = mpf(t)
    e = 2 / mp.sqrt(mp.pi * t)
    y = n_particles * e
    start = -mp.log(y) if y < 1 else mp.pi / (y - mp.zeta(mpf(1) / 2)) ** 2

    def force(sigma):
        def excess(log_alpha):
            z = mp.exp(-mp.exp(log_alpha))
            return mp.re(mp.polylog(mpf(1) / 2, z)) / e - sigma * z / (2 * (1 - z)) - n_particles

        alpha = mp.exp(mp.findroot(excess, mp.log(start)))
        return t / (2 * e) * mp.re(mp.polylog(mpf(3) / 2, mp.exp(-alpha)))

    return force(1) - force(0)


def mp_trapezoid_terms(plus: bool, alpha, b):
    """The terms (head, edge, tail) of the semi-analytic constraint S(alpha) at b, for -b e_1 < alpha < 2.

    head keeps levels 1 and 2, edge = (s2 - sqrt(2 - alpha))/(2 sqrt(b)) with
    s2 = sqrt(b e_2), and tail is mp.quad of 1/(alpha + s^2) over [s2,
    sqrt(2 - alpha)], divided by sqrt(b). The quadrature runs in y = log s,
    where the integrand s/(alpha + s^2) has no spike at either end: in s it
    peaks on a width of order sqrt(b) at s2, near the pole or at small
    |alpha| and large t. No closed form of the tail is used.
    """
    a, b = mpf(alpha), mpf(b)
    e1, e2 = (mpf(1) / 4, mpf(9) / 4) if plus else (mpf(1), mpf(4))
    s2, root = mp.sqrt(b * e2), mp.sqrt(2 - a)
    head = 1 / (a + b * e1) + 1 / (2 * (a + b * e2)) - mpf(3) / 4
    edge = (s2 - root) / (2 * mp.sqrt(b))
    tail = mp.quad(lambda y: 1 / (a * mp.exp(-y) + mp.exp(y)), [mp.log(s2), mp.log(root)])
    return head, edge, tail / mp.sqrt(b)


def mp_trapezoid_number(plus: bool, alpha, b):
    """S(alpha) = head + edge + tail of mp_trapezoid_terms: the oracle for approx.semi_analytic_total_number."""
    return mp.fsum(mp_trapezoid_terms(plus, alpha, b))
