import math

import mpmath
import numpy as np
import pytest

from boxforce import (
    ThermoPoint,
    WellSide,
    bose_integral_closed,
    delta_f_high_t,
    delta_f_linear,
    delta_f_low_t,
    fugacity_expansion,
    net_force,
    occupation,
    poisson_force_sum,
    semi_analytic_alpha,
    semi_analytic_delta_f,
    semi_analytic_force,
    semi_analytic_total_number,
    solve_alpha,
    theta_partition_sum,
)
from boxforce import approx
from boxforce.approx import MethodOutOfRangeError, semi_analytic_rows
from boxforce.spectrum import energy_level
from boxforce.occupancy import ConstraintSolverError

from _oracles import bose_integral_quadrature, direct_force_theta, mp_trapezoid_number, mp_trapezoid_terms

P = WellSide.PLUS
M = WellSide.MINUS
SQRT_PI = math.sqrt(math.pi)

# Oracle-pinned constants (extended-precision direct summation / series):
THETA_PLUS_K1_B1 = 0.88613524849218998      # sum exp(-e_n) over the PLUS levels
THETA_MINUS_K1_B001 = 8.3622692545275801    # sum exp(-0.01 e_n) over the MINUS levels
FORCE_THETA_PLUS_K1_B1 = 0.44397243957959541  # sum e_n exp(-e_n) over the PLUS levels
BOSE_INTEGRAL_AT_0 = 1.1575786866970585     # (sqrt(pi)/4) zeta(3/2)


class TestLowT:
    def test_limit_and_values(self):
        assert delta_f_low_t(100, 1e-12) == 75.0
        assert delta_f_low_t(100, 1.0) == pytest.approx(
            75.0 + 3.0 * math.exp(-3.0) - 2.0 * math.exp(-2.0), rel=1e-15
        )
        assert delta_f_low_t(100, 0.5) == pytest.approx(
            75.0 + 3.0 * math.exp(-6.0) - 2.0 * math.exp(-4.0), rel=1e-15
        )

    def test_tracks_exact_below_t_one(self):
        for t in np.linspace(0.05, 1.0, 20):
            exact = net_force(ThermoPoint(100, float(t))).delta_f
            assert abs(delta_f_low_t(100, float(t)) - exact) <= 0.05


class TestLinear:
    def test_unit_drop_at_calibrated_t(self):
        t = (math.e - 1.0) ** 2
        result = delta_f_linear(100, t)
        assert result.value == pytest.approx(74.0, abs=1e-13)
        assert result.in_range

    def test_flagged_past_two_thirds_n(self):
        result = delta_f_linear(100, 100.0)
        assert result.value == pytest.approx(75.0 - 100.0 / (math.e - 1.0) ** 2, rel=1e-14)
        assert not result.in_range
        assert delta_f_linear(100, 200.0 / 3.0).in_range

    def test_tracks_exact_in_linear_window(self):
        # Holds at 5 absolute through t ~ 55; nearer the exact minimum
        # (t ~ 61.75) the true gap grows to ~6.3 at t = 60. Criterion 4 of
        # the acceptance suite asserts 5.0 on t <= N/2 and checks t = 55, 60
        # against the oracle.
        for t in np.linspace(5.0, 55.0, 11):
            exact = net_force(ThermoPoint(100, float(t))).delta_f
            assert abs(delta_f_linear(100, float(t)).value - exact) <= 5.0
        for t in (57.5, 60.0):
            exact = net_force(ThermoPoint(100, t)).delta_f
            assert abs(delta_f_linear(100, t).value - exact) <= 6.5


class TestArrayT:
    """The closed forms on an array of temperatures, as a sweep column calls them."""

    GRID = np.concatenate((np.geomspace(1e-3, 1e6, 400), np.linspace(0.5, 500.0, 333)))

    def test_low_t_matches_scalar_calls_within_two_ulp(self):
        scalar = np.array([delta_f_low_t(7, float(t)) for t in self.GRID])
        assert np.all(np.abs(delta_f_low_t(7, self.GRID) - scalar) <= 2.0 * np.spacing(scalar))

    def test_linear_and_high_t_match_scalar_calls_exactly(self):
        linear = delta_f_linear(7, self.GRID)
        assert linear.value.tolist() == [delta_f_linear(7, float(t)).value for t in self.GRID]
        assert linear.in_range.tolist() == [delta_f_linear(7, float(t)).in_range for t in self.GRID]
        assert delta_f_high_t(7, self.GRID).tolist() == [delta_f_high_t(7, float(t)) for t in self.GRID]

    def test_low_t_overflowing_exponent_is_the_plateau(self):
        # 1/t is finite at t = 1e-308 but 3/t is not; exp(-inf) = 0 without a warning
        assert delta_f_low_t(100, np.array([1e-308, 1e-300])).tolist() == [75.0, 75.0]

    @pytest.mark.parametrize("closed_form", [delta_f_low_t, delta_f_linear, delta_f_high_t])
    @pytest.mark.parametrize(
        "n, bad",
        [(100, 0.0), (100, -1.0), (100, math.inf), (100, math.nan), (100, 1e-320), (0, 1.0),
         (math.nan, 1.0), (math.inf, 1.0)],
    )
    def test_bad_element_raises_like_a_scalar(self, closed_form, n, bad):
        with pytest.raises(ValueError):
            closed_form(n, bad)
        with pytest.raises(ValueError):
            closed_form(n, np.array([0.5, bad, 2.0]))


class TestBoseIntegral:
    def test_closed_form_values(self):
        assert bose_integral_closed(0.0) == pytest.approx(63.0 * SQRT_PI / 96.0, rel=1e-15)
        assert abs(bose_integral_closed(1.8)) < 1e-14  # root of the linear form

    def test_quadrature_matches_series_oracle(self):
        assert bose_integral_quadrature(0.0) == pytest.approx(BOSE_INTEGRAL_AT_0, abs=1e-10)

    def test_quadrature_vanishes_at_large_alpha(self):
        assert bose_integral_quadrature(40.0) < 1e-14

    def test_quadrature_domain(self):
        with pytest.raises(ValueError):
            bose_integral_quadrature(-1.0)
        # removable integrand point inside the domain is handled
        assert bose_integral_quadrature(-0.5) > 0.0

    def test_closed_form_accuracy_small_alpha(self):
        # The closed form carries an alpha^2 remainder: within 1% up to
        # alpha ~ 0.3, degrading to ~3% by alpha = 0.5.
        for alpha in np.linspace(0.0, 0.3, 7):
            quad = bose_integral_quadrature(float(alpha))
            assert abs(bose_integral_closed(float(alpha)) - quad) / quad <= 0.01
        quad_half = bose_integral_quadrature(0.5)
        assert abs(bose_integral_closed(0.5) - quad_half) / quad_half <= 0.035


class TestSemiAnalyticConstraint:
    def test_residual_at_solution(self):
        for t in (10.0, 100.0):
            for side in (P, M):
                alpha = semi_analytic_alpha(side, 100, t)
                residual = semi_analytic_total_number(side, alpha, 1.0 / t) - 100
                assert abs(residual) < 1e-8

    def test_alpha_zero_continuity(self):
        # left and right limits agree: at |alpha| = 1e-12 the smooth terms
        # move by less than 1e-8, and arctan(r w)/r and arctanh(r w)/r both
        # tend to w, the value at alpha = 0
        for side in (P, M):
            left = semi_analytic_total_number(side, -1e-12, 0.1)
            right = semi_analytic_total_number(side, 1e-12, 0.1)
            assert abs(left - right) < 1e-8

    @pytest.mark.parametrize("side", [P, M])
    def test_total_number_matches_quadrature_oracle(self, side):
        # the closed-form tail against mpmath quadrature of the same
        # constraint (mp_trapezoid_terms), at alpha = 0, at |alpha| from
        # 1e-300 to 1e-3 of both signs, at 3e-7 and 9e-7 (where the tail's
        # power series in alpha t diverges for t past ~1e6), at 0.5 and 1.9,
        # and just above the pole -b e_1, where at t <= 1 the arctanh
        # argument nears 1. The error is held to 2e-15 of |head| + |edge| +
        # |tail|, the scale their sum is rounded on: where they cancel, as
        # near alpha = 2 (~60-fold at 1.9), S itself is smaller
        small = [sign * 10.0**k for k in (-300, -200, -100, -30, -12, -9, -6, -3) for sign in (1.0, -1.0)]
        for t in (1e-2, 1.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7):
            b = 1.0 / t
            pole = -b * side.ground_energy
            alphas = [0.0, 3e-7, 9e-7, 0.5, 1.9, pole * (1.0 - 1e-10), np.nextafter(pole, 0.0)] + small
            for alpha in (a for a in alphas if a > pole):
                terms = mp_trapezoid_terms(side is P, alpha, b)
                error = abs(semi_analytic_total_number(side, alpha, b) - mpmath.fsum(terms))
                assert error <= 2e-15 * sum(abs(term) for term in terms), (t, alpha)

    def test_batched_rows_match_scalar_loop(self):
        t = np.tile(np.geomspace(0.01, 160.0, 400), 2)
        sides = (P,) * 400 + (M,) * 400
        alpha, errors = semi_analytic_rows(sides, 100, t)
        assert errors == [None] * len(sides)
        scalar = np.array([semi_analytic_alpha(side, 100, float(tt)) for side, tt in zip(sides, t)])
        assert np.all(np.abs(alpha - scalar) <= 1e-13 * np.maximum(1.0, np.abs(scalar)))

    def test_illinois_steps_stay_within_thirteen(self, monkeypatch):
        # semi_analytic_rows' step bound: one _trapezoid_number call for both
        # bracket ends, then one per step, over 44 integer N log-spaced in
        # [1, 1e7] and 400 t log-spaced in [1e-3, 1e7], both wells in one call
        calls = []
        number = approx._trapezoid_number
        monkeypatch.setattr(approx, "_trapezoid_number", lambda alpha, rows: calls.append(1) or number(alpha, rows))
        t = np.geomspace(1e-3, 1e7, 400)
        steps = []
        for n_particles in np.unique(np.round(np.geomspace(1, 1e7, 50)).astype(int)).tolist():
            calls.clear()
            alpha, errors = semi_analytic_rows([P] * 400 + [M] * 400, n_particles, np.concatenate((t, t)))
            assert np.isfinite(alpha).all() and not any(errors)
            steps.append(len(calls) - 1)
        assert max(steps) <= 13

    def test_large_n_roots_meet_the_oracle_constraint(self):
        # each root lies within the Illinois tolerance of the oracle's root:
        # S falls through N between alpha - tol and alpha + tol
        sides, t = [P] * 4 + [M] * 4, [1e4, 1e5, 1e6, 1e7] * 2
        for n_particles in (10**5, 10**6, 10**7):
            alpha, errors = semi_analytic_rows(sides, n_particles, np.array(t))
            assert not any(errors)
            for side, tt, a in zip(sides, t, alpha.tolist()):
                tol = mpmath.mpf(1e-15 + 4.0 * np.finfo(float).eps * abs(a))
                low, high = (mp_trapezoid_number(side is P, a + d, 1.0 / tt) for d in (-tol, tol))
                assert low > n_particles > high, (n_particles, tt, side)

    def test_failed_rows_carry_their_errors_alone(self):
        # an error only on a row that failed, where alpha is nan, and nowhere
        # else (force._column reads the failures off alpha): no sign change at
        # t = 1e-300, where the error holds the bracket it stopped on, and
        # S > N still at alpha = 2 at t = 1e300
        alpha, errors = semi_analytic_rows((P, M, P, M), 1, np.array([1e-300, 10.0, 1e300, 1e7]))
        assert isinstance(errors[0], ConstraintSolverError) and isinstance(errors[2], MethodOutOfRangeError)
        assert errors[1] is None and errors[3] is None
        np.testing.assert_array_equal(np.isnan(alpha), [True, False, True, False])
        assert errors[0].bracket == (-2.49999999975e299, 1.999999999999)
        assert str(errors[0]) == (
            "no sign change, a non-finite value or no convergence (bracket: [-2.49999999975e+299, 1.999999999999])"
        )
        assert str(errors[2]) == "constraint still above N = 1 at alpha = 2"

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            semi_analytic_total_number(P, 2.0, 0.1)
        with pytest.raises(ValueError):
            semi_analytic_total_number(P, -1.0, 0.1)

    def test_matches_exact_solver_at_t_100(self):
        alpha = semi_analytic_alpha(P, 100, 100.0)
        exact = solve_alpha(P, ThermoPoint(100, 100.0)).alpha
        assert abs(alpha - exact) / abs(exact) < 0.05

    def test_finite_at_t_10(self):
        alpha = semi_analytic_alpha(P, 100, 10.0)
        assert math.isfinite(alpha)
        assert alpha < 2.0


def _two_branch_primitive(alpha, w):
    """The bracket primitive as both branches on every row, then np.where with w at alpha = 0: the reference."""
    r = np.sqrt(np.abs(alpha))
    branch = np.where(alpha > 0.0, np.arctan(r * w), np.arctanh(r * w)) / r
    return np.where(alpha == 0.0, w, branch)


def _two_branch_number(alpha, rows):
    b_e1, b_e2, sqrt_b, s2 = rows
    root = np.sqrt(2.0 - alpha)
    width = root - s2
    head = 1.0 / (alpha + b_e1) + 0.5 / (alpha + b_e2) - 0.75
    return head + (_two_branch_primitive(alpha, width / (alpha + s2 * root)) - 0.5 * width) / sqrt_b


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestBranchPerRow:
    """Each row evaluates only its own arctan or arctanh branch, or takes w at alpha = 0, bit for bit the two-branch form."""

    # both signs of: zero, the smallest subnormal, small and far from zero; then nan
    EDGES = [sign * value for value in (0.0, 5e-324, 1e-6, 0.3, 1.9) for sign in (1.0, -1.0)] + [-4.0, -70.0, math.nan]

    def _alphas(self):
        mixed = np.random.default_rng(7).uniform(-80.0, 1.99, 200)
        return np.concatenate((mixed, self.EDGES))

    def test_primitive_matches_two_branch_form(self):
        from boxforce.approx import _bracket_primitive

        alpha = self._alphas()
        with np.errstate(all="ignore"):
            for w in (0.01, 0.5, 2.0, 30.0, np.geomspace(0.01, 30.0, alpha.size)):  # r w past 1: arctanh is nan
                assert _same_bits(_bracket_primitive(alpha, w), _two_branch_primitive(alpha, w))
            for a in self.EDGES:  # scalar alpha and w
                assert _same_bits(_bracket_primitive(a, 0.7), _two_branch_primitive(a, 0.7))

    def test_number_matches_two_branch_form(self):
        from boxforce.approx import _trapezoid_number, _trapezoid_rows

        alpha = self._alphas()
        b = np.geomspace(1e-4, 1e3, alpha.size)
        plus = np.arange(alpha.size) % 2 == 0
        e1 = np.where(plus, P.ground_energy, M.ground_energy)
        e2 = np.where(plus, energy_level(P, 2), energy_level(M, 2))
        with np.errstate(all="ignore"):
            rows = _trapezoid_rows(e1, e2, b)
            assert _same_bits(_trapezoid_number(alpha, rows), _two_branch_number(alpha, rows))
            ends = np.stack((alpha, alpha[::-1]))  # 2-D alpha on 1-D row constants, as the solver's first call
            assert _same_bits(_trapezoid_number(ends, rows), _two_branch_number(ends, rows))
            for side in (P, M):
                for a in self.EDGES:  # scalar alpha and b, every alpha above the pole -b e_1
                    rows = _trapezoid_rows(side.ground_energy, energy_level(side, 2), 1e3)
                    got, want = _trapezoid_number(a, rows), _two_branch_number(a, rows)
                    assert type(got) is type(want) and _same_bits(got, want)


class TestSemiAnalyticForce:
    def test_alpha_zero_values(self):
        assert semi_analytic_force(P, 0.0, 1.0, 100) == pytest.approx(
            63.0 * SQRT_PI / 96.0, rel=1e-14
        )
        assert semi_analytic_force(M, 0.0, 1.0, 100) == pytest.approx(
            -0.5 + 63.0 * SQRT_PI / 96.0, rel=1e-14
        )

    def test_net_force_expression_recovers_low_t_limit(self):
        # with the condensate multipliers alpha = log1p(1/N) - b e_1 the
        # two-term expression tends to 3N/4 like sqrt(t)
        n = 100
        deviations = []
        for t in (1e-2, 1e-4, 1e-6):
            b = 1.0 / t
            alpha_gap = 0.75 * b  # alpha_plus - alpha_minus
            weight = n * t + (35.0 / 96.0) * SQRT_PI * t**1.5
            value = weight * alpha_gap + (0.5 - 1.0) * t
            deviations.append(abs(value - 75.0))
        assert deviations[2] < deviations[1] < deviations[0]
        assert deviations[2] < 5e-4

    def test_second_term_alone(self):
        # the boundary term of the net force at t = 2
        edge = (math.sqrt(P.ground_energy) - math.sqrt(M.ground_energy)) * 2.0
        assert edge == -1.0


class TestSemiAnalyticDeltaF:
    def test_tracks_exact_between_10_and_160(self):
        for t in np.geomspace(10.0, 160.0, 12):
            exact = net_force(ThermoPoint(100, float(t))).delta_f
            semi = semi_analytic_delta_f(100, float(t))
            assert abs(semi - exact) / exact <= 0.05

    def test_smoke_at_t_50(self):
        assert math.isfinite(semi_analytic_delta_f(100, 50.0))


class TestThetaSums:
    @pytest.mark.parametrize("side", [P, M])
    @pytest.mark.parametrize("kb", [1e-3, 1e-2, 1e-1, 1.0, 10.0])
    def test_direct_equals_poisson(self, side, kb):
        direct = theta_partition_sum(side, 1, kb, method="direct")
        poisson = theta_partition_sum(side, 1, kb, method="poisson")
        assert abs(direct - poisson) <= 1e-12 * max(1.0, direct)

    def test_pinned_values(self):
        assert theta_partition_sum(P, 1, 1.0, "direct") == pytest.approx(
            THETA_PLUS_K1_B1, rel=1e-14
        )
        assert theta_partition_sum(P, 1, 1.0, "poisson") == pytest.approx(
            THETA_PLUS_K1_B1, rel=1e-14
        )
        assert theta_partition_sum(M, 1, 0.01, "direct") == pytest.approx(
            THETA_MINUS_K1_B001, rel=1e-14
        )

    def test_small_b_leading_term(self):
        # -sigma/2 + sqrt(pi/(4 b)); Fourier corrections are exp(-pi^2/b)
        value = theta_partition_sum(M, 1, 0.01, "poisson")
        assert value == pytest.approx(math.sqrt(math.pi / 0.04) - 0.5, rel=1e-12)

    @pytest.mark.parametrize("side, k, b", [(M, 1, 710.0), (P, 1, 2970.0), (P, 2, 1500.0), (P, 2.0, 1500.0)])
    def test_underflowing_terms_end_the_direct_sum(self, side, k, b):
        # past k b e_1 ~ 708 the relative cutoff underflows to 0; the zero tail still ends the sum
        assert theta_partition_sum(side, k, b, "direct") == math.exp(-k * b * side.ground_energy)

    def test_large_exponent_single_term(self):
        u = 30.0
        value = theta_partition_sum(M, 1, u, "direct")
        assert value / math.exp(-u) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("side", [P, M])
    @pytest.mark.parametrize("kb", [1e2, 1e4])
    def test_routes_agree_in_absolute_terms_past_kb_10(self, side, kb):
        # the Poisson form's terms cancel down to a sum far below their
        # rounding, so the routes agree absolutely, not relatively; the
        # docstrings of theta_partition_sum and poisson_force_sum give the
        # worst over kb = 10 to 1e6. The direct force sum's fourth term is
        # below 1e-200 of its first
        direct = theta_partition_sum(side, 1, kb, "direct")
        assert abs(theta_partition_sum(side, 1, kb, "poisson") - direct) <= 5e-16
        force = math.fsum(energy_level(side, n) * math.exp(-kb * energy_level(side, n)) for n in range(1, 5))
        assert abs(poisson_force_sum(side, 1, kb) - force) <= 1.3e-16

    def test_method_validation(self):
        with pytest.raises(ValueError):
            theta_partition_sum(P, 1, 1.0, "fourier")
        with pytest.raises(ValueError):
            theta_partition_sum(P, 0, 1.0)
        with pytest.raises(ValueError):
            theta_partition_sum(P, 1, 0.0)


class TestPoissonForceSum:
    @pytest.mark.parametrize("side", [P, M])
    @pytest.mark.parametrize("kb", [1e-3, 1e-2, 1e-1, 1.0, 10.0])
    def test_matches_direct_summation(self, side, kb):
        direct = direct_force_theta(side is P, 1, kb)
        assert abs(poisson_force_sum(side, 1, kb) - direct) / direct <= 1e-10

    def test_pinned_value(self):
        assert poisson_force_sum(P, 1, 1.0) == pytest.approx(FORCE_THETA_PLUS_K1_B1, rel=1e-13)

    def test_small_b_leading_term(self):
        b = 1e-4
        assert poisson_force_sum(P, 1, b) == pytest.approx(
            math.sqrt(math.pi / (16.0 * b**3)), rel=1e-13
        )

    def test_large_b_first_level_dominates(self):
        direct = math.exp(-10.0) + 4.0 * math.exp(-40.0)
        assert poisson_force_sum(M, 1, 10.0) == pytest.approx(direct, rel=1e-10)


class TestFugacityExpansion:
    def test_leading_and_subleading(self):
        exp = fugacity_expansion(P, 1, 1e-6)
        assert exp.q_leading == pytest.approx(2.0 * math.sqrt(1e-6 / math.pi), rel=1e-15)
        assert exp.q_subleading == pytest.approx(-2.0 * math.sqrt(2.0) * 1e-6 / math.pi, rel=1e-15)
        assert exp.is_valid

    def test_side_dependence(self):
        n, b = 7, 1e-5
        gap = fugacity_expansion(M, n, b).q_subleading - fugacity_expansion(P, n, b).q_subleading
        assert gap == pytest.approx(2.0 * n * b / math.pi, rel=1e-13)

    def test_validity_flag(self):
        assert not fugacity_expansion(P, 100, 1e-3).is_valid
        assert fugacity_expansion(P, 100, 1e-9).is_valid

    @pytest.mark.parametrize(
        "n, b",
        [(0, 1e-3), (-1, 1e-3), (1, 0.0), (1, -1e-3),
         (math.nan, 1e-3), (math.inf, 1e-3), (1, -1.0), (1, math.nan), (1, math.inf), (1, 1e-320)],
    )
    def test_rejects_bad_inputs(self, n, b):
        with pytest.raises(ValueError):
            fugacity_expansion(P, n, b)

    def test_scaling_against_exact_solver(self):
        # the discrepancy to the exact fugacity shrinks like b^(3/2)
        gaps = {}
        for b in (1e-3, 1e-4):
            solution = solve_alpha(P, ThermoPoint(100, 1.0 / b))
            gaps[b] = abs(math.exp(-solution.alpha) - fugacity_expansion(P, 100, b).total)
        assert gaps[1e-4] < gaps[1e-3]
        assert 10.0 <= gaps[1e-3] / gaps[1e-4] <= 100.0


class TestHighT:
    def test_values(self):
        assert delta_f_high_t(100, math.pi) == 50.0
        assert delta_f_high_t(100, 1e4) == pytest.approx(50.0 * math.sqrt(1e4 / math.pi), rel=1e-15)

    def test_ratio_approaches_one_from_below(self):
        # convergence is slow (the remainder is O(t^0) with an N^2-sized
        # coefficient); criterion 6 of the acceptance suite asserts the 5%
        # band at t = 100 N^2, this checks the approach at smaller t
        ratios = {}
        for t in (1e3, 4e4):
            exact = net_force(ThermoPoint(100, t)).delta_f
            ratios[t] = exact / delta_f_high_t(100, t)
        assert abs(ratios[4e4] - 1.0) < abs(ratios[1e3] - 1.0)

    @pytest.mark.parametrize("n_particles", [10, 100])
    def test_remainder_approaches_its_constant(self, n_particles):
        # delta_f - (N/2) sqrt(t/pi) tends to c(N) = N/(2 pi) - (sqrt(2) - 1) N^2/pi,
        # the gap shrinking by about sqrt(10) per decade of t (N = 100:
        # 5.2 at t = 1e8, 0.17 at 1e11). N = 1 is left out: by t = 1e11 its
        # gap reaches the rounding floor of f_minus - f_plus
        limit = n_particles / (2.0 * math.pi) - (math.sqrt(2.0) - 1.0) * n_particles**2 / math.pi
        gaps = []
        for t in (1e8, 1e9, 1e10, 1e11):
            remainder = net_force(ThermoPoint(n_particles, t)).delta_f - delta_f_high_t(n_particles, t)
            gaps.append(abs(remainder - limit))
        assert all(2.5 < wider / narrower < 4.5 for wider, narrower in zip(gaps, gaps[1:]))
        assert gaps[-1] < 2e-4 * abs(limit)


class TestSeriesReconstruction:
    """Fugacity-series route: N and f rebuilt from the per-k theta sums."""

    @pytest.mark.parametrize("side", [P, M])
    def test_total_number_from_theta_series(self, side):
        alpha, b = 0.5, 0.25
        from boxforce import total_number

        series = 0.0
        k = 1
        while True:
            term = math.exp(-k * alpha) * theta_partition_sum(side, k, b, "direct")
            series += term
            if term < 1e-16 * series:
                break
            k += 1
        assert series == pytest.approx(total_number(side, alpha, b), rel=1e-12)

    @pytest.mark.parametrize("side", [P, M])
    def test_force_from_poisson_series(self, side):
        alpha, b = 0.5, 0.25
        from boxforce import energy_level

        reference = 0.0
        for n in range(1, 40):
            e = energy_level(side, n)
            reference += e * occupation(alpha, b, e)
        series = 0.0
        k = 1
        while True:
            term = math.exp(-k * alpha) * poisson_force_sum(side, k, b)
            series += term
            if term < 1e-16 * series:
                break
            k += 1
        assert series == pytest.approx(reference, rel=1e-12)


BAD_N = [0, math.nan, math.inf]
BAD_T = [0.0, -1.0, math.nan, math.inf, 1e-320]  # 1/1e-320 overflows


class TestInputRule:
    """Each entry taking N, t or b raises ValueError on every bad value of the one input rule."""

    @pytest.mark.parametrize(
        "entry",
        [
            semi_analytic_delta_f,
            lambda n, t: semi_analytic_alpha(P, n, t),
            lambda n, t: semi_analytic_force(P, 0.1, t, n),
        ],
        ids=["delta_f", "alpha", "force"],
    )
    @pytest.mark.parametrize("n, t", [(n, 10.0) for n in BAD_N] + [(100, t) for t in BAD_T])
    def test_semi_analytic_n_and_t(self, entry, n, t):
        with pytest.raises(ValueError):
            entry(n, t)

    @pytest.mark.parametrize("alpha, b", [(0.1, b) for b in BAD_T] + [(math.nan, 0.1)])
    def test_semi_analytic_total_number_b_and_nan_alpha(self, alpha, b):
        with pytest.raises(ValueError):
            semi_analytic_total_number(P, alpha, b)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda k, b: theta_partition_sum(P, k, b, "direct"),
            lambda k, b: theta_partition_sum(P, k, b, "poisson"),
            lambda k, b: poisson_force_sum(P, k, b),
        ],
        ids=["theta-direct", "theta-poisson", "poisson-force"],
    )
    @pytest.mark.parametrize("k, b", [(k, 1.0) for k in BAD_N + [1.5]] + [(1, b) for b in BAD_T])
    def test_theta_sums_k_and_b(self, entry, k, b):
        # unchecked, a nan or inf k or b keeps the sums from ever ending; k is
        # a power of the fugacity, so a non-integral k has no sum to return
        with pytest.raises(ValueError):
            entry(k, b)
