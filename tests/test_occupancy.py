import math

import numpy as np
import pytest

from boxforce import (
    ConstraintSolverError,
    ThermoPoint,
    WellSide,
    fugacity_expansion,
    occupation,
    solve_alpha,
    total_number,
)

P = WellSide.PLUS
M = WellSide.MINUS

# 1/(e - 1), pinned by extended-precision evaluation
OCCUPATION_AT_UNIT_EXPONENT = 0.5819767068693264
# 1 + 1/(2 e^20 - 1) + 1/(2 e^60 - 1), the two-level hand sum at b = 10
TWO_TERM_TOTAL = 1.0000000010305768


class TestThermoPoint:
    def test_inverse_temperature(self):
        point = ThermoPoint(100, 0.25)
        assert point.b == 4.0
        assert point.b * point.t == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("n, t", [(0, 1.0), (-5, 1.0), (1, 0.0), (1, -2.0), (1, math.inf), (1, 1e-310)])
    def test_rejects_bad_points(self, n, t):
        with pytest.raises(ValueError):
            ThermoPoint(n, t)


class TestOccupation:
    def test_unit_exponent(self):
        assert occupation(math.log(2.0), 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_overflow_clamps_to_zero(self):
        assert occupation(800.0, 1.0, 0.0) == 0.0
        assert occupation(100.0, 1.0, 601.0) == 0.0

    def test_derived_value(self):
        assert occupation(0.6, 0.1, 4.0) == pytest.approx(OCCUPATION_AT_UNIT_EXPONENT, rel=1e-14)

    @pytest.mark.parametrize("alpha, b, e", [(0.0, 1.0, 0.0), (-1.0, 1.0, 0.5), (-10.0, 0.1, 50.0)])
    def test_nonpositive_exponent_rejected(self, alpha, b, e):
        with pytest.raises(ValueError):
            occupation(alpha, b, e)


class TestTotalNumber:
    def test_vanishes_for_large_alpha(self):
        assert total_number(P, 1e9, 1.0) == 0.0

    def test_two_term_hand_sum(self):
        value = total_number(P, math.log(2.0) - 2.5, 10.0)
        assert value == pytest.approx(TWO_TERM_TOTAL, rel=1e-12)

    def test_ground_state_dominance_at_low_t(self):
        value = total_number(M, math.log1p(0.01) - 100.0, 100.0)
        assert value == pytest.approx(100.0, rel=1e-10)

    def test_domain_error_propagates(self):
        with pytest.raises(ValueError):
            total_number(P, -1.0, 1.0)
        with pytest.raises(ValueError, match="levels"):
            total_number(P, 1.0, 1e-17)  # t = 1e17 needs ~2e9 levels, past MAX_LEVELS

    def test_monotone_decreasing_in_alpha(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = 10.0 ** rng.uniform(-3, 2)
            side = P if rng.integers(2) else M
            x0 = 10.0 ** rng.uniform(-3, 0.5)
            alphas = [x0 * f - b * side.ground_energy for f in (0.5, 1.0, 2.0, 4.0)]
            values = [total_number(side, a, b) for a in alphas]
            assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


class TestSolveAlpha:
    def test_single_particle_low_t(self):
        # one boson, deep condensate: alpha = log 2 - b e_1 up to an
        # exp(-20)/2 excited-state correction
        solution = solve_alpha(P, ThermoPoint(1, 0.1))
        assert solution.alpha == pytest.approx(math.log(2.0) - 2.5, abs=1e-9)
        assert solution.shifted_alpha > 0.0

    def test_low_t_shifted_alpha_limit(self):
        for side in (P, M):
            for n in (2, 100, 777):
                solution = solve_alpha(side, ThermoPoint(n, 0.01))
                assert abs(solution.shifted_alpha - math.log1p(1.0 / n)) <= 1e-6

    def test_constraint_residual(self):
        for t in (0.05, 1.0, 30.0, 2000.0):
            for side in (P, M):
                solution = solve_alpha(side, ThermoPoint(100, t))
                assert solution.residual <= 1e-10 * 100
                assert solution.shifted_alpha > 0.0
                assert solution.alpha == pytest.approx(
                    solution.shifted_alpha - side.ground_energy / t, rel=1e-12, abs=1e-12
                )

    def test_solution_reproduces_total_number(self):
        point = ThermoPoint(250, 7.5)
        for side in (P, M):
            solution = solve_alpha(side, point)
            assert total_number(side, solution.alpha, point.b) == pytest.approx(250.0, rel=1e-11)

    def test_plus_multiplier_exceeds_minus(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(round(10.0 ** rng.uniform(0, 3)))
            t = 10.0 ** rng.uniform(-2, 4)
            point = ThermoPoint(n, t)
            assert solve_alpha(P, point).alpha > solve_alpha(M, point).alpha

    def test_iteration_cap_raises_with_bracket(self):
        with pytest.raises(ConstraintSolverError) as excinfo:
            solve_alpha(P, ThermoPoint(100, 1e4), max_iter=3)
        assert len(excinfo.value.bracket) == 2

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            solve_alpha(P, ThermoPoint(10, 1.0), tol=0.0)

    def test_high_t_fugacity_consistency(self):
        # e^(-alpha) approaches the two-term fugacity expansion at a rate
        # b^(3/2): the scaled discrepancies at b = 1e-3 and 1e-4 agree
        # within a factor of 4
        for side in (P, M):
            scaled = {}
            for b in (1e-3, 1e-4):
                solution = solve_alpha(side, ThermoPoint(100, 1.0 / b))
                gap = abs(math.exp(-solution.alpha) - fugacity_expansion(side, 100, b).total)
                scaled[b] = gap / b**1.5
            ratio = max(scaled.values()) / min(scaled.values())
            assert ratio < 4.0
