import math
import tracemalloc

import numpy as np
import pytest

from boxforce import (
    ConstraintSolverError,
    SweepConfig,
    ThermoPoint,
    WellSide,
    fugacity_expansion,
    net_force,
    occupancy,
    occupation,
    solve_alpha,
    sweep,
    temperature_grid,
    total_number,
)
from boxforce.occupancy import (
    _TILE, DEFAULT_TOL, MAX_LEVELS, MIN_TOL, SPLIT_COST, SPLIT_FLOOR, RowSolutions, solve_rows,
)
from boxforce.spectrum import level_gap, offsets

from _oracles import (
    _bose_remainder, _mp_lattice, _mp_lattice_squares, bose_integral_quadrature, mp, mp_delta_f, mp_pole_slope,
    mp_remainder_integral,
)

P = WellSide.PLUS
M = WellSide.MINUS

# 1/(e - 1), pinned by extended-precision evaluation
OCCUPATION_AT_UNIT_EXPONENT = 0.5819767068693264
# 1 + 1/(2 e^20 - 1) + 1/(2 e^60 - 1), the two-level hand sum at b = 10
TWO_TERM_TOTAL = 1.0000000010305768


def direct_sums(plus, x, b, levels, chunk=1 << 16):
    """Plain numpy sum_n N_n, sum_n (e_n - e_1) N_n and sum_n N_n^2 over levels 1..levels, per x.

    Chunk totals are added exactly.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))[:, None]
    numbers, weighted, squares = [], [], []
    with np.errstate(over="ignore"):
        for lo in range(1, levels + 1, chunk):
            n = np.arange(lo, min(lo + chunk, levels + 1), dtype=np.float64)
            gap = n * (n - 1.0) if plus else (n - 1.0) * (n + 1.0)
            occ = 1.0 / np.expm1(x + b * gap)
            numbers.append(occ.sum(axis=1))
            weighted.append((occ * gap).sum(axis=1))
            squares.append((occ * occ).sum(axis=1))
    return np.array([[math.fsum(col) for col in zip(*parts)] for parts in (numbers, weighted, squares)])


def kernel_sums(kernel, x, plan):
    """A kernel's S, sum_n N_n^2 and sum_n (e_n - e_1) N_n at x, both lazy sums formed, on a plan of scale 1."""
    number, squares, moment = kernel(x, plan)
    return number, squares(), moment()


class TestThermoPoint:
    def test_inverse_temperature(self):
        point = ThermoPoint(100, 0.25)
        assert point.b == 4.0
        assert point.b * point.t == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "n, t",
        [(0, 1.0), (-5, 1.0), (1, 0.0), (1, -2.0), (1, math.inf), (1, 1e-310),
         (math.nan, 1.0), (math.inf, 1.0), (1, -1.0), (1, math.nan), (1, 1e-320),
         (10**400, 1.0), (1, 10**400)],  # ints past the float range
    )
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

    @pytest.mark.parametrize(
        "alpha, b, e",
        [(0.0, 1.0, 0.0), (-1.0, 1.0, 0.5), (-10.0, 0.1, 50.0), (math.nan, 1.0, 0.0),
         # b follows the t rule (check_domain) even where the exponent is positive
         (5.0, -1.0, 1.0), (5.0, 0.0, 1.0), (5.0, math.inf, 1.0), (5.0, 1e-320, 1.0)],
    )
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

    @pytest.mark.parametrize("xt", [10.0, 3e7])
    def test_wide_b_sums_as_one_integral(self, monkeypatch, xt):
        # t = 1e7: 20,001 levels, summed as one integral, by the pole split at
        # x t = 10 (alpha ~ 1e-6) and by the fugacity series at x t = 3e7
        # (alpha ~ 3)
        monkeypatch.setattr(occupancy, "_level_plan", None)  # a level plan would fail
        b = 1e-7
        levels = int(occupancy._cutoff(np.array([b]))[0])
        for side in (P, M):
            value = total_number(side, (xt - side.ground_energy) * b, b)
            expected = direct_sums(side is P, xt * b, b, levels)[0][0]
            assert value == pytest.approx(expected, rel=1e-14)

    def test_domain_error_propagates(self):
        with pytest.raises(ValueError):
            total_number(P, -1.0, 1.0)
        with pytest.raises(ValueError, match="levels"):
            total_number(P, 1.0, 1e-17)  # t = 1e17 needs ~2e9 levels, past MAX_LEVELS

    @pytest.mark.parametrize(
        "alpha, b", [(1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf), (1.0, 1e-320), (math.nan, 1.0)]
    )
    def test_rejects_bad_b_and_nan_alpha(self, alpha, b):
        # b = 1/t follows the t rule unchanged; 1/1e-320 overflows
        with pytest.raises(ValueError):
            total_number(P, alpha, b)

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
        # one solve per route and branch: levels (18), the fugacity series
        # (2,829 levels, alpha ~ 6.0; a one-row call splits past SPLIT_COST
        # levels) and the pole split (20,001 levels, alpha ~ 2.4e-5)
        for n, t, route in ((250, 7.5, "levels"), (1, 2e5, "fugacity"), (10**6, 1e7, "split")):
            point = ThermoPoint(n, t)
            for side in (P, M):
                solution = solve_alpha(side, point)
                wide = solve_rows((side,), n, point.b).wide[0]
                assert (("fugacity" if solution.alpha > 1.0 else "split") if wide else "levels") == route
                assert abs(total_number(side, solution.alpha, point.b) - n) <= DEFAULT_TOL * n

    def test_plus_multiplier_exceeds_minus(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(round(10.0 ** rng.uniform(0, 3)))
            t = 10.0 ** rng.uniform(-2, 4)
            point = ThermoPoint(n, t)
            assert solve_alpha(P, point).alpha > solve_alpha(M, point).alpha

    def test_iteration_cap_raises_with_bracket(self):
        # N = 100 at t = 1e4 needs 2 evaluations
        with pytest.raises(ConstraintSolverError) as excinfo:
            solve_alpha(P, ThermoPoint(100, 1e4), max_iter=1)
        assert len(excinfo.value.bracket) == 2
        # no evaluation: the bracket is (x0, the row's start), the start lying
        # above x0 at t = 1e4 and at x0 in the ground-state row at t = 0.03
        x0 = math.log1p(1e-2)
        for t in (1e4, 0.03):
            start = float(solve_rows((P,), 100, 1.0 / t, max_iter=0).shifted_alpha[0])
            with pytest.raises(ConstraintSolverError) as excinfo:
                solve_alpha(P, ThermoPoint(100, t), max_iter=0)
            assert excinfo.value.bracket == (x0, start)
            assert (start > x0) == (t > 1.0)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            solve_alpha(P, ThermoPoint(10, 1.0), tol=0.0)
        # and one below the floor MIN_TOL: float64 sums cannot meet |S - N| <=
        # 1e-16 N, so rows would run to max_iter and fail
        with pytest.raises(ValueError, match="1e-14"):
            solve_rows((P, M), 100, 1.0, tol=1e-16)

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


class TestSolveRowGroups:
    def test_batch_rows_match_one_row_solves(self):
        # both wells, from 1 level (t = 1e-3) past _TILE levels (t = 1e7) and
        # one row past MAX_LEVELS (t = 1e15), in an order that mixes them. In
        # the batch the rows over SPLIT_FLOOR levels (t = 1e3 to 1e7) are
        # split together; alone, a row is split past SPLIT_COST levels (t =
        # 1e7), so the rows at t = 1e3 and 1e5 change kernel with their call.
        # At N = 100 the split rows' roots at t >= 1e5 lie on the fugacity
        # series, at N = 1e6 all on the pole split
        t = np.repeat([1e-3, 0.3, 10.0, 1e3, 1e5, 1e7, 1e15], 2)
        sides = [P, M] * (len(t) // 2)
        order = np.random.default_rng(3).permutation(len(t))
        t = t[order]
        sides = [sides[i] for i in order]
        for n_particles in (100, 1_000_000):
            batch = solve_rows(sides, n_particles, 1.0 / t)
            assert batch.levels_used.min() == 1
            assert np.any((batch.levels_used > _TILE) & (batch.levels_used <= MAX_LEVELS))
            assert batch.levels_used.max() > MAX_LEVELS
            on_split = batch.wide
            np.testing.assert_array_equal(on_split, (t >= 1e3) & (t <= 1e7))
            fugacity = on_split & (t >= 1e5) if n_particles == 100 else np.zeros_like(on_split)
            assert (batch.alpha[fugacity] > 1.0).all() and (batch.alpha[on_split & ~fugacity] < 1.0).all()
            for i, (side, ti) in enumerate(zip(sides, t)):
                one = solve_rows((side,), n_particles, 1.0 / ti)
                assert one.wide[0] == (ti == 1e7)
                if not on_split[i]:  # a run of levels sums the same wherever it lies in its plan
                    for field in RowSolutions._fields[:-1]:  # the per-row arrays; nan past MAX_LEVELS
                        np.testing.assert_array_equal(getattr(batch, field)[i], getattr(one, field)[0])
                elif one.wide[0]:  # the split kernel sums a group's rows in one einsum
                    np.testing.assert_allclose(batch.alpha[i], one.alpha[0], rtol=1e-13, atol=0.0)
                    np.testing.assert_allclose(batch.force[i], one.force[0], rtol=1e-13, atol=0.0)
                    assert batch.iterations[i] == one.iterations[0]
                    assert batch.converged[i] == one.converged[0]
                else:  # split in the batch, on its levels alone: both meet the stop rule
                    assert batch.converged[i] and one.converged[0]
                    np.testing.assert_allclose(batch.force[i], one.force[0], rtol=1e-12, atol=0.0)

    def test_no_rows_and_rows_past_max_levels(self):
        # no row: every array empty. A row past MAX_LEVELS is in no plan; it
        # is reported unattempted, beside a row that solves
        empty = solve_rows([], 100, 1.0)
        assert all(getattr(empty, field).shape == (0,) for field in RowSolutions._fields[:-1])
        solved = solve_rows((P, M), 100, np.array([1.0, 1e-15]))
        assert solved.levels_used[1] > MAX_LEVELS
        assert solved.iterations.tolist() == [2, 0]
        assert solved.converged.tolist() == [True, False]

    def test_two_row_calls_split_past_1024_levels(self):
        # net_force's call, both wells at one t, whose cutoffs are equal: 2 x
        # 1,024 levels is SPLIT_COST, and both rows stay on their levels; one
        # level more and both are split
        for n_particles in (1, 100, 10**6):
            for levels, wide in ((1024, False), (1025, True)):
                b = 40.0 / (levels - 0.5) ** 2
                solved = solve_rows((P, M), n_particles, b)
                assert solved.levels_used.tolist() == [levels] * 2
                assert solved.wide.tolist() == [wide] * 2
                assert solved.converged.all()

    def test_rows_over_the_floor_split_together_past_split_cost(self):
        # the rows over SPLIT_FLOOR levels are split together once their
        # levels add up to more than SPLIT_COST, and all stay on their levels
        # up to it; the rows at or below the floor stay on their levels either
        # way. Four t of 256 levels, both wells, add up to SPLIT_COST exactly
        # (one t of 257 levels passes it by two), beside rows of 1 to 128 levels
        below = [0.01, 1.0, 100.0, 127.5**2 / 40.0]
        for over, wide in (([255.5**2 / 40.0] * 4, False), ([255.5**2 / 40.0] * 3 + [256.5**2 / 40.0], True)):
            t = np.array(below + over)
            for n_particles in (1, 100, 10**6):
                solved = solve_rows([P] * len(t) + [M] * len(t), n_particles, 1.0 / np.tile(t, 2))
                assert solved.levels_used[solved.levels_used > SPLIT_FLOOR].sum() == SPLIT_COST + 2 * wide
                np.testing.assert_array_equal(solved.wide, wide & (solved.levels_used > SPLIT_FLOOR))
                assert solved.converged.all()
        # the README high sweep (N = 100, t = 1 to 1e4, 300 points) in one
        # call: every row over the floor (t >= 409.6) is split
        t = np.repeat(temperature_grid(SweepConfig(t_min=1.0, t_max=1e4, grid_points=300)), 2)
        solved = solve_rows([P, M] * 300, 100, 1.0 / t)
        np.testing.assert_array_equal(solved.wide, t >= SPLIT_FLOOR**2 / occupancy.TAIL_EXPONENT)
        assert 0 < np.count_nonzero(solved.wide) < len(t) and solved.converged.all()

    def test_level_plans_hold_each_rows_own_levels(self):
        # the README mid and high sweeps and the large_n grid, both wells, in
        # one call, and net_force's two-row call (both wells, equal cutoffs)
        # at t = 10, 1e4 and 2.6e4: each level plan holds exactly its rows'
        # levels, run by run the gaps level_gap gives and their bases b (e_n -
        # e_1), and no plan passes _TILE unless it is a single row
        sweeps = [np.geomspace(0.01, 160, 400), np.geomspace(1.0, 1e4, 300), np.geomspace(1.0, 1e8, 100)]
        for t in (np.concatenate(sweeps), np.array([10.0]), np.array([1e4]), np.array([2.6e4])):
            b = np.repeat(1.0 / t, 2)
            sides = [P, M] * len(t)
            levels = occupancy._cutoff(b)
            seen = 0
            for kernel, plan, rows in occupancy._routes(offsets(sides), b, levels, 1.0):
                if kernel is occupancy._split_sums:
                    continue
                base, gap, counts, starts, _ = plan
                assert base.size == gap.size == counts.sum() <= _TILE or len(rows) == 1
                np.testing.assert_array_equal(starts, np.cumsum(counts) - counts)
                assert np.isfinite(base).all()
                np.testing.assert_array_equal(counts, levels[rows])
                for row, start, count in zip(rows, starts, counts):
                    run = slice(start, start + count)
                    n = np.arange(1.0, count + 1.0)
                    np.testing.assert_array_equal(gap[run], level_gap(sides[row], n))
                    np.testing.assert_array_equal(base[run], b[row] * gap[run])
                seen += len(rows)
            # the sweeps' rows over SPLIT_FLOOR levels add up to far more than
            # SPLIT_COST and are all split; net_force's two rows, at most 2 x
            # 1,020 levels, all stay on their levels
            assert seen == (np.count_nonzero(levels <= SPLIT_FLOOR) if len(t) > 1 else 2)
            if len(t) == 1:  # net_force's call: one plan of both rows, 21, 633 or 1,020 levels each
                assert len(rows) == 2 and levels[0] == levels[1]

    def test_mixed_group_sums_match_direct_sums(self):
        # 1-level rows between rows of ~1,000 levels, both wells, in one plan:
        # no run leaks into its neighbour, each row's sums being its own
        t = np.array([1e-3, 2.5e4, 0.02, 0.01, 2.6e4, 1e-2])
        sides = [P, M, M, P, P, M]
        plus = np.array([side is P for side in sides])
        levels = occupancy._cutoff(1.0 / t)
        assert sorted(levels.tolist()) == [1, 1, 1, 1, 1000, 1020]
        (kernel, plan, rows), = occupancy._routes(offsets(sides), 1.0 / t, levels, 1.0)
        assert kernel is occupancy._level_sums and sorted(rows.tolist()) == list(range(len(t)))
        x = np.array([0.01, 0.05, 0.2, 1.0, 0.02, 3.0])
        with np.errstate(over="ignore"):
            sums = kernel_sums(occupancy._level_sums, x[rows], plan)
        for row, number, squares, weighted in zip(rows, *sums):
            n = np.arange(1.0, levels[row] + 1.0)
            gap = (n - 1.0) * (n + (0.0 if plus[row] else 1.0))
            occ = 1.0 / np.expm1(x[row] + gap / t[row])
            for value, terms in ((number, occ), (squares, occ * occ), (weighted, occ * gap)):
                assert value == pytest.approx(math.fsum(terms), rel=1e-14, abs=0.0)

    def test_iteration_cap_counts_as_a_stop(self):
        # both wells at N = 100, b = 1e-4 converge on evaluation 2: a cap of 2
        # lets them, a cap of 1 stops them one evaluation short
        full = solve_rows((P, M), 100, 1e-4, max_iter=2)
        assert full.iterations.tolist() == [2, 2]
        assert full.converged.all()
        capped = solve_rows((P, M), 100, 1e-4, max_iter=1)
        assert capped.iterations.tolist() == [1, 1]
        assert not capped.converged.any()
        # a cap of 0 leaves both rows at their starts, above x0 here,
        # unevaluated; a cap of 1 evaluates them there
        none = solve_rows((P, M), 100, 1e-4, max_iter=0)
        first = solve_rows((P, M), 100, 1e-4, max_iter=1)
        np.testing.assert_array_equal(none.shifted_alpha, first.shifted_alpha)
        assert (none.shifted_alpha > math.log1p(1e-2)).all()
        assert np.isnan(none.residual).all() and np.isfinite(first.residual).all()
        assert none.iterations.tolist() == [0, 0]
        assert not none.converged.any()

    def test_lazy_sums_formed_only_when_read(self, monkeypatch):
        # per group, sum_n N_n^2 is formed on each evaluation a step follows,
        # every one but the last, and the force moment once, on the last: on
        # the README mid sweep and the large_n grid (level and split groups),
        # converged and stopped at max_iter = 1 and 2
        groups = []
        routes = occupancy._routes

        def grouped(*args):
            for kernel, plan, rows in routes(*args):
                route = "split" if kernel is occupancy._split_sums else "levels"
                groups.append((route, rows, []))
                yield kernel, plan, rows

        def spied(kernel):
            def evaluated(x, plan):
                number, squares, moment = kernel(x, plan)
                formed = {"squares": 0, "moment": 0}
                groups[-1][2].append(formed)

                def counted(name, sums):
                    formed[name] += 1
                    return sums()

                return number, lambda: counted("squares", squares), lambda: counted("moment", moment)

            return evaluated

        monkeypatch.setattr(occupancy, "_routes", grouped)
        for name in ("_level_sums", "_split_sums"):
            monkeypatch.setattr(occupancy, name, spied(getattr(occupancy, name)))
        routes_seen = set()
        for n_particles, t in ((100, np.geomspace(0.01, 160, 400)), (10**4, np.geomspace(1.0, 1e8, 100))):
            b = 1.0 / np.repeat(t, 2)
            for max_iter in (1, 2, occupancy.MAX_ITER):
                groups.clear()
                solved = solve_rows([P, M] * len(t), n_particles, b, max_iter=max_iter)
                assert solved.converged.all() or max_iter < 3
                for route, rows, evaluations in groups:
                    routes_seen.add(route)
                    count = len(evaluations)
                    assert count == solved.iterations[rows].max()
                    assert [formed["squares"] for formed in evaluations] == [1] * (count - 1) + [0]
                    assert [formed["moment"] for formed in evaluations] == [0] * (count - 1) + [1]
        assert routes_seen == {"levels", "split"}

    def test_stopped_rows_carry_the_force_where_they_stopped(self, monkeypatch):
        # the force moment is formed once per group, on its last evaluation; a
        # row stopped earlier is frozen at its x, so every row carries the
        # force at its returned x: rows stopped by the cap (N = 100, t = 1e4,
        # 633 levels, started 1e-3 above their start so that they take 3
        # evaluations to converge) and a row whose step is non-finite,
        # started at x = 700, where S rounds to nothing against N and
        # log1p(-1) = -inf, alone and beside a row that goes on stepping
        def check_forces(solved):
            for side, x, f in zip((P, M), solved.shifted_alpha, solved.force):
                n = np.arange(1.0, solved.levels_used[0] + 1.0)
                energy = (n - 0.5) ** 2 if side is P else n * n
                with np.errstate(over="ignore"):  # past x + b (e_n - e_1) ~ 709, where N_n is 0
                    occ = 1.0 / np.expm1(x + 1e-4 * (energy - side.ground_energy))
                assert f == pytest.approx(math.fsum(energy * occ), rel=1e-14, abs=0.0)

        start = occupancy._start
        monkeypatch.setattr(occupancy, "_start", lambda *args: start(*args) * (1.0 + 1e-3))
        for max_iter in (1, 2):
            capped = solve_rows((P, M), 100, 1e-4, max_iter=max_iter)
            assert capped.iterations.tolist() == [max_iter] * 2 and not capped.converged.any()
            check_forces(capped)
        for far in ([True, True], [True, False]):
            far = np.array(far)
            monkeypatch.setattr(occupancy, "_start", lambda *args, far=far: np.where(far, 700.0, start(*args)))
            solved = solve_rows((P, M), 100, 1e-4)
            assert (solved.shifted_alpha[far] == 700.0).all() and (solved.iterations[far] == 1).all()
            np.testing.assert_array_equal(solved.converged, ~far)
            check_forces(solved)

    @pytest.mark.parametrize("n_particles", [10**160, 10**200, 10**300], ids=["1e160", "1e200", "1e300"])
    def test_level_rows_past_the_square_overflow_converge(self, monkeypatch, n_particles):
        # above N ~ 1.3e154 sum_n N_n^2 overflows unscaled, so Newton could
        # not step (_routes); started off their roots, level rows (t up to
        # 2e4, both wells) still converge within 6 evaluations. The rows up
        # to SPLIT_FLOOR levels are one call; those over it are each a
        # two-row call, which keeps them on their levels
        start = occupancy._start
        t = np.geomspace(1e-3, 2e4, 100)
        below = t[occupancy._cutoff(1.0 / t) <= SPLIT_FLOOR]
        for factor in (1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-3):
            monkeypatch.setattr(occupancy, "_start", lambda *args, factor=factor: start(*args) * factor)
            for grid in (below, *t[below.size:, None]):
                solved = solve_rows([P, M] * len(grid), n_particles, 1.0 / np.repeat(grid, 2))
                assert not solved.wide.any()
                assert solved.converged.all()
                assert solved.iterations.max() <= 6

    @pytest.mark.parametrize("n_particles", [10**160, 10**200, 10**300], ids=["1e160", "1e200", "1e300"])
    def test_split_rows_past_the_square_overflow_converge(self, monkeypatch, n_particles):
        # the same for wide rows (t from 3e4 to 2e14), whose lattice sum of
        # squares, ~1/p^2, takes the scale c before squaring (_lattice)
        start = occupancy._start
        t = np.geomspace(3e4, 2e14, 100)
        for factor in (1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-3):
            monkeypatch.setattr(occupancy, "_start", lambda *args, factor=factor: start(*args) * factor)
            solved = solve_rows([P, M] * 100, n_particles, 1.0 / np.repeat(t, 2))
            assert solved.wide.all()
            assert solved.converged.all()
            assert solved.iterations.max() <= 6

    def test_scaled_sums_are_the_unscaled_ones_times_c(self):
        # a plan at solve_rows' scale c = 2^-e, e the binary exponent of N,
        # gives c times the sums of the same plan at scale 1, bit for bit, on
        # both routes and both wide branches, up to N = 1e150 where sum_n N_n^2 is still finite
        # unscaled (c ~ 2^-499 there), at the rows' roots and off them; so
        # Newton's step c S / (c sum_n N_n^2 + c S) is the unscaled one
        t = np.geomspace(1e-3, 1e8, 120)
        b = np.repeat(1.0 / t, 2)
        offset = offsets([P, M] * len(t))
        levels = occupancy._cutoff(b)
        routes_seen = set()
        for n_particles in (1, 100, 10**4, 10**150):
            scale = math.ldexp(1.0, -math.frexp(n_particles)[1])
            solved = solve_rows([P, M] * len(t), n_particles, b)
            roots = solved.shifted_alpha
            routes = zip(*(occupancy._routes(offset, b, levels, c) for c in (scale, 1.0)))
            for (kernel, plan, rows), (_, plain, _) in routes:
                wide = kernel is occupancy._split_sums
                routes_seen.update(np.where(solved.alpha[rows] > 1.0, "fugacity", "split") if wide else ["levels"])
                for x in (roots[rows], roots[rows] * (1.0 + 1e-3)):
                    with np.errstate(over="ignore"):
                        number, squares, moment = kernel(x, plan)
                        unscaled, unscaled_squares, unscaled_moment = kernel(x, plain)
                        np.testing.assert_array_equal(number, scale * unscaled)
                        np.testing.assert_array_equal(squares(), scale * unscaled_squares())
                        np.testing.assert_array_equal(moment(), scale * unscaled_moment())
        assert routes_seen == {"levels", "split", "fugacity"}

    def test_rows_stopping_apart_match_one_row_solves(self):
        # in each group the rows stop on different evaluations, each staying
        # frozen in the plan until the last stops; a cap one short of the
        # slowest row stops the slower ones unconverged. Every row starts
        # above x0, at its model's root, but the ground-state row at t = 0.05,
        # whose levels 2 to 4 hold less than half an ulp of N at x0
        # (_low_t_start): the first group holds rows of all three models
        groups = [
            # 2 to 448 levels a row, each row's run its own
            (100, (M, P, P, M, P, M), (0.05, 0.2, 1.0, 3.0, 1e3, 5e3), occupancy._level_sums, [1, 1, 2, 3, 2, 2]),
            # wide rows started at the fugacity model's root, some of whose
            # roots lie on the pole split (alpha < 1), some on the fugacity
            # series (alpha > 1)
            (100, (P, M, P, M, P), (3e4, 3e4, 1e7, 1e11, 1e11), occupancy._split_sums, [2, 2, 2, 2, 2]),
            # wide rows by the pole split alone; at N = 1e4 every such row
            # stops on evaluation 2, while at t ~ 3e-9 N the start already
            # lies within tol of the root
            (10**14, (M, P, P, M, M), (3e5, 3e5, 1e8, 1e8, 1e9), occupancy._split_sums, [1, 1, 2, 2, 2]),
        ]
        for n_particles, sides, t, kernel, iterations in groups:
            b = 1.0 / np.array(t)
            x0 = math.log1p(1.0 / n_particles)
            (routed_kernel, _, _), = occupancy._routes(offsets(sides), b, occupancy._cutoff(b), 1.0)  # one group
            assert routed_kernel is kernel
            modelled = np.array(t) > 0.05
            np.testing.assert_array_equal(solve_rows(sides, n_particles, b, max_iter=0).shifted_alpha > x0, modelled)
            batch = solve_rows(sides, n_particles, b)
            assert batch.converged.all()
            assert batch.iterations.tolist() == iterations
            for i, (side, bi) in enumerate(zip(sides, b)):
                one = solve_rows((side,), n_particles, bi)
                if kernel is occupancy._split_sums:  # the split kernel sums a group's rows in one einsum
                    np.testing.assert_allclose(batch.alpha[i], one.alpha[0], rtol=1e-13, atol=0.0)
                    np.testing.assert_allclose(batch.force[i], one.force[0], rtol=1e-13, atol=0.0)
                    for field in ("levels_used", "iterations", "converged"):
                        assert getattr(batch, field)[i] == getattr(one, field)[0]
                else:  # a run of levels sums the same wherever it lies in its plan
                    for field in RowSolutions._fields[:-1]:  # the per-row arrays
                        np.testing.assert_array_equal(getattr(batch, field)[i], getattr(one, field)[0])
            cap = max(iterations) - 1
            capped = solve_rows(sides, n_particles, b, max_iter=cap)
            assert capped.iterations.tolist() == [min(count, cap) for count in iterations]
            np.testing.assert_array_equal(capped.converged, batch.iterations <= cap)

    def test_plan_built_once_per_group(self, monkeypatch):
        # both wells at N = 100, t = 1e4 share one group of 2 x 633 levels
        calls = []
        level_plan = occupancy._level_plan

        def counted(plus, b, levels, ends, scale):
            calls.append(len(b))
            return level_plan(plus, b, levels, ends, scale)

        monkeypatch.setattr(occupancy, "_level_plan", counted)
        assert solve_rows((P, M), 100, 1e-4).iterations.tolist() == [2, 2]
        calls.clear()
        net_force(ThermoPoint(100, 1e4))
        full = len(calls)
        calls.clear()
        short = solve_rows((P, M), 100, 1e-4, max_iter=1)
        assert short.iterations.tolist() == [1, 1]
        assert not short.converged.any()
        assert len(calls) == full > 0
        assert calls == [2]  # one group of both rows, one build

    def test_wide_rows_near_condensation_build_one_split_plan(self, monkeypatch):
        # N = 1e6 at t = 1e7: ~2e4 levels, more than _TILE, so both rows take
        # the split kernel, one group whose plan is built once for all its
        # evaluations
        built = []
        split_plan = occupancy._split_plan

        def counted(ground, b, scale):
            built.append(len(b))
            return split_plan(ground, b, scale)

        monkeypatch.setattr(occupancy, "_split_plan", counted)
        monkeypatch.setattr(occupancy, "_level_plan", None)  # a level plan would fail
        t = 1e7
        solved = solve_rows((P, M), 1_000_000, 1.0 / t)
        assert (solved.levels_used > _TILE).all()
        assert solved.wide.all()
        assert solved.converged.all()
        assert solved.iterations.min() > 1
        assert built == [2]  # one group of both rows, one build
        for side, x in zip((P, M), solved.shifted_alpha):
            number = direct_sums(side is P, x, 1.0 / t, int(solved.levels_used[0]))[0]
            assert abs(number[0] - 1e6) <= DEFAULT_TOL * 1e6

    def test_every_row_converges_within_three_evaluations(self, monkeypatch):
        # the step bound over the accepted domain: N from 1 to 1e300, t from
        # 1e-300 to 2e14 (under MAX_LEVELS), every row within 3 evaluations
        # on this grid (test_latin_hypercube_rows_converge_within_four_evaluations
        # finds the worst, 4), both wells, both routes and both
        # branches of the wide one. At every evaluation x >= x0, which keeps a
        # wide row's alpha above -b e_1, so that alpha <= 1 is |alpha| <= 1,
        # the domain where the pole split's series reach rounding
        # (SPLIT_FLOOR). The first evaluation sits at
        # each row's start, the x a cap of 0 reports: its model's root, x0
        # where the low-t model's root rounds to it. A stopped row stays frozen in its
        # group's plan; so the clamp at x0 never acts when, from a group's
        # second evaluation on, its rows at x0 are exactly those that started
        # there and stopped on the first. The bounds hold at the default
        # tolerance and at the floor MIN_TOL
        seen = {"series": 0, "fugacity": 0}
        routes, level_sums, split_sums = occupancy._routes, occupancy._level_sums, occupancy._split_sums

        def grouped(*args):
            for kernel, plan, rows in routes(*args):
                seen["rows"], seen["evaluation"] = rows, 0
                yield kernel, plan, rows

        def checked(x):
            assert (x >= seen["x0"]).all()
            seen["evaluation"] += 1
            if seen["evaluation"] == 1:
                np.testing.assert_array_equal(x, seen["start"][seen["rows"]])
            else:
                seen["later"].append((seen["rows"], x == seen["x0"]))

        def level_checked(x, plan):
            checked(x)
            return level_sums(x, plan)

        def split_checked(x, plan):
            checked(x)
            t, ground = plan[0][:2]
            fugacity = np.count_nonzero(x - ground / t > occupancy._FUGACITY_ALPHA)
            seen["fugacity"] += fugacity
            seen["series"] += x.size - fugacity
            return split_sums(x, plan)

        monkeypatch.setattr(occupancy, "_routes", grouped)
        monkeypatch.setattr(occupancy, "_level_sums", level_checked)
        monkeypatch.setattr(occupancy, "_split_sums", split_checked)
        b = 1.0 / np.repeat(np.geomspace(1e-300, 2e14, 400), 2)
        frozen_at_x0 = modelled = 0
        for n_particles in (1, 10, 100, 10**4, 10**6, 10**9, 10**15, 10**30, 10**100, 10**300):
            x0 = seen["x0"] = math.log1p(1.0 / float(n_particles))
            start = seen["start"] = solve_rows([P, M] * 400, n_particles, b, max_iter=0).shifted_alpha
            for tol in (DEFAULT_TOL, MIN_TOL):
                seen["later"] = []
                solved = solve_rows([P, M] * 400, n_particles, b, tol)
                assert (solved.levels_used <= MAX_LEVELS).all()
                assert solved.converged.all()
                assert solved.iterations.max() <= 3
                for rows, at_x0 in seen["later"]:
                    np.testing.assert_array_equal(at_x0, (start[rows] == x0) & (solved.iterations[rows] == 1))
                    frozen_at_x0 += np.count_nonzero(at_x0)
            modelled += np.count_nonzero(start > x0)
        assert frozen_at_x0 and modelled and seen["series"] and seen["fugacity"]

    def test_latin_hypercube_rows_converge_within_four_evaluations(self):
        # a seeded Latin hypercube in (log N, log t) over N = 1 to 1e4 and t =
        # 1e-3 to 1e4, one two-row call a point as net_force makes it: every
        # row converges within 4 evaluations at DEFAULT_TOL and at MIN_TOL,
        # 1.68 a row on average at DEFAULT_TOL (2.17, and at most 6, when rows
        # outside the pole model's window started at x0). The rows that take 4 lie at N ~ 1 to
        # 10 and t ~ 1 to 25, where A is too small for the fugacity model and
        # alpha too large for the pole model
        rng = np.random.default_rng(2003)
        size = 1000
        log_n, log_t = ((rng.permutation(size) + rng.random(size)) / size for _ in range(2))
        points = list(zip(np.floor(10.0 ** (4.0 * log_n)).astype(int).tolist(), 10.0 ** (7.0 * log_t - 3.0)))
        for tol, mean_bound in ((DEFAULT_TOL, 1.7), (MIN_TOL, 1.85)):
            solved = [solve_rows((P, M), n_particles, 1.0 / t, tol) for n_particles, t in points]
            iterations = np.concatenate([rows.iterations for rows in solved])
            assert all(rows.converged.all() for rows in solved)
            assert iterations.max() == 4
            assert iterations.mean() <= mean_bound

    def test_ground_state_rows_keep_x0_and_stop_on_the_first_evaluation(self):
        # up to t ~ 0.07 at any N >= 1 the excited levels hold less than
        # tol N at x0, so a row started there stops on its first evaluation;
        # the pole model, off by ~0.1 particle near the ground state, would
        # not. Below START_T every row starts at the low-t model's root, which
        # is x0 bit for bit where levels 2 to 4 hold less than half an ulp of
        # N: t <= 0.03 at N = 1 to 1e4 (the scalar_random workload's
        # ground-state rows) and the README low sweep (N = 100) up to t =
        # 0.06. That sweep stops on evaluation 1 up to t = 0.29 and on
        # evaluation 2 above it
        for n_particles in (1, 10, 100, 1000, 10**4):
            b = 1.0 / np.repeat(np.geomspace(1e-3, 0.03, 50), 2)
            np.testing.assert_array_equal(solve_rows([P, M] * 50, n_particles, b, max_iter=0).shifted_alpha,
                                          math.log1p(1.0 / n_particles))
            assert solve_rows([P, M] * 50, n_particles, b).iterations.tolist() == [1] * 100
        t = np.repeat(temperature_grid(SweepConfig(t_min=0.01, t_max=1.0, grid_points=200)), 2)
        assert t.max() < occupancy.START_T
        starts = solve_rows([P, M] * 200, 100, 1.0 / t, max_iter=0).shifted_alpha
        np.testing.assert_array_equal(starts[t <= 0.06], math.log1p(1e-2))
        assert (starts >= math.log1p(1e-2)).all()
        iterations = solve_rows([P, M] * 200, 100, 1.0 / t).iterations
        assert (iterations[t <= 0.29] == 1).all() and iterations.max() == 2

    @pytest.mark.parametrize("n_particles", [int(5e307), int(1.7e308), 2**1023], ids=["5e307", "1.7e308", "2^1023"])
    def test_overflowing_model_root_starts_at_x0(self, n_particles):
        # past N ~ 5e307 the pole model's linear term overflows inside its
        # window (t >= START_T) and its root is nan; such a row starts at x0,
        # as rows outside the window do, and there x0 lies within tol of the
        # root: every row (t from 1e-3 to 2e4, both wells) stops converged on
        # its first evaluation
        t = np.repeat(np.geomspace(1e-3, 2e4, 100), 2)
        np.testing.assert_array_equal(solve_rows([P, M] * 100, n_particles, 1.0 / t, max_iter=0).shifted_alpha,
                                      math.log1p(1.0 / n_particles))
        solved = solve_rows([P, M] * 100, n_particles, 1.0 / t)
        assert solved.converged.all() and (solved.iterations == 1).all()
        assert net_force(ThermoPoint(n_particles, 2.0)).delta_f == pytest.approx(0.75 * n_particles, rel=1e-12)

    def test_start_cuts_evaluations_on_the_benchmark_grids(self, monkeypatch):
        # evaluations per row and kernel calls per solve, both wells in one
        # call as sweep() solves them; from x0 the means were 4.25 and 4.49
        # and the calls 21 and 34 on the large_n grid (N = 1e4, t = 1 to 1e8)
        # and the README high sweep (N = 100, t = 1 to 1e4). With the pole
        # model alone (x0 outside its window) the large_n grid's 26 widest
        # rows took 3 evaluations, and its solve 5 kernel calls; with the
        # fugacity model every row stops by its second evaluation
        calls = []
        for name in ("_level_sums", "_split_sums"):
            kernel = getattr(occupancy, name)
            monkeypatch.setattr(occupancy, name, lambda x, plan, kernel=kernel: calls.append(x.size) or kernel(x, plan))
        for n_particles, t_max, points, most, mean_bound, calls_bound in ((10**4, 1e8, 100, 2, 2.0, 4),
                                                                          (100, 1e4, 300, 3, 2.05, 5)):
            t = np.array(temperature_grid(SweepConfig(t_min=1.0, t_max=t_max, grid_points=points)))
            calls.clear()
            solved = solve_rows([P] * points + [M] * points, n_particles, 1.0 / np.concatenate((t, t)))
            assert solved.converged.all()
            assert solved.iterations.max() <= most
            assert solved.iterations.mean() <= mean_bound
            assert len(calls) <= calls_bound

    def test_plan_memory_stays_bounded(self):
        # groups are solved one at a time, so only one group's plan, a few
        # _TILE-sized arrays, is alive at once (peak ~0.5 MiB with numpy 2.4)
        config = SweepConfig(n_particles=10_000, t_min=1.0, t_max=1e8, grid_points=100)
        tracemalloc.start()
        try:
            rows = sweep(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(row.status == "ok" for row in rows)
        assert peak < 4 * 2**20


class TestSplitRoute:
    """Rows wider than SPLIT_FLOOR, summed as one integral by _split_sums."""

    @pytest.mark.parametrize("n_particles", [1, 100, 10_000, 1_000_000])
    def test_wide_sums_match_direct_sums_on_both_branches(self, n_particles):
        # the wide-row kernel's error budget (SPLIT_FLOOR): Poisson remainder,
        # series tails and discarded level tail all lie below rounding on both
        # branches and at the seam between them, alpha = 1 +- 1e-12, from x0 t
        # = 100 or the SPLIT_FLOOR threshold to t = 1e12 (6.3e6 levels), at
        # the start, the root and x = 5
        x0 = math.log1p(1.0 / n_particles)
        threshold = max(100.0 / x0, SPLIT_FLOOR**2 / occupancy.TAIL_EXPONENT)
        for t in np.geomspace(threshold * 1.001, 1e12, 3):
            b = 1.0 / t
            levels = occupancy._cutoff(np.array([b]))
            assert (levels > SPLIT_FLOOR).all()
            roots = solve_rows((P, M), n_particles, b).shifted_alpha
            for side, root in zip((P, M), roots):
                x = np.array([x0, root, 5.0, 1.0 - 1e-12, 1.0 + 1e-12])
                x[3:] += b * side.ground_energy
                with np.errstate(over="ignore"):
                    sums = kernel_sums(
                        occupancy._split_sums, x, occupancy._split_plan(np.full(5, side.offset), np.full(5, b), 1.0)
                    )
                expected = direct_sums(side is P, x, b, int(levels[0]))
                for got, want in zip(sums, expected[[0, 2, 1]]):  # S, sum_n N_n^2, sum_n (e_n - e_1) N_n
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_routed_rows_satisfy_the_exact_constraint(self, monkeypatch):
        # the large_n grid: N = 1e4, 100 log-spaced t in [1, 1e8], both wells
        n_particles = 10_000
        t = np.repeat(np.geomspace(1.0, 1e8, 100), 2)
        sides = [P, M] * 100
        nodes = solve_rows(sides, n_particles, 1.0 / t)
        wide = nodes.wide
        assert 0 < np.count_nonzero(wide) < len(t)
        assert nodes.converged.all()
        for i in np.flatnonzero(wide):
            number, _, _ = direct_sums(sides[i] is P, nodes.shifted_alpha[i], 1.0 / t[i], int(nodes.levels_used[i]))
            assert abs(number[0] - n_particles) <= DEFAULT_TOL * n_particles
        monkeypatch.setattr(occupancy, "SPLIT_FLOOR", MAX_LEVELS)  # every row on its levels
        levels = solve_rows(sides, n_particles, 1.0 / t)
        np.testing.assert_array_equal(nodes.iterations, levels.iterations)
        np.testing.assert_array_equal(nodes.converged, levels.converged)
        np.testing.assert_array_equal(nodes.levels_used, levels.levels_used)
        np.testing.assert_allclose(nodes.alpha, levels.alpha, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(nodes.force, levels.force, rtol=1e-13, atol=0.0)

    def test_routed_point_matches_mp_oracle(self, monkeypatch):
        # with the level threshold lowered, N = 1 at t = 145 (77 levels) is
        # summed as one integral far below the real threshold: its root, alpha
        # ~ 2.4 on the fugacity series, lies d = sqrt(alpha t) ~ 19 from its
        # nearest pole, and the pole split's remainder ~sqrt(pi t) ~ 21
        calls = []
        split_plan = occupancy._split_plan

        def counted(*args):
            calls.append(args)
            return split_plan(*args)

        monkeypatch.setattr(occupancy, "_split_plan", counted)
        monkeypatch.setattr(occupancy, "SPLIT_FLOOR", 0)
        monkeypatch.setattr(occupancy, "SPLIT_COST", 0)
        t = 145.0
        pair = net_force(ThermoPoint(1, t))
        assert calls
        assert pair.delta_f == pytest.approx(float(mp_delta_f(1, t)), rel=1e-9)

    def test_smallest_routed_point_matches_mp_oracle(self):
        # the smallest routed point at N = 1 with the real threshold: 1,026
        # levels, both wells' roots on the fugacity series
        t = 26_300.0
        levels = occupancy._cutoff(np.array([1.0 / t]))
        solved = solve_rows((P, M), 1, 1.0 / t)
        assert solved.wide.all() and (solved.alpha > 1.0).all()
        pair = net_force(ThermoPoint(1, t))
        assert pair.delta_f == pytest.approx(float(mp_delta_f(1, t)), rel=1e-9)


class TestSplitPlan:
    @pytest.mark.parametrize("n_particles", [1_000, 10_000, 10**6, 10**8, 10**12, 10**16])
    def test_split_sums_match_direct_sums(self, n_particles):
        # the split's error budget (SPLIT_FLOOR): closed-form pole sum and
        # series of the remainder, its derivative and the force moment all
        # lie at rounding, from the SPLIT_FLOOR threshold to just under x0 t =
        # 100, near condensation (capped at t = 1e10, 6.3e5 levels, for the
        # direct sums), and from the threshold to t = 2e4, where the
        # degenerate rows' alpha < 0 takes the powers of |alpha| and the
        # lattice's zeta series, at the start, the root and three times the root
        x0 = math.log1p(1.0 / n_particles)
        threshold = SPLIT_FLOOR**2 / occupancy.TAIL_EXPONENT
        top = min(99.9 / x0, 1e10)
        below_ground = 0
        for t in np.concatenate((np.geomspace(threshold * 1.001, top, 3), np.geomspace(threshold * 1.01, 2e4, 4))):
            b = 1.0 / t
            levels = occupancy._cutoff(np.array([b]))
            assert (levels > SPLIT_FLOOR).all()
            roots = solve_rows((P, M), n_particles, b).shifted_alpha
            for side, root in zip((P, M), roots):
                x = np.array([x0, root, 3.0 * root])
                below_ground += np.count_nonzero(x * t < side.ground_energy)  # alpha < 0
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    number, squares, weighted = kernel_sums(
                        occupancy._split_sums, x, occupancy._split_plan(np.full(3, side.offset), np.full(3, b), 1.0)
                    )
                expected = direct_sums(side is P, x, b, int(levels[0]))
                np.testing.assert_allclose(number, expected[0], rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(weighted, expected[1], rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(squares, expected[2], rtol=1e-14, atol=0.0)
        if n_particles >= 10**6:
            assert below_ground
        if n_particles == 10**16:  # t = 1e10: x t ~ 1e-6, next to the ground-state pole
            assert 0 < root * t < 1e-5

    def test_split_point_matches_mp_oracle(self):
        # the smallest degenerate wide point at N = 1,000: 1,026 levels and
        # x0 t ~ 26.3, so both wells run on the pole split
        t = 26_300.0
        levels = occupancy._cutoff(np.array([1.0 / t]))
        assert levels[0] == 1_026
        assert solve_rows((P, M), 1_000, 1.0 / t).wide.all()
        pair = net_force(ThermoPoint(1_000, t))
        assert pair.delta_f == pytest.approx(float(mp_delta_f(1_000, t)), rel=1e-9)

    def test_lattice_matches_mpmath(self):
        # Phi and -Phi' on both branches against the closed form and its exact
        # derivative: a dense grid from p = 1e-14 to 1e8, p = 2 +- 1e-12 (the
        # seam A = 1) and p = 1 +- 1e-9 and 1 +- 5e-15 (A ~ 0, where the oracle
        # adds the digits its closed form cancels). The worst errors on 40,000
        # points over the same range were 5.1e-16 and 1.02e-15, just above the
        # seam, where the closed form cancels; 2.2e-16 and 4.4e-16 below it
        p = np.concatenate((
            np.geomspace(1e-14, 1e8, 1201), np.linspace(0.002, 4.0, 1201),
            2.0 + np.linspace(-1e-12, 1e-12, 9), 1.0 + np.linspace(-1e-9, 1e-9, 8), [1.0 - 5e-15, 1.0 + 5e-15],
        ))
        with np.errstate(over="ignore"):  # sinh overflows at large A, where its term is 0
            phi, squares = occupancy._lattice(p)
            squares = squares()
        oracles = (_mp_lattice, _mp_lattice_squares)
        expected = np.array([[float(oracle(mp.mpf(v) - 1)) for v in p] for oracle in oracles])
        np.testing.assert_allclose(phi, expected[0], rtol=6e-16, atol=0.0)
        np.testing.assert_allclose(squares, expected[1], rtol=1.2e-15, atol=0.0)
        # below p ~ 1e-154, -Phi' ~ 2/p^2 overflows; scaled by c = 2^-1000
        # before squaring it is finite and c times mpmath's value
        scale = math.ldexp(1.0, -1000)
        p = np.array([1e-160, 3e-200, 1e-250, 2e-300])
        phi, squares = occupancy._lattice(p, scale)
        squares = squares()
        assert np.isfinite(squares).all()
        for v, got_phi, got_squares in zip(p, phi, squares):
            with mp.workdps(340):  # A = p - 1 resolves p
                a2 = mp.mpf(v) - 1
                exact_phi, exact_squares = _mp_lattice(a2), scale * _mp_lattice_squares(a2)
            assert got_phi == pytest.approx(float(exact_phi), rel=6e-16)
            assert got_squares == pytest.approx(float(exact_squares), rel=1.2e-15)

    def test_split_sums_at_the_seam_match_direct_sums(self):
        # alpha = 1 - 1e-12 and 1 on the pole split, where its pole sum and
        # its remainder's cancel most, and 1 + 1e-12 on the fugacity series,
        # from the SPLIT_FLOOR threshold to t = 1e10, both wells. Each series
        # is summed from its highest power down; from the lowest up the pole
        # split read 2.7e-15, 6.0e-15 and 6.4e-15 here in S, sum_n N_n^2 and
        # sum_n (e_n - e_1) N_n, and the fugacity series 1.1e-15 in sum_n N_n^2
        threshold = SPLIT_FLOOR**2 / occupancy.TAIL_EXPONENT
        alphas = np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
        bounds = {True: (2e-15, 4e-15, 5e-15), False: (1e-15, 1e-15, 1e-15)}  # pole split, fugacity series
        for t in np.geomspace(threshold * 1.001, 1e10, 30):
            b = 1.0 / t
            levels = int(occupancy._cutoff(np.array([b]))[0])
            for side in (P, M):
                x = alphas + b * side.ground_energy
                plan = occupancy._split_plan(np.full(3, side.offset), np.full(3, b), 1.0)
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    got = kernel_sums(occupancy._split_sums, x, plan)  # S, squares, moment
                expected = direct_sums(side is P, x, b, levels)[[0, 2, 1]]
                for row, split in enumerate((True, True, False)):
                    for value, exact, bound in zip(got, expected, bounds[split]):
                        assert value[row] == pytest.approx(exact[row], rel=bound, abs=0.0)

    def test_series_tables_match_mpmath(self):
        # the hard-coded (sqrt(pi)/2) zeta(3/2 - j), Bernoulli numbers and zeta(2k + 2) - 1, correctly rounded
        assert len(occupancy._HALF_ZETA) == len(occupancy._BERNOULLI) == occupancy._SPLIT_TERMS + 2
        for j, value in enumerate(occupancy._HALF_ZETA):
            assert value == float(mp.sqrt(mp.pi) / 2 * mp.zeta(mp.mpf(3) / 2 - j))
        for n, value in enumerate(occupancy._BERNOULLI):
            assert value == float(mp.bernoulli(n))
        assert len(occupancy._ZETA_TAIL) == occupancy._LATTICE_TERMS + 1
        for k, value in enumerate(occupancy._ZETA_TAIL):
            assert value == float(mp.zeta(2 * k + 2) - 1)

    def test_series_match_mp_integrals(self):
        # the six series of _split_sums on |alpha| <= 1, the domain their
        # length is chosen for (SPLIT_FLOOR): R, -R' and the integral of
        # z/expm1(z) against quadrature, and the n = 0 image terms -r/2, r'/2
        # and -alpha/expm1(alpha)/2 against mpmath; -1/409.6 is the least
        # alpha of a wide row, 1 the edge of the fugacity series
        alphas = np.array([-0.999, -0.5, -1 / 409.6, -1 / 26_214.4, 0.0, 1e-9, 0.01, 0.1, 0.302, 0.5, 0.75, 1.0])
        powers = occupancy._powers(alphas, occupancy._SPLIT_POWERS, occupancy._SPLIT_ODD)
        series = np.einsum("ck,kr->cr", occupancy._SPLIT_SERIES, powers)
        for a, got in zip(alphas, series.T):
            z = mp.mpf(a)
            image = mp.mpf(1) if a == 0.0 else z / mp.expm1(z)
            expected = [
                mp_remainder_integral(0, a), -mp_remainder_integral(1, a), bose_integral_quadrature(a),
                -_bose_remainder(z, 0) / 2, _bose_remainder(z, 1) / 2, -image / 2,
            ]
            np.testing.assert_allclose(got, [float(e) for e in expected], rtol=1e-15, atol=0.0)

    def test_split_rows_stay_inside_the_series_domain(self, monkeypatch):
        # every iterate the pole split sums has -b e_1 < alpha <= 1, where its
        # series reach rounding (SPLIT_FLOOR): the clamp at x0 bounds alpha
        # below, and the fugacity series takes every iterate past 1. From N =
        # 1, whose roots lie far out on the fugacity series, to N = 1e12, near
        # condensation, rows converge across the seam, most of them started
        # on the other side of it
        seen = {"_series_sums": [], "_fugacity_sums": []}
        for name, alphas in seen.items():
            branch = getattr(occupancy, name)
            monkeypatch.setattr(occupancy, name, lambda x, alpha, *args, branch=branch, alphas=alphas:
                                alphas.append(alpha) or branch(x, alpha, *args))
        threshold = SPLIT_FLOOR**2 / occupancy.TAIL_EXPONENT
        t = np.geomspace(threshold * 1.000001, 1e10, 40)
        for n_particles in (1, 100, 262, 1_000, 10**4, 10**6, 10**12):
            for tol in (DEFAULT_TOL, MIN_TOL):
                assert solve_rows([P, M] * 40, n_particles, 1.0 / np.repeat(t, 2), tol).converged.all()
        series, fugacity = (np.concatenate(alphas) for alphas in seen.values())
        assert -1.0 / threshold < series.min() and series.max() <= 1.0 < fugacity.min()

    def test_split_sums_are_each_branchs_own(self):
        # on a group all on the pole split (the large_n grid's wide rows at
        # their roots), all on the fugacity series (N = 1's roots) and mixed
        # (both sets of rows in one plan), _split_sums' three sums are, bit
        # for bit, what each branch returns for its own rows alone, gathered
        # out of the plan
        t = np.repeat(np.geomspace(3e4, 1e8, 20), 2)
        offset = np.tile([P.offset, M.offset], 20)
        split, fugacity = (solve_rows([P, M] * 20, n, 1.0 / t).shifted_alpha for n in (10**4, 1))
        scale = math.ldexp(1.0, -14)  # solve_rows' scale at N = 1e4
        kinds = []
        for x, t_rows, offset_rows in ((split, t, offset), (fugacity, t, offset),
                                       (np.concatenate((split, fugacity)), np.tile(t, 2), np.tile(offset, 2))):
            plan = occupancy._split_plan(offset_rows, 1.0 / t_rows, scale)
            rows = plan[0]
            xt = x * rows[0]  # t = 1/b and e_1, as the plan holds them
            alpha = (xt - rows[1]) / rows[0]
            series = alpha <= occupancy._FUGACITY_ALPHA
            kinds.append(np.count_nonzero(series))
            with np.errstate(over="ignore"):
                sums = kernel_sums(occupancy._split_sums, x, plan)
                for branch, on in ((occupancy._series_sums, series), (occupancy._fugacity_sums, ~series)):
                    if np.count_nonzero(on):
                        number, squares, moment = branch(x[on], alpha[on], xt[on], rows[:, on], scale)
                        for got, own in zip(sums, (number, squares(), moment())):
                            np.testing.assert_array_equal(got[on], own)
        assert kinds == [40, 0, 40]  # all split, all fugacity, and half and half

    def test_branch_sums_formed_only_when_read(self, monkeypatch):
        # inside solve_rows each branch of the split kernel forms its sum of
        # squares only on the evaluations a step follows, and its moment once
        # per group, on the last, whether all of the group's rows take one
        # branch on an evaluation or its rows take both; converged and stopped
        # at max_iter = 1 and 2
        evaluations = []  # per _split_sums call: {branch: [squares formed, moments formed]}
        split_sums = occupancy._split_sums

        def split_counted(x, plan):
            evaluations.append({})
            return split_sums(x, plan)

        def spied(name, branch):
            def counted(*args):
                number, squares, moment = branch(*args)
                formed = evaluations[-1].setdefault(name, [0, 0])

                def read(k, sums):
                    formed[k] += 1
                    return sums()

                return number, lambda: read(0, squares), lambda: read(1, moment)

            return counted

        monkeypatch.setattr(occupancy, "_split_sums", split_counted)
        for name in ("_series_sums", "_fugacity_sums"):
            monkeypatch.setattr(occupancy, name, spied(name, getattr(occupancy, name)))
        kinds = set()
        t = np.repeat(np.geomspace(3e4, 1e11, 40), 2)
        for n_particles in (1, 100, 10**4):  # roots on the series, on both sides of the seam, near condensation
            for max_iter in (1, 2, occupancy.MAX_ITER):
                evaluations.clear()
                solved = solve_rows([P, M] * 40, n_particles, 1.0 / t, max_iter=max_iter)
                assert solved.converged.all() or max_iter < 3
                count = len(evaluations)  # the 80 wide rows make one group
                assert count == solved.iterations.max()
                for i, formed in enumerate(evaluations):
                    kinds.add(tuple(sorted(formed)))
                    for squares, moments in formed.values():
                        assert (squares, moments) == ((0, 1) if i == count - 1 else (1, 0))
        # N = 1's rows start and stay on the fugacity series, the others' take both branches
        assert kinds == {("_fugacity_sums",), ("_fugacity_sums", "_series_sums")}


class TestOnBranches:
    # each branch i returns, on the rows it is given, (x + i, thunk of 10 x + i, thunk of the 2-D rows' sum) and
    # records the arrays it got; rows are the arrays' last axis, so a 2-D array is gathered by column
    @staticmethod
    def branches(calls):
        def branch(i):
            def run(x, table, shift):
                calls.append((i, x, table))
                return x + (i + shift), lambda: 10.0 * x + i, lambda: table.sum(0)
            return run
        return tuple(map(branch, range(3)))

    def test_zero_rows_take_the_last_branch(self):
        calls = []
        empty = np.zeros(0, dtype=bool)
        arrays = np.zeros(0), np.zeros((2, 0))
        value, tens, sums = occupancy._on_branches((empty, empty), self.branches(calls), arrays, 0.0)
        assert [i for i, _, _ in calls] == [2]
        assert value.shape == tens().shape == sums().shape == (0,)

    @pytest.mark.parametrize("branch", [0, 1, 2])
    def test_all_rows_on_one_branch_get_the_callers_arrays(self, branch):
        x, table = np.arange(4.0), np.arange(8.0).reshape(2, 4)
        ons = tuple(np.full(4, branch == i) for i in range(2))
        calls = []
        value, tens, sums = occupancy._on_branches(ons, self.branches(calls), (x, table), 0.5)
        (i, got_x, got_table), = calls
        assert i == branch and got_x is x and got_table is table  # no gather
        np.testing.assert_array_equal(value, x + branch + 0.5)
        np.testing.assert_array_equal(tens(), 10.0 * x + branch)
        np.testing.assert_array_equal(sums(), table.sum(0))

    def test_mixed_rows_merge_in_row_order(self):
        # rows 1 and 3 on branch 0, none on branch 1, the rest on the last: branch 1 is not called
        x, table = np.arange(5.0), np.arange(10.0).reshape(2, 5)
        first, second = np.array([False, True, False, True, False]), np.zeros(5, dtype=bool)
        calls = []
        value, tens, sums = occupancy._on_branches((first, second), self.branches(calls), (x, table), 0.0)
        assert [(i, got_x.tolist()) for i, got_x, _ in calls] == [(0, [1.0, 3.0]), (2, [0.0, 2.0, 4.0])]
        np.testing.assert_array_equal(calls[0][2], table[:, first])
        branch = np.where(first, 0.0, 2.0)
        np.testing.assert_array_equal(value, x + branch)
        np.testing.assert_array_equal(tens(), 10.0 * x + branch)
        np.testing.assert_array_equal(sums(), table.sum(0))


class TestStartModel:
    def test_remainder_constants_match_mp_integrals(self):
        # the pole model's C = R(0) = (sqrt(pi)/2) zeta(1/2) and R1 = R'(0), the
        # remainder's lattice sum per sqrt(t) and its slope in alpha
        limit = mp_remainder_integral(0)
        assert float(limit) == occupancy.REMAINDER_LIMIT
        assert float(mp.sqrt(mp.pi) / 2 * mp.zeta(0.5)) == occupancy.REMAINDER_LIMIT
        assert abs(limit - mp.sqrt(mp.pi) / 2 * mp.zeta(0.5)) < 1e-30
        assert float(mp_remainder_integral(1)) == occupancy.REMAINDER_SLOPE

    def test_start_table_matches_lattice_between_knots(self):
        # at the midpoints in log u between knots, where linear interpolation
        # errs most: u within 1.1e-6 relative and the slope d log q / d log u
        # within 1e-6 of _lattice's, whose slope matches mpmath's derivative
        keys, values = occupancy._start_tables()
        knots = occupancy._START_KNOTS
        log_u = 2.0 * np.sinh(np.linspace(math.asinh(17.0), math.asinh(-10.0), 2 * knots - 1))[1::2]
        u = np.exp(log_u)
        with np.errstate(over="ignore"):  # as in _start_tables
            phi, squares = occupancy._lattice(np.concatenate((4.0 * u, u + 0.75, u)))
            squares = squares()
        four_a, a_plus, a_minus = phi.reshape(3, -1)
        four_s, s_plus, s_minus = squares.reshape(3, -1)
        wells = (
            (False, 0.5 * a_minus, -0.5 * s_minus, -occupancy._START_SHIFT),
            (True, 0.5 * (4.0 * four_a - a_plus), -0.5 * (16.0 * four_s - s_plus), 0.0),
        )
        for plus, q, dq, shift in wells:
            fit = np.interp(np.log(q) + shift, keys, values)
            slope = u * dq / q
            np.testing.assert_allclose(np.exp(fit.real) / q, u, rtol=1.1e-6, atol=0.0)
            np.testing.assert_allclose(fit.imag, slope, rtol=0.0, atol=1e-6)
            assert ((slope >= -1.0) & (slope < -0.48)).all()
            for i in range(0, u.size, 240):
                exact_q, exact_slope = mp_pole_slope(plus, u[i])
                assert q[i] == pytest.approx(float(exact_q), rel=1e-14)
                assert slope[i] == pytest.approx(float(exact_slope), rel=1e-13)

    def test_fugacity_table_matches_polylog_between_knots(self):
        # over the whole key range, at knots and at the midpoints in log alpha
        # between them, where linear interpolation errs most, against F =
        # (sqrt(pi)/2) Li_{1/2}(e^-alpha) by mpmath: a knot's key is log F and
        # its slope d log F / dw = -(Li_{-1/2} / Li_{1/2}) (1 - e^-alpha), w =
        # log(expm1(alpha)); read at a midpoint's log F, the table's w is off
        # by at most 2.5e-7 of F (_fugacity_table), times the slope
        keys, values = occupancy._fugacity_table()
        knots = occupancy._FUGACITY_KNOTS
        log_alpha = 2.0 * np.sinh(np.linspace(math.asinh(1.5), math.asinh(-4.0), 2 * knots - 1))
        for i in range(0, 2 * knots - 1, 21):  # knots and midpoints in turn
            alpha = mp.mpf(math.exp(log_alpha[i]))
            z = mp.exp(-alpha)
            li = mp.polylog(0.5, z)
            f, slope = mp.sqrt(mp.pi) / 2 * li, -mp.polylog(-0.5, z) / li * -mp.expm1(-alpha)
            w = float(mp.log(mp.expm1(alpha)))
            if i % 2:
                fit = np.interp(float(mp.log(f)), keys, values)
                assert abs((fit.real - w) * fit.imag) <= 2.5e-7
            else:
                assert keys[i // 2] == pytest.approx(float(mp.log(f)), rel=1e-14, abs=1e-15)
                assert values[i // 2].real == pytest.approx(w, rel=1e-14, abs=1e-15)
                assert values[i // 2].imag == pytest.approx(float(slope), rel=1e-13)

    def test_fugacity_root_meets_the_fugacity_expansion(self):
        # at small N sqrt(b), inside the fugacity model's window, its root z =
        # e^-alpha is the paper's high-t expansion (approx.fugacity_expansion,
        # q_leading + q_subleading, to order b) to that expansion's next
        # order: within (N sqrt(b))^2 of it relative (~0.54 (N sqrt(b))^2 measured)
        for n_particles in (1, 10, 100):
            for density in (1e-3, 3e-3, 1e-2, 3e-2):
                b = np.full(2, (density / n_particles) ** 2)
                c = offsets((P, M))
                shift, x0 = b * (1.0 - c) ** 2, np.array(math.log1p(1.0 / n_particles))
                x = occupancy._fugacity_start(c, b, shift, float(n_particles), x0)[0]
                np.testing.assert_array_equal(occupancy._start(c, b, float(n_particles), x0, shift), x)
                for side, z in zip((P, M), np.exp(shift - x)):
                    expansion = fugacity_expansion(side, n_particles, b[0])
                    assert abs(z / expansion.total - 1.0) <= density**2

    def test_two_row_call_runs_only_its_rows_model(self, monkeypatch):
        # a net_force call's two wells share N and b, so they take one model; computing the others too
        # costs every two-row call their numpy calls (see _start)
        models = ("_low_t_start", "_fugacity_start", "_pole_start")
        calls = []

        def recorded(name, model):
            return lambda *args: calls.append(name) or model(*args)

        for name in models:
            monkeypatch.setattr(occupancy, name, recorded(name, getattr(occupancy, name)))
        cases = {"_pole_start": 50.0, "_fugacity_start": 1e6, "_low_t_start": 1.0, "x0": 0.02}
        for model, t in cases.items():
            calls.clear()
            solved = solve_rows((P, M), 100, np.full(2, 1.0 / t), max_iter=0)
            # the x0 rows take the low-t model, which returns x0 unformed
            assert calls == [model if model in models else "_low_t_start"], t
            if model == "x0":
                assert solved.shifted_alpha.tolist() == [math.log1p(1.0 / 100)] * 2
