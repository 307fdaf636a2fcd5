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
    _TILE, DEFAULT_TOL, MAX_LEVELS, MIN_TOL, NODE_LEVELS, POLE_DISTANCE, RowSolutions, solve_rows,
)

from _oracles import mp, mp_delta_f, mp_pole_slope, mp_remainder_integral

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


def routed(levels):
    """The rows solve_rows sums on nodes: every row wider than NODE_LEVELS, up to MAX_LEVELS."""
    return (levels > NODE_LEVELS) & (levels <= MAX_LEVELS)


def split(n_particles, t):
    """Whether a node-routed row integrates the pole split (x0 t < POLE_DISTANCE**2) rather than the occupation."""
    return math.log1p(1.0 / n_particles) * t < POLE_DISTANCE**2


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

    @pytest.mark.parametrize("xt, unused", [(10.0, "_node_plan"), (1_000.0, "_split_plan")])
    def test_wide_b_sums_on_nodes(self, monkeypatch, xt, unused):
        # t = 1e7: 20,001 levels, summed on the nodes of the pole split at
        # x t = 10 and of the occupation at x t = 1,000 (x t >= POLE_DISTANCE**2)
        monkeypatch.setattr(occupancy, "_level_plan", None)  # a level plan would fail
        monkeypatch.setattr(occupancy, unused, None)  # so would the other node plan
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
        # one solve per route: levels (18), the occupation's nodes (2,000
        # levels, x0 t ~ 6.9e4) and the pole split (20,001 levels, x0 t ~ 10).
        # total_number routes by the root's own x t, ~240 at the last point,
        # so there it checks the split's root on the occupation's nodes
        for n, t, route in ((250, 7.5, "levels"), (1, 1e5, "nodes"), (10**6, 1e7, "split")):
            point = ThermoPoint(n, t)
            for side in (P, M):
                solution = solve_alpha(side, point)
                on_nodes = routed(solution.levels_used)
                assert (("split" if split(n, t) else "nodes") if on_nodes else "levels") == route
                assert abs(total_number(side, solution.alpha, point.b) - n) <= DEFAULT_TOL * n

    def test_plus_multiplier_exceeds_minus(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(round(10.0 ** rng.uniform(0, 3)))
            t = 10.0 ** rng.uniform(-2, 4)
            point = ThermoPoint(n, t)
            assert solve_alpha(P, point).alpha > solve_alpha(M, point).alpha

    def test_iteration_cap_raises_with_bracket(self):
        # N = 100 at t = 1e4 needs 3 evaluations
        with pytest.raises(ConstraintSolverError) as excinfo:
            solve_alpha(P, ThermoPoint(100, 1e4), max_iter=2)
        assert len(excinfo.value.bracket) == 2
        # no evaluation: the bracket is (x0, the row's start), the start lying
        # above x0 at t = 1e4 and at x0 in the ground-state row at t = 0.1
        x0 = math.log1p(1e-2)
        for t in (1e4, 0.1):
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
        # one row past MAX_LEVELS (t = 1e15), in an order that mixes them; at
        # N = 100 the wide rows sum on the occupation's nodes, at N = 1e6 on
        # the pole split's
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
            on_split = routed(batch.levels_used) & np.array([split(n_particles, ti) for ti in t])
            assert on_split.any() == (n_particles > 100)
            for i, (side, ti) in enumerate(zip(sides, t)):
                one = solve_rows((side,), n_particles, 1.0 / ti)
                if on_split[i]:  # the split kernel sums a group's rows in one einsum
                    np.testing.assert_allclose(batch.alpha[i], one.alpha[0], rtol=1e-13, atol=0.0)
                    np.testing.assert_allclose(batch.force[i], one.force[0], rtol=1e-13, atol=0.0)
                    assert batch.iterations[i] == one.iterations[0]
                    assert batch.converged[i] == one.converged[0]
                else:  # a run of levels or nodes sums the same wherever it lies in its plan
                    for field in RowSolutions._fields[:-1]:  # the per-row arrays; nan past MAX_LEVELS
                        np.testing.assert_array_equal(getattr(batch, field)[i], getattr(one, field)[0])

    def test_no_rows_and_rows_past_max_levels(self):
        # no row: every array empty. A row past MAX_LEVELS is in no plan; it
        # is reported unattempted, beside a row that solves
        empty = solve_rows([], 100, 1.0)
        assert all(getattr(empty, field).shape == (0,) for field in RowSolutions._fields[:-1])
        solved = solve_rows((P, M), 100, np.array([1.0, 1e-15]))
        assert solved.levels_used[1] > MAX_LEVELS
        assert solved.iterations.tolist() == [3, 0]
        assert solved.converged.tolist() == [True, False]

    def test_level_plans_hold_each_rows_own_levels(self):
        # the README mid and high sweeps and the large_n grid, both wells, in
        # one call: each level plan holds exactly its rows' levels, all
        # finite, and no plan passes _TILE unless it is a single row
        t = np.concatenate([np.geomspace(0.01, 160, 400), np.geomspace(1.0, 1e4, 300), np.geomspace(1.0, 1e8, 100)])
        b = np.repeat(1.0 / t, 2)
        plus = np.tile([True, False], len(t))
        ground = np.where(plus, P.ground_energy, M.ground_energy)
        levels = occupancy._cutoff(b)
        seen = 0
        for kernel, plan, rows in occupancy._routes(plus, ground, b, levels, math.log1p(1e-4)):
            if kernel is occupancy._split_sums:
                continue
            base, gap, weight, counts, starts = plan
            assert base.size == gap.size == counts.sum() <= _TILE or len(rows) == 1
            np.testing.assert_array_equal(starts, np.cumsum(counts) - counts)
            assert np.isfinite(base).all()
            if weight is None:
                np.testing.assert_array_equal(counts, levels[rows])
                seen += len(rows)
        assert seen == np.count_nonzero(levels <= NODE_LEVELS)

    def test_mixed_group_sums_match_direct_sums(self):
        # 1-level rows between rows of ~1,000 levels, both wells, in one plan:
        # no run leaks into its neighbour, each row's sums being its own
        t = np.array([1e-3, 2.5e4, 0.02, 0.01, 2.6e4, 1e-2])
        sides = [P, M, M, P, P, M]
        plus = np.array([side is P for side in sides])
        ground = np.array([side.ground_energy for side in sides])
        levels = occupancy._cutoff(1.0 / t)
        assert sorted(levels.tolist()) == [1, 1, 1, 1, 1000, 1020]
        (kernel, plan, rows), = occupancy._routes(plus, ground, 1.0 / t, levels, 0.01)
        assert kernel is occupancy._level_sums and sorted(rows.tolist()) == list(range(len(t)))
        x = np.array([0.01, 0.05, 0.2, 1.0, 0.02, 3.0])
        with np.errstate(over="ignore"):
            sums = occupancy._level_sums(x[rows], plan)
        for row, number, squares, weighted in zip(rows, *sums):
            n = np.arange(1.0, levels[row] + 1.0)
            gap = (n - 1.0) * (n + (0.0 if plus[row] else 1.0))
            occ = 1.0 / np.expm1(x[row] + gap / t[row])
            for value, terms in ((number, occ), (squares, occ * occ), (weighted, occ * gap)):
                assert value == pytest.approx(math.fsum(terms), rel=1e-14, abs=0.0)

    def test_iteration_cap_counts_as_a_stop(self):
        # both wells at N = 100, b = 1e-4 converge on evaluation 3: a cap of 3
        # lets them, a cap of 2 stops them one evaluation short
        full = solve_rows((P, M), 100, 1e-4, max_iter=3)
        assert full.iterations.tolist() == [3, 3]
        assert full.converged.all()
        capped = solve_rows((P, M), 100, 1e-4, max_iter=2)
        assert capped.iterations.tolist() == [2, 2]
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

    def test_rows_stopping_apart_match_one_row_solves(self):
        # in each group the rows stop on different evaluations, each staying
        # frozen in the plan until the last stops; a cap one short of the
        # slowest row stops the slower ones unconverged. Each group holds rows
        # started at x0 and rows started at the pole model's root (t >= 1.48,
        # N >= 0.19 sqrt(t)), except the split group, all of whose rows start
        # at the model's root
        groups = [
            # 2 to 448 levels a row, each row's run its own
            (100, (M, P, P, M, P, M), (0.05, 0.2, 1.0, 3.0, 1e3, 5e3), occupancy._level_sums, [1, 2, 3, 3, 2, 3]),
            # on the occupation's nodes (x0 t >= POLE_DISTANCE**2)
            (100, (P, M, P, M, P), (3e4, 3e4, 1e7, 1e11, 1e11), occupancy._level_sums, [4, 4, 5, 4, 4]),
            # on the pole split's nodes (x0 t < POLE_DISTANCE**2); at N = 1e4 every
            # such row stops on evaluation 2, while at t ~ 3e-9 N the start
            # already lies within tol of the root
            (10**14, (M, P, P, M, M), (3e5, 3e5, 1e8, 1e8, 1e9), occupancy._split_sums, [1, 1, 2, 2, 2]),
        ]
        for n_particles, sides, t, kernel, iterations in groups:
            b = 1.0 / np.array(t)
            plus = np.array([side is P for side in sides])
            ground = np.array([side.ground_energy for side in sides])
            x0 = math.log1p(1.0 / n_particles)
            (routed_kernel, _, _), = occupancy._routes(plus, ground, b, occupancy._cutoff(b), x0)  # one group
            assert routed_kernel is kernel
            modelled = (np.array(t) >= occupancy.START_T) & (n_particles >= occupancy.START_DEGENERACY * np.sqrt(t))
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
                else:  # a run of levels or nodes sums the same wherever it lies in its plan
                    for field in RowSolutions._fields[:-1]:  # the per-row arrays
                        np.testing.assert_array_equal(getattr(batch, field)[i], getattr(one, field)[0])
            cap = max(iterations) - 1
            capped = solve_rows(sides, n_particles, b, max_iter=cap)
            assert capped.iterations.tolist() == [min(count, cap) for count in iterations]
            np.testing.assert_array_equal(capped.converged, batch.iterations <= cap)

    def test_plan_built_once_per_group(self, monkeypatch):
        # both wells at N = 100, t = 1e4 share one group of 2 x 633 levels
        calls = []
        gap = occupancy.level_gap

        def counted(side, n):
            calls.append(side)
            return gap(side, n)

        monkeypatch.setattr(occupancy, "level_gap", counted)
        assert solve_rows((P, M), 100, 1e-4).iterations.tolist() == [3, 3]
        calls.clear()
        net_force(ThermoPoint(100, 1e4))
        full = len(calls)
        calls.clear()
        short = solve_rows((P, M), 100, 1e-4, max_iter=2)
        assert short.iterations.tolist() == [2, 2]
        assert not short.converged.any()
        assert len(calls) == full > 0

    def test_wide_rows_near_condensation_build_one_split_plan(self, monkeypatch):
        # N = 1e6 at t = 1e7: ~2e4 levels, more than _TILE, and x0 t = 10 is
        # short of POLE_DISTANCE**2, so both rows sum on the pole split's
        # nodes, one group whose plan is built once for all its evaluations
        built = []
        split_plan = occupancy._split_plan

        def counted(ground, b):
            built.append(len(b))
            return split_plan(ground, b)

        monkeypatch.setattr(occupancy, "_split_plan", counted)
        monkeypatch.setattr(occupancy, "_level_plan", None)  # a level plan would fail
        monkeypatch.setattr(occupancy, "_node_plan", None)  # so would a node plan of the occupation
        t = 1e7
        solved = solve_rows((P, M), 1_000_000, 1.0 / t)
        assert (solved.levels_used > _TILE).all()
        assert routed(solved.levels_used).all() and split(1_000_000, t)
        assert solved.converged.all()
        assert solved.iterations.min() > 1
        assert built == [2]  # one group of both rows, one build
        for side, x in zip((P, M), solved.shifted_alpha):
            number = direct_sums(side is P, x, 1.0 / t, int(solved.levels_used[0]))[0]
            assert abs(number[0] - 1e6) <= DEFAULT_TOL * 1e6

    def test_every_row_converges_within_six_evaluations(self, monkeypatch):
        # the step bound over the accepted domain: N from 1 to 1e300, t from
        # 1e-300 to 2e14 (under MAX_LEVELS), both wells, all three routes. At
        # every evaluation x >= x0, which the node route's pole distance rests
        # on, and alpha < 3.75 on split rows, which bounds _SPLIT_HEAD's series
        # argument. The first evaluation sits at each row's start, the x a cap
        # of 0 reports: the pole model's root, or x0 outside the model's
        # window. A stopped row stays frozen in its group's plan; so the clamp
        # at x0 never acts when, from a group's second evaluation on, its rows
        # at x0 are exactly those that started there and stopped on the first.
        # The bounds hold at the default tolerance and at the floor MIN_TOL
        seen = {"nodes": 0, "split": 0}
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
            seen["nodes"] += x.size if plan[2] is not None else 0
            return level_sums(x, plan)

        def split_checked(x, plan):
            checked(x)
            t, ground = plan[1].T
            assert (x - ground / t < 3.75).all()
            seen["split"] += x.size
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
                assert solved.iterations.max() <= 6
                assert solved.iterations[start > x0].max(initial=0) <= 4  # the rows started at the model's root
                for rows, at_x0 in seen["later"]:
                    np.testing.assert_array_equal(at_x0, (start[rows] == x0) & (solved.iterations[rows] == 1))
                    frozen_at_x0 += np.count_nonzero(at_x0)
            modelled += np.count_nonzero(start > x0)
        assert frozen_at_x0 and modelled and seen["nodes"] and seen["split"]

    def test_ground_state_rows_keep_x0_and_stop_on_the_first_evaluation(self):
        # up to t ~ 0.07 at any N >= 1 the excited levels hold less than
        # tol N at x0, so a row started there stops on its first evaluation;
        # the pole model, off by ~0.1 particle near the ground state, would
        # not. Below START_T every row starts at x0: t <= 0.03 at N = 1 to
        # 1e4 (the scalar_random workload's ground-state rows) and the whole
        # README low sweep (N = 100), which stops on evaluation 1 up to t = 0.05
        for n_particles in (1, 10, 100, 1000, 10**4):
            b = 1.0 / np.repeat(np.geomspace(1e-3, 0.03, 50), 2)
            np.testing.assert_array_equal(solve_rows([P, M] * 50, n_particles, b, max_iter=0).shifted_alpha,
                                          math.log1p(1.0 / n_particles))
            assert solve_rows([P, M] * 50, n_particles, b).iterations.tolist() == [1] * 100
        t = np.repeat(temperature_grid(SweepConfig(t_min=0.01, t_max=1.0, grid_points=200)), 2)
        assert t.max() < occupancy.START_T
        starts = solve_rows([P, M] * 200, 100, 1.0 / t, max_iter=0).shifted_alpha
        np.testing.assert_array_equal(starts, math.log1p(1e-2))
        assert (solve_rows([P, M] * 200, 100, 1.0 / t).iterations[t <= 0.05] == 1).all()

    def test_start_cuts_evaluations_on_the_benchmark_grids(self, monkeypatch):
        # mean evaluations per row and kernel calls per solve, both wells in
        # one call as sweep() solves them; from x0 they were 4.25 and 21 on
        # the large_n grid (N = 1e4, t = 1 to 1e8) and 4.49 and 34 on the
        # README high sweep (N = 100, t = 1 to 1e4), and from the root of the
        # model without its terms linear in alpha 2.53 and 11, and 3.26 and 23
        calls = []
        for name in ("_level_sums", "_split_sums"):
            kernel = getattr(occupancy, name)
            monkeypatch.setattr(occupancy, name, lambda x, plan, kernel=kernel: calls.append(x.size) or kernel(x, plan))
        for n_particles, t_max, points, mean_bound, calls_bound in ((10**4, 1e8, 100, 2.15, 9), (100, 1e4, 300, 2.4, 18)):
            t = np.array(temperature_grid(SweepConfig(t_min=1.0, t_max=t_max, grid_points=points)))
            calls.clear()
            solved = solve_rows([P] * points + [M] * points, n_particles, 1.0 / np.concatenate((t, t)))
            assert solved.converged.all()
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


class TestNodePlan:
    @pytest.mark.parametrize("n_particles", [1, 100, 10_000, 1_000_000])
    def test_node_sums_match_direct_sums(self, n_particles):
        # the node rule's error budget (NODE_STEP): Poisson remainder, trapezoid
        # error and discarded tail all lie below rounding, from the routing
        # threshold to t = 1e12 (6.3e6 levels), at the start, the root and x = 5
        x0 = math.log1p(1.0 / n_particles)
        threshold = max(POLE_DISTANCE**2 / x0, NODE_LEVELS**2 / occupancy.TAIL_EXPONENT)
        nodes = occupancy._node_count(x0)
        assert nodes <= 100
        for t in np.geomspace(threshold * 1.001, 1e12, 3):
            b = 1.0 / t
            levels = occupancy._cutoff(np.array([b]))
            assert routed(levels).all() and not split(n_particles, t)
            roots = solve_rows((P, M), n_particles, b).shifted_alpha
            for side, root in zip((P, M), roots):
                x = np.array([x0, root, 5.0])
                plus = side is P
                ground = np.full(3, side.ground_energy)
                with np.errstate(over="ignore"):
                    number, _, weighted = occupancy._level_sums(
                        x, occupancy._node_plan(ground, np.full(3, b), x0, nodes)
                    )
                expected = direct_sums(plus, x, b, int(levels[0]))
                np.testing.assert_allclose(number, expected[0], rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(weighted, expected[1], rtol=1e-14, atol=0.0)

    def test_routed_rows_satisfy_the_exact_constraint(self, monkeypatch):
        # the large_n grid: N = 1e4, 100 log-spaced t in [1, 1e8], both wells
        n_particles = 10_000
        t = np.repeat(np.geomspace(1.0, 1e8, 100), 2)
        sides = [P, M] * 100
        nodes = solve_rows(sides, n_particles, 1.0 / t)
        wide = routed(nodes.levels_used)
        assert 0 < np.count_nonzero(wide) < len(t)
        assert nodes.converged.all()
        for i in np.flatnonzero(wide):
            number, _, _ = direct_sums(sides[i] is P, nodes.shifted_alpha[i], 1.0 / t[i], int(nodes.levels_used[i]))
            assert abs(number[0] - n_particles) <= DEFAULT_TOL * n_particles
        monkeypatch.setattr(occupancy, "NODE_LEVELS", MAX_LEVELS)  # every row on its levels
        levels = solve_rows(sides, n_particles, 1.0 / t)
        np.testing.assert_array_equal(nodes.iterations, levels.iterations)
        np.testing.assert_array_equal(nodes.converged, levels.converged)
        np.testing.assert_array_equal(nodes.levels_used, levels.levels_used)
        np.testing.assert_allclose(nodes.alpha, levels.alpha, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(nodes.force, levels.force, rtol=1e-13, atol=0.0)

    def test_routed_point_matches_mp_oracle(self, monkeypatch):
        # with the level threshold lowered, N = 1 at t = 145 is routed at the
        # smallest pole distance the routing admits, d = sqrt(alpha t) ~ 10,
        # where the rule is least exact
        calls = []
        node_plan = occupancy._node_plan

        def counted(*args):
            calls.append(args)
            return node_plan(*args)

        monkeypatch.setattr(occupancy, "_node_plan", counted)
        monkeypatch.setattr(occupancy, "NODE_LEVELS", 0)
        t = 145.0
        assert POLE_DISTANCE**2 <= math.log1p(1.0) * t < 1.01 * POLE_DISTANCE**2
        pair = net_force(ThermoPoint(1, t))
        assert calls
        assert pair.delta_f == pytest.approx(float(mp_delta_f(1, t)), rel=1e-9)

    def test_routed_point_at_node_levels_matches_mp_oracle(self):
        # the smallest routed point at N = 1 with the real threshold: 1,026
        # levels, x0 t ~ 18,230, so both wells run on nodes
        t = 26_300.0
        levels = occupancy._cutoff(np.array([1.0 / t]))
        assert routed(levels).all() and not split(1, t)
        pair = net_force(ThermoPoint(1, t))
        assert pair.delta_f == pytest.approx(float(mp_delta_f(1, t)), rel=1e-9)


class TestSplitPlan:
    @pytest.mark.parametrize("n_particles", [1_000, 10_000, 10**6, 10**8, 10**12, 10**16])
    def test_split_sums_match_direct_sums(self, n_particles):
        # the split rule's error budget (_SPLIT_STEP): closed-form pole sum,
        # double-exponential integral of the remainder and the force moment all
        # lie at rounding, from the NODE_LEVELS threshold to just under x0 t =
        # 100 (capped at t = 1e10, 6.3e5 levels, for the direct sums), at the
        # start, the root and three times the root
        x0 = math.log1p(1.0 / n_particles)
        threshold = NODE_LEVELS**2 / occupancy.TAIL_EXPONENT
        top = min(0.999 * POLE_DISTANCE**2 / x0, 1e10)
        below_ground = 0
        for t in np.geomspace(threshold * 1.001, top, 3):
            b = 1.0 / t
            levels = occupancy._cutoff(np.array([b]))
            assert routed(levels).all() and split(n_particles, t)
            roots = solve_rows((P, M), n_particles, b).shifted_alpha
            for side, root in zip((P, M), roots):
                x = np.array([x0, root, 3.0 * root])
                below_ground += np.count_nonzero(x * t < side.ground_energy)  # alpha < 0
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    number, squares, weighted = occupancy._split_sums(
                        x, occupancy._split_plan(np.full(3, side.ground_energy), np.full(3, b))
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
        assert routed(levels).all() and split(1_000, t)
        pair = net_force(ThermoPoint(1_000, t))
        assert pair.delta_f == pytest.approx(float(mp_delta_f(1_000, t)), rel=1e-9)


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
