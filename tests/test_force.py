import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from boxforce import (
    CSV_HEADER,
    ConstraintSolverError,
    ForcePair,
    GridScale,
    Method,
    SweepConfig,
    SweepRow,
    ThermoPoint,
    WellSide,
    force,
    net_force,
    net_force_zero_t,
    run,
    solve_alpha,
    sweep,
    temperature_grid,
)
from boxforce.occupancy import DEFAULT_TOL, solve_rows

from _oracles import mp_delta_f, mp_delta_f_polylog, mp_half_force

P = WellSide.PLUS
M = WellSide.MINUS

# Pinned by the extended-precision brute-force oracle in _oracles (dps = 40):
# constraint solved by bisection, force summed term by term.
F_PLUS_100_T1 = 25.324285096158668
DELTA_F_100_T1 = 74.833926687922799


def test_frozen_constants_match_oracle():
    assert float(mp_half_force(True, 100, 1)) == pytest.approx(F_PLUS_100_T1, rel=1e-15)
    assert float(mp_delta_f(100, 1)) == pytest.approx(DELTA_F_100_T1, rel=1e-15)


class TestHalfForce:
    """One well's force sum_n e_n N_n at its solved multiplier."""

    def test_zero_t_limits(self):
        point = ThermoPoint(100, 1e-3)
        assert solve_alpha(P, point).force == pytest.approx(25.0, abs=1e-9)
        assert solve_alpha(M, point).force == pytest.approx(100.0, abs=1e-9)

    def test_against_brute_force_oracle(self):
        assert solve_alpha(P, ThermoPoint(100, 1.0)).force == pytest.approx(F_PLUS_100_T1, rel=1e-10)


class TestNetForce:
    def test_pair_is_consistent(self):
        # on every level row (t up to 2.6e4, 1,020 levels) delta_f is exactly
        # f_minus - f_plus: only wide rows take force_difference's other route
        # (test_fugacity_rows_keep_the_net_force_digits)
        for n_particles in (1, 100, 10**4):
            for t in [3.0, *np.geomspace(1e-3, 2.6e4, 40).tolist()]:
                pair = net_force(ThermoPoint(n_particles, t))
                assert isinstance(pair, ForcePair)
                assert pair.delta_f == pair.f_minus - pair.f_plus
                assert pair.f_plus > 0.0
                assert pair.f_minus > 0.0
        assert solve_rows((P, M), 1, 1.0 / 2.6e4).levels_used.tolist() == [1020, 1020]

    def test_largest_particle_numbers_on_wide_rows(self):
        # wide rows at the top of the N range, near condensation on the pole
        # split, whose lattice sum of squares (~N^2) is scaled before it is
        # squared. Level 1 holds N in both wells, f = e_1 N
        pair = net_force(ThermoPoint(10**307, 1e5))
        assert (pair.f_plus, pair.f_minus, pair.delta_f) == pytest.approx((2.5e306, 1e307, 7.5e306), rel=1e-12)
        solved = solve_rows((P, M), int(1.7e308), 1e-9)
        assert solved.converged.all()

    def test_fugacity_rows_keep_the_net_force_digits(self):
        # where both wells' roots lie on the fugacity series (alpha > 1 on a
        # wide row), f_minus - f_plus misses delta_f by 5e-11 to 2e-8 (the
        # forces being 1e5 to 1e7 times larger) and force_difference's
        # difference route by no more than the stop rule's tol. The polylog
        # oracle agrees with the level oracle at N = 1, t = 26,300
        for n_particles, t in ((10, 1e11), (100, 1e12), (1_000, 1e12), (1, 2e14)):
            solved = solve_rows((P, M), n_particles, 1.0 / t)
            assert (solved.alpha > 1.0).all() and solved.wide.all()
            exact = float(mp_delta_f_polylog(n_particles, t))
            assert net_force(ThermoPoint(n_particles, t)).delta_f == pytest.approx(exact, rel=DEFAULT_TOL)
            assert abs(solved.force[1] - solved.force[0] - exact) > DEFAULT_TOL * exact
        assert float(mp_delta_f_polylog(1, 26_300.0)) == pytest.approx(float(mp_delta_f(1, 26_300.0)), rel=1e-15)

    @pytest.mark.parametrize("t", [1e6, 1e7, 1e8])
    def test_large_n_pole_split_rows_match_polylog_oracle(self, t):
        # the wide rows of the large_n grid (N = 1e4) lie near condensation,
        # N >~ 0.9 sqrt(t), on the pole split (alpha < 1), where delta_f is
        # f_minus - f_plus and loses ~log10 sqrt(t) digits to cancellation;
        # the oracle's remainder, ~exp(-2 pi sqrt(alpha t)), is far below
        # rounding there (alpha t > 300)
        solved = solve_rows((P, M), 10_000, 1.0 / t)
        assert (solved.alpha < 1.0).all() and (solved.alpha * t > 300.0).all() and solved.wide.all()
        exact = float(mp_delta_f_polylog(10_000, t))
        assert net_force(ThermoPoint(10_000, t)).delta_f == pytest.approx(exact, rel=1e-10)

    def test_low_t_plateau_value(self):
        assert net_force(ThermoPoint(100, 0.01)).delta_f == pytest.approx(75.0, abs=1e-3)

    def test_against_brute_force_oracle(self):
        assert net_force(ThermoPoint(100, 1.0)).delta_f == pytest.approx(DELTA_F_100_T1, rel=1e-10)

    def test_tolerance_convergence(self):
        for t in (1.0, 50.0):
            point = ThermoPoint(100, t)
            for tol in (1e-8, 1e-10):
                coarse = net_force(point, tol=tol).delta_f
                fine = net_force(point, tol=tol / 2).delta_f
                assert abs(coarse - fine) < 10.0 * tol * abs(coarse)

    @pytest.mark.parametrize("t, max_iter", [(1e4, 1), (0.3, 1)])
    def test_failed_well_raises_with_bracket(self, monkeypatch, t, max_iter):
        # N = 100 needs 2 evaluations a well at t = 1e4, and 2 (PLUS) and 1
        # (MINUS) at t = 0.3: the cap fails both wells, then PLUS alone
        monkeypatch.setattr(force, "solve_rows", functools.partial(solve_rows, max_iter=max_iter))
        with pytest.raises(ConstraintSolverError, match=f"after {max_iter} evaluations") as excinfo:
            net_force(ThermoPoint(100, t))
        start, last = excinfo.value.bracket
        assert start == math.log1p(1.0 / 100)
        assert last >= start

    def test_zero_t_continuity(self):
        delta = net_force(ThermoPoint(100, 1e-3)).delta_f
        assert abs(delta - net_force_zero_t(100)) < 1e-6 * 100

    def test_positive_over_full_range(self):
        for t in np.geomspace(1e-2, 1e4, 200):
            assert net_force(ThermoPoint(100, float(t))).delta_f > 0.0

    def test_single_minimum_near_n(self):
        # the net force dips once and the dip sits within [N/2, 2N]
        grid = np.geomspace(1.0, 1e3, 90)
        delta = np.array([net_force(ThermoPoint(100, float(t))).delta_f for t in grid])
        steps = np.diff(delta)
        crossings = int(np.sum((steps[:-1] < 0) & (steps[1:] >= 0)))
        assert crossings == 1
        t_min = grid[int(np.argmin(delta))]
        assert 50.0 <= t_min <= 200.0


class TestNetForceZeroT:
    @pytest.mark.parametrize("n, expected", [(100, 75.0), (1, 0.75), (4, 3.0)])
    def test_values(self, n, expected):
        assert net_force_zero_t(n) == expected

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            net_force_zero_t(0)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_rejects_non_finite_n(self, n):
        with pytest.raises(ValueError):
            net_force_zero_t(n)


class TestSweep:
    def test_single_point_numeric(self):
        config = SweepConfig(t_min=1.0, t_max=1.0, grid_points=1)
        rows = sweep(config)
        assert len(rows) == 1
        row = rows[0]
        assert row.method is Method.NUMERIC
        assert row.status == "ok"
        assert row.delta_f == pytest.approx(DELTA_F_100_T1, rel=1e-10)
        assert None not in (row.alpha_plus, row.alpha_minus, row.f_plus, row.f_minus)

    def test_high_t_at_pi(self):
        config = SweepConfig(
            t_min=math.pi, t_max=math.pi, grid_points=1, methods=frozenset({Method.HIGH_T})
        )
        (row,) = sweep(config)
        assert row.delta_f == 50.0
        assert (row.alpha_plus, row.alpha_minus, row.f_plus, row.f_minus) == (None,) * 4

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(grid_points=0)
        bogus = SimpleNamespace(
            n_particles=100,
            t_min=1.0,
            t_max=2.0,
            grid_points=0,
            grid_scale=GridScale.LOG,
            methods=frozenset({Method.NUMERIC}),
            tolerance=1e-12,
        )
        with pytest.raises(ValueError):
            sweep(bogus)

    def test_rows_ordered_by_t_then_method(self):
        config = SweepConfig(
            t_min=0.5,
            t_max=8.0,
            grid_points=4,
            methods=frozenset({Method.NUMERIC, Method.HIGH_T, Method.LOW_T}),
        )
        rows = sweep(config)
        assert len(rows) == 12
        assert all(type(row) is SweepRow for row in rows)
        keys = [(row.t, row.method.value) for row in rows]
        assert keys == sorted(keys)  # the order write_csv writes

    def test_linear_rows_flagged_past_validity(self):
        config = SweepConfig(
            t_min=10.0, t_max=100.0, grid_points=2, methods=frozenset({Method.LINEAR})
        )
        low, high = sweep(config)
        assert low.status == "ok"
        assert high.status == "out-of-range"  # past t = 2N/3
        assert high.delta_f is not None

    def test_semi_analytic_rows_fill_per_well_fields(self):
        config = SweepConfig(
            t_min=50.0, t_max=50.0, grid_points=1, methods=frozenset({Method.SEMI_ANALYTIC})
        )
        (row,) = sweep(config)
        assert row.status == "ok"
        assert None not in (row.alpha_plus, row.alpha_minus, row.f_plus, row.f_minus)
        assert row.delta_f == pytest.approx(row.f_minus - row.f_plus, rel=1e-15)

    def test_point_failure_becomes_error_row(self, monkeypatch):
        import boxforce.force as force_module

        def boom(n, t):
            raise ValueError("forced failure")

        monkeypatch.setattr(force_module.approx, "delta_f_low_t", boom)
        config = SweepConfig(
            t_min=1.0,
            t_max=2.0,
            grid_points=2,
            methods=frozenset({Method.LOW_T, Method.HIGH_T}),
        )
        rows = sweep(config)
        assert len(rows) == 4
        low_t_rows = [row for row in rows if row.method is Method.LOW_T]
        assert all(row.status == "error" and row.delta_f is None for row in low_t_rows)
        assert all(row.status == "ok" for row in rows if row.method is Method.HIGH_T)


    def test_each_closed_form_called_once_with_the_grid(self, monkeypatch):
        calls = []
        for name in ("delta_f_low_t", "delta_f_linear", "delta_f_high_t"):
            def counted(n, t, original=getattr(force.approx, name), name=name):
                calls.append((name, np.shape(t)))
                return original(n, t)

            monkeypatch.setattr(force.approx, name, counted)
        methods = frozenset({Method.LOW_T, Method.LINEAR, Method.HIGH_T})
        rows = sweep(SweepConfig(t_min=0.01, t_max=1e4, grid_points=50, methods=methods))
        assert sorted(calls) == [("delta_f_high_t", (50,)), ("delta_f_linear", (50,)), ("delta_f_low_t", (50,))]
        assert len(rows) == 150
        assert all(row.status != "error" and isinstance(row.delta_f, float) for row in rows)


class TestSweepRow:
    FIELDS = dict(
        t=1.0, method=Method.NUMERIC, alpha_plus=-0.24, alpha_minus=-0.99, f_plus=25.32, f_minus=100.16,
        delta_f=74.83, status="ok",
    )

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = SweepRow(**self.FIELDS)
        by_position = SweepRow(*self.FIELDS.values())
        assert by_keyword == by_position
        assert hash(by_keyword) == hash(by_position)
        assert by_keyword.delta_f == 74.83 and by_keyword.method is Method.NUMERIC

    def test_fields_are_read_only(self):
        row = SweepRow(**self.FIELDS)
        with pytest.raises(AttributeError):
            row.delta_f = 0.0

    def test_fields_follow_the_csv_columns(self):
        assert SweepRow._fields == tuple(CSV_HEADER.split(","))

    def test_repr_names_every_field(self):
        assert repr(SweepRow(**self.FIELDS)) == (
            "SweepRow(t=1.0, method=<Method.NUMERIC: 'numeric'>, alpha_plus=-0.24, alpha_minus=-0.99, "
            "f_plus=25.32, f_minus=100.16, delta_f=74.83, status='ok')"
        )


def test_temperature_grid_scales():
    log_cfg = SweepConfig(t_min=0.1, t_max=10.0, grid_points=3)
    assert temperature_grid(log_cfg) == pytest.approx([0.1, 1.0, 10.0], rel=1e-12)
    lin_cfg = SweepConfig(t_min=1.0, t_max=3.0, grid_points=3, grid_scale=GridScale.LINEAR)
    assert temperature_grid(lin_cfg) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)


def test_temperature_grid_takes_a_duck_typed_scale_by_value():
    # sweep takes configs that never passed through SweepConfig: a grid_scale
    # of "log" sweeps a log grid, and a value that is no GridScale raises
    for scale, grid in (("log", [1.0, 10.0, 100.0]), ("linear", [1.0, 50.5, 100.0])):
        config = SimpleNamespace(t_min=1.0, t_max=100.0, grid_points=3, grid_scale=scale)
        assert temperature_grid(config) == pytest.approx(grid, rel=1e-12)
    with pytest.raises(ValueError):
        temperature_grid(SimpleNamespace(t_min=1.0, t_max=100.0, grid_points=3, grid_scale="logarithmic"))


class TestBatchedSolve:
    def test_failed_rows_are_isolated(self, tmp_path, monkeypatch):
        import boxforce.force as force_module
        from boxforce import occupancy

        # at N = 100 the rows up to t ~ 0.29 stop on their first evaluation
        # and those above it on their second, so on t = 0.01 to 1 a cap of 1
        # cuts off only the grid's high-t end
        cap = 1
        config = SweepConfig(t_min=0.01, t_max=1.0, grid_points=12, output_path=str(tmp_path / "out.csv"))
        grid = temperature_grid(config)
        b = 1.0 / np.array(grid)
        full = occupancy.solve_rows((P,) * len(grid) + (M,) * len(grid), 100, np.concatenate((b, b)))
        assert full.converged.all()
        needed = np.maximum(full.iterations[: len(grid)], full.iterations[len(grid) :])
        failing = (needed > cap).tolist()
        # the cap cuts off the high-t end of the grid and leaves the rest
        assert failing == sorted(failing) and 0 < sum(failing) < len(grid)

        monkeypatch.setattr(force_module, "solve_rows", functools.partial(occupancy.solve_rows, max_iter=cap))
        rows = sweep(config)
        assert [row.status == "error" for row in rows] == failing
        assert all(row.status == "ok" and row.delta_f is not None for row, bad in zip(rows, failing) if not bad)
        assert all(row.delta_f is None for row, bad in zip(rows, failing) if bad)
        assert run(config) == 1

    def test_failed_semi_analytic_rows_are_isolated(self, tmp_path, monkeypatch):
        from boxforce import approx

        methods = frozenset({Method.NUMERIC, Method.SEMI_ANALYTIC})
        out = str(tmp_path / "out.csv")
        config = SweepConfig(t_min=10.0, t_max=160.0, grid_points=6, methods=methods, output_path=out)
        bad_t = temperature_grid(config)[2]
        original = approx._trapezoid_number

        def lifted(alpha, rows):
            # the constraint of bad_t stays above N up to alpha = 2: no admissible root
            sqrt_b = rows[2]
            return original(alpha, rows) + np.where(sqrt_b == math.sqrt(1.0 / bad_t), 1e9, 0.0)

        monkeypatch.setattr(approx, "_trapezoid_number", lifted)
        with pytest.raises(approx.MethodOutOfRangeError):
            approx.semi_analytic_alpha(P, 100, bad_t)
        rows = sweep(config)
        assert len(rows) == 12
        for row in rows:
            failed = row.t == bad_t and row.method is Method.SEMI_ANALYTIC
            assert row.status == ("error" if failed else "ok")
            assert (row.delta_f is None) == failed
        assert run(config) == 1

    def test_wide_rows_stay_within_block_memory(self):
        # ~6e5 levels a well at t = 1e10; a pass holding whole rows would
        # allocate tens of MiB, the level-blocked kernel about one
        point = ThermoPoint(1, 1e10)
        tracemalloc.start()
        try:
            pair = net_force(point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pair.delta_f > 0.0
        assert peak < 4 * 2**20
