import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from boxforce import (
    ForcePair,
    GridScale,
    Method,
    SweepConfig,
    ThermoPoint,
    WellSide,
    half_force,
    net_force,
    net_force_zero_t,
    run,
    sweep,
    temperature_grid,
)

from _oracles import mp_delta_f, mp_half_force

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
    def test_zero_t_limits(self):
        point = ThermoPoint(100, 1e-3)
        assert half_force(P, point) == pytest.approx(25.0, abs=1e-9)
        assert half_force(M, point) == pytest.approx(100.0, abs=1e-9)

    def test_against_brute_force_oracle(self):
        assert half_force(P, ThermoPoint(100, 1.0)) == pytest.approx(F_PLUS_100_T1, rel=1e-10)


class TestNetForce:
    def test_pair_is_consistent(self):
        pair = net_force(ThermoPoint(100, 3.0))
        assert isinstance(pair, ForcePair)
        assert pair.delta_f == pair.f_minus - pair.f_plus
        assert pair.f_plus > 0.0
        assert pair.f_minus > 0.0

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
        keys = [(row.t, row.method.value) for row in rows]
        assert keys == sorted(keys)

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


def test_temperature_grid_scales():
    log_cfg = SweepConfig(t_min=0.1, t_max=10.0, grid_points=3)
    assert temperature_grid(log_cfg) == pytest.approx([0.1, 1.0, 10.0], rel=1e-12)
    lin_cfg = SweepConfig(t_min=1.0, t_max=3.0, grid_points=3, grid_scale=GridScale.LINEAR)
    assert temperature_grid(lin_cfg) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)


class TestBatchedSolve:
    def test_failed_rows_are_isolated(self, tmp_path, monkeypatch):
        import boxforce.force as force_module
        from boxforce import occupancy

        cap = 4
        config = SweepConfig(t_min=0.01, t_max=1e4, grid_points=12, output_path=str(tmp_path / "out.csv"))
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
