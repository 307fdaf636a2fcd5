"""Exact dimensionless forces on the partition and temperature sweeps.

The force exerted by one half well is f = sum_n e_n N_n with the
occupations fixed by the particle-number constraint; the observable is
the net force delta_f = f_minus - f_plus. It starts at 3N/4 for t -> 0,
stays nearly flat below t = 1, decreases roughly linearly, turns around
near t ~ N and grows like sqrt(t) from there.

A sweep evaluates a set of methods (the exact sums and/or the closed-form
approximations) over a temperature grid and reports one row per
(temperature, method) pair. Failures at single points become error rows
instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import approx
from .occupancy import DEFAULT_TOL, ThermoPoint, solve_alpha, solve_rows
from .spectrum import WellSide

if TYPE_CHECKING:
    from .cli import SweepConfig

__all__ = [
    "ForcePair",
    "Method",
    "GridScale",
    "SweepRow",
    "half_force",
    "net_force",
    "net_force_zero_t",
    "temperature_grid",
    "sweep",
]


@dataclass(frozen=True)
class ForcePair:
    """Both half-well forces and their difference at one temperature."""

    f_plus: float
    f_minus: float
    delta_f: float


class Method(Enum):
    """How a sweep point is evaluated."""

    NUMERIC = "numeric"
    LOW_T = "low-t"
    LINEAR = "linear"
    SEMI_ANALYTIC = "semi-analytic"
    HIGH_T = "high-t"


class GridScale(Enum):
    LINEAR = "linear"
    LOG = "log"


@dataclass(frozen=True)
class SweepRow:
    """One (temperature, method) record of a sweep.

    Per-well fields are filled only by methods that compute them (numeric
    and semi-analytic); delta_f is absent only on error rows. status is
    "ok", "out-of-range" for a value computed outside its method's declared
    validity window, or "error".
    """

    t: float
    method: Method
    alpha_plus: float | None
    alpha_minus: float | None
    f_plus: float | None
    f_minus: float | None
    delta_f: float | None
    status: str


def half_force(side: WellSide, point: ThermoPoint, tol: float = DEFAULT_TOL) -> float:
    """Exact force sum_n e_n N_n from one half well, at the solved multiplier."""
    return solve_alpha(side, point, tol).force


def net_force(point: ThermoPoint, tol: float = DEFAULT_TOL) -> ForcePair:
    """Exact net force on the partition, both wells solved together at the same tolerance."""
    solved = solve_rows((WellSide.PLUS, WellSide.MINUS), point.n_particles, point.b, tol)
    converged = solved.converged.tolist()
    if not all(converged):
        solved.solution(converged.index(False))  # raises the failed well's ConstraintSolverError
    f_plus, f_minus = solved.force.tolist()
    return ForcePair(f_plus, f_minus, f_minus - f_plus)


def net_force_zero_t(n_particles: int) -> float:
    """Net force at t = 0 exactly: all N particles sit in each ground state.

    Handled analytically because b = 1/t is outside the numeric pipeline's
    domain at t = 0.
    """
    if n_particles < 1:
        raise ValueError(f"particle number must be >= 1, got {n_particles}")
    return 0.75 * n_particles


def temperature_grid(config: "SweepConfig") -> list[float]:
    """Materialize the sweep grid of a configuration that SweepConfig has validated."""
    if config.grid_points < 1:
        raise ValueError(f"grid must be non-empty, got {config.grid_points} points")
    space = np.geomspace if config.grid_scale is GridScale.LOG else np.linspace
    return space(config.t_min, config.t_max, config.grid_points).tolist()


def _batched_rows(method: Method, n_particles: int, grid: list[float], tol: float) -> list[SweepRow]:
    """Numeric or semi-analytic rows from one solve over grid and wells; a failed well makes an error row."""
    t_rows = np.concatenate((grid, grid))
    wells = (WellSide.PLUS,) * len(grid) + (WellSide.MINUS,) * len(grid)
    if method is Method.NUMERIC:
        solved = solve_rows(wells, n_particles, 1.0 / t_rows, tol)
        alpha, force, ok = solved.alpha, solved.force, solved.converged
    else:
        alpha, errors = approx.semi_analytic_rows(wells, n_particles, t_rows)
        halves = zip((WellSide.PLUS, WellSide.MINUS), np.split(alpha, 2), np.split(t_rows, 2))
        force = np.concatenate([approx.semi_analytic_force(s, a, ts, n_particles) for s, a, ts in halves])
        ok = np.array([error is None for error in errors])
    # column 0 is the PLUS well, column 1 the MINUS well
    alpha = alpha.reshape(2, -1).T.tolist()
    force = force.reshape(2, -1).T.tolist()
    ok = ok.reshape(2, -1).all(axis=0).tolist()
    return [
        SweepRow(t, method, a[0], a[1], f[0], f[1], f[1] - f[0], "ok")
        if good
        else SweepRow(t, method, None, None, None, None, None, "error")
        for t, a, f, good in zip(grid, alpha, force, ok)
    ]


def _evaluate_point(n_particles: int, t: float, method: Method) -> SweepRow:
    """One row of a closed-form approximation: low-t, linear or high-t."""
    try:
        if method is Method.LINEAR:
            result = approx.delta_f_linear(n_particles, t)
            status = "ok" if result.in_range else "out-of-range"
            return SweepRow(t, method, None, None, None, None, result.value, status)
        closed_form = approx.delta_f_low_t if method is Method.LOW_T else approx.delta_f_high_t
        return SweepRow(t, method, None, None, None, None, closed_form(n_particles, t), "ok")
    except (ValueError, ArithmeticError):
        return SweepRow(t, method, None, None, None, None, None, "error")


def sweep(config: "SweepConfig") -> list[SweepRow]:
    """Evaluate every configured method over the temperature grid.

    Rows come back ordered by temperature and then by method name, one row
    per (t, method) pair, independent of evaluation order. The numeric rows
    of the whole grid are solved in one batched pass, and so are the
    semi-analytic rows.
    """
    grid = temperature_grid(config)
    columns = [
        _batched_rows(method, config.n_particles, grid, config.tolerance)
        if method in (Method.NUMERIC, Method.SEMI_ANALYTIC)
        else [_evaluate_point(config.n_particles, t, method) for t in grid]
        for method in sorted(config.methods, key=lambda m: m.value)
    ]
    return [row for rows_at_t in zip(*columns) for row in rows_at_t]
