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
from .occupancy import DEFAULT_TOL, ConstraintSolverError, ThermoPoint, solve_alpha, solve_rows
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
    f_plus = solved.solution(0).force
    f_minus = solved.solution(1).force
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
    if config.grid_scale is GridScale.LOG:
        return [float(t) for t in np.geomspace(config.t_min, config.t_max, config.grid_points)]
    return [float(t) for t in np.linspace(config.t_min, config.t_max, config.grid_points)]


_POINT_ERRORS = (
    ValueError,
    ArithmeticError,
    ConstraintSolverError,
    approx.MethodOutOfRangeError,
    approx.QuadratureError,
)


def _numeric_rows(n_particles: int, grid: list[float], tol: float) -> list[SweepRow]:
    """Exact rows of the whole grid from one solve over both wells; a failed well makes an error row."""
    b = 1.0 / np.array(grid)
    wells = (WellSide.PLUS,) * len(grid) + (WellSide.MINUS,) * len(grid)
    solved = solve_rows(wells, n_particles, np.concatenate((b, b)), tol)
    # column 0 is the PLUS well, column 1 the MINUS well
    alpha = solved.alpha.reshape(2, -1).T.tolist()
    force = solved.force.reshape(2, -1).T.tolist()
    ok = solved.converged.reshape(2, -1).all(axis=0).tolist()
    return [
        SweepRow(t, Method.NUMERIC, a[0], a[1], f[0], f[1], f[1] - f[0], "ok")
        if good
        else SweepRow(t, Method.NUMERIC, None, None, None, None, None, "error")
        for t, a, f, good in zip(grid, alpha, force, ok)
    ]


def _evaluate_point(n_particles: int, t: float, method: Method) -> SweepRow:
    """One row of a closed-form approximation."""
    try:
        if method is Method.LOW_T:
            value = approx.delta_f_low_t(n_particles, t)
            return SweepRow(t, method, None, None, None, None, value, "ok")
        if method is Method.LINEAR:
            result = approx.delta_f_linear(n_particles, t)
            status = "ok" if result.in_range else "out-of-range"
            return SweepRow(t, method, None, None, None, None, result.value, status)
        if method is Method.SEMI_ANALYTIC:
            alpha_plus = approx.semi_analytic_alpha(WellSide.PLUS, n_particles, t)
            alpha_minus = approx.semi_analytic_alpha(WellSide.MINUS, n_particles, t)
            f_plus = approx.semi_analytic_force(WellSide.PLUS, alpha_plus, t, n_particles)
            f_minus = approx.semi_analytic_force(WellSide.MINUS, alpha_minus, t, n_particles)
            return SweepRow(
                t, method, alpha_plus, alpha_minus, f_plus, f_minus, f_minus - f_plus, "ok"
            )
        if method is Method.HIGH_T:
            value = approx.delta_f_high_t(n_particles, t)
            return SweepRow(t, method, None, None, None, None, value, "ok")
        raise ValueError(f"unknown method {method!r}")
    except _POINT_ERRORS:
        return SweepRow(t, method, None, None, None, None, None, "error")


def sweep(config: "SweepConfig") -> list[SweepRow]:
    """Evaluate every configured method over the temperature grid.

    Rows come back ordered by temperature and then by method name, one row
    per (t, method) pair, independent of evaluation order. The numeric rows
    of the whole grid are solved in one batched pass.
    """
    grid = temperature_grid(config)
    methods = sorted(config.methods, key=lambda m: m.value)
    numeric = _numeric_rows(config.n_particles, grid, config.tolerance) if Method.NUMERIC in methods else []
    rows: list[SweepRow] = []
    for i, t in enumerate(grid):
        for method in methods:
            if method is Method.NUMERIC:
                rows.append(numeric[i])
            else:
                rows.append(_evaluate_point(config.n_particles, t, method))
    return rows
