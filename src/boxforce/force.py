"""Exact dimensionless forces on the partition and temperature sweeps.

The force exerted by one half well is f = sum_n e_n N_n with the
occupations fixed by the particle-number constraint; the observable is
the net force delta_f = f_minus - f_plus. It starts at 3N/4 for t -> 0,
stays nearly flat below t = 1, decreases roughly linearly, turns around
near t ~ N and grows like sqrt(t) from there.

A sweep evaluates a set of methods (the exact sums and/or the closed-form
approximations) over a temperature grid, each as one array evaluation, and
reports one row per (temperature, method) pair. Failures become error rows
instead of aborting the sweep; a closed form that raises fails its column.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import approx
from .occupancy import DEFAULT_TOL, ThermoPoint, check_domain, solve_alpha, solve_rows
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
    check_domain(n_particles)
    return 0.75 * n_particles


def temperature_grid(config: "SweepConfig") -> list[float]:
    """Materialize the sweep grid of a configuration.

    A SweepConfig has validated its grid already; grid_points is checked
    again because sweep also takes duck-typed configs that never passed
    through SweepConfig.
    """
    if config.grid_points < 1:
        raise ValueError(f"grid must be non-empty, got {config.grid_points} points")
    space = np.geomspace if config.grid_scale is GridScale.LOG else np.linspace
    return space(config.t_min, config.t_max, config.grid_points).tolist()


def _column(method: Method, n_particles: int, grid: np.ndarray, tol: float):
    """One method over the grid: alpha and force ((2, G), PLUS well first; None for a closed form), delta_f, status."""
    try:  # a closed form that raises fails its whole column
        if method is Method.LINEAR:
            linear = approx.delta_f_linear(n_particles, grid)
            return None, None, linear.value, np.where(linear.in_range, "ok", "out-of-range")
        if method in (Method.LOW_T, Method.HIGH_T):
            closed_form = approx.delta_f_low_t if method is Method.LOW_T else approx.delta_f_high_t
            return None, None, closed_form(n_particles, grid), np.full(len(grid), "ok")
    except (ValueError, ArithmeticError):
        return None, None, np.full(len(grid), None), np.full(len(grid), "error")
    wells, t_rows = (WellSide.PLUS,) * len(grid) + (WellSide.MINUS,) * len(grid), np.concatenate((grid, grid))
    if method is Method.NUMERIC:
        solved = solve_rows(wells, n_particles, 1.0 / t_rows, tol)
        alpha, force, ok = solved.alpha.reshape(2, -1), solved.force.reshape(2, -1), solved.converged
    else:
        alpha, errors = approx.semi_analytic_rows(wells, n_particles, t_rows)
        alpha, ok = alpha.reshape(2, -1), np.array([error is None for error in errors])
        force = np.array([approx.semi_analytic_force(side, a, grid, n_particles) for side, a in zip(WellSide, alpha)])
    return alpha, force, force[1] - force[0], np.where(ok.reshape(2, -1).all(axis=0), "ok", "error")


def _rows(method: Method, grid: list[float], alpha, force, delta_f, status) -> list[SweepRow]:
    """The SweepRows of one column; an error row keeps only t, method and status."""
    fields = np.full((5, len(grid)), None)  # alpha_plus, alpha_minus, f_plus, f_minus, delta_f
    fields[:4] = None if alpha is None else np.concatenate((alpha, force))
    fields[4] = delta_f
    fields[:, status == "error"] = None
    return [SweepRow(t, method, *values, s) for t, values, s in zip(grid, fields.T.tolist(), status.tolist())]


def sweep(config: "SweepConfig") -> list[SweepRow]:
    """Evaluate every configured method over the temperature grid.

    Rows come back ordered by temperature and then by method name, one row
    per (t, method) pair, independent of evaluation order. Each method's
    column is one array evaluation over the grid (one batched solve of every
    point and both wells for numeric and semi-analytic); a closed form that
    raises turns its whole column into error rows.
    """
    grid = temperature_grid(config)
    columns = [
        _rows(method, grid, *_column(method, config.n_particles, np.array(grid), config.tolerance))
        for method in sorted(config.methods, key=lambda m: m.value)
    ]
    return [row for rows_at_t in zip(*columns) for row in rows_at_t]
