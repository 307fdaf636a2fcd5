"""Exact dimensionless forces on the partition and temperature sweeps.

The force exerted by one half well is f = sum_n e_n N_n with the
occupations fixed by the particle-number constraint; the observable is
the net force delta_f = f_minus - f_plus. It starts at 3N/4 for t -> 0,
stays nearly flat below t = 1, decreases roughly linearly, turns around
near t ~ N and grows like sqrt(t) from there.

A sweep evaluates a set of methods (the exact sums and/or the closed-form
approximations) over a temperature grid, each as one array evaluation, and
reports one SweepRow record per (temperature, method) pair, its fields in
the CSV's column order. Failures become error rows instead of aborting the
sweep; a closed form that raises fails its column.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import approx
# solve_alpha is not called here, but bench/spans.py wraps force.solve_alpha by name, and the name must stay
# importable for that
from .occupancy import DEFAULT_TOL, ThermoPoint, check_domain, force_difference, solve_alpha, solve_rows  # noqa: F401
from .spectrum import WellSide

if TYPE_CHECKING:
    from .cli import SweepConfig

__all__ = [
    "ForcePair",
    "Method",
    "GridScale",
    "SweepRow",
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


class SweepRow(NamedTuple):
    """One (temperature, method) record of a sweep, its fields in the CSV's column order.

    Per-well fields are filled only by methods that compute them (numeric
    and semi-analytic); delta_f is absent only on error rows. status is
    "ok", "out-of-range" for a value computed outside its method's declared
    validity window, or "error". A NamedTuple, not a frozen dataclass: a
    sweep builds one per (t, method), and a dataclass's __init__ sets each
    field through object.__setattr__, most of the row builder's time.
    """

    t: float
    method: Method
    alpha_plus: float | None
    alpha_minus: float | None
    f_plus: float | None
    f_minus: float | None
    delta_f: float | None
    status: str


def net_force(point: ThermoPoint, tol: float = DEFAULT_TOL) -> ForcePair:
    """Exact net force on the partition, both wells solved together at the same tolerance."""
    solved = solve_rows((WellSide.PLUS, WellSide.MINUS), point.n_particles, point.b, tol)
    converged = solved.converged.tolist()
    if not all(converged):
        solved.solution(converged.index(False))  # raises the failed well's ConstraintSolverError
    f_plus, f_minus = solved.force.tolist()
    return ForcePair(f_plus, f_minus, force_difference(solved, point.b).item())


def net_force_zero_t(n_particles: int) -> float:
    """Net force at t = 0 exactly: all N particles sit in each ground state.

    Handled analytically because b = 1/t is outside the numeric pipeline's
    domain at t = 0.
    """
    check_domain(n_particles)
    return 0.75 * n_particles


def temperature_grid(config: "SweepConfig") -> list[float]:
    """Materialize the sweep grid of a configuration.

    A SweepConfig has validated its grid already; grid_points and
    grid_scale are checked again because sweep also takes duck-typed configs
    that never passed through SweepConfig. grid_scale is a GridScale or its
    value ("log" or "linear"); anything else raises ValueError.
    """
    if config.grid_points < 1:
        raise ValueError(f"grid must be non-empty, got {config.grid_points} points")
    space = np.geomspace if GridScale(config.grid_scale) is GridScale.LOG else np.linspace
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
    wells = (WellSide.PLUS,) * len(grid) + (WellSide.MINUS,) * len(grid)
    if method is Method.NUMERIC:
        b = 1.0 / grid
        solved = solve_rows(wells, n_particles, np.concatenate((b, b)), tol)
        alpha, force, ok = solved.alpha.reshape(2, -1), solved.force.reshape(2, -1), solved.converged
        delta_f = force_difference(solved, b)
    else:
        alpha = approx.semi_analytic_rows(wells, n_particles, np.concatenate((grid, grid)))[0]
        alpha, ok = alpha.reshape(2, -1), np.isfinite(alpha)
        force = np.array([approx.semi_analytic_force(side, a, grid, n_particles)
                          for side, a in zip((WellSide.PLUS, WellSide.MINUS), alpha)])  # wells' row order
        delta_f = force[1] - force[0]
    return alpha, force, delta_f, np.where(ok.reshape(2, -1).all(axis=0), "ok", "error")


def _rows(method: Method, grid: list[float], alpha, force, delta_f, status) -> list[SweepRow]:
    """The SweepRows of one column; an error row keeps only t, method and status."""
    columns = [] if alpha is None else [*alpha.tolist(), *force.tolist()]  # alpha_plus, alpha_minus, f_plus, f_minus
    columns.append(delta_f.tolist())
    for row in np.flatnonzero(status == "error").tolist():
        for column in columns:
            column[row] = None
    fields = columns if alpha is not None else [repeat(None)] * 4 + columns
    # tuple.__new__, not SweepRow(...): a NamedTuple's own __new__ is a Python-level call per row
    return list(map(tuple.__new__, repeat(SweepRow), zip(grid, repeat(method), *fields, status.tolist())))


def sweep(config: "SweepConfig") -> list[SweepRow]:
    """Evaluate every configured method over the temperature grid.

    Rows come back as SweepRow records ordered by temperature and then by
    method name, the order write_csv writes, one row per (t, method) pair,
    independent of evaluation order. Each method's column is one array
    evaluation over the grid (one batched solve of every point and both
    wells for numeric and semi-analytic); a closed form that raises turns
    its whole column into error rows.
    """
    grid = temperature_grid(config)
    columns = [
        _rows(method, grid, *_column(method, config.n_particles, np.array(grid), config.tolerance))
        for method in sorted(config.methods, key=lambda m: m.value)
    ]
    return list(chain.from_iterable(zip(*columns)))
