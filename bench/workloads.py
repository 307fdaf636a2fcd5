"""The benchmark's workloads: deterministic inputs and one pass over them.

Every pass looks up its boxforce entry point (``bf.cli.main``,
``bf.force.sweep`` or ``bf.force.net_force``) afresh, so the wrappers the
traced run installs see every call.

* ``readme_sweeps``: the three README sweeps (N = 100) through the CLI
  entry point, CSV to a file. Kernel calls see at most ~600 levels, so the
  cost is per-call overhead, solver steps, the semi-analytic root finding
  and CSV writing. The seed is not used: these are the fixed grids users run.
* ``large_n``: ``sweep()`` at N = 10^4 over 100 log-spaced t in [1, 1e8],
  numeric only. Kernel calls reach ~5e4 levels, so per-level throughput
  dominates and per-call overhead is noise. The seed is not used.
* ``scalar_random``: 2000 ``net_force`` calls one at a time, N log-uniform
  in [1, 10^4] and t log-uniform in [1e-3, 1e4], drawn from the seed as a
  Latin hypercube. No grid to batch, and N varies, which reaches solver
  regimes the fixed-N sweeps miss.
"""

from __future__ import annotations

import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

NAMES = ("readme_sweeps", "large_n", "scalar_random")

README_SWEEPS = (
    ("low", ["--t-min", "0.01", "--t-max", "1", "--points", "200", "--methods", "numeric,low-t"]),
    (
        "mid",
        ["--t-min", "0.01", "--t-max", "160", "--points", "400", "--methods", "numeric,linear,semi-analytic"],
    ),
    ("high", ["--t-min", "1", "--t-max", "10000", "--points", "300", "--methods", "numeric,high-t"]),
)
README_N = 100  # the CLI default, which the README commands rely on
CSV_HEADER = "t,method,alpha_plus,alpha_minus,f_plus,f_minus,delta_f,status"

LARGE_N = 10_000
LARGE_N_GRID = (1.0, 1e8, 100)

SCALAR_CALLS = 2000

# Calls are timed in segments of at least this much work between two
# calibrations, short against the seconds-long speed phases of a shared host.
SEGMENT_SECONDS = 0.05


@dataclass(frozen=True)
class Inputs:
    """What one pass feeds the program, and the records each call must return.

    ``calls[i]`` is the argument of the i-th call: a CLI argument list, a
    SweepConfig or a ThermoPoint. ``cases[i]`` lists the (N, t, method) of
    the records call i must produce, in order. ``net_force`` returns no
    multipliers, so ``scalar_random`` records carry none (``alphas``).
    """

    name: str
    calls: list
    cases: list[list[tuple[int, float, str]]]
    alphas: bool = True


@dataclass
class PassResult:
    call_seconds: list[float]
    kernel_seconds: list[float]  # per call, when calibrated
    # per call: output records (t, method, alpha_plus, alpha_minus, f_plus,
    # f_minus, delta_f, status), or None when the call raised; None once gated
    outputs: list[list[tuple] | None] | None


def _geomspace(lo: float, hi: float, points: int) -> list[float]:
    import numpy as np  # deferred so a setup measurement times only what boxforce imports

    return [float(t) for t in np.geomspace(lo, hi, points)]


def _sweep_cases(n_particles: int, grid: list[float], methods: list[str]) -> list[tuple[int, float, str]]:
    return [(n_particles, t, m) for t in grid for m in sorted(methods)]


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def scalar_points(seed: int) -> list[tuple[int, float]]:
    """The seeded (N, t) pairs of ``scalar_random``: a Latin hypercube, log-uniform in both.

    Each of the SCALAR_CALLS equal strata of log N and of log t holds one
    point, so the share of inputs in any cost regime moves by at most a
    point between seeds. With independent draws it is binomial, and the
    call_us_p99 of a seed jumped by 15% with the count of the ~1% of inputs
    whose level sums are longest.
    """
    rng = random.Random(seed)
    log_n = [(i + rng.random()) / SCALAR_CALLS for i in range(SCALAR_CALLS)]
    log_t = [(i + rng.random()) / SCALAR_CALLS for i in range(SCALAR_CALLS)]
    rng.shuffle(log_n)
    points = [(min(10_000, int(math.exp(u * math.log(10_001.0)))), 10.0 ** (-3.0 + 7.0 * v))
              for u, v in zip(log_n, log_t)]
    rng.shuffle(points)  # call order random too, not sorted by t
    return points


def build(name: str, seed: int, bf, out_dir: Path) -> Inputs:
    """Build a workload's inputs; ``bf`` is the imported boxforce package."""
    if name == "readme_sweeps":
        calls, cases = [], []
        for label, argv in README_SWEEPS:
            calls.append([*argv, "--output", str(out_dir / f"{label}.csv")])
            grid = _geomspace(float(_option(argv, "--t-min")), float(_option(argv, "--t-max")),
                              int(_option(argv, "--points")))
            cases.append(_sweep_cases(README_N, grid, _option(argv, "--methods").split(",")))
        return Inputs(name, calls, cases)
    if name == "large_n":
        t_min, t_max, points = LARGE_N_GRID
        config = bf.cli.SweepConfig(
            n_particles=LARGE_N,
            t_min=t_min,
            t_max=t_max,
            grid_points=points,
            grid_scale=bf.force.GridScale.LOG,
            methods=frozenset({bf.force.Method.NUMERIC}),
        )
        return Inputs(name, [config], [_sweep_cases(LARGE_N, _geomspace(t_min, t_max, points), ["numeric"])])
    if name == "scalar_random":
        points = scalar_points(seed)
        calls = [bf.occupancy.ThermoPoint(n_particles, t) for n_particles, t in points]
        return Inputs(name, calls, [[(n_particles, t, "numeric")] for n_particles, t in points], alphas=False)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _parse_csv(text: str) -> list[tuple] | None:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    records = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 8:
            return None
        t, method, *values, status = fields
        try:
            records.append((float(t), method, *(float(v) if v else None for v in values), status))
        except ValueError:
            return None
    return records


def _row_record(row) -> tuple:
    return (row.t, row.method.value, row.alpha_plus, row.alpha_minus,
            row.f_plus, row.f_minus, row.delta_f, row.status)


def _report(exc: BaseException, call) -> None:
    print(f"bench: call {call!r} raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def _entry_point(name: str, bf):
    """The boxforce function a workload calls, looked up now so installed wrappers apply."""
    if name == "readme_sweeps":
        return bf.cli.main
    if name == "large_n":
        return bf.force.sweep
    return bf.force.net_force


def run_pass(inputs: Inputs, bf, calibrate=None) -> PassResult:
    """Run every call of the workload once; only the calls themselves are timed.

    With ``calibrate`` (a callable returning the time of a fixed kernel),
    the calls are split into segments of at least SEGMENT_SECONDS, the
    kernel is timed between segments, and each call gets the mean kernel
    time of the two calibrations around its segment, for run.py to scale by.
    """
    clock = time.perf_counter
    if inputs.name == "readme_sweeps":
        for argv in inputs.calls:  # a file left by an earlier pass must not pass for this one's
            Path(_option(argv, "--output")).unlink(missing_ok=True)
    entry = _entry_point(inputs.name, bf)
    call_seconds, raw, kernel_seconds = [], [], []
    before = calibrate() if calibrate else None
    segment_start, segment_busy = 0, 0.0
    for i, call in enumerate(inputs.calls):
        t0 = clock()
        try:
            raw.append(entry(call))
        except (Exception, SystemExit) as exc:  # a CLI usage error exits; count it as a failed call
            raw.append(exc)
        call_seconds.append(clock() - t0)
        segment_busy += call_seconds[-1]
        if calibrate and (segment_busy >= SEGMENT_SECONDS or i == len(inputs.calls) - 1):
            after = calibrate()
            kernel_seconds += [0.5 * (before + after)] * (i + 1 - segment_start)
            before, segment_start, segment_busy = after, i + 1, 0.0

    outputs = []
    for call, result in zip(inputs.calls, raw):
        if isinstance(result, BaseException):
            _report(result, call)
            outputs.append(None)
        elif inputs.name == "readme_sweeps":
            try:
                outputs.append(_parse_csv(Path(_option(call, "--output")).read_text(encoding="ascii")))
            except OSError as exc:
                _report(exc, call)
                outputs.append(None)
        elif inputs.name == "large_n":
            outputs.append([_row_record(row) for row in result])
        else:
            outputs.append([(call.t, "numeric", None, None, result.f_plus, result.f_minus,
                             result.delta_f, "ok")])
    return PassResult(call_seconds, kernel_seconds, outputs)
