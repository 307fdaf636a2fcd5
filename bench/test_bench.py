"""Tests of the benchmark itself: deterministic inputs, the gate, the reference and the trace.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import boxforce  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

ALL_METHODS = ["numeric", "low-t", "linear", "semi-analytic", "high-t"]


def _small_sweep() -> tuple[list[tuple], list[tuple[int, float, str]]]:
    """Records of a 12-point, all-method sweep at N = 100 and the cases they answer."""
    config = boxforce.SweepConfig(
        n_particles=100, t_min=0.05, t_max=200.0, grid_points=12,
        methods=frozenset(boxforce.Method(m) for m in ALL_METHODS),
    )
    rows = boxforce.sweep(config)
    records = [(r.t, r.method.value, r.alpha_plus, r.alpha_minus, r.f_plus, r.f_minus, r.delta_f, r.status)
               for r in rows]
    grid = workloads._geomspace(0.05, 200.0, 12)
    return records, workloads._sweep_cases(100, grid, ALL_METHODS)


def _gate(records, cases) -> int:
    inputs = workloads.Inputs("test", [None], [cases])
    return run.Gate(inputs).failures([records])


def test_scalar_inputs_repeat_for_a_seed_and_change_with_it():
    first = workloads.scalar_points(11)
    assert first == workloads.scalar_points(11)
    assert first != workloads.scalar_points(12)
    assert len(first) == workloads.SCALAR_CALLS
    assert all(1 <= n <= 10_000 and 1e-3 <= t <= 1e4 for n, t in first)
    assert min(n for n, _ in first) == 1  # the log-uniform draw reaches both ends
    assert max(n for n, _ in first) > 5_000


@pytest.mark.parametrize("name", ["readme_sweeps", "large_n"])
def test_sweep_inputs_ignore_the_seed(name, tmp_path):
    one = workloads.build(name, 1, boxforce, tmp_path)
    two = workloads.build(name, 2, boxforce, tmp_path)
    assert one.cases == two.cases
    assert [str(c) for c in one.calls] == [str(c) for c in two.calls]


def test_program_rows_pass_the_gate():
    records, cases = _small_sweep()
    assert _gate(records, cases) == 0


@pytest.mark.parametrize(
    "field, change",
    [
        (4, lambda v: v * (1 + 1e-8)),        # f_plus off by 1e-8 relative
        (5, lambda v: v * (1 - 1e-8)),        # f_minus
        (2, lambda v: v + 1e-8 * max(1.0, abs(v))),  # alpha_plus
        (0, lambda v: v * (1 + 1e-9)),        # temperature
    ],
)
def test_a_perturbed_numeric_row_trips_the_gate(field, change):
    records, cases = _small_sweep()
    i = next(k for k, r in enumerate(records) if r[1] == "numeric" and r[0] > 10)
    bad = list(records[i])
    bad[field] = change(bad[field])
    records[i] = tuple(bad)
    assert _gate(records, cases) == 1


def test_delta_f_is_held_to_the_half_well_scale():
    records, cases = _small_sweep()
    i = next(k for k, r in enumerate(records) if r[1] == "numeric" and r[0] > 10)
    t, method, ap, am, fp, fm, df, status = records[i]
    scale = max(abs(fp), abs(fm))
    records[i] = (t, method, ap, am, fp, fm, df + 0.5e-9 * scale, status)
    assert _gate(records, cases) == 0
    records[i] = (t, method, ap, am, fp, fm, df + 2e-9 * scale, status)
    assert _gate(records, cases) == 1


@pytest.mark.parametrize("method", ALL_METHODS)
def test_status_error_fails_and_out_of_range_passes(method):
    records, cases = _small_sweep()
    i = next(k for k, r in enumerate(records) if r[1] == method)
    records[i] = records[i][:7] + ("out-of-range" if records[i][7] == "ok" else "ok",)
    assert _gate(records, cases) == 0
    records[i] = (records[i][0], method, None, None, None, None, None, "error")
    assert _gate(records, cases) == 1


def test_missing_or_extra_rows_fail_every_case_of_the_call():
    records, cases = _small_sweep()
    assert _gate(records[:-1], cases) == len(cases)
    assert _gate(None, cases) == len(cases)


@pytest.mark.parametrize(
    "n_particles, t",
    [(1, 1e-3), (100, 0.1), (10_000, 1.0), (3, 10.0), (100, 100.0), (1_000, 1e4)],
)
def test_reference_matches_the_mpmath_oracle(n_particles, t):
    assert reference.oracle_mismatches([(n_particles, t)]) == []


def test_traced_counts_repeat_and_restore_the_package(tmp_path):
    inputs = workloads.build("readme_sweeps", 0, boxforce, tmp_path)
    inputs = dataclasses.replace(inputs, calls=inputs.calls[:1], cases=inputs.cases[:1])
    original = boxforce.force.solve_alpha
    seen = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(boxforce)
        try:
            result = workloads.run_pass(inputs, boxforce)
        finally:
            tracer.restore()
        seen.append(layer_metrics(tracer.spans)[0])
        assert run.Gate(inputs).failures(result.outputs) == 0
    assert boxforce.force.solve_alpha is original
    assert seen[0] == seen[1]
    counts = seen[0]
    assert counts["occupancy.solve_alpha.calls"] == 2 * 200  # both wells of the low sweep
    assert counts["approx.delta_f_low_t.calls"] == 200
    assert 0 < counts["occupancy.level_use_ratio"] <= 1
    assert counts["cli.write_csv.bytes"] == (tmp_path / "low.csv").stat().st_size


def test_import_split_counts_outermost_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy._core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |         numpy.linalg",
        "import time:        20 |         50 |       scipy.special",
        "import time:        10 |         60 |     scipy.optimize",
        "import time:         5 |        215 |   boxforce.occupancy",
        "import time:         5 |        220 | boxforce",
    ])
    split = run.import_split(log)
    assert split == {
        "setup.import_numpy_s": 150e-6,
        "setup.import_scipy_s": 60e-6,
        "setup.import_boxforce_s": 220e-6,
    }
