import math
import random
import subprocess
import sys

import numpy as np
import pytest

from boxforce import (
    CSV_HEADER,
    GridScale,
    Method,
    SweepConfig,
    SweepRow,
    parse_config,
    run,
    sweep,
    write_csv,
)
from boxforce.cli import main


# the three sweeps of the README, at the default N = 100
README_SWEEPS = [
    "--t-min 0.01 --t-max 1 --points 200 --methods numeric,low-t",
    "--t-min 0.01 --t-max 160 --points 400 --methods numeric,linear,semi-analytic",
    "--t-min 1 --t-max 10000 --points 300 --methods numeric,high-t",
]


# The CLI smoke cases, each a boxforce argument list and its reason on the comment above it. Every case must exit 0
# and write no error row; filterwarnings = ["error"] (pyproject.toml) fails a case where a numpy RuntimeWarning
# escapes a kernel's errstate
SMOKE_CASES = [
    # split rows (every row is over occupancy.SPLIT_FLOOR levels, together far more than occupancy.SPLIT_COST)
    # near condensation: the wide kernel's pole split
    pytest.param("--n-particles 1000000 --t-min 3e4 --t-max 1e8 --points 50", id="wide"),
    # rows on both sides of occupancy.SPLIT_FLOOR, those over it split: degenerate rows, alpha < 0, whose pole split
    # raises |alpha| to its powers and sums the lattice by its zeta series (occupancy._powers, occupancy._lattice)
    pytest.param("--n-particles 1000000 --t-min 300 --t-max 3e4 --points 100", id="floor"),
    # the t range of test_every_row_converges_within_three_evaluations (tests/test_occupancy.py), all of the accepted
    # range under occupancy.MAX_LEVELS, at the smallest N: level rows and wide rows on the fugacity series, whose net
    # force takes occupancy.force_difference's difference route, all converge
    pytest.param("--n-particles 1 --t-min 1e-300 --t-max 2e14 --points 200", id="range_1"),
    # the same range at N = 1e9
    pytest.param("--n-particles 1000000000 --t-min 1e-300 --t-max 2e14 --points 200", id="range_1e9"),
    # N = 1e307: wide rows near condensation, whose lattice sum of squares takes the scale before squaring
    # (occupancy._lattice)
    pytest.param(f"--n-particles {10**307} --t-min 1e5 --t-max 1e6 --points 3", id="huge_n"),
    # N = 1e200, past the N where an unscaled sum of squares overflows (occupancy._routes): level rows only, summed at
    # scale. Every row starts within tol and stops on its first evaluation, so this checks the scaled sums for
    # warnings only; the test_*_rows_past_the_square_overflow_converge tests of tests/test_occupancy.py cover the step
    # on level and wide rows
    pytest.param(f"--n-particles {10**200} --t-min 1e-3 --t-max 2e4 --points 100", id="huge_n_levels"),
    # N = 1.7e308, past the N where the start's pole model overflows: those rows start at x0, as
    # test_overflowing_model_root_starts_at_x0 (tests/test_occupancy.py) checks
    pytest.param(f"--n-particles {int(1.7e308)} --t-min 1e-3 --t-max 2e4 --points 100", id="top_n"),
    # README low sweep (N = 100)
    pytest.param(README_SWEEPS[0], id="low"),
    # README mid sweep: the widest spread of run lengths in one level plan (test_level_plans_hold_each_rows_own_levels)
    pytest.param(README_SWEEPS[1], id="mid"),
    # README high sweep
    pytest.param(README_SWEEPS[2], id="high"),
    # 4,000 rows under occupancy.SPLIT_FLOOR, 232,986 levels laid out in 15 level plans (occupancy._level_plan):
    # gaps formed from each run's index across plan seams (test_level_plans_hold_each_rows_own_gaps,
    # tests/test_properties.py)
    pytest.param("--t-min 10 --t-max 400 --points 2000", id="many_plans"),
    # the large_n grid (bench/workloads.py): rows start at the pole and fugacity models' roots on both routes
    # (test_start_cuts_evaluations_on_the_benchmark_grids)
    pytest.param("--n-particles 10000 --t-min 1 --t-max 1e8 --points 100", id="large_n"),
    # across the seams of the three start models (occupancy.START_T, the pole model's window and the fugacity model's,
    # see occupancy.REMAINDER_LIMIT): low-t, pole and fugacity rows in one sweep
    pytest.param("--n-particles 1000 --t-min 0.05 --t-max 1e9 --points 400", id="start_seams"),
    # the semi-analytic constraint at large N and t, where |alpha| falls to ~1e-7 and its tail takes arctan or arctanh
    # of a small argument (test_large_n_roots_meet_the_oracle_constraint)
    pytest.param("--n-particles 1000000 --t-min 1e4 --t-max 1e7 --points 200 --methods semi-analytic,high-t",
                 id="semi_large_n"),
]

class TestParseConfig:
    def test_defaults(self):
        config = parse_config([])
        assert config == SweepConfig()
        assert config.n_particles == 100
        assert (config.t_min, config.t_max) == (0.01, 160.0)
        assert config.grid_points == 400
        assert config.grid_scale is GridScale.LOG
        assert config.methods == frozenset({Method.NUMERIC})
        assert config.tolerance == 1e-12
        assert config.output_path == "-"

    def test_low_t_window_flags(self):
        config = parse_config(
            ["--n-particles", "100", "--t-min", "0.01", "--t-max", "1", "--methods", "numeric,low-t"]
        )
        assert (config.t_min, config.t_max) == (0.01, 1.0)
        assert config.methods == frozenset({Method.NUMERIC, Method.LOW_T})

    @pytest.mark.parametrize(
        "argv",
        [
            ["--t-min", "-1"],
            ["--t-min", "5", "--t-max", "1"],
            ["--points", "0"],
            ["--points", "abc"],
            ["--methods", "nope"],
            ["--methods", ""],
            ["--tol", "0"],
            ["--n-particles", "0"],
            ["--unknown-flag"],
            ["--scale", "cubic"],
            ["--tol", "nan"],
            ["--tol", "inf"],
            ["--tol", "1e-15"],  # below the floor MIN_TOL
            ["--t-max", "inf"],
            ["--t-min", "1e-310"],
            ["--n-particles", str(10**400)],  # an int past the float range
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "field, value",
        [("n_particles", n) for n in (0, math.nan, math.inf)]
        + [(end, t) for end in ("t_min", "t_max") for t in (0.0, -1.0, math.nan, math.inf, 1e-320)],
    )
    def test_config_rejects_bad_n_and_t(self, field, value):
        # the library path, past argparse's own type checks
        with pytest.raises(ValueError):
            SweepConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_scale", "log"),  # not a GridScale: temperature_grid would sweep it linearly
            ("grid_scale", None),
            ("grid_points", 2.5),
            ("grid_points", math.nan),
            ("grid_points", 3.0),  # integral, but no count to np.linspace
            ("grid_points", "3"),
            ("grid_points", np.int64(0)),
            ("methods", frozenset({"numeric"})),
            ("methods", frozenset({Method.NUMERIC, "high-t"})),
        ],
    )
    def test_config_rejects_what_sweep_cannot_run(self, field, value):
        with pytest.raises(ValueError):
            SweepConfig(t_min=1.0, t_max=100.0, **{field: value})

    def test_config_takes_numpy_integer_points(self):
        config = SweepConfig(t_min=1.0, t_max=100.0, grid_points=np.int64(3))
        assert [row.t for row in sweep(config)] == pytest.approx([1.0, 10.0, 100.0], rel=1e-15)

    def test_help_lists_methods_and_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "500")  # one line per option, so no name is hyphen-wrapped
        with pytest.raises(SystemExit) as excinfo:
            parse_config(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for method in Method:
            assert method.value in text
        defaults = SweepConfig()
        shown = (defaults.n_particles, defaults.t_min, defaults.t_max, defaults.grid_points, defaults.tolerance)
        for value in (*shown, defaults.grid_scale.value, "numeric", defaults.output_path):
            assert f"(default: {value})" in text


def _reference_csv(rows) -> str:
    """The CSV by the per-field rule: rows sorted by (t, method name), each field format(v, ".17g") or "" for None."""

    def cell(value):
        return "" if value is None else format(value, ".17g")

    ordered = sorted(rows, key=lambda row: (row.t, row.method.value))
    lines = [",".join((cell(row.t), row.method.value, *map(cell, row[2:7]), row.status)) for row in ordered]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


# data-field values whose 17-digit text is easy to get wrong
AWKWARD = [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 0.1, 74.833926687922799]


class TestWriteCsv:
    def _row(self, **overrides):
        fields = dict(
            t=1.0,
            method=Method.NUMERIC,
            alpha_plus=-0.24,
            alpha_minus=-0.99,
            f_plus=25.32,
            f_minus=100.16,
            delta_f=74.83,
            status="ok",
        )
        fields.update(overrides)
        return SweepRow(**fields)

    def test_header_and_full_numeric_row(self, tmp_path):
        out = tmp_path / "rows.csv"
        write_csv([self._row()], str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert len(cells) == 8
        assert "" not in cells
        assert cells[1] == "numeric"
        assert cells[-1] == "ok"

    def test_float_fields_round_trip(self, tmp_path):
        row = self._row(t=0.1, delta_f=74.833926687922799, alpha_plus=-0.24003408123117956)
        out = tmp_path / "rows.csv"
        write_csv([row], str(out))
        cells = out.read_text().splitlines()[1].split(",")
        assert float(cells[0]) == row.t
        assert float(cells[2]) == row.alpha_plus
        assert float(cells[6]) == row.delta_f

    def test_high_t_row_leaves_per_well_fields_empty(self, tmp_path):
        row = self._row(
            method=Method.HIGH_T, alpha_plus=None, alpha_minus=None, f_plus=None, f_minus=None
        )
        out = tmp_path / "rows.csv"
        write_csv([row], str(out))
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[1] == "high-t"
        assert cells[2:6] == ["", "", "", ""]
        assert cells[6] != ""

    def test_error_row_has_empty_data_fields(self, tmp_path):
        row = self._row(
            alpha_plus=None, alpha_minus=None, f_plus=None, f_minus=None, delta_f=None, status="error"
        )
        out = tmp_path / "rows.csv"
        write_csv([row], str(out))
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[2:7] == [""] * 5
        assert cells[-1] == "error"

    def test_rows_sorted_by_t_then_method(self, tmp_path):
        rows = [
            self._row(t=2.0),
            self._row(t=1.0, method=Method.LOW_T, alpha_plus=None, alpha_minus=None, f_plus=None, f_minus=None),
            self._row(t=1.0),
            self._row(t=1.0, method=Method.HIGH_T, alpha_plus=None, alpha_minus=None, f_plus=None, f_minus=None),
        ]
        out = tmp_path / "rows.csv"
        write_csv(rows, str(out))
        keys = [(float(line.split(",")[0]), line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert keys == sorted(keys)

    def _written(self, rows, tmp_path) -> str:
        out = tmp_path / "rows.csv"
        write_csv(rows, str(out))
        return out.read_text(encoding="ascii")

    def test_every_none_pattern_matches_the_per_field_writer(self, tmp_path):
        rows = []
        for pattern in range(32):  # bit i set: data field i is None
            data = [None if pattern >> i & 1 else AWKWARD[(pattern + i) % len(AWKWARD)] for i in range(5)]
            status = "error" if pattern == 31 else "ok"
            rows.append(SweepRow(0.5 + pattern, Method.SEMI_ANALYTIC, *data, status))
        text = self._written(rows, tmp_path)
        assert text == _reference_csv(rows)
        assert len(text.splitlines()) == 33

    def test_awkward_values_in_every_field(self, tmp_path):
        rows = [
            SweepRow(1.0 + i, Method.NUMERIC, *([value] * 5), "ok") for i, value in enumerate(AWKWARD)
        ]
        text = self._written(rows, tmp_path)
        assert text == _reference_csv(rows)
        assert "-0,-0,-0,-0,-0" in text and "nan,nan" in text and ",-inf," in text

    def test_int_and_signed_zero_t(self, tmp_path):
        # equal t that print differently (0.0 and -0.0), and an int t, must each keep their own text
        rows = [
            self._row(t=3),
            self._row(t=0.0, method=Method.HIGH_T),
            self._row(t=-0.0),
            self._row(t=3, method=Method.LOW_T, alpha_plus=None),
        ]
        text = self._written(rows, tmp_path)
        assert text == _reference_csv(rows)
        assert [line.split(",")[0] for line in text.splitlines()[1:]] == ["0", "-0", "3", "3"]

    def test_shuffled_mixed_rows_match_the_per_field_writer(self, tmp_path):
        # every method at one t, error rows, all 32 None patterns and both signed zeros, in random order:
        # the C-level sort key must order them as (t, method name) does, ties kept in input order
        rows = [self._row(t=2.5, method=method) for method in Method]
        rows += [self._row(t=t, method=method, alpha_plus=None, alpha_minus=None, f_plus=None, f_minus=None,
                           delta_f=None, status="error") for t, method in ((2.5, Method.LOW_T), (7.0, Method.LINEAR))]
        for pattern in range(32):  # bit i set: data field i is None
            data = [None if pattern >> i & 1 else AWKWARD[(pattern + i) % len(AWKWARD)] for i in range(5)]
            rows.append(SweepRow(float(pattern % 5), list(Method)[pattern % 5], *data, "ok"))
        rows += [self._row(t=-0.0, method=Method.HIGH_T), self._row(t=0.0), self._row(t=-0.0)]
        shuffled = random.Random(5).sample(rows, len(rows))
        assert self._written(shuffled, tmp_path) == _reference_csv(shuffled)

    def test_shuffled_sweep_rows_match_the_per_field_writer(self, tmp_path):
        config = SweepConfig(t_min=0.05, t_max=200.0, grid_points=12, methods=frozenset(Method))
        rows = sweep(config)
        text = self._written(rows, tmp_path)
        assert text == _reference_csv(rows)
        for seed in range(3):
            shuffled = random.Random(seed).sample(rows, len(rows))
            assert self._written(shuffled, tmp_path) == text


class TestRun:
    def _config(self, tmp_path, **overrides):
        settings = dict(
            t_min=1.0,
            t_max=10.0,
            grid_points=3,
            methods=frozenset({Method.HIGH_T}),
            output_path=str(tmp_path / "out.csv"),
        )
        settings.update(overrides)
        return SweepConfig(**settings)

    def test_success_exit_zero(self, tmp_path):
        config = self._config(tmp_path)
        assert run(config) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_failed_point_exit_one(self, tmp_path, monkeypatch):
        import boxforce.force as force_module

        def boom(n, t):
            raise ValueError("forced failure")

        monkeypatch.setattr(force_module.approx, "delta_f_high_t", boom)
        config = self._config(tmp_path)
        assert run(config) == 1
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert all(line.endswith(",error") for line in lines[1:])

    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        config = self._config(tmp_path, output_path=str(tmp_path / "missing" / "out.csv"))
        assert run(config) == 1
        assert "cannot write" in capsys.readouterr().err


class TestCommandLine:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "boxforce", *args], capture_output=True, timeout=300
        )

    def test_small_sweep_to_stdout(self):
        result = self._run("--points", "3", "--t-min", "0.5", "--t-max", "50", "--methods", "numeric,high-t")
        assert result.returncode == 0
        lines = result.stdout.decode().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7

    def test_repeat_runs_byte_identical(self):
        args = ("--points", "4", "--t-min", "0.1", "--t-max", "20", "--methods", "numeric")
        first = self._run(*args)
        second = self._run(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_usage_error_exit_two(self):
        result = self._run("--t-min", "-3")
        assert result.returncode == 2
        assert b"usage" in result.stderr.lower() or b"error" in result.stderr.lower()

    def test_import_and_readme_sweeps_load_no_scipy(self, tmp_path):
        # scipy is not a dependency of the package: nothing may import it
        script = f"""
import sys
import boxforce
for i, argv in enumerate({README_SWEEPS!r}):
    assert boxforce.cli.main([*argv.split(), "--output", {str(tmp_path)!r} + f"/{{i}}.csv"]) == 0
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=300)
        assert result.returncode == 0, result.stderr.decode()

    def test_high_t_only_runs_without_solver(self):
        result = self._run("--points", "2", "--t-min", "1", "--t-max", "10", "--methods", "high-t")
        assert result.returncode == 0
        body = result.stdout.decode().splitlines()[1:]
        assert all(line.split(",")[2:6] == ["", "", "", ""] for line in body)



@pytest.mark.parametrize("args", SMOKE_CASES)
def test_smoke_case_exits_zero_with_no_error_rows(args, tmp_path):
    output = tmp_path / "out.csv"
    assert main([*args.split(), "--output", str(output)]) == 0
    header, *rows = output.read_text().splitlines()
    assert header == CSV_HEADER and rows
    assert not [row for row in rows if row.endswith(",error")]
