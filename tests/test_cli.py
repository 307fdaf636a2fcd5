import subprocess
import sys

import pytest

from boxforce import (
    CSV_HEADER,
    GridScale,
    Method,
    SweepConfig,
    SweepRow,
    parse_config,
    run,
    write_csv,
)


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
            ["--t-max", "inf"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_config(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


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

    def test_high_t_only_runs_without_solver(self):
        result = self._run("--points", "2", "--t-min", "1", "--t-max", "10", "--methods", "high-t")
        assert result.returncode == 0
        body = result.stdout.decode().splitlines()[1:]
        assert all(line.split(",")[2:6] == ["", "", "", ""] for line in body)
