"""Command-line driver: run a temperature sweep and write it as CSV.

The output schema is fixed:

    t,method,alpha_plus,alpha_minus,f_plus,f_minus,delta_f,status

Floating-point fields are rendered with 17 significant digits so the CSV
round-trips to the exact binary values; fields a method does not compute
are left empty. Exit codes: 0 on full success, 1 if any point failed or
the output could not be written, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .force import GridScale, Method, SweepRow, sweep

__all__ = ["SweepConfig", "CSV_HEADER", "parse_config", "write_csv", "run", "main"]

CSV_HEADER = "t,method,alpha_plus,alpha_minus,f_plus,f_minus,delta_f,status"

_METHOD_NAMES = {m.value: m for m in Method}


@dataclass(frozen=True)
class SweepConfig:
    """A sweep job: grid, methods, solver tolerance and output destination.

    The defaults reproduce the mid-range picture of the net force: N = 100
    bosons per side, 400 log-spaced temperatures on [0.01, 160], exact
    numerics only, written to standard output ("-").
    """

    n_particles: int = 100
    t_min: float = 0.01
    t_max: float = 160.0
    grid_points: int = 400
    grid_scale: GridScale = GridScale.LOG
    methods: frozenset[Method] = field(default_factory=lambda: frozenset({Method.NUMERIC}))
    tolerance: float = 1e-12
    output_path: str = "-"

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError(f"--n-particles must be >= 1, got {self.n_particles}")
        if not (0.0 < self.t_min <= self.t_max < float("inf")):
            raise ValueError(f"need finite 0 < t_min <= t_max, got [{self.t_min}, {self.t_max}]")
        if self.grid_points < 1:
            raise ValueError(f"--points must be >= 1, got {self.grid_points}")
        if not self.methods:
            raise ValueError("--methods must name at least one method")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"--tol must lie in (0, 1), got {self.tolerance}")


def _parse_methods(text: str) -> frozenset[Method]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [name for name in names if name not in _METHOD_NAMES]
    if unknown:
        known = ", ".join(sorted(_METHOD_NAMES))
        raise ValueError(f"unknown method(s) {', '.join(unknown)}; choose from: {known}")
    return frozenset(_METHOD_NAMES[name] for name in names)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxforce",
        description="Net quantum statistical force on the partition of a divided 1-D box, "
        "swept over temperature and written as CSV.",
    )
    parser.add_argument("--n-particles", type=int, default=100, help="bosons per half well (default 100)")
    parser.add_argument("--t-min", type=float, default=0.01, help="lowest temperature (default 0.01)")
    parser.add_argument("--t-max", type=float, default=160.0, help="highest temperature (default 160)")
    parser.add_argument("--points", type=int, default=400, help="grid points (default 400)")
    parser.add_argument("--scale", choices=["linear", "log"], default="log", help="grid spacing (default log)")
    parser.add_argument(
        "--methods",
        default="numeric",
        help="comma-separated subset of numeric, low-t, linear, semi-analytic, high-t (default numeric)",
    )
    parser.add_argument("--tol", type=float, default=1e-12, help="constraint-solver tolerance (default 1e-12)")
    parser.add_argument("--output", default="-", help="output file, or - for standard output (default -)")
    return parser


def parse_config(argv: list[str] | None = None) -> SweepConfig:
    """Turn an argument list into a validated SweepConfig.

    Malformed values exit with status 2 through the standard usage-error
    path.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return SweepConfig(
            n_particles=args.n_particles,
            t_min=args.t_min,
            t_max=args.t_max,
            grid_points=args.points,
            grid_scale=GridScale(args.scale),
            methods=_parse_methods(args.methods),
            tolerance=args.tol,
            output_path=args.output,
        )
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # parser.error always exits


def _format_field(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


def write_csv(rows: list[SweepRow], destination: str) -> None:
    """Write sweep rows, ordered by temperature then method name."""
    ordered = sorted(rows, key=lambda row: (row.t, row.method.value))
    lines = [CSV_HEADER]
    for row in ordered:
        lines.append(
            ",".join(
                (
                    _format_field(row.t),
                    row.method.value,
                    _format_field(row.alpha_plus),
                    _format_field(row.alpha_minus),
                    _format_field(row.f_plus),
                    _format_field(row.f_minus),
                    _format_field(row.delta_f),
                    row.status,
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if destination == "-":
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="ascii")


def run(config: SweepConfig) -> int:
    """Execute the sweep and write the CSV; returns the process exit code."""
    rows = sweep(config)
    try:
        write_csv(rows, config.output_path)
    except OSError as exc:
        print(f"boxforce: cannot write {config.output_path!r}: {exc}", file=sys.stderr)
        return 1
    return 1 if any(row.status == "error" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    return run(parse_config(argv))


if __name__ == "__main__":
    sys.exit(main())
