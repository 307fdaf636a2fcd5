"""Command-line driver: run a temperature sweep and write it as CSV.

The output schema is fixed, one column per SweepRow field in order:

    t,method,alpha_plus,alpha_minus,f_plus,f_minus,delta_f,status

Floating-point fields are rendered with 17 significant digits so the CSV
round-trips to the exact binary values; fields a method does not compute
are left empty. Exit codes: 0 on full success, 1 if any point failed or
the output could not be written, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .force import GridScale, Method, SweepRow, sweep
from .occupancy import DEFAULT_TOL, MIN_TOL, check_domain, check_tolerance

__all__ = ["SweepConfig", "CSV_HEADER", "parse_config", "write_csv", "run", "main"]

CSV_HEADER = ",".join(SweepRow._fields)
# A row whose five data fields are all set, t formatted already; '%.17g' % v
# is format(v, ".17g").
_FULL_ROW = "%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%s"

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
    tolerance: float = DEFAULT_TOL
    output_path: str = "-"

    def __post_init__(self) -> None:
        check_domain(self.n_particles, (self.t_min, self.t_max))
        if not self.t_min <= self.t_max:
            raise ValueError(f"--t-min must not exceed --t-max, got [{self.t_min}, {self.t_max}]")
        # temperature_grid tests `is GridScale.LOG`, so any other value would sweep a linear grid
        if not isinstance(self.grid_scale, GridScale):
            raise ValueError(f"--scale must be a GridScale, got {self.grid_scale!r}")
        # np.linspace takes a count through __index__: an int or a numpy integer, not even an integral float
        if not (hasattr(self.grid_points, "__index__") and operator.index(self.grid_points) >= 1):
            raise ValueError(f"--points must be an integer >= 1, got {self.grid_points!r}")
        if not self.methods or not all(isinstance(method, Method) for method in self.methods):
            raise ValueError(f"--methods must be one or more Method members, got {set(self.methods) or 'none'}")
        check_tolerance(self.tolerance)


def _parse_methods(text: str) -> frozenset[Method]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [name for name in names if name not in _METHOD_NAMES]
    if unknown:
        known = ", ".join(sorted(_METHOD_NAMES))
        raise argparse.ArgumentTypeError(f"unknown method(s) {', '.join(unknown)}; choose from: {known}")
    return frozenset(_METHOD_NAMES[name] for name in names)


# built once per process: building the parser is most of a parse_config call, and parse_args leaves it unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxforce",
        description="Net quantum statistical force on the partition of a divided 1-D box, "
        "swept over temperature and written as CSV.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    defaults = SweepConfig()
    # each option's dest is its SweepConfig field, --n-particles, --t-min and --t-max by argparse's own rule
    parser.add_argument("--n-particles", type=int, default=defaults.n_particles, help="bosons per half well")
    parser.add_argument("--t-min", type=float, default=defaults.t_min, help="lowest temperature")
    parser.add_argument("--t-max", type=float, default=defaults.t_max, help="highest temperature")
    parser.add_argument("--points", dest="grid_points", type=int, default=defaults.grid_points, help="grid points")
    scales = [scale.value for scale in GridScale]
    parser.add_argument("--scale", dest="grid_scale", choices=scales, default=defaults.grid_scale.value,
                        help="grid spacing")
    methods = ",".join(sorted(method.value for method in defaults.methods))  # argparse passes it through the type
    parser.add_argument("--methods", type=_parse_methods, default=methods,
                        help=f"comma-separated subset of {', '.join(_METHOD_NAMES)}")
    parser.add_argument("--tol", dest="tolerance", type=float, default=defaults.tolerance,
                        help=f"constraint-solver tolerance, at least {MIN_TOL}")
    parser.add_argument("--output", dest="output_path", default=defaults.output_path,
                        help="output file, or - for standard output")
    return parser


def parse_config(argv: list[str] | None = None) -> SweepConfig:
    """Turn an argument list into a validated SweepConfig.

    Malformed values exit with status 2 through the standard usage-error
    path.
    """
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    try:
        return SweepConfig(**args | {"grid_scale": GridScale(args["grid_scale"])})
    except ValueError as exc:
        parser.error(str(exc))  # exits with status 2


def write_csv(rows: list[SweepRow], destination: str) -> None:
    """Write sweep rows, ordered by temperature then method name.

    Each line is the row's fields in SweepRow order, floats with 17
    significant digits and None as an empty field. A t shared by
    consecutive rows, as the methods of one sweep temperature share it, is
    formatted once.
    """
    # (t, method name) read in C: Method._value_ is what the Python-level Enum.value property returns
    ordered = sorted(rows, key=operator.attrgetter("t", "method._value_"))
    lines = [CSV_HEADER]
    last_t = t_text = None
    for t, method, alpha_plus, alpha_minus, f_plus, f_minus, delta_f, status in ordered:
        if t is not last_t:
            last_t, t_text = t, format(t, ".17g")
        data = (alpha_plus, alpha_minus, f_plus, f_minus, delta_f)
        if alpha_plus is None or alpha_minus is None or f_plus is None or f_minus is None or delta_f is None:
            fields = ["" if value is None else format(value, ".17g") for value in data]
            lines.append(",".join((t_text, method._value_, *fields, status)))
        else:
            lines.append(_FULL_ROW % (t_text, method._value_, *data, status))
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
    return 1 if "error" in map(operator.attrgetter("status"), rows) else 0


def main(argv: list[str] | None = None) -> int:
    return run(parse_config(argv))
