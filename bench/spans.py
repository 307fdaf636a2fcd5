"""Spans at boxforce's layer boundaries, recorded from outside the package.

The traced run replaces the module attributes that the upper layers call
with wrappers that record a span (name, parent span, start, end and up to
two counts) and then call the original. Nothing under src/ is edited: the
package resolves these names through its module globals at call time, so
the wrappers see every call. Spans stay in memory until the run writes
them out at its end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SOLVE = "occupancy.solve_alpha"
LEVEL_GAP = "spectrum.level_gap"
SWEEP = "force.sweep"
NET_FORCE = "force.net_force"
WRITE_CSV = "cli.write_csv"
PARSE_CONFIG = "cli.parse_config"
APPROX_FNS = ("semi_analytic_alpha", "semi_analytic_force", "delta_f_low_t", "delta_f_linear", "delta_f_high_t")

# span fields
_ID, _PARENT, _NAME, _START, _END, _COUNT_A, _COUNT_B = range(7)


def _solve_counts(args, kwargs, result) -> tuple[int, int]:
    return result.iterations, result.levels_used


def _gap_counts(args, kwargs, result) -> tuple[int, int]:
    return int(np.size(result)), 0


def _csv_counts(args, kwargs, result) -> tuple[int, int]:
    destination = args[1] if len(args) > 1 else kwargs["destination"]
    return (0 if destination == "-" else Path(destination).stat().st_size), 0


class Tracer:
    """Installs span-recording wrappers on boxforce and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def install(self, bf) -> None:
        """Wrap the boundaries that the upper layers and the benchmark call."""
        targets = [
            (bf.force, "solve_alpha", SOLVE, _solve_counts),
            (bf.occupancy, "level_gap", LEVEL_GAP, _gap_counts),
            (bf.force, "sweep", SWEEP, None),
            (bf.cli, "sweep", SWEEP, None),  # cli.run calls the name it imported
            (bf.force, "net_force", NET_FORCE, None),
            (bf.cli, "main", "cli.main", None),
            (bf.cli, "parse_config", PARSE_CONFIG, None),
            (bf.cli, "write_csv", WRITE_CSV, _csv_counts),
        ]
        targets += [(bf.approx, fn, f"approx.{fn}", None) for fn in APPROX_FNS]
        for module, attr, name, counts in targets:
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, name, counts))
            self._installed.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrapper(self, fn, name: str, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], name, 0, 0, 0, 0]
            spans.append(span)
            stack.append(span[_ID])
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if counts is not None:
                span[_COUNT_A], span[_COUNT_B] = counts(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as CSV: times in microseconds from the first span."""
        origin = self.spans[0][_START] if self.spans else 0
        lines = ["id,parent,name,start_us,duration_us,count_a,count_b"]
        for s in self.spans:
            lines.append(
                f"{s[_ID]},{s[_PARENT]},{s[_NAME]},{(s[_START] - origin) / 1e3:.3f},"
                f"{(s[_END] - s[_START]) / 1e3:.3f},{s[_COUNT_A]},{s[_COUNT_B]}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="ascii")


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer (counts, times) of one traced pass.

    Counts are exact and must repeat from pass to pass; times are in the
    unit their name ends with.
    """
    names = [s[_NAME] for s in spans]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[_NAME]].append(s)

    def duration_ns(group) -> int:
        return sum(s[_END] - s[_START] for s in group)

    def ancestor(span, stop: set[str]):
        parent = span[_PARENT]
        while parent >= 0 and names[parent] not in stop:
            parent = spans[parent][_PARENT]
        return parent

    counts: dict[str, float] = {}
    times: dict[str, float] = {}

    solves = by_name[SOLVE]
    counts[f"{SOLVE}.calls"] = len(solves)
    counts[f"{SOLVE}.evals"] = sum(s[_COUNT_A] for s in solves)
    counts[f"{SOLVE}.levels_used"] = sum(s[_COUNT_B] for s in solves)
    times[f"{SOLVE}.ms"] = duration_ns(solves) / 1e6

    gaps = by_name[LEVEL_GAP]
    counts[f"{LEVEL_GAP}.calls"] = len(gaps)
    counts[f"{LEVEL_GAP}.elements"] = sum(s[_COUNT_A] for s in gaps)
    in_solves = sum(s[_COUNT_A] for s in gaps if ancestor(s, {SOLVE}) >= 0)
    useful = sum(s[_COUNT_A] * s[_COUNT_B] for s in solves)
    counts["occupancy.level_use_ratio"] = useful / in_solves if in_solves else 0.0

    # sweep self time: the sweep spans minus the outermost solve and
    # approximation spans under them
    charged = {SOLVE, *(f"approx.{fn}" for fn in APPROX_FNS)}
    inner_ns = 0
    for s in spans:
        if s[_NAME] in charged:
            nearest = ancestor(s, charged | {SWEEP})
            if nearest >= 0 and names[nearest] == SWEEP:
                inner_ns += s[_END] - s[_START]
    times[f"{SWEEP}.self_ms"] = (duration_ns(by_name[SWEEP]) - inner_ns) / 1e6
    times[f"{NET_FORCE}.ms"] = duration_ns(by_name[NET_FORCE]) / 1e6

    for fn in APPROX_FNS:
        group = by_name[f"approx.{fn}"]
        counts[f"approx.{fn}.calls"] = len(group)
        times[f"approx.{fn}.us_per_call"] = duration_ns(group) / 1e3 / len(group) if group else 0.0

    counts[f"{WRITE_CSV}.bytes"] = sum(s[_COUNT_A] for s in by_name[WRITE_CSV])
    times[f"{WRITE_CSV}.ms"] = duration_ns(by_name[WRITE_CSV]) / 1e6
    parses = by_name[PARSE_CONFIG]
    times[f"{PARSE_CONFIG}.us"] = duration_ns(parses) / 1e3 / len(parses) if parses else 0.0
    return counts, times
