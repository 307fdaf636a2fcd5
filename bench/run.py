"""End-to-end and per-layer benchmark of boxforce.

    python3 bench/run.py --workload readme_sweeps|large_n|scalar_random \\
        --seed N --seconds S --trace 0|1

Run from the repository root. One process, no threads of its own; fresh
interpreters are started one at a time for set-up and memory.

``--trace 0`` times warm passes of the workload for ``--seconds`` and
reports the end-to-end metrics, call times scaled to a nominal machine
speed by a calibration kernel timed between segments of calls (see
CALIBRATION_NOMINAL_S; the unscaled median is printed beside wall_s):

* ``wall_s``: median time of one pass, the sum of its calls;
* ``call_us_p50``, ``call_us_p99``: percentiles over the workload's
  distinct calls of each call's median latency over the timed passes, a
  call being one ``cli.main`` invocation (3 distinct), one ``sweep()`` (1)
  or one ``net_force`` (2000); the sample counts are printed with them;
* ``setup_s``: median, over fresh interpreters, of the time from starting
  the interpreter until ``import boxforce`` has finished and the inputs are
  built, scaled by the start-up of a stdlib-only interpreter (see
  STARTUP_NOMINAL_S);
* ``peak_rss_mb``: peak resident set of a fresh interpreter that sets up
  and runs one pass.

``--trace 1`` alternates untraced passes with passes traced through the
wrappers of spans.py, and adds a probe of the occupancy layer at N = 100
and the import split of set-up. It reports the per-layer metrics listed in
BENCHMARK.json, ``trace.overhead_s`` (median traced minus median untraced
pass) and ``src_lines.*``.

Every timed pass of every run goes through the correctness gate of reference.py,
and a few points of the reference itself are checked against the mpmath
oracle. The failure fraction is printed with the metrics and carried by the
``attempted`` and ``failed`` fields of the last line, one JSON object.
Metadata (versions, nproc, git sha, source lines) is printed on a ``meta``
line and, with the spans of the last traced pass, written to .bench_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads
from spans import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
# The effective speed of a shared host drifts by up to 2x in phases lasting
# seconds, which a run's median cannot average out (on the 2-vCPU x86_64 VM
# the benchmark was written on, medians of 15 s windows spread by ~18%).
# Every segment of calls (workloads.SEGMENT_SECONDS) is bracketed by
# calibration_seconds(), and its times are scaled to the speed at which that
# kernel takes CALIBRATION_NOMINAL_S, a typical time there.
CALIBRATION_NOMINAL_S = 0.005
# Fresh-interpreter start-up drifts with the host as well, and the kernel
# above does not track it. Each set-up is divided instead by the start-up of
# a fresh interpreter importing the stdlib modules of STARTUP_PROBE, timed
# just before it, and scaled by STARTUP_NOMINAL_S, a typical such time on
# that VM; there this cut the spread of run medians from ~23% to ~6%.
STARTUP_PROBE = "import argparse, decimal, email.parser, http.client, json, logging, unittest, xml.dom.minidom"
STARTUP_NOMINAL_S = 0.12
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
ORACLE_POINTS = 2
ORACLE_T_MAX = 10.0  # the oracle takes ~0.5 s a point at t = 10 but ~16 s at t = 1e4
PROBE_N = 100
PROBE_TAGS = (("t1e-1", 0.1), ("t1e0", 1.0), ("t1e2", 100.0), ("t1e4", 1e4), ("t1e6", 1e6), ("t1e8", 1e8))
LAYER_MODULES = ("spectrum", "occupancy", "force", "approx", "cli")


class Gate:
    """Checks pass outputs against reference.py and tallies the records checked and failed."""

    def __init__(self, inputs: workloads.Inputs) -> None:
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self._refs: dict[tuple[int, float, str], reference.Expected] = {}
        for key in {key for cases in inputs.cases for key in cases}:
            ref = reference.expected(*key)
            if not inputs.alphas:
                ref = dataclasses.replace(ref, alpha_plus=None, alpha_minus=None)
            self._refs[key] = ref

    def failures(self, outputs: list) -> int:
        failed = 0
        for cases, output in zip(self.inputs.cases, outputs):
            if output is None or len(output) != len(cases):
                failed += len(cases)
                continue
            for key, record in zip(cases, output):
                failed += not reference.passes(record, *key, self._refs[key])
        return failed

    def check(self, result: workloads.PassResult) -> None:
        """Gate a pass, then drop its outputs: kept outputs would grow the heap later passes collect."""
        self.attempted += sum(len(cases) for cases in self.inputs.cases)
        self.failed += self.failures(result.outputs)
        result.outputs = None

    def oracle_points(self, seed: int) -> list[tuple[int, float]]:
        numeric = sorted({(n, t) for cases in self.inputs.cases for n, t, m in cases
                          if m == "numeric" and t <= ORACLE_T_MAX})
        return random.Random(seed).sample(numeric, min(ORACLE_POINTS, len(numeric)))


def _median_seconds(fn, min_reps: int = 5, min_seconds: float = 0.05) -> float:
    samples = []
    start = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _child(workload: str, seed: int, mode: str, importtime: bool = False) -> tuple[float, dict, str]:
    """Run child.py in a fresh interpreter; returns (seconds to ready, its JSON, its stderr)."""
    command = [sys.executable, *(["-X", "importtime"] if importtime else []),
               str(BENCH / "child.py"), workload, str(seed), mode]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)  # the clock child.py reports
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return result["ready"] - started, result, done.stderr


def import_split(importtime_log: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and boxforce, from a ``-X importtime`` log.

    numpy and scipy count their outermost imports only: a scipy module
    imported by numpy, or a numpy module imported by scipy, stays with the
    package that imported it. boxforce counts its whole import, numpy and
    scipy included.
    """
    entries = []  # (depth, name, cumulative_us), listed children before their parent
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        name = field.strip()
        entries.append(((len(field) - len(field.lstrip()) - 1) // 2, name, int(cumulative)))

    def package(name: str) -> str:
        return name.split(".")[0]

    totals = {"numpy": 0, "scipy": 0, "boxforce": 0}
    for i, (depth, name, cumulative) in enumerate(entries):
        top = package(name)
        if top not in totals:
            continue
        parent = next((e[1] for e in entries[i + 1:] if e[0] == depth - 1), None)
        if parent is None or package(parent) not in ("numpy", "scipy", top):
            totals[top] += cumulative
    return {f"setup.import_{key}_s": us / 1e6 for key, us in totals.items()}


def occupancy_probe(bf) -> tuple[dict[str, float], dict[str, float]]:
    """Solver and level-sum cost at N = 100 across the temperature regimes, both wells per point."""
    counts, times = {}, {}
    occupancy = bf.occupancy
    sides = tuple(bf.spectrum.WellSide)
    for tag, t in PROBE_TAGS:
        point = occupancy.ThermoPoint(PROBE_N, t)
        solutions = [occupancy.solve_alpha(side, point) for side in sides]
        counts[f"occupancy.solve_alpha_evals.{tag}"] = sum(s.iterations for s in solutions)
        counts[f"occupancy.levels_used.{tag}"] = sum(s.levels_used for s in solutions)
        times[f"occupancy.solve_alpha_us.{tag}"] = 1e6 * _median_seconds(
            lambda: [occupancy.solve_alpha(side, point) for side in sides])
        times[f"occupancy.total_number_us.{tag}"] = 1e6 * _median_seconds(
            lambda: [occupancy.total_number(side, s.alpha, point.b) for side, s in zip(sides, solutions)])
    return counts, times


def source_lines() -> dict[str, int]:
    files = sorted((ROOT / "src" / "boxforce").glob("*.py"))
    lines = {f.stem: len(f.read_text(encoding="utf-8").splitlines()) for f in files}
    result = {f"src_lines.{m}": lines.get(m, 0) for m in LAYER_MODULES}
    result["src_lines.total"] = sum(lines.values())
    return result


def _git_sha() -> str:
    """HEAD of the checkout read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **source_lines(),
    }


def _percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def calibration_seconds() -> float:
    """Time of a fixed ~5 ms kernel shaped like the level sums: small-array expm1 and sums."""
    levels = np.arange(1.0, 513.0)
    start = time.perf_counter()
    for i in range(600):
        float((1.0 / np.expm1(0.01 * i + 1e-3 * levels)).sum())
    return time.perf_counter() - start


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports the STARTUP_PROBE modules and exits."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_PROBE], cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - started


def _scaled_calls(result: workloads.PassResult) -> list[float]:
    """Call times of a calibrated pass at nominal speed."""
    return [c * CALIBRATION_NOMINAL_S / k for c, k in zip(result.call_seconds, result.kernel_seconds)]


def _timed_passes(inputs, bf, gate: Gate, seconds: float, traced: bool):
    """Warm up, then run calibrated, gated passes for ``seconds``; yields (pass, tracer or None).

    With ``traced`` every untraced pass is followed by a traced one, so the
    two sets see the same machine state.
    """
    workloads.run_pass(inputs, bf)  # warm-up: lazy imports, caches, first-touch allocation
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_PASSES or time.perf_counter() < deadline:
        for tracer in (None, Tracer()) if traced else (None,):
            if tracer is not None:
                tracer.install(bf)
            try:
                result = workloads.run_pass(inputs, bf, calibration_seconds)
            finally:
                if tracer is not None:
                    tracer.restore()
            gate.check(result)
            yield result, tracer
        done += 1


def measure_end_to_end(args, inputs, bf, gate: Gate) -> tuple[dict[str, float], dict[str, str]]:
    passes = [result for result, _ in _timed_passes(inputs, bf, gate, args.seconds, traced=False)]
    scaled = [_scaled_calls(p) for p in passes]
    # each distinct call's latency is the median of its repeats, so the
    # percentiles spread over the inputs, not over the host's noise
    calls = [statistics.median(repeats) for repeats in zip(*scaled)]
    setups = []
    for _ in range(SETUP_RUNS):
        probe = startup_seconds()
        setups.append(STARTUP_NOMINAL_S * _child(args.workload, args.seed, "setup")[0] / probe)
    _, rss, _ = _child(args.workload, args.seed, "rss")
    raw_wall = statistics.median(sum(p.call_seconds) for p in passes)
    metrics = {
        "wall_s": statistics.median(sum(pass_calls) for pass_calls in scaled),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss["peak_rss_mb"],
        "call_us_p50": 1e6 * statistics.median(calls),
        "call_us_p99": 1e6 * _percentile(calls, 99),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes; {raw_wall:.4g} s unscaled",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "peak_rss_mb": "fresh interpreter, set-up and one pass",
        "call_us_p50": f"{len(calls)} distinct calls x {len(passes)} passes",
        "call_us_p99": f"{len(calls)} distinct calls x {len(passes)} passes",
    }
    return metrics, notes


def measure_layers(args, inputs, bf, gate: Gate, problems: list[str]) -> tuple[dict[str, float], dict[str, str]]:
    plain, traced, counts_seen, times_seen = [], [], [], []
    for result, tracer in _timed_passes(inputs, bf, gate, args.seconds, traced=True):
        if tracer is None:
            plain.append(sum(_scaled_calls(result)))
            continue
        traced.append(sum(_scaled_calls(result)))
        counts, times = layer_metrics(tracer.spans)
        counts_seen.append(counts)
        times_seen.append(times)
        last = tracer
    if any(c != counts_seen[0] for c in counts_seen):
        problems.append("per-layer counts differ between traced passes of the same inputs")
    last.write(OUT / f"spans_{args.workload}.csv")

    metrics = dict(counts_seen[0])
    metrics.update({k: statistics.median(t[k] for t in times_seen) for k in times_seen[0]})
    for part in occupancy_probe(bf):
        metrics.update(part)
    splits = [import_split(_child(args.workload, args.seed, "setup", importtime=True)[2])
              for _ in range(IMPORTTIME_RUNS)]
    metrics.update({k: statistics.median(s[k] for s in splits) for k in splits[0]})
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics.update(source_lines())
    notes = {"trace.overhead_s": f"{len(traced)} traced and {len(plain)} untraced passes"}
    return metrics, notes


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="boxforce benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "boxforce" / "__init__.py", ROOT / "tests" / "_oracles.py",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} not found; run from a boxforce checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import boxforce as bf

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    tmp = OUT / "tmp" / "main"
    tmp.mkdir(parents=True, exist_ok=True)
    inputs = workloads.build(args.workload, args.seed, bf, tmp)
    gate = Gate(inputs)
    problems: list[str] = []
    if args.trace:
        metrics, notes = measure_layers(args, inputs, bf, gate, problems)
    else:
        metrics, notes = measure_end_to_end(args, inputs, bf, gate)
    if sorted(metrics) != sorted(m["name"] for m in declared):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    problems += reference.oracle_mismatches(gate.oracle_points(args.seed))
    attempted, failed = gate.attempted, gate.failed

    meta = metadata()
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for m in declared:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:40s} {metrics[m['name']]:>14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} fraction  ({failed} of {attempted} records)")
    print("meta " + json.dumps(meta))

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta, "problems": problems}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
