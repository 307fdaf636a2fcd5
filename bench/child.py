"""Set-up and memory of one workload, measured in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED setup   # import boxforce, build the inputs
    python3 bench/child.py WORKLOAD SEED rss     # ... then run one untraced pass

Prints one JSON line: ``ready``, the CLOCK_MONOTONIC reading once the
inputs are built (the parent subtracts its own reading from just before it
started this interpreter), and in ``rss`` mode ``peak_rss_mb``. Run with
``-X importtime`` for the import split.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def peak_rss_mb() -> float:
    """High-water resident set of this interpreter.

    Read from VmHWM: Linux carries ru_maxrss across exec, so getrusage would
    report the parent's size whenever the parent is the larger process.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path[:0] = [str(ROOT / "src")]
    import workloads  # stdlib only, so the interval below is boxforce's

    import boxforce

    out_dir = ROOT / ".bench_out" / "tmp" / "child"
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = workloads.build(name, seed, boxforce, out_dir)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode == "rss":
        workloads.run_pass(inputs, boxforce)
        result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
