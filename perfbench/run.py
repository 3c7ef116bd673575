"""spinent benchmark: one workload per call, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the tree this file sits in. With
--trace 0 the run times set-up and the timed phase with no instrumentation
and reports the end-to-end metrics; with --trace 1 it reports per-layer
metrics from spans recorded around spinent's public functions. Either way
every output is checked, and the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Put this tree's src/ first on the path; refuse any other spinent."""
    if not (SRC / "spinent" / "__init__.py").is_file():
        sys.exit(f"error: no spinent sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spinent

    if Path(spinent.__file__).resolve().parent != (SRC / "spinent").resolve():
        sys.exit(f"error: imported spinent from {spinent.__file__}, not from {SRC}")


def environment() -> dict:
    """What the run saw of the machine; nothing here is set by the benchmark."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "spinent").glob("*.py"))
    texts = [path.read_text() for path in sources]
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # Same count as `wc -l src/spinent/*.py`, and the non-blank lines.
        "src_lines_wc_l": sum(text.count("\n") for text in texts),
        "src_lines_nonblank": sum(
            1 for text in texts for line in text.splitlines() if line.strip()
        ),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _rounded(values) -> list[float]:
    return [round(value, 4) for value in values]


def run_plain(workload, seconds: float):
    """Set up several times, then run a fixed number of whole units.

    The count is ``seconds`` over the workload's nominal unit time, rounded
    up. It never depends on how fast this run happens to be, which would
    let a slow first unit stop the run early and a fast one add a second.
    """
    repeats = workload.setup_repeats
    setup_times = [workload.setup(keep=i == repeats - 1) for i in range(repeats)]
    unit_times, outputs = [], []
    for _ in range(max(1, math.ceil(seconds / workload.nominal_unit_s))):
        elapsed, output = workload.unit()
        unit_times.append(elapsed)
        outputs.append(output)
    peak = peak_rss_mb()
    attempted, failed = workload.check(outputs)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(unit_times), "s"),
        "points_per_s": (workload.points * len(unit_times) / sum(unit_times), "1/s"),
        "peak_rss_mb": (peak, "MiB"),
    }
    notes = [
        f"set-up seconds {_rounded(setup_times)}, median is setup_s",
        f"unit seconds {_rounded(unit_times)} ({workload.points} points each), median is solve_s",
    ]
    return metrics, attempted, failed, notes


def run_traced(workload, seconds: float):
    """One traced set-up and unit, plus one untraced unit for the overhead.

    Exactly one unit is traced whatever ``seconds`` is, so the counters
    depend only on the inputs.
    """
    from tracing import Tracer, layer_metrics
    from workloads import WORK_DIR

    WORK_DIR.mkdir(exist_ok=True)
    notes = []
    pool_speedup = 0.0
    pool_attempted = pool_failed = 0
    if workload.in_process:
        tracer = Tracer(workload.name)
        tracer.install()
        try:
            workload.setup(keep=True)
        finally:
            tracer.uninstall()
        plain_s, plain_out = workload.unit()
        if hasattr(workload, "pool_speedup"):
            pool_speedup, pool_failed = workload.pool_speedup(plain_s, plain_out)
            pool_attempted = 1
            notes.append("analysis.pool_speedup = solve_s at --jobs 1 / at --jobs 2")
        tracer.install()
        try:
            traced_s, traced_out = workload.unit()
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer)
        tracer.write_spans(WORK_DIR / f"spans-{workload.name}.jsonl")
    else:
        plain_s, plain_out = workload.unit()
        traced_s, traced_out = workload.unit(traced=True)
        layers = traced_out["layers"]
    layers["analysis.pool_speedup"] = pool_speedup
    layers["trace.overhead_s"] = traced_s - plain_s
    attempted, failed = workload.check([plain_out, traced_out])
    attempted += pool_attempted
    failed += pool_failed
    units = {
        "analysis.pool_speedup": "ratio",
        "eigensolver.matvec_bytes_computed": "bytes",
    }
    metrics = {
        name: (value, units.get(name, "s" if name.endswith("_s") else "count"))
        for name, value in layers.items()
    }
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    _import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="spinent benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds, as a fixed count of whole units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"inputs: {workload.describe()}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    runner = run_traced if args.trace else run_plain
    metrics, attempted, failed, notes = runner(workload, args.seconds)
    for note in notes:
        print(f"note: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    print(f"{'fail_frac':<36} {failed / attempted:.6g} ({failed} of {attempted} checked)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
