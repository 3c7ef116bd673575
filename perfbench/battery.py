"""One cold-process run of the acceptance battery (the check_battery workload).

Usage: python3 perfbench/battery.py --trace 0|1 [--spans FILE]

Needs spinent on PYTHONPATH; run.py starts it with ``src`` there. Times
``import spinent`` and ``checks.run_all`` over BATTERY_CRITERIA, then prints
one JSON line with both times, each criterion's verdict and whether it
crashed, and, with --trace 1, the per-layer metrics of the battery.
"""

import argparse
import json
import time

started = time.perf_counter()
import spinent  # noqa: E402,F401  (the import itself is what is timed)

import_s = time.perf_counter() - started

from spinent import checks  # noqa: E402
from tracing import BATTERY_CRITERIA, Tracer, layer_metrics  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="JSONL file for the spans")
    args = parser.parse_args()

    tracer = Tracer("check_battery")
    if args.trace:
        tracer.install()
    begin = time.perf_counter()
    try:
        results = checks.run_all(BATTERY_CRITERIA)
    finally:
        solve_s = time.perf_counter() - begin
        tracer.uninstall()
    if args.trace and args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps({
        "import_s": import_s,
        "solve_s": solve_s,
        "criteria": [
            {
                "number": result.number,
                "passed": result.passed,
                "crashed": any(line.startswith("FAIL crashed") for line in result.details),
            }
            for result in results
        ],
        "layers": layer_metrics(tracer) if args.trace else None,
    }))


if __name__ == "__main__":
    main()
