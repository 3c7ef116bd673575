"""Self-test of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/selftest.py

1. Two traced runs of one_chain_l12 and two of check_battery, each pair on
   one seed, must report identical deterministic counters and no failures.
2. blbq_phase_map at the default seed, checked against a copy of the stored
   reference CSV with one energy altered, must report a failure; against
   the real reference it must report none.

Takes about three minutes on a 2-core machine. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def traced_counters(workload: str, seed: int) -> tuple[dict, int]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    from tracing import DETERMINISTIC_COUNTERS

    counters = {name: result["metrics"][name]["value"] for name in DETERMINISTIC_COUNTERS}
    return counters, result["failed"]


def fail_frac_with_reference(reference: Path) -> float:
    from workloads import BlbqPhaseMap

    _, attempted, failed, _ = run.run_plain(BlbqPhaseMap(0, reference=reference), seconds=0)
    return failed / attempted


def main() -> int:
    problems = []
    for workload, seed in (("one_chain_l12", 7), ("check_battery", 7)):
        first, first_failed = traced_counters(workload, seed)
        second, second_failed = traced_counters(workload, seed)
        print(f"{workload}: {json.dumps(first, sort_keys=True)}")
        if first != second:
            problems.append(f"{workload}: counters differ between runs: {first} vs {second}")
        if first_failed or second_failed:
            problems.append(f"{workload}: traced runs reported failures")

    run._import_program()
    stored = HERE / "reference" / "blbq_phase_map_seed0.csv"
    lines = stored.read_text().splitlines()
    columns = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    energy = lines[columns].split(",").index("energy")
    fields = lines[columns + 1].split(",")
    fields[energy] = repr(float(fields[energy]) + 1e-6)
    lines[columns + 1] = ",".join(fields)
    wrong = HERE / ".work" / "blbq_phase_map_wrong_reference.csv"
    wrong.parent.mkdir(exist_ok=True)
    wrong.write_text("\n".join(lines) + "\n")
    right_frac = fail_frac_with_reference(stored)
    wrong_frac = fail_frac_with_reference(wrong)
    print(f"blbq_phase_map fail_frac: stored reference {right_frac}, altered reference {wrong_frac}")
    if right_frac != 0:
        problems.append("the stored reference reported failures")
    if wrong_frac <= 0:
        problems.append("an altered reference value did not raise fail_frac above 0")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else "selftest failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
