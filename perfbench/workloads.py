"""The four benchmark workloads: inputs from a seed, set-up, timed unit, checks.

Each workload turns ``--seed`` into a parameter grid (or, for the battery,
uses the fixed criteria) and exposes:

* ``setup(keep)``: build what the timed phase reuses and return its seconds;
  only the call with ``keep=True`` leaves the result in place.
* ``unit()``: one timed unit of work, returning (seconds, output).
* ``check(outputs)``: (attempted, failed) over every output of the run.

Why each workload exists is in README.md. The program only ever sees the
generated grid; references are computed outside the timed phase.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import eigsh

from spinent import analysis, bethe, cli, hamiltonian
from spinent.basis import nonnegative_sectors
from spinent.lattice import chain_lattice
from tracing import BATTERY_CRITERIA

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
ENERGY_TOL = 1e-8


def _draw(seed: int) -> float:
    """The seed's one uniform draw in [0, 1) that places the grid."""
    return random.Random(seed).random()


def _grid_text(grid) -> str:
    start, end, count = grid
    return f"linspace({start!r}, {end!r}, {count})"


def _build_workspace(family: str, size: int, keep: bool):
    """(seconds, workspace) to build every Sz >= 0 sector of a chain.

    With ``keep`` the workspace is the one analysis.sweep will look up, so
    the timed phase reuses it; otherwise it is a fresh one of equal cost.
    """
    started = time.perf_counter()
    if keep:
        workspace = analysis.shared_workspace(family, "chain", size)
    else:
        workspace = hamiltonian.SectorWorkspace(family, chain_lattice(size))
    for sz in nonnegative_sectors(workspace.spin, size):
        workspace.sector(sz)
    return time.perf_counter() - started, workspace


class _ChainSweep:
    """analysis.sweep over one chain size with every Sz >= 0 sector pre-built."""

    family = ""
    size = 0
    in_process = True
    setup_repeats = 3
    # Approximate seconds per unit on a 2-core machine; only used to turn
    # --seconds into a fixed unit count.
    nominal_unit_s = 10.0

    def __init__(self, seed: int):
        self.grid = self.make_grid(_draw(seed))
        self.params = np.linspace(*self.grid)
        self.points = len(self.params)
        self.workspace = None

    def make_grid(self, u: float) -> tuple[float, float, int]:
        raise NotImplementedError

    def describe(self) -> str:
        return f"analysis.sweep {self.family} chain N={self.size}, grid {_grid_text(self.grid)}"

    def setup(self, keep: bool) -> float:
        elapsed, workspace = _build_workspace(self.family, self.size, keep)
        if keep:
            self.workspace = workspace
        return elapsed

    def unit(self):
        started = time.perf_counter()
        table = analysis.sweep(self.family, "chain", [self.size], self.grid)
        return time.perf_counter() - started, table.rows

    def references(self) -> list[float]:
        raise NotImplementedError

    def check(self, outputs) -> tuple[int, int]:
        expected = self.references()
        attempted = failed = 0
        for rows in outputs:
            attempted += len(expected)
            if len(rows) != len(expected):
                failed += len(expected)
                continue
            for row, target in zip(rows, expected):
                if row.error is not None or abs(row.energy - target) > ENERGY_TOL:
                    failed += 1
        return attempted, failed


class HalfChainN20(_ChainSweep):
    """Big-sector Lanczos: spin-1/2 XXZ, N=20, delta in (-1, 1]."""

    name = "half_chain_n20"
    family = "xxz_half"
    size = 20
    nominal_unit_s = 15.0

    def make_grid(self, u):
        # The seed moves both ends by up to 0.05 and the left end stays in
        # [-0.7, -0.65]. Matvec counts climb steeply toward the ferromagnetic
        # point (about 720 per point at -0.5, 920 at -0.9, 1120 at -0.999),
        # and from about -0.8 down the Sz=1 Lanczos pass crosses 127
        # iterations, where its store grows from 128 to 192 rows and peak
        # RSS jumps by a third. A wider window would let the seed, not the
        # code, set the run time and the memory.
        return (-0.7 + 0.05 * u, 1.0 - 0.05 * u, 4)

    def references(self):
        return [bethe.solve_ground(self.size, float(delta)).energy for delta in self.params]


class OneChainL12(_ChainSweep):
    """Iteration-heavy three-part spin-1 Lanczos: xxz_one, L=12."""

    name = "one_chain_l12"
    family = "xxz_one"
    size = 12

    def make_grid(self, u):
        # Both ends move inward by the same amount: the cost per point rises
        # about linearly with delta, so a symmetric grid keeps the total
        # work of a run nearly independent of the seed.
        shrink = 0.1 * u
        return (0.9 + shrink, 2.1 - shrink, 5)

    def references(self):
        energies = []
        for delta in self.params:
            model = hamiltonian.model_for(self.family, float(delta))
            matrix = self.workspace.matrix(model, 0.0).matrix
            start = np.ones(matrix.shape[0])
            value = eigsh(matrix, k=1, which="SA", v0=start, return_eigenvectors=False)
            energies.append(float(value[0]))
        return energies


def _spin_one_ring_parts(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear and biquadratic sums over the full 3**size space, dense.

    Built from Kronecker products with no use of spinent, so the blbq
    energies are checked by a route that shares no code with the sectors.
    """
    sz = np.diag([1.0, 0.0, -1.0])
    raise_op = np.diag([math.sqrt(2.0)] * 2, 1)
    lower_op = raise_op.T

    def on_site(op, site):
        out = np.ones((1, 1))
        for k in range(size):
            out = np.kron(out, op if k == site else np.eye(3))
        return out

    dim = 3**size
    bilinear = np.zeros((dim, dim))
    biquadratic = np.zeros((dim, dim))
    for i in range(size):
        j = (i + 1) % size
        bond = on_site(sz, i) @ on_site(sz, j) + 0.5 * (
            on_site(raise_op, i) @ on_site(lower_op, j)
            + on_site(lower_op, i) @ on_site(raise_op, j)
        )
        bilinear += bond
        biquadratic += bond @ bond
    return bilinear, biquadratic


class BlbqPhaseMap:
    """CLI sweep of the L=6 spin-1 bilinear-biquadratic ring over theta."""

    name = "blbq_phase_map"
    size = 6
    points = 200
    in_process = True
    setup_repeats = 25
    # Units vary by a quarter within one run, so take the median of ten.
    nominal_unit_s = 1.0
    csv_path = "perfbench/.work/blbq_phase_map.csv"

    def __init__(self, seed: int, reference: Path | None = None):
        # One period, 200 points, shifted by the seed: theta is periodic, so
        # every seed covers the circle with the same density.
        step = 2 * math.pi / self.points
        start = _draw(seed) * step
        self.grid = (start, start + (self.points - 1) * step, self.points)
        self.params = np.linspace(*self.grid)
        # The stored CSV is the output at the default seed, 0.
        self.reference = None
        if seed == 0:
            self.reference = reference or HERE / "reference" / "blbq_phase_map_seed0.csv"

    def describe(self) -> str:
        return f"spinent sweep --model blbq --sizes 6 --jobs 1, theta grid {_grid_text(self.grid)}"

    def setup(self, keep: bool) -> float:
        return _build_workspace("blbq", self.size, keep)[0]

    def argv(self, jobs: int) -> list[str]:
        start, end, count = self.grid
        return [
            "sweep", "--model", "blbq", "--sizes", str(self.size),
            "--param", f"{start!r}:{end!r}:{count}", "--jobs", str(jobs),
            "--out", self.csv_path,
        ]

    def unit(self, jobs: int = 1):
        WORK_DIR.mkdir(exist_ok=True)
        Path(self.csv_path).unlink(missing_ok=True)
        started = time.perf_counter()
        code = cli.run(self.argv(jobs))
        elapsed = time.perf_counter() - started
        return elapsed, (code, Path(self.csv_path).read_text())

    def check(self, outputs) -> tuple[int, int]:
        bilinear, biquadratic = _spin_one_ring_parts(self.size)
        expected = [
            scipy.linalg.eigh(
                math.cos(theta) * bilinear + math.sin(theta) * biquadratic,
                eigvals_only=True, subset_by_index=[0, 0],
            )[0]
            for theta in self.params
        ]
        reference = None
        if self.reference is not None:
            reference = self.reference.read_text().splitlines()
        attempted = failed = 0
        for code, text in outputs:
            lines = text.splitlines()
            header_end = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
            rows = lines[header_end:]
            attempted += len(expected)
            if code != 0 or len(rows) != len(expected):
                failed += len(expected)
                continue
            energy_col = lines[header_end - 1].split(",").index("energy")
            for row, target in zip(rows, expected):
                field = row.split(",")[energy_col]
                if not field or abs(float(field) - target) > ENERGY_TOL:
                    failed += 1
            if reference is not None:
                attempted += 1
                kept = [line for line in lines if not line.startswith("# elapsed_seconds")]
                stored = [line for line in reference if not line.startswith("# elapsed_seconds")]
                if kept != stored:
                    failed += 1
        return attempted, failed

    def pool_speedup(self, serial_s: float, serial_output) -> tuple[float, int]:
        """serial seconds / --jobs 2 seconds, and 1 if the rows differ, else 0."""
        serial_text = serial_output[1]
        parallel_s, (code, text) = self.unit(jobs=2)

        def rows(csv):
            return [line for line in csv.splitlines() if not line.startswith("#")]

        return serial_s / parallel_s, int(code != 0 or rows(text) != rows(serial_text))


class CheckBattery:
    """checks.run_all over BATTERY_CRITERIA, in a cold process per run."""

    name = "check_battery"
    in_process = False
    setup_repeats = 5
    nominal_unit_s = 15.0
    points = len(BATTERY_CRITERIA)
    # Criteria 5, 6, 8 and 9 fail on purpose against frozen targets.
    must_pass = (1, 2, 3, 4, 10)

    def __init__(self, seed: int):
        # The battery's inputs are fixed; the seed changes nothing here.
        del seed

    def describe(self) -> str:
        return f"checks.run_all criteria {','.join(map(str, BATTERY_CRITERIA))} in a cold process"

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def setup(self, keep: bool) -> float:
        probe = "import time; t = time.perf_counter(); import spinent; print(time.perf_counter() - t)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=self._env(), capture_output=True,
            text=True, check=True, timeout=60,
        )
        return float(done.stdout.strip())

    def unit(self, traced: bool = False):
        command = [sys.executable, str(HERE / "battery.py"), "--trace", str(int(traced))]
        if traced:
            WORK_DIR.mkdir(exist_ok=True)
            command += ["--spans", str(WORK_DIR / "spans-check_battery.jsonl")]
        done = subprocess.run(
            command, env=self._env(), capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"battery process exited {done.returncode}:\n{done.stderr[-2000:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        return report["solve_s"], report

    def check(self, outputs) -> tuple[int, int]:
        attempted = failed = 0
        for report in outputs:
            verdicts = {entry["number"]: entry for entry in report["criteria"]}
            for number in BATTERY_CRITERIA:
                attempted += 1
                entry = verdicts.get(number)
                if entry is None or entry["crashed"]:
                    failed += 1
                elif number in self.must_pass and not entry["passed"]:
                    failed += 1
        return attempted, failed


WORKLOADS = {
    cls.name: cls for cls in (HalfChainN20, OneChainL12, BlbqPhaseMap, CheckBattery)
}
