"""Sweeps over model parameters and the numerics layered on top of them.

A sweep walks one model family across a parameter grid for several system
sizes, solving for the ground state at each point and recording energy,
bond correlators, pair entropy, concurrence (spin-1/2 only) and degeneracy
data. The downstream helpers differentiate those curves, refine extrema,
and extrapolate finite-size trends.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import check_tolerances, ground_state_scan
from .entanglement import bond_correlators, concurrence, two_site_rdm, von_neumann_entropy
from .hamiltonian import FAMILY_SPIN, SectorWorkspace, model_for
from .lattice import Lattice, chain_lattice, square_lattice

_MEASURED_PAIR = (0, 1)


class EdgeExtremumError(ValueError):
    """The grid extremum sits on the boundary, so refinement is meaningless."""


@dataclass(frozen=True)
class SweepRow:
    family: str
    geometry: str
    size: str
    param: float
    energy: float | None
    czz: float | None
    cxx: float | None
    ev: float | None
    concurrence: float | None
    degeneracy: int | None
    degenerate_flag: bool | None
    error: str | None = None


@dataclass
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)

    def series(self, size: str, column: str) -> list[tuple[float, float]]:
        """(param, value) pairs of one column for one size, clean rows only."""
        out = []
        for row in self.rows:
            if row.size == size or row.size == str(size):
                if row.error is None:
                    out.append((row.param, getattr(row, column)))
        return out


@dataclass(frozen=True)
class ScalingFit:
    form: str
    coefficients: tuple[float, float]
    extrapolated_value: float
    residual_norm: float


def _build_lattice(geometry: str, size: int) -> Lattice:
    if geometry == "chain":
        return chain_lattice(size)
    if geometry == "square":
        return square_lattice(size, size)
    raise ValueError(f"unknown geometry '{geometry}' (chain or square)")


def size_label(geometry: str, size: int) -> str:
    return f"{size}x{size}" if geometry == "square" else str(size)


# Per-process workspace cache so a pool worker assembles each sector once.
_WORKSPACES: dict[tuple[str, str, int], SectorWorkspace] = {}


def shared_workspace(family: str, geometry: str, size: int) -> SectorWorkspace:
    """Process-local cached workspace for one (family, geometry, size)."""
    key = (family, geometry, size)
    workspace = _WORKSPACES.get(key)
    if workspace is None:
        workspace = SectorWorkspace(family, _build_lattice(geometry, size))
        _WORKSPACES[key] = workspace
    return workspace


def _sweep_point(task) -> SweepRow:
    family, geometry, size, param, beta, tol_deg, tol = task
    label = size_label(geometry, size)
    try:
        workspace = shared_workspace(family, geometry, size)
        model = model_for(family, param, beta)
        report = ground_state_scan(
            model, workspace.lattice, tol_deg, tol=tol, workspace=workspace
        )
        state = report.representative.vector
        basis = report.representative_basis
        correlators = bond_correlators(state, basis, _MEASURED_PAIR)
        rdm = two_site_rdm(state, basis, *_MEASURED_PAIR)
        entropy = von_neumann_entropy(rdm)
        pair_concurrence = concurrence(rdm) if FAMILY_SPIN[family] == "half" else None
        return SweepRow(
            family=family,
            geometry=geometry,
            size=label,
            param=param,
            energy=report.ground_energy,
            czz=correlators.czz,
            cxx=correlators.cxx,
            ev=entropy,
            concurrence=pair_concurrence,
            degeneracy=report.degeneracy,
            degenerate_flag=report.degeneracy > 1,
        )
    except (ValueError, RuntimeError, MemoryError) as fail:
        return SweepRow(
            family=family,
            geometry=geometry,
            size=label,
            param=param,
            energy=None,
            czz=None,
            cxx=None,
            ev=None,
            concurrence=None,
            degeneracy=None,
            degenerate_flag=None,
            error=str(fail) or type(fail).__name__,
        )


def sweep(
    family: str,
    geometry: str,
    sizes: list[int],
    grid: tuple[float, float, int],
    *,
    beta: float = 0.0,
    tol_deg: float = 1e-8,
    tol: float = 1e-10,
    jobs: int = 1,
) -> SweepTable:
    """One SweepRow per (size, grid point), sizes outermost.

    grid is (start, end, count) with count >= 2 and both endpoints included.
    A solver failure annotates its row with the error text instead of
    aborting the sweep; so does running out of memory. jobs > 1 spreads
    grid points over a process pool of at most one worker per task and per
    core, and a pool of one runs serially instead; the table order is by
    (size, param) either way.
    """
    if family not in FAMILY_SPIN:
        raise ValueError(f"unknown model family '{family}'")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start, end, count = grid
    if not (math.isfinite(start) and math.isfinite(end) and math.isfinite(beta)):
        raise ValueError(f"grid ends and beta must be finite, got {start}, {end}, {beta}")
    check_tolerances(tol, tol_deg)
    if int(count) != count or count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if end <= start:
        raise ValueError(f"grid end {end} must exceed start {start}")
    params = np.linspace(start, end, int(count))
    tasks = [
        (family, geometry, int(size), float(param), beta, tol_deg, tol)
        for size in sizes
        for param in params
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks, chunksize=4))
    else:
        rows = [_sweep_point(task) for task in tasks]
    return SweepTable(rows=rows)


def finite_difference(series: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """First derivative of a uniformly gridded series, same x points.

    Central differences in the interior, second-order one-sided stencils
    at the two ends.
    """
    if len(series) < 3:
        raise ValueError(f"need at least 3 points, got {len(series)}")
    x = np.array([p for p, _ in series], dtype=float)
    y = np.array([v for _, v in series], dtype=float)
    steps = np.diff(x)
    h = steps[0]
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1.0):
        raise ValueError("series must sit on a uniform ascending grid")
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return list(zip(x.tolist(), d.tolist()))


def locate_extremum(
    series: list[tuple[float, float]], kind: str
) -> tuple[float, float]:
    """Refined (x, y) of a grid extremum via a parabola through 3 points.

    The grid extremum must be interior; an extremum on the boundary raises
    EdgeExtremumError since one of its neighbors is missing.
    """
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got '{kind}'")
    if len(series) < 3:
        raise ValueError(f"need at least 3 points, got {len(series)}")
    y = np.array([v for _, v in series], dtype=float)
    pivot = int(np.argmin(y) if kind == "min" else np.argmax(y))
    if pivot == 0 or pivot == len(series) - 1:
        raise EdgeExtremumError(
            f"grid {kind} at x = {series[pivot][0]} sits on the boundary; "
            "extend the grid to refine it"
        )
    (x0, y0), (x1, y1), (x2, y2) = series[pivot - 1 : pivot + 2]
    a, b, c = np.polyfit([x0, x1, x2], [y0, y1, y2], 2)
    if a == 0.0:
        return float(x1), float(y1)
    x_star = -b / (2.0 * a)
    x_star = min(max(x_star, x0), x2)
    y_star = (a * x_star + b) * x_star + c
    return float(x_star), float(y_star)


_SCALING_FORMS = ("inverse_L", "inverse_L_squared")


def extrapolate(points: list[tuple[float, float]], form: str) -> ScalingFit:
    """Least-squares fit of values against 1/L or 1/L^2; intercept is the limit."""
    if form not in _SCALING_FORMS:
        raise ValueError(f"form must be one of {_SCALING_FORMS}, got '{form}'")
    if len(points) < 3:
        raise ValueError(f"need at least 3 sizes to extrapolate, got {len(points)}")
    sizes = np.array([s for s, _ in points], dtype=float)
    values = np.array([v for _, v in points], dtype=float)
    if np.any(sizes <= 0):
        raise ValueError("sizes must be positive")
    power = 1.0 if form == "inverse_L" else 2.0
    design = np.column_stack([np.ones_like(sizes), sizes ** -power])
    solution, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    residual = float(np.linalg.norm(design @ solution - values))
    return ScalingFit(
        form=form,
        coefficients=(float(solution[0]), float(solution[1])),
        extrapolated_value=float(solution[0]),
        residual_norm=residual,
    )
