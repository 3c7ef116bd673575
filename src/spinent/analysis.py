"""Sweeps over model parameters and the numerics layered on top of them.

A sweep walks one model family across a parameter grid for several system
sizes, solving for the ground state at each point, each size's grid in one
ground-state scan. Each row records the
OBSERVABLES its family's site spin allows, one column per entry of that
table, and degeneracy data. The downstream helpers differentiate those curves,
refine extrema, and extrapolate finite-size trends; extremum_scaling chains them.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .basis import SPIN_VALUE
from .eigensolver import ConvergenceError, check_tolerances, ground_state_scan
from .entanglement import bond_correlators, concurrence, two_site_rdm, von_neumann_entropy
from .hamiltonian import SectorWorkspace, family_record, model_for
from .lattice import chain_lattice, square_lattice

_MEASURED_PAIR = (0, 1)


class EdgeExtremumError(ValueError):
    """The grid extremum sits on the boundary, so refinement is meaningless."""


#: The sweep's value columns in order, each with the site spins it is defined for and
#: its value from a point's (GroundStateReport, BondCorrelators, pair RDM). Entanglement
#: functions are read as module globals at call time, so perfbench's tracer sees them.
OBSERVABLES = {
    "energy": (tuple(SPIN_VALUE), lambda report, bond, rdm: report.ground_energy),
    "czz": (tuple(SPIN_VALUE), lambda report, bond, rdm: bond.czz),
    "cxx": (tuple(SPIN_VALUE), lambda report, bond, rdm: bond.cxx),
    "ev": (tuple(SPIN_VALUE), lambda report, bond, rdm: von_neumann_entropy(rdm)),
    "concurrence": (("half",), lambda report, bond, rdm: concurrence(rdm)),
}


def observables(family: str) -> tuple[str, ...]:
    """The OBSERVABLES defined for a family's site spin, which its rows fill.
    An unknown family raises ValueError."""
    spin = family_record(family).spin
    return tuple(name for name, (spins, _) in OBSERVABLES.items() if spin in spins)


SweepRow = namedtuple(
    "SweepRow",
    ["family", "geometry", "size", "param", *OBSERVABLES, "degeneracy", "degenerate_flag", "error"],
    defaults=[None] * (len(OBSERVABLES) + 3), module=__name__,
)
SweepRow.__doc__ = """One point of a sweep, a field per OBSERVABLES column (None where its
family's spin leaves it undefined); a failed point fills only its error."""


@dataclass
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)

    def series(self, size: int | str, column: str) -> list[tuple[float, float]]:
        """(param, value) pairs of one column for one size label, clean rows only.
        A label that no row carries, such as 3 for the torus label "3x3", raises ValueError."""
        rows = [row for row in self.rows if row.size == str(size)]
        if not rows:
            labels = list(dict.fromkeys(row.size for row in self.rows))
            raise ValueError(f"no row has size {str(size)!r}; the rows have sizes {labels}")
        return [(row.param, getattr(row, column)) for row in rows if row.error is None]


@dataclass(frozen=True)
class ScalingFit:
    form: str
    coefficients: tuple[float, float]
    extrapolated_value: float
    residual_norm: float


#: Lattice builders by geometry name, each taking the linear size.
GEOMETRIES = {"chain": chain_lattice, "square": lambda size: square_lattice(size, size)}


def size_label(geometry: str, size: int) -> str:
    return f"{size}x{size}" if geometry == "square" else str(size)


# Per-process workspace cache so a pool worker assembles each sector once.
_WORKSPACES: dict[tuple[str, str, int], SectorWorkspace] = {}


def shared_workspace(family: str, geometry: str, size: int) -> SectorWorkspace:
    """Process-local cached workspace for one (family, geometry, size)."""
    key = (family, geometry, size)
    workspace = _WORKSPACES.get(key)
    if workspace is None:
        if geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry '{geometry}' ({' or '.join(GEOMETRIES)})")
        workspace = SectorWorkspace(family, GEOMETRIES[geometry](size))
        _WORKSPACES[key] = workspace
    return workspace


def _sweep_rows(task) -> list[SweepRow]:
    """The rows of one run of grid points of one size, from one ground_state_scan.

    Each point's row is made as soon as the scan hands on the point's entry,
    so the run keeps one report, and one representative vector, at a time."""
    family, geometry, size, params, fixed, tol_deg, tol = task
    label = size_label(geometry, size)
    rows: list[SweepRow] = []

    def failed(param: float, fail: Exception) -> SweepRow:
        return SweepRow(family, geometry, label, param, error=str(fail) or type(fail).__name__)

    def add(report) -> None:
        param = params[len(rows)]
        if isinstance(report, Exception):
            rows.append(failed(param, report))
            return
        state = report.representative.vector
        basis = workspace.basis(report.ground_sz)
        try:
            bond = bond_correlators(state, basis, _MEASURED_PAIR)
            rdm = two_site_rdm(state, basis, *_MEASURED_PAIR)
            rows.append(SweepRow(
                family, geometry, label, param,
                **{name: OBSERVABLES[name][1](report, bond, rdm) for name in observables(family)},
                degeneracy=report.degeneracy, degenerate_flag=report.degeneracy > 1,
            ))
        except (ValueError, RuntimeError, MemoryError) as fail:
            rows.append(failed(param, fail))

    try:
        workspace = shared_workspace(family, geometry, size)
        models = [model_for(family, param, **dict(fixed)) for param in params]
        ground_state_scan(workspace, models, tol=tol, tol_deg=tol_deg, each=add)
    except (ValueError, RuntimeError, MemoryError) as fail:
        rows += [failed(param, fail) for param in params[len(rows):]]
    return rows


def check_jobs(jobs: int) -> None:
    """Reject a worker count below 1, in the words the CLI shows for --jobs."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")


def sweep(
    family: str,
    geometry: str,
    sizes: list[int],
    grid: tuple[float, float, int],
    *,
    fixed: dict[str, float] | None = None,
    tol_deg: float = 1e-8,
    tol: float = 1e-10,
    jobs: int = 1,
) -> SweepTable:
    """One SweepRow per (size, grid point), sizes outermost, filling observables(family).

    grid is (start, end, count) with count >= 2 and both endpoints included;
    ``fixed`` holds the family's other parameters (see model_for). Bad input raises
    ValueError before any point runs: a grid, family, model parameter, tolerance,
    geometry or size that is out of range. A solver failure annotates its row with
    the error text instead of aborting the sweep; so does running out of memory.
    Each size's grid goes to one ground_state_scan, which solves its dense sectors
    for all points at once. jobs > 1 spreads the points over a process pool of at
    most one worker per grid point and per core, each size's grid split into one
    contiguous run per worker, each run one scan; a pool of one runs serially
    instead. The table order is by (size, param) either way.
    """
    check_jobs(jobs)
    start, end, count = grid
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"grid ends must be finite, got {start}, {end}")
    check_tolerances(tol, tol_deg)
    if int(count) != count or count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if end <= start:
        raise ValueError(f"grid end {end} must exceed start {start}")
    params = np.linspace(start, end, int(count))
    fixed_items = tuple(sorted((fixed or {}).items()))
    model_for(family, float(params[0]), **dict(fixed_items))
    for size in sizes:
        shared_workspace(family, geometry, int(size))
    workers = min(jobs, len(sizes) * len(params), os.cpu_count() or 1)
    tasks = [
        (family, geometry, int(size), tuple(map(float, run)), fixed_items, tol_deg, tol)
        for size in sizes
        for run in np.array_split(params, max(workers, 1))
        if len(run)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_rows, tasks))
    else:
        chunks = [_sweep_rows(task) for task in tasks]
    return SweepTable(rows=[row for chunk in chunks for row in chunk])


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


#: The extremum kinds locate_extremum refines.
EXTREMA = ("min", "max")


def locate_extremum(
    series: list[tuple[float, float]], kind: str
) -> tuple[float, float]:
    """Refined (x, y) of a grid extremum via a parabola through 3 points.

    The grid extremum must be interior; an extremum on the boundary raises
    EdgeExtremumError since one of its neighbors is missing.
    """
    if kind not in EXTREMA:
        raise ValueError(f"kind must be one of {EXTREMA}, got '{kind}'")
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


def extremum_scaling(
    family: str, geometry: str, sizes: list[int], grid: tuple[float, float, int],
    observable: str, *, derivative: bool = True, extremum: str = "min", **solve,
) -> tuple[list[tuple[int, float, float]], list[ScalingFit]]:
    """Each size's refined extremum of one observable, as (size, param, value),
    and the fits of its location in every scaling form.

    One sweep (``solve`` holds its keyword arguments, ``fixed`` among them);
    per size the series, its first derivative if ``derivative``, and the
    ``extremum`` ("min" or "max") refined by locate_extremum. Refused with
    ValueError before the sweep: fewer than 3 sizes or grid points, another
    extremum kind, a repeated size, an observable the family's rows leave
    empty. A size that lost rows raises ConvergenceError quoting its first
    row's error, with no residual of its own.
    """
    if len(sizes) < 3:
        raise ValueError("scaling needs at least 3 sizes")
    if grid[2] < 3:
        raise ValueError(f"need at least 3 points, got {grid[2]}")
    if extremum not in EXTREMA:
        raise ValueError(f"kind must be one of {EXTREMA}, got '{extremum}'")
    repeated = [size for size in sizes if sizes.count(size) > 1]
    if repeated:
        raise ValueError(f"scaling needs distinct sizes, got {repeated[0]} more than once")
    if observable not in observables(family):
        raise ValueError(
            f"{family} rows fill {observables(family)}, not {observable!r}; "
            "the concurrence is defined for spin-1/2 models only"
        )
    table = sweep(family, geometry, sizes, grid, **solve)
    extrema = []
    for size in sizes:
        label = size_label(geometry, size)
        series = table.series(label, observable)
        if len(series) < grid[2]:
            first = next(row for row in table.rows if row.size == label and row.error)
            raise ConvergenceError(
                f"size {size} lost {grid[2] - len(series)} rows to solver failures, "
                f"the first at {first.param:.12g}: {first.error}"
            )
        if derivative:
            series = finite_difference(series)
        extrema.append((size, *locate_extremum(series, extremum)))
    locations = [(size, param) for size, param, _ in extrema]
    return extrema, [extrapolate(locations, form) for form in _SCALING_FORMS]
