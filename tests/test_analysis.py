import math
import os
import re

import numpy as np
import pytest

from spinent import analysis, checks, eigensolver
from spinent.analysis import (
    EdgeExtremumError,
    SweepRow,
    extrapolate,
    finite_difference,
    locate_extremum,
    size_label,
    sweep,
)
from spinent.basis import build_basis
from one_point import scan_one
from spinent.hamiltonian import SectorWorkspace, ground_characters, model_for
from spinent.lattice import chain_lattice


def test_sweep_rows_carry_the_full_measurement_set():
    table = sweep("xxz_half", "chain", [4], (0.0, 1.0, 3))
    assert len(table.rows) == 3
    params = [row.param for row in table.rows]
    np.testing.assert_allclose(params, [0.0, 0.5, 1.0])
    for row in table.rows:
        assert row.family == "xxz_half"
        assert row.geometry == "chain"
        assert row.size == "4"
        assert row.error is None
        assert row.energy is not None
        assert row.czz is not None and row.cxx is not None
        assert row.ev is not None and row.ev >= 0.0
        assert row.concurrence is not None
        assert isinstance(row.degeneracy, int)
        assert row.degenerate_flag == (row.degeneracy > 1)
    workspace = SectorWorkspace("xxz_half", chain_lattice(4))
    report = scan_one(workspace, model_for("xxz_half", 0.5))
    np.testing.assert_allclose(table.rows[1].energy, report.ground_energy, atol=1e-12)


def test_ferromagnetic_rows_flag_their_degeneracy():
    table = sweep("xxz_half", "chain", [8], (-2.0, -1.5, 2))
    for row in table.rows:
        assert row.degeneracy == 2
        assert row.degenerate_flag is True


def test_spin_one_rows_have_no_concurrence():
    table = sweep("xxz_one", "chain", [4], (0.5, 1.5, 2))
    for row in table.rows:
        assert row.error is None
        assert row.concurrence is None
        assert row.ev is not None


def test_parallel_sweep_matches_serial():
    """Pool workers get the fixed parameters too: a beta they dropped would
    make the xxz_one rows those of beta = 0."""
    for family, fixed in (("xxz_half", None), ("xxz_one", {"beta": -0.2})):
        serial = sweep(family, "chain", [4, 6], (0.0, 1.0, 3), fixed=fixed, jobs=1)
        parallel = sweep(family, "chain", [4, 6], (0.0, 1.0, 3), fixed=fixed, jobs=2)
        assert serial.rows == parallel.rows
    assert serial.rows != sweep("xxz_one", "chain", [4, 6], (0.0, 1.0, 3)).rows


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs,cores,sizes,count,workers",
    [
        (8, 4, [4], 2, [2]),  # clamped to the task count
        (8, 3, [4], 5, [3]),  # clamped to the core count
        (2, 8, [4], 5, [2]),  # the request itself
        (4, 1, [4], 5, []),  # one core: serial, no pool
        (4, None, [4], 5, []),  # unknown core count counts as one
        (4, 8, [], 2, []),  # no tasks: no pool
    ],
)
def test_sweep_clamps_workers_to_tasks_and_cores(
    monkeypatch, jobs, cores, sizes, count, workers
):
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    table = sweep("xxz_half", "chain", sizes, (0.0, 1.0, count), jobs=jobs)
    assert _RecordingPool.created == workers
    assert len(table.rows) == len(sizes) * count
    assert all(row.error is None for row in table.rows)


def test_a_sweep_hands_each_size_one_grid_unless_pooled(monkeypatch):
    """jobs=1 scans each size's grid in one call; a pool of two splits it
    into two contiguous runs, and the rows come out the same."""
    grids = []
    real = analysis.ground_state_scan

    def scan(workspace, models, **kwargs):
        grids.append([model.params["delta"] for model in models])
        return real(workspace, models, **kwargs)

    monkeypatch.setattr(analysis, "ground_state_scan", scan)
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    params = list(np.linspace(0.0, 1.0, 5))
    serial = sweep("xxz_half", "chain", [4, 6], (0.0, 1.0, 5))
    assert grids == [params] * 2
    grids.clear()
    pooled = sweep("xxz_half", "chain", [4, 6], (0.0, 1.0, 5), jobs=2)
    assert _RecordingPool.created == [2]
    assert grids == [params[:3], params[3:]] * 2
    assert pooled.rows == serial.rows


def test_failed_points_annotate_rows_instead_of_aborting():
    """delta = 1e308 and 1.7e308 overflow the N=8 Hamiltonian: both rows
    carry the error and no value, and the sweep returns instead of raising."""
    table = sweep("xxz_half", "chain", [8], (1e308, 1.7e308, 2))
    assert len(table.rows) == 2
    for row in table.rows:
        assert "overflows" in row.error
        assert row == SweepRow(row.family, row.geometry, row.size, row.param, error=row.error)
    assert table.series("8", "energy") == []


def test_a_lanczos_failure_quotes_a_true_residual_above_its_tolerance(monkeypatch):
    """Held to an absolute 1e-10, with the residual floor taken away, the
    N=16 translation block at delta = 1e6 runs out of Lanczos iterations,
    and with the dense limit below each Sz=0 parity block (1,568 to 1,667
    states) no dense solve takes its place. Its error used to quote the
    coupling bound of an unformed Ritz pair, 3.269e-11, below the tolerance
    it failed to reach; it quotes the smallest true residual
    ||Hv - theta v|| of a formed pair."""
    monkeypatch.setattr(eigensolver, "_RESIDUAL_FLOOR", 0.0)
    monkeypatch.setattr(eigensolver, "_DENSE_LIMIT", 1500)
    table = sweep("xxz_half", "chain", [16], (1e6, 2e6, 2))
    for row in table.rows:
        found = re.fullmatch(r"Lanczos did not reach tol=1e-10 .* \(best residual (\S+)\)", row.error)
        assert found and 1e-10 < float(found[1]) < math.inf, row.error


def test_a_large_norm_solves_at_the_residual_floor(monkeypatch):
    """Round-off leaves a Lanczos residual of about eps ||H||, 8.9e-10 on the
    N=16 translation block at delta = 1e6, so the absolute 1e-10 lost both
    rows. Held to max(tol, 8 eps ||H||_F) they solve, to the energies of
    eigvalsh on that 810-state block; an error under the floor names it,
    where the dense limit lies below each Sz=0 parity block."""
    table = sweep("xxz_half", "chain", [16], (1e6, 2e6, 2))
    workspace = SectorWorkspace("xxz_half", chain_lattice(16))
    for row in table.rows:
        assert row.error is None
        model = model_for("xxz_half", row.param)
        characters = ground_characters(model, workspace.lattice, 0.0)
        [block] = workspace.pieces(model, 0.0, characters)
        assert block.dimension == 810
        exact = np.linalg.eigvalsh(block.dense())[0]
        assert abs(row.energy - exact) <= 1e-12 * abs(exact)
    monkeypatch.setattr(eigensolver, "_MAX_ITER", 5)
    monkeypatch.setattr(eigensolver, "_DENSE_LIMIT", 1500)
    [row] = sweep("xxz_half", "chain", [16], (1e6, 2e6, 2)).rows[:1]
    assert re.match(r"Lanczos did not reach the residual floor 8\*eps\*\|\|H\|\|_F = \S+ "
                    r"within 5 iterations", row.error), row.error


@pytest.mark.parametrize(
    "geometry,size,message",
    [
        ("hexagonal", 4, "unknown geometry 'hexagonal'"),
        ("chain", 1, "chain needs at least 2 sites"),
        ("square", 2, "square lattice needs extents >= 3"),
        ("chain", 25, "25 spin-half sites exceed the supported size"),
    ],
    ids=["hexagonal", "chain-1", "square-2", "chain-25"],
)
def test_bad_size_or_geometry_is_refused_before_any_point(geometry, size, message, monkeypatch):
    def no_point(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(analysis, "ground_state_scan", no_point)
    with pytest.raises(ValueError, match=message):
        sweep("xxz_half", geometry, [4, size], (0.0, 1.0, 2))


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep("heisenberg_cubed", "chain", [4], (0.0, 1.0, 2))
    with pytest.raises(ValueError):
        sweep("xxz_half", "chain", [4], (0.0, 1.0, 1))
    with pytest.raises(ValueError):
        sweep("xxz_half", "chain", [4], (1.0, 0.0, 3))
    for grid in ((0.0, math.inf, 3), (math.nan, 1.0, 3), (-math.inf, 1.0, 3), (0.0, math.nan, 3)):
        with pytest.raises(ValueError, match="finite"):
            sweep("xxz_half", "chain", [4], grid)
    with pytest.raises(ValueError, match="finite"):
        sweep("xxz_one", "chain", [4], (0.0, 1.0, 3), fixed={"beta": math.nan})
    # rejected before any process pool is started
    for jobs in (0, -5):
        with pytest.raises(ValueError, match="jobs"):
            sweep("xxz_half", "chain", [4], (0.0, 1.0, 2), jobs=jobs)


def test_series_selects_one_size_and_column():
    table = sweep("xxz_half", "chain", [4, 6], (0.0, 1.0, 3))
    energies = table.series("6", "energy")
    assert len(energies) == 3
    assert [p for p, _ in energies] == [0.0, 0.5, 1.0]
    assert all(isinstance(v, float) for _, v in energies)
    assert table.series(6, "energy") == energies
    torus = sweep("xxz_one", "square", [3], (0.5, 1.0, 2))
    assert [p for p, _ in torus.series("3x3", "energy")] == [0.5, 1.0]
    for size in (3, "3"):
        with pytest.raises(ValueError, match=re.escape("the rows have sizes ['3x3']")):
            torus.series(size, "energy")


def test_ising_limit_entropy_saturates_at_one_bit():
    table = sweep("xxz_half", "chain", [8], (100.0, 101.0, 2))
    for row in table.rows:
        assert abs(row.ev - 1.0) < 0.02


def test_pair_entropy_is_continuous_across_the_isotropic_point():
    table = sweep("xxz_half", "chain", [8], (0.9, 1.1, 5))
    series = table.series("8", "ev")
    jumps = [abs(b[1] - a[1]) for a, b in zip(series, series[1:])]
    assert max(jumps) < 1e-3


def test_sweep_energies_obey_the_anisotropy_slope_bound():
    n = 8
    table = sweep("xxz_half", "chain", [n], (0.0, 1.0, 11))
    energies = [v for _, v in table.series("8", "energy")]
    for gap in np.diff(energies):
        assert abs(gap) <= n * 0.1 / 4.0 + 1e-9


def test_entropy_peak_sits_at_the_isotropic_point():
    table = sweep("xxz_half", "chain", [12], (0.8, 1.2, 9))
    x_star, y_star = locate_extremum(table.series("12", "ev"), "max")
    assert abs(x_star - 1.0) <= 0.05
    assert y_star >= max(v for _, v in table.series("12", "ev"))


def test_spin_one_entropy_slope_has_an_interior_minimum():
    table = sweep("xxz_one", "chain", [8], (1.0, 2.0, 11))
    slope = finite_difference(table.series("8", "ev"))
    x_star, _ = locate_extremum(slope, "min")
    assert 1.0 < x_star < 2.0


def test_finite_difference_is_exact_on_a_parabola():
    xs = np.linspace(-1.0, 2.0, 7)
    series = [(float(x), float(x * x)) for x in xs]
    derivative = finite_difference(series)
    for (x, d) in derivative:
        np.testing.assert_allclose(d, 2.0 * x, atol=1e-12)


def test_finite_difference_of_a_constant_vanishes():
    series = [(float(x), 4.2) for x in np.linspace(0, 1, 5)]
    assert all(abs(d) < 1e-12 for _, d in finite_difference(series))


def test_finite_difference_input_validation():
    good = [(0.0, 0.0), (0.1, 1.0), (0.2, 2.0)]
    with pytest.raises(ValueError):
        finite_difference(good[:2])
    with pytest.raises(ValueError):
        finite_difference([(0.0, 0.0), (0.1, 1.0), (0.35, 2.0)])


def test_locate_extremum_recovers_a_parabola_vertex():
    xs = np.linspace(-1.0, 1.0, 9)
    series = [(float(x), float((x - 0.3) ** 2)) for x in xs]
    x_star, y_star = locate_extremum(series, "min")
    np.testing.assert_allclose(x_star, 0.3, atol=1e-12)
    np.testing.assert_allclose(y_star, 0.0, atol=1e-12)
    flipped = [(x, -y) for x, y in series]
    x_star, y_star = locate_extremum(flipped, "max")
    np.testing.assert_allclose(x_star, 0.3, atol=1e-12)


def test_locate_extremum_rejects_boundary_hits():
    series = [(float(x), float(x)) for x in np.linspace(0, 1, 5)]
    with pytest.raises(EdgeExtremumError):
        locate_extremum(series, "max")
    with pytest.raises(EdgeExtremumError):
        locate_extremum(series, "min")


def test_locate_extremum_input_validation():
    series = [(0.0, 1.0), (0.5, 0.0), (1.0, 1.0)]
    with pytest.raises(ValueError):
        locate_extremum(series, "saddle")
    with pytest.raises(ValueError):
        locate_extremum(series[:2], "min")


def test_extremum_scaling_refuses_an_unknown_kind_before_the_sweep(monkeypatch):
    """It used to sweep (0.6 s here) and only then raise from locate_extremum."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(analysis, "sweep", no_sweep)
    message = r"^kind must be one of \('min', 'max'\), got 'median'$"
    with pytest.raises(ValueError, match=message):
        analysis.extremum_scaling(
            "xxz_half", "chain", [6, 8, 10], (0.5, 1.5, 5), "ev", extremum="median"
        )


@pytest.mark.parametrize("observable", ["ev", "concurrence"])
def test_extremum_scaling_refuses_an_unknown_family_in_one_way(observable):
    """An unknown family used to pass as spin-1 for the concurrence alone."""
    message = r"^unknown family 'nope', expected one of \['blbq', 'xxz_half', 'xxz_one'\]$"
    with pytest.raises(ValueError, match=message):
        analysis.extremum_scaling("nope", "chain", [4, 6, 8], (0.5, 1.5, 5), observable)


def test_extrapolation_recovers_exact_scaling_laws():
    sizes = [8, 12, 16, 20]
    linear = [(s, -0.4 + 2.0 / s) for s in sizes]
    fit = extrapolate(linear, "inverse_L")
    np.testing.assert_allclose(fit.extrapolated_value, -0.4, atol=1e-12)
    np.testing.assert_allclose(fit.coefficients, (-0.4, 2.0), atol=1e-12)
    assert fit.residual_norm < 1e-12

    quadratic = [(s, 1.5 - 3.0 / s**2) for s in sizes]
    fit = extrapolate(quadratic, "inverse_L_squared")
    np.testing.assert_allclose(fit.extrapolated_value, 1.5, atol=1e-12)
    assert fit.form == "inverse_L_squared"


def test_extrapolation_of_a_constant_is_flat():
    fit = extrapolate([(8, 0.25), (12, 0.25), (16, 0.25)], "inverse_L")
    np.testing.assert_allclose(fit.extrapolated_value, 0.25, atol=1e-14)
    np.testing.assert_allclose(fit.coefficients[1], 0.0, atol=1e-12)


def test_extrapolation_input_validation():
    points = [(8, 1.0), (12, 2.0), (16, 3.0)]
    with pytest.raises(ValueError):
        extrapolate(points, "logarithmic")
    with pytest.raises(ValueError):
        extrapolate(points[:2], "inverse_L")
    with pytest.raises(ValueError):
        extrapolate([(0, 1.0), (12, 2.0), (16, 3.0)], "inverse_L")


def test_size_labels():
    assert size_label("square", 4) == "4x4"
    assert size_label("chain", 12) == "12"


@pytest.mark.parametrize("jobs", [0, -3])
def test_a_worker_count_below_one_is_refused_by_sweep_and_the_battery(jobs, monkeypatch):
    """One rule for both: the battery used to accept it and report the
    sweeping criteria as crashed while the others passed."""
    ran = []
    monkeypatch.setattr(analysis, "ground_state_scan", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setitem(checks.CRITERIA, 5, ("probe", ran.append))
    message = f"--jobs must be at least 1, got {jobs}"
    with pytest.raises(ValueError, match=message):
        sweep("xxz_half", "chain", [4], (0.0, 1.0, 3), jobs=jobs)
    with pytest.raises(ValueError, match=message):
        checks.run_all([5], jobs=jobs)
    assert ran == []
