import math
import os

import numpy as np
import pytest

from spinent import analysis
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
from spinent.eigensolver import ground_state_scan
from spinent.hamiltonian import model_for
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
    report = ground_state_scan(model_for("xxz_half", 0.5), chain_lattice(4))
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
    serial = sweep("xxz_half", "chain", [4, 6], (0.0, 1.0, 3), jobs=1)
    parallel = sweep("xxz_half", "chain", [4, 6], (0.0, 1.0, 3), jobs=2)
    assert serial.rows == parallel.rows


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


def test_failed_points_annotate_rows_instead_of_aborting():
    """delta = 1e308 and 1.7e308 overflow the N=8 Hamiltonian: both rows
    carry the error and no value, and the sweep returns instead of raising."""
    table = sweep("xxz_half", "chain", [8], (1e308, 1.7e308, 2))
    assert len(table.rows) == 2
    for row in table.rows:
        assert "overflows" in row.error
        assert row == SweepRow(row.family, row.geometry, row.size, row.param, error=row.error)
    assert table.series("8", "energy") == []


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
    def no_point(task):
        raise AssertionError("a point ran")

    monkeypatch.setattr(analysis, "_sweep_point", no_point)
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
        sweep("xxz_one", "chain", [4], (0.0, 1.0, 3), beta=math.nan)
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
