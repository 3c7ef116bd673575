"""A grid handed to ground_state_scan at once against its points one by one.

The scan solves every dense sector for the whole grid, its parity blocks
combined and diagonalized in stacks, and the other sectors point by point.
None of that may show in a point's report or in which error a point gets.
"""

import math
import tracemalloc

import numpy as np
import pytest

from one_point import scan_one
from oracles import reflection_block_ground
from spinent import eigensolver
from spinent.analysis import shared_workspace, sweep
from spinent.eigensolver import ConvergenceError, ground_state_scan
from spinent.hamiltonian import SectorWorkspace, model_for
from spinent.lattice import chain_lattice, square_lattice

_GRIDS = [
    ("blbq", chain_lattice(6), np.linspace(0.0, 2 * math.pi, 41), {}),
    ("xxz_half", chain_lattice(7), np.linspace(-0.5, 1.5, 9), {}),
    ("xxz_half", chain_lattice(9), np.linspace(-0.5, 1.5, 9), {}),
    ("xxz_half", chain_lattice(11), np.linspace(-0.5, 1.5, 9), {}),
    ("xxz_half", chain_lattice(12), np.linspace(-0.5, 1.5, 9), {}),
    ("xxz_one", chain_lattice(8), np.linspace(0.5, 2.0, 7), {"beta": -0.2}),
    ("xxz_one", square_lattice(3, 3), np.linspace(0.5, 1.5, 3), {}),
]


def _assert_same_report(grid, single):
    assert grid.per_sector_energies == single.per_sector_energies
    assert grid.ground_energy == single.ground_energy
    assert grid.ground_sz == single.ground_sz
    assert grid.degeneracy == single.degeneracy
    assert grid.representative.energy == single.representative.energy
    assert np.array_equal(grid.representative.vector, single.representative.vector)


@pytest.mark.parametrize(
    "family,lattice,params,fixed", _GRIDS,
    ids=["blbq-6", "xxz_half-7", "xxz_half-9", "xxz_half-11", "xxz_half-12",
         "xxz_one-8-beta", "xxz_one-3x3"],
)
def test_a_grid_scan_is_bitwise_the_one_point_scans(family, lattice, params, fixed):
    """Every sector of blbq L=6 is dense; the odd rings have degenerate
    bottoms, where the representative is picked by rule; N=12 mixes dense
    sectors with translation blocks; xxz_one at beta = -0.2 takes the plain
    Lanczos route; the torus is spin-1 on a square lattice."""
    models = [model_for(family, param, **fixed) for param in params]
    grid = ground_state_scan(SectorWorkspace(family, lattice), models)
    assert len(grid) == len(models)
    workspace = SectorWorkspace(family, lattice)
    for model, entry in zip(models, grid):
        _assert_same_report(entry, scan_one(workspace, model))


def test_grid_representatives_are_bitwise_eigh_of_their_reflection_blocks():
    """blbq L=6 on 41 points of [0, 2pi]: the scan solves the parity blocks
    (R, F and the half translation) values-only, and each point's
    representative is eigh of the block of R and F alone that holds it, and
    its energy that eigh's bottom, both bit for bit. Where the ground is
    degenerate across sectors, the ground energy is the lowest level of any
    sector, which may be another sector's values-only one."""
    lattice = chain_lattice(6)
    models = [model_for("blbq", theta) for theta in np.linspace(0.0, 2 * math.pi, 41)]
    reports = ground_state_scan(SectorWorkspace("blbq", lattice), models)
    for model, report in zip(models, reports):
        energy, sz, _, vector = reflection_block_ground("blbq", lattice, model)
        assert report.ground_sz == sz and report.representative.energy == energy
        assert abs(report.ground_energy - energy) <= 1e-13
        assert np.array_equal(report.representative.vector, vector)


def test_overflowing_points_fail_alone_among_solvable_ones():
    """On [1e150, 1e154] the N=8 and N=10 rings overflow from some point on:
    each row carries the error the point alone raises, and the rows before
    the first overflow solve as they do alone."""
    table = sweep("xxz_half", "chain", [8, 10], (1e150, 1e154, 41))
    for size in (8, 10):
        rows = [row for row in table.rows if row.size == str(size)]
        workspace = SectorWorkspace("xxz_half", chain_lattice(size))
        solved = failed = 0
        for row in rows:
            try:
                report = scan_one(workspace, model_for("xxz_half", row.param))
            except ValueError as fail:
                assert row.error == str(fail)
                assert "overflows" in row.error
                failed += 1
            else:
                assert row.error is None and row.energy == report.ground_energy
                solved += 1
        assert solved and failed
        assert all(row.error is None for row in rows[:solved])


def test_an_earlier_lanczos_failure_wins_over_a_later_dense_overflow(monkeypatch):
    """xxz_half N=16: Sz=0 goes to Lanczos, Sz=6 to 8 are dense. At delta =
    1e154 every sector overflows; a Lanczos solve that fails first, in
    sector order, is the error the point reports, and the point beside it
    solves. The dense limit lies below each Sz=0 parity block, so no dense
    solve of that sector takes the failure's place."""
    real = eigensolver.lanczos_lowest

    def lanczos(hamiltonian, *args, **kwargs):
        try:
            hamiltonian.matrix
        except ValueError:
            raise ConvergenceError("Lanczos gave up first") from None
        return real(hamiltonian, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "lanczos_lowest", lanczos)
    monkeypatch.setattr(eigensolver, "_DENSE_LIMIT", 1500)
    workspace = SectorWorkspace("xxz_half", chain_lattice(16))
    solvable, overflowing = model_for("xxz_half", 1.0), model_for("xxz_half", 1e154)
    with pytest.raises(ValueError, match="overflows"):
        workspace.pieces(overflowing, 8.0, "parity")[0].dense()
    report, failure = ground_state_scan(workspace, [solvable, overflowing])
    assert isinstance(failure, ConvergenceError) and str(failure) == "Lanczos gave up first"
    _assert_same_report(report, scan_one(workspace, solvable))


def test_a_stack_that_fails_is_solved_again_array_by_array(monkeypatch):
    """eigvalsh refusing one array of blbq L=6 fails its whole stack; the
    stack is solved again array by array, so only that point's row carries
    the error and every other row is what it is alone."""
    params = np.linspace(0.3, 5.9, 7)
    workspace = SectorWorkspace("blbq", chain_lattice(6))
    bad = workspace.pieces(model_for("blbq", params[3]), 0.0, "parity")[0].dense()
    real = np.linalg.eigvalsh
    seen = []

    def eigvalsh(arrays):
        seen.append(arrays.ndim)
        if any(np.array_equal(array, bad) for array in arrays.reshape(-1, *arrays.shape[-2:])):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(arrays)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    table = sweep("blbq", "chain", [6], (params[0], params[-1], len(params)))
    monkeypatch.setattr(np.linalg, "eigvalsh", real)
    assert 3 in seen and 2 in seen
    for index, row in enumerate(table.rows):
        if index == 3:
            assert row.error == "Eigenvalues did not converge"
        else:
            report = scan_one(workspace, model_for("blbq", row.param))
            assert row.error is None and row.energy == report.ground_energy


def test_a_long_serial_sweep_keeps_one_representative_at_a_time():
    """A sweep turns each point's report into its row as soon as the scan
    hands it on, so from 4 points to 16 its peak memory grows by less than
    one representative vector; keeping every report to the end of the grid
    would add twelve. xxz_half N=16 has its ground state in the 12,870-state
    Sz=0 sector."""
    workspace = shared_workspace("xxz_half", "chain", 16)
    sweep("xxz_half", "chain", [16], (0.5, 1.5, 2))  # fills the workspace's caches
    peaks = []
    for count in (4, 16):
        tracemalloc.start()
        table = sweep("xxz_half", "chain", [16], (0.5, 1.5, count))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert [row.error for row in table.rows] == [None] * count
        del table
    assert peaks[1] - peaks[0] < 8 * workspace.basis(0.0).dimension
