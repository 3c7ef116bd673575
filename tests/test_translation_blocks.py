"""The translation-block route of ground_state_scan against the plain route.

Where the Marshall-rotated bond stencil passes the Perron-Frobenius test,
a large sector is solved in the one translation block that holds its
ground state; everywhere else the whole sector is solved. The plain route
is forced here by making ground_characters name the whole sector.
"""

import math

import numpy as np
import pytest

from oracles import momentum_characters
from spinent import analysis, checks, eigensolver, hamiltonian
from spinent.analysis import shared_workspace
from spinent.basis import build_basis, nonnegative_sectors, translation_block
from spinent.eigensolver import _DENSE_CUTOFF, ground_state_scan
from spinent.entanglement import bond_correlators, two_site_rdm, von_neumann_entropy
from spinent.hamiltonian import ModelSpec, SectorWorkspace, perron_frobenius, model_for
from spinent.lattice import chain_lattice, square_lattice


def _observables(report, workspace):
    state, basis = report.representative.vector, workspace.basis(report.ground_sz)
    correlators = bond_correlators(state, basis, (0, 1))
    entropy = von_neumann_entropy(two_site_rdm(state, basis, 0, 1))
    return correlators.czz, correlators.cxx, entropy


def _assert_routes_agree(model, workspace, monkeypatch):
    block = ground_state_scan(workspace, model)
    with monkeypatch.context() as patch:
        patch.setattr(eigensolver, "ground_characters", lambda *args: ())
        plain = ground_state_scan(workspace, model)
    assert block.per_sector_energies.keys() == plain.per_sector_energies.keys()
    for sz, levels in block.per_sector_energies.items():
        assert abs(levels[0] - plain.per_sector_energies[sz][0]) <= 1e-10
    assert abs(block.ground_energy - plain.ground_energy) <= 1e-10
    assert block.degeneracy == plain.degeneracy
    assert block.ground_sz == plain.ground_sz
    np.testing.assert_allclose(
        _observables(block, workspace), _observables(plain, workspace), rtol=0, atol=1e-10
    )


_CHAIN_GRIDS = {"criterion 5": (-1.5, -0.5, 21), "criterion 9": (1.5, 3.0, 31)}


@pytest.mark.parametrize("grid", sorted(_CHAIN_GRIDS))
@pytest.mark.parametrize("size", [12, 14, 16])
def test_half_chain_block_route_matches_plain(size, grid, monkeypatch):
    workspace = shared_workspace("xxz_half", "chain", size)
    for delta in np.linspace(*_CHAIN_GRIDS[grid]):
        _assert_routes_agree(model_for("xxz_half", delta), workspace, monkeypatch)


def test_square_block_route_matches_plain(monkeypatch):
    """The 4x4 torus on criterion 6's grid, sixteen translations."""
    workspace = shared_workspace("xxz_half", "square", 4)
    for delta in np.linspace(0.5, 2.0, 31):
        _assert_routes_agree(model_for("xxz_half", delta), workspace, monkeypatch)


@pytest.mark.parametrize("beta", [0.0, 0.2])
@pytest.mark.parametrize("size", [8, 10])
def test_spin_one_block_route_matches_plain(size, beta, monkeypatch):
    workspace = shared_workspace("xxz_one", "chain", size)
    for delta in np.linspace(0.9, 2.1, 7):
        _assert_routes_agree(model_for("xxz_one", delta, beta=beta), workspace, monkeypatch)


@pytest.mark.parametrize("turns", [1.6, 1.75, 1.95])
def test_blbq_block_route_matches_plain(turns, monkeypatch):
    workspace = shared_workspace("blbq", "chain", 8)
    _assert_routes_agree(model_for("blbq", turns * math.pi), workspace, monkeypatch)


def test_perron_frobenius_condition_table():
    for delta in np.linspace(-5.0, 5.0, 41):
        assert perron_frobenius(ModelSpec("xxz_half", delta=delta))
    for delta in (-1.0, 0.0, 1.0, 2.5):
        for beta in (0.0, 0.2, 1.0):
            assert perron_frobenius(ModelSpec("xxz_one", delta=delta, beta=beta))
        for beta in (-1e-3, -0.2, -1.0):
            assert not perron_frobenius(ModelSpec("xxz_one", delta=delta, beta=beta))
    for theta in np.linspace(0.0, 2 * math.pi, 401)[:-1]:
        expected = theta == 0.0 or 1.5 * math.pi < theta < 2 * math.pi
        assert perron_frobenius(ModelSpec("blbq", theta=theta)) == expected, theta
    # At the pure biquadratic point the one-unit hop (-1, 0) -> (0, -1)
    # vanishes, so the hops no longer connect every sector.
    assert not perron_frobenius(ModelSpec("blbq", theta=1.5 * math.pi))
    assert perron_frobenius(ModelSpec("blbq", theta=1.5 * math.pi + 1e-9))


def _record(monkeypatch):
    """Record (sector dimension, block dimension, kind) for every block
    assembled, the kind "plain", "translation" or "parity", and the
    dimension of every piece sector_lowest solves: the translation block
    ground_characters predicts for a sector not solved whole, or else the
    whole sector."""
    assembled, solved, parity = [], [], set()
    real_assemble, real_lowest = hamiltonian.assemble_parts, eigensolver.sector_lowest
    real_parity = hamiltonian.parity_blocks

    def parity_blocks(*args):
        blocks = real_parity(*args)
        parity.update(id(block) for block in blocks)
        return blocks

    def assemble(family, lattice, block):
        kind = "translation"
        if block.reps is block.basis:
            kind = "plain"
        elif id(block) in parity:
            kind = "parity"
        assembled.append((block.basis.dimension, block.dimension, kind))
        return real_assemble(family, lattice, block)

    def lowest(workspace, model, sz, count=1, tol=1e-10):
        found = real_lowest(workspace, model, sz, count, tol)
        if found[2]:
            solved.append(workspace.basis(sz).dimension)
        else:
            characters = hamiltonian.ground_characters(model, workspace.lattice, sz)
            solved.append(workspace.pieces(model, sz, characters)[0].dimension)
        return found

    monkeypatch.setattr(hamiltonian, "parity_blocks", parity_blocks)
    monkeypatch.setattr(hamiltonian, "assemble_parts", assemble)
    monkeypatch.setattr(eigensolver, "sector_lowest", lowest)
    return assembled, solved


def _parity_sectors(assembled):
    """Dimension of each sector whose parity blocks were assembled, in
    order; each sector's blocks must add up to it."""
    sectors, total = [], 0
    for dim, block_dim, kind in assembled:
        if kind == "parity":
            total += block_dim
            if total == dim:
                sectors.append(dim)
                total = 0
    assert total == 0
    return sectors


def _assert_no_small_plain_block(assembled):
    """No plain sector of at most _DENSE_CUTOFF states is assembled: a dense
    solve reads only its parity blocks."""
    assert not [dim for dim, _, kind in assembled if kind == "plain" and dim <= _DENSE_CUTOFF]


@pytest.mark.parametrize(
    "model,lattice",
    [
        (ModelSpec("xxz_one", delta=1.0, beta=-0.2), chain_lattice(10)),
        (ModelSpec("blbq", theta=1.25 * math.pi), chain_lattice(8)),
        (ModelSpec("xxz_half", delta=1.0), chain_lattice(13)),
    ],
    ids=["xxz_one-negative-beta", "blbq-5pi/4", "odd-ring"],
)
def test_failing_points_take_the_plain_route(model, lattice, monkeypatch):
    assembled, solved = _record(monkeypatch)
    workspace = SectorWorkspace(model.family, lattice)
    ground_state_scan(workspace, model)
    sectors = nonnegative_sectors(workspace.spin, lattice.num_sites)
    dims = [workspace.basis(sz).dimension for sz in sectors]
    assert max(dims) > _DENSE_CUTOFF
    assert [(dim, dim, "plain") for dim in dims if dim > _DENSE_CUTOFF] == [
        entry for entry in assembled if entry[2] != "parity"
    ]
    _assert_no_small_plain_block(assembled)
    # every dense sector is split into its parity blocks, and so is every
    # sector that a dense top-up reads whole
    dense = [dim for dim in dims if dim <= _DENSE_CUTOFF]
    split = _parity_sectors(assembled)
    assert set(dense) <= set(split) <= set(dims)
    # every sector solved whole, some of them again for more levels
    assert solved[: len(dims)] == dims
    assert set(solved) <= set(dims)


def test_block_route_never_assembles_large_plain_sectors(monkeypatch):
    assembled, solved = _record(monkeypatch)
    lattice = chain_lattice(16)
    workspace = SectorWorkspace("xxz_half", lattice)
    ground_state_scan(workspace, ModelSpec("xxz_half", delta=0.5))
    large = [dim for dim, _, _ in assembled if dim > _DENSE_CUTOFF]
    assert len(large) == 6  # Sz = 0 .. 5
    for dim, block_dim, kind in assembled:
        assert (kind == "translation") == (dim > _DENSE_CUTOFF)
        if kind == "translation":
            assert block_dim < dim / 10
    _assert_no_small_plain_block(assembled)
    dims = [workspace.basis(sz).dimension for sz in nonnegative_sectors("half", 16)]
    small = [dim for dim in dims if dim <= _DENSE_CUTOFF]
    assert small == [120, 16, 1]  # Sz = 6, 7, 8
    assert _parity_sectors(assembled) == small
    blocks = [block_dim for _, block_dim, kind in assembled if kind == "translation"]
    assert solved == blocks + small


def test_one_level_of_a_large_sector_reads_only_its_translation_block(monkeypatch):
    """xxz_half N=16 Sz=0 (12,870 states): one level is solved in the
    translation block alone and the sector is not solved whole; two levels
    solve the plain sector."""
    assembled, solved = _record(monkeypatch)
    workspace = SectorWorkspace("xxz_half", chain_lattice(16))
    model = ModelSpec("xxz_half", delta=0.5)
    one, _, whole = eigensolver.sector_lowest(workspace, model, 0.0)
    assert not whole and len(one) == 1
    ((dim, block_dim, kind),) = assembled
    assert (dim, kind) == (12870, "translation") and solved == [block_dim]
    two, _, whole = eigensolver.sector_lowest(workspace, model, 0.0, count=2)
    assert whole and len(two) == 2
    assert assembled[1:] == [(12870, 12870, "plain")] and solved[1:] == [12870]
    assert abs(one[0] - two[0]) <= 1e-10


def test_check_battery_never_assembles_large_plain_sectors(monkeypatch):
    """Criteria 1-4 take their Sz=0 grounds from the scan's sector solve, so
    every sector above the cutoff they touch is assembled as a translation
    block only, and every other one as its parity blocks only: the Sz=0
    sectors of the rings N = 4, 6, 8 and 10."""
    monkeypatch.setattr(analysis, "_WORKSPACES", {})
    assembled, _ = _record(monkeypatch)
    assert all(checks.run_criterion(number).passed for number in (1, 2, 3, 4))
    assert max(dim for dim, _, _ in assembled) == 184756  # N=20 Sz=0
    for dim, _, kind in assembled:
        assert (kind == "translation") == (dim > _DENSE_CUTOFF)
    _assert_no_small_plain_block(assembled)
    assert sorted(_parity_sectors(assembled)) == [6, 20, 70, 252]


@pytest.mark.parametrize(
    "model,size",
    [(ModelSpec("xxz_half", delta=0.5), 12), (ModelSpec("blbq", theta=1.5 * math.pi), 8)],
    ids=["xxz_half", "blbq"],
)
def test_low_spectrum_assembles_no_small_plain_sector(model, size, monkeypatch):
    """low_spectrum solves a dense sector as its parity blocks, like the
    scan, and builds the plain sector only for a Lanczos solve."""
    assembled, solved = _record(monkeypatch)
    workspace = SectorWorkspace(model.family, chain_lattice(size))
    eigensolver.low_spectrum(workspace, model, 20)
    sectors = nonnegative_sectors(workspace.spin, size)
    dims = [workspace.basis(sz).dimension for sz in sectors]
    assert [(dim, dim, "plain") for dim in dims if dim > _DENSE_CUTOFF] == [
        entry for entry in assembled if entry[2] != "parity"
    ]
    _assert_no_small_plain_block(assembled)
    assert _parity_sectors(assembled) == [dim for dim in dims if dim <= _DENSE_CUTOFF]
    assert solved == dims


@pytest.mark.parametrize(
    "lattice,sz,characters",
    [
        (chain_lattice(10), 0.0, (1,)),
        (chain_lattice(10), 1.0, (-1,)),
        (chain_lattice(12), 0.0, (-1,)),
        (square_lattice(4, 4), 1.0, (-1, 1)),
    ],
)
def test_block_states_are_orthonormal_character_states(lattice, sz, characters):
    """Expanded block states are orthonormal and each translation maps every
    one of them to its character times itself; ``characters`` are those of
    the unit translations."""
    basis = build_basis(lattice.num_sites, "half", sz)
    characters = momentum_characters(lattice, characters)
    block = translation_block(basis, lattice.translations(), characters)
    vectors = np.array([block.expand(unit) for unit in np.eye(block.dimension)])
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(block.dimension), atol=1e-12)
    for moved, character in zip(lattice.translations(), characters):
        images = np.zeros_like(basis.states)
        for site in range(lattice.num_sites):
            images |= ((basis.states >> site) & 1) << moved[site]
        where = np.searchsorted(basis.states, images)
        translated = np.zeros_like(vectors)
        translated[:, where] = vectors
        np.testing.assert_allclose(translated, character * vectors, atol=1e-12)
