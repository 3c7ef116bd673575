"""Parity blocks of a sector against the whole sector.

A dense sector is diagonalized as its parity blocks: the reflection R of
the lattice, at Sz = 0 the global spin inversion F, and the translations by
half of each even extent split it into real blocks of one character each,
and the union of their spectra is the sector's spectrum.
"""

import math

import numpy as np
import pytest

from spinent.basis import build_basis, nonnegative_sectors, parity_blocks
from spinent.hamiltonian import ModelSpec, SectorWorkspace
from spinent.lattice import chain_lattice, square_lattice


def _site_map(basis, images):
    """Index of the image of every sector state under a site permutation."""
    b, mask = basis.bits_per_site, (1 << basis.bits_per_site) - 1
    moved = np.zeros_like(basis.states)
    for site, image in enumerate(images):
        moved |= ((basis.states >> (b * site)) & mask) << (b * image)
    return np.searchsorted(basis.states, moved)


def _inversion_map(basis):
    """Index of the image of every Sz = 0 state under digit d -> top - d."""
    b, mask = basis.bits_per_site, (1 << basis.bits_per_site) - 1
    top = basis.local_dim - 1
    flipped = np.zeros_like(basis.states)
    for site in range(basis.num_sites):
        flipped |= (top - ((basis.states >> (b * site)) & mask)) << (b * site)
    return np.searchsorted(basis.states, flipped)


def _character(vectors, where):
    """The one +1 or -1 that the map ``where`` multiplies every row by."""
    moved = np.zeros_like(vectors)
    moved[:, where] = vectors
    character = np.sign(np.sum(moved * vectors))
    np.testing.assert_allclose(moved, character * vectors, rtol=0, atol=1e-12)
    return int(character)


@pytest.mark.parametrize(
    "lattice,spin,largest",
    [
        *[
            pytest.param(chain_lattice(n), "half", 300, id=f"ring{n}-half")
            for n in (2, 3, 4, 5, 8, 9, 10)
        ],
        *[pytest.param(chain_lattice(n), "one", 300, id=f"ring{n}-one") for n in (2, 3, 4, 5, 6)],
        pytest.param(square_lattice(3, 3), "half", 300, id="torus3x3-half"),
        pytest.param(square_lattice(4, 3), "half", 1000, id="torus4x3-half"),
        pytest.param(square_lattice(4, 4), "half", 2000, id="torus4x4-half"),
    ],
)
def test_blocks_partition_the_sector_into_character_states(lattice, spin, largest):
    """The blocks' dimensions add up to the sector's; their expanded states
    are orthonormal, and each block is an eigenspace of R, at Sz = 0 of F,
    and of each half translation, with one character per block under each,
    the block's ``characters`` at those generators, the blocks in their
    fixed order. Sectors above ``largest`` states are left out: the 4x4
    torus keeps Sz = 4 to 8, so its two half translations are checked
    there, and F beside a half translation on the rings and the 4x3 torus."""
    reflection, halves = lattice.reflection(), lattice.half_translations()
    for sz in nonnegative_sectors(spin, lattice.num_sites):
        basis = build_basis(lattice.num_sites, spin, sz)
        if basis.dimension > largest:
            continue
        blocks = parity_blocks(basis, reflection, halves)
        assert sum(block.dimension for block in blocks) == basis.dimension
        assert all(block.dimension for block in blocks)
        vectors = np.vstack(
            [[block.expand(unit) for unit in np.eye(block.dimension)] for block in blocks]
        )
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(basis.dimension), atol=1e-12)
        maps = [_site_map(basis, reflection)]
        if sz == 0:
            maps.append(_inversion_map(basis))
        maps += [_site_map(basis, half) for half in halves]
        characters = []
        for block in blocks:
            states = np.array([block.expand(unit) for unit in np.eye(block.dimension)])
            found = tuple(_character(states, where) for where in maps)
            assert found == tuple(block.characters[1 << k] for k in range(len(maps)))
            characters.append(found)
        assert characters == sorted(set(characters), reverse=True)


def _assert_union_is_the_spectrum(workspace, model, sectors):
    for sz in sectors:
        whole = np.linalg.eigvalsh(workspace.matrix(model, sz).dense())
        pieces = workspace.pieces(model, sz, "parity")
        union = np.sort(np.concatenate([np.linalg.eigvalsh(ham.dense()) for ham in pieces]))
        np.testing.assert_allclose(union, whole, rtol=0, atol=1e-12)


@pytest.mark.parametrize("size", range(2, 13))
def test_union_of_block_levels_is_the_half_ring_spectrum(size):
    workspace = SectorWorkspace("xxz_half", chain_lattice(size))
    for delta in (-1.5, 0.5, 1.0):
        _assert_union_is_the_spectrum(
            workspace, ModelSpec("xxz_half", delta=delta), nonnegative_sectors("half", size)
        )


@pytest.mark.parametrize("extent", [3, 4])
def test_union_of_block_levels_is_the_torus_spectrum(extent):
    """The tori's sectors of at most 300 states: every sector of the 3x3
    torus, and Sz = 6, 7, 8 of the 4x4 one."""
    lattice = square_lattice(extent, extent)
    workspace = SectorWorkspace("xxz_half", lattice)
    sectors = [
        sz for sz in nonnegative_sectors("half", lattice.num_sites)
        if workspace.basis(sz).dimension <= 300
    ]
    for delta in (0.5, 1.0, 2.0):
        _assert_union_is_the_spectrum(workspace, ModelSpec("xxz_half", delta=delta), sectors)


def test_union_of_block_levels_is_the_spin_one_spectrum():
    lattice = chain_lattice(6)
    sectors = nonnegative_sectors("one", 6)
    workspace = SectorWorkspace("xxz_one", lattice)
    for beta in (-0.2, 0.0, 0.2):
        for delta in (0.5, 1.0, 1.8):
            _assert_union_is_the_spectrum(
                workspace, ModelSpec("xxz_one", delta=delta, beta=beta), sectors
            )
    workspace = SectorWorkspace("blbq", lattice)
    thetas = [*np.linspace(0.0, 2 * math.pi, 41), 0.75 * math.pi, 1.5 * math.pi,
              0.5 * math.pi, 1.25 * math.pi]
    for theta in thetas:
        _assert_union_is_the_spectrum(workspace, ModelSpec("blbq", theta=theta), sectors)
