import dataclasses

import pytest

from spinent.lattice import chain_lattice, square_lattice


def test_four_site_ring_bonds():
    lat = chain_lattice(4)
    assert lat.bonds == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert lat.num_sites == 4
    assert lat.geometry == "chain"


def test_two_site_ring_keeps_single_bond():
    assert chain_lattice(2).bonds == ((0, 1),)


def _degrees(lat):
    """Number of bonds touching each site."""
    return [sum(site in bond for bond in lat.bonds) for site in range(lat.num_sites)]


def test_ring_degrees():
    lat = chain_lattice(12)
    assert len(lat.bonds) == 12
    assert _degrees(lat) == [2] * 12


@pytest.mark.parametrize("n", [3, 5, 8, 13])
def test_degree_sum_counts_each_bond_twice(n):
    lat = chain_lattice(n)
    assert sum(_degrees(lat)) == 2 * len(lat.bonds)


@pytest.mark.parametrize("n", [4, 7, 10])
def test_ring_rotation_maps_bonds_onto_themselves(n):
    lat = chain_lattice(n)
    rotated = {tuple(sorted(((i + 1) % n, (j + 1) % n))) for i, j in lat.bonds}
    assert rotated == set(lat.bonds)


def test_square_4x4():
    lat = square_lattice(4, 4)
    assert lat.num_sites == 16
    assert len(lat.bonds) == 32
    assert lat.extent == (4, 4)


def test_square_3x3_degrees():
    lat = square_lattice(3, 3)
    assert lat.num_sites == 9
    assert len(lat.bonds) == 18
    assert _degrees(lat) == [4] * 9


def test_square_rejects_small_extent():
    with pytest.raises(ValueError):
        square_lattice(4, 2)


def test_chain_rejects_single_site():
    with pytest.raises(ValueError):
        chain_lattice(1)


def test_bonds_are_canonical():
    for lat in (chain_lattice(9), square_lattice(3, 4)):
        assert all(i < j for i, j in lat.bonds)
        assert len(set(lat.bonds)) == len(lat.bonds)
        assert list(lat.bonds) == sorted(lat.bonds)


def test_sublattice_colours_only_bipartite_lattices():
    assert chain_lattice(6).sublattice() == (0, 1, 0, 1, 0, 1)
    assert chain_lattice(7).sublattice() is None
    assert square_lattice(4, 4).sublattice()[:8] == (0, 1, 0, 1, 1, 0, 1, 0)
    assert square_lattice(3, 4).sublattice() is None


@pytest.mark.parametrize("lat", [chain_lattice(8), square_lattice(4, 4), square_lattice(4, 6)])
def test_translations_map_bonds_onto_bonds(lat):
    """The identity comes first, the N images are distinct permutations that
    keep the bond set, every other one moves every site, and they are closed
    under composition. They are built once per lattice shape."""
    translations = lat.translations()
    assert dataclasses.replace(lat).translations() is translations
    sites = tuple(range(lat.num_sites))
    assert translations[0] == sites
    assert len(set(translations)) == len(translations) == lat.num_sites
    bonds = set(lat.bonds)
    for image in translations:
        assert sorted(image) == list(sites)
        assert {tuple(sorted((image[i], image[j]))) for i, j in bonds} == bonds
    assert all(image[s] != s for image in translations[1:] for s in sites)
    group = set(translations)
    assert all(tuple(f[g[s]] for s in sites) in group for f in group for g in group)


@pytest.mark.parametrize(
    "lat",
    [chain_lattice(n) for n in range(2, 14)]
    + [square_lattice(w, h) for w, h in ((3, 3), (4, 4), (4, 3), (3, 5))],
    ids=lambda lat: f"{lat.geometry}-{'x'.join(map(str, lat.extent))}",
)
def test_reflection_maps_the_bonds_onto_themselves(lat):
    """i -> -i mod N on a ring, (row, col) -> (row, -col mod width) on the
    torus: an involution that keeps the bond set."""
    images = lat.reflection()
    width = lat.extent[0]
    assert images == tuple(
        (site // width) * width + (-(site % width)) % width for site in range(lat.num_sites)
    )
    assert all(images[images[site]] == site for site in range(lat.num_sites))
    mirrored = {tuple(sorted((images[i], images[j]))) for i, j in lat.bonds}
    assert mirrored == set(lat.bonds)
