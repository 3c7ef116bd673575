import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import momentum_characters, momentum_sets, orbit_block_reference, permuted_states
from spinent import basis as basis_module
from spinent.basis import (
    SPIN_VALUE,
    _permute,
    build_basis,
    check_register,
    nonnegative_sectors,
    parity_blocks,
    sector_values,
    translation_block,
)
from spinent.lattice import chain_lattice, square_lattice


def test_two_site_sz0_dimension():
    basis = build_basis(2, "half", 0.0)
    assert basis.dimension == 2


def test_half_filling_sixteen_sites():
    # binomial(16, 8)
    assert build_basis(16, "half", 0.0).dimension == 12870


@pytest.mark.parametrize("n,expected", [(4, 19), (12, 73789)])
def test_spin_one_sz0_dimension_against_brute_count(n, expected):
    digits = np.indices((3,) * n).reshape(n, -1)
    count = int(np.sum(digits.sum(axis=0) == n))  # digit sum n <=> total Sz 0
    assert count == expected
    assert build_basis(n, "one", 0.0).dimension == expected


@pytest.mark.parametrize("spin,n", [("half", 6), ("half", 9), ("one", 4), ("one", 5)])
def test_sector_dimensions_tile_the_product_space(spin, n):
    total = sum(build_basis(n, spin, sz).dimension for sz in sector_values(spin, n))
    local = 2 if spin == "half" else 3
    assert total == local**n


@pytest.mark.parametrize("spin,n,sz", [("half", 6, 2.0), ("one", 5, 3.0)])
def test_spin_flip_is_a_sector_bijection(spin, n, sz):
    plus = build_basis(n, spin, sz)
    minus = build_basis(n, spin, -sz)
    top = plus.local_dim - 1
    flipped = np.zeros_like(plus.states)
    for site in range(n):
        flipped |= (top - plus.site_digits(site)) << (plus.bits_per_site * site)
    assert np.array_equal(np.sort(flipped), minus.states)


def test_states_strictly_increasing():
    for basis in (build_basis(10, "half", 0.0), build_basis(6, "one", 1.0)):
        assert np.all(np.diff(basis.states) > 0)


def test_digit_sum_matches_sector():
    basis = build_basis(7, "one", -2.0)
    total = sum(basis.local_sz(basis.site_digits(site)) for site in range(7))
    assert np.all(total == -2.0)


@pytest.mark.parametrize(
    "spin,n,sz",
    [("half", 4, 0.5), ("half", 4, 3.0), ("one", 3, 3.5), ("one", 3, -4.0)],
)
def test_unreachable_sector_rejected(spin, n, sz):
    with pytest.raises(ValueError):
        build_basis(n, spin, sz)


def test_oversized_register_rejected():
    with pytest.raises(ValueError):
        build_basis(25, "half", 0.5)
    with pytest.raises(ValueError):
        build_basis(15, "one", 0.0)


def test_register_needs_a_site():
    with pytest.raises(ValueError, match="need at least one site, got 0"):
        check_register("half", 0)


@pytest.mark.parametrize("spin", sorted(SPIN_VALUE))
def test_every_register_fits_32_bits(spin):
    """The pair tables sort rest codes as uint32, so a site limit whose
    register passed 32 bits would wrap those codes silently."""
    assert basis_module._BITS_PER_SITE[spin] * basis_module._MAX_SITES[spin] <= 32


def test_unknown_spin_tag_rejected():
    with pytest.raises(ValueError):
        build_basis(4, "three_halves", 0.0)


def test_nonnegative_sectors():
    assert nonnegative_sectors("half", 4) == [0.0, 1.0, 2.0]
    assert nonnegative_sectors("half", 5) == [0.5, 1.5, 2.5]
    assert nonnegative_sectors("one", 3) == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "characters,message",
    [
        ((2,) * 8, r"must be \+1 or -1"),
        ((0,) * 8, r"must be \+1 or -1"),
        ((-1,) + (1,) * 7, "not a representation"),
        ((1, -1, 1, -1, 1, -1, 1, 1), "not a representation"),
    ],
    ids=["twos", "zeros", "identity-minus-one", "no-homomorphism"],
)
def test_translation_block_needs_a_representation(characters, message, monkeypatch):
    """Characters that are not +1 or -1, or not a representation of the
    translations, are refused before any orbit is built. They used to give
    block states of norm 1.904 (all 2) or 0.354 (all 0), an empty block (an
    identity of -1), or states that are no translation eigenstates."""
    ring = chain_lattice(8)
    basis = build_basis(8, "half", 0.0)

    def refuse(*args):
        raise AssertionError("orbit_blocks reached")

    monkeypatch.setattr(basis_module, "orbit_blocks", refuse)
    with pytest.raises(ValueError, match=message):
        translation_block(basis, ring.translations(), characters)


@given(
    spin=st.sampled_from(["half", "one"]),
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_pair_digit_write_then_read(spin, n, seed):
    """with_pair_digits followed by site_digits is an exact round trip."""
    rng = np.random.default_rng(seed)
    sz = 0.0 if (spin == "one" or n % 2 == 0) else 0.5
    basis = build_basis(n, spin, sz)
    i, j = rng.choice(n, size=2, replace=False)
    di, dj = rng.integers(0, basis.local_dim, size=2)
    states = basis.with_pair_digits(basis.states, int(i), int(j), int(di), int(dj))
    patched = dataclasses.replace(basis, states=states)
    assert np.all(patched.site_digits(int(i)) == di)
    assert np.all(patched.site_digits(int(j)) == dj)
    untouched = [s for s in range(n) if s not in (i, j)]
    for site in untouched:
        assert np.array_equal(patched.site_digits(site), basis.site_digits(site))


def test_local_sz_values():
    basis = build_basis(3, "one", 0.0)
    assert basis.local_sz(np.array([0, 1, 2])).tolist() == [-1.0, 0.0, 1.0]
    half = build_basis(2, "half", 0.0)
    assert half.local_sz(np.array([0, 1])).tolist() == [-0.5, 0.5]
    assert SPIN_VALUE == {"half": 0.5, "one": 1.0}


def _spin_one_sector_by_digit_loop(n, sz):
    """A sector selected from a fresh base-3 enumeration of all 3^n states."""
    remainder = np.arange(3**n, dtype=np.int64)
    packed = np.zeros_like(remainder)
    digit_sum = np.zeros_like(remainder)
    for site in range(n):
        digit = remainder % 3
        remainder //= 3
        packed |= digit << (2 * site)
        digit_sum += digit
    return packed[digit_sum == round(sz + n)]


def test_all_product_states_enumerated_once():
    """Sector bases partition the full product space without overlap, and
    every spin-1 sector up to L=12 equals its own fresh enumeration."""
    n = 4
    seen = list(
        itertools.chain.from_iterable(
            build_basis(n, "one", sz).states.tolist()
            for sz in sector_values("one", n)
        )
    )
    assert len(seen) == 3**n
    assert len(set(seen)) == 3**n
    for n in range(1, 13):
        for sz in sector_values("one", n):
            expected = _spin_one_sector_by_digit_loop(n, sz)
            assert np.array_equal(build_basis(n, "one", sz).states, expected)


def test_half_sectors_equal_the_popcount_filter():
    """Every spin-1/2 sector up to N=20 is the ascending list of the N-bit
    codes with Sz + N/2 bits set."""
    for n in range(1, 21):
        codes = np.arange(1 << n, dtype=np.int64)
        ones = np.bitwise_count(codes)
        for sz in sector_values("half", n):
            states = build_basis(n, "half", sz).states
            assert states.dtype == np.int64
            assert np.array_equal(states, codes[ones == round(sz + n / 2)])


@pytest.mark.parametrize(
    "spin,n", [("half", 1), ("half", 7), ("half", 12), ("one", 1), ("one", 6), ("one", 9)]
)
def test_index_is_the_row_of_each_state(spin, n):
    rng = np.random.default_rng(n)
    for sz in sector_values(spin, n):
        basis = build_basis(n, spin, sz)
        assert np.array_equal(basis.index(basis.states), np.arange(basis.dimension))
        rows = rng.integers(0, basis.dimension, size=50)
        assert np.array_equal(basis.index(basis.states[rows]), rows)
        assert basis.index(basis.states[:0]).size == 0


def test_index_rejects_states_outside_the_sector():
    half = build_basis(8, "half", 0.0)
    with pytest.raises(ValueError, match="outside the Sz=0 sector"):
        half.index(np.array([half.states[3], 0b1111_1110]))  # one bit too many
    with pytest.raises(ValueError, match="outside the register"):
        half.index(np.array([half.states[0] | (1 << 8)]))
    with pytest.raises(ValueError, match="outside the register"):
        half.index(np.array([-1]))

    one = build_basis(6, "one", 1.0)
    # Raising site 0 from digit 2 to the unused digit 3 adds one unit, and
    # lowering site 1 by one takes it back: the total Sz is right, the digit not.
    site0_top = one.states[(one.states & 3) == 2]
    movable = site0_top[((site0_top >> 2) & 3) > 0]
    bad = (movable | 3) - (1 << 2)
    assert bad.size
    with pytest.raises(ValueError, match="outside the Sz=1 sector"):
        one.index(bad[:1])
    # digit 3 on a site of the high half, sites 0 and 1 at digit 2: 7 units
    for high_digit_three in (3 << 10, 3 << 6):
        with pytest.raises(ValueError, match="outside the Sz=1 sector"):
            one.index(np.array([high_digit_three | 0b10_10]))


def test_index_needs_the_whole_sector():
    basis = build_basis(8, "half", 0.0)
    ring = chain_lattice(8)
    reps = translation_block(basis, ring.translations(), momentum_characters(ring, (1,))).reps
    assert reps.dimension < basis.dimension
    with pytest.raises(ValueError, match="no index lookup"):
        reps.index(reps.states)


@pytest.mark.parametrize("count", [1, 2, 17])
def test_translation_block_needs_one_character_per_translation(count):
    """A characters tuple of another length is refused; zip used to cut the
    group short and build the block of only the translations it reached."""
    torus = square_lattice(4, 4)
    basis = build_basis(16, "half", 0.0)
    with pytest.raises(ValueError, match=f"need 16 characters, got {count}"):
        translation_block(basis, torus.translations(), (1,) * count)


@given(
    spin=st.sampled_from(["half", "one"]),
    image=st.integers(min_value=1, max_value=8).flatmap(lambda n: st.permutations(range(n))),
    pick=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_permute_moves_every_digit_to_its_image(spin, image, pick):
    """_permute equals moving the digits one site at a time, and leaves its
    input alone."""
    n = len(image)
    sectors = sector_values(spin, n)
    basis = build_basis(n, spin, sectors[pick % len(sectors)])
    b = basis.bits_per_site
    before = basis.states.copy()
    expected = [
        sum(((int(state) >> (b * site)) & ((1 << b) - 1)) << (b * image[site]) for site in range(n))
        for state in basis.states
    ]
    assert _permute(basis, basis.states, image).tolist() == expected
    assert np.array_equal(basis.states, before)


def _assert_blocks_equal(block, reference):
    for name in ("row", "coef", "orbit"):
        mine, theirs = getattr(block, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name
    assert block.reps.states.dtype == reference.reps.states.dtype
    assert block.reps.states.tobytes() == reference.reps.states.tobytes()


@pytest.mark.parametrize(
    "lattice,spin",
    [pytest.param(chain_lattice(n), "half", id=f"ring{n}-half") for n in range(4, 17)]
    + [pytest.param(chain_lattice(n), "one", id=f"ring{n}-one") for n in range(4, 11)]
    + [pytest.param(square_lattice(4, 4), "half", id="torus4x4-half")]
    + [pytest.param(square_lattice(3, 3), "one", id="torus3x3-one")],
)
def test_translation_blocks_are_bitwise_the_state_by_state_builder(lattice, spin):
    """Blocks written orbit by orbit from their representatives equal, array
    for array, those of the builder that minimized every state over every
    image, in every sector of Sz >= 0 and at every momentum 0 or pi."""
    translations = lattice.translations()
    for sz in nonnegative_sectors(spin, lattice.num_sites):
        basis = build_basis(lattice.num_sites, spin, sz)
        images = [permuted_states(basis, image) for image in translations]
        for signs in momentum_sets(lattice):
            characters = momentum_characters(lattice, signs)
            _assert_blocks_equal(
                translation_block(basis, translations, characters),
                orbit_block_reference(basis, list(zip(images, characters))),
            )


def test_translation_block_peak_memory():
    """The N=20 Sz=0 ground block traces at most four words per sector state:
    the kept row and coef, and no more than two sector-length words of work
    space. The state-by-state builder held about ten (13.6 MiB)."""
    ring = chain_lattice(20)
    basis = build_basis(20, "half", 0.0)
    characters = momentum_characters(ring, (1,))
    tracemalloc.start()
    try:
        translation_block(basis, ring.translations(), characters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * basis.dimension


def _reference_parity_blocks(basis, reflection):
    """parity_blocks through the state-by-state builder, from images found
    one site at a time."""
    states = basis.states
    mirrored = permuted_states(basis, reflection)
    b = basis.bits_per_site
    top = sum((basis.local_dim - 1) << (b * site) for site in range(basis.num_sites))
    flips = (1, -1) if basis.sz_sector == 0 else (None,)
    blocks = []
    for r in (1, -1):
        for f in flips:
            elements = [(states, 1), (mirrored, r)]
            if f is not None:
                elements += [(top - states, f), (top - mirrored, r * f)]
            block = orbit_block_reference(basis, elements)
            if block.dimension:
                blocks.append(block)
    return blocks


@pytest.mark.parametrize(
    "lattice,spin",
    [pytest.param(chain_lattice(n), "half", id=f"ring{n}-half") for n in range(4, 17)]
    + [pytest.param(chain_lattice(n), "one", id=f"ring{n}-one") for n in range(4, 11)]
    + [pytest.param(square_lattice(4, 4), "half", id="torus4x4-half")]
    + [pytest.param(square_lattice(3, 3), "one", id="torus3x3-one")],
)
def test_parity_blocks_are_bitwise_the_state_by_state_builder(lattice, spin):
    """Every parity block of every Sz >= 0 sector equals, array for array,
    that of the builder that minimized every state over every image."""
    reflection = lattice.reflection()
    for sz in nonnegative_sectors(spin, lattice.num_sites):
        basis = build_basis(lattice.num_sites, spin, sz)
        blocks = parity_blocks(basis, reflection)
        references = _reference_parity_blocks(basis, reflection)
        assert len(blocks) == len(references)
        for block, reference in zip(blocks, references):
            _assert_blocks_equal(block, reference)
