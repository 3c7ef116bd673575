"""Fixed total-Sz sector bases for registers of spin-1/2 or spin-1 sites.

Configurations are packed into int64 words, one bit per site for spin-1/2
and two bits per site for spin-1 with local values {0, 1, 2} standing for
Sz = {-1, 0, +1}. Within a sector the packed states are kept sorted.

Enumeration and index lookup share H. Q. Lin's split register (PRB 42,
6561 (1990); Sandvik, arXiv:1101.3281, sec. 4.1). A packed state splits
into a high and a low half of the sites, each a short code; one table per
spin and site count, built on first use, holds every code's count of
raising units and, for a low code, its rank among the low codes of the same
count. A sector lists, for each high code in ascending order, the low codes
that complete its unit count, so it is built without scanning every
configuration; and a state's row is the number of sector states under
smaller high codes plus the rank of its low code.

A sector splits further into blocks of one character under a group of
site and spin maps, each spanned by representative states (H. Q. Lin, op.
cit.; Sandvik, op. cit., sec. 4): the lattice translations, or the
reflection and, at Sz = 0, the global spin inversion. A lattice map is the
image of every site, and one routine, _permute, moves packed states by it;
one builder, orbit_blocks, serves both groups. It finds the
representatives first, the states no group element maps lower, and then
writes each orbit once from its representative, so only the
representatives are ever moved by the whole group. The plain sector is the block of the trivial group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

SPIN_VALUE = {"half": 0.5, "one": 1.0}
_BITS_PER_SITE = {"half": 1, "one": 2}
_LOCAL_DIM = {"half": 2, "one": 3}
_MAX_SITES = {"half": 24, "one": 14}
# Unit count of a code holding the unused spin-1 digit 3: far enough below
# zero that no sum of two codes' counts reaches a sector's.
_INVALID = -(1 << 20)


@dataclass(frozen=True, eq=False)
class SpinBasis:
    """Ordered basis of one total-Sz sector.

    ``states`` holds the packed configurations, strictly increasing. The
    packed digit of site ``i`` occupies bits ``[b*i, b*(i+1))`` where ``b``
    is ``bits_per_site``; larger digit means larger local Sz.
    """

    spin: str
    num_sites: int
    sz_sector: float
    states: np.ndarray

    @property
    def dimension(self) -> int:
        return int(self.states.size)

    @property
    def local_dim(self) -> int:
        return _LOCAL_DIM[self.spin]

    @property
    def bits_per_site(self) -> int:
        return _BITS_PER_SITE[self.spin]

    def site_digits(self, site: int) -> np.ndarray:
        """Packed digit of ``site`` for every state (0 = lowest local Sz)."""
        b = self.bits_per_site
        return (self.states >> (b * site)) & ((1 << b) - 1)

    def with_pair_digits(
        self, states: np.ndarray, i: int, j: int, digit_i: int, digit_j: int
    ) -> np.ndarray:
        """Copies of ``states`` with the digits of sites ``i`` and ``j`` replaced."""
        b = self.bits_per_site
        mask = (1 << b) - 1
        cleared = states & ~((mask << (b * i)) | (mask << (b * j)))
        return cleared | (digit_i << (b * i)) | (digit_j << (b * j))

    def local_sz(self, digits: np.ndarray) -> np.ndarray:
        """Map packed digits to local Sz values."""
        return digits - SPIN_VALUE[self.spin]

    @property
    def _units(self) -> int:
        """Raising units above the all-lowest configuration."""
        return round(self.sz_sector + self.num_sites * SPIN_VALUE[self.spin])

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Sector states under each high code, then the sector's size last."""
        counts = _low_counts(_split_register(self.spin, self.num_sites), self._units)
        return np.concatenate(([0], np.cumsum(counts)))

    def index(self, states: np.ndarray) -> np.ndarray:
        """Row of each packed state: the offset of its high code plus the
        rank of its low code.

        Raises ValueError if a state lies outside the sector (another total
        Sz, a spin-1 digit of 3, bits beyond the last site), or if this
        basis is not a whole sector but, say, a block's representatives.
        """
        offsets = self._offsets
        if offsets[-1] != self.dimension:
            raise ValueError(
                f"a basis of {self.dimension} of the {offsets[-1]} states of its "
                "sector has no index lookup"
            )
        table = _split_register(self.spin, self.num_sites)
        states = np.asarray(states)
        if states.size and (
            states.min() < 0 or states.max() >> (self.bits_per_site * self.num_sites)
        ):
            raise ValueError("packed state outside the register")
        high = states >> table.shift
        low = states & ((1 << table.shift) - 1)
        if not (table.units[high] + table.units[low] == self._units).all():
            raise ValueError(f"packed state outside the Sz={self.sz_sector:g} sector")
        return offsets[high] + table.low_rank[low]


def _check_spin(spin: str) -> None:
    if spin not in SPIN_VALUE:
        raise ValueError(f"unknown spin tag {spin!r}, expected 'half' or 'one'")


@dataclass(frozen=True, eq=False)
class _SplitRegister:
    """Tables of the two halves of one register (see the module docstring).

    The low half is the ``shift`` lowest bits; the high half, which holds as
    many sites or one more, is the rest. ``units`` covers every code of the
    high half's width, and so every low code too: a low code counts its
    units as the high code of the same value. ``low_codes`` lists the low
    codes by unit count, ascending within each count, and the codes of
    count ``u`` start at ``low_start[u]``; ``low_rank`` is each low code's
    place within its count.
    """

    shift: int
    units: np.ndarray
    low_rank: np.ndarray
    low_codes: np.ndarray
    low_start: np.ndarray


@lru_cache(maxsize=None)
def _split_register(spin: str, num_sites: int) -> _SplitRegister:
    b = _BITS_PER_SITE[spin]
    low_sites = num_sites // 2
    high_sites = num_sites - low_sites
    codes = np.arange(1 << (b * high_sites), dtype=np.int64)
    units = np.zeros_like(codes)
    unused = np.zeros(codes.size, dtype=bool)
    for site in range(high_sites):
        digit = (codes >> (b * site)) & ((1 << b) - 1)
        units += digit
        unused |= digit >= _LOCAL_DIM[spin]
    units[unused] = _INVALID
    low = units[: 1 << (b * low_sites)]
    valid = np.nonzero(low >= 0)[0]
    # a stable sort keeps every count's codes ascending
    low_codes = valid[np.argsort(low[valid], kind="stable")]
    per_count = np.bincount(low[valid], minlength=2 * low_sites + 1)
    low_start = np.concatenate(([0], np.cumsum(per_count)))
    low_rank = np.zeros(low.size, dtype=np.int64)
    low_rank[low_codes] = np.arange(low_codes.size) - low_start[low[low_codes]]
    for array in (units, low_rank, low_codes, low_start):
        array.flags.writeable = False
    return _SplitRegister(b * low_sites, units, low_rank, low_codes, low_start)


def _low_counts(table: _SplitRegister, units: int) -> np.ndarray:
    """How many low codes complete each high code to ``units`` units."""
    need = units - table.units
    top = table.low_start.size - 2
    inside = (need >= 0) & (need <= top)
    need = np.where(inside, need, 0)
    return np.where(inside, table.low_start[need + 1] - table.low_start[need], 0)


def check_register(spin: str, num_sites: int) -> None:
    """Refuse a spin tag, or a site count the packed register cannot hold."""
    _check_spin(spin)
    if num_sites < 1:
        raise ValueError(f"need at least one site, got {num_sites}")
    if num_sites > _MAX_SITES[spin]:
        raise ValueError(
            f"{num_sites} spin-{spin} sites exceed the supported size "
            f"({_MAX_SITES[spin]}); the sector matrices would not fit in memory"
        )


def build_basis(num_sites: int, spin: str, sz_sector: float) -> SpinBasis:
    """Enumerate the complete sector with total Sz equal to ``sz_sector``.

    Raises ValueError if the sector is unreachable (|Sz| too large or with
    the wrong integrality for the site count).
    """
    check_register(spin, num_sites)
    s = SPIN_VALUE[spin]
    #: number of raising units above the all-lowest configuration
    units = sz_sector + num_sites * s
    if abs(units - round(units)) > 1e-9 or not 0 <= round(units) <= 2 * s * num_sites:
        raise ValueError(
            f"sector Sz={sz_sector} is unreachable for {num_sites} spin-{spin} sites"
        )
    units = int(round(units))

    table = _split_register(spin, num_sites)
    counts = _low_counts(table, units)
    high = np.nonzero(counts)[0]
    counts = counts[high]
    # Each high code takes the run of low codes of the count it lacks.
    first = table.low_start[units - table.units[high]]
    skip = np.cumsum(counts) - counts
    low = table.low_codes[np.arange(counts.sum()) + np.repeat(first - skip, counts)]
    states = (np.repeat(high, counts) << table.shift) | low
    return SpinBasis(spin, num_sites, float(sz_sector), states)


def sector_values(spin: str, num_sites: int) -> list[float]:
    """All reachable total-Sz values, ascending."""
    _check_spin(spin)
    top = SPIN_VALUE[spin] * num_sites
    count = int(round(2 * top)) + 1
    return [float(-top + k) for k in range(count)]


def nonnegative_sectors(spin: str, num_sites: int) -> list[float]:
    """Reachable Sz >= 0 values, ascending (spin-flip covers the rest)."""
    return [v for v in sector_values(spin, num_sites) if v > -1e-12]


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """One symmetry block of a sector, spanned by representative states.

    Block state ``r`` is the normalized sum over the orbit of the
    representative ``reps.states[r]``, the smallest state of its orbit, each
    member weighted by the character of an element that maps the
    representative to it. For every state of the plain sector ``basis``,
    ``row`` (int64) is the block state whose orbit holds it and ``coef``
    its amplitude there, character / sqrt(orbit size); an orbit the
    characters annihilate has row -1 and amplitude 0. ``orbit`` (int64) is
    the orbit size of each block state. In the plain block ``reps`` is
    ``basis`` and every amplitude and orbit size is 1.
    """

    basis: SpinBasis
    reps: SpinBasis
    row: np.ndarray
    coef: np.ndarray
    orbit: np.ndarray

    @property
    def dimension(self) -> int:
        return self.reps.dimension

    def expand(self, vector: np.ndarray) -> np.ndarray:
        """A block vector written out over the plain sector."""
        # Row -1 reads the last entry, which its zero amplitude then drops.
        return self.coef * vector[self.row]


def plain_block(basis: SpinBasis) -> SectorBlock:
    """The whole sector as the block of the trivial group."""
    dim = basis.dimension
    ones = np.broadcast_to(1.0, (dim,))
    return SectorBlock(basis, basis, np.arange(dim), ones, ones)


def _permute(basis: SpinBasis, states: np.ndarray, image: tuple[int, ...]) -> np.ndarray:
    """Packed states with the digit of every site ``s`` moved to site
    ``image[s]``: one masked shift per distinct displacement."""
    b = basis.bits_per_site
    masks: dict[int, int] = {}
    for site, target in enumerate(image):
        masks[target - site] = masks.get(target - site, 0) | ((1 << b) - 1) << (b * site)
    moved = None
    for displacement, mask in masks.items():
        part = states & mask
        if displacement < 0:
            part >>= -b * displacement
        else:
            part <<= b * displacement
        moved = part if moved is None else np.bitwise_or(moved, part, out=moved)
    return moved


def translation_block(
    basis: SpinBasis, translations: tuple[tuple[int, ...], ...], characters: tuple[int, ...]
) -> SectorBlock:
    """The block of a sector on which every translation acts as its character:
    one character per site image of ``Lattice.translations()``, identity
    first. orbit_blocks builds it with each translation's _permute as its map.

    Raises ValueError, before any work, unless the characters are a
    representation of the translations: each +1 or -1, and that of a
    product of two translations the product of theirs (so the identity's
    is +1). Momentum pi along an odd extent is not one.
    """
    if len(characters) != len(translations):
        raise ValueError(f"need {len(translations)} characters, got {len(characters)}")
    if any(character not in (1, -1) for character in characters):
        raise ValueError(f"characters must be +1 or -1, got {characters}")
    images = np.array(translations)
    position = {image.tobytes(): k for k, image in enumerate(images)}
    # row (g, h) is g after h: the digit at site s lands on g[h[s]]
    products = images[:, images].reshape(len(images) ** 2, -1)
    for product, character in zip(products, np.outer(characters, characters).ravel()):
        k = position.get(product.tobytes())
        if k is not None and characters[k] != character:
            raise ValueError(
                f"characters {characters} are not a representation of the translations"
            )
    moves = [partial(_permute, basis, image=image) for image in translations]
    return orbit_blocks(basis, moves, [characters])[0]


def parity_blocks(basis: SpinBasis, reflection: tuple[int, ...]) -> list[SectorBlock]:
    """The non-empty blocks of a sector under the site reflection R and, at
    Sz = 0, the global spin inversion F, which maps every local Sz to its
    negative. Each is real and of one character under R and F; they come in
    the fixed order (R, F) = (+1, +1), (+1, -1), (-1, +1), (-1, -1), F
    omitted away from Sz = 0, and together they span the sector (Sandvik,
    arXiv:1101.3281, sec. 4.2-4.3). orbit_blocks builds them together from
    the maps R, F and RF, or R alone.
    """
    mirror = partial(_permute, basis, image=reflection)
    moves = [lambda states: states, mirror]
    representations = [(1, 1), (1, -1)]
    if basis.sz_sector == 0:
        b = basis.bits_per_site
        # F takes digit d to its highest value minus d at every site, so it
        # subtracts the state from the all-highest one; only Sz = 0 maps to itself.
        top = sum((basis.local_dim - 1) << (b * site) for site in range(basis.num_sites))
        moves += [lambda states: top - states, lambda states: top - mirror(states)]
        representations = [(1, r, f, r * f) for r in (1, -1) for f in (1, -1)]
    return [block for block in orbit_blocks(basis, moves, representations) if block.dimension]


def orbit_blocks(
    basis: SpinBasis, moves: list, representations: list[tuple[int, ...]]
) -> list[SectorBlock]:
    """The blocks of a sector under a group, one per representation of it by
    +1 and -1. ``moves`` maps packed states by each group element, identity
    first, and a representation lists the elements' characters in that
    order.

    The representative of an orbit is its smallest state. They are found
    first, once for every block: a state is one if no element maps it
    lower, so each element in turn drops the states it lowers from a
    shrinking list. An orbit's size is the group order over its
    stabilizer's; the orbit is in a block if the characters summed over the
    stabilizer are nonzero, that is, if every element that fixes the
    representative has character +1. Each kept orbit is then written once
    from its representative: the element that takes it to a state gives
    that state the amplitude character / sqrt(orbit size).
    """
    reps = basis.states
    for move in moves[1:]:
        reps = reps[move(reps) >= reps]
    fixed = np.zeros(reps.size, dtype=np.int64)
    weight = np.zeros((len(representations), reps.size), dtype=np.int64)
    for move, characters in zip(moves, zip(*representations)):
        still = move(reps) == reps
        fixed += still
        weight += np.outer(characters, still)
    orbit = len(moves) // fixed
    kept = weight != 0
    rows = [np.full(basis.dimension, -1, dtype=np.int64) for _ in representations]
    coefs = [np.zeros(basis.dimension) for _ in representations]
    for move, characters in zip(moves, zip(*representations)):
        where = basis.index(move(reps))
        for keep, character, row, coef in zip(kept, characters, rows, coefs):
            at = where[keep]
            row[at] = np.arange(at.size)
            coef[at] = character / np.sqrt(orbit[keep])
    return [
        SectorBlock(
            basis, SpinBasis(basis.spin, basis.num_sites, basis.sz_sector, reps[keep]),
            row, coef, orbit[keep],
        )
        for keep, row, coef in zip(kept, rows, coefs)
    ]
