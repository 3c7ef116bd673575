"""Fixed total-Sz sector bases for registers of spin-1/2 or spin-1 sites.

Configurations are packed into int64 words, one bit per site for spin-1/2
and two bits per site for spin-1 with local values {0, 1, 2} standing for
Sz = {-1, 0, +1}. Within a sector the packed states are kept sorted, so
index lookup is a binary search.

A sector splits further into blocks of one character under the lattice
translations, each spanned by representative states (H. Q. Lin, PRB 42,
6561 (1990); Sandvik, arXiv:1101.3281, sec. 4). The plain sector is the
block of the trivial group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SPIN_VALUE = {"half": 0.5, "one": 1.0}
_BITS_PER_SITE = {"half": 1, "one": 2}
_LOCAL_DIM = {"half": 2, "one": 3}
_MAX_SITES = {"half": 24, "one": 14}


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
        shift = self.bits_per_site * site
        mask = self.local_dim - 1 if self.spin == "half" else 3
        return (self.states >> shift) & mask

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


def _check_spin(spin: str) -> None:
    if spin not in SPIN_VALUE:
        raise ValueError(f"unknown spin tag {spin!r}, expected 'half' or 'one'")


@lru_cache(maxsize=1)
def _spin_one_configurations(num_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Every packed spin-1 configuration, ascending, with its digit sum; kept
    for the last site count, whose sectors a workspace builds one by one."""
    remainder = np.arange(3**num_sites, dtype=np.int64)
    packed = np.zeros_like(remainder)
    digit_sum = np.zeros(remainder.size, dtype=np.int8)
    for site in range(num_sites):
        digit = remainder % 3
        remainder //= 3
        packed |= digit << (2 * site)
        digit_sum += digit.astype(np.int8)
    # digit-wise packing is monotone in the base-3 value, so every selection
    # is already sorted
    packed.flags.writeable = False
    digit_sum.flags.writeable = False
    return packed, digit_sum


def build_basis(num_sites: int, spin: str, sz_sector: float) -> SpinBasis:
    """Enumerate the complete sector with total Sz equal to ``sz_sector``.

    Raises ValueError if the sector is unreachable (|Sz| too large or with
    the wrong integrality for the site count).
    """
    _check_spin(spin)
    if num_sites < 1:
        raise ValueError(f"need at least one site, got {num_sites}")
    if num_sites > _MAX_SITES[spin]:
        raise ValueError(
            f"{num_sites} spin-{spin} sites exceed the supported size "
            f"({_MAX_SITES[spin]}); the full enumeration would not fit in memory"
        )
    s = SPIN_VALUE[spin]
    #: number of raising units above the all-lowest configuration
    units = sz_sector + num_sites * s
    if abs(units - round(units)) > 1e-9 or not 0 <= round(units) <= 2 * s * num_sites:
        raise ValueError(
            f"sector Sz={sz_sector} is unreachable for {num_sites} spin-{spin} sites"
        )
    units = int(round(units))

    if spin == "half":
        codes = np.arange(1 << num_sites, dtype=np.int64)
        states = codes[np.bitwise_count(codes) == units]
    else:
        packed, digit_sum = _spin_one_configurations(num_sites)
        states = packed[digit_sum == units]

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
    representative ``reps.states[r]``, each member weighted by the block's
    character. For every state of the plain sector ``basis``, ``row`` is the
    block state whose orbit holds it and ``coef`` its amplitude there; an
    orbit the characters annihilate has row -1 and amplitude 0. ``orbit``
    is the orbit size of each block state. In the plain block ``reps`` is
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


def _translate(basis: SpinBasis, states: np.ndarray, step: int, period: int) -> np.ndarray:
    """Packed states with every site moved ``step`` places along its run of
    ``period`` sites, cyclically (see Lattice.translations)."""
    b = basis.bits_per_site
    stay, wrap = 0, 0
    for site in range(basis.num_sites):
        digit = ((1 << b) - 1) << (b * site)
        if site % period < period - step:
            stay |= digit
        else:
            wrap |= digit
    return ((states & stay) << (b * step)) | ((states & wrap) >> (b * (period - step)))


def _images(basis: SpinBasis, states: np.ndarray, generators):
    """(image, character) of ``states`` under every element of the group the
    ``((step, period), character)`` generators span, identity first."""
    if not generators:
        yield states, 1
        return
    (step, period), character = generators[0]
    for power in range(period // step):
        for image, rest in _images(basis, states, generators[1:]):
            yield image, rest * character**power
        states = _translate(basis, states, step, period)


def translation_block(
    basis: SpinBasis, translations: tuple[tuple[int, int], ...], characters: tuple[int, ...]
) -> SectorBlock:
    """The block of a sector on which each translation generator acts as its
    character (+1 or -1).

    The representative of a state is the smallest state of its orbit. An
    orbit whose stabilizer holds an element of character -1 has no state in
    the block.
    """
    states = basis.states
    smallest = states.copy()
    sign = np.ones(states.size)
    fixed = np.zeros(states.size, dtype=np.int64)
    annihilated = np.zeros(states.size, dtype=bool)
    group = 0
    for image, character in _images(basis, states, list(zip(translations, characters))):
        group += 1
        still = image == states
        fixed += still
        if character < 0:
            annihilated |= still
        lower = image < smallest
        smallest[lower] = image[lower]
        # The element that takes a state to its representative r gives the
        # state the amplitude character * amp(r) in the block.
        sign[lower] = character
    kept = ~annihilated
    is_rep = kept & (smallest == states)
    block_row = np.cumsum(is_rep) - 1
    row = np.where(kept, block_row[np.searchsorted(states, smallest)], -1)
    orbit = group // fixed
    coef = np.where(kept, sign / np.sqrt(orbit), 0.0)
    reps = SpinBasis(basis.spin, basis.num_sites, basis.sz_sector, states[is_rep])
    return SectorBlock(basis, reps, row, coef, orbit[is_rep])
