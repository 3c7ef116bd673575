"""Sector-restricted sparse Hamiltonians for three bond-exchange families.

Each is one entry of FAMILIES: its site spin, its parameters and their part
coefficients (transverse coupling fixed to 1, energies dimensionless):

* ``xxz_half`` -- spin-1/2 XXZ, bond term SxSx + SySy + delta*SzSz
* ``xxz_one``  -- spin-1 XXZ with a biquadratic correction,
  bond term SxSx + SySy + delta*SzSz - beta*(S_i.S_j)^2
* ``blbq``     -- spin-1 bilinear-biquadratic chain,
  bond term cos(theta)*(S_i.S_j) + sin(theta)*(S_i.S_j)^2

A family's parts are dense stencils on the two-site product space (4x4 for
spin-1/2, 9x9 for spin-1), picked by name from xy, zz, bl = xy + zz and
bq = bl @ bl, so operator algebra cannot drift. Each is scattered bond by
bond into a sector block: the plain sector, one translation or parity block.

A sector is solved as pieces, one SparseHamiltonian per block, which
carries its block and the block's parts; ``SectorWorkspace.pieces`` is the
one way to a sector's blocks.

Every block's parts come from one pass over the bonds: a hop moves a
representative by a fixed shift of its packed state, ``SpinBasis.index``, a
table lookup, finds the state reached, and the block's row and amplitude of
that state place and weigh the term; the plain block skips those lookups and
comes out in CSR order, one diagonal entry per state (see assemble_parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse

from .basis import (
    SPIN_VALUE,
    SectorBlock,
    SpinBasis,
    build_basis,
    check_register,
    parity_blocks,
    plain_block,
    translation_block,
)
from .lattice import Lattice


class Family(NamedTuple):
    """A family's site spin, parameter names (swept first) and part coefficients."""

    spin: str
    parameters: tuple[str, ...]
    coefficients: Callable[..., dict[str, float]]


FAMILIES = {
    "xxz_half": Family("half", ("delta",), lambda delta: {"xy": 1.0, "zz": delta}),
    "xxz_one": Family("one", ("delta", "beta"),
                      lambda delta, beta: {"xy": 1.0, "zz": delta, "bq": -beta}),
    "blbq": Family("one", ("theta",), lambda theta: {"bl": math.cos(theta), "bq": math.sin(theta)}),
}

_STENCIL_PRUNE = 1e-14


def family_record(name: str) -> Family:
    """FAMILIES[name]; an unknown name raises ValueError."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}, expected one of {sorted(FAMILIES)}")
    return FAMILIES[name]


@dataclass(frozen=True, init=False)
class ModelSpec:
    """One point of a family: ``params``, its FAMILIES parameters in order, 0 unless
    given. Refused: an unknown family, a value not finite, a nonzero one it does not take."""

    family: str
    params: dict[str, float]

    def __init__(self, family: str, **params: float) -> None:
        names = family_record(family).parameters
        for name, value in params.items():
            if value != 0.0 and name not in names:
                raise ValueError(f"{family} takes no {name}, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        self.__dict__.update(family=family, params={n: params.get(n, 0.0) for n in names})

    def __hash__(self) -> int:
        return hash((self.family, *self.params.items()))

    @property
    def label(self) -> str:
        """The family and its parameters, e.g. ``xxz_one delta=1.0 beta=0.2``."""
        return " ".join([self.family] + [f"{n}={float(v)!r}" for n, v in self.params.items()])

    def part_coefficients(self) -> dict[str, float]:
        """Coefficients combining the family's stencil parts into H."""
        return FAMILIES[self.family].coefficients(**self.params)


def model_for(family: str, value: float, **fixed: float) -> ModelSpec:
    """ModelSpec of a family at ``value`` of its swept parameter, any other one in ``fixed``."""
    swept = family_record(family).parameters[0]
    if swept in fixed:
        raise ValueError(f"{family} sweeps {swept}, so {swept} cannot also be fixed")
    return ModelSpec(family, **{swept: float(value)}, **fixed)


class SparseHamiltonian:
    """One piece of a sector at one model point: a sector block, kept as
    ``block``, and the Hamiltonian over it.

    It holds the block's CSR stencil parts and combines them only in the
    form a solver reads: ``matrix`` by combine_parts on first access,
    ``dense()`` by combine_dense, so a dense solve builds no CSR total.
    Either raises ValueError, naming the model, when 16 ||H||_F^2 is not
    finite; it bounds the square of every norm a solve takes (a Lanczos
    vector is at most 3 ||H||, a residual 2 ||H||), so solvers need no
    overflow checks. ``block.expand`` writes a piece's vector over the plain sector.
    """

    def __init__(self, model: ModelSpec, block: SectorBlock, parts: dict[str, sparse.csr_matrix]):
        self._model = model
        self.block = block
        self._parts = parts

    @property
    def dimension(self) -> int:
        return self.block.dimension

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        with np.errstate(over="ignore", invalid="ignore"):
            total = combine_parts(self._parts, self._model.part_coefficients())
            self._check_size(total.data)
        return total

    def dense(self) -> np.ndarray:
        """The matrix as a dense array, bitwise ``matrix.toarray()``."""
        with np.errstate(over="ignore", invalid="ignore"):
            total = combine_dense(self._parts, self._model.part_coefficients())
            self._check_size(total.ravel())
        return total

    def _check_size(self, values: np.ndarray) -> None:
        if not math.isfinite(16 * (values @ values)):
            raise ValueError(f"the Hamiltonian of {self._model.label} overflows: its "
                             "entries are too large for a solve to stay finite")


def spin_matrices(spin: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-site (Sz, S+, S-) in the packed-digit order (ascending Sz)."""
    s = SPIN_VALUE[spin]
    dim = int(round(2 * s)) + 1
    m = np.arange(dim) - s
    sz = np.diag(m)
    raise_amp = np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] + 1))
    sp = np.zeros((dim, dim))
    sp[np.arange(1, dim), np.arange(dim - 1)] = raise_amp
    return sz, sp, sp.T.copy()


@lru_cache(maxsize=None)
def bond_stencils(family: str) -> dict[str, np.ndarray]:
    """Dense two-site operators the family combines, keyed by part name.

    Index order is ``a*d + b`` with ``a`` the digit of the first (slow)
    site. All parts conserve the pair's total Sz, which keeps assembly
    inside one sector.
    """
    sz, sp, sm = spin_matrices(family_record(family).spin)
    xy = 0.5 * (np.kron(sp, sm) + np.kron(sm, sp))
    zz = np.kron(sz, sz)
    bl = xy + zz
    stencils = {"xy": xy, "zz": zz, "bl": bl, "bq": bl @ bl}
    parts = {name: stencils[name] for name in ModelSpec(family).part_coefficients()}

    d = sz.shape[0]
    pair_sz = np.add.outer(np.arange(d), np.arange(d)).ravel()
    for name, stencil in parts.items():
        out, inp = np.nonzero(np.abs(stencil) > _STENCIL_PRUNE)
        if np.any(pair_sz[out] != pair_sz[inp]):
            raise RuntimeError(f"stencil {name!r} does not conserve total Sz")
    return parts


def perron_frobenius(model: ModelSpec) -> bool:
    """Whether the Marshall sign rule fixes the ground state of every sector.

    The Marshall rotation, a pi rotation about z on one sublattice of a
    bipartite lattice, multiplies each bond matrix element by -1 to the
    change of one site's digit. The test passes when the rotated, combined
    bond stencil has no positive off-diagonal element and a negative one for
    every one-unit hop, which moves one unit of Sz across the bond. Those
    hops connect every Sz sector of a connected lattice, so Perron-Frobenius
    makes each sector's ground state unique, with positive rotated
    amplitudes (Marshall, Proc. R. Soc. A 232, 48 (1955); Lieb & Mattis,
    J. Math. Phys. 3, 749 (1962)).
    """
    parts = bond_stencils(model.family)
    total = sum(coeff * parts[name] for name, coeff in model.part_coefficients().items())
    d = math.isqrt(total.shape[0])
    first, second = np.divmod(np.arange(d * d), d)
    moved_first = first[:, None] - first[None, :]
    moved_second = second[:, None] - second[None, :]
    rotated = total * (-1.0) ** moved_second
    off_diagonal = ~np.eye(d * d, dtype=bool)
    hop = (np.abs(moved_first) == 1) & (moved_second == -moved_first)
    return bool(
        np.all(rotated[off_diagonal] <= _STENCIL_PRUNE)
        and np.all(rotated[hop] < -_STENCIL_PRUNE)
    )


def ground_characters(model: ModelSpec, lattice: Lattice, sz: float) -> tuple[int, ...]:
    """Translation characters of a sector's ground state where Perron-Frobenius
    fixes them, one per translation of ``lattice.translations()``; elsewhere
    (), the characters of the whole sector.

    The ground state has positive Marshall-rotated amplitudes, so it takes
    each translation to itself times the ratio of the Marshall signs of a
    state and its image: +1 for a translation that keeps the sublattices,
    and -1 to the sector's unit count (Sz + N*s) for one that swaps them.
    """
    colour = lattice.sublattice()
    if colour is None or not perron_frobenius(model):
        return ()
    units = round(sz + lattice.num_sites * SPIN_VALUE[FAMILIES[model.family].spin])
    return tuple(
        (-1) ** units if colour[image[0]] != colour[0] else 1
        for image in lattice.translations()
    )


def assemble_parts(
    family: str, lattice: Lattice, block: SectorBlock
) -> dict[str, sparse.csr_matrix]:
    """Assemble each stencil part of the family over a sector block, coefficient 1.

    Keeping the parts separate lets a parameter sweep reuse them: the full
    matrix for any parameter value is a fixed linear combination. All parts
    share one pass over the bonds. Each column is a block state, and the
    bond terms act on its representative. A hop, a stencil entry off the
    diagonal, adds a fixed shift to the packed state, and SpinBasis.index
    finds the state reached once for every part that holds the hop. That
    state adds to the row of its own block state, weighted by the hop's
    amplitude times the state's amplitude there times the square root of
    the column's orbit size, and not at all if the block's characters
    annihilate its orbit (Sandvik, arXiv:1101.3281, sec. 4). Each part's
    diagonal is its stencil diagonal summed over the bonds in bond order,
    one entry, zero or not, per state that has one, at shift 0.

    Moves go by descending shift. Over the plain block every weight is 1,
    so the block lookups are skipped, and SpinBasis.index is monotone, so
    every row fills in column order and ``tocsr`` neither sorts nor merges.
    Over another block ``tocsr`` sums the duplicates.
    """
    basis, reps = block.basis, block.reps
    if family_record(family).spin != basis.spin:
        raise ValueError(
            f"family {family!r} needs spin {FAMILIES[family].spin!r} sites, "
            f"basis holds spin {basis.spin!r}"
        )
    if lattice.num_sites != basis.num_sites:
        raise ValueError(
            f"lattice has {lattice.num_sites} sites, basis has {basis.num_sites}"
        )
    d, dim, plain = basis.local_dim, block.dimension, reps is basis
    p_in, shifts, parts = _moves(family, lattice.bonds, basis.bits_per_site, d)
    sums = {name: (*part[3], np.zeros(dim), np.zeros(dim, dtype=bool))
            for name, part in parts.items() if part[3]}
    root_orbit = np.sqrt(block.orbit)
    moved = []
    for (i, j), bond_shifts in zip(lattice.bonds, shifts):
        pair = reps.site_digits(i) * d + reps.site_digits(j)
        for entry, has, total, stored in sums.values():
            total += entry[pair]
            stored |= has[pair]
        selected = {p: np.nonzero(pair == p)[0].astype(np.int32) for p in set(p_in)}
        sizes = [selected[p].size for p in p_in]
        cols = np.concatenate([selected[p] for p in p_in])  # at CSR's index width
        found = basis.index(reps.states[cols] + np.repeat(bond_shifts, sizes))
        bounds = np.cumsum([0, *sizes])
        if plain:
            moved.append((bounds.tolist(), found.astype(np.int32), cols))
            continue
        rows = block.row[found]
        inside = rows >= 0  # row -1: an orbit the block's characters annihilate
        if not inside.all():
            bounds = np.concatenate(([0], np.cumsum(inside)))[bounds]
            rows, cols, found = rows[inside], cols[inside], found[inside]
        moved.append((bounds.tolist(), rows.astype(np.int32), cols,
                      block.coef[found], root_orbit[cols]))
    out = {}
    for name, (moves, up, amps, _) in parts.items():
        rows, cols, vals = [], [], []
        for bond, hop in zip(*np.divmod(moves, len(p_in))):
            bounds, bond_rows, bond_cols, *weights = moved[bond]
            at = slice(bounds[hop], bounds[hop + 1])
            rows.append(bond_rows[at])
            cols.append(bond_cols[at])
            vals.append(amps[hop] * weights[0][at] * weights[1][at] if weights
                        else np.full(at.stop - at.start, amps[hop]))
        if name in sums:
            _, _, total, stored = sums[name]
            where = np.nonzero(stored)[0].astype(np.int32)
            rows.insert(up, where)
            cols.insert(up, where)
            vals.insert(up, total[where])
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        out[name] = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return out


@lru_cache(maxsize=None)
def _moves(family: str, bonds: tuple[tuple[int, int], ...], bits: int, d: int):
    """Each hop's input pair, a hop being a stencil entry off the diagonal;
    ``shifts[b, h]``, what hop h adds to a packed state on bond b; and per
    part its moves b * hops + h by descending shift, how many shift up, its
    amplitude of each hop, and its kept diagonal entry by pair, if any."""
    stencils = bond_stencils(family)
    kept = {name: np.abs(stencil) > _STENCIL_PRUNE for name, stencil in stencils.items()}
    p_out, p_in = np.nonzero(np.logical_or.reduce(list(kept.values())) & ~np.eye(d * d, dtype=bool))
    i, j = bits * np.array(bonds).T[:, :, None]
    shifts = ((p_out // d - p_in // d) << i) + ((p_out % d - p_in % d) << j)
    order = np.argsort(-shifts.ravel(), kind="stable")
    parts = {}
    for name, keep in kept.items():
        moves = order[np.tile(keep[p_out, p_in], len(bonds))[order]]
        up, has = np.count_nonzero(shifts.ravel()[moves] > 0), np.diag(keep)
        diagonal = (np.where(has, np.diag(stencils[name]), 0.0), has) if has.any() else None
        parts[name] = (moves, up, stencils[name][p_out, p_in], diagonal)
    return tuple(p_in.tolist()), shifts, parts


def combine_parts(
    parts: dict[str, sparse.csr_matrix], coefficients: dict[str, float]
) -> sparse.csr_matrix:
    """Linear combination of assembled parts, with tiny entries dropped.

    A part whose coefficient is zero is skipped, and need not be in
    ``parts``: adding its signed zeros could only turn a -0.0 entry into
    +0.0, and the pruning drops every zero entry either way."""
    dim = next(iter(parts.values())).shape[0]
    total = sparse.csr_matrix((dim, dim))
    for name, coeff in coefficients.items():
        if coeff:
            total = total + coeff * parts[name]
    total.data[np.abs(total.data) < _STENCIL_PRUNE] = 0.0
    total.eliminate_zeros()
    total.sort_indices()
    return total


def combine_dense(
    parts: dict[str, sparse.csr_matrix], coefficients: dict[str, float]
) -> np.ndarray:
    """combine_parts straight into a dense array: the same sums in the same
    order and the same pruning, so the result is bitwise
    ``combine_parts(...).toarray()``. Adding a part's zero to an entry leaves
    its value, and the pruning turns every zero into the +0.0 of an entry
    the sparse sum leaves out."""
    dim = next(iter(parts.values())).shape[0]
    total = np.zeros((dim, dim))
    for name, coeff in coefficients.items():
        if coeff:
            total += coeff * parts[name].toarray()
    total[np.abs(total) < _STENCIL_PRUNE] = 0.0
    return total


class SectorWorkspace:
    """Per-sector bases and stencil-part caches for one (family, lattice).

    A sector is solved as a list of pieces, each one SparseHamiltonian over
    one block (see ``pieces``): the plain sector, the translation block of
    given characters (see ``ground_characters``), or its parity blocks,
    which a dense solve diagonalizes one by one. One cache keeps the blocks
    of each (sz, kind) with their stencil parts, assembled once, on first
    use, and a sweep combines the cached parts with fresh coefficients at
    every parameter value instead of reassembling the matrix. The CSR parts
    are the one stored form of a block: a dense solve combines its array
    from them each time (see combine_dense) and keeps nothing.
    """

    def __init__(self, family: str, lattice: Lattice):
        self.family = family
        self.lattice = lattice
        self.spin = family_record(family).spin
        check_register(self.spin, lattice.num_sites)
        self._bases: dict[float, SpinBasis] = {}
        self._pieces: dict[tuple, list[tuple[SectorBlock, dict[str, sparse.csr_matrix]]]] = {}

    def basis(self, sz: float) -> SpinBasis:
        """The plain sector basis; nothing is assembled."""
        if sz not in self._bases:
            self._bases[sz] = build_basis(self.lattice.num_sites, self.spin, sz)
        return self._bases[sz]

    def pieces(
        self, model: ModelSpec, sz: float, kind: str | tuple[int, ...]
    ) -> list[SparseHamiltonian]:
        """The Hamiltonians of the sector's blocks of one kind at one model
        point, in block order: kind ``"parity"`` gives its parity blocks
        (see basis.parity_blocks), ``()`` the plain sector, and a tuple of
        translation characters that translation block. The blocks and their
        parts are built on the first call for the (sz, kind); each call
        wraps them in fresh SparseHamiltonians."""
        if model.family != self.family:
            raise ValueError(f"workspace built for {self.family!r}, got model {model.family!r}")
        return [SparseHamiltonian(model, block, parts) for block, parts in self._blocks(sz, kind)]

    def sector(self, sz: float) -> tuple[SpinBasis, dict[str, sparse.csr_matrix]]:
        """The plain sector basis and its stencil parts."""
        [(block, parts)] = self._blocks(sz, ())
        return block.basis, parts

    def matrix(self, model: ModelSpec, sz: float) -> SparseHamiltonian:
        """The plain piece of the sector at one model point."""
        return self.pieces(model, sz, ())[0]

    def _blocks(self, sz: float, kind) -> list[tuple[SectorBlock, dict]]:
        key = (sz, kind)
        if key not in self._pieces:
            basis = self.basis(sz)
            if kind == "parity":
                blocks = parity_blocks(basis, self.lattice.reflection())
            elif kind:
                blocks = [translation_block(basis, self.lattice.translations(), kind)]
            else:
                blocks = [plain_block(basis)]
            self._pieces[key] = [
                (block, assemble_parts(self.family, self.lattice, block)) for block in blocks
            ]
        return self._pieces[key]
