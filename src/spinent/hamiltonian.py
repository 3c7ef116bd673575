"""Sector-restricted sparse Hamiltonians for three bond-exchange families.

Supported families (transverse coupling fixed to 1, energies dimensionless):

* ``xxz_half`` -- spin-1/2 XXZ, bond term SxSx + SySy + delta*SzSz
* ``xxz_one``  -- spin-1 XXZ with a biquadratic correction,
  bond term SxSx + SySy + delta*SzSz - beta*(S_i.S_j)^2
* ``blbq``     -- spin-1 bilinear-biquadratic chain,
  bond term cos(theta)*(S_i.S_j) + sin(theta)*(S_i.S_j)^2

Every bond operator is expanded once as a dense stencil on the two-site
product space (4x4 for spin-1/2, 9x9 for spin-1) and then scattered bond
by bond into a sector block: the plain sector, one translation block or
one parity block. The biquadratic stencil is simply the matrix square of
the exchange stencil, so the two spin-1 families share one code path and
repeated operator algebra cannot drift.

The parts of a family are assembled in one pass over the bonds that
shares each bond's work between them, rows found by ``SpinBasis.index``,
a table lookup (see assemble_parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

FAMILY_SPIN = {"xxz_half": "half", "xxz_one": "one", "blbq": "one"}
#: The parameters each family takes, the swept one first.
FAMILY_PARAMETERS = {"xxz_half": ("delta",), "xxz_one": ("delta", "beta"), "blbq": ("theta",)}

_STENCIL_PRUNE = 1e-14


@dataclass(frozen=True)
class ModelSpec:
    """One point of a model family.

    Only the parameters of the named family are meaningful: ``delta`` and
    ``beta`` for the XXZ families, ``theta`` for blbq. The rest are ignored.
    """

    family: str
    delta: float = 0.0
    beta: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILY_SPIN:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {sorted(FAMILY_SPIN)}"
            )
        for name in ("delta", "beta", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def spin(self) -> str:
        return FAMILY_SPIN[self.family]

    @property
    def label(self) -> str:
        """The family and its meaningful parameters, e.g. ``xxz_one delta=1.0 beta=0.2``."""
        names = FAMILY_PARAMETERS[self.family]
        return " ".join([self.family] + [f"{n}={float(getattr(self, n))!r}" for n in names])

    def part_coefficients(self) -> dict[str, float]:
        """Coefficients combining the family's stencil parts into H."""
        if self.family == "xxz_half":
            return {"xy": 1.0, "zz": self.delta}
        if self.family == "xxz_one":
            return {"xy": 1.0, "zz": self.delta, "bq": -self.beta}
        return {"bl": math.cos(self.theta), "bq": math.sin(self.theta)}


def model_for(family: str, value: float, beta: float = 0.0) -> ModelSpec:
    """ModelSpec of a family at one value of its swept parameter; a nonzero
    ``beta`` is refused for a family that does not take it."""
    names = FAMILY_PARAMETERS.get(family, ("delta",))  # ModelSpec refuses an unknown family
    if beta != 0.0 and "beta" not in names:
        raise ValueError(f"{family} takes no beta, got {beta}")
    return ModelSpec(family=family, beta=beta, **{names[0]: float(value)})


class SparseHamiltonian:
    """The Hamiltonian of one sector block at one model point.

    It holds the block's CSR stencil parts and combines them only in the
    form a solver reads: ``matrix`` by combine_parts on first access,
    ``dense()`` by combine_dense, so a dense solve builds no CSR total.
    Either raises ValueError, naming the model, when the combination is not
    finite.
    """

    def __init__(self, model: ModelSpec, parts: dict[str, sparse.csr_matrix]):
        self._model = model
        self._parts = parts

    @property
    def dimension(self) -> int:
        return next(iter(self._parts.values())).shape[0]

    @property
    def name(self) -> str:
        """What an error about this matrix calls it."""
        return f"the Hamiltonian of {self._model.label}"

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        with np.errstate(over="ignore", invalid="ignore"):
            total = combine_parts(self._parts, self._model.part_coefficients())
        self._check_finite(total.data)
        return total

    def dense(self) -> np.ndarray:
        """The matrix as a dense array, bitwise ``matrix.toarray()``."""
        with np.errstate(over="ignore", invalid="ignore"):
            total = combine_dense(self._parts, self._model.part_coefficients())
        self._check_finite(total)
        return total

    def _check_finite(self, values: np.ndarray) -> None:
        if not np.isfinite(values).all():
            raise ValueError(f"{self.name} overflows: its sector matrix is not finite")


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
    sz, sp, sm = spin_matrices(FAMILY_SPIN[family])
    xy = 0.5 * (np.kron(sp, sm) + np.kron(sm, sp))
    zz = np.kron(sz, sz)
    if family == "xxz_half":
        parts = {"xy": xy, "zz": zz}
    elif family == "xxz_one":
        parts = {"xy": xy, "zz": zz, "bq": (xy + zz) @ (xy + zz)}
    else:
        exchange = xy + zz
        parts = {"bl": exchange, "bq": exchange @ exchange}

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
    fixes them, one per generator of ``lattice.translations()``; elsewhere
    (), the characters of the whole sector.

    The ground state has positive Marshall-rotated amplitudes, so it takes
    each translation to itself times the ratio of the Marshall signs of a
    state and its image: +1 for a translation that keeps the sublattices,
    and -1 to the sector's unit count (Sz + N*s) for one that swaps them.
    """
    colour = lattice.sublattice()
    if colour is None or not perron_frobenius(model):
        return ()
    units = round(sz + lattice.num_sites * SPIN_VALUE[model.spin])
    return tuple(
        (-1) ** units if colour[step] != colour[0] else 1
        for step, _ in lattice.translations()
    )


def assemble_parts(
    family: str, lattice: Lattice, block: SectorBlock
) -> dict[str, sparse.csr_matrix]:
    """Assemble each stencil part of the family over a sector block, coefficient 1.

    Keeping the parts separate lets a parameter sweep reuse them: the full
    matrix for any parameter value is a fixed linear combination. Each
    column is a block state: the bond terms act on its representative, and
    every state reached adds to the row of its own block state, weighted by
    its amplitude there times the square root of the column's orbit size
    (Sandvik, arXiv:1101.3281, sec. 4). Over the plain block every weight
    is 1.

    All parts share one pass over the bonds. Per bond, the pair digits, the
    states each input pair selects and the row of each distinct move are
    found once, for every part that holds that stencil entry. A purely
    diagonal part adds every state's entry of the bond into one vector,
    exactly in any order (each is a small multiple of 1/4), and keeps an
    entry, zero or not, for each state that had one; the other parts
    scatter COO triplets that ``tocsr`` sums as duplicates, so every part
    is the CSR matrix a part-by-part assembly gives, bit for bit.
    """
    basis, reps = block.basis, block.reps
    if FAMILY_SPIN[family] != basis.spin:
        raise ValueError(
            f"family {family!r} needs spin {FAMILY_SPIN[family]!r} sites, "
            f"basis holds spin {basis.spin!r}"
        )
    if lattice.num_sites != basis.num_sites:
        raise ValueError(
            f"lattice has {lattice.num_sites} sites, basis has {basis.num_sites}"
        )
    d = basis.local_dim
    dim = block.dimension
    plain = reps is basis
    root_orbit = None if plain else np.sqrt(block.orbit)
    entries = {
        name: [
            (int(p_out), int(p_in), stencil[p_out, p_in])
            for p_out, p_in in zip(*np.nonzero(np.abs(stencil) > _STENCIL_PRUNE))
        ]
        for name, stencil in bond_stencils(family).items()
    }
    # A diagonal part's entry and whether it has one, by input pair.
    diagonals = {}
    for name, part in entries.items():
        if all(p_out == p_in for p_out, p_in, _ in part):
            amps, has = np.zeros(d * d), np.zeros(d * d, dtype=bool)
            for _, p_in, amp in part:
                amps[p_in], has[p_in] = amp, True
            diagonals[name] = (amps, has, np.zeros(dim), np.zeros(dim, dtype=bool))
    triplets = {name: ([], [], []) for name in entries if name not in diagonals}
    for i, j in lattice.bonds:
        pair = reps.site_digits(i) * d + reps.site_digits(j)
        for amps, has, total, stored in diagonals.values():
            total += amps[pair]
            stored |= has[pair]
        selected: dict[int, np.ndarray] = {}
        moved: dict[tuple[int, int], tuple] = {}
        for name, (rows, cols, vals) in triplets.items():
            for p_out, p_in, amp in entries[name]:
                if p_in not in selected:
                    selected[p_in] = np.nonzero(pair == p_in)[0]
                sel = selected[p_in]
                if sel.size == 0:
                    continue
                if p_out == p_in:
                    # A diagonal entry leaves every state where it is.
                    rows.append(sel)
                    cols.append(sel)
                    vals.append(amp if plain else np.full(sel.size, amp))
                    continue
                if (p_out, p_in) not in moved:
                    targets = reps.with_pair_digits(
                        reps.states[sel], i, j, p_out // d, p_out % d
                    )
                    moved[p_out, p_in] = _move(block, plain, root_orbit, sel, targets)
                target_rows, columns, coef, root = moved[p_out, p_in]
                rows.append(target_rows)
                cols.append(columns)
                vals.append(amp if plain else amp * coef * root)
    out: dict[str, sparse.csr_matrix] = {}
    for name in entries:
        if name in diagonals:
            _, _, total, stored = diagonals.pop(name)
            where = np.nonzero(stored)[0]
            indptr = np.concatenate(([0], np.cumsum(stored)))
            out[name] = sparse.csr_matrix((total[where], where, indptr), shape=(dim, dim))
            continue
        rows, cols, vals = triplets.pop(name)
        if rows:
            # On the plain block every weight is its entry, kept as a scalar.
            if plain:
                vals = np.repeat(vals, [columns.size for columns in cols])
            else:
                vals = np.concatenate(vals)
            coo = sparse.coo_matrix(
                (vals, (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
            )
            del rows, cols, vals
            mat = coo.tocsr()
        else:
            mat = sparse.csr_matrix((dim, dim))
        mat.sum_duplicates()
        mat.sort_indices()
        out[name] = mat
    return out


def _move(block: SectorBlock, plain: bool, root_orbit, sel, targets):
    """(rows, columns, amplitudes, root orbits) of one stencil move of the
    block states ``sel`` onto the plain states ``targets``, keeping the
    moves that land in the block; the last two are None on the plain block."""
    found = block.basis.index(targets)
    if plain:
        return found, sel, None, None
    target_rows = block.row[found]
    coef, root = block.coef[found], root_orbit[sel]
    inside = target_rows >= 0
    if not inside.all():
        target_rows, sel, coef, root = (
            target_rows[inside], sel[inside], coef[inside], root[inside]
        )
    return target_rows, sel, coef, root


def combine_parts(
    parts: dict[str, sparse.csr_matrix], coefficients: dict[str, float]
) -> sparse.csr_matrix:
    """Linear combination of assembled parts, with tiny entries dropped."""
    dim = next(iter(parts.values())).shape[0]
    total = sparse.csr_matrix((dim, dim))
    for name, coeff in coefficients.items():
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
        total += coeff * parts[name].toarray()
    total[np.abs(total) < _STENCIL_PRUNE] = 0.0
    return total


class SectorWorkspace:
    """Per-sector bases and stencil-part caches for one (family, lattice).

    A sector's Hamiltonian is held as the stencil parts of its blocks: the
    plain sector, the translation block of given characters (see
    ``ground_characters``), or its parity blocks, which a dense solve
    diagonalizes one by one. Each is assembled once, on first use, and a
    sweep combines the cached parts with fresh coefficients at every
    parameter value instead of reassembling the matrix. The CSR parts are
    the one stored form of a block: a dense solve combines its array from
    them each time (see combine_dense) and keeps nothing.
    """

    def __init__(self, family: str, lattice: Lattice):
        if family not in FAMILY_SPIN:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.lattice = lattice
        self.spin = FAMILY_SPIN[family]
        check_register(self.spin, lattice.num_sites)
        self._bases: dict[float, SpinBasis] = {}
        self._blocks: dict[tuple, tuple[SectorBlock, dict[str, sparse.csr_matrix]]] = {}
        self._parity: dict[float, list[tuple[SectorBlock, dict[str, sparse.csr_matrix]]]] = {}

    def basis(self, sz: float) -> SpinBasis:
        """The plain sector basis; nothing is assembled."""
        if sz not in self._bases:
            self._bases[sz] = build_basis(self.lattice.num_sites, self.spin, sz)
        return self._bases[sz]

    def block(
        self, sz: float, characters: tuple[int, ...] = ()
    ) -> tuple[SectorBlock, dict[str, sparse.csr_matrix]]:
        """One block of the sector with its stencil parts; no characters
        means the plain sector."""
        key = (sz, characters)
        if key not in self._blocks:
            basis = self.basis(sz)
            if characters:
                block = translation_block(basis, self.lattice.translations(), characters)
            else:
                block = plain_block(basis)
            self._blocks[key] = (block, assemble_parts(self.family, self.lattice, block))
        return self._blocks[key]

    def sector(self, sz: float) -> tuple[SpinBasis, dict[str, sparse.csr_matrix]]:
        """The plain sector basis and its stencil parts."""
        block, parts = self.block(sz)
        return block.basis, parts

    def matrix(
        self, model: ModelSpec, sz: float, characters: tuple[int, ...] = ()
    ) -> SparseHamiltonian:
        """The Hamiltonian of one block at one model point, over the block's
        cached parts; each solve combines it in the form it reads (see
        SparseHamiltonian)."""
        self._check_family(model)
        return SparseHamiltonian(model, self.block(sz, characters)[1])

    def parity_matrices(
        self, model: ModelSpec, sz: float
    ) -> list[tuple[SectorBlock, SparseHamiltonian]]:
        """Each parity block of the sector (see basis.parity_blocks) with its
        Hamiltonian at one model point, in block order. The blocks and their
        parts are built on the first call for the sector."""
        self._check_family(model)
        if sz not in self._parity:
            self._parity[sz] = [
                (block, assemble_parts(self.family, self.lattice, block))
                for block in parity_blocks(self.basis(sz), self.lattice.reflection())
            ]
        return [(block, SparseHamiltonian(model, parts)) for block, parts in self._parity[sz]]

    def _check_family(self, model: ModelSpec) -> None:
        if model.family != self.family:
            raise ValueError(
                f"workspace built for {self.family!r}, got model {model.family!r}"
            )
