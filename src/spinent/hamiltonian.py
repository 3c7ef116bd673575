"""Sector-restricted sparse Hamiltonians for three bond-exchange families.

Supported families (transverse coupling fixed to 1, energies dimensionless):

* ``xxz_half`` -- spin-1/2 XXZ, bond term SxSx + SySy + delta*SzSz
* ``xxz_one``  -- spin-1 XXZ with a biquadratic correction,
  bond term SxSx + SySy + delta*SzSz - beta*(S_i.S_j)^2
* ``blbq``     -- spin-1 bilinear-biquadratic chain,
  bond term cos(theta)*(S_i.S_j) + sin(theta)*(S_i.S_j)^2

Every bond operator is expanded once as a dense stencil on the two-site
product space (4x4 for spin-1/2, 9x9 for spin-1) and then scattered bond
by bond into a sector block: the plain sector or one translation block. The
biquadratic stencil is simply the matrix square of the exchange stencil, so
the two spin-1 families share one code path and repeated operator algebra
cannot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .basis import (
    SPIN_VALUE,
    SectorBlock,
    SpinBasis,
    build_basis,
    plain_block,
    translation_block,
)
from .lattice import Lattice

FAMILY_SPIN = {"xxz_half": "half", "xxz_one": "one", "blbq": "one"}

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

    def part_coefficients(self) -> dict[str, float]:
        """Coefficients combining the family's stencil parts into H."""
        if self.family == "xxz_half":
            return {"xy": 1.0, "zz": self.delta}
        if self.family == "xxz_one":
            return {"xy": 1.0, "zz": self.delta, "bq": -self.beta}
        return {"bl": math.cos(self.theta), "bq": math.sin(self.theta)}


def model_for(family: str, value: float, beta: float = 0.0) -> ModelSpec:
    """ModelSpec of a family at one value of its swept parameter."""
    if family == "blbq":
        return ModelSpec(family=family, theta=float(value))
    if family == "xxz_one":
        return ModelSpec(family=family, delta=float(value), beta=beta)
    return ModelSpec(family=family, delta=float(value))


@dataclass(eq=False)
class SparseHamiltonian:
    """Real symmetric CSR matrix over one Sz sector."""

    matrix: sparse.csr_matrix

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


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
    states = basis.states
    dim = block.dimension
    root_orbit = np.sqrt(block.orbit)
    out: dict[str, sparse.csr_matrix] = {}
    for name, stencil in bond_stencils(family).items():
        entries = [
            (int(p_out), int(p_in), stencil[p_out, p_in])
            for p_out, p_in in zip(*np.nonzero(np.abs(stencil) > _STENCIL_PRUNE))
        ]
        rows, cols, vals = [], [], []
        for i, j in lattice.bonds:
            pair = reps.site_digits(i) * d + reps.site_digits(j)
            for p_out, p_in, amp in entries:
                sel = np.nonzero(pair == p_in)[0]
                if sel.size == 0:
                    continue
                if p_out == p_in:
                    # A diagonal entry leaves every state where it is.
                    rows.append(sel)
                    cols.append(sel)
                    vals.append(np.full(sel.size, amp))
                    continue
                targets = reps.with_pair_digits(
                    reps.states[sel], i, j, p_out // d, p_out % d
                )
                found = np.searchsorted(states, targets)
                if not np.array_equal(states[found], targets):
                    raise RuntimeError(
                        "bond stencil produced a state outside the sector"
                    )
                target_rows = block.row[found]
                weights = amp * block.coef[found] * root_orbit[sel]
                inside = target_rows >= 0
                if not inside.all():
                    target_rows, sel, weights = target_rows[inside], sel[inside], weights[inside]
                rows.append(target_rows)
                cols.append(sel)
                vals.append(weights)
        if rows:
            coo = sparse.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(dim, dim),
            )
            mat = coo.tocsr()
        else:
            mat = sparse.csr_matrix((dim, dim))
        mat.sum_duplicates()
        mat.sort_indices()
        out[name] = mat
    return out


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


class SectorWorkspace:
    """Per-sector bases and stencil-part caches for one (family, lattice).

    A sector's Hamiltonian is held as the stencil parts of one of its
    blocks: the plain sector, or the translation block of given characters
    (see ``ground_characters``). Each is assembled once, on first use, and a
    sweep combines the cached parts with fresh coefficients at every
    parameter value instead of reassembling the matrix.
    """

    def __init__(self, family: str, lattice: Lattice):
        if family not in FAMILY_SPIN:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.lattice = lattice
        self.spin = FAMILY_SPIN[family]
        self._bases: dict[float, SpinBasis] = {}
        self._blocks: dict[tuple, tuple[SectorBlock, dict[str, sparse.csr_matrix]]] = {}

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
        if model.family != self.family:
            raise ValueError(
                f"workspace built for {self.family!r}, got model {model.family!r}"
            )
        parts = self.block(sz, characters)[1]
        return SparseHamiltonian(combine_parts(parts, model.part_coefficients()))
