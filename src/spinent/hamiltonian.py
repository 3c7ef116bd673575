"""Sector-restricted sparse Hamiltonians for three bond-exchange families.

Supported families (transverse coupling fixed to 1, energies dimensionless):

* ``xxz_half`` -- spin-1/2 XXZ, bond term SxSx + SySy + delta*SzSz
* ``xxz_one``  -- spin-1 XXZ with a biquadratic correction,
  bond term SxSx + SySy + delta*SzSz - beta*(S_i.S_j)^2
* ``blbq``     -- spin-1 bilinear-biquadratic chain,
  bond term cos(theta)*(S_i.S_j) + sin(theta)*(S_i.S_j)^2

Every bond operator is expanded once as a dense stencil on the two-site
product space (4x4 for spin-1/2, 9x9 for spin-1) and then scattered into
the sector basis bond by bond. The biquadratic stencil is simply the
matrix square of the exchange stencil, so the two spin-1 families share
one code path and repeated operator algebra cannot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .basis import SPIN_VALUE, SpinBasis, build_basis
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


def assemble_parts(
    family: str, lattice: Lattice, basis: SpinBasis
) -> dict[str, sparse.csr_matrix]:
    """Assemble each stencil part of the family over the sector, coefficient 1.

    Keeping the parts separate lets a parameter sweep reuse them: the full
    matrix for any parameter value is a fixed linear combination.
    """
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
    dim = basis.dimension
    out: dict[str, sparse.csr_matrix] = {}
    for name, stencil in bond_stencils(family).items():
        entries = [
            (int(p_out), int(p_in), stencil[p_out, p_in])
            for p_out, p_in in zip(*np.nonzero(np.abs(stencil) > _STENCIL_PRUNE))
        ]
        rows, cols, vals = [], [], []
        for i, j in lattice.bonds:
            pair = basis.site_digits(i) * d + basis.site_digits(j)
            for p_out, p_in, amp in entries:
                sel = np.nonzero(pair == p_in)[0]
                if sel.size == 0:
                    continue
                if p_out == p_in:
                    # A diagonal entry leaves every state where it is.
                    found = sel
                else:
                    targets = basis.with_pair_digits(
                        states[sel], i, j, p_out // d, p_out % d
                    )
                    found = np.searchsorted(states, targets)
                    if not np.array_equal(states[found], targets):
                        raise RuntimeError(
                            "bond stencil produced a state outside the sector"
                        )
                rows.append(found)
                cols.append(sel)
                vals.append(np.full(sel.size, amp))
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


def assemble(model: ModelSpec, lattice: Lattice, basis: SpinBasis) -> SparseHamiltonian:
    """Matrix of <row|H|col> over the sector for one parameter point."""
    parts = assemble_parts(model.family, lattice, basis)
    return SparseHamiltonian(combine_parts(parts, model.part_coefficients()))


class SectorWorkspace:
    """Per-sector basis and stencil-part cache for one (family, lattice).

    A sweep combines the cached parts with fresh coefficients at every
    parameter value instead of reassembling the matrix.
    """

    def __init__(self, family: str, lattice: Lattice):
        if family not in FAMILY_SPIN:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.lattice = lattice
        self.spin = FAMILY_SPIN[family]
        self._sectors: dict[float, tuple[SpinBasis, dict[str, sparse.csr_matrix]]] = {}

    def sector(self, sz: float) -> tuple[SpinBasis, dict[str, sparse.csr_matrix]]:
        if sz not in self._sectors:
            sector_basis = build_basis(self.lattice.num_sites, self.spin, sz)
            self._sectors[sz] = (
                sector_basis,
                assemble_parts(self.family, self.lattice, sector_basis),
            )
        return self._sectors[sz]

    def basis(self, sz: float) -> SpinBasis:
        return self.sector(sz)[0]

    def matrix(self, model: ModelSpec, sz: float) -> SparseHamiltonian:
        if model.family != self.family:
            raise ValueError(
                f"workspace built for {self.family!r}, got model {model.family!r}"
            )
        parts = self.sector(sz)[1]
        return SparseHamiltonian(combine_parts(parts, model.part_coefficients()))
