"""Two-site reduced density matrices and the measures built on them.

The RDM of a nearest-neighbor pair is obtained by partial trace over the
rest of the chain, carried out as a grouped outer product: basis states
sharing the same rest-of-system configuration are collected, their
amplitudes arranged into a (rest, pair) rectangle A, and rho = A^T A.
Ground states here are real, so every RDM is a real symmetric (d^2, d^2)
array for local dimension d, and the measures below take that array.

What a pair's RDM and correlators read off the basis alone is kept per
(basis, pair), so a sweep derives it once rather than at every point: each
state's rest group (int32, found by sorting the rest codes as uint32) and
pair code (uint8), and, for each direction of the spin flip, the rows it
moves and the rows they reach (both int32), about 9 bytes per sector state
for spin-1/2 and 12.5 for spin-1. A flip needs no digits: its weight is one
number per spin. The tables are held weakly by the basis and die with it.

Index convention inside the RDM: site i is the slow tensor factor, site j
the fast one, and each site's local states are ordered by descending Sz
(up before down; +1, 0, -1 for spin-1).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .basis import SPIN_VALUE, SpinBasis
from .hamiltonian import spin_matrices

_ENTROPY_CLAMP = -1e-8
# Per basis, the tables of each pair (see the module docstring).
_PAIR_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class PatternViolationError(ValueError):
    """RDM entries outside the X pattern exceed tolerance.

    Usually means the input state was pulled from a degenerate or
    symmetry-broken manifold rather than a clean U(1)-symmetric ground
    state.
    """


@dataclass(frozen=True)
class XFormElements:
    u_plus: float
    w1: float
    w2: float
    u_minus: float
    z: float


@dataclass(frozen=True)
class BondCorrelators:
    cxx: float
    czz: float


def _check_pair(basis: SpinBasis, i: int, j: int) -> None:
    n = basis.num_sites
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"sites ({i}, {j}) out of range for {n} sites")
    if i == j:
        raise ValueError(f"need two distinct sites, got ({i}, {j})")


def _check_state(state: np.ndarray, basis: SpinBasis) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.shape != (basis.dimension,):
        raise ValueError(
            f"state has shape {state.shape}, basis dimension is {basis.dimension}"
        )
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (|psi| = {norm})")
    return state


def _pair_table(build, basis: SpinBasis, *sites: int) -> tuple:
    """``build(basis, *sites)``, built on the first call for this basis and
    these sites and kept until the basis is released."""
    tables = _PAIR_TABLES.setdefault(basis, {})
    key = (build, sites)
    if key not in tables:
        tables[key] = build(basis, *sites)
    return tables[key]


def _rest_groups(basis: SpinBasis, i: int, j: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(number of rest configurations, each state's rest group, each state's
    pair code) for the partial trace onto sites (i, j)."""
    # Every register fits 32 bits, so the sort runs on a uint32 copy.
    rest = basis.with_pair_digits(basis.states, i, j, 0, 0).astype(np.uint32)
    _, group = np.unique(rest, return_inverse=True)
    d = basis.local_dim
    # Packed digits count up from the lowest Sz; the RDM wants descending.
    digit_i, digit_j = (basis.site_digits(k).astype(np.uint8) for k in (i, j))
    pair = (d - 1 - digit_i) * d + (d - 1 - digit_j)
    return int(group.max()) + 1, group.astype(np.int32), pair


def two_site_rdm(state: np.ndarray, basis: SpinBasis, i: int, j: int) -> np.ndarray:
    """Partial trace onto sites (i, j), exact up to round-off: the (d^2, d^2)
    array rho of local dimension d, in the module docstring's index order."""
    _check_pair(basis, i, j)
    state = _check_state(state, basis)
    d = basis.local_dim
    groups, group, pair = _pair_table(_rest_groups, basis, i, j)
    amp = np.zeros((groups, d * d))
    amp[group, pair] = state
    return amp.T @ amp


_XFORM_DIAGONAL = (0, 1, 2, 3)
# Largest entry outside the X pattern that xform_extract accepts.
_TOL_PATTERN = 1e-8


def xform_extract(rho: np.ndarray) -> XFormElements:
    """Read the five X-pattern entries of a spin-1/2 pair RDM.

    Positions (descending-Sz order): u_plus at (0,0) for both-up, w1 and w2
    on the central diagonal, u_minus at (3,3), z on the central off-diagonal.
    Any other entry larger than _TOL_PATTERN raises PatternViolationError.
    """
    if rho.shape != (4, 4):
        raise ValueError(f"X form needs a two-qubit RDM, got shape {rho.shape}")
    allowed = {(a, a) for a in _XFORM_DIAGONAL}
    allowed.add((1, 2))
    allowed.add((2, 1))
    for a in range(4):
        for b in range(4):
            if (a, b) in allowed:
                continue
            if abs(rho[a, b]) > _TOL_PATTERN:
                raise PatternViolationError(
                    f"entry ({a}, {b}) = {rho[a, b]:.3e} breaks the X pattern "
                    f"(tol {_TOL_PATTERN:g})"
                )
    if abs(rho[1, 2] - rho[2, 1]) > _TOL_PATTERN:
        raise PatternViolationError(
            f"coherence entries differ: {rho[1, 2]:.3e} vs {rho[2, 1]:.3e}"
        )
    return XFormElements(
        u_plus=float(rho[0, 0]),
        w1=float(rho[1, 1]),
        w2=float(rho[2, 2]),
        u_minus=float(rho[3, 3]),
        z=float(0.5 * (rho[1, 2] + rho[2, 1])),
    )


def xform_from_correlators(czz: float, cxx: float) -> XFormElements:
    """The X form a bond's correlators fix at zero site magnetization and real
    amplitudes: u_plus = u_minus = 1/4 + czz, w1 = w2 = 1/4 - czz, z = 2*cxx."""
    aligned, opposed = 0.25 + czz, 0.25 - czz
    return XFormElements(u_plus=aligned, w1=opposed, w2=opposed, u_minus=aligned, z=2 * cxx)


# The weight of an in-sector flip S+_dst S-_src. Every S+ element of spin
# 1/2 (1) and of spin 1 (sqrt 2) has one value, so every flip has its square.
_FLIP_WEIGHT = {
    spin: float(np.square(spin_matrices(spin)[1][1, 0])) for spin in SPIN_VALUE
}


def _flips(basis: SpinBasis, src: int, dst: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, row reached) of every state that S+_dst S-_src keeps in the sector."""
    digits_src = basis.site_digits(src)
    digits_dst = basis.site_digits(dst)
    rows = np.flatnonzero((digits_src > 0) & (digits_dst < basis.local_dim - 1))
    targets = basis.with_pair_digits(
        basis.states[rows], src, dst, digits_src[rows] - 1, digits_dst[rows] + 1
    )
    return rows.astype(np.int32), basis.index(targets).astype(np.int32)


def bond_correlators(
    state: np.ndarray, basis: SpinBasis, bond: tuple[int, int]
) -> BondCorrelators:
    """Spin-spin expectation values on one bond, within the Sz sector.

    czz is a plain weighted sum over the sector, read from the site digits
    rather than from the RDM, so it is a second route to the RDM's diagonal.
    The transverse one uses 4*SxSx = 4*SySy = S+S- + S-S+ on a real state in
    a fixed-Sz sector; the sector-leaving combinations S+S+ and S-S- have
    expectation value exactly zero there, so cyy equals cxx by construction
    and only cxx is reported.
    """
    i, j = bond
    _check_pair(basis, i, j)
    state = _check_state(state, basis)
    sz_i = basis.local_sz(basis.site_digits(i))
    sz_j = basis.local_sz(basis.site_digits(j))
    czz = float(np.sum(state * state * sz_i * sz_j))
    # Freed before a first call builds the flip tables, which sets its peak.
    del sz_i, sz_j
    weight = _FLIP_WEIGHT[basis.spin]
    hops = []
    for src, dst in ((j, i), (i, j)):
        rows, targets = _pair_table(_flips, basis, src, dst)
        hops.append(float(np.sum(state[rows] * weight * state[targets])))
    return BondCorrelators(cxx=0.25 * (hops[0] + hops[1]), czz=czz)


def _entropy_bits(probabilities: np.ndarray) -> float:
    smallest = float(probabilities.min(initial=0.0))
    if smallest < _ENTROPY_CLAMP:
        raise ValueError(
            f"eigenvalue {smallest:.3e} is too negative for a density matrix"
        )
    p = np.clip(probabilities, 0.0, None)
    mask = p > 0.0
    # max() also swallows the -0.0 a pure state would otherwise produce.
    return max(0.0, float(-np.sum(p[mask] * np.log2(p[mask]))))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum(p log2 p) over all eigenvalues of the pair RDM.

    Tiny negative eigenvalues from round-off are clamped to zero; anything
    below -1e-8 is rejected as not a density matrix.
    """
    return _entropy_bits(np.linalg.eigvalsh(rho))


def xform_eigenvalues(elements: XFormElements) -> tuple[float, float, float, float]:
    """(u_plus, u_minus, lambda_plus, lambda_minus) of the X matrix.

    The central 2x2 block [[w1, z], [z, w2]] contributes
    (w1 + w2)/2 +- sqrt(((w1 - w2)/2)^2 + z^2); with w1 = w2 this is
    w1 +- |z|, so the sign of z never matters.
    """
    mean = 0.5 * (elements.w1 + elements.w2)
    split = math.hypot(0.5 * (elements.w1 - elements.w2), elements.z)
    return (elements.u_plus, elements.u_minus, mean + split, mean - split)


def entropy_closed_form(elements: XFormElements) -> float:
    """Entropy of an X-form RDM from its four closed-form eigenvalues."""
    return _entropy_bits(np.array(xform_eigenvalues(elements)))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit RDM.

    Computes max(0, sqrt(r1) - sqrt(r2) - sqrt(r3) - sqrt(r4)) where the
    r's are the descending eigenvalues of rho * rho_tilde. The product is
    evaluated in the symmetrized form sqrt(rho) * rho_tilde * sqrt(rho),
    which shares its spectrum and stays positive semidefinite under
    round-off.
    """
    if rho.shape != (4, 4):
        raise ValueError(
            f"concurrence is defined for a pair of qubits only, got an RDM of "
            f"shape {rho.shape}"
        )
    # (sigma_y x sigma_y) in the same descending-Sz product basis.
    flip = np.zeros((4, 4))
    flip[0, 3] = flip[3, 0] = -1.0
    flip[1, 2] = flip[2, 1] = 1.0
    tilde = flip @ rho @ flip
    vals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    r = np.linalg.eigvalsh(root @ tilde @ root)
    r = np.sqrt(np.clip(r, 0.0, None))[::-1]
    return float(max(0.0, r[0] - r[1] - r[2] - r[3]))


def concurrence_closed_form(elements: XFormElements) -> float:
    """X-form shortcut 2 * max(0, |z| - sqrt(u_plus * u_minus))."""
    inside = max(elements.u_plus, 0.0) * max(elements.u_minus, 0.0)
    return 2.0 * max(0.0, abs(elements.z) - math.sqrt(inside))
