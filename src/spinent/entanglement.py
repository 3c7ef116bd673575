"""Two-site reduced density matrices and the measures built on them.

The RDM of a nearest-neighbor pair is obtained by partial trace over the
rest of the chain, carried out as a grouped outer product: basis states
sharing the same rest-of-system configuration are collected, their
amplitudes arranged into a (rest, pair) rectangle A, and rho = A^T A.
Ground states here are real, so every RDM is real symmetric.

Index convention inside the RDM: site i is the slow tensor factor, site j
the fast one, and each site's local states are ordered by descending Sz
(up before down; +1, 0, -1 for spin-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SpinBasis
from .hamiltonian import spin_matrices

_ENTROPY_CLAMP = -1e-8


class PatternViolationError(ValueError):
    """RDM entries outside the X pattern exceed tolerance.

    Usually means the input state was pulled from a degenerate or
    symmetry-broken manifold rather than a clean U(1)-symmetric ground
    state.
    """


@dataclass(eq=False)
class TwoSiteRDM:
    local_dim: int
    matrix: np.ndarray
    site_pair: tuple[int, int]


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
    cyy: float
    czz: float
    mz_i: float
    mz_j: float


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


def two_site_rdm(state: np.ndarray, basis: SpinBasis, i: int, j: int) -> TwoSiteRDM:
    """Partial trace onto sites (i, j), exact up to round-off."""
    _check_pair(basis, i, j)
    state = _check_state(state, basis)
    d = basis.local_dim
    digits_i = basis.site_digits(i)
    digits_j = basis.site_digits(j)
    # Packed digits count up from the lowest Sz; the RDM wants descending.
    pair = (d - 1 - digits_i) * d + (d - 1 - digits_j)
    rest = basis.with_pair_digits(basis.states, i, j, 0, 0)
    _, group = np.unique(rest, return_inverse=True)
    amp = np.zeros((group.max() + 1, d * d))
    amp[group, pair] = state
    rho = amp.T @ amp
    return TwoSiteRDM(local_dim=d, matrix=rho, site_pair=(i, j))


_XFORM_DIAGONAL = (0, 1, 2, 3)
_XFORM_COHERENCE = (1, 2)


def xform_extract(rdm: TwoSiteRDM, tol_pattern: float = 1e-8) -> XFormElements:
    """Read the five X-pattern entries of a spin-1/2 pair RDM.

    Positions (descending-Sz order): u_plus at (0,0) for both-up, w1 and w2
    on the central diagonal, u_minus at (3,3), z on the central off-diagonal.
    Any other entry larger than tol_pattern raises PatternViolationError.
    """
    if rdm.local_dim != 2:
        raise ValueError(f"X form needs local dimension 2, got {rdm.local_dim}")
    rho = rdm.matrix
    allowed = {(a, a) for a in _XFORM_DIAGONAL}
    allowed.add((1, 2))
    allowed.add((2, 1))
    for a in range(4):
        for b in range(4):
            if (a, b) in allowed:
                continue
            if abs(rho[a, b]) > tol_pattern:
                raise PatternViolationError(
                    f"entry ({a}, {b}) = {rho[a, b]:.3e} breaks the X pattern "
                    f"(tol {tol_pattern:g})"
                )
    if abs(rho[1, 2] - rho[2, 1]) > tol_pattern:
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


def _lowering_amplitudes(spin: str) -> np.ndarray:
    """amps[a] = <a | S- | a+1> over ascending digits, i.e. S+ weights."""
    _, sp, _ = spin_matrices(spin)
    return np.array([sp[a + 1, a] for a in range(sp.shape[0] - 1)])


def _hopping_expectation(
    state: np.ndarray, basis: SpinBasis, src: int, dst: int
) -> float:
    """<S+_dst S-_src> by in-sector operator application."""
    d = basis.local_dim
    amps = _lowering_amplitudes(basis.spin)
    digits_src = basis.site_digits(src)
    digits_dst = basis.site_digits(dst)
    movable = (digits_src > 0) & (digits_dst < d - 1)
    if not movable.any():
        return 0.0
    targets = basis.with_pair_digits(
        basis.states[movable], src, dst, digits_src[movable] - 1, digits_dst[movable] + 1
    )
    loc = basis.index(targets)
    weight = amps[digits_src[movable] - 1] * amps[digits_dst[movable]]
    return float(np.sum(state[movable] * weight * state[loc]))


def bond_correlators(
    state: np.ndarray, basis: SpinBasis, bond: tuple[int, int]
) -> BondCorrelators:
    """Spin-spin expectation values on one bond, within the Sz sector.

    The diagonal pieces (czz, per-site mz) are plain weighted sums. The
    transverse ones use 4*SxSx = 4*SySy = S+S- + S-S+ on a real state in a
    fixed-Sz sector; the sector-leaving combinations S+S+ and S-S- have
    expectation value exactly zero there, which is why cxx equals cyy here
    by construction rather than by numerical accident.
    """
    i, j = bond
    _check_pair(basis, i, j)
    state = _check_state(state, basis)
    weight = state * state
    sz_i = basis.local_sz(basis.site_digits(i))
    sz_j = basis.local_sz(basis.site_digits(j))
    czz = float(np.sum(weight * sz_i * sz_j))
    mz_i = float(np.sum(weight * sz_i))
    mz_j = float(np.sum(weight * sz_j))
    plus_minus = _hopping_expectation(state, basis, src=j, dst=i)
    minus_plus = _hopping_expectation(state, basis, src=i, dst=j)
    transverse = 0.25 * (plus_minus + minus_plus)
    return BondCorrelators(cxx=transverse, cyy=transverse, czz=czz, mz_i=mz_i, mz_j=mz_j)


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


def von_neumann_entropy(rdm: TwoSiteRDM) -> float:
    """-sum(p log2 p) over all eigenvalues of the pair RDM.

    Tiny negative eigenvalues from round-off are clamped to zero; anything
    below -1e-8 is rejected as not a density matrix.
    """
    eigenvalues = np.linalg.eigvalsh(rdm.matrix)
    return _entropy_bits(eigenvalues)


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


def concurrence(rdm: TwoSiteRDM) -> float:
    """Wootters concurrence of a two-qubit RDM.

    Computes max(0, sqrt(r1) - sqrt(r2) - sqrt(r3) - sqrt(r4)) where the
    r's are the descending eigenvalues of rho * rho_tilde. The product is
    evaluated in the symmetrized form sqrt(rho) * rho_tilde * sqrt(rho),
    which shares its spectrum and stays positive semidefinite under
    round-off.
    """
    if rdm.local_dim != 2:
        raise ValueError(
            f"concurrence is defined for a pair of qubits only, got local "
            f"dimension {rdm.local_dim}"
        )
    rho = rdm.matrix
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
