"""Lowest eigenpairs per sector and global ground-state scans.

The workhorse is a Lanczos iteration. Eigenpairs are extracted one at a
time, each pass deflated by the vectors already found: a single Krylov space
reaches one copy of each eigenvalue, so this is what makes degenerate copies
show up with their full multiplicity. The first pass of each level keeps
every Lanczos vector orthogonal to the locked eigenvectors only; Krylov
vectors lose orthogonality to one another only along Ritz vectors that have
already converged (Paige, Linear Algebra Appl. 34, 235 (1980)), and the true
residual decides acceptance, so the bottom pair comes out right without the
per-step sweep over the whole Krylov basis. The Krylov vectors are kept, in
fixed 64-row blocks that are added as the pass grows and never copied, only
to form the Ritz vector and for the restart pass. The start vector comes from a
hard-coded seed so runs are reproducible bit for bit; if that pass fails it
is restarted once from a second hard-coded seed, with full
reorthogonalization against the locked and every stored Krylov vector,
before failing. A dense eigendecomposition doubles as an independent oracle
for small sectors.

sector_lowest is the one dense-versus-Lanczos switch. A sector of at most
_DENSE_CUTOFF states is diagonalized densely, values only, from an array
combined straight from the block's CSR parts; eigenvectors come from
a second, ``eigh`` solve made on demand, which a scan makes for the one
sector that represents the point.

solve_sector makes the one block-or-whole decision for ground_state_scan
and the check battery. A sector above the dense cutoff is solved in one
translation block when the model passes the Perron-Frobenius test of
``hamiltonian.perron_frobenius`` on a bipartite ring or torus: xxz_half at
every delta, xxz_one with beta >= 0, blbq at theta = 0 and in
(3*pi/2, 2*pi). The sector's ground state is then unique, and the
characters ``hamiltonian.ground_characters`` predicts under each lattice
translation pick its block, about N times smaller than the sector. Odd
rings, every other model point, dense sectors and low_spectrum use the
whole sector.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .basis import SectorBlock, SpinBasis, nonnegative_sectors
from .hamiltonian import ModelSpec, SectorWorkspace, SparseHamiltonian, ground_characters
from .lattice import Lattice

_PRIMARY_SEED = 1299709
_RESTART_SEED = 15485863
_CHECK_EVERY = 5
# Krylov vectors per storage block; see _lanczos_ground.
_BLOCK_ROWS = 64
_DENSE_LIMIT = 4000
# Sector dimension up to which sector_lowest diagonalizes densely.
_DENSE_CUTOFF = 300
# Levels a scan's degenerate Lanczos sector is topped up to by Lanczos; past
# them it is read whole from a dense solve if it has <= _DENSE_LIMIT states.
_LANCZOS_TOP_UP = 4


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach the requested residual."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(eq=False)
class EigenResult:
    energy: float
    vector: np.ndarray
    residual_norm: float
    converged: bool


@dataclass(eq=False)
class GroundStateReport:
    """Outcome of scanning all Sz sectors for the global ground state.

    ``degeneracy`` counts states within ``tol_deg`` of the ground energy
    across all sectors, doubling Sz > 0 sectors for their spin-flipped
    partners. Sectors diagonalized densely contribute their full spectrum,
    values only, except the representative's sector, whose levels come from
    the ``eigh`` that also gives its vector; the ground energy is the lowest
    level after that swap. A sector solved whole by Lanczos contributes its
    lowest level, and more while its levels found so far all lie within
    ``tol_deg`` of the ground: Lanczos doubles the count up to
    _LANCZOS_TOP_UP levels, and past that a sector of at most _DENSE_LIMIT
    states contributes its full spectrum from a values-only dense solve, a
    larger one more doublings. So a manifold with several members in one
    large sector is counted in full (45 at blbq theta = 5*pi/4, L = 8, and
    2,207 at theta = pi/2). A sector solved in its
    translation block contributes one level: there Perron-Frobenius makes
    the sector's ground state unique, though not always more than
    ``tol_deg`` below the sector's next level. The Neel pair of xxz_half at
    N = 18, delta = 20 is split by less, and counts once on this route where
    the whole sector would count it twice.

    For a degenerate ground state the representative is the lowest state of
    the largest-Sz sector attaining the ground energy, i.e. the polarized
    member of a ferromagnetic manifold. A polarized product state carries no
    entanglement, so downstream entropy columns read 0 there, deterministically.
    ``representative`` is always a vector over the plain sector basis
    ``representative_basis``.
    """

    per_sector_energies: dict[float, tuple[float, ...]]
    ground_energy: float
    ground_sz: float
    degeneracy: int
    degenerate_flag: bool
    representative: EigenResult
    representative_basis: SpinBasis
    tol_deg: float


class _NotConverged(Exception):
    def __init__(self, best_residual: float):
        self.best_residual = best_residual


class _NotFinite(Exception):
    """A Lanczos coefficient overflowed."""


def lanczos_lowest(
    hamiltonian: SparseHamiltonian,
    k: int = 1,
    tol: float = 1e-10,
    max_iter: int = 400,
) -> list[EigenResult]:
    """The k lowest eigenpairs of a sector matrix, energies nondecreasing.

    Levels are found sequentially: pass i runs Lanczos on the operator
    deflated by the i vectors already locked in, so a degenerate level is
    resolved one copy per pass rather than hiding behind the single copy a
    Krylov space can see. Residuals are verified as the true ||H v - E v||
    against the undeflated matrix before a pass is accepted. Raises
    ConvergenceError, carrying the best residual, if any pass runs out of
    iterations on both seeds, and ValueError, naming the matrix, if a
    Lanczos coefficient is not finite: its entries are then too large for
    the recurrence.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n = hamiltonian.dimension
    if n == 0:
        raise ValueError("empty sector")
    k_eff = min(k, n)
    matrix = hamiltonian.matrix
    if n == 1:
        energy = float(matrix[0, 0])
        return [EigenResult(energy, np.ones(1), 0.0, True)]

    locked = np.zeros((k_eff, n))
    results: list[EigenResult] = []
    for level in range(k_eff):
        best = np.inf
        found = None
        for seed, full in ((_PRIMARY_SEED, False), (_RESTART_SEED, True)):
            try:
                # An overflow is caught as a coefficient that is not finite.
                with np.errstate(over="ignore", invalid="ignore"):
                    found = _lanczos_ground(
                        matrix, n, tol, max_iter, seed, locked[:level], full
                    )
                break
            except _NotConverged as fail:
                best = min(best, fail.best_residual)
            except _NotFinite:
                raise ValueError(
                    f"{hamiltonian.name} overflows: its Lanczos recurrence is not finite"
                ) from None
        if found is None:
            raise ConvergenceError(
                f"Lanczos did not reach tol={tol} within {max_iter} iterations "
                f"for level {level} of a dimension-{n} sector, even after one restart",
                best,
            )
        locked[level] = found.vector
        results.append(found)
    return results


def _project_out(vec: np.ndarray, blocks) -> float:
    """Project the rows of every block out of ``vec`` in place (twice if
    needed) and return the norm of what is left."""
    blocks = [rows for rows in blocks if rows.shape[0]]
    before = np.linalg.norm(vec)
    for _ in range(2):
        if blocks:
            coeffs = [rows @ vec for rows in blocks]
            for rows, c in zip(blocks, coeffs):
                vec -= rows.T @ c
        after = np.linalg.norm(vec)
        if after > 0.5 * before:
            break
        before = after
    return float(after)


def _filled(blocks: list[np.ndarray], m: int) -> list[np.ndarray]:
    """Views of the first ``m`` Krylov rows, one per block."""
    return [block[: m - i * _BLOCK_ROWS] for i, block in enumerate(blocks)]


def _lanczos_ground(matrix, n, tol, max_iter, seed, locked, full) -> EigenResult:
    """Lowest eigenpair of ``matrix`` on the complement of the locked rows.

    The Krylov vectors live in a list of ``_BLOCK_ROWS``-row blocks, each
    allocated uninitialized when the previous one fills and never copied or
    resized; the locked rows stay in the caller's ``locked`` array. Every
    new Lanczos vector is projected against the locked rows, so deflation
    stays exact; with ``full`` it is projected against the filled blocks
    too, in the same sweep. Without ``full`` the three-term recurrence alone
    keeps the Krylov vectors orthogonal until the bottom Ritz pair
    converges, which is all the pass needs. The three-term update runs in
    place through one scratch vector, so outside the projections a step
    allocates only the product ``matrix @ v``. The bottom Ritz pair is only
    formed once the cheap coupling bound |beta_next * y[-1]| clears the
    tolerance; acceptance then rests on the true residual. A Krylov space that closes
    early (numerically invariant subspace) is accepted at whatever it
    converged to: the seeded Gaussian start has weight on every
    eigendirection apart from a measure-zero accident, and the second seed
    covers the paranoid case.
    """
    base = locked.shape[0]
    # Seed per pass: reusing one draw across passes leaves the start with
    # zero weight on a degenerate copy whose partner was already locked
    # (its share of the draw is exactly what got locked in).
    rng = np.random.default_rng([seed, base])
    blocks = [np.empty((min(_BLOCK_ROWS, max_iter + 1), n))]
    start = rng.standard_normal(n, out=blocks[0][0])
    start_norm = _project_out(start, [locked])
    if start_norm <= 1e-13:
        raise _NotConverged(np.inf)
    np.divide(start, start_norm, out=start)
    tmp = np.empty(n)
    alpha: list[float] = []
    beta: list[float] = []
    scale = 1.0
    best = np.inf

    for j in range(max_iter):
        v = blocks[j // _BLOCK_ROWS][j % _BLOCK_ROWS]
        w = matrix @ v
        a = float(v @ w)
        alpha.append(a)
        np.multiply(v, a, out=tmp)
        np.subtract(w, tmp, out=w)
        if j > 0:
            np.multiply(prev, beta[j - 1], out=tmp)
            np.subtract(w, tmp, out=w)
        m = j + 1
        if full:
            w_norm = _project_out(w, [locked, *_filled(blocks, m)])
        elif base:
            w_norm = _project_out(w, [locked])
        else:
            w_norm = float(np.linalg.norm(w))

        if not (math.isfinite(a) and math.isfinite(w_norm)):
            raise _NotFinite
        scale = max(scale, abs(a))
        exhausted = base + m >= n
        breakdown = w_norm <= 1e-13 * scale

        if breakdown or exhausted or m % _CHECK_EVERY == 0 or j == max_iter - 1:
            next_beta = 0.0 if (breakdown or exhausted) else w_norm
            result, worst = _ritz_bottom(
                matrix, _filled(blocks, m), alpha, beta, next_beta, tol,
                force=breakdown or exhausted,
            )
            best = min(best, worst)
            if result is not None:
                return result

        if breakdown or exhausted:
            raise _NotConverged(best)
        if m % _BLOCK_ROWS == 0:
            blocks.append(np.empty((min(_BLOCK_ROWS, max_iter + 1 - m), n)))
        np.divide(w, w_norm, out=blocks[m // _BLOCK_ROWS][m % _BLOCK_ROWS])
        beta.append(w_norm)
        scale = max(scale, w_norm)
        prev = v
    raise _NotConverged(best)


def _ritz_bottom(matrix, blocks, alpha, beta, next_beta, tol, force=False):
    """Bottom Ritz pair of the current tridiagonal; (result or None, worst)."""
    m = len(alpha)
    if m == 1:
        theta = np.asarray([alpha[0]])
        y = np.ones((1, 1))
    else:
        theta, y = eigh_tridiagonal(
            np.asarray(alpha), np.asarray(beta[: m - 1]), select="i", select_range=(0, 0)
        )
    bound = abs(next_beta * y[-1, 0])
    if not force and bound > 0.25 * tol:
        return None, float(bound)
    vec = blocks[0].T @ y[: blocks[0].shape[0], 0]
    for i, rows in enumerate(blocks[1:], 1):
        vec += rows.T @ y[i * _BLOCK_ROWS : i * _BLOCK_ROWS + rows.shape[0], 0]
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(matrix @ vec - theta[0] * vec))
    if residual <= tol:
        return EigenResult(float(theta[0]), vec, residual, True), residual
    return None, residual


def _dense_pair(dense: np.ndarray, vals: np.ndarray, vecs: np.ndarray, idx: int):
    vec = vecs[:, idx]
    # A matrix of huge entries overflows the residual; the caller sees inf.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(dense @ vec - vals[idx] * vec))
    return EigenResult(float(vals[idx]), vec, residual, math.isfinite(residual))


def dense_lowest(hamiltonian: SparseHamiltonian, k: int = 1) -> list[EigenResult]:
    """Full dense diagonalization oracle; k lowest eigenpairs.

    Only for sectors of dimension <= 4000; anything larger belongs to
    lanczos_lowest.
    """
    n = hamiltonian.dimension
    if n > _DENSE_LIMIT:
        raise ValueError(
            f"dimension {n} exceeds the dense-oracle limit {_DENSE_LIMIT}"
        )
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    dense = hamiltonian.matrix.toarray()
    vals, vecs = np.linalg.eigh(dense)
    return [_dense_pair(dense, vals, vecs, idx) for idx in range(min(k, n))]


def _dense_bottom(dense: np.ndarray) -> tuple[list[float], EigenResult]:
    vals, vecs = np.linalg.eigh(dense)
    return list(map(float, vals)), _dense_pair(dense, vals, vecs, 0)


def sector_lowest(
    hamiltonian: SparseHamiltonian, count: int = 1, tol: float = 1e-10
) -> tuple[list[float], Callable[[], tuple[list[float], EigenResult]]]:
    """Lowest energies of one sector, and a call that gives its bottom eigenpair.

    Sectors of dimension <= _DENSE_CUTOFF are diagonalized densely in full,
    values only (their complete spectrum feeds degeneracy counting for
    free). Their eigenvectors cost an ``eigh`` of the same array, run only
    when the call is made; it returns that solve's levels, whose last digits
    can differ from the values-only ones, with the pair. Larger sectors get
    the ``count`` lowest levels and the pair from Lanczos at once, and the
    call hands both back.
    """
    if hamiltonian.dimension <= _DENSE_CUTOFF:
        dense = hamiltonian.dense()
        return list(map(float, np.linalg.eigvalsh(dense))), partial(_dense_bottom, dense)
    results = lanczos_lowest(hamiltonian, k=count, tol=tol)
    levels = [r.energy for r in results]
    return levels, lambda: (levels, results[0])


def solve_sector(
    model: ModelSpec, workspace: SectorWorkspace, sz: float, tol: float = 1e-10
) -> tuple[list[float], Callable[[], tuple[list[float], EigenResult]], SectorBlock]:
    """Lowest energies of one sector, a call that gives them with the
    sector's bottom eigenpair (see sector_lowest), and the sector's block.

    A sector above the dense cutoff is solved in the translation block
    ``ground_characters`` predicts, where the sector's ground is unique and
    is the one energy returned; any other sector whole, by sector_lowest.
    ``block.expand`` writes the bottom vector out over the plain sector. The
    call raises ValueError, naming the model, if the pair's residual is not
    finite: the matrix is then too large to check it.
    """
    characters = ()
    if workspace.basis(sz).dimension > _DENSE_CUTOFF:
        characters = ground_characters(model, workspace.lattice, sz)
    energies, pair = sector_lowest(workspace.matrix(model, sz, characters), tol=tol)
    block = workspace.block(sz, characters)[0]
    keep = 1 if characters else len(energies)

    def bottom() -> tuple[list[float], EigenResult]:
        levels, found = pair()
        if not found.converged:
            raise ValueError(
                f"the ground of {model.label} in sector Sz={sz:g} has a residual of "
                f"{found.residual_norm}: its matrix is too large to check it"
            )
        return levels[:keep], found

    return energies[:keep], bottom, block


def ground_state_scan(
    model: ModelSpec,
    lattice: Lattice,
    tol_deg: float = 1e-8,
    *,
    tol: float = 1e-10,
    workspace: SectorWorkspace | None = None,
) -> GroundStateReport:
    """Scan Sz >= 0 sectors for the global ground state and its degeneracy.

    Spin-flip symmetry makes the Sz < 0 sectors mirror images, so they are
    skipped but counted in the degeneracy. Each sector is solved by
    solve_sector. The representative sector is picked from those levels;
    only then is its bottom pair formed, its levels replaced by the ones
    that solve gives, and the ground energy taken, so a dense point runs one
    ``eigh``. A sector solved whole by Lanczos whose levels all lie within
    ``tol_deg`` of the ground is topped up until a level clears that window,
    after the ground energy and the representative are fixed.
    GroundStateReport describes the top-up and the degenerate-representative
    rule.
    """
    ws = _workspace(model, lattice, workspace)
    sectors = nonnegative_sectors(ws.spin, lattice.num_sites)
    solved = {sz: solve_sector(model, ws, sz, tol) for sz in sectors}
    per_sector = {sz: levels for sz, (levels, _, _) in solved.items()}
    lowest = min(levels[0] for levels in per_sector.values())
    rep_sz = max(sz for sz, levels in per_sector.items() if levels[0] <= lowest + tol_deg)
    _, pair, rep_block = solved[rep_sz]
    per_sector[rep_sz], bottom = pair()
    ground = min(levels[0] for levels in per_sector.values())
    for sz, levels in per_sector.items():
        block = solved[sz][2]
        while (
            block.reps is block.basis
            and len(levels) < block.dimension
            and levels[-1] <= ground + tol_deg
        ):
            if len(levels) >= _LANCZOS_TOP_UP and block.dimension <= _DENSE_LIMIT:
                matrix = ws.matrix(model, sz).matrix.toarray()
                levels = list(map(float, np.linalg.eigvalsh(matrix)))
            else:
                levels = sector_lowest(ws.matrix(model, sz), 2 * len(levels), tol)[0]
        per_sector[sz] = levels
    degeneracy = 0
    for sz, levels in per_sector.items():
        hits = sum(1 for e in levels if e <= ground + tol_deg)
        degeneracy += hits * (2 if sz > 1e-12 else 1)

    return GroundStateReport(
        per_sector_energies={sz: tuple(levels) for sz, levels in per_sector.items()},
        ground_energy=ground,
        ground_sz=rep_sz,
        degeneracy=degeneracy,
        degenerate_flag=degeneracy > 1,
        representative=replace(bottom, vector=rep_block.expand(bottom.vector)),
        representative_basis=rep_block.basis,
        tol_deg=tol_deg,
    )


def _workspace(
    model: ModelSpec, lattice: Lattice, workspace: SectorWorkspace | None
) -> SectorWorkspace:
    """The given workspace, which must be built on ``lattice``, or a fresh one."""
    if workspace is None:
        return SectorWorkspace(model.family, lattice)
    if workspace.lattice != lattice:
        raise ValueError(
            f"workspace built on a {workspace.lattice.geometry} of extent "
            f"{workspace.lattice.extent}, got a {lattice.geometry} of extent {lattice.extent}"
        )
    return workspace


def low_spectrum(
    model: ModelSpec,
    lattice: Lattice,
    levels: int,
    *,
    tol: float = 1e-10,
    tol_deg: float = 1e-8,
    workspace: SectorWorkspace | None = None,
) -> list[tuple[float, float]]:
    """Lowest ``levels`` states of the full Hamiltonian as (energy, sz) pairs.

    Collects the lowest ``levels`` states from every sector, mirrors Sz > 0
    sectors onto their spin-flipped partners, then keeps the ``levels``
    lowest of the merge. Any state missing from a sector's contribution sits
    above ``levels`` states of that sector alone, so the returned prefix is
    complete; a degenerate manifold straddling the cutoff is still reported
    truncated, as with any fixed-depth listing. Energies split into clusters
    at gaps wider than ``tol_deg``, and the members of a cluster are listed
    by (|Sz|, Sz), then energy, so which members the cutoff keeps, and in
    what order, does not hang on round-off; within a cluster the energies
    need not ascend. Each sector's levels come from sector_lowest, so dense
    sectors give the values-only ``eigvalsh`` levels the scan reads for every
    sector but the representative's, which it takes from ``eigh``; the last
    digits of the two can differ.
    """
    if levels < 1:
        raise ValueError(f"need levels >= 1, got {levels}")
    check_tolerances(tol, tol_deg)
    ws = _workspace(model, lattice, workspace)
    merged: list[tuple[float, float]] = []
    for sz in nonnegative_sectors(ws.spin, lattice.num_sites):
        energies = sector_lowest(ws.matrix(model, sz), levels, tol)[0][:levels]
        for e in energies:
            merged.append((e, sz))
            if sz > 1e-12:
                merged.append((e, -sz))
    merged.sort()
    listing: list[tuple[float, float]] = []
    for size in degeneracy_count([e for e, _ in merged], tol_deg):
        cluster = merged[len(listing) : len(listing) + size]
        listing += sorted(cluster, key=lambda level: (abs(level[1]), level[1], level[0]))
    return listing[:levels]


def check_tolerances(tol: float, tol_deg: float) -> None:
    """Reject a tolerance not finite and positive, or a window not finite and >= 0."""
    if not (0 < tol < math.inf and 0 <= tol_deg < math.inf):
        raise ValueError(f"need finite tol > 0 and tol_deg >= 0, got {tol} and {tol_deg}")


def degeneracy_count(energies, tol_deg: float) -> list[int]:
    """Cluster sizes of an ascending energy list, split at gaps > tol_deg.

    Members of one cluster may come in any order (low_spectrum lists them by
    Sz), so only a drop wider than ``tol_deg`` counts as unsorted input.
    """
    energies = list(energies)
    if any(b < a - tol_deg for a, b in zip(energies, energies[1:])):
        raise ValueError("energies must be sorted ascending")
    if not energies:
        return []
    sizes = [1]
    for prev, cur in zip(energies, energies[1:]):
        if cur - prev <= tol_deg:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes
