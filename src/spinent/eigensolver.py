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
for small sectors. lanczos_lowest can go on from pairs an earlier call locked.

sector_lowest is the one sector solve, for scans, spectra, the degenerate
top-up and the check battery alike. It picks the kind of pieces a sector
is solved as, asks ``SectorWorkspace.pieces`` for them, each a
SparseHamiltonian that carries its block, solves each by one
dense-versus-Lanczos rule, and reads the sector's levels as the union of
theirs. Asked for one level of a sector above _DENSE_CUTOFF states, it
solves one translation block when the model passes the Perron-Frobenius
test of ``hamiltonian.perron_frobenius`` on a bipartite ring or torus:
xxz_half at every delta, xxz_one with beta >= 0, blbq at theta = 0 and in
(3*pi/2, 2*pi). The sector's ground state is then unique, and the
characters ``hamiltonian.ground_characters`` predicts under each lattice
translation pick its block, about N times smaller than the sector. Every
other sector is solved whole: a sector of at most _DENSE_CUTOFF states, or
one whose every level is asked for, as its real parity blocks of one
character each under the lattice reflection and, at Sz = 0, the global
spin inversion (Sandvik, arXiv:1101.3281, sec. 4.2-4.3), a quarter to a
half of its size; any other as the plain sector. A piece of at most
_DENSE_CUTOFF states, or one whose every level is asked for, is
diagonalized densely, values only, from an array combined straight from
CSR parts, so a dense sector is never assembled whole; any other piece
goes to Lanczos. Eigenvectors of a dense piece come from a second,
``eigh`` solve made on demand, which a scan makes for the one piece that
represents the point.

Every solve takes a SectorWorkspace first and the model second: the
workspace is the one handle on the lattice, and it keeps the bases and
stencil parts that solves at other parameter values reuse.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .basis import nonnegative_sectors
from .hamiltonian import ModelSpec, SectorWorkspace, SparseHamiltonian, ground_characters

_PRIMARY_SEED = 1299709
_RESTART_SEED = 15485863
_CHECK_EVERY = 5
# Krylov vectors per storage block; see _lanczos_ground.
_BLOCK_ROWS = 64
# Lanczos steps per pass before a seed is given up.
_MAX_ITER = 400
# A memory cap, 128 MB of float64 at 4,000 states, for dense_lowest, low_spectrum's
# refusal and the top-up's dense switch; dense versus Lanczos is _DENSE_CUTOFF's rule.
_DENSE_LIMIT = 4000
# Dimension up to which sector_lowest solves a sector whole, as its parity
# blocks, and diagonalizes a piece densely.
_DENSE_CUTOFF = 300
# Lanczos levels a top-up finds before a sector of <= _DENSE_LIMIT states goes dense.
_LANCZOS_TOP_UP = 4


class ConvergenceError(RuntimeError):
    """A solve failed to reach the requested residual; its message quotes
    ``best_residual``, the closest it came, where one is known."""

    def __init__(self, message: str, best_residual: float | None = None):
        if best_residual is not None:
            message = f"{message} (best residual {best_residual:.3e})"
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(eq=False)
class EigenResult:
    """One eigenpair and its true residual ||H v - E v||. A Lanczos result
    is accepted only at a residual within its tolerance."""

    energy: float
    vector: np.ndarray
    residual_norm: float


@dataclass(eq=False)
class GroundStateReport:
    """Outcome of scanning all Sz sectors for the global ground state.

    ``degeneracy`` counts states within the scan's ``tol_deg`` of the ground
    energy across all sectors, doubling Sz > 0 sectors for their
    spin-flipped partners. Each sector contributes the levels sector_lowest
    gives for one level. A dense sector gives its full spectrum, the union
    of its parity blocks' levels, values only, except the representative's
    piece, whose levels come from the ``eigh`` that also gives its vector;
    the ground energy is the lowest level after that swap. A sector solved
    whole by Lanczos contributes the levels of sector_lowest's top-up,
    which goes on until one clears ``tol_deg`` above the ground, so a
    manifold with several members in one large sector is counted in full
    (45 at blbq theta = 5*pi/4, L = 8, and 2,207 at theta = pi/2). A
    sector solved in its translation block contributes one level: there
    Perron-Frobenius makes the sector's ground state unique, though not
    always more than ``tol_deg`` below the sector's next level. The Neel
    pair of xxz_half at N = 18, delta = 20 is split by less, and counts once
    on this route where the whole sector would count it twice.

    For a degenerate ground state the representative is the lowest state of
    the largest-Sz sector attaining the ground energy, i.e. the polarized
    member of a ferromagnetic manifold. A polarized product state carries no
    entanglement, so downstream entropy columns read 0 there, deterministically.
    A dense sector's lowest state is the bottom of one of its parity blocks:
    the first, in the block order of ``basis.parity_blocks``, whose bottom
    lies within ``tol`` of the sector's lowest level. So where that level is
    degenerate, as for the momentum pair of an odd ring's Sz = 1/2 sector,
    the vector is an eigenstate of the reflection, and at Sz = 0 of the spin
    inversion, picked by a fixed rule rather than by LAPACK.
    ``representative`` is always a vector over the plain sector basis
    ``workspace.basis(ground_sz)`` of the scanned workspace.
    """

    per_sector_energies: dict[float, tuple[float, ...]]
    ground_energy: float
    ground_sz: float
    degeneracy: int
    representative: EigenResult


class _NotConverged(Exception):
    def __init__(self, best_residual: float):
        self.best_residual = best_residual


def lanczos_lowest(
    hamiltonian: SparseHamiltonian,
    k: int = 1,
    tol: float = 1e-10,
    found: Sequence[EigenResult] = (),
) -> list[EigenResult]:
    """The k lowest eigenpairs of a sector matrix, energies ascending to round-off.

    Levels are found sequentially: pass i runs Lanczos on the operator
    deflated by the i vectors already locked in, so a degenerate level is
    resolved one copy per pass rather than hiding behind the single copy a
    Krylov space can see. ``found``, pairs an earlier call gave for this
    matrix and ``tol``, is locked in first, and the passes go on from it bit
    for bit as a fresh call's. Residuals are verified as the true
    ||H v - E v|| against the undeflated matrix before a pass is accepted.
    Raises ConvergenceError, carrying the best residual, if any pass runs
    out of iterations (_MAX_ITER steps) on both seeds.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n = hamiltonian.dimension
    if n == 0:
        raise ValueError("empty sector")
    k_eff = min(k, n)
    matrix = hamiltonian.matrix
    locked = np.zeros((k_eff, n))
    results = list(found[:k_eff])
    for level, result in enumerate(results):
        locked[level] = result.vector
    for level in range(len(results), k_eff):
        best = np.inf
        pair = None
        for seed, full in ((_PRIMARY_SEED, False), (_RESTART_SEED, True)):
            try:
                pair = _lanczos_ground(matrix, tol, seed, locked[:level], full)
                break
            except _NotConverged as fail:
                best = min(best, fail.best_residual)
        if pair is None:
            raise ConvergenceError(
                f"Lanczos did not reach tol={tol} within {_MAX_ITER} iterations "
                f"for level {level} of a dimension-{n} sector, even after one restart",
                best,
            )
        locked[level] = pair.vector
        results.append(pair)
    return results


def _project_out(vec: np.ndarray, blocks) -> float:
    """Project the rows of every block out of ``vec`` in place (twice if
    needed) and return the norm of what is left."""
    blocks = [rows for rows in blocks if rows.shape[0]]
    before = np.linalg.norm(vec)
    if not blocks:
        return float(before)
    for _ in range(2):
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


def _lanczos_ground(matrix, tol, seed, locked, full) -> EigenResult:
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
    tolerance; acceptance then rests on the true residual, and a failed pass
    reports the smallest true residual it formed, inf if none. A Krylov space that closes
    early (numerically invariant subspace) is accepted at whatever it
    converged to: the seeded Gaussian start has weight on every
    eigendirection apart from a measure-zero accident, and the second seed
    covers the paranoid case.
    """
    base, n = locked.shape
    # Seed per pass: reusing one draw across passes leaves the start with
    # zero weight on a degenerate copy whose partner was already locked
    # (its share of the draw is exactly what got locked in).
    rng = np.random.default_rng([seed, base])
    blocks = [np.empty((min(_BLOCK_ROWS, _MAX_ITER + 1), n))]
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

    for j in range(_MAX_ITER):
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
        w_norm = _project_out(w, [locked, *(_filled(blocks, m) if full else ())])
        scale = max(scale, abs(a))
        exhausted = base + m >= n
        breakdown = w_norm <= 1e-13 * scale

        if breakdown or exhausted or m % _CHECK_EVERY == 0 or j == _MAX_ITER - 1:
            next_beta = 0.0 if (breakdown or exhausted) else w_norm
            result, residual = _ritz_bottom(
                matrix, _filled(blocks, m), alpha, beta, next_beta, tol,
                force=breakdown or exhausted,
            )
            best = min(best, residual)
            if result is not None:
                return result

        if breakdown or exhausted:
            raise _NotConverged(best)
        if m % _BLOCK_ROWS == 0:
            blocks.append(np.empty((min(_BLOCK_ROWS, _MAX_ITER + 1 - m), n)))
        np.divide(w, w_norm, out=blocks[m // _BLOCK_ROWS][m % _BLOCK_ROWS])
        beta.append(w_norm)
        scale = max(scale, w_norm)
        prev = v
    raise _NotConverged(best)


def _ritz_bottom(matrix, blocks, alpha, beta, next_beta, tol, force=False):
    """Bottom Ritz pair of the current tridiagonal: (result or None, its true
    residual, or inf where the coupling bound leaves the pair unformed)."""
    # The recurrence has appended one beta fewer than alphas.
    theta, y = eigh_tridiagonal(
        np.asarray(alpha), np.asarray(beta), select="i", select_range=(0, 0)
    )
    if not np.isfinite(y).all():
        # LAPACK's inverse iteration overflows on entries near the size guard's
        # bound; the same tridiagonal over a power of two has the same vector.
        k = math.frexp(max(map(abs, alpha + beta)))[1]
        y = eigh_tridiagonal(np.ldexp(alpha, -k), np.ldexp(beta, -k), select="i",
                             select_range=(0, 0))[1]
    if not force and abs(next_beta * y[-1, 0]) > 0.25 * tol:
        return None, np.inf
    vec = blocks[0].T @ y[: blocks[0].shape[0], 0]
    for i, rows in enumerate(blocks[1:], 1):
        vec += rows.T @ y[i * _BLOCK_ROWS : i * _BLOCK_ROWS + rows.shape[0], 0]
    vec = vec / np.linalg.norm(vec)
    residual = float(np.linalg.norm(matrix @ vec - theta[0] * vec))
    if residual <= tol:
        return EigenResult(float(theta[0]), vec, residual), residual
    return None, residual


def _dense_pair(dense: np.ndarray, vals: np.ndarray, vecs: np.ndarray, idx: int):
    vec = vecs[:, idx]
    residual = float(np.linalg.norm(dense @ vec - vals[idx] * vec))
    return EigenResult(float(vals[idx]), vec, residual)


def dense_lowest(hamiltonian: SparseHamiltonian, k: int = 1) -> list[EigenResult]:
    """Dense diagonalization oracle: the k lowest eigenpairs, up to _DENSE_LIMIT states."""
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


def sector_lowest(
    workspace: SectorWorkspace,
    model: ModelSpec,
    sz: float,
    count: int = 1,
    tol: float = 1e-10,
) -> tuple[list[float], Callable[[], tuple[list[float], EigenResult]], Callable | None]:
    """The ``count`` lowest energies of one sector, a call that gives them
    with the sector's bottom eigenpair over the plain sector, and, for a
    sector solved whole, a call that tops its levels up.

    The pieces and the dense-versus-Lanczos rule are the module
    docstring's: the kind is picked once and every piece of it is solved
    from one list. The levels are the sorted union of the pieces', cut to
    the one ground of a translation block, and a dense piece's array is
    dropped once its values are found. The call gives the pair of the
    first piece, in block order, whose bottom lies within ``tol`` of the
    lowest level, written out over the plain sector by that piece's
    ``block.expand``. For a dense piece it runs an ``eigh`` of that piece's
    array, combined again, and returns the levels with that solve's in
    place of the values-only ones of its piece. A ``tol`` that
    check_tolerances refuses, or a ``count`` below 1, raises ValueError
    first.

    The top-up call takes a ceiling and returns the levels, sorted: while
    all lie at or below it and some are missing, lanczos_lowest deflates the
    Lanczos piece a level further on its combined matrix or, past
    _LANCZOS_TOP_UP, a sector of at most _DENSE_LIMIT states goes dense.
    """
    check_tolerances(tol, 0.0)
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    dim = workspace.basis(sz).dimension
    if dim <= _DENSE_CUTOFF or count >= dim:
        kind = "parity"
    else:
        kind = ground_characters(model, workspace.lattice, sz) if count == 1 else ()
    whole = kind in ("parity", ())
    pieces = workspace.pieces(model, sz, kind)
    solved = []
    for hamiltonian in pieces:
        if hamiltonian.dimension <= _DENSE_CUTOFF or count >= hamiltonian.dimension:
            solved.append((np.linalg.eigvalsh(hamiltonian.dense()), None))
        else:
            results = lanczos_lowest(hamiltonian, k=count, tol=tol)
            solved.append((np.array([r.energy for r in results]), results))
    levels = np.sort(np.concatenate([values for values, _ in solved]))
    pick = next(i for i, (values, _) in enumerate(solved) if values[0] <= levels[0] + tol)

    def bottom() -> tuple[list[float], EigenResult]:
        hamiltonian, (values, found) = pieces[pick], solved[pick]
        if found is None:
            dense = hamiltonian.dense()
            values, vecs = np.linalg.eigh(dense)
            found = [_dense_pair(dense, values, vecs, 0)]
        others = [other for i, (other, _) in enumerate(solved) if i != pick]
        union = np.sort(np.concatenate([values, *others]))
        vector = hamiltonian.block.expand(found[0].vector)
        return list(map(float, union[: None if whole else 1])), replace(found[0], vector=vector)

    def top_up(ceiling: float) -> list[float]:
        energies, found = levels, solved[0][1]
        while found and len(found) < dim and energies[-1] <= ceiling:
            if len(found) >= _LANCZOS_TOP_UP and dim <= _DENSE_LIMIT:
                return sector_lowest(workspace, model, sz, dim, tol)[0]
            found = lanczos_lowest(pieces[0], k=len(found) + 1, tol=tol, found=found)
            energies = np.sort([r.energy for r in found])
        return list(map(float, energies))

    return list(map(float, levels[: None if whole else 1])), bottom, top_up if whole else None


def ground_state_scan(
    workspace: SectorWorkspace,
    model: ModelSpec,
    *,
    tol: float = 1e-10,
    tol_deg: float = 1e-8,
) -> GroundStateReport:
    """Scan the workspace's Sz >= 0 sectors for the global ground state and
    its degeneracy.

    Spin-flip symmetry makes the Sz < 0 sectors mirror images, so they are
    skipped but counted in the degeneracy. Each sector is solved by
    sector_lowest. The representative sector is picked from those levels;
    only then is its bottom pair formed, its levels replaced by the ones
    that solve gives, and the ground energy taken, so a dense point runs one
    ``eigh``, on one parity block. Then each sector solved whole by Lanczos
    is topped up by the call sector_lowest gave for it. GroundStateReport
    describes the top-up and the degenerate-representative rule. A
    tolerance that check_tolerances refuses raises its ValueError first.
    """
    check_tolerances(tol, tol_deg)
    sectors = nonnegative_sectors(workspace.spin, workspace.lattice.num_sites)
    solved = {sz: sector_lowest(workspace, model, sz, tol=tol) for sz in sectors}
    per_sector = {sz: levels for sz, (levels, _, _) in solved.items()}
    lowest = min(levels[0] for levels in per_sector.values())
    rep_sz = max(sz for sz, levels in per_sector.items() if levels[0] <= lowest + tol_deg)
    per_sector[rep_sz], bottom = solved[rep_sz][1]()
    ground = min(levels[0] for levels in per_sector.values())
    for sz, (_, _, top_up) in solved.items():
        if top_up and len(per_sector[sz]) < workspace.basis(sz).dimension:
            per_sector[sz] = top_up(ground + tol_deg)
    degeneracy = 0
    for sz, levels in per_sector.items():
        hits = sum(1 for e in levels if e <= ground + tol_deg)
        degeneracy += hits * (2 if sz > 1e-12 else 1)

    return GroundStateReport(
        per_sector_energies={sz: tuple(levels) for sz, levels in per_sector.items()},
        ground_energy=ground,
        ground_sz=rep_sz,
        degeneracy=degeneracy,
        representative=bottom,
    )


def low_spectrum(
    workspace: SectorWorkspace,
    model: ModelSpec,
    levels: int,
    *,
    tol: float = 1e-10,
    tol_deg: float = 1e-8,
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
    need not ascend. Each sector's levels come from sector_lowest, so a
    dense sector gives the values-only levels of its parity blocks, bit for
    bit the levels a scan reports for every sector but its representative,
    and for one level a large sector that passes the Perron-Frobenius test
    gives the ground of its translation block, the sector's lowest level by
    that test. ``levels`` at least a sector's dimension asks for all of its
    levels, which takes a dense solve; above _DENSE_LIMIT states that
    raises ValueError, naming the sector, before anything is assembled.
    """
    if levels < 1:
        raise ValueError(f"need levels >= 1, got {levels}")
    check_tolerances(tol, tol_deg)
    sectors = nonnegative_sectors(workspace.spin, workspace.lattice.num_sites)
    for sz in sectors:
        dim = workspace.basis(sz).dimension
        if levels >= dim > _DENSE_LIMIT:
            raise ValueError(
                f"{levels} levels ask for every level of the {dim}-state sector "
                f"Sz={sz:g}, a dense solve above the {_DENSE_LIMIT}-state limit"
            )
    merged: list[tuple[float, float]] = []
    for sz in sectors:
        energies = sector_lowest(workspace, model, sz, levels, tol)[0][:levels]
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
    if not 0 < tol < math.inf:
        raise ValueError(f"need finite tol > 0, got {tol}")
    if not 0 <= tol_deg < math.inf:
        raise ValueError(f"need finite tol_deg >= 0, got {tol_deg}")


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
