"""Lowest eigenpairs per sector and global ground-state scans.

The workhorse is a Lanczos iteration. Eigenpairs are extracted one at a
time, each pass deflated by the vectors already found: a single Krylov space
reaches one copy of each eigenvalue, so this is what makes degenerate copies
show up with their full multiplicity. Each level runs one pass, which keeps
every Lanczos vector orthogonal to the locked eigenvectors only; Krylov
vectors lose orthogonality to one another only along Ritz vectors that have
already converged (Paige, Linear Algebra Appl. 34, 235 (1980)), and the true
residual decides acceptance, so the bottom pair comes out right without a
sweep over the whole Krylov basis. The Krylov vectors are kept, in fixed
64-row blocks that are added as the pass grows and never copied, only to
form the Ritz vector. The start vector comes from a hard-coded seed so runs
are reproducible bit for bit, and a pass that runs out of steps raises
ConvergenceError. A pair is accepted at a true residual of at most
max(tol, 8 eps ||H||_F), since round-off alone leaves about eps ||H||.
A dense eigendecomposition doubles as an independent oracle
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
character each under the lattice reflection R, at Sz = 0 the global spin
inversion F, and the translations by half of an even extent (Sandvik,
arXiv:1101.3281, sec. 4), an eighth to a half of its size; any other as
the plain sector. A piece of at most _DENSE_CUTOFF states, or one whose
every level is asked for, is diagonalized densely, values only, from an
array combined straight from CSR parts, so a dense sector is never
assembled whole; any other piece goes to Lanczos. Eigenvectors of a dense
piece come from a second, ``eigh`` solve made on demand, which a scan
makes once per point: on the piece that represents it, or, for a parity
block, on the block of R and F alone that holds it, so the vector does not
depend on the half translations. Where a Lanczos piece fails, the sector
is solved again for every level, densely on its parity blocks, if each has
at most _DENSE_LIMIT states; else the failure stands.

ground_state_scan takes a grid of models, one model being a grid of one,
and gives one entry per model: its report, or the ValueError, RuntimeError
or MemoryError that this point alone raised, each handed on as soon as it
is formed. A block's parts do not depend on the point, so a scan solves
each dense piece for the whole grid at once: the grid's coefficient of
each part is one array, its arrays are combined in stacks of at most
_STACK_BYTES, each stack by one sum per part, and each stack is
diagonalized by one ``eigvalsh``, which gives every point bitwise the
values of its own solve. The scan goes through the other sectors, the
representative's ``eigh`` and the top-up point by point.

Every solve takes a SectorWorkspace first and the model or grid second:
the workspace is the one handle on the lattice, and it keeps the bases and
stencil parts that solves at other parameter values reuse.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .basis import nonnegative_sectors, parity_blocks
from .hamiltonian import (
    ModelSpec,
    SectorWorkspace,
    SparseHamiltonian,
    dense_stack,
    grid_coefficients,
    ground_characters,
    size_error,
)

_PRIMARY_SEED = 1299709
_CHECK_EVERY = 5
# Krylov vectors per storage block; see _lanczos_ground.
_BLOCK_ROWS = 64
# Lanczos steps per pass before a seed is given up.
_MAX_ITER = 400
# Times ||H||_F, the residual below which round-off leaves no pair out of reach.
_RESIDUAL_FLOOR = 8 * np.finfo(float).eps
# A memory cap, 128 MB of float64 at 4,000 states, for dense_lowest, low_spectrum's
# refusal and the top-up's dense switch; dense versus Lanczos is _DENSE_CUTOFF's rule.
_DENSE_LIMIT = 4000
# Dimension up to which sector_lowest solves a sector whole, as its parity
# blocks, and diagonalizes a piece densely.
_DENSE_CUTOFF = 300
# Bytes of one stack of dense arrays that _dense_levels hands to one eigvalsh.
_STACK_BYTES = 1 << 17
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

    ``degeneracy`` counts states within max(tol_deg, 8 eps ||H||_F) of the
    ground energy across all sectors, ||H||_F being each sector's, since
    round-off alone leaves about eps ||H|| in a level, and doubles Sz > 0
    sectors for their spin-flipped partners. Each sector contributes the
    levels sector_lowest gives for one level. A dense sector gives its full
    spectrum, the union of its parity blocks' levels, values only, except
    in the representative's sector, where the parity blocks of the block
    that gives its vector give way to the levels of that block's ``eigh``;
    the ground energy is the lowest level after that swap. A sector solved
    whole by Lanczos contributes the levels of sector_lowest's top-up,
    which goes on until one clears that window above the ground, so a
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
    A dense sector's lowest state is the bottom of one of its blocks under
    the reflection and, at Sz = 0, the spin inversion alone: the first, in
    the block order of ``basis.parity_blocks``, whose bottom, the least of
    its parity blocks' bottoms, lies within max(tol, 8 eps ||H||_F) of the
    sector's lowest level, ||H||_F being the sector's. So where that level
    is degenerate, as for the momentum pair of an odd ring's Sz = 1/2
    sector, the vector is an eigenstate of the reflection, and at Sz = 0 of
    the spin inversion, picked by a fixed rule rather than by LAPACK or by
    round-off. Its ``eigh`` is made on that block, so the vector does not
    depend on the half translations that split the values-only solves.
    ``representative`` is always a vector over the plain sector basis
    ``workspace.basis(ground_sz)`` of the scanned workspace.

    A point's report is the same, bit for bit, whether the point is
    scanned alone or in a grid: only how its dense blocks are batched
    differs, and a stacked ``eigvalsh`` gives each array the values it
    gives that array alone.
    """

    per_sector_energies: dict[float, tuple[float, ...]]
    ground_energy: float
    ground_sz: float
    degeneracy: int
    representative: EigenResult


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
    ||H v - E v|| against the undeflated matrix before a pass is accepted,
    at a residual of at most max(tol, 8 eps ||H||_F): round-off alone
    leaves about eps ||H||, so an absolute tol cannot be met where the norm
    is large. The coupling bound that decides when a Ritz pair is formed
    uses the same limit, and the error names the limit that applied.
    Raises ConvergenceError, carrying the best residual, if a level's one
    pass runs out of iterations (_MAX_ITER steps).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n = hamiltonian.dimension
    if n == 0:
        raise ValueError("empty sector")
    k_eff = min(k, n)
    matrix = hamiltonian.matrix
    floor = _RESIDUAL_FLOOR * hamiltonian.norm
    target = f"tol={tol}" if floor <= tol else f"the residual floor 8*eps*||H||_F = {floor:.3e}"
    locked = np.zeros((k_eff, n))
    results = list(found[:k_eff])
    for level, result in enumerate(results):
        locked[level] = result.vector
    for level in range(len(results), k_eff):
        pair, best = _lanczos_ground(matrix, max(tol, floor), locked[:level])
        if pair is None:
            raise ConvergenceError(
                f"Lanczos did not reach {target} within {_MAX_ITER} iterations "
                f"for level {level} of a dimension-{n} sector",
                best,
            )
        locked[level] = pair.vector
        results.append(pair)
    return results


def _project_out(vec: np.ndarray, rows: np.ndarray) -> float:
    """Project ``rows`` out of ``vec`` in place (twice if needed) and
    return the norm of what is left."""
    before = np.linalg.norm(vec)
    if not rows.shape[0]:
        return float(before)
    for _ in range(2):
        vec -= rows.T @ (rows @ vec)
        after = np.linalg.norm(vec)
        if after > 0.5 * before:
            break
        before = after
    return float(after)


def _lanczos_ground(matrix, tol, locked) -> tuple[EigenResult | None, float]:
    """Lowest eigenpair of ``matrix`` on the complement of the locked rows,
    or None, and the smallest true residual of a Ritz pair the pass formed,
    inf if none.

    The Krylov vectors live in a list of ``_BLOCK_ROWS``-row blocks, each
    allocated uninitialized when the previous one fills and never copied or
    resized; the locked rows stay in the caller's ``locked`` array. Every
    new Lanczos vector is projected against the locked rows alone, so
    deflation stays exact, and the three-term recurrence keeps the Krylov
    vectors orthogonal to one another until the bottom Ritz pair converges,
    which is all the pass needs. The three-term update runs in place through
    one scratch vector, so outside the projection a step allocates only the
    product ``matrix @ v``. The bottom Ritz pair is only formed once the
    cheap coupling bound |beta_next * y[-1]| clears the tolerance;
    acceptance then rests on the true residual. A Krylov space that closes
    early (numerically invariant subspace) is accepted at whatever it
    converged to: the seeded Gaussian start has weight on every
    eigendirection apart from a measure-zero accident.
    """
    base, n = locked.shape
    # Seed per pass: reusing one draw across passes leaves the start with
    # zero weight on a degenerate copy whose partner was already locked
    # (its share of the draw is exactly what got locked in).
    rng = np.random.default_rng([_PRIMARY_SEED, base])
    blocks = [np.empty((min(_BLOCK_ROWS, _MAX_ITER + 1), n))]
    start = rng.standard_normal(n, out=blocks[0][0])
    start_norm = _project_out(start, locked)
    if start_norm <= 1e-13:
        return None, np.inf
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
        w_norm = _project_out(w, locked)
        scale = max(scale, abs(a))
        exhausted = base + m >= n
        breakdown = w_norm <= 1e-13 * scale

        if breakdown or exhausted or m % _CHECK_EVERY == 0 or j == _MAX_ITER - 1:
            next_beta = 0.0 if (breakdown or exhausted) else w_norm
            # views of the first m Krylov rows, one per block
            filled = [block[: m - i * _BLOCK_ROWS] for i, block in enumerate(blocks)]
            result, residual = _ritz_bottom(
                matrix, filled, alpha, beta, next_beta, tol, force=breakdown or exhausted
            )
            best = min(best, residual)
            if result is not None:
                return result, residual

        if breakdown or exhausted:
            return None, best
        if m % _BLOCK_ROWS == 0:
            blocks.append(np.empty((min(_BLOCK_ROWS, _MAX_ITER + 1 - m), n)))
        np.divide(w, w_norm, out=blocks[m // _BLOCK_ROWS][m % _BLOCK_ROWS])
        beta.append(w_norm)
        scale = max(scale, w_norm)
        prev = v
    return None, best


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


def _dense(dimension: int, count: int) -> bool:
    """The one dense-versus-Lanczos rule, for a sector and for each of its
    pieces: dense at most _DENSE_CUTOFF states, or where every level is asked for."""
    return dimension <= _DENSE_CUTOFF or count >= dimension


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

    The pieces and the dense-versus-Lanczos rule (``_dense``) are the
    module docstring's: the kind is picked once and every piece of it is
    solved from one list, by _sector_solves, the grid solve that
    ground_state_scan also uses; it raises the first error of its pieces,
    in block order. The levels are the sorted union of the pieces', cut to
    the one ground of a translation block, and a dense piece's array is
    dropped once its values are found. The call takes the first piece, in
    block order, whose bottom lies within max(tol, 8 eps ||H||_F) of the
    lowest level, ||H||_F summed over the pieces' size checks, since
    round-off leaves about eps ||H|| in every level. For a Lanczos piece it
    gives that piece's pair. For a dense one it runs an ``eigh`` on the
    piece ``SectorWorkspace.holder`` names, combined again: the piece
    itself, or for a parity block the block of the reflection and the spin
    inversion that holds it. It gives that solve's bottom pair, written out
    over the plain sector by the holder's ``block.expand``, and the levels
    with that solve's in place of the values-only ones of the blocks it
    spans. A ``tol`` that check_tolerances refuses, or a ``count`` below 1,
    raises ValueError first.

    The top-up call takes a ceiling and returns the levels, sorted: while
    all lie at or below it and some are missing, lanczos_lowest deflates the
    Lanczos piece a level further on its combined matrix or, past
    _LANCZOS_TOP_UP, a sector of at most _DENSE_LIMIT states goes dense.

    Where a Lanczos piece raises ConvergenceError, in the first solve or in
    the top-up, the sector is solved for every level instead if each of its
    parity blocks has at most _DENSE_LIMIT states, else the error is raised;
    the bottom's ``eigh`` then reads a block of R and F, of up to twice that.
    """
    [solve] = _sector_solves(workspace, [model], sz, count, tol)
    if isinstance(solve, Exception):
        raise solve
    return _sector_entry(workspace, model, sz, tol, solve)[:3]


def _parity_blocks_fit(workspace: SectorWorkspace, sz: float) -> bool:
    """Whether each of the sector's parity blocks fits _DENSE_LIMIT; nothing is assembled."""
    lattice = workspace.lattice
    blocks = parity_blocks(workspace.basis(sz), lattice.reflection(), lattice.half_translations())
    return max(block.dimension for block in blocks) <= _DENSE_LIMIT


def _sector_solves(workspace, models, sz, count, tol) -> list:
    """sector_lowest's solves at each model of a grid: the kind of its
    pieces and a _Solved for each piece, in block order; or, in their
    place, the first error of its pieces. The models of one kind share its
    blocks and one coefficient array per part, so a dense block is solved
    for all of them at once by _dense_levels; a Lanczos piece is solved
    model by model, and where it raises ConvergenceError the model's solve
    is the sector's for every level, if its parity blocks fit _DENSE_LIMIT."""
    check_tolerances(tol, 0.0)
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    dim = workspace.basis(sz).dimension
    kinds = [
        "parity" if _dense(dim, count)
        else ground_characters(model, workspace.lattice, sz) if count == 1 else ()
        for model in models
    ]
    solves = [None] * len(models)
    for kind in dict.fromkeys(kinds):
        at = [i for i, other in enumerate(kinds) if other == kind]
        grid = [models[i] for i in at]
        coefficients = grid_coefficients(grid)
        solved = [[] for _ in at]
        for block, parts in workspace.blocks(sz, kind, grid):
            if _dense(block.dimension, count):
                found = _dense_levels(parts, grid, coefficients)
            else:
                found = [_lanczos_levels(SparseHamiltonian(model, block, parts), count, tol)
                         for model in grid]
            for own, piece_found in zip(solved, found):
                own.append(piece_found)
        for i, own in zip(at, solved):
            failure = next((got for got in own if isinstance(got, Exception)), None)
            solves[i] = failure or (kind, own)
            if isinstance(failure, ConvergenceError) and _parity_blocks_fit(workspace, sz):
                [solves[i]] = _sector_solves(workspace, [models[i]], sz, dim, tol)
    return solves


class _Solved(NamedTuple):
    """One piece's solve at one point: its levels, its ||H||_F^2, and for a
    Lanczos piece the piece itself and the pairs lanczos_lowest locked."""

    values: np.ndarray
    square: float
    piece: SparseHamiltonian | None = None
    found: list[EigenResult] | None = None


def _dense_levels(parts, models, coefficients) -> list:
    """A _Solved of eigvalsh of its array for one block at each model of a
    grid, or the error its point raised. The arrays come from dense_stack,
    given ``coefficients``, the grid's, in stacks of at most _STACK_BYTES,
    or one array where one is larger, and each stack is solved by one
    eigvalsh; a point whose size check fails stays out of its stack, and a
    stack whose eigvalsh raises is solved again array by array."""
    dim = next(iter(parts.values())).shape[0]
    step = max(1, _STACK_BYTES // (8 * dim ** 2))
    levels = []
    for start in range(0, len(models), step):
        at = slice(start, start + step)
        stack, squares = dense_stack(parts, {name: c[at] for name, c in coefficients.items()})
        errors = [size_error(model, square) for model, square in zip(models[at], squares)]
        if any(errors):
            stack = stack[[i for i, error in enumerate(errors) if error is None]]
        try:
            values = iter(np.linalg.eigvalsh(stack))
        except (ValueError, RuntimeError, MemoryError):
            values = []
            for array in stack:
                try:
                    values.append(np.linalg.eigvalsh(array))
                except (ValueError, RuntimeError, MemoryError) as failure:
                    values.append(failure)
            values = iter(values)
        for error, square in zip(errors, squares):
            found = error or next(values)
            levels.append(found if isinstance(found, Exception) else _Solved(found, square))
    return levels


def _lanczos_levels(hamiltonian: SparseHamiltonian, count: int, tol: float):
    """The _Solved of lanczos_lowest on one piece, or the error it raised."""
    try:
        results = lanczos_lowest(hamiltonian, k=count, tol=tol)
    except (ValueError, RuntimeError, MemoryError) as failure:
        return failure
    return _Solved(np.array([r.energy for r in results]), hamiltonian.norm ** 2,
                   hamiltonian, results)


def _sector_entry(workspace, model, sz, tol, solve):
    """sector_lowest's (levels, bottom, top_up) from a _sector_solves entry
    that is not a failure, and 8 eps ||H||_F, the round-off in its levels."""
    kind, solved = solve
    whole = kind in ("parity", ())
    dim = workspace.basis(sz).dimension
    levels = np.sort(np.concatenate([own.values for own in solved]))
    # round-off leaves about eps ||H|| in every level, so closer bottoms tie
    floor = _RESIDUAL_FLOOR * math.sqrt(sum(own.square for own in solved))
    pick = next(i for i, own in enumerate(solved) if own.values[0] <= levels[0] + max(tol, floor))

    def bottom() -> tuple[list[float], EigenResult]:
        values, _, hamiltonian, found = solved[pick]
        run = [pick]
        if found is None:
            hamiltonian, run = workspace.holder(model, sz, kind, pick)
            dense = hamiltonian.dense()
            values, vecs = np.linalg.eigh(dense)
            found = [_dense_pair(dense, values, vecs, 0)]
        others = [own.values for i, own in enumerate(solved) if i not in run]
        union = np.sort(np.concatenate([values, *others]))
        vector = hamiltonian.block.expand(found[0].vector)
        return list(map(float, union[: None if whole else 1])), replace(found[0], vector=vector)

    def top_up(ceiling: float) -> list[float]:
        energies, (_, _, hamiltonian, found) = levels, solved[0]
        while found and len(found) < dim and energies[-1] <= ceiling:
            if len(found) >= _LANCZOS_TOP_UP and dim <= _DENSE_LIMIT:
                return sector_lowest(workspace, model, sz, dim, tol)[0]
            try:
                found = lanczos_lowest(hamiltonian, k=len(found) + 1, tol=tol, found=found)
            except ConvergenceError:
                if not _parity_blocks_fit(workspace, sz):
                    raise
                return sector_lowest(workspace, model, sz, dim, tol)[0]
            energies = np.sort([r.energy for r in found])
        return list(map(float, energies))

    shown = levels[: None if whole else 1]
    return list(map(float, shown)), bottom, top_up if whole else None, floor


def ground_state_scan(
    workspace: SectorWorkspace,
    models: Sequence[ModelSpec],
    *,
    tol: float = 1e-10,
    tol_deg: float = 1e-8,
    each: Callable = lambda entry: entry,
) -> list:
    """Scan the workspace's Sz >= 0 sectors for the global ground state and
    its degeneracy at each model of a grid; one model is a grid of one.

    A point's entry is its GroundStateReport, or the ValueError,
    RuntimeError or MemoryError that this point alone raised, the first in
    sector order. Each entry is handed to ``each`` as soon as it is formed,
    before the next point is solved, and the scan returns what ``each``
    gives, one per model; by default that is the entry itself. So a caller
    that keeps only what it reads off each report, as a sweep does, holds
    one representative vector at a time, however long the grid.

    Spin-flip symmetry makes the Sz < 0 sectors mirror images, so they are
    skipped but counted in the degeneracy. Each sector is solved as
    sector_lowest solves it: first every sector that ``_dense`` solves
    densely, for the whole grid at once, so each parity block is combined
    and diagonalized in stacks over the points; then, point by point, the
    other sectors, in sector order. The representative sector is picked
    from a point's levels; only then is its bottom pair formed, its levels
    replaced by the ones that solve gives, and the ground energy taken, so a
    dense point runs one ``eigh``, on one block of the reflection and the
    spin inversion. Then each sector
    solved whole by Lanczos is topped up by the call sector_lowest gave for
    it. GroundStateReport describes the top-up and the
    degenerate-representative rule. A tolerance that check_tolerances
    refuses raises its ValueError first.
    """
    check_tolerances(tol, tol_deg)
    models = list(models)
    sectors = nonnegative_sectors(workspace.spin, workspace.lattice.num_sites)
    stacked = {
        sz: _sector_solves(workspace, models, sz, 1, tol)
        for sz in sectors if _dense(workspace.basis(sz).dimension, 1)
    }
    # Reversed and popped, so a point's solves are dropped once it is done.
    for solves in stacked.values():
        solves.reverse()
    return [
        each(_point_entry(workspace, model, {sz: solves.pop() for sz, solves in stacked.items()},
                          tol, tol_deg))
        for model in models
    ]


def _point_entry(workspace, model, stacked: dict, tol: float, tol_deg: float):
    """One point's GroundStateReport, or the error its first failing sector
    raised, from its _sector_solves entries of the stacked sectors; every
    other sector is solved here, one by one. Nothing of the point's
    solves outlives the call but the report."""
    try:
        solved = {}
        for sz in nonnegative_sectors(workspace.spin, workspace.lattice.num_sites):
            if sz not in stacked:
                [stacked[sz]] = _sector_solves(workspace, [model], sz, 1, tol)
            if isinstance(stacked[sz], Exception):
                raise stacked[sz]
            solved[sz] = _sector_entry(workspace, model, sz, tol, stacked[sz])
        return _point_report(workspace, solved, tol_deg)
    except (ValueError, RuntimeError, MemoryError) as failure:
        return failure


def _point_report(workspace: SectorWorkspace, solved: dict, tol_deg: float) -> GroundStateReport:
    """One point's GroundStateReport from _sector_entry's entry for each sector."""
    per_sector = {sz: levels for sz, (levels, _, _, _) in solved.items()}
    lowest = min(levels[0] for levels in per_sector.values())
    rep_sz = max(sz for sz, levels in per_sector.items() if levels[0] <= lowest + tol_deg)
    per_sector[rep_sz], bottom = solved[rep_sz][1]()
    ground = min(levels[0] for levels in per_sector.values())
    degeneracy = 0
    for sz, (_, _, top_up, floor) in solved.items():
        ceiling = ground + max(tol_deg, floor)
        if top_up and len(per_sector[sz]) < workspace.basis(sz).dimension:
            per_sector[sz] = top_up(ceiling)
        hits = sum(1 for e in per_sector[sz] if e <= ceiling)
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
