import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from spinent import eigensolver, hamiltonian
from spinent.basis import nonnegative_sectors, parity_blocks, plain_block
from spinent.eigensolver import (
    ConvergenceError,
    degeneracy_count,
    dense_lowest,
    lanczos_lowest,
    low_spectrum,
)
from one_point import scan_one
from oracles import reflection_block_ground
from spinent.analysis import shared_workspace
from spinent.checks import sector_ground
from spinent.hamiltonian import ModelSpec, SectorWorkspace, SparseHamiltonian, model_for
from spinent.lattice import chain_lattice


class _FakeHamiltonian:
    """A plain symmetric matrix with the face lanczos_lowest and dense_lowest
    read: ``matrix``, ``dimension`` and ``norm``, its Frobenius norm."""

    def __init__(self, matrix, norm=None):
        self.matrix = matrix
        self.dimension = matrix.shape[0]
        self.norm = sparse.linalg.norm(matrix) if norm is None else norm


def _sector_ham(model, n, sz):
    return SectorWorkspace(model.family, chain_lattice(n)).matrix(model, sz)


def test_flip_matrix_pair():
    flip = _FakeHamiltonian(sparse.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))
    results = dense_lowest(flip, k=2)
    np.testing.assert_allclose([r.energy for r in results], [-1.0, 1.0], atol=1e-14)


def test_two_spin_singlet_energy():
    ham = _sector_ham(ModelSpec("xxz_half", delta=1.0), 2, 0.0)
    assert abs(lanczos_lowest(ham)[0].energy + 0.75) < 1e-12


def test_lanczos_matches_dense_on_a_ring():
    ham = _sector_ham(ModelSpec("xxz_half", delta=1.0), 10, 0.0)
    iterative = lanczos_lowest(ham, k=3)
    direct = dense_lowest(ham, k=3)
    for a, b in zip(iterative, direct):
        assert abs(a.energy - b.energy) < 1e-10
        assert a.residual_norm <= 1e-10


def _clustered(n=60):
    """n levels in a random orthonormal basis: an exact triple at 0, levels
    at 1e-6, 2e-6 and 3e-6, then 1..n-6. Lanczos without reorthogonalization
    against its Krylov basis converges on none of the bottom three."""
    levels = np.concatenate([np.zeros(3), [1e-6, 2e-6, 3e-6], np.arange(1.0, n - 5.0)])
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    mat = q @ np.diag(levels) @ q.T
    return sparse.csr_matrix((mat + mat.T) / 2)


@pytest.mark.parametrize("case", [0, 1, 2])
def test_lanczos_matches_dense_on_random_sparse(case):
    rng = np.random.default_rng(case)
    mat = sparse.random(120, 120, density=0.05, random_state=rng, format="csr")
    mat, k = mat + mat.T, 2  # symmetrize
    ham = _FakeHamiltonian(mat)
    iterative = lanczos_lowest(ham, k=k)
    direct = dense_lowest(ham, k=k)
    for a, b in zip(iterative, direct):
        assert abs(a.energy - b.energy) < 1e-10
        # variational: an iterative level never undershoots the true one
        assert a.energy >= b.energy - 1e-10
    vectors = np.array([r.vector for r in iterative])
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(k), atol=1e-9)


@pytest.mark.parametrize("n", [60, 150])
def test_clustered_levels_fail_with_a_finite_best_residual(n):
    """One pass per level, with no reorthogonalization against its Krylov
    basis, runs out of steps on the clustered bottom: lanczos_lowest raises
    at level 0, quoting the smallest true residual of a Ritz pair it formed,
    finite and above the tolerance."""
    with pytest.raises(ConvergenceError, match="for level 0 of a dimension") as caught:
        lanczos_lowest(_FakeHamiltonian(_clustered(n)), k=3)
    assert 1e-10 < caught.value.best_residual < math.inf


def test_clustered_levels_get_one_pass_and_no_restart(monkeypatch):
    """Each level runs one pass from the primary seed: the random matrix's
    three levels take three passes, and the clustered matrix's level 0, on
    which that pass runs out of steps, raises after its one pass."""
    real = eigensolver._lanczos_ground
    passes = []

    def recording(matrix, tol, locked):
        passes.append(len(locked))
        return real(matrix, tol, locked)

    monkeypatch.setattr(eigensolver, "_lanczos_ground", recording)
    rng = np.random.default_rng(0)
    mat = sparse.random(120, 120, density=0.05, random_state=rng, format="csr")
    lanczos_lowest(_FakeHamiltonian(mat + mat.T), k=3)
    assert passes == [0, 1, 2]
    passes.clear()
    with pytest.raises(ConvergenceError, match="for level 0 of a dimension-60"):
        lanczos_lowest(_FakeHamiltonian(_clustered()), k=3)
    assert passes == [0]


def _record_passes(monkeypatch):
    """Record the Krylov blocks at the last Ritz step of every pass."""
    real_ground, real_ritz = eigensolver._lanczos_ground, eigensolver._ritz_bottom
    passes = []

    def ground(*args):
        passes.append(None)
        return real_ground(*args)

    def ritz(matrix, blocks, *args, **kwargs):
        passes[-1] = [rows.copy() for rows in blocks]
        return real_ritz(matrix, blocks, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "_lanczos_ground", ground)
    monkeypatch.setattr(eigensolver, "_ritz_bottom", ritz)
    return passes


def test_first_pass_runs_across_block_boundaries(monkeypatch):
    """A disordered tight-binding chain (n=3000) whose bottom two levels take
    both first passes past 128 Krylov rows, so the store spans three or more
    64-row blocks; energies still match ARPACK."""
    n = 3000
    rng = np.random.default_rng(1)
    off = np.full(n - 1, -1.0)
    mat = sparse.diags([off, 2.0 + rng.uniform(0.0, 0.5, n), off], [-1, 0, 1], format="csr")
    passes = _record_passes(monkeypatch)
    ours = lanczos_lowest(_FakeHamiltonian(mat), k=2)
    assert len(passes) == 2
    for blocks in passes:
        heights = [len(rows) for rows in blocks]
        assert sum(heights) > 128
        assert heights[:-1] == [64] * (len(heights) - 1)
    v0 = np.random.default_rng(5).standard_normal(n)
    theirs = np.sort(eigsh(mat, k=2, which="SA", tol=1e-14, v0=v0)[0])
    np.testing.assert_allclose([r.energy for r in ours], theirs, rtol=0, atol=1e-10)


def test_a_failing_pass_runs_across_block_boundaries(monkeypatch):
    """The clustered spectrum at n=150: the one pass of level 0 runs out of
    steps after more than two 64-row blocks of Krylov rows, and fills the
    store block by block up to its last Ritz step."""
    passes = _record_passes(monkeypatch)
    with pytest.raises(ConvergenceError, match="for level 0 of a dimension-150"):
        lanczos_lowest(_FakeHamiltonian(_clustered(150)), k=3)
    assert len(passes) == 1
    heights = [len(rows) for rows in passes[0]]
    assert sum(heights) > 128
    assert heights[:-1] == [64] * (len(heights) - 1)


def test_step_matches_the_allocating_recurrence(monkeypatch):
    """The in-place three-term step gives the same alpha and beta, bit for bit,
    as the textbook recurrence on fresh arrays, across a block boundary
    (xxz_half N=16 Sz=0 at delta = -0.95 takes about 100 steps)."""
    ham = _sector_ham(ModelSpec("xxz_half", delta=-0.95), 16, 0.0)
    seen = {}
    real = eigensolver._ritz_bottom

    def ritz(matrix, blocks, alpha, beta, *args, **kwargs):
        seen["alpha"], seen["beta"] = list(alpha), list(beta)
        return real(matrix, blocks, alpha, beta, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "_ritz_bottom", ritz)
    lanczos_lowest(ham)
    steps = len(seen["alpha"])
    assert steps > 64

    rng = np.random.default_rng([eigensolver._PRIMARY_SEED, 0])
    v = rng.standard_normal(ham.dimension)
    v = v / np.linalg.norm(v)
    prev, alpha, beta = None, [], []
    for j in range(steps):
        w = ham.matrix @ v
        alpha.append(float(v @ w))
        w = w - alpha[-1] * v
        if j > 0:
            w = w - beta[-1] * prev
        if j < steps - 1:
            beta.append(float(np.linalg.norm(w)))
            prev, v = v, w / beta[-1]
    assert alpha == seen["alpha"]
    assert beta == seen["beta"]


class _CountingMatrix:
    def __init__(self, matrix):
        self.matrix, self.shape, self.matvecs = matrix, matrix.shape, 0

    def __matmul__(self, vector):
        self.matvecs += 1
        return self.matrix @ vector


def test_krylov_store_peak_memory():
    """One long solve (xxz_half N=16 Sz=0 at delta = -0.95, about 100 steps)
    allocates its Krylov rows in 64-row blocks and copies none of them: the
    traced peak stays within the blocks its steps need plus 16 vectors. A
    store that grows by copying holds a 64-row and a 128-row array at once."""
    ham = _sector_ham(ModelSpec("xxz_half", delta=-0.95), 16, 0.0)
    counting = _CountingMatrix(ham.matrix)
    tracemalloc.start()
    try:
        lanczos_lowest(_FakeHamiltonian(counting, ham.norm))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = counting.matvecs  # Lanczos steps plus residual checks: a bound on the rows
    assert 64 < steps <= 128
    assert peak <= (math.ceil(steps / 64) * 64 + 16) * ham.dimension * 8


def test_degenerate_ground_needs_injected_directions():
    """A Krylov space holds one direction per eigenvalue, so the second and
    third copies of a triple-degenerate ground state come into reach only
    through deflation: one pass per copy, each orthogonal to those locked."""
    diag = np.concatenate([np.zeros(3), np.arange(1.0, 38.0)])
    ham = _FakeHamiltonian(sparse.diags(diag, format="csr"))
    results = lanczos_lowest(ham, k=3)
    np.testing.assert_allclose([r.energy for r in results], 0.0, atol=1e-10)
    vectors = np.array([r.vector for r in results])
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(3), atol=1e-9)


@pytest.mark.parametrize("delta", [-0.95, 8.0])
def test_lanczos_matches_eigsh_on_a_large_sector(delta):
    """xxz_half N=16 Sz=0 (dim 12,870) against ARPACK: at delta = -0.95
    convergence is slowest, at delta = 8 the Neel pair is split by 2.3e-5."""
    ham = _sector_ham(ModelSpec("xxz_half", delta=delta), 16, 0.0)
    assert ham.dimension == 12870
    ours = lanczos_lowest(ham, k=2)
    v0 = np.random.default_rng(5).standard_normal(ham.dimension)
    theirs = np.sort(eigsh(ham.matrix, k=2, which="SA", tol=1e-14, v0=v0)[0])
    np.testing.assert_allclose([r.energy for r in ours], theirs, rtol=0, atol=1e-10)
    for result in ours:
        assert result.residual_norm <= 1e-10


def test_small_sector_exhausts_cleanly():
    ham = _sector_ham(ModelSpec("xxz_half", delta=0.4), 4, 1.0)  # dimension 4
    results = lanczos_lowest(ham, k=4)
    direct = dense_lowest(ham, k=4)
    np.testing.assert_allclose(
        [r.energy for r in results], [r.energy for r in direct], atol=1e-10
    )


def test_k_clipped_to_dimension():
    ham = _sector_ham(ModelSpec("xxz_half", delta=1.0), 2, 0.0)
    assert len(lanczos_lowest(ham, k=5)) == 2


def test_empty_piece_is_refused():
    with pytest.raises(ValueError, match="empty sector"):
        lanczos_lowest(_FakeHamiltonian(sparse.csr_matrix((0, 0))))


def test_single_state_sector():
    ham = _sector_ham(ModelSpec("xxz_half", delta=0.8), 2, 1.0)
    result = lanczos_lowest(ham)[0]
    assert result.residual_norm <= 1e-10
    assert abs(result.energy - 0.2) < 1e-14


def test_unconverged_solve_raises_with_best_residual(monkeypatch):
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((60, 60))
    ham = _FakeHamiltonian(sparse.csr_matrix(mat + mat.T))
    monkeypatch.setattr(eigensolver, "_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as caught:
        lanczos_lowest(ham)
    assert caught.value.best_residual > 0.0
    assert re.fullmatch(r"Lanczos did not reach tol=1e-10 within 3 iterations for level 0 "
                        r"of a dimension-60 sector \(best residual \S+\)", str(caught.value))


def test_deterministic_restarts():
    ham = _sector_ham(ModelSpec("xxz_half", delta=1.0), 10, 1.0)
    first = lanczos_lowest(ham)[0]
    second = lanczos_lowest(ham)[0]
    assert first.energy == second.energy
    assert np.array_equal(first.vector, second.vector)


def test_dense_oracle_guards():
    with pytest.raises(ValueError):
        dense_lowest(_FakeHamiltonian(sparse.csr_matrix((4001, 4001))))
    with pytest.raises(ValueError):
        dense_lowest(_FakeHamiltonian(sparse.csr_matrix(np.eye(2))), k=0)
    with pytest.raises(ValueError):
        lanczos_lowest(_FakeHamiltonian(sparse.csr_matrix(np.eye(2))), k=0)


@pytest.mark.parametrize("n", [10, 12, 16])
def test_scans_and_checks_share_one_dispatch(n):
    """The check battery's Sz=0 ground is the scan's own sector solve, bit
    for bit: dense in full at N=10 (252 states), in the translation block at
    N=12 and 16. Small sectors are diagonalized densely in full; a block
    gives the sector's ground alone."""
    workspace = shared_workspace("xxz_half", "chain", n)
    model = model_for("xxz_half", 0.5)
    report = scan_one(workspace, model)
    checked, basis = sector_ground("xxz_half", n, 0.5)
    assert report.ground_sz == 0.0
    assert basis is workspace.basis(report.ground_sz)
    assert checked.energy == report.representative.energy
    assert np.array_equal(checked.vector, report.representative.vector)
    assert len(report.per_sector_energies[0.0]) == (252 if n == 10 else 1)
    assert len(report.per_sector_energies[n / 2 - 1]) == n


def test_checks_solve_the_whole_sector_where_perron_frobenius_fails():
    theta = 1.25 * np.pi
    ham = shared_workspace("blbq", "chain", 8).matrix(model_for("blbq", theta), 0.0)
    expected = lanczos_lowest(ham)[0]
    checked, basis = sector_ground("blbq", 8, theta)
    assert basis.dimension == ham.dimension == 1107
    assert checked.energy == expected.energy
    assert np.array_equal(checked.vector, expected.vector)


def _whole_spectrum_ground(model, workspace):
    """Ground energy and vector by eigh on every sector, the lowest sector
    winning; only for points whose ground sector is unique."""
    lowest = []
    for sz in nonnegative_sectors(workspace.spin, workspace.lattice.num_sites):
        vals, vecs = np.linalg.eigh(workspace.matrix(model, sz).matrix.toarray())
        lowest.append((vals[0], sz, vecs[:, 0]))
    lowest.sort(key=lambda entry: entry[0])
    assert lowest[1][0] - lowest[0][0] > 1e-6
    return lowest[0]


@pytest.mark.parametrize(
    "family,size,params",
    [
        ("blbq", 6, np.linspace(-0.6, 1.2, 7)),
        ("blbq", 6, np.linspace(4.0, 6.2, 5)),
        ("xxz_half", 10, (-0.5, 0.0, 0.5, 1.0, 2.0)),
        ("xxz_one", 6, (0.5, 1.0, 1.8)),
    ],
)
def test_all_dense_scan_runs_one_eigh_per_point(family, size, params, monkeypatch):
    """Every sector is dense, so every parity block is solved values-only;
    only the reflection block (under R and F alone) that holds the ground
    gets eigenvectors, and the ground energy and vector equal those of eigh
    on every such block, bit for bit, and those of eigh on every whole
    sector to round-off."""
    workspace = SectorWorkspace(family, chain_lattice(size))
    calls = []
    real_eigh = np.linalg.eigh

    def eigh(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return real_eigh(matrix, *args, **kwargs)

    for param in params:
        model = model_for(family, param)
        energy, sz, block_dim, vector = reflection_block_ground(family, workspace.lattice, model)
        whole_energy, whole_sz, whole_vector = _whole_spectrum_ground(model, workspace)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", eigh)
            report = scan_one(workspace, model)
        assert calls == [block_dim] and block_dim < workspace.basis(sz).dimension
        assert report.ground_sz == sz == whole_sz
        assert report.ground_energy == energy
        assert np.array_equal(report.representative.vector, vector)
        assert abs(energy - whole_energy) < 1e-12
        assert abs(abs(vector @ whole_vector) - 1.0) < 1e-12


def test_odd_ring_representative_is_a_reflection_eigenstate():
    """N = 9, where the ground of the Sz = 1/2 sector is a momentum pair
    that the reflection swaps: the representative is the bottom of one
    parity block, so R v = +v or -v, and of the first block in the fixed
    order, R = +1, since the two blocks' bottoms tie."""
    lattice = chain_lattice(9)
    workspace = SectorWorkspace("xxz_half", lattice)
    for delta in (-0.5, 0.5, 1.0):
        report = scan_one(workspace, ModelSpec("xxz_half", delta=delta))
        assert report.degeneracy == 4 and report.ground_sz == 0.5
        basis, vector = workspace.basis(report.ground_sz), report.representative.vector
        mirrored = np.zeros_like(basis.states)
        for site, image in enumerate(lattice.reflection()):
            mirrored |= ((basis.states >> site) & 1) << image
        reflected = np.zeros_like(vector)
        reflected[np.searchsorted(basis.states, mirrored)] = vector
        np.testing.assert_allclose(reflected, vector, rtol=0, atol=1e-12)


def test_representative_at_a_large_norm_comes_from_the_first_parity_block():
    """xxz_half N=8 at delta = 1e152: the Neel pair spans the first two
    reflection blocks, (R, F) = (+1, +1) and (+1, -1), and its splitting is
    far below the round-off of about 1e136 in every level. Bottoms are
    compared at max(tol, 8 eps ||H||_F), so the pick is the first block in
    order, not whichever round-off put lower: the representative is even
    under the spin inversion and bitwise eigh's bottom of that block."""
    lattice = chain_lattice(8)
    workspace = SectorWorkspace("xxz_half", lattice)
    model = model_for("xxz_half", 1e152)
    report = scan_one(workspace, model)
    assert report.ground_sz == 0.0
    floor = eigensolver._RESIDUAL_FLOOR * workspace.matrix(model, 0.0).norm
    assert floor > 1e130
    energy, sz, _, vector = reflection_block_ground("xxz_half", lattice, model, tol=floor)
    assert sz == 0.0 and np.array_equal(report.representative.vector, vector)
    assert report.degeneracy == 2
    basis = workspace.basis(0.0)
    flipped = np.searchsorted(basis.states, (1 << 8) - 1 - basis.states)
    np.testing.assert_allclose(vector[flipped], vector, rtol=0, atol=1e-12)


def test_a_pair_split_by_round_off_counts_twice():
    """xxz_half N=8 at delta = 1e12: the Neel pair's Sz=0 levels differ by
    round-off alone, 5e-4, far outside tol_deg = 1e-8, while the true
    splitting is of order delta^-3. Levels count within max(tol_deg,
    8 eps ||H||_F) of the ground, so the pair counts twice."""
    workspace = SectorWorkspace("xxz_half", chain_lattice(8))
    model = model_for("xxz_half", 1e12)
    report = scan_one(workspace, model)
    first, second = report.per_sector_energies[0.0][:2]
    floor = eigensolver._RESIDUAL_FLOOR * workspace.matrix(model, 0.0).norm
    assert 1e-8 < second - first <= floor
    assert report.degeneracy == 2


def test_scan_ferromagnet_is_doubly_degenerate():
    """Deep in the ferromagnetic phase only the two polarized states are
    ground states; anisotropy splits the rest of the would-be multiplet."""
    workspace = SectorWorkspace("xxz_half", chain_lattice(8))
    report = scan_one(workspace, ModelSpec("xxz_half", delta=-2.0))
    assert report.ground_sz == 4.0
    assert report.degeneracy == 2
    assert abs(report.ground_energy - (-4.0)) < 1e-12
    assert workspace.basis(report.ground_sz).sz_sector == 4.0
    assert abs(np.linalg.norm(report.representative.vector) - 1.0) < 1e-12


def test_scan_boundary_point_recovers_full_multiplet():
    # at delta = -1 the spectrum maps onto the isotropic point, so the
    # polarized states join an S_total = 4 multiplet: 2S+1 = 9 members
    workspace = SectorWorkspace("xxz_half", chain_lattice(8))
    report = scan_one(workspace, ModelSpec("xxz_half", delta=-1.0))
    assert report.degeneracy == 9
    assert abs(report.ground_energy - (-2.0)) < 1e-12


def test_scan_gapless_point_is_unique():
    workspace = SectorWorkspace("xxz_half", chain_lattice(8))
    report = scan_one(workspace, ModelSpec("xxz_half", delta=0.5))
    assert report.ground_sz == 0.0
    assert report.degeneracy == 1
    assert set(report.per_sector_energies) == set(nonnegative_sectors("half", 8))


@pytest.mark.parametrize(
    "tol,tol_deg,message",
    [
        (math.nan, 1e-8, r"need finite tol > 0, got nan$"),
        (-1.0, 1e-8, r"need finite tol > 0, got -1.0$"),
        (1e-10, -1.0, r"need finite tol_deg >= 0, got -1.0$"),
        (1e-10, math.inf, r"need finite tol_deg >= 0, got inf$"),
    ],
    ids=["tol-nan", "tol-negative", "tol_deg-negative", "tol_deg-inf"],
)
def test_scan_refuses_tolerances_that_check_tolerances_refuses(tol, tol_deg, message):
    """A bad tol used to escape as a bare StopIteration, a negative window
    as "max() arg is an empty sequence", and an infinite one reported every
    state of the ring as ground. Each message names only the argument at
    fault."""
    workspace = SectorWorkspace("xxz_half", chain_lattice(8))
    with pytest.raises(ValueError, match=message):
        scan_one(workspace, ModelSpec("xxz_half", delta=0.5), tol=tol, tol_deg=tol_deg)


@pytest.mark.parametrize(
    "size,count,tol,message",
    [
        (8, 1, math.nan, "need finite tol > 0"),
        (8, 1, -1.0, "need finite tol > 0"),
        (8, 0, 1e-10, "need count >= 1, got 0"),
        (12, 2, math.nan, "need finite tol > 0"),
        (12, 2, -1.0, "need finite tol > 0"),
        (12, 0, 1e-10, "need count >= 1, got 0"),
    ],
    ids=["dense-tol-nan", "dense-tol-negative", "dense-count-0",
         "lanczos-tol-nan", "lanczos-tol-negative", "lanczos-count-0"],
)
def test_sector_solve_refuses_bad_input_before_assembly(size, count, tol, message, monkeypatch):
    """On the Sz=0 sector of the N=8 ring (70 states, dense) and of the N=12
    ring (924 states, Lanczos for two levels), a bad tol used to escape as a
    bare StopIteration and count 0 returned all 70 levels or raised from
    lanczos_lowest; both are now refused before anything is assembled."""
    workspace = SectorWorkspace("xxz_half", chain_lattice(size))

    def refuse(*args, **kwargs):
        raise AssertionError("a block was assembled")

    monkeypatch.setattr(hamiltonian, "assemble_parts", refuse)
    with pytest.raises(ValueError, match=message):
        eigensolver.sector_lowest(workspace, ModelSpec("xxz_half", delta=0.5), 0.0, count, tol)


@pytest.mark.parametrize(
    "family,size,param",
    [("xxz_half", 12, 0.5), ("xxz_half", 16, 1.0), ("xxz_one", 8, 1.0), ("blbq", 8, 6.0)],
)
def test_low_spectrum_of_one_level_is_the_first_of_two(family, size, param):
    """One level reads each large sector's translation block, where
    Perron-Frobenius puts the sector's ground; two read the whole sector."""
    workspace = SectorWorkspace(family, chain_lattice(size))
    model = model_for(family, param)
    (one,) = low_spectrum(workspace, model, 1)
    two = low_spectrum(workspace, model, 2)
    assert one[1] == two[0][1]
    assert abs(one[0] - two[0][0]) <= 1e-12


def test_scan_blbq_ferro_arc_is_flagged():
    workspace = SectorWorkspace("blbq", chain_lattice(6))
    report = scan_one(workspace, ModelSpec("blbq", theta=np.pi))
    assert report.degeneracy == 13  # S_total = 6 multiplet


@pytest.mark.parametrize(
    "model,size,expected",
    [
        (ModelSpec("blbq", theta=1.25 * np.pi), 8, 45),
        (ModelSpec("xxz_half", delta=1.0), 13, 4),
    ],
    ids=["blbq-5pi/4", "odd-ring"],
)
def test_scan_counts_every_member_in_large_sectors(model, size, expected):
    """Both points fail the Perron-Frobenius test. At blbq theta = 5pi/4 the
    SU(3) ferromagnet's 45 ground states put five in the Lanczos-sized Sz=0
    sector and four each in Sz = 1 and 2; the odd ring's two momenta put two
    in Sz = 1/2. Each such sector is deflated until a level clears the
    window, so the scan agrees with low_spectrum."""
    workspace = SectorWorkspace(model.family, chain_lattice(size))
    report = scan_one(workspace, model)
    levels = low_spectrum(workspace, model, expected + 5)
    assert degeneracy_count([e for e, _ in levels], 1e-8)[0] == expected
    assert report.degeneracy == expected


def test_degenerate_lanczos_sectors_are_topped_up_densely(monkeypatch):
    """blbq theta = pi/2, L = 8: the SU(3) point where 512 levels of the
    1,107-state Sz=0 sector sit within the window. Each Lanczos sector is
    topped up by Lanczos one level at a time, each call going on from the
    levels the one before found, to four levels, all in the window, and
    then read whole from a values-only dense solve, which counts what
    eigvalsh of every sector counts."""
    model, lattice = ModelSpec("blbq", theta=np.pi / 2), chain_lattice(8)
    workspace = SectorWorkspace("blbq", lattice)
    calls = []
    real_lanczos = eigensolver.lanczos_lowest

    def lanczos(ham, k=1, found=(), **kwargs):
        calls.append((ham.dimension, k, len(found)))
        return real_lanczos(ham, k, found=found, **kwargs)

    monkeypatch.setattr(eigensolver, "lanczos_lowest", lanczos)
    report = scan_one(workspace, model)
    expected = 0
    for sz in nonnegative_sectors("one", 8):
        vals = np.linalg.eigvalsh(workspace.matrix(model, sz).matrix.toarray())
        expected += int(np.sum(vals <= report.ground_energy + 1e-8)) * (2 if sz else 1)
    assert report.degeneracy == expected == 2207
    dims = [1107, 1016, 784, 504]
    assert calls == [(dim, 1, 0) for dim in dims] + [
        (dim, k, k - 1) for dim in dims for k in (2, 3, 4)
    ]


def test_degenerate_top_up_combines_its_dense_arrays_from_the_parts(monkeypatch):
    """blbq theta = pi/2, L = 8: the small sectors' parity blocks are
    combined in the first pass, and the reflection block that holds the
    representative (Sz = 8) for its eigh; each Lanczos sector's top-up then asks
    sector_lowest for every level once four sit in the window, so its parity
    blocks' arrays also come from combine_dense, once per sector, and no
    array of a whole Lanczos sector is formed."""
    calls = []
    real = hamiltonian.combine_dense

    def combine_dense(parts, coefficients):
        total = real(parts, coefficients)
        points, dim, _ = total.shape
        assert points == 1
        calls.append(dim)
        return total

    monkeypatch.setattr(hamiltonian, "combine_dense", combine_dense)
    workspace = SectorWorkspace("blbq", chain_lattice(8))
    report = scan_one(workspace, ModelSpec("blbq", theta=np.pi / 2))
    assert report.degeneracy == 2207
    # Sz = 4 .. 8: 266, 112, 36, 8, 1
    small = [77, 64, 61, 64, 32, 28, 24, 28, 13, 8, 7, 8, 3, 2, 1, 2, 1]
    # Sz = 0 .. 3: 1107, 1016, 784, 504
    topped_up = [166, 126, 132, 146, 136, 126, 129, 146, 267, 254, 241, 254,
                 214, 192, 186, 192, 135, 126, 117, 126]
    assert calls == small + [1] + topped_up


# theta next to the SU(3) point pi/2, where Lanczos runs out of steps on
# the nearly degenerate bottom of blbq L=8's sectors, and the degeneracy
# that eigvalsh of every sector gives.
_NEAR_SU3 = [(np.pi / 2 + 1e-6, 17), (np.pi / 2 + 1e-4, 17), (1.570796325, 752)]


@pytest.mark.parametrize("theta,degeneracy", _NEAR_SU3)
def test_a_failed_lanczos_sector_is_solved_densely_on_its_parity_blocks(theta, degeneracy):
    """Where Lanczos fails on a sector, the sector is solved again for
    every level, densely on its parity blocks, which all fit _DENSE_LIMIT.
    The ground energy is that of eigvalsh of the plain sectors to 1e-10,
    and the degeneracy is what it counts."""
    model = model_for("blbq", theta)
    workspace = SectorWorkspace("blbq", chain_lattice(8))
    with pytest.raises(ConvergenceError, match="of a dimension-1107 sector"):
        lanczos_lowest(workspace.matrix(model, 0.0), k=2)
    report = scan_one(workspace, model)
    spectra = {sz: np.linalg.eigvalsh(workspace.matrix(model, sz).dense())
               for sz in nonnegative_sectors("one", 8)}
    ground = min(values[0] for values in spectra.values())
    assert abs(report.ground_energy - ground) <= 1e-10
    counted = sum(int(np.sum(values <= ground + 1e-8)) * (2 if sz else 1)
                  for sz, values in spectra.items())
    assert report.degeneracy == counted == degeneracy


@pytest.mark.parametrize("theta,level", [(np.pi / 2 + 1e-6, 0), (1.570796325, 1)])
def test_the_dense_rescue_stops_at_the_dense_limit(theta, level, monkeypatch):
    """blbq L=8's Sz=0 sector (1,107 states), whose Lanczos solve fails in
    sector_lowest's first solve (level 0) or in its top-up (level 1). Its
    parity blocks fit _DENSE_LIMIT, so the sector is solved again for
    every level, to eigvalsh of the whole sector. With _DENSE_LIMIT one
    below the largest block, the ConvergenceError lanczos_lowest raises
    reaches the caller unchanged."""
    model, lattice = model_for("blbq", theta), chain_lattice(8)
    workspace = SectorWorkspace("blbq", lattice)

    def every_level():
        _, _, top_up = eigensolver.sector_lowest(workspace, model, 0.0)
        return top_up(math.inf)

    with pytest.raises(ConvergenceError, match=f"for level {level} of a dimension-1107") as direct:
        lanczos_lowest(workspace.matrix(model, 0.0), k=level + 1)
    exact = np.linalg.eigvalsh(workspace.matrix(model, 0.0).dense())
    np.testing.assert_allclose(every_level(), exact, rtol=0, atol=1e-10)
    blocks = parity_blocks(workspace.basis(0.0), lattice.reflection(), lattice.half_translations())
    monkeypatch.setattr(eigensolver, "_DENSE_LIMIT", max(b.dimension for b in blocks) - 1)
    with pytest.raises(ConvergenceError) as caught:
        every_level()
    assert str(caught.value) == str(direct.value)
    assert caught.value.best_residual == direct.value.best_residual


@pytest.mark.parametrize("size,lucas", [(3, 18), (4, 47), (5, 123), (6, 322), (7, 843),
                                        (8, 2207), (9, 5778)])
def test_the_su3_point_degeneracy_is_the_lucas_number(size, lucas):
    """At theta = pi/2 the ring has L + sum_i e_i, e_i three times the bond
    singlet projector: Temperley-Lieb generators of loop weight
    3 = q + 1/q, q = (3 + sqrt 5) / 2. Each e_i >= 0, so the ground states
    are their common kernel, at energy L, of q^L + q^-L states: the Lucas
    number L_{2L}."""
    report = scan_one(SectorWorkspace("blbq", chain_lattice(size)), model_for("blbq", np.pi / 2))
    q = (3 + math.sqrt(5)) / 2
    assert abs(report.ground_energy - size) <= 1e-9
    assert report.degeneracy == lucas == round(q ** size + q ** -size)


def test_lanczos_goes_on_from_the_levels_it_was_given(monkeypatch):
    """The plain Sz=0 piece of blbq L=8 at theta = pi/4 (1,107 states, a
    degenerate ground): four levels asked for with two given are the four
    of a fresh call, bit for bit in energies, residuals and vectors, and
    only the two new levels run a Lanczos pass. Given more than ``k``
    levels, the call keeps the first ``k`` and runs none."""
    model = ModelSpec("blbq", theta=np.pi / 4)
    ham = SectorWorkspace("blbq", chain_lattice(8)).matrix(model, 0.0)
    assert ham.dimension == 1107
    fresh = lanczos_lowest(ham, 4)
    two = lanczos_lowest(ham, 2)
    assert abs(fresh[1].energy - fresh[0].energy) <= 1e-8
    passes = []
    real = eigensolver._lanczos_ground

    def counting(matrix, tol, locked):
        passes.append(len(locked))
        return real(matrix, tol, locked)

    monkeypatch.setattr(eigensolver, "_lanczos_ground", counting)
    four = lanczos_lowest(ham, 4, found=two)
    assert passes == [2, 3]
    assert four[:2] == two
    for ours, theirs in zip(four, fresh, strict=True):
        assert ours.energy == theirs.energy
        assert ours.residual_norm == theirs.residual_norm
        assert np.array_equal(ours.vector, theirs.vector)
    assert lanczos_lowest(ham, 1, found=four) == four[:1]
    assert len(passes) == 2


# (model, lattice, Lanczos passes, combine_parts calls, dense switches) of a
# warmed scan: each whole Lanczos sector combines once, and its top-up runs
# one pass per level it adds.
_TOP_UP_SCANS = [
    (ModelSpec("blbq", theta=0.3), chain_lattice(8), 5, 4, 0),
    (ModelSpec("blbq", theta=np.pi / 4), chain_lattice(8), 8, 4, 0),
    (ModelSpec("blbq", theta=1.25 * np.pi), chain_lattice(8), 16, 4, 3),
    (ModelSpec("blbq", theta=np.pi / 2), chain_lattice(8), 16, 4, 4),
    (ModelSpec("xxz_half", delta=1.0), chain_lattice(13), 5, 3, 0),
    (ModelSpec("xxz_one", delta=1.0, beta=-0.2), chain_lattice(10), 8, 7, 0),
]
_TOP_UP_IDS = ["blbq-0.3", "blbq-pi/4", "blbq-5pi/4", "blbq-pi/2", "odd-ring", "xxz_one-beta"]


@pytest.mark.parametrize("model,lattice,passes,combines,_", _TOP_UP_SCANS, ids=_TOP_UP_IDS)
def test_a_top_up_combines_once_and_solves_each_level_once(
    model, lattice, passes, combines, _, monkeypatch
):
    """Every Lanczos pass of a warmed scan runs inside the
    ``eigensolver.lanczos_lowest`` binding, the top-up's too, and the scan
    makes one pass per level and one combine_parts call per Lanczos sector."""
    workspace = SectorWorkspace(model.family, lattice)
    scan_one(workspace, model)
    counts = {"inside": 0, "outside": 0, "combine": 0}
    depth = []
    real_lowest, real_ground = eigensolver.lanczos_lowest, eigensolver._lanczos_ground
    real_combine = hamiltonian.combine_parts

    def lowest(*args, **kwargs):
        depth.append(1)
        try:
            return real_lowest(*args, **kwargs)
        finally:
            depth.pop()

    def ground(*args):
        counts["inside" if depth else "outside"] += 1
        return real_ground(*args)

    def combine(*args):
        counts["combine"] += 1
        return real_combine(*args)

    monkeypatch.setattr(eigensolver, "lanczos_lowest", lowest)
    monkeypatch.setattr(eigensolver, "_lanczos_ground", ground)
    monkeypatch.setattr(hamiltonian, "combine_parts", combine)
    scan_one(workspace, model)
    assert counts == {"inside": passes, "outside": 0, "combine": combines}


@pytest.mark.parametrize("model,lattice,_,__,switches", _TOP_UP_SCANS, ids=_TOP_UP_IDS)
def test_a_scan_enters_sector_lowest_once_per_sector_and_dense_switch(
    model, lattice, _, __, switches, monkeypatch
):
    """The top-up goes on from the first solve instead of solving its sector
    again: sector_lowest's solve is entered once per sector, the dense
    sectors' for the scan's whole grid and the others' through
    sector_lowest, and once more, for every level, where a top-up switches
    to a dense solve."""
    workspace = SectorWorkspace(model.family, lattice)
    counts = []
    real = eigensolver._sector_solves

    def solves(workspace, models, sz, count, tol):
        counts.append(count)
        return real(workspace, models, sz, count, tol)

    monkeypatch.setattr(eigensolver, "_sector_solves", solves)
    scan_one(workspace, model)
    sectors = nonnegative_sectors(workspace.spin, lattice.num_sites)
    assert counts.count(1) == len(sectors)
    assert len(counts) == len(sectors) + switches


def test_asking_for_every_level_solves_densely(monkeypatch):
    """sector_lowest is the one switch: asked for as many levels as a sector
    above the dense cutoff holds (xxz_half N=12 Sz=2, 495 states), it gives
    the union of eigvalsh of its parity blocks' arrays, bit for bit, which is
    eigvalsh of the whole array to round-off. It runs no Lanczos and
    assembles no plain block, and its pair is eigh's bottom of the
    reflection block that holds the first parity block whose bottom is the
    lowest level, written out over the plain sector; its levels are that
    eigh's values and the other reflection blocks' parity-block values."""
    model = ModelSpec("xxz_half", delta=0.5)
    workspace = SectorWorkspace("xxz_half", chain_lattice(12))
    dim = workspace.basis(2.0).dimension
    assert dim == 495 > eigensolver._DENSE_CUTOFF

    def refuse(*args, **kwargs):
        raise AssertionError("Lanczos ran or a plain block was built")

    with monkeypatch.context() as patch:
        patch.setattr(eigensolver, "lanczos_lowest", refuse)
        patch.setattr(hamiltonian, "plain_block", refuse)
        levels, pair, _ = eigensolver.sector_lowest(workspace, model, 2.0, count=dim)
        found_levels, found = pair()
    pieces = workspace.pieces(model, 2.0, "parity")
    spectra = [np.linalg.eigvalsh(ham.dense()) for ham in pieces]
    assert levels == list(np.sort(np.concatenate(spectra)))
    whole = np.linalg.eigvalsh(workspace.matrix(model, 2.0).dense())
    np.testing.assert_allclose(levels, whole, rtol=0, atol=1e-12)
    first = next(i for i, values in enumerate(spectra) if values[0] <= levels[0] + 1e-10)
    own = pieces[first].block.characters
    holders = [ham for ham in workspace.pieces(model, 2.0, "reflection")
               if own[: len(ham.block.characters)] == ham.block.characters]
    assert len(holders) == 1 and holders[0].dimension > pieces[first].dimension
    ham = holders[0]
    vals, vecs = np.linalg.eigh(ham.dense())
    assert found.energy == vals[0] == found_levels[0]
    assert np.array_equal(found.vector, ham.block.expand(vecs[:, 0]))
    assert found.vector.shape == (dim,)
    run = [values for piece, values in zip(pieces, spectra)
           if piece.block.characters[: len(ham.block.characters)] != ham.block.characters]
    assert found_levels == list(np.sort(np.concatenate([vals, *run])))


@pytest.mark.parametrize(
    "family,size,param,sz",
    [("xxz_half", 10, 0.5, 1.0), ("xxz_half", 9, 1.0, 1.5), ("blbq", 6, 0.3, 1.0)],
)
def test_low_spectrum_lists_the_scan_levels_of_a_dense_sector(family, size, param, sz):
    """low_spectrum and the scan solve a dense sector alike, as its parity
    blocks, values only, so a sector that does not represent the point
    lists the levels the scan reports for it, bit for bit."""
    workspace = SectorWorkspace(family, chain_lattice(size))
    model = model_for(family, param)
    report = scan_one(workspace, model)
    assert report.ground_sz != sz
    assert workspace.basis(sz).dimension <= eigensolver._DENSE_CUTOFF
    states = workspace.basis(sz).local_dim ** size
    levels = low_spectrum(workspace, model, states)
    assert len(levels) == states
    listed = sorted(energy for energy, label in levels if label == sz)
    assert listed == list(report.per_sector_energies[sz])


def test_low_spectrum_trims_and_sorts():
    workspace = SectorWorkspace("xxz_half", chain_lattice(4))
    levels = low_spectrum(workspace, ModelSpec("xxz_half", delta=0.5), 6)
    assert len(levels) == 6
    energies = [e for e, _ in levels]
    assert energies == sorted(energies)


def test_low_spectrum_mirrors_sectors():
    workspace = SectorWorkspace("xxz_half", chain_lattice(4))
    levels = low_spectrum(workspace, ModelSpec("xxz_half", delta=0.5), 16)
    by_sz = {}
    for e, sz in levels:
        by_sz.setdefault(sz, []).append(round(e, 9))
    assert by_sz[1.0] == by_sz[-1.0]


def test_low_spectrum_blbq_transition_multiplet():
    """First excited manifold at the pure negative-biquadratic point is
    exactly 8-fold."""
    workspace = SectorWorkspace("blbq", chain_lattice(6))
    levels = low_spectrum(workspace, ModelSpec("blbq", theta=1.5 * np.pi), 12)
    clusters = degeneracy_count([e for e, _ in levels], 1e-6)
    assert clusters[0] == 1
    assert clusters[1] == 8


def test_spectrum_listing_ignores_round_off(monkeypatch):
    """At blbq L=8, theta = 3pi/2 the manifold at -19.7967 straddles a 20-level
    cut. Nudging every sector energy by +-1e-13 must not change which members
    are listed, their Sz labels or the cluster sizes."""
    workspace = SectorWorkspace("blbq", chain_lattice(8))
    model = ModelSpec("blbq", theta=1.5 * np.pi)

    def listing():
        levels = low_spectrum(workspace, model, 20)
        energies = [e for e, _ in levels]
        return energies, [sz for _, sz in levels], degeneracy_count(energies, 1e-8)

    energies, labels, clusters = listing()
    assert clusters == [1, 1, 8, 10]
    real_lanczos, real_eigvalsh = eigensolver.lanczos_lowest, np.linalg.eigvalsh
    for signs in ([1.0], [-1.0], [1.0, -1.0], [-1.0, 1.0, 1.0]):
        cycle = itertools.cycle(signs)

        def nudged_lanczos(*args, **kwargs):
            results = real_lanczos(*args, **kwargs)
            for result in results:
                result.energy += 1e-13 * next(cycle)
            return results

        def nudged_eigvalsh(matrix):
            values = real_eigvalsh(matrix)
            return values + 1e-13 * np.array([next(cycle) for _ in values])

        monkeypatch.setattr(eigensolver, "lanczos_lowest", nudged_lanczos)
        monkeypatch.setattr(np.linalg, "eigvalsh", nudged_eigvalsh)
        got_energies, got_labels, got_clusters = listing()
        assert got_labels == labels
        assert got_clusters == clusters
        np.testing.assert_allclose(got_energies, energies, rtol=0, atol=1e-12)


def test_degeneracy_count_windows():
    assert degeneracy_count([-1.0, -1.0 + 1e-12, 0.0], 1e-9) == [2, 1]
    assert degeneracy_count([0.0], 1e-9) == [1]
    assert degeneracy_count([], 1e-9) == []
    assert degeneracy_count([0.0, 1e-7, 1.0], 1e-6) == [2, 1]
    # members of one cluster may be listed out of energy order
    assert degeneracy_count([-1.0 + 1e-12, -1.0, 0.0], 1e-9) == [2, 1]
    with pytest.raises(ValueError):
        degeneracy_count([1.0, 0.0], 1e-9)


def test_low_spectrum_rejects_bad_level_count():
    with pytest.raises(ValueError):
        low_spectrum(SectorWorkspace("xxz_half", chain_lattice(4)), ModelSpec("xxz_half"), 0)


@pytest.mark.parametrize(
    "family,size,first,second",
    [("xxz_half", 12, 0.5, 1.3), ("xxz_one", 8, 1.0, 0.4), ("blbq", 6, 0.3, 4.0)],
)
def test_one_workspace_assembles_each_sector_once(family, size, first, second, monkeypatch):
    """The workspace is the one handle every solve takes: once a scan and a
    low_spectrum have run on it, both run again at a new parameter without
    assembling a single stencil part."""
    workspace = SectorWorkspace(family, chain_lattice(size))
    calls = []
    real = hamiltonian.assemble_parts

    def assemble_parts(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hamiltonian, "assemble_parts", assemble_parts)
    scan_one(workspace, model_for(family, first))
    low_spectrum(workspace, model_for(family, first), 8)
    assert calls
    calls.clear()
    scan_one(workspace, model_for(family, second))
    low_spectrum(workspace, model_for(family, second), 8)
    assert calls == []


def test_a_model_of_another_family_is_refused():
    """blbq and xxz_one share the spin-1 bases, so only the workspace's
    family check tells them apart."""
    workspace = SectorWorkspace("blbq", chain_lattice(6))
    model = model_for("xxz_one", 1.0)
    with pytest.raises(ValueError, match="workspace built for 'blbq', got model 'xxz_one'"):
        scan_one(workspace, model)
    with pytest.raises(ValueError, match="workspace built for 'blbq', got model 'xxz_one'"):
        low_spectrum(workspace, model, 4)


_TOO_LARGE = "overflows: its entries are too large for a solve to stay finite"


def test_lanczos_overflow_is_a_value_error_naming_the_matrix():
    """The entries of xxz_one L=8 at delta = 1e306 are finite, but the norm
    of a first Lanczos vector would overflow. The piece refuses to combine,
    densely or as CSR, and so lanczos_lowest refuses it too: a ValueError
    naming the model, raised without a numpy warning. The same matrix scaled
    down solves."""
    workspace = SectorWorkspace("xxz_one", chain_lattice(8))
    model = ModelSpec("xxz_one", delta=1e306, beta=-0.2)
    ham = workspace.matrix(model, 0.0)
    message = re.escape(f"the Hamiltonian of xxz_one delta=1e+306 beta=-0.2 {_TOO_LARGE}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: ham.matrix, ham.dense, lambda: lanczos_lowest(ham)):
            with pytest.raises(ValueError, match=message):
                solve()
    huge = hamiltonian.combine_parts(workspace.sector(0.0)[1], model.part_coefficients())
    assert lanczos_lowest(_FakeHamiltonian(huge * 1e-306))[0].residual_norm <= 1e-10


def test_the_overflow_guard_sits_at_sixteen_squared_frobenius_norms():
    """16 ||H||_F^2 bounds the square of every norm a solve takes. Just
    below the float maximum, the N=8 Sz=0 piece solves densely to a finite
    residual, and Lanczos solves or runs out of iterations, finitely and
    without a warning. Just above it, both combinations refuse the piece."""
    workspace = SectorWorkspace("xxz_half", chain_lattice(8))
    basis, parts = workspace.sector(0.0)
    model = ModelSpec("xxz_half", delta=1.0)
    norm = np.linalg.norm(workspace.matrix(model, 0.0).matrix.data)
    edge = math.sqrt(np.finfo(float).max / 16) / norm
    below, above = (
        SparseHamiltonian(model, plain_block(basis), {n: p * edge * f for n, p in parts.items()})
        for f in (0.999, 1.001)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(dense_lowest(below)[0].residual_norm)
        try:
            [pair] = lanczos_lowest(below)
            assert np.isfinite([pair.energy, pair.residual_norm, *pair.vector]).all()
        except ConvergenceError as fail:
            assert math.isfinite(fail.best_residual)
        message = re.escape(f"the Hamiltonian of xxz_half delta=1.0 {_TOO_LARGE}")
        for combine in (lambda: above.matrix, above.dense):
            with pytest.raises(ValueError, match=message):
                combine()
