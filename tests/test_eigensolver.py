import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from spinent import eigensolver
from spinent.basis import nonnegative_sectors
from spinent.eigensolver import (
    ConvergenceError,
    degeneracy_count,
    dense_lowest,
    ground_state_scan,
    lanczos_lowest,
    low_spectrum,
)
from spinent.analysis import shared_workspace
from spinent.checks import CheckContext
from spinent.hamiltonian import ModelSpec, SectorWorkspace, model_for
from spinent.lattice import chain_lattice, square_lattice


def _fake_ham(matrix):
    """Wrap a plain symmetric matrix; the solvers only look at .matrix."""
    from spinent.hamiltonian import SparseHamiltonian

    return SparseHamiltonian(sparse.csr_matrix(matrix))


def _sector_ham(model, n, sz):
    return SectorWorkspace(model.family, chain_lattice(n)).matrix(model, sz)


def test_flip_matrix_pair():
    results = dense_lowest(_fake_ham([[0.0, 1.0], [1.0, 0.0]]), k=2)
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
        assert a.converged and a.residual_norm <= 1e-10


def _clustered(n=60):
    """n levels in a random orthonormal basis: an exact triple at 0, levels
    at 1e-6, 2e-6 and 3e-6, then 1..n-6. Lanczos without reorthogonalization
    against its Krylov basis converges on none of the bottom three."""
    levels = np.concatenate([np.zeros(3), [1e-6, 2e-6, 3e-6], np.arange(1.0, n - 5.0)])
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    mat = q @ np.diag(levels) @ q.T
    return sparse.csr_matrix((mat + mat.T) / 2)


@pytest.mark.parametrize("case", [0, 1, 2, "clustered", "clustered-150"])
def test_lanczos_matches_dense_on_random_sparse(case):
    if case == "clustered":
        mat, k = _clustered(), 3
    elif case == "clustered-150":
        mat, k = _clustered(150), 3
    else:
        rng = np.random.default_rng(case)
        mat = sparse.random(120, 120, density=0.05, random_state=rng, format="csr")
        mat, k = mat + mat.T, 2  # symmetrize
    ham = _fake_ham(mat)
    iterative = lanczos_lowest(ham, k=k)
    direct = dense_lowest(ham, k=k)
    for a, b in zip(iterative, direct):
        assert abs(a.energy - b.energy) < 1e-10
        # variational: an iterative level never undershoots the true one
        assert a.energy >= b.energy - 1e-10
    vectors = np.array([r.vector for r in iterative])
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(k), atol=1e-9)


def test_clustered_levels_need_the_restart_pass(monkeypatch):
    """The cheap first pass fails on every level of the clustered matrix; the
    fully reorthogonalized restart is what resolves it."""
    real = eigensolver._lanczos_ground
    passes = []

    def recording(*args):
        passes.append(args[-1])
        return real(*args)

    monkeypatch.setattr(eigensolver, "_lanczos_ground", recording)
    lanczos_lowest(_fake_ham(_clustered()), k=3)
    assert passes == [False, True] * 3

    monkeypatch.setattr(eigensolver, "_lanczos_ground", lambda *args: real(*args[:-1], False))
    with pytest.raises(ConvergenceError):
        lanczos_lowest(_fake_ham(_clustered()), k=3)


def _record_passes(monkeypatch):
    """Record (full, Krylov blocks at the last Ritz step) for every pass."""
    real_ground, real_ritz = eigensolver._lanczos_ground, eigensolver._ritz_bottom
    passes = []

    def ground(*args):
        passes.append([args[-1], None])
        return real_ground(*args)

    def ritz(matrix, blocks, *args, **kwargs):
        passes[-1][1] = [rows.copy() for rows in blocks]
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
    ours = lanczos_lowest(_fake_ham(mat), k=2)
    assert [full for full, _ in passes] == [False, False]
    for _, blocks in passes:
        heights = [len(rows) for rows in blocks]
        assert sum(heights) > 128
        assert heights[:-1] == [64] * (len(heights) - 1)
    v0 = np.random.default_rng(5).standard_normal(n)
    theirs = np.sort(eigsh(mat, k=2, which="SA", tol=1e-14, v0=v0)[0])
    np.testing.assert_allclose([r.energy for r in ours], theirs, rtol=0, atol=1e-10)


def test_restart_pass_runs_across_block_boundaries(monkeypatch):
    """The clustered spectrum at n=150 (checked against dense above): every
    level needs the fully reorthogonalized restart, which then keeps more
    than two blocks of Krylov rows orthonormal to one another."""
    passes = _record_passes(monkeypatch)
    lanczos_lowest(_fake_ham(_clustered(150)), k=3)
    assert [full for full, _ in passes] == [False, True] * 3
    for _, blocks in passes[1::2]:
        heights = [len(rows) for rows in blocks]
        assert sum(heights) > 128
        assert heights[:-1] == [64] * (len(heights) - 1)
        krylov = np.vstack(blocks)
        np.testing.assert_allclose(krylov @ krylov.T, np.eye(len(krylov)), atol=1e-10)


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
    from spinent.hamiltonian import SparseHamiltonian

    ham = _sector_ham(ModelSpec("xxz_half", delta=-0.95), 16, 0.0)
    counting = _CountingMatrix(ham.matrix)
    tracemalloc.start()
    try:
        lanczos_lowest(SparseHamiltonian(counting))
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
    ham = _fake_ham(sparse.diags(diag))
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


def test_single_state_sector():
    ham = _sector_ham(ModelSpec("xxz_half", delta=0.8), 2, 1.0)
    result = lanczos_lowest(ham)[0]
    assert result.converged
    assert abs(result.energy - 0.2) < 1e-14


def test_unconverged_solve_raises_with_best_residual():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((60, 60))
    ham = _fake_ham(sparse.csr_matrix(mat + mat.T))
    with pytest.raises(ConvergenceError) as caught:
        lanczos_lowest(ham, max_iter=3)
    assert caught.value.best_residual > 0.0
    assert "restart" in str(caught.value)


def test_deterministic_restarts():
    ham = _sector_ham(ModelSpec("xxz_half", delta=1.0), 10, 1.0)
    first = lanczos_lowest(ham)[0]
    second = lanczos_lowest(ham)[0]
    assert first.energy == second.energy
    assert np.array_equal(first.vector, second.vector)


def test_dense_oracle_guards():
    with pytest.raises(ValueError):
        dense_lowest(_fake_ham(sparse.csr_matrix((4001, 4001))))
    with pytest.raises(ValueError):
        dense_lowest(_fake_ham(np.eye(2)), k=0)
    with pytest.raises(ValueError):
        lanczos_lowest(_fake_ham(np.eye(2)), k=0)


@pytest.mark.parametrize("n", [10, 12, 16])
def test_scans_and_checks_share_one_dispatch(n):
    """The check battery's Sz=0 ground is the scan's own sector solve, bit
    for bit: dense in full at N=10 (252 states), in the translation block at
    N=12 and 16. Small sectors are diagonalized densely in full; a block
    gives the sector's ground alone."""
    workspace = shared_workspace("xxz_half", "chain", n)
    model = model_for("xxz_half", 0.5)
    report = ground_state_scan(model, workspace.lattice, workspace=workspace)
    checked, basis = CheckContext().sector_ground("xxz_half", n, 0.5)
    assert report.ground_sz == 0.0
    assert basis is report.representative_basis
    assert checked.energy == report.representative.energy
    assert np.array_equal(checked.vector, report.representative.vector)
    assert len(report.per_sector_energies[0.0]) == (252 if n == 10 else 1)
    assert len(report.per_sector_energies[n / 2 - 1]) == n


def test_checks_solve_the_whole_sector_where_perron_frobenius_fails():
    theta = 1.25 * np.pi
    ham = shared_workspace("blbq", "chain", 8).matrix(model_for("blbq", theta), 0.0)
    expected = lanczos_lowest(ham)[0]
    checked, basis = CheckContext().sector_ground("blbq", 8, theta)
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
    """Every sector is dense, so every one is solved values-only; only the
    representative's sector gets eigenvectors, and the ground energy and
    vector equal those of eigh on every sector, bit for bit."""
    workspace = SectorWorkspace(family, chain_lattice(size))
    calls = []
    real_eigh = np.linalg.eigh

    def eigh(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return real_eigh(matrix, *args, **kwargs)

    for param in params:
        model = model_for(family, param)
        energy, sz, vector = _whole_spectrum_ground(model, workspace)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", eigh)
            report = ground_state_scan(model, workspace.lattice, workspace=workspace)
        assert calls == [workspace.basis(sz).dimension]
        assert report.ground_sz == sz
        assert report.ground_energy == energy
        assert np.array_equal(report.representative.vector, vector)


def test_scan_ferromagnet_is_doubly_degenerate():
    """Deep in the ferromagnetic phase only the two polarized states are
    ground states; anisotropy splits the rest of the would-be multiplet."""
    report = ground_state_scan(ModelSpec("xxz_half", delta=-2.0), chain_lattice(8))
    assert report.ground_sz == 4.0
    assert report.degeneracy == 2
    assert report.degenerate_flag
    assert abs(report.ground_energy - (-4.0)) < 1e-12
    assert report.representative_basis.sz_sector == 4.0
    assert abs(np.linalg.norm(report.representative.vector) - 1.0) < 1e-12


def test_scan_boundary_point_recovers_full_multiplet():
    # at delta = -1 the spectrum maps onto the isotropic point, so the
    # polarized states join an S_total = 4 multiplet: 2S+1 = 9 members
    report = ground_state_scan(ModelSpec("xxz_half", delta=-1.0), chain_lattice(8))
    assert report.degeneracy == 9
    assert abs(report.ground_energy - (-2.0)) < 1e-12


def test_scan_gapless_point_is_unique():
    report = ground_state_scan(ModelSpec("xxz_half", delta=0.5), chain_lattice(8))
    assert report.ground_sz == 0.0
    assert report.degeneracy == 1
    assert not report.degenerate_flag
    assert set(report.per_sector_energies) == set(nonnegative_sectors("half", 8))


def test_scan_blbq_ferro_arc_is_flagged():
    report = ground_state_scan(ModelSpec("blbq", theta=np.pi), chain_lattice(6))
    assert report.degenerate_flag
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
    lattice = chain_lattice(size)
    report = ground_state_scan(model, lattice)
    levels = low_spectrum(model, lattice, expected + 5)
    assert degeneracy_count([e for e, _ in levels], 1e-8)[0] == expected
    assert report.degeneracy == expected


def test_degenerate_lanczos_sectors_are_topped_up_densely(monkeypatch):
    """blbq theta = pi/2, L = 8: the SU(3) point where 512 levels of the
    1,107-state Sz=0 sector sit within the window. Each Lanczos sector is
    topped up by Lanczos to four levels, all in the window, and then read
    whole from a values-only dense solve, which counts what eigvalsh of
    every sector counts."""
    model, lattice = ModelSpec("blbq", theta=np.pi / 2), chain_lattice(8)
    workspace = SectorWorkspace("blbq", lattice)
    calls = []
    real_lanczos = eigensolver.lanczos_lowest

    def lanczos(ham, k=1, **kwargs):
        calls.append((ham.dimension, k))
        return real_lanczos(ham, k, **kwargs)

    monkeypatch.setattr(eigensolver, "lanczos_lowest", lanczos)
    report = ground_state_scan(model, lattice, workspace=workspace)
    expected = 0
    for sz in nonnegative_sectors("one", 8):
        vals = np.linalg.eigvalsh(workspace.matrix(model, sz).matrix.toarray())
        expected += int(np.sum(vals <= report.ground_energy + 1e-8)) * (2 if sz else 1)
    assert report.degeneracy == expected == 2207
    dims = [1107, 1016, 784, 504]
    assert calls == [(dim, 1) for dim in dims] + [(dim, k) for dim in dims for k in (2, 4)]


def test_low_spectrum_trims_and_sorts():
    levels = low_spectrum(ModelSpec("xxz_half", delta=0.5), chain_lattice(4), 6)
    assert len(levels) == 6
    energies = [e for e, _ in levels]
    assert energies == sorted(energies)


def test_low_spectrum_mirrors_sectors():
    levels = low_spectrum(ModelSpec("xxz_half", delta=0.5), chain_lattice(4), 16)
    by_sz = {}
    for e, sz in levels:
        by_sz.setdefault(sz, []).append(round(e, 9))
    assert by_sz[1.0] == by_sz[-1.0]


def test_low_spectrum_blbq_transition_multiplet():
    """First excited manifold at the pure negative-biquadratic point is
    exactly 8-fold."""
    lattice = chain_lattice(6)
    ws = SectorWorkspace("blbq", lattice)
    levels = low_spectrum(
        ModelSpec("blbq", theta=1.5 * np.pi), lattice, 12, workspace=ws
    )
    clusters = degeneracy_count([e for e, _ in levels], 1e-6)
    assert clusters[0] == 1
    assert clusters[1] == 8


def test_spectrum_listing_ignores_round_off(monkeypatch):
    """At blbq L=8, theta = 3pi/2 the manifold at -19.7967 straddles a 20-level
    cut. Nudging every sector energy by +-1e-13 must not change which members
    are listed, their Sz labels or the cluster sizes."""
    lattice = chain_lattice(8)
    ws = SectorWorkspace("blbq", lattice)
    model = ModelSpec("blbq", theta=1.5 * np.pi)

    def listing():
        levels = low_spectrum(model, lattice, 20, workspace=ws)
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
        low_spectrum(ModelSpec("xxz_half"), chain_lattice(4), 0)


def test_scan_rejects_a_workspace_of_another_lattice():
    """The sectors come from the lattice and the matrices from the
    workspace: a 16-site ring solved on a 4x4 torus workspace gave the
    torus energy."""
    torus = SectorWorkspace("xxz_half", square_lattice(4, 4))
    model = ModelSpec("xxz_half", delta=1.0)
    with pytest.raises(ValueError, match="workspace built on a square"):
        ground_state_scan(model, chain_lattice(16), workspace=torus)


def test_low_spectrum_rejects_a_workspace_of_another_lattice():
    torus = SectorWorkspace("xxz_half", square_lattice(4, 4))
    model = ModelSpec("xxz_half", delta=1.0)
    with pytest.raises(ValueError, match="workspace built on a square"):
        low_spectrum(model, chain_lattice(16), 4, workspace=torus)


def test_lanczos_overflow_is_a_value_error_naming_the_matrix():
    """A finite matrix of entries 1e306 overflows the norm of the first
    Lanczos vector. That is a ValueError naming the matrix, raised without
    a numpy warning, not scipy's complaint about the tridiagonal."""
    huge = sparse.diags([1e306, 1e306], [-1, 1], shape=(50, 50))
    with pytest.raises(ValueError, match="the sector matrix overflows"):
        lanczos_lowest(_fake_ham(huge))
    assert lanczos_lowest(_fake_ham(huge * 1e-306))[0].converged
