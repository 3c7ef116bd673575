import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import assemble_parts_reference, embed_indices, full_hamiltonian
from spinent.basis import (
    build_basis,
    nonnegative_sectors,
    plain_block,
    sector_values,
    translation_block,
)
from spinent.eigensolver import ground_state_scan
from spinent.hamiltonian import (
    FAMILY_SPIN,
    ModelSpec,
    SectorWorkspace,
    assemble_parts,
    bond_stencils,
    combine_parts,
    ground_characters,
    model_for,
    spin_matrices,
)
from spinent.lattice import chain_lattice, square_lattice


def _sector_matrix(model, n, sz):
    return SectorWorkspace(model.family, chain_lattice(n)).matrix(model, sz).matrix.toarray()


def test_two_spin_singlet_block():
    mat = _sector_matrix(ModelSpec("xxz_half", delta=1.0), 2, 0.0)
    assert mat.shape == (2, 2)
    np.testing.assert_allclose(np.linalg.eigvalsh(mat), [-0.75, 0.25], atol=1e-14)


@pytest.mark.parametrize("delta", [-0.7, 0.0, 1.0, 2.5])
def test_two_spin_polarized_block(delta):
    mat = _sector_matrix(ModelSpec("xxz_half", delta=delta), 2, 1.0)
    np.testing.assert_allclose(mat, [[delta / 4.0]], atol=1e-15)


def test_two_spin_one_exchange_multiplets():
    """Single blbq bond: eigenvalues cos(t)*x + sin(t)*x^2 for x in {-2,-1,1}.

    x is the eigenvalue of S_i.S_j on the two-spin-1 multiplets with total
    spin 0, 1, 2 and multiplicities 1, 3, 5.
    """
    theta = 0.9
    model = ModelSpec("blbq", theta=theta)
    merged = []
    for sz in sector_values("one", 2):
        merged.extend(np.linalg.eigvalsh(_sector_matrix(model, 2, sz)))
    merged.sort()
    def level(x):
        return np.cos(theta) * x + np.sin(theta) * x * x

    expected = sorted([level(-2.0)] + [level(-1.0)] * 3 + [level(1.0)] * 5)
    np.testing.assert_allclose(merged, expected, atol=1e-12)


def test_blbq_is_rescaled_xxz_one():
    """blbq(theta) = cos(theta) * xxz_one(delta=1, beta=-tan(theta))."""
    theta = 0.3
    n = 4
    blbq = ModelSpec("blbq", theta=theta)
    xxz = ModelSpec("xxz_one", delta=1.0, beta=-np.tan(theta))
    for sz in sector_values("one", n):
        a = np.linalg.eigvalsh(_sector_matrix(blbq, n, sz))
        b = np.linalg.eigvalsh(_sector_matrix(xxz, n, sz)) * np.cos(theta)
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize(
    "family,n,kwargs",
    [
        ("xxz_half", 5, dict(delta=0.7)),
        ("xxz_half", 4, dict(delta=-0.3)),
        ("xxz_one", 3, dict(delta=1.2, beta=0.4)),
        ("blbq", 3, dict(theta=2.0)),
    ],
)
def test_sector_blocks_match_kronecker_oracle(family, n, kwargs):
    """Every sector block equals the corresponding slice of the dense
    full-space Hamiltonian built independently from Kronecker products."""
    lattice = chain_lattice(n)
    full = full_hamiltonian(family, n, lattice.bonds, **kwargs)
    model = ModelSpec(family, **kwargs)
    workspace = SectorWorkspace(family, lattice)
    all_rows = []
    for sz in sector_values(FAMILY_SPIN[family], n):
        basis = workspace.basis(sz)
        rows = embed_indices([basis.site_digits(s) for s in range(n)], basis.local_dim)
        all_rows.extend(rows.tolist())
        block = full[np.ix_(rows, rows)]
        ours = workspace.matrix(model, sz).matrix.toarray()
        np.testing.assert_allclose(ours, block, atol=1e-13)
    # sectors tile the full space, so the blocks cover every matrix element
    assert sorted(all_rows) == list(range(full.shape[0]))


def test_full_space_hamiltonian_is_block_diagonal():
    lattice = chain_lattice(4)
    full = full_hamiltonian("xxz_half", 4, lattice.bonds, delta=0.6)
    basis = build_basis(4, "half", 0.0)
    rows = embed_indices([basis.site_digits(s) for s in range(4)], 2)
    outside = np.setdiff1d(np.arange(16), rows)
    assert np.linalg.norm(full[np.ix_(rows, outside)]) == 0.0


def test_matrix_symmetry_and_zero_action():
    model = ModelSpec("xxz_one", delta=0.8, beta=0.2)
    ham = SectorWorkspace(model.family, chain_lattice(5)).matrix(model, 1.0)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(ham.dimension)
    w = rng.standard_normal(ham.dimension)
    assert abs(v @ (ham.matrix @ w) - (ham.matrix @ v) @ w) < 1e-12
    assert np.all(ham.matrix @ np.zeros(ham.dimension) == 0.0)


def test_csr_columns_match_matrix_action():
    model = ModelSpec("xxz_half", delta=1.3)
    ham = SectorWorkspace(model.family, chain_lattice(6)).matrix(model, 0.0)
    csr = ham.matrix
    dense = np.zeros((ham.dimension, ham.dimension))
    for row in range(ham.dimension):
        lo, hi = csr.indptr[row], csr.indptr[row + 1]
        dense[row, csr.indices[lo:hi]] = csr.data[lo:hi]
    for k in (0, 3, ham.dimension - 1):
        unit = np.zeros(ham.dimension)
        unit[k] = 1.0
        np.testing.assert_allclose(csr @ unit, dense[:, k], atol=1e-15)


def test_su2_point_sector_nesting():
    """At delta=1 every Sz-sector spectrum is contained one sector down."""
    n = 6
    model = ModelSpec("xxz_half", delta=1.0)
    for upper_sz in (1.0, 2.0, 3.0):
        upper = np.linalg.eigvalsh(_sector_matrix(model, n, upper_sz))
        lower = np.linalg.eigvalsh(_sector_matrix(model, n, upper_sz - 1.0))
        for value in upper:
            assert np.min(np.abs(lower - value)) < 1e-10


def test_workspace_caches_and_reuses_parts():
    ws = SectorWorkspace("xxz_half", chain_lattice(6))
    first = ws.matrix(ModelSpec("xxz_half", delta=0.5), 0.0)
    second = ws.matrix(ModelSpec("xxz_half", delta=2.0), 0.0)
    parts = assemble_parts("xxz_half", chain_lattice(6), plain_block(build_basis(6, "half", 0.0)))
    direct = combine_parts(parts, ModelSpec("xxz_half", delta=2.0).part_coefficients())
    assert (second.matrix - direct).nnz == 0
    assert first.matrix.shape == second.matrix.shape
    assert ws.basis(0.0) is ws.basis(0.0)


def _assert_dense_combine_is_csr_combine(workspace, model, sz, characters=()):
    ham = workspace.matrix(model, sz, characters)
    parts = workspace.block(sz, characters)[1]
    dense, csr = ham.dense(), combine_parts(parts, model.part_coefficients()).toarray()
    assert np.array_equal(dense, csr)
    assert np.array_equal(np.signbit(dense), np.signbit(csr))


def test_dense_combine_is_bitwise_the_csr_combine():
    """Same sums, same order, same pruning: equal arrays, sign bits
    included. The blbq grid holds 3pi/4, where the two parts cancel, and
    3pi/2, where the bilinear weight is round-off and pruned away; the XXZ
    families add a diagonal part (zz) that stores explicit zeros."""
    blbq = SectorWorkspace("blbq", chain_lattice(6))
    for theta in [*np.linspace(0.0, 2 * math.pi, 41), 0.75 * math.pi, 1.5 * math.pi]:
        for sz in sector_values("one", 6):
            _assert_dense_combine_is_csr_combine(blbq, ModelSpec("blbq", theta=theta), sz)
    half = SectorWorkspace("xxz_half", chain_lattice(10))
    for delta in (-1.0, 0.0, 0.5, 1.0, 2.0):
        for sz in sector_values("half", 10):
            _assert_dense_combine_is_csr_combine(half, ModelSpec("xxz_half", delta=delta), sz)
    one = SectorWorkspace("xxz_one", chain_lattice(6))
    for delta in (-1.0, 0.0, 1.0, 1.5):
        for beta in (0.0, 0.2, -0.2):
            model = ModelSpec("xxz_one", delta=delta, beta=beta)
            for sz in sector_values("one", 6):
                _assert_dense_combine_is_csr_combine(one, model, sz)


def test_dense_combine_of_torus_translation_blocks():
    """The 4x4 torus sectors Sz = 3, 4, 5 exceed the dense cutoff, while the
    translation blocks the scan solves them in do not."""
    torus = SectorWorkspace("xxz_half", square_lattice(4, 4))
    for delta in (-0.5, 0.5, 1.0, 2.0):
        model = ModelSpec("xxz_half", delta=delta)
        for sz in (3.0, 4.0, 5.0):
            characters = ground_characters(model, torus.lattice, sz)
            assert torus.basis(sz).dimension > 300 >= torus.block(sz, characters)[0].dimension
            _assert_dense_combine_is_csr_combine(torus, model, sz, characters)


@pytest.mark.parametrize(
    "model, lattice",
    [
        (ModelSpec("blbq", theta=0.3), chain_lattice(6)),
        (ModelSpec("xxz_half", delta=0.5), chain_lattice(10)),
    ],
    ids=["blbq-6", "xxz_half-10"],
)
def test_a_scan_stores_nothing_in_an_assembled_workspace(model, lattice):
    """A block is stored once, as its CSR parts: with every block of the
    scan, plain and parity, assembled beforehand, a scan over dense sectors
    leaves nothing behind in the workspace."""
    workspace = SectorWorkspace(model.family, lattice)
    for sz in nonnegative_sectors(workspace.spin, lattice.num_sites):
        assert workspace.block(sz)[0].dimension <= 300
        blocks = workspace.parity_matrices(model, sz)
        assert sum(block.dimension for block, _ in blocks) == workspace.basis(sz).dimension
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ground_state_scan(model, lattice, workspace=workspace)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_overflowing_matrix_names_the_parameter(form):
    """A finite parameter can still overflow the sum over bonds; the
    combination then raises instead of handing infinities to a solver."""
    ham = SectorWorkspace("xxz_half", chain_lattice(8)).matrix(
        ModelSpec("xxz_half", delta=1e308), 0.0
    )
    with pytest.raises(ValueError, match=r"xxz_half delta=1e\+308 overflows"):
        ham.dense() if form == "dense" else ham.matrix
    assert ModelSpec("xxz_one", delta=1.0, beta=-0.2).label == "xxz_one delta=1.0 beta=-0.2"
    assert ModelSpec("blbq", theta=0.5, delta=3.0).label == "blbq theta=0.5"


def test_spin_matrices_algebra():
    for spin in ("half", "one"):
        sz, sp, sm = spin_matrices(spin)
        np.testing.assert_allclose(sp @ sm - sm @ sp, 2.0 * sz, atol=1e-14)
        np.testing.assert_allclose(sz @ sp - sp @ sz, sp, atol=1e-14)


def test_stencils_conserve_pair_sz():
    for family in FAMILY_SPIN:
        parts = bond_stencils(family)
        d = 2 if FAMILY_SPIN[family] == "half" else 3
        pair_sz = np.add.outer(np.arange(d), np.arange(d)).ravel()
        for stencil in parts.values():
            out, inp = np.nonzero(np.abs(stencil) > 1e-14)
            assert np.all(pair_sz[out] == pair_sz[inp])


def test_model_spec_validation_and_coefficients():
    with pytest.raises(ValueError):
        ModelSpec("xyz_chain")
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("delta", "beta", "theta"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ModelSpec("xxz_one", **{name: bad})
    assert ModelSpec("xxz_half", delta=2.0).part_coefficients() == {"xy": 1.0, "zz": 2.0}
    coeffs = ModelSpec("blbq", theta=np.pi / 2).part_coefficients()
    assert abs(coeffs["bl"]) < 1e-15 and abs(coeffs["bq"] - 1.0) < 1e-15
    assert ModelSpec("xxz_one", beta=0.4).part_coefficients()["bq"] == -0.4


def test_model_for_routes_the_swept_parameter():
    assert model_for("blbq", 1.5).theta == 1.5
    assert model_for("xxz_half", -0.2).delta == -0.2
    one = model_for("xxz_one", 1.1, beta=0.3)
    assert (one.delta, one.beta) == (1.1, 0.3)
    assert model_for("xxz_one", 1.7, beta=one.beta) == ModelSpec("xxz_one", 1.7, 0.3)


@pytest.mark.parametrize("family", ["xxz_half", "blbq"])
def test_model_for_refuses_a_beta_the_family_does_not_take(family):
    """It used to drop the beta silently."""
    with pytest.raises(ValueError, match=f"{family} takes no beta, got 0.5"):
        model_for(family, 1.0, beta=0.5)
    assert model_for(family, 1.0, beta=0.0) == model_for(family, 1.0)
    with pytest.raises(ValueError, match="unknown family"):
        model_for("heisenberg_cubed", 1.0)


def test_assemble_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        assemble_parts("blbq", chain_lattice(4), plain_block(build_basis(4, "half", 0.0)))
    with pytest.raises(ValueError):
        assemble_parts("xxz_half", chain_lattice(6), plain_block(build_basis(4, "half", 0.0)))
    with pytest.raises(ValueError):
        SectorWorkspace("not_a_family", chain_lattice(4))



def _every_block(lattice, spin):
    """The plain block and every translation block of every sector."""
    generators = lattice.translations()
    for sz in sector_values(spin, lattice.num_sites):
        basis = build_basis(lattice.num_sites, spin, sz)
        yield plain_block(basis)
        for characters in itertools.product((1, -1), repeat=len(generators)):
            yield translation_block(basis, generators, characters)


# Spin-1 chains stop at L=10: one L=12 family takes several seconds here.
_BITWISE_CASES = [("xxz_half", chain_lattice(n)) for n in range(2, 15)]
_BITWISE_CASES += [(f, chain_lattice(n)) for f in ("xxz_one", "blbq") for n in range(2, 11)]
_BITWISE_CASES += [("xxz_half", square_lattice(4, 4))]


@pytest.mark.parametrize(
    "family,lattice", _BITWISE_CASES,
    ids=[f"{f}-{lat.num_sites}-{len(lat.bonds)}" for f, lat in _BITWISE_CASES],
)
def test_assembly_is_bitwise_the_reference(family, lattice):
    """The shared per-bond pass gives the CSR arrays of the part-by-part
    assembly it replaced, bit for bit, explicit zeros included."""
    for block in _every_block(lattice, FAMILY_SPIN[family]):
        parts = assemble_parts(family, lattice, block)
        reference = assemble_parts_reference(family, lattice, block)
        assert parts.keys() == reference.keys()
        for name, part in parts.items():
            expected = reference[name]
            assert part.shape == expected.shape
            for field in ("indptr", "indices", "data"):
                mine, theirs = getattr(part, field), getattr(expected, field)
                assert mine.dtype == theirs.dtype, (name, field)
                assert mine.tobytes() == theirs.tobytes(), (name, field)
