import collections
import gc
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    embed_indices,
    full_hamiltonian,
    ground_full,
    hopping_reference,
    pair_rdm_full,
    site_operator,
    spin_ops,
    two_site_rdm_reference,
)
from spinent import analysis, entanglement
from spinent.basis import SPIN_VALUE, SpinBasis, build_basis
from spinent.entanglement import (
    PatternViolationError,
    XFormElements,
    bond_correlators,
    concurrence,
    concurrence_closed_form,
    entropy_closed_form,
    two_site_rdm,
    von_neumann_entropy,
    xform_extract,
    xform_eigenvalues,
)
from one_point import scan_one
from spinent.eigensolver import lanczos_lowest
from spinent.hamiltonian import SectorWorkspace, model_for, spin_matrices
from spinent.lattice import chain_lattice

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _sector_ground(family, n, sz, **params):
    workspace = SectorWorkspace(family, chain_lattice(n))
    basis = workspace.basis(sz)
    model = model_for(family, params.get("value", 0.0), beta=params.get("beta", 0.0))
    ham = workspace.matrix(model, sz)
    vals, vecs = np.linalg.eigh(ham.matrix.toarray())
    return basis, vals, vecs


def _embed(basis, state):
    rows = [basis.site_digits(s) for s in range(basis.num_sites)]
    full = np.zeros(basis.local_dim**basis.num_sites)
    full[embed_indices(rows, basis.local_dim)] = state
    return full


def test_singlet_pair_covers_whole_system():
    basis, vals, vecs = _sector_ground("xxz_half", 2, 0.0, value=1.0)
    rdm = two_site_rdm(vecs[:, 0], basis, 0, 1)
    # tracing out nothing leaves the pure singlet projector
    singlet = np.zeros(4)
    singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    np.testing.assert_allclose(rdm, np.outer(singlet, singlet), atol=1e-14)
    assert von_neumann_entropy(rdm) < 1e-12
    np.testing.assert_allclose(concurrence(rdm), 1.0, atol=1e-12)
    el = xform_extract(rdm)
    np.testing.assert_allclose(
        [el.u_plus, el.w1, el.w2, el.u_minus, el.z],
        [0.0, 0.5, 0.5, 0.0, -0.5],
        atol=1e-14,
    )


def test_polarized_pair_is_unentangled():
    basis = build_basis(4, "half", 2.0)
    assert basis.dimension == 1
    rdm = two_site_rdm(np.array([1.0]), basis, 1, 2)
    np.testing.assert_allclose(rdm, np.diag([1.0, 0, 0, 0]), atol=1e-15)
    entropy = von_neumann_entropy(rdm)
    assert entropy == 0.0
    # an exactly-zero entropy must not carry a negative sign into reports
    assert math.copysign(1.0, entropy) == 1.0
    assert concurrence(rdm) == 0.0


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (3, 1)])
def test_rdm_matches_brute_force_partial_trace(pair):
    basis, vals, vecs = _sector_ground("xxz_half", 6, 0.0, value=0.5)
    rdm = two_site_rdm(vecs[:, 0], basis, *pair)
    full = _embed(basis, vecs[:, 0])
    np.testing.assert_allclose(
        rdm, pair_rdm_full(full, 6, 2, *pair), atol=1e-13
    )


def test_spin_one_rdm_matches_brute_force():
    basis, vals, vecs = _sector_ground("xxz_one", 4, 0.0, value=1.2, beta=0.3)
    rdm = two_site_rdm(vecs[:, 0], basis, 0, 1)
    assert rdm.shape == (9, 9)
    full = _embed(basis, vecs[:, 0])
    np.testing.assert_allclose(
        rdm, pair_rdm_full(full, 4, 3, 0, 1), atol=1e-13
    )


def test_rdm_of_superposition_matches_brute_force():
    # not an eigenstate: partial trace must work for any normalized vector
    basis, vals, vecs = _sector_ground("xxz_half", 6, 1.0, value=0.5)
    state = 0.6 * vecs[:, 0] + 0.8 * vecs[:, 3]
    rdm = two_site_rdm(state, basis, 2, 5)
    full = _embed(basis, state)
    np.testing.assert_allclose(
        rdm, pair_rdm_full(full, 6, 2, 2, 5), atol=1e-13
    )


def test_rdm_is_a_density_matrix():
    basis, vals, vecs = _sector_ground("xxz_half", 8, 0.0, value=-0.4)
    rdm = two_site_rdm(vecs[:, 0], basis, 0, 1)
    np.testing.assert_allclose(np.trace(rdm), 1.0, atol=1e-13)
    np.testing.assert_allclose(rdm, rdm.T, atol=1e-14)
    assert np.linalg.eigvalsh(rdm).min() > -1e-12


def test_swapping_sites_permutes_the_pair_factors():
    basis, vals, vecs = _sector_ground("xxz_half", 6, 0.0, value=0.3)
    state = vecs[:, 2]
    forward = two_site_rdm(state, basis, 1, 4)
    backward = two_site_rdm(state, basis, 4, 1)
    perm = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            perm[a * 2 + b, b * 2 + a] = 1.0
    np.testing.assert_allclose(backward, perm @ forward @ perm, atol=1e-14)


def test_ring_ground_state_rdm_is_translation_invariant():
    basis, vals, vecs = _sector_ground("xxz_half", 8, 0.0, value=1.0)
    state = vecs[:, 0]
    reference = two_site_rdm(state, basis, 0, 1)
    for k in range(1, 8):
        shifted = two_site_rdm(state, basis, k, (k + 1) % 8)
        np.testing.assert_allclose(shifted, reference, atol=1e-10)


def test_frozen_heisenberg_chain_values():
    """Six-site XXZ ring at delta = 0.5, nearest-neighbor pair."""
    basis, vals, vecs = _sector_ground("xxz_half", 6, 0.0, value=0.5)
    np.testing.assert_allclose(vals[0], -(0.75 + GOLDEN), atol=1e-13)
    rdm = two_site_rdm(vecs[:, 0], basis, 0, 1)
    np.testing.assert_allclose(
        np.diag(rdm),
        [
            0.1160357456590927,
            0.3839642543409070,
            0.3839642543409070,
            0.1160357456590927,
        ],
        atol=1e-12,
    )
    el = xform_extract(rdm)
    np.testing.assert_allclose(el.z, -0.3276902042878621, atol=1e-12)
    np.testing.assert_allclose(von_neumann_entropy(rdm), 1.3039899784822224, atol=1e-12)
    np.testing.assert_allclose(entropy_closed_form(el), 1.3039899784822224, atol=1e-12)
    np.testing.assert_allclose(concurrence(rdm), 0.4233089172575387, atol=1e-12)
    np.testing.assert_allclose(
        concurrence_closed_form(el), 0.4233089172575387, atol=1e-12
    )


def test_isotropic_limit_elements_reproduce_known_measures():
    # X-form elements of the infinite isotropic chain, quoted to 6 digits
    el = XFormElements(
        u_plus=0.102284, w1=0.397716, w2=0.397716, u_minus=0.102284, z=-0.295431
    )
    assert abs(entropy_closed_form(el) - 1.37586) < 5e-5
    np.testing.assert_allclose(concurrence_closed_form(el), 0.386294, atol=1e-12)


def test_maximally_mixed_pair():
    rdm = np.eye(4) / 4.0
    np.testing.assert_allclose(von_neumann_entropy(rdm), 2.0, atol=1e-14)
    el = xform_extract(rdm)
    assert el.z == 0.0
    np.testing.assert_allclose(sorted(xform_eigenvalues(el)), [0.25] * 4, atol=1e-15)
    assert concurrence(rdm) == 0.0
    assert concurrence_closed_form(el) == 0.0


def test_xform_rejects_entries_off_the_pattern():
    bad = np.eye(4) / 4.0
    bad[0, 1] = bad[1, 0] = 0.1
    with pytest.raises(PatternViolationError):
        xform_extract(bad)


def test_xform_rejects_asymmetric_coherence():
    bad = np.eye(4) / 4.0
    bad[1, 2] = 0.05
    bad[2, 1] = -0.05
    with pytest.raises(PatternViolationError):
        xform_extract(bad)


def test_qubit_only_measures_reject_spin_one():
    basis, vals, vecs = _sector_ground("xxz_one", 4, 0.0, value=1.2, beta=0.3)
    rdm = two_site_rdm(vecs[:, 0], basis, 0, 1)
    with pytest.raises(ValueError):
        xform_extract(rdm)
    with pytest.raises(ValueError):
        concurrence(rdm)


def test_correlators_agree_with_xform_elements():
    """Bond expectation values written in the five X entries, at N = 12."""
    basis, vals, vecs = _sector_ground("xxz_half", 12, 0.0, value=0.5)
    state = vecs[:, 0]
    corr = bond_correlators(state, basis, (0, 1))
    el = xform_extract(two_site_rdm(state, basis, 0, 1))
    np.testing.assert_allclose(
        corr.czz, 0.25 * (el.u_plus + el.u_minus - el.w1 - el.w2), atol=1e-9
    )
    np.testing.assert_allclose(corr.cxx, 0.5 * el.z, atol=1e-9)


def test_isotropic_point_correlators_coincide():
    basis, vals, vecs = _sector_ground("xxz_half", 8, 0.0, value=1.0)
    corr = bond_correlators(vecs[:, 0], basis, (0, 1))
    np.testing.assert_allclose(corr.cxx, corr.czz, atol=1e-9)


def test_neel_product_state_correlators():
    basis = build_basis(4, "half", 0.0)
    state = np.zeros(basis.dimension)
    up_down = [basis.site_digits(s) for s in range(4)]
    pattern = (np.array(up_down).T == [1, 0, 1, 0]).all(axis=1)
    state[np.flatnonzero(pattern)[0]] = 1.0
    corr = bond_correlators(state, basis, (0, 1))
    np.testing.assert_allclose(corr.czz, -0.25, atol=1e-15)
    assert corr.cxx == 0.0


def test_correlators_match_full_space_operators():
    """Transverse hopping sums against dense Kronecker expectation values."""
    cases = [
        ("xxz_half", 6, dict(value=0.5), 0.5),
        ("xxz_one", 4, dict(value=1.2, beta=0.3), 1.0),
    ]
    for family, n, params, s in cases:
        basis, vals, vecs = _sector_ground(family, n, 0.0, **params)
        state = vecs[:, 0]
        full = _embed(basis, state)
        sz, sp, sm = spin_ops(s)
        sx = 0.5 * (sp + sm)
        corr = bond_correlators(state, basis, (0, 1))
        cxx = full @ site_operator(sx, 0, n) @ site_operator(sx, 1, n) @ full
        czz = full @ site_operator(sz, 0, n) @ site_operator(sz, 1, n) @ full
        np.testing.assert_allclose(corr.cxx, cxx, atol=1e-13)
        np.testing.assert_allclose(corr.czz, czz, atol=1e-13)


def test_entropy_clamps_round_off_but_rejects_real_negativity():
    near = np.diag([1.0 + 1e-9, -1e-9, 0.0, 0.0])
    assert von_neumann_entropy(near) == 0.0
    bad = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0])
    with pytest.raises(ValueError):
        von_neumann_entropy(bad)


def test_input_validation():
    basis = build_basis(4, "half", 0.0)
    good = np.zeros(basis.dimension)
    good[0] = 1.0
    with pytest.raises(ValueError):
        two_site_rdm(good, basis, 1, 1)
    with pytest.raises(ValueError):
        two_site_rdm(good, basis, 0, 4)
    with pytest.raises(ValueError):
        two_site_rdm(np.zeros(3), basis, 0, 1)
    with pytest.raises(ValueError):
        bond_correlators(2.0 * good, basis, (0, 1))


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4
    ),
    fraction=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_matrix_routes_on_random_x_states(weights, fraction):
    """Random valid X matrices: closed forms vs eigendecompositions."""
    u_plus, w1, w2, u_minus = np.array(weights) / sum(weights)
    z = fraction * math.sqrt(w1 * w2)
    matrix = np.diag([u_plus, w1, w2, u_minus])
    matrix[1, 2] = matrix[2, 1] = z
    el = xform_extract(matrix)
    np.testing.assert_allclose(
        entropy_closed_form(el), von_neumann_entropy(matrix), atol=1e-10
    )
    np.testing.assert_allclose(
        concurrence_closed_form(el), concurrence(matrix), atol=1e-7
    )


def test_a_sweep_builds_each_pair_table_once(monkeypatch):
    """A 4-point sweep in one sector groups it by rest configuration once and
    looks up the hopping targets once per direction, and every point's
    values equal those computed afresh from the point's ground state."""
    calls = collections.Counter()
    real_unique, real_index = np.unique, SpinBasis.index

    def count(name):
        if sys._getframe(2).f_globals.get("__name__") == "spinent.entanglement":
            calls[name] += 1

    def unique(*args, **kwargs):
        count("unique")
        return real_unique(*args, **kwargs)

    def index(self, states):
        count("index")
        return real_index(self, states)

    monkeypatch.setattr(analysis, "_WORKSPACES", {})
    monkeypatch.setattr(np, "unique", unique)
    monkeypatch.setattr(SpinBasis, "index", index)
    grid = (-0.5, 0.7, 4)
    rows = analysis.sweep("xxz_half", "chain", [10], grid).rows
    assert calls == {"unique": 1, "index": 2}
    workspace = analysis.shared_workspace("xxz_half", "chain", 10)
    for row, delta in zip(rows, np.linspace(*grid)):
        report = scan_one(workspace, model_for("xxz_half", delta))
        assert report.ground_sz == 0.0
        state, basis = report.representative.vector, workspace.basis(0.0)
        rdm = two_site_rdm_reference(state, basis, 0, 1)
        assert np.array_equal(two_site_rdm(state, basis, 0, 1), rdm)
        assert row.ev == von_neumann_entropy(rdm)
        assert row.concurrence == concurrence(rdm)
        hops = hopping_reference(state, basis, 1, 0) + hopping_reference(state, basis, 0, 1)
        assert row.cxx == 0.25 * hops
    assert calls == {"unique": 1, "index": 2}


def _uniform_state(basis):
    return np.full(basis.dimension, basis.dimension**-0.5)


def _table_arrays(basis):
    tables = entanglement._PAIR_TABLES[basis].values()
    return [array for table in tables for array in table if isinstance(array, np.ndarray)]


def test_pair_tables_are_released_with_their_basis():
    basis = build_basis(10, "half", 0.0)
    state = _uniform_state(basis)
    two_site_rdm(state, basis, 0, 1)
    bond_correlators(state, basis, (0, 1))
    assert len(entanglement._PAIR_TABLES[basis]) == 3
    watched = [weakref.ref(basis)] + [weakref.ref(array) for array in _table_arrays(basis)]
    del basis
    gc.collect()
    assert all(ref() is None for ref in watched)


# Kept bytes per sector state of one pair's tables: int32 rest group and
# uint8 pair code (5), and per flip direction its int32 rows and rows reached.
_TABLE_BYTES_PER_STATE = {"half": 10, "one": 13}


@pytest.mark.parametrize("spin,size", [("half", 12), ("one", 8)])
def test_pair_tables_take_at_most_16_bytes_per_state(spin, size):
    """The grouping, and both directions' flips, of one pair: 9.4 bytes per
    state for spin-1/2 N=12 and 12.7 for spin-1 L=8."""
    basis = build_basis(size, spin, 0.0)
    state = _uniform_state(basis)
    two_site_rdm(state, basis, 2, 3)
    bond_correlators(state, basis, (2, 3))
    kept = sum(array.nbytes for array in _table_arrays(basis))
    assert kept <= _TABLE_BYTES_PER_STATE[spin] * basis.dimension


def test_first_rdm_call_peak_memory():
    """Grouping a pair by its rest configurations on the N=20 Sz=0 sector
    traces at most 48 bytes per sector state (about 40; 63 when the sort
    ran on int64 codes)."""
    basis = build_basis(20, "half", 0.0)
    state = _uniform_state(basis)
    tracemalloc.start()
    try:
        two_site_rdm(state, basis, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * basis.dimension


def test_first_correlators_call_peak_memory():
    """Building both flip tables of a pair on the N=20 Sz=0 sector traces at
    most 55 bytes per sector state (about 33; 60 when each flip also kept
    its two digits)."""
    basis = build_basis(20, "half", 0.0)
    basis.index(basis.states[:1])
    state = _uniform_state(basis)
    tracemalloc.start()
    try:
        bond_correlators(state, basis, (0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 55 * basis.dimension


@pytest.mark.parametrize("spin", sorted(SPIN_VALUE))
def test_every_raising_element_has_one_value(spin):
    """bond_correlators gives every flip one weight, the square of S+'s one
    element value; a spin whose S+ elements differ would need a weight per
    digit."""
    _, sp, _ = spin_matrices(spin)
    d = sp.shape[0]
    elements = sp[np.arange(1, d), np.arange(d - 1)]
    assert np.count_nonzero(sp) == d - 1
    assert (elements == elements[0]).all()
    assert entanglement._FLIP_WEIGHT[spin] == elements[0] * elements[0]


def _ring_sectors():
    for spin, family, value, sizes in (
        ("half", "xxz_half", 0.7, range(4, 13)),
        ("one", "xxz_one", 1.3, range(4, 9)),
    ):
        for n in sizes:
            top = SPIN_VALUE[spin] * n
            for sz in np.arange(top % 1, top + 0.5):
                yield pytest.param(family, value, n, float(sz), id=f"{family}-{n}-{sz:g}")


def _same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("family,value,n,sz", list(_ring_sectors()))
def test_correlators_are_bitwise_the_per_state_route(family, value, n, sz):
    """cxx is a quarter of the two flip directions summed state by state with
    a weight per digit, and czz the plain sum of state^2 sz_i sz_j, both with
    == and the sign bit, on a seeded random vector and on the sector's
    ground state."""
    workspace = SectorWorkspace(family, chain_lattice(n))
    basis = workspace.basis(sz)
    random = np.random.default_rng(n).standard_normal(basis.dimension)
    ground = lanczos_lowest(workspace.matrix(model_for(family, value), sz))[0]
    for state in (random / np.linalg.norm(random), ground.vector):
        for i, j in ((0, 1), (1, 0), (0, 2), (1, n // 2)):
            corr = bond_correlators(state, basis, (i, j))
            hops = hopping_reference(state, basis, j, i) + hopping_reference(state, basis, i, j)
            assert _same_bits(corr.cxx, 0.25 * hops)
            sz_i = basis.site_digits(i) - SPIN_VALUE[basis.spin]
            sz_j = basis.site_digits(j) - SPIN_VALUE[basis.spin]
            assert _same_bits(corr.czz, float(np.sum(state * state * sz_i * sz_j)))
    for (build, _), table in entanglement._PAIR_TABLES[basis].items():
        if build is entanglement._flips:
            assert [array.dtype for array in table] == [np.int32, np.int32]
