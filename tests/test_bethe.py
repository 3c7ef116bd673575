import math
from dataclasses import astuple

import numpy as np
import pytest

from oracles import full_hamiltonian, ground_full
from spinent import bethe, checks
from spinent.bethe import (
    UnsupportedRegimeError,
    _HF_STEP,
    _Kernels,
    hf_correlators,
    solve_ground,
    xx_oracle,
)
from spinent.eigensolver import ConvergenceError
from spinent.entanglement import bond_correlators, two_site_rdm, xform_extract
from spinent.hamiltonian import SectorWorkspace, model_for
from spinent.lattice import chain_lattice


def _dense_energy(n, delta):
    workspace = SectorWorkspace("xxz_half", chain_lattice(n))
    ham = workspace.matrix(model_for("xxz_half", delta), 0.0)
    return float(np.linalg.eigvalsh(ham.matrix.toarray())[0])


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("delta", [-0.9, -0.5, 0.0, 0.5, 0.9, 1.0])
def test_energy_calibration_against_brute_force(n, delta):
    """The energy convention is pinned by dense diagonalization."""
    reference, _ = ground_full(
        full_hamiltonian("xxz_half", n, chain_lattice(n).bonds, delta=delta)
    )
    state = solve_ground(n, delta)
    assert abs(state.energy - reference) <= 1e-8
    assert state.max_equation_residual <= 1e-10


@pytest.mark.parametrize("delta", [-0.5, 0.5, 1.0])
def test_twelve_site_energies(delta):
    reference = _dense_energy(12, delta)
    assert abs(solve_ground(12, delta).energy - reference) <= 1e-8


def test_solve_is_one_newton_from_the_free_fermion_rapidities(monkeypatch):
    """No continuation in delta: one Newton solve at the target, started
    from the exact delta = 0 rapidities."""
    calls = []
    real = bethe._newton

    def newton(kernels, lam, n, numbers):
        calls.append((kernels.delta, lam.copy()))
        return real(kernels, lam, n, numbers)

    monkeypatch.setattr(bethe, "_newton", newton)
    solve_ground(16, -0.9)
    assert len(calls) == 1
    delta, start = calls[0]
    assert delta == -0.9
    numbers = np.arange(8) - 3.5
    free = (4.0 / math.pi) * np.arctanh(np.tan(math.pi * numbers / 16))
    np.testing.assert_array_equal(start, free)


@pytest.mark.parametrize("n", [4, 10, 64, 256])
@pytest.mark.parametrize("delta", [-0.99999, -0.999, -0.9, -0.5, 0.5, 0.999, 1.0])
def test_cold_start_converges_across_the_planar_regime(n, delta):
    """The free-fermion start reaches the ground state near both ends of
    (-1, 1]; on rings small enough for dense ED it is that ground."""
    state = solve_ground(n, delta)
    assert state.max_equation_residual <= 1e-10
    if n <= 12:
        reference = _dense_energy(n, delta)
        assert abs(state.energy - reference) <= 1e-10


def test_newton_out_of_steps_names_delta_and_best_residual(monkeypatch):
    monkeypatch.setattr(bethe, "_MAX_NEWTON", 1)
    with pytest.raises(ConvergenceError) as failure:
        solve_ground(16, -0.9)
    message = str(failure.value)
    assert "delta=-0.9 after 1 Newton iterations" in message
    assert f"(best residual {failure.value.best_residual:.3e})" in message
    assert failure.value.best_residual > bethe._RESIDUAL_TOL


def test_free_fermion_point_is_exact():
    np.testing.assert_allclose(solve_ground(4, 0.0).energy, -math.sqrt(2.0), atol=1e-12)


def test_isotropic_four_ring():
    np.testing.assert_allclose(solve_ground(4, 1.0).energy, -2.0, atol=1e-10)


def test_state_bookkeeping():
    state = solve_ground(10, 0.3)
    assert state.num_sites == 10
    assert state.num_down == 5
    np.testing.assert_allclose(state.gamma, math.acos(0.3) / 2.0, atol=1e-15)
    assert len(state.rapidities) == 5
    assert len(state.quantum_numbers) == 5
    np.testing.assert_allclose(sorted(state.quantum_numbers), [-2, -1, 0, 1, 2])


def test_ground_state_rapidities_come_in_opposite_pairs():
    lam = np.sort(solve_ground(12, 0.5).rapidities)
    np.testing.assert_allclose(lam, -lam[::-1], atol=1e-12)


def test_solver_is_deterministic():
    first = solve_ground(16, -0.7)
    second = solve_ground(16, -0.7)
    assert first.energy == second.energy
    assert np.array_equal(first.rapidities, second.rapidities)


def test_energy_curve_is_smooth_in_anisotropy():
    """Consecutive grid energies obey the slope bound N/4 per unit delta."""
    n = 8
    grid = np.linspace(-0.9, 1.0, 39)
    energies = [solve_ground(n, d).energy for d in grid]
    steps = np.diff(grid)
    for gap, h in zip(np.diff(energies), steps):
        assert abs(gap) <= n * h / 4.0 + 1e-9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "delta", [-0.7, 0.3, 0.999, 1.0], ids=["planar-0.7", "planar0.3", "planar0.999", "rational"]
)
def test_kernel_slope_is_the_derivative_of_its_phase(n, delta):
    """slope(n, x) against a central difference of phase(n, x); delta = 1
    runs the rational branch, the others the planar one."""
    kernels = _Kernels(delta)
    assert kernels.rational == (delta == 1.0)
    x = np.linspace(-6.0, 6.0, 49)
    step = 1e-5
    difference = (kernels.phase(n, x + step) - kernels.phase(n, x - step)) / (2 * step)
    np.testing.assert_allclose(kernels.slope(n, x), difference, rtol=0, atol=1e-8)


def test_energy_density_approaches_infinite_chain_value():
    state = solve_ground(64, 1.0)
    assert abs(state.energy / 64 - (0.25 - math.log(2.0))) < 0.002


@pytest.mark.parametrize("bad_n", [2, 5, 7])
def test_rejects_bad_ring_sizes(bad_n):
    with pytest.raises(ValueError):
        solve_ground(bad_n, 0.5)


@pytest.mark.parametrize("delta", [1.0000001, 1.5, -1.0, -2.0])
def test_rejects_unparametrized_anisotropy(delta):
    with pytest.raises(UnsupportedRegimeError):
        solve_ground(8, delta)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_free_fermion_oracle_against_brute_force(n):
    matrix = full_hamiltonian("xxz_half", n, chain_lattice(n).bonds, delta=0.0)
    reference, ground = ground_full(matrix)
    energy, cxx, czz = xx_oracle(n)
    assert abs(energy - reference) <= 1e-10
    from oracles import site_operator, spin_ops

    sz, sp, sm = spin_ops(0.5)
    sx = 0.5 * (sp + sm)
    cxx_ed = ground @ site_operator(sx, 0, n) @ site_operator(sx, 1, n) @ ground
    czz_ed = ground @ site_operator(sz, 0, n) @ site_operator(sz, 1, n) @ ground
    np.testing.assert_allclose(cxx, cxx_ed, atol=1e-10)
    np.testing.assert_allclose(czz, czz_ed, atol=1e-10)


def test_six_ring_free_fermion_values_are_rational():
    energy, cxx, czz = xx_oracle(6)
    np.testing.assert_allclose(energy, -2.0, atol=1e-14)
    np.testing.assert_allclose(cxx, -1.0 / 6.0, atol=1e-14)
    np.testing.assert_allclose(czz, -1.0 / 9.0, atol=1e-14)


def test_free_fermion_oracle_reaches_known_limits():
    _, cxx, czz = xx_oracle(1000)
    assert abs(cxx + 1.0 / (2.0 * math.pi)) < 1e-6
    assert abs(czz + 1.0 / math.pi**2) < 1e-6


def test_free_fermion_oracle_rejects_bad_sizes():
    with pytest.raises(ValueError):
        xx_oracle(7)
    with pytest.raises(ValueError):
        xx_oracle(2)


def test_differentiated_linear_energy_is_exact():
    czz, cxx = hf_correlators(lambda d: 3.7 * d, num_sites=8, delta=0.2)
    np.testing.assert_allclose(czz, 3.7 / 8.0, atol=1e-10)
    np.testing.assert_allclose(cxx, 0.0, atol=1e-10)


def test_bethe_pair_at_the_isotropic_point_is_one_solve_of_the_singlet(monkeypatch):
    """delta = 1 is the solver's domain edge; the SU(2) singlet ground gives
    czz = cxx = E/(3N) there, from one solve and no derivative."""
    calls = []

    def counted(n, delta):
        calls.append((n, delta))
        return solve_ground(n, delta)

    monkeypatch.setattr(checks, "solve_ground", counted)
    for n in (8, 12, 16, 20):
        czz, cxx, elements = checks._bethe_pair(n, 1.0)
        ground, basis = checks.sector_ground("xxz_half", n, 1.0)
        corr = bond_correlators(ground.vector, basis, (0, 1))
        assert czz == cxx
        assert abs(czz - corr.czz) <= 1e-10
        assert abs(cxx - corr.cxx) <= 1e-10
        exact = astuple(xform_extract(two_site_rdm(ground.vector, basis, 0, 1)))
        np.testing.assert_allclose(astuple(elements), exact, rtol=0, atol=1e-10)
    assert calls == [(8, 1.0), (12, 1.0), (16, 1.0), (20, 1.0)]


def test_differentiated_free_fermion_point_matches_oracle():
    czz, cxx = hf_correlators(lambda d: solve_ground(8, d).energy, 8, 0.0)
    _, cxx_ref, czz_ref = xx_oracle(8)
    assert abs(czz - czz_ref) <= 1e-8
    assert abs(cxx - cxx_ref) <= 1e-8


def test_differentiation_propagates_a_dead_provider():
    def only_at_center(d):
        if d != 0.5:
            raise ValueError("out of range")
        return -1.0

    with pytest.raises(ValueError):
        hf_correlators(only_at_center, num_sites=8, delta=0.5)


def test_differentiation_propagates_a_failure_on_one_side():
    """A solver that fails at one stencil point is an error, not a cue to
    differentiate from the other side."""
    calls = []

    def fails_above(d):
        calls.append(d)
        if d > 0.5:
            raise ConvergenceError("no convergence above 0.5", 1.0)
        return 8 * math.exp(d)

    with pytest.raises(ConvergenceError):
        hf_correlators(fails_above, num_sites=8, delta=0.5)
    assert calls == [0.5, 0.5 + _HF_STEP]
