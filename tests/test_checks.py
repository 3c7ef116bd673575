"""Exact evidence behind the targets of acceptance criteria 5 and 8.

Criterion 5 compares the N=12 pair entropy just above delta = -1 with the
Bethe route and caps it by the Dicke-state value. Criterion 8 expects a
local entropy maximum with an SU(3) 1 + 8 pair spectrum at theta = 3pi/2.
These tests pin those facts outside the battery, against routes that share
no code with the package's exact diagonalization: the Bethe ansatz and the
dense Kronecker oracle. The last test pins the battery's titles, which a
criterion keeps when it crashes.
"""

import math

import numpy as np
import pytest

from oracles import full_hamiltonian, ground_full, pair_rdm_full
from spinent import checks, cli
from spinent.bethe import hf_correlators, solve_ground
from spinent.checks import _dicke_pair_entropy
from spinent.eigensolver import degeneracy_count
from spinent.entanglement import (
    XFormElements,
    entropy_closed_form,
    two_site_rdm,
    von_neumann_entropy,
)
from spinent.hamiltonian import SectorWorkspace, model_for
from spinent.lattice import chain_lattice


def _entropy_bits(rho):
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def _package_ground(family, n, param):
    model = model_for(family, param)
    workspace = SectorWorkspace(family, chain_lattice(n))
    basis = workspace.basis(0.0)
    ham = workspace.matrix(model, 0.0)
    _, vecs = np.linalg.eigh(ham.matrix.toarray())
    return vecs[:, 0], basis


@pytest.mark.parametrize("n", [4, 8, 12])
def test_dicke_closed_form_matches_the_dense_dicke_state(n):
    ups = np.array([bin(index).count("1") for index in range(2**n)])
    dicke = (ups == n // 2).astype(float)
    dicke /= np.linalg.norm(dicke)
    rho = pair_rdm_full(dicke, n, 2, 0, 1)
    assert _dicke_pair_entropy(n) == pytest.approx(_entropy_bits(rho), abs=1e-12)


def test_dicke_entropy_rises_to_one_and_a_half_bits():
    values = [_dicke_pair_entropy(n) for n in (4, 12, 100, 10**6)]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(1.5, abs=1e-5)


def test_boundary_entropy_matches_bethe_and_approaches_the_dicke_limit():
    n = 12
    cap = _dicke_pair_entropy(n)
    exact = {}
    for delta in (-0.999, -0.95):
        state, basis = _package_ground("xxz_half", n, delta)
        exact[delta] = von_neumann_entropy(two_site_rdm(state, basis, 0, 1))
        czz, cxx = hf_correlators(lambda x: solve_ground(n, x).energy, n, delta)
        elements = XFormElements(
            u_plus=0.25 + czz, w1=0.25 - czz, w2=0.25 - czz, u_minus=0.25 + czz,
            z=2 * cxx,
        )
        assert abs(exact[delta] - entropy_closed_form(elements)) <= 1e-6
        assert exact[delta] <= cap
    # the entropy climbs toward the Dicke value, far below the old 1.9 target
    assert exact[-0.95] < exact[-0.999]
    assert cap - exact[-0.999] < 1e-3


def test_su3_point_is_an_entropy_maximum_with_a_singlet_plus_octet_spectrum():
    n = 6
    step = math.pi / 100
    entropies, clusters = [], []
    for theta in (1.5 * math.pi - step, 1.5 * math.pi, 1.5 * math.pi + step):
        state, basis = _package_ground("blbq", n, theta)
        rdm = two_site_rdm(state, basis, 0, 1)
        _, full_state = ground_full(
            full_hamiltonian("blbq", n, chain_lattice(n).bonds, theta=theta)
        )
        oracle = _entropy_bits(pair_rdm_full(full_state, n, 3, 0, 1))
        entropies.append(von_neumann_entropy(rdm))
        assert abs(entropies[-1] - oracle) <= 1e-10
        clusters.append(degeneracy_count(np.linalg.eigvalsh(rdm), 1e-10))
    assert entropies[1] > max(entropies[0], entropies[2])
    assert clusters[1] == [8, 1]
    # away from the SU(3) point the octet splits into SU(2) multiplets
    assert clusters[0] != [8, 1] and clusters[2] != [8, 1]


def test_a_bad_worker_count_is_refused_before_any_criterion(monkeypatch, capsys):
    """The worker count is checked first: before the criterion numbers and
    before any criterion runs, in the library and in `spinent check`. With
    a good count an unknown number is refused next, naming the valid ones."""
    ran = []
    for number in checks.CRITERIA:
        monkeypatch.setitem(checks.CRITERIA, number, ("probe", ran.append))
    message = "--jobs must be at least 1, got 0"
    for numbers in (None, [5], [99]):
        with pytest.raises(ValueError, match=message):
            checks.run_all(numbers, jobs=0)
    for number in (5, 99):
        with pytest.raises(ValueError, match=message):
            checks.run_criterion(number, jobs=0)
    with pytest.raises(ValueError, match=r"no criterion 99; valid numbers are \[1, 2, .*, 10\]"):
        checks.run_criterion(99)
    assert ran == []
    assert cli.run(["check", "--jobs", "0", "--criteria", "99"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert ran == []


def test_a_crashed_criterion_reports_its_run_title(monkeypatch):
    """A crash used to take the title from the docstring, which differs from
    the run title for all ten, so the JSON report's title hung on the crash."""
    def crash(*args, **kwargs):
        raise RuntimeError("probe")

    for name in ("sector_ground", "sweep", "extremum_scaling", "solve_ground"):
        monkeypatch.setattr(checks, name, crash)
    results = checks.run_all(None)
    assert [result.details for result in results] == [["FAIL crashed: RuntimeError: probe"]] * 10
    assert {result.number: result.title for result in results} == {
        1: "free-fermion oracle equality at the XX point",
        2: "isotropic-point values from the analytic route",
        3: "Bethe ansatz equals exact diagonalization",
        4: "Hellmann-Feynman consistency on the ring",
        5: "ferromagnetic boundary degeneracy switch",
        6: "square-lattice entropy peak and SU(2) crossing",
        7: "spin-1 derivative-minimum scaling",
        8: "bilinear-biquadratic phase map",
        9: "entropy saturation in the gapped window",
        10: "density-matrix and solver property battery",
    }
