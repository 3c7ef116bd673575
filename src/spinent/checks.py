"""Numbered end-to-end checks behind the `check` subcommand.

Each criterion is a self-contained reproduction of one headline result,
phrased as a list of (ok, detail) sub-checks. A shared context caches
Sz=0 ground solves, and ``analysis.shared_workspace`` the sector
workspaces, so the whole battery runs in seconds on one core. The test
suite drives the same functions, one test per criterion, so
`spinent check` and pytest cannot drift apart.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (
    extrapolate,
    extremum_scaling,
    locate_extremum,
    shared_workspace,
    sweep,
)
from .bethe import hf_correlators, solve_ground, xx_oracle
from .eigensolver import (
    EigenResult,
    degeneracy_count,
    dense_lowest,  # unused here, but perfbench/tracing.py wraps this binding
    lanczos_lowest,
    low_spectrum,
    solve_sector,
)
from .entanglement import (
    XFormElements,
    bond_correlators,
    concurrence_closed_form,
    entropy_closed_form,
    two_site_rdm,
    von_neumann_entropy,
    xform_eigenvalues,
    xform_extract,
)
from .hamiltonian import model_for
from .basis import SpinBasis, nonnegative_sectors


@dataclass(eq=False)
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: list[str]
    elapsed_seconds: float

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number}: {verdict} - {self.title} "
            f"({self.elapsed_seconds:.1f}s)"
        )


class CheckContext:
    """The worker count and the Sz=0 ground solves shared between criteria;
    the workspaces they use are held by ``analysis.shared_workspace``."""

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._grounds: dict[tuple, tuple[EigenResult, SpinBasis]] = {}

    def sector_ground(
        self, family: str, size: int, param: float, geometry: str = "chain"
    ) -> tuple[EigenResult, SpinBasis]:
        """Lowest eigenpair of the Sz=0 sector at one parameter value, solved
        as ground_state_scan solves it and written over the plain sector."""
        key = (family, geometry, size, param)
        hit = self._grounds.get(key)
        if hit is None:
            workspace = shared_workspace(family, geometry, size)
            _, pair, _ = solve_sector(model_for(family, param), workspace, 0.0)
            hit = (pair()[1], workspace.basis(0.0))
            self._grounds[key] = hit
        return hit


def _close(value: float, target: float, tol: float, label: str):
    ok = abs(value - target) <= tol
    return ok, f"{label}: {value:.8g} vs {target:.8g} (tol {tol:g})"


def _at_most(value: float, bound: float, label: str):
    ok = value <= bound
    return ok, f"{label}: {value:.3g} (bound {bound:g})"


def _at_least(value: float, bound: float, label: str):
    ok = value >= bound
    return ok, f"{label}: {value:.6g} (needs >= {bound:g})"


def _equals(value, target, label: str):
    ok = value == target
    return ok, f"{label}: {value} (expected {target})"


def _bethe_pair(n: int, delta: float) -> tuple[float, float, XFormElements]:
    """(czz, cxx, X-form elements) of a ring bond from Bethe energies alone.

    Hellmann-Feynman turns the Bethe energy curve into the bond correlators,
    and on a ring with conserved Sz and real amplitudes those fix the whole
    pair density matrix. No exact-diagonalization code is involved.
    """
    def energy_fn(x):
        return solve_ground(n, x).energy

    czz, cxx = hf_correlators(energy_fn, n, delta)
    elements = XFormElements(
        u_plus=0.25 + czz, w1=0.25 - czz, w2=0.25 - czz, u_minus=0.25 + czz,
        z=2 * cxx,
    )
    return czz, cxx, elements


def _dicke_pair_entropy(n: int) -> float:
    """Pair entropy in bits of the n-site Dicke state (Sz=0, total spin n/2).

    The Dicke state is the equal-weight sum of all half-filled configurations,
    the Sz=0 member of the ferromagnetic multiplet, and the limit of the XXZ
    ring's Sz=0 ground state as delta -> -1 from above. Counting
    configurations gives the pair density matrix the eigenvalues
    {p, p, 2q, 0} with p = (n-2)/(4(n-1)) for each aligned pair and
    q = n/(4(n-1)) for each antialigned one, whose coherence is also q.
    The entropy rises to 1.5 bits as n grows.
    """
    p = (n - 2) / (4 * (n - 1))
    q = n / (4 * (n - 1))
    return -(2 * p * math.log2(p) + 2 * q * math.log2(2 * q))


def _criterion_1(ctx: CheckContext):
    """Free-fermion oracle equality and the XX-point entropy limit."""
    checks = []
    sizes = (8, 12, 16, 20)
    entropies, upper_eig, lower_eig = [], [], []
    for n in sizes:
        ground, basis = ctx.sector_ground("xxz_half", n, 0.0)
        oracle_energy, oracle_cxx, oracle_czz = xx_oracle(n)
        checks.append(_close(ground.energy, oracle_energy, 1e-8, f"N={n} ground energy vs free fermions"))
        correlators = bond_correlators(ground.vector, basis, (0, 1))
        checks.append(_close(correlators.cxx, oracle_cxx, 1e-8, f"N={n} cxx vs free fermions"))
        checks.append(_close(correlators.czz, oracle_czz, 1e-8, f"N={n} czz vs free fermions"))
        rdm = two_site_rdm(ground.vector, basis, 0, 1)
        entropies.append((n, von_neumann_entropy(rdm)))
        _, _, lam_plus, lam_minus = xform_eigenvalues(xform_extract(rdm))
        upper_eig.append((n, lam_plus))
        lower_eig.append((n, lam_minus))
    fit = extrapolate(entropies, "inverse_L_squared")
    checks.append(_close(fit.extrapolated_value, 1.3675, 0.002, "extrapolated pair entropy"))
    fit_up = extrapolate(upper_eig, "inverse_L_squared")
    fit_down = extrapolate(lower_eig, "inverse_L_squared")
    checks.append(_close(fit_up.extrapolated_value, 0.669, 0.002, "extrapolated central eigenvalue (upper)"))
    checks.append(_close(fit_down.extrapolated_value, 0.033, 0.002, "extrapolated central eigenvalue (lower)"))
    return "free-fermion oracle equality at the XX point", checks


def _criterion_2(ctx: CheckContext):
    """Isotropic-point entropy, correlators, and concurrence."""
    checks = []
    for n in (8, 12, 16, 20):
        ground, basis = ctx.sector_ground("xxz_half", n, 1.0)
        correlators = bond_correlators(ground.vector, basis, (0, 1))
        checks.append(
            _at_most(abs(correlators.cxx - correlators.czz), 1e-9, f"N={n} |cxx - czz|")
        )
    entropy_pts, czz_pts, cxx_pts, concurrence_pts = [], [], [], []
    for n in (24, 32, 48, 64):
        czz, cxx, elements = _bethe_pair(n, 1.0)
        entropy_pts.append((n, entropy_closed_form(elements)))
        concurrence_pts.append((n, concurrence_closed_form(elements)))
        czz_pts.append((n, czz))
        cxx_pts.append((n, cxx))
    target = (0.25 - math.log(2)) / 3.0
    checks.append(_close(
        extrapolate(entropy_pts, "inverse_L_squared").extrapolated_value,
        1.3759, 0.003, "extrapolated pair entropy",
    ))
    checks.append(_close(
        extrapolate(czz_pts, "inverse_L_squared").extrapolated_value,
        target, 1e-3, "extrapolated czz",
    ))
    checks.append(_close(
        extrapolate(cxx_pts, "inverse_L_squared").extrapolated_value,
        target, 1e-3, "extrapolated cxx",
    ))
    checks.append(_close(
        extrapolate(concurrence_pts, "inverse_L_squared").extrapolated_value,
        2 * math.log(2) - 1, 0.01, "extrapolated concurrence",
    ))
    return "isotropic-point values from the analytic route", checks


def _criterion_3(ctx: CheckContext):
    """Bethe energies against exact diagonalization."""
    checks = []
    anisotropies = (-0.9, -0.5, 0.0, 0.5, 0.9, 1.0)
    for n in (4, 6, 8, 10, 12, 14):
        worst = 0.0
        for delta in anisotropies:
            gap = abs(
                solve_ground(n, delta).energy
                - ctx.sector_ground("xxz_half", n, delta)[0].energy
            )
            worst = max(worst, gap)
        checks.append(_at_most(worst, 1e-8, f"N={n} worst |E_bethe - E_ed| over 6 anisotropies"))
    return "Bethe ansatz equals exact diagonalization", checks


def _criterion_4(ctx: CheckContext):
    """Energy-derivative route to czz agrees with the direct expectation."""
    checks = []
    n = 12
    for delta in (0.25, 0.75, 1.5):
        ground, basis = ctx.sector_ground("xxz_half", n, delta)
        direct = bond_correlators(ground.vector, basis, (0, 1)).czz

        def energy_fn(x):
            return ctx.sector_ground("xxz_half", n, x)[0].energy

        derived_czz, _ = hf_correlators(energy_fn, n, delta)
        checks.append(_at_most(
            abs(n * direct - n * derived_czz), 1e-5,
            f"delta={delta} |N*czz - dE/d(delta)|",
        ))
    return "Hellmann-Feynman consistency on the ring", checks


def _criterion_5(ctx: CheckContext):
    """Degeneracy switch and entropy collapse at the ferromagnetic boundary.

    Just above delta = -1 the Sz=0 ground state tends to the Dicke state, so
    its pair entropy approaches the Dicke value (1.4486 bits at N=12, 1.5
    bits as N grows); at N=12 exact diagonalization rises toward it from
    below (1.4273 at -0.95, 1.4481 at -0.999). The value at -0.95 must also
    match the Bethe route, which shares no code with the sweep.
    """
    table = sweep("xxz_half", "chain", [12], (-1.5, -0.5, 21), jobs=ctx.jobs)
    rows = {round(row.param, 9): row for row in table.rows}
    checks = []
    below, at, above = rows[-1.05], rows[-1.0], rows[-0.95]
    checks.append(_equals(below.degeneracy, 2, "degeneracy just below the boundary"))
    checks.append(_equals(at.degeneracy, 13, "degeneracy at the boundary (full multiplet)"))
    checks.append(_equals(above.degeneracy, 1, "degeneracy just above the boundary"))
    ferro_rows = [row for row in table.rows if row.param < -1.0 - 1e-9]
    worst_entropy = max(row.ev for row in ferro_rows)
    checks.append(_at_most(worst_entropy, 1e-12, "max pair entropy in the polarized phase"))
    _, _, elements = _bethe_pair(12, -0.95)
    checks.append(_close(
        above.ev, entropy_closed_form(elements), 1e-6,
        "pair entropy just above the boundary vs Bethe-Hellmann-Feynman",
    ))
    cap = _dicke_pair_entropy(12)
    checks.append((
        above.ev <= cap,
        f"pair entropy just above the boundary: {above.ev:.8g} "
        f"(needs <= Dicke-state limit {cap:.8g})",
    ))
    return "ferromagnetic boundary degeneracy switch", checks


def _criterion_6(ctx: CheckContext):
    """Square-lattice entropy peak at the isotropic point, with the SU(2) crossing.

    The 4x4 ground state is unique and gapped near delta = 1, so its pair
    entropy is analytic there and has no kink to measure. What becomes the
    cusp as N grows is the crossing of the bond correlators: czz = cxx at
    delta = 1, where the three triplet RDM eigenvalues coincide, with the
    transverse correlator stronger below (czz - cxx > 0) and the Ising one
    above.
    """
    table = sweep("xxz_half", "square", [4], (0.5, 2.0, 31), jobs=ctx.jobs)
    series = table.series("4x4", "ev")
    checks = []
    x_star, _ = locate_extremum(series, "max")
    checks.append(_close(x_star, 1.0, 0.05, "entropy maximum location"))
    rows = {round(row.param, 9): row for row in table.rows}
    gap = {delta: rows[delta].czz - rows[delta].cxx for delta in (0.95, 1.0, 1.05)}
    checks.append(_at_most(abs(gap[1.0]), 1e-9, "|czz - cxx| at delta=1"))
    checks.append((
        gap[0.95] > 0.0 > gap[1.05],
        f"czz - cxx across delta=1: {gap[0.95]:+.4g} at 0.95, "
        f"{gap[1.05]:+.4g} at 1.05 (needs + then -)",
    ))
    return "square-lattice entropy peak and SU(2) crossing", checks


def _criterion_7(ctx: CheckContext):
    """Spin-1 derivative minima scale toward the crossover anisotropy."""
    extrema, fits = extremum_scaling(
        "xxz_one", "chain", [8, 10, 12], (0.9, 2.1, 25), "ev", jobs=ctx.jobs
    )
    checks = []
    for (small, x_small, _), (large, x_large, _) in zip(extrema, extrema[1:]):
        checks.append(_at_least(
            x_small - x_large, 0.0,
            f"minimum moves left from L={small} ({x_small:.4f}) to L={large} ({x_large:.4f})",
        ))
    for fit in fits:
        value = fit.extrapolated_value
        ok = 1.10 <= value <= 1.30
        checks.append((ok, f"{fit.form} extrapolation: {value:.4f} (window [1.10, 1.30])"))
    return "spin-1 derivative-minimum scaling", checks


def _is_local_min(values: np.ndarray, idx: int) -> bool:
    return (
        0 < idx < len(values) - 1
        and values[idx] <= values[idx - 1] + 1e-12
        and values[idx] <= values[idx + 1] + 1e-12
    )


def _criterion_8(ctx: CheckContext):
    """Phase map of the spin-1 bilinear-biquadratic ring at L=6."""
    count = 201
    table = sweep("blbq", "chain", [6], (0.0, 2 * math.pi, count), jobs=ctx.jobs)
    params = np.array([row.param for row in table.rows])
    entropy = np.array([row.ev for row in table.rows])
    checks = []

    def nearest(theta):
        return int(np.argmin(np.abs(params - theta)))

    pivot = nearest(math.pi / 4)
    hit = any(_is_local_min(entropy, idx) for idx in (pivot - 1, pivot, pivot + 1))
    checks.append((hit, "local entropy minimum within one grid step of pi/4"))

    # theta = 3pi/2 is the pure-biquadratic SU(3) point: the pair RDM splits
    # into an SU(3) singlet and an octet, and the entropy peaks there.
    su3 = nearest(3 * math.pi / 2)
    checks.append((
        _is_local_min(-entropy, su3),
        f"local entropy maximum at 3pi/2: {entropy[su3]:.8g} "
        f"(neighbours {entropy[su3 - 1]:.8g}, {entropy[su3 + 1]:.8g})",
    ))
    ground, basis = ctx.sector_ground("blbq", 6, 3 * math.pi / 2)
    spectrum = np.linalg.eigvalsh(two_site_rdm(ground.vector, basis, 0, 1).matrix)
    clusters = degeneracy_count(spectrum, 1e-10)
    checks.append(_equals(
        clusters, [8, 1], "pair RDM eigenvalue multiplicities at 3pi/2 (tol 1e-10)"
    ))

    inside = [
        i for i in range(count)
        if math.pi / 2 + 1e-12 < params[i] < 5 * math.pi / 4 - 1e-12
    ]
    worst_entropy = max(entropy[i] for i in inside)
    flags_on = all(table.rows[i].degenerate_flag for i in inside)
    checks.append(_at_most(worst_entropy, 1e-12, "max entropy on the polarized arc"))
    checks.append((flags_on, "degenerate_flag set on every polarized-arc point"))

    for label, theta in (("pi/2", math.pi / 2), ("5pi/4", 5 * math.pi / 4)):
        pivot = nearest(theta)
        jump = max(
            abs(entropy[pivot] - entropy[pivot - 1]),
            abs(entropy[pivot + 1] - entropy[pivot]),
        )
        checks.append(_at_least(jump, 0.3, f"entropy jump across {label}"))

    multiplicities = []
    workspace = shared_workspace("blbq", "chain", 6)
    side = 0.05
    for theta in (3 * math.pi / 2 - side, 3 * math.pi / 2, 3 * math.pi / 2 + side):
        levels = low_spectrum(
            model_for("blbq", theta), workspace.lattice, 12, workspace=workspace
        )
        clusters = degeneracy_count([e for e, _ in levels], 1e-6)
        multiplicities.append(clusters[1] if len(clusters) > 1 else 0)
    ok = sorted(multiplicities) == [3, 5, 8]
    checks.append((
        ok,
        "first-excited multiplicities around 3pi/2: "
        f"{multiplicities} (expected {{3, 8, 5}} as a set)",
    ))
    return "bilinear-biquadratic phase map", checks


def _criterion_9(ctx: CheckContext):
    """Pair entropy stops scaling with size in the gapped window."""
    table = sweep("xxz_half", "chain", [8, 12, 16], (1.5, 3.0, 31), jobs=ctx.jobs)
    by_size = {
        size: dict(table.series(str(size), "ev")) for size in (8, 12, 16)
    }
    worst = 0.0
    for param in by_size[8]:
        values = [by_size[size][param] for size in (8, 12, 16)]
        worst = max(worst, max(values) - min(values))
    checks = [_at_most(worst, 0.01, "max size-to-size entropy spread on [1.5, 3]")]
    return "entropy saturation in the gapped window", checks


_RDM_ROSTER = (
    ("xxz_half", 10, 0.3),
    ("xxz_half", 10, 1.0),
    ("xxz_half", 8, 2.5),
    ("xxz_one", 6, 1.2),
    ("blbq", 6, 0.3),
)

_SOLVER_ROSTER = (
    ("xxz_half", 12, 0.7),
    ("xxz_one", 8, 1.3),
    ("blbq", 6, 0.3),
)


def _criterion_10(ctx: CheckContext):
    """Density-matrix and solver property battery."""
    checks = []
    for family, size, param in _RDM_ROSTER:
        ground, basis = ctx.sector_ground(family, size, param)
        pairs = ((0, 1), (2, 5), (0, size // 2))
        trace_err = symm_err = eig_low = eig_high = 0.0
        xform_err = closed_err = 0.0
        for pair in pairs:
            rdm = two_site_rdm(ground.vector, basis, *pair)
            rho = rdm.matrix
            trace_err = max(trace_err, abs(np.trace(rho) - 1.0))
            symm_err = max(symm_err, float(np.max(np.abs(rho - rho.T))))
            eigenvalues = np.linalg.eigvalsh(rho)
            eig_low = min(eig_low, float(eigenvalues.min()))
            eig_high = max(eig_high, float(eigenvalues.max()))
            if basis.spin == "half":
                elements = xform_extract(rdm)
                correlators = bond_correlators(ground.vector, basis, pair)
                xform_err = max(
                    xform_err,
                    abs(elements.u_plus - (0.25 + correlators.czz)),
                    abs(elements.u_minus - (0.25 + correlators.czz)),
                    abs(elements.w1 - (0.25 - correlators.czz)),
                    abs(elements.w2 - (0.25 - correlators.czz)),
                    abs(elements.z - (correlators.cxx + correlators.cyy)),
                )
                closed_err = max(
                    closed_err,
                    abs(entropy_closed_form(elements) - von_neumann_entropy(rdm)),
                )
        tag = f"{family} N={size} param={param}"
        checks.append(_at_most(trace_err, 1e-10, f"{tag}: worst |trace - 1|"))
        checks.append(_at_most(symm_err, 1e-12, f"{tag}: worst asymmetry"))
        checks.append(_at_most(-eig_low, 1e-10, f"{tag}: worst negative eigenvalue"))
        checks.append(_at_most(eig_high, 1.0 + 1e-10, f"{tag}: largest eigenvalue"))
        if basis.spin == "half":
            checks.append(_at_most(xform_err, 1e-9, f"{tag}: worst X-form identity gap"))
            checks.append(_at_most(closed_err, 1e-10, f"{tag}: closed-form entropy gap"))

    for family, size, param in _SOLVER_ROSTER:
        workspace = shared_workspace(family, "chain", size)
        model = model_for(family, param)
        worst = 0.0
        largest = 0
        for sz in nonnegative_sectors(workspace.spin, size):
            ham = workspace.matrix(model, sz)
            if ham.dimension > 2000:
                continue
            largest = max(largest, ham.dimension)
            # The oracle's energy only: eigvalsh, no eigenvectors.
            oracle = float(np.linalg.eigvalsh(ham.matrix.toarray())[0])
            gap = abs(lanczos_lowest(ham, 1)[0].energy - oracle)
            worst = max(worst, gap)
        checks.append(_at_most(
            worst, 1e-10,
            f"{family} N={size}: worst Lanczos-vs-dense gap (sectors up to {largest})",
        ))
    return "density-matrix and solver property battery", checks


#: Every criterion by its number.
CRITERIA = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
    9: _criterion_9,
    10: _criterion_10,
}


def run_criterion(number: int, context: CheckContext | None = None) -> CriterionResult:
    if number not in CRITERIA:
        raise ValueError(f"no criterion {number}; valid numbers are {sorted(CRITERIA)}")
    context = context if context is not None else CheckContext()
    started = time.perf_counter()
    try:
        title, raw = CRITERIA[number](context)
    except Exception as fail:  # a crash is a failed criterion, not a dead battery
        elapsed = time.perf_counter() - started
        return CriterionResult(
            number=number,
            title=CRITERIA[number].__doc__.splitlines()[0].rstrip("."),
            passed=False,
            details=[f"FAIL crashed: {type(fail).__name__}: {fail}"],
            elapsed_seconds=elapsed,
        )
    elapsed = time.perf_counter() - started
    details = [("ok   " if ok else "FAIL ") + text for ok, text in raw]
    return CriterionResult(
        number=number,
        title=title,
        passed=all(ok for ok, _ in raw),
        details=details,
        elapsed_seconds=elapsed,
    )


def run_all(
    numbers=None, context: CheckContext | None = None, progress=None
) -> list[CriterionResult]:
    """The numbered criteria, or all, in order; ValueError first for an unknown number."""
    selected = sorted(numbers) if numbers else sorted(CRITERIA)
    unknown = [number for number in selected if number not in CRITERIA]
    if unknown:
        raise ValueError(f"criteria out of range: {unknown}")
    context = context if context is not None else CheckContext()
    results = []
    for number in selected:
        if progress is not None:
            progress(f"running criterion {number} ...")
        results.append(run_criterion(number, context))
    return results
