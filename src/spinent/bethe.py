"""Analytic oracles for the spin-1/2 XXZ ring in the planar regime.

Three independent routes to the same physics live here: a finite-size
Bethe-ansatz ground-state solver for anisotropy in (-1, 1], one Newton
solve started from the free-fermion rapidities; the exact free-fermion
solution at the XX point; and Hellmann-Feynman correlators obtained by
differentiating any energy provider. None of them share code
with the exact-diagonalization stack, which is the point: agreement
between the routes is evidence, not tautology.

Parametrization: delta = cos(2*gamma) with gamma in (0, pi/2), and
rapidities scaled so the XXX limit gamma -> 0 stays finite. In these
variables the kernel family of Yang & Yang (Phys. Rev. 150, 321 (1966)) is

    t_n(x) = 2*atan(cot(n*gamma) * tanh(gamma*x)),

with t_1 the bare momentum and t_2 the scattering phase, and the ground
state solves N*t_1(x_j) = 2*pi*I_j + sum_l t_2(x_j - x_l)
with quantum numbers I_j = -(M-1)/2 .. (M-1)/2. The energy convention
was pinned against dense diagonalization at N = 4, 6, 8 (see the test
suite); everything else trusts that calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eigensolver import ConvergenceError

_RESIDUAL_TOL = 1e-10
_MAX_NEWTON = 200
_RATIONAL_GAMMA = 1e-8
# Step in delta of hf_correlators' central difference.
_HF_STEP = 1e-4


class UnsupportedRegimeError(ValueError):
    """Anisotropy outside the regime this solver's parametrization covers."""


@dataclass(eq=False)
class BetheState:
    num_sites: int
    num_down: int
    delta: float
    gamma: float
    rapidities: np.ndarray
    quantum_numbers: np.ndarray
    energy: float
    max_equation_residual: float


class _Kernels:
    """The kernel family t_n of Yang & Yang, its slope, and the energy
    density at one anisotropy.

    t_1 is the bare momentum and t_2 the scattering phase. Denominators of
    the cosh - cos form are evaluated as 2*(sinh(g*x)^2 + sin(n*g)^2), which
    stays positive and cancellation-free arbitrarily close to the XXX point;
    at gamma below 1e-8 the exact rational (XXX) limit takes over.
    """

    def __init__(self, delta: float):
        self.delta = delta
        self.gamma = math.acos(delta) / 2.0
        self.rational = self.gamma < _RATIONAL_GAMMA

    def phase(self, n: int, x):
        """t_n(x)."""
        if self.rational:
            return 2.0 * np.arctan(x / n)
        g = self.gamma
        return 2.0 * np.arctan(np.tanh(g * x) / math.tan(n * g))

    def slope(self, n: int, x):
        """dt_n/dx."""
        if self.rational:
            return 2.0 * n / (n * n + x * x)
        g = self.gamma
        return g * math.sin(2 * n * g) / (np.sinh(g * x) ** 2 + math.sin(n * g) ** 2)

    def energy_density(self, x):
        if self.rational:
            return -2.0 / (1.0 + x * x)
        g = self.gamma
        return -(math.sin(2 * g) ** 2) / (2.0 * (np.sinh(g * x) ** 2 + math.sin(g) ** 2))


def _bethe_residual(kernels: _Kernels, lam: np.ndarray, n: int, numbers: np.ndarray):
    diff = lam[:, None] - lam[None, :]
    t2 = kernels.phase(2, diff)
    np.fill_diagonal(t2, 0.0)
    return n * kernels.phase(1, lam) - 2.0 * math.pi * numbers - t2.sum(axis=1)


def _bethe_jacobian(kernels: _Kernels, lam: np.ndarray, n: int):
    diff = lam[:, None] - lam[None, :]
    dt2 = kernels.slope(2, diff)
    np.fill_diagonal(dt2, 0.0)
    jac = dt2.copy()
    np.fill_diagonal(jac, n * kernels.slope(1, lam) - dt2.sum(axis=1))
    return jac


def _newton(kernels: _Kernels, lam: np.ndarray, n: int, numbers: np.ndarray):
    residual = _bethe_residual(kernels, lam, n, numbers)
    worst = float(np.max(np.abs(residual)))
    for _ in range(_MAX_NEWTON):
        if worst <= _RESIDUAL_TOL:
            return lam, worst
        step = np.linalg.solve(_bethe_jacobian(kernels, lam, n), -residual)
        scale = 1.0
        while True:
            trial = lam + scale * step
            trial_residual = _bethe_residual(kernels, trial, n, numbers)
            trial_worst = float(np.max(np.abs(trial_residual)))
            if trial_worst < worst:
                break
            scale *= 0.5
            if scale < 2.0 ** -40:
                raise ConvergenceError(
                    "Newton step stalled solving the Bethe equations at "
                    f"delta={kernels.delta}", worst,
                )
        lam, residual, worst = trial, trial_residual, trial_worst
    if worst <= _RESIDUAL_TOL:
        return lam, worst
    raise ConvergenceError(
        f"Bethe equations did not converge at delta={kernels.delta} "
        f"after {_MAX_NEWTON} Newton iterations", worst,
    )


def solve_ground(num_sites: int, delta: float) -> BetheState:
    """Ground state of the XXZ ring from the logarithmic Bethe equations.

    Supported anisotropy is (-1, 1]; delta = 1 runs through the rational
    XXX limit of the kernels. One Newton solve at the target anisotropy
    starts from the exact free-fermion rapidities of delta = 0. That cold
    start converged everywhere it was tried, rings of 4 to 1,024 sites at
    delta from -0.999999 to 1, in at most 5 Newton steps.
    """
    if num_sites % 2 or num_sites < 4:
        raise ValueError(f"need an even ring of at least 4 sites, got {num_sites}")
    if not (-1.0 < delta <= 1.0):
        raise UnsupportedRegimeError(
            f"delta={delta} is outside (-1, 1]; the gapped regimes need a "
            "different rapidity parametrization (use exact diagonalization)"
        )
    num_down = num_sites // 2
    numbers = np.arange(num_down) - (num_down - 1) / 2.0
    # Exact solution of the delta = 0 equations in these variables.
    lam = (4.0 / math.pi) * np.arctanh(np.tan(math.pi * numbers / num_sites))

    kernels = _Kernels(delta)
    lam, worst = _newton(kernels, lam, num_sites, numbers)
    energy = num_sites * delta / 4.0 + float(np.sum(kernels.energy_density(lam)))
    return BetheState(
        num_sites=num_sites,
        num_down=num_down,
        delta=delta,
        gamma=kernels.gamma,
        rapidities=lam,
        quantum_numbers=numbers,
        energy=energy,
        max_equation_residual=worst,
    )


def _fermion_sector(num_sites: int, antiperiodic: bool):
    """(energy, mode sum G, filling) for one fermion boundary sector.

    Modes with strictly negative single-particle energy are filled, then
    the fermion-number parity is repaired by the cheapest single change:
    the boundary term of the string transformation ties even filling to
    antiperiodic modes and odd filling to periodic ones.
    """
    m = np.arange(num_sites)
    k = (2.0 * m + 1.0) * math.pi / num_sites if antiperiodic else 2.0 * m * math.pi / num_sites
    single = np.cos(k)
    filled = single < 0.0
    required_parity = 0 if antiperiodic else 1
    if filled.sum() % 2 != required_parity:
        occupied = np.where(filled)[0]
        empty = np.where(~filled)[0]
        add_cost = single[empty].min() if empty.size else math.inf
        drop_cost = -single[occupied].max() if occupied.size else math.inf
        toggle = empty[np.argmin(single[empty])] if add_cost <= drop_cost \
            else occupied[np.argmax(single[occupied])]
        filled = filled.copy()
        filled[toggle] = ~filled[toggle]
    energy = float(single[filled].sum())
    hop = complex(np.exp(1j * k[filled]).sum() / num_sites)
    filling = filled.sum() / num_sites
    return energy, hop, filling


def xx_oracle(num_sites: int) -> tuple[float, float, float]:
    """Exact XX-ring ground energy and bond correlators, free-fermion route.

    Returns (energy, cxx, czz). Both fermion boundary sectors are evaluated
    and the lower one wins. Correlators follow from the filled-mode sum
    G = mean(exp(ik)): cxx = Re(G)/2 and, by Wick's theorem at uniform
    filling nu, czz = (nu - 1/2)^2 - |G|^2.
    """
    if num_sites % 2 or num_sites < 4:
        raise ValueError(f"need an even ring of at least 4 sites, got {num_sites}")
    candidates = [_fermion_sector(num_sites, ap) for ap in (True, False)]
    energy, hop, filling = min(candidates, key=lambda row: row[0])
    cxx = hop.real / 2.0
    czz = (filling - 0.5) ** 2 - abs(hop) ** 2
    return energy, cxx, czz


def hf_correlators(
    energy_fn: Callable[[float], float],
    num_sites: int,
    delta: float,
) -> tuple[float, float]:
    """(czz, cxx) from an energy curve via the Hellmann-Feynman theorem.

    czz is the central difference dE/d(delta) of step _HF_STEP over the
    site count, and cxx follows from E/N = 2*cxx + delta*czz on the ring.
    Any error the provider raises at delta or delta +- _HF_STEP propagates.
    """
    step = _HF_STEP
    center = energy_fn(delta)
    slope = (energy_fn(delta + step) - energy_fn(delta - step)) / (2.0 * step)
    czz = slope / num_sites
    cxx = (center / num_sites - delta * czz) / 2.0
    return czz, cxx
