"""Exact diagonalization and entanglement analysis for small spin lattices.

The package covers three model families (spin-1/2 XXZ, spin-1 XXZ with an
optional biquadratic term, spin-1 bilinear-biquadratic) on periodic chains
and square lattices. Ground states come from sector-blocked sparse
diagonalization; two-site density matrices, entropy, concurrence and
correlators are built on top, with an independent Bethe-ansatz and
free-fermion layer for cross-validation and a CLI for table generation.
"""

__version__ = "0.1.0"

from .analysis import (
    EdgeExtremumError,
    ScalingFit,
    SweepRow,
    SweepTable,
    extrapolate,
    extremum_scaling,
    finite_difference,
    locate_extremum,
    sweep,
)
from .basis import SpinBasis, build_basis, nonnegative_sectors, sector_values
from .bethe import (
    BetheState,
    UnsupportedRegimeError,
    hf_correlators,
    solve_ground,
    xx_oracle,
)
from .eigensolver import (
    ConvergenceError,
    EigenResult,
    GroundStateReport,
    degeneracy_count,
    dense_lowest,
    ground_state_scan,
    lanczos_lowest,
    low_spectrum,
)
from .entanglement import (
    BondCorrelators,
    PatternViolationError,
    TwoSiteRDM,
    XFormElements,
    bond_correlators,
    concurrence,
    concurrence_closed_form,
    entropy_closed_form,
    two_site_rdm,
    von_neumann_entropy,
    xform_eigenvalues,
    xform_extract,
)
from .hamiltonian import (
    ModelSpec,
    SectorWorkspace,
    SparseHamiltonian,
    model_for,
)
from .lattice import Lattice, chain_lattice, square_lattice

__all__ = [
    "BetheState",
    "BondCorrelators",
    "ConvergenceError",
    "EdgeExtremumError",
    "EigenResult",
    "GroundStateReport",
    "Lattice",
    "ModelSpec",
    "PatternViolationError",
    "ScalingFit",
    "SectorWorkspace",
    "SparseHamiltonian",
    "SpinBasis",
    "SweepRow",
    "SweepTable",
    "TwoSiteRDM",
    "UnsupportedRegimeError",
    "XFormElements",
    "bond_correlators",
    "build_basis",
    "chain_lattice",
    "concurrence",
    "concurrence_closed_form",
    "degeneracy_count",
    "dense_lowest",
    "entropy_closed_form",
    "extrapolate",
    "extremum_scaling",
    "finite_difference",
    "ground_state_scan",
    "hf_correlators",
    "lanczos_lowest",
    "locate_extremum",
    "low_spectrum",
    "model_for",
    "nonnegative_sectors",
    "sector_values",
    "solve_ground",
    "square_lattice",
    "sweep",
    "two_site_rdm",
    "von_neumann_entropy",
    "xform_eigenvalues",
    "xform_extract",
    "xx_oracle",
    "__version__",
]
