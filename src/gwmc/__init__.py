"""Gutzwiller Monte Carlo simulator for the dissipative XYZ spin lattice.

Quantum-trajectory unraveling of sitewise spin decay restricted to the
manifold of site-factorized wavefunctions, with an exact small-system
reference solver, observable estimators, and a sweep-capable CLI.
"""

__version__ = "0.1.0"

from .dynamics import (
    ModelParams,
    RngStream,
    StepConfig,
    TrajectoryConfig,
    run_ensemble,
    run_trajectory,
)
from .lattice import LatticeGeometry, build_lattice
from .observables import (
    Accumulator,
    Sample,
    correlation_profile,
    magnetization,
    mf_structure_factor,
    mf_transition_point,
    structure_factor,
)

__all__ = [
    "Accumulator",
    "LatticeGeometry",
    "ModelParams",
    "RngStream",
    "Sample",
    "StepConfig",
    "TrajectoryConfig",
    "__version__",
    "build_lattice",
    "correlation_profile",
    "magnetization",
    "mf_structure_factor",
    "mf_transition_point",
    "run_ensemble",
    "run_trajectory",
    "structure_factor",
]
