"""Numerical laboratory for hidden optical-polarization states.

Truncated two-mode Fock-space operator algebra, degenerate parametric
amplification, a classical random-phase field ensemble, and squeezing
onset analysis, cross-checked against closed-form Heisenberg solutions.
"""

from hopslab.classical import (
    FixedAmplitude,
    HopsEnsembleSpec,
    RayleighAmplitude,
)
from hopslab.dpa import (
    DpaConfig,
    TruncationError,
    boundary_leakage,
    evolve,
    heisenberg_moments,
    oracle_moments,
    suggest_cutoff,
    thermal_heisenberg_moments,
)
from hopslab.fock import (
    FockCutoff,
    QuantumState,
    fock_state,
)
from hopslab.polarization import (
    FitUndefinedError,
    coherence_function,
    factorization_residuals,
    fit_hops_criterion,
    hidden_moments,
    uncertainty_products,
    verify_hidden_commutators,
    verify_stokes_commutators,
)
from hopslab.squeezing import (
    FockModel,
    ThermalMixtureModel,
    WeightedProjectorModel,
    claimed_moment_table,
    onset_by_bisection,
    onset_time,
    squeezing_function,
    sweep,
    thermal_weight,
)

__version__ = "0.1.0"

__all__ = [
    "DpaConfig",
    "FitUndefinedError",
    "FixedAmplitude",
    "FockCutoff",
    "FockModel",
    "HopsEnsembleSpec",
    "QuantumState",
    "RayleighAmplitude",
    "ThermalMixtureModel",
    "TruncationError",
    "WeightedProjectorModel",
    "boundary_leakage",
    "claimed_moment_table",
    "coherence_function",
    "evolve",
    "factorization_residuals",
    "fit_hops_criterion",
    "fock_state",
    "heisenberg_moments",
    "hidden_moments",
    "onset_by_bisection",
    "onset_time",
    "oracle_moments",
    "squeezing_function",
    "suggest_cutoff",
    "sweep",
    "thermal_heisenberg_moments",
    "thermal_weight",
    "uncertainty_products",
    "verify_hidden_commutators",
    "verify_stokes_commutators",
]
