"""Finite-time two-stroke thermal machine of two thermal qubits coupled by an
always-on one-axis-twisting interaction.

The package computes the stroke unitary three independent ways, the
nonequilibrium thermodynamics three independent ways, and the squeezing and
coherence diagnostics both in closed form and from the evolved state, with
every closed form cross-checked against a brute-force oracle.
"""

from .linalg import (
    dagger,
    expm_unitary,
    is_density,
    is_hermitian,
    is_unitary,
    kron,
)
from .model import (
    CycleParams,
    free_hamiltonian,
    initial_state,
    interaction_hamiltonian,
    local_hamiltonian,
    thermal_state,
)
from .propagators import (
    PropagatorMode,
    align_global_phase,
    closed_vs_oracle_residuals,
    evolve,
    propagator,
    propagator_full_closed,
    propagator_interaction_closed,
    propagator_oracle,
)
from .squeezing import SqueezeReport, l1_coherence, variance_orthogonal, xi_closed_form, xi_general
from .sweep import SweepRow, SweepSpec, run_sweep, write_csv
from .presets import figure_preset
from .thermo import (
    CFMoments,
    EnergyBook,
    Regime,
    characteristic_function,
    classify_regime,
    energetics_closed,
    energetics_trace,
    moments_from_cf,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "CFMoments",
    "CycleParams",
    "EnergyBook",
    "PropagatorMode",
    "Regime",
    "SqueezeReport",
    "SweepRow",
    "SweepSpec",
    "align_global_phase",
    "characteristic_function",
    "classify_regime",
    "closed_vs_oracle_residuals",
    "dagger",
    "energetics_closed",
    "energetics_trace",
    "evolve",
    "expm_unitary",
    "figure_preset",
    "free_hamiltonian",
    "initial_state",
    "interaction_hamiltonian",
    "is_density",
    "is_hermitian",
    "is_unitary",
    "kron",
    "l1_coherence",
    "local_hamiltonian",
    "moments_from_cf",
    "propagator",
    "propagator_full_closed",
    "propagator_interaction_closed",
    "propagator_oracle",
    "run_sweep",
    "run_validation",
    "thermal_state",
    "variance_orthogonal",
    "write_csv",
    "xi_closed_form",
    "xi_general",
]
