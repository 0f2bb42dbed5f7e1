"""Stochastic Hamiltonian dynamics on graph probability simplices.

Coupled density/momentum flows driven by kinetic, Fisher-type, and
interaction energies; their complex-wave transform; ball-constrained
stochastic control with Monte-Carlo values; and a monotone grid solver for
the associated dynamic-programming equation, with energy cutoffs and
Moreau-envelope regularizations.
"""

from .control import (
    BOUNDED_TRACKING,
    QUADRATIC_CONTROL,
    ControlSignal,
    CostSpec,
    ValueEstimate,
    bellman_gap,
    cost_functional,
    hamiltonian,
    legendre_fhat,
    running_cost,
    value_function_mc,
)
from .dynamics import (
    BoundaryEscapeError,
    EscapeQuotaError,
    RegularityScan,
    SdeConfig,
    Trajectory,
    drift_field,
    regularity_scan,
    simulate,
    simulate_batch,
    step,
)
from .energies import (
    LOGARITHMIC_ENTROPY,
    POLYNOMIAL_INTERACTION,
    EnergyGradients,
    EnergySpec,
    VariantError,
    control_potential,
    dominant_energy,
    energy_gradients,
    entropy,
    fisher_information,
    interaction_potential,
    kinetic_energy,
)
from .graphs import (
    AVERAGE,
    HARMONIC,
    LOGARITHMIC,
    DensityState,
    DomainError,
    EdgeField,
    Graph,
    GraphError,
    MomentumState,
    PathResult,
    ProbabilityWeight,
    ShapeError,
    divergence,
    frechet_project,
    graph_gradient,
    rho_inner,
    two_node_distance_oracle,
    wasserstein_distance,
    wasserstein_path,
    weight_eval,
    weight_partial,
)
from .hjb import (
    CflError,
    GridValueFunction,
    NonFiniteError,
    ResidualReport,
    SimplexGrid,
    TruncationFn,
    fhat_R,
    hjb_residual,
    hjb_solve_backward,
    inf_convolution,
    phi_eval,
    semiconvexity_defect,
    sup_convolution,
    truncated_hamiltonian,
    truncation_identity_check,
)
from .rng import RngStream, batch_increments
from .waves import (
    ResidualStats,
    VacuumError,
    WaveState,
    madelung_forward,
    madelung_inverse,
    nonlinear_laplacian,
    sse_residual,
    sse_step,
    unwrap_phase,
)

__version__ = "0.1.0"

# Every kernel is numpy; the flags stay for tools that report the backend.
NUMBA_AVAILABLE = False
USE_NUMBA = False

__all__ = [name for name in dir() if not name.startswith("_")]
