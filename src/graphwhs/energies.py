"""Energy functionals on the graph simplex and their analytic derivatives.

The dominant energy is assembled from a kinetic term, a Fisher-type barrier,
and either a polynomial interaction or a negative-entropy term:

    H0(rho, x) = K(rho, x) + fisher_coeff * I(rho) + W(rho)        (polynomial)
    H0(rho, x) = K(rho, x) + fisher_coeff * I(rho) - L(rho)        (log-entropy)

with an optional linear control potential <V, rho> on top.  Conventions:

* K(rho, x) = 1/2 sum_{unordered edges} omega_ij (x_i - x_j)^2 g_ij(rho).
  This normalization makes the analytic gradients below literally the
  Euclidean partials of the scalar energies (finite-difference tested):
      dK/dx_a   = sum_j omega_aj (x_a - x_j) g_aj(rho)   (mean-zero),
      dK/drho_a = 1/2 sum_j omega_aj (x_a - x_j)^2 dg/dt(rho_a, rho_j).
* I(rho) = 1/2 sum_i sum_{j ~ i} omega_ij |log rho_i - log rho_j|^2 gl_ij
  with gl the logarithmic mean of (rho_i, rho_j); per unordered edge this
  collapses to omega_ij (rho_i - rho_j)(log rho_i - log rho_j).  The edge
  coupling of the barrier is omega itself (no separate tilde weights).
* W(rho) = 1/2 sum_{(i,j) in E} W_ij rho_i rho_j over ordered edge pairs;
  entries of the interaction matrix off the edge set are ignored.
* L(rho) = sum_i (rho_i log rho_i - rho_i).

The array core at the bottom takes raw ndarrays with arbitrary leading batch
dimensions; the typed operations wrap them for single states.  It works on
the oriented edge list of the graph (``Graph.edge_list``): every edge term is
an (..., E) array over ordered edges (i, j), and each vertex sums its terms
in head order (``EdgeList.vertex_sum``), so a drift evaluation costs O(|E|)
per state.  Each term keeps the multiplication order of the dense (n, n)
formulas (``omega * xdiff * g``, the 0.5 and 0.25 factors outside the sum),
so for n < 8, where numpy sums a dense row left to right, the per-vertex
results equal the dense ones bitwise.  The scalar energies sum all E terms
at once; a dense (n, n) reduction is pairwise from n = 3, so they agree
with it to rounding only.  Each public array function checks the domain of
rho once, on the (..., n) array itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graphs import (
    Array,
    DensityState,
    DomainError,
    EdgeList,
    Graph,
    MomentumState,
    ProbabilityWeight,
    LOGARITHMIC,
    ShapeError,
    _mean,
    _mean_dt,
    _mobility_laplacian,
    _readonly,
    is_real,
)

POLYNOMIAL_INTERACTION = "polynomial_interaction"
LOGARITHMIC_ENTROPY = "logarithmic_entropy"
VARIANTS = (POLYNOMIAL_INTERACTION, LOGARITHMIC_ENTROPY)

_LOG_MEAN = ProbabilityWeight(kind=LOGARITHMIC)


class VariantError(ValueError):
    pass


@dataclass(frozen=True)
class EnergySpec:
    """Which dominant energy to use, and its coefficients."""

    graph: Graph
    variant: str = POLYNOMIAL_INTERACTION
    weight: ProbabilityWeight = field(default_factory=ProbabilityWeight)
    interaction: Array | None = None
    fisher_coeff: float = 0.125
    sigma: Array | None = None

    def __post_init__(self):
        n = self.graph.n
        variant = str(self.variant).lower().replace("-", "_")
        if variant not in VARIANTS:
            raise VariantError(f"unknown energy variant {self.variant!r}")
        object.__setattr__(self, "variant", variant)
        if not is_real(self.fisher_coeff):
            raise DomainError(f"fisher_coeff must be a number, not a bool: {self.fisher_coeff!r}")
        if not 0.0 <= self.fisher_coeff < np.inf:
            raise DomainError("fisher_coeff must be nonnegative and finite")
        w = self.interaction
        if w is None:
            w = np.zeros((n, n))
        w = np.asarray(w, dtype=float)
        if w.shape != (n, n):
            raise ShapeError(f"interaction matrix must be ({n}, {n})")
        if not np.array_equal(w, w.T):
            raise ShapeError("interaction matrix must be symmetric")
        object.__setattr__(self, "interaction", _readonly(w))
        s = self.sigma
        if s is None:
            s = np.zeros(n)
        s = np.asarray(s, dtype=float)
        if s.shape != (n,):
            raise ShapeError(f"sigma must have length {n}")
        if not np.all(np.isfinite(s)):
            raise DomainError("sigma must be finite")
        object.__setattr__(self, "sigma", _readonly(s))

    @cached_property
    def edge_interaction(self) -> Array:
        """The interaction matrix with its entries off the edge set zeroed."""
        return _readonly(np.where(self.graph.omega > 0.0, self.interaction, 0.0))

    @cached_property
    def zero_interaction(self) -> bool:
        """True when every on-edge interaction entry is zero."""
        return not self.edge_interaction.any()


class EnergyGradients(NamedTuple):
    d_rho: Array   # Euclidean partial dH0/drho (unprojected)
    d_x: Array     # dH0/dx, sums to zero
    hess_x: Array  # second x-derivative, a weighted graph Laplacian


# ---------------------------------------------------------------------------
# scalar energies
# ---------------------------------------------------------------------------

def kinetic_energy(spec: EnergySpec, rho: DensityState, x: MomentumState) -> float:
    return float(kinetic_array(spec, rho.rho, x.s))


def fisher_information(spec: EnergySpec, rho: DensityState) -> float:
    return float(fisher_array(spec, rho.rho))


def entropy(rho: DensityState) -> float:
    r = rho.rho
    return float((r * np.log(r) - r).sum())


def interaction_potential(spec: EnergySpec, rho: DensityState) -> float:
    if spec.variant != POLYNOMIAL_INTERACTION:
        raise VariantError("interaction potential is a polynomial-variant term")
    r = rho.rho
    return 0.5 * float(r @ spec.edge_interaction @ r)


def control_potential(V, rho: DensityState) -> float:
    V = np.asarray(V, dtype=float)
    if V.shape != rho.rho.shape:
        raise ShapeError("control potential needs one entry per vertex")
    return float(V @ rho.rho)


def dominant_energy(
    spec: EnergySpec, rho: DensityState, x: MomentumState, V=None
) -> float:
    """H0, plus the linear control potential when a control is supplied."""
    total = float(dominant_array(spec, rho.rho, x.s))
    if V is not None:
        total += control_potential(V, rho)
    return total


def energy_gradients(spec: EnergySpec, rho: DensityState, x: MomentumState) -> EnergyGradients:
    """Analytic first derivatives of H0 and its x-Hessian."""
    d_rho, d_x = gradient_arrays(spec, rho.rho, x.s)
    # The x-Hessian is the mobility Laplacian that transport paths solve.
    hess = _mobility_laplacian(spec.graph, spec.weight, rho.rho)
    return EnergyGradients(d_rho=d_rho, d_x=d_x, hess_x=hess)


# ---------------------------------------------------------------------------
# array core (leading batch dimensions allowed)
# ---------------------------------------------------------------------------

def _check_positive(rho: Array) -> None:
    if (rho <= 0.0).any():
        raise DomainError("energy terms need strictly positive densities")


def _kinetic(spec: EnergySpec, rho: Array, x: Array) -> Array:
    e = spec.graph.edge_list
    g = _mean(spec.weight, rho[..., e.ii], rho[..., e.jj])
    diff = x[..., e.ii] - x[..., e.jj]
    return 0.25 * (e.omega * diff**2 * g).sum(axis=-1)


def _fisher(spec: EnergySpec, rho: Array) -> Array:
    # Per unordered edge omega (rho_i - rho_j)(log rho_i - log rho_j); the
    # log-mean mobility cancels one log difference.
    e = spec.graph.edge_list
    lr = np.log(rho)
    term = (rho[..., e.ii] - rho[..., e.jj]) * (lr[..., e.ii] - lr[..., e.jj])
    return 0.5 * (e.omega * term).sum(axis=-1)


def kinetic_array(spec: EnergySpec, rho: Array, x: Array) -> Array:
    _check_positive(rho)
    return _kinetic(spec, rho, x)


def fisher_array(spec: EnergySpec, rho: Array) -> Array:
    _check_positive(rho)
    return _fisher(spec, rho)


def dominant_array(spec: EnergySpec, rho: Array, x: Array) -> Array:
    _check_positive(rho)
    total = _kinetic(spec, rho, x) + spec.fisher_coeff * _fisher(spec, rho)
    if spec.variant == POLYNOMIAL_INTERACTION:
        # As in gradient_arrays, 0.0 in place of a zero matrix's term keeps the bits.
        pair = 0.0 if spec.zero_interaction else 0.5 * np.einsum(
            "...i,ij,...j->...", rho, spec.edge_interaction, rho
        )
        total = total + pair
    else:
        total = total - (rho * np.log(rho) - rho).sum(axis=-1)
    return total


def _barrier_terms(e: EdgeList, ri: Array, rj: Array) -> Array:
    # omega (log rho_i - log rho_j + (rho_i - rho_j) / rho_i) per ordered edge.
    ldiff = np.log(ri) - np.log(rj)
    return e.omega * (ldiff + (ri - rj) / ri)


def gradient_arrays(spec: EnergySpec, rho: Array, x: Array):
    """(dH0/drho, dH0/dx) for raw state arrays of shape (..., n)."""
    _check_positive(rho)
    return _gradient(spec, rho, x)


def _gradient(spec: EnergySpec, rho: Array, x: Array):
    # gradient_arrays without the positivity check, for callers whose rho is
    # positive by construction.
    e = spec.graph.edge_list
    ri = rho[..., e.ii]
    rj = rho[..., e.jj]
    xdiff = x[..., e.ii] - x[..., e.jj]
    d_x = e.vertex_sum(e.omega * xdiff * _mean(spec.weight, ri, rj))

    gt = _mean_dt(spec.weight, ri, rj)
    d_rho = 0.5 * e.vertex_sum(e.omega * xdiff**2 * gt)
    d_rho = d_rho + spec.fisher_coeff * e.vertex_sum(_barrier_terms(e, ri, rj))

    if spec.variant == POLYNOMIAL_INTERACTION:
        # A zero matrix makes the product +0.0 everywhere; adding 0.0 in its
        # place skips the matmul and gives the same bits, signs of zero too.
        d_rho = d_rho + (0.0 if spec.zero_interaction else rho @ spec.edge_interaction.T)
    else:
        d_rho = d_rho - np.log(rho)
    return d_rho, d_x

