"""Complex wave states conjugate to the density/momentum flow.

The transform u_j = sqrt(rho_j) exp(i S_j) carries (rho, S) to a unit-mass
complex vector; under it the flow becomes a nonlinear Schrodinger-type
evolution

    i du_j = ( -1/2 (Lap_G u)_j + u_j V_j + u_j N_j ) dt + sigma_j u_j o dW_j

with N_j = sum_l W_jl |u_l|^2 (polynomial variant) or -log|u_j|^2
(log-entropy variant), and Lap_G the nonlinear graph Laplacian evaluated
here exactly as in its defining display (log u = 1/2 log rho + i S with
unwrapped phases, so real/imaginary parts of log differences are branch
free).

The normative integrator for the wave equation is transport: pull u back to
(rho, S), advance one midpoint step of the flow with the same noise, and
push forward.  That makes the conjugacy exact by construction and leaves
``sse_residual`` as an independent check that the Laplacian transcription
matches the flow.  The two sides agree identically only when the kinetic
mobility equals the logarithmic mean; the residual check therefore pins the
weight kind to logarithmic with barrier coefficient 1/4, and other weight
kinds report a systematic O(1) defect rather than first-order decay.

Phases live on the real line, not the circle: unwrapping picks the branch
of arg(u) nearest to a caller-supplied reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import BoundaryEscapeError, Trajectory, midpoint_step, _write_csv
from .energies import (
    EnergySpec,
    POLYNOMIAL_INTERACTION,
    _LOG_MEAN,
)
from .graphs import (
    Array,
    DensityState,
    DomainError,
    EPS_FLOOR,
    MomentumState,
    ShapeError,
    _mean,
    _mean_dt,
)

TWO_PI = 2.0 * np.pi


class VacuumError(ValueError):
    """A wave component has (numerically) vanished."""


@dataclass(frozen=True)
class WaveState:
    u: Array
    floor: float = EPS_FLOOR

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if u.ndim != 1:
            raise ShapeError("u must be a complex vector")
        amp2 = np.abs(u) ** 2
        if np.any(amp2 < self.floor):
            raise VacuumError("wave component below the vacuum floor")
        if abs(amp2.sum() - 1.0) > 1e-9:
            raise DomainError(f"wave mass must be 1 (got {amp2.sum()!r})")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.u.size

    @property
    def mass(self) -> float:
        return float((np.abs(self.u) ** 2).sum())


def madelung_forward(rho: DensityState, s: MomentumState) -> WaveState:
    if rho.n != s.n:
        raise ShapeError("rho and s must have the same length")
    u = np.sqrt(rho.rho) * np.exp(1j * s.s)
    return WaveState(u=u, floor=min(rho.floor, rho.rho.min() * 0.5))


def unwrap_phase(principal: Array, s_prev: Array) -> Array:
    """Branch of the phase (principal mod 2pi) nearest to s_prev."""
    return principal + TWO_PI * np.round((s_prev - principal) / TWO_PI)


def madelung_inverse(u: WaveState, s_prev: MomentumState | None = None):
    amp2 = np.abs(u.u) ** 2
    if np.any(amp2 <= 0.0):
        raise VacuumError("cannot invert a wave with a vacuum component")
    phase = np.angle(u.u)
    if s_prev is not None:
        phase = unwrap_phase(phase, s_prev.s)
    return DensityState(rho=amp2, floor=min(EPS_FLOOR, amp2.min() * 0.5)), MomentumState(s=phase)


# ---------------------------------------------------------------------------
# nonlinear graph Laplacian
# ---------------------------------------------------------------------------

def nonlinear_laplacian(spec: EnergySpec, u: WaveState, s_prev: MomentumState | None = None) -> Array:
    """(Lap_G u)_j with both mobility brackets, evaluated termwise.

    log u is taken as 1/2 log rho + i S with S unwrapped (toward s_prev when
    given); the barrier bracket reuses the kinetic omega as its edge weight.
    """
    # madelung_inverse returns a DensityState, so every rho_j is positive.
    rho, s = madelung_inverse(u, s_prev)
    return _laplacian_arrays(spec, u.u, rho.rho, s.s)


def _laplacian_arrays(spec: EnergySpec, u: Array, r: Array, s: Array) -> Array:
    # Lap_G u for (..., n) waves u with moduli r = |u|^2 > 0 and unwrapped phases s.
    e = spec.graph.edge_list
    ri = r[..., e.ii]
    rj = r[..., e.jj]

    # log u_j - log u_l split into real and imaginary parts, per ordered edge.
    d_re = 0.5 * (np.log(ri) - np.log(rj))
    d_im = s[..., e.ii] - s[..., e.jj]

    g = _mean(spec.weight, ri, rj)
    gl = _mean(_LOG_MEAN, ri, rj)
    gt = _mean_dt(spec.weight, ri, rj)
    glt = _mean_dt(_LOG_MEAN, ri, rj)

    om = e.omega
    bracket1 = e.vertex_sum(om * (d_re + 1j * d_im) * g) + e.vertex_sum(om * gl * d_re)
    bracket2 = e.vertex_sum(om * gt * (d_re**2 + d_im**2)) + e.vertex_sum(om * glt * d_re**2)
    return -(u / r) * bracket1 - u * bracket2


def sse_nonlinearity(spec: EnergySpec, rho: Array) -> Array:
    """The variant's zeroth-order coefficient N_j (real), for (..., n) densities."""
    if spec.variant == POLYNOMIAL_INTERACTION:
        # One vector-matrix product per row: a (K, n) @ (n, n) product would
        # round differently from the rows taken one at a time.
        rho = np.asarray(rho, dtype=float)
        return np.matmul(rho[..., None, :], spec.edge_interaction.T)[..., 0, :]
    return -np.log(rho)


# ---------------------------------------------------------------------------
# integration and the cross-representation residual
# ---------------------------------------------------------------------------

def sse_step(
    spec: EnergySpec,
    V,
    u: WaveState,
    dt: float,
    dW: Array,
    s_prev: MomentumState | None = None,
    floor: float = EPS_FLOOR,
) -> WaveState:
    """Advance the wave one step by transporting (rho, S) through the flow."""
    rho, s = madelung_inverse(u, s_prev)
    Varr = None if V is None else np.asarray(V, dtype=float)
    dW = np.asarray(dW, dtype=float)
    new_rho, new_s, bad = midpoint_step(
        spec, floor, rho.rho[None], s.s[None], Varr, dt, dW[None]
    )
    if bad[0]:
        raise BoundaryEscapeError(time=0.0, path_index=-1)
    return madelung_forward(
        DensityState(rho=new_rho[0], floor=floor), MomentumState(s=new_s[0])
    )


class ResidualStats(NamedTuple):
    max_abs: float
    rms: float
    per_step: Array  # (K,) RMS over vertices of the defect at each step


def sse_residual(spec: EnergySpec, V, traj: Trajectory) -> ResidualStats:
    """Finite-difference defect of the wave equation along a flow trajectory.

    For each interval the trajectory is pushed through the transform and the
    defect  i (u_{k+1} - u_k)/dt - RHS(u_k) - noise_k/dt  is measured, with
    the Stratonovich noise term evaluated at the interval midpoint from the
    trajectory's own recorded increments.  With sigma = 0 the defect decays
    at first order in dt.  All intervals are evaluated in one pass; each
    left endpoint u_k must be a valid density/wave state, and the first one
    that is not raises the error its state constructors raise.
    """
    Varr = None if V is None else np.asarray(V, dtype=float)
    rho = traj.rho_path[:-1]
    s = traj.s_path[:-1]
    dt = np.diff(traj.times)[:, None]
    with np.errstate(invalid="ignore"):  # a row that is no state raises below
        u0 = np.sqrt(rho) * np.exp(1j * s)
        amp2 = np.abs(u0) ** 2
        phase = unwrap_phase(np.angle(u0), s)
    _check_rows(rho, s, amp2, phase)
    u1 = np.sqrt(traj.rho_path[1:]) * np.exp(1j * traj.s_path[1:])
    rhs = -0.5 * _laplacian_arrays(spec, u0, amp2, phase) + u0 * sse_nonlinearity(spec, rho)
    if Varr is not None:
        rhs = rhs + u0 * Varr
    defect = 1j * (u1 - u0) / dt - rhs
    if np.any(spec.sigma != 0.0):
        u_mid = 0.5 * (u0 + u1)
        defect = defect - spec.sigma * u_mid * traj.dw_path / dt
    a = np.abs(defect)
    per_step = np.sqrt((a**2).mean(axis=1))
    # fmax skips a step whose maximum is nan, as a running max(worst, step) does.
    worst = float(np.fmax.reduce(a.max(axis=1), initial=0.0))
    return ResidualStats(max_abs=worst, rms=float(np.sqrt((per_step**2).mean())), per_step=per_step)


def _check_rows(rho: Array, s: Array, amp2: Array, phase: Array) -> None:
    # Raise what the per-state constructors raise, at the first row they
    # reject.  The masks flag every row they may reject (the sums against
    # half the tolerance, so a summation order cannot hide one; a negative
    # component makes amp2 nan, a zero one meets the vacuum floor); each
    # flagged row is then rebuilt exactly as a single-step evaluation
    # builds it.
    finite = np.isfinite(rho) & np.isfinite(s) & np.isfinite(amp2) & np.isfinite(phase)
    vacuum = np.minimum(EPS_FLOOR, 0.5 * rho.min(axis=1))[:, None]
    suspect = (
        ~finite.all(axis=1)
        | (np.abs(rho.sum(axis=1) - 1.0) > 0.5e-12)
        | (np.abs(amp2.sum(axis=1) - 1.0) > 0.5e-12)
        | (amp2 <= vacuum).any(axis=1)
    )
    if rho.shape[1] > 1:
        suspect |= ((rho >= 1.0) | (amp2 >= 1.0)).any(axis=1)
    for k in np.flatnonzero(suspect):
        s_k = MomentumState(s=s[k])
        u = madelung_forward(DensityState(rho=rho[k], floor=min(EPS_FLOOR, rho[k].min() * 0.5)), s_k)
        madelung_inverse(u, s_prev=s_k)


def wave_csv(traj: Trajectory, path) -> None:
    """Trajectory exported in wave coordinates: t, Re/Im per vertex, mass."""
    n = traj.n
    header = ["t"]
    for i in range(n):
        header += [f"Re(u_{i})", f"Im(u_{i})"]
    header.append("mass")
    u = np.sqrt(traj.rho_path) * np.exp(1j * traj.s_path)
    table = np.empty((u.shape[0], 2 * n + 2))
    table[:, 0] = traj.times
    table[:, 1:-1:2] = u.real
    table[:, 2:-1:2] = u.imag
    table[:, -1] = (np.abs(u) ** 2).sum(axis=1)
    _write_csv(path, header, table)
