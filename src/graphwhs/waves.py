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

from .dynamics import BoundaryEscapeError, Trajectory, midpoint_step
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
    e = spec.graph.edge_list
    r = rho.rho
    ri = r[e.ii]
    rj = r[e.jj]

    # log u_j - log u_l split into real and imaginary parts, per ordered edge.
    d_re = 0.5 * (np.log(ri) - np.log(rj))
    d_im = s.s[e.ii] - s.s[e.jj]

    g = _mean(spec.weight, ri, rj)
    gl = _mean(_LOG_MEAN, ri, rj)
    gt = _mean_dt(spec.weight, ri, rj)
    glt = _mean_dt(_LOG_MEAN, ri, rj)

    om = e.omega
    bracket1 = e.vertex_sum(om * (d_re + 1j * d_im) * g) + e.vertex_sum(om * gl * d_re)
    bracket2 = e.vertex_sum(om * gt * (d_re**2 + d_im**2)) + e.vertex_sum(om * glt * d_re**2)
    return -(u.u / r) * bracket1 - u.u * bracket2


def sse_nonlinearity(spec: EnergySpec, rho: Array) -> Array:
    """The variant's zeroth-order coefficient N_j (real)."""
    if spec.variant == POLYNOMIAL_INTERACTION:
        return rho @ spec.edge_interaction.T
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
    at first order in dt.
    """
    times = traj.times
    rho = traj.rho_path
    s = traj.s_path
    Varr = None if V is None else np.asarray(V, dtype=float)
    K = times.size - 1
    per_step = np.empty(K)
    worst = 0.0
    for k in range(K):
        dt = float(times[k + 1] - times[k])
        u0 = madelung_forward(
            DensityState(rho=rho[k], floor=min(EPS_FLOOR, rho[k].min() * 0.5)),
            MomentumState(s=s[k]),
        )
        u1 = np.sqrt(rho[k + 1]) * np.exp(1j * s[k + 1])
        lap = nonlinear_laplacian(spec, u0, s_prev=MomentumState(s=s[k]))
        rhs = -0.5 * lap + u0.u * sse_nonlinearity(spec, rho[k])
        if Varr is not None:
            rhs = rhs + u0.u * Varr
        defect = 1j * (u1 - u0.u) / dt - rhs
        if np.any(spec.sigma != 0.0):
            u_mid = 0.5 * (u0.u + u1)
            defect = defect - spec.sigma * u_mid * traj.dw_path[k] / dt
        a = np.abs(defect)
        per_step[k] = float(np.sqrt((a**2).mean()))
        worst = max(worst, float(a.max()))
    return ResidualStats(max_abs=worst, rms=float(np.sqrt((per_step**2).mean())), per_step=per_step)


def wave_csv(traj: Trajectory, path) -> None:
    """Trajectory exported in wave coordinates: t, Re/Im per vertex, mass."""
    import csv

    n = traj.n
    header = ["t"]
    for i in range(n):
        header += [f"Re(u_{i})", f"Im(u_{i})"]
    header.append("mass")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.times.size):
            u = np.sqrt(traj.rho_path[k]) * np.exp(1j * traj.s_path[k])
            row = [repr(float(traj.times[k]))]
            for i in range(n):
                row += [repr(float(u[i].real)), repr(float(u[i].imag))]
            row.append(repr(float((np.abs(u) ** 2).sum())))
            writer.writerow(row)
