"""Time integration of the density/momentum flow with additive noise.

The state (rho, S) follows

    d rho = (dH0V/dS) dt,      dS = -(dH0V/drho) dt - sigma dW,

where H0V is the dominant energy plus the linear control potential.  The
noise energy is linear in rho with no S dependence, so the noise enters S
additively and the Stratonovich and Ito forms coincide; the drift is
integrated by an explicit midpoint (Heun) step, giving deterministic order
2 and strong order 1.

Boundary handling: the density drift is tangent to the simplex (mass is
conserved to rounding), but a large step can still push a component below
the configured floor.  Such a step is split in half recursively, with the
midpoint Brownian value drawn from a dedicated bridge stream so the coarse
path is refined rather than resampled, up to ``max_rejects`` levels; beyond
that the path reports a boundary escape.

Everything here is deterministic given (config, master seed): paths own
pre-assigned noise streams and batches advance paths in lockstep with
per-element arithmetic.

``run_rows`` is the one stepping loop.  Its rows may start from different
states, carry different controls and replay the same noise draw, and a
reducer chooses what a run keeps: ``_FullPath`` (every node, the layout of
``batch_arrays``), a running-cost sum (``control``), or only the final
state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .energies import EnergySpec, dominant_array, gradient_arrays
from .graphs import Array, DensityState, DomainError, MomentumState
from .rng import RngStream, batch_increments


class BoundaryEscapeError(RuntimeError):
    """A path could not be kept inside the simplex within the reject budget."""

    def __init__(self, time: float, path_index: int, trajectory=None):
        super().__init__(f"path {path_index} escaped the interior near t={time:.6g}")
        self.time = time
        self.path_index = path_index
        self.trajectory = trajectory


class EscapeQuotaError(RuntimeError):
    """More than the tolerated fraction of ensemble paths escaped."""

    def __init__(self, escaped: int, total: int):
        super().__init__(f"{escaped} of {total} paths escaped the interior")
        self.escaped = escaped
        self.total = total


@dataclass(frozen=True)
class SdeConfig:
    energy: EnergySpec
    t0: float = 0.0
    T: float = 1.0
    dt: float = 1e-3
    control: object | None = None   # anything with value_at(t) -> vector
    boundary_floor: float = 1e-9
    max_rejects: int = 10

    def __post_init__(self):
        if not 0.0 <= self.t0 < self.T:
            raise DomainError("need 0 <= t0 < T")
        if self.dt <= 0.0:
            raise DomainError("dt must be positive")
        n = self.energy.graph.n
        if not 0.0 < self.boundary_floor < 1.0 / n:
            raise DomainError("boundary_floor must lie in (0, 1/n)")
        if not 0 <= self.max_rejects <= 10:
            raise DomainError("max_rejects must lie in [0, 10]")

    def control_value(self, t: float) -> Array | None:
        if self.control is None:
            return None
        return np.asarray(self.control.value_at(t), dtype=float)


@dataclass(frozen=True)
class Trajectory:
    """One realized path, including the noise that produced it."""

    times: Array        # (K+1,)
    rho_path: Array     # (K+1, n)
    s_path: Array       # (K+1, n)
    h0_path: Array      # dominant energy along the path
    h0v_path: Array     # dominant energy including the control potential
    dw_path: Array      # (K, n) Brownian increments per output interval
    seed: int
    path_index: int

    @property
    def n(self) -> int:
        return self.rho_path.shape[1]

    def to_csv(self, path) -> None:
        n = self.n
        header = (
            ["t"]
            + [f"rho_{i}" for i in range(n)]
            + [f"S_{i}" for i in range(n)]
            + ["H0", "H0V"]
        )
        table = np.column_stack(
            [self.times, self.rho_path, self.s_path, self.h0_path, self.h0v_path]
        )
        _write_csv(path, header, table)


def _write_csv(path, header: list[str], table: Array) -> None:
    """A header row, then one row per row of the float table.

    The csv module writes a float as its repr, so every value round-trips.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())


def drift_field(energy: EnergySpec, V, rho: DensityState, x: MomentumState):
    """(d rho/dt, S-drift) for one state; the first component is mean-zero."""
    return _drift_arrays(energy, None if V is None else np.asarray(V, dtype=float), rho.rho, x.s)


# ---------------------------------------------------------------------------
# stepping core (batched; scalar paths are 1-row batches)
# ---------------------------------------------------------------------------

def _drift_arrays(energy: EnergySpec, V, rho: Array, x: Array):
    d_rho, d_x = gradient_arrays(energy, rho, x)
    s_drift = -d_rho
    if V is not None:
        s_drift = s_drift - V
    return d_x, s_drift


def midpoint_step(energy: EnergySpec, floor: float, rho: Array, s: Array, V, dt: float, dw: Array):
    """One midpoint step on (..., n) states; flags rows leaving the interior.

    V is None, one control vector for every row, or one row per state row.
    """
    f1r, f1s = _drift_arrays(energy, V, rho, s)
    rm = rho + 0.5 * dt * f1r
    sm = s + 0.5 * dt * f1s
    bad = rm.min(axis=-1) <= floor
    # Clamping only touches rows already flagged; their results are discarded.
    f2r, f2s = _drift_arrays(energy, V, np.clip(rm, floor, None), sm)
    new_rho = rho + dt * f2r
    new_s = s + dt * f2s - energy.sigma * dw
    bad = bad | (new_rho.min(axis=-1) <= floor)
    return new_rho, new_s, bad


class _SlotCounter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def take(self) -> int:
        self.value += 1
        return self.value - 1


def _advance_one(
    cfg: SdeConfig,
    control_at,
    rho: Array,
    s: Array,
    t: float,
    dt: float,
    dw: Array,
    stream: RngStream,
    step_index: int,
    slots: _SlotCounter,
    depth: int,
    path_index: int,
):
    """Advance a single path over [t, t+dt], splitting the step as needed.

    ``control_at(t)`` gives this path's control vector (or None) at time t.
    """
    V = control_at(t)
    new_rho, new_s, bad = midpoint_step(
        cfg.energy, cfg.boundary_floor, rho[None], s[None], V, dt, dw[None]
    )
    if not bad[0]:
        return new_rho[0], new_s[0]
    if depth >= cfg.max_rejects:
        raise BoundaryEscapeError(time=t, path_index=path_index)
    # Brownian bridge at the midpoint: W(t+dt/2) conditioned on the coarse
    # increment, so refinement never resamples the path already committed.
    xi = stream.bridge_normal(step_index, slots.take(), rho.size)
    e = 0.5 * math.sqrt(dt) * xi
    half = 0.5 * dw
    args = (stream, step_index, slots, depth + 1, path_index)
    rho, s = _advance_one(cfg, control_at, rho, s, t, 0.5 * dt, half + e, *args)
    return _advance_one(cfg, control_at, rho, s, t + 0.5 * dt, 0.5 * dt, half - e, *args)


def _time_grid(cfg: SdeConfig):
    span = cfg.T - cfg.t0
    full = int(math.floor(span / cfg.dt + 1e-12))
    rem = span - full * cfg.dt
    if rem > 1e-12 * cfg.dt:
        steps = full + 1
        last_dt = rem
    else:
        steps = full
        last_dt = cfg.dt
    times = cfg.t0 + cfg.dt * np.arange(steps + 1)
    times[-1] = cfg.T
    return steps, last_dt, times


# ---------------------------------------------------------------------------
# the lockstep engine: shared noise, per-row starts and controls, reducers
# ---------------------------------------------------------------------------

class Noise(NamedTuple):
    """Increments of streams first_stream.. of master_seed on one time grid."""

    master_seed: int
    first_stream: int
    incs: Array  # (paths, steps, n); the short last step is already scaled


def draw_noise(cfg: SdeConfig, master_seed: int, n_paths: int, first_stream: int = 0) -> Noise:
    """One ``batch_increments`` draw on cfg's time grid, for any number of runs to replay."""
    steps, last_dt, _ = _time_grid(cfg)
    incs = batch_increments(
        master_seed, n_paths, steps, cfg.energy.graph.n, cfg.dt, first_stream=first_stream
    )
    if last_dt != cfg.dt and steps > 0:
        incs[:, -1, :] *= math.sqrt(last_dt / cfg.dt)
    return Noise(master_seed, first_stream, incs)


def piece_index(breakpoints: Array, t: float) -> int:
    """Index of the piece [b_i, b_{i+1}) holding t; times past either end clip."""
    idx = int(np.searchsorted(breakpoints, t, side="right")) - 1
    return min(max(idx, 0), breakpoints.size - 2)


@dataclass(frozen=True)
class RowControls:
    """Piecewise-constant controls on shared breakpoints, one signal per batch row."""

    breakpoints: Array  # (m+1,)
    values: Array       # (rows, m, n)

    def value_at(self, t: float) -> Array:
        return self.values[:, piece_index(self.breakpoints, t)]


class _FullPath:
    """Reducer that keeps every node: the path arrays of ``batch_arrays``.

    H0V adds ``rho @ V``, so the control must be shared by all rows.
    """

    def __init__(self, cfg: SdeConfig, times: Array, rows: int):
        n = cfg.energy.graph.n
        self.energy = cfg.energy
        self.rho = np.empty((rows, times.size, n))
        self.s = np.empty((rows, times.size, n))
        self.h0 = np.empty((rows, times.size))
        self.h0v = np.empty((rows, times.size))

    def record(self, k: int, rho: Array, s: Array, V) -> None:
        self.rho[:, k] = rho
        self.s[:, k] = s
        h0 = dominant_array(self.energy, rho, s)
        self.h0[:, k] = h0
        self.h0v[:, k] = h0 if V is None else h0 + rho @ V

    def result(self) -> tuple:
        return self.rho, self.s, self.h0, self.h0v


def _row_control(control_at, p: int):
    def at(t):
        V = control_at(t)
        return V if V is None or V.ndim == 1 else V[p]

    return at


def run_rows(
    cfg: SdeConfig,
    rho: Array,
    s: Array,
    noise: Noise,
    streams: Array,
    reducer=None,
    controls: RowControls | None = None,
):
    """Advance the rows of (rho, s) over cfg's time grid in lockstep.

    Row r starts at (rho[r], s[r]) and is driven by stream ``streams[r]`` of
    the noise draw, so many runs (candidate controls, start states) replay
    one draw.  The control is ``controls`` (one signal per row) or else
    ``cfg.control`` (shared).  ``reducer(cfg, times, rows)`` builds an object
    whose ``record(k, rho, s, V)`` sees the state and control at every grid
    node and whose ``result()`` returns row-major arrays; without one only
    the final state is kept.  Returns (rho_T, s_T, alive, escape_time,
    *reducer results).
    """
    steps, last_dt, times = _time_grid(cfg)
    rows = rho.shape[0]
    control_at = cfg.control_value if controls is None else controls.value_at
    keep = None if reducer is None else reducer(cfg, times, rows)
    noise_rows = streams - noise.first_stream
    alive = np.ones(rows, dtype=bool)
    escape_time = np.full(rows, np.nan)

    V = control_at(float(times[0]))
    if keep is not None:
        keep.record(0, rho, s, V)
    for k in range(steps):
        t = float(times[k])
        dt_k = last_dt if k == steps - 1 else cfg.dt
        dw = noise.incs[noise_rows, k]
        new_rho, new_s, bad = midpoint_step(
            cfg.energy, cfg.boundary_floor, rho, s, V, dt_k, dw
        )
        if bad.any():
            for p in np.flatnonzero(bad & alive):
                stream = RngStream(noise.master_seed, int(streams[p]))
                try:
                    new_rho[p], new_s[p] = _advance_one(
                        cfg, _row_control(control_at, p), rho[p], s[p], t, dt_k, dw[p],
                        stream, k, _SlotCounter(), 0, int(streams[p]),
                    )
                except BoundaryEscapeError as err:
                    alive[p] = False
                    escape_time[p] = err.time
                    new_rho[p] = rho[p]
                    new_s[p] = s[p]
        rho = np.where(alive[:, None], new_rho, rho)
        s = np.where(alive[:, None], new_s, s)
        V = control_at(float(times[k + 1]))
        if keep is not None:
            keep.record(k + 1, rho, s, V)
    extra = () if keep is None else keep.result()
    return (rho, s, alive, escape_time, *extra)


def batch_arrays(
    cfg: SdeConfig,
    rho0: DensityState,
    x0: MomentumState,
    n_paths: int,
    master_seed: int,
    *,
    first_stream: int = 0,
):
    """Raw ensemble arrays (times, rho, s, h0, h0v, increments, alive, escape_time).

    The full-path reducer of ``run_rows`` over streams
    first_stream..first_stream+n_paths-1; the moment scans and trajectory
    builders work on these arrays directly.
    """
    noise = draw_noise(cfg, master_seed, n_paths, first_stream)
    rho = np.tile(rho0.rho, (n_paths, 1))
    s = np.tile(x0.s, (n_paths, 1))
    streams = first_stream + np.arange(n_paths)
    _, _, alive, escape_time, rho_out, s_out, h0, h0v = run_rows(
        cfg, rho, s, noise, streams, _FullPath
    )
    times = _time_grid(cfg)[2]
    return times, rho_out, s_out, h0, h0v, noise.incs, alive, escape_time


def simulate(cfg: SdeConfig, rho0: DensityState, x0: MomentumState, rng: RngStream) -> Trajectory:
    """Integrate one path on [t0, T] driven by the given stream."""
    times, rho_out, s_out, h0, h0v, incs, alive, escape_time = batch_arrays(
        cfg, rho0, x0, 1, rng.master_seed, first_stream=rng.stream_id
    )
    traj = Trajectory(
        times=times,
        rho_path=rho_out[0],
        s_path=s_out[0],
        h0_path=h0[0],
        h0v_path=h0v[0],
        dw_path=incs[0],
        seed=rng.master_seed,
        path_index=rng.stream_id,
    )
    if not alive[0]:
        raise BoundaryEscapeError(float(escape_time[0]), rng.stream_id, trajectory=traj)
    return traj


def step(cfg: SdeConfig, state, t: float, dt: float, rng: RngStream, step_index: int = 0):
    """One integrator step; standalone entry point used by transforms and tests."""
    rho, x = state
    n = rho.n
    z = rng.base_normals(n, start=step_index * n)
    dw = math.sqrt(dt) * z
    new_rho, new_s = _advance_one(
        cfg, cfg.control_value, rho.rho, x.s, t, dt, dw, rng, step_index, _SlotCounter(), 0,
        rng.stream_id,
    )
    return DensityState(rho=new_rho, floor=min(cfg.boundary_floor, 1e-9)), MomentumState(s=new_s)


def simulate_batch(
    cfg: SdeConfig,
    rho0: DensityState,
    x0: MomentumState,
    n_paths: int,
    master_seed: int,
    *,
    escape_quota: float = 0.01,
) -> list[Trajectory]:
    """Ensemble of paths on streams 0..n_paths-1, dropping at most escape_quota escapes."""
    if n_paths < 1:
        raise DomainError("need at least one path")
    raw = batch_arrays(cfg, rho0, x0, n_paths, master_seed)
    times, rho_out, s_out, h0, h0v, incs, alive, escape_time = raw
    escaped = int((~alive).sum())
    if escaped > escape_quota * n_paths:
        raise EscapeQuotaError(escaped, n_paths)
    out = []
    for p in range(n_paths):
        if not alive[p]:
            continue
        out.append(
            Trajectory(
                times=times,
                rho_path=rho_out[p],
                s_path=s_out[p],
                h0_path=h0[p],
                h0v_path=h0v[p],
                dw_path=incs[p],
                seed=master_seed,
                path_index=p,
            )
        )
    return out


# ---------------------------------------------------------------------------
# empirical regularity of the energy along paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityScan:
    horizons: Array
    moments: Array      # E sup_{r <= t0+Delta} |H0V(r) - H0V(t0)|^2 per horizon
    slope: float | None
    degenerate: bool


def regularity_scan(
    cfg: SdeConfig,
    rho0: DensityState,
    x0: MomentumState,
    horizons,
    n_paths: int,
    master_seed: int = 0,
) -> RegularityScan:
    """Log-log slope of the second-moment modulus of H0V over short horizons."""
    horizons = np.sort(np.asarray(horizons, dtype=float))[::-1]
    if horizons.size < 4:
        raise DomainError("need at least four horizons")
    if np.any(horizons <= 0.0) or np.any(np.diff(horizons) >= 0.0):
        raise DomainError("horizons must be positive and strictly decreasing")
    span = float(horizons[0])
    times, _, _, _, h0v, _, alive, _ = batch_arrays(
        replace(cfg, T=cfg.t0 + span), rho0, x0, n_paths, master_seed
    )
    h0v = h0v[alive]
    dev2 = (h0v - h0v[:, :1]) ** 2
    run_sup = np.maximum.accumulate(dev2, axis=1)
    moments = np.empty(horizons.size)
    for i, delta in enumerate(horizons):
        k = int(np.searchsorted(times, cfg.t0 + delta + 1e-12 * span)) - 1
        moments[i] = run_sup[:, k].mean()
    degenerate = bool(np.all(moments <= 0.0))
    slope = None
    if not degenerate and np.all(moments > 0.0):
        slope = float(np.polyfit(np.log(horizons), np.log(moments), 1)[0])
    return RegularityScan(
        horizons=horizons, moments=moments, slope=slope, degenerate=degenerate
    )
