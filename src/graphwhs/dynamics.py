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

``run_rows`` is the one stepping loop: a generator that yields the rows'
state at every grid node (a ``Node``), so each caller keeps what it needs.
Its rows may start from different states and replay the same noise draw.
Their control is ``cfg.control``, anything with ``value_at(t)``: a
``ControlSignal`` of (m, n) values is shared by every row, one of (rows, m,
n) values gives each row its own signal.  A run may also start at a later
grid node ``k0`` from the row state an earlier run yielded there, which is
how the control search skips the prefix that its trials share.

Per-step cost: a step of R rows makes two drift evaluations, O(R |E|)
elementwise work, in a fixed number of numpy calls.  At the few hundred rows
of the Monte-Carlo estimators each call costs more in overhead than in
arithmetic, so the step avoids numpy reductions over the short vertex axis
(it folds the n columns, ``graphs.fold_columns``), reads its noise with one
``take`` and re-masks the states with ``np.where`` only once a row has
escaped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .energies import EnergySpec, _gradient, dominant_array, gradient_arrays
from .graphs import (
    Array,
    DensityState,
    DomainError,
    MomentumState,
    ShapeError,
    _readonly,
    fold_columns,
    int_at_least,
    is_int,
    is_real,
)
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
    control: object | None = None   # anything with value_at(t), e.g. a ControlSignal
    boundary_floor: float = 1e-9
    max_rejects: int = 10

    def __post_init__(self):
        if not (is_real(self.t0) and is_real(self.T) and 0.0 <= self.t0 < self.T < math.inf):
            raise DomainError("need 0 <= t0 < T < inf")
        if not (is_real(self.dt) and 0.0 < self.dt < math.inf):
            raise DomainError("dt must be positive and finite")
        n = self.energy.graph.n
        if not (is_real(self.boundary_floor) and 0.0 < self.boundary_floor < 1.0 / n):
            raise DomainError("boundary_floor must lie in (0, 1/n)")
        if not (is_int(self.max_rejects) and 0 <= self.max_rejects <= 10):
            raise DomainError("max_rejects must be an int in [0, 10]")
        values = getattr(self.control, "values", None)
        if values is not None and np.shape(values)[-1] != n:
            raise ShapeError(f"control values must have {n} entries, one per vertex")
        bp = getattr(self.control, "breakpoints", None)
        if bp is not None and not bp[0] <= self.t0 < self.T <= bp[-1]:
            raise DomainError("control breakpoints must cover [t0, T]")

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
    r"""A header line, then one ``\r\n``-terminated line per row of the float table.

    Every value is written as its ``repr``, so ``float(field)`` gives back the
    exact double (``nan``, ``inf`` and ``-0.0`` included).  These are the bytes
    ``csv.writer``'s default dialect writes: its quoting never fires, since no
    ``repr(float)`` and no header of this library holds ``,``, ``"``, ``\r`` or
    ``\n``.  The rows are streamed, so no string of the whole file is built.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in table.tolist())


def drift_field(energy: EnergySpec, V, rho: DensityState, x: MomentumState):
    """(d rho/dt, S-drift) for one state; the first component is mean-zero."""
    return _drift_arrays(energy, None if V is None else np.asarray(V, dtype=float), rho.rho, x.s)


# ---------------------------------------------------------------------------
# stepping core (batched; scalar paths are 1-row batches)
# ---------------------------------------------------------------------------

def _drift_arrays(energy: EnergySpec, V, rho: Array, x: Array, *, checked: bool = True):
    d_rho, d_x = (gradient_arrays if checked else _gradient)(energy, rho, x)
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
    bad = fold_columns(np.minimum, rm) <= floor
    # Clamping only touches rows already flagged; their results are discarded.
    # Clamped to a positive floor, the densities cannot fail the positivity check.
    f2r, f2s = _drift_arrays(energy, V, np.maximum(rm, floor), sm, checked=not floor > 0.0)
    new_rho = rho + dt * f2r
    new_s = s + dt * f2s - energy.sigma * dw
    bad = bad | (fold_columns(np.minimum, new_rho) <= floor)
    return new_rho, new_s, bad


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
    slots: itertools.count,
    depth: int,
):
    """Advance a single path over [t, t+dt], splitting the step as needed.

    ``control_at(t)`` gives this path's control vector (or None) at time t;
    ``slots`` numbers the step's bridge draws.
    """
    V = control_at(t)
    new_rho, new_s, bad = midpoint_step(
        cfg.energy, cfg.boundary_floor, rho[None], s[None], V, dt, dw[None]
    )
    if not bad[0]:
        return new_rho[0], new_s[0]
    if depth >= cfg.max_rejects:
        raise BoundaryEscapeError(time=t, path_index=stream.stream_id)
    # Brownian bridge at the midpoint: W(t+dt/2) conditioned on the coarse
    # increment, so refinement never resamples the path already committed.
    xi = stream.bridge_normal(step_index, next(slots), rho.size)
    e = 0.5 * math.sqrt(dt) * xi
    half = 0.5 * dw
    args = (stream, step_index, slots, depth + 1)
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
# the lockstep engine: shared noise, per-row starts and controls
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
class ControlSignal:
    """Piecewise-constant control: values[..., i, :] on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: Array  # (m+1,) increasing, spanning the horizon
    values: Array       # (m, n) shared by all rows, or (rows, m, n); inside the ell-ball
    ell: float

    def __post_init__(self):
        bp = _readonly(self.breakpoints)
        vals = _readonly(np.atleast_2d(self.values))
        if bp.ndim != 1 or vals.ndim > 3 or bp.size != vals.shape[-2] + 1:
            raise ShapeError("need one more breakpoint than control pieces")
        # Negated comparisons, so that NaN fails each check.
        if not (np.diff(bp) > 0.0).all():
            raise DomainError("breakpoints must be strictly increasing")
        if not (is_real(self.ell) and 0.0 < self.ell < math.inf):
            raise DomainError("control radius must be a positive finite number")
        norms = np.sqrt((vals**2).sum(axis=-1))
        if not (norms <= self.ell * (1.0 + 1e-12)).all():
            raise DomainError("control value outside the admissible ball")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, V, t0: float, T: float, ell: float) -> "ControlSignal":
        return cls(breakpoints=np.array([t0, T]), values=V, ell=ell)

    def value_at(self, t: float) -> Array:
        return self.values[..., piece_index(self.breakpoints, t), :]


def _row_control(control_at, p: int):
    def at(t):
        V = control_at(t)
        return V if V is None or V.ndim == 1 else V[p]

    return at


class Node(NamedTuple):
    """The rows' state at grid node k, as ``run_rows`` yields it.

    The run rebinds, never writes to, ``rho`` and ``s``, so a caller may keep
    them.  ``alive`` and ``escape_time`` are updated in place as rows escape:
    copy them to keep a node's values.
    """

    k: int
    rho: Array
    s: Array
    V: Array | None    # cfg.control's value at the node
    alive: Array
    escape_time: Array


def run_rows(
    cfg: SdeConfig,
    rho: Array,
    s: Array,
    noise: Noise,
    streams: Array,
    k0: int = 0,
    alive: Array | None = None,
    escape_time: Array | None = None,
):
    """Advance the rows of (rho, s) over cfg's time grid in lockstep, yielding every node.

    Row r starts at (rho[r], s[r]) and is driven by stream ``streams[r]`` of
    the noise draw, so many runs (candidate controls, start states) replay
    one draw; their control is ``cfg.control``.  The generator yields a
    ``Node`` at every grid node from ``k0`` to the last, the start included.

    Prefix reuse: the rows may start at grid node ``k0`` from the state
    (rho, s, alive, escape_time) an earlier run yielded there.  Noise
    columns and bridge slots keep their global step index, so a row whose
    control agrees with the earlier run's on every (sub)step before node k0
    continues bitwise as a run from node 0 would.
    """
    steps, last_dt, times = _time_grid(cfg)
    rows = rho.shape[0]
    control_at = cfg.control_value
    noise_rows = streams - noise.first_stream
    alive = np.ones(rows, dtype=bool) if alive is None else alive.copy()
    escape_time = np.full(rows, np.nan) if escape_time is None else escape_time.copy()
    V = control_at(float(times[k0]))
    yield Node(k0, rho, s, V, alive, escape_time)
    for k in range(k0, steps):
        t = float(times[k])
        dt_k = last_dt if k == steps - 1 else cfg.dt
        dw = noise.incs[:, k].take(noise_rows, axis=0)
        new_rho, new_s, bad = midpoint_step(
            cfg.energy, cfg.boundary_floor, rho, s, V, dt_k, dw
        )
        if bad.any():
            for p in np.flatnonzero(bad & alive):
                stream = RngStream(noise.master_seed, int(streams[p]))
                try:
                    new_rho[p], new_s[p] = _advance_one(
                        cfg, _row_control(control_at, p), rho[p], s[p], t, dt_k, dw[p],
                        stream, k, itertools.count(), 0,
                    )
                except BoundaryEscapeError as err:
                    alive[p] = False
                    escape_time[p] = err.time
                    new_rho[p] = rho[p]
                    new_s[p] = s[p]
        if alive.all():
            rho, s = new_rho, new_s
        else:
            # Rows that escaped at an earlier step were stepped again above;
            # they stay at their last state.
            rho = np.where(alive[:, None], new_rho, rho)
            s = np.where(alive[:, None], new_s, s)
        V = control_at(float(times[k + 1]))
        yield Node(k + 1, rho, s, V, alive, escape_time)


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

    Every node of ``run_rows`` over streams first_stream..first_stream+n_paths-1;
    the moment scans and trajectory builders work on these arrays directly.
    H0V adds ``rho @ V``, so the control must be shared by all rows.
    """
    noise = draw_noise(cfg, master_seed, n_paths, first_stream)
    times = _time_grid(cfg)[2]
    n = cfg.energy.graph.n
    rho_out = np.empty((n_paths, times.size, n))
    s_out = np.empty((n_paths, times.size, n))
    h0 = np.empty((n_paths, times.size))
    h0v = np.empty((n_paths, times.size))
    rho = np.tile(rho0.rho, (n_paths, 1))
    s = np.tile(x0.s, (n_paths, 1))
    streams = first_stream + np.arange(n_paths)
    for k, rho, s, V, alive, escape_time in run_rows(cfg, rho, s, noise, streams):
        rho_out[:, k] = rho
        s_out[:, k] = s
        e = dominant_array(cfg.energy, rho, s)
        h0[:, k] = e
        h0v[:, k] = e if V is None else e + rho @ V
    return times, rho_out, s_out, h0, h0v, noise.incs, alive, escape_time


def _trajectory(raw: tuple, p: int, seed: int, path_index: int) -> Trajectory:
    """Row p of ``batch_arrays``' output as a Trajectory."""
    times, rho, s, h0, h0v, incs = raw[:6]
    return Trajectory(times, rho[p], s[p], h0[p], h0v[p], incs[p], seed, path_index)


def simulate(cfg: SdeConfig, rho0: DensityState, x0: MomentumState, rng: RngStream) -> Trajectory:
    """Integrate one path on [t0, T] driven by the given stream."""
    raw = batch_arrays(cfg, rho0, x0, 1, rng.master_seed, first_stream=rng.stream_id)
    traj = _trajectory(raw, 0, rng.master_seed, rng.stream_id)
    alive, escape_time = raw[6:]
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
        cfg, cfg.control_value, rho.rho, x.s, t, dt, dw, rng, step_index, itertools.count(), 0
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
    n_paths = int_at_least(n_paths, 1, "n_paths")
    if not (is_real(escape_quota) and 0.0 <= escape_quota <= 1.0):
        raise DomainError("escape_quota must be a number in [0, 1]")
    raw = batch_arrays(cfg, rho0, x0, n_paths, master_seed)
    alive = raw[6]
    escaped = int((~alive).sum())
    if escaped > escape_quota * n_paths:
        raise EscapeQuotaError(escaped, n_paths)
    return [_trajectory(raw, p, master_seed, p) for p in range(n_paths) if alive[p]]


# ---------------------------------------------------------------------------
# empirical regularity of the energy along paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityScan:
    horizons: Array
    moments: Array      # E sup_{r <= t0+Delta} |H0V(r) - H0V(t0)|^2 per horizon
    slope: float | None
    degenerate: bool
    escaped: int        # paths that left the interior; the moments average the rest


def regularity_scan(
    cfg: SdeConfig,
    rho0: DensityState,
    x0: MomentumState,
    horizons,
    n_paths: int,
    master_seed: int = 0,
) -> RegularityScan:
    """Log-log slope of the second-moment modulus of H0V over short horizons.

    Escaped paths are left out of the moments; EscapeQuotaError if none is left.
    """
    n_paths = int_at_least(n_paths, 1, "n_paths")
    horizons = np.sort(np.asarray(horizons, dtype=float))[::-1]
    if horizons.size < 4:
        raise DomainError("need at least four horizons")
    if np.any(horizons <= 0.0) or np.any(np.diff(horizons) >= 0.0):
        raise DomainError("horizons must be positive and strictly decreasing")
    span = float(horizons[0])
    times, _, _, _, h0v, _, alive, _ = batch_arrays(
        replace(cfg, T=cfg.t0 + span), rho0, x0, n_paths, master_seed
    )
    escaped = int((~alive).sum())
    if escaped == n_paths:
        raise EscapeQuotaError(escaped, n_paths)  # no path left to average
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
        horizons=horizons, moments=moments, slope=slope, degenerate=degenerate,
        escaped=escaped,
    )
