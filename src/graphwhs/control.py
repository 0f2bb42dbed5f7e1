"""Costs, controls, the control Hamiltonian, and Monte-Carlo values.

Controls are ball-constrained piecewise-constant signals (``ControlSignal``,
re-exported from ``dynamics``).  Two built-in cost families keep the control
dependence purely quadratic,

    F(t, rho, x, V) = c ||V||^2 + G(t, rho, x),

so the inner maximization

    Fhat(q) = sup_{||V|| <= ell} { <q, V> - F }
            = ||q||^2 / (4c)        if ||q|| <= 2 c ell
            = ell ||q|| - c ell^2   otherwise,     minus G,

is closed form (``_kernels.fhat_norm``), the one transform that the grid
solver, the Monte-Carlo layer and the checks share.  The families:

* quadratic_control: G is a quadratic tracking penalty (possibly zero),
  h a quadratic terminal penalty.
* bounded_tracking: G = b (1 - exp(-||x - x*||^2 - ||rho - rho*||^2)) and a
  saturating terminal cost, so F and h are uniformly bounded.

Value estimates come from pathwise Monte Carlo over a parameterized control
class (an upper approximation of the adapted-control infimum), optimized
with common random numbers: every candidate reuses the same increment
streams, so comparisons are noise-free to first order and results are
deterministic given (config, seed).  The class (``_read_class``) is the one
source of the ball radius; the estimators ignore ``cfg.control``.

All estimators run on the lockstep engine of ``dynamics.run_rows``:

* Noise is drawn once per estimator (``dynamics.draw_noise``).  The outer
  value, the middle search of ``bellman_gap`` with its reachable-cloud
  probes, and all inner lattice nodes each replay one draw; the nodes share
  streams 0..inner_paths-1.
* A run's control is ``cfg.control``: ``cost_functional``'s one signal,
  shared by every path, or a search's (rows, m, n) stack, so every pending
  candidate of every search advances in one batch.  The coordinate-wise
  golden-section search is a coroutine (``_coordinate_search``); K of them
  run side by side (``_lockstep``, via ``_value_search``), each with its own
  budget and early exits, and give bitwise the results of K separate
  searches.
* A reducer decides what a run keeps.  ``_RunningCost`` sums the
  left-rectangle running cost inside the step loop and stores no paths;
  the terminal functional (``terminal_cost``, or the lattice interpolant
  in the middle search) is applied to the surviving final states.  The
  probes keep final states only.  A run whose every path escaped raises
  ``EscapeQuotaError``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from ._kernels import fhat_norm, multilinear
from .dynamics import (
    ControlSignal,
    EscapeQuotaError,
    Noise,
    SdeConfig,
    draw_noise,
    run_rows,
)
from .energies import EnergySpec, gradient_arrays
from .graphs import Array, DensityState, DomainError, MomentumState, ShapeError, fold_columns

QUADRATIC_CONTROL = "quadratic_control"
BOUNDED_TRACKING = "bounded_tracking"
FAMILIES = (QUADRATIC_CONTROL, BOUNDED_TRACKING)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CostSpec:
    family: str = QUADRATIC_CONTROL
    control_coeff: float = 0.5
    target_rho: Array | None = None
    target_x: Array | None = None
    tracking_coeff: float = 0.0   # quadratic family's state penalty
    bound: float = 1.0            # bounded family's saturation height
    terminal_weight: float = 0.0
    terminal_offset: float = 0.0  # constant added to h (constant-solution diagnostics)

    def __post_init__(self):
        family = str(self.family).lower()
        if family not in FAMILIES:
            raise DomainError(f"unknown cost family {self.family!r}")
        object.__setattr__(self, "family", family)
        if not 0.0 < self.control_coeff < math.inf:
            raise DomainError("control_coeff must be positive and finite")
        weights = (self.tracking_coeff, self.bound, self.terminal_weight)
        if not all(0.0 <= c < math.inf for c in weights):
            raise DomainError("cost weights must be nonnegative and finite")
        if not math.isfinite(self.terminal_offset):
            raise DomainError("terminal_offset must be finite")
        for key in ("target_rho", "target_x"):
            target = getattr(self, key)
            if target is not None:
                target = np.array(target, dtype=float)
                if not np.isfinite(target).all():
                    raise DomainError(f"{key} must be finite")
                target.setflags(write=False)
                object.__setattr__(self, key, target)

    def _deviation2(self, rho: Array, x: Array) -> Array:
        dev = None
        for state, target in ((rho, self.target_rho), (x, self.target_x)):
            if target is not None:
                term = _row_sum((state - target) ** 2)
                dev = term if dev is None else dev + term
        return np.zeros(np.shape(rho)[:-1]) if dev is None else dev

    def state_cost(self, t, rho: Array, x: Array) -> Array:
        """G(t, rho, x): the control-independent part of F."""
        if self.family == QUADRATIC_CONTROL:
            return self.tracking_coeff * self._deviation2(rho, x)
        return self.bound * -np.expm1(-self._deviation2(rho, x))

    def terminal_cost(self, rho: Array, x: Array) -> Array:
        if self.family == QUADRATIC_CONTROL:
            return self.terminal_offset + self.terminal_weight * self._deviation2(rho, x)
        return self.terminal_offset + self.terminal_weight * -np.expm1(
            -self._deviation2(rho, x)
        )


def _row_sum(a: Array) -> Array:
    # a.sum(axis=-1) bitwise: numpy adds fewer than 8 terms left to right,
    # which a column fold does without a reduction's per-call overhead.
    return fold_columns(np.add, a) if a.shape[-1] < 8 else a.sum(axis=-1)


def running_cost(spec: CostSpec, t, rho, x, V) -> float | Array:
    """F(t, rho, x, V); accepts raw arrays with leading batch dimensions."""
    rho = np.asarray(getattr(rho, "rho", rho), dtype=float)
    x = np.asarray(getattr(x, "s", x), dtype=float)
    V = np.asarray(V, dtype=float)
    out = spec.control_coeff * _row_sum(V**2) + spec.state_cost(t, rho, x)
    return float(out) if np.ndim(out) == 0 else out


def legendre_fhat(spec: CostSpec, t, rho, x, q, ell: float) -> float:
    """sup over the control ball of <q, V> - F(t, rho, x, V)."""
    if not 0.0 < ell < math.inf:
        raise DomainError("ball radius must be positive and finite")
    rho = np.asarray(getattr(rho, "rho", rho), dtype=float)
    x = np.asarray(getattr(x, "s", x), dtype=float)
    q = np.asarray(q, dtype=float)
    qn = float(np.sqrt((q**2).sum()))
    return float(fhat_norm(qn, spec.control_coeff, ell)) - float(spec.state_cost(t, rho, x))


def _drift_pairing(energy: EnergySpec, rho: Array, x: Array, p, q, Q) -> float:
    """<p, dH0/dx> - <q, dH0/drho> + 1/2 tr(sigma sigma^T Q)."""
    d_rho, d_x = gradient_arrays(energy, rho, x)
    quad = 0.5 * float(energy.sigma**2 @ np.diag(np.asarray(Q)))
    return float(np.asarray(p) @ d_x) - float(np.asarray(q) @ d_rho) + quad


def hamiltonian(
    cost: CostSpec,
    energy: EnergySpec,
    t,
    rho,
    x,
    p,
    q,
    Q: Array,
    ell: float,
) -> float:
    """<p, dH0/dx> - <q, dH0/drho> + 1/2 tr(sigma sigma^T Q) - Fhat(q)."""
    rho_arr = np.asarray(getattr(rho, "rho", rho), dtype=float)
    x_arr = np.asarray(getattr(x, "s", x), dtype=float)
    Q = np.asarray(Q, dtype=float)
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ShapeError("Q must be symmetric")
    return _drift_pairing(energy, rho_arr, x_arr, p, q, Q) - legendre_fhat(
        cost, t, rho_arr, x_arr, q, ell
    )


def control_hamiltonian_integrand(
    cost: CostSpec, energy: EnergySpec, t, rho, x, p, q, Q: Array, V
) -> float:
    """The pre-infimum functional at one control value (brute-force oracle hook).

    hamiltonian is its infimum over the control ball: the drift pairing,
    minus <q, V>, plus the running cost F(t, rho, x, V).
    """
    rho_arr = np.asarray(getattr(rho, "rho", rho), dtype=float)
    x_arr = np.asarray(getattr(x, "s", x), dtype=float)
    V = np.asarray(V, dtype=float)
    return (
        _drift_pairing(energy, rho_arr, x_arr, p, q, Q)
        - float(np.asarray(q) @ V)
        + float(running_cost(cost, t, rho_arr, x_arr, V))
    )


# ---------------------------------------------------------------------------
# Monte-Carlo cost and value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueEstimate:
    value: float
    std_error: float
    n_paths: int
    control_class: str
    trace: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class _Estimate(NamedTuple):
    mean: float
    std_error: float
    n_paths: int


class _RunningCost:
    """Reducer of ``run_rows``: the left-rectangle running cost, summed in the step loop."""

    def __init__(self, cost: CostSpec, cfg: SdeConfig, times: Array, rows: int):
        self.cost = cost
        self.times = times
        self.total = np.zeros(rows)

    def record(self, k: int, rho: Array, s: Array, V: Array) -> None:
        if k + 1 < self.times.size:
            dt_k = float(self.times[k + 1] - self.times[k])
            self.total += dt_k * running_cost(self.cost, float(self.times[k]), rho, s, V)

    def result(self) -> tuple:
        return (self.total,)


def _blocks(alive: Array, paths: int) -> list[tuple[slice, Array]]:
    """Row slice and surviving-row mask of each run of ``paths`` rows.

    A run whose every path escaped has nothing to estimate from: that raises
    EscapeQuotaError rather than averaging an empty set.
    """
    out = []
    for lo in range(0, alive.size, paths):
        keep = alive[lo:lo + paths]
        if not keep.any():
            raise EscapeQuotaError(paths, paths)
        out.append((slice(lo, lo + paths), keep))
    return out


def _cost_estimates(
    cost: CostSpec,
    cfg: SdeConfig,
    starts: list,
    noise: Noise,
    terminal,
) -> list[_Estimate]:
    """Cost estimates of len(starts) runs advanced in one lockstep batch.

    Run i starts at starts[i] = (rho, s), follows cfg.control (shared, or
    its rows of block i) and replays every path of the noise draw (common
    random numbers).  ``terminal(rho, s)`` scores the surviving final states.
    """
    paths = noise.incs.shape[0]
    rho = np.repeat(np.stack([r for r, _ in starts]), paths, axis=0)
    s = np.repeat(np.stack([x for _, x in starts]), paths, axis=0)
    streams = np.tile(noise.first_stream + np.arange(paths), len(starts))
    rho_T, s_T, alive, _, total = run_rows(
        cfg, rho, s, noise, streams, partial(_RunningCost, cost)
    )
    out = []
    for rows, keep in _blocks(alive, paths):
        costs = total[rows][keep]
        costs += terminal(rho_T[rows][keep], s_T[rows][keep])
        se = float(costs.std(ddof=1) / math.sqrt(costs.size)) if costs.size > 1 else 0.0
        out.append(_Estimate(float(costs.mean()), se, int(costs.size)))
    return out


def cost_functional(
    cost: CostSpec,
    cfg: SdeConfig,
    t: float,
    rho: DensityState,
    x: MomentumState,
    control: ControlSignal | None,
    n_paths: int,
    master_seed: int,
) -> ValueEstimate:
    """MC estimate of the expected running-plus-terminal cost of one control."""
    if control is None:
        # The zero control moves and costs exactly what no control does.
        control = ControlSignal.constant(np.zeros(rho.n), t, cfg.T, 1.0)
    run_cfg = replace(cfg, t0=t, control=control)
    est = _cost_estimates(
        cost, run_cfg, [(rho.rho, x.s)], draw_noise(run_cfg, master_seed, n_paths),
        cost.terminal_cost,
    )[0]
    return ValueEstimate(
        value=est.mean,
        std_error=est.std_error,
        n_paths=est.n_paths,
        control_class="fixed control",
        trace={"seed": master_seed},
    )


def _golden_min(params: Array, piece: int, axis: int, lo: float, hi: float, iters: int):
    """Golden-section minimum along params[piece, axis] on [lo, hi].

    A coroutine: yields lists of trial parameter arrays, is sent their
    estimates, and returns (x, estimate at x) after iters + 2 trials.
    """

    def trial(v):
        out = params.copy()
        out[piece, axis] = v
        return out

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = yield [trial(c), trial(d)]
    for _ in range(iters):
        if fc.mean <= fd.mean:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            (fc,) = yield [trial(c)]
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            (fd,) = yield [trial(d)]
    if fc.mean <= fd.mean:
        return c, fc
    return d, fd


def _coordinate_search(m: int, n: int, ell: float, sweeps: int, iters: int, budget: float):
    """Coordinate-wise golden-section search for an (m, n) control in the ell-ball.

    Each coordinate is searched inside the ball slice the others leave; a
    sweep that improves nothing, or a budget that cannot fit another
    coordinate, ends the search.  A coroutine like ``_golden_min``: it
    returns (params, best estimate, evals, flagged).
    """
    params = np.zeros((m, n))
    (best,) = yield [params.copy()]
    evals = 1
    flagged = False
    for _ in range(sweeps):
        improved = False
        for piece in range(m):
            for axis in range(n):
                rest2 = float((params[piece] ** 2).sum() - params[piece, axis] ** 2)
                half = math.sqrt(max(ell * ell - rest2, 0.0))
                if half <= 0.0:
                    continue
                if evals + iters + 2 > budget:
                    flagged = True
                    break
                v_star, f_star = yield from _golden_min(params, piece, axis, -half, half, iters)
                evals += iters + 2
                if f_star.mean < best.mean - 1e-15:
                    params[piece, axis] = v_star
                    best = f_star
                    improved = True
            if flagged:
                break
        if flagged or not improved:
            break
    return params, best, evals, flagged


def _lockstep(searches: list, estimate) -> list:
    """Run coroutine searches side by side; returns their return values.

    Each round gathers every search's pending trials and scores them all
    with one ``estimate(owners, trials)`` call, so K searches cost one
    batched run per round instead of K runs.
    """
    results = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        owners = [i for i, trials in pending.items() for _ in trials]
        scores = iter(estimate(owners, [t for trials in pending.values() for t in trials]))
        advanced = {}
        for i, trials in pending.items():
            try:
                advanced[i] = searches[i].send([next(scores) for _ in trials])
            except StopIteration as done:
                results[i] = done.value
        pending = advanced
    return results


class _ControlClass(NamedTuple):
    breakpoints: Array
    ell: float
    sweeps: int
    golden_iters: int


def _read_class(control_class: dict, t: float, T: float) -> _ControlClass:
    """The control class on [t, T], validated; DomainError for anything else.

    Keys: ``ell`` > 0, the ball radius (default 1.0); ``m`` >= 1 equal
    pieces (default 1), or ``breakpoints`` strictly increasing from t to T,
    which take precedence; ``sweeps`` >= 1 (default 2) and ``golden_iters``
    >= 0 (default 14).
    """
    unknown = set(control_class) - {"ell", "m", "breakpoints", "sweeps", "golden_iters"}
    if unknown:
        raise DomainError(f"unknown control class keys {sorted(unknown)}")
    ell = control_class.get("ell", 1.0)
    is_number = type(ell) in (int, float) or isinstance(ell, np.number)
    if not (is_number and 0.0 < ell < math.inf):
        raise DomainError("control class ell must be a positive number")
    m = _class_int(control_class, "m", 1, 1)
    sweeps = _class_int(control_class, "sweeps", 2, 1)
    iters = _class_int(control_class, "golden_iters", 14, 0)
    if "breakpoints" in control_class:
        bp = np.asarray(control_class["breakpoints"], dtype=float)
        if bp.ndim != 1 or bp.size < 2 or not (np.diff(bp) > 0.0).all():
            raise DomainError("class breakpoints must be strictly increasing")
        if abs(bp[0] - t) > 1e-12 or abs(bp[-1] - T) > 1e-12:
            raise DomainError("class breakpoints must span [t, T]")
    else:
        bp = np.linspace(t, T, m + 1)
    return _ControlClass(bp, float(ell), sweeps, iters)


def _class_int(control_class: dict, key: str, default: int, low: int) -> int:
    value = control_class.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise DomainError(f"control class {key} must be an int >= {low}")
    return int(value)


def value_function_mc(
    cost: CostSpec,
    cfg: SdeConfig,
    t: float,
    rho: DensityState,
    x: MomentumState,
    control_class: dict,
    n_paths: int,
    master_seed: int,
    budget: int = 150,
) -> ValueEstimate:
    """Upper approximation of the value function over a restricted class.

    The class is piecewise-constant open loop with ``m`` pieces (or explicit
    breakpoints).  Coordinates are optimized by golden section inside the
    ball slice given the other coordinates (cross-entropy would replace this
    beyond a few pieces; the classes used here stay small).  All candidates
    share increments through the fixed master seed.
    """
    klass = _read_class(control_class, t, cfg.T)
    run_cfg = replace(cfg, t0=t)
    return _value_search(
        cost, run_cfg, [(rho.rho, x.s)], klass, draw_noise(run_cfg, master_seed, n_paths),
        budget,
    )[0]


def _value_search(
    cost: CostSpec,
    cfg: SdeConfig,
    starts: list,
    klass: _ControlClass,
    noise: Noise,
    budget: float,
    terminal=None,
) -> list[ValueEstimate]:
    """``value_function_mc`` on [cfg.t0, cfg.T] at several starts, searched in lockstep.

    Every start replays the caller's noise draw, and each keeps its own
    budget and early exits, so its estimate equals a separate call bitwise.
    ``terminal(rho, s)`` scores the final states (default: the cost's
    terminal cost).
    """
    bp, ell = klass.breakpoints, klass.ell
    m = bp.size - 1
    n = cfg.energy.graph.n
    paths = noise.incs.shape[0]
    terminal = cost.terminal_cost if terminal is None else terminal

    def estimate(owners, trials):
        signal = ControlSignal(bp, np.repeat(np.stack(trials), paths, axis=0), ell)
        return _cost_estimates(
            cost, replace(cfg, control=signal), [starts[i] for i in owners], noise, terminal
        )

    searches = [
        _coordinate_search(m, n, ell, klass.sweeps, klass.golden_iters, budget) for _ in starts
    ]
    out = []
    for params, best, evals, flagged in _lockstep(searches, estimate):
        out.append(ValueEstimate(
            value=best.mean,
            std_error=best.std_error,
            n_paths=best.n_paths,
            control_class=f"piecewise-constant m={m}, ell={ell}",
            trace={
                "seed": noise.master_seed,
                "budget": budget,
                "evals": evals,
                "flagged": flagged,
                "breakpoints": bp.tolist(),
                "argmin": params.tolist(),
            },
        ))
    return out


def bellman_gap(
    cost: CostSpec,
    cfg: SdeConfig,
    t: float,
    t_bar: float,
    rho: DensityState,
    x: MomentumState,
    control_class: dict,
    n_paths: int,
    master_seed: int,
    inner_paths: int | None = None,
    lattice_shape=(4, 4, 4),
    return_detail: bool = False,
):
    """|U(t) - inf_V E[ integral_t^tbar F + U(tbar, state) ]| with nested MC.

    The inner value is evaluated on a small lattice covering the reachable
    cloud at t_bar and interpolated multilinearly (n = 2 states only).
    Every search and probe uses the class's ball radius ``ell`` (default
    1.0); ``cfg.control`` plays no part.  Returns (gap, combined standard
    error); with ``return_detail`` a dict of the intermediate estimates is
    appended.
    """
    n = rho.n
    if n != 2:
        raise DomainError("the nested lattice evaluation is specialized to n = 2")
    if not cfg.t0 <= t < t_bar <= cfg.T:
        raise DomainError("need t < t_bar <= T")
    shape = np.asarray(lattice_shape)
    if shape.shape != (3,) or shape.dtype.kind not in "iu" or (shape < 1).any():
        raise DomainError("lattice_shape must be three positive ints")
    lattice_shape = tuple(shape.tolist())
    inner_paths = inner_paths or max(n_paths // 4, 200)
    klass = _read_class(control_class, t, cfg.T)

    outer_class = dict(control_class, breakpoints=[t, t_bar, cfg.T])
    outer = value_function_mc(cost, cfg, t, rho, x, outer_class, n_paths, master_seed)

    # Reachable cloud at t_bar under a few probe controls fixes the lattice.
    # The probes replay the first paths of the middle search's noise draw.
    seg_cfg = replace(cfg, t0=t, T=t_bar)
    seg_noise = draw_noise(seg_cfg, master_seed, n_paths)
    probe_paths = min(n_paths, 400)
    corner = klass.ell / math.sqrt(n)
    probes = np.array([[0.0] * n, [corner] * n, [-corner] * n])
    probe_values = np.repeat(probes[:, None], probe_paths, axis=0)
    rho_T, s_T, alive, _ = run_rows(
        replace(seg_cfg, control=ControlSignal([t, t_bar], probe_values, klass.ell)),
        np.tile(rho.rho, (3 * probe_paths, 1)),
        np.tile(x.s, (3 * probe_paths, 1)),
        seg_noise,
        np.tile(np.arange(probe_paths), 3),
    )
    _blocks(alive, probe_paths)  # raises when a probe lost every path
    cloud = np.stack([rho_T[alive, 0], s_T[alive, 0], s_T[alive, 1]], axis=1)
    lo = cloud.min(axis=0)
    hi = cloud.max(axis=0)
    pad = 0.05 * (hi - lo) + 1e-6
    lo -= pad
    hi += pad
    lo[0] = max(lo[0], cfg.boundary_floor * 2.0)
    hi[0] = min(hi[0], 1.0 - cfg.boundary_floor * 2.0)

    axes = [np.linspace(lo[i], hi[i], lattice_shape[i]) for i in range(3)]
    nodes = [
        (np.array([r1, 1.0 - r1]), np.array([x1, x2]))
        for r1 in axes[0] for x1 in axes[1] for x2 in axes[2]
    ]
    # One control piece on [t_bar, T] per lattice node.
    inner_cfg = replace(cfg, t0=t_bar)
    inner = _value_search(
        cost, inner_cfg, nodes, klass._replace(breakpoints=np.array([t_bar, cfg.T])),
        draw_noise(inner_cfg, master_seed + 7_777_777, inner_paths), budget=150,
    )
    inner_values = np.array([est.value for est in inner]).reshape(lattice_shape)
    inner_se_max = max(0.0, *(est.std_error for est in inner))

    def middle_terminal(rho_T, s_T):
        points = np.stack([rho_T[:, 0], s_T[:, 0], s_T[:, 1]], axis=1)
        return multilinear(axes, inner_values, points)

    # One control piece on [t, t_bar], searched without a budget.
    middle_class = klass._replace(breakpoints=np.array([t, t_bar]), sweeps=2, golden_iters=12)
    [mid] = _value_search(
        cost, seg_cfg, [(rho.rho, x.s)], middle_class, seg_noise,
        budget=math.inf, terminal=middle_terminal,
    )
    best, best_se = mid.value, mid.std_error

    gap = abs(outer.value - best)
    se = math.sqrt(outer.std_error**2 + best_se**2) + inner_se_max
    if return_detail:
        detail = {
            "outer": outer.to_dict(),
            "middle_value": best,
            "middle_se": best_se,
            "inner_se_max": inner_se_max,
            "lattice_lo": lo.tolist(),
            "lattice_hi": hi.tolist(),
        }
        return gap, se, detail
    return gap, se
