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

As in ``energies``, a function of one state takes a ``DensityState`` and a
``MomentumState`` (``legendre_fhat``, ``hamiltonian``) and a batch function
takes (..., n) arrays (``running_cost``, ``CostSpec``'s costs).

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
* Wall time follows the number of sequential lockstep steps, so two
  mechanisms cut them, both bitwise: every trial on a search's path still
  sees the same control, start state and noise.  In a search of at most
  ``_SPECULATE_ROWS`` rows (starts x paths), a round that scores the points
  a golden-section comparison needs also scores both points that can
  follow it, so the next comparison needs no round: two iterations a round.
  Prefix reuse: an ``_Estimate`` keeps its run's row state at the node of
  each breakpoint 0..m-1 (its marks; mark 0 is the paths' start), and a
  trial that moves only piece j starts at breakpoint j's grid node from the
  incumbent's mark j (``run_rows``'s ``k0``).
* ``run_rows`` yields every grid node and each caller keeps what it needs.
  ``_cost_estimates`` sums the left-rectangle running cost as the nodes
  arrive and stores no paths; the terminal functional (``terminal_cost``,
  or the lattice interpolant in the middle search) is applied to the
  surviving final states.  The probes keep the last node only.  A run
  whose every path escaped raises ``EscapeQuotaError``.
* ``bellman_gap``'s two sides are independent searches: the outer value
  U(t), and the probes -> inner lattice -> middle search chain.  Where
  ``os.fork`` exists, the process may run on two CPUs
  (``os.sched_getaffinity``) and it runs no other thread (a fork would
  copy that thread's locks, not the thread), the outer search runs in a
  forked child beside the chain (``_Beside``) and sends its estimate back
  as a pickle; elsewhere it runs first, in this process, since on one CPU
  the fork costs more than it saves.  The outer noise is drawn before the fork and
  the child runs the same code on it, so the result is bitwise the same
  either way.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
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
    _time_grid,
    draw_noise,
    run_rows,
)
from .energies import EnergySpec, gradient_arrays
from .graphs import (
    Array,
    DensityState,
    DomainError,
    MomentumState,
    ShapeError,
    _readonly,
    fold_columns,
    int_at_least,
    real_in,
)

QUADRATIC_CONTROL = "quadratic_control"
BOUNDED_TRACKING = "bounded_tracking"
FAMILIES = (QUADRATIC_CONTROL, BOUNDED_TRACKING)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# A search whose rounds step at most this many rows (starts x paths)
# evaluates golden-section trials speculatively; _value_search gives the
# measured crossover.
_SPECULATE_ROWS = 1000


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
        real_in(self.control_coeff, "control_coeff", 0.0, math.inf)
        for key in ("tracking_coeff", "bound", "terminal_weight"):
            real_in(getattr(self, key), key, 0.0, math.inf, "[)")
        real_in(self.terminal_offset, "terminal_offset", -math.inf, math.inf)
        for key in ("target_rho", "target_x"):
            target = getattr(self, key)
            if target is not None:
                target = _readonly(target)
                if not np.isfinite(target).all():
                    raise DomainError(f"{key} must be finite")
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


def running_cost(spec: CostSpec, t, rho: Array, x: Array, V: Array) -> float | Array:
    """F(t, rho, x, V) for (..., n) state and control arrays."""
    control_term = spec.control_coeff * _row_sum(np.asarray(V, dtype=float) ** 2)
    out = control_term + spec.state_cost(t, rho, x)
    return float(out) if np.ndim(out) == 0 else out


def legendre_fhat(
    spec: CostSpec, t, rho: DensityState, x: MomentumState, q, ell: float
) -> float:
    """sup over the control ball of <q, V> - F(t, rho, x, V)."""
    real_in(ell, "ell", 0.0, math.inf)
    q = np.asarray(q, dtype=float)
    qn = float(np.sqrt((q**2).sum()))
    return float(fhat_norm(qn, spec.control_coeff, ell)) - float(spec.state_cost(t, rho.rho, x.s))


def _drift_pairing(energy: EnergySpec, rho: DensityState, x: MomentumState, p, q, Q) -> float:
    """<p, dH0/dx> - <q, dH0/drho> + 1/2 tr(sigma sigma^T Q)."""
    d_rho, d_x = gradient_arrays(energy, rho.rho, x.s)
    quad = 0.5 * float(energy.sigma**2 @ np.diag(np.asarray(Q)))
    return float(np.asarray(p) @ d_x) - float(np.asarray(q) @ d_rho) + quad


def hamiltonian(
    cost: CostSpec,
    energy: EnergySpec,
    t,
    rho: DensityState,
    x: MomentumState,
    p,
    q,
    Q: Array,
    ell: float,
) -> float:
    """<p, dH0/dx> - <q, dH0/drho> + 1/2 tr(sigma sigma^T Q) - Fhat(q)."""
    Q = np.asarray(Q, dtype=float)
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ShapeError("Q must be symmetric")
    return _drift_pairing(energy, rho, x, p, q, Q) - legendre_fhat(cost, t, rho, x, q, ell)


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
    # The run's row state at the nodes of breakpoints 0..m-1, from which
    # the runs of trials that change a later piece start.
    marks: tuple = ()


def _fresh(rho: Array, s: Array, paths: int) -> tuple:
    """The row state of ``paths`` paths at their start: all alive, no cost yet."""
    return (
        np.tile(rho, (paths, 1)),
        np.tile(s, (paths, 1)),
        np.ones(paths, dtype=bool),
        np.full(paths, np.nan),
        np.zeros(paths),
    )


def _taken(estimate):
    """An estimate a search goes on with.

    A run whose every path escaped has nothing to estimate from: using it
    raises its EscapeQuotaError rather than averaging an empty set.  Only
    estimates used are checked, so a speculative trial the search discards
    may lose every path.
    """
    if isinstance(estimate, EscapeQuotaError):
        raise estimate
    return estimate


def _cost_estimates(
    cost: CostSpec,
    cfg: SdeConfig,
    starts: list,
    noise: Noise,
    terminal,
    k0: int = 0,
    marks=(),
) -> list:
    """Cost estimates of len(starts) runs advanced in one lockstep batch.

    Run i starts at grid node k0 from starts[i], the row state (rho, s,
    alive, escape_time, running cost) of its paths there (``_fresh`` at node
    0), follows cfg.control, a ``ControlSignal`` (shared, or its rows of
    block i), and replays every path of the noise draw (common random
    numbers).  The left-rectangle running cost is summed over the nodes
    ``run_rows`` yields, from each node's V.  ``terminal(rho, s)`` scores the
    surviving final states.  Each estimate keeps its run's row state at the
    nodes ``marks``, taken before that node's step cost.  A run whose every
    path escaped gets its EscapeQuotaError in place of an estimate (see
    ``_taken``).
    """
    paths = noise.incs.shape[0]
    rho, s, alive, escape_time, total = (np.concatenate(part) for part in zip(*starts))
    streams = np.tile(noise.first_stream + np.arange(paths), len(starts))
    times = _time_grid(cfg)[2]
    steps = list(zip(times[:-1].tolist(), np.diff(times).tolist()))
    saved = {}
    nodes = run_rows(cfg, rho, s, noise, streams, k0, alive, escape_time)
    for k, rho, s, V, alive, escape_time in nodes:
        if k in marks:
            # The run rebinds rho and s, so these stay as they are.
            saved[k] = (rho, s, alive.copy(), escape_time.copy(), total.copy())
        if k < len(steps):
            t, dt_k = steps[k]
            total += dt_k * running_cost(cost, t, rho, s, V)
    states = [saved[k] for k in marks]
    out = []
    for lo in range(0, alive.size, paths):
        rows = slice(lo, lo + paths)
        keep = alive[rows]
        if not keep.any():
            out.append(EscapeQuotaError(paths, paths))
            continue
        costs = total[rows][keep]
        costs += terminal(rho[rows][keep], s[rows][keep])
        se = float(costs.std(ddof=1) / math.sqrt(costs.size)) if costs.size > 1 else 0.0
        kept = tuple(tuple(a[rows] for a in state) for state in states)
        out.append(_Estimate(float(costs.mean()), se, int(costs.size), kept))
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
    """MC estimate of the expected running-plus-terminal cost of one control.

    The estimate averages the paths that stayed inside the simplex; a path
    that escaped is left out, and ``n_paths`` counts the paths averaged.
    Two controls can lose different paths, so their estimates may average
    different survivor sets.  ``EscapeQuotaError`` means every path escaped.
    """
    n_paths = int_at_least(n_paths, 1, "n_paths")
    if control is None:
        # The zero control moves and costs exactly what no control does.
        control = ControlSignal.constant(np.zeros(rho.n), t, cfg.T, 1.0)
    run_cfg = replace(cfg, t0=t, control=control)
    est = _taken(_cost_estimates(
        cost, run_cfg, [_fresh(rho.rho, x.s, n_paths)], draw_noise(run_cfg, master_seed, n_paths),
        cost.terminal_cost,
    )[0])
    return ValueEstimate(
        value=est.mean,
        std_error=est.std_error,
        n_paths=est.n_paths,
        control_class="fixed control",
        trace={"seed": master_seed},
    )


def _golden_min(trial, lo: float, hi: float, iters: int, speculate: bool = False):
    """Golden-section minimum of one coordinate on [lo, hi].

    A coroutine: yields lists of trials (``trial(v)`` for coordinate value
    v), is sent their estimates, and returns (v, estimate at v) after
    iters + 2 trials on its path.  A round scores the bracket points that
    the next comparison still needs; with ``speculate`` it also scores both
    points that can follow that comparison, one for each outcome, and the
    comparison after that then needs no round.  So a round takes two
    iterations and discards one trial unused; the trials on the path, and
    so the result, are the plain search's.
    """

    def shrink(bracket, left):
        # Keep [a, d] when f(c) <= f(d) (left), else [c, b]; one new point.
        a, b, c, d = bracket
        return (a, d, d - GOLDEN * (d - a), c) if left else (c, b, d, c + GOLDEN * (b - c))

    bracket = (lo, hi, hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo))
    held = [None, None]  # the estimates at c and d, once scored
    for todo in range(iters, -1, -1):
        need = [i for i in (0, 1) if held[i] is None]
        forks = []
        if need:
            ahead = []
            if speculate and todo:
                ahead = [shrink(bracket, True)[2], shrink(bracket, False)[3]]
            sent = yield [trial(bracket[2 + i]) for i in need] + [trial(v) for v in ahead]
            for i, est in zip(need, sent):
                held[i] = est
            forks = sent[len(need):]
        fc, fd = _taken(held[0]), _taken(held[1])
        left = fc.mean <= fd.mean
        if not todo:
            return (bracket[2], fc) if left else (bracket[3], fd)
        # Only the scores the new bracket holds are kept.
        bracket = shrink(bracket, left)
        new = forks[0 if left else 1] if forks else None
        held = [new, fc] if left else [fd, new]


class _Trial(NamedTuple):
    params: Array   # (m, n) control values
    piece: int      # the first piece where they may differ from the incumbent's
    marks: tuple    # the incumbent's marks, from which a run may start


def _moved(params: Array, piece: int, axis: int, marks: tuple, v: float) -> _Trial:
    """The trial that sets params[piece, axis] to v and keeps the rest of the incumbent."""
    out = params.copy()
    out[piece, axis] = v
    return _Trial(out, piece, marks)


def _coordinate_search(
    start: tuple, m: int, n: int, ell: float, sweeps: int, iters: int, budget: float,
    speculate: bool,
):
    """Coordinate-wise golden-section search for an (m, n) control in the ell-ball.

    Each coordinate is searched inside the ball slice the others leave; a
    sweep that improves nothing, or a budget that cannot fit another
    coordinate, ends the search.  ``start`` is the paths' row state at t0
    (``_fresh``), the first trial's one mark.  A coroutine like
    ``_golden_min`` that yields ``_Trial``s: it returns (params, best
    estimate, evals, flagged), where evals counts the trials on the path only.
    """
    params = np.zeros((m, n))
    (best,) = yield [_Trial(params.copy(), 0, (start,))]
    best = _taken(best)
    evals = 1
    for _ in range(sweeps):
        improved = False
        for piece, axis in np.ndindex(m, n):
            rest2 = float((params[piece] ** 2).sum() - params[piece, axis] ** 2)
            half = math.sqrt(max(ell * ell - rest2, 0.0))
            if half <= 0.0:
                continue
            if evals + iters + 2 > budget:
                return params, best, evals, True
            trial = partial(_moved, params, piece, axis, best.marks)
            v_star, f_star = yield from _golden_min(trial, -half, half, iters, speculate)
            evals += iters + 2
            if f_star.mean < best.mean - 1e-15:
                params[piece, axis] = v_star
                best = f_star
                improved = True
        if not improved:
            break
    return params, best, evals, False


def _lockstep(searches: list, estimate) -> list:
    """Run coroutine searches side by side; returns their return values.

    Each round gathers every search's pending trials and scores them all
    with one ``estimate(trials)`` call, so K searches cost one batched run
    per round instead of K runs.
    """
    results = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        scores = iter(estimate([t for trials in pending.values() for t in trials]))
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
    ell = real_in(control_class.get("ell", 1.0), "control class ell", 0.0, math.inf)
    m = int_at_least(control_class.get("m", 1), 1, "control class m")
    sweeps = int_at_least(control_class.get("sweeps", 2), 1, "control class sweeps")
    iters = int_at_least(control_class.get("golden_iters", 14), 0, "control class golden_iters")
    if "breakpoints" in control_class:
        bp = np.asarray(control_class["breakpoints"], dtype=float)
        if bp.ndim != 1 or bp.size < 2 or not (np.diff(bp) > 0.0).all():
            raise DomainError("class breakpoints must be strictly increasing")
        if abs(bp[0] - t) > 1e-12 or abs(bp[-1] - T) > 1e-12:
            raise DomainError("class breakpoints must span [t, T]")
    else:
        bp = np.linspace(t, T, m + 1)
    return _ControlClass(bp, float(ell), sweeps, iters)


def value_function_mc(
    cost: CostSpec,
    cfg: SdeConfig,
    t: float,
    rho: DensityState,
    x: MomentumState,
    control_class: dict,
    n_paths: int,
    master_seed: int,
    budget: float = 150,
) -> ValueEstimate:
    """Upper approximation of the value function over a restricted class.

    The class is piecewise-constant open loop with ``m`` pieces (or explicit
    breakpoints).  Coordinates are optimized by golden section inside the
    ball slice given the other coordinates (cross-entropy would replace this
    beyond a few pieces; the classes used here stay small).  All candidates
    share increments through the fixed master seed.  ``budget``, a number
    >= 1 or ``math.inf`` for no limit, caps the evaluations on the search's
    path; a search it stops is ``flagged`` in the trace.

    Each candidate's estimate averages its paths that stayed inside, and
    ``n_paths`` counts the best candidate's survivors.  Two candidates can
    lose different paths, so the search may compare means over different
    survivor sets.
    """
    klass = _read_class(control_class, t, cfg.T)
    real_in(budget, "budget", 1.0, math.inf, "[]")
    n_paths = int_at_least(n_paths, 1, "n_paths")
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

    Two things cut the sequential lockstep steps without changing a bit.
    When len(starts) x paths is at most ``_SPECULATE_ROWS`` the golden
    sections speculate: each round also scores both trials that can follow
    its last one.  A batch whose trials all keep pieces 0..j-1 of their
    incumbents starts at breakpoint j's node (``run_rows``'s ``k0``) from
    each incumbent's marks.  The trace's ``evals`` counts the trials on the
    search path only.
    """
    bp, ell = klass.breakpoints, klass.ell
    m = bp.size - 1
    n = cfg.energy.graph.n
    paths = noise.incs.shape[0]
    terminal = cost.terminal_cost if terminal is None else terminal
    # Node of breakpoint j: the last grid node at or before it.  The state
    # there depends on pieces before j only; at the first node after an
    # off-grid breakpoint it would not, since a rescue's half steps in the
    # step before it may cross into piece j.
    times = _time_grid(cfg)[2]
    nodes = (np.searchsorted(times, bp[:-1], side="right") - 1).tolist()

    def estimate(trials):
        signal = ControlSignal(
            bp, np.repeat(np.stack([trial.params for trial in trials]), paths, axis=0), ell
        )
        # Every trial keeps its incumbent's pieces before its own, so the
        # batch starts at the earliest breakpoint any of them moves, from
        # each incumbent's mark there; the marks up to it are the incumbent's.
        j = min(trial.piece for trial in trials)
        ests = _cost_estimates(
            cost, replace(cfg, control=signal), [trial.marks[j] for trial in trials], noise,
            terminal, nodes[j], nodes[j + 1:],
        )
        return [
            est if isinstance(est, EscapeQuotaError)
            else est._replace(marks=trial.marks[:j + 1] + est.marks)
            for trial, est in zip(trials, ests)
        ]

    # Speculating scores three trials for two iterations: a run of 3R rows
    # replaces two runs of R rows.  That pays while a step's fixed overhead
    # outweighs its per-row work.  Measured on a 2-vCPU Xeon, one search on
    # criterion 12's problem (n = 2, 100 steps) at R paths took, speculating
    # over plain, 0.71x the time at R = 200, 0.9x at 500 and 800, 0.97-1.0x
    # at 1,000, 0.91-1.18x from 1,300 to 1,600, 1.1-1.15x at 2,000 and
    # 1.29x at 3,000; criterion 8 (2,000-32,000 rows a round) took 1.9x.
    # Hence _SPECULATE_ROWS, at the low end of the crossover.
    speculate = len(starts) * paths <= _SPECULATE_ROWS
    searches = [
        _coordinate_search(
            _fresh(rho, s, paths), m, n, ell, klass.sweeps, klass.golden_iters, budget, speculate
        )
        for rho, s in starts
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


def _usable_cpus() -> int:
    """The CPUs this process may run on (``os.cpu_count()`` where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _Beside:
    """Runs fn(*args) beside the caller's work; ``with`` gives join(), which returns its result.

    Where ``os.fork`` exists, the process may run on two CPUs and has no
    other thread, fn runs in a forked child, which sends (ok, result or
    exception) back through a pipe as a pickle and always ends with
    ``os._exit``.  join() reads the pipe, reaps the child, and returns the
    result or raises the exception; a child that exits before sending it
    raises ``ChildProcessError`` with its exit status.  Leaving the block
    before join() kills and reaps the child.  Elsewhere fn runs here, at
    once.  Nothing here keeps ``args`` once the child has its copy.
    """

    def __init__(self, fn, *args):
        self._pid = self._pipe = None
        if not hasattr(os, "fork") or _usable_cpus() < 2 or threading.active_count() > 1:
            self._result = fn(*args)
            return
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:  # the child
            code = 1
            try:
                os.close(read_end)
                try:
                    payload = pickle.dumps((True, fn(*args)))
                except Exception as err:
                    payload = pickle.dumps((False, err))
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self._pid, self._pipe = pid, os.fdopen(read_end, "rb")

    def __enter__(self):
        return self._join

    def _join(self):
        if self._pid is None:
            return self._result
        payload = self._pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        self._pid = None
        if code:  # a child that exits 0 has sent its whole payload
            raise ChildProcessError(f"the forked search exited with status {code} and no result")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value

    def __exit__(self, *exc_info):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._pipe is not None:
            self._pipe.close()


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
    1.0); ``cfg.control`` plays no part.  Each search sets its own
    breakpoints, so the class's ``m`` and ``breakpoints`` are only checked.
    Its ``sweeps`` and ``golden_iters`` reach the outer value and the inner
    lattice, both searched with a budget of 150 evaluations; the middle
    search always runs 2 sweeps of 12 golden-section iterations, without a
    budget.  ``inner_paths`` defaults to max(n_paths // 4, 200).  Returns
    (gap, combined standard error); with ``return_detail`` a dict of the
    intermediate estimates is appended.

    The two sides are independent searches: the outer value U(t), and the
    probes -> inner lattice -> middle search chain.  Once every argument is
    checked and the outer noise drawn, the outer search runs in a forked
    child (``_Beside``) while this process runs the chain, where the process
    may use two CPUs and runs no other thread; elsewhere it runs first, in
    this process.  The child replays the same noise through the same code,
    so the result is bitwise the same either way.  An error on either side
    reaches the caller; with a child, one in the chain comes first and
    kills the child.
    """
    if rho.n != 2:
        raise DomainError("the nested lattice evaluation is specialized to n = 2")
    if not cfg.t0 <= t < t_bar <= cfg.T:
        raise DomainError("need t < t_bar <= T")
    shape = np.asarray(lattice_shape)
    if shape.shape != (3,) or shape.dtype.kind not in "iu" or (shape < 1).any():
        raise DomainError("lattice_shape must be three positive ints")
    lattice_shape = tuple(shape.tolist())
    n_paths = int_at_least(n_paths, 1, "n_paths")
    if inner_paths is None:
        inner_paths = max(n_paths // 4, 200)
    inner_paths = int_at_least(inner_paths, 1, "inner_paths")
    klass = _read_class(control_class, t, cfg.T)
    outer_class = _read_class(dict(control_class, breakpoints=[t, t_bar, cfg.T]), t, cfg.T)
    outer_cfg = replace(cfg, t0=t)
    # The outer noise goes straight to _Beside, so this process frees it
    # once a child has its copy.
    with _Beside(
        _value_search, cost, outer_cfg, [(rho.rho, x.s)], outer_class,
        draw_noise(outer_cfg, master_seed, n_paths), 150,
    ) as outer_search:
        mid, inner_se_max, lo, hi = _middle_search(
            cost, cfg, t, t_bar, rho, x, klass, n_paths, master_seed, inner_paths, lattice_shape
        )
        [outer] = outer_search()
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


def _middle_search(
    cost, cfg, t, t_bar, rho, x, klass, n_paths, master_seed, inner_paths, lattice_shape
):
    """``bellman_gap``'s middle search on [t, t_bar], scored by its inner lattice at t_bar.

    Returns the middle estimate, the inner lattice's largest standard error
    and the lattice's corners.
    """
    n = rho.n

    # Reachable cloud at t_bar under a few probe controls fixes the lattice.
    # The probes replay the first paths of the middle search's noise draw.
    seg_cfg = replace(cfg, t0=t, T=t_bar)
    seg_noise = draw_noise(seg_cfg, master_seed, n_paths)
    probe_paths = min(n_paths, 400)
    corner = klass.ell / math.sqrt(n)
    probes = np.array([[0.0] * n, [corner] * n, [-corner] * n])
    probe_values = np.repeat(probes[:, None], probe_paths, axis=0)
    for _, rho_T, s_T, _, alive, _ in run_rows(
        replace(seg_cfg, control=ControlSignal([t, t_bar], probe_values, klass.ell)),
        np.tile(rho.rho, (3 * probe_paths, 1)),
        np.tile(x.s, (3 * probe_paths, 1)),
        seg_noise,
        np.tile(np.arange(probe_paths), 3),
    ):
        pass  # only the last node is kept
    if not alive.reshape(3, probe_paths).any(axis=1).all():
        raise EscapeQuotaError(probe_paths, probe_paths)  # a probe lost every path
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
    return mid, inner_se_max, lo, hi
