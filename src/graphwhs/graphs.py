"""Finite weighted graphs and the discrete Wasserstein calculus on them.

Conventions
-----------
* Vertices are 0..n-1.  Edge weights live in a dense symmetric matrix
  ``omega`` with zero diagonal; ``omega[i, j] > 0`` iff {i, j} is an edge.
  Graphs must be connected.  n is capped at 64 because the transport path
  still solves one dense n x n Laplacian per path interval.
* Every edge quantity lives on the oriented edge list ``Graph.edge_list``:
  both orientations (i, j) and (j, i) of every edge, sorted by tail i and
  then by head j, with per-edge omega, built once per graph.  Arrays of edge
  terms have shape (..., E), so a drift evaluation costs O(|E|) per state
  rather than O(n^2).  ``EdgeList.vertex_sum`` folds each vertex's terms
  from 0.0 in head order, the order numpy sums a dense row of fewer than 8
  entries; for n < 8 the per-vertex sums therefore equal the masked dense
  row sums bitwise.
* Densities rho are strictly interior points of the probability simplex;
  construction rejects components at or below a floor (default 1e-9),
  because the Fisher-type energies blow up at the boundary.
* Edge fields are skew-symmetric (E,) arrays: ``v == -v[edge_list.rev]``.
* A probability weight g is a symmetric mean evaluated on the endpoint
  densities of an edge: arithmetic, logarithmic, or harmonic.  It satisfies
  min <= g <= max, positive homogeneity, and concavity; the logarithmic
  mean is evaluated through log1p of the relative gap, with a midpoint
  branch when the arguments nearly coincide.
* The graph gradient is (grad phi)_{ij} = sqrt(omega_ij) (phi_i - phi_j),
  the weighted divergence is (div_rho v)_i = sum_j sqrt(omega_ij) v_ji
  g_ij(rho), and the mobility inner product is
  <u, v>_rho = 1/2 sum_{(i,j)} u_ij v_ij g_ij(rho) over ordered edge pairs.
  With the Euclidean pairing <phi, w> these satisfy the integration-by-parts
  identity <grad phi, v>_rho = -<phi, div_rho v>.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, NamedTuple

import numpy as np

Array = np.ndarray

EPS_FLOOR = 1e-9
MAX_DENSE_N = 64

AVERAGE = "average"
LOGARITHMIC = "logarithmic"
HARMONIC = "harmonic"
WEIGHT_KINDS = (AVERAGE, LOGARITHMIC, HARMONIC)
# Relative gap below which the logarithmic mean takes its midpoint branch.
LOG_MEAN_TOLERANCE = 1e-8


class GraphError(ValueError):
    pass


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


def _readonly(a, dtype=float) -> Array:
    """A read-only copy of a; the caller's array stays writeable and unshared."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def is_real(value) -> bool:
    """A real number, numpy's included, but not a bool, which would compare as 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_int(value) -> bool:
    """An int, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def int_at_least(value, low: int, name: str) -> int:
    """value as an int; DomainError unless it is an int (not a bool) of at least low."""
    if not (is_int(value) and value >= low):
        raise DomainError(f"{name} must be an int >= {low}")
    return int(value)


def fold_columns(ufunc, a: Array) -> Array:
    """ufunc folded over the columns of a (..., n) array, left to right.

    On a few hundred rows of a short last axis a numpy reduction costs
    several elementwise ops.  ``np.minimum`` folds to exactly
    ``a.min(axis=-1)`` for any n; ``np.add`` folds to ``a.sum(axis=-1)``
    bitwise only for n < 8, since numpy sums 8 or more terms pairwise.
    """
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = ufunc(out, a[..., j])
    return out


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Undirected connected weighted graph with dense symmetric weights."""

    n: int
    omega: Array

    def __post_init__(self):
        if not is_int(self.n):
            raise GraphError(f"vertex count must be an int, not {self.n!r}")
        om = np.asarray(self.omega, dtype=float)
        if om.shape != (self.n, self.n):
            raise ShapeError(f"weight matrix must be ({self.n}, {self.n})")
        if self.n < 1 or self.n > MAX_DENSE_N:
            raise GraphError(f"vertex count must be in [1, {MAX_DENSE_N}]")
        if not np.isfinite(om).all():
            raise GraphError("weights must be finite")
        if not np.array_equal(om, om.T):
            raise GraphError("weights must be exactly symmetric")
        if np.any(np.diag(om) != 0.0):
            raise GraphError("self-loops are not allowed")
        if np.any(om < 0.0):
            raise GraphError("weights must be nonnegative")
        object.__setattr__(self, "omega", _readonly(om))
        if not self._connected():
            raise GraphError("graph must be connected")

    def _connected(self) -> bool:
        # Grow the set reached from vertex 0 by the heads of its edges until it stops.
        e = self.edge_list
        seen = np.arange(self.n) == 0
        while True:
            grown = seen.copy()
            grown[e.jj[seen[e.ii]]] = True
            if np.array_equal(grown, seen):
                return bool(seen.all())
            seen = grown

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Unordered edges as (i, j) with i < j."""
        e = self.edge_list
        up = e.ii < e.jj
        return list(zip(e.ii[up].tolist(), e.jj[up].tolist()))

    @cached_property
    def edge_list(self) -> "EdgeList":
        """The oriented edge arrays, built once per graph."""
        return EdgeList.build(self.omega)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]]) -> "Graph":
        om = np.zeros((n, n))
        seen = set()
        for i, j, w in edges:
            if not (is_int(i) and is_int(j)):
                raise GraphError(f"edge ({i!r}, {j!r}) needs integer vertex indices")
            if i == j:
                raise GraphError("self-loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge ({i}, {j}) out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError(f"edge ({i}, {j}) listed twice")
            seen.add(key)
            om[i, j] = om[j, i] = float(w)
        return cls(n=n, omega=om)


class EdgeList(NamedTuple):
    """Both orientations of every edge, sorted by tail and then by head.

    ``rev[k]`` indexes edge k's reverse (the edges sorted by head, then tail).
    ``first`` and ``folds`` plan ``vertex_sum``: the edge holding each
    vertex's first neighbour (None when that is edge v itself), then, for
    each later neighbour slot, the vertices that have one (None for all) and
    their edges.  Every array is read-only.
    """

    n: int
    ii: Array
    jj: Array
    omega: Array
    rev: Array
    first: Array | None
    folds: tuple

    @classmethod
    def build(cls, omega: Array) -> "EdgeList":
        n = omega.shape[0]
        ii, jj = np.nonzero(omega > 0.0)
        degree = np.bincount(ii, minlength=n)
        starts = np.searchsorted(ii, np.arange(n))
        first = None if np.array_equal(starts, np.arange(ii.size)) else starts
        ints = partial(_readonly, dtype=np.intp)
        folds = []
        for k in range(1, int(degree.max(initial=0))):
            verts = np.flatnonzero(degree > k)
            folds.append((None if verts.size == n else ints(verts), ints(starts[verts] + k)))
        return cls(
            n, ints(ii), ints(jj), _readonly(omega[ii, jj]), ints(np.lexsort((ii, jj))),
            None if first is None else ints(first), tuple(folds),
        )

    def vertex_sum(self, terms: Array) -> Array:
        """(..., n) sums of (..., E) edge terms, each folded from 0.0 in head order."""
        if self.ii.size == 0:
            return np.zeros(terms.shape[:-1] + (self.n,), dtype=terms.dtype)
        out = (terms if self.first is None else terms[..., self.first]) + 0.0
        for verts, edges in self.folds:
            if verts is None:
                out += terms[..., edges]
            else:
                out[..., verts] += terms[..., edges]
        return out

    def laplacian(self, a: Array) -> Array:
        """Dense (..., n, n) Laplacians diag(row sums) - A for edge weights a of shape (..., E)."""
        L = np.zeros(a.shape[:-1] + (self.n, self.n))
        L[..., self.ii, self.jj] = -a
        diag = np.arange(self.n)
        L[..., diag, diag] = self.vertex_sum(a)
        return L


@dataclass(frozen=True)
class DensityState:
    """Strictly interior point of the probability simplex."""

    rho: Array
    floor: float = EPS_FLOOR

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=float)
        if r.ndim != 1:
            raise ShapeError("rho must be a vector")
        if not np.all(np.isfinite(r)):
            raise DomainError("rho must be finite")
        if abs(r.sum() - 1.0) > 1e-12:
            raise DomainError(f"rho must sum to 1 (got {r.sum()!r})")
        if np.any(r < self.floor):
            raise DomainError(f"rho has a component below the floor {self.floor}")
        # The one-vertex simplex is the single point (1.0); otherwise interior.
        if r.size > 1 and np.any(r >= 1.0):
            raise DomainError("rho must be strictly interior")
        object.__setattr__(self, "rho", _readonly(r))

    @property
    def n(self) -> int:
        return self.rho.size


@dataclass(frozen=True)
class MomentumState:
    """Euclidean momentum / phase vector."""

    s: Array

    def __post_init__(self):
        v = np.asarray(self.s, dtype=float)
        if v.ndim != 1:
            raise ShapeError("s must be a vector")
        if not np.all(np.isfinite(v)):
            raise DomainError("s must be finite")
        object.__setattr__(self, "s", _readonly(v))

    @property
    def n(self) -> int:
        return self.s.size


@dataclass(frozen=True)
class EdgeField:
    """Skew-symmetric (E,) array on the oriented edge list of a graph."""

    values: Array
    graph: Graph

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        e = self.graph.edge_list
        if v.shape != e.ii.shape:
            raise ShapeError(f"edge field must have one entry per oriented edge ({e.ii.size})")
        if not np.array_equal(v, -v[e.rev]):
            raise ShapeError("edge field must be exactly skew-symmetric")
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class ProbabilityWeight:
    """Symmetric mean g(t, r) used as edge mobility.

    The logarithmic kind switches to its equal-argument (midpoint) branch
    below the relative gap ``LOG_MEAN_TOLERANCE``.  Its partial switches to a
    power series at a fixed gap instead (``_mean_dt``).
    """

    kind: str = AVERAGE

    def __post_init__(self):
        kind = str(self.kind).lower()
        if kind not in WEIGHT_KINDS:
            raise DomainError(f"unknown weight kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)


# ---------------------------------------------------------------------------
# probability weights
# ---------------------------------------------------------------------------

def weight_eval(w: ProbabilityWeight, t, r):
    """Evaluate g(t, r) elementwise for nonnegative arguments."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(t < 0.0) or np.any(r < 0.0):
        raise DomainError("probability weights take nonnegative arguments")
    out = _mean(w, t, r)
    return out if out.ndim else float(out)


def _mean(w: ProbabilityWeight, t: Array, r: Array) -> Array:
    # g(t, r) on float arrays whose domain the caller has checked.  Each
    # kind is symmetric bit for bit (the harmonic mean's factor 2 is exact),
    # so an edge gets the same g in both orientations.
    if w.kind == AVERAGE:
        return 0.5 * (t + r)
    if w.kind == HARMONIC:
        s = t + r
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t * r > 0.0, 2.0 * t * r / np.where(s > 0.0, s, 1.0), 0.0)
    # Logarithmic mean (t - r) / (log t - log r); the limit is the midpoint
    # (through second order) when the arguments nearly agree, and 0 when
    # either argument vanishes.  log1p of the gap over the smaller argument
    # is exactly symmetric and fully accurate right up to the midpoint
    # branch (the gap itself is exact by Sterbenz).
    hi = np.maximum(t, r)
    lo = np.minimum(t, r)
    near = hi - lo <= LOG_MEAN_TOLERANCE * hi
    pos = lo > 0.0
    diff = np.where(pos & ~near, hi - lo, 0.0)
    safe_lo = np.where(pos & ~near, lo, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = diff / np.log1p(diff / safe_lo)
    out = np.where(near, 0.5 * (t + r), out)
    return np.where(pos, out, 0.0)


def weight_partial(w: ProbabilityWeight, t, r):
    """Analytic partials (dg/dt, dg/dr) for strictly positive arguments.

    g is symmetric, so dg/dr(t, r) is dg/dt(r, t).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(t <= 0.0) or np.any(r <= 0.0):
        raise DomainError("weight partials need strictly positive arguments")
    shape = np.broadcast(t, r).shape
    gt = np.broadcast_to(_mean_dt(w, t, r), shape)
    gr = np.broadcast_to(_mean_dt(w, r, t), shape)
    if shape:
        return gt.copy(), gr.copy()
    return float(gt), float(gr)


# dg/dt of the logarithmic mean as a power series in x = (t - r)/(t + r):
# its coefficients through x^9, highest first (Horner order).
_DT_SERIES = (
    -10196 / 93555, 214 / 2025, -1712 / 14175, 22 / 189, -44 / 315,
    2 / 15, -8 / 45, 1 / 6, -1 / 3, 1 / 2,
)
_DT_SERIES_GAP = 2e-2


def _mean_dt(w: ProbabilityWeight, t: Array, r: Array):
    # dg/dt on strictly positive float arrays the caller has checked; a
    # scalar for the arithmetic mean, whose partial is constant.
    if w.kind == AVERAGE:
        return 0.5
    if w.kind == HARMONIC:
        s = t + r
        return 2.0 * r**2 / s**2
    # Logarithmic mean: g_t = (1 - g/t) / L, L = log(t/r).  Rounding in L
    # and the cancellation in 1 - g/t cost about eps/x^2 relative, so for
    # |x| <= _DT_SERIES_GAP the series takes over (closed form within
    # 2e-13 at the seam, series within 1e-17).
    x = (t - r) / (t + r)
    near = np.abs(x) <= _DT_SERIES_GAP
    safe_t = np.where(near, 1.0, t)
    safe_r = np.where(near, 2.0, r)
    L = np.log(safe_t / safe_r)
    g = (safe_t - safe_r) / L
    gt = (1.0 - g / safe_t) / L
    return np.where(near, np.polyval(_DT_SERIES, x), gt)


# ---------------------------------------------------------------------------
# first-order calculus
# ---------------------------------------------------------------------------

def graph_gradient(G: Graph, phi: Array) -> EdgeField:
    """(grad phi)_{ij} = sqrt(omega_ij) (phi_i - phi_j) on edges."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (G.n,):
        raise ShapeError("phi must have one entry per vertex")
    e = G.edge_list
    return EdgeField(values=np.sqrt(e.omega) * (phi[e.ii] - phi[e.jj]), graph=G)


def divergence(G: Graph, w: ProbabilityWeight, rho: DensityState, v: EdgeField) -> Array:
    """(div_rho v)_i = sum_{j ~ i} sqrt(omega_ij) v_ji g_ij(rho); mean-zero."""
    if v.graph is not G and not np.array_equal(v.graph.omega, G.omega):
        raise ShapeError("edge field built on a different graph")
    e = G.edge_list
    g = weight_eval(w, rho.rho[e.ii], rho.rho[e.jj])
    return e.vertex_sum(np.sqrt(e.omega) * v.values[e.rev] * g)


def rho_inner(G: Graph, w: ProbabilityWeight, rho: DensityState, u: EdgeField, v: EdgeField) -> float:
    """Mobility inner product <u, v>_rho (both edge orientations summed)."""
    e = G.edge_list
    g = weight_eval(w, rho.rho[e.ii], rho.rho[e.jj])
    return 0.5 * float((u.values * v.values * g).sum())


def frechet_project(grad: Array) -> Array:
    """Remove the mean: the simplex-tangent part of a Euclidean gradient."""
    grad = np.asarray(grad, dtype=float)
    return grad - grad.mean()


# ---------------------------------------------------------------------------
# Monge-Kantorovich distance
# ---------------------------------------------------------------------------

class PathResult(NamedTuple):
    value: float
    path: Array          # (steps + 1, n) densities
    action_trace: Array  # action after each accepted descent step
    converged: bool
    step_size: float     # line-search step at exit; 0.0 when no descent ran


def _mobility_laplacian(G: Graph, w: ProbabilityWeight, rho: Array) -> Array:
    # (..., n, n) mobility Laplacians for (..., n) densities.
    e = G.edge_list
    return e.laplacian(e.omega * weight_eval(w, rho[..., e.ii], rho[..., e.jj]))


def _kinetic_rho_partial(G: Graph, w: ProbabilityWeight, rho: Array, phi: Array) -> Array:
    # d/d rho_a of sum_edges omega (phi_i - phi_j)^2 g_ij(rho), for (..., n) arrays.
    if (rho <= 0.0).any():
        raise DomainError("weight partials need strictly positive arguments")
    e = G.edge_list
    diff2 = (phi[..., e.ii] - phi[..., e.jj]) ** 2
    return e.vertex_sum(e.omega * diff2 * _mean_dt(w, rho[..., e.ii], rho[..., e.jj]))


def wasserstein_path(
    G: Graph,
    w: ProbabilityWeight,
    rho0: DensityState,
    rho1: DensityState,
    steps: int = 32,
    iters: int = 300,
) -> PathResult:
    """Locally minimized discrete action between two interior densities.

    The path is parameterized on a uniform grid.  Each interval's velocity
    potential solves L(mid) phi = vel for the mobility Laplacian at the
    interval midpoint: one stacked solve over all intervals, grounded at
    vertex 0 (the graph is connected, so the grounded block is regular) and
    then shifted to mean zero.  Restricting to gradient fields gives the
    minimum-action edge field compatible with the continuity equation
    (divergence-free components are rho-orthogonal to gradients), and each
    interval contributes dt * <phi, vel> to the action.  Interior nodes
    descend along the analytic action gradient (projected onto the simplex
    tangent) with backtracking; the line search rejects trials with an
    interior component at or below ``EPS_FLOOR``.
    """
    if steps < 8:
        raise DomainError("need at least 8 path steps")
    n = G.n
    if rho0.n != n or rho1.n != n:
        raise ShapeError("densities must match the graph size")
    if np.allclose(rho0.rho, rho1.rho, atol=1e-15):
        path = np.tile(rho0.rho, (steps + 1, 1))
        return PathResult(0.0, path, np.zeros(1), True, 0.0)

    dt = 1.0 / steps
    tgrid = np.linspace(0.0, 1.0, steps + 1)
    path = (1.0 - tgrid)[:, None] * rho0.rho + tgrid[:, None] * rho1.rho

    def action_and_potentials(p):
        mid = 0.5 * (p[:-1] + p[1:])
        vel = (p[1:] - p[:-1]) / dt
        L = _mobility_laplacian(G, w, mid)
        phis = np.zeros((steps, n))
        phis[:, 1:] = np.linalg.solve(L[:, 1:, 1:], vel[:, 1:, None])[..., 0]
        # The action depends only on potential differences.
        phis -= phis.mean(axis=1, keepdims=True)
        total = 0.0
        for a_k in (phis * vel).sum(axis=1).tolist():
            total += dt * a_k
        return total, phis

    action, phis = action_and_potentials(path)
    initial_action = action
    trace = [action]
    step_size = 0.25
    stationary = False
    for _ in range(iters):
        # Envelope-theorem gradient of the action in the interior nodes:
        # the velocity part telescopes through the potentials, the mobility
        # part differentiates g through the interval midpoints.
        dL = _kinetic_rho_partial(G, w, 0.5 * (path[:-1] + path[1:]), phis)
        grad = np.zeros((steps + 1, n))
        grad[:-1] += -2.0 * phis - 0.5 * dt * dL
        grad[1:] += 2.0 * phis - 0.5 * dt * dL
        grad[0] = grad[-1] = 0.0
        grad[1:-1] -= grad[1:-1].mean(axis=1, keepdims=True)
        gnorm2 = float((grad**2).sum())
        if gnorm2 <= 1e-18:
            stationary = True
            break
        accepted = False
        while step_size > 1e-14:
            trial = path - step_size * grad
            if trial[1:-1].min() > EPS_FLOOR:
                trial_action, trial_phis = action_and_potentials(trial)
                if trial_action < action - 1e-4 * step_size * gnorm2:
                    path, action, phis = trial, trial_action, trial_phis
                    trace.append(action)
                    step_size = min(4.0 * step_size, 1.0)
                    accepted = True
                    break
            step_size *= 0.5
        if not accepted:
            # Armijo exhausted: at a numerical stationary point.
            stationary = True
            break

    converged = stationary or action < initial_action or initial_action == 0.0
    return PathResult(math.sqrt(max(action, 0.0)), path, np.asarray(trace), converged, step_size)


def wasserstein_distance(
    G: Graph,
    w: ProbabilityWeight,
    rho0: DensityState,
    rho1: DensityState,
    steps: int = 32,
    iters: int = 300,
) -> float:
    """Monge-Kantorovich distance upper bound from the optimized path action."""
    res = wasserstein_path(G, w, rho0, rho1, steps=steps, iters=iters)
    if not res.converged:
        warnings.warn("path descent failed to reduce the linear-path action", RuntimeWarning)
    return res.value


def two_node_distance_oracle(w: ProbabilityWeight, omega: float, a: float, b: float) -> float:
    """|int_a^b dr / sqrt(omega g(r, 1-r))| by adaptive quadrature.

    Independent ground truth for two-vertex graphs, where the continuity
    equation leaves a single scalar velocity and the action integral
    collapses to a one-dimensional length.
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise DomainError("endpoints must be interior")
    if omega <= 0.0:
        raise DomainError("edge weight must be positive")
    if a == b:
        return 0.0

    from scipy.integrate import quad  # on first use: importing graphwhs skips scipy.integrate

    def integrand(r):
        return 1.0 / math.sqrt(omega * weight_eval(w, r, 1.0 - r))

    val, err = quad(integrand, a, b, limit=200)
    if not np.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
        raise ArithmeticError("quadrature failed to converge")
    return abs(val)
