"""Grid solver for the dynamic-programming PDE, energy cutoffs, convolutions.

The equation solved backward from the terminal cost is

    dU/dt + <p, dH0/dx> - <q, dH0/drho> + 1/2 tr(sigma sigma^T Q) - Fhat(q) = 0

on the two-vertex state space (t, rho_1, x_1, x_2), with p the projected
simplex derivative, q the x-gradient, Q the x-Hessian.  The scheme is
explicit and monotone under a time-step bound recorded on the grid:
sign-upwinded transport, central diffusion, and a central Fhat with
ell-scaled numerical viscosity dominating its Lipschitz constant.

The cutoff apparatus rescales the equation by phi(H0) where phi plateaus at
1 below a level R and at R^{-beta} above 2R.  Because dH0/dx sums to zero,
the projected and raw density gradients of phi(H0) are interchangeable
inside the mixed transport pairing; `truncation_identity_check` measures
exactly that cancellation.  The rescaled Hamiltonian of
`truncated_hamiltonian` agrees with the plain one wherever phi' = 0.
The pointwise functions take a ``DensityState`` and a ``MomentumState``;
the grid solver works on arrays of nodes.

Sup-/inf-convolutions are separable Moreau envelopes over the grid metric
|t|^2 + ||rho||^2 + ||x||^2; they bound the input from above/below and are
theta-semiconvex/semiconcave by construction, which `semiconvexity_defect`
verifies discretely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import fhat_norm, hjb_layer, moreau_lines, multilinear_at
from .control import QUADRATIC_CONTROL, CostSpec, _drift_pairing, hamiltonian
from .energies import EnergySpec, dominant_array, energy_gradients, gradient_arrays
from .graphs import (
    LOG_MEAN_TOLERANCE,
    Array,
    DensityState,
    DomainError,
    MomentumState,
    _readonly,
    frechet_project,
    int_at_least,
    real_in,
)


class CflError(ArithmeticError):
    """Requested time step exceeds the monotone-scheme bound."""


class NonFiniteError(ArithmeticError):
    """Solver produced a non-finite value; carries the offending layer."""

    def __init__(self, layer: int):
        super().__init__(f"non-finite value at time layer {layer}")
        self.layer = layer


# ---------------------------------------------------------------------------
# Smooth cutoff profile and the level-set truncation
# ---------------------------------------------------------------------------

# Unit profile: phi(s) = 1 for s <= 0, 0 for s >= 1, and in between the
# smooth blend  e^{-1/(1-s)} / (e^{-1/(1-s)} + e^{-1/s}),  evaluated in the
# overflow-safe logistic form  expit(1/s - 1/(1-s)).
# Measured once on a dense sample of the open unit interval; both derivative
# suprema sit near the midpoint (|phi'| peaks at 2).
PROFILE_DERIV_BOUND = 16.0


def _unit_profile(s: Array):
    from scipy.special import expit  # on first use: importing graphwhs skips scipy

    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    sc = np.where(inside, s, 0.5)  # dummy midpoint keeps the arithmetic finite
    ce = 1.0 / (1.0 - sc) - 1.0 / sc
    val = expit(-ce)
    pq = val * (1.0 - val)
    c1 = 1.0 / (1.0 - sc) ** 2 + 1.0 / sc**2
    c2 = 2.0 / (1.0 - sc) ** 3 - 2.0 / sc**3
    d1 = -c1 * pq
    d2 = pq * (-c2 + c1 * c1 * (1.0 - 2.0 * val))
    val = np.where(inside, val, np.where(s <= 0.0, 1.0, 0.0))
    d1 = np.where(inside, d1, 0.0)
    d2 = np.where(inside, d2, 0.0)
    return val, d1, d2


@dataclass(frozen=True)
class TruncationFn:
    """Non-increasing energy cutoff: 1 below R, R^(-beta) above 2R."""

    R: float
    beta: float = 0.5

    def __post_init__(self):
        # R >= 1 keeps the decay plateau R^(-beta) at or below the inner
        # plateau 1, so the profile is genuinely non-increasing.
        real_in(self.R, "R", 1.0, np.inf, "[)")
        real_in(self.beta, "beta", 0.0, 1.0)

    @property
    def floor(self) -> float:
        return self.R ** (-self.beta)


def phi_eval(tr: TruncationFn, r):
    """Cutoff value and first two derivatives at energy level r.

    Levels at or below R (including negative ones, which unbounded-below
    interaction terms can produce) sit on the inner plateau.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("energy level must be finite")
    s = (r - tr.R) / tr.R
    val, d1, d2 = _unit_profile(s)
    amp = 1.0 - tr.floor
    value = tr.floor + amp * val
    first = amp * d1 / tr.R
    second = amp * d2 / tr.R**2
    if value.ndim == 0:
        return float(value), float(first), float(second)
    return value, first, second


def truncation_identity_check(
    energy: EnergySpec,
    tr: TruncationFn,
    rho: DensityState,
    x: MomentumState,
    break_tangency: float = 0.0,
) -> float:
    """|<d_rho phi(H0), dH0/dx> - <d_x phi(H0), dH0/drho>| at one state.

    The first factor uses the projected (mean-zero) density gradient, the
    second the raw one; they pair identically against dH0/dx because that
    field sums to zero.  ``break_tangency`` adds a constant to dH0/dx to
    demonstrate the check is sensitive to exactly that property.
    """
    grads = energy_gradients(energy, rho, x)
    d_x = grads.d_x + break_tangency
    h0 = float(dominant_array(energy, rho.rho, x.s))
    _, phi1, _ = phi_eval(tr, h0)
    lhs = phi1 * float(frechet_project(grads.d_rho) @ d_x)
    rhs = phi1 * float(grads.d_rho @ d_x)
    return abs(lhs - rhs)


def _cutoff_state(energy: EnergySpec, tr: TruncationFn, rho: DensityState, x: MomentumState):
    """phi(H0), its x-gradient and x-Hessian."""
    h0 = float(dominant_array(energy, rho.rho, x.s))
    phi0, phi1, phi2 = phi_eval(tr, h0)
    grads = energy_gradients(energy, rho, x)
    dphi_x = phi1 * grads.d_x
    hess_phi = phi2 * np.outer(grads.d_x, grads.d_x) + phi1 * grads.hess_x
    return h0, phi0, dphi_x, hess_phi


def fhat_R(
    spec: CostSpec,
    energy: EnergySpec,
    tr: TruncationFn,
    t,
    rho: DensityState,
    x: MomentumState,
    q: Array,
    U_value: float,
    ell: float,
) -> float:
    """sup over the control ball of <q - U dphi/dx, V> - phi(H0) F(t,rho,x,V)."""
    _, phi0, dphi_x, _ = _cutoff_state(energy, tr, rho, x)
    return _fhat_R_at(spec, t, rho, x, q, U_value, ell, phi0, dphi_x)


def _fhat_R_at(spec: CostSpec, t, rho, x, q, U_value, ell, phi0: float, dphi_x: Array) -> float:
    """``fhat_R`` given phi(H0) and its x-gradient at (rho, x)."""
    real_in(ell, "ell", 0.0, np.inf)
    w = np.asarray(q, dtype=float) - U_value * dphi_x
    wn = float(np.sqrt((w**2).sum()))
    return float(fhat_norm(wn, phi0 * spec.control_coeff, ell)) - phi0 * float(
        spec.state_cost(t, rho.rho, x.s)
    )


def truncated_hamiltonian(
    spec: CostSpec,
    energy: EnergySpec,
    tr: TruncationFn,
    t,
    rho: DensityState,
    x: MomentumState,
    U_value: float,
    p: Array,
    q: Array,
    Q: Array,
    ell: float,
) -> float:
    """Cutoff-rescaled Hamiltonian; equals `hamiltonian` on the inner plateau."""
    h0, phi0, dphi_x, hess_phi = _cutoff_state(energy, tr, rho, x)
    if h0 >= 2.0 * tr.R:
        raise DomainError("state lies outside the cutoff domain (H0 >= 2R)")
    q = np.asarray(q, dtype=float)
    Q = np.asarray(Q, dtype=float)
    sig2 = energy.sigma**2
    value = _drift_pairing(energy, rho, x, p, q, Q)
    value -= float(sig2 @ (dphi_x * q)) / phi0
    value -= U_value * (
        0.5 * float(sig2 @ np.diag(hess_phi)) - float(sig2 @ dphi_x**2) / phi0
    )
    value -= _fhat_R_at(spec, t, rho, x, q, U_value, ell, phi0, dphi_x)
    return value


# ---------------------------------------------------------------------------
# Grid, solver, residuals
# ---------------------------------------------------------------------------

# Each grid axis's key in metadata.json, in value-array order.
AXIS_NAMES = ("t", "rho1", "x1", "x2")


@dataclass(frozen=True)
class SimplexGrid:
    """Uniform tensor grid over (t, rho_1, x_1, x_2) for two vertices.

    ``axes`` holds the four read-only coordinate vectors in value-array
    order, the axes that ``AXIS_NAMES`` names.
    """

    axes: tuple
    cfl: dict

    def __post_init__(self):
        if len(self.axes) != len(AXIS_NAMES):
            raise DomainError(f"the grid needs {len(AXIS_NAMES)} axes {AXIS_NAMES}")
        axes = tuple(_readonly(ax) for ax in self.axes)
        for name, ax in zip(AXIS_NAMES, axes):
            if ax.ndim != 1 or ax.size < 2 or np.any(np.diff(ax) <= 0.0):
                raise DomainError(f"axis {name} must be increasing with >= 2 points")
            steps = np.diff(ax)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise DomainError(f"axis {name} must be uniform")
        if axes[1][0] <= 0.0 or axes[1][-1] >= 1.0:
            raise DomainError("density axis must stay strictly interior")
        object.__setattr__(self, "axes", axes)

    @property
    def spacings(self) -> tuple[float, float, float, float]:
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(ax.size for ax in self.axes)

    def nodes(self):
        """Dense (nr, n1, n2, 2) density and momentum node arrays."""
        RR, X1, X2 = np.meshgrid(*self.axes[1:], indexing="ij")
        rho_nodes = np.stack([RR, 1.0 - RR], axis=-1)
        x_nodes = np.stack([X1, X2], axis=-1)
        return rho_nodes, x_nodes

    @classmethod
    def build(
        cls,
        energy: EnergySpec,
        ell: float,
        T: float,
        shape=(33, 33, 33, 64),
        X: float = 1.0,
        rho_margin: float = 0.1,
        t0: float = 0.0,
    ) -> "SimplexGrid":
        if energy.graph.n != 2:
            raise DomainError("the grid solver is specialized to two vertices")
        # shape lists spatial axes first, time layers last.
        nr, n1, n2, nt = (int_at_least(v, 2, "grid shape entry") for v in shape)
        axes = (
            np.linspace(t0, T, nt),
            np.linspace(rho_margin, 1.0 - rho_margin, nr),
            np.linspace(-X, X, n1),
            np.linspace(-X, X, n2),
        )
        grid = cls(axes=axes, cfl={})
        record = _cfl_record(grid, energy, ell, *_drift_fields(grid, energy))
        object.__setattr__(grid, "cfl", record)
        return grid


def _drift_fields(grid: SimplexGrid, energy: EnergySpec):
    rho_nodes, x_nodes = grid.nodes()
    d_rho, d_x = gradient_arrays(energy, rho_nodes, x_nodes)
    a_r = d_x[..., 0]
    b1 = -d_rho[..., 0]
    b2 = -d_rho[..., 1]
    return a_r, b1, b2


def _cfl_record(grid: SimplexGrid, energy: EnergySpec, ell: float, a_r, b1, b2) -> dict:
    real_in(ell, "ell", 0.0, np.inf)
    dt, hr, h1, h2 = grid.spacings
    sig2 = energy.sigma**2
    denom = (
        np.abs(a_r).max() / hr
        + np.abs(b1).max() / h1
        + np.abs(b2).max() / h2
        + sig2[0] / h1**2
        + sig2[1] / h2**2
        + ell / h1
        + ell / h2
    )
    bound = 1.0 / denom if denom > 0.0 else np.inf
    return {
        "dt": dt,
        "dt_bound": float(bound),
        "cfl_number": float(dt * denom),
        "max_speed_rho": float(np.abs(a_r).max()),
        "max_speed_x": float(max(np.abs(b1).max(), np.abs(b2).max())),
        "ell": float(ell),
    }


# A grid artifact directory holds metadata.json and the value array as one
# binary .npy file; schema 1 stored one CSV per time layer.
ARTIFACT_SCHEMA = 2
VALUES_FILE = "values.npy"


def _digest(values: dict) -> str:
    payload = json.dumps(values, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def energy_hash(energy: EnergySpec) -> str:
    """Fingerprint of the values that define the energy, not of the class layout."""
    return _digest({
        "omega": energy.graph.omega.tolist(),
        "variant": energy.variant,
        # The tolerance is a constant; it stays in the payload so that saved
        # grids keep their fingerprints.
        "weight": [energy.weight.kind, LOG_MEAN_TOLERANCE],
        "edge_interaction": energy.edge_interaction.tolist(),
        "fisher_coeff": float(energy.fisher_coeff),
        "sigma": energy.sigma.tolist(),
    })


def cost_hash(cost: CostSpec) -> str:
    """Fingerprint of the cost family, its coefficients and its targets."""
    state_coeff = "tracking_coeff" if cost.family == QUADRATIC_CONTROL else "bound"
    return _digest({
        "family": cost.family,
        "control_coeff": float(cost.control_coeff),
        state_coeff: float(getattr(cost, state_coeff)),
        "terminal_weight": float(cost.terminal_weight),
        "terminal_offset": float(cost.terminal_offset),
        "target_rho": None if cost.target_rho is None else cost.target_rho.tolist(),
        "target_x": None if cost.target_x is None else cost.target_x.tolist(),
        # A constant; it stays in the payload so that saved grids keep their
        # fingerprints.
        "custom_running": False,
    })


@dataclass(frozen=True)
class GridValueFunction:
    grid: SimplexGrid
    values: Array  # (nt, nr, n1, n2)
    cost_spec: CostSpec | None
    energy: EnergySpec | None
    ell: float
    cfl: dict

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise DomainError("value array does not match the grid shape")
        if not np.isfinite(vals).all():
            raise DomainError("value function contains non-finite entries")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def axes(self):
        return self.grid.axes

    def evaluate(self, t: float, rho1: float, x1: float, x2: float) -> float:
        """Multilinear interpolant at one point; ``ValueError`` outside the grid."""
        return multilinear_at(self.axes, self.values, (t, rho1, x1, x2))

    def to_dir(self, path) -> None:
        """Write ``values.npy`` (the whole (nt, nr, n1, n2) array) and ``metadata.json``."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        np.save(path / VALUES_FILE, self.values, allow_pickle=False)
        meta = {
            "schema": ARTIFACT_SCHEMA,
            "shape": list(self.grid.shape),
            "axes": {name: ax.tolist() for name, ax in zip(AXIS_NAMES, self.axes)},
            "spacings": list(self.grid.spacings),
            "cfl": self.cfl,
            "ell": self.ell,
            "cost_hash": cost_hash(self.cost_spec) if self.cost_spec else None,
            "energy_hash": energy_hash(self.energy) if self.energy else None,
        }
        (path / "metadata.json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def from_dir(cls, path, cost_spec=None, energy=None) -> "GridValueFunction":
        path = Path(path)
        meta = json.loads((path / "metadata.json").read_text())
        if meta.get("schema") != ARTIFACT_SCHEMA:
            raise DomainError(
                f"grid artifact schema {meta.get('schema')!r} is not supported "
                f"(expected {ARTIFACT_SCHEMA}); re-run `graph-whs hjb` to rewrite it"
            )
        try:
            axes = tuple(_readonly(meta["axes"][name]) for name in AXIS_NAMES)
            shape, cfl, ell = meta["shape"], meta["cfl"], float(meta["ell"])
            stored_cost, stored_energy = meta["cost_hash"], meta["energy_hash"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"metadata.json is malformed: {exc!r}") from exc
        if cost_spec is not None and stored_cost != cost_hash(cost_spec):
            raise DomainError("cost spec does not match the stored fingerprint")
        if energy is not None and stored_energy != energy_hash(energy):
            raise DomainError("energy spec does not match the stored fingerprint")
        try:
            values = np.load(path / VALUES_FILE, allow_pickle=False)
        except ValueError as exc:  # object arrays and pickles need allow_pickle
            raise DomainError(f"{VALUES_FILE} is not a plain float64 array") from exc
        if not isinstance(values, np.ndarray) or values.dtype != np.float64:
            raise DomainError(f"{VALUES_FILE} is not a plain float64 array")
        if list(values.shape) != shape:
            raise DomainError(
                f"{VALUES_FILE} has shape {list(values.shape)}, metadata says {shape}"
            )
        return cls(
            grid=SimplexGrid(axes=axes, cfl=cfl),
            values=values,
            cost_spec=cost_spec,
            energy=energy,
            ell=ell,
            cfl=cfl,
        )


def hjb_solve_backward(
    grid: SimplexGrid,
    spec: CostSpec,
    energy: EnergySpec,
    ell: float,
) -> GridValueFunction:
    """Backward sweep of the monotone explicit scheme from the terminal cost."""
    if energy.graph.n != 2:
        raise DomainError("the grid solver is specialized to two vertices")
    a_r, b1, b2 = _drift_fields(grid, energy)
    record = _cfl_record(grid, energy, ell, a_r, b1, b2)
    dt, hr, h1, h2 = grid.spacings
    if record["cfl_number"] > 1.0 + 1e-12:
        raise CflError(
            "time step {dt:.3e} exceeds the monotonicity bound {b:.3e} "
            "(CFL number {c:.3f}); refine the time axis".format(
                dt=dt, b=record["dt_bound"], c=record["cfl_number"]
            )
        )
    rho_nodes, x_nodes = grid.nodes()
    sig2 = energy.sigma**2
    times = grid.axes[0]
    nt = times.size
    values = np.empty(grid.shape)
    values[nt - 1] = spec.terminal_cost(rho_nodes, x_nodes)
    # G(t, rho, x) is evaluated once: neither cost family's state cost
    # depends on t.
    g_field = spec.state_cost(float(times[-1]), rho_nodes, x_nodes)
    for k in range(nt - 2, -1, -1):
        values[k] = hjb_layer(
            values[k + 1], a_r, b1, b2, g_field, sig2[0], sig2[1],
            hr, h1, h2, dt, ell, spec.control_coeff,
        )
        if not np.isfinite(values[k]).all():
            raise NonFiniteError(k)
    return GridValueFunction(
        grid=grid, values=values, cost_spec=spec, energy=energy, ell=ell, cfl=record
    )


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    rms: float
    n_points: int
    sub_violations: int
    super_violations: int
    probe_tol: float


def hjb_residual(gvf: GridValueFunction, points, probe_tol: float | None = None) -> ResidualReport:
    """Centered-difference defect |dU/dt + H| plus quadratic-jet probes.

    ``points`` holds integer grid indices (k, i, j, l), each at least two
    cells from every boundary.  The probes perturb the discrete second-order
    jet by +/- eps * identity, emulating smooth functions touching the
    solution from above and below; violations are counted against
    ``probe_tol`` (default: the max defect itself).  A probe shifts a defect
    by +/- eps * sum(sigma^2) in the direction away from the violation, so
    under the default no probe can pass it and both counts are 0 by
    construction: they mean something only with an explicit ``probe_tol``
    below the max defect.  Diagnostic evidence, not a proof: only two test
    functions per point are probed.
    """
    if gvf.cost_spec is None or gvf.energy is None:
        raise DomainError("residuals need the cost and energy attached")
    pts = np.atleast_2d(np.asarray(points, dtype=int))
    U = gvf.values
    nt, nr, n1, n2 = U.shape
    dt, hr, h1, h2 = gvf.grid.spacings
    times, rho1, x1, x2 = gvf.axes
    lims = (nt, nr, n1, n2)
    if np.any(pts < 2) or np.any(pts >= np.array(lims) - 2):
        raise DomainError("sample points must sit >= 2 cells inside the grid")
    sig_sum = float((gvf.energy.sigma**2).sum())
    eps = min(h1, h2) ** 2
    resids = np.empty(pts.shape[0])
    for row, (k, i, j, l) in enumerate(pts):
        du_dt = (U[k + 1, i, j, l] - U[k - 1, i, j, l]) / (2.0 * dt)
        du_dr = (U[k, i + 1, j, l] - U[k, i - 1, j, l]) / (2.0 * hr)
        q = np.array([
            (U[k, i, j + 1, l] - U[k, i, j - 1, l]) / (2.0 * h1),
            (U[k, i, j, l + 1] - U[k, i, j, l - 1]) / (2.0 * h2),
        ])
        d11 = (U[k, i, j + 1, l] - 2.0 * U[k, i, j, l] + U[k, i, j - 1, l]) / h1**2
        d22 = (U[k, i, j, l + 1] - 2.0 * U[k, i, j, l] + U[k, i, j, l - 1]) / h2**2
        d12 = (
            U[k, i, j + 1, l + 1] - U[k, i, j + 1, l - 1]
            - U[k, i, j - 1, l + 1] + U[k, i, j - 1, l - 1]
        ) / (4.0 * h1 * h2)
        Q = np.array([[d11, d12], [d12, d22]])
        p = np.array([0.5 * du_dr, -0.5 * du_dr])
        rho = DensityState(rho=np.array([rho1[i], 1.0 - rho1[i]]))
        x = MomentumState(s=np.array([x1[j], x2[l]]))
        H = hamiltonian(gvf.cost_spec, gvf.energy, float(times[k]), rho, x, p, q, Q, gvf.ell)
        resids[row] = du_dt + H
    max_abs = float(np.abs(resids).max())
    tol = probe_tol if probe_tol is not None else max_abs
    # Touching from above adds +2 eps I to the jet Hessian; H is monotone in
    # Q through the nonnegative diffusion, so the probe shifts by eps sig_sum.
    sub_probe = resids + eps * sig_sum
    super_probe = resids - eps * sig_sum
    return ResidualReport(
        max_abs=max_abs,
        rms=float(np.sqrt((resids**2).mean())),
        n_points=int(pts.shape[0]),
        sub_violations=int((sub_probe < -tol).sum()),
        super_violations=int((super_probe > tol).sum()),
        probe_tol=float(tol),
    )


# ---------------------------------------------------------------------------
# Sup-/inf-convolutions
# ---------------------------------------------------------------------------

def _axis_weights(ndim: int, weights) -> np.ndarray:
    if weights is None:
        return np.ones(ndim)
    w = np.asarray(weights, dtype=float)
    # Negated, so that NaN fails too.
    if w.size != ndim or not ((w > 0.0) & (w < np.inf)).all():
        raise DomainError("need one positive finite metric weight per axis")
    return w


def metric_weights_for_value(n: int = 2) -> tuple:
    """Axis weights (t, rho_1, x...) realizing |t|^2 + ||rho||^2 + ||x||^2.

    The density contributes through all n coordinates; for n = 2 the rho_1
    axis therefore carries weight 2.
    """
    return (1.0, float(n)) + (1.0,) * n


def sup_convolution(values: Array, axes, theta: float, weights=None) -> Array:
    """max over grid points w of values(w) - sum_z c_z (z - w)^2 / (2 theta)."""
    real_in(theta, "theta", 0.0, np.inf)
    out = np.asarray(values, dtype=float)
    w = _axis_weights(out.ndim, weights)
    for axis in range(out.ndim):
        coords = np.asarray(axes[axis], dtype=float)
        if coords.size != out.shape[axis]:
            raise DomainError("axis coordinates do not match the value shape")
        # Lines along `axis` as the transpose of a C-contiguous (m, lines)
        # block, the layout moreau_lines sweeps without a copy.
        front = np.moveaxis(out, axis, 0)
        lines = moreau_lines(front.reshape(coords.size, -1).T, coords, w[axis], theta)
        out = np.moveaxis(lines.T.reshape(front.shape), 0, axis)
    return np.ascontiguousarray(out)


def inf_convolution(values: Array, axes, theta: float, weights=None) -> Array:
    """min over grid points w of values(w) + sum_z c_z (z - w)^2 / (2 theta)."""
    return -sup_convolution(-np.asarray(values, dtype=float), axes, theta, weights)


def semiconvexity_defect(conv: Array, axes, theta: float, weights=None) -> float:
    """Smallest second difference of conv + ||z||^2/(2 theta) along grid lines.

    Nonnegative (up to rounding) for sup-convolution output; negate the
    input to test semiconcavity of inf-convolution output.
    """
    real_in(theta, "theta", 0.0, np.inf)
    conv = np.asarray(conv, dtype=float)
    w = _axis_weights(conv.ndim, weights)
    worst = np.inf
    for axis in range(conv.ndim):
        coords = np.asarray(axes[axis], dtype=float)
        shape = [1] * conv.ndim
        shape[axis] = coords.size
        g = conv + w[axis] * coords.reshape(shape) ** 2 / (2.0 * theta)
        m = coords.size
        if m < 3:
            continue
        hi = g.take(range(2, m), axis=axis)
        mid = g.take(range(1, m - 1), axis=axis)
        lo = g.take(range(0, m - 2), axis=axis)
        worst = min(worst, float((hi - 2.0 * mid + lo).min()))
    return worst
