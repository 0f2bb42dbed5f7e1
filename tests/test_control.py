import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwhs import control, dynamics
from graphwhs._kernels import fhat_norm
from graphwhs.checks import benchmark_cost, benchmark_energy
from graphwhs.control import (
    BOUNDED_TRACKING,
    QUADRATIC_CONTROL,
    ControlSignal,
    CostSpec,
    ValueEstimate,
    bellman_gap,
    cost_functional,
    hamiltonian,
    legendre_fhat,
    _drift_pairing,
    _read_class,
    _value_search,
    running_cost,
    value_function_mc,
)
from graphwhs.dynamics import EscapeQuotaError, SdeConfig, draw_noise
from graphwhs.energies import EnergySpec
from graphwhs.graphs import (
    DensityState,
    DomainError,
    Graph,
    MomentumState,
    ShapeError,
)
from test_dynamics import assert_same_estimates


def pair_graph():
    return Graph.from_edges(2, [(0, 1, 1.0)])


def plain_cost(c: float = 0.5) -> CostSpec:
    return CostSpec(control_coeff=c)


def noiseless_cfg(T: float = 0.25, dt: float = 0.025) -> SdeConfig:
    spec = EnergySpec(graph=pair_graph(), sigma=np.zeros(2))
    return SdeConfig(energy=spec, T=T, dt=dt)


# ---------------------------------------------------------------------------
# signals and cost specs
# ---------------------------------------------------------------------------

def test_signal_validation():
    with pytest.raises(ShapeError):
        ControlSignal(breakpoints=[0.0, 1.0], values=[[0.1, 0.0], [0.0, 0.1]], ell=1.0)
    with pytest.raises(DomainError):
        ControlSignal(breakpoints=[0.0, 1.0, 1.0], values=np.zeros((2, 2)), ell=1.0)
    for ell in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            ControlSignal(breakpoints=[0.0, 1.0], values=[[0.0, 0.0]], ell=ell)
    with pytest.raises(DomainError):
        ControlSignal.constant([5, 5], 0, 1, math.nan)   # NaN would admit every value
    with pytest.raises(DomainError):
        ControlSignal(breakpoints=[0.0, math.nan], values=[[0.0, 0.0]], ell=1.0)
    with pytest.raises(DomainError):
        ControlSignal(breakpoints=[0.0, 1.0], values=[[math.nan, 0.0]], ell=1.0)
    with pytest.raises(DomainError):
        ControlSignal(breakpoints=[0.0, 1.0], values=[[1.0, 1.0]], ell=1.0)


def test_signal_piece_selection():
    sig = ControlSignal(
        breakpoints=[0.0, 1.0, 2.0], values=[[0.1, 0.0], [0.0, 0.2]], ell=1.0
    )
    # [b_i, b_{i+1}) pieces; queries past either end clip to the outer piece.
    assert np.array_equal(sig.value_at(-1.0), [0.1, 0.0])
    assert np.array_equal(sig.value_at(0.999), [0.1, 0.0])
    assert np.array_equal(sig.value_at(1.0), [0.0, 0.2])
    assert np.array_equal(sig.value_at(5.0), [0.0, 0.2])
    with pytest.raises(ValueError):
        sig.values[0, 0] = 9.0


def test_stacked_signal_gives_one_row_per_path():
    values = np.array([[[0.1, 0.0], [0.0, 0.2]], [[0.3, 0.4], [-0.5, 0.0]]])
    sig = ControlSignal(breakpoints=[0.0, 1.0, 2.0], values=values, ell=0.5)
    assert np.array_equal(sig.value_at(0.5), values[:, 0])
    assert np.array_equal(sig.value_at(1.5), values[:, 1])
    # Every row of every piece must lie in the ball.
    values[1, 1] = [0.5, 0.01]
    with pytest.raises(DomainError):
        ControlSignal(breakpoints=[0.0, 1.0, 2.0], values=values, ell=0.5)
    with pytest.raises(ShapeError):
        ControlSignal(breakpoints=[0.0, 1.0], values=np.zeros((2, 2, 1, 2)), ell=1.0)
    with pytest.raises(ShapeError):
        ControlSignal(breakpoints=[0.0, 1.0], values=np.zeros((3, 2, 2)), ell=1.0)


def test_cost_spec_guards():
    with pytest.raises(DomainError):
        CostSpec(family="free_lunch")
    for bad in (math.nan, math.inf):
        for key in ("control_coeff", "tracking_coeff", "bound", "terminal_weight", "terminal_offset"):
            with pytest.raises(DomainError):
                CostSpec(**{key: bad})
        for key in ("target_rho", "target_x"):
            with pytest.raises(DomainError):
                CostSpec(**{key: [0.5, bad]})
    with pytest.raises(DomainError):
        CostSpec(control_coeff=0.0)
    with pytest.raises(DomainError):
        CostSpec(tracking_coeff=-1.0)
    with pytest.raises(DomainError):
        CostSpec(bound=-0.5)
    assert CostSpec(family="Bounded_Tracking").family == BOUNDED_TRACKING
    # Targets are stored once as read-only float arrays.
    spec = CostSpec(target_rho=[1, 0], target_x=(0.5, -0.5))
    for target in (spec.target_rho, spec.target_x):
        assert isinstance(target, np.ndarray) and target.dtype == float
        assert not target.flags.writeable
    assert CostSpec().target_rho is None


@pytest.mark.parametrize("key", ["control_coeff", "tracking_coeff", "bound",
                                 "terminal_weight", "terminal_offset"])
@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_cost_spec_refuses_a_bool_scalar(key, flag):
    with pytest.raises(DomainError, match=f"{key} must be a number in .*, not {flag!r}"):
        CostSpec(**{key: flag})


def test_state_and_terminal_costs():
    rho = np.array([0.75, 0.25])
    x = np.array([1.0, -1.0])
    dev2 = 2 * 0.25**2 + 2.0  # squared deviation from both targets
    quad = CostSpec(
        family=QUADRATIC_CONTROL,
        tracking_coeff=2.0,
        target_rho=np.array([0.5, 0.5]),
        target_x=np.zeros(2),
        terminal_weight=1.0,
        terminal_offset=0.7,
    )
    assert quad.state_cost(0.0, rho, x) == pytest.approx(2.0 * dev2, rel=1e-14)
    assert quad.terminal_cost(rho, x) == pytest.approx(0.7 + dev2, rel=1e-14)
    bdd = CostSpec(
        family=BOUNDED_TRACKING,
        bound=3.0,
        target_rho=np.array([0.5, 0.5]),
        target_x=np.zeros(2),
        terminal_weight=2.0,
        terminal_offset=0.1,
    )
    sat = -math.expm1(-dev2)
    assert bdd.state_cost(0.0, rho, x) == pytest.approx(3.0 * sat, rel=1e-14)
    assert bdd.terminal_cost(rho, x) == pytest.approx(0.1 + 2.0 * sat, rel=1e-14)
    # Saturation caps the bounded family at its height.
    assert bdd.state_cost(0.0, rho, np.array([50.0, -50.0])) <= 3.0
    assert bdd.state_cost(0.0, rho, np.array([2.0, -2.0])) < 3.0


def test_running_cost_frozen_and_batched():
    spec = plain_cost()
    rho = np.array([0.5, 0.5])
    x = np.zeros(2)
    assert running_cost(spec, 0.0, rho, x, np.array([0.6, 0.8])) == pytest.approx(
        0.5, rel=1e-15
    )
    V = np.array([[0.6, 0.8], [0.0, 0.0], [1.0, 0.0]])
    out = running_cost(spec, 0.0, np.tile(rho, (3, 1)), np.tile(x, (3, 1)), V)
    assert np.allclose(out, [0.5, 0.0, 0.5], rtol=1e-15)


def reference_deviation2(spec, rho, x):
    """``CostSpec._deviation2`` with numpy's short-axis ``sum``."""
    dev = None
    for state, target in ((rho, spec.target_rho), (x, spec.target_x)):
        if target is not None:
            term = ((state - target) ** 2).sum(axis=-1)
            dev = term if dev is None else dev + term
    return np.zeros(np.shape(rho)[:-1]) if dev is None else dev


def reference_running_cost(spec, t, rho, x, V):
    """``running_cost`` with numpy's short-axis ``sum`` for ||V||^2 and the deviation."""
    rho = np.asarray(rho, dtype=float)
    x = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    if spec.family == QUADRATIC_CONTROL:
        state = spec.tracking_coeff * reference_deviation2(spec, rho, x)
    else:
        state = spec.bound * -np.expm1(-reference_deviation2(spec, rho, x))
    out = spec.control_coeff * (V**2).sum(axis=-1) + state
    return float(out) if np.ndim(out) == 0 else out


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes() and np.ndim(a) == np.ndim(b)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 12])
@pytest.mark.parametrize("family", [QUADRATIC_CONTROL, BOUNDED_TRACKING])
def test_running_cost_matches_reference_bitwise(n, family):
    # Short rows fold column by column (bitwise equal to numpy's sum below 8
    # terms); from n = 8 numpy's pairwise sum is kept.
    rng = np.random.default_rng(n)
    rows = 50
    rho = rng.dirichlet(np.ones(n), size=rows) if n > 1 else np.ones((rows, 1))
    x = rng.normal(scale=10.0 ** rng.integers(-3, 3, size=(rows, n)))
    rho[1, 0] = np.nan
    x[3, -1] = np.nan
    rho[4, 0] = 1e-12
    V_rows = rng.normal(size=(rows, n))
    targets = [(None, None), (rng.dirichlet(np.ones(n)), None), (None, rng.normal(size=n)),
               (rng.dirichlet(np.ones(n)), rng.normal(size=n))]
    for target_rho, target_x in targets:
        spec = CostSpec(family=family, control_coeff=0.7, tracking_coeff=1.3, bound=2.5,
                        target_rho=target_rho, target_x=target_x)
        for V in (V_rows, V_rows[0]):
            got = running_cost(spec, 0.0, rho, x, V)
            assert same_bits(got, reference_running_cost(spec, 0.0, rho, x, V))
        assert same_bits(spec._deviation2(rho, x), reference_deviation2(spec, rho, x))
        for r in (0, 1, 3):
            one = slice(r, r + 1)
            for V in (V_rows[one], V_rows[r]):
                got = running_cost(spec, 0.0, rho[one], x[one], V)
                assert same_bits(got, reference_running_cost(spec, 0.0, rho[one], x[one], V))
            # One unbatched state gives a float, as in the Hamiltonian.
            got = running_cost(spec, 0.0, rho[r], x[r], V_rows[r])
            ref = reference_running_cost(spec, 0.0, rho[r], x[r], V_rows[r])
            assert isinstance(got, float) and same_bits(got, ref)
            ref = reference_deviation2(spec, rho[r], x[r])
            assert same_bits(spec._deviation2(rho[r], x[r]), ref)


# ---------------------------------------------------------------------------
# the ball-constrained Legendre transform
# ---------------------------------------------------------------------------

def test_fhat_frozen_values():
    spec = plain_cost()
    rho = DensityState(rho=np.array([0.5, 0.5]))
    x = MomentumState(s=np.zeros(2))
    # ||q|| = 1 sits exactly on the switch 2 c ell; both branches give 1/2.
    assert legendre_fhat(spec, 0.0, rho, x, np.array([0.6, 0.8]), 1.0) == pytest.approx(
        0.5, rel=1e-15
    )
    assert legendre_fhat(spec, 0.0, rho, x, np.array([3.0, 4.0]), 1.0) == pytest.approx(
        4.5, rel=1e-15
    )
    # A bool radius would compare as 1.
    for ell in (0.0, -1.0, math.nan, math.inf, True, "1.0"):
        with pytest.raises(DomainError, match="ell must be a number"):
            legendre_fhat(spec, 0.0, rho, x, np.array([3.0, 0.0]), ell)
    # The state part enters with a minus sign and no transform.
    tracked = CostSpec(tracking_coeff=1.0, target_x=np.zeros(2))
    off = MomentumState(s=np.array([1.0, -1.0]))
    shift = legendre_fhat(tracked, 0.0, rho, off, np.array([3.0, 4.0]), 1.0)
    assert shift == pytest.approx(4.5 - 2.0, rel=1e-14)


def test_fhat_on_norms_matches_vector_form():
    spec = plain_cost(c=0.7)
    rho = DensityState(rho=np.array([0.5, 0.5]))
    x = MomentumState(s=np.zeros(2))
    qn = np.array([0.0, 0.3, 1.4, 1.4000001, 5.0])
    ell = 1.0
    table = fhat_norm(qn, spec.control_coeff, ell)
    for norm, expect in zip(qn, table):
        got = legendre_fhat(spec, 0.0, rho, x, np.array([norm, 0.0]), ell)
        assert got == pytest.approx(expect, rel=1e-14, abs=1e-300)
    # Continuous across the quadratic/linear switch and convex in between.
    kink = 2.0 * 0.7 * ell
    lo, hi = fhat_norm(np.array([kink - 1e-9, kink + 1e-9]), spec.control_coeff, ell)
    assert hi - lo == pytest.approx(0.0, abs=1e-8)
    grid = np.linspace(0.0, 4.0, 401)
    vals = fhat_norm(grid, spec.control_coeff, ell)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(np.diff(vals, 2) >= -1e-12)


def test_fhat_lipschitz_in_q():
    spec = plain_cost(c=0.4)
    rho = DensityState(rho=np.array([0.5, 0.5]))
    x = MomentumState(s=np.zeros(2))
    ell = 1.3
    rng = np.random.default_rng(42)
    for _ in range(300):
        q1 = rng.normal(0.0, 2.0, 2)
        q2 = rng.normal(0.0, 2.0, 2)
        f1 = legendre_fhat(spec, 0.0, rho, x, q1, ell)
        f2 = legendre_fhat(spec, 0.0, rho, x, q2, ell)
        gap = float(np.linalg.norm(q1 - q2))
        assert abs(f1 - f2) <= ell * gap * (1.0 + 1e-12) + 1e-12


@given(
    q1=st.floats(-5.0, 5.0),
    q2=st.floats(-5.0, 5.0),
    v1=st.floats(-1.0, 1.0),
    v2=st.floats(-1.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_fhat_dominates_every_candidate(q1, q2, v1, v2):
    spec = plain_cost()
    rho = DensityState(rho=np.array([0.5, 0.5]))
    x = MomentumState(s=np.zeros(2))
    ell = 1.0
    q = np.array([q1, q2])
    V = np.array([v1, v2])
    nrm = float(np.linalg.norm(V))
    if nrm > ell:
        V *= ell / nrm * (1.0 - 1e-12)
    candidate = float(q @ V) - running_cost(spec, 0.0, rho.rho, x.s, V)
    assert legendre_fhat(spec, 0.0, rho, x, q, ell) >= candidate - 1e-10


# ---------------------------------------------------------------------------
# the control Hamiltonian
# ---------------------------------------------------------------------------

def ball_lattice(ell: float, per_axis: int = 81, ring: int = 720):
    """Brute-force candidate controls: a masked grid plus a boundary ring."""
    ax = np.linspace(-ell, ell, per_axis)
    V1, V2 = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([V1.ravel(), V2.ravel()], axis=1)
    pts = pts[(pts**2).sum(axis=1) <= ell * ell]
    theta = np.linspace(0.0, 2.0 * math.pi, ring, endpoint=False)
    boundary = ell * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return np.vstack([pts, boundary])


def control_hamiltonian_integrand(cost: CostSpec, energy: EnergySpec, t, rho, x, p, q, Q, V):
    """The pre-infimum functional at one control value (brute-force oracle hook).

    hamiltonian is its infimum over the control ball: the drift pairing,
    minus <q, V>, plus the running cost F(t, rho, x, V).
    """
    V = np.asarray(V, dtype=float)
    return (
        _drift_pairing(energy, rho, x, p, q, Q)
        - float(np.asarray(q) @ V)
        + float(running_cost(cost, t, rho.rho, x.s, V))
    )


@pytest.mark.parametrize("q", [np.array([0.4, -0.3]), np.array([3.0, 4.0])])
def test_hamiltonian_is_ball_infimum(q):
    cost = CostSpec(control_coeff=0.5, tracking_coeff=0.3, target_x=np.zeros(2))
    energy = EnergySpec(graph=pair_graph(), sigma=np.array([0.2, 0.2]))
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    p = np.array([0.3, -0.1])
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    ell = 1.0
    ham = hamiltonian(cost, energy, 0.0, rho, x, p, q, Q, ell)
    vals = [
        control_hamiltonian_integrand(cost, energy, 0.0, rho, x, p, q, Q, V)
        for V in ball_lattice(ell)
    ]
    brute = min(vals)
    assert ham <= brute + 1e-12
    assert ham >= brute - 1e-3
    # The minimizer the transform encodes must achieve the same value.
    qn = float(np.linalg.norm(q))
    V_star = q / (2.0 * cost.control_coeff) if qn <= ell else q * (ell / qn)
    at_star = control_hamiltonian_integrand(cost, energy, 0.0, rho, x, p, q, Q, V_star)
    assert at_star == pytest.approx(ham, abs=1e-12)


def test_hamiltonian_quadratic_term_and_guard():
    cost = plain_cost()
    energy = EnergySpec(graph=pair_graph(), sigma=np.array([0.2, 0.2]))
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    p = np.array([0.3, -0.1])
    q = np.array([0.2, 0.5])
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    base = hamiltonian(cost, energy, 0.0, rho, x, p, q, np.zeros((2, 2)), 1.0)
    lifted = hamiltonian(cost, energy, 0.0, rho, x, p, q, Q, 1.0)
    assert lifted - base == pytest.approx(0.5 * (0.04 * 2.0 + 0.04 * 1.0), rel=1e-12)
    with pytest.raises(ShapeError):
        hamiltonian(cost, energy, 0.0, rho, x, p, q, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    for ell in (0.0, True):
        with pytest.raises(DomainError, match="ell must be a number"):
            hamiltonian(cost, energy, 0.0, rho, x, p, q, Q, ell)


# ---------------------------------------------------------------------------
# Monte-Carlo cost and value estimates
# ---------------------------------------------------------------------------

def test_cost_functional_noiseless_constant():
    cfg = noiseless_cfg()
    cost = CostSpec(control_coeff=0.5, terminal_offset=0.7)
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    est = cost_functional(cost, cfg, 0.0, rho, x, None, 3, 99)
    # No targets and no control: only the terminal constant remains (the
    # mean picks up one rounding of 2.1 even though every path is 0.7).
    assert est.value == pytest.approx(0.7, abs=1e-15)
    assert est.std_error <= 1e-15
    assert est.n_paths == 3
    d = est.to_dict()
    assert set(d) == {"value", "std_error", "n_paths", "control_class", "trace"}
    assert d["control_class"] == "fixed control"
    assert d["trace"]["seed"] == 99

    V = np.array([0.6, 0.0])
    sig = ControlSignal.constant(V, 0.0, cfg.T, 1.0)
    with_ctrl = cost_functional(cost, cfg, 0.0, rho, x, sig, 3, 99)
    # Left-rectangle sums of a constant integrand telescope to c ||V||^2 T.
    assert with_ctrl.value == pytest.approx(0.7 + 0.5 * 0.36 * cfg.T, abs=1e-13)


def test_cost_functional_rejects_a_control_off_the_graph_or_the_horizon():
    # Before the check, a (1,) signal was broadcast over both vertices in the
    # drift but priced as ||V||^2 = 0.25, and a signal on [0, 0.02] was held
    # at its last piece up to T.
    cfg = noiseless_cfg(T=0.1, dt=0.01)
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    with pytest.raises(ShapeError):
        cost_functional(plain_cost(), cfg, 0.0, rho, x,
                        ControlSignal.constant([0.5], 0.0, 0.1, 1.0), 3, 1)
    with pytest.raises(DomainError):
        cost_functional(plain_cost(), cfg, 0.0, rho, x,
                        ControlSignal.constant([0.5, 0.0], 0.0, 0.02, 1.0), 3, 1)


def test_value_function_mc_deterministic_and_bounded_by_zero_control():
    spec = EnergySpec(graph=pair_graph(), sigma=np.array([0.2, 0.2]))
    cfg = SdeConfig(energy=spec, T=0.1, dt=5e-3)
    cost = CostSpec(
        family=BOUNDED_TRACKING,
        control_coeff=0.5,
        target_rho=np.array([0.5, 0.5]),
        target_x=np.zeros(2),
        terminal_weight=1.0,
    )
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    klass = {"ell": 1.0, "m": 1}
    a = value_function_mc(cost, cfg, 0.0, rho, x, klass, 16, 7)
    b = value_function_mc(cost, cfg, 0.0, rho, x, klass, 16, 7)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.control_class.startswith("piecewise-constant")
    assert a.trace["breakpoints"] == [0.0, 0.1]
    assert not a.trace["flagged"]
    # Optimization starts from the zero signal and only ever improves on it.
    zero = ControlSignal(breakpoints=[0.0, 0.1], values=np.zeros((1, 2)), ell=1.0)
    baseline = cost_functional(cost, cfg, 0.0, rho, x, zero, 16, 7)
    assert a.value <= baseline.value + 1e-15


def test_value_class_nesting():
    spec = EnergySpec(graph=pair_graph(), sigma=np.array([0.2, 0.2]))
    cfg = SdeConfig(energy=spec, T=0.1, dt=5e-3)
    cost = CostSpec(
        family=BOUNDED_TRACKING,
        control_coeff=0.5,
        target_rho=np.array([0.5, 0.5]),
        target_x=np.zeros(2),
        terminal_weight=1.0,
    )
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    one = value_function_mc(cost, cfg, 0.0, rho, x, {"ell": 1.0, "m": 1}, 32, 11, budget=5000)
    two = value_function_mc(cost, cfg, 0.0, rho, x, {"ell": 1.0, "m": 2}, 32, 11, budget=5000)
    # Refining the class can only help up to optimizer slack (shared paths).
    assert two.value <= one.value + 3.0 * (one.std_error + two.std_error) + 1e-9


def test_class_breakpoints_must_span_horizon():
    cfg = noiseless_cfg(T=0.1, dt=5e-3)
    cost = plain_cost()
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    with pytest.raises(DomainError):
        value_function_mc(
            cost, cfg, 0.0, rho, x, {"ell": 1.0, "breakpoints": [0.0, 0.05]}, 4, 1
        )


def test_control_class_defaults():
    klass = _read_class({}, 0.0, 0.1)
    assert klass.breakpoints.tolist() == [0.0, 0.1]
    assert (klass.ell, klass.sweeps, klass.golden_iters) == (1.0, 2, 14)
    klass = _read_class({"ell": 2, "m": 2, "breakpoints": [0.0, 0.03, 0.1]}, 0.0, 0.1)
    assert klass.breakpoints.tolist() == [0.0, 0.03, 0.1]
    assert klass.ell == 2.0 and isinstance(klass.ell, float)


BAD_CLASSES = [
    {"m": 0},
    {"m": -1},
    {"m": 1.5},
    {"m": True},
    {"golden_iter": 1},
    {"ell": 0.0},
    {"ell": -1.0},
    {"ell": math.inf},
    {"ell": "1"},
    {"sweeps": 0},
    {"golden_iters": -1},
    {"breakpoints": [0.0, 0.05, 0.05, 0.1]},
    {"breakpoints": [0.0, 0.06, 0.05, 0.1]},
    {"breakpoints": [0.0]},
    {"breakpoints": [[0.0, 0.1]]},
]


@pytest.mark.parametrize("klass", BAD_CLASSES)
def test_bad_control_class_is_rejected_before_simulating(klass, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("Monte Carlo ran before the class was checked")

    monkeypatch.setattr("graphwhs.control.draw_noise", no_simulation)
    monkeypatch.setattr("graphwhs.control.run_rows", no_simulation)
    cfg = noiseless_cfg(T=0.1, dt=5e-3)
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    with pytest.raises(DomainError, match="class"):
        value_function_mc(plain_cost(), cfg, 0.0, rho, x, klass, 4, 1)
    # bellman_gap sets its own breakpoints, so only the other keys reach it.
    if "breakpoints" not in klass:
        with pytest.raises(DomainError, match="class"):
            bellman_gap(plain_cost(), cfg, 0.0, 0.05, rho, x, klass, 8, 1)


def forbid_noise(monkeypatch, what):
    def no_simulation(*args, **kwargs):
        raise AssertionError(f"Monte Carlo ran before {what} was checked")

    monkeypatch.setattr("graphwhs.control.draw_noise", no_simulation)
    monkeypatch.setattr("graphwhs.control.run_rows", no_simulation)


BAD_PATH_COUNTS = [0, -3, True, False]


@pytest.mark.parametrize("paths", BAD_PATH_COUNTS)
def test_cost_functional_rejects_a_bad_path_count(paths, monkeypatch):
    forbid_noise(monkeypatch, "n_paths")
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    with pytest.raises(DomainError, match="n_paths"):
        cost_functional(plain_cost(), noiseless_cfg(), 0.0, rho, x, None, paths, 1)


@pytest.mark.parametrize("paths", BAD_PATH_COUNTS)
def test_value_function_mc_rejects_a_bad_path_count(paths, monkeypatch):
    forbid_noise(monkeypatch, "n_paths")
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    with pytest.raises(DomainError, match="n_paths"):
        value_function_mc(plain_cost(), noiseless_cfg(), 0.0, rho, x, {"m": 1}, paths, 1)


@pytest.mark.parametrize("paths", BAD_PATH_COUNTS)
def test_bellman_gap_rejects_a_bad_path_count(paths, monkeypatch):
    forbid_noise(monkeypatch, "the path count")
    cfg = noiseless_cfg(T=0.1, dt=5e-3)
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    with pytest.raises(DomainError, match="n_paths"):
        bellman_gap(plain_cost(), cfg, 0.0, 0.05, rho, x, {"m": 1}, paths, 1)
    with pytest.raises(DomainError, match="inner_paths"):
        bellman_gap(plain_cost(), cfg, 0.0, 0.05, rho, x, {"m": 1}, 8, 1, inner_paths=paths)


def test_budget_flagging():
    spec = EnergySpec(graph=pair_graph(), sigma=np.array([0.2, 0.2]))
    cfg = SdeConfig(energy=spec, T=0.05, dt=5e-3)
    cost = benchmarkish_cost()
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    est = value_function_mc(cost, cfg, 0.0, rho, x, {"ell": 1.0, "m": 2}, 8, 5, budget=3)
    assert est.trace["flagged"]
    assert est.trace["evals"] <= 3
    # A budget is a number >= 1, or inf for none.  NaN would never stop the
    # search, and 0, -5 or True would stop it after the first evaluation.
    for budget in (math.nan, 0, -5, 0.5, True, "150"):
        with pytest.raises(DomainError, match="budget"):
            value_function_mc(cost, cfg, 0.0, rho, x, {"ell": 1.0, "m": 2}, 8, 5, budget=budget)
    unlimited = value_function_mc(cost, cfg, 0.0, rho, x, {"ell": 1.0, "m": 1}, 8, 5,
                                  budget=math.inf)
    assert not unlimited.trace["flagged"]


def test_all_paths_escaping_raises():
    # One step from a density just above the floor overshoots it, and with no
    # step halving allowed every path escapes: there is nothing to average.
    spec = EnergySpec(graph=pair_graph(), sigma=np.array([0.2, 0.2]))
    cfg = SdeConfig(energy=spec, T=0.05, dt=5e-3, max_rejects=0)
    rho = DensityState(rho=np.array([2e-9, 1.0 - 2e-9]))
    x = MomentumState(s=np.array([-0.4, 0.2]))
    with pytest.raises(EscapeQuotaError) as err:
        cost_functional(benchmarkish_cost(), cfg, 0.0, rho, x, None, 6, 3)
    assert (err.value.escaped, err.value.total) == (6, 6)
    with pytest.raises(EscapeQuotaError):
        value_function_mc(benchmarkish_cost(), cfg, 0.0, rho, x, {"ell": 1.0, "m": 1}, 6, 3)


def interacting_energy() -> EnergySpec:
    return EnergySpec(
        graph=pair_graph(),
        sigma=np.array([0.3, 0.1]),
        interaction=np.array([[0.4, 0.7], [0.7, -0.2]]),
    )


@pytest.mark.parametrize("energy", [benchmark_energy(), interacting_energy()])
def test_lockstep_lattice_equals_per_node_searches(energy):
    cfg = SdeConfig(energy=energy, T=0.1, dt=5e-3)
    cost = benchmark_cost()
    klass = {"ell": 1.0, "m": 1, "golden_iters": 2, "sweeps": 3}
    nodes = [
        (np.array([r1, 1.0 - r1]), np.array([x1, x2]))
        for r1 in (0.3, 0.4, 0.5)
        for x1 in (-0.4, 0.0, 0.4)
        for x2 in (-0.3, 0.1, 0.5)
    ]
    run_cfg = replace(cfg, t0=0.05)
    together = _value_search(
        cost, run_cfg, nodes, _read_class(klass, 0.05, cfg.T), draw_noise(run_cfg, 17, 12),
        budget=24,
    )
    for (r, s), est in zip(nodes, together):
        alone = value_function_mc(
            cost, cfg, 0.05, DensityState(rho=r), MomentumState(s=s), klass, 12, 17, budget=24
        )
        assert est.value == alone.value
        assert est.std_error == alone.std_error
        assert est.trace["evals"] == alone.trace["evals"]
        assert est.trace["argmin"] == alone.trace["argmin"]
        assert est.trace["flagged"] == alone.trace["flagged"]
    # Some nodes stop early and others run into the budget, so the lockstep
    # run has to keep each node's own control flow.
    assert len({(est.trace["evals"], est.trace["flagged"]) for est in together}) > 1


# ---------------------------------------------------------------------------
# speculative golden-section rounds and prefix reuse
# ---------------------------------------------------------------------------

class Scored:
    """A synthetic estimate of the trial v that notes every read of its mean."""

    def __init__(self, v, mean, reads):
        self.v = v
        self._mean = mean
        self._reads = reads

    @property
    def mean(self):
        self._reads.append(self.v)
        return self._mean


def drive(search, score):
    """Run a coroutine search on ``score``; returns (its rounds of trials, its result)."""
    rounds = []
    trials = next(search)
    while True:
        rounds.append(trials)
        try:
            trials = search.send([score(v) for v in trials])
        except StopIteration as done:
            return rounds, done.value


GOLDEN_OBJECTIVES = {
    "bowl": lambda v: (v - 0.3) ** 2,
    "even": lambda v: v * v,  # c = -d: the first comparison is an exact tie
    "flat": lambda v: 1.0,  # every comparison ties
    "stairs": lambda v: float(math.floor(3.0 * v)),  # ties on each plateau
    "wiggly": lambda v: math.sin(37.0 * v) + 0.1 * v,
}


@pytest.mark.parametrize("iters", [0, 1, 2, 3, 14])
@pytest.mark.parametrize("name", sorted(GOLDEN_OBJECTIVES))
def test_speculative_golden_min_takes_the_plain_path(name, iters):
    f = GOLDEN_OBJECTIVES[name]
    plain_reads, spec_reads = [], []
    plain_rounds, (x, est) = drive(
        control._golden_min(lambda v: v, -1.0, 1.0, iters),
        lambda v: Scored(v, f(v), plain_reads),
    )
    spec_rounds, (x_spec, est_spec) = drive(
        control._golden_min(lambda v: v, -1.0, 1.0, iters, speculate=True),
        lambda v: Scored(v, f(v), spec_reads),
    )
    path = [v for trials in plain_rounds for v in trials]
    assert len(path) == iters + 2
    assert x_spec == x and est_spec.v == est.v == x
    # The path's trials come in the plain order, two iterations a round,
    # and only their estimates are read.
    everything = iter([v for trials in spec_rounds for v in trials])
    assert all(v in everything for v in path)
    assert len(spec_rounds) == 1 + iters // 2
    assert set(spec_reads) == set(plain_reads) == set(path)


@pytest.mark.parametrize("iters", [3, 14])
def test_only_a_taken_trial_that_lost_every_path_raises(iters):
    f = GOLDEN_OBJECTIVES["wiggly"]

    def score(dead=()):
        return lambda v: EscapeQuotaError(4, 4) if v in dead else control._Estimate(f(v), 0.0, 4)

    def search(speculate):
        return control._golden_min(lambda v: v, -1.0, 1.0, iters, speculate)

    plain_rounds, plain = drive(search(False), score())
    path = [v for trials in plain_rounds for v in trials]
    spec_rounds, _ = drive(search(True), score())
    discarded = {v for trials in spec_rounds for v in trials} - set(path)
    assert len(discarded) == (iters + 1) // 2
    assert drive(search(True), score(discarded))[1] == plain
    for taken in (path[0], path[3], path[-1]):
        for speculate in (False, True):
            with pytest.raises(EscapeQuotaError):
                drive(search(speculate), score({taken}))


@pytest.mark.parametrize(
    "breakpoints",
    [[0.0, 0.035, 0.06, 0.09], [0.0, 0.031, 0.035, 0.06, 0.09]],
    ids=["one_per_step", "two_in_one_step"],
)
def test_prefix_reuse_equals_full_recomputation_in_the_search(monkeypatch, breakpoints):
    # Trials that move only piece j >= 1 start at breakpoint j's node from
    # the incumbent's state there.  Each such run (its estimates, final
    # states and running costs) and the states it marks at later breakpoints
    # must equal the same trials run from t0 bitwise, through rescues and
    # escapes after k0.  Breakpoints 0.031 and 0.035 lie off the grid, both
    # at node 3 (0.03); 0.06 lies on it (node 6).
    cfg = SdeConfig(
        energy=EnergySpec(graph=pair_graph(), sigma=np.array([1.0, 1.0])), T=0.09, dt=1e-2
    )
    rho = DensityState(rho=np.array([0.05, 0.95]))
    x = MomentumState(s=np.array([-0.8, 0.9]))
    m = len(breakpoints) - 1
    estimates = control._cost_estimates
    advance = dynamics._advance_one
    rescues, resumed = [], []

    def counted(*args):
        out = advance(*args)
        if args[-1] == 0:  # a whole step that was halved and kept its path alive
            rescues.append(args[8])
        return out

    def checked(cost, cfg, starts, noise, terminal, k0=0, marks=()):
        if k0 == 0:
            return estimates(cost, cfg, starts, noise, terminal, k0, marks)
        # The last node is marked too, so the final states and running
        # costs are compared with the full run's.
        last = dynamics._time_grid(cfg)[0]
        rescues.clear()
        got = estimates(cost, cfg, starts, noise, terminal, k0, [*marks, last])
        late_rescue = max(rescues, default=-1) >= k0
        fresh = [control._fresh(rho.rho, x.s, noise.incs.shape[0])] * len(starts)
        full = estimates(cost, cfg, fresh, noise, terminal, 0, [*marks, last])
        assert_same_estimates(got, full)
        # A run whose every path escaped has an EscapeQuotaError, no marks.
        kept = [isinstance(est, control._Estimate) for est in got]
        alive_k0 = np.concatenate([start[2] for start in starts])
        alive_T = np.concatenate([
            est.marks[-1][2] if ok else np.zeros_like(start[2])
            for start, est, ok in zip(starts, got, kept)
        ])
        j = m - 1 - len(marks)  # the first piece the batch moves
        resumed.append((j, k0, late_rescue, (alive_k0 & ~alive_T).any()))
        return [est._replace(marks=est.marks[:-1]) if ok else est for est, ok in zip(got, kept)]

    monkeypatch.setattr(dynamics, "_advance_one", counted)
    monkeypatch.setattr(control, "_cost_estimates", checked)
    klass = {"ell": 1.0, "breakpoints": breakpoints, "golden_iters": 2, "sweeps": 2}
    value_function_mc(benchmarkish_cost(), cfg, 0.0, rho, x, klass, 12, 4)
    assert dynamics._time_grid(cfg)[2][6] == 0.06
    nodes = {0.031: 3, 0.035: 3, 0.06: 6}
    assert {(j, k0) for j, k0, _, _ in resumed} == {
        (j, nodes[b]) for j, b in enumerate(breakpoints[1:-1], start=1)
    }
    assert any(late for _, _, late, _ in resumed)
    assert any(escaped for _, _, _, escaped in resumed)


def test_an_incumbent_keeps_one_mark_per_piece(monkeypatch):
    # A search's best estimate keeps its run's row state at breakpoints
    # 0..m-1 (its marks), from which trials that move a later piece start.
    # Mark 0 is the paths' start at t0.
    results = []
    lockstep = control._lockstep

    def search(searches, estimate):
        results.extend(lockstep(searches, estimate))
        return results

    monkeypatch.setattr(control, "_lockstep", search)
    cost, cfg, t, _, rho, x, _, paths, seed = small_gap_inputs()
    klass = {"ell": 1.0, "m": 3, "golden_iters": 2, "sweeps": 1}
    value_function_mc(cost, cfg, t, rho, x, klass, paths, seed)
    [(params, best, _, _)] = results
    assert params.any() and len(best.marks) == 3
    for a, b in zip(best.marks[0], control._fresh(rho.rho, x.s, paths), strict=True):
        assert a.tobytes() == b.tobytes()


def test_lockstep_step_counts_are_pinned(monkeypatch):
    # Sequential lockstep steps are what speculative rounds and prefix
    # reuse cut; the counts are deterministic, so losing either fails here.
    # Without them these runs made 420 and 1,070 steps, of 10,000 and 32,400 rows.
    sizes = []
    step = dynamics.midpoint_step

    def counted(energy, floor, rho, *args):
        sizes.append(rho.shape[0])
        return step(energy, floor, rho, *args)

    monkeypatch.setattr(dynamics, "midpoint_step", counted)
    # One CPU: bellman_gap runs its outer search here, where the spy sees it.
    monkeypatch.setattr(control, "_usable_cpus", lambda: 1)
    cost, cfg, t, t_bar, rho, x, _, _, seed = small_gap_inputs()
    klass = {"ell": 1.0, "m": 2, "golden_iters": 4, "sweeps": 1}
    value_function_mc(cost, cfg, t, rho, x, klass, 20, seed)
    assert (len(sizes), sum(sizes)) == (200, 10_000)
    sizes.clear()
    bellman_gap(cost, cfg, t, t_bar, rho, x, klass, 20, seed, inner_paths=10,
                lattice_shape=(2, 2, 2))
    assert (len(sizes), sum(sizes)) == (570, 40_400)


def benchmarkish_cost() -> CostSpec:
    return CostSpec(
        family=BOUNDED_TRACKING,
        control_coeff=0.5,
        target_rho=np.array([0.5, 0.5]),
        target_x=np.zeros(2),
        terminal_weight=1.0,
    )


# ---------------------------------------------------------------------------
# dynamic-programming gap
# ---------------------------------------------------------------------------

def test_bellman_gap_guards():
    spec3 = EnergySpec(
        graph=Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]), sigma=np.zeros(3)
    )
    cfg3 = SdeConfig(energy=spec3, T=0.1, dt=5e-3)
    cost = plain_cost()
    with pytest.raises(DomainError):
        bellman_gap(
            cost, cfg3, 0.0, 0.05,
            DensityState(rho=np.array([0.3, 0.4, 0.3])),
            MomentumState(s=np.zeros(3)),
            {"ell": 1.0, "m": 1}, 8, 1,
        )
    cfg2 = noiseless_cfg(T=0.1, dt=5e-3)
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    with pytest.raises(DomainError):
        bellman_gap(cost, cfg2, 0.05, 0.05, rho, x, {"ell": 1.0, "m": 1}, 8, 1)
    with pytest.raises(DomainError):
        bellman_gap(cost, cfg2, 0.0, 0.2, rho, x, {"ell": 1.0, "m": 1}, 8, 1)


@pytest.mark.parametrize("shape", [(4, 4), (2, 2, 2, 2), (3, 0, 3), (3, -1, 3), (2.0, 2, 2), 4])
def test_bellman_gap_rejects_bad_lattice_shape_before_simulating(shape, monkeypatch):
    forbid_noise(monkeypatch, "lattice_shape")
    cfg = noiseless_cfg(T=0.1, dt=5e-3)
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    with pytest.raises(DomainError, match="lattice_shape"):
        bellman_gap(
            plain_cost(), cfg, 0.0, 0.05, rho, x, {"ell": 1.0, "m": 1}, 8, 1,
            lattice_shape=shape,
        )


@pytest.mark.slow
def test_bellman_gap_small_run():
    spec = EnergySpec(graph=pair_graph(), sigma=np.array([0.2, 0.2]))
    cfg = SdeConfig(energy=spec, T=0.1, dt=5e-3)
    cost = benchmarkish_cost()
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    klass = {"ell": 1.0, "m": 1}
    gap, se, detail = bellman_gap(
        cost, cfg, 0.0, 0.05, rho, x, klass, 60, 21,
        inner_paths=50, lattice_shape=(3, 3, 3), return_detail=True,
    )
    assert gap >= 0.0 and np.isfinite(gap)
    assert se > 0.0
    assert set(detail) >= {
        "outer", "middle_value", "middle_se", "inner_se_max", "lattice_lo", "lattice_hi"
    }
    assert detail["lattice_lo"][0] >= 2.0 * cfg.boundary_floor
    assert detail["lattice_hi"][0] <= 1.0 - 2.0 * cfg.boundary_floor
    pair = bellman_gap(
        cost, cfg, 0.0, 0.05, rho, x, klass, 60, 21,
        inner_paths=50, lattice_shape=(3, 3, 3),
    )
    assert pair == (gap, se)


def small_gap_inputs():
    spec = EnergySpec(graph=pair_graph(), sigma=np.array([0.2, 0.2]))
    cfg = SdeConfig(energy=spec, T=0.1, dt=5e-3)
    rho = DensityState(rho=np.array([0.35, 0.65]))
    x = MomentumState(s=np.array([0.4, -0.2]))
    return (benchmarkish_cost(), cfg, 0.0, 0.05, rho, x, {"ell": 1.0, "m": 1}, 60, 21)


def test_bellman_gap_detail_is_pinned():
    # Values of the per-candidate implementation this engine replaced; a
    # change in the order of any summation shows up here first.
    gap, se, detail = bellman_gap(
        *small_gap_inputs(), inner_paths=50, lattice_shape=(3, 3, 3), return_detail=True
    )
    assert (gap, se) == (0.005712338178523235, 0.011296560696910471)
    assert detail == {
        "inner_se_max": 0.005584175006485714,
        "lattice_hi": [0.36734536328221434, 0.5860021288746566, -0.0806478682566952],
        "lattice_lo": [0.36309708515477696, 0.2904589205188975, -0.3731011993894418],
        "middle_se": 0.003326457093575214,
        "middle_value": 0.2267249914152922,
        "outer": {
            "control_class": "piecewise-constant m=2, ell=1.0",
            "n_paths": 60,
            "std_error": 0.004643924362085656,
            "trace": {
                "argmin": [
                    [0.5952184671419591, -0.31845870627527095],
                    [0.5799995455149474, -0.31823550767447634],
                ],
                "breakpoints": [0.0, 0.05, 0.1],
                "budget": 150,
                "evals": 129,
                "flagged": False,
                "seed": 21,
            },
            "value": 0.22101265323676897,
        },
    }


def test_bellman_gap_draws_noise_once_per_estimator(monkeypatch):
    calls = []
    draw = dynamics.batch_increments

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(dynamics, "batch_increments", counted)
    bellman_gap(*small_gap_inputs(), inner_paths=50, lattice_shape=(3, 3, 3))
    # Outer value, middle search (with its probes) and the inner lattice,
    # each drawn once.
    assert len(calls) == 3
    assert len(set(calls)) == 3


def test_bellman_gap_searches_one_ball_on_every_side(monkeypatch):
    # The radius is the class's "ell" (default 1.0) for the outer value, the
    # probes, the middle search and the inner lattice, whatever cfg.control
    # carries.
    norms = []
    engine = control.run_rows

    def spy(cfg, *args, **kwargs):
        norms.append(np.sqrt((cfg.control.values**2).sum(axis=-1)).max())
        return engine(cfg, *args, **kwargs)

    monkeypatch.setattr(control, "run_rows", spy)
    monkeypatch.setattr(control, "_usable_cpus", lambda: 1)  # the outer search runs here
    cost, cfg, t, t_bar, rho, x, _, n_paths, seed = small_gap_inputs()
    cfg = replace(cfg, control=ControlSignal.constant(np.zeros(2), 0.0, cfg.T, 2.0))
    _, _, detail = bellman_gap(
        cost, cfg, t, t_bar, rho, x, {"m": 1, "golden_iters": 2}, 20, seed,
        inner_paths=10, lattice_shape=(2, 2, 2), return_detail=True,
    )
    assert detail["outer"]["control_class"].endswith("ell=1.0")
    assert max(norms) <= 1.0 + 1e-12
    # The probe corners sit on the ball's edge.
    assert max(norms) >= 1.0 - 1e-12


def tiny_gap_inputs():
    cost, cfg, t, t_bar, rho, x, _, _, seed = small_gap_inputs()
    return cost, cfg, t, t_bar, rho, x, {"m": 1, "golden_iters": 2}, 20, seed


def tiny_gap(**kwargs):
    return bellman_gap(*tiny_gap_inputs(), inner_paths=10, lattice_shape=(2, 2, 2), **kwargs)


def fork_counted(monkeypatch, cpus: int) -> list:
    """Report ``cpus`` usable CPUs to bellman_gap; returns the list of its forks."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(control, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_forked_and_inline_bellman_gap_agree_bitwise(monkeypatch):
    forks = fork_counted(monkeypatch, 1)
    inline = tiny_gap(return_detail=True)
    assert forks == []
    forks = fork_counted(monkeypatch, 2)
    forked = tiny_gap(return_detail=True)
    assert len(forks) == 1
    # == on floats is bitwise here: no value is NaN.
    assert forked == inline


def test_an_outer_search_error_reaches_the_caller(monkeypatch):
    parent = os.getpid()
    search = control._value_search

    def escaping(*args, **kwargs):
        if os.getpid() != parent:  # the forked outer search
            raise EscapeQuotaError(7, 9)
        return search(*args, **kwargs)

    forks = fork_counted(monkeypatch, 2)
    monkeypatch.setattr(control, "_value_search", escaping)
    with pytest.raises(EscapeQuotaError) as info:
        tiny_gap()
    assert len(forks) == 1
    assert (type(info.value), info.value.escaped, info.value.total) == (EscapeQuotaError, 7, 9)


def test_a_failing_lattice_search_leaves_no_child(monkeypatch):
    # The outer search would run for a minute; the lattice search fails at
    # once, and bellman_gap kills and reaps the child before it raises.
    parent = os.getpid()
    search = control._value_search

    def lattice_fails(cost, cfg, starts, *args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60.0)
        elif len(starts) > 1:
            raise RuntimeError("lattice search failed")
        return search(cost, cfg, starts, *args, **kwargs)

    forks = fork_counted(monkeypatch, 2)
    monkeypatch.setattr(control, "_value_search", lattice_fails)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="lattice search failed"):
        tiny_gap()
    assert len(forks) == 1
    assert time.monotonic() - start < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_outer_search_that_dies_silently_is_reported(monkeypatch):
    parent = os.getpid()
    search = control._value_search

    def dies(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return search(*args, **kwargs)

    fork_counted(monkeypatch, 2)
    monkeypatch.setattr(control, "_value_search", dies)
    with pytest.raises(ChildProcessError, match="status 3"):
        tiny_gap()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
def test_a_failed_fork_closes_its_pipe(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(control, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        tiny_gap()
    assert len(os.listdir("/proc/self/fd")) == open_fds
