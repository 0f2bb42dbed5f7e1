import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwhs.graphs import (
    AVERAGE,
    HARMONIC,
    LOGARITHMIC,
    DensityState,
    DomainError,
    EdgeField,
    Graph,
    GraphError,
    MomentumState,
    PathResult,
    ProbabilityWeight,
    ShapeError,
    _kinetic_rho_partial,
    _mobility_laplacian,
    divergence,
    frechet_project,
    graph_gradient,
    rho_inner,
    two_node_distance_oracle,
    wasserstein_distance,
    wasserstein_path,
    weight_eval,
    weight_partial,
)

positive = st.floats(min_value=1e-3, max_value=1e3)


def triangle():
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5)])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_from_edges_roundtrip():
    G = triangle()
    assert G.edges == [(0, 1), (0, 2), (1, 2)]


def test_graph_rejects_self_loop_range_and_disconnection():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0, 1.0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 3, 1.0)])
    with pytest.raises(GraphError):
        Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 1, -1.0)])
    for edges in (
        [(0, 1.0, 1.0)],                 # a float vertex index
        [(0, True, 1.0)],
        [(0, 1, 1.0), (1, 0, 2.0)],      # the same edge listed twice
        [(0, 1, math.inf)],
        [(0, 1, math.nan)],
    ):
        with pytest.raises(GraphError):
            Graph.from_edges(2, edges)
    with pytest.raises(GraphError, match="finite"):
        Graph(n=2, omega=np.array([[0.0, math.nan], [math.nan, 0.0]]))
    # A bool or float count equals an int of the matrix's size.
    for n, omega in ((True, np.zeros((1, 1))), (2.0, np.array([[0.0, 1.0], [1.0, 0.0]]))):
        with pytest.raises(GraphError, match="vertex count"):
            Graph(n=n, omega=omega)


def test_density_state_guards():
    with pytest.raises(DomainError):
        DensityState(rho=np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        DensityState(rho=np.array([1.0, 0.0]))
    with pytest.raises(ShapeError):
        DensityState(rho=np.array([[0.5, 0.5]]))
    r = DensityState(rho=np.array([0.25, 0.75]))
    assert r.n == 2 and not r.rho.flags.writeable


def test_edge_field_guards():
    G = triangle()
    with pytest.raises(ValueError):
        EdgeField(values=np.ones(6), graph=G)  # not skew
    with pytest.raises(ShapeError):
        EdgeField(values=np.zeros((3, 3)), graph=G)
    # Edge-list order (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1).
    v = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    assert EdgeField(values=v, graph=G).values[2] == -1.0


def test_invalid_weight_kind():
    with pytest.raises(DomainError):
        ProbabilityWeight("geometric")


# ---------------------------------------------------------------------------
# weight means
# ---------------------------------------------------------------------------

def test_weight_frozen_values():
    assert weight_eval(ProbabilityWeight(AVERAGE), 0.25, 0.75) == 0.5
    assert weight_eval(ProbabilityWeight(HARMONIC), 0.25, 0.75) == pytest.approx(0.375)
    # Logarithmic mean of (1/4, 3/4) is (1/2) / log 3.
    got = weight_eval(ProbabilityWeight(LOGARITHMIC), 0.25, 0.75)
    assert got == pytest.approx(0.5 / math.log(3.0), rel=1e-14)
    assert weight_eval(ProbabilityWeight(LOGARITHMIC), 0.0, 0.75) == 0.0


@pytest.mark.parametrize("kind", [AVERAGE, LOGARITHMIC, HARMONIC])
@given(t=positive, r=positive, lam=st.floats(min_value=1e-2, max_value=1e2))
@settings(max_examples=60, deadline=None)
def test_weight_axioms(kind, t, r, lam):
    w = ProbabilityWeight(kind)
    g = weight_eval(w, t, r)
    assert weight_eval(w, r, t) == pytest.approx(g, rel=1e-12, abs=1e-300)
    assert min(t, r) * (1 - 1e-12) <= g <= max(t, r) * (1 + 1e-12)
    assert weight_eval(w, lam * t, lam * r) == pytest.approx(lam * g, rel=1e-11)


@pytest.mark.parametrize("kind", [AVERAGE, LOGARITHMIC, HARMONIC])
@given(t=positive, r=positive, t2=positive, r2=positive)
@settings(max_examples=60, deadline=None)
def test_weight_midpoint_concavity(kind, t, r, t2, r2):
    w = ProbabilityWeight(kind)
    lhs = weight_eval(w, 0.5 * (t + t2), 0.5 * (r + r2))
    rhs = 0.5 * (weight_eval(w, t, r) + weight_eval(w, t2, r2))
    assert lhs >= rhs - 1e-11 * max(1.0, lhs)


def test_logarithmic_branch_is_smooth():
    # Values just inside and outside the midpoint branch must agree closely.
    w = ProbabilityWeight(LOGARITHMIC)
    t = 1.0
    inside = weight_eval(w, t, t * (1 + 0.5e-8))
    outside = weight_eval(w, t, t * (1 + 2e-8))
    assert abs(inside - outside) < 1e-7
    assert weight_eval(w, t, t) == t


@pytest.mark.parametrize("kind", [AVERAGE, LOGARITHMIC, HARMONIC])
def test_weight_partial_matches_finite_differences(kind):
    w = ProbabilityWeight(kind)
    rng = np.random.default_rng(5)
    h = 1e-7
    for _ in range(25):
        t, r = rng.uniform(0.05, 2.0, 2)
        gt, gr = weight_partial(w, t, r)
        fd_t = (weight_eval(w, t + h, r) - weight_eval(w, t - h, r)) / (2 * h)
        fd_r = (weight_eval(w, t, r + h) - weight_eval(w, t, r - h)) / (2 * h)
        assert gt == pytest.approx(fd_t, rel=2e-6, abs=2e-7)
        assert gr == pytest.approx(fd_r, rel=2e-6, abs=2e-7)


def test_weight_partial_near_diagonal_uses_series():
    w = ProbabilityWeight(LOGARITHMIC)
    gt, gr = weight_partial(w, 1.0, 1.0 + 1e-10)
    assert gt == pytest.approx(0.5, abs=1e-9)
    assert gr == pytest.approx(0.5, abs=1e-9)


def test_log_mean_partial_matches_mpmath():
    # Relative gaps t/r - 1 from 1e-12 to 0.9 of both signs, including both
    # sides of the old midpoint seam (1e-8) and of the series seam
    # (|x| = 1e-2 with x = (t - r)/(t + r), a gap of 2x/(1 - x)).
    mp = pytest.importorskip("mpmath")
    w = ProbabilityWeight(LOGARITHMIC)
    seams = [gap * f for gap in (1e-8, 0.02 / 0.99, -0.02 / 1.01) for f in (1 - 1e-9, 1 + 1e-9)]
    gaps = np.concatenate([np.geomspace(1e-12, 0.9, 120), [1.1e-8, 1e-7, 1e-4]])
    gaps = np.concatenate([gaps, -gaps, seams])

    def exact(a, b):
        # dg/da = (1 - g/a) / L with g = (a - b)/L, L = log(a/b), at the float arguments.
        with mp.workdps(50):
            a, b = mp.mpf(float(a)), mp.mpf(float(b))
            L = mp.log(a / b)
            return float((1 - (a - b) / L / a) / L)

    for r in (0.37, 1.0, 2e-7):
        t = r * (1.0 + gaps)
        gt, gr = weight_partial(w, t, np.full_like(t, r))
        for ti, got_t, got_r in zip(t, gt, gr):
            assert got_t == pytest.approx(exact(ti, r), rel=1e-12, abs=0.0), (ti, r)
            assert got_r == pytest.approx(exact(r, ti), rel=1e-12, abs=0.0), (ti, r)


def test_weight_matrix_is_edge_masked():
    G = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    e = G.edge_list
    rho = np.array([0.2, 0.3, 0.5])
    g = weight_eval(ProbabilityWeight(AVERAGE), rho[e.ii], rho[e.jj])
    assert list(zip(e.ii.tolist(), e.jj.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert g[0] == pytest.approx(0.25)
    assert np.array_equal(g, g[e.rev])


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

def test_gradient_divergence_integration_by_parts():
    rng = np.random.default_rng(17)
    G = triangle()
    w = ProbabilityWeight(LOGARITHMIC)
    rho = DensityState(rho=np.array([0.5, 0.3, 0.2]))
    for _ in range(20):
        phi = rng.normal(size=3)
        raw = rng.normal(size=(3, 3))
        ups = EdgeField(values=(raw - raw.T)[G.edge_list.ii, G.edge_list.jj], graph=G)
        lhs = rho_inner(G, w, rho, graph_gradient(G, phi), ups)
        rhs = float(phi @ divergence(G, w, rho, ups))
        assert lhs == pytest.approx(-rhs, abs=1e-12)


def test_divergence_is_mean_zero():
    G = triangle()
    rho = DensityState(rho=np.array([0.6, 0.25, 0.15]))
    v = graph_gradient(G, np.array([1.0, -2.0, 0.5]))
    div = divergence(G, ProbabilityWeight(HARMONIC), rho, v)
    assert div.sum() == pytest.approx(0.0, abs=1e-14)


def test_frechet_project_removes_mean():
    g = np.array([3.0, -1.0, 1.0])
    p = frechet_project(g)
    assert p.sum() == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(p - p.mean(), p)


def test_gradient_of_constant_vanishes():
    G = triangle()
    assert np.all(graph_gradient(G, np.full(3, 2.5)).values == 0.0)


# ---------------------------------------------------------------------------
# transport distance
# ---------------------------------------------------------------------------

def test_two_node_average_distance_closed_form():
    # Arithmetic mean of (r, 1-r) is constantly 1/2, so the length element
    # is sqrt(2) dr and the distance is sqrt(2) |b - a|.
    G = Graph.from_edges(2, [(0, 1, 1.0)])
    w = ProbabilityWeight(AVERAGE)
    a, b = 0.3, 0.6
    d = wasserstein_distance(
        G, w, DensityState(rho=np.array([a, 1 - a])), DensityState(rho=np.array([b, 1 - b])),
        steps=24, iters=400,
    )
    assert d == pytest.approx(math.sqrt(2.0) * 0.3, abs=5e-4)
    assert two_node_distance_oracle(w, 1.0, a, b) == pytest.approx(math.sqrt(2.0) * 0.3, rel=1e-10)


def test_distance_oracle_guards():
    w = ProbabilityWeight(AVERAGE)
    with pytest.raises(DomainError):
        two_node_distance_oracle(w, 1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        two_node_distance_oracle(w, -1.0, 0.3, 0.5)
    assert two_node_distance_oracle(w, 1.0, 0.4, 0.4) == 0.0


def test_distance_is_symmetric_and_scales_with_omega():
    G4 = Graph.from_edges(2, [(0, 1, 4.0)])
    w = ProbabilityWeight(HARMONIC)
    a = DensityState(rho=np.array([0.2, 0.8]))
    b = DensityState(rho=np.array([0.7, 0.3]))
    d_ab = wasserstein_distance(G4, w, a, b, steps=16, iters=200)
    d_ba = wasserstein_distance(G4, w, b, a, steps=16, iters=200)
    assert d_ab == pytest.approx(d_ba, rel=1e-6)
    # Quadrupling omega halves the length element.
    assert two_node_distance_oracle(w, 4.0, 0.2, 0.7) == pytest.approx(
        0.5 * two_node_distance_oracle(w, 1.0, 0.2, 0.7), rel=1e-12
    )


def ring_with_chords(n=8):
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return Graph.from_edges(n, edges + [(0, n // 2, 0.5), (n // 4, 3 * n // 4, 0.5)])


def dense_weight_matrix(G, w, rho):
    """g_ij(rho) on edges, zero elsewhere: the dense (n, n) weights the edge list replaced."""
    g = weight_eval(w, rho[:, None], rho[None, :])
    return np.where(G.omega > 0.0, g, 0.0)


def reference_path(G, w, rho0, rho1, steps, iters, floor=1e-9):
    # Per-interval least-squares potentials on dense mobility Laplacians.
    n = G.n
    dt = 1.0 / steps
    tgrid = np.linspace(0.0, 1.0, steps + 1)
    path = (1.0 - tgrid)[:, None] * rho0 + tgrid[:, None] * rho1

    def dense_laplacian(mid):
        A = G.omega * dense_weight_matrix(G, w, mid)
        return np.diag(A.sum(axis=1)) - A

    def action_and_potentials(p):
        total = 0.0
        phis = np.empty((steps, n))
        for k in range(steps):
            mid = 0.5 * (p[k] + p[k + 1])
            vel = (p[k + 1] - p[k]) / dt
            phis[k] = np.linalg.lstsq(dense_laplacian(mid), vel, rcond=None)[0]
            total += dt * float(phis[k] @ vel)
        return total, phis

    action, phis = action_and_potentials(path)
    trace = [action]
    step_size = 0.25
    for _ in range(iters):
        grad = np.zeros((steps + 1, n))
        for k in range(steps):
            mid = 0.5 * (path[k] + path[k + 1])
            gt, _ = weight_partial(w, mid[:, None], mid[None, :])
            diff2 = (phis[k][:, None] - phis[k][None, :]) ** 2
            dL = np.where(G.omega > 0.0, G.omega * diff2 * gt, 0.0).sum(axis=1)
            grad[k] += -2.0 * phis[k] - 0.5 * dt * dL
            grad[k + 1] += 2.0 * phis[k] - 0.5 * dt * dL
        grad[0] = grad[-1] = 0.0
        grad[1:-1] -= grad[1:-1].mean(axis=1, keepdims=True)
        gnorm2 = float((grad**2).sum())
        if gnorm2 <= 1e-18:
            break
        accepted = False
        while step_size > 1e-14:
            trial = path - step_size * grad
            if trial[1:-1].min() > floor:
                trial_action, trial_phis = action_and_potentials(trial)
                if trial_action < action - 1e-4 * step_size * gnorm2:
                    path, action, phis = trial, trial_action, trial_phis
                    trace.append(action)
                    step_size = min(4.0 * step_size, 1.0)
                    accepted = True
                    break
            step_size *= 0.5
        if not accepted:
            break
    return math.sqrt(action), path, np.asarray(trace), step_size


@pytest.mark.parametrize("kind", [AVERAGE, LOGARITHMIC, HARMONIC])
def test_transport_path_matches_least_squares_reference(kind):
    G = ring_with_chords()
    w = ProbabilityWeight(kind)
    a = 1.0 + 0.5 * np.sin(np.arange(8.0))
    b = 1.0 + 0.5 * np.cos(np.arange(8.0) ** 2)
    a, b = a / a.sum(), b / b.sum()
    res = wasserstein_path(G, w, DensityState(rho=a), DensityState(rho=b), steps=16, iters=40)
    value, path, trace, step_size = reference_path(G, w, a, b, 16, 40)
    assert res.converged
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert np.abs(res.path - path).max() <= 1e-12 * np.abs(path).max()
    assert res.action_trace.size == trace.size
    assert np.abs(res.action_trace - trace).max() <= 1e-12 * trace[0]
    assert res.step_size == step_size


def test_path_result_reports_the_final_step():
    G = ring_with_chords()
    w = ProbabilityWeight(AVERAGE)
    a = DensityState(rho=np.full(8, 0.125))
    assert PathResult._fields[:4] == ("value", "path", "action_trace", "converged")
    res = wasserstein_path(G, w, a, a, steps=8)
    assert (res.value, res.converged, res.action_trace.size, res.step_size) == (0.0, True, 1, 0.0)
    b = DensityState(rho=np.r_[0.3, np.full(7, 0.1)])
    res = wasserstein_path(G, w, a, b, steps=8, iters=5)
    assert res.action_trace.size - 1 == 5
    assert 1e-14 < res.step_size <= 1.0


def test_transport_domain_checks_hold_on_stacked_intervals():
    G = ring_with_chords()
    w = ProbabilityWeight(HARMONIC)
    mids = np.full((6, 8), 0.125)
    phis = np.tile(np.linspace(-1.0, 1.0, 8), (6, 1))
    assert _mobility_laplacian(G, w, mids).shape == (6, 8, 8)
    assert _kinetic_rho_partial(G, w, mids, phis).shape == (6, 8)
    mids[3, 2] = -1e-3
    with pytest.raises(DomainError):
        _mobility_laplacian(G, w, mids)
    mids[3, 2] = 0.0
    with pytest.raises(DomainError):
        _kinetic_rho_partial(G, w, mids, phis)


@pytest.mark.parametrize("kind", [AVERAGE, LOGARITHMIC, HARMONIC])
def test_transport_line_search_rejects_trials_below_the_floor(kind):
    # A start with a nearly empty vertex: full-length trial steps leave the
    # simplex, and the line search must shrink them instead of evaluating them.
    G = ring_with_chords()
    a = np.r_[1e-4, np.full(7, (1.0 - 1e-4) / 7)]
    b = np.r_[0.6, np.full(7, 0.4 / 7)]
    res = wasserstein_path(G, ProbabilityWeight(kind), DensityState(rho=a),
                           DensityState(rho=b), steps=8, iters=30)
    assert res.converged
    assert res.path[1:-1].min() > 1e-9
