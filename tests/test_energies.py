import math

import numpy as np
import pytest

from graphwhs.energies import (
    LOGARITHMIC_ENTROPY,
    POLYNOMIAL_INTERACTION,
    EnergySpec,
    VariantError,
    control_potential,
    dominant_array,
    dominant_energy,
    energy_gradients,
    entropy,
    fisher_array,
    fisher_information,
    gradient_arrays,
    interaction_potential,
    kinetic_array,
    kinetic_energy,
    _barrier_terms,
    _check_positive,
)
from graphwhs.graphs import (
    DensityState,
    DomainError,
    EdgeList,
    Graph,
    HARMONIC,
    MomentumState,
    ProbabilityWeight,
    ShapeError,
    WEIGHT_KINDS,
    EdgeField,
    divergence,
    graph_gradient,
    rho_inner,
    weight_eval,
    weight_partial,
)


def pair_graph():
    return Graph.from_edges(2, [(0, 1, 1.0)])


def path3():
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.5)])


# ---------------------------------------------------------------------------
# frozen scalar values
# ---------------------------------------------------------------------------

def test_kinetic_two_node_quarter():
    spec = EnergySpec(graph=pair_graph())
    rho = DensityState(rho=np.array([0.5, 0.5]))
    x = MomentumState(s=np.array([1.0, 0.0]))
    assert kinetic_energy(spec, rho, x) == pytest.approx(0.25, rel=1e-15)


def test_fisher_two_node_closed_form():
    spec = EnergySpec(graph=pair_graph())
    rho = DensityState(rho=np.array([0.25, 0.75]))
    assert fisher_information(spec, rho) == pytest.approx(0.5 * math.log(3.0), rel=1e-14)


def test_entropy_uniform():
    rho = DensityState(rho=np.array([0.5, 0.5]))
    assert entropy(rho) == pytest.approx(math.log(0.5) - 1.0, rel=1e-15)


def test_interaction_half():
    W = np.array([[0.0, 2.0], [2.0, 0.0]])
    spec = EnergySpec(graph=pair_graph(), interaction=W)
    rho = DensityState(rho=np.array([0.5, 0.5]))
    assert interaction_potential(spec, rho) == pytest.approx(0.5, rel=1e-15)


def test_control_potential_is_linear_pairing():
    rho = DensityState(rho=np.array([0.25, 0.75]))
    assert control_potential(np.array([1.0, 0.2]), rho) == pytest.approx(0.4)
    with pytest.raises(ShapeError):
        control_potential(np.array([1.0]), rho)


def test_dominant_energy_assembles_terms():
    W = np.array([[0.0, 2.0], [2.0, 0.0]])
    spec = EnergySpec(graph=pair_graph(), interaction=W, fisher_coeff=0.125)
    rho = DensityState(rho=np.array([0.25, 0.75]))
    x = MomentumState(s=np.array([1.0, 0.0]))
    expected = (
        kinetic_energy(spec, rho, x)
        + 0.125 * fisher_information(spec, rho)
        + interaction_potential(spec, rho)
    )
    assert dominant_energy(spec, rho, x) == pytest.approx(expected, rel=1e-14)
    assert dominant_energy(spec, rho, x, V=np.array([1.0, 0.2])) == pytest.approx(
        expected + 0.4, rel=1e-14
    )


def test_entropy_variant_subtracts_entropy():
    spec = EnergySpec(graph=pair_graph(), variant=LOGARITHMIC_ENTROPY)
    rho = DensityState(rho=np.array([0.3, 0.7]))
    x = MomentumState(s=np.zeros(2))
    expected = 0.125 * fisher_information(spec, rho) - entropy(rho)
    assert dominant_energy(spec, rho, x) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(VariantError):
        interaction_potential(spec, rho)


def test_interaction_entries_off_edges_are_ignored():
    W = np.zeros((3, 3))
    W[0, 2] = W[2, 0] = 5.0   # (0, 2) is not an edge of the path
    spec = EnergySpec(graph=path3(), interaction=W)
    rho = DensityState(rho=np.array([0.3, 0.4, 0.3]))
    assert interaction_potential(spec, rho) == 0.0


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_guards():
    with pytest.raises(VariantError):
        EnergySpec(graph=pair_graph(), variant="quartic")
    with pytest.raises(ShapeError):
        EnergySpec(graph=pair_graph(), interaction=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ShapeError):
        EnergySpec(graph=pair_graph(), sigma=np.ones(3))
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            EnergySpec(graph=pair_graph(), fisher_coeff=bad)
    for flag in (True, False, np.True_):
        with pytest.raises(DomainError, match=f"fisher_coeff must be a number in .*, not {flag!r}"):
            EnergySpec(graph=pair_graph(), fisher_coeff=flag)
    # Hyphenated variant names normalize.
    spec = EnergySpec(graph=pair_graph(), variant="Logarithmic-Entropy")
    assert spec.variant == LOGARITHMIC_ENTROPY


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", [POLYNOMIAL_INTERACTION, LOGARITHMIC_ENTROPY])
@pytest.mark.parametrize("kind", ["average", "logarithmic", "harmonic"])
def test_gradients_match_finite_differences(variant, kind):
    rng = np.random.default_rng(23)
    G = path3()
    raw = rng.normal(size=(3, 3))
    spec = EnergySpec(
        graph=G,
        variant=variant,
        weight=ProbabilityWeight(kind),
        interaction=(raw + raw.T) / 2,
    )
    rho = np.array([0.25, 0.45, 0.3])
    x = rng.normal(size=3)
    d_rho, d_x = gradient_arrays(spec, rho, x)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd_r = (dominant_array(spec, rho + e, x) - dominant_array(spec, rho - e, x)) / (2 * h)
        fd_x = (dominant_array(spec, rho, x + e) - dominant_array(spec, rho, x - e)) / (2 * h)
        assert d_rho[i] == pytest.approx(fd_r, rel=1e-6, abs=1e-8)
        assert d_x[i] == pytest.approx(fd_x, rel=1e-6, abs=1e-8)


def test_momentum_gradient_is_tangent():
    rng = np.random.default_rng(3)
    spec = EnergySpec(graph=path3(), weight=ProbabilityWeight(HARMONIC))
    for _ in range(20):
        raw = rng.dirichlet(np.ones(3))
        rho = np.maximum(raw, 0.05)
        rho /= rho.sum()
        _, d_x = gradient_arrays(spec, rho, rng.normal(size=3))
        assert abs(d_x.sum()) <= 1e-14


def test_hessian_is_weighted_laplacian():
    spec = EnergySpec(graph=path3())
    rho = DensityState(rho=np.array([0.2, 0.5, 0.3]))
    x = MomentumState(s=np.array([0.4, -0.1, 0.6]))
    grads = energy_gradients(spec, rho, x)
    H = grads.hess_x
    assert np.allclose(H, H.T)
    assert np.allclose(H.sum(axis=1), 0.0, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(H) >= -1e-12)
    # Matches the finite difference of d_x, and is x-independent.
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (gradient_arrays(spec, rho.rho, x.s + e)[1]
              - gradient_arrays(spec, rho.rho, x.s - e)[1]) / (2 * h)
        assert np.allclose(H[i], fd, atol=1e-9)


def fisher_rho_partial(spec: EnergySpec, rho):
    """d I / d rho alone."""
    _check_positive(rho)
    e = spec.graph.edge_list
    return e.vertex_sum(_barrier_terms(e, rho[..., e.ii], rho[..., e.jj]))


def test_fisher_partial_matches_finite_differences():
    spec = EnergySpec(graph=path3())
    rho = np.array([0.3, 0.25, 0.45])
    part = fisher_rho_partial(spec, rho)
    h = 1e-7
    from graphwhs.energies import fisher_array

    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (fisher_array(spec, rho + e) - fisher_array(spec, rho - e)) / (2 * h)
        assert part[i] == pytest.approx(fd, rel=1e-6)


def test_array_core_broadcasts_over_batches():
    rng = np.random.default_rng(11)
    spec = EnergySpec(graph=path3(), interaction=np.eye(3) * 0.0)
    rho = rng.dirichlet(np.ones(3), size=7)
    rho = np.maximum(rho, 0.05)
    rho /= rho.sum(axis=-1, keepdims=True)
    x = rng.normal(size=(7, 3))
    batch_r, batch_x = gradient_arrays(spec, rho, x)
    batch_h0 = dominant_array(spec, rho, x)
    for k in range(7):
        one_r, one_x = gradient_arrays(spec, rho[k], x[k])
        assert np.array_equal(batch_r[k], one_r)
        assert np.array_equal(batch_x[k], one_x)
        assert batch_h0[k] == dominant_array(spec, rho[k], x[k])


def test_sym_weight_matrix_is_exactly_symmetric():
    spec = EnergySpec(graph=path3(), weight=ProbabilityWeight("logarithmic"))
    e = spec.graph.edge_list
    rho = np.array([0.31, 0.17, 0.52])
    g = weight_eval(spec.weight, rho[e.ii], rho[e.jj])
    # Ordered edges (0, 1), (1, 0), (1, 2), (2, 1): one value per orientation.
    assert g.shape == (4,)
    assert g[0] == g[1] and g[2] == g[3]


# ---------------------------------------------------------------------------
# the edge-list core against the dense (n, n) formulation
# ---------------------------------------------------------------------------

def dense_reference(spec, rho, x):
    """The dense masked (..., n, n) formulas the edge core replaced.

    g is evaluated on the full vertex grid, masked to the edge set and its
    upper triangle mirrored; every term keeps the multiplication order of
    the edge core, and numpy sums each row (and each whole matrix).
    """
    G = spec.graph
    mask = G.omega > 0.0
    om = G.omega
    g = weight_eval(spec.weight, rho[..., :, None], rho[..., None, :])
    g = np.triu(np.where(mask, g, 0.0), k=1)
    g = g + np.swapaxes(g, -1, -2)
    xdiff = x[..., :, None] - x[..., None, :]
    gt = weight_partial(spec.weight, rho[..., :, None], rho[..., None, :])[0]
    gt = np.where(mask, gt, 0.0)
    lr = np.log(rho)
    ldiff = lr[..., :, None] - lr[..., None, :]
    rdiff = rho[..., :, None] - rho[..., None, :]
    barrier = np.where(mask, om * (ldiff + rdiff / rho[..., :, None]), 0.0).sum(axis=-1)
    wm = np.where(mask, spec.interaction, 0.0)

    d_rho = 0.5 * (om * xdiff**2 * gt).sum(axis=-1) + spec.fisher_coeff * barrier
    h0 = 0.25 * (om * xdiff**2 * g).sum(axis=(-1, -2)) + spec.fisher_coeff * 0.5 * (
        om * np.where(mask, rdiff * ldiff, 0.0)
    ).sum(axis=(-1, -2))
    if spec.variant == POLYNOMIAL_INTERACTION:
        d_rho = d_rho + rho @ wm.T
        h0 = h0 + 0.5 * np.einsum("...i,ij,...j->...", rho, wm, rho)
    else:
        d_rho = d_rho - lr
        h0 = h0 - (rho * lr - rho).sum(axis=-1)
    return {
        "d_rho": d_rho,
        "d_x": (om * xdiff * g).sum(axis=-1),
        "barrier": barrier,
        "g": g,
        "h0": h0,
        "hess": np.diag((om * g)[0].sum(axis=1)) - (om * g)[0],
    }


def mixed_graph(n):
    """A ring (a path for n <= 3) with chords from vertex 0, so vertex 0 has degree >= 3 from n = 5."""
    if n == 1:
        return Graph(n=1, omega=np.zeros((1, 1)))
    if n == 2:
        return Graph.from_edges(2, [(0, 1, 1.3)])
    edges = [(i, (i + 1) % n, 1.0 + 0.1 * i) for i in range(n if n > 3 else n - 1)]
    edges += [(0, j, 0.5 + 0.05 * j) for j in range(2, n - 1)]
    return Graph.from_edges(n, edges)


def assert_matches(got, ref, bitwise, label):
    assert got.shape == ref.shape, label
    if bitwise:
        assert got.tobytes() == ref.tobytes(), label
    else:
        scale = np.abs(ref).max(axis=-1, keepdims=True) if ref.ndim else abs(ref)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale), label


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 12])
@pytest.mark.parametrize("variant", [POLYNOMIAL_INTERACTION, LOGARITHMIC_ENTROPY])
@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_edge_core_matches_dense_reference(n, variant, kind):
    """Bitwise for n < 8 (numpy sums a dense row of < 8 entries left to right,
    as ``vertex_sum`` does); within 1e-12 of the row's scale from n = 8, where
    numpy sums a row pairwise.  The scalar H0 sums all ordered edges at once,
    while the dense n x n reduction is pairwise from n = 3, so H0 is bitwise
    at n <= 2 only."""
    rng = np.random.default_rng(100 * n + 7)
    G = mixed_graph(n)
    if n >= 5:
        assert int((G.omega[0] > 0).sum()) >= 3
    raw = rng.normal(size=(n, n))
    W = (raw + raw.T) / 2.0   # entries off the edge set too; they must be ignored
    spec = EnergySpec(graph=G, variant=variant, weight=ProbabilityWeight(kind),
                      interaction=W, fisher_coeff=0.3)
    rho = rng.dirichlet(np.ones(n), size=40) if n > 1 else np.ones((40, 1))
    rho = np.maximum(rho, 0.01)
    rho /= rho.sum(axis=-1, keepdims=True)
    rho[0, :2] = rho[0, 0]          # a near-equal pair takes the log mean's series branch
    rho[0] /= rho[0].sum()
    x = rng.normal(size=(40, n))
    ref = dense_reference(spec, rho, x)
    bitwise = n < 8

    d_rho, d_x = gradient_arrays(spec, rho, x)
    assert_matches(d_rho, ref["d_rho"], bitwise, "d_rho")
    assert_matches(d_x, ref["d_x"], bitwise, "d_x")
    assert_matches(fisher_rho_partial(spec, rho), ref["barrier"], bitwise, "barrier")
    e = G.edge_list
    g = weight_eval(spec.weight, rho[..., e.ii], rho[..., e.jj])
    assert_matches(g, ref["g"][..., e.ii, e.jj], True, "g")
    grads = energy_gradients(spec, DensityState(rho=rho[0]), MomentumState(s=x[0]))
    assert_matches(grads.hess_x, ref["hess"], bitwise, "hess")
    assert_matches(dominant_array(spec, rho, x), ref["h0"], n <= 2, "h0")


def random_graph(rng, n):
    """Random chords on top of a path through 0..n-1 (so connected), random weights."""
    om = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.5), k=1)
    om[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 2.0, n - 1)
    return Graph(n=n, omega=om + om.T)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 12])
def test_edge_list_calculus_matches_dense_formulas(n):
    """graph_gradient, divergence and rho_inner against the dense masked
    (n, n) formulas they replaced.  The gradient is elementwise, so bitwise
    at every n; the divergence is bitwise for n < 8 (numpy sums a dense row
    of < 8 entries left to right, as ``vertex_sum`` does) and within 1e-12
    of the row scale from n = 8; rho_inner sums the E edge terms at once,
    against a pairwise n x n sum, and agrees within 1e-15 of the sum of the
    terms' magnitudes (the sum itself can cancel)."""
    rng = np.random.default_rng(300 + n)
    for G in [mixed_graph(n)] + [random_graph(rng, n) for _ in range(20)]:
        e = G.edge_list
        assert np.array_equal(e.ii[e.rev], e.jj) and np.array_equal(e.jj[e.rev], e.ii)
        assert not e.rev.flags.writeable
        mask = G.omega > 0.0
        sq = np.sqrt(G.omega)
        for kind in WEIGHT_KINDS:
            w = ProbabilityWeight(kind)
            rho = DensityState(rho=rng.dirichlet(np.full(n, 2.0)) if n > 1 else np.ones(1))
            g = np.where(mask, weight_eval(w, rho.rho[:, None], rho.rho[None, :]), 0.0)
            phi = rng.normal(size=n)
            grad = np.where(mask, sq * (phi[:, None] - phi[None, :]), 0.0)
            assert_matches(graph_gradient(G, phi).values, grad[e.ii, e.jj], True, "grad")
            raw = rng.normal(size=(2, n, n))
            U, V = np.where(mask, raw - np.swapaxes(raw, 1, 2), 0.0)
            u, v = EdgeField(U[e.ii, e.jj], G), EdgeField(V[e.ii, e.jj], G)
            assert_matches(divergence(G, w, rho, v), (sq * V.T * g).sum(axis=1), n < 8, "div")
            terms = U * V * g
            gap = abs(rho_inner(G, w, rho, u, v) - 0.5 * float(terms.sum()))
            assert gap <= 1e-15 * 0.5 * float(np.abs(terms).sum())


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_zero_interaction_skips_its_matmul_bitwise(n):
    """An interaction matrix that vanishes on the edge set adds +0.0 in place
    of its product in d_rho and of its quadratic form in H0; d_rho keeps every
    bit of the dense formula, on the uniform, motionless rows (whose entries
    are zero) too, and H0 every bit of the sum with the einsum term."""
    rng = np.random.default_rng(n)
    G = mixed_graph(n)
    off_edge = np.where(G.omega > 0.0, 0.0, 1.0)   # ignored entries only
    spec = EnergySpec(graph=G, interaction=off_edge, fisher_coeff=0.3)
    assert spec.zero_interaction
    assert not EnergySpec(graph=G, interaction=np.where(G.omega > 0.0, 0.5, 0.0)).zero_interaction
    rho = rng.dirichlet(np.ones(n), size=20)
    rho[:3] = 1.0 / n
    x = rng.normal(size=(20, n))
    x[:2] = 0.0
    d_rho, _ = gradient_arrays(spec, rho, x)
    assert (d_rho[:2] == 0.0).all()
    assert_matches(d_rho, dense_reference(spec, rho, x)["d_rho"], True, "d_rho")
    h0 = kinetic_array(spec, rho, x) + spec.fisher_coeff * fisher_array(spec, rho)
    h0 = h0 + 0.5 * np.einsum("...i,ij,...j->...", rho, spec.edge_interaction, rho)
    assert_matches(dominant_array(spec, rho, x), h0, True, "h0")


@pytest.mark.parametrize("bad", [0.0, -0.25])
def test_nonpositive_density_raises_domain_error(bad):
    spec = EnergySpec(graph=path3())
    x = np.zeros((2, 3))
    rho = np.full((2, 3), 1.0 / 3.0)
    rho[1, 2] = bad
    for fn in (gradient_arrays, dominant_array):
        with pytest.raises(DomainError):
            fn(spec, rho, x)
        with pytest.raises(DomainError):
            fn(spec, rho[1], x[1])
    with pytest.raises(DomainError):
        fisher_rho_partial(spec, rho)


def test_edge_arrays_are_read_only_and_built_once(monkeypatch):
    builds = []
    real = EdgeList.build.__func__

    def counting(cls, omega):
        builds.append(1)
        return real(cls, omega)

    monkeypatch.setattr(EdgeList, "build", classmethod(counting))
    G = Graph.from_edges(4, [(2, 0, 1.0), (0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.5)])
    spec = EnergySpec(graph=G)
    rho = np.full((3, 4), 0.25)
    for _ in range(3):
        gradient_arrays(spec, rho, np.zeros((3, 4)))
        dominant_array(spec, rho, np.zeros((3, 4)))
    e = G.edge_list
    assert e is G.edge_list
    assert len(builds) == 1
    # Both orientations, sorted by tail and then head, with omega per edge.
    pairs = list(zip(e.ii.tolist(), e.jj.tolist()))
    assert pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)]
    assert e.omega.tolist() == [G.omega[i, j] for i, j in pairs]
    arrays = [e.ii, e.jj, e.omega, e.first]
    arrays += [a for fold in e.folds for a in fold if a is not None]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]
    assert not spec.edge_interaction.flags.writeable
