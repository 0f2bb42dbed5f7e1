import json
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from graphwhs import _kernels, checks
from graphwhs._kernels import moreau_lines, multilinear, multilinear_at

from graphwhs.control import BOUNDED_TRACKING, CostSpec, hamiltonian, legendre_fhat
from graphwhs.energies import LOGARITHMIC_ENTROPY, EnergySpec, dominant_array
from graphwhs.graphs import (
    HARMONIC,
    DensityState,
    DomainError,
    Graph,
    MomentumState,
    ProbabilityWeight,
)
from graphwhs.hjb import (
    PROFILE_DERIV_BOUND,
    CflError,
    GridValueFunction,
    SimplexGrid,
    TruncationFn,
    cost_hash,
    energy_hash,
    fhat_R,
    hjb_residual,
    hjb_solve_backward,
    inf_convolution,
    metric_weights_for_value,
    phi_eval,
    semiconvexity_defect,
    sup_convolution,
    truncated_hamiltonian,
    truncation_identity_check,
)


def pair_energy() -> EnergySpec:
    return EnergySpec(graph=Graph.from_edges(2, [(0, 1, 1.0)]), sigma=np.array([0.2, 0.2]))


def band_state():
    """A state whose dominant energy lies strictly between R and 2R for R = 1.5."""
    return DensityState(rho=np.array([0.2, 0.8])), MomentumState(s=np.array([2.154, -0.5]))


def tracking_cost() -> CostSpec:
    return CostSpec(
        control_coeff=0.5,
        tracking_coeff=0.4,
        target_rho=np.array([0.5, 0.5]),
        target_x=np.zeros(2),
        terminal_weight=1.0,
    )


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

def test_truncation_guards():
    for R in (0.9, np.nan, np.inf, True, "2.0"):
        with pytest.raises(DomainError):
            TruncationFn(R=R)
    with pytest.raises(DomainError):
        TruncationFn(R=2.0, beta=0.0)
    with pytest.raises(DomainError):
        TruncationFn(R=2.0, beta=1.0)
    assert TruncationFn(R=4.0, beta=0.5).floor == pytest.approx(0.5, rel=1e-15)


def test_phi_plateaus_exact():
    tr = TruncationFn(R=2.0, beta=0.5)
    assert phi_eval(tr, 2.0) == (1.0, 0.0, 0.0)
    assert phi_eval(tr, -5.0) == (1.0, 0.0, 0.0)
    assert phi_eval(tr, 4.0) == (tr.floor, 0.0, 0.0)
    assert phi_eval(tr, 40.0) == (tr.floor, 0.0, 0.0)
    with pytest.raises(DomainError):
        phi_eval(tr, np.nan)
    vals, d1, d2 = phi_eval(tr, np.array([1.0, 3.0, 5.0]))
    assert vals.shape == d1.shape == d2.shape == (3,)
    assert vals[0] == 1.0 and vals[2] == tr.floor


def test_phi_monotone_bounded_and_consistent():
    tr = TruncationFn(R=1.5, beta=0.5)
    r = np.linspace(0.5, 4.5, 2001)
    vals, d1, d2 = phi_eval(tr, r)
    amp = 1.0 - tr.floor
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(d1 <= 0.0)
    assert np.abs(d1).max() * tr.R / amp <= PROFILE_DERIV_BOUND
    assert np.abs(d2).max() * tr.R**2 / amp <= PROFILE_DERIV_BOUND
    # Central differences of the value reproduce the stated derivatives.
    h = 1e-6
    probe = np.array([1.8, 2.2, 2.6])
    up, _, _ = phi_eval(tr, probe + h)
    dn, _, _ = phi_eval(tr, probe - h)
    _, first, second = phi_eval(tr, probe)
    assert np.allclose((up - dn) / (2.0 * h), first, atol=1e-7)
    assert np.allclose((up - 2.0 * phi_eval(tr, probe)[0] + dn) / h**2, second, atol=1e-3)


def test_truncation_identity_at_band_state():
    energy = pair_energy()
    tr = TruncationFn(R=1.5)
    rho, x = band_state()
    h0 = float(dominant_array(energy, rho.rho, x.s))
    assert tr.R * 1.01 < h0 < 2.0 * tr.R * 0.99
    assert phi_eval(tr, h0)[1] != 0.0
    assert truncation_identity_check(energy, tr, rho, x) <= 1e-12
    assert truncation_identity_check(energy, tr, rho, x, break_tangency=0.5) > 1e-4


def test_fhat_R_reduces_to_plain_transform_on_plateau():
    energy = pair_energy()
    tr = TruncationFn(R=5.0)
    cost = tracking_cost()
    rho = DensityState(rho=np.array([0.5, 0.5]))
    x = MomentumState(s=np.array([0.1, -0.1]))
    assert float(dominant_array(energy, rho.rho, x.s)) < tr.R
    for q in (np.zeros(2), np.array([0.4, -0.3]), np.array([3.0, 4.0])):
        plain = legendre_fhat(cost, 0.0, rho, x, q, 1.0)
        assert fhat_R(cost, energy, tr, 0.0, rho, x, q, 0.0, 1.0) == pytest.approx(
            plain, rel=1e-14, abs=1e-14
        )
        # The value multiplying the cutoff gradient is idle where phi' = 0.
        assert fhat_R(cost, energy, tr, 0.0, rho, x, q, 7.0, 1.0) == pytest.approx(
            plain, rel=1e-14, abs=1e-14
        )
    for ell in (0.0, -1.0, np.nan, np.inf, True):
        with pytest.raises(DomainError, match="ball radius"):
            fhat_R(cost, energy, tr, 0.0, rho, x, np.zeros(2), 0.0, ell)
        with pytest.raises(DomainError, match="ball radius"):
            truncated_hamiltonian(
                cost, energy, tr, 0.0, rho, x, 0.0,
                np.zeros(2), np.zeros(2), np.zeros((2, 2)), ell,
            )


def test_fhat_R_lipschitz_in_q():
    energy = pair_energy()
    tr = TruncationFn(R=1.5)
    cost = tracking_cost()
    rho, x = band_state()
    ell = 1.0
    rng = np.random.default_rng(7)
    for _ in range(100):
        q1 = rng.normal(0.0, 2.0, 2)
        q2 = rng.normal(0.0, 2.0, 2)
        f1 = fhat_R(cost, energy, tr, 0.0, rho, x, q1, 0.4, ell)
        f2 = fhat_R(cost, energy, tr, 0.0, rho, x, q2, 0.4, ell)
        gap = float(np.linalg.norm(q1 - q2))
        assert abs(f1 - f2) <= ell * gap * (1.0 + 1e-12) + 1e-12


def test_truncated_hamiltonian_plateau_and_domain():
    energy = pair_energy()
    cost = tracking_cost()
    tr = TruncationFn(R=5.0)
    rho = DensityState(rho=np.array([0.5, 0.5]))
    x = MomentumState(s=np.array([0.1, -0.1]))
    p = np.array([0.3, -0.1])
    q = np.array([0.2, 0.5])
    Q = np.array([[1.0, 0.2], [0.2, 0.5]])
    plain = hamiltonian(cost, energy, 0.0, rho, x, p, q, Q, 1.0)
    cut = truncated_hamiltonian(cost, energy, tr, 0.0, rho, x, 0.8, p, q, Q, 1.0)
    assert cut == pytest.approx(plain, rel=1e-13, abs=1e-13)
    # With no adjoint data left the expression is the rescaled state cost.
    band_rho, band_x = band_state()
    tr_band = TruncationFn(R=1.5)
    phi0 = phi_eval(tr_band, float(dominant_array(energy, band_rho.rho, band_x.s)))[0]
    bare = truncated_hamiltonian(
        cost, energy, tr_band, 0.0, band_rho, band_x, 0.0,
        np.zeros(2), np.zeros(2), np.zeros((2, 2)), 1.0,
    )
    g = float(cost.state_cost(0.0, band_rho.rho, band_x.s))
    assert bare == pytest.approx(phi0 * g, rel=1e-13)
    far = MomentumState(s=np.array([5.0, -5.0]))
    with pytest.raises(DomainError):
        truncated_hamiltonian(
            cost, energy, TruncationFn(R=1.0), 0.0, rho, far, 0.0,
            np.zeros(2), np.zeros(2), np.zeros((2, 2)), 1.0,
        )


# ---------------------------------------------------------------------------
# grid and solver
# ---------------------------------------------------------------------------

def test_grid_validation():
    energy = pair_energy()
    with pytest.raises(DomainError):
        SimplexGrid.build(
            EnergySpec(graph=Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]),
                       sigma=np.zeros(3)),
            1.0, 0.25,
        )
    with pytest.raises(DomainError):
        SimplexGrid(
            axes=(np.array([0.0, 0.1, 0.3]), np.linspace(0.1, 0.9, 5),
                  np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)), cfl={},
        )
    with pytest.raises(DomainError):
        SimplexGrid(
            axes=(np.linspace(0, 1, 4), np.linspace(0.0, 0.9, 5),
                  np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)), cfl={},
        )
    with pytest.raises(DomainError):
        SimplexGrid(
            axes=(np.array([1.0, 0.5]), np.linspace(0.1, 0.9, 5),
                  np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)), cfl={},
        )
    with pytest.raises(DomainError, match="4 axes"):
        SimplexGrid(axes=(np.linspace(0, 1, 4), np.linspace(0.1, 0.9, 5)), cfl={})
    # int() would build (8, 5, 5, 5) from (5.9, 5, 5, 8.7).
    for shape in ((5.9, 5, 5, 8.7), (5, 5, 5, True), (5, 5, 5, 1)):
        with pytest.raises(DomainError, match="grid shape"):
            SimplexGrid.build(energy, 1.0, 0.25, shape=shape)
    grid = SimplexGrid.build(energy, 1.0, 0.25, shape=(9, 9, 9, np.int64(16)))
    # shape lists time first once built, matching the value array layout.
    assert grid.shape == (16, 9, 9, 9)
    assert all(s > 0 for s in grid.spacings)
    assert {"dt", "dt_bound", "cfl_number"} <= set(grid.cfl)
    assert grid.cfl["cfl_number"] <= 1.0


def test_solver_constant_solution_and_terminal_layer():
    energy = pair_energy()
    grid = SimplexGrid.build(energy, 1.0, 0.25, shape=(9, 9, 9, 16))
    flat = CostSpec(control_coeff=0.5, terminal_offset=0.7)
    gvf = hjb_solve_backward(grid, flat, energy, 1.0)
    assert np.all(gvf.values == 0.7)
    tracked = tracking_cost()
    gvf2 = hjb_solve_backward(grid, tracked, energy, 1.0)
    rho_nodes, x_nodes = grid.nodes()
    assert np.array_equal(gvf2.values[-1], tracked.terminal_cost(rho_nodes, x_nodes))
    assert np.isfinite(gvf2.values).all()
    # Interpolation reproduces nodes and stays inside the hull between them.
    times, rho1, x1, x2 = grid.axes
    t0 = float(times[2])
    assert gvf2.evaluate(t0, rho1[3], x1[4], x2[5]) == (
        pytest.approx(gvf2.values[2, 3, 4, 5], rel=1e-12)
    )
    mid = gvf2.evaluate(t0, 0.5 * (rho1[3] + rho1[4]), x1[4], x2[5])
    lo = min(gvf2.values[2, 3, 4, 5], gvf2.values[2, 4, 4, 5])
    hi = max(gvf2.values[2, 3, 4, 5], gvf2.values[2, 4, 4, 5])
    assert lo - 1e-12 <= mid <= hi + 1e-12


def test_solver_guards():
    energy = pair_energy()
    grid = SimplexGrid.build(energy, 1.0, 0.25, shape=(9, 9, 9, 16))
    coarse = SimplexGrid.build(energy, 1.0, 0.25, shape=(9, 9, 9, 4))
    with pytest.raises(CflError, match="monotonicity"):
        hjb_solve_backward(coarse, CostSpec(), energy, 1.0)
    for ell in (0.0, -1.0, np.nan, np.inf, True):
        with pytest.raises(DomainError, match="ell must be positive"):
            SimplexGrid.build(energy, ell, 0.25, shape=(9, 9, 9, 16))
        with pytest.raises(DomainError, match="ell must be positive"):
            hjb_solve_backward(grid, CostSpec(), energy, ell)
    with pytest.raises(DomainError):
        GridValueFunction(grid=grid, values=np.zeros((3, 3, 3, 3)), cost_spec=None,
                          energy=None, ell=1.0, cfl={})
    bad = np.zeros(grid.shape)
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(DomainError):
        GridValueFunction(grid=grid, values=bad, cost_spec=None, energy=None,
                          ell=1.0, cfl={})


def test_moreau_lines_is_the_brute_force_envelope_bitwise():
    def brute(vals, coords, weight, theta):
        return np.array([
            [np.max(row - weight * (z - coords) ** 2 / (2.0 * theta)) for z in coords]
            for row in vals
        ])

    rng = np.random.default_rng(17)
    for m in (1, 2, 48):
        vals = rng.normal(size=(9, m))
        coords = np.sort(rng.uniform(-1.0, 1.0, m))
        out = moreau_lines(vals, coords, 1.7, 0.06)
        assert out.tobytes() == brute(vals, coords, 1.7, 0.06).tobytes()
    # Ties: equal candidates from several source points, and a flat line.
    coords = np.linspace(-1.0, 1.0, 5)
    vals = np.array([[1.0, 0.0, 1.0, 0.0, 1.0], [0.25, 0.25, 0.25, 0.25, 0.25]])
    out = moreau_lines(vals, coords, 1.0, 0.5)
    assert out.tobytes() == brute(vals, coords, 1.0, 0.5).tobytes()


def _brute_moreau(vals, coords, weight, theta):
    """Every candidate of every output point, reduced with np.max."""
    vals = np.asarray(vals, dtype=float)
    pen = weight * (coords[:, None] - coords[None, :]) ** 2 / (2.0 * theta)
    return np.max(vals[:, None, :] - pen, axis=-1)


def _swept(vals, coords, weight, theta):
    """The largest offset moreau_lines sweeps for this block."""
    vt = np.ascontiguousarray(np.asarray(vals, dtype=float).T)
    pen = weight * (coords[:, None] - coords[None, :]) ** 2 / (2.0 * theta)
    return _kernels._reach(vt, coords, pen, np.empty_like(vt[1:]))


def _assert_brute(vals, coords, weight=1.7, theta=0.06):
    out = moreau_lines(vals, coords, weight, theta)
    ref = _brute_moreau(vals, coords, weight, theta)
    assert out.shape == np.shape(vals)
    assert out.tobytes() == ref.tobytes()


def test_moreau_band_edge_cases_equal_the_brute_force_bitwise():
    rng = np.random.default_rng(23)
    for m in (1, 2, 3, 48):
        coords = np.sort(rng.uniform(-1.0, 1.0, m))
        for lines in (0, 1, 7):
            _assert_brute(rng.normal(size=(lines, m)), coords)
    coords = np.linspace(-1.0, 1.0, 48)
    # Smooth lines leave a narrow band; a constant one leaves only d = 0.
    smooth = np.sin(np.outer(np.arange(1, 6), coords))
    assert 0 < _swept(smooth, coords, 1.7, 0.06) < 47
    _assert_brute(smooth, coords)
    flat = np.full((3, 48), 0.3)
    assert _swept(flat, coords, 1.7, 0.06) == 0
    _assert_brute(flat, coords)
    # A spread that every penalty stays under sweeps every offset.
    spiky = rng.normal(size=(4, 48)) * 1e3
    assert _swept(spiky, coords, 1.7, 0.06) == 47
    _assert_brute(spiky, coords)
    # Non-uniform coordinates keep a band; repeated or decreasing ones sweep
    # every offset.
    _assert_brute(smooth, np.sort(rng.uniform(-1.0, 1.0, 48)) ** 3)
    for bad in (np.repeat(np.linspace(-1.0, 1.0, 24), 2), coords[::-1]):
        assert _swept(smooth, bad, 1.7, 0.06) == 47
        _assert_brute(smooth, bad)
    # NaN and infinite lines poison the spread, so everything is swept.
    for poison in (np.nan, np.inf, -np.inf):
        vals = smooth.copy()
        vals[2, 5] = poison
        assert _swept(vals, coords, 1.7, 0.06) == 47
        _assert_brute(vals, coords)
        _assert_brute(np.full((2, 48), poison), coords)


def test_moreau_signed_zeros():
    coords = np.linspace(-1.0, 1.0, 48)
    # A -0.0 line keeps its sign: no other candidate reaches zero.
    out = moreau_lines(np.full((2, 48), -0.0), coords, 1.7, 0.06)
    assert out.tobytes() == np.full((2, 48), -0.0).tobytes()
    mixed = np.where(np.arange(48) % 2, 0.0, -0.0)[None, :]
    _assert_brute(mixed, coords)
    # The one difference from a sweep in source order: on a tie of +0.0
    # and -0.0 the candidate swept last wins, i.e. the larger offset and,
    # at equal offsets, the source below.  Point 1 here ties its own -0.0
    # with 1.0 - pen[1, 0] = +0.0 from below; the source-order sweep ends
    # on its own value and gives -0.0.
    out = moreau_lines(np.array([[1.0, -0.0, -5.0]]), np.array([0.0, 1.0, 2.0]), 1.0, 0.5)
    assert out[0, 1] == 0.0 and not np.signbit(out[0, 1])
    assert out.tolist() == [[1.0, 0.0, -1.0]]


def _reference_convolution(values, axes, theta, weights, sign):
    """sign = 1: the sup-convolution, one axis at a time, each output point
    the np.max of all its candidates; sign = -1: the inf-convolution with
    np.min."""
    reduce = np.max if sign > 0 else np.min
    out = values
    for axis, (coords, w) in enumerate(zip(axes, weights)):
        pen = w * (coords[:, None] - coords[None, :]) ** 2 / (2.0 * theta)
        lines = np.moveaxis(out, axis, -1)
        out = np.moveaxis(
            np.stack([reduce(lines - sign * row, axis=-1) for row in pen], axis=-1), -1, axis
        )
    return out


def test_convolutions_equal_the_per_axis_reference_bitwise():
    """Criterion 10's grid and radii."""
    energy = checks.benchmark_energy()
    grid = SimplexGrid.build(energy, checks.BENCH_ELL, checks.BENCH_T, shape=(17, 17, 17, 32))
    gvf = hjb_solve_backward(grid, checks.benchmark_cost(), energy, checks.BENCH_ELL)
    weights = metric_weights_for_value(2)
    U = gvf.values
    for theta in (0.1, 0.05, 0.025):
        up = sup_convolution(U, gvf.axes, theta, weights)
        assert up.tobytes() == _reference_convolution(U, gvf.axes, theta, weights, 1).tobytes()
        down = inf_convolution(U, gvf.axes, theta, weights)
        assert down.tobytes() == _reference_convolution(U, gvf.axes, theta, weights, -1).tobytes()


def _saved_grid(tmp_path):
    energy = pair_energy()
    grid = SimplexGrid.build(energy, 1.0, 0.25, shape=(9, 9, 9, 16))
    cost = tracking_cost()
    gvf = hjb_solve_backward(grid, cost, energy, 1.0)
    gvf.to_dir(tmp_path / "grid")
    return gvf, cost, energy, tmp_path / "grid"


def test_value_function_roundtrip_and_fingerprints(tmp_path):
    gvf, cost, energy, path = _saved_grid(tmp_path)
    assert sorted(p.name for p in path.iterdir()) == ["metadata.json", "values.npy"]
    meta = json.loads((path / "metadata.json").read_text())
    assert meta["schema"] == 2 and "layer_files" not in meta
    back = GridValueFunction.from_dir(path, cost_spec=cost, energy=energy)
    assert back.values.tobytes() == gvf.values.tobytes()
    assert back.values.dtype == np.float64
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back.axes, gvf.axes))
    assert back.ell == gvf.ell and back.cfl == gvf.cfl
    other_cost = CostSpec(control_coeff=0.6)
    with pytest.raises(DomainError):
        GridValueFunction.from_dir(path, cost_spec=other_cost)
    other_energy = EnergySpec(graph=Graph.from_edges(2, [(0, 1, 2.0)]),
                              sigma=np.array([0.2, 0.2]))
    with pytest.raises(DomainError):
        GridValueFunction.from_dir(path, energy=other_energy)
    detached = GridValueFunction.from_dir(path)
    with pytest.raises(DomainError):
        hjb_residual(detached, [[4, 4, 4, 4]])


def test_artifact_names_the_axes_in_value_order(tmp_path):
    gvf, _, _, path = _saved_grid(tmp_path)
    stored = json.loads((path / "metadata.json").read_text())["axes"]
    assert list(stored) == ["t", "rho1", "x1", "x2"]
    assert [stored[name] for name in stored] == [ax.tolist() for ax in gvf.grid.axes]
    back = GridValueFunction.from_dir(path).grid.axes
    assert len(back) == 4
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back, gvf.grid.axes))


def test_energy_hash_follows_the_values_that_define_the_energy():
    def spec(cls=EnergySpec, **change):
        values = dict(graph=Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]),
                      interaction=[[0.0, 0.5, 9.0], [0.5, 0.0, 0.3], [9.0, 0.3, 0.0]],
                      fisher_coeff=0.125, sigma=[0.2, 0.2, 0.1])
        return cls(**{**values, **change})

    h = energy_hash(spec())
    assert len(h) == 16 and int(h, 16) >= 0
    # Pinned: grid artifacts written by earlier versions must still load.
    assert energy_hash(checks.benchmark_energy()) == "7d633011ce7ce0c2"
    # Equal values hash equal: ints for floats, and the interaction entry
    # off the edge set, which the energy ignores.
    assert energy_hash(spec(graph=Graph.from_edges(3, [(0, 1, 1), (1, 2, 2)]))) == h
    assert energy_hash(spec(interaction=[[0, 0.5, -4], [0.5, 0, 0.3], [-4, 0.3, 0]])) == h
    assert energy_hash(spec(fisher_coeff=0.125, sigma=np.array([0.2, 0.2, 0.1]))) == h

    # A field that leaves the energy alone leaves the hash alone.
    @dataclass(frozen=True)
    class Annotated(EnergySpec):
        note: str = "refactor"

    assert energy_hash(spec(Annotated)) == h

    changes = [
        dict(graph=Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.5)])),
        dict(graph=Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1e-3)])),
        dict(variant=LOGARITHMIC_ENTROPY),
        dict(weight=ProbabilityWeight(HARMONIC)),
        dict(interaction=[[0.0, 0.5, 9.0], [0.5, 0.0, 0.31], [9.0, 0.31, 0.0]]),
        dict(fisher_coeff=0.25),
        dict(sigma=[0.2, 0.2, 0.0]),
    ]
    hashes = {energy_hash(spec(**change)) for change in changes}
    assert len(hashes) == len(changes) and h not in hashes


def test_cost_hash_follows_the_family_coefficients_and_targets():
    base = dict(control_coeff=0.5, tracking_coeff=0.4, bound=1.0, target_rho=[0.5, 0.5],
                target_x=[0.0, 0.0], terminal_weight=1.0, terminal_offset=0.0)
    h = cost_hash(CostSpec(**base))
    assert len(h) == 16
    # Pinned: grid artifacts written by earlier versions must still load.
    assert cost_hash(checks.benchmark_cost()) == "9f796b78fa0bc8c7"
    assert cost_hash(CostSpec(**{**base, "target_x": np.zeros(2), "terminal_weight": 1})) == h
    # The quadratic family has no saturation height; the bounded one no tracking weight.
    assert cost_hash(CostSpec(**{**base, "bound": 7.0})) == h
    bounded = {**base, "family": BOUNDED_TRACKING}
    assert cost_hash(CostSpec(**{**bounded, "tracking_coeff": 7.0})) == cost_hash(
        CostSpec(**bounded))
    changes = [
        dict(family=BOUNDED_TRACKING),
        dict(control_coeff=0.6),
        dict(tracking_coeff=0.5),
        dict(target_rho=[0.4, 0.6]),
        dict(target_rho=None),
        dict(target_x=[0.0, 0.1]),
        dict(target_x=None),
        dict(terminal_weight=2.0),
        dict(terminal_offset=0.1),
    ]
    hashes = {cost_hash(CostSpec(**{**base, **change})) for change in changes}
    hashes.add(cost_hash(CostSpec(**{**bounded, "bound": 2.0})))
    assert len(hashes) == len(changes) + 1 and h not in hashes


def test_schema_1_grid_artifact_is_refused(tmp_path):
    _, _, _, path = _saved_grid(tmp_path)
    meta = json.loads((path / "metadata.json").read_text())
    meta["schema"] = 1
    meta["layer_files"] = [f"layer_{k:04d}.csv" for k in range(16)]
    (path / "metadata.json").write_text(json.dumps(meta))
    with pytest.raises(DomainError, match="graph-whs hjb"):
        GridValueFunction.from_dir(path)


def test_grid_artifact_shape_mismatch_is_refused(tmp_path):
    gvf, _, _, path = _saved_grid(tmp_path)
    np.save(path / "values.npy", gvf.values[:-1])
    with pytest.raises(DomainError, match="metadata says"):
        GridValueFunction.from_dir(path)


def test_grid_artifact_refuses_object_and_pickled_values(tmp_path):
    gvf, _, _, path = _saved_grid(tmp_path)
    np.save(path / "values.npy", gvf.values.astype(object), allow_pickle=True)
    with pytest.raises(DomainError, match="float64"):
        GridValueFunction.from_dir(path)
    (path / "values.npy").write_bytes(pickle.dumps(gvf.values))
    with pytest.raises(DomainError, match="float64"):
        GridValueFunction.from_dir(path)
    np.save(path / "values.npy", gvf.values.astype(np.float32))
    with pytest.raises(DomainError, match="float64"):
        GridValueFunction.from_dir(path)


def test_evaluate_matches_scipy_interpolator_bitwise():
    energy = pair_energy()
    grid = SimplexGrid.build(energy, 1.0, 0.25, shape=(9, 9, 9, 16))
    gvf = hjb_solve_backward(grid, tracking_cost(), energy, 1.0)
    rng = np.random.default_rng(23)
    probes = np.column_stack([
        rng.uniform(0.0, 0.25, 20), rng.uniform(0.1, 0.9, 20),
        rng.uniform(-1.0, 1.0, 20), rng.uniform(-1.0, 1.0, 20),
    ])
    first = gvf.evaluate(*probes[0])
    for p in probes:
        fresh = RegularGridInterpolator(gvf.axes, gvf.values)(p[None, :])[0]
        assert gvf.evaluate(*p) == float(fresh)
    assert gvf.evaluate(*probes[0]) == first
    with pytest.raises(ValueError):
        gvf.evaluate(0.3, 0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# multilinear interpolation: bitwise parity with scipy's linear interpolator
# ---------------------------------------------------------------------------

def random_grid(rng, shape):
    axes = [np.sort(rng.uniform(-1.0, 1.0, m)) for m in shape]
    for g in axes:
        assert np.all(np.diff(g) > 0)
    return axes, rng.normal(size=shape)


def test_multilinear_matches_scipy_on_4d_grid():
    rng = np.random.default_rng(41)
    axes, values = random_grid(rng, (5, 4, 6, 7))
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    upper = np.array([[g[-1] for g in axes], [axes[0][-1], axes[1][0], axes[2][-1], axes[3][2]]])
    lo = np.array([g[0] for g in axes])
    hi = np.array([g[-1] for g in axes])
    interior = lo + (hi - lo) * rng.uniform(0.0, 1.0, (400, 4))
    ref = RegularGridInterpolator(axes, values)
    for points in (nodes, upper, interior):
        want = ref(points)
        assert np.array_equal(multilinear(axes, values, points), want)
        assert np.array_equal([multilinear_at(axes, values, p) for p in points], want)


def test_multilinear_at_rejects_outside_and_nan_points():
    rng = np.random.default_rng(42)
    axes, values = random_grid(rng, (5, 4, 6, 7))
    inside = [float(np.mean(g)) for g in axes]
    for dim in range(4):
        for bad in (axes[dim][0] - 1e-12, axes[dim][-1] + 1e-12, np.nan):
            point = list(inside)
            point[dim] = bad
            with pytest.raises(ValueError):
                RegularGridInterpolator(axes, values)([point])
            with pytest.raises(ValueError, match=f"dimension {dim}"):
                multilinear_at(axes, values, point)


@pytest.mark.parametrize("shape", [(4, 4, 4), (2, 2, 2), (1, 2, 3), (3, 1, 1)])
def test_multilinear_extrapolates_like_scipy(shape):
    rng = np.random.default_rng(43)
    axes, values = random_grid(rng, shape)
    points = rng.uniform(-2.0, 2.0, (300, 3))  # many outside the hull
    points[:3] = [[g[0] for g in axes], [g[-1] for g in axes], [g[-1] + 0.5 for g in axes]]
    for dim in range(3):
        points[10 + dim, dim] = np.nan
    points[13] = np.nan
    want = RegularGridInterpolator(axes, values, bounds_error=False, fill_value=None)(points)
    got = multilinear(axes, values, points)
    assert np.isnan(got[10:14]).all()
    assert got.tobytes() == want.tobytes()  # NaN rows included
    empty = np.empty((0, 3))
    assert multilinear(axes, values, empty).shape == (0,)


def test_residual_report():
    energy = pair_energy()
    grid = SimplexGrid.build(energy, 1.0, 0.25, shape=(17, 17, 17, 32))
    gvf = hjb_solve_backward(grid, tracking_cost(), energy, 1.0)
    rng = np.random.default_rng(3)
    pts = np.stack([
        rng.integers(4, 28, 20),
        rng.integers(4, 13, 20),
        rng.integers(4, 13, 20),
        rng.integers(4, 13, 20),
    ], axis=1)
    report = hjb_residual(gvf, pts)
    assert report.n_points == 20
    assert 0.0 <= report.rms <= report.max_abs <= 0.5
    assert report.probe_tol == report.max_abs
    loose = hjb_residual(gvf, pts, probe_tol=report.max_abs * 1.001)
    assert loose.sub_violations == 0 and loose.super_violations == 0
    with pytest.raises(DomainError):
        hjb_residual(gvf, [[1, 4, 4, 4]])


# ---------------------------------------------------------------------------
# sup-/inf-convolutions
# ---------------------------------------------------------------------------

def test_convolution_matches_brute_force():
    rng = np.random.default_rng(11)
    # One axis against the direct O(m^2) envelope.
    coords = np.linspace(-1.0, 1.0, 31)
    v = rng.normal(size=31)
    theta, wgt = 0.05, 1.7
    out = sup_convolution(v, [coords], theta, weights=[wgt])
    brute = np.array([
        np.max(v - wgt * (z - coords) ** 2 / (2.0 * theta)) for z in coords
    ])
    assert np.allclose(out, brute, atol=1e-12)
    # Two axes: the separable sweep equals the joint maximization.
    ax0 = np.linspace(0.0, 1.0, 12)
    ax1 = np.linspace(-0.5, 0.5, 11)
    grid_v = rng.normal(size=(12, 11))
    out2 = sup_convolution(grid_v, [ax0, ax1], theta, weights=[1.0, 2.0])
    brute2 = np.empty_like(grid_v)
    for a, z0 in enumerate(ax0):
        for b, z1 in enumerate(ax1):
            pen = (
                1.0 * (z0 - ax0)[:, None] ** 2 + 2.0 * (z1 - ax1)[None, :] ** 2
            ) / (2.0 * theta)
            brute2[a, b] = np.max(grid_v - pen)
    assert np.allclose(out2, brute2, atol=1e-12)


def test_convolution_envelope_properties():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(6, 8, 7))
    axes = [np.linspace(0, 1, 6), np.linspace(0.1, 0.9, 8), np.linspace(-1, 1, 7)]
    w = (1.0, 2.0, 1.0)
    sup_big = sup_convolution(vals, axes, 0.1, weights=w)
    sup_small = sup_convolution(vals, axes, 0.05, weights=w)
    inf_out = inf_convolution(vals, axes, 0.05, weights=w)
    assert np.all(sup_big >= vals - 1e-12)
    assert np.all(inf_out <= vals + 1e-12)
    # Weaker penalties only raise the upper envelope.
    assert np.all(sup_big >= sup_small - 1e-12)
    assert semiconvexity_defect(sup_small, axes, 0.05, weights=w) >= -1e-9
    assert semiconvexity_defect(-inf_out, axes, 0.05, weights=w) >= -1e-9


def test_convolution_guards_and_metric_weights():
    vals = np.zeros((4, 4))
    axes = [np.linspace(0, 1, 4), np.linspace(0, 1, 4)]
    with pytest.raises(DomainError):
        sup_convolution(vals, axes, 0.0)
    with pytest.raises(DomainError):
        sup_convolution(vals, axes, 0.1, weights=[1.0])
    with pytest.raises(DomainError):
        sup_convolution(vals, [np.linspace(0, 1, 3), axes[1]], 0.1)
    assert metric_weights_for_value(2) == (1.0, 2.0, 1.0, 1.0)
    assert metric_weights_for_value(3) == (1.0, 3.0, 1.0, 1.0, 1.0)
