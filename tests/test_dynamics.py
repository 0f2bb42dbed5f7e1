import csv

import numpy as np
import pytest

from graphwhs.dynamics import (
    BoundaryEscapeError,
    EscapeQuotaError,
    RowControls,
    SdeConfig,
    Trajectory,
    batch_arrays,
    draw_noise,
    drift_field,
    regularity_scan,
    run_rows,
    simulate,
    simulate_batch,
    step,
)
from graphwhs.energies import EnergySpec
from graphwhs.graphs import DensityState, DomainError, Graph, MomentumState
from graphwhs.rng import RngStream


def pair_spec(sigma=0.1, fisher=0.125):
    G = Graph.from_edges(2, [(0, 1, 1.0)])
    return EnergySpec(graph=G, fisher_coeff=fisher, sigma=np.full(2, sigma))


def start():
    return DensityState(rho=np.array([0.4, 0.6])), MomentumState(s=np.array([0.3, -0.1]))


class ConstControl:
    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def value_at(self, t):
        return self.v


# ---------------------------------------------------------------------------
# determinism and batching
# ---------------------------------------------------------------------------

def test_simulate_is_bitwise_deterministic():
    cfg = SdeConfig(energy=pair_spec(), T=0.1, dt=1e-3)
    rho0, x0 = start()
    a = simulate(cfg, rho0, x0, RngStream(5, 3))
    b = simulate(cfg, rho0, x0, RngStream(5, 3))
    assert np.array_equal(a.rho_path, b.rho_path)
    assert np.array_equal(a.s_path, b.s_path)
    assert np.array_equal(a.dw_path, b.dw_path)


def test_batch_rows_equal_single_paths():
    cfg = SdeConfig(energy=pair_spec(), T=0.05, dt=1e-3)
    rho0, x0 = start()
    batch = simulate_batch(cfg, rho0, x0, n_paths=4, master_seed=9)
    for traj in batch:
        single = simulate(cfg, rho0, x0, RngStream(9, traj.path_index))
        assert np.array_equal(traj.rho_path, single.rho_path)
        assert np.array_equal(traj.s_path, single.s_path)


def test_lockstep_rows_rescue_with_their_own_control_and_stream():
    # Two runs near the boundary share one noise draw in one batch; strong
    # noise forces step halvings and escapes in both.  Each run must match
    # a batch of its own, so a rescue uses the row's control and its
    # run-local stream, not the batch row index.
    cfg = SdeConfig(energy=pair_spec(sigma=1.0), T=0.1, dt=1e-2)
    starts = [([0.03, 0.97], [-1.0, 1.0]), ([0.03, 0.97], [-0.8, 0.9])]
    controls = np.array([[0.6, -0.2], [-0.3, 0.5]])
    paths = 8
    rho = np.repeat([r for r, _ in starts], paths, axis=0)
    s = np.repeat([x for _, x in starts], paths, axis=0)
    rows = RowControls(np.array([0.0, 0.1]), np.repeat(controls[:, None], paths, axis=0))
    noise = draw_noise(cfg, 4, paths)
    rho_T, s_T, alive, escape_time = run_rows(
        cfg, rho, s, noise, np.tile(np.arange(paths), 2), controls=rows
    )
    for b, (r, x) in enumerate(starts):
        own = SdeConfig(energy=cfg.energy, T=0.1, dt=1e-2, control=ConstControl(controls[b]))
        rho0, x0 = DensityState(rho=np.array(r)), MomentumState(s=np.array(x))
        ref = batch_arrays(own, rho0, x0, paths, 4)
        block = slice(b * paths, (b + 1) * paths)
        assert np.array_equal(ref[1][:, -1], rho_T[block])
        assert np.array_equal(ref[2][:, -1], s_T[block])
        assert np.array_equal(ref[6], alive[block])
        assert np.array_equal(ref[7], escape_time[block], equal_nan=True)
        assert 0 < ref[6].sum() < paths


def test_step_composition_matches_engine():
    cfg = SdeConfig(energy=pair_spec(), T=3e-3, dt=1e-3)
    rho0, x0 = start()
    traj = simulate(cfg, rho0, x0, RngStream(2, 0))
    state = (rho0, x0)
    rng = RngStream(2, 0)
    for k in range(3):
        state = step(cfg, state, float(traj.times[k]), 1e-3, rng, step_index=k)
    assert np.allclose(state[0].rho, traj.rho_path[-1], atol=1e-15)
    assert np.allclose(state[1].s, traj.s_path[-1], atol=1e-15)


# ---------------------------------------------------------------------------
# conservation and accuracy
# ---------------------------------------------------------------------------

def test_mass_is_conserved_to_rounding():
    cfg = SdeConfig(energy=pair_spec(sigma=0.3), T=0.2, dt=1e-3,
                    control=ConstControl([0.4, -0.2]))
    rho0, x0 = start()
    traj = simulate(cfg, rho0, x0, RngStream(31, 0))
    assert np.abs(traj.rho_path.sum(axis=1) - 1.0).max() <= 1e-12


def test_noiseless_energy_drift_is_second_order():
    rho0, x0 = start()
    ends = []
    for dt in (2e-3, 1e-3):
        cfg = SdeConfig(energy=pair_spec(sigma=0.0), T=0.2, dt=dt)
        traj = simulate(cfg, rho0, x0, RngStream(0, 0))
        ends.append(np.abs(traj.h0_path - traj.h0_path[0]).max())
    assert ends[0] > 0.0
    assert ends[1] <= ends[0] / 3.0  # order-2 integrator: factor ~4


def test_noiseless_state_error_is_second_order():
    rho0, x0 = start()

    def endpoint(dt):
        cfg = SdeConfig(energy=pair_spec(sigma=0.0), T=0.1, dt=dt)
        traj = simulate(cfg, rho0, x0, RngStream(0, 0))
        return np.concatenate([traj.rho_path[-1], traj.s_path[-1]])

    ref = endpoint(1.25e-4)
    err_coarse = np.abs(endpoint(1e-3) - ref).max()
    err_fine = np.abs(endpoint(5e-4) - ref).max()
    assert 2.5 <= err_coarse / err_fine <= 6.0


def test_control_potential_tracks_h0v():
    V = [0.5, -0.5]
    cfg = SdeConfig(energy=pair_spec(), T=0.05, dt=1e-3, control=ConstControl(V))
    rho0, x0 = start()
    traj = simulate(cfg, rho0, x0, RngStream(7, 1))
    gap = traj.h0v_path - traj.h0_path
    assert np.allclose(gap, traj.rho_path @ np.array(V), atol=1e-14)


def test_uneven_final_step_hits_horizon_exactly():
    cfg = SdeConfig(energy=pair_spec(), T=0.0095, dt=1e-3)
    rho0, x0 = start()
    traj = simulate(cfg, rho0, x0, RngStream(0, 0))
    assert traj.times[-1] == 0.0095
    assert traj.times.size == 11  # 9 full steps + 1 short one + initial node
    assert np.abs(traj.rho_path.sum(axis=1) - 1.0).max() <= 1e-12


def test_drift_field_shape_and_control_shift():
    spec = pair_spec()
    rho0, x0 = start()
    d_rho_dt, s_drift = drift_field(spec, None, rho0, x0)
    assert d_rho_dt.sum() == pytest.approx(0.0, abs=1e-15)
    _, shifted = drift_field(spec, np.array([1.0, 2.0]), rho0, x0)
    assert np.allclose(shifted, s_drift - np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# boundary handling
# ---------------------------------------------------------------------------

def escape_cfg(**kw):
    # Constant leftward drift on vertex 0 (arithmetic weight keeps g = 1/2):
    # rho_0(t) = 0.02 - 2.5 t crosses the 0.01 floor inside the first step.
    spec = EnergySpec(graph=Graph.from_edges(2, [(0, 1, 1.0)]), fisher_coeff=0.0)
    return SdeConfig(energy=spec, T=0.01, dt=0.01, boundary_floor=0.01, **kw)


def escape_start():
    return DensityState(rho=np.array([0.02, 0.98])), MomentumState(s=np.array([-5.0, 0.0]))


def test_single_path_escape_raises_with_partial_trajectory():
    rho0, x0 = escape_start()
    with pytest.raises(BoundaryEscapeError) as info:
        simulate(escape_cfg(), rho0, x0, RngStream(0, 0))
    assert info.value.trajectory is not None
    assert isinstance(info.value.trajectory, Trajectory)
    assert info.value.path_index == 0


def test_ensemble_escape_quota():
    rho0, x0 = escape_start()
    with pytest.raises(EscapeQuotaError):
        simulate_batch(escape_cfg(), rho0, x0, n_paths=3, master_seed=0)
    # With the quota lifted the escaped paths are dropped, not raised.
    out = simulate_batch(escape_cfg(), rho0, x0, n_paths=3, master_seed=0,
                         escape_quota=1.0)
    assert out == []
    # The quota is keyword-only, so a stale sixth positional argument fails loudly.
    with pytest.raises(TypeError):
        simulate_batch(escape_cfg(), rho0, x0, 3, 0, 1.0)


def test_step_splitting_rescues_a_tight_step():
    # One long step would cross the floor, but the flow turns before it:
    # a strong opposing potential decelerates the leftward drift.  The
    # split-step integrator must finish without escaping.
    spec = EnergySpec(
        graph=Graph.from_edges(2, [(0, 1, 1.0)]),
        fisher_coeff=0.25,   # barrier repels the boundary
    )
    cfg = SdeConfig(energy=spec, T=0.04, dt=0.04, boundary_floor=1e-6)
    rho0 = DensityState(rho=np.array([0.05, 0.95]))
    x0 = MomentumState(s=np.array([-1.5, 0.0]))
    traj = simulate(cfg, rho0, x0, RngStream(1, 0))
    assert traj.rho_path[-1].min() > 1e-6
    fine = SdeConfig(energy=spec, T=0.04, dt=0.0005, boundary_floor=1e-6)
    ref = simulate(fine, rho0, x0, RngStream(1, 0))
    assert np.allclose(traj.rho_path[-1], ref.rho_path[-1], atol=5e-3)


def test_config_validation():
    spec = pair_spec()
    with pytest.raises(DomainError):
        SdeConfig(energy=spec, t0=1.0, T=0.5)
    with pytest.raises(DomainError):
        SdeConfig(energy=spec, dt=0.0)
    with pytest.raises(DomainError):
        SdeConfig(energy=spec, boundary_floor=0.6)
    with pytest.raises(DomainError):
        SdeConfig(energy=spec, max_rejects=11)


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def test_trajectory_csv_roundtrip(tmp_path):
    cfg = SdeConfig(energy=pair_spec(), T=0.01, dt=1e-3)
    rho0, x0 = start()
    traj = simulate(cfg, rho0, x0, RngStream(4, 2))
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "rho_0", "rho_1", "S_0", "S_1", "H0", "H0V"]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:3], traj.rho_path)  # repr round-trips exactly
    assert np.array_equal(data[:, 5], traj.h0_path)


def reference_trajectory_csv(traj, path):
    # The row-by-row writer.
    n = traj.n
    header = ["t"] + [f"rho_{i}" for i in range(n)] + [f"S_{i}" for i in range(n)] + ["H0", "H0V"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.times.size):
            writer.writerow(
                [repr(float(traj.times[k]))]
                + [repr(float(v)) for v in traj.rho_path[k]]
                + [repr(float(v)) for v in traj.s_path[k]]
                + [repr(float(traj.h0_path[k])), repr(float(traj.h0v_path[k]))]
            )


@pytest.mark.parametrize("n", [2, 3, 8, 9, 12])
def test_trajectory_csv_bytes_match_row_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    rho = rng.dirichlet(np.ones(n), size=40)
    s = rng.normal(0.0, 3.0, (40, n))
    s[3, 0] = -0.0
    h0 = rng.normal(size=40) * 10.0 ** rng.integers(-20, 20, 40)
    traj = Trajectory(np.linspace(0.0, 0.039, 40), rho, s, h0, -h0 / 3.0,
                      rng.normal(size=(39, n)), 0, 0)
    traj.to_csv(tmp_path / "a.csv")
    reference_trajectory_csv(traj, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_regularity_scan_slope_and_degenerate_flag():
    cfg = SdeConfig(energy=pair_spec(sigma=0.2), T=0.1, dt=2.5e-4)
    rho0, x0 = start()
    horizons = [2.0 ** (-k) for k in range(4, 9)]
    scan = regularity_scan(cfg, rho0, x0, horizons, n_paths=200, master_seed=1)
    assert not scan.degenerate
    assert 0.7 <= scan.slope <= 1.4
    # A noiseless fixed point (uniform density, flat momentum) never moves,
    # so every modulus vanishes and the scan flags itself as degenerate.
    flat_cfg = SdeConfig(energy=pair_spec(sigma=0.0), T=0.1, dt=2.5e-4)
    flat = regularity_scan(
        flat_cfg,
        DensityState(rho=np.array([0.5, 0.5])),
        MomentumState(s=np.array([0.7, 0.7])),
        horizons, n_paths=4, master_seed=1,
    )
    assert flat.degenerate and flat.slope is None


def test_regularity_scan_input_guards():
    cfg = SdeConfig(energy=pair_spec(), T=0.1, dt=1e-3)
    rho0, x0 = start()
    with pytest.raises(DomainError):
        regularity_scan(cfg, rho0, x0, [0.1, 0.05], n_paths=2)
    with pytest.raises(DomainError):
        regularity_scan(cfg, rho0, x0, [0.1, 0.1, 0.05, 0.025], n_paths=2)
