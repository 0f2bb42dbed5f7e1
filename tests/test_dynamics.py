import csv
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from graphwhs import control, dynamics
from graphwhs.dynamics import (
    BoundaryEscapeError,
    ControlSignal,
    EscapeQuotaError,
    SdeConfig,
    Trajectory,
    batch_arrays,
    draw_noise,
    drift_field,
    midpoint_step,
    regularity_scan,
    run_rows,
    simulate,
    simulate_batch,
    step,
)
from graphwhs.energies import EnergySpec
from graphwhs.graphs import (
    LOGARITHMIC,
    DensityState,
    DomainError,
    Graph,
    MomentumState,
    ProbabilityWeight,
    ShapeError,
)
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


def final_node(nodes):
    """The last node a run yields."""
    for node in nodes:
        pass
    return node


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
    rows = ControlSignal([0.0, 0.1], np.repeat(controls[:, None], paths, axis=0), ell=1.0)
    noise = draw_noise(cfg, 4, paths)
    _, rho_T, s_T, _, alive, escape_time = final_node(run_rows(
        replace(cfg, control=rows), rho, s, noise, np.tile(np.arange(paths), 2)
    ))
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


@pytest.mark.parametrize("quota", [math.nan, -0.1, 1.5, True, "0.5"])
def test_ensemble_refuses_an_escape_quota_outside_0_1(quota):
    # "escaped > quota * n_paths" is False for every count at NaN, so a NaN
    # quota would keep any survivors: here all 3 paths escape.
    with pytest.raises(DomainError, match="escape_quota"):
        simulate_batch(escape_cfg(), *escape_start(), n_paths=3, master_seed=0,
                       escape_quota=quota)


def forbid_noise(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("paths were simulated before n_paths was checked")

    monkeypatch.setattr("graphwhs.dynamics.batch_arrays", no_simulation)


@pytest.mark.parametrize("paths", [0, True, 2.5, "4"])
def test_ensemble_and_scan_refuse_a_bad_path_count_before_any_noise(paths, monkeypatch):
    forbid_noise(monkeypatch)
    cfg = SdeConfig(energy=pair_spec(), T=0.1, dt=1e-3)
    with pytest.raises(DomainError, match="n_paths"):
        simulate_batch(cfg, *start(), n_paths=paths, master_seed=0)
    with pytest.raises(DomainError, match="n_paths"):
        regularity_scan(cfg, *start(), [0.08, 0.04, 0.02, 0.01], n_paths=paths)


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
    for times in ({"t0": 1.0, "T": 0.5}, {"T": np.inf}, {"t0": np.nan}, {"T": np.nan}):
        with pytest.raises(DomainError):
            SdeConfig(energy=spec, **times)
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            SdeConfig(energy=spec, dt=dt)
    with pytest.raises(DomainError):
        SdeConfig(energy=spec, boundary_floor=0.6)
    with pytest.raises(DomainError):
        SdeConfig(energy=spec, max_rejects=11)


@pytest.mark.parametrize("key, bad", [
    ("t0", False), ("T", True), ("dt", True), ("boundary_floor", True), ("T", "1.0"),
    ("dt", None), ("max_rejects", True), ("max_rejects", 2.5),
])
def test_config_refuses_a_bool_or_a_non_number(key, bad):
    # A bool would compare, and then be used, as 0 or 1.
    with pytest.raises(DomainError):
        SdeConfig(energy=pair_spec(), **{key: bad})


def test_control_signal_refuses_a_bool_radius():
    with pytest.raises(DomainError, match="control radius"):
        ControlSignal.constant([0.5, -0.5], 0.0, 0.1, True)
    with pytest.raises(DomainError, match="control radius"):
        ControlSignal([0.0, 0.1], [[0.0, 0.0]], "1.0")


def test_config_rejects_a_control_off_the_graph_or_the_horizon():
    spec = pair_spec()
    # One entry on a two-vertex graph would be broadcast over both vertices.
    with pytest.raises(ShapeError):
        SdeConfig(energy=spec, T=0.1, control=ControlSignal.constant([0.5], 0.0, 0.1, 1.0))
    with pytest.raises(ShapeError):
        SdeConfig(energy=spec, T=0.1,
                  control=ControlSignal([0.0, 0.1], np.zeros((4, 1, 3)), 1.0))
    # A signal on [0, 0.02] would be held at its last piece up to T = 0.1.
    short = ControlSignal.constant([0.5, -0.5], 0.0, 0.02, 1.0)
    with pytest.raises(DomainError):
        SdeConfig(energy=spec, T=0.1, control=short)
    late = ControlSignal.constant([0.5, -0.5], 0.05, 0.1, 1.0)
    with pytest.raises(DomainError):
        SdeConfig(energy=spec, T=0.1, control=late)
    cfg = SdeConfig(energy=spec, T=0.1)
    with pytest.raises(ShapeError):
        simulate(replace(cfg, control=ControlSignal.constant([0.5], 0.0, 0.1, 1.0)), *start(), 1)
    # Covering signals pass: wider than the horizon, stacked per row, or any
    # object with only value_at.
    wide = ControlSignal([0.0, 0.05, 0.2], np.zeros((3, 2, 2)), 1.0)
    assert replace(cfg, t0=0.05, control=wide).control is wide
    assert SdeConfig(energy=spec, T=0.1, control=ConstControl([0.1, 0.0])).control is not None


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


# Each value in every column, rolled so that each row mixes them; csv.writer
# quotes none of these reprs.
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-05, 2.0,
                  1.7976931348623157e308]


def test_trajectory_csv_special_values_match_row_writer(tmp_path):
    n = 2
    table = np.column_stack([np.roll(SPECIAL_FLOATS, c) for c in range(2 * n + 3)])
    traj = Trajectory(table[:, 0], table[:, 1:3], table[:, 3:5], table[:, 5], table[:, 6],
                      np.zeros((table.shape[0] - 1, n)), 0, 0)
    traj.to_csv(tmp_path / "a.csv")
    reference_trajectory_csv(traj, tmp_path / "b.csv")
    got = (tmp_path / "a.csv").read_bytes()
    assert got == (tmp_path / "b.csv").read_bytes()
    lines = got.decode().split("\r\n")
    assert lines[-1] == "" and len(lines) == table.shape[0] + 2
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    # Bit patterns, so -0.0 and nan compare too.
    assert np.array_equal(back.view(np.int64), table.view(np.int64))


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


def test_regularity_scan_escapes():
    # sigma = 5 near the boundary: some paths escape from S0 = (0, 0), every
    # path from S0 = (-3, 3), and with no path left the scan raises rather
    # than average an empty set.
    cfg = SdeConfig(energy=pair_spec(sigma=5.0), T=0.1, dt=0.01,
                    boundary_floor=1e-3, max_rejects=0)
    rho0 = DensityState(rho=np.array([0.002, 0.998]))
    horizons = [0.08, 0.04, 0.02, 0.01]
    alive = batch_arrays(replace(cfg, T=0.08), rho0, MomentumState(s=np.zeros(2)), 30, 0)[6]
    some = regularity_scan(cfg, rho0, MomentumState(s=np.zeros(2)), horizons, n_paths=30)
    assert some.escaped == int((~alive).sum()) > 0
    assert np.isfinite(some.moments).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EscapeQuotaError) as info:
            regularity_scan(cfg, rho0, MomentumState(s=np.array([-3.0, 3.0])), horizons,
                            n_paths=30)
    assert (info.value.escaped, info.value.total) == (30, 30)
    with pytest.raises(DomainError):
        regularity_scan(cfg, rho0, MomentumState(s=np.zeros(2)), horizons, n_paths=0)


def test_regularity_scan_input_guards():
    cfg = SdeConfig(energy=pair_spec(), T=0.1, dt=1e-3)
    rho0, x0 = start()
    with pytest.raises(DomainError):
        regularity_scan(cfg, rho0, x0, [0.1, 0.05], n_paths=2)
    with pytest.raises(DomainError):
        regularity_scan(cfg, rho0, x0, [0.1, 0.1, 0.05, 0.025], n_paths=2)


# ---------------------------------------------------------------------------
# the lockstep hot loop against the bodies it replaced
# ---------------------------------------------------------------------------

def reference_midpoint_step(energy, floor, rho, s, V, dt, dw):
    """``midpoint_step`` with numpy's short-axis ``min`` and ``np.clip``."""
    f1r, f1s = dynamics._drift_arrays(energy, V, rho, s)
    rm = rho + 0.5 * dt * f1r
    sm = s + 0.5 * dt * f1s
    bad = rm.min(axis=-1) <= floor
    f2r, f2s = dynamics._drift_arrays(energy, V, np.clip(rm, floor, None), sm)
    new_rho = rho + dt * f2r
    new_s = s + dt * f2s - energy.sigma * dw
    bad = bad | (new_rho.min(axis=-1) <= floor)
    return new_rho, new_s, bad


def test_midpoint_step_checks_the_midpoint_without_a_positive_floor():
    # The clamp skips the second positivity check only when it makes the
    # densities positive.
    rho = np.array([[1e-4, 1.0 - 1e-4]])
    s = np.array([[-3.0, 3.0]])
    with pytest.raises(DomainError):
        midpoint_step(pair_spec(), 0.0, rho, s, None, 0.01, np.zeros((1, 2)))
    *_, bad = midpoint_step(pair_spec(), 1e-9, rho, s, None, 0.01, np.zeros((1, 2)))
    assert bad[0]


def reference_run_rows(cfg, rho, s, noise, streams):
    """``run_rows`` as it was: a 2-D fancy-index noise gather and both states
    re-masked with ``np.where`` on every step; yields every node."""
    steps, last_dt, times = dynamics._time_grid(cfg)
    rows = rho.shape[0]
    control_at = cfg.control_value
    noise_rows = streams - noise.first_stream
    alive = np.ones(rows, dtype=bool)
    escape_time = np.full(rows, np.nan)
    V = control_at(float(times[0]))
    yield dynamics.Node(0, rho, s, V, alive, escape_time)
    for k in range(steps):
        t = float(times[k])
        dt_k = last_dt if k == steps - 1 else cfg.dt
        dw = noise.incs[noise_rows, k]
        new_rho, new_s, bad = reference_midpoint_step(
            cfg.energy, cfg.boundary_floor, rho, s, V, dt_k, dw
        )
        for p in np.flatnonzero(bad & alive):
            stream = RngStream(noise.master_seed, int(streams[p]))
            try:
                new_rho[p], new_s[p] = dynamics._advance_one(
                    cfg, dynamics._row_control(control_at, p), rho[p], s[p], t, dt_k, dw[p],
                    stream, k, itertools.count(), 0,
                )
            except BoundaryEscapeError as err:
                alive[p] = False
                escape_time[p] = err.time
                new_rho[p] = rho[p]
                new_s[p] = s[p]
        rho = np.where(alive[:, None], new_rho, rho)
        s = np.where(alive[:, None], new_s, s)
        V = control_at(float(times[k + 1]))
        yield dynamics.Node(k + 1, rho, s, V, alive, escape_time)


def assert_same_nodes(got, ref, fields=dynamics.Node._fields):
    """Two runs yield bitwise the same nodes, compared as they come (``alive``
    and ``escape_time`` change in place); returns the last of ``ref``."""
    for a, b in itertools.zip_longest(got, ref):
        assert a is not None and b is not None, "the runs yield different numbers of nodes"
        for name in fields:
            x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
            assert x.tobytes() == y.tobytes(), (b.k, name)
    return b


def costs_to_the_end(cost, cfg, starts, noise, k0=0):
    """``control._cost_estimates`` of runs from ``starts`` at node k0, each
    keeping its final row state (running cost included) as its one mark."""
    steps = dynamics._time_grid(cfg)[0]
    return control._cost_estimates(cost, cfg, starts, noise, cost.terminal_cost, k0, [steps])


def assert_same_estimates(got, ref):
    """Bitwise equal estimates: mean, standard error, path count and marked states."""
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert type(a) is type(b)
        if isinstance(b, EscapeQuotaError):
            continue
        assert a[:3] == b[:3]
        assert len(a.marks) == len(b.marks)
        for state, ref_state in zip(a.marks, b.marks):
            for x, y in zip(state, ref_state, strict=True):
                assert x.tobytes() == y.tobytes()


def ring_spec(n):
    """A ring (a path for n <= 3), a chord from n = 5, log-mean mobility and an interaction."""
    if n == 1:
        G = Graph(n=1, omega=np.zeros((1, 1)))
    else:
        edges = [(i, (i + 1) % n, 1.0 + 0.1 * i) for i in range(n if n > 3 else n - 1)]
        edges += [(0, n // 2, 0.7)] if n >= 5 else []
        G = Graph.from_edges(n, edges)
    raw = np.random.default_rng(n).normal(size=(n, n))
    return EnergySpec(graph=G, weight=ProbabilityWeight(LOGARITHMIC), interaction=raw + raw.T,
                      sigma=np.full(n, 0.3))


def hot_loop_states(n, rows, floor):
    """Interior rows, plus a row holding a NaN and one with a component below the floor."""
    rng = np.random.default_rng(10 * n + rows)
    rho = rng.dirichlet(np.ones(n), size=rows) if n > 1 else np.ones((rows, 1))
    rho = np.maximum(rho, 0.02)
    rho /= rho.sum(axis=-1, keepdims=True)
    s = rng.normal(scale=3.0, size=(rows, n))
    rho[1, -1] = np.nan
    rho[2, 0] = 0.01 * floor
    return rho, s, rng.normal(scale=0.1, size=(rows, n)), rng.normal(size=(rows, n))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 12])
@pytest.mark.parametrize("control", ["none", "shared", "per_row"])
def test_midpoint_step_matches_reference_bitwise(n, control):
    floor = 1e-9
    spec = ring_spec(n)
    rho, s, dw, V_rows = hot_loop_states(n, 64, floor)
    V = {"none": None, "shared": V_rows[0], "per_row": V_rows}[control]
    with np.errstate(invalid="ignore"):
        # dt = 0.05 pushes some midpoints below the floor, where the clamp acts.
        got = midpoint_step(spec, floor, rho, s, V, 0.05, dw)
        ref = reference_midpoint_step(spec, floor, rho, s, V, 0.05, dw)
        # A NaN compares false, so only the below-floor row is flagged for sure.
        assert ref[2][2] and not ref[2][1] and not ref[2].all()
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        for r in range(4):
            one = slice(r, r + 1)
            V1 = V if control != "per_row" else V[one]
            got = midpoint_step(spec, floor, rho[one], s[one], V1, 0.05, dw[one])
            ref = reference_midpoint_step(spec, floor, rho[one], s[one], V1, 0.05, dw[one])
            for a, b in zip(got, ref):
                assert a.tobytes() == b.tobytes()


def escape_setting():
    """Two starts near the boundary, 12 paths each, under strong noise on a
    shared constant control: rescues and escapes part-way through the run."""
    cfg = SdeConfig(energy=pair_spec(sigma=1.0), T=0.1, dt=1e-2,
                    control=ConstControl([0.6, -0.2]))
    paths = 12
    rho = np.repeat([[0.03, 0.97], [0.05, 0.95]], paths, axis=0)
    s = np.repeat([[-1.0, 1.0], [-0.8, 0.9]], paths, axis=0)
    return cfg, rho, s, draw_noise(cfg, 4, paths), np.tile(np.arange(paths), 2)


def test_run_rows_matches_reference_with_mid_run_escapes():
    # Rows that escape part-way leave the engine on its np.where branch for
    # the remaining steps; shared and per-row controls give, at every node,
    # the states, escapes and controls of the loop that re-masked on every step.
    cfg, rho, s, noise, streams = escape_setting()
    last = assert_same_nodes(
        run_rows(cfg, rho, s, noise, streams), reference_run_rows(cfg, rho, s, noise, streams)
    )
    assert 0 < last.alive.sum() < last.alive.size
    assert np.nanmin(last.escape_time) < cfg.T - 2 * cfg.dt

    per_row = replace(cfg, control=ControlSignal(
        [0.0, 0.05, 0.1], np.random.default_rng(3).uniform(-0.5, 0.5, size=(rho.shape[0], 2, 2)),
        ell=1.0,
    ))
    last = assert_same_nodes(
        run_rows(per_row, rho, s, noise, streams),
        reference_run_rows(per_row, rho, s, noise, streams),
    )
    assert 0 < last.alive.sum() < last.alive.size


@pytest.mark.parametrize("k0", [0, 3])
def test_run_rows_never_writes_a_yielded_state(k0):
    # _cost_estimates keeps the rho and s of a node without copying them,
    # as the start of later runs: nothing may write to them after the yield,
    # through rescues (which write rows of a new state) and escapes.
    cfg, rho, s, noise, streams = escape_setting()
    steps = dynamics._time_grid(cfg)[0]
    alive = escape_time = None
    if k0:
        start = next(node for node in run_rows(cfg, rho, s, noise, streams) if node.k == k0)
        rho, s = start.rho, start.s
        alive, escape_time = start.alive.copy(), start.escape_time.copy()
        given = (alive.copy(), escape_time.copy())
    kept = [
        (node, node.rho.copy(), node.s.copy())
        for node in run_rows(cfg, rho, s, noise, streams, k0, alive, escape_time)
    ]
    assert [node.k for node, _, _ in kept] == list(range(k0, steps + 1))
    for node, rho_k, s_k in kept:
        assert node.rho.tobytes() == rho_k.tobytes()
        assert node.s.tobytes() == s_k.tobytes()
    last = kept[-1][0]
    assert kept[0][0].rho is rho and kept[0][0].s is s
    assert 0 < last.alive.sum() < last.alive.size
    assert (last.escape_time > cfg.t0 + k0 * cfg.dt).any()  # escapes after the start
    if k0:
        # The start's alive and escape_time are the caller's: copied, not written.
        assert np.array_equal(alive, given[0])
        assert np.array_equal(escape_time, given[1], equal_nan=True)
        assert given[0].sum() > last.alive.sum()


def test_shared_signal_equals_its_per_row_repetition(monkeypatch):
    # An (m, n) signal shared by every row and the same signal repeated to
    # (rows, m, n) drive bitwise the same runs: states and escapes at every
    # node, and the running-cost sum, through step halvings and mid-run escapes.
    rescues = []
    advance = dynamics._advance_one

    def counted(*args):
        out = advance(*args)
        if args[-1] == 0:  # a whole step that was halved and kept its path alive
            rescues.append(args[7].stream_id)
        return out

    monkeypatch.setattr(dynamics, "_advance_one", counted)
    cfg, rho, s, noise, streams = escape_setting()
    paths = noise.incs.shape[0]
    shared = ControlSignal([0.0, 0.05, 0.1], [[0.6, -0.2], [-0.3, 0.5]], ell=1.0)
    repeated = ControlSignal(
        shared.breakpoints, np.repeat(shared.values[None], rho.shape[0], axis=0), ell=1.0
    )
    last = assert_same_nodes(
        run_rows(replace(cfg, control=shared), rho, s, noise, streams),
        run_rows(replace(cfg, control=repeated), rho, s, noise, streams),
        fields=("k", "rho", "s", "alive", "escape_time"),
    )
    assert rescues
    assert 0 < last.alive.sum() < last.alive.size
    assert np.nanmin(last.escape_time) < cfg.T - 2 * cfg.dt

    cost = control.CostSpec(
        family=control.BOUNDED_TRACKING, target_rho=[0.5, 0.5], target_x=[0.0, 0.0]
    )
    starts = [control._fresh(rho[lo], s[lo], paths) for lo in (0, paths)]
    assert_same_estimates(
        costs_to_the_end(cost, replace(cfg, control=shared), starts, noise),
        costs_to_the_end(cost, replace(cfg, control=repeated), starts, noise),
    )


@pytest.mark.parametrize("bp", [0.03, 0.035])
def test_run_rows_resumed_at_a_breakpoint_equals_the_full_run(monkeypatch, bp):
    # Controls A and B agree before bp.  A run of B that starts at bp's node
    # from the state A's run had there equals B's full run bitwise: final
    # states, escapes and the running cost, through rescues and escapes
    # after that node.  The node is the last one at or before bp; off the
    # grid (0.035), a rescue's half steps in the step holding bp may already
    # see B's second piece.
    rescues = []
    advance = dynamics._advance_one

    def counted(*args):
        out = advance(*args)
        if args[-1] == 0:  # a whole step that was halved and kept its path alive
            rescues.append(args[8])
        return out

    monkeypatch.setattr(dynamics, "_advance_one", counted)
    cfg, rho, s, noise, streams = escape_setting()
    paths = noise.incs.shape[0]
    first = [0.6, -0.2]
    a = replace(cfg, control=ControlSignal([0.0, bp, 0.1], [first, [-0.3, 0.5]], ell=1.0))
    b = replace(cfg, control=ControlSignal([0.0, bp, 0.1], [first, [0.4, -0.7]], ell=1.0))
    k0 = int(np.searchsorted(dynamics._time_grid(cfg)[2], bp, side="right")) - 1
    assert k0 == 3
    cost = control.CostSpec(
        family=control.BOUNDED_TRACKING, target_rho=[0.5, 0.5], target_x=[0.0, 0.0]
    )
    fresh = [control._fresh(rho[lo], s[lo], paths) for lo in (0, paths)]

    def marked(k):
        # Each run's row state at node k of A's run: (rho, s, alive, escape_time, cost).
        ests = control._cost_estimates(cost, a, fresh, noise, cost.terminal_cost, 0, [k])
        return [est.marks[0] for est in ests]

    marks = marked(k0)
    rescues.clear()
    got = costs_to_the_end(cost, b, marks, noise, k0)
    assert rescues and min(rescues) >= k0
    ref = costs_to_the_end(cost, b, fresh, noise)
    alive_k0 = np.concatenate([mark[2] for mark in marks])
    alive_T = np.concatenate([est.marks[0][2] for est in ref])
    assert (alive_k0 & ~alive_T).any()  # a path alive at k0 escapes later
    assert 0 < alive_T.sum() < alive_T.size
    assert_same_estimates(got, ref)
    if bp > 0.03:
        # Resumed one node later, past bp, the run misses the piece-1 control
        # that a rescue's half steps in step k0 used in B's full run.
        wrong = costs_to_the_end(cost, b, marked(k0 + 1), noise, k0 + 1)
        assert any(
            x.tobytes() != y.tobytes()
            for w, r in zip(wrong, ref) for x, y in zip(w.marks[0], r.marks[0])
        )
