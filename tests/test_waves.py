import csv
import dataclasses
import math

import numpy as np
import pytest

from graphwhs.dynamics import SdeConfig, Trajectory, simulate
from graphwhs.energies import EnergySpec
from graphwhs.graphs import (
    EPS_FLOOR,
    DensityState,
    DomainError,
    Graph,
    MomentumState,
    ProbabilityWeight,
    ShapeError,
)
from graphwhs.rng import RngStream
from graphwhs.waves import (
    VacuumError,
    WaveState,
    madelung_forward,
    madelung_inverse,
    nonlinear_laplacian,
    sse_nonlinearity,
    sse_residual,
    sse_step,
    unwrap_phase,
    wave_csv,
)


def pair_graph():
    return Graph.from_edges(2, [(0, 1, 1.0)])


def ring_with_chords(n=8):
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return Graph.from_edges(n, edges + [(0, n // 2, 0.5), (n // 4, 3 * n // 4, 0.5)])


def conjugate_spec(n_graph=None, sigma=0.0):
    # The flow and the wave equation agree exactly only for the logarithmic
    # kinetic mobility with barrier coefficient 1/4.
    G = n_graph or pair_graph()
    return EnergySpec(
        graph=G,
        weight=ProbabilityWeight("logarithmic"),
        fisher_coeff=0.25,
        sigma=np.full(G.n, sigma),
    )


# ---------------------------------------------------------------------------
# the transform itself
# ---------------------------------------------------------------------------

def test_forward_frozen_value():
    u = madelung_forward(
        DensityState(rho=np.array([0.5, 0.5])),
        MomentumState(s=np.array([0.0, math.pi / 2])),
    )
    assert u.u[0] == pytest.approx(math.sqrt(0.5))
    assert u.u[1] == pytest.approx(1j * math.sqrt(0.5))
    assert u.mass == pytest.approx(1.0, abs=1e-15)


def test_roundtrip_recovers_state_and_branch():
    rho = DensityState(rho=np.array([0.3, 0.45, 0.25]))
    s = MomentumState(s=np.array([0.2, 7.0, -9.5]))   # far off the principal branch
    u = madelung_forward(rho, s)
    assert np.abs(np.abs(u.u) ** 2 - rho.rho).max() <= 1e-15
    back_rho, back_s = madelung_inverse(u, s_prev=s)
    assert np.allclose(back_rho.rho, rho.rho, atol=1e-15)
    assert np.allclose(back_s.s, s.s, atol=1e-12)


def test_unwrap_frozen_value():
    assert unwrap_phase(
        np.array([math.pi / 2]), np.array([1.5 * math.pi + 0.1])
    )[0] == pytest.approx(2.5 * math.pi)


def test_inverse_without_reference_uses_principal_branch():
    u = madelung_forward(
        DensityState(rho=np.array([0.5, 0.5])), MomentumState(s=np.array([0.0, 5.0]))
    )
    _, s = madelung_inverse(u)
    assert s.s[1] == pytest.approx(5.0 - 2 * math.pi)


def test_wave_state_guards():
    with pytest.raises(DomainError):
        WaveState(u=np.array([1.0 + 0j, 1.0 + 0j]))
    with pytest.raises(ShapeError):
        WaveState(u=np.ones((2, 2), dtype=complex))
    with pytest.raises(VacuumError):
        WaveState(u=np.array([1.0 + 0j, 0.0 + 0j]))
    # A zero component sneaks past a zero floor but not past the inverse.
    u = WaveState(u=np.array([1.0 + 0j, 0.0 + 0j]), floor=0.0)
    with pytest.raises(VacuumError):
        madelung_inverse(u)


# ---------------------------------------------------------------------------
# Laplacian and nonlinearity
# ---------------------------------------------------------------------------

def test_laplacian_uniform_density_closed_form():
    # With uniform density the amplitude brackets vanish and only the phase
    # differences survive: Lap u_0 = -u_0 (i ds + ds^2 / 2) on two vertices.
    spec = conjugate_spec()
    s = np.array([0.7, -0.3])
    u = madelung_forward(DensityState(rho=np.array([0.5, 0.5])), MomentumState(s=s))
    lap = nonlinear_laplacian(spec, u, s_prev=MomentumState(s=s))
    ds = s[0] - s[1]
    expect0 = -u.u[0] * (1j * ds + 0.5 * ds * ds)
    assert lap[0] == pytest.approx(expect0, rel=1e-12)
    expect1 = -u.u[1] * (-1j * ds + 0.5 * ds * ds)
    assert lap[1] == pytest.approx(expect1, rel=1e-12)


def test_nonlinearity_by_variant():
    W = np.array([[0.0, 2.0], [2.0, 0.0]])
    poly = EnergySpec(graph=pair_graph(), interaction=W)
    rho = np.array([0.25, 0.75])
    assert np.allclose(sse_nonlinearity(poly, rho), W @ rho)
    logv = EnergySpec(graph=pair_graph(), variant="logarithmic_entropy")
    assert np.allclose(sse_nonlinearity(logv, rho), -np.log(rho))


# ---------------------------------------------------------------------------
# conjugacy along trajectories
# ---------------------------------------------------------------------------

def test_residual_decays_first_order_for_conjugate_pair():
    spec = conjugate_spec()
    rho0 = DensityState(rho=np.array([0.35, 0.65]))
    x0 = MomentumState(s=np.array([0.4, -0.2]))
    rms = []
    for dt in (1e-3, 5e-4):
        cfg = SdeConfig(energy=spec, T=0.02, dt=dt)
        traj = simulate(cfg, rho0, x0, RngStream(0, 0))
        rms.append(sse_residual(spec, None, traj).rms)
    assert rms[1] <= 0.6 * rms[0]


def test_residual_is_systematic_for_other_mobility():
    # Same check with the arithmetic mobility: the defect is O(1), not O(dt).
    G = pair_graph()
    spec = EnergySpec(graph=G, weight=ProbabilityWeight("average"),
                      fisher_coeff=0.25, sigma=np.zeros(2))
    rho0 = DensityState(rho=np.array([0.35, 0.65]))
    x0 = MomentumState(s=np.array([0.4, -0.2]))
    rms = []
    for dt in (1e-3, 5e-4):
        cfg = SdeConfig(energy=spec, T=0.02, dt=dt)
        traj = simulate(cfg, rho0, x0, RngStream(0, 0))
        rms.append(sse_residual(spec, None, traj).rms)
    assert rms[1] >= 0.8 * rms[0]
    assert rms[1] > 1e-3


def test_residual_subtracts_midpoint_noise():
    spec = conjugate_spec(sigma=0.15)
    rho0 = DensityState(rho=np.array([0.4, 0.6]))
    x0 = MomentumState(s=np.array([0.1, 0.3]))
    cfg = SdeConfig(energy=spec, T=0.01, dt=2.5e-4)
    traj = simulate(cfg, rho0, x0, RngStream(3, 0))
    stats = sse_residual(spec, None, traj)
    assert np.isfinite(stats.max_abs)
    assert stats.per_step.shape == (traj.times.size - 1,)
    # Without the noise correction the defect is an order of magnitude worse.
    quiet = EnergySpec(graph=spec.graph, weight=spec.weight,
                       fisher_coeff=0.25, sigma=np.zeros(2))
    wrong = sse_residual(quiet, None, traj)
    assert wrong.rms > 3.0 * stats.rms


def test_sse_step_transports_through_the_flow():
    spec = conjugate_spec()
    rho0 = DensityState(rho=np.array([0.3, 0.7]))
    x0 = MomentumState(s=np.array([0.2, -0.4]))
    cfg = SdeConfig(energy=spec, T=1e-3, dt=1e-3)
    traj = simulate(cfg, rho0, x0, RngStream(8, 0))
    u0 = madelung_forward(rho0, x0)
    u1 = sse_step(spec, None, u0, 1e-3, traj.dw_path[0], s_prev=x0)
    expect = madelung_forward(
        DensityState(rho=traj.rho_path[1]), MomentumState(s=traj.s_path[1])
    )
    assert np.allclose(u1.u, expect.u, atol=1e-14)


def test_wave_csv_format(tmp_path):
    spec = conjugate_spec()
    cfg = SdeConfig(energy=spec, T=0.005, dt=1e-3)
    traj = simulate(
        cfg,
        DensityState(rho=np.array([0.4, 0.6])),
        MomentumState(s=np.array([0.0, 0.5])),
        RngStream(1, 0),
    )
    out = tmp_path / "wave.csv"
    wave_csv(traj, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,Re(u_0),Im(u_0),Re(u_1),Im(u_1),mass"
    data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    assert data.shape == (traj.times.size, 6)
    assert np.abs(data[:, 5] - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# whole-horizon passes against per-step references
# ---------------------------------------------------------------------------

def reference_residual(spec, V, traj):
    # The per-step loop: one validated state and one Laplacian per interval.
    times, rho, s = traj.times, traj.rho_path, traj.s_path
    Varr = None if V is None else np.asarray(V, dtype=float)
    K = times.size - 1
    per_step = np.empty(K)
    worst = 0.0
    for k in range(K):
        dt = float(times[k + 1] - times[k])
        u0 = madelung_forward(
            DensityState(rho=rho[k], floor=min(EPS_FLOOR, rho[k].min() * 0.5)),
            MomentumState(s=s[k]),
        )
        u1 = np.sqrt(rho[k + 1]) * np.exp(1j * s[k + 1])
        lap = nonlinear_laplacian(spec, u0, s_prev=MomentumState(s=s[k]))
        rhs = -0.5 * lap + u0.u * sse_nonlinearity(spec, rho[k])
        if Varr is not None:
            rhs = rhs + u0.u * Varr
        defect = 1j * (u1 - u0.u) / dt - rhs
        if np.any(spec.sigma != 0.0):
            u_mid = 0.5 * (u0.u + u1)
            defect = defect - spec.sigma * u_mid * traj.dw_path[k] / dt
        a = np.abs(defect)
        per_step[k] = float(np.sqrt((a**2).mean()))
        worst = max(worst, float(a.max()))
    return worst, float(np.sqrt((per_step**2).mean())), per_step


def ring_trajectory(sigma, n=8, T=0.03, seed=2):
    spec = conjugate_spec(ring_with_chords(n), sigma=sigma)
    rho = 1.0 + 0.3 * np.cos(np.arange(n))
    cfg = SdeConfig(energy=spec, T=T, dt=1e-3)
    traj = simulate(cfg, DensityState(rho=rho / rho.sum()),
                    MomentumState(s=np.linspace(-0.5, 0.5, n)), RngStream(seed, 0))
    return spec, traj


def pair_trajectory(sigma):
    spec = conjugate_spec(sigma=sigma)
    cfg = SdeConfig(energy=spec, T=0.03, dt=1e-3)
    traj = simulate(cfg, DensityState(rho=np.array([0.35, 0.65])),
                    MomentumState(s=np.array([0.4, -0.2])), RngStream(4, 1))
    return spec, traj


@pytest.mark.parametrize("make", [pair_trajectory, ring_trajectory])
@pytest.mark.parametrize("sigma", [0.0, 0.2])
@pytest.mark.parametrize("with_V", [False, True])
@pytest.mark.parametrize("with_W", [False, True])
def test_residual_matches_per_step_reference_bitwise(make, sigma, with_V, with_W):
    spec, traj = make(sigma)
    n = spec.graph.n
    if with_W:
        W = np.cos(np.add.outer(np.arange(n), np.arange(n))) ** 2
        spec = dataclasses.replace(spec, interaction=W)
    V = np.linspace(-0.3, 0.4, n) if with_V else None
    stats = sse_residual(spec, V, traj)
    worst, rms, per_step = reference_residual(spec, V, traj)
    assert np.array_equal(stats.per_step, per_step)
    assert stats.max_abs == worst
    assert stats.rms == rms


def with_row(traj, k, rho_k):
    rho = traj.rho_path.copy()
    rho[k] = rho_k
    return Trajectory(traj.times, rho, traj.s_path, traj.h0_path, traj.h0v_path,
                      traj.dw_path, traj.seed, traj.path_index)


def raised_by(fn, *args):
    with pytest.raises((DomainError, VacuumError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


def vacuum_row(r):
    r = r.copy()
    r[1] += r[3]
    r[3] = 0.0
    return r


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_residual_raises_at_a_bad_mid_horizon_row():
    spec, traj = ring_trajectory(0.2)
    r = traj.rho_path[12]
    negative = r + 0.02 * np.array([1, -1, 0, 0, 0, 0, 0, 0]) - np.eye(8)[2] * (r[2] + 1e-3)
    cases = {
        "sum": (DomainError, r * (1.0 + 1e-9)),
        "floor": (DomainError, negative / negative.sum()),
        "vacuum": (VacuumError, vacuum_row(r)),
        "nan": (DomainError, np.where(np.arange(8) == 5, np.nan, r)),
    }
    for name, (kind, row) in cases.items():
        bad = with_row(traj, 12, row)
        got = raised_by(sse_residual, spec, None, bad)
        assert got[0] is kind, name
        assert got == raised_by(reference_residual, spec, None, bad), name
    # The first bad row decides the error, as in a step-by-step evaluation.
    both = with_row(with_row(traj, 20, r * (1.0 + 1e-9)), 9, vacuum_row(traj.rho_path[9]))
    assert raised_by(sse_residual, spec, None, both)[0] is VacuumError
    both = with_row(with_row(traj, 9, r * (1.0 + 1e-9)), 20, vacuum_row(traj.rho_path[20]))
    assert raised_by(sse_residual, spec, None, both)[0] is DomainError
    # The last state is only an endpoint; like the per-step loop, it is not validated.
    last = with_row(traj, traj.times.size - 1, r * (1.0 + 1e-9))
    assert np.array_equal(sse_residual(spec, None, last).per_step,
                          reference_residual(spec, None, last)[2])


def reference_wave_csv(traj, path):
    # The row-by-row writer.
    n = traj.n
    header = ["t"]
    for i in range(n):
        header += [f"Re(u_{i})", f"Im(u_{i})"]
    header.append("mass")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.times.size):
            u = np.sqrt(traj.rho_path[k]) * np.exp(1j * traj.s_path[k])
            row = [repr(float(traj.times[k]))]
            for i in range(n):
                row += [repr(float(u[i].real)), repr(float(u[i].imag))]
            row.append(repr(float((np.abs(u) ** 2).sum())))
            writer.writerow(row)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 12])
def test_wave_csv_bytes_match_row_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    rho = rng.dirichlet(np.ones(n), size=40)
    traj = Trajectory(np.linspace(0.0, 0.039, 40), rho, rng.normal(0.0, 3.0, (40, n)),
                      rng.random(40), rng.random(40), rng.normal(size=(39, n)), 0, 0)
    wave_csv(traj, tmp_path / "a.csv")
    reference_wave_csv(traj, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_full_size_trajectory_and_wave_csv_match_row_writers(tmp_path):
    # A 2,001-row path on the 8-vertex ring with chords, as the benchmark writes.
    from test_dynamics import reference_trajectory_csv

    _, traj = ring_trajectory(sigma=0.2, T=2.0)
    assert traj.times.size == 2001
    for write, reference in ((Trajectory.to_csv, reference_trajectory_csv),
                             (wave_csv, reference_wave_csv)):
        write(traj, tmp_path / "a.csv")
        reference(traj, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
