"""One-shot verification suite: thirteen numbered, self-contained checks.

Each check exercises a published contract of the package against an
independent oracle (brute force, quadrature, finite differences,
self-convergence) at desk scale, prints a single PASS/FAIL line, and
returns a structured result.  The acceptance test suite and the command
line `check` subcommand both run exactly these functions.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import fhat_norm, hjb_layer
from .control import BOUNDED_TRACKING, CostSpec, bellman_gap, legendre_fhat, value_function_mc
from .dynamics import ControlSignal, SdeConfig, batch_arrays, regularity_scan, simulate
from .energies import (
    LOGARITHMIC_ENTROPY,
    POLYNOMIAL_INTERACTION,
    EnergySpec,
    dominant_array,
    energy_gradients,
    gradient_arrays,
)
from .graphs import (
    AVERAGE,
    HARMONIC,
    LOGARITHMIC,
    DensityState,
    EdgeField,
    Graph,
    MomentumState,
    ProbabilityWeight,
    divergence,
    graph_gradient,
    rho_inner,
    two_node_distance_oracle,
    wasserstein_distance,
    weight_eval,
)
from .hjb import (
    PROFILE_DERIV_BOUND,
    SimplexGrid,
    TruncationFn,
    hjb_solve_backward,
    inf_convolution,
    metric_weights_for_value,
    phi_eval,
    semiconvexity_defect,
    sup_convolution,
    truncation_identity_check,
)
from .rng import RngStream
from .waves import madelung_forward, sse_residual


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  criterion {self.index:2d}: {self.name} ({self.detail}) [{self.seconds:.1f}s]"


def _result(index, name, t0, passed, detail) -> CheckResult:
    return CheckResult(index, name, bool(passed), detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Shared two-vertex benchmark: arithmetic-mean mobility, quadratic+interaction
# energy with no coupling matrix, saturating tracking cost, unit control ball.
# ---------------------------------------------------------------------------

BENCH_ELL = 1.0
BENCH_T = 0.25
BENCH_TBAR = 0.125


def benchmark_energy() -> EnergySpec:
    G = Graph.from_edges(2, [(0, 1, 1.0)])
    return EnergySpec(graph=G, sigma=np.array([0.2, 0.2]))


def benchmark_cost() -> CostSpec:
    return CostSpec(
        family=BOUNDED_TRACKING,
        control_coeff=0.5,
        target_rho=np.array([0.5, 0.5]),
        target_x=np.array([0.0, 0.0]),
        bound=1.0,
        terminal_weight=1.0,
    )


def benchmark_state():
    return (
        DensityState(rho=np.array([0.35, 0.65])),
        MomentumState(s=np.array([0.4, -0.2])),
    )


def _random_connected_graph(rng, n: int) -> Graph:
    pairs = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        pairs[(u, v)] = float(rng.uniform(0.5, 2.0))
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if i != j:
            pairs.setdefault((int(i), int(j)), float(rng.uniform(0.5, 2.0)))
    return Graph.from_edges(n, [(i, j, w) for (i, j), w in pairs.items()])


def _random_interior_rho(rng, n: int, floor: float = 0.05) -> np.ndarray:
    raw = rng.dirichlet(np.ones(n))
    raw = np.maximum(raw, floor)
    return raw / raw.sum()


def _random_energy(rng, n: int, variant: str) -> EnergySpec:
    G = _random_connected_graph(rng, n)
    kind = (AVERAGE, LOGARITHMIC, HARMONIC)[int(rng.integers(0, 3))]
    interaction = None
    if variant == POLYNOMIAL_INTERACTION:
        raw = rng.normal(0.0, 0.5, (n, n))
        interaction = (raw + raw.T) / 2.0
    return EnergySpec(
        graph=G,
        variant=variant,
        weight=ProbabilityWeight(kind),
        interaction=interaction,
        sigma=rng.uniform(0.0, 0.3, n),
    )


# ---------------------------------------------------------------------------
# 1. probability-weight axioms
# ---------------------------------------------------------------------------

def criterion_1() -> CheckResult:
    from scipy.integrate import quad  # on first use: importing graphwhs skips scipy.integrate

    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    ok = True
    for kind in (AVERAGE, LOGARITHMIC, HARMONIC):
        w = ProbabilityWeight(kind)
        t = rng.uniform(1e-3, 3.0, 1000)
        r = rng.uniform(1e-3, 3.0, 1000)
        # Push a tenth of the samples against the logarithmic branch switch.
        r[:100] = t[:100] * (1.0 + rng.uniform(-1e-9, 1e-9, 100))
        tol = np.where(np.abs(t - r) <= 1e-7 * np.maximum(t, r), 1e-9, 1e-12)

        g = np.asarray(weight_eval(w, t, r))
        dev_sym = np.abs(g - weight_eval(w, r, t))
        dev_low = np.minimum(t, r) - g
        dev_high = g - np.maximum(t, r)
        lam = rng.uniform(0.1, 2.0, 1000)
        dev_hom = np.abs(weight_eval(w, lam * t, lam * r) - lam * g)
        t2, r2 = rng.uniform(1e-3, 3.0, (2, 1000))
        mid = weight_eval(w, (t + t2) / 2.0, (r + r2) / 2.0)
        dev_conc = (g + weight_eval(w, t2, r2)) / 2.0 - mid
        for dev in (dev_sym, dev_low, dev_high, dev_hom, dev_conc):
            worst = max(worst, float(np.max(dev)))
            ok = ok and bool(np.all(dev <= tol))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            integral, _ = quad(
                lambda s: 1.0 / math.sqrt(max(weight_eval(w, s, 1.0 - s), 1e-300)),
                0.0, 1.0, limit=200,
            )
        ok = ok and np.isfinite(integral)
    return _result(1, "probability-weight axioms", t0, ok, f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. integration by parts
# ---------------------------------------------------------------------------

def criterion_2() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        G = _random_connected_graph(rng, n)
        w = ProbabilityWeight((AVERAGE, LOGARITHMIC, HARMONIC)[int(rng.integers(0, 3))])
        rho = DensityState(rho=_random_interior_rho(rng, n))
        phi = rng.normal(0.0, 1.0, n)
        raw = rng.normal(0.0, 1.0, (n, n))
        e = G.edge_list
        ups = EdgeField(values=(raw - raw.T)[e.ii, e.jj], graph=G)
        lhs = rho_inner(G, w, rho, graph_gradient(G, phi), ups)
        rhs = float(phi @ divergence(G, w, rho, ups))
        worst = max(worst, abs(lhs + rhs))
    return _result(2, "integration by parts", t0, worst <= 1e-10, f"max defect {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. analytic gradients vs finite differences
# ---------------------------------------------------------------------------

def criterion_3() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    h = 1e-6
    worst = 0.0
    for trial in range(100):
        variant = POLYNOMIAL_INTERACTION if trial % 2 == 0 else LOGARITHMIC_ENTROPY
        n = int(rng.integers(2, 6))
        spec = _random_energy(rng, n, variant)
        rho = _random_interior_rho(rng, n, floor=0.08)
        x = rng.normal(0.0, 1.0, n)
        grads = energy_gradients(
            spec, DensityState(rho=rho), MomentumState(s=x)
        )
        fd_rho = np.empty(n)
        fd_x = np.empty(n)
        for i in range(n):
            er = np.zeros(n)
            er[i] = h
            fd_rho[i] = (
                dominant_array(spec, rho + er, x) - dominant_array(spec, rho - er, x)
            ) / (2.0 * h)
            fd_x[i] = (
                dominant_array(spec, rho, x + er) - dominant_array(spec, rho, x - er)
            ) / (2.0 * h)
        fd_hess = np.empty((n, n))
        for i in range(n):
            er = np.zeros(n)
            er[i] = h
            gp = gradient_arrays(spec, rho, x + er)[1]
            gm = gradient_arrays(spec, rho, x - er)[1]
            fd_hess[i] = (gp - gm) / (2.0 * h)
        scale_r = np.maximum(1.0, np.abs(grads.d_rho))
        scale_x = np.maximum(1.0, np.abs(grads.d_x))
        scale_h = np.maximum(1.0, np.abs(grads.hess_x))
        worst = max(
            worst,
            float(np.max(np.abs(grads.d_rho - fd_rho) / scale_r)),
            float(np.max(np.abs(grads.d_x - fd_x) / scale_x)),
            float(np.max(np.abs(grads.hess_x - fd_hess) / scale_h)),
        )
    return _result(
        3, "gradient oracle (finite differences)", t0, worst <= 1e-6,
        f"max relative error {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. mass conservation
# ---------------------------------------------------------------------------

def criterion_4() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_tangent = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        spec = _random_energy(rng, n, POLYNOMIAL_INTERACTION)
        rho = _random_interior_rho(rng, n)
        x = rng.normal(0.0, 1.0, n)
        _, d_x = gradient_arrays(spec, rho, x)
        worst_tangent = max(worst_tangent, abs(float(d_x.sum())))

    G = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    spec = EnergySpec(graph=G, sigma=np.full(3, 0.1))
    cfg = SdeConfig(energy=spec, T=1.0, dt=1e-3)
    rho0 = DensityState(rho=np.array([0.3, 0.45, 0.25]))
    x0 = MomentumState(s=np.array([0.2, -0.1, 0.3]))
    _, rho_out, _, _, _, _, alive, _ = batch_arrays(cfg, rho0, x0, 100, 404)
    mass_dev = float(np.abs(rho_out[alive].sum(axis=-1) - 1.0).max())
    d_x_path = gradient_arrays(spec, rho_out[alive], np.zeros_like(rho_out[alive]))[1]
    worst_tangent = max(worst_tangent, float(np.abs(d_x_path.sum(axis=-1)).max()))
    ok = worst_tangent <= 1e-12 and mass_dev <= 1e-9
    return _result(
        4, "mass conservation", t0, ok,
        f"tangency {worst_tangent:.2e}, mass drift {mass_dev:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. wave-transform consistency
# ---------------------------------------------------------------------------

def criterion_5() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_mod = 0.0
    worst_ratio = 0.0
    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 4))
        G = _random_connected_graph(rng, n)
        raw = rng.normal(0.0, 0.3, (n, n))
        spec = EnergySpec(
            graph=G,
            weight=ProbabilityWeight(LOGARITHMIC),
            interaction=(raw + raw.T) / 2.0,
            fisher_coeff=0.25,
            sigma=np.zeros(n),
        )
        rho0 = DensityState(rho=_random_interior_rho(rng, n, floor=0.15))
        x0 = MomentumState(s=rng.normal(0.0, 0.5, n))
        V = rng.normal(0.0, 0.5, n)
        control = ControlSignal.constant(V, 0.0, 0.04, 1.0 + float(np.linalg.norm(V)))
        rms = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            cfg = SdeConfig(energy=spec, T=0.04, dt=dt, control=control)
            traj = simulate(cfg, rho0, x0, RngStream(0, 0))
            for k in range(traj.times.size):
                u = madelung_forward(
                    DensityState(rho=traj.rho_path[k]), MomentumState(s=traj.s_path[k])
                )
                worst_mod = max(
                    worst_mod, float(np.abs(np.abs(u.u) ** 2 - traj.rho_path[k]).max())
                )
            stats = sse_residual(spec, V, traj)
            rms.append(stats.rms)
        r1, r2 = rms[1] / rms[0], rms[2] / rms[1]
        worst_ratio = max(worst_ratio, r1, r2)
        ok = ok and r1 <= 0.6 and r2 <= 0.6
    ok = ok and worst_mod <= 1e-12
    return _result(
        5, "wave-transform consistency", t0, ok,
        f"|u|^2 defect {worst_mod:.2e}, worst halving ratio {worst_ratio:.3f}",
    )


# ---------------------------------------------------------------------------
# 6. energy regularity scaling
# ---------------------------------------------------------------------------

def criterion_6() -> CheckResult:
    t0 = time.perf_counter()
    spec = benchmark_energy()
    rho0, x0 = benchmark_state()
    horizons = [2.0 ** (-k) for k in range(4, 9)]
    cfg = SdeConfig(energy=spec, T=max(horizons), dt=2.5e-4)
    scan = regularity_scan(cfg, rho0, x0, horizons, n_paths=1000, master_seed=606)
    ok = (not scan.degenerate) and 0.8 <= scan.slope <= 1.3
    return _result(
        6, "energy regularity scaling", t0, ok, f"log-log slope {scan.slope:.3f}"
    )


# ---------------------------------------------------------------------------
# 7. Legendre transform vs ball-grid brute force
# ---------------------------------------------------------------------------

def criterion_7() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    cost = CostSpec(control_coeff=0.5)
    ell = 1.0
    m = 100
    ax = np.linspace(-ell, ell, m)
    Vx, Vy = np.meshgrid(ax, ax, indexing="ij")
    mask = Vx**2 + Vy**2 <= ell**2
    Vx, Vy = Vx[mask], Vy[mask]
    grid_h = 2.0 * ell / (m - 1)
    rho = DensityState(rho=np.array([0.5, 0.5]))
    x = MomentumState(s=np.zeros(2))
    worst = 0.0
    for _ in range(100):
        q = rng.normal(0.0, 0.8, 2)
        closed = legendre_fhat(cost, 0.0, rho, x, q, ell)
        brute = float(
            (q[0] * Vx + q[1] * Vy - cost.control_coeff * (Vx**2 + Vy**2)).max()
        )
        worst = max(worst, abs(closed - brute))
    qa = rng.normal(0.0, 1.0, (1000, 2))
    qb = rng.normal(0.0, 1.0, (1000, 2))
    fa = fhat_norm(np.sqrt((qa**2).sum(axis=1)), cost.control_coeff, ell)
    fb = fhat_norm(np.sqrt((qb**2).sum(axis=1)), cost.control_coeff, ell)
    lip = np.abs(fa - fb) - ell * np.sqrt(((qa - qb) ** 2).sum(axis=1))
    lip_worst = float(lip.max())
    ok = worst <= 2.0 * grid_h and lip_worst <= 1e-9
    return _result(
        7, "Legendre transform oracle", t0, ok,
        f"grid gap {worst:.2e} (allowed {2*grid_h:.2e}), Lipschitz excess {lip_worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. dynamic-programming consistency (nested Monte Carlo)
# ---------------------------------------------------------------------------

def criterion_8() -> CheckResult:
    t0 = time.perf_counter()
    spec = benchmark_energy()
    cost = benchmark_cost()
    rho0, x0 = benchmark_state()
    cfg = SdeConfig(energy=spec, T=BENCH_T, dt=2.5e-3)
    control_class = {"ell": BENCH_ELL, "m": 2}
    gap, se = bellman_gap(
        cost, cfg, 0.0, BENCH_TBAR, rho0, x0, control_class,
        n_paths=2000, master_seed=808,
    )
    ok = gap <= 3.0 * se
    return _result(
        8, "dynamic-programming consistency", t0, ok,
        f"gap {gap:.4f} vs 3*SE {3*se:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. energy cutoff apparatus
# ---------------------------------------------------------------------------

def criterion_9() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    # Plateau values and derivative bounds.
    for R in (1.0, 10.0, 100.0):
        tr = TruncationFn(R=R)
        v_in = phi_eval(tr, 0.5 * R)
        v_out = phi_eval(tr, 3.0 * R)
        ok = ok and v_in == (1.0, 0.0, 0.0)
        ok = ok and abs(v_out[0] - R**-tr.beta) == 0.0 and v_out[1] == 0.0
        rs = np.linspace(0.0, 3.0 * R, 30001)
        _, d1, d2 = phi_eval(tr, rs)
        ok = ok and float(np.abs(d1).max()) * R <= PROFILE_DERIV_BOUND
        ok = ok and float(np.abs(d2).max()) * R * R <= PROFILE_DERIV_BOUND

    # Mixed-pairing identity on random states, a third forced into the band.
    tr = TruncationFn(R=1.5)
    worst = 0.0
    band_hits = 0
    counter = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 5))
        spec = _random_energy(rng, n, POLYNOMIAL_INTERACTION)
        rho = DensityState(rho=_random_interior_rho(rng, n))
        x = rng.normal(0.0, 1.0, n)
        if trial % 3 == 0:
            # Rescale x so the energy lands inside the transition band.
            h0 = float(dominant_array(spec, rho.rho, x))
            base = float(dominant_array(spec, rho.rho, np.zeros(n)))
            kin = h0 - base
            if kin > 1e-12 and base < 1.4 * tr.R:
                target = 1.5 * tr.R - base
                x = x * math.sqrt(max(target, 1e-6) / kin)
        xs = MomentumState(s=x)
        h0 = float(dominant_array(spec, rho.rho, x))
        in_band = tr.R < h0 < 2.0 * tr.R
        band_hits += in_band
        worst = max(worst, truncation_identity_check(spec, tr, rho, xs))
        if in_band and counter < 1e-4:
            counter = max(
                counter, truncation_identity_check(spec, tr, rho, xs, break_tangency=0.5)
            )
    ok = ok and worst <= 1e-8 and band_hits >= 100 and counter > 1e-4
    return _result(
        9, "energy cutoff apparatus", t0, ok,
        f"identity {worst:.2e}, band states {band_hits}, counter-test {counter:.2e}",
    )


# ---------------------------------------------------------------------------
# 10. sup-/inf-convolution properties
# ---------------------------------------------------------------------------

def criterion_10() -> CheckResult:
    t0 = time.perf_counter()
    spec = benchmark_energy()
    cost = benchmark_cost()
    grid = SimplexGrid.build(spec, BENCH_ELL, BENCH_T, shape=(17, 17, 17, 32))
    gvf = hjb_solve_backward(grid, cost, spec, BENCH_ELL)
    weights = metric_weights_for_value(2)
    axes = gvf.axes
    U = gvf.values
    gaps = []
    min_defect = np.inf
    ok = True
    for theta in (0.1, 0.05, 0.025):
        up = sup_convolution(U, axes, theta, weights)
        ok = ok and bool((up >= U - 1e-12).all())
        min_defect = min(min_defect, semiconvexity_defect(up, axes, theta, weights))
        down = inf_convolution(U, axes, theta, weights)
        ok = ok and bool((down <= U + 1e-12).all())
        ok = ok and semiconvexity_defect(-down, axes, theta, weights) >= -1e-9
        gaps.append(float(np.abs(up - U).max()))
    ok = ok and min_defect >= -1e-9
    ok = ok and gaps[0] >= gaps[1] - 1e-12 and gaps[1] >= gaps[2] - 1e-12
    return _result(
        10, "sup/inf convolution", t0, ok,
        f"gaps {gaps[0]:.3f} > {gaps[1]:.3f} > {gaps[2]:.3f}, defect {min_defect:.1e}",
    )


# ---------------------------------------------------------------------------
# 11. grid-solver sanity
# ---------------------------------------------------------------------------

def criterion_11() -> CheckResult:
    t0 = time.perf_counter()
    spec = benchmark_energy()
    cost = benchmark_cost()

    # Constant solution: pure control cost, constant terminal.
    flat_cost = CostSpec(control_coeff=0.5, terminal_offset=0.7)
    grid = SimplexGrid.build(spec, BENCH_ELL, BENCH_T, shape=(17, 17, 17, 32))
    gvf = hjb_solve_backward(grid, flat_cost, spec, BENCH_ELL)
    const_dev = float(np.abs(gvf.values - 0.7).max())

    # Self-convergence at the initial layer on shared spatial nodes.
    shapes = [(9, 9, 9, 16), (17, 17, 17, 32), (33, 33, 33, 64)]
    layers = []
    for shape in shapes:
        g = SimplexGrid.build(spec, BENCH_ELL, BENCH_T, shape=shape)
        layers.append(hjb_solve_backward(g, cost, spec, BENCH_ELL).values[0])
    d_coarse = float(np.abs(layers[1][::2, ::2, ::2] - layers[0]).max())
    d_fine = float(np.abs(layers[2][::2, ::2, ::2] - layers[1]).max())
    ratio = d_fine / d_coarse

    # Monotonicity on random stencils: bumping any neighbor of the previous
    # layer must not decrease the updated center value.
    rng = np.random.default_rng(1111)
    violations = 0
    worst_drop = 0.0
    for _ in range(1000):
        U = rng.normal(0.0, 1.0, (5, 5, 5))
        a = rng.uniform(-1.0, 1.0, U.shape)
        b1 = rng.uniform(-2.3, 2.3, U.shape)
        b2 = rng.uniform(-2.3, 2.3, U.shape)
        gf = np.zeros(U.shape)
        hr, h1, h2 = 0.05, 0.125, 0.125
        sig = 0.04
        denom = 1.0 / hr + 2.3 / h1 + 2.3 / h2 + sig / h1**2 + sig / h2**2 + 1.0 / h1 + 1.0 / h2
        dt = 0.9 / denom
        base = hjb_layer(U, a, b1, b2, gf, sig, sig, hr, h1, h2, dt, 1.0, 0.5)
        idx = tuple(rng.integers(1, 4, 3))
        nb = list(idx)
        axis = int(rng.integers(0, 3))
        nb[axis] += int(rng.choice([-1, 1]))
        Up = U.copy()
        Up[tuple(nb)] += float(rng.uniform(0.01, 0.5))
        bumped = hjb_layer(Up, a, b1, b2, gf, sig, sig, hr, h1, h2, dt, 1.0, 0.5)
        drop = base[idx] - bumped[idx]
        worst_drop = max(worst_drop, float(drop))
        violations += drop > 1e-12
    ok = const_dev <= 1e-12 and ratio <= 0.7 and violations == 0
    return _result(
        11, "grid-solver sanity", t0, ok,
        f"constant {const_dev:.1e}, convergence ratio {ratio:.3f}, "
        f"stencil violations {violations}",
    )


# ---------------------------------------------------------------------------
# 12. grid solver vs Monte Carlo
# ---------------------------------------------------------------------------

def criterion_12() -> CheckResult:
    t0 = time.perf_counter()
    spec = benchmark_energy()
    cost = benchmark_cost()
    coarse = hjb_solve_backward(
        SimplexGrid.build(spec, BENCH_ELL, BENCH_T, shape=(17, 17, 17, 32)),
        cost, spec, BENCH_ELL,
    )
    fine = hjb_solve_backward(
        SimplexGrid.build(spec, BENCH_ELL, BENCH_T, shape=(33, 33, 33, 64)),
        cost, spec, BENCH_ELL,
    )
    states = [
        (0.30, 0.20, -0.20),
        (0.50, 0.00, 0.00),
        (0.62, -0.35, 0.15),
        (0.42, 0.50, 0.30),
        (0.55, -0.10, -0.40),
    ]
    cfg = SdeConfig(energy=spec, T=BENCH_T, dt=2.5e-3)
    report = []
    ok = True
    for i, (r1, x1, x2) in enumerate(states):
        grid_val = fine.evaluate(0.0, r1, x1, x2)
        trunc = abs(grid_val - coarse.evaluate(0.0, r1, x1, x2))
        est = value_function_mc(
            cost, cfg, 0.0,
            DensityState(rho=np.array([r1, 1.0 - r1])),
            MomentumState(s=np.array([x1, x2])),
            {"ell": BENCH_ELL, "m": 2}, n_paths=2000, master_seed=1200 + i,
        )
        diff = abs(grid_val - est.value)
        allowed = max(0.10 * abs(est.value), 3.0 * est.std_error + trunc)
        ok = ok and diff <= allowed
        report.append(f"{diff:.3f}<={allowed:.3f}")
    return _result(
        12, "grid solver vs Monte Carlo", t0, ok, "; ".join(report)
    )


# ---------------------------------------------------------------------------
# 13. transport distance vs quadrature oracle
# ---------------------------------------------------------------------------

def criterion_13() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(1313)
    G = Graph.from_edges(2, [(0, 1, 1.0)])
    worst = 0.0
    for kind in (AVERAGE, LOGARITHMIC, HARMONIC):
        w = ProbabilityWeight(kind)
        for _ in range(10):
            a, b = rng.uniform(0.1, 0.9, 2)
            src = DensityState(rho=np.array([a, 1.0 - a]))
            dst = DensityState(rho=np.array([b, 1.0 - b]))
            dist = wasserstein_distance(G, w, src, dst, steps=24, iters=400)
            oracle = two_node_distance_oracle(w, 1.0, a, b)
            worst = max(worst, abs(dist - oracle))
    return _result(
        13, "transport distance oracle", t0, worst <= 1e-3, f"max error {worst:.2e}"
    )


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
)


def run_all(indices=None, echo=print) -> list[CheckResult]:
    """Run the numbered checks (all by default), printing one line each."""
    wanted = set(indices) if indices else set(range(1, len(ALL_CRITERIA) + 1))
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if i not in wanted:
            continue
        res = fn()
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
