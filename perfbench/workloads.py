"""The benchmark's three workloads: inputs from a seed, one measured pass, checks.

Each workload has three functions.  ``make_*`` turns the seed into the
inputs the program receives (nothing else varies between seeds).  ``warm_*``
runs a small instance of the same calls before timing.  ``run_*`` makes one pass of public graphwhs calls, writes its artifacts under
``out_dir`` and returns the outputs that the traced and untraced passes must
reproduce bitwise.  Every public call is one operation; an operation fails
when it raises or when one of its output checks fails.

Library functions are looked up on their modules at call time
(``control.bellman_gap``, not a name bound at import), so the tracer's
rebinding in ``tracer.py`` reaches the calls this file makes as well.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from graphwhs import checks, control, dynamics, graphs, hjb, waves
from graphwhs.energies import EnergySpec
from graphwhs.graphs import DensityState, Graph, MomentumState, ProbabilityWeight
from graphwhs.rng import RngStream

DEFAULT_SEED = 1

SIZES = {
    "mc_nested": {
        "full": {"n_paths": 200, "inner_paths": 100, "lattice": (2, 2, 2), "golden_iters": 4,
                 "dt": 2.5e-3},
        "smoke": {"n_paths": 16, "inner_paths": 8, "lattice": (2, 2, 2), "golden_iters": 1,
                  "dt": 2.5e-2},
    },
    "grid_roundtrip": {
        "full": {"coarse": (17, 17, 17, 32), "fine": (25, 25, 25, 48), "probes": 200},
        "smoke": {"coarse": (5, 5, 5, 8), "fine": (9, 9, 9, 16), "probes": 4},
    },
    "paths_long": {
        "full": {"n_paths": 16, "T": 2.0, "path_steps": 16, "path_iters": 40},
        "smoke": {"n_paths": 2, "T": 0.05, "path_steps": 8, "path_iters": 4},
    },
}


class Ops:
    """Attempted and failed operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed_labels: set[str] = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_labels)

    def run(self, label: str, fn, *args, **kwargs):
        # An exception is counted as a failure and propagates: it ends the pass.
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            self.failed_labels.add(label)
            self.problems.append(f"{label}: raised {err!r}")
            raise

    def check(self, label: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failed_labels.add(label)
            self.problems.append(f"{label}: {detail}")


def _dump(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# mc_nested: the nested Monte-Carlo DP-gap estimate of criterion 8, reduced
# ---------------------------------------------------------------------------

def make_mc_nested(seed: int, size: str = "full") -> dict:
    rng = np.random.default_rng([seed, 8])
    rho0, x0 = checks.benchmark_state()
    r1 = float(rho0.rho[0] + rng.uniform(-0.05, 0.05))
    x = x0.s + rng.uniform(-0.05, 0.05, 2)
    energy = checks.benchmark_energy()
    sz = SIZES["mc_nested"][size]
    return {
        "cost": checks.benchmark_cost(),
        "cfg": dynamics.SdeConfig(energy=energy, T=checks.BENCH_T, dt=sz["dt"]),
        "t_bar": checks.BENCH_TBAR,
        "rho": DensityState(rho=np.array([r1, 1.0 - r1])),
        "x": MomentumState(s=x),
        "control_class": {
            "ell": checks.BENCH_ELL, "m": 2, "golden_iters": sz["golden_iters"], "sweeps": 1,
        },
        "n_paths": sz["n_paths"],
        "inner_paths": sz["inner_paths"],
        "lattice": sz["lattice"],
        "master_seed": int(rng.integers(1, 2**31)),
    }


def warm_mc_nested(inp: dict, out_dir: Path) -> None:
    dynamics.batch_arrays(inp["cfg"], inp["rho"], inp["x"], 4, inp["master_seed"])


def run_mc_nested(inp: dict, out_dir: Path, ops: Ops) -> dict:
    cost, cfg = inp["cost"], inp["cfg"]
    gap, se, detail = ops.run(
        "bellman_gap", control.bellman_gap,
        cost, cfg, 0.0, inp["t_bar"], inp["rho"], inp["x"], inp["control_class"],
        n_paths=inp["n_paths"], master_seed=inp["master_seed"],
        inner_paths=inp["inner_paths"], lattice_shape=inp["lattice"], return_detail=True,
    )
    outer = detail["outer"]
    numbers = [gap, se, outer["value"], outer["std_error"], detail["middle_value"],
               detail["middle_se"], detail["inner_se_max"]]
    ops.check("bellman_gap", all(math.isfinite(v) for v in numbers),
              "non-finite estimate or standard error")
    # Every running cost is at most c*ell^2 + b and the terminal cost at most
    # its weight, so any cost estimate lies in [0, (c*ell^2 + b)*T + w].
    ell = inp["control_class"]["ell"]
    upper = (cost.control_coeff * ell**2 + cost.bound) * cfg.T + cost.terminal_weight
    ops.check("bellman_gap", 0.0 <= outer["value"] <= upper,
              f"outer value {outer['value']!r} outside [0, {upper}]")
    _dump(out_dir / "bellman.json", {"gap": gap, "std_error": se, "detail": detail})
    return {
        "gap": gap,
        "se": se,
        "outer_value": outer["value"],
        "outer_se": outer["std_error"],
        "middle_value": detail["middle_value"],
        "middle_se": detail["middle_se"],
        "inner_se_max": detail["inner_se_max"],
        "lattice_lo": np.asarray(detail["lattice_lo"]),
        "lattice_hi": np.asarray(detail["lattice_hi"]),
    }


# ---------------------------------------------------------------------------
# grid_roundtrip: criterion 12's grid pair, artifact write/read, envelopes
# ---------------------------------------------------------------------------

def make_grid_roundtrip(seed: int, size: str = "full") -> dict:
    rng = np.random.default_rng([seed, 12])
    sz = SIZES["grid_roundtrip"][size]
    m = sz["probes"]
    probes = np.column_stack([
        rng.uniform(0.0, checks.BENCH_T, m),
        rng.uniform(0.1, 0.9, m),
        rng.uniform(-1.0, 1.0, m),
        rng.uniform(-1.0, 1.0, m),
    ])
    return {
        "energy": checks.benchmark_energy(),
        "cost": checks.benchmark_cost(),
        "ell": checks.BENCH_ELL,
        "T": checks.BENCH_T,
        "coarse": sz["coarse"],
        "fine": sz["fine"],
        "probes": probes,
        "theta": float(rng.uniform(0.04, 0.1)),
    }


def warm_grid_roundtrip(inp: dict, out_dir: Path) -> None:
    grid = hjb.SimplexGrid.build(inp["energy"], inp["ell"], inp["T"], shape=(5, 5, 5, 8))
    gvf = hjb.hjb_solve_backward(grid, inp["cost"], inp["energy"], inp["ell"])
    gvf.to_dir(out_dir / "warm")
    hjb.GridValueFunction.from_dir(out_dir / "warm", cost_spec=inp["cost"], energy=inp["energy"])
    gvf.evaluate(0.0, 0.5, 0.0, 0.0)


def run_grid_roundtrip(inp: dict, out_dir: Path, ops: Ops) -> dict:
    energy, cost, ell, T = inp["energy"], inp["cost"], inp["ell"], inp["T"]
    solved = {}
    for name in ("coarse", "fine"):
        grid = ops.run(f"build_{name}", hjb.SimplexGrid.build, energy, ell, T, shape=inp[name])
        solved[name] = ops.run(f"solve_{name}", hjb.hjb_solve_backward, grid, cost, energy, ell)
    fine = solved["fine"]
    grid_dir = out_dir / "grid"
    ops.run("to_dir", fine.to_dir, grid_dir)
    loaded = ops.run("from_dir", hjb.GridValueFunction.from_dir, grid_dir,
                     cost_spec=cost, energy=energy)
    same = loaded.values.tobytes() == fine.values.tobytes() and all(
        np.array_equal(a, b) for a, b in zip(loaded.axes, fine.axes)
    )
    ops.check("from_dir", same, "from_dir(to_dir(x)) differs from x")

    evals = {}
    for name, gvf in (("coarse", solved["coarse"]), ("loaded", loaded)):
        out = np.empty(len(inp["probes"]))
        for i, (t, r1, x1, x2) in enumerate(inp["probes"]):
            out[i] = ops.run(f"evaluate_{name}_{i}", gvf.evaluate, t, r1, x1, x2)
        # Multilinear interpolation is a convex combination of grid values.
        lo, hi = gvf.values.min(), gvf.values.max()
        inside = np.isfinite(out) & (out >= lo) & (out <= hi)
        for i in np.flatnonzero(~inside):
            ops.check(f"evaluate_{name}_{i}", False, f"value {out[i]!r} outside [{lo}, {hi}]")
        evals[name] = out

    weights = hjb.metric_weights_for_value(2)
    U = fine.values
    up = ops.run("sup_convolution", hjb.sup_convolution, U, fine.axes, inp["theta"], weights)
    down = ops.run("inf_convolution", hjb.inf_convolution, U, fine.axes, inp["theta"], weights)
    ops.check("sup_convolution", bool((up >= U).all()), "sup-convolution below U")
    ops.check("inf_convolution", bool((down <= U).all()), "inf-convolution above U")
    return {
        "coarse": solved["coarse"].values,
        "fine": U,
        "loaded": loaded.values,
        "eval_coarse": evals["coarse"],
        "eval_loaded": evals["loaded"],
        "sup": up,
        "inf": down,
    }


# ---------------------------------------------------------------------------
# paths_long: a long, few-path ensemble on an 8-vertex graph, rescues deep in
# the horizon, wave residuals, CSV export and transport paths
# ---------------------------------------------------------------------------

def ring_with_chords() -> Graph:
    edges = [(i, (i + 1) % 8, 1.0) for i in range(8)] + [(0, 4, 0.5), (2, 6, 0.5)]
    return Graph.from_edges(8, edges)


def make_paths_long(seed: int, size: str = "full") -> dict:
    rng = np.random.default_rng([seed, 2000])
    sz = SIZES["paths_long"][size]
    G = ring_with_chords()
    # sigma = 0.2 keeps the ensemble clear of the boundary (100 seeds tried);
    # at 0.3 a seed gives 0 to 2 rescues or an escape, and one rescue at step
    # ~10^3 costs more than the rest of the ensemble.
    energy = EnergySpec(graph=G, sigma=np.full(8, 0.2))
    cfg = dynamics.SdeConfig(energy=energy, T=sz["T"], dt=1e-3)
    w = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, 8)
    w[0] = 0.0
    w = 0.95 * w / w.sum()
    w[0] = 0.05
    steps = int(round(sz["T"] / 1e-3))
    # Boundary state: vertex 0 at mass 1e-5 draining at momentum gap 0.5.
    # One dt = 1e-3 step from it overshoots the floor and is rescued after
    # three bridge draws, at a step index late in the horizon.
    r = 1.0 + 0.02 * rng.uniform(-1.0, 1.0, 8)
    r[0] = 0.0
    r = (1.0 - 1e-5) * r / r.sum()
    r[0] = 1e-5
    s = 0.01 * rng.uniform(-1.0, 1.0, 8)
    s[0] = -0.5
    n_paths = sz["n_paths"]
    return {
        "cfg": cfg,
        "rho": DensityState(rho=w),
        "x": MomentumState(s=np.linspace(-0.5, 0.5, 8)),
        "n_paths": n_paths,
        "master_seed": int(rng.integers(1, 2**31)),
        "residual_path": int(rng.integers(0, n_paths)),
        "rescue": (DensityState(rho=r), MomentumState(s=s),
                   steps - 1 - int(rng.integers(0, max(steps // 40, 1))),
                   int(rng.integers(0, 2**31))),
        "path_steps": sz["path_steps"],
        "path_iters": sz["path_iters"],
        "weight": ProbabilityWeight("logarithmic"),
    }


def warm_paths_long(inp: dict, out_dir: Path) -> None:
    cfg = inp["cfg"]
    short = dynamics.SdeConfig(energy=cfg.energy, T=10 * cfg.dt, dt=cfg.dt)
    (traj,) = dynamics.simulate_batch(short, inp["rho"], inp["x"], 1, inp["master_seed"])
    waves.sse_residual(cfg.energy, None, traj)
    traj.to_csv(out_dir / "warm_trajectory.csv")
    waves.wave_csv(traj, out_dir / "warm_wave.csv")
    graphs.wasserstein_path(cfg.energy.graph, inp["weight"], inp["rho"],
                            DensityState(rho=traj.rho_path[-1]), steps=8, iters=2)


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def run_paths_long(inp: dict, out_dir: Path, ops: Ops) -> dict:
    cfg = inp["cfg"]
    energy = cfg.energy
    trajs = ops.run("simulate_batch", dynamics.simulate_batch,
                    cfg, inp["rho"], inp["x"], inp["n_paths"], inp["master_seed"])
    drift = max(float(np.abs(t.rho_path.sum(axis=1) - 1.0).max()) for t in trajs)
    ops.check("simulate_batch", drift <= 1e-12, f"mass drift {drift:.3e}")
    n_steps = trajs[0].times.size - 1

    rho, x, k, key = inp["rescue"]
    new_rho, new_s = ops.run("rescue", dynamics.step, cfg, (rho, x), k * cfg.dt, cfg.dt,
                             RngStream(key, 0), step_index=k)
    ok = abs(float(new_rho.rho.sum()) - 1.0) <= 1e-12 and bool(np.isfinite(new_s.s).all())
    ops.check("rescue", ok, "rescued step lost mass or is non-finite")

    resid = ops.run("sse_residual", waves.sse_residual, energy, None, trajs[inp["residual_path"]])
    ok = bool(np.isfinite(resid.per_step).all()) and resid.per_step.size == n_steps
    ops.check("sse_residual", ok, "non-finite residual or wrong step count")

    for traj in trajs:
        for kind, write in (("trajectory", traj.to_csv),
                            ("wave", lambda path, t=traj: waves.wave_csv(t, path))):
            path = out_dir / f"{kind}_{traj.path_index:04d}.csv"
            ops.run(f"{kind}_csv_{traj.path_index}", write, path)
            rows = _csv_rows(path)
            ops.check(f"{kind}_csv_{traj.path_index}", rows == n_steps + 1,
                      f"{rows} rows for {n_steps} steps")

    finals = np.stack([t.rho_path[-1] for t in trajs])
    targets = {"path0": finals[0], "mean": finals.mean(axis=0)}
    transport = []
    for name, target in targets.items():
        res = ops.run(f"wasserstein_{name}", graphs.wasserstein_path, energy.graph, inp["weight"],
                      inp["rho"], DensityState(rho=target), steps=inp["path_steps"],
                      iters=inp["path_iters"])
        ops.check(f"wasserstein_{name}", res.converged and math.isfinite(res.value),
                  "path descent did not converge")
        transport += [np.array([res.value]), res.path]
    return {
        "rho": np.stack([t.rho_path for t in trajs]),
        "s": np.stack([t.s_path for t in trajs]),
        "h0": np.stack([t.h0_path for t in trajs]),
        "rescued": np.concatenate([new_rho.rho, new_s.s]),
        "residuals": resid.per_step,
        "transport": np.concatenate([a.ravel() for a in transport]),
    }


WORKLOADS = {
    "mc_nested": (make_mc_nested, warm_mc_nested, run_mc_nested),
    "grid_roundtrip": (make_grid_roundtrip, warm_grid_roundtrip, run_grid_roundtrip),
    "paths_long": (make_paths_long, warm_paths_long, run_paths_long),
}


def reference_values(name: str, outputs: dict) -> dict:
    """Scalar summaries of a pass, compared against reference.json for DEFAULT_SEED."""
    if name == "mc_nested":
        keys = ("gap", "se", "outer_value", "middle_value", "inner_se_max")
        return {k: float(outputs[k]) for k in keys}
    if name == "grid_roundtrip":
        return {
            "coarse_u0_sum": float(outputs["coarse"][0].sum()),
            "fine_u0_sum": float(outputs["fine"][0].sum()),
            "eval_coarse_sum": float(outputs["eval_coarse"].sum()),
            "eval_loaded_sum": float(outputs["eval_loaded"].sum()),
            "sup_sum": float(outputs["sup"].sum()),
            "inf_sum": float(outputs["inf"].sum()),
        }
    return {
        "final_rho0_mean": float(outputs["rho"][:, -1, 0].mean()),
        "final_s_sum": float(outputs["s"][:, -1].sum()),
        "h0_final_mean": float(outputs["h0"][:, -1].mean()),
        "rescued_sum": float(outputs["rescued"].sum()),
        "residual_rms": float(np.sqrt((outputs["residuals"] ** 2).mean())),
        "transport_sum": float(outputs["transport"].sum()),
    }
