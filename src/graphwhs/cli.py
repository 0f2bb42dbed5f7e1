"""Config-driven command line harness with reproducible artifact directories.

Every subcommand reads one JSON experiment document, computes its result
completely, and only then writes an output directory containing the data
files plus a manifest echoing the effective configuration and seed.  A
failed run therefore leaves no partial artifacts.  Exit codes: 0 success,
2 invalid configuration or usage, 3 numeric failure, 64 unknown command.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib.resources import files as resource_files
from pathlib import Path

import click
import numpy as np

from . import __version__
from .checks import run_all
from .control import (
    ControlSignal,
    CostSpec,
    bellman_gap,
    cost_functional,
    value_function_mc,
)
from .dynamics import (
    BoundaryEscapeError,
    EscapeQuotaError,
    SdeConfig,
    simulate_batch,
)
from .energies import EnergySpec, VariantError
from .graphs import (
    DensityState,
    DomainError,
    Graph,
    GraphError,
    MomentumState,
    ProbabilityWeight,
    ShapeError,
    wasserstein_path,
)
from .hjb import (
    CflError,
    GridValueFunction,
    NonFiniteError,
    SimplexGrid,
    hjb_solve_backward,
    inf_convolution,
    metric_weights_for_value,
    semiconvexity_defect,
    sup_convolution,
)
from .waves import VacuumError, madelung_forward, sse_residual, wave_csv

_SOLVER_DEFAULTS = {
    "t0": 0.0,
    "T": 1.0,
    "dt": 1e-3,
    "t_bar": None,
    "grid_shape": (33, 33, 33, 64),
    "X": 1.0,
    "rho_margin": 0.1,
    "n_paths": 100,
    "inner_paths": None,
    "budget": 150.0,
    "theta": (0.1, 0.05, 0.025),
    "path_steps": 32,
    "path_iters": 300,
    "escape_quota": 0.01,
    "boundary_floor": 1e-9,
}


class CheckFailure(ArithmeticError):
    """One or more verification checks failed."""


@dataclass
class ExperimentConfig:
    """Validated experiment document plus the raw dict echoed into manifests."""

    raw: dict
    graph: Graph
    energy: EnergySpec
    cost: CostSpec
    ell: float
    control_class: dict | None
    constant_control: np.ndarray | None
    solver: dict
    rho: np.ndarray
    x: np.ndarray
    rho_target: np.ndarray | None
    seed: int
    out: Path

    @classmethod
    def load(cls, path, seed=None, out=None) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise DomainError("config document must be a JSON object")
        if raw.get("schema", 1) != 1:
            raise DomainError(f"unsupported config schema {raw.get('schema')!r}")

        gsec = raw["graph"]
        n = int(gsec["n"])
        graph = Graph.from_edges(n, [tuple(e) for e in gsec["edges"]])

        esec = dict(raw.get("energy", {}))
        sigma = esec.pop("sigma", None)
        if sigma is not None and np.ndim(sigma) == 0:
            sigma = np.full(n, float(sigma))
        # EnergySpec checks the shapes of sigma and the interaction matrix.
        weight = ProbabilityWeight(esec.pop("weight_kind", "average"))
        energy = EnergySpec(graph=graph, weight=weight, sigma=sigma, **esec)

        csec = dict(raw.get("cost", {}))
        for key in ("target_rho", "target_x"):
            if csec.get(key) is not None:
                vec = np.asarray(csec[key], dtype=float)
                if vec.shape != (n,):
                    raise ShapeError(f"{key} must have one entry per vertex")
                csec[key] = vec
        cost = CostSpec(**csec)

        usec = dict(raw.get("control", {}))
        ell = float(usec.pop("ell", 1.0))
        if ell <= 0.0:
            raise DomainError("control radius ell must be positive")
        control_class = usec.pop("class", None)
        constant = usec.pop("constant", None)
        if constant is not None:
            constant = np.asarray(constant, dtype=float)
            if constant.shape != (n,):
                raise ShapeError("constant control must have one entry per vertex")
            if float(np.linalg.norm(constant)) > ell + 1e-12:
                raise DomainError("constant control must lie in the radius-ell ball")
        if usec:
            raise DomainError(f"unknown control keys {sorted(usec)}")

        ssec = dict(_SOLVER_DEFAULTS)
        given = dict(raw.get("solver", {}))
        unknown = set(given) - set(ssec)
        if unknown:
            raise DomainError(f"unknown solver keys {sorted(unknown)}")
        ssec.update(given)
        if not ssec["t0"] <= ssec["T"]:
            raise DomainError("need t0 <= T")
        if ssec["dt"] <= 0.0:
            raise DomainError("dt must be positive")

        st = raw.get("state", {})
        rho = np.asarray(st.get("rho", np.full(n, 1.0 / n)), dtype=float)
        x = np.asarray(st.get("x", np.zeros(n)), dtype=float)
        rho_target = st.get("rho_target")
        if rho_target is not None:
            rho_target = np.asarray(rho_target, dtype=float)
            if rho_target.shape != (n,):
                raise ShapeError("rho_target must have one entry per vertex")
        if rho.shape != (n,) or x.shape != (n,):
            raise ShapeError("state vectors must have one entry per vertex")

        effective_seed = int(raw.get("seed", 0) if seed is None else seed)
        effective_out = Path(out if out is not None else raw.get("out", "out"))
        echo = copy.deepcopy(raw)
        echo["seed"] = effective_seed
        echo["out"] = str(effective_out)

        return cls(
            raw=echo,
            graph=graph,
            energy=energy,
            cost=cost,
            ell=ell,
            control_class=control_class,
            constant_control=constant,
            solver=ssec,
            rho=rho,
            x=x,
            rho_target=rho_target,
            seed=effective_seed,
            out=effective_out,
        )

    def sde_config(self) -> SdeConfig:
        control = None
        if self.constant_control is not None:
            control = ControlSignal.constant(
                self.constant_control, self.solver["t0"], self.solver["T"], self.ell
            )
        return SdeConfig(
            energy=self.energy,
            t0=self.solver["t0"],
            T=self.solver["T"],
            dt=self.solver["dt"],
            control=control,
            boundary_floor=self.solver["boundary_floor"],
        )

    def start_state(self):
        return DensityState(rho=self.rho), MomentumState(s=self.x)

    def t_bar(self) -> float:
        if self.solver["t_bar"] is not None:
            return float(self.solver["t_bar"])
        return 0.5 * (self.solver["t0"] + self.solver["T"])

    def solve_grid(self) -> GridValueFunction:
        """Build the configured grid and solve backward on it."""
        s = self.solver
        grid = SimplexGrid.build(
            self.energy, self.ell, s["T"], shape=tuple(s["grid_shape"]),
            X=float(s["X"]), rho_margin=float(s["rho_margin"]), t0=s["t0"],
        )
        return hjb_solve_backward(grid, self.cost, self.energy, self.ell)

    def default_class(self) -> dict:
        """The configured class, {"m": 1} if none, with the config's ell unless it sets one."""
        return {"ell": self.ell, **(self.control_class or {"m": 1})}


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------

def _publish(cfg: ExperimentConfig, command: str, writer) -> Path:
    """Create out/<command>-<stamp>-<seed>/, call writer(dir), add manifest."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = cfg.out / f"{command}-{stamp}-{cfg.seed}"
    target, k = base, 1
    while target.exists():
        k += 1
        target = Path(f"{base}-{k}")
    target.mkdir(parents=True)
    writer(target)
    artifacts = sorted(
        str(p.relative_to(target)) for p in target.rglob("*") if p.is_file()
    )
    manifest = {
        "schema": 1,
        "command": command,
        "seed": cfg.seed,
        "timestamp": stamp,
        "version": __version__,
        "config": cfg.raw,
        "artifacts": artifacts,
    }
    with open(target / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {target}")
    return target


def _dump(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_config_option = click.option(
    "--config",
    "config_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="experiment document (JSON)",
)
_out_option = click.option(
    "--out", "out_dir", default=None, type=click.Path(file_okay=False),
    help="override output root",
)


def _common_options(fn):
    fn = click.option("--seed", type=int, default=None, help="override config seed")(fn)
    return _out_option(fn)


@click.group()
@click.version_option(version=__version__, prog_name="graph-whs")
def cli():
    """Simplex-valued stochastic dynamics, control, and grid solvers."""


@cli.command()
@_config_option
@_common_options
def simulate(config_path, seed, out_dir):
    """Integrate an ensemble of coupled density/momentum paths."""
    cfg = ExperimentConfig.load(config_path, seed, out_dir)
    rho0, x0 = cfg.start_state()
    trajs = simulate_batch(
        cfg.sde_config(), rho0, x0, int(cfg.solver["n_paths"]), cfg.seed,
        escape_quota=cfg.solver["escape_quota"],
    )

    def writer(d: Path):
        for k, traj in enumerate(trajs):
            traj.to_csv(d / f"trajectory_{k:04d}.csv")

    _publish(cfg, "simulate", writer)


@cli.command()
@_config_option
@_common_options
def transform(config_path, seed, out_dir):
    """Simulate, map each path to wave coordinates, and report residuals."""
    cfg = ExperimentConfig.load(config_path, seed, out_dir)
    rho0, x0 = cfg.start_state()
    trajs = simulate_batch(
        cfg.sde_config(), rho0, x0, int(cfg.solver["n_paths"]), cfg.seed,
        escape_quota=cfg.solver["escape_quota"],
    )
    n = cfg.graph.n
    V = cfg.constant_control if cfg.constant_control is not None else np.zeros(n)
    stats = []
    for traj in trajs:
        u0 = madelung_forward(
            DensityState(rho=traj.rho_path[0]), MomentumState(s=traj.s_path[0])
        )
        res = sse_residual(cfg.energy, V, traj)
        stats.append(
            {
                "path": traj.path_index,
                "modulus_defect": float(
                    np.abs(np.abs(u0.u) ** 2 - traj.rho_path[0]).max()
                ),
                "residual_max": res.max_abs,
                "residual_rms": res.rms,
            }
        )

    def writer(d: Path):
        for k, traj in enumerate(trajs):
            wave_csv(traj, d / f"wave_{k:04d}.csv")
        _dump(d / "residuals.json", {"paths": stats})

    _publish(cfg, "transform", writer)


@cli.command()
@_config_option
@_common_options
def wdist(config_path, seed, out_dir):
    """Transport distance from state.rho to state.rho_target."""
    cfg = ExperimentConfig.load(config_path, seed, out_dir)
    if cfg.rho_target is None:
        raise DomainError("wdist needs state.rho_target")
    res = wasserstein_path(
        cfg.graph,
        cfg.energy.weight,
        DensityState(rho=cfg.rho),
        DensityState(rho=cfg.rho_target),
        steps=int(cfg.solver["path_steps"]),
        iters=int(cfg.solver["path_iters"]),
    )

    def writer(d: Path):
        _dump(
            d / "wdist.json",
            {
                "distance": res.value,
                "converged": res.converged,
                "accepted_iters": res.action_trace.size - 1,
                "step_size": res.step_size,
                "action_trace": [float(a) for a in res.action_trace],
            },
        )
        header = ",".join(f"rho_{i}" for i in range(cfg.graph.n))
        np.savetxt(d / "path.csv", res.path, delimiter=",", header=header,
                   comments="", fmt="%.17g")

    _publish(cfg, "wdist", writer)


@cli.command()
@_config_option
@_common_options
def cost(config_path, seed, out_dir):
    """Expected cost of the configured (constant) control."""
    cfg = ExperimentConfig.load(config_path, seed, out_dir)
    rho0, x0 = cfg.start_state()
    sde = cfg.sde_config()
    est = cost_functional(
        cfg.cost, sde, cfg.solver["t0"], rho0, x0, sde.control, int(cfg.solver["n_paths"]),
        cfg.seed,
    )
    _publish(cfg, "cost", lambda d: _dump(d / "cost.json", est.to_dict()))


@cli.command()
@_config_option
@_common_options
def value(config_path, seed, out_dir):
    """Monte Carlo value-function upper approximation at the start state."""
    cfg = ExperimentConfig.load(config_path, seed, out_dir)
    rho0, x0 = cfg.start_state()
    est = value_function_mc(
        cfg.cost, cfg.sde_config(), cfg.solver["t0"], rho0, x0,
        cfg.default_class(), int(cfg.solver["n_paths"]), cfg.seed,
        budget=float(cfg.solver["budget"]),
    )
    _publish(cfg, "value", lambda d: _dump(d / "value.json", est.to_dict()))


@cli.command()
@_config_option
@_common_options
def bellman(config_path, seed, out_dir):
    """Dynamic-programming gap diagnostic at the configured split time."""
    cfg = ExperimentConfig.load(config_path, seed, out_dir)
    rho0, x0 = cfg.start_state()
    inner = cfg.solver["inner_paths"]
    gap, se, detail = bellman_gap(
        cfg.cost, cfg.sde_config(), cfg.solver["t0"], cfg.t_bar(),
        rho0, x0, cfg.default_class(), int(cfg.solver["n_paths"]), cfg.seed,
        inner_paths=None if inner is None else int(inner),
        return_detail=True,
    )
    payload = {"gap": gap, "std_error": se, "within_3_se": bool(gap <= 3.0 * se),
               "detail": detail}
    _publish(cfg, "bellman", lambda d: _dump(d / "bellman.json", payload))


@cli.command()
@_config_option
@_common_options
def hjb(config_path, seed, out_dir):
    """Backward grid solve of the control Hamilton-Jacobi equation."""
    cfg = ExperimentConfig.load(config_path, seed, out_dir)
    gvf = cfg.solve_grid()
    summary = {
        "cfl": gvf.grid.cfl,
        "shape": list(gvf.values.shape),
        "min": float(gvf.values.min()),
        "max": float(gvf.values.max()),
    }

    def writer(d: Path):
        gvf.to_dir(d / "grid")
        _dump(d / "hjb.json", summary)

    _publish(cfg, "hjb", writer)


@cli.command()
@_config_option
@_common_options
def convolve(config_path, seed, out_dir):
    """Sup/inf envelope diagnostics of the grid value function."""
    cfg = ExperimentConfig.load(config_path, seed, out_dir)
    gvf = cfg.solve_grid()
    weights = metric_weights_for_value(cfg.graph.n)
    rows = []
    for theta in cfg.solver["theta"]:
        theta = float(theta)
        up = sup_convolution(gvf.values, gvf.axes, theta, weights)
        down = inf_convolution(gvf.values, gvf.axes, theta, weights)
        rows.append(
            {
                "theta": theta,
                "sup_gap": float(np.abs(up - gvf.values).max()),
                "inf_gap": float(np.abs(down - gvf.values).max()),
                "semiconvexity_defect": semiconvexity_defect(
                    up, gvf.axes, theta, weights
                ),
            }
        )
    _publish(cfg, "convolve", lambda d: _dump(d / "convolve.json", {"envelopes": rows}))


@cli.command()
@_out_option
@click.option("--only", default=None,
              help="comma-separated criterion numbers (default: all)")
def check(out_dir, only):
    """Run the numbered verification suite; nonzero exit on any failure.

    The criteria fix their own inputs; the manifest echoes the bundled
    experiment document.
    """
    bundled = resource_files("graphwhs").joinpath("data/default_config.json")
    cfg = ExperimentConfig.load(bundled, out=out_dir)
    indices = None
    if only:
        indices = [int(tok) for tok in only.replace(",", " ").split()]
    results = run_all(indices=indices, echo=click.echo)

    def writer(d: Path):
        _dump(
            d / "check_report.json",
            {
                "results": [
                    {
                        "index": r.index,
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "seconds": r.seconds,
                    }
                    for r in results
                ],
                "all_passed": all(r.passed for r in results),
            },
        )

    _publish(cfg, "check", writer)
    failed = [r.index for r in results if not r.passed]
    if failed:
        raise CheckFailure(f"criteria failed: {failed}")


def main(argv=None) -> int:
    """Entry point mapping exceptions onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.UsageError as exc:
        message = exc.format_message()
        click.echo(f"error: {message}", err=True)
        return 64 if "No such command" in message else 2
    except (
        CflError,
        NonFiniteError,
        BoundaryEscapeError,
        EscapeQuotaError,
        VacuumError,
        ArithmeticError,
    ) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3
    except (
        DomainError,
        ShapeError,
        GraphError,
        VariantError,
        ValueError,
        KeyError,
        TypeError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        click.echo(f"invalid configuration: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
