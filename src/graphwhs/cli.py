"""Config-driven command line harness with reproducible artifact directories.

The eight experiment subcommands share one path, ``_experiment``: it loads
the JSON experiment document into library objects (``ExperimentConfig.load``
checks every value, whichever subcommand runs), calls the subcommand's
``compute(cfg)`` for its complete result, and only then publishes an output
directory holding the data files that ``compute``'s writer produces plus a
manifest echoing the effective configuration and seed (``_publish``).  A
failed run therefore leaves no partial artifacts.  ``check`` runs the
verification suite on its own path.  Exit codes: 0 success, 2 invalid
configuration or usage, 3 numeric failure, 64 unknown command.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace
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
    _read_class,
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
from .energies import EnergySpec
from .graphs import (
    DensityState,
    DomainError,
    Graph,
    MomentumState,
    ProbabilityWeight,
    ShapeError,
    int_at_least,
    is_int,
    is_real,
    real_in,
    wasserstein_path,
)
from .hjb import (
    GridValueFunction,
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
    """The experiment document as library objects, plus the raw dict echoed into manifests.

    ``load`` builds every object the document describes, so each value is
    checked once, by the type that uses it, whichever subcommand runs.
    """

    raw: dict
    sde: SdeConfig          # energy, horizon, time step, and the constant control if given
    cost: CostSpec
    ell: float              # the grid solver's control radius
    control_class: dict     # what value and bellman search; its ell defaults to ``ell``
    solver: dict
    rho0: DensityState
    x0: MomentumState
    rho_target: DensityState | None
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
        n = int_at_least(gsec["n"], 1, "graph.n")
        graph = Graph.from_edges(n, [tuple(e) for e in gsec["edges"]])

        esec = dict(raw.get("energy", {}))
        sigma = esec.pop("sigma", None)
        if is_real(sigma):
            sigma = np.full(n, float(sigma))
        elif sigma is not None:
            sigma = _vector(sigma, n, "energy.sigma")
        weight = ProbabilityWeight(esec.pop("weight_kind", "average"))
        energy = EnergySpec(graph=graph, weight=weight, sigma=sigma, **esec)

        csec = dict(raw.get("cost", {}))
        for key in ("target_rho", "target_x"):
            if csec.get(key) is not None:
                csec[key] = _vector(csec[key], n, key)
        cost = CostSpec(**csec)

        ssec = dict(_SOLVER_DEFAULTS)
        given = dict(raw.get("solver", {}))
        unknown = set(given) - set(ssec)
        if unknown:
            raise DomainError(f"unknown solver keys {sorted(unknown)}")
        ssec.update(given)
        t0, T = ssec["t0"], ssec["T"]
        # The horizon is checked before the control class is laid out on it.
        sde = SdeConfig(
            energy=energy, t0=t0, T=T, dt=ssec["dt"], boundary_floor=ssec["boundary_floor"],
        )
        _check_solver(ssec)

        usec = dict(raw.get("control", {}))
        ell = usec.pop("ell", 1.0)
        control_class = {"ell": ell, **(usec.pop("class", None) or {"m": 1})}
        constant = usec.pop("constant", None)
        if usec:
            raise DomainError(f"unknown control keys {sorted(usec)}")
        # The section's ell is also the grid radius: it is read as a class
        # of its own too, in case the class sets a different one.
        for klass in (control_class, {"ell": ell}):
            _read_class(klass, t0, T)
        ell = float(ell)
        if constant is not None:
            sde = replace(sde, control=ControlSignal.constant(
                _vector(constant, n, "control.constant"), t0, T, ell
            ))

        st = raw.get("state", {})
        rho0 = DensityState(rho=_vector(st.get("rho", [1.0 / n] * n), n, "state.rho"))
        x0 = MomentumState(s=_vector(st.get("x", [0.0] * n), n, "state.x"))
        rho_target = st.get("rho_target")
        if rho_target is not None:
            rho_target = DensityState(rho=_vector(rho_target, n, "state.rho_target"))

        effective_seed = raw.get("seed", 0) if seed is None else seed
        if not is_int(effective_seed):
            raise DomainError("seed must be an int")
        effective_out = Path(out if out is not None else raw.get("out", "out"))
        echo = copy.deepcopy(raw)
        echo["seed"] = effective_seed
        echo["out"] = str(effective_out)

        return cls(
            raw=echo,
            sde=sde,
            cost=cost,
            ell=ell,
            control_class=control_class,
            solver=ssec,
            rho0=rho0,
            x0=x0,
            rho_target=rho_target,
            seed=effective_seed,
            out=effective_out,
        )

    def t_bar(self) -> float:
        if self.solver["t_bar"] is not None:
            return float(self.solver["t_bar"])
        return 0.5 * (self.solver["t0"] + self.solver["T"])

    def solve_grid(self) -> GridValueFunction:
        """Build the configured grid and solve backward on it."""
        s, energy = self.solver, self.sde.energy
        grid = SimplexGrid.build(
            energy, self.ell, s["T"], shape=tuple(s["grid_shape"]),
            X=float(s["X"]), rho_margin=float(s["rho_margin"]), t0=s["t0"],
        )
        return hjb_solve_backward(grid, self.cost, energy, self.ell)


def _check_solver(s: dict) -> None:
    """Refuse a solver value out of its range, whichever subcommand would use it.

    ``SdeConfig`` has already checked t0, T, dt and boundary_floor.  The
    ranges of t_bar and path_steps are ``bellman_gap``'s and
    ``wasserstein_path``'s; X and rho_margin keep the grid's axes increasing
    and its densities interior.
    """
    if s["t_bar"] is not None:
        real_in(s["t_bar"], "solver.t_bar", s["t0"], s["T"], "(]")
    shape, theta = s["grid_shape"], s["theta"]
    if not (isinstance(shape, (list, tuple)) and len(shape) == 4):
        raise DomainError("solver.grid_shape must be a list of four ints")
    for v in shape:
        int_at_least(v, 2, "solver.grid_shape")
    real_in(s["X"], "solver.X", 0.0, np.inf)
    real_in(s["rho_margin"], "solver.rho_margin", 0.0, 0.5)
    int_at_least(s["n_paths"], 1, "solver.n_paths")
    if s["inner_paths"] is not None:
        int_at_least(s["inner_paths"], 1, "solver.inner_paths")
    real_in(s["budget"], "solver.budget", 1.0, np.inf, "[]")
    if not (isinstance(theta, (list, tuple)) and len(theta) > 0):
        raise DomainError("solver.theta must be a nonempty list of numbers")
    for v in theta:
        real_in(v, "solver.theta", 0.0, np.inf)
    int_at_least(s["path_steps"], 8, "solver.path_steps")
    int_at_least(s["path_iters"], 0, "solver.path_iters")
    real_in(s["escape_quota"], "solver.escape_quota", 0.0, 1.0, "[]")


def _vector(value, n: int, name: str) -> np.ndarray:
    if not (isinstance(value, list) and len(value) == n and all(map(is_real, value))):
        raise ShapeError(f"{name} must be a list of numbers, one per vertex")
    return np.array(value, dtype=float)


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
    _dump(target / "manifest.json", manifest)
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


def _experiment(compute):
    """Register ``compute(cfg) -> writer`` as the subcommand of its name.

    The subcommand loads the document, computes every result, and only then
    publishes the artifact directory, which ``writer(dir)`` fills.
    """

    @_config_option
    @_common_options
    def command(config_path, seed, out_dir):
        cfg = ExperimentConfig.load(config_path, seed, out_dir)
        _publish(cfg, compute.__name__, compute(cfg))

    return cli.command(compute.__name__, help=compute.__doc__)(command)


@_experiment
def simulate(cfg):
    """Integrate an ensemble of coupled density/momentum paths."""
    trajs = simulate_batch(
        cfg.sde, cfg.rho0, cfg.x0, cfg.solver["n_paths"], cfg.seed,
        escape_quota=cfg.solver["escape_quota"],
    )

    def writer(d: Path):
        for k, traj in enumerate(trajs):
            traj.to_csv(d / f"trajectory_{k:04d}.csv")

    return writer


@_experiment
def transform(cfg):
    """Simulate, map each path to wave coordinates, and report residuals."""
    trajs = simulate_batch(
        cfg.sde, cfg.rho0, cfg.x0, cfg.solver["n_paths"], cfg.seed,
        escape_quota=cfg.solver["escape_quota"],
    )
    control = cfg.sde.control
    V = np.zeros(cfg.rho0.n) if control is None else control.values[0]
    stats = []
    for traj in trajs:
        u0 = madelung_forward(
            DensityState(rho=traj.rho_path[0]), MomentumState(s=traj.s_path[0])
        )
        res = sse_residual(cfg.sde.energy, V, traj)
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

    return writer


@_experiment
def wdist(cfg):
    """Transport distance from state.rho to state.rho_target."""
    if cfg.rho_target is None:
        raise DomainError("wdist needs state.rho_target")
    energy = cfg.sde.energy
    res = wasserstein_path(
        energy.graph,
        energy.weight,
        cfg.rho0,
        cfg.rho_target,
        steps=cfg.solver["path_steps"],
        iters=cfg.solver["path_iters"],
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
        header = ",".join(f"rho_{i}" for i in range(energy.graph.n))
        np.savetxt(d / "path.csv", res.path, delimiter=",", header=header,
                   comments="", fmt="%.17g")

    return writer


@_experiment
def cost(cfg):
    """Expected cost of the configured (constant) control."""
    est = cost_functional(
        cfg.cost, cfg.sde, cfg.solver["t0"], cfg.rho0, cfg.x0, cfg.sde.control,
        cfg.solver["n_paths"], cfg.seed,
    )
    return lambda d: _dump(d / "cost.json", est.to_dict())


@_experiment
def value(cfg):
    """Monte Carlo value-function upper approximation at the start state."""
    est = value_function_mc(
        cfg.cost, cfg.sde, cfg.solver["t0"], cfg.rho0, cfg.x0,
        cfg.control_class, cfg.solver["n_paths"], cfg.seed,
        budget=float(cfg.solver["budget"]),
    )
    return lambda d: _dump(d / "value.json", est.to_dict())


@_experiment
def bellman(cfg):
    """Dynamic-programming gap diagnostic at the configured split time."""
    gap, se, detail = bellman_gap(
        cfg.cost, cfg.sde, cfg.solver["t0"], cfg.t_bar(),
        cfg.rho0, cfg.x0, cfg.control_class, cfg.solver["n_paths"], cfg.seed,
        inner_paths=cfg.solver["inner_paths"],
        return_detail=True,
    )
    payload = {"gap": gap, "std_error": se, "within_3_se": bool(gap <= 3.0 * se),
               "detail": detail}
    return lambda d: _dump(d / "bellman.json", payload)


@_experiment
def hjb(cfg):
    """Backward grid solve of the control Hamilton-Jacobi equation."""
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

    return writer


@_experiment
def convolve(cfg):
    """Sup/inf envelope diagnostics of the grid value function."""
    gvf = cfg.solve_grid()
    weights = metric_weights_for_value(cfg.rho0.n)
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
    return lambda d: _dump(d / "convolve.json", {"envelopes": rows})


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
    # VacuumError is a ValueError, so the numeric failures are caught first.
    except (ArithmeticError, BoundaryEscapeError, EscapeQuotaError, VacuumError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3
    except (ValueError, KeyError, TypeError, FileNotFoundError) as exc:
        click.echo(f"invalid configuration: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
