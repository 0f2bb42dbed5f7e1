import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphwhs
from graphwhs.cli import _SOLVER_DEFAULTS, ExperimentConfig, main


def base_config(out_dir, **overrides) -> dict:
    doc = {
        "schema": 1,
        "seed": 7,
        "out": str(out_dir),
        "graph": {"n": 2, "edges": [[0, 1, 1.0]]},
        "energy": {"sigma": 0.2},
        "cost": {
            "control_coeff": 0.5,
            "target_rho": [0.5, 0.5],
            "target_x": [0.0, 0.0],
            "terminal_weight": 1.0,
        },
        "control": {"ell": 1.0, "constant": [0.3, 0.0]},
        "solver": {
            "T": 0.05,
            "dt": 5e-3,
            "n_paths": 4,
            "grid_shape": [9, 9, 9, 16],
            "theta": [0.1, 0.05],
            "path_steps": 8,
            "path_iters": 60,
        },
        "state": {"rho": [0.35, 0.65], "x": [0.4, -0.2], "rho_target": [0.6, 0.4]},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def only_dir(root, prefix):
    hits = [p for p in root.iterdir() if p.name.startswith(prefix)]
    assert len(hits) == 1, hits
    return hits[0]


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_config_load_and_overrides(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    cfg = ExperimentConfig.load(path)
    assert cfg.sde.energy.graph.n == 2
    assert cfg.seed == 7
    assert cfg.solver["dt"] == 5e-3
    assert cfg.solver["t0"] == 0.0  # defaults fill unset solver keys
    assert np.array_equal(cfg.rho0.rho, [0.35, 0.65])
    over = ExperimentConfig.load(path, seed=123, out=tmp_path / "elsewhere")
    assert over.seed == 123
    assert over.raw["seed"] == 123  # the echoed document tracks the override
    assert over.out == tmp_path / "elsewhere"


def test_config_rejections(tmp_path):
    from graphwhs.graphs import DomainError, ShapeError

    bad_schema = base_config(tmp_path, schema=2)
    with pytest.raises(DomainError):
        ExperimentConfig.load(write_config(tmp_path, bad_schema, "a.json"))
    bad_state = base_config(tmp_path)
    bad_state["state"]["rho"] = [0.2, 0.3, 0.5]
    with pytest.raises(ShapeError):
        ExperimentConfig.load(write_config(tmp_path, bad_state, "b.json"))
    bad_solver = base_config(tmp_path)
    bad_solver["solver"]["time_step"] = 0.1
    with pytest.raises(DomainError):
        ExperimentConfig.load(write_config(tmp_path, bad_solver, "c.json"))
    loose_control = base_config(tmp_path)
    loose_control["control"]["constant"] = [2.0, 0.0]
    with pytest.raises(DomainError):
        ExperimentConfig.load(write_config(tmp_path, loose_control, "d.json"))


# ---------------------------------------------------------------------------
# subcommands end to end (in process)
# ---------------------------------------------------------------------------

def test_simulate_writes_manifest_and_paths(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    assert main(["simulate", "--config", path]) == 0
    run = only_dir(out, "simulate-")
    files = sorted(p.name for p in run.iterdir())
    assert "manifest.json" in files
    assert [f for f in files if f.startswith("trajectory_")] == [
        f"trajectory_{k:04d}.csv" for k in range(4)
    ]
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["version"]
    assert manifest["config"]["graph"]["n"] == 2
    assert "trajectory_0000.csv" in manifest["artifacts"]
    assert run.name.endswith("-7")


def test_seed_and_out_flags_override_config(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "ignored"))
    alt = tmp_path / "alt"
    assert main(["simulate", "--config", path, "--seed", "123", "--out", str(alt)]) == 0
    run = only_dir(alt, "simulate-")
    assert run.name.endswith("-123")
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["seed"] == 123
    assert manifest["config"]["seed"] == 123
    assert not (tmp_path / "ignored").exists()


def test_noiseless_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "out"
    doc = base_config(out)
    doc["energy"]["sigma"] = 0.0
    path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == 0
    assert main(["simulate", "--config", path]) == 0
    runs = sorted(p for p in out.iterdir() if p.name.startswith("simulate-"))
    assert len(runs) == 2
    a = (runs[0] / "trajectory_0000.csv").read_bytes()
    b = (runs[1] / "trajectory_0000.csv").read_bytes()
    assert a == b


def test_exit_codes(tmp_path):
    assert main(["frobnicate"]) == 64
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["simulate", "--config", str(garbled)]) == 2
    bad = base_config(tmp_path / "o1")
    bad["solver"]["time_step"] = 0.1
    assert main(["simulate", "--config", write_config(tmp_path, bad, "bad.json")]) == 2


def _raised_errors():
    from graphwhs.dynamics import BoundaryEscapeError, EscapeQuotaError
    from graphwhs.energies import VariantError
    from graphwhs.graphs import DomainError, GraphError, ShapeError
    from graphwhs.hjb import CflError, NonFiniteError
    from graphwhs.waves import VacuumError

    numeric = [CflError("cfl"), NonFiniteError(3), BoundaryEscapeError(0.5, 1),
               EscapeQuotaError(2, 4), VacuumError("vacuum"), ArithmeticError("arith")]
    invalid = [DomainError("domain"), ShapeError("shape"), GraphError("graph"),
               VariantError("variant"), ValueError("value"), KeyError("key"),
               TypeError("type"), FileNotFoundError("missing"),
               json.JSONDecodeError("garbled", "{", 1)]
    return [pytest.param(exc, code, id=type(exc).__name__)
            for excs, code in ((numeric, 3), (invalid, 2)) for exc in excs]


@pytest.mark.parametrize("exc, code", _raised_errors())
def test_raised_error_classes_map_onto_exit_codes(tmp_path, monkeypatch, exc, code):
    import graphwhs.cli

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(graphwhs.cli, "simulate_batch", fail)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, base_config(out))]) == code
    assert not out.exists()


@pytest.mark.parametrize("klass", [{"m": 0}, {"m": -1}, {"golden_iter": 1}, {"ell": 0.0}])
def test_bad_control_class_is_a_configuration_error(tmp_path, klass, capsys):
    out = tmp_path / "out"
    doc = base_config(out)
    doc["control"]["class"] = klass
    path = write_config(tmp_path, doc)
    assert main(["value", "--config", path]) == 2
    assert main(["bellman", "--config", path]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


EXPERIMENTS = ["simulate", "transform", "wdist", "cost", "value", "bellman", "hjb", "convolve"]


@pytest.mark.parametrize("section, key, bad, commands", [
    ("control", None, {"ell": -1.0}, EXPERIMENTS),
    ("control", None, {"ell": -1.0, "class": {"ell": 0.5}}, EXPERIMENTS),
    ("state", "rho", [0.3, 0.6], ["hjb"]),
    ("control", "class", {"m": 0}, ["simulate", "cost"]),
    ("solver", "dt", float("inf"), ["cost", "simulate", "hjb"]),
    ("solver", "escape_quota", -1.0, EXPERIMENTS),
    ("solver", "escape_quota", float("nan"), EXPERIMENTS),
    ("solver", "n_paths", 2.7, EXPERIMENTS),
    ("solver", "n_paths", True, EXPERIMENTS),
    ("solver", "inner_paths", 0, EXPERIMENTS),
    ("solver", "budget", -5, EXPERIMENTS),
    ("solver", "grid_shape", [1, 1], EXPERIMENTS),
    ("solver", "grid_shape", [9, 9, 1, 16], EXPERIMENTS),
    ("solver", "theta", [-1], EXPERIMENTS),
    ("solver", "path_steps", 2, EXPERIMENTS),
    ("solver", "path_iters", -1, EXPERIMENTS),
    ("solver", "t_bar", 7.0, EXPERIMENTS),
    ("solver", "t_bar", 0.0, EXPERIMENTS),
    ("solver", "X", -1, EXPERIMENTS),
    ("solver", "rho_margin", 0.5, EXPERIMENTS),
    ("seed", None, 2.7, EXPERIMENTS),
    ("graph", "n", 2.9, EXPERIMENTS),
    ("solver", "T", True, EXPERIMENTS),
    ("solver", "dt", True, EXPERIMENTS),
    ("control", "ell", True, EXPERIMENTS),
    ("control", "ell", "0.5", EXPERIMENTS),
    ("energy", "sigma", True, EXPERIMENTS),
    ("state", "x", ["0.4", "-0.2"], EXPERIMENTS),
    ("cost", "terminal_weight", True, EXPERIMENTS),
    ("energy", "fisher_coeff", True, EXPERIMENTS),
], ids=["ell_negative", "ell_negative_under_class_ell", "rho_off_simplex", "zero_pieces",
        "dt_infinite", "escape_quota_negative", "escape_quota_nan", "n_paths_fraction",
        "n_paths_bool", "inner_paths_zero", "budget_negative", "grid_shape_two_axes",
        "grid_shape_one_point", "theta_negative", "path_steps_2", "path_iters_negative",
        "t_bar_past_T", "t_bar_at_t0", "X_negative", "rho_margin_half", "seed_fraction",
        "n_fraction", "T_bool", "dt_bool", "ell_bool", "ell_string", "sigma_bool",
        "x_strings", "terminal_weight_bool", "fisher_coeff_bool"])
def test_bad_values_fail_at_load_for_every_subcommand(tmp_path, capsys, section, key, bad,
                                                      commands):
    """A bad value exits 2 and writes nothing, even where the subcommand
    does not use it."""
    out = tmp_path / "out"
    doc = base_config(out)
    if key is None:
        doc[section] = bad
    else:
        doc[section][key] = bad
    path = write_config(tmp_path, doc)
    for command in commands:
        assert main([command, "--config", path]) == 2, command
        assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


def test_readme_solver_table_lists_every_key_and_default():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8").splitlines()
    start = lines.index("| solver key | meaning | default | allowed |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, _, default, _ = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        table[key] = default
    assert table == {key: json.dumps(value) for key, value in _SOLVER_DEFAULTS.items()}


def test_infinite_horizon_exits_2_before_any_numpy_warning(tmp_path):
    # The horizon is checked before the control class is laid out on it, so
    # numpy never multiplies by inf.  Run in a fresh process: its stderr
    # shows what a user sees, with the default warning filters.
    out = tmp_path / "out"
    doc = base_config(out)
    doc["solver"]["T"] = float("inf")
    path = write_config(tmp_path, doc)
    code = f"import sys, graphwhs.cli; sys.exit(graphwhs.cli.main(['cost', '--config', {path!r}]))"
    src = str(Path(graphwhs.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 2
    assert "T must be a number in (0.0, inf), not inf" in run.stderr
    assert "RuntimeWarning" not in run.stderr
    assert not out.exists()


def test_cfl_failure_leaves_no_artifacts(tmp_path):
    out = tmp_path / "cfl_out"
    doc = base_config(out)
    doc["solver"]["grid_shape"] = [9, 9, 9, 2]
    path = write_config(tmp_path, doc)
    assert main(["hjb", "--config", path]) == 3
    assert not out.exists()


def test_unknown_cost_key_and_bad_energy_shapes_exit_2_without_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    custom = base_config(out)
    custom["cost"]["custom_running"] = 0
    with pytest.raises(TypeError, match="custom_running"):
        ExperimentConfig.load(write_config(tmp_path, custom, "custom.json"))
    long_sigma = base_config(out)
    long_sigma["energy"]["sigma"] = [0.2, 0.2, 0.2]
    wide = base_config(out)
    wide["energy"]["interaction"] = np.zeros((3, 3)).tolist()
    for name, doc in (("custom_running", custom), ("sigma", long_sigma),
                      ("interaction", wide)):
        path = write_config(tmp_path, doc, f"{name}.json")
        for command in ("cost", "hjb"):
            assert main([command, "--config", path]) == 2
            err = capsys.readouterr().err
            assert "invalid configuration" in err and name in err
    assert not out.exists()


def test_cost_and_value_artifacts(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    assert main(["cost", "--config", path]) == 0
    est = json.loads((only_dir(out, "cost-") / "cost.json").read_text())
    assert set(est) == {"value", "std_error", "n_paths", "control_class", "trace"}
    assert est["control_class"] == "fixed control"
    assert est["n_paths"] == 4
    assert main(["value", "--config", path]) == 0
    val = json.loads((only_dir(out, "value-") / "value.json").read_text())
    assert val["control_class"].startswith("piecewise-constant")
    assert val["trace"]["seed"] == 7


def test_wdist_artifacts_and_missing_target(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    assert main(["wdist", "--config", path]) == 0
    run = only_dir(out, "wdist-")
    res = json.loads((run / "wdist.json").read_text())
    assert res["distance"] > 0.0
    assert res["converged"] is True
    assert res["accepted_iters"] == len(res["action_trace"]) - 1
    assert 0.0 < res["step_size"] <= 1.0
    rows = np.loadtxt(run / "path.csv", delimiter=",", skiprows=1)
    assert np.allclose(rows[0], [0.35, 0.65], atol=1e-12)
    assert np.allclose(rows[-1], [0.6, 0.4], atol=1e-12)
    untargeted = base_config(tmp_path / "o2")
    del untargeted["state"]["rho_target"]
    assert main(["wdist", "--config", write_config(tmp_path, untargeted, "u.json")]) == 2


def test_transform_reports_residuals(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    assert main(["transform", "--config", path]) == 0
    run = only_dir(out, "transform-")
    assert (run / "wave_0000.csv").exists()
    stats = json.loads((run / "residuals.json").read_text())["paths"]
    assert len(stats) == 4
    for row in stats:
        assert set(row) == {"path", "modulus_defect", "residual_max", "residual_rms"}
        assert row["modulus_defect"] <= 1e-12
        assert row["residual_rms"] <= row["residual_max"]


def test_hjb_and_convolve_artifacts(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    assert main(["hjb", "--config", path]) == 0
    run = only_dir(out, "hjb-")
    summary = json.loads((run / "hjb.json").read_text())
    assert summary["shape"] == [16, 9, 9, 9]
    assert summary["cfl"]["cfl_number"] <= 1.0
    assert summary["min"] <= summary["max"]
    meta = json.loads((run / "grid" / "metadata.json").read_text())
    assert meta["schema"] == 2
    assert np.load(run / "grid" / "values.npy").shape == (16, 9, 9, 9)
    assert main(["convolve", "--config", path]) == 0
    rows = json.loads(
        (only_dir(out, "convolve-") / "convolve.json").read_text()
    )["envelopes"]
    assert [r["theta"] for r in rows] == [0.1, 0.05]
    for row in rows:
        assert row["sup_gap"] >= 0.0 and row["inf_gap"] >= 0.0
        assert row["semiconvexity_defect"] >= -1e-9
    # Weaker penalties widen the envelope gap.
    assert rows[1]["sup_gap"] <= rows[0]["sup_gap"] + 1e-12


def test_bellman_artifact(tmp_path):
    out = tmp_path / "out"
    doc = base_config(out)
    doc["solver"]["n_paths"] = 30
    doc["solver"]["inner_paths"] = 30
    path = write_config(tmp_path, doc)
    assert main(["bellman", "--config", path]) == 0
    payload = json.loads((only_dir(out, "bellman-") / "bellman.json").read_text())
    assert set(payload) == {"gap", "std_error", "within_3_se", "detail"}
    assert payload["gap"] >= 0.0
    assert payload["within_3_se"] == (payload["gap"] <= 3.0 * payload["std_error"])
    assert "outer" in payload["detail"]


def test_check_subset_and_bundled_default(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(["check", "--out", str(out), "--only", "1,2"]) == 0
    report = json.loads(
        (only_dir(out, "check-") / "check_report.json").read_text()
    )
    assert [r["index"] for r in report["results"]] == [1, 2]
    assert report["all_passed"] is True
    assert all(r["passed"] for r in report["results"])
    lines = capsys.readouterr().out
    assert "PASS" in lines
    # The manifest echoes the bundled document, with --out applied.
    manifest = json.loads((only_dir(out, "check-") / "manifest.json").read_text())
    assert manifest["config"]["out"] == str(out)
    assert manifest["config"]["graph"] == {"n": 2, "edges": [[0, 1, 1.0]]}
    # Without --out the bundled document's output root is used, from the cwd.
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--only", "2"]) == 0
    assert (tmp_path / "out").exists()


def test_removed_options_are_usage_errors(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["simulate", "--config", path, "--workers", "2"]) == 2
    assert main(["check", "--config", path]) == 2
    assert main(["check", "--seed", "3"]) == 2
    assert not (tmp_path / "out").exists()
    capsys.readouterr()
    assert main(["check", "--help"]) == 0
    options = [tok for tok in capsys.readouterr().out.split() if tok.startswith("--")]
    assert options == ["--out", "--only", "--help"]


def test_help_and_version_exit_clean():
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0


def test_import_skips_scipy_interpolate_and_integrate():
    """No scipy module at all: interpolation and the inverse normal CDF are
    graphwhs's own; quadrature and expit are imported on first use."""
    code = (
        "import sys, graphwhs, graphwhs.cli, graphwhs.checks; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(graphwhs.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_import_skips_csv():
    """The CSV artifacts are written without the csv module."""
    code = (
        "import sys, graphwhs, graphwhs.cli, graphwhs.checks; "
        "print(sorted(m for m in sys.modules if m in ('csv', '_csv')))"
    )
    src = str(Path(graphwhs.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
