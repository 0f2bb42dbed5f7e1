import json

import numpy as np
import pytest

from graphwhs.cli import ExperimentConfig, main


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
    assert cfg.graph.n == 2
    assert cfg.seed == 7
    assert cfg.solver["dt"] == 5e-3
    assert cfg.solver["t0"] == 0.0  # defaults fill unset solver keys
    assert np.array_equal(cfg.rho, [0.35, 0.65])
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


def test_cfl_failure_leaves_no_artifacts(tmp_path):
    out = tmp_path / "cfl_out"
    doc = base_config(out)
    doc["solver"]["grid_shape"] = [9, 9, 9, 2]
    path = write_config(tmp_path, doc)
    assert main(["hjb", "--config", path]) == 3
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
