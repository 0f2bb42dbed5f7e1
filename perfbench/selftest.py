"""Self-test of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a graphwhs checkout.  It checks that the counts later
changes may cite repeat exactly between two traced runs of one seed, that
every metric in BENCHMARK.json is emitted with its unit (zero for layers a
workload does not exercise), and that the benchmark refuses to run where
there is no graphwhs source.  The file name keeps it out of the project's
own test collection; pytest runs it when it is named by path.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Exact counts that must repeat run to run.
CITED_COUNTS = (
    "dynamics.path_steps",
    "rng.bridge_normal.calls",
    "control.candidate_evals",
    "kernels.hjb_layer.calls",
    "hjb.node_updates",
    "graphs.wasserstein_path.iters",
    "hjb.to_dir.bytes",
)

# Layers each workload does not reach: all their metrics must read zero.
UNEXERCISED = {
    "mc_nested": ("hjb.", "kernels.", "waves.", "graphs.", "dynamics.to_csv.", "rng.bridge_normal."),
    "grid_roundtrip": ("dynamics.", "rng.", "control.", "waves.", "graphs."),
    "paths_long": ("control.", "hjb.", "kernels."),
}


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_and_every_layer_metric_is_emitted(workload):
    first = result(workload, trace=1)
    second = result(workload, trace=1)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first.items()} == units
    for name in CITED_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    for name, m in first.items():
        if name.startswith(UNEXERCISED[workload]):
            assert m["value"] == 0, name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_are_emitted_with_units(workload):
    metrics = result(workload, trace=0)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == units
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_graphwhs_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("mc_nested", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
