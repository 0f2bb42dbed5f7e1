"""Benchmark entry point for graphwhs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a graphwhs checkout; it imports the package from
``src/`` there.  The workloads (see ``workloads.py``) run serially on the
numpy backend with ``workers`` unset.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (machine, versions,
per-pass times, problems).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time of
the passes that fit in ``--seconds``), ``setup_s`` (median over several fresh
processes of importing graphwhs, making the inputs and warming up),
``peak_rss_mb`` (peak resident memory of the measuring process) and
``artifact_mb`` (bytes one pass writes).  ``--trace 1`` makes two untraced
passes and one traced pass in one process and reports the per-layer metrics
of ``tracer.PER_LAYER``; all passes must produce bitwise equal outputs.

Each measurement runs in a fresh child process (``--role``), so peaks and
caches do not carry over between runs.  Scratch output goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc_nested", "grid_roundtrip", "paths_long")
SETUP_SAMPLES = 3
# Every child must finish inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0
MIB = 2.0**20


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--role", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# parent: spawn the children, combine their reports, print the result
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.role:
        return child_main(args, root)
    if not (root / "src" / "graphwhs" / "__init__.py").is_file():
        print("perfbench: no src/graphwhs here; run from the root of a graphwhs checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    role = "trace" if args.trace else "measure"
    report = spawn(args, role, root, deadline)
    if report is None:
        return 1
    if args.trace:
        metrics = report["metrics"]
    else:
        setups = [report["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            extra = spawn(args, "setup", root, deadline)
            if extra is None:
                return 1
            setups.append(extra["setup_s"])
        report["setup_samples"] = setups
        metrics = {
            "wall_s": {"value": statistics.median(report["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_kib"] / 1024.0, "unit": "MiB"},
            "artifact_mb": {"value": report["artifact_bytes"] / MIB, "unit": "MiB"},
        }
    report["machine"] = machine_record(root)
    report["seed"] = args.seed
    report["workload"] = args.workload
    print(json.dumps({"record": report}, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def spawn(args, role: str, root: Path, deadline: float) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        print("perfbench: out of time before the next child", file=sys.stderr)
        return None
    try:
        # On timeout subprocess.run kills the child and waits for it.
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {role} child exceeded the run budget", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {role} child exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def machine_record(root: Path) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "graphwhs").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / MIB,
        "platform": platform.platform(),
        "GRAPHWHS_NO_NUMBA": os.environ.get("GRAPHWHS_NO_NUMBA"),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# child: set up, make the passes, report one JSON line
# ---------------------------------------------------------------------------

def child_main(args, root: Path) -> int:
    t0 = time.perf_counter()
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import numpy as np
    import scipy

    import graphwhs
    import workloads

    src = (root / "src").resolve()
    if src not in Path(graphwhs.__file__).resolve().parents:
        print(f"perfbench: imported graphwhs from {graphwhs.__file__}, not {src}", file=sys.stderr)
        return 2
    make, warm, run = workloads.WORKLOADS[args.workload]
    (root / ".perfbench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench_out"))
    try:
        inputs = make(args.seed, args.size)
        warm(inputs, scratch)
        setup_s = time.perf_counter() - t0
        if args.role == "setup":
            report = {"setup_s": setup_s}
        else:
            report = measure(args, root, scratch, inputs, run, workloads)
            report["setup_s"] = setup_s
            report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            report["versions"] = {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "graphwhs": graphwhs.__version__,
                "numba_available": graphwhs.NUMBA_AVAILABLE,
                "numba_active": graphwhs.USE_NUMBA,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


def one_pass(args, run, inputs, out_dir: Path, workloads) -> dict:
    """One pass: wall and CPU time, operation counts, digest and summary of the outputs.

    The outputs themselves are dropped, so no pass holds another's memory.
    """
    import numpy as np

    out_dir.mkdir()
    ops = workloads.Ops()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        outputs = run(inputs, out_dir, ops)
    except Exception as err:  # the pass ends here and counts as failed
        traceback.print_exc()
        if not ops.failed:
            ops.check("pass", False, f"raised {err!r}")
        outputs = None
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    files = sorted(f for f in out_dir.rglob("*") if f.is_file())
    digest = summary = None
    if outputs is not None:
        summary = workloads.reference_values(args.workload, outputs)
        h = hashlib.sha256()
        for key in sorted(outputs):
            value = np.ascontiguousarray(outputs[key])
            h.update(f"{key}:{value.dtype}:{value.shape}".encode())
            h.update(value.tobytes())
        for f in files:
            h.update(str(f.relative_to(out_dir)).encode())
            h.update(f.read_bytes())
        digest = h.hexdigest()
    result = {
        "wall": wall,
        "cpu": cpu,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems,
        "bytes": sum(f.stat().st_size for f in files),
        "digest": digest,
        "summary": summary,
    }
    shutil.rmtree(out_dir)
    return result


def measure(args, root: Path, scratch: Path, inputs, run, workloads) -> dict:
    passes = []
    metrics = None
    if args.role == "trace":
        import tracer

        # The first full-size pass in a process pays for growing the heap, so
        # the untraced pass compared with the traced one is the second.
        passes = [one_pass(args, run, inputs, scratch / f"untraced{i}", workloads) for i in (0, 1)]
        tr = tracer.Tracer()
        with tr.installed():
            passes.append(one_pass(args, run, inputs, scratch / "traced", workloads))
        tr.save(root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz")
        untraced, traced = passes[1:]
        metrics = tr.metrics(overhead_s=traced["wall"] - untraced["wall"], cpu_s=untraced["cpu"])
    else:
        start = time.perf_counter()
        while True:
            result = one_pass(args, run, inputs, scratch / f"pass{len(passes)}", workloads)
            passes.append(result)
            if result["digest"] is None:
                break
            walls = [p["wall"] for p in passes]
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break

    problems = [msg for p in passes for msg in p["problems"]]
    failed = sum(p["failed"] for p in passes)
    # Each check below is one more failed output check when it finds a problem.
    if len({p["digest"] for p in passes}) != 1:
        failed += 1
        problems.append("passes over the same inputs gave different outputs"
                        + (" (traced vs untraced)" if args.role == "trace" else ""))
    summary = passes[0]["summary"]
    if summary is not None and args.size == "full" and args.seed == workloads.DEFAULT_SEED:
        ref = reference_problems(args.workload, summary)
        failed += bool(ref)
        problems += ref
    report = {
        "reference_values": summary,
        "walls": [p["wall"] for p in passes],
        "cpus": [p["cpu"] for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "artifact_bytes": passes[0]["bytes"],
        "problems": problems,
    }
    if metrics is not None:
        report["metrics"] = metrics
    return report


def reference_problems(workload: str, values: dict) -> list[str]:
    ref = json.loads((HERE / "reference.json").read_text())[workload]
    out = []
    for key, expected in ref.items():
        got = values[key]
        if abs(got - expected) > 1e-9 * max(1.0, abs(expected)):
            out.append(f"reference {key}: got {got!r}, expected {expected!r}")
    return out


if __name__ == "__main__":
    sys.exit(main())
