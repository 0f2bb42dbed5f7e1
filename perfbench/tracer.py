"""Spans and counters at graphwhs module boundaries, recorded from outside the program.

``Tracer.installed()`` wraps the functions in ``TARGETS`` for the duration of
a ``with`` block.  A function is rebound in every graphwhs module that binds
it, because ``from x import f`` makes a second name that patching ``x`` does
not reach; a method is rebound on its class.  Each call records a span
(name, start, end, parent span) in memory, and an optional hook adds the
call's work counts.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.requests: set[tuple] = set()
        self._stack: list[int] = []

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a finished span)."""
        return self.names[self._stack[-1]] if self._stack else None

    def wrap(self, name: str, fn, hook=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        undo = []
        try:
            for name, module_name, attr, hook in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__, hook))
                    else:
                        new = self.wrap(name, raw, hook)
                    setattr(cls, meth, new)
                    undo.append((cls, meth, raw))
                    continue
                orig = getattr(module, attr)
                new = self.wrap(name, orig, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "graphwhs" or mod_name.startswith("graphwhs."):
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, key, new)
                                undo.append((mod, key, orig))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def span_table(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(dur.size)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        table: dict[str, tuple[int, float]] = {}
        names = np.asarray(self.names)
        for name in set(self.names):
            mask = names == name
            table[name] = (int(mask.sum()), float(own[mask].sum()))
        return table

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent) to an .npz file."""
        labels = sorted(set(self.names))
        index = {n: i for i, n in enumerate(labels)}
        np.savez_compressed(
            path,
            labels=np.asarray(labels),
            name=np.asarray([index[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
        )

    def metrics(self, overhead_s: float, cpu_s: float) -> dict[str, dict]:
        """Every per-layer metric of ``PER_LAYER``, zero where nothing ran."""
        table = self.span_table()
        c = self.counts
        derived = {
            "dynamics.alive_share": _share(c["dynamics.alive_paths"], c["dynamics.paths"]),
            "rng.batch_increments.repeat_share": _share(
                c["rng.batch_increments.repeat_normals"], c["rng.batch_increments.normals"]
            ),
            "rng.bridge_normal.mean_step": _share(
                c["rng.bridge_normal.step_sum"], table.get("rng.bridge_normal", (0, 0.0))[0]
            ),
            # bellman_gap's own batch_arrays calls are three reachable-cloud
            # probes followed by one call per middle-objective candidate.
            "control.candidate_evals": c["control.value_function_mc.evals"]
            + c["control.bellman_gap.batch_arrays"]
            - 3 * table.get("control.bellman_gap", (0, 0.0))[0],
            "graphs.wasserstein_path.converged_share": _share(
                c["graphs.wasserstein_path.converged"],
                table.get("graphs.wasserstein_path", (0, 0.0))[0],
            ),
            "process.cpu_s": cpu_s,
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in derived:
                value = derived[name]
            elif name.endswith(".calls"):
                value = table.get(_span(name), (0, 0.0))[0]
            elif name.endswith(".self_s"):
                value = table.get(_span(name), (0, 0.0))[1]
            else:
                value = c[name]
            if unit in ("count", "bytes"):
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _span(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


def _file_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    return os.path.getsize(path)


# ---------------------------------------------------------------------------
# hooks: work counts taken at the same boundary as the span
# ---------------------------------------------------------------------------

def _batch_arrays(t: Tracer, args, kwargs, result):
    rho_out, alive = result[1], result[6]
    paths, steps = rho_out.shape[0], rho_out.shape[1] - 1
    escaped = int((~alive).sum())
    c = t.counts
    c["dynamics.path_steps"] += paths * steps
    c["dynamics.paths"] += paths
    c["dynamics.alive_paths"] += paths - escaped
    c["dynamics.escaped_paths"] += escaped
    caller = t.parent_name() or ""
    if caller.startswith("control."):
        c["control.dropped_paths"] += escaped
    if caller == "control.bellman_gap":
        c["control.bellman_gap.batch_arrays"] += 1


def _rows(t: Tracer, args, kwargs, result):
    t.counts["energies.gradient_arrays.rows"] += int(np.prod(np.shape(args[1])[:-1]))


def _batch_increments(t: Tracer, args, kwargs, result):
    # The signature follows __wrapped__ back to the library function.
    bound = inspect.signature(sys.modules["graphwhs.rng"].batch_increments).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    normals = a["n_paths"] * a["n_steps"] * a["substeps"] * a["n_dim"]
    key = (a["master_seed"], a["first_stream"], a["n_paths"], a["n_steps"], a["n_dim"], a["dt"])
    t.counts["rng.batch_increments.normals"] += normals
    if key in t.requests:
        t.counts["rng.batch_increments.repeat_normals"] += normals
    t.requests.add(key)


def _bridge_normal(t: Tracer, args, kwargs, result):
    step_index = args[1] if len(args) > 1 else kwargs["step_index"]
    t.counts["rng.bridge_normal.step_sum"] += step_index


def _value_function_mc(t: Tracer, args, kwargs, result):
    t.counts["control.value_function_mc.evals"] += result.trace["evals"]


def _solve(t: Tracer, args, kwargs, result):
    nt, nr, n1, n2 = result.grid.shape
    t.counts["hjb.node_updates"] += (nt - 1) * nr * n1 * n2
    t.counts["hjb.cfl_number"] = max(t.counts["hjb.cfl_number"], result.cfl["cfl_number"])


def _to_dir(t: Tracer, args, kwargs, result):
    t.counts["hjb.to_dir.bytes"] += _file_bytes(args[1])


def _hjb_layer(t: Tracer, args, kwargs, result):
    # Computed, not measured: five input fields read and one layer written.
    t.counts["kernels.hjb_layer.bytes_computed"] += 6 * args[0].nbytes


def _moreau_lines(t: Tracer, args, kwargs, result):
    lines, m = np.shape(args[0])
    t.counts["kernels.moreau_lines.pairs"] += lines * m * m


def _sse_residual(t: Tracer, args, kwargs, result):
    t.counts["waves.sse_residual.steps"] += result.per_step.size


def _to_csv(t: Tracer, args, kwargs, result):
    t.counts["dynamics.to_csv.bytes"] += _file_bytes(args[1])


def _wave_csv(t: Tracer, args, kwargs, result):
    t.counts["waves.wave_csv.bytes"] += _file_bytes(args[1])


def _wasserstein(t: Tracer, args, kwargs, result):
    t.counts["graphs.wasserstein_path.iters"] += result.action_trace.size - 1
    t.counts["graphs.wasserstein_path.converged"] += bool(result.converged)


# (span name, module, attribute or Class.method, hook)
TARGETS = [
    ("dynamics.batch_arrays", "graphwhs.dynamics", "batch_arrays", _batch_arrays),
    ("dynamics.midpoint_step", "graphwhs.dynamics", "midpoint_step", None),
    ("dynamics.to_csv", "graphwhs.dynamics", "Trajectory.to_csv", _to_csv),
    ("energies.gradient_arrays", "graphwhs.energies", "gradient_arrays", _rows),
    ("energies.dominant_array", "graphwhs.energies", "dominant_array", None),
    ("rng.batch_increments", "graphwhs.rng", "batch_increments", _batch_increments),
    ("rng.bridge_normal", "graphwhs.rng", "RngStream.bridge_normal", _bridge_normal),
    ("control.value_function_mc", "graphwhs.control", "value_function_mc", _value_function_mc),
    ("control.bellman_gap", "graphwhs.control", "bellman_gap", None),
    ("control.running_cost", "graphwhs.control", "running_cost", None),
    ("hjb.hjb_solve_backward", "graphwhs.hjb", "hjb_solve_backward", _solve),
    ("hjb.to_dir", "graphwhs.hjb", "GridValueFunction.to_dir", _to_dir),
    ("hjb.from_dir", "graphwhs.hjb", "GridValueFunction.from_dir", None),
    ("hjb.evaluate", "graphwhs.hjb", "GridValueFunction.evaluate", None),
    ("hjb.sup_convolution", "graphwhs.hjb", "sup_convolution", None),
    ("hjb.inf_convolution", "graphwhs.hjb", "inf_convolution", None),
    ("kernels.hjb_layer", "graphwhs._kernels", "hjb_layer", _hjb_layer),
    ("kernels.moreau_lines", "graphwhs._kernels", "moreau_lines", _moreau_lines),
    ("waves.sse_residual", "graphwhs.waves", "sse_residual", _sse_residual),
    ("waves.wave_csv", "graphwhs.waves", "wave_csv", _wave_csv),
    ("graphs.wasserstein_path", "graphwhs.graphs", "wasserstein_path", _wasserstein),
]

# Every metric the traced run reports, with its unit (BENCHMARK.json per_layer).
PER_LAYER = [
    ("dynamics.batch_arrays.calls", "count"),
    ("dynamics.batch_arrays.self_s", "s"),
    ("dynamics.midpoint_step.calls", "count"),
    ("dynamics.midpoint_step.self_s", "s"),
    ("dynamics.path_steps", "count"),
    ("dynamics.escaped_paths", "count"),
    ("dynamics.alive_share", "ratio"),
    ("dynamics.to_csv.self_s", "s"),
    ("dynamics.to_csv.bytes", "bytes"),
    ("energies.gradient_arrays.calls", "count"),
    ("energies.gradient_arrays.self_s", "s"),
    ("energies.gradient_arrays.rows", "count"),
    ("energies.dominant_array.calls", "count"),
    ("energies.dominant_array.self_s", "s"),
    ("rng.batch_increments.calls", "count"),
    ("rng.batch_increments.self_s", "s"),
    ("rng.batch_increments.normals", "count"),
    ("rng.batch_increments.repeat_share", "ratio"),
    ("rng.bridge_normal.calls", "count"),
    ("rng.bridge_normal.self_s", "s"),
    ("rng.bridge_normal.mean_step", "step"),
    ("control.value_function_mc.calls", "count"),
    ("control.value_function_mc.self_s", "s"),
    ("control.bellman_gap.self_s", "s"),
    ("control.candidate_evals", "count"),
    ("control.running_cost.calls", "count"),
    ("control.running_cost.self_s", "s"),
    ("control.dropped_paths", "count"),
    ("hjb.hjb_solve_backward.self_s", "s"),
    ("hjb.node_updates", "count"),
    ("hjb.cfl_number", "ratio"),
    ("hjb.to_dir.self_s", "s"),
    ("hjb.to_dir.bytes", "bytes"),
    ("hjb.from_dir.self_s", "s"),
    ("hjb.evaluate.calls", "count"),
    ("hjb.evaluate.self_s", "s"),
    ("hjb.sup_convolution.self_s", "s"),
    ("hjb.inf_convolution.self_s", "s"),
    ("kernels.hjb_layer.calls", "count"),
    ("kernels.hjb_layer.self_s", "s"),
    ("kernels.hjb_layer.bytes_computed", "bytes"),
    ("kernels.moreau_lines.calls", "count"),
    ("kernels.moreau_lines.self_s", "s"),
    ("kernels.moreau_lines.pairs", "count"),
    ("waves.sse_residual.calls", "count"),
    ("waves.sse_residual.self_s", "s"),
    ("waves.sse_residual.steps", "count"),
    ("waves.wave_csv.self_s", "s"),
    ("waves.wave_csv.bytes", "bytes"),
    ("graphs.wasserstein_path.calls", "count"),
    ("graphs.wasserstein_path.self_s", "s"),
    ("graphs.wasserstein_path.iters", "count"),
    ("graphs.wasserstein_path.converged_share", "ratio"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
]
