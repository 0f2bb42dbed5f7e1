"""The benchmark tracer must keep resolving after library refactors.

``perfbench/tracer.py`` wraps library functions by module and attribute name
and binds the arguments of ``rng.batch_increments`` by parameter name.  A
rename in the library would only show when a traced benchmark run fails, so
this test loads the tracer as it is and checks both.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from graphwhs import rng

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_on_its_module():
    tracer = load_tracer()
    assert tracer.TARGETS
    for name, module_name, attr, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr)), name


def test_batch_increments_hook_binds_the_library_signature():
    tracer = load_tracer()
    params = inspect.signature(rng.batch_increments).parameters
    assert {"master_seed", "first_stream", "n_paths", "n_steps", "substeps", "n_dim", "dt"} <= set(
        params
    )
    for name, module_name, _, _ in tracer.TARGETS:
        importlib.import_module(module_name)
    t = tracer.Tracer()
    with t.installed():
        rng.batch_increments(3, 2, 4, 2, 0.01)
        rng.batch_increments(3, n_paths=2, n_steps=4, n_dim=2, dt=0.01)
    assert rng.batch_increments.__name__ == "batch_increments"
    assert not hasattr(rng.batch_increments, "__wrapped__")
    metrics = t.metrics(0.0, 0.0)
    assert metrics["rng.batch_increments.calls"]["value"] == 2
    assert metrics["rng.batch_increments.normals"]["value"] == 32
    assert metrics["rng.batch_increments.repeat_share"]["value"] == 0.5
