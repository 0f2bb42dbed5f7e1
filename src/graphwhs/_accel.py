"""Optional numba acceleration shim.

The grid layer sweep (`_kernels.hjb_layer`) is written twice: a numba
``@njit`` version and a pure-numpy fallback.  Which one runs is decided
once at import time:

* numba missing  -> numpy fallback,
* ``GRAPHWHS_NO_NUMBA`` set to a non-empty value -> numpy fallback,
* otherwise -> compiled kernels.

``USE_NUMBA`` records the decision so callers (and the benchmark script)
can report which backend is active.
"""

import os

try:
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        # Dummy decorator so kernel modules import unchanged.
        def decorator(func):
            return func

        if len(args) == 1 and callable(args[0]):
            return args[0]
        return decorator

    def prange(*args):
        return range(*args)

USE_NUMBA = NUMBA_AVAILABLE and not os.environ.get("GRAPHWHS_NO_NUMBA")
