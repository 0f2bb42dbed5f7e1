"""Timing comparison of the compiled and pure-numpy grid layer sweep.

Runs one backward grid layer (`hjb_layer`, the only kernel with a compiled
twin) on a realistic shape with both backends and prints the medians.
Without numba both columns time the numpy fallback.  The package is
imported from the ``src/`` directory of the checkout holding this script.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphwhs._accel import NUMBA_AVAILABLE, USE_NUMBA  # noqa: E402
from graphwhs._kernels import hjb_layer  # noqa: E402


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def bench_layer(shape, repeats):
    rng = np.random.default_rng(0)
    U = rng.normal(0.0, 1.0, shape)
    a = rng.uniform(-1.0, 1.0, shape)
    b1 = rng.uniform(-2.0, 2.0, shape)
    b2 = rng.uniform(-2.0, 2.0, shape)
    g = rng.uniform(0.0, 1.0, shape)
    hr, h1, h2 = 0.05, 0.0625, 0.0625
    dt = 0.002

    def run(force):
        return hjb_layer(U, a, b1, b2, g, 0.04, 0.04, hr, h1, h2, dt, 1.0, 0.5,
                         force_numpy=force)

    run(False)  # warm the compiled path before timing
    fast = median_time(lambda: run(False), repeats)
    slow = median_time(lambda: run(True), repeats)
    same = np.allclose(run(False), run(True), rtol=1e-12, atol=1e-12)
    return fast, slow, same


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--grid", type=int, nargs=3, default=(65, 65, 65),
                        metavar=("NR", "N1", "N2"))
    args = parser.parse_args()

    print(f"numba available: {NUMBA_AVAILABLE}; compiled path active: {USE_NUMBA}")
    print(f"grid layer shape {tuple(args.grid)}, median of {args.repeats}")

    fast, slow, same = bench_layer(tuple(args.grid), args.repeats)
    print(f"hjb_layer    compiled {fast*1e3:8.2f} ms   numpy {slow*1e3:8.2f} ms   "
          f"speedup {slow/fast:5.1f}x   agree={same}")


if __name__ == "__main__":
    main()
