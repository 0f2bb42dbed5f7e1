"""Reproducible counter-based noise streams.

Brownian increments are pure functions of ``(master_seed, stream_id, word
index)``: each stream owns a Philox-4x64 generator keyed by the pair, raw
64-bit words are mapped to normals through the inverse CDF, and word index
equals normal index (no rejection sampling).  Consequences relied on
elsewhere:

* a single path and a row of a batch produce bit-identical noise,
* an increment over a coarse step is the sum of the increments of the fine
  steps it covers (``substeps`` base draws per step), which is what
  common-noise refinement studies need,
* the order in which streams are read cannot change any result, because
  nothing is shared.

Reads are random access through the Philox counter: reading ``count`` words
from word w costs O(count) whatever w is, and nothing is cached, so a
boundary rescue at step k costs the same as one at step 0.

Bridge draws (used when a step is halved at the simplex boundary) come from
a separate key so they never collide with base draws.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

Array = np.ndarray

# Bridge slots reserved per nominal step (one normal vector each).  Binary
# step refinement of depth d consumes at most 2^d - 1 slots, so 1024 slots
# cover rejection depths up to 10.
_BRIDGE_SLOTS = 1024


def _raw_to_normals(raw: Array) -> Array:
    # Top 53 bits -> uniform strictly inside (0,1), then inverse CDF.  The
    # top value lands on the tie 1 - 2**-54, which rounds to 1.0; the clamp
    # moves only that value.
    u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))


def _check_stream_id(stream_id: int) -> int:
    # Bit 63 of the key marks bridge draws, so a wider id would alias them.
    if not 0 <= stream_id < 2**63:
        raise ValueError("stream_id must fit in 63 bits")
    return int(stream_id)


def _philox(master_seed: int, stream_id: int, bridge: bool = False) -> np.random.Philox:
    lane = _check_stream_id(stream_id) | (int(bridge) << 63)
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, lane], dtype=np.uint64)
    return np.random.Philox(key=key)


def _words(master_seed: int, stream_id: int, start: int, count: int, bridge: bool = False) -> Array:
    """Raw words start..start+count-1 of a stream, read through the counter."""
    if start < 0:
        # Philox.advance wraps a negative count round the counter space.
        raise ValueError("word index must be non-negative")
    gen = _philox(master_seed, stream_id, bridge)
    # Philox-4x64 yields four 64-bit words per counter value.
    block, skip = divmod(start, 4)
    gen.advance(block)
    return gen.random_raw(skip + count)[skip:]


class RngStream:
    """One reproducible noise stream, identified by (master_seed, stream_id)."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed)
        self.stream_id = _check_stream_id(stream_id)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def base_normals(self, count: int, start: int = 0) -> Array:
        """Standard normals ``start``..``start+count-1`` of the stream (flat order)."""
        return _raw_to_normals(_words(self.master_seed, self.stream_id, start, count))

    def brownian_increments(self, n_steps: int, n_dim: int, dt: float, substeps: int = 1) -> Array:
        """Increments of an ``n_dim``-dimensional Brownian path on ``n_steps`` steps.

        Each step sums ``substeps`` base draws of variance ``dt/substeps``, so
        a run at (n_steps, substeps=m) and one at (m*n_steps, substeps=1) see
        the same Brownian path.
        """
        if n_steps < 0 or substeps < 1:
            raise ValueError("need n_steps >= 0 and substeps >= 1")
        z = self.base_normals(n_steps * substeps * n_dim).reshape(n_steps, substeps, n_dim)
        # Scale before summing: the coarse increment is then the plain float
        # sum of the fine increments it covers.
        return (np.sqrt(dt / substeps) * z).sum(axis=1)

    def bridge_normal(self, step_index: int, slot: int, n_dim: int) -> Array:
        """Standard-normal vector for the ``slot``-th split inside step ``step_index``."""
        # A negative step_index gives a negative word index, which _words rejects.
        if not 0 <= slot < _BRIDGE_SLOTS:
            raise ValueError(f"bridge slot {slot} outside the budget [0, {_BRIDGE_SLOTS})")
        start = (step_index * _BRIDGE_SLOTS + slot) * n_dim
        return _raw_to_normals(_words(self.master_seed, self.stream_id, start, n_dim, True))


def batch_increments(
    master_seed: int,
    n_paths: int,
    n_steps: int,
    n_dim: int,
    dt: float,
    substeps: int = 1,
    first_stream: int = 0,
) -> Array:
    """Increments for streams first_stream..first_stream+n_paths-1.

    Shape (n_paths, n_steps, n_dim).  Row p is bit-identical to
    ``RngStream(master_seed, first_stream + p).brownian_increments(...)``;
    the batched version just amortizes the inverse-CDF call.
    """
    words = n_steps * substeps * n_dim
    raw = np.empty((n_paths, words), dtype=np.uint64)
    for p in range(n_paths):
        raw[p] = _words(master_seed, first_stream + p, 0, words)
    z = _raw_to_normals(raw).reshape(n_paths, n_steps, substeps, n_dim)
    return (np.sqrt(dt / substeps) * z).sum(axis=2)
