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

The inverse CDF is a numpy port of Cephes ``ndtri``, the algorithm behind
``scipy.special.ndtri``, with the same tables and the same order of
operations; the two logs of the tails come from libm (``math.log``), so
every normal equals scipy's bitwise without importing ``scipy.special``.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import int_at_least

Array = np.ndarray

# Bridge slots reserved per nominal step (one normal vector each).  Binary
# step refinement of depth d consumes at most 2^d - 1 slots, so 1024 slots
# cover rejection depths up to 10.
_BRIDGE_SLOTS = 1024


# Cephes ndtri: a rational function of y - 1/2 on the centre
# exp(-2) < y < 1 - exp(-2), and of z = 1/x with x = sqrt(-2 log y) on the
# tails, one table pair for 2 <= x < 8 and one for x >= 8 (y < exp(-32)).
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: Array, coef: tuple) -> Array:
    # Horner's rule as Cephes writes it: a multiply, then an add, per term.
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: Array, coef: tuple) -> Array:
    # As _polevl with an implicit leading coefficient 1.
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(a: Array) -> Array:
    # numpy's SIMD log and libm's differ in the last bit on some inputs
    # (tens of draws per million); scipy's ndtri takes libm's.
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


def _ndtri(y0: Array) -> Array:
    """Inverse standard-normal CDF of a flat array strictly inside (0, 1).

    The callers' clamp keeps 0, 1 and NaN out, so the infinities and the
    domain error of Cephes are not needed.
    """
    out = np.empty_like(y0)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    centre = y > _EXP_M2

    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI

    tail = ~centre
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.where(
        x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1), z * _polevl(z, _P2) / _p1evl(z, _Q2)
    )
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _raw_to_normals(raw: Array) -> Array:
    # Top 53 bits -> uniform strictly inside (0,1), then inverse CDF.  The
    # top value lands on the tie 1 - 2**-54, which rounds to 1.0; the clamp
    # moves only that value.
    u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    return _ndtri(u.ravel()).reshape(u.shape)


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
    """Brownian increments for streams first_stream..first_stream+n_paths-1.

    Shape (n_paths, n_steps, n_dim).  Row p is the ``n_dim``-dimensional
    Brownian path of stream first_stream + p: its base normals in order,
    whatever the batch, so it equals the one-row batch of that stream bit
    for bit.  Each step sums ``substeps`` base draws of variance
    ``dt/substeps``, so (n_steps, substeps=m) and (m*n_steps, substeps=1)
    see the same Brownian path.
    """
    n_paths = int_at_least(n_paths, 0, "n_paths")
    n_steps = int_at_least(n_steps, 0, "n_steps")
    substeps = int_at_least(substeps, 1, "substeps")
    words = n_steps * substeps * n_dim
    raw = np.empty((n_paths, words), dtype=np.uint64)
    for p in range(n_paths):
        raw[p] = _words(master_seed, first_stream + p, 0, words)
    z = _raw_to_normals(raw).reshape(n_paths, n_steps, substeps, n_dim)
    # Scale before summing: the coarse increment is then the plain float
    # sum of the fine increments it covers.
    return (np.sqrt(dt / substeps) * z).sum(axis=2)
