"""Hot numeric kernels: grid-solver layer sweeps, Moreau line transforms and
multilinear interpolation.

All are numpy.  The layer sweep treats grid cells independently (it reads
only from the previous layer).  The Moreau line transform sweeps only the
band of source offsets whose candidates can still beat the output point's
own value.  ``fhat_norm`` is the one closed form of the ball-constrained
Legendre transform; ``control`` and the layer sweep both use it.  The
interpolators serve ``hjb`` (grid values) and ``control`` (the nested
lattice), so they live here, below both.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


# ---------------------------------------------------------------------------
# Backward-in-time layer update for the n = 2 grid solver.
#
# H(U) = upwind(a_r dU/dr) + upwind(b1 dU/dx1) + upwind(b2 dU/dx2)
#        + 0.5 sig1sq D11 U + 0.5 sig2sq D22 U
#        + ell * (second differences on x axes) / (2 h)        [LF viscosity]
#        - Fhat(central D_x U) + g_field
# new U = U + dt * H.  One-sided slopes at boundaries; second differences
# vanish there.  The LF viscosity dominates the ell-Lipschitz Fhat, which
# keeps the interior stencil monotone under the recorded time-step bound.
# ---------------------------------------------------------------------------

def fhat_norm(qn, c, ell):
    """sup_{|V| <= ell} <q, V> - c |V|^2 as a function of |q| (elementwise)."""
    return np.where(qn <= 2.0 * c * ell, qn * qn / (4.0 * c), ell * qn - c * ell * ell)


def _slopes(U: np.ndarray, h: float, axis: int):
    d = np.diff(U, axis=axis) / h
    first = d.take([0], axis=axis)
    last = d.take([-1], axis=axis)
    Dp = np.concatenate([d, last], axis=axis)
    Dm = np.concatenate([first, d], axis=axis)
    return Dp, Dm


def _second(U: np.ndarray, axis: int) -> np.ndarray:
    out = np.zeros_like(U)
    m = U.shape[axis]
    hi = U.take(range(2, m), axis=axis)
    mid = U.take(range(1, m - 1), axis=axis)
    lo = U.take(range(0, m - 2), axis=axis)
    sl = [slice(None)] * U.ndim
    sl[axis] = slice(1, m - 1)
    out[tuple(sl)] = hi - 2.0 * mid + lo
    return out


def hjb_layer(U, a_r, b1, b2, g_field, sig1sq, sig2sq, hr, h1, h2, dt, ell, c):
    """One explicit backward step of the monotone scheme on a (nr, n1, n2) layer."""
    Dpr, Dmr = _slopes(U, hr, 0)
    Dp1, Dm1 = _slopes(U, h1, 1)
    Dp2, Dm2 = _slopes(U, h2, 2)
    transport = (
        np.maximum(a_r, 0.0) * Dpr + np.minimum(a_r, 0.0) * Dmr
        + np.maximum(b1, 0.0) * Dp1 + np.minimum(b1, 0.0) * Dm1
        + np.maximum(b2, 0.0) * Dp2 + np.minimum(b2, 0.0) * Dm2
    )
    s1 = _second(U, 1)
    s2 = _second(U, 2)
    diffusion = 0.5 * sig1sq * s1 / (h1 * h1) + 0.5 * sig2sq * s2 / (h2 * h2)
    viscosity = ell * s1 / (2.0 * h1) + ell * s2 / (2.0 * h2)
    q1 = 0.5 * (Dp1 + Dm1)
    q2 = 0.5 * (Dp2 + Dm2)
    qn = np.sqrt(q1 * q1 + q2 * q2)
    fhat = fhat_norm(qn, c, ell) - g_field
    return U + dt * (transport + diffusion + viscosity - fhat)


# ---------------------------------------------------------------------------
# One-dimensional Moreau line transform: the building block of the separable
# sup-convolution.  out[:, i] = max_j vals[:, j] - weight (c_i - c_j)^2 / (2 theta).
# ---------------------------------------------------------------------------

def moreau_lines(vals: np.ndarray, coords: np.ndarray, weight: float, theta: float) -> np.ndarray:
    """Row-wise quadratic sup-envelope along one grid axis.

    Works on the (m, lines) transpose and sweeps source offsets d: the block
    vals[i + d] - pen[i, i + d] (and the one at -d) folds into the running
    maximum of every line at once.  Exactness: offset 0 is each point's own
    value (pen[i, i] = 0); past ``_reach`` every penalty exceeds what the
    source can gain, so by monotone rounding its candidate never beats that
    value; and a max is exact.  The result is the full sweep's bit for bit,
    except for which sign wins a tie of +0.0 and -0.0.  The transpose is free
    when ``vals`` is itself the transpose of a C-contiguous array, and the
    result comes back in that layout.
    """
    vt = np.ascontiguousarray(np.asarray(vals, dtype=float).T)
    coords = np.ascontiguousarray(coords, dtype=float)
    m = coords.size
    pen = float(weight) * (coords[:, None] - coords[None, :]) ** 2 / (2.0 * float(theta))
    out = vt - pen.diagonal()[:, None]
    tmp = np.empty_like(vt[1:])
    for d in range(1, _reach(vt, coords, pen, tmp) + 1):
        np.subtract(vt[d:], pen.diagonal(d)[:, None], out=tmp[:m - d])
        np.maximum(out[:m - d], tmp[:m - d], out=out[:m - d])
        np.subtract(vt[:m - d], pen.diagonal(-d)[:, None], out=tmp[:m - d])
        np.maximum(out[d:], tmp[:m - d], out=out[d:])
    return out.T


def _reach(vt: np.ndarray, coords: np.ndarray, pen: np.ndarray, tmp: np.ndarray) -> int:
    """Largest offset |i - j| at which vt[j] - pen[i, j] can beat vt[i].

    With R the spread of the whole block and L its steepest slope, the
    real difference vt[j] - vt[i] is at most min(R, L |c_j - c_i|).  The
    bound floors both L and itself at the smallest normal float, which
    covers underflow, and its 1e-12 margin covers the rest of the rounding.
    Rounding can make the offsets in reach non-contiguous, so this is the
    largest one, not the first one out of reach.  Every offset is in reach
    when the block is empty or not finite, or when the coordinates do not
    strictly increase.  ``tmp`` holds the slopes.
    """
    m = coords.size
    step = np.diff(coords)
    if m < 2 or vt.size == 0 or not (step > 0.0).all():
        return m - 1
    tiny = np.finfo(float).tiny
    # Infinite or NaN values sweep every offset; any other overflow only
    # widens the band.
    with np.errstate(over="ignore", invalid="ignore"):
        spread = vt.max() - vt.min()
        np.subtract(vt[1:], vt[:-1], out=tmp)
        np.divide(tmp, step[:, None], out=tmp)
        slope = max(tmp.max(), -tmp.min(), tiny)
        if not (np.isfinite(spread) and np.isfinite(slope)):
            return m - 1
        dist = np.abs(coords[:, None] - coords[None, :])
        bound = np.maximum(np.minimum(spread, slope * dist), tiny) * (1.0 + 1e-12)
    offset = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    # NaN penalties compare false and so stay in reach.
    return int(offset[~(pen >= bound)].max(initial=0))


# ---------------------------------------------------------------------------
# Multilinear interpolation on a rectilinear grid.  Both functions repeat the
# arithmetic of scipy's linear RegularGridInterpolator step for step, so they
# agree with it bitwise:
#   cell k = clip(searchsorted(g, p, "right") - 1, 0, len(g) - 2),
#   fraction y = (p - g[k]) / (g[k + 1] - g[k]),
#   corners in itertools.product order (first axis most significant), each
#   weighted by ((1 * w0) * w1) * ... with w = 1 - y below and y above,
#   terms summed left to right onto 0.0.
# A length-1 axis contributes its one node with weight 1 (scipy's index -1
# with fraction 0) and a corner of weight 0.
# ---------------------------------------------------------------------------

def multilinear(axes, values: np.ndarray, points) -> np.ndarray:
    """Interpolate ``values`` on the grid ``axes`` at (rows, d) ``points``.

    Outside the grid the edge cell's formula extrapolates, and a point with
    a NaN coordinate gives NaN: scipy's ``bounds_error=False,
    fill_value=None``.
    """
    pts = np.asarray(points, dtype=float)
    rows = pts.shape[0]
    # Corner-major: row c of idx/weight is corner c for every point.
    idx = np.zeros((1, rows), dtype=np.intp)
    weight = np.ones((1, rows))
    for i, (g, p) in enumerate(zip(axes, pts.T)):
        m = g.size
        if m == 1:
            k = np.zeros(rows, dtype=np.intp)
            y = np.zeros(rows)
        else:
            # == clip(searchsorted(g, p, "right") - 1, 0, m - 2), NaN included
            k = np.searchsorted(g[1:-1], p, "right")
            lo = g.take(k)
            y = (p - lo) / (g[1:].take(k) - lo)
        pair = np.stack([k, k + (m > 1)])
        idx = (idx[:, None] * m + pair).reshape(2 << i, rows)
        weight = (weight[:, None] * np.stack([1.0 - y, y])).reshape(2 << i, rows)
    terms = values.take(idx) * weight
    out = np.zeros(rows)
    for term in terms:
        out += term
    out[np.isnan(pts).any(axis=-1)] = np.nan
    return out


def multilinear_at(axes, values: np.ndarray, point) -> float:
    """``multilinear`` at one point, which must lie inside a grid whose
    axes have two or more nodes each.

    A point outside the grid or with a NaN coordinate raises ``ValueError``
    (scipy's ``bounds_error=True``).  ``multilinear`` makes some fifty numpy
    calls whatever the number of points, so one probe costs about ten times
    more there than here, where plain floats bisect the axis lists and
    ``ndarray.item`` reads the 2**d corner values.
    """
    corners = [(0, 1.0)]  # (flat C-order offset, weight)
    stride = values.size
    for i, (g, m, p) in enumerate(zip(axes, values.shape, point)):
        g = g.tolist()
        p = float(p)
        if not g[0] <= p <= g[-1]:
            raise ValueError(f"a point is outside the grid in dimension {i}")
        stride //= m
        k = min(bisect_right(g, p) - 1, m - 2)
        y = (p - g[k]) / (g[k + 1] - g[k])
        pair = ((k * stride, 1.0 - y), ((k + 1) * stride, y))
        corners = [(off + o, w * v) for off, w in corners for o, v in pair]
    item = values.item
    out = 0.0
    for off, w in corners:
        out += item(off) * w
    return out
