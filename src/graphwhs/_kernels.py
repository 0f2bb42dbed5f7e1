"""Hot numeric kernels: grid-solver layer sweeps and Moreau line transforms.

Both are vectorized numpy.  The layer sweep treats grid cells independently
(it reads only from the previous layer).  The Moreau line transform is bound
by memory traffic.  ``fhat_norm`` is the one closed form of the
ball-constrained Legendre transform; ``control`` and the layer sweep both
use it.
"""

from __future__ import annotations

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

    Works on the (m, lines) transpose, so the loop over source points j
    folds one contiguous candidate block vals[:, j] - pen[i, j] into the
    running maximum of every output point i at once.  A max is exact, so
    the order of the sweep does not change the result.  The transpose is
    free when ``vals`` is itself the transpose of a C-contiguous array, and
    the result comes back in that layout.
    """
    vt = np.ascontiguousarray(np.asarray(vals, dtype=float).T)
    coords = np.ascontiguousarray(coords, dtype=float)
    pen = float(weight) * (coords[:, None] - coords[None, :]) ** 2 / (2.0 * float(theta))
    out = vt[0][None, :] - pen[:, 0][:, None]
    tmp = np.empty_like(out)
    for j in range(1, coords.size):
        np.subtract(vt[j][None, :], pen[:, j][:, None], out=tmp)
        np.maximum(out, tmp, out=out)
    return out.T
