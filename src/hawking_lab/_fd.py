"""Richardson-extrapolated finite-difference derivatives of batched callables.

The point-cloud helpers here differentiate smooth fields of chart coordinates
(scalar curvature) with a relative step chosen by the caller: the absolute
step is ``step * max(1, |x|)``.  Grid differentiation on the sphere is
spectral and lives in the surface module.
"""

import numpy as np

__all__ = [
    "diff1_richardson",
    "diff2_richardson",
]


def _batched(fn, pts):
    """Evaluate ``fn`` on a stack of point batches with a single call."""
    pts = np.asarray(pts, dtype=float)
    lead = pts.shape[:-1]
    out = np.asarray(fn(pts.reshape(-1, 3)))
    return out.reshape(lead + out.shape[1:])


def diff1_richardson(fn, x, step):
    """First partial derivatives of a batched field of chart coordinates.

    Central differences at steps ``h`` and ``h/2`` combined by one Richardson
    extrapolation (fourth-order truncation).  ``fn`` maps ``(..., 3)`` points
    to values of any trailing shape; the result prepends an axis of length 3
    for the derivative direction.
    """
    x = np.asarray(x, dtype=float)
    h = step * np.maximum(1.0, np.linalg.norm(x, axis=-1))  # (...,)
    eye = np.eye(3)
    pts = np.empty((3, 2, 2) + x.shape)
    for a in range(3):
        for si, s in enumerate((1.0, -1.0)):
            for ci, c in enumerate((1.0, 0.5)):
                pts[a, si, ci] = x + (s * c) * h[..., np.newaxis] * eye[a]
    vals = _batched(fn, pts)  # (3, 2, 2) + lead + trailing
    hh = h.reshape(h.shape + (1,) * (vals.ndim - 3 - h.ndim))
    d_h = (vals[:, 0, 0] - vals[:, 1, 0]) / (2.0 * hh)
    d_h2 = (vals[:, 0, 1] - vals[:, 1, 1]) / hh
    return (4.0 * d_h2 - d_h) / 3.0


def diff2_richardson(fn, x, step):
    """Second partial derivatives ``D[a, b] = d^2 f / dx^a dx^b``.

    Uses second differences (diagonal) and cross stencils at steps ``h`` and
    ``h/2`` with one Richardson extrapolation.
    """
    x = np.asarray(x, dtype=float)
    h = step * np.maximum(1.0, np.linalg.norm(x, axis=-1))
    eye = np.eye(3)

    def second_diff(hh):
        # f(x + hh e_a) etc. for diagonal, 4-point cross for mixed
        pts = [x]
        for a in range(3):
            pts.append(x + hh[..., None] * eye[a])
            pts.append(x - hh[..., None] * eye[a])
        pairs = [(0, 1), (0, 2), (1, 2)]
        for a, b in pairs:
            e = eye[a] + eye[b]
            f = eye[a] - eye[b]
            pts.append(x + hh[..., None] * e)
            pts.append(x - hh[..., None] * e)
            pts.append(x + hh[..., None] * f)
            pts.append(x - hh[..., None] * f)
        vals = _batched(fn, np.stack(pts))
        f0 = vals[0]
        hh2 = (hh * hh).reshape(hh.shape + (1,) * (f0.ndim - hh.ndim))
        out = np.empty((3, 3) + f0.shape)
        for a in range(3):
            fp = vals[1 + 2 * a]
            fm = vals[2 + 2 * a]
            out[a, a] = (fp - 2.0 * f0 + fm) / hh2
        base = 7
        for idx, (a, b) in enumerate(pairs):
            pp = vals[base + 4 * idx]
            mm = vals[base + 4 * idx + 1]
            pm = vals[base + 4 * idx + 2]
            mp = vals[base + 4 * idx + 3]
            mixed = (pp + mm - pm - mp) / (4.0 * hh2)
            out[a, b] = mixed
            out[b, a] = mixed
        return out

    d_h = second_diff(h)
    d_h2 = second_diff(0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0
