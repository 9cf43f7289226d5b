"""Independent oracles used by the test suite.

Metric derivatives come from exact sympy differentiation of the chart
expressions; the tensor assembly below is deliberately written with explicit
index loops (a second implementation path, independent of the package's
vectorized einsum assembly).  Distance oracles use 1-D quadrature and
closed-form space-form geometry.
"""

from math import fsum

import mpmath
import numpy as np
import sympy as sp
from scipy.integrate import quad
from scipy.optimize import brentq

_X = sp.symbols("x1 x2 x3", real=True)


def _loop_assembly(g_inv, dg, ddg, total, dtype=float):
    """Christoffel symbols and R^a_bcd by explicit index loops.

    ``total`` sums an iterable: ``math.fsum`` on float arrays, ``mpmath.fsum``
    on ``dtype=object`` arrays of mpf entries.
    """
    ra = range(3)
    gamma = np.zeros((3, 3, 3), dtype=dtype)
    for c in ra:
        for a in ra:
            for b in ra:
                gamma[c, a, b] = 0.5 * total(
                    g_inv[c, d] * (dg[a, d, b] + dg[b, d, a] - dg[d, a, b])
                    for d in ra
                )
    dg_inv = np.zeros((3, 3, 3), dtype=dtype)
    for e in ra:
        for c in ra:
            for d in ra:
                dg_inv[e, c, d] = -total(
                    g_inv[c, a] * dg[e, a, b] * g_inv[b, d] for a in ra for b in ra
                )
    dgamma = np.zeros((3, 3, 3, 3), dtype=dtype)
    for e in ra:
        for c in ra:
            for a in ra:
                for b in ra:
                    dgamma[e, c, a, b] = 0.5 * total(
                        dg_inv[e, c, d] * (dg[a, d, b] + dg[b, d, a] - dg[d, a, b])
                        + g_inv[c, d]
                        * (ddg[e, a, d, b] + ddg[e, b, d, a] - ddg[e, d, a, b])
                        for d in ra
                    )
    riem_up = np.zeros((3, 3, 3, 3), dtype=dtype)
    for a in ra:
        for b in ra:
            for c in ra:
                for d in ra:
                    riem_up[a, b, c, d] = (
                        dgamma[c, a, d, b]
                        - dgamma[d, a, c, b]
                        + total(gamma[a, c, e] * gamma[e, d, b] for e in ra)
                        - total(gamma[a, d, e] * gamma[e, c, b] for e in ra)
                    )
    return gamma, riem_up


class SymbolicMetricOracle:
    """Curvature oracle: exact symbolic metric derivatives + loop assembly.

    The float methods run the loop assembly in double precision.
    :meth:`scalar_derivatives` runs it in 60-digit mpmath arithmetic and
    differences the assembled Sc at h = 1e-15, so its truncation (h^2 ~
    1e-30) and rounding (1e-60 / h^2 = 1e-30) both sit far below double
    precision.
    """

    DIGITS = 60

    def __init__(self, g_matrix):
        g = sp.Matrix(g_matrix)
        self._g_fn = sp.lambdify(_X, g, "numpy")
        dg = [[[sp.diff(g[a, b], _X[c]) for b in range(3)] for a in range(3)] for c in range(3)]
        self._dg_fn = sp.lambdify(_X, dg, "numpy")
        ddg = [
            [[[sp.diff(dg[c][a][b], _X[d]) for b in range(3)] for a in range(3)] for c in range(3)]
            for d in range(3)
        ]
        self._ddg_fn = sp.lambdify(_X, ddg, "numpy")
        self._mp_fns = [sp.lambdify(_X, expr, "mpmath") for expr in (g.tolist(), dg, ddg)]
        self._g_sym = g

    def _data(self, point):
        args = tuple(float(v) for v in point)
        g = np.asarray(self._g_fn(*args), dtype=float)
        dg = np.asarray(self._dg_fn(*args), dtype=float)
        ddg = np.asarray(self._ddg_fn(*args), dtype=float)
        return g, dg, ddg

    def christoffel(self, point):
        g, dg, ddg = self._data(point)
        return _loop_assembly(np.linalg.inv(g), dg, ddg, fsum)[0]

    def _riemann_up(self, point):
        g, dg, ddg = self._data(point)
        return g, _loop_assembly(np.linalg.inv(g), dg, ddg, fsum)[1]

    def riemann(self, point):
        g, riem_up = self._riemann_up(point)
        return np.einsum("ae,ebcd->abcd", g, riem_up)

    def ricci(self, point):
        _, riem_up = self._riemann_up(point)
        return np.einsum("abad->bd", riem_up)

    def scalar(self, point):
        g, riem_up = self._riemann_up(point)
        ric = np.einsum("abad->bd", riem_up)
        return float(np.einsum("bd,bd->", np.linalg.inv(g), ric))

    def _mp_assembly(self, point):
        """(g^{-1}, Gamma, Sc) at mpf ``point`` in the working precision."""
        g, dg, ddg = (np.array(fn(*point), dtype=object) for fn in self._mp_fns)
        g_inv = np.array(mpmath.inverse(mpmath.matrix(g.tolist())).tolist(), dtype=object)
        gamma, riem_up = _loop_assembly(g_inv, dg, ddg, mpmath.fsum, dtype=object)
        ra = range(3)
        sc = mpmath.fsum(
            g_inv[b, d] * riem_up[a, b, a, d] for a in ra for b in ra for d in ra
        )
        return g_inv, gamma, sc

    def scalar_derivatives(self, point):
        """d_a Sc and g^{ab} (d_a d_b Sc - Gamma^c_ab d_c Sc) at ``point``, by
        central differences of the 60-digit Sc."""
        ra = range(3)
        with mpmath.workdps(self.DIGITS):
            p = [mpmath.mpf(float(v)) for v in point]
            h = mpmath.mpf("1e-15")

            def sc(*steps):
                q = list(p)
                for a, s in steps:
                    q[a] += s * h
                return self._mp_assembly(q)[2]

            g_inv, gamma, s0 = self._mp_assembly(p)
            plus = [sc((a, 1)) for a in ra]
            minus = [sc((a, -1)) for a in ra]
            grad = [(plus[a] - minus[a]) / (2 * h) for a in ra]
            hess = [[None] * 3 for _ in ra]
            for a in ra:
                hess[a][a] = (plus[a] - 2 * s0 + minus[a]) / h**2
                for b in range(a + 1, 3):
                    hess[a][b] = hess[b][a] = (
                        sc((a, 1), (b, 1)) - sc((a, 1), (b, -1))
                        - sc((a, -1), (b, 1)) + sc((a, -1), (b, -1))
                    ) / (4 * h**2)
            lap = mpmath.fsum(
                g_inv[a, b] * (hess[a][b] - mpmath.fsum(gamma[c, a, b] * grad[c] for c in ra))
                for a in ra
                for b in ra
            )
            return np.array([float(v) for v in grad]), float(lap)


class ConformalScalarOracle:
    """Exact Sc, grad Sc and Laplacian Sc for g = exp(2 phi) delta.

    Uses the closed conformal-flat expressions, fully symbolic and therefore
    independent of any finite differencing:
    Sc = exp(-2 phi) (-4 lap phi - 2 |grad phi|^2),
    Lap_g f = exp(-3 phi) d_a (exp(phi) d_a f).
    """

    def __init__(self, phi_expr_fn):
        phi = phi_expr_fn(*_X)
        lap_phi = sum(sp.diff(phi, v, 2) for v in _X)
        grad2 = sum(sp.diff(phi, v) ** 2 for v in _X)
        sc = sp.exp(-2 * phi) * (-4 * lap_phi - 2 * grad2)
        lap_sc = sp.exp(-3 * phi) * sum(
            sp.diff(sp.exp(phi) * sp.diff(sc, v), v) for v in _X
        )
        grad_sc = [sp.diff(sc, v) for v in _X]
        self.scalar = lambda p: float(sp.lambdify(_X, sc)(*map(float, p)))
        self._grad = sp.lambdify(_X, grad_sc)
        self.scalar_laplacian = lambda p: float(sp.lambdify(_X, lap_sc)(*map(float, p)))

    def scalar_gradient(self, p):
        return np.asarray(self._grad(*map(float, p)), dtype=float)


def schwarzschild_symbolic(mass):
    r = sp.sqrt(_X[0] ** 2 + _X[1] ** 2 + _X[2] ** 2)
    psi = 2 * mass / (r - 2 * mass)
    g = sp.Matrix(
        3, 3, lambda a, b: sp.KroneckerDelta(a, b) + psi * _X[a] * _X[b] / r**2
    )
    return SymbolicMetricOracle(g)


def conformal_symbolic(phi_expr_fn):
    phi = phi_expr_fn(*_X)
    conf = sp.exp(2 * phi)
    g = sp.Matrix(3, 3, lambda a, b: conf * sp.KroneckerDelta(a, b))
    return SymbolicMetricOracle(g)


def round_sphere_symbolic(radius):
    r2 = _X[0] ** 2 + _X[1] ** 2 + _X[2] ** 2
    conf = (2 * radius**2 / (radius**2 + r2)) ** 2
    g = sp.Matrix(3, 3, lambda a, b: conf * sp.KroneckerDelta(a, b))
    return SymbolicMetricOracle(g)


def polynomial_symbolic(terms):
    h = sp.zeros(3, 3)
    for a, b, c, (e1, e2, e3) in terms:
        mono = sp.nsimplify(c, rational=True) * _X[0] ** e1 * _X[1] ** e2 * _X[2] ** e3
        h[a, b] += mono
        if a != b:
            h[b, a] += mono
    g = sp.eye(3) + h
    return SymbolicMetricOracle(g)


# ---------------------------------------------------------------------------
# distance and surface oracles
# ---------------------------------------------------------------------------

def s3_chart_embedding(x, radius=1.0):
    """Map stereographic chart points into the sphere of the given radius in R^4."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    R2 = radius**2
    w = radius * (R2 - r2) / (R2 + r2)
    rest = 2.0 * R2 * x / (R2 + r2)[..., np.newaxis]
    return np.concatenate([w[..., np.newaxis], rest], axis=-1)


def s3_distance(x, y, radius=1.0):
    """Geodesic distance between chart points of the round 3-sphere."""
    ex = s3_chart_embedding(x, radius)
    ey = s3_chart_embedding(y, radius)
    c = np.clip(np.sum(ex * ey, axis=-1) / radius**2, -1.0, 1.0)
    return radius * np.arccos(c)


def hyperbolic_distance(x, y, radius=1.0):
    """Geodesic distance in the Poincare ball of the given radius."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    R2 = radius**2
    num = 2.0 * R2 * np.sum((x - y) ** 2, axis=-1)
    den = (R2 - np.sum(x * x, axis=-1)) * (R2 - np.sum(y * y, axis=-1))
    return radius * np.arccosh(1.0 + num / den)


def schwarzschild_radial_endpoint(r_start, proper_length, mass=1.0):
    """Areal radius reached by walking the given proper length radially outward."""

    def length(r_end):
        val, _ = quad(
            lambda r: 1.0 / np.sqrt(1.0 - 2.0 * mass / r), r_start, r_end
        )
        return val - proper_length

    hi = r_start + proper_length * 3.0 + 1.0
    return brentq(length, r_start, hi, xtol=1e-13, rtol=1e-14)


def schwarzschild_sphere_mean_curvature(r, mass=1.0):
    """Mean curvature of the coordinate sphere |x| = r (inward-normal sign)."""
    return (2.0 / r) * np.sqrt(1.0 - 2.0 * mass / r)


def schwarzschild_sphere_hawking_mass(r, mass=1.0):
    """Closed-form Hawking mass of the areal coordinate sphere (equals mass)."""
    area = 4.0 * np.pi * r**2
    willmore = 16.0 * np.pi * (1.0 - 2.0 * mass / r)
    return np.sqrt(area / (16.0 * np.pi) ** 3) * (16.0 * np.pi - willmore)
