"""Analytic Riemannian 3-metrics and pointwise curvature.

Every metric kind exposes the metric tensor together with its first and second
coordinate derivatives on batches of chart points.  Every kind carries exact
derivative data: closed forms for the built-in kinds (Euclidean, round
sphere, hyperbolic, Schwarzschild), and monomial exponent shifts for the
polynomial ones (polynomial perturbation, polynomial conformal factor).
The gradient and Laplacian of scalar curvature at a point
(:meth:`MetricField.scalar_derivatives`) are closed forms too: exact zeros on
the kinds of constant Sc (Euclidean, round sphere, hyperbolic,
Schwarzschild), and the conformal formulas in the derivatives of phi up to
order four on the polynomial conformal kind.  The polynomial perturbation
takes them exactly as well, from degree-2 Taylor series (jets) of g, dg and
ddg along six directions, pushed through the same curvature assembly (its
third and fourth derivatives of g are exponent shifts too).  The full
curvature tensors are assembled from ``(g, dg, ddg)`` by the standard
Levi-Civita formulas; :func:`geodesic_acceleration` contracts ``dg`` with a
velocity directly, without inverting g or forming Gamma.

The geodesic fan needs dg only through -Gamma(v, v), and surfaces need g
only through its *action* on vectors at a set of points x: g v, g^{-1} c and
((n.d)g) v (:func:`metric_action`).  Every kind defines ``action(x)``, which
evaluates phi (or r, or h) once per point set and reads d phi (or h', or
dh) only when (n.d)g is asked for, and ``ricci_along(x, n)``, Ric(n, n)
alone; the conformally flat kinds and Schwarzschild also define
``acceleration(x, v)``:

* conformally flat kinds (round sphere, hyperbolic, conformal), g =
  exp(2 phi) delta: -Gamma(v, v) = |v|^2 d phi - 2 (d phi . v) v,
  g v = exp(2 phi) v, g^{-1} c = exp(-2 phi) c and
  ((n.d)g) v = 2 exp(2 phi) (n . d phi) v;
* Schwarzschild, g = delta + h x x^T with h = psi / r^2 = 2m / (r^2 (r - 2m)):
  -Gamma(v, v) = -x (h |v|^2 + h' (x.v)^2 / (2 r)) / (1 + psi),
  g v = v + h (x.v) x, g^{-1} c = c - (2m / r^3) (x.c) x (Sherman-Morrison)
  and ((n.d)g) v = (h' / r) (x.n) (x.v) x + h ((x.v) n + (n.v) x);
* Euclidean: the identity and a zero derivative;
* the polynomial perturbation: its assembled g, dh contracted with n, and
  the assembled Ricci tensor.

These methods are unguarded and keep the dtype of their points, so they
take complex points too.

Index conventions for the arrays returned here:

* ``metric(x)[..., a, b]``            -> g_ab
* ``metric_deriv(x)[..., c, a, b]``   -> d_c g_ab
* ``metric_deriv2(x)[..., d, c, a, b]`` -> d_d d_c g_ab
* ``christoffel(x)[..., c, a, b]``    -> Gamma^c_ab
* ``riemann(x)[..., a, b, c, d]``     -> Rm_abcd with Rm(X,Y,X,Y) > 0 on the
  round sphere (so Rm_abab / (g_aa g_bb - g_ab^2) is the sectional curvature).
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "MetricField",
    "EuclideanMetric",
    "RoundSphereMetric",
    "HyperbolicMetric",
    "SchwarzschildMetric",
    "ConformalMetric",
    "PolynomialMetric",
    "CurvaturePacket",
    "metric_at",
    "metric_action",
    "christoffel_at",
    "geodesic_acceleration",
    "ricci_at",
    "ricci_along",
    "scalar_curvature_at",
    "curvature_packet",
    "metric_from_config",
]

# ---------------------------------------------------------------------------
# tensor assembly
# ---------------------------------------------------------------------------

def _braces(dg):
    """d_a g_db + d_b g_da - d_d g_ab, indexed ``[..., a, b, d]``."""
    return (
        np.einsum("...adb->...abd", dg)
        + np.einsum("...bda->...abd", dg)
        - np.einsum("...dab->...abd", dg)
    )


def _christoffel_from(g_inv, braces, mul=np.einsum):
    """Gamma^c_ab = 1/2 g^{cd} (d_a g_db + d_b g_da - d_d g_ab) from the
    braces of :func:`_braces`."""
    return 0.5 * mul("...cd,...abd->...cab", g_inv, braces)


def _curvature_from(g, dg, ddg, mul=np.einsum, inv=np.linalg.inv):
    """Return (gamma, riemann04, ricci, scalar) from metric derivative data.

    Products go through ``mul`` and the inverse through ``inv``; every other
    step is linear.  :func:`_series_einsum` and :func:`_series_inv` run the
    same assembly on truncated Taylor series (the polynomial kind's Sc jets).
    """
    g_inv = inv(g)
    braces = _braces(dg)
    gamma = _christoffel_from(g_inv, braces, mul)
    # d_e g^{cd} = -g^{ca} (d_e g_ab) g^{bd}
    dg_inv = -mul("...ca,...eab,...bd->...ecd", g_inv, dg, g_inv)
    dbraces = (
        np.einsum("...eadb->...eabd", ddg)
        + np.einsum("...ebda->...eabd", ddg)
        - np.einsum("...edab->...eabd", ddg)
    )
    dgamma = 0.5 * (
        mul("...ecd,...abd->...ecab", dg_inv, braces)
        + mul("...cd,...eabd->...ecab", g_inv, dbraces)
    )
    # R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db
    #           - Gamma^a_de Gamma^e_cb
    riem_up = (
        np.einsum("...cadb->...abcd", dgamma)
        - np.einsum("...dacb->...abcd", dgamma)
        + mul("...ace,...edb->...abcd", gamma, gamma)
        - mul("...ade,...ecb->...abcd", gamma, gamma)
    )
    riemann = mul("...ae,...ebcd->...abcd", g, riem_up)
    ricci = np.einsum("...abad->...bd", riem_up)
    scalar = mul("...bd,...bd->...", g_inv, ricci)
    return gamma, riemann, ricci, scalar


def _series_einsum(spec, *ops):
    """``np.einsum`` of truncated Taylor series, each stacked on a leading
    order axis: the order-k term sums the products whose orders add to k."""
    return np.stack(
        [
            sum(
                np.einsum(spec, *(op[i] for op, i in zip(ops, orders)))
                for orders in itertools.product(range(k + 1), repeat=len(ops))
                if sum(orders) == k
            )
            for k in range(len(ops[0]))
        ]
    )


def _series_inv(g):
    """Inverse of a degree-2 matrix series (g0, g1, g2) on the leading axis."""
    g0_inv = np.linalg.inv(g[0])
    g1_inv = -g0_inv @ g[1] @ g0_inv
    return np.stack([g0_inv, g1_inv, -g0_inv @ (g[1] @ g1_inv + g[2] @ g0_inv)])


def geodesic_acceleration(g, dg, v):
    """Geodesic acceleration -Gamma(v, v) from metric data, batched.

    Returns ``a = -g^{-1} ((v.d) g v - 1/2 dg(v, v))``, which equals
    ``-Gamma^c_ab v^a v^b``: ``dg`` is contracted with ``v`` directly and the
    symmetric 3x3 system is solved by cofactors, with no inverse and no full
    Christoffel tensor.  ``g`` is (..., 3, 3), ``dg`` (..., 3, 3, 3) indexed
    ``[..., c, a, b]`` and ``v`` (..., 3).
    """
    # dv[..., c, a] = d_c g_ab v^b
    dv = (dg.reshape(dg.shape[:-3] + (9, 3)) @ v[..., np.newaxis]).reshape(
        dg.shape[:-1]
    )
    vdv = (v[..., np.newaxis, :] @ dv)[..., 0, :]     # (v.d) g_ab v^b
    dvv = (dv @ v[..., np.newaxis])[..., 0]           # d_c g(v, v)
    return -_solve_sym3(g, vdv - 0.5 * dvv)


def _solve_sym3(g, r):
    """g^{-1} r for symmetric 3x3 ``g`` (..., 3, 3) by cofactors."""
    g00, g01, g02 = g[..., 0, 0], g[..., 0, 1], g[..., 0, 2]
    g11, g12, g22 = g[..., 1, 1], g[..., 1, 2], g[..., 2, 2]
    c00 = g11 * g22 - g12 * g12
    c01 = g02 * g12 - g01 * g22
    c02 = g01 * g12 - g02 * g11
    c11 = g00 * g22 - g02 * g02
    c12 = g01 * g02 - g00 * g12
    c22 = g00 * g11 - g01 * g01
    inv_det = 1.0 / (g00 * c00 + g01 * c01 + g02 * c02)
    r0, r1, r2 = r[..., 0], r[..., 1], r[..., 2]
    return np.stack(
        [
            (c00 * r0 + c01 * r1 + c02 * r2) * inv_det,
            (c01 * r0 + c11 * r1 + c12 * r2) * inv_det,
            (c02 * r0 + c12 * r1 + c22 * r2) * inv_det,
        ],
        axis=-1,
    )


def _apply_sym3(g, v):
    """g v for symmetric 3x3 ``g`` (..., 3, 3) and ``v`` (..., 3), component
    by component."""
    g00, g01, g02 = g[..., 0, 0], g[..., 0, 1], g[..., 0, 2]
    g11, g12, g22 = g[..., 1, 1], g[..., 1, 2], g[..., 2, 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack(
        [
            g00 * v0 + g01 * v1 + g02 * v2,
            g01 * v0 + g11 * v1 + g12 * v2,
            g02 * v0 + g12 * v1 + g22 * v2,
        ],
        axis=-1,
    )


def _dot3(a, b):
    """Euclidean a . b over the last axis of (..., 3) arrays, component by
    component."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


class _Polynomial:
    """Sum of array coefficients times monomials x1^e1 x2^e2 x3^e3.

    ``exps`` is (M, 3) and ``coefs`` (M, *shape); evaluation at points of
    shape (..., 3) returns (..., *shape).  Repeated exponents are merged and
    vanishing terms dropped, so derivatives by exponent shifts stay short.
    The merged exponents come in lexicographic order and each sum adds its
    terms in input order, as ``np.unique(axis=0)`` and ``np.add.at`` would,
    but in plain Python: a polynomial has a few dozen terms at most.
    """

    def __init__(self, exps, coefs):
        exps = np.asarray(exps, dtype=int).reshape(-1, 3)
        coefs = np.asarray(coefs, dtype=float)
        self.shape = coefs.shape[1:]
        terms = {}  # exponent -> indices of its terms, in input order
        for i, e in enumerate(map(tuple, exps.tolist())):
            terms.setdefault(e, []).append(i)
        keys = sorted(terms)
        merged = np.array(keys, dtype=int).reshape(-1, 3)
        summed = np.zeros((len(keys),) + self.shape)
        # round j adds the j-th term of every exponent that has one
        for j in range(max(map(len, terms.values()), default=0)):
            slots = [k for k, e in enumerate(keys) if len(terms[e]) > j]
            summed[slots] += coefs[[terms[keys[k]][j] for k in slots]]
        size = int(np.prod(self.shape, dtype=int))
        keep = np.any(summed.reshape(len(merged), size) != 0.0, axis=1)
        self.exps = merged[keep]
        self._flat = summed[keep].reshape(-1, size)

    def __call__(self, x):
        # powers[..., k, e] = x_k^e by repeated multiplication
        powers = np.ones(
            x.shape + (int(self.exps.max(initial=0)) + 1,), dtype=np.result_type(x, float)
        )
        for e in range(1, powers.shape[-1]):
            powers[..., e] = powers[..., e - 1] * x
        mono = (
            powers[..., 0, self.exps[:, 0]]
            * powers[..., 1, self.exps[:, 1]]
            * powers[..., 2, self.exps[:, 2]]
        )  # (..., M)
        return (mono @ self._flat).reshape(x.shape[:-1] + self.shape)

    def gradient(self):
        """The polynomial of partial derivatives, new axis first: (3, *shape).
        The shifted terms are listed in plain Python, derivative k before
        k + 1 and each in term order."""
        size = self._flat.shape[1]
        exps, coefs = [], []
        for k in range(3):
            for e, c in zip(self.exps.tolist(), self._flat.tolist()):
                if e[k] > 0:
                    slot = [0.0] * (3 * size)
                    slot[k * size:(k + 1) * size] = [v * e[k] for v in c]
                    exps.append(e[:k] + [e[k] - 1] + e[k + 1:])
                    coefs.append(slot)
        return _Polynomial(exps, np.reshape(coefs, (-1, 3) + self.shape))


class _ConformalAction:
    """The action of g = exp(2 phi) delta at a set of points: ``conf`` is
    exp(2 phi) (...,), and ``phi_grad()`` returns d phi (..., 3) there."""

    def __init__(self, conf, phi_grad):
        self._conf = conf[..., np.newaxis]
        self._phi_grad = phi_grad

    def apply(self, v):
        return self._conf * v

    def solve(self, c):
        return c / self._conf

    def along(self, n):
        scale = 2.0 * self._conf * _dot3(n, self._phi_grad())[..., np.newaxis]
        return lambda v: scale * v


class _SchwarzschildAction:
    """The action of g = delta + h x x^T at the points ``x`` (module
    docstring)."""

    def __init__(self, mass, x):
        r2 = _dot3(x, x)
        r = np.sqrt(r2)
        den = r2 * (r - 2.0 * mass)
        self._x = x
        self._h = 2.0 * mass / den
        self._inv = 2.0 * mass / (r2 * r)  # h / (1 + h r^2)
        self._radial = -self._h * (3.0 * r - 4.0 * mass) / den  # h' / r

    def apply(self, v):
        return v + (self._h * _dot3(self._x, v))[..., np.newaxis] * self._x

    def solve(self, c):
        return c - (self._inv * _dot3(self._x, c))[..., np.newaxis] * self._x

    def along(self, n):
        x, h = self._x, self._h
        radial_n = self._radial * _dot3(x, n)

        def deriv(v):
            xv = _dot3(x, v)
            return (radial_n * xv + h * _dot3(n, v))[..., np.newaxis] * x + (
                h * xv
            )[..., np.newaxis] * n

        return deriv


class _PolynomialAction:
    """The action of g = delta + h at a set of points: ``g`` is g assembled
    there (..., 3, 3), and ``dh()`` returns dh (..., 3, 3, 3) there."""

    def __init__(self, g, dh):
        self._g = g
        self._dh = dh

    def apply(self, v):
        return _apply_sym3(self._g, v)

    def solve(self, c):
        return _solve_sym3(self._g, c)

    def along(self, n):
        dg_n = np.einsum("...c,...cab->...ab", n, self._dh())
        return lambda v: _apply_sym3(dg_n, v)


# ---------------------------------------------------------------------------
# metric kinds
# ---------------------------------------------------------------------------

class MetricField:
    """Base class for analytic 3-metrics on a chart of R^3.

    Subclasses provide :meth:`metric`, :meth:`metric_deriv` and
    :meth:`metric_deriv2`, all exact, so assembled curvature tensors carry
    rounding only; :meth:`action` and :meth:`ricci_along`; and
    :meth:`scalar_derivatives`: closed forms for d Sc and Delta Sc on every
    built-in kind but the polynomial perturbation, which propagates Taylor
    jets of g through the curvature assembly.  Kinds with a closed-form
    -Gamma(v, v) for velocities ``v`` (..., 3) also define
    ``acceleration(x, v)`` (module docstring).
    """

    kind = "abstract"

    def metric(self, x):
        raise NotImplementedError

    def metric_deriv(self, x):
        raise NotImplementedError

    def metric_deriv2(self, x):
        raise NotImplementedError

    def action(self, x):
        """The action of g at the points ``x`` (..., 3), unguarded: an object
        whose ``apply(v)``, ``solve(c)`` and ``along(n)(v)`` give g v,
        g^{-1} c and ((n.d)g) v for vectors shaped like ``x``."""
        raise NotImplementedError

    def ricci_along(self, x, n):
        """Ric(n, n) at points ``x`` for chart vectors ``n``, both (..., 3),
        unguarded."""
        raise NotImplementedError

    def scalar_derivatives(self, p):
        """Chart gradient d_a Sc (3,) and covariant Laplacian Delta_g Sc at
        the one point ``p`` (3,), unguarded."""
        raise NotImplementedError

    def domain_guard(self, x):
        """Boolean chart-validity mask for points ``x`` of shape (..., 3)."""
        return np.ones(np.shape(x)[:-1], dtype=bool)

    def domain_margin(self, x):
        """Continuous margin, positive inside the chart (used as ODE event)."""
        return np.ones(np.shape(x)[:-1])

    def injectivity_bound(self, p):
        """Conservative radius below which geodesic spheres are embedded."""
        return np.inf

    def params(self):
        """Constructor parameters as a JSON-ready dict."""
        return {}

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"


class EuclideanMetric(MetricField):
    kind = "euclidean"

    def metric(self, x):
        out = np.zeros(np.shape(x)[:-1] + (3, 3))
        out[...] = np.eye(3)
        return out

    def metric_deriv(self, x):
        return np.zeros(np.shape(x)[:-1] + (3, 3, 3))

    def metric_deriv2(self, x):
        return np.zeros(np.shape(x)[:-1] + (3, 3, 3, 3))

    # no acceleration: a fan reads its zero -Gamma(v, v) through the
    # contraction, so a proxy around the metric sees each right-hand side

    def action(self, x):
        shape = np.shape(x)[:-1]
        return _ConformalAction(np.ones(shape), lambda: np.zeros(shape + (3,)))

    def ricci_along(self, x, n):
        return np.zeros(np.shape(x)[:-1])

    def scalar_derivatives(self, p):
        return np.zeros(3), 0.0  # Sc = 0


class _ConformallyFlat(MetricField):
    """g = exp(2 phi) * delta with closed-form phi derivatives."""

    def _phi(self, x):
        raise NotImplementedError

    def _phi_grad(self, x):
        raise NotImplementedError

    def _phi_hess(self, x):
        raise NotImplementedError

    def metric(self, x):
        conf = np.exp(2.0 * self._phi(x))
        return conf[..., np.newaxis, np.newaxis] * np.eye(3)

    def metric_deriv(self, x):
        conf = np.exp(2.0 * self._phi(x))
        grad = self._phi_grad(x)
        out = np.einsum("...c,...->...c", 2.0 * grad, conf)
        return out[..., :, np.newaxis, np.newaxis] * np.eye(3)

    def metric_deriv2(self, x):
        conf = np.exp(2.0 * self._phi(x))
        grad = self._phi_grad(x)
        hess = self._phi_hess(x)
        core = 2.0 * hess + 4.0 * np.einsum("...d,...c->...dc", grad, grad)
        out = core * conf[..., np.newaxis, np.newaxis]
        return out[..., :, :, np.newaxis, np.newaxis] * np.eye(3)

    def acceleration(self, x, v):
        # Gamma^c_ab = delta_ca d_b phi + delta_cb d_a phi - delta_ab d_c phi
        grad = self._phi_grad(x)
        return _dot3(v, v)[..., np.newaxis] * grad - (2.0 * _dot3(grad, v))[..., np.newaxis] * v

    def action(self, x):
        return _ConformalAction(np.exp(2.0 * self._phi(x)), lambda: self._phi_grad(x))

    def ricci_along(self, x, n):
        # Ric = -(Hess phi - dphi dphi) - (Lap phi + |dphi|^2) delta in three
        # dimensions, with flat derivatives of phi
        grad, hess = self._phi_grad(x), self._phi_hess(x)
        dphi_n = _dot3(grad, n)
        hess_nn = _dot3(n, _apply_sym3(hess, n))
        lap = hess[..., 0, 0] + hess[..., 1, 1] + hess[..., 2, 2] + _dot3(grad, grad)
        return dphi_n * dphi_n - hess_nn - lap * _dot3(n, n)



class _SpaceForm(_ConformallyFlat):
    """Sectional curvature K = sign / radius^2 in the chart with
    exp(phi) = 2 R^2 / (R^2 + sign r^2): stereographic for sign +1, the
    Poincare ball for sign -1."""

    _sign = 1.0

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def _phi(self, x):
        r2 = np.sum(x * x, axis=-1)
        R2 = self.radius**2
        return np.log(2.0 * R2) - np.log(R2 + self._sign * r2)

    def _phi_grad(self, x):
        r2 = np.sum(x * x, axis=-1)
        return (-2.0 * self._sign) * x / (self.radius**2 + self._sign * r2)[..., np.newaxis]

    def _phi_hess(self, x):
        r2 = np.sum(x * x, axis=-1)
        den = self.radius**2 + self._sign * r2
        outer = np.einsum("...a,...b->...ab", x, x)
        return (
            (-2.0 * self._sign) * np.eye(3) / den[..., np.newaxis, np.newaxis]
            + 4.0 * outer / (den**2)[..., np.newaxis, np.newaxis]
        )

    def ricci_along(self, x, n):
        # Ric = 2 K g in three dimensions
        return (2.0 * self._sign / self.radius**2) * np.exp(2.0 * self._phi(x)) * _dot3(n, n)

    def scalar_derivatives(self, p):
        return np.zeros(3), 0.0  # Sc = 6 K

    def params(self):
        return {"radius": self.radius}


class RoundSphereMetric(_SpaceForm):
    """Stereographic chart of the round 3-sphere of the given radius.

    Sectional curvature is +1/radius^2 everywhere; the chart covers the
    sphere minus one point.
    """

    kind = "round_sphere"

    def injectivity_bound(self, p):
        # stay inside the hemisphere around the base point
        return 0.5 * np.pi * self.radius


class HyperbolicMetric(_SpaceForm):
    """Poincare-ball chart of hyperbolic space, curvature -1/radius^2."""

    kind = "hyperbolic"
    _sign = -1.0
    _GUARD = 0.999

    def domain_guard(self, x):
        return np.linalg.norm(x, axis=-1) < self._GUARD * self.radius

    def domain_margin(self, x):
        return (self._GUARD * self.radius - np.linalg.norm(x, axis=-1)) / self.radius

    def injectivity_bound(self, p):
        # chart-limited: proper distance from p to the guard sphere
        r = np.linalg.norm(np.asarray(p, dtype=float))
        to_edge = 2.0 * self.radius * (
            np.arctanh(0.995) - np.arctanh(min(r / self.radius, 0.99))
        )
        return max(to_edge, 0.0)


class SchwarzschildMetric(MetricField):
    """Spatial Schwarzschild slice in the areal chart, pulled back to
    Cartesian coordinates.

    g_ab = delta_ab + psi(r) x_a x_b / r^2 with psi = 2m/(r - 2m), so that
    coordinate spheres |x| = r carry area 4 pi r^2.  The chart guard keeps a
    safety margin above the horizon r = 2m.
    """

    kind = "schwarzschild"

    def __init__(self, mass=1.0, horizon_margin=0.05):
        if mass <= 0:
            raise ValueError("mass must be positive")
        if horizon_margin <= 0:
            raise ValueError("horizon_margin must be positive")
        self.mass = float(mass)
        self.horizon_margin = float(horizon_margin)

    def _psi(self, r):
        return 2.0 * self.mass / (r - 2.0 * self.mass)

    def acceleration(self, x, v):
        # g = delta + h x x^T with h = psi / r^2 gives
        # -Gamma(v, v) = -x (h |v|^2 + h' (x.v)^2 / (2 r)) / (1 + psi), and
        # h / (1 + psi) = 2m / r^3, h' / h = -(3r - 4m) / (r (r - 2m))
        m = self.mass
        r2 = _dot3(x, x)
        r = np.sqrt(r2)
        xv = _dot3(x, v)
        bracket = _dot3(v, v) - (3.0 * r - 4.0 * m) * xv * xv / (2.0 * r2 * (r - 2.0 * m))
        return -(2.0 * m / (r2 * r) * bracket)[..., np.newaxis] * x

    def action(self, x):
        return _SchwarzschildAction(self.mass, x)

    def metric(self, x):
        r = np.linalg.norm(x, axis=-1)
        u = x / r[..., np.newaxis]
        uu = np.einsum("...a,...b->...ab", u, u)
        return np.eye(3) + self._psi(r)[..., np.newaxis, np.newaxis] * uu

    def metric_deriv(self, x):
        r = np.linalg.norm(x, axis=-1)
        m = self.mass
        # built with the batch axes last, so every product runs over
        # contiguous batch rows
        k = self._psi(r) / r
        dpsi = -2.0 * m / (r - 2.0 * m) ** 2
        ut = np.ascontiguousarray(np.moveaxis(x, -1, 0)) / r  # (3, ...)
        eye = np.eye(3).reshape((3, 3) + (1,) * r.ndim)
        uuu = ut[:, None, None] * ut[None, :, None] * ut[None, None, :]
        # dpsi u_c u_a u_b + (psi / r) (delta_ca u_b + delta_cb u_a - 2 u_c u_a u_b)
        out = (dpsi - 2.0 * k) * uuu + k * (
            eye[:, :, None] * ut[None, None, :] + eye[:, None, :] * ut[None, :, None]
        )
        return np.ascontiguousarray(np.moveaxis(out, (0, 1, 2), (-3, -2, -1)))

    def metric_deriv2(self, x):
        r = np.linalg.norm(x, axis=-1)
        u = x / r[..., np.newaxis]
        m = self.mass
        psi = self._psi(r)
        dpsi = -2.0 * m / (r - 2.0 * m) ** 2
        ddpsi = 4.0 * m / (r - 2.0 * m) ** 3
        eye = np.eye(3)
        uu = np.einsum("...a,...b->...ab", u, u)
        uuu = np.einsum("...c,...ab->...cab", u, uu)
        u4 = np.einsum("...d,...cab->...dcab", u, uuu)

        # d_d (u_c u_a u_b) = (delta terms - 3 u^4)/r
        d_uuu = (
            np.einsum("dc,...ab->...dcab", eye, uu)
            + np.einsum("da,...cb->...dcab", eye, np.einsum("...c,...b->...cb", u, u))
            + np.einsum("db,...ca->...dcab", eye, np.einsum("...c,...a->...ca", u, u))
            - 3.0 * u4
        ) / r[..., None, None, None, None]

        sym = (
            np.einsum("ca,...b->...cab", eye, u)
            + np.einsum("cb,...a->...cab", eye, u)
            - 2.0 * uuu
        )
        d_sym = (
            np.einsum("ca,...db->...dcab", eye, (np.eye(3) - uu))
            + np.einsum("cb,...da->...dcab", eye, (np.eye(3) - uu))
        ) / r[..., None, None, None, None] - 2.0 * d_uuu

        term1 = ddpsi[..., None, None, None, None] * u4 + dpsi[
            ..., None, None, None, None
        ] * d_uuu
        coeff = dpsi / r - psi / r**2
        term2 = (
            coeff[..., None, None, None, None] * np.einsum("...d,...cab->...dcab", u, sym)
            + (psi / r)[..., None, None, None, None] * d_sym
        )
        return term1 + term2

    def ricci_along(self, x, n):
        # Ric = (m / r^3) (g - 3 (1 + psi) dr dr): -2m/r^3 on the unit radial
        # vector, m/r^3 on the tangential ones
        r = np.sqrt(_dot3(x, x))
        psi = self._psi(r)
        u_n = np.sum(x * n, axis=-1) / r
        g_nn = np.sum(n * n, axis=-1) + psi * u_n * u_n
        return self.mass / r**3 * (g_nn - 3.0 * (1.0 + psi) * u_n * u_n)

    def scalar_derivatives(self, p):
        return np.zeros(3), 0.0  # the slice is scalar-flat

    def domain_guard(self, x):
        r = np.linalg.norm(x, axis=-1)
        return r > 2.0 * self.mass * (1.0 + self.horizon_margin)

    def domain_margin(self, x):
        r = np.linalg.norm(x, axis=-1)
        return (r - 2.0 * self.mass * (1.0 + self.horizon_margin)) / self.mass

    def injectivity_bound(self, p):
        # proper radial distance from p down to the guard sphere
        r_p = float(np.linalg.norm(np.asarray(p, dtype=float)))
        r_min = 2.0 * self.mass * (1.0 + self.horizon_margin)
        if r_p <= r_min:
            return 0.0
        # the antiderivative sqrt(r (r - 2m)) + 2m ln(sqrt(r) + sqrt(r - 2m))
        # of 1 / sqrt(1 - 2m / r), differenced between r_min and r_p without
        # cancellation
        m2, dr = 2.0 * self.mass, r_p - r_min
        a0, a1 = np.sqrt(r_min), np.sqrt(r_p)
        b0, b1 = np.sqrt(r_min - m2), np.sqrt(r_p - m2)
        dist = dr * (r_min + r_p - m2) / (a0 * b0 + a1 * b1) + m2 * np.log1p(
            dr * (1.0 / (a0 + a1) + 1.0 / (b0 + b1)) / (a0 + b0)
        )
        return 0.98 * float(dist)


    def params(self):
        return {"mass": self.mass, "horizon_margin": self.horizon_margin}


def _exponents(e, name):
    """The exponents (e1, e2, e3) of a monomial of the ``name`` parameter."""
    e = tuple(e)
    if len(e) != 3 or any(k < 0 or k != int(k) for k in e):
        raise ValueError(f"{name}: exponents {list(e)} are not three non-negative integers")
    return tuple(int(k) for k in e)


class ConformalMetric(_ConformallyFlat):
    """g = exp(2 phi) * delta for a polynomial conformal factor.

    ``terms`` is an iterable of ``(coef, (e1, e2, e3))`` monomials of phi;
    its derivatives are exact, by exponent shifts, up to the fourth order
    that Delta Sc needs.
    """

    kind = "conformal"

    def __init__(self, terms):
        self.poly_terms = [(float(c), _exponents(e, "phi_poly")) for c, e in terms]
        self.phi = _Polynomial(
            [e for _, e in self.poly_terms], [c for c, _ in self.poly_terms]
        )
        self._grad = self.phi.gradient()
        self._hess = self._grad.gradient()
        self._d3 = self._hess.gradient()
        self._d4 = self._d3.gradient()

    def _phi(self, x):
        return self.phi(x)

    def _phi_grad(self, x):
        return self._grad(x)

    def _phi_hess(self, x):
        return self._hess(x)

    def scalar_derivatives(self, p):
        # Sc = -E u with E = exp(-2 phi) and u = 4 Lap phi + 2 |d phi|^2, and
        # Delta_g f = E (Lap f + d phi . d f) in three dimensions; every
        # derivative here is flat
        d1, d2, d3, d4 = self._grad(p), self._hess(p), self._d3(p), self._d4(p)
        e = np.exp(-2.0 * self.phi(p))
        lap = np.trace(d2)
        grad_lap = np.einsum("caa->c", d3)
        d1_sq = d1 @ d1
        u = 4.0 * lap + 2.0 * d1_sq
        du = 4.0 * grad_lap + 4.0 * d2 @ d1
        lap_u = 4.0 * np.einsum("ccaa->", d4) + 4.0 * (np.sum(d2 * d2) + d1 @ grad_lap)
        grad = -e * (du - 2.0 * u * d1)
        # Lap E = E (4 |d phi|^2 - 2 Lap phi)
        lap_sc = -e * (lap_u - 4.0 * d1 @ du + u * (4.0 * d1_sq - 2.0 * lap))
        return grad, float(e * (lap_sc + d1 @ grad))

    def params(self):
        return {"phi_poly": [[c, list(e)] for c, e in self.poly_terms]}


# the axes, then the pair sums e_0 + e_1, e_0 + e_2 and e_1 + e_2
_JET_DIRECTIONS = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float
)


class PolynomialMetric(MetricField):
    """g = delta + h with polynomial entries h_ab of total degree <= 4.

    ``terms`` is an iterable of ``(a, b, coef, (e1, e2, e3))``; entries are
    symmetrized automatically.  Derivatives are exact, by exponent shifts.
    The chart guard accepts points where g stays positive-definite.
    """

    kind = "polynomial_perturbation"
    MAX_DEGREE = 4

    def __init__(self, terms):
        exps, coefs, stored = [], [], []
        for a, b, c, e in terms:
            if not {a, b} <= {0, 1, 2}:
                raise ValueError(f"terms: entry ({a}, {b}) is not an index pair in 0..2")
            a, b, c, e = int(a), int(b), float(c), _exponents(e, "terms")
            if sum(e) > self.MAX_DEGREE:
                raise ValueError("perturbation terms must have total degree <= 4")
            coef = np.zeros((3, 3))
            coef[a, b] += c
            if a != b:
                coef[b, a] += c
            exps.append(e)
            coefs.append(coef)
            stored.append((a, b, c, e))
        self.terms = stored
        self._h = _Polynomial(exps, np.reshape(coefs, (-1, 3, 3)))
        self._dh = self._h.gradient()
        self._ddh = self._dh.gradient()
        self._d3h = self._ddh.gradient()
        self._d4h = self._d3h.gradient()

    def metric(self, x):
        return np.eye(3) + self._h(x)

    def metric_deriv(self, x):
        return self._dh(x)

    def metric_deriv2(self, x):
        return self._ddh(x)

    def action(self, x):
        return _PolynomialAction(self.metric(x), lambda: self._dh(x))

    def ricci_along(self, x, n):
        ricci = _curvature_from(self.metric(x), self._dh(x), self._ddh(x))[2]
        return np.einsum("...ab,...a,...b->...", ricci, n, n)

    def scalar_derivatives(self, p):
        # degree-2 Taylor series in t of g, dg and ddg at p + t e, pushed
        # through the curvature assembly along the three axes e_a and the
        # three pair sums e_a + e_b: order 1 of Sc is e . d Sc and order 2
        # is e^T (Hess Sc) e / 2, so the pairs polarise to H_ab
        e = _JET_DIRECTIONS
        h, dh, ddh, d3h, d4h = (
            poly(p) for poly in (self._h, self._dh, self._ddh, self._d3h, self._d4h)
        )
        g = np.eye(3) + h

        def jet(value, first, second):
            return np.stack(
                [
                    np.broadcast_to(value, (len(e),) + value.shape),
                    np.einsum("nc,c...->n...", e, first),
                    0.5 * np.einsum("nc,nd,cd...->n...", e, e, second),
                ]
            )

        gamma, _, _, sc = _curvature_from(
            jet(g, dh, ddh),
            jet(dh, ddh, d3h),
            jet(ddh, d3h, d4h),
            mul=_series_einsum,
            inv=_series_inv,
        )
        grad, half_curv = sc[1, :3], sc[2]
        hess = np.diag(2.0 * half_curv[:3])
        for n, (a, b) in enumerate(((0, 1), (0, 2), (1, 2)), start=3):
            hess[a, b] = hess[b, a] = half_curv[n] - half_curv[a] - half_curv[b]
        cov_hess = hess - np.einsum("cab,c->ab", gamma[0, 0], grad)
        return grad, float(np.einsum("ab,ab->", np.linalg.inv(g), cov_hess))

    @staticmethod
    def domain_guard_values(g):
        # Sylvester criterion on the 3x3 leading minors
        m1 = g[..., 0, 0]
        m2 = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
        m3 = np.linalg.det(g)
        return (m1 > 0) & (m2 > 0) & (m3 > 0)

    def domain_guard(self, x):
        return self.domain_guard_values(self.metric(x))

    def domain_margin(self, x):
        return np.linalg.eigvalsh(self.metric(x))[..., 0]

    def params(self):
        return {"terms": [[a, b, c, list(e)] for a, b, c, e in self.terms]}


# ---------------------------------------------------------------------------
# curvature packet and pointwise operations
# ---------------------------------------------------------------------------

@dataclass
class CurvaturePacket:
    """All curvature data at a point, expressed in a g-orthonormal frame.

    ``frame[mu]`` holds the chart components of the frame vector E_mu; the
    tensor fields below are frame components (so index gymnastics reduce to
    plain matrix algebra).  The curvature tensors come from the exact
    ``(g, dg, ddg)`` at the point; ``scalar_gradient`` and
    ``scalar_laplacian`` from :meth:`MetricField.scalar_derivatives`, closed
    forms on every kind but the polynomial perturbation, which reads them
    from Taylor jets of the assembled Sc at the point.
    """

    point: np.ndarray
    frame: np.ndarray            # (3, 3), rows are E_mu
    ricci: np.ndarray            # (3, 3) frame components
    scalar: float
    traceless: np.ndarray        # Ric - Sc/3 * id
    traceless_norm_sq: float
    scalar_laplacian: float
    scalar_gradient: np.ndarray  # (3,) frame components
    riemann: np.ndarray = field(default=None, repr=False)  # (3,3,3,3) frame

    def as_dict(self):
        return {
            "point": self.point.tolist(),
            "frame": self.frame.tolist(),
            "ricci": self.ricci.tolist(),
            "scalar": self.scalar,
            "traceless": self.traceless.tolist(),
            "traceless_norm_sq": self.traceless_norm_sq,
            "scalar_laplacian": self.scalar_laplacian,
            "scalar_gradient": self.scalar_gradient.tolist(),
        }


def _as_points(x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("points must have trailing dimension 3")
    return x


def _guard(metric, x):
    if not np.all(metric.domain_guard(x)):
        raise DomainError(f"point outside the domain of the {metric.kind} metric")


def metric_at(metric, x):
    """Metric tensor g_ab at chart points ``x``; raises DomainError off-chart."""
    x = _as_points(x)
    _guard(metric, x)
    return metric.metric(x)


def metric_action(metric, x):
    """The action of g at chart points ``x`` (:meth:`MetricField.action`);
    raises DomainError off-chart."""
    x = _as_points(x)
    _guard(metric, x)
    return metric.action(x)


def christoffel_at(metric, x):
    """Christoffel symbols Gamma^c_ab, indexed ``[..., c, a, b]``."""
    x = _as_points(x)
    _guard(metric, x)
    g_inv = np.linalg.inv(metric.metric(x))
    return _christoffel_from(g_inv, _braces(metric.metric_deriv(x)))


def _curvature_at(metric, x):
    x = _as_points(x)
    _guard(metric, x)
    return _curvature_from(
        metric.metric(x), metric.metric_deriv(x), metric.metric_deriv2(x)
    )


def ricci_at(metric, x):
    """Ricci tensor Ric_ab in chart components (batched)."""
    return _curvature_at(metric, x)[2]


def ricci_along(metric, x, n):
    """Ric(n, n) at chart points ``x`` for chart vectors ``n`` (batched),
    without assembling the Ricci tensor where the kind has a closed form."""
    x = _as_points(x)
    _guard(metric, x)
    return metric.ricci_along(x, np.asarray(n, dtype=float))


def scalar_curvature_at(metric, x):
    """Scalar curvature Sc as a batched field of chart points."""
    return _curvature_at(metric, x)[3]


def _orthonormal_frame(g):
    """Gram-Schmidt of the chart basis under g, deterministic order."""
    frame = np.zeros((3, 3))
    for mu in range(3):
        v = np.eye(3)[mu].copy()
        for nu in range(mu):
            v -= (frame[nu] @ g @ v) * frame[nu]
        norm = np.sqrt(v @ g @ v)
        frame[mu] = v / norm
    return frame


def curvature_packet(metric, p):
    """Assemble the full curvature packet at ``p`` (frame components)."""
    p = _as_points(p)
    _guard(metric, p)
    g = metric.metric(p)
    _, riemann, ricci, scalar = _curvature_from(
        g, metric.metric_deriv(p), metric.metric_deriv2(p)
    )
    frame = _orthonormal_frame(g)
    ric_f = np.einsum("ma,nb,ab->mn", frame, frame, ricci)
    ric_f = 0.5 * (ric_f + ric_f.T)
    sc = float(scalar)
    traceless = ric_f - (sc / 3.0) * np.eye(3)
    rm_f = np.einsum("ma,nb,sc,td,abcd->mnst", frame, frame, frame, frame, riemann)
    grad_chart, laplacian = metric.scalar_derivatives(p)
    grad_f = frame @ grad_chart
    return CurvaturePacket(
        point=np.array(p, dtype=float),
        frame=frame,
        ricci=ric_f,
        scalar=sc,
        traceless=traceless,
        traceless_norm_sq=float(np.sum(traceless * traceless)),
        scalar_laplacian=laplacian,
        scalar_gradient=grad_f,
        riemann=rm_f,
    )


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

_KINDS = {
    "euclidean": EuclideanMetric,
    "round_sphere": RoundSphereMetric,
    "hyperbolic": HyperbolicMetric,
    "schwarzschild": SchwarzschildMetric,
    "conformal": ConformalMetric,
    "polynomial_perturbation": PolynomialMetric,
}
# the parameter without which a kind has no metric
_REQUIRED_PARAM = {"conformal": "phi_poly", "polynomial_perturbation": "terms"}


def metric_from_config(spec):
    """Instantiate a metric from a config dict ``{"kind": ..., ...params}``."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _KINDS:
        raise ConfigError(f"unknown metric kind: {kind!r}")
    required = _REQUIRED_PARAM.get(kind)
    if required is not None and required not in spec:
        raise ConfigError(f"metric kind {kind!r} needs the parameter {required!r}")
    if kind == "euclidean":
        _reject_unknown(spec, set())
        return EuclideanMetric()
    if kind in ("round_sphere", "hyperbolic"):
        _reject_unknown(spec, {"radius"})
        return _KINDS[kind](**spec)
    if kind == "schwarzschild":
        _reject_unknown(spec, {"mass", "horizon_margin"})
        return SchwarzschildMetric(**spec)
    if kind == "conformal":
        _reject_unknown(spec, {"phi_poly"})
        terms = [(c, tuple(e)) for c, e in spec["phi_poly"]]
        return ConformalMetric(terms)
    _reject_unknown(spec, {"terms"})
    terms = [(a, b, c, tuple(e)) for a, b, c, e in spec["terms"]]
    return PolynomialMetric(terms)


def _reject_unknown(spec, allowed):
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown metric parameters: {sorted(unknown)}")
