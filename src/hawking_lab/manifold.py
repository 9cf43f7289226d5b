"""Analytic Riemannian 3-metrics and pointwise curvature.

Every metric kind exposes the metric tensor together with its first and second
coordinate derivatives on batches of chart points.  Every kind carries exact
derivative data: closed forms for the built-in kinds (Euclidean, round
sphere, hyperbolic, Schwarzschild), and monomial exponent shifts for the
polynomial ones (polynomial perturbation, polynomial conformal factor).
Only the gradient and Laplacian of scalar curvature at a point are taken by
Richardson-extrapolated central differences.  All curvature tensors are
assembled from ``(g, dg, ddg)`` by the standard Levi-Civita formulas;
:func:`geodesic_acceleration` contracts ``dg`` with a velocity directly,
without inverting g or forming Gamma.

Index conventions for the arrays returned here:

* ``metric(x)[..., a, b]``            -> g_ab
* ``metric_deriv(x)[..., c, a, b]``   -> d_c g_ab
* ``metric_deriv2(x)[..., d, c, a, b]`` -> d_d d_c g_ab
* ``christoffel(x)[..., c, a, b]``    -> Gamma^c_ab
* ``riemann(x)[..., a, b, c, d]``     -> Rm_abcd with Rm(X,Y,X,Y) > 0 on the
  round sphere (so Rm_abab / (g_aa g_bb - g_ab^2) is the sectional curvature).
"""

from dataclasses import dataclass, field

import numpy as np

from . import _fd
from .errors import ConditioningError, ConfigError, DomainError

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
    "christoffel_at",
    "geodesic_acceleration",
    "riemann_at",
    "ricci_at",
    "scalar_curvature_at",
    "curvature_packet",
    "scalar_laplacian",
    "scalar_gradient",
    "metric_from_config",
    "metric_to_config",
]

_EPS = np.finfo(float).eps


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


def _christoffel_from(g_inv, braces):
    """Gamma^c_ab = 1/2 g^{cd} (d_a g_db + d_b g_da - d_d g_ab) from the
    braces of :func:`_braces`."""
    return 0.5 * np.einsum("...cd,...abd->...cab", g_inv, braces)


def _curvature_from(g, dg, ddg):
    """Return (gamma, riemann04, ricci, scalar) from metric derivative data."""
    g_inv = np.linalg.inv(g)
    braces = _braces(dg)
    gamma = _christoffel_from(g_inv, braces)
    # d_e g^{cd} = -g^{ca} (d_e g_ab) g^{bd}
    dg_inv = -np.einsum("...ca,...eab,...bd->...ecd", g_inv, dg, g_inv)
    dbraces = (
        np.einsum("...eadb->...eabd", ddg)
        + np.einsum("...ebda->...eabd", ddg)
        - np.einsum("...edab->...eabd", ddg)
    )
    dgamma = 0.5 * (
        np.einsum("...ecd,...abd->...ecab", dg_inv, braces)
        + np.einsum("...cd,...eabd->...ecab", g_inv, dbraces)
    )
    # R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db
    #           - Gamma^a_de Gamma^e_cb
    riem_up = (
        np.einsum("...cadb->...abcd", dgamma)
        - np.einsum("...dacb->...abcd", dgamma)
        + np.einsum("...ace,...edb->...abcd", gamma, gamma)
        - np.einsum("...ade,...ecb->...abcd", gamma, gamma)
    )
    riemann = np.einsum("...ae,...ebcd->...abcd", g, riem_up)
    ricci = np.einsum("...abad->...bd", riem_up)
    scalar = np.einsum("...bd,...bd->...", g_inv, ricci)
    return gamma, riemann, ricci, scalar


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


class _Polynomial:
    """Sum of array coefficients times monomials x1^e1 x2^e2 x3^e3.

    ``exps`` is (M, 3) and ``coefs`` (M, *shape); evaluation at points of
    shape (..., 3) returns (..., *shape).  Repeated exponents are merged and
    vanishing terms dropped, so derivatives by exponent shifts stay short.
    """

    def __init__(self, exps, coefs):
        exps = np.asarray(exps, dtype=int).reshape(-1, 3)
        coefs = np.asarray(coefs, dtype=float)
        self.shape = coefs.shape[1:]
        merged, where = np.unique(exps, axis=0, return_inverse=True)
        summed = np.zeros((len(merged),) + self.shape)
        np.add.at(summed, where.ravel(), coefs)
        size = int(np.prod(self.shape, dtype=int))
        keep = np.any(summed.reshape(len(merged), size) != 0.0, axis=1)
        self.exps = merged[keep]
        self._flat = summed[keep].reshape(-1, size)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # powers[..., k, e] = x_k^e by repeated multiplication
        powers = np.ones(x.shape + (int(self.exps.max(initial=0)) + 1,))
        for e in range(1, powers.shape[-1]):
            powers[..., e] = powers[..., e - 1] * x
        mono = (
            powers[..., 0, self.exps[:, 0]]
            * powers[..., 1, self.exps[:, 1]]
            * powers[..., 2, self.exps[:, 2]]
        )  # (..., M)
        return (mono @ self._flat).reshape(x.shape[:-1] + self.shape)

    def gradient(self):
        """The polynomial of partial derivatives, new axis first: (3, *shape)."""
        exps, coefs = [], []
        for k in range(3):
            has = self.exps[:, k] > 0
            shifted = self.exps[has].copy()
            shifted[:, k] -= 1
            slot = np.zeros((int(has.sum()), 3) + self.shape)
            slot[:, k] = (self._flat[has] * self.exps[has, k, np.newaxis]).reshape(
                (-1,) + self.shape
            )
            exps.append(shifted)
            coefs.append(slot)
        return _Polynomial(np.concatenate(exps), np.concatenate(coefs))


# ---------------------------------------------------------------------------
# metric kinds
# ---------------------------------------------------------------------------

class MetricField:
    """Base class for analytic 3-metrics on a chart of R^3.

    Subclasses provide :meth:`metric`, :meth:`metric_deriv` and
    :meth:`metric_deriv2`, all exact, so assembled curvature tensors carry
    rounding only.
    """

    kind = "abstract"

    def metric(self, x):
        raise NotImplementedError

    def metric_deriv(self, x):
        raise NotImplementedError

    def metric_deriv2(self, x):
        raise NotImplementedError

    def domain_guard(self, x):
        """Boolean chart-validity mask for points ``x`` of shape (..., 3)."""
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1], dtype=bool)

    def domain_margin(self, x):
        """Continuous margin, positive inside the chart (used as ODE event)."""
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

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
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[...] = np.eye(3)
        return out

    def metric_deriv(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (3, 3, 3))

    def metric_deriv2(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (3, 3, 3, 3))


class _ConformallyFlat(MetricField):
    """g = exp(2 phi) * delta with closed-form phi derivatives."""

    def _phi(self, x):
        raise NotImplementedError

    def _phi_grad(self, x):
        raise NotImplementedError

    def _phi_hess(self, x):
        raise NotImplementedError

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        conf = np.exp(2.0 * self._phi(x))
        return conf[..., np.newaxis, np.newaxis] * np.eye(3)

    def metric_deriv(self, x):
        x = np.asarray(x, dtype=float)
        conf = np.exp(2.0 * self._phi(x))
        grad = self._phi_grad(x)
        out = np.einsum("...c,...->...c", 2.0 * grad, conf)
        return out[..., :, np.newaxis, np.newaxis] * np.eye(3)

    def metric_deriv2(self, x):
        x = np.asarray(x, dtype=float)
        conf = np.exp(2.0 * self._phi(x))
        grad = self._phi_grad(x)
        hess = self._phi_hess(x)
        core = 2.0 * hess + 4.0 * np.einsum("...d,...c->...dc", grad, grad)
        out = core * conf[..., np.newaxis, np.newaxis]
        return out[..., :, :, np.newaxis, np.newaxis] * np.eye(3)



class RoundSphereMetric(_ConformallyFlat):
    """Stereographic chart of the round 3-sphere of the given radius.

    Sectional curvature is +1/radius^2 everywhere; the chart covers the
    sphere minus one point.
    """

    kind = "round_sphere"

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def _phi(self, x):
        r2 = np.sum(x * x, axis=-1)
        R2 = self.radius**2
        return np.log(2.0 * R2) - np.log(R2 + r2)

    def _phi_grad(self, x):
        r2 = np.sum(x * x, axis=-1)
        return -2.0 * x / (self.radius**2 + r2)[..., np.newaxis]

    def _phi_hess(self, x):
        r2 = np.sum(x * x, axis=-1)
        den = self.radius**2 + r2
        outer = np.einsum("...a,...b->...ab", x, x)
        return (
            -2.0 * np.eye(3) / den[..., np.newaxis, np.newaxis]
            + 4.0 * outer / (den**2)[..., np.newaxis, np.newaxis]
        )

    def injectivity_bound(self, p):
        # stay inside the hemisphere around the base point
        return 0.5 * np.pi * self.radius

    def params(self):
        return {"radius": self.radius}


class HyperbolicMetric(_ConformallyFlat):
    """Poincare-ball chart of hyperbolic space, curvature -1/radius^2."""

    kind = "hyperbolic"
    _GUARD = 0.999

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def _phi(self, x):
        r2 = np.sum(x * x, axis=-1)
        R2 = self.radius**2
        return np.log(2.0 * R2) - np.log(R2 - r2)

    def _phi_grad(self, x):
        r2 = np.sum(x * x, axis=-1)
        return 2.0 * x / (self.radius**2 - r2)[..., np.newaxis]

    def _phi_hess(self, x):
        r2 = np.sum(x * x, axis=-1)
        den = self.radius**2 - r2
        outer = np.einsum("...a,...b->...ab", x, x)
        return (
            2.0 * np.eye(3) / den[..., np.newaxis, np.newaxis]
            + 4.0 * outer / (den**2)[..., np.newaxis, np.newaxis]
        )

    def domain_guard(self, x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x, axis=-1) < self._GUARD * self.radius

    def domain_margin(self, x):
        x = np.asarray(x, dtype=float)
        return (self._GUARD * self.radius - np.linalg.norm(x, axis=-1)) / self.radius

    def injectivity_bound(self, p):
        # chart-limited: proper distance from p to the guard sphere
        r = np.linalg.norm(np.asarray(p, dtype=float))
        to_edge = 2.0 * self.radius * (
            np.arctanh(0.995) - np.arctanh(min(r / self.radius, 0.99))
        )
        return max(to_edge, 0.0)

    def params(self):
        return {"radius": self.radius}


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

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        u = x / r[..., np.newaxis]
        uu = np.einsum("...a,...b->...ab", u, u)
        return np.eye(3) + self._psi(r)[..., np.newaxis, np.newaxis] * uu

    def metric_deriv(self, x):
        x = np.asarray(x, dtype=float)
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
        x = np.asarray(x, dtype=float)
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

    def domain_guard(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        return r > 2.0 * self.mass * (1.0 + self.horizon_margin)

    def domain_margin(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        return (r - 2.0 * self.mass * (1.0 + self.horizon_margin)) / self.mass

    def injectivity_bound(self, p):
        # proper radial distance from p down to the guard sphere
        r_p = float(np.linalg.norm(np.asarray(p, dtype=float)))
        r_min = 2.0 * self.mass * (1.0 + self.horizon_margin)
        if r_p <= r_min:
            return 0.0
        from scipy.integrate import quad

        dist, _ = quad(
            lambda r: 1.0 / np.sqrt(1.0 - 2.0 * self.mass / r), r_min, r_p
        )
        return 0.98 * dist


    def params(self):
        return {"mass": self.mass, "horizon_margin": self.horizon_margin}


class ConformalMetric(_ConformallyFlat):
    """g = exp(2 phi) * delta for a polynomial conformal factor.

    ``terms`` is an iterable of ``(coef, (e1, e2, e3))`` monomials of phi;
    its derivatives are exact, by exponent shifts.
    """

    kind = "conformal"

    def __init__(self, terms):
        self.poly_terms = [(float(c), tuple(int(e) for e in exps)) for c, exps in terms]
        self.phi = _Polynomial(
            [e for _, e in self.poly_terms], [c for c, _ in self.poly_terms]
        )
        self._grad = self.phi.gradient()
        self._hess = self._grad.gradient()

    @classmethod
    def from_polynomial(cls, terms):
        """Build from ``[(coef, (e1, e2, e3)), ...]``, the config's ``phi_poly``."""
        return cls(terms)

    def _phi(self, x):
        return self.phi(x)

    def _phi_grad(self, x):
        return self._grad(x)

    def _phi_hess(self, x):
        return self._hess(x)

    def params(self):
        return {"phi_poly": [[c, list(e)] for c, e in self.poly_terms]}


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
            a, b, c, e = int(a), int(b), float(c), tuple(int(k) for k in e)
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

    def metric(self, x):
        return np.eye(3) + self._h(x)

    def metric_deriv(self, x):
        return self._dh(x)

    def metric_deriv2(self, x):
        return self._ddh(x)

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
    plain matrix algebra).
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


def riemann_at(metric, x):
    """Covariant Riemann tensor Rm_abcd in chart components."""
    return _curvature_at(metric, x)[1]


def ricci_at(metric, x):
    """Ricci tensor Ric_ab in chart components (batched)."""
    return _curvature_at(metric, x)[2]


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


def _sc_steps(p):
    scale = max(1.0, float(np.linalg.norm(p)))
    return _EPS ** 0.2 * scale, _EPS ** (1.0 / 6.0) * scale


def _check_stencil(metric, p, h):
    corners = p + h * np.array(
        [[s1, s2, s3] for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)]
    )
    axes = np.concatenate([p + h * np.eye(3), p - h * np.eye(3)])
    if not np.all(metric.domain_guard(np.concatenate([corners, axes]))):
        raise ConditioningError(
            "curvature stencil leaves the metric domain; move the point inward"
        )


def scalar_gradient(metric, p):
    """Chart-component gradient d_a Sc at ``p`` by Richardson differences."""
    p = _as_points(p)
    _guard(metric, p)
    h1, _ = _sc_steps(p)
    _check_stencil(metric, p, h1)
    fn = lambda q: scalar_curvature_at(metric, q)
    return _fd.diff1_richardson(fn, p, step=h1 / max(1.0, float(np.linalg.norm(p))))


def scalar_laplacian(metric, p):
    """Covariant Laplacian g^{ab} grad_a grad_b Sc at the point ``p``."""
    p = _as_points(p)
    _guard(metric, p)
    _, h2 = _sc_steps(p)
    _check_stencil(metric, p, 2.0 * h2)
    scale = max(1.0, float(np.linalg.norm(p)))
    fn = lambda q: scalar_curvature_at(metric, q)
    hess = _fd.diff2_richardson(fn, p, step=h2 / scale)
    grad = scalar_gradient(metric, p)
    g = metric.metric(p)
    g_inv = np.linalg.inv(g)
    gamma = _christoffel_from(g_inv, _braces(metric.metric_deriv(p)))
    cov_hess = hess - np.einsum("cab,c->ab", gamma, grad)
    return float(np.einsum("ab,ab->", g_inv, cov_hess))


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
    grad_chart = scalar_gradient(metric, p)
    grad_f = frame @ grad_chart
    return CurvaturePacket(
        point=np.array(p, dtype=float),
        frame=frame,
        ricci=ric_f,
        scalar=sc,
        traceless=traceless,
        traceless_norm_sq=float(np.sum(traceless * traceless)),
        scalar_laplacian=scalar_laplacian(metric, p),
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
        return ConformalMetric.from_polynomial(terms)
    _reject_unknown(spec, {"terms"})
    terms = [(a, b, c, tuple(e)) for a, b, c, e in spec["terms"]]
    return PolynomialMetric(terms)


def metric_to_config(metric):
    """Inverse of :func:`metric_from_config` for serializable kinds."""
    return {"kind": metric.kind, **metric.params()}


def _reject_unknown(spec, allowed):
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown metric parameters: {sorted(unknown)}")
