from math import fsum

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawking_lab.errors import DomainError
from hawking_lab.manifold import (
    ConformalMetric,
    MetricField,
    _KINDS,
    _Polynomial,
    _orthonormal_frame,
    EuclideanMetric,
    HyperbolicMetric,
    PolynomialMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    christoffel_at,
    curvature_packet,
    geodesic_acceleration,
    metric_action,
    metric_at,
    metric_from_config,
    ricci_along,
    ricci_at,
    scalar_curvature_at,
)

import oracles

POLY_TERMS = [
    (0, 0, 0.02, (2, 0, 0)),
    (0, 1, 0.015, (1, 1, 0)),
    (1, 1, -0.01, (0, 2, 1)),
    (2, 2, 0.008, (1, 0, 2)),
    (0, 2, 0.012, (0, 3, 0)),
]
QUARTIC_TERMS = POLY_TERMS + [
    (0, 0, 0.01, (2, 1, 1)),
    (1, 2, -0.006, (0, 2, 2)),
    (2, 2, 0.005, (4, 0, 0)),
    (0, 1, 0.004, (1, 3, 0)),
]


def all_builtin_metrics():
    return [
        EuclideanMetric(),
        RoundSphereMetric(),
        HyperbolicMetric(),
        SchwarzschildMetric(mass=1.0),
    ]


def sample_point(metric, rng):
    if metric.kind == "schwarzschild":
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        return direction * rng.uniform(3.0, 8.0)
    if metric.kind == "hyperbolic":
        return rng.uniform(-0.3, 0.3, size=3)
    return rng.uniform(-0.6, 0.6, size=3)


class TestMetricAt:
    def test_euclidean_identity(self):
        g = metric_at(EuclideanMetric(), np.array([1.0, 2.0, 3.0]))
        assert_allclose(g, np.eye(3), atol=1e-15)

    def test_schwarzschild_radial_component(self):
        # areal chart at r=4: the radial-radial component is 1/(1-2/4) = 2
        metric = SchwarzschildMetric(mass=1.0)
        x = np.array([4.0, 0.0, 0.0])
        g = metric_at(metric, x)
        assert_allclose(g[0, 0], 2.0, rtol=1e-14)
        assert_allclose(g[1, 1], 1.0, rtol=1e-14)
        assert_allclose(g[2, 2], 1.0, rtol=1e-14)

    def test_schwarzschild_rotated_point(self):
        metric = SchwarzschildMetric(mass=1.0)
        x = 4.0 * np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        g = metric_at(metric, x)
        u = x / np.linalg.norm(x)
        assert_allclose(u @ g @ u, 2.0, rtol=1e-13)

    def test_conformal_scaling(self):
        metric = ConformalMetric(
            [(0.1, (2, 0, 0)), (0.1, (0, 2, 0)), (0.1, (0, 0, 2))]
        )
        g = metric_at(metric, np.array([1.0, 0.0, 0.0]))
        assert_allclose(g, np.exp(0.2) * np.eye(3), rtol=1e-14)

    def test_domain_error(self):
        metric = SchwarzschildMetric(mass=1.0)
        with pytest.raises(DomainError):
            metric_at(metric, np.array([2.0, 0.0, 0.0]))

    def test_positive_definite_at_random_points(self):
        rng = np.random.default_rng(7)
        for metric in all_builtin_metrics() + [PolynomialMetric(POLY_TERMS)]:
            for _ in range(10):
                x = sample_point(metric, rng) if metric.kind != "polynomial_perturbation" \
                    else rng.uniform(-0.5, 0.5, size=3)
                np.linalg.cholesky(metric_at(metric, x))


class TestChristoffel:
    def test_euclidean_zero(self):
        gamma = christoffel_at(EuclideanMetric(), np.array([0.3, -0.7, 2.0]))
        assert_allclose(gamma, 0.0, atol=1e-15)

    def test_round_sphere_origin(self):
        # conformal factor has a critical point at the chart origin
        gamma = christoffel_at(RoundSphereMetric(), np.zeros(3))
        assert_allclose(gamma, 0.0, atol=1e-13)

    def test_schwarzschild_against_symbolic(self):
        metric = SchwarzschildMetric(mass=1.0)
        oracle = oracles.schwarzschild_symbolic(1)
        point = np.array([4.0, 1.0, -0.5])
        assert_allclose(
            christoffel_at(metric, point), oracle.christoffel(point), atol=1e-11
        )

    def test_symmetry_lower_indices(self):
        rng = np.random.default_rng(3)
        for metric in all_builtin_metrics():
            x = sample_point(metric, rng)
            gamma = christoffel_at(metric, x)
            assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-12)

    def test_fd_kind_against_symbolic(self):
        metric = PolynomialMetric(POLY_TERMS)
        oracle = oracles.polynomial_symbolic(POLY_TERMS)
        point = np.array([0.2, -0.3, 0.4])
        assert_allclose(
            christoffel_at(metric, point), oracle.christoffel(point), atol=1e-9
        )


class TestBatchedDerivatives:
    def test_batch_shapes_match_single_points(self):
        # [..., c, a, b] and [..., d, c, a, b]: batch axes first, on every kind
        rng = np.random.default_rng(19)
        metrics = all_builtin_metrics() + [
            ConformalMetric([(0.05, (2, 0, 0)), (-0.03, (0, 1, 1))]),
            PolynomialMetric(POLY_TERMS),
        ]
        for metric in metrics:
            if metric.kind in ("conformal", "polynomial_perturbation"):
                batch = rng.uniform(-0.4, 0.4, size=(5, 3))
            else:
                batch = np.array([sample_point(metric, rng) for _ in range(5)])
            dg = metric.metric_deriv(batch)
            ddg = metric.metric_deriv2(batch)
            assert dg.shape == (5, 3, 3, 3), metric.kind
            assert ddg.shape == (5, 3, 3, 3, 3), metric.kind
            for x, dg_row, ddg_row in zip(batch, dg, ddg):
                assert_allclose(dg_row, metric.metric_deriv(x), rtol=1e-12, atol=1e-12)
                assert_allclose(ddg_row, metric.metric_deriv2(x), rtol=1e-12, atol=1e-12)


def kernel_cases(rng):
    """(metric, (N, 3) chart points) for every kind."""
    cases = []
    for metric in all_builtin_metrics():
        cases.append((metric, np.array([sample_point(metric, rng) for _ in range(40)])))
    for metric in (
        ConformalMetric([(0.05, (2, 0, 0)), (-0.03, (0, 1, 1))]),
        PolynomialMetric(POLY_TERMS),
    ):
        cases.append((metric, rng.uniform(-0.4, 0.4, size=(40, 3))))
    return cases


class TestGeodesicAcceleration:
    def test_matches_christoffel_contraction(self):
        rng = np.random.default_rng(23)
        for metric, x in kernel_cases(rng):
            v = rng.normal(size=x.shape)
            acc = geodesic_acceleration(metric.metric(x), metric.metric_deriv(x), v)
            ref = -np.einsum("ncab,na,nb->nc", christoffel_at(metric, x), v, v)
            assert acc.shape == x.shape
            scale = np.max(np.abs(ref))
            if metric.kind == "euclidean":
                assert np.all(acc == 0.0)
                continue
            assert np.max(np.abs(acc - ref)) <= 1e-13 * scale, metric.kind

    def test_single_point(self):
        metric = SchwarzschildMetric(mass=1.0)
        x, v = np.array([4.0, 1.0, -0.5]), np.array([0.3, -0.2, 0.9])
        acc = geodesic_acceleration(metric.metric(x), metric.metric_deriv(x), v)
        ref = -np.einsum("cab,a,b->c", christoffel_at(metric, x), v, v)
        assert_allclose(acc, ref, rtol=1e-13, atol=1e-15)


class TestRicciAlong:
    def test_matches_ricci_tensor_contraction(self):
        # the closed forms per kind against the tensor assembled from ddg
        rng = np.random.default_rng(41)
        for metric, x in kernel_cases(rng):
            n = rng.normal(size=x.shape)
            ric = ricci_at(metric, x)
            want = np.einsum("nab,na,nb->n", ric, n, n)
            got = ricci_along(metric, x, n)
            assert got.shape == (40,), metric.kind
            scale = np.linalg.norm(ric, axis=(1, 2)) * np.sum(n * n, axis=1)
            assert np.all(np.abs(got - want) <= 1e-13 * scale), metric.kind

    @pytest.mark.parametrize(
        "metric, point",
        [
            (SchwarzschildMetric(mass=1.0), [2.0, 0.0, 0.0]),
            (HyperbolicMetric(), [0.0, 0.9995, 0.0]),
        ],
        ids=["schwarzschild", "hyperbolic"],
    )
    def test_domain_error_off_chart(self, metric, point):
        with pytest.raises(DomainError):
            ricci_along(metric, np.array([point]), np.ones((1, 3)))

    def test_conformally_flat_on_a_grid_shaped_batch(self):
        # the per-node closed form keeps any leading batch shape
        rng = np.random.default_rng(43)
        conformal = ConformalMetric([(0.1, (2, 0, 0)), (-0.02, (0, 0, 3))])
        for metric in (RoundSphereMetric(), HyperbolicMetric(), conformal):
            x = rng.uniform(-0.3, 0.3, size=(6, 8, 3))
            n = rng.normal(size=x.shape)
            ric = ricci_at(metric, x)
            want = np.einsum("...ab,...a,...b->...", ric, n, n)
            got = metric.ricci_along(x, n)
            assert got.shape == (6, 8), metric.kind
            scale = np.linalg.norm(ric, axis=(-2, -1)) * np.sum(n * n, axis=-1)
            assert np.all(np.abs(got - want) <= 1e-13 * scale), metric.kind


def closed_form_cases(rng):
    """:func:`kernel_cases` plus Schwarzschild points just above its guard
    radius 2m (1 + margin)."""
    metric = SchwarzschildMetric(mass=1.0)
    direction = rng.normal(size=(20, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r_guard = 2.0 * metric.mass * (1.0 + metric.horizon_margin)
    r = r_guard * (1.0 + np.geomspace(1e-9, 1e-2, 20))
    return kernel_cases(rng) + [(metric, direction * r[:, np.newaxis])]


class TestClosedFormsPerKind:
    """``acceleration`` and ``action`` against the contractions of the
    assembled g and dg they replace."""

    def test_every_kind_defines_the_protocol(self):
        for kind, cls in _KINDS.items():
            for name in ("action", "ricci_along", "scalar_derivatives"):
                assert getattr(cls, name) is not getattr(MetricField, name), (kind, name)
            # a kind states its chart once, as domain_margin, whose sign the
            # guard reads
            assert cls.domain_guard is MetricField.domain_guard, kind
        # a fan on a kind without ``acceleration`` contracts g and dg through
        # the metric object it holds, which is how the benchmark's counting
        # proxy sees each right-hand side of a Euclidean fan
        assert {kind for kind, cls in _KINDS.items() if not hasattr(cls, "acceleration")} == {
            "euclidean", "polynomial_perturbation"
        }

        # g, dg and ddg are derived from the action but on the polynomial
        # kind, which builds its action from them
        for name in ("metric", "metric_deriv", "metric_deriv2"):
            overriding = {
                kind for kind, cls in _KINDS.items()
                if getattr(cls, name) is not getattr(MetricField, name)
            }
            assert overriding == {"polynomial_perturbation"}, name

    def test_margin_sign_is_positive_definiteness(self):
        # the smallest leading minor against the smallest eigenvalue, on
        # points that straddle the chart boundary (about 31% inside)
        metric = PolynomialMetric([
            [0, 0, 0.3, [1, 0, 0]], [0, 1, 0.2, [0, 1, 1]], [2, 2, -0.25, [2, 0, 0]],
            [1, 2, 0.1, [0, 0, 1]], [1, 1, -0.4, [0, 1, 0]], [0, 2, 0.35, [0, 0, 2]],
        ])
        x = 2.0 * np.random.default_rng(5).normal(size=(20_000, 3))
        inside = np.linalg.eigvalsh(metric.metric(x))[:, 0] > 0.0
        assert 0.2 < np.mean(inside) < 0.4
        assert np.array_equal(metric.domain_margin(x) > 0.0, inside)
        assert np.array_equal(metric.domain_guard(x), inside)

    def test_acceleration_matches_contractions(self):
        rng = np.random.default_rng(59)
        for metric, x in closed_form_cases(rng):
            if not hasattr(metric, "acceleration"):
                continue
            v = rng.normal(size=x.shape)
            gamma = christoffel_at(metric, x)
            got = metric.acceleration(x, v)
            assert got.shape == x.shape, metric.kind
            scale = np.linalg.norm(gamma.reshape(len(x), -1), axis=1) * np.sum(v * v, axis=1)
            for want in (
                geodesic_acceleration(metric.metric(x), metric.metric_deriv(x), v),
                -np.einsum("ncab,na,nb->nc", gamma, v, v),
            ):
                err = np.linalg.norm(got - want, axis=1)
                assert np.all(err <= 1e-13 * scale), metric.kind

    def test_action_matches_contractions(self):
        # g v, g^{-1} c and ((n.d)g) v against the assembled g and dg
        rng = np.random.default_rng(61)
        for metric, x in closed_form_cases(rng):
            n, v = rng.normal(size=x.shape), rng.normal(size=x.shape)
            g, dg = metric.metric(x), metric.metric_deriv(x)
            act = metric_action(metric, x)
            got_g, got_inv, got_dg = act.apply(v), act.solve(v), act.along(n)(v)
            assert got_g.shape == got_inv.shape == got_dg.shape == x.shape, metric.kind
            dg_n = np.einsum("nc,ncab->nab", n, dg)
            if metric.kind == "euclidean":
                assert np.all(got_g == v) and np.all(got_inv == v) and np.all(got_dg == 0.0)
                continue
            v_norm = np.linalg.norm(v, axis=1)
            g_scale = np.linalg.norm(g.reshape(len(x), -1), axis=1) * v_norm
            inv = np.linalg.inv(g)
            inv_scale = np.linalg.norm(inv.reshape(len(x), -1), axis=1) * v_norm
            dg_scale = (
                np.linalg.norm(dg.reshape(len(x), -1), axis=1) * np.linalg.norm(n, axis=1) * v_norm
            )
            for got, want, scale in (
                (got_g, np.einsum("nab,nb->na", g, v), g_scale),
                (got_inv, np.einsum("nab,nb->na", inv, v), inv_scale),
                (got_dg, np.einsum("nab,nb->na", dg_n, v), dg_scale),
            ):
                err = np.linalg.norm(got - want, axis=1)
                assert np.all(err <= 1e-13 * scale), metric.kind

    def test_action_keeps_batch_shape(self):
        rng = np.random.default_rng(67)
        for metric, x in kernel_cases(rng):
            x = x.reshape(5, 8, 3)
            n, v = rng.normal(size=x.shape), rng.normal(size=x.shape)
            act = metric_action(metric, x)
            want = np.einsum("...ab,...b->...a", metric.metric(x), v)
            assert act.apply(v).shape == act.solve(v).shape == act.along(n)(v).shape == x.shape
            assert np.max(np.abs(act.apply(v) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "metric, point",
        [
            (SchwarzschildMetric(mass=1.0), [2.0, 0.0, 0.0]),
            (HyperbolicMetric(), [0.0, 0.9995, 0.0]),
        ],
        ids=["schwarzschild", "hyperbolic"],
    )
    def test_action_domain_error_off_chart(self, metric, point):
        with pytest.raises(DomainError):
            metric_action(metric, np.array([point]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestComplexPoints:
    """Each kind's unguarded methods at complex points z = x + i h e.  A
    float cast left in them drops Im z with numpy's ComplexWarning, a
    RuntimeWarning and an error here.  The complex step reads the
    derivative along e with no truncation error (Squire and Trapp, SIAM
    Rev. 1998)."""

    H = 1e-30

    def _cases(self):
        rng = np.random.default_rng(71)
        for metric, x in closed_form_cases(rng):
            e = rng.normal(size=x.shape)
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            yield metric, x, x + 1j * self.H * e, e, rng.normal(size=x.shape)

    def test_imaginary_part_of_g_v_is_its_derivative_along_e(self):
        # measured at most 5.3e-16 of |dg| |v|
        for metric, x, z, e, v in self._cases():
            got = metric.action(z).apply(v).imag / self.H
            want = metric.action(x).along(e)(v)
            dg = metric.metric_deriv(x).reshape(len(x), -1)
            scale = np.linalg.norm(dg, axis=1) * np.linalg.norm(v, axis=1)
            assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-14 * scale), metric.kind

    def test_real_part_is_the_real_call(self):
        # measured at most 2.8e-16 of the largest real value
        for metric, x, z, e, v in self._cases():
            act_z, act = metric.action(z), metric.action(x)
            pairs = [
                (act_z.apply(v), act.apply(v)),
                (act_z.solve(v), act.solve(v)),
                (act_z.along(e)(v), act.along(e)(v)),
                (metric.ricci_along(z, v), metric.ricci_along(x, v)),
            ]
            if hasattr(metric, "acceleration"):
                pairs.append((metric.acceleration(z, v), metric.acceleration(x, v)))
            for got, want in pairs:
                assert np.max(np.abs(got.real - want)) <= 1e-13 * np.max(np.abs(want)), metric.kind

    def test_imaginary_part_of_the_polynomial_metric_is_dg_along_e(self):
        # measured at most 3.7e-16 of the largest |dg e|
        metric = PolynomialMetric(QUARTIC_TERMS)
        for _, x, z, e, _ in self._cases():
            want = np.einsum("nc,ncab->nab", e, metric.metric_deriv(x))
            got = metric.metric(z).imag / self.H
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_imaginary_parts_of_schwarzschild_g_and_dg_are_their_derivatives(self):
        # r = sqrt(x . x) continues analytically, where |x| would drop Im z;
        # measured at most 4.2e-16 of the largest |dg e|.  The same step
        # through dg is how ddg is defined (TestDerivedTensors checks it)
        cases = [
            (x, z, e) for metric, x, z, e, _ in self._cases() if metric.kind == "schwarzschild"
        ]
        x = np.array([[4.0, 1.0, -0.5]])
        e = np.array([[0.6, 0.8, 0.0]])
        cases.append((x, x + 1j * self.H * e, e))
        metric = SchwarzschildMetric(mass=1.0)
        for x, z, e in cases:
            want = np.einsum("nc,nc...->n...", e, metric.metric_deriv(x))
            got = metric.metric(z).imag / self.H
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def derived_tensor_case(kind):
    """(metric, its sympy oracle, (N, 3) sample points) for a kind."""
    import sympy as sp

    rng = np.random.default_rng(73)
    if kind == "euclidean":
        return EuclideanMetric(), oracles.polynomial_symbolic([]), rng.uniform(-2, 2, size=(6, 3))
    if kind == "schwarzschild":
        metric = SchwarzschildMetric(mass=1.0)
        points = [[4.0, 1.0, -0.5], [3.0, 2.0, 1.0]]
        points += [sample_point(metric, rng) for _ in range(6)]
        return metric, oracles.schwarzschild_symbolic(1), np.array(points)
    if kind == "round_sphere":
        oracle = oracles.round_sphere_symbolic(2)
        return RoundSphereMetric(radius=2.0), oracle, rng.uniform(-1.2, 1.2, size=(6, 3))
    if kind == "hyperbolic":
        oracle = oracles.conformal_symbolic(
            lambda x1, x2, x3: sp.log(2) - sp.log(1 - x1**2 - x2**2 - x3**2)
        )
        return HyperbolicMetric(), oracle, rng.uniform(-0.3, 0.3, size=(6, 3))
    if kind == "conformal":
        metric = ConformalMetric(
            [(0.1, (2, 0, 0)), (0.05, (0, 1, 1)), (0.03, (1, 0, 0)), (-0.02, (0, 0, 3))]
        )
        oracle = oracles.conformal_symbolic(
            lambda x1, x2, x3: sp.Rational(1, 10) * x1**2
            + sp.Rational(1, 20) * x2 * x3
            + sp.Rational(3, 100) * x1
            - sp.Rational(1, 50) * x3**3
        )
        return metric, oracle, rng.uniform(-0.5, 0.5, size=(6, 3))
    oracle = oracles.polynomial_symbolic(QUARTIC_TERMS)
    return PolynomialMetric(QUARTIC_TERMS), oracle, rng.uniform(-0.5, 0.5, size=(6, 3))


class TestDerivedTensors:
    """g, dg and ddg, derived from each kind's action (ddg by the complex
    step), against exact sympy differentiation of the chart expressions."""

    @pytest.mark.parametrize("kind", list(_KINDS))
    def test_match_symbolic_derivatives(self, kind):
        # measured at most 1.1e-15 of the largest entry
        metric, oracle, points = derived_tensor_case(kind)
        assert metric.kind == kind
        data = [oracle._data(x) for x in points]
        for order, name in enumerate(("metric", "metric_deriv", "metric_deriv2")):
            got = getattr(metric, name)(points)
            want = np.array([d[order] for d in data])
            assert got.dtype == float and got.shape == want.shape, name
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, name


class TestExactPolynomialDerivatives:
    def _check(self, metric, oracle, points):
        for x in points:
            _, dg, ddg = oracle._data(x)
            assert_allclose(metric.metric_deriv(x), dg, rtol=0.0, atol=1e-13)
            assert_allclose(metric.metric_deriv2(x), ddg, rtol=0.0, atol=1e-13)

    def test_polynomial_perturbation(self):
        points = np.random.default_rng(29).uniform(-0.5, 0.5, size=(6, 3))
        self._check(
            PolynomialMetric(POLY_TERMS), oracles.polynomial_symbolic(POLY_TERMS), points
        )

    def test_polynomial_conformal(self):
        import sympy as sp

        metric = ConformalMetric(
            [(0.05, (2, 0, 0)), (-0.03, (0, 1, 1)), (0.02, (1, 1, 2))]
        )
        oracle = oracles.conformal_symbolic(
            lambda x1, x2, x3: sp.Rational(1, 20) * x1**2
            - sp.Rational(3, 100) * x2 * x3
            + sp.Rational(1, 50) * x1 * x2 * x3**2
        )
        points = np.random.default_rng(31).uniform(-0.5, 0.5, size=(6, 3))
        self._check(metric, oracle, points)


def unique_merge(exps, coefs):
    """Repeated exponents merged by ``np.unique(axis=0)`` and ``np.add.at``,
    vanishing terms dropped: ``(exps, flat coefficients)``."""
    exps = np.asarray(exps, dtype=int).reshape(-1, 3)
    coefs = np.asarray(coefs, dtype=float)
    merged, where = np.unique(exps, axis=0, return_inverse=True)
    summed = np.zeros((len(merged),) + coefs.shape[1:])
    np.add.at(summed, where.ravel(), coefs)
    flat = summed.reshape(len(merged), -1)
    keep = np.any(flat != 0.0, axis=1)
    return merged[keep], flat[keep]


def stacked_gradient(poly):
    """``_Polynomial.gradient`` by per-component slot arrays, boolean masks
    and a concatenate, merged as ``_Polynomial`` merges."""
    exps, coefs = [], []
    for k in range(3):
        has = poly.exps[:, k] > 0
        shifted = poly.exps[has].copy()
        shifted[:, k] -= 1
        slot = np.zeros((int(has.sum()), 3) + poly.shape)
        slot[:, k] = (poly._flat[has] * poly.exps[has, k, np.newaxis]).reshape((-1,) + poly.shape)
        exps.append(shifted)
        coefs.append(slot)
    return _Polynomial(np.concatenate(exps), np.concatenate(coefs))


class TestPolynomialMerge:
    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
    def test_matches_unique_reference_bit_for_bit(self, shape):
        rng = np.random.default_rng(41)
        exps = rng.integers(0, 3, size=(40, 3))  # 27 exponents, so many repeats
        coefs = rng.normal(size=(40,) + shape)
        # a cancelling pair, a term that cancels in one component only, and
        # a zero term
        exps = np.concatenate([exps, [[4, 0, 1], [4, 0, 1], [0, 4, 1], [0, 4, 1], [1, 1, 4]]])
        partial = np.ones((2,) + shape)
        partial.reshape(2, -1)[1, 0] = -1.0
        coefs = np.concatenate([coefs, [np.full(shape, 0.3), np.full(shape, -0.3)], partial,
                                [np.zeros(shape)]])
        poly = _Polynomial(exps, coefs)
        ref_exps, ref_flat = unique_merge(exps, coefs)
        assert poly.exps.dtype == ref_exps.dtype and poly.exps.shape == ref_exps.shape
        assert poly.exps.tobytes() == ref_exps.tobytes()
        assert poly._flat.shape == ref_flat.shape
        assert poly._flat.tobytes() == ref_flat.tobytes()
        assert [4, 0, 1] not in poly.exps.tolist() and [1, 1, 4] not in poly.exps.tolist()
        assert [0, 4, 1] in poly.exps.tolist() or shape == ()

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
    def test_gradient_matches_stacked_reference_bit_for_bit(self, shape):
        rng = np.random.default_rng(43)
        exps = rng.integers(0, 5, size=(30, 3))
        coefs = rng.normal(size=(30,) + shape)
        poly = _Polynomial(exps, coefs)
        # five orders deep, as ConformalMetric goes to the fourth
        for _ in range(5):
            got, want = poly.gradient(), stacked_gradient(poly)
            assert got.shape == want.shape == (3,) + poly.shape
            assert got.exps.dtype == want.exps.dtype and got.exps.shape == want.exps.shape
            assert got.exps.tobytes() == want.exps.tobytes()
            assert got._flat.shape == want._flat.shape
            assert got._flat.tobytes() == want._flat.tobytes()
            poly = got
        constant = _Polynomial([[0, 0, 0]], [np.ones(shape)])
        assert len(constant.gradient().exps) == len(stacked_gradient(constant).exps) == 0


class TestCurvature:
    def test_euclidean_flat(self):
        packet = curvature_packet(EuclideanMetric(), np.array([0.5, 1.0, -2.0]))
        assert abs(packet.scalar) < 1e-12
        assert packet.traceless_norm_sq < 1e-12
        assert abs(packet.scalar_laplacian) < 1e-10

    def test_round_sphere_einstein(self):
        packet = curvature_packet(RoundSphereMetric(), np.array([0.3, -0.2, 0.1]))
        assert_allclose(packet.scalar, 6.0, rtol=1e-10)
        assert_allclose(packet.ricci, 2.0 * np.eye(3), atol=1e-10)
        assert packet.traceless_norm_sq < 1e-18
        assert abs(packet.scalar_laplacian) < 1e-8

    def test_hyperbolic_einstein(self):
        packet = curvature_packet(HyperbolicMetric(), np.array([0.1, 0.25, -0.05]))
        assert_allclose(packet.scalar, -6.0, rtol=1e-10)
        assert_allclose(packet.ricci, -2.0 * np.eye(3), atol=1e-10)
        assert abs(packet.scalar_laplacian) < 1e-8

    def test_schwarzschild_scalar_flat(self):
        rng = np.random.default_rng(11)
        metric = SchwarzschildMetric(mass=1.0)
        for _ in range(5):
            x = sample_point(metric, rng)
            assert abs(scalar_curvature_at(metric, x)) < 1e-8

    def test_schwarzschild_traceless_norm(self):
        # |S|^2 = 6 m^2 / r^6 for the scalar-flat Schwarzschild slice
        metric = SchwarzschildMetric(mass=1.0)
        x = np.array([4.0, 0.0, 0.0])
        packet = curvature_packet(metric, x)
        oracle = oracles.schwarzschild_symbolic(1)
        ric = oracle.ricci(x)
        sc = oracle.scalar(x)
        expected = float(np.sum(ric * ric) - sc**2 / 3.0)
        # chart components vs frame components agree for the norm
        g = metric_at(metric, x)
        g_inv = np.linalg.inv(g)
        expected = float(
            np.einsum("ac,bd,ab,cd->", g_inv, g_inv, ric, ric) - sc**2 / 3.0
        )
        assert_allclose(packet.traceless_norm_sq, expected, rtol=1e-9)
        assert_allclose(packet.traceless_norm_sq, 6.0 / 4.0**6, rtol=1e-9)

    def test_schwarzschild_ricci_against_symbolic(self):
        metric = SchwarzschildMetric(mass=1.0)
        oracle = oracles.schwarzschild_symbolic(1)
        point = np.array([3.0, 2.0, 1.0])
        assert_allclose(ricci_at(metric, point), oracle.ricci(point), atol=1e-11)

    def test_conformal_against_symbolic(self):
        import sympy as sp

        metric = ConformalMetric([(0.05, (2, 0, 0))])
        oracle = oracles.conformal_symbolic(
            lambda x1, x2, x3: sp.Rational(1, 20) * x1**2
        )
        point = np.array([0.4, -0.2, 0.3])
        assert_allclose(ricci_at(metric, point), oracle.ricci(point), atol=2e-9)
        assert_allclose(
            scalar_curvature_at(metric, point), oracle.scalar(point), atol=2e-9
        )

    def test_polynomial_against_symbolic(self):
        metric = PolynomialMetric(POLY_TERMS)
        oracle = oracles.polynomial_symbolic(POLY_TERMS)
        point = np.array([0.25, 0.1, -0.2])
        assert_allclose(ricci_at(metric, point), oracle.ricci(point), atol=1e-8)

    def test_packet_trace_identities(self):
        rng = np.random.default_rng(5)
        for metric in all_builtin_metrics():
            x = sample_point(metric, rng)
            packet = curvature_packet(metric, x)
            tr = np.trace(packet.ricci)
            if abs(packet.scalar) > 1e-6:
                assert abs(tr - packet.scalar) < 1e-9 * abs(packet.scalar)
            else:
                assert abs(tr - packet.scalar) < 1e-9
            assert abs(np.trace(packet.traceless)) < 1e-9 * max(1.0, abs(packet.scalar))
            norm_identity = np.sum(packet.ricci**2) - packet.scalar**2 / 3.0
            assert_allclose(
                packet.traceless_norm_sq,
                norm_identity,
                rtol=1e-9,
                atol=1e-12,
            )

    def test_frame_orthonormal(self):
        # the frame Gram-Schmidt builds from e_0, e_1, e_2: lower-triangular
        # with a positive diagonal, on every kind (measured 8.9e-16 from I)
        rng = np.random.default_rng(9)
        frames = []
        for metric in all_builtin_metrics():
            x = sample_point(metric, rng)
            frames.append((metric.kind, curvature_packet(metric, x).frame, metric_at(metric, x)))
        for metric, x in closed_form_cases(np.random.default_rng(79)):
            for point in x[::4]:
                g = metric.metric(point)
                frames.append((metric.kind, _orthonormal_frame(g), g))
        for kind, frame, g in frames:
            assert np.all(frame[np.triu_indices(3, 1)] == 0.0), kind
            assert np.all(np.diag(frame) > 0.0), kind
            assert np.max(np.abs(frame @ g @ frame.T - np.eye(3))) <= 1e-14, kind


class TestScalarLaplacian:
    def test_flat_zero(self):
        assert abs(EuclideanMetric().scalar_derivatives(np.array([1.0, 0.0, 0.0]))[1]) < 1e-10

    def test_constant_curvature_zero(self):
        assert abs(HyperbolicMetric().scalar_derivatives(np.array([0.2, 0.1, 0.0]))[1]) < 1e-8
        assert abs(RoundSphereMetric().scalar_derivatives(np.array([0.1, -0.3, 0.2]))[1]) < 1e-8

    def test_conformal_against_symbolic(self):
        import sympy as sp

        metric = ConformalMetric([(0.05, (2, 0, 0))])
        oracle = oracles.ConformalScalarOracle(
            lambda x1, x2, x3: sp.Rational(1, 20) * x1**2
        )
        point = np.array([0.3, 0.2, -0.1])
        got = metric.scalar_derivatives(point)[1]
        want = oracle.scalar_laplacian(point)
        assert_allclose(got, want, rtol=2e-4, atol=2e-5)

    def test_schwarzschild_zero(self):
        # Sc vanishes identically, so its Laplacian does too
        got = SchwarzschildMetric(mass=1.0).scalar_derivatives(np.array([4.0, 0.0, 0.0]))[1]
        assert abs(got) < 1e-8

    def test_packet_carries_the_same_laplacian(self):
        # the packet reuses its gradient of Sc; the figure stays bit-identical
        metric = ConformalMetric([(0.05, (2, 0, 0)), (-0.03, (0, 1, 1))])
        point = np.array([0.3, 0.2, -0.1])
        packet = curvature_packet(metric, point)
        grad, lap = metric.scalar_derivatives(point)
        assert packet.scalar_laplacian == lap
        assert np.array_equal(packet.scalar_gradient, packet.frame @ grad)

    def test_flat_metric_near_the_chart_edge(self):
        # g = diag(1 - x^2, 1, 1) reparametrises flat space, and its chart
        # ends at x = 1; the jets read the point alone, so Sc's derivatives
        # are exact zeros a step of 1e-4 inside the edge
        metric = PolynomialMetric([(0, 0, -1.0, (2, 0, 0))])
        point = np.array([1.0 - 1e-4, 0.0, 0.0])
        grad, lap = metric.scalar_derivatives(point)
        assert np.array_equal(grad, np.zeros(3))
        assert lap == 0.0


def _count_ddg_points(metric):
    """Count the chart points at which ``metric`` evaluates ddg; the counter
    wraps the instance's method, so the metric's own calls count too."""
    points = []
    inner = metric.metric_deriv2

    def counted(x):
        points.append(int(np.prod(np.shape(x)[:-1])))
        return inner(x)

    metric.metric_deriv2 = counted
    return points


class TestScalarDerivatives:
    def test_conformal_against_symbolic(self):
        # cubic and quartic monomials, so the third and fourth derivatives
        # of phi enter grad Sc and Delta Sc
        import sympy as sp

        metric = ConformalMetric(
            [
                (0.1, (2, 0, 0)), (0.05, (0, 1, 1)), (0.03, (1, 0, 0)),
                (-0.02, (0, 0, 3)), (0.04, (1, 1, 2)), (-0.03, (0, 4, 0)),
            ]
        )
        oracle = oracles.ConformalScalarOracle(
            lambda x1, x2, x3: sp.Rational(1, 10) * x1**2
            + sp.Rational(1, 20) * x2 * x3
            + sp.Rational(3, 100) * x1
            - sp.Rational(1, 50) * x3**3
            + sp.Rational(1, 25) * x1 * x2 * x3**2
            - sp.Rational(3, 100) * x2**4
        )
        for point in np.random.default_rng(37).uniform(-0.5, 0.5, size=(4, 3)):
            grad, lap = metric.scalar_derivatives(point)
            want_grad = oracle.scalar_gradient(point)
            want_lap = oracle.scalar_laplacian(point)
            assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)
            assert abs(lap - want_lap) <= 1e-12 * abs(want_lap)
            assert curvature_packet(metric, point).scalar_laplacian == lap

    @pytest.mark.parametrize(
        "metric", all_builtin_metrics(), ids=lambda metric: metric.kind
    )
    def test_constant_scalar_kinds_are_exact_zeros(self, metric):
        x = sample_point(metric, np.random.default_rng(43))
        grad, lap = metric.scalar_derivatives(x)
        assert np.array_equal(grad, np.zeros(3))
        assert lap == 0.0
        packet = curvature_packet(metric, x)
        assert np.array_equal(packet.scalar_gradient, np.zeros(3))
        assert packet.scalar_laplacian == 0.0

    def test_closed_form_packet_reads_ddg_at_the_point_alone(self):
        metric = ConformalMetric([(0.05, (2, 0, 0)), (-0.02, (0, 0, 3))])
        points = _count_ddg_points(metric)
        curvature_packet(metric, np.array([0.3, 0.2, -0.1]))
        assert sum(points) == 1

    def test_polynomial_packet_keeps_its_stencil(self):
        # the polynomial kind's jets evaluate its derivative polynomials at
        # the packet point, so its stencil is that one point, not ddg at
        # neighbouring points
        metric = PolynomialMetric(POLY_TERMS)
        points = _count_ddg_points(metric)
        curvature_packet(metric, np.array([0.25, 0.1, -0.2]))
        assert sum(points) == 1

    @pytest.mark.parametrize(
        "terms", [POLY_TERMS, QUARTIC_TERMS], ids=["poly_terms", "quartic"]
    )
    def test_polynomial_against_60_digit_reference(self, terms):
        # the quartic terms make d^4 g enter Delta Sc
        metric = PolynomialMetric(terms)
        oracle = oracles.polynomial_symbolic(terms)
        for point in np.random.default_rng(41).uniform(-0.5, 0.5, size=(4, 3)):
            grad, lap = metric.scalar_derivatives(point)
            want_grad, want_lap = oracle.scalar_derivatives(point)
            assert np.linalg.norm(grad - want_grad) <= 1e-13 * np.linalg.norm(want_grad)
            assert abs(lap - want_lap) <= 1e-13 * abs(want_lap)


def frame_riemann(metric, x):
    """Rm_abcd at ``x`` in the curvature packet's orthonormal frame: R^a_bcd
    by the oracles' loop assembly from the metric's own (g, dg, ddg),
    lowered with g."""
    g = metric.metric(x)
    riem_up = oracles._loop_assembly(
        np.linalg.inv(g), metric.metric_deriv(x), metric.metric_deriv2(x), fsum
    )[1]
    rm = np.einsum("ae,ebcd->abcd", g, riem_up)
    frame = curvature_packet(metric, x).frame
    return np.einsum("ma,nb,sc,td,abcd->mnst", frame, frame, frame, frame, rm)


class TestTensorSymmetries:
    def test_riemann_symmetries(self):
        rng = np.random.default_rng(13)
        for metric in all_builtin_metrics():
            x = sample_point(metric, rng)
            rm = frame_riemann(metric, x)
            assert_allclose(rm, -np.swapaxes(rm, 0, 1), atol=1e-8)
            assert_allclose(rm, -np.swapaxes(rm, 2, 3), atol=1e-8)
            assert_allclose(rm, np.transpose(rm, (2, 3, 0, 1)), atol=1e-8)

    def test_constant_curvature_model(self):
        # Rm = K (delta_ac delta_bd - delta_ad delta_bc) for the space forms,
        # in the packet's orthonormal frame
        rng = np.random.default_rng(17)
        cases = [
            (EuclideanMetric(), 0.0),
            (RoundSphereMetric(), 1.0),
            (HyperbolicMetric(), -1.0),
        ]
        eye = np.eye(3)
        for metric, K in cases:
            x = sample_point(metric, rng)
            rm = frame_riemann(metric, x)
            model = K * (
                np.einsum("ac,bd->abcd", eye, eye) - np.einsum("ad,bc->abcd", eye, eye)
            )
            assert_allclose(rm, model, atol=1e-7)

    def test_contracted_bianchi(self):
        # div Ric = grad Sc / 2 in frame components; on the polynomial kind
        # this checks the jet gradient against an independent route
        rng = np.random.default_rng(23)
        for metric in all_builtin_metrics() + [PolynomialMetric(POLY_TERMS)]:
            for _ in range(20):
                x = sample_point(metric, rng)
                g = metric_at(metric, x)
                g_inv = np.linalg.inv(g)
                gamma = christoffel_at(metric, x)
                # fourth-order central difference of Ric, d_ric[c] = d_c Ric
                h = np.finfo(float).eps ** 0.2 * max(1.0, np.linalg.norm(x))
                offsets = np.einsum("s,cd->scd", [h, -h, 0.5 * h, -0.5 * h], np.eye(3))
                r1, m1, r2, m2 = ricci_at(metric, x + offsets)
                d_ric = (8.0 * (r2 - m2) - (r1 - m1)) / (6.0 * h)
                ric = ricci_at(metric, x)
                cov = (
                    d_ric
                    - np.einsum("dab,dc->abc", gamma, ric)
                    - np.einsum("dac,bd->abc", gamma, ric)
                )
                div_ric = np.einsum("ab,abc->c", g_inv, cov)
                grad_sc = metric.scalar_derivatives(x)[0]
                assert np.max(np.abs(div_ric - 0.5 * grad_sc)) < 1e-6


class TestConfig:
    def test_round_trip(self):
        specs = [
            {"kind": "euclidean"},
            {"kind": "round_sphere", "radius": 2.0},
            {"kind": "hyperbolic", "radius": 1.5},
            {"kind": "schwarzschild", "mass": 1.0, "horizon_margin": 0.05},
            {"kind": "conformal", "phi_poly": [[0.05, [2, 0, 0]]]},
            {
                "kind": "polynomial_perturbation",
                "terms": [[0, 0, 0.02, [2, 0, 0]]],
            },
        ]
        for spec in specs:
            metric = metric_from_config(spec)
            back = {"kind": metric.kind, **metric.params()}
            metric2 = metric_from_config(back)
            x = np.array([0.1, 0.2, 0.1]) if metric.kind != "schwarzschild" else np.array([4.0, 0.0, 0.0])
            assert_allclose(metric.metric(x), metric2.metric(x), rtol=1e-15)

    def test_unknown_keys_rejected(self):
        from hawking_lab.errors import ConfigError

        with pytest.raises(ConfigError):
            metric_from_config({"kind": "euclidean", "extra": 1})
        with pytest.raises(ConfigError):
            metric_from_config({"kind": "nope"})


@pytest.mark.parametrize("r_p", [4.0, 2.5, 10.44, 2.1 + 1e-3, 2.1 * (1.0 + 1e-9)])
def test_schwarzschild_injectivity_bound_against_quadrature(r_p):
    # 0.98 of the proper radial distance down to the guard sphere r = 2.1;
    # measured at most 1.4e-15 relative
    from scipy.integrate import quad

    metric = SchwarzschildMetric(mass=1.0)
    dist, _ = quad(lambda r: 1.0 / np.sqrt(1.0 - 2.0 / r), 2.1, r_p, epsabs=0.0, epsrel=1e-13)
    bound = metric.injectivity_bound(np.array([0.0, r_p, 0.0]))
    assert abs(bound / (0.98 * dist) - 1.0) <= 1e-12
