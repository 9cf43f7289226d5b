import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawking_lab.errors import ConditioningError, DomainError
from hawking_lab.manifold import (
    ConformalMetric,
    EuclideanMetric,
    HyperbolicMetric,
    PolynomialMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    christoffel_at,
    curvature_packet,
    geodesic_acceleration,
    metric_at,
    metric_from_config,
    metric_to_config,
    ricci_at,
    riemann_at,
    scalar_curvature_at,
    scalar_gradient,
    scalar_laplacian,
)

import oracles

POLY_TERMS = [
    (0, 0, 0.02, (2, 0, 0)),
    (0, 1, 0.015, (1, 1, 0)),
    (1, 1, -0.01, (0, 2, 1)),
    (2, 2, 0.008, (1, 0, 2)),
    (0, 2, 0.012, (0, 3, 0)),
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
        metric = ConformalMetric.from_polynomial(
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
            ConformalMetric.from_polynomial([(0.05, (2, 0, 0)), (-0.03, (0, 1, 1))]),
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
        ConformalMetric.from_polynomial([(0.05, (2, 0, 0)), (-0.03, (0, 1, 1))]),
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

        metric = ConformalMetric.from_polynomial(
            [(0.05, (2, 0, 0)), (-0.03, (0, 1, 1)), (0.02, (1, 1, 2))]
        )
        oracle = oracles.conformal_symbolic(
            lambda x1, x2, x3: sp.Rational(1, 20) * x1**2
            - sp.Rational(3, 100) * x2 * x3
            + sp.Rational(1, 50) * x1 * x2 * x3**2
        )
        points = np.random.default_rng(31).uniform(-0.5, 0.5, size=(6, 3))
        self._check(metric, oracle, points)


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

        metric = ConformalMetric.from_polynomial([(0.05, (2, 0, 0))])
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
        rng = np.random.default_rng(9)
        for metric in all_builtin_metrics():
            x = sample_point(metric, rng)
            packet = curvature_packet(metric, x)
            g = metric_at(metric, x)
            gram = packet.frame @ g @ packet.frame.T
            assert_allclose(gram, np.eye(3), atol=1e-12)


class TestScalarLaplacian:
    def test_flat_zero(self):
        assert abs(scalar_laplacian(EuclideanMetric(), np.array([1.0, 0.0, 0.0]))) < 1e-10

    def test_constant_curvature_zero(self):
        assert abs(scalar_laplacian(HyperbolicMetric(), np.array([0.2, 0.1, 0.0]))) < 1e-8
        assert abs(scalar_laplacian(RoundSphereMetric(), np.array([0.1, -0.3, 0.2]))) < 1e-8

    def test_conformal_against_symbolic(self):
        import sympy as sp

        metric = ConformalMetric.from_polynomial([(0.05, (2, 0, 0))])
        oracle = oracles.ConformalScalarOracle(
            lambda x1, x2, x3: sp.Rational(1, 20) * x1**2
        )
        point = np.array([0.3, 0.2, -0.1])
        got = scalar_laplacian(metric, point)
        want = oracle.scalar_laplacian(point)
        assert_allclose(got, want, rtol=2e-4, atol=2e-5)

    def test_schwarzschild_zero(self):
        # Sc vanishes identically, so its Laplacian does too
        got = scalar_laplacian(SchwarzschildMetric(mass=1.0), np.array([4.0, 0.0, 0.0]))
        assert abs(got) < 1e-8

    def test_stencil_leaving_domain(self):
        metric = SchwarzschildMetric(mass=1.0)
        point = np.array([2.100001 * 1.0, 0.0, 0.0]) * (1.0 + 1e-7)
        with pytest.raises((ConditioningError, DomainError)):
            scalar_laplacian(metric, point)


class TestTensorSymmetries:
    def test_riemann_symmetries(self):
        rng = np.random.default_rng(13)
        for metric in all_builtin_metrics():
            x = sample_point(metric, rng)
            rm = riemann_at(metric, x)
            assert_allclose(rm, -np.swapaxes(rm, 0, 1), atol=1e-8)
            assert_allclose(rm, -np.swapaxes(rm, 2, 3), atol=1e-8)
            assert_allclose(rm, np.transpose(rm, (2, 3, 0, 1)), atol=1e-8)

    def test_constant_curvature_model(self):
        # Rm = K (g_ac g_bd - g_ad g_bc) for the space forms
        rng = np.random.default_rng(17)
        cases = [
            (EuclideanMetric(), 0.0),
            (RoundSphereMetric(), 1.0),
            (HyperbolicMetric(), -1.0),
        ]
        for metric, K in cases:
            x = sample_point(metric, rng)
            g = metric_at(metric, x)
            rm = riemann_at(metric, x)
            model = K * (
                np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g)
            )
            assert_allclose(rm, model, atol=1e-7)

    def test_contracted_bianchi(self):
        # div Ric = grad Sc / 2 in frame components
        from hawking_lab import _fd

        rng = np.random.default_rng(23)
        for metric in all_builtin_metrics():
            for _ in range(20):
                x = sample_point(metric, rng)
                g = metric_at(metric, x)
                g_inv = np.linalg.inv(g)
                gamma = christoffel_at(metric, x)
                step = np.finfo(float).eps ** 0.2
                d_ric = _fd.diff1_richardson(
                    lambda q: ricci_at(metric, q), x[np.newaxis], step=step
                )[:, 0]
                ric = ricci_at(metric, x)
                cov = (
                    d_ric
                    - np.einsum("dab,dc->abc", gamma, ric)
                    - np.einsum("dac,bd->abc", gamma, ric)
                )
                div_ric = np.einsum("ab,abc->c", g_inv, cov)
                grad_sc = scalar_gradient(metric, x)
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
            back = metric_to_config(metric)
            metric2 = metric_from_config(back)
            x = np.array([0.1, 0.2, 0.1]) if metric.kind != "schwarzschild" else np.array([4.0, 0.0, 0.0])
            assert_allclose(metric.metric(x), metric2.metric(x), rtol=1e-15)

    def test_unknown_keys_rejected(self):
        from hawking_lab.errors import ConfigError

        with pytest.raises(ConfigError):
            metric_from_config({"kind": "euclidean", "extra": 1})
        with pytest.raises(ConfigError):
            metric_from_config({"kind": "nope"})
