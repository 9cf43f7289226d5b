import dataclasses

import numpy as np
import pytest

from hawking_lab.errors import BandLimitExceeded, DomainError
from hawking_lab.expansion import predicted_coefficients
from hawking_lab.geodesics import (
    GeodesicConfig,
    GeodesicFan,
    sphere_fan,
    surface_tangents,
)
from hawking_lab.harmonics import willmore_el_residual
from hawking_lab.manifold import (
    ConformalMetric,
    EuclideanMetric,
    HyperbolicMetric,
    PolynomialMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    _dot3,
    curvature_packet,
    metric_action,
)
from hawking_lab.optimizer import (
    OptimizeConfig,
    _SurfaceEvaluator,
    _normal_speed,
    closed_form_reference,
    maximize_hawking,
    optimizer_fan,
)
from hawking_lab.surface import build_grid, extrinsic_geometry


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


class TestGridFloor:
    def test_flat_reference_mass_is_floor_free(self, grid):
        fan = optimizer_fan(EuclideanMetric(), np.zeros(3), 0.05, grid)
        area, mass, _ = closed_form_reference(fan, 0.05)
        assert area == pytest.approx(4.0 * np.pi * 0.05**2, rel=1e-13)
        assert abs(mass) < 1e-15

    def test_schwarzschild_reference_matches_expansion(self, grid):
        metric, p, rho = SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0]), 0.05
        _, mass, _ = closed_form_reference(optimizer_fan(metric, p, rho, grid), rho)
        pred = predicted_coefficients(curvature_packet(metric, p), "optimal")
        expected = pred.c3 * rho**3 + pred.c5 * rho**5
        assert abs(mass - expected) <= 0.02 * abs(expected)

    def test_flat_optimizer_masses_are_floor_free(self, grid):
        cfg = OptimizeConfig(max_degree=2, max_iters=1)
        target = 4.0 * np.pi * 0.05**2
        fan = optimizer_fan(EuclideanMetric(), np.zeros(3), 0.05, grid)
        result = maximize_hawking(fan, target, cfg)
        assert abs(result.m_H_star) < 1e-14
        assert abs(result.area - target) <= 1e-9 * target


def central_difference_gradient(ev, coeffs, rho, target_area, h=1e-6):
    """Reference gradient of the area-constrained mass: two area solves and
    surfaces per coefficient."""
    grad = np.empty(ev.n_coeff)
    for k in range(ev.n_coeff):
        probe = coeffs.copy()
        probe[k] = coeffs[k] + h
        up = ev.constrained_mass(ev.w_values(probe), rho, target_area)[0]
        probe[k] = coeffs[k] - h
        dn = ev.constrained_mass(ev.w_values(probe), rho, target_area)[0]
        grad[k] = (up - dn) / (2.0 * h)
    return grad


def evaluator_at(metric, p, rho, grid, K=0):
    fan = optimizer_fan(metric, np.asarray(p, dtype=float), 1.05 * rho, grid, GeodesicConfig())
    return _SurfaceEvaluator(fan, OptimizeConfig(max_degree=4), K)


class TestMassGradient:
    @pytest.mark.parametrize(
        "metric, p, K",
        [
            (SchwarzschildMetric(1.0), [4.0, 0.0, 0.0], 0),
            (
                ConformalMetric([(0.1, (2, 0, 0)), (-0.05, (0, 1, 1))]),
                [0.1, 0.0, 0.0],
                0,
            ),
            (RoundSphereMetric(), [0.0, 0.0, 0.0], 1),
            (HyperbolicMetric(), [0.0, 0.0, 0.0], -1),
        ],
        ids=["schwarzschild", "conformal", "sphere_K+1", "hyperbolic_K-1"],
    )
    def test_matches_central_differences(self, grid, metric, p, K):
        rho0 = 0.2
        ev = evaluator_at(metric, p, rho0, grid, K)
        target = 4.0 * np.pi * rho0**2
        coeffs = 1e-3 * np.random.default_rng(0).standard_normal(ev.n_coeff)
        w = ev.w_values(coeffs)
        _, rho, surf = ev.constrained_mass(w, rho0, target)
        grad, _ = ev.mass_gradient(w, rho, surf)
        reference = central_difference_gradient(ev, coeffs, rho, target)
        # measured 8e-8 to 2.1e-5 relative on the metric kinds here
        assert np.linalg.norm(grad - reference) <= 1e-3 * np.linalg.norm(reference)

    @pytest.mark.parametrize(
        "metric", [EuclideanMetric(), RoundSphereMetric()], ids=["flat", "sphere"]
    )
    def test_vanishes_at_round_sphere(self, grid, metric):
        # geodesic spheres of space forms are critical; central differences
        # read about 7e-12 here, the mass's rounding over the step
        rho0 = 0.05
        ev = evaluator_at(metric, np.zeros(3), rho0, grid)
        w = ev.w_values(np.zeros(ev.n_coeff))
        _, rho, surf = ev.constrained_mass(w, rho0, 4.0 * np.pi * rho0**2)
        assert np.linalg.norm(ev.mass_gradient(w, rho, surf)[0]) <= 1e-11


class TestNormalSpeed:
    @pytest.mark.parametrize(
        "metric, p",
        [
            (EuclideanMetric(), [0.0, 0.0, 0.0]),
            (RoundSphereMetric(), [0.1, 0.05, -0.03]),
            (HyperbolicMetric(), [0.1, 0.05, -0.03]),
            (SchwarzschildMetric(1.0), [4.0, 0.0, 0.0]),
            (ConformalMetric([(0.1, (2, 0, 0)), (-0.05, (0, 1, 1))]), [0.1, 0.0, 0.0]),
            (
                PolynomialMetric([(0, 0, 0.02, (2, 0, 0)), (0, 1, 0.015, (1, 1, 0))]),
                [0.1, 0.0, 0.0],
            ),
        ],
        ids=[
            "euclidean", "round_sphere", "hyperbolic", "schwarzschild", "conformal", "polynomial"
        ],
    )
    @pytest.mark.parametrize("rho", [0.05, 0.4])
    def test_matches_the_metric_action(self, metric, p, rho):
        # g(gamma', N) from Z_1 x Z_2 alone against g N read from the
        # metric: measured at most 7.8e-16 relative here
        grid = build_grid(16, 32)
        w = 0.05 * (grid.unit[:, 0] ** 2 - grid.unit[:, 2]) + 0.02 * grid.unit[:, 1]
        surf = sphere_fan(metric, p, rho, w, grid).surface(rho, w)
        ref = _dot3(surf.outward, metric_action(metric, surf.positions).apply(surf.normal))
        assert np.max(np.abs(_normal_speed(surf) - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestAreaSolve:
    @pytest.mark.parametrize(
        "metric, p",
        [
            (SchwarzschildMetric(1.0), [4.0, 0.0, 0.0]),
            (ConformalMetric([(0.1, (2, 0, 0)), (-0.05, (0, 1, 1))]), [0.1, 0.0, 0.0]),
        ],
        ids=["schwarzschild", "conformal"],
    )
    def test_area_matches_the_surface_read_from_the_fan(self, grid, metric, p):
        # the area solve's first-form-only area is the surface's own area
        ev = evaluator_at(metric, p, 0.2, grid)
        w = ev.w_values(1e-2 * np.random.default_rng(1).standard_normal(ev.n_coeff))
        assert np.max(np.abs(w)) > 1e-3
        area, _ = ev.area_of(0.2, w)
        assert area == pytest.approx(ev.fan.surface(0.2, w).area, rel=1e-14, abs=0.0)


class TestOptimalGraph:
    def test_maximiser_matches_the_optimal_graph(self, grid):
        # the paper's optimal graph rho^2 wbar is the maximiser to leading
        # order: their degree-2 coefficients differ at relative order rho^2,
        # and the rest is degree-3 content of order rho^3 from the gradient
        # of Ric
        metric, p = SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0])
        degree_2 = slice(4, 9)
        errors = []
        for rho in (0.2, 0.1):
            fan = optimizer_fan(metric, p, rho, grid)
            area, _, graph = closed_form_reference(fan, rho)
            result = maximize_hawking(fan, area, OptimizeConfig())
            assert result.converged
            want = graph.coeffs[degree_2]
            got = result.w_star.coeffs[degree_2]
            errors.append(np.linalg.norm(got - want) / np.linalg.norm(want))
        # measured 2.4e-4 and 6.1e-5
        assert errors[1] <= 1e-4
        assert errors[0] >= 3.5 * errors[1]


class TestOneSurfacePerIterate:
    @pytest.mark.parametrize(
        "metric, p",
        [
            (SchwarzschildMetric(1.0), [4.0, 0.0, 0.0]),
            (ConformalMetric([(0.1, (2, 0, 0)), (-0.05, (0, 1, 1))]), [0.1, 0.0, 0.0]),
        ],
        ids=["schwarzschild", "conformal"],
    )
    def test_handed_over_surface_is_the_fans(self, grid, metric, p):
        # the area solve's accepted read, completed, is the fan's surface
        ev = evaluator_at(metric, p, 0.2, grid)
        w = ev.w_values(1e-2 * np.random.default_rng(2).standard_normal(ev.n_coeff))
        _, rho, surf = ev.constrained_mass(w, 0.19, 4.0 * np.pi * 0.2**2)
        ref = ev.fan.surface(rho, w)
        for field in dataclasses.fields(surf):
            if field.name != "grid":
                got, want = getattr(surf, field.name), getattr(ref, field.name)
                assert got.tobytes() == want.tobytes(), field.name

    @pytest.mark.parametrize("max_iters", [1, 500], ids=["budget", "converged"])
    def test_el_residual_norm_is_the_returned_surfaces(self, grid, max_iters):
        # the residual reuses the densities of the returned surface's gradient
        metric, p, rho = SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0]), 0.2
        fan = optimizer_fan(metric, p, rho, grid)
        area, _, _ = closed_form_reference(fan, rho)
        cfg = OptimizeConfig(max_iters=max_iters)
        result = maximize_hawking(fan, area, cfg)
        assert result.converged == (max_iters > 1)
        res = willmore_el_residual(result.surface, metric)
        assert result.el_residual_norm == float(np.sqrt(result.surface.integrate(res**2)))


class TestFanInputs:
    """The fan is the search's only geometry: its grid bounds the shape's
    band limit and its reach bounds the radius."""

    @pytest.fixture(scope="class")
    def fan(self):
        grid = build_grid(16, 32)
        return optimizer_fan(SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0]), 0.2, grid)

    def test_max_degree_above_the_band_limit(self, fan):
        # 16x32 resolves degrees up to min(16 - 2, 32 // 2 - 1) = 14
        assert _SurfaceEvaluator(fan, OptimizeConfig(max_degree=14)).n_coeff == 221
        with pytest.raises(BandLimitExceeded, match="optimizer.max_degree 15"):
            maximize_hawking(fan, 4.0 * np.pi * 0.2**2, OptimizeConfig(max_degree=15))

    def test_radius_beyond_the_fan(self, fan):
        rho = 2.0 * fan.s_max
        with pytest.raises(DomainError):
            closed_form_reference(fan, rho)
        with pytest.raises(DomainError):
            maximize_hawking(fan, 4.0 * np.pi * rho**2, OptimizeConfig(max_iters=1))

    def test_area_beyond_the_fan_stops_at_the_first_capped_read(self, grid, monkeypatch):
        # the solve starts at the round radius 1.5 s_max, clamps it to the
        # fan's reach and raises on that read, naming s_max and the target
        fan = optimizer_fan(SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0]), 0.05, grid)
        reads = []
        area_of = _SurfaceEvaluator.area_of

        def counted(ev, rho, w):
            reads.append(rho)
            return area_of(ev, rho, w)

        monkeypatch.setattr(_SurfaceEvaluator, "area_of", counted)
        target = 4.0 * np.pi * (1.5 * fan.s_max) ** 2
        with pytest.raises(DomainError, match=f"target area {target:.6g} .* s_max"):
            maximize_hawking(fan, target)
        assert len(reads) == 1


class _NoAssembly:
    """A metric whose assembled g and dg raise, so only its closed forms
    (``acceleration``, ``action``, ``ricci_along``) get through."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def metric(self, x):
        raise AssertionError("g assembled")

    def metric_deriv(self, x):
        raise AssertionError("dg assembled")


class TestNoAssembly:
    @pytest.mark.parametrize(
        "metric, p",
        [
            (ConformalMetric([(0.1, (2, 0, 0)), (-0.05, (0, 1, 1))]), [0.1, 0.0, 0.0]),
            (RoundSphereMetric(), [0.1, 0.05, -0.03]),
            (HyperbolicMetric(), [0.1, 0.05, -0.03]),
            (SchwarzschildMetric(1.0), [4.0, 0.0, 0.0]),
        ],
        ids=["conformal", "round_sphere", "hyperbolic", "schwarzschild"],
    )
    def test_closed_form_kinds(self, metric, p):
        # fan, surface, area solve, mass gradient and speed drift
        grid = build_grid(16, 32)
        p = np.asarray(p, dtype=float)
        proxy = _NoAssembly(metric)
        packet = curvature_packet(metric, p)
        fan = GeodesicFan(proxy, p, grid, 0.3, GeodesicConfig(), packet=packet)
        cfg = OptimizeConfig(max_degree=3)
        ev = _SurfaceEvaluator(fan, cfg)
        coeffs = 1e-2 * np.random.default_rng(3).standard_normal(ev.n_coeff)
        w = ev.w_values(coeffs)
        fan.surface(0.2, w)
        _, rho, surf = ev.constrained_mass(w, 0.2, 4.0 * np.pi * 0.2**2)
        assert np.all(np.isfinite(ev.mass_gradient(w, rho, surf)[0]))
        assert fan.speed_drift < 1e-8

    def test_euclidean_surface(self):
        grid = build_grid(16, 32)
        positions = 0.3 * grid.unit
        tangents = surface_tangents(positions, grid)
        surf = extrinsic_geometry(_NoAssembly(EuclideanMetric()), grid, positions, tangents, grid.unit)
        assert np.max(np.abs(surf.mean_curvature - 2.0 / 0.3)) <= 1e-10
