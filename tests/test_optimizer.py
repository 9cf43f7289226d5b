import numpy as np
import pytest

from hawking_lab.expansion import predicted_coefficients
from hawking_lab.geodesics import GeodesicConfig
from hawking_lab.manifold import (
    ConformalMetric,
    EuclideanMetric,
    HyperbolicMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    curvature_packet,
)
from hawking_lab.optimizer import (
    OptimizeConfig,
    _SurfaceEvaluator,
    closed_form_reference,
    maximize_hawking,
)
from hawking_lab.surface import build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


class TestGridFloor:
    def test_flat_reference_mass_is_floor_free(self, grid):
        area, mass, _ = closed_form_reference(EuclideanMetric(), np.zeros(3), 0.05, grid)
        assert area == pytest.approx(4.0 * np.pi * 0.05**2, rel=1e-13)
        assert abs(mass) < 1e-15

    def test_schwarzschild_reference_matches_expansion(self, grid):
        metric, p, rho = SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0]), 0.05
        _, mass, _ = closed_form_reference(metric, p, rho, grid)
        pred = predicted_coefficients(curvature_packet(metric, p), "optimal")
        expected = pred.c3 * rho**3 + pred.c5 * rho**5
        assert abs(mass - expected) <= 0.02 * abs(expected)

    def test_flat_optimizer_masses_are_floor_free(self, grid):
        cfg = OptimizeConfig(max_degree=2, max_iters=1)
        target = 4.0 * np.pi * 0.05**2
        result = maximize_hawking(EuclideanMetric(), np.zeros(3), target, cfg, grid)
        assert abs(result.m_H_star) < 1e-14
        assert abs(result.area - target) <= 1e-9 * target


def central_difference_gradient(ev, coeffs, rho, target_area, h=1e-6):
    """Reference gradient of the area-constrained mass: two area solves and
    surfaces per coefficient."""
    grad = np.empty(ev.n_coeff)
    for k in range(ev.n_coeff):
        probe = coeffs.copy()
        probe[k] = coeffs[k] + h
        up = ev.constrained_mass(probe, rho, target_area)[0]
        probe[k] = coeffs[k] - h
        dn = ev.constrained_mass(probe, rho, target_area)[0]
        grad[k] = (up - dn) / (2.0 * h)
    return grad


def evaluator_at(metric, p, rho, grid, K=0):
    cfg = OptimizeConfig(max_degree=4)
    p = np.asarray(p, dtype=float)
    return _SurfaceEvaluator(metric, p, grid, 1.05 * rho, cfg, GeodesicConfig(), K)


class TestMassGradient:
    @pytest.mark.parametrize(
        "metric, p, K",
        [
            (SchwarzschildMetric(1.0), [4.0, 0.0, 0.0], 0),
            (
                ConformalMetric.from_polynomial([(0.1, (2, 0, 0)), (-0.05, (0, 1, 1))]),
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
        _, rho, surf = ev.constrained_mass(coeffs, rho0, target)
        grad = ev.mass_gradient(coeffs, rho, surf)
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
        coeffs = np.zeros(ev.n_coeff)
        _, rho, surf = ev.constrained_mass(coeffs, rho0, 4.0 * np.pi * rho0**2)
        assert np.linalg.norm(ev.mass_gradient(coeffs, rho, surf)) <= 1e-11


class TestAreaSolve:
    @pytest.mark.parametrize(
        "metric, p",
        [
            (SchwarzschildMetric(1.0), [4.0, 0.0, 0.0]),
            (ConformalMetric.from_polynomial([(0.1, (2, 0, 0)), (-0.05, (0, 1, 1))]), [0.1, 0.0, 0.0]),
        ],
        ids=["schwarzschild", "conformal"],
    )
    def test_area_matches_the_surface_read_from_the_fan(self, grid, metric, p):
        # the area solve's first-form-only area is the surface's own area
        ev = evaluator_at(metric, p, 0.2, grid)
        w = ev.w_values(1e-2 * np.random.default_rng(1).standard_normal(ev.n_coeff))
        assert np.max(np.abs(w)) > 1e-3
        area = ev.area_of(0.2, w)
        assert area == pytest.approx(ev.fan.surface(0.2, w).area, rel=1e-14, abs=0.0)
