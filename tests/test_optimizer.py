import numpy as np
import pytest

from hawking_lab.expansion import grid_floor, predicted_coefficients
from hawking_lab.manifold import EuclideanMetric, SchwarzschildMetric, curvature_packet
from hawking_lab.optimizer import OptimizeConfig, closed_form_reference, maximize_hawking
from hawking_lab.surface import build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


class TestGridFloor:
    def test_flat_reference_mass_is_floor_free(self, grid):
        area, mass, _ = closed_form_reference(EuclideanMetric(), np.zeros(3), 0.05, grid)
        floor_w, floor_a = grid_floor(grid, 8)
        # the target is the raw area, which carries the area floor
        assert area == pytest.approx(4.0 * np.pi * 0.05**2 * (1.0 + floor_a), rel=1e-13)
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
