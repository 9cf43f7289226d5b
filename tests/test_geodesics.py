import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawking_lab.errors import DomainError, DomainExit, PerturbationTooLarge, StepLimit
from hawking_lab.geodesics import (
    GeodesicConfig,
    GeodesicFan,
    embed_sphere,
    exp_map,
    geodesic_sphere_surface,
    sphere_fan,
    surface_tangents,
)
from hawking_lab.manifold import (
    EuclideanMetric,
    HyperbolicMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    curvature_packet,
    metric_at,
)
from hawking_lab.surface import build_grid

import oracles


@pytest.fixture(scope="module")
def grid():
    return build_grid(24, 48)


@pytest.fixture(scope="module")
def cfg():
    return GeodesicConfig()


class TestExpMap:
    def test_flat_straight_lines(self, cfg):
        p = np.zeros(3)
        v = np.array([1.0, 2.0, 3.0])
        assert_allclose(exp_map(EuclideanMetric(), p, v, cfg), v, atol=1e-12)

    def test_zero_vector_exact(self, cfg):
        p = np.array([0.3, -0.2, 0.5])
        out = exp_map(EuclideanMetric(), p, np.zeros(3), cfg)
        assert np.array_equal(out, p)

    def test_hyperbolic_preserves_radial_distance(self, cfg):
        metric = HyperbolicMetric()
        rng = np.random.default_rng(2)
        for _ in range(3):
            p = rng.uniform(-0.2, 0.2, size=3)
            v = rng.normal(size=3)
            v *= 0.4 / np.sqrt(v @ metric_at(metric, p) @ v)
            q = exp_map(metric, p, v, cfg)
            assert abs(oracles.hyperbolic_distance(p, q) - 0.4) < 1e-8

    def test_schwarzschild_radial_against_proper_distance(self, cfg):
        metric = SchwarzschildMetric(mass=1.0)
        p = np.array([4.0, 0.0, 0.0])
        g = metric_at(metric, p)
        v = np.array([1.0, 0.0, 0.0])
        v = 0.5 * v / np.sqrt(v @ g @ v)
        q = exp_map(metric, p, v, cfg)
        r_oracle = oracles.schwarzschild_radial_endpoint(4.0, 0.5, mass=1.0)
        assert abs(np.linalg.norm(q) - r_oracle) < 1e-9
        assert abs(q[1]) < 1e-12 and abs(q[2]) < 1e-12

    def test_scaling_consistency(self, cfg):
        metric = RoundSphereMetric()
        p = np.array([0.1, 0.2, -0.1])
        v = np.array([0.3, -0.1, 0.2])
        full = exp_map(metric, p, 0.5 * v, cfg)
        scaled = exp_map(metric, p, 0.5 * v / 1.0, cfg)
        assert_allclose(full, scaled, atol=1e-12)
        # half vector twice along the same ray
        mid = exp_map(metric, p, 0.25 * v, cfg)
        d_total = oracles.s3_distance(p, full)
        d_mid = oracles.s3_distance(p, mid)
        assert abs(d_total - 2.0 * d_mid) < 1e-9

    def test_domain_exit(self, cfg):
        metric = HyperbolicMetric()
        with pytest.raises(DomainExit):
            exp_map(metric, np.array([0.9, 0.0, 0.0]), np.array([8.0, 0.0, 0.0]), cfg)

    def test_step_limit(self):
        metric = RoundSphereMetric()
        tight = GeodesicConfig(rel_tol=1e-13, abs_tol=1e-13, max_steps=100)
        with pytest.raises(StepLimit):
            exp_map(metric, np.zeros(3), np.array([200.0, 0.0, 0.0]), tight)

    def test_energy_conservation(self, grid):
        # g(x', x') stays at its initial value along every fan geodesic
        cfg = GeodesicConfig()
        for metric, p, s in [
            (SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0]), 1.0),
            (RoundSphereMetric(), np.array([0.2, 0.0, 0.1]), 0.8),
        ]:
            fan = GeodesicFan(metric, p, grid, s, cfg)
            for k in (3, fan._nodes.size // 2, fan._nodes.size - 1):
                x = fan._positions[k]
                v = fan._velocities[k]
                g = metric_at(metric, x)
                energy = np.einsum("na,nab,nb->n", v, g, v)
                assert np.max(np.abs(energy - 1.0)) < 1e-8


class TestEmbedSphere:
    def test_flat_unperturbed_exact(self, grid, cfg):
        p = np.array([0.5, -0.2, 0.1])
        pos = embed_sphere(EuclideanMetric(), p, 0.7, None, grid, cfg)
        assert_allclose(pos, p + 0.7 * grid.unit, atol=1e-11)

    def test_flat_constant_perturbation(self, grid, cfg):
        pos = embed_sphere(EuclideanMetric(), np.zeros(3), 1.0, 0.1, grid, cfg)
        radii = np.linalg.norm(pos, axis=1)
        assert_allclose(radii, 0.9, atol=1e-11)

    def test_round_sphere_geodesic_distance(self, grid, cfg):
        metric = RoundSphereMetric()
        p = np.array([0.1, -0.05, 0.2])
        pos = embed_sphere(metric, p, 0.3, None, grid, cfg)
        dists = oracles.s3_distance(np.broadcast_to(p, pos.shape), pos)
        assert np.max(np.abs(dists - 0.3)) < 1e-9

    def test_perturbation_too_large(self, grid, cfg):
        with pytest.raises(PerturbationTooLarge):
            embed_sphere(EuclideanMetric(), np.zeros(3), 1.0, 1.0, grid, cfg)

    def test_injectivity_bound_enforced(self, grid, cfg):
        metric = RoundSphereMetric()
        with pytest.raises(DomainError):
            embed_sphere(metric, np.zeros(3), 2.0, None, grid, cfg)

    def test_callable_and_array_w(self, grid, cfg):
        w_arr = 0.05 * (grid.unit[:, 0] ** 2 - grid.unit[:, 1] ** 2)
        pos1 = embed_sphere(EuclideanMetric(), np.zeros(3), 0.5, w_arr, grid, cfg)
        pos2 = embed_sphere(
            EuclideanMetric(),
            np.zeros(3),
            0.5,
            lambda g: 0.05 * (g.unit[:, 0] ** 2 - g.unit[:, 1] ** 2),
            grid,
            cfg,
        )
        assert np.array_equal(pos1, pos2)


class TestSurfaceTangents:
    def test_flat_round_sphere_tangents(self, grid, cfg):
        pos = embed_sphere(EuclideanMetric(), np.zeros(3), 0.8, None, grid, cfg)
        tan = surface_tangents(pos, grid)
        assert_allclose(tan[:, 0], 0.8 * grid.theta_tangent, atol=1e-9)
        assert_allclose(tan[:, 1], 0.8 * grid.phi_tangent, atol=1e-9)

    def test_gauss_lemma_orthogonality(self, grid, cfg):
        # tangents orthogonal to the radial direction on a flat sphere
        pos = embed_sphere(EuclideanMetric(), np.zeros(3), 0.6, None, grid, cfg)
        tan = surface_tangents(pos, grid)
        radial = pos / np.linalg.norm(pos, axis=1)[:, None]
        assert np.max(np.abs(np.einsum("nia,na->ni", tan, radial))) < 1e-9

    def test_gauss_lemma_on_schwarzschild(self):
        # Z_i is g-orthogonal to the radial geodesic on every grid; the
        # integrator tolerance, not the angular derivatives, sets the floor
        cfg = GeodesicConfig(rel_tol=1e-12, abs_tol=1e-14)
        metric = SchwarzschildMetric(1.0)
        p = np.array([4.0, 0.0, 0.0])
        for n in (16, 24, 32):
            g = build_grid(n, 2 * n)
            fan = sphere_fan(metric, p, 1.0, None, g, cfg)
            s = np.ones(g.n_nodes)
            pos, vel = fan.positions_at(s), fan.velocities_at(s)
            tan = surface_tangents(pos, g)
            gz = np.einsum("nia,nab,nb->ni", tan, metric_at(metric, pos), vel)
            assert np.max(np.abs(gz)) <= 1e-11, n


class TestGeodesicFan:
    def test_interpolation_matches_direct_integration(self, grid):
        cfg = GeodesicConfig(rel_tol=1e-12, abs_tol=1e-14)
        metric = SchwarzschildMetric(1.0)
        p = np.array([4.0, 0.0, 0.0])
        packet = curvature_packet(metric, p)
        fan = GeodesicFan(metric, p, grid, 1.0, cfg, packet=packet)
        s = np.full(grid.n_nodes, 0.7321)
        pos = fan.positions_at(s)
        # spot-check one node against a standalone exp_map call
        k = 5 * grid.n_phi + 7
        direction = grid.unit[k] @ packet.frame
        direct = exp_map(metric, p, 0.7321 * direction, cfg)
        assert_allclose(pos[k], direct, atol=1e-10)

    def test_endpoint_exact(self, grid, cfg):
        fan = GeodesicFan(EuclideanMetric(), np.zeros(3), grid, 1.0, cfg)
        pos = fan.positions_at(np.zeros(grid.n_nodes))
        assert np.max(np.abs(pos)) < 1e-13

    def test_flat_fan_diagnostics(self, grid, cfg):
        fan = GeodesicFan(EuclideanMetric(), np.array([0.2, 0.0, -0.1]), grid, 0.8, cfg)
        diag = fan.diagnostics()
        assert diag["rhs_evals"] > 0
        assert diag["speed_drift"] <= 1e-12

    def test_deterministic_rebuild(self, grid, cfg):
        metric = RoundSphereMetric()
        p = np.array([0.1, 0.0, 0.0])
        f1 = GeodesicFan(metric, p, grid, 0.5, cfg)
        f2 = GeodesicFan(metric, p, grid, 0.5, cfg)
        assert np.array_equal(f1._positions, f2._positions)


class TestSpherePipeline:
    def test_flat_mean_curvature(self, grid, cfg):
        surf = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), 0.5, None, grid, cfg
        )
        assert np.max(np.abs(surf.mean_curvature - 4.0)) < 1e-8

    def test_normal_invariants(self, grid, cfg):
        metric = SchwarzschildMetric(1.0)
        surf = geodesic_sphere_surface(
            metric, np.array([4.0, 0.0, 0.0]), 0.8, None, grid, cfg
        )
        g = metric_at(metric, surf.positions)
        nn = np.einsum("na,nab,nb->n", surf.normal, g, surf.normal)
        assert np.max(np.abs(nn - 1.0)) < 1e-12
        nz = np.einsum("na,nab,nib->ni", surf.normal, g, surf.tangents)
        assert np.max(np.abs(nz)) < 1e-9
