import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawking_lab.errors import DegenerateSurface, GridTooCoarse
from hawking_lab.geodesics import (
    GeodesicConfig,
    embed_sphere,
    geodesic_sphere_surface,
    surface_tangents,
)
from hawking_lab.manifold import (
    ConformalMetric,
    EuclideanMetric,
    HyperbolicMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    christoffel_at,
    metric_at,
)
from hawking_lab.surface import (
    build_grid,
    expansion_order_check,
    extrinsic_geometry,
    hawking_mass,
    surface_to_csv,
)

import oracles


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64)


@pytest.fixture(scope="module")
def cfg():
    return GeodesicConfig(rel_tol=1e-12, abs_tol=1e-14)


def coordinate_sphere(metric, r, grid):
    pos = r * grid.unit
    tan = surface_tangents(pos, grid)
    return extrinsic_geometry(metric, grid, pos, tan, outward=grid.unit)


class TestGrid:
    def test_weight_sum(self, grid):
        assert abs(np.sum(grid.weights) - 4.0 * np.pi) < 1e-12 * 4.0 * np.pi

    @pytest.mark.parametrize("n_theta", [16, 32])
    def test_coordinate_moment_identities(self, n_theta):
        g = build_grid(n_theta, 2 * n_theta)
        x, y, z = g.unit.T
        four_pi = 4.0 * np.pi
        for mu in (x, y, z):
            assert abs(g.integrate(mu**2) - four_pi / 3.0) < 1e-12
            assert abs(g.integrate(mu**4) - four_pi / 5.0) < 1e-12
        for a, b in ((x, y), (y, z), (x, z)):
            assert abs(g.integrate(a**2 * b**2) - four_pi / 15.0) < 1e-12
        assert abs(g.integrate(x * y * z)) < 1e-13

    def test_too_coarse_rejected(self):
        with pytest.raises(GridTooCoarse):
            build_grid(4, 64)
        with pytest.raises(GridTooCoarse):
            build_grid(16, 8)
        with pytest.raises(GridTooCoarse):
            build_grid(16, 17)

    def test_derivative_operators(self, grid):
        f = np.sin(grid.theta1) ** 2 * np.cos(2.0 * grid.theta2)
        dt_exact = 2.0 * np.sin(grid.theta1) * np.cos(grid.theta1) * np.cos(2.0 * grid.theta2)
        dp_exact = -2.0 * np.sin(grid.theta1) ** 2 * np.sin(2.0 * grid.theta2)
        assert np.max(np.abs(grid.dtheta(f) - dt_exact)) < 1e-8
        assert np.max(np.abs(grid.dphi(f) - dp_exact)) < 1e-7

    @pytest.mark.parametrize("n_theta", [24, 48])
    def test_derivative_adjoints(self, n_theta):
        # sum f dtheta(u) = sum dtheta_adjoint(f) u and sum f dphi(u) = -sum dphi(f) u
        g = build_grid(n_theta, 2 * n_theta)
        f, u = np.random.default_rng(n_theta).standard_normal((2, g.n_nodes))
        pairs = {
            "theta": (f @ g.dtheta(u), g.dtheta_adjoint(f) @ u),
            "phi": (f @ g.dphi(u), -(g.dphi(f) @ u)),
        }
        for name, (lhs, rhs) in pairs.items():
            assert abs(lhs - rhs) <= 1e-13 * abs(lhs), name

    @pytest.mark.parametrize("n_theta", [24, 48])
    def test_derivatives_exact_on_polynomials(self, n_theta):
        # monomials of the unit vector of degree below n_theta, against the
        # chain rule grad f . Theta_theta and grad f . Theta_phi
        g = build_grid(n_theta, 2 * n_theta)
        rng = np.random.default_rng(n_theta)
        u = g.unit
        for _ in range(40):
            degree = rng.integers(n_theta)
            a = rng.integers(degree + 1)
            b = rng.integers(degree - a + 1)
            e = np.array([a, b, degree - a - b])
            f = np.prod(u**e, axis=1)
            lowered = np.maximum(e - np.eye(3, dtype=int), 0)  # row k: d/du_k
            grad = e * np.prod(u[:, np.newaxis, :] ** lowered, axis=2)
            want_t = np.sum(grad * g.theta_tangent, axis=1)
            want_p = np.sum(grad * g.phi_tangent, axis=1)
            scale = max(np.max(np.abs(want_t)), np.max(np.abs(want_p)), np.max(np.abs(f)))
            assert np.max(np.abs(g.dtheta(f) - want_t)) <= 1e-12 * scale, e
            assert np.max(np.abs(g.dphi(f) - want_p)) <= 1e-12 * scale, e

    @pytest.mark.parametrize("n_theta", [24, 32, 48])
    def test_flat_unit_sphere_willmore_and_area(self, n_theta):
        # no radius-independent floor is left for ladder fits to magnify
        g = build_grid(n_theta, 2 * n_theta)
        tan = surface_tangents(g.unit, g)
        sphere = extrinsic_geometry(EuclideanMetric(), g, g.unit, tan, outward=g.unit)
        assert abs(sphere.willmore_energy - 16.0 * np.pi) <= 1e-12
        assert abs(sphere.area / (4.0 * np.pi) - 1.0) <= 1e-14

    def test_pole_extension_smoothness(self, grid):
        # a field symmetric across the pole differentiates cleanly there
        f = grid.unit[:, 2]  # cos(theta)
        df = grid.dtheta(f)
        assert np.max(np.abs(df + np.sin(grid.theta1))) < 1e-10


class TestExtrinsicGeometry:
    def test_flat_round_sphere_forms(self, grid, cfg):
        rho = 0.75
        surf = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), rho, None, grid, cfg
        )
        assert np.max(np.abs(surf.mean_curvature - 2.0 / rho)) < 1e-8
        assert np.max(np.abs(surf.gauss_product - 1.0 / rho**2)) < 1e-8
        st = grid.sin_theta
        assert np.max(np.abs(surf.first_form[:, 0, 0] - rho**2)) < 1e-8
        assert np.max(np.abs(surf.first_form[:, 1, 1] - rho**2 * st**2)) < 1e-8
        assert np.max(np.abs(surf.first_form[:, 0, 1])) < 1e-8

    def test_schwarzschild_coordinate_sphere(self, grid):
        metric = SchwarzschildMetric(1.0)
        surf = coordinate_sphere(metric, 4.0, grid)
        h_exact = oracles.schwarzschild_sphere_mean_curvature(4.0)
        assert np.max(np.abs(surf.mean_curvature - h_exact)) < 1e-7

    def test_hyperbolic_geodesic_sphere(self, grid, cfg):
        surf = geodesic_sphere_surface(
            HyperbolicMetric(), np.zeros(3), 0.5, None, grid, cfg
        )
        assert np.max(np.abs(surf.mean_curvature - 2.0 / np.tanh(0.5))) < 1e-7

    def test_shape_identities_recompute(self, grid, cfg):
        surf = geodesic_sphere_surface(
            SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0]), 0.6, None, grid, cfg
        )
        h_re = np.einsum(
            "nij,nij->n", np.linalg.inv(surf.first_form), surf.second_form
        )
        d_re = np.linalg.det(surf.second_form) / np.linalg.det(surf.first_form)
        assert np.max(np.abs(h_re - surf.mean_curvature)) < 1e-12
        assert np.max(np.abs(d_re - surf.gauss_product)) < 1e-12

    def test_degenerate_surface_raises(self, grid):
        pos = np.zeros((grid.n_nodes, 3))
        pos[:, 0] = grid.unit[:, 0]  # collapsed to a segment
        tan = surface_tangents(pos, grid)
        with pytest.raises(DegenerateSurface):
            extrinsic_geometry(EuclideanMetric(), grid, pos, tan, outward=grid.unit)

    def test_appendix_normal_formula_cross_check(self, grid, cfg):
        # tilde N = -Theta + a^j Z_j with a^j = -ghat^{ij} w_i rho reproduces
        # the solver normal on a flat perturbed sphere
        rho = 0.8
        w = 0.05 * (grid.unit[:, 0] ** 2 - grid.unit[:, 1] ** 2)
        surf = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), rho, w, grid, cfg
        )
        theta_field = surf.positions / np.linalg.norm(surf.positions, axis=1)[:, None]
        w_i = np.stack([grid.dtheta(w), grid.dphi(w)], axis=-1)
        a = -np.einsum(
            "nij,ni->nj", np.linalg.inv(surf.first_form), w_i
        ) * rho
        n_tilde = -theta_field + np.einsum("nj,nja->na", a, surf.tangents)
        n_tilde /= np.linalg.norm(n_tilde, axis=1)[:, None]
        assert np.max(np.abs(n_tilde - surf.normal)) < 1e-8


def christoffel_second_form(metric, surf):
    """h_ij = -g(D_i N, Z_j), symmetrised, with D_i N from the full Gamma."""
    grid = surf.grid
    g = metric_at(metric, surf.positions)
    gamma = christoffel_at(metric, surf.positions)
    dn = np.stack([grid.dtheta(surf.normal), grid.dphi(surf.normal)], axis=1)
    cov = dn + np.einsum("nsab,nia,nb->nis", gamma, surf.tangents, surf.normal)
    second = -np.einsum("nis,nst,njt->nij", cov, g, surf.tangents)
    return 0.5 * (second + np.swapaxes(second, 1, 2))


class TestSecondFormWithoutChristoffel:
    @pytest.mark.parametrize(
        "metric, p",
        [
            (SchwarzschildMetric(1.0), np.array([4.0, 0.5, -0.3])),
            (
                ConformalMetric.from_polynomial([(0.3, (2, 0, 0)), (-0.2, (0, 1, 1))]),
                np.array([0.1, -0.2, 0.05]),
            ),
        ],
    )
    def test_matches_christoffel_path(self, grid, cfg, metric, p):
        w = 0.05 * (grid.unit[:, 0] ** 2 - grid.unit[:, 2]) + 0.02 * grid.unit[:, 1]
        surf = geodesic_sphere_surface(metric, p, 0.4, w, grid, cfg)
        ref = christoffel_second_form(metric, surf)
        assert np.max(np.abs(surf.second_form - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestHawkingMass:
    def test_flat_round_sphere_zero(self, grid, cfg):
        surf = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), 0.5, None, grid, cfg
        )
        rep = hawking_mass(surf)
        assert abs(rep.hawking) < 1e-10

    @pytest.mark.parametrize("r", [2.5, 4.0, 8.0])
    def test_schwarzschild_coordinate_spheres(self, grid, r):
        surf = coordinate_sphere(SchwarzschildMetric(1.0), r, grid)
        rep = hawking_mass(surf)
        assert abs(rep.hawking - 1.0) < 1e-6
        assert abs(rep.area - 4.0 * np.pi * r**2) < 1e-6 * r**2

    def test_horizon_limit_fixture(self, grid):
        # a reduced guard margin admits the near-horizon sphere r = 2.1
        metric = SchwarzschildMetric(1.0, horizon_margin=0.04)
        surf = coordinate_sphere(metric, 2.1, grid)
        rep = hawking_mass(surf)
        assert abs(rep.hawking - 1.0) < 1e-6

    def test_hyperbolic_generalized_mass_zero(self, grid, cfg):
        for rho in (0.3, 1.0):
            surf = geodesic_sphere_surface(
                HyperbolicMetric(), np.zeros(3), rho, None, grid, cfg
            )
            rep = hawking_mass(surf, K=-1)
            assert abs(rep.generalized) < 1e-8

    def test_report_recompute_invariant(self, grid, cfg):
        surf = geodesic_sphere_surface(
            RoundSphereMetric(), np.zeros(3), 0.4, None, grid, cfg
        )
        for K in (-1, 0, 1):
            rep = hawking_mass(surf, K=K)
            recomputed = np.sqrt(rep.area / (16.0 * np.pi) ** 3) * (
                16.0 * np.pi - rep.willmore - 4.0 * K * rep.area
            )
            assert abs(rep.generalized - recomputed) < 1e-12

    def test_willmore_inequality_flat(self, grid, cfg):
        # small degree-2/3 perturbations can only raise the Willmore energy
        rng = np.random.default_rng(42)
        x, y, z = grid.unit.T
        modes = [x * y, y * z, x * z, x**2 - y**2, 3 * z**2 - 1.0, x * (5 * z**2 - 1)]
        fan = None
        from hawking_lab.geodesics import GeodesicFan

        fan = GeodesicFan(EuclideanMetric(), np.zeros(3), grid, 1.2, cfg)
        for _ in range(10):
            coeffs = rng.normal(size=len(modes))
            w = sum(c * m for c, m in zip(coeffs, modes))
            w *= 0.08 / np.max(np.abs(w))
            surf = fan.surface(1.0, w)
            rep = hawking_mass(surf)
            assert rep.willmore >= 16.0 * np.pi - 1e-8
            assert rep.hawking <= 1e-10

    def test_grid_refinement_stability(self, cfg):
        # doubling the grid moves the mass by less than 1e-8
        cases = []
        for n in (24, 48):
            g = build_grid(n, 2 * n)
            surf = geodesic_sphere_surface(
                HyperbolicMetric(), np.zeros(3), 0.5, None, g, cfg
            )
            cases.append(hawking_mass(surf, K=-1).generalized)
        assert abs(cases[1] - cases[0]) < 1e-8

    def test_invalid_K(self, grid, cfg):
        surf = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), 0.5, None, grid, cfg
        )
        with pytest.raises(ValueError):
            hawking_mass(surf, K=2)


class TestExpansionOrder:
    def test_euclidean_machine_precision(self, grid, cfg):
        radii = 0.4 * 0.5 ** np.arange(5)
        report = expansion_order_check(
            EuclideanMetric(),
            np.zeros(3),
            lambda rho: np.zeros(grid.n_nodes),
            radii,
            grid,
            cfg,
        )
        assert np.all(report.h_residuals < 1e-9)

    def test_round_sphere_order(self, grid, cfg):
        radii = 0.4 * 0.5 ** np.arange(5)
        report = expansion_order_check(
            RoundSphereMetric(),
            np.array([0.1, 0.0, 0.05]),
            lambda rho: np.zeros(grid.n_nodes),
            radii,
            grid,
            cfg,
        )
        assert report.order >= 3.5

    def test_schwarzschild_perturbed_order(self, grid, cfg):
        # fixed w: stay above the cubic-in-w remainder floor, which decays
        # only linearly in rho and would bend the tail of a deep ladder
        x, y = grid.unit[:, 0], grid.unit[:, 1]
        w = 0.01 * (x**2 - y**2)
        radii = 0.8 * 0.7 ** np.arange(5)
        report = expansion_order_check(
            SchwarzschildMetric(1.0),
            np.array([4.0, 0.0, 0.0]),
            lambda rho: w,
            radii,
            grid,
            cfg,
        )
        assert report.order >= 3.5
        assert report.r_squared >= 0.99


class TestCsv:
    def test_surface_csv_deterministic(self, grid, cfg, tmp_path):
        surf = geodesic_sphere_surface(
            RoundSphereMetric(), np.zeros(3), 0.3, None, grid, cfg
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        surface_to_csv(surf, p1)
        surface_to_csv(surf, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "theta1,theta2,x,y,z,H,dA"
