import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hawking_lab import cli, expansion, geodesics, harmonics, manifold, optimizer, surface
from hawking_lab.errors import BandLimitExceeded
from hawking_lab.geodesics import GeodesicConfig, geodesic_sphere_surface
from hawking_lab.harmonics import (
    _legendre_table,
    HarmonicField,
    analyze,
    apply_bilaplacian_shifted,
    expand,
    galerkin_degree,
    mode_degrees,
    mode_index,
    optimal_perturbation,
    pde_residual,
    project,
    ricci_direction_field,
    synthesize,
    willmore_el_residual,
)
from hawking_lab.manifold import (
    ConformalMetric,
    CurvaturePacket,
    EuclideanMetric,
    HyperbolicMetric,
    PolynomialMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    curvature_packet,
)
from hawking_lab.harmonics import lagrange_multiplier_from_surface
from hawking_lab.optimizer import (
    OptimizeConfig,
    closed_form_reference,
    maximize_hawking,
    optimizer_fan,
)
from hawking_lab.surface import build_grid

POLY_TERMS = [
    (0, 0, 0.02, (2, 0, 0)),
    (0, 1, 0.015, (1, 1, 0)),
    (1, 1, -0.01, (0, 2, 1)),
    (2, 2, 0.008, (1, 0, 2)),
]


@pytest.fixture(scope="module")
def grid():
    return build_grid(24, 48)


def make_packet(ricci_diag, scalar=None):
    """Synthetic curvature packet with the identity frame."""
    ric = np.diag(ricci_diag).astype(float)
    sc = float(np.trace(ric)) if scalar is None else scalar
    s = ric - sc / 3.0 * np.eye(3)
    return CurvaturePacket(
        point=np.zeros(3),
        frame=np.eye(3),
        ricci=ric,
        scalar=sc,
        traceless=s,
        traceless_norm_sq=float(np.sum(s * s)),
        scalar_laplacian=0.0,
        scalar_gradient=np.zeros(3),
    )


class TestTransforms:
    def test_constant_field(self, grid):
        hf = analyze(np.ones(grid.n_nodes), grid, 4)
        assert abs(hf.coeffs[0] - np.sqrt(4.0 * np.pi)) < 1e-12
        assert np.max(np.abs(hf.coeffs[1:])) < 1e-12

    def test_quadrupole_is_pure_degree_two(self, grid):
        f = grid.unit[:, 0] ** 2 - grid.unit[:, 1] ** 2
        hf = analyze(f, grid, 6)
        energies = np.bincount(mode_degrees(hf.max_degree), hf.coeffs**2)
        assert energies[2] > 1.0
        others = np.delete(energies, 2)
        assert np.max(others) < 1e-22

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**9))
    def test_round_trip_band_limited(self, seed):
        grid = build_grid(24, 48)
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=36)
        field = HarmonicField(5, coeffs, grid)
        back = analyze(synthesize(field), grid, 5)
        assert np.max(np.abs(back.coeffs - coeffs)) < 1e-11

    def test_parseval(self, grid):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=25)
        values = synthesize(HarmonicField(4, coeffs, grid))
        assert abs(grid.integrate(values**2) - np.sum(coeffs**2)) < 1e-10

    def test_band_limit_guard(self, grid):
        with pytest.raises(BandLimitExceeded):
            analyze(np.ones(grid.n_nodes), grid, grid.n_theta - 1)


def dense_basis(grid, max_degree):
    """Reference (modes, N) matrix of the real orthonormal harmonics: each
    mode's Legendre row times 1, sqrt(2) cos(m phi) or sqrt(2) sin(|m| phi)."""
    legendre = _legendre_table(grid.theta_axis, max_degree)
    rows = []
    for l in range(max_degree + 1):
        for m in range(-l, l + 1):
            if m < 0:
                trig = np.sqrt(2.0) * np.sin(-m * grid.phi_axis)
            elif m > 0:
                trig = np.sqrt(2.0) * np.cos(m * grid.phi_axis)
            else:
                trig = np.ones(grid.n_phi)
            rows.append(np.outer(legendre[l, abs(m)], trig).ravel())
    return np.array(rows)


class TestSeparableTransforms:
    @pytest.mark.parametrize("shape, max_degree", [((48, 96), 24), ((32, 64), 4)])
    @pytest.mark.parametrize("columns", [(), (2,)])
    def test_against_dense_basis(self, shape, max_degree, columns):
        # measured at most 1.4e-15 (degree 24 on 48x96, two columns)
        grid = build_grid(*shape)
        basis = dense_basis(grid, max_degree)
        rng = np.random.default_rng(11)
        values = rng.normal(size=(grid.n_nodes,) + columns)
        coeffs = rng.normal(size=(basis.shape[0],) + columns)
        for got, want in (
            (project(values, grid, max_degree), basis @ values),
            (expand(coeffs, grid, max_degree), basis.T @ coeffs),
        ):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_galerkin_degree_respects_the_longitudes(self):
        # 16 longitudes integrate frequencies up to 15 exactly, so products of
        # two test functions allow degree 7 although 24 colatitudes allow 12
        grid = build_grid(24, 16)
        degree = galerkin_degree(grid)
        assert degree == 7
        modes = (degree + 1) ** 2
        values = expand(np.eye(modes), grid, degree)
        gram = project(grid.weights[:, np.newaxis] * values, grid, degree)
        assert np.max(np.abs(gram - np.eye(modes))) <= 1e-13
        analyze(np.ones(grid.n_nodes), grid, degree)
        with pytest.raises(BandLimitExceeded):
            analyze(np.ones(grid.n_nodes), grid, degree + 1)

    def test_transforms_cache_nothing(self, capsys, tmp_path):
        # every reuse lives within one call: no module (or class defined in
        # one) gains, loses or grows an attribute.  The CLI and the expansion
        # count too: a process that runs command after command would
        # otherwise pay less for a command than a one-shot run
        modules = (harmonics, surface, geodesics, optimizer, manifold, expansion, cli)

        def snapshot():
            out = {}
            for module in modules:
                for name, value in vars(module).items():
                    if name.startswith("__"):
                        continue
                    out[module.__name__, name] = value
                    if isinstance(value, type) and value.__module__ == module.__name__:
                        for attr, member in vars(value).items():
                            out[module.__name__, name, attr] = member
            return {
                key: (value, len(value) if isinstance(value, (dict, list, set)) else None)
                for key, value in out.items()
            }

        before = snapshot()
        metric = SchwarzschildMetric(1.0)
        p = np.array([4.0, 0.0, 0.0])
        packet = curvature_packet(metric, p)
        for shape in ((16, 32), (24, 48)):
            grid = build_grid(*shape)
            pert = optimal_perturbation(packet, grid)
            w = synthesize(analyze(pert.w_values(0.2, grid), grid, 4))
            assert set(grid._diff_cache) == {("harmonics", 4)}
            surf = geodesic_sphere_surface(
                metric, p, 0.2, w, grid, GeodesicConfig(), packet=packet
            )
            willmore_el_residual(surf, metric)
            fan = optimizer_fan(metric, packet, pert, 0.2, grid)
            reference = closed_form_reference(fan, pert, 0.2)
            maximize_hawking(reference, OptimizeConfig(max_iters=2))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "metric": {"kind": "schwarzschild", "mass": 1.0},
            "point": [4.0, 0.0, 0.0],
            "grid": {"n_theta": 16, "n_phi": 32},
            "ladder": {"rho0": 0.2, "n": 5},
            "optimizer": {"max_iters": 2},
        }))
        for command in ("expansion", "optimize"):
            assert cli.main([command, "--config", str(config)]) in (0, 1)
        capsys.readouterr()
        after = snapshot()
        assert after.keys() == before.keys()
        for name, (value, size) in before.items():
            assert after[name][0] is value and after[name][1] == size, name


class TestOperators:
    def test_kernel_annihilated(self, grid):
        coeffs = np.arange(16.0)
        out = apply_bilaplacian_shifted(HarmonicField(3, coeffs, grid))
        assert np.all(out.coeffs[:4] == 0.0)

    def test_eigenvalues(self, grid):
        coeffs = np.ones(25)
        out = apply_bilaplacian_shifted(HarmonicField(4, coeffs, grid))
        assert out.coeffs[mode_index(2, 0)] == 24.0
        assert out.coeffs[mode_index(3, 1)] == 120.0
        assert out.coeffs[mode_index(4, -2)] == (-20.0) * (-18.0)


class TestOptimalPerturbation:
    def test_einstein_metric_zero(self, grid):
        packet = make_packet([2.0, 2.0, 2.0])  # Ric = 2 g, Sc = 6
        pert = optimal_perturbation(packet, grid)
        assert np.max(np.abs(pert.wbar.coeffs)) < 1e-12
        assert abs(pert.lam - 4.0) < 1e-14

    def test_anisotropic_packet(self, grid):
        packet = make_packet([1.0, 0.0, 0.0])  # Sc = 1
        pert = optimal_perturbation(packet, grid)
        expected = -grid.unit[:, 0] ** 2 / 6.0 + 1.0 / 18.0
        assert np.max(np.abs(pert.wbar_values(grid) - expected)) < 1e-12
        # zero mean and zero degree-one content
        assert abs(pert.wbar.coeffs[0]) < 1e-13
        assert np.max(np.abs(pert.wbar.coeffs[1:4])) < 1e-13

    def test_w_scaling_rule(self, grid):
        packet = make_packet([1.0, 0.5, -0.2])
        pert = optimal_perturbation(packet, grid)
        w1 = pert.w_values(0.1, grid)
        w2 = pert.w_values(0.2, grid)
        assert_allclose(w2, 4.0 * w1, rtol=1e-13)

    def test_schwarzschild_transform_cross_check(self, grid):
        metric = SchwarzschildMetric(1.0)
        packet = curvature_packet(metric, np.array([4.0, 1.0, 0.0]))
        pert = optimal_perturbation(packet, grid)
        direct = -ricci_direction_field(packet, grid) / 6.0 + packet.scalar / 18.0
        assert np.max(np.abs(pert.wbar_values(grid) - direct)) < 1e-10


class TestPdeResidual:
    def test_flat_exact_zero(self, grid):
        packet = make_packet([0.0, 0.0, 0.0])
        pert = optimal_perturbation(packet, grid)
        assert pde_residual(packet, pert.wbar, grid) == 0.0

    def test_anisotropic_case(self, grid):
        packet = make_packet([1.0, 0.0, 0.0])
        pert = optimal_perturbation(packet, grid)
        assert pde_residual(packet, pert.wbar, grid) < 1e-10

    def test_property_sweep_all_builtins(self, grid):
        rng = np.random.default_rng(7)
        metrics = [
            EuclideanMetric(),
            RoundSphereMetric(),
            HyperbolicMetric(),
            SchwarzschildMetric(1.0),
            ConformalMetric([(0.05, (2, 0, 0))]),
            PolynomialMetric(POLY_TERMS),
        ]
        for metric in metrics:
            for _ in range(10):
                if metric.kind == "schwarzschild":
                    p = rng.uniform(3.0, 7.0) * _unit(rng)
                elif metric.kind == "hyperbolic":
                    p = rng.uniform(-0.3, 0.3, size=3)
                else:
                    p = rng.uniform(-0.4, 0.4, size=3)
                packet = curvature_packet(metric, p)
                pert = optimal_perturbation(packet, grid)
                assert pde_residual(packet, pert.wbar, grid) < 1e-9

    def test_eigenfunction_identity(self, grid):
        # Ric(Theta, Theta) - Sc/3 carries only degree-2 content
        rng = np.random.default_rng(5)
        for metric in (SchwarzschildMetric(1.0), PolynomialMetric(POLY_TERMS)):
            p = (
                np.array([4.0, 1.0, -0.5])
                if metric.kind == "schwarzschild"
                else rng.uniform(-0.3, 0.3, size=3)
            )
            packet = curvature_packet(metric, p)
            f = ricci_direction_field(packet, grid) - packet.scalar / 3.0
            hf = analyze(f, grid, 6)
            energies = np.bincount(mode_degrees(hf.max_degree), hf.coeffs**2)
            others = np.delete(energies, 2)
            assert np.max(others) < 1e-20

    def test_ricci_trace_integral(self, grid):
        packet = curvature_packet(SchwarzschildMetric(1.0), np.array([4.0, 0.0, 1.0]))
        integral = grid.integrate(ricci_direction_field(packet, grid))
        assert abs(integral - 4.0 * np.pi / 3.0 * packet.scalar) < 1e-10


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestWillmoreEl:
    def test_flat_round_sphere_zero_lambda(self, grid):
        cfg = GeodesicConfig()
        surf = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), 0.5, None, grid, cfg
        )
        res = willmore_el_residual(surf, EuclideanMetric(), 0.0)
        assert np.max(np.abs(res)) < 1e-6

    def test_round_sphere_umbilic_multiplier(self, grid):
        # on the unit round 3-sphere every geodesic sphere is umbilic with
        # H^2 - 4 D = 0 and Ric(N, N) = 2, so the multiplier is exactly 4
        cfg = GeodesicConfig(rel_tol=1e-12, abs_tol=1e-14)
        metric = RoundSphereMetric()
        for rho in (0.2, 0.4):
            surf = geodesic_sphere_surface(
                metric, np.array([0.1, 0.0, 0.0]), rho, None, grid, cfg
            )
            res = willmore_el_residual(surf, metric, 4.0)
            assert np.max(np.abs(res)) < 1e-5
            lam = lagrange_multiplier_from_surface(surf, metric)
            assert abs(lam - 4.0) < 1e-7

    def test_least_squares_residual_is_orthogonal_to_h(self, grid):
        metric = SchwarzschildMetric(1.0)
        p = np.array([4.0, 0.0, 0.0])
        pert = optimal_perturbation(curvature_packet(metric, p), grid)
        surf = geodesic_sphere_surface(
            metric, p, 0.2, pert.w_values(0.2, grid), grid, GeodesicConfig()
        )
        res = willmore_el_residual(surf, metric)
        lam = lagrange_multiplier_from_surface(surf, metric)
        assert_allclose(res, willmore_el_residual(surf, metric, lam), rtol=0, atol=0)
        H = surf.mean_curvature
        assert abs(surf.integrate(res * H)) <= 1e-12 * surf.integrate(H * H)

    def test_optimal_surface_residual_order(self, grid):
        # criticality holds to expansion order: the residual relative to the
        # leading 1/rho^3 scale shrinks at least linearly in rho
        cfg = GeodesicConfig(rel_tol=1e-12, abs_tol=1e-14)
        metric = SchwarzschildMetric(1.0)
        p = np.array([4.0, 0.0, 0.0])
        packet = curvature_packet(metric, p)
        pert = optimal_perturbation(packet, grid)
        rel = []
        radii = np.array([0.4, 0.2, 0.1, 0.05])
        for rho in radii:
            surf = geodesic_sphere_surface(
                metric, p, rho, pert.w_values(rho, grid), grid, cfg,
                packet=packet,
            )
            res = willmore_el_residual(surf, metric, pert.lam)
            rel.append(np.max(np.abs(res)) / (2.0 / rho**3))
        slope = np.polyfit(np.log(radii), np.log(rel), 1)[0]
        assert slope >= 0.9

    def test_wrong_multiplier_is_seen(self, grid):
        cfg = GeodesicConfig(rel_tol=1e-12, abs_tol=1e-14)
        metric = RoundSphereMetric()
        for rho in (0.2, 0.4):
            surf = geodesic_sphere_surface(
                metric, np.array([0.1, 0.0, 0.0]), rho, None, grid, cfg
            )
            res = willmore_el_residual(surf, metric, 4.1)
            assert np.max(np.abs(res)) >= 1e-2

    def test_non_optimal_shape_is_seen(self, grid):
        # adding Y_20 to the optimal shape breaks criticality at leading
        # order, which the residual must resolve at every radius
        cfg = GeodesicConfig(rel_tol=1e-12, abs_tol=1e-14)
        metric = SchwarzschildMetric(1.0)
        p = np.array([4.0, 0.0, 0.0])
        packet = curvature_packet(metric, p)
        pert = optimal_perturbation(packet, grid)
        bump = np.zeros_like(pert.wbar.coeffs)
        bump[mode_index(2, 0)] = 1.0
        shapes = {
            "optimal": pert.wbar_values(grid),
            "bumped": synthesize(pert.wbar.copy_with(pert.wbar.coeffs + bump)),
        }
        for rho in (0.4, 0.2, 0.1, 0.05):
            sup = {}
            for name, wbar in shapes.items():
                surf = geodesic_sphere_surface(
                    metric, p, rho, rho**2 * wbar, grid, cfg, packet=packet
                )
                sup[name] = np.max(np.abs(willmore_el_residual(surf, metric, pert.lam)))
            assert sup["bumped"] >= 100.0 * sup["optimal"], rho


def test_legendre_table_against_scipy():
    # measured 5.8e-15 on the 48 Gauss-Legendre colatitudes
    from scipy.special import sph_legendre_p

    theta = build_grid(48, 96).theta_axis
    table = _legendre_table(theta, 24)
    worst = 0.0
    for l in range(25):
        for m in range(l + 1):
            # SciPy's functions carry the Condon-Shortley phase (-1)^m
            expected = (-1.0) ** m * sph_legendre_p(l, m, theta)
            worst = max(worst, np.max(np.abs(table[l, m] - expected)))
    assert worst <= 1e-13
    assert not np.any(table[np.triu_indices(25, 1)])
