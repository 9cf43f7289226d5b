import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawking_lab import _dop853, geodesics
from hawking_lab.errors import DomainError, DomainExit, PerturbationTooLarge, StepLimit
from hawking_lab.geodesics import (
    GeodesicConfig,
    GeodesicFan,
    exp_map,
    geodesic_sphere_surface,
    sphere_fan,
    surface_tangents,
)
from hawking_lab.manifold import (
    ConformalMetric,
    EuclideanMetric,
    HyperbolicMetric,
    PolynomialMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    curvature_packet,
    geodesic_acceleration,
    metric_at,
)
from hawking_lab.surface import build_grid, extrinsic_geometry

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
        pos = geodesic_sphere_surface(EuclideanMetric(), p, 0.7, None, grid, cfg).positions
        assert_allclose(pos, p + 0.7 * grid.unit, atol=1e-11)

    def test_flat_constant_perturbation(self, grid, cfg):
        pos = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), 1.0, 0.1, grid, cfg
        ).positions
        radii = np.linalg.norm(pos, axis=1)
        assert_allclose(radii, 0.9, atol=1e-11)

    def test_round_sphere_geodesic_distance(self, grid, cfg):
        metric = RoundSphereMetric()
        p = np.array([0.1, -0.05, 0.2])
        pos = geodesic_sphere_surface(metric, p, 0.3, None, grid, cfg).positions
        dists = oracles.s3_distance(np.broadcast_to(p, pos.shape), pos)
        assert np.max(np.abs(dists - 0.3)) < 1e-9

    def test_perturbation_too_large(self, grid, cfg):
        with pytest.raises(PerturbationTooLarge):
            geodesic_sphere_surface(EuclideanMetric(), np.zeros(3), 1.0, 1.0, grid, cfg)

    def test_injectivity_bound_enforced(self, grid, cfg):
        metric = RoundSphereMetric()
        with pytest.raises(DomainError):
            geodesic_sphere_surface(metric, np.zeros(3), 2.0, None, grid, cfg)

    def test_callable_and_array_w(self, grid, cfg):
        w_arr = 0.05 * (grid.unit[:, 0] ** 2 - grid.unit[:, 1] ** 2)
        pos1 = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), 0.5, w_arr, grid, cfg
        ).positions
        pos2 = geodesic_sphere_surface(
            EuclideanMetric(),
            np.zeros(3),
            0.5,
            lambda g: 0.05 * (g.unit[:, 0] ** 2 - g.unit[:, 1] ** 2),
            grid,
            cfg,
        ).positions
        assert np.array_equal(pos1, pos2)


class TestSurfaceTangents:
    def test_flat_round_sphere_tangents(self, grid, cfg):
        pos = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), 0.8, None, grid, cfg
        ).positions
        tan = surface_tangents(pos, grid)
        assert_allclose(tan[:, 0], 0.8 * grid.theta_tangent, atol=1e-9)
        assert_allclose(tan[:, 1], 0.8 * grid.phi_tangent, atol=1e-9)

    def test_gauss_lemma_orthogonality(self, grid, cfg):
        # tangents orthogonal to the radial direction on a flat sphere
        pos = geodesic_sphere_surface(
            EuclideanMetric(), np.zeros(3), 0.6, None, grid, cfg
        ).positions
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

    @pytest.mark.parametrize("s_max", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_reach_that_is_not_finite_and_positive(self, grid, cfg, s_max):
        # a NaN reach would leave the integrator stepping forever
        with pytest.raises(DomainError, match="finite and positive"):
            GeodesicFan(EuclideanMetric(), np.zeros(3), grid, s_max, cfg)

    # (metric, centre, (bound at s_max 0.21, bound at s_max 0.84)): about
    # three times the largest read error of a 33-sample fan, which measured
    # 9.8e-15 / 1.2e-10 (Schwarzschild), 8.6e-14 / 1.1e-11 (conformal) and
    # 4.3e-12 / 4.5e-11 (round sphere)
    READ_CASES = [
        (SchwarzschildMetric(1.0), (4.0, 0.0, 0.0), (3e-14, 3.5e-10)),
        (
            ConformalMetric(
                [(0.1, (2, 0, 0)), (0.05, (0, 1, 1)), (0.03, (1, 0, 0)), (-0.02, (0, 0, 3))]
            ),
            (0.05, 0.02, 0.0),
            (2.6e-13, 3.3e-11),
        ),
        (RoundSphereMetric(), (0.3, 0.1, 0.0), (1.3e-11, 1.3e-10)),
    ]

    def test_sample_count_resolves_the_fan(self, monkeypatch):
        # fan reads at random arclengths against a tightly integrated exp_map
        # at 40 nodes stay within about three times the 33-sample error, and
        # 9 samples do not, so the bounds catch a sample count that is too low
        grid = build_grid(32, 64)
        tight = GeodesicConfig(rel_tol=1e-13, abs_tol=1e-15)
        cases = []
        for metric, p, bounds in self.READ_CASES:
            p = np.array(p)
            packet = curvature_packet(metric, p)
            for s_max, bound in zip((0.21, 0.84), bounds):
                rng = np.random.default_rng(0)
                s = rng.uniform(0.0, s_max, grid.n_nodes)
                nodes = rng.choice(grid.n_nodes, 40, replace=False)
                direct = np.array([
                    exp_map(metric, p, s[k] * (grid.unit[k] @ packet.frame), tight)
                    for k in nodes
                ])
                cases.append((metric, p, packet, s_max, s, nodes, direct, bound))

        def excess():
            """Largest read error over its bound, per case."""
            return np.array([
                np.max(np.abs(
                    GeodesicFan(metric, p, grid, s_max, packet=packet).positions_at(s)[nodes]
                    - direct
                )) / bound
                for metric, p, packet, s_max, s, nodes, direct, bound in cases
            ])

        assert np.all(excess() <= 1.0)
        monkeypatch.setattr(geodesics, "_N_SAMPLES", 9)
        assert np.any(excess() > 1.0)

    def test_kept_samples_are_every_other_of_33(self, monkeypatch):
        # the 17 Lobatto arclengths are every other one of the 33, and the
        # dense output is read per arclength, so the kept samples repeat
        # bit for bit, upsampled (32x64) or shot on the surface grid (16x32)
        metric = RoundSphereMetric()
        p = np.array([0.3, 0.1, 0.0])
        shot = []
        for n_theta, s_max in ((32, 0.21), (32, 0.84), (16, 0.84)):
            grid = build_grid(n_theta, 2 * n_theta)
            fan = GeodesicFan(metric, p, grid, s_max)
            monkeypatch.setattr(geodesics, "_N_SAMPLES", 33)
            fine = GeodesicFan(metric, p, grid, s_max)
            monkeypatch.undo()
            assert fan.shooting_grid == fine.shooting_grid
            assert fan.rhs_evals == fine.rhs_evals
            assert np.array_equal(fan._samples, fine._samples[..., ::2])
            shot.append(fan.shooting_grid == [grid.n_theta, grid.n_phi])
        assert shot == [False, False, True]

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


CONFORMAL = ConformalMetric(
    [(0.1, (2, 0, 0)), (0.05, (0, 1, 1)), (0.03, (1, 0, 0)), (-0.02, (0, 0, 3))]
)


class _HalfSpaceChart(EuclideanMetric):
    """Flat space charted on x < 0.995."""

    def domain_guard(self, x):
        return np.asarray(x)[..., 0] < 0.995

    def domain_margin(self, x):
        return 0.995 - np.asarray(x)[..., 0]


def direct_fan(monkeypatch, *args):
    # the same fan shot on its surface grid, with no coarser grid to try
    with monkeypatch.context() as m:
        m.setattr(geodesics, "_SHOOTING_N_THETA", ())
        return GeodesicFan(*args)


class TestShootingGrid:
    @pytest.mark.parametrize(
        "metric, p",
        [
            (SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0])),
            (CONFORMAL, np.array([0.05, 0.02, 0.0])),
        ],
    )
    def test_upsampled_fan_matches_direct_fan(self, monkeypatch, cfg, metric, p):
        # measured 2.7e-15 on positions and 4.2e-14 on velocities
        grid = build_grid(48, 96)
        fan = GeodesicFan(metric, p, grid, 0.21, cfg)
        direct = direct_fan(monkeypatch, metric, p, grid, 0.21, cfg)
        assert fan.shooting_grid == [12, 24]
        assert direct.shooting_grid == [48, 96]
        assert np.max(np.abs(fan._positions - direct._positions)) <= 1e-14
        assert np.max(np.abs(fan._velocities - direct._velocities)) <= 1e-13

    def test_wide_conformal_fan_refines(self, monkeypatch, cfg):
        # at this reach the 12x24 fan would be off by 1.6e-8; the refined
        # one agrees with the direct fan at the integrator's tolerance
        grid = build_grid(48, 96)
        p = np.array([0.05, 0.02, 0.0])
        fan = GeodesicFan(CONFORMAL, p, grid, 0.84, cfg)
        assert 12 < fan.shooting_grid[0] < 48
        assert fan.spectral_tail <= cfg.abs_tol
        direct = direct_fan(monkeypatch, CONFORMAL, p, grid, 0.84, cfg)
        assert np.max(np.abs(fan._positions - direct._positions)) <= 1e-10

    def test_coarsest_grid_shoots_itself(self, cfg):
        fan = GeodesicFan(EuclideanMetric(), np.zeros(3), build_grid(8, 16), 0.1, cfg)
        assert fan.diagnostics()["shooting_grid"] == [8, 16]

    def test_upsampled_fan_guards_the_chart(self, grid, cfg):
        # the 12x24 directions reach x = 0.9921 and stay in the chart; the
        # 24x48 ones nearest +x reach 0.9979 and leave it
        fan = GeodesicFan(_HalfSpaceChart(), np.zeros(3), build_grid(12, 24), 1.0, cfg)
        assert np.max(fan._positions[..., 0]) < 0.995
        with pytest.raises(DomainExit, match="upsampled"):
            GeodesicFan(_HalfSpaceChart(), np.zeros(3), grid, 1.0, cfg)

    def test_coarse_shot_leaving_the_chart_raises(self, grid, cfg):
        # the integrator's chart check fires on the first, 12x24, shot
        with pytest.raises(DomainExit, match="chart boundary"):
            GeodesicFan(HyperbolicMetric(), np.array([0.9, 0.0, 0.0]), grid, 6.0, cfg)


def solve_ivp_integrate(metric, x0, v0, t_end, cfg, t_eval=None):
    """The stacked geodesic integration through SciPy's DOP853, with the
    chart margin as a terminal event, in the package's return layout."""
    from scipy.integrate import solve_ivp

    n = len(x0)

    def rhs(t, y):
        x, v = y.reshape(2, n, 3)
        acc = geodesic_acceleration(metric.metric(x), metric.metric_deriv(x), v)
        return np.concatenate([v.ravel(), acc.ravel()])

    def event(t, y):
        return float(np.min(metric.domain_margin(y[: 3 * n].reshape(n, 3))))

    event.terminal, event.direction = True, -1.0
    sol = solve_ivp(
        rhs, (0.0, t_end), np.concatenate([np.ravel(x0), np.ravel(v0)]),
        method="DOP853", rtol=cfg.rel_tol, atol=cfg.abs_tol, t_eval=t_eval, events=[event],
    )
    assert sol.status == 0
    return sol.y.T.reshape(-1, 2, n, 3), sol.nfev


class TestDop853:
    @pytest.mark.parametrize("s_max", [0.21, 0.84])
    @pytest.mark.parametrize(
        "metric, p",
        [
            (SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0])),
            (CONFORMAL, np.array([0.05, 0.02, 0.0])),
        ],
    )
    def test_fan_matches_scipy(self, monkeypatch, cfg, metric, p, s_max):
        # measured 0.0, with equal evaluation counts (32, 94, 32 and 186)
        grid = build_grid(48, 96)
        fan = GeodesicFan(metric, p, grid, s_max, cfg)
        with monkeypatch.context() as m:
            m.setattr(geodesics, "_integrate", solve_ivp_integrate)
            ref = GeodesicFan(metric, p, grid, s_max, cfg)
        assert fan.rhs_evals == ref.rhs_evals
        assert fan.shooting_grid == ref.shooting_grid
        assert np.max(np.abs(fan._positions - ref._positions)) <= 1e-14
        assert np.max(np.abs(fan._velocities - ref._velocities)) <= 1e-14

    def test_coefficients_are_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert np.array_equal(_dop853._A, ref.A)
        assert np.array_equal(_dop853._C, ref.C)
        assert np.array_equal(_dop853._E3, ref.E3)
        assert np.array_equal(_dop853._E5, ref.E5)
        assert np.array_equal(_dop853._D, ref.D)


class _ThroughMetricReads:
    """A metric seen through its g and dg alone, counting both reads: its
    action contracts the assembled tensors, and with ``hide_closed_forms``
    its closed-form ``acceleration`` is hidden, so a fan contracts dg."""

    def __init__(self, inner, hide_closed_forms=False):
        self._inner = inner
        self._hidden = ("acceleration",) if hide_closed_forms else ()
        self.g_reads = 0
        self.dg_reads = 0

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        return getattr(self._inner, name)

    def metric(self, x):
        self.g_reads += 1
        return self._inner.metric(x)

    def metric_deriv(self, x):
        self.dg_reads += 1
        return self._inner.metric_deriv(x)

    def action(self, x):
        g = self.metric(x)

        def along(n):
            dg_n = np.einsum("...c,...cab->...ab", n, self.metric_deriv(x))
            return lambda v: np.einsum("...ab,...b->...a", dg_n, v)

        return SimpleNamespace(
            apply=lambda v: np.einsum("...ab,...b->...a", g, v),
            solve=lambda c: np.linalg.solve(g, c[..., np.newaxis])[..., 0],
            along=along,
        )


class TestClosedFormRightHandSide:
    @pytest.mark.parametrize("s_max", [0.21, 0.84])
    @pytest.mark.parametrize(
        "metric, p",
        [
            (SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0])),
            (CONFORMAL, np.array([0.05, 0.02, 0.0])),
        ],
    )
    def test_fan_matches_contraction(self, cfg, metric, p, s_max):
        grid = build_grid(48, 96)
        packet = curvature_packet(metric, p)
        fan = GeodesicFan(metric, p, grid, s_max, cfg, packet=packet)
        contracted = _ThroughMetricReads(metric, hide_closed_forms=True)
        ref = GeodesicFan(contracted, p, grid, s_max, cfg, packet=packet)
        assert contracted.dg_reads == ref.rhs_evals
        assert fan.rhs_evals == ref.rhs_evals
        assert fan.shooting_grid == ref.shooting_grid
        assert np.max(np.abs(fan._samples - ref._samples)) <= 1e-14

    @pytest.mark.parametrize(
        "metric",
        [EuclideanMetric(), PolynomialMetric([(0, 0, 0.02, (2, 0, 0)), (0, 1, 0.015, (1, 1, 0))])],
        ids=["euclidean", "polynomial"],
    )
    def test_kind_without_closed_form_reads_through_its_object(self, cfg, metric):
        # one g and one dg read of the proxy per right-hand side
        counted = _ThroughMetricReads(metric)
        packet = curvature_packet(metric, np.zeros(3))
        fan = GeodesicFan(counted, np.zeros(3), build_grid(8, 16), 0.1, cfg, packet=packet)
        assert fan.rhs_evals > 0
        assert counted.g_reads == counted.dg_reads == fan.rhs_evals

    @pytest.mark.parametrize(
        "metric, p",
        [
            (SchwarzschildMetric(1.0), np.array([4.0, 0.0, 0.0])),
            (CONFORMAL, np.array([0.05, 0.02, 0.0])),
        ],
    )
    def test_surface_matches_contraction(self, grid, cfg, metric, p):
        # (N.d)g in closed form against its contraction of dg
        fan = GeodesicFan(metric, p, grid, 0.84, cfg)
        surf = fan.surface(fan.s_max, np.zeros(grid.n_nodes))
        contracted = _ThroughMetricReads(metric, hide_closed_forms=True)
        ref = extrinsic_geometry(contracted, grid, surf.positions, surf.tangents, surf.outward)
        assert contracted.dg_reads == 1
        scale = np.max(np.abs(ref.second_form))
        assert np.max(np.abs(surf.second_form - ref.second_form)) <= 1e-13 * scale


def test_surface_equals_separate_reads(grid, cfg):
    # one set of barycentric weights serves positions and velocities; the
    # nodes with w = 0 sit exactly on the fan's last sample
    metric = SchwarzschildMetric(1.0)
    fan = GeodesicFan(metric, np.array([4.0, 0.0, 0.0]), grid, 0.84, cfg)
    w = 0.05 * grid.unit[:, 0] ** 2 + 0.02 * (1.0 + grid.unit[:, 2])
    w[::7] = 0.0
    surf = fan.surface(fan.s_max, w)
    radii = fan.s_max * (1.0 - w)
    positions, velocities = fan.positions_at(radii), fan.velocities_at(radii)
    assert np.array_equal(positions[::7], fan._positions[-1, ::7])
    separate = extrinsic_geometry(
        metric, grid, positions, surface_tangents(positions, grid), velocities
    )
    for field in dataclasses.fields(surf):
        if field.name != "grid":
            assert np.array_equal(getattr(surf, field.name), getattr(separate, field.name))
