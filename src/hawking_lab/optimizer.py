"""Area-constrained maximization of the Hawking mass over spectral graph
perturbations of a geodesic sphere.

The search space is the span of real spherical harmonics of degree 2..L
(degrees 0 and 1 are excluded: they move area and centre, not shape).  After
every trial coefficient vector the radius is rescaled so the surface area
matches the target, making the ascent an unconstrained problem in the shape
coefficients.  Every surface evaluation reuses one geodesic fan, so the
inner loop is pure interpolation and quadrature.  Masses are floor-corrected
like ladder rungs (:func:`expansion.floor_corrected_mass`); the area
constraint matches raw surface areas.

The gradient is analytic and comes from the surface the iteration already
holds.  Mode k of the shape moves the nodes along the fan by
``-rho phi_k gamma'``, the radius by ``(1 - w) gamma'``; their normal speeds
``psi = g(V, N)`` go through the area-constrained Willmore first variation
(:func:`harmonics.willmore_first_variation`, Lamm and Metzger, IMRN 2010).
The radial variation fixes the multiplier ``lam = int E psi_rho / int H psi_rho``
that keeps the area, and at fixed area

    dm/dc_k = -sqrt(A / (16 pi)^3) int (E - lam H) psi_k dmu,

with E the Euler-Lagrange left-hand side and A the floor-corrected area.
The ``-4 K |Sigma|`` term of the generalized mass is constant at fixed area,
so the same formula holds for every K.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .expansion import floor_corrected_mass
from .geodesics import GeodesicConfig, GeodesicFan, surface_tangents
from .harmonics import (
    HarmonicField,
    _basis_matrix,
    least_squares_multiplier,
    optimal_perturbation,
    willmore_el_operator,
    willmore_el_residual,
    willmore_first_variation,
)
from .manifold import curvature_packet, metric_at
from .surface import extrinsic_geometry

__all__ = [
    "OptimizeConfig",
    "OptimizeResult",
    "maximize_hawking",
    "lagrange_multiplier_estimate",
    "closed_form_reference",
]


@dataclass
class OptimizeConfig:
    """Knobs for the projected-gradient ascent."""

    max_degree: int = 4
    max_iters: int = 500
    initial_step: float = 1e-4      # coefficient-space step along the unit gradient
    shrink: float = 0.5
    grow: float = 1.6
    gradient_tol: float = 1e-9
    seed: int = 0
    init_jitter: float = 1e-7       # scale of the seeded random start around w = 0
    area_rtol: float = 1e-10
    min_step: float = 1e-13

    def validate(self):
        if self.max_degree < 2:
            raise ValueError("max_degree must be at least 2")
        for name in ("initial_step", "gradient_tol", "area_rtol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")

    def as_dict(self):
        return {
            "max_degree": self.max_degree,
            "max_iters": self.max_iters,
            "initial_step": self.initial_step,
            "shrink": self.shrink,
            "grow": self.grow,
            "gradient_tol": self.gradient_tol,
            "seed": self.seed,
            "init_jitter": self.init_jitter,
            "area_rtol": self.area_rtol,
            "min_step": self.min_step,
        }


@dataclass
class OptimizeResult:
    """Converged (or best-effort) area-constrained maximizer."""

    w_star: HarmonicField
    rho_star: float
    m_H_star: float
    iterations: int
    final_gradient_norm: float
    el_residual_norm: float
    converged: bool
    target_area: float
    area: float
    trace: list = field(repr=False, default_factory=list)
    surface: object = field(repr=False, default=None)

    def as_dict(self):
        return {
            "rho_star": self.rho_star,
            "m_H_star": self.m_H_star,
            "iterations": self.iterations,
            "final_gradient_norm": self.final_gradient_norm,
            "el_residual_norm": self.el_residual_norm,
            "converged": self.converged,
            "target_area": self.target_area,
            "area": self.area,
            "coefficients": self.w_star.coeffs.tolist(),
        }


class _SurfaceEvaluator:
    """Shared machinery: fan, shape basis, area solve and mass evaluation."""

    def __init__(self, metric, p, grid, rho_init, cfg, geo_cfg, K=0, fd_order=8):
        self.metric = metric
        self.grid = grid
        self.cfg = cfg
        self.K = K
        self.fd_order = fd_order
        self.packet = curvature_packet(metric, p)
        self.s_max = rho_init * 1.35
        bound = metric.injectivity_bound(p)
        if self.s_max > bound:
            self.s_max = float(bound)
        self.fan = GeodesicFan(metric, p, grid, self.s_max, geo_cfg, packet=self.packet)
        basis = _basis_matrix(grid, cfg.max_degree)
        self.shape_basis = basis[4:]          # degrees >= 2, shape (n_coeff, N)
        self.n_coeff = self.shape_basis.shape[0]

    def w_values(self, coeffs):
        return self.shape_basis.T @ coeffs

    def area_of(self, rho, w):
        radii = rho * (1.0 - w)
        positions = self.fan.positions_at(radii)
        tangents = surface_tangents(positions, self.grid, self.fd_order)
        g = metric_at(self.metric, positions)
        z1, z2 = tangents[:, 0], tangents[:, 1]
        e = np.einsum("na,nab,nb->n", z1, g, z1)
        f_ = np.einsum("na,nab,nb->n", z1, g, z2)
        g2 = np.einsum("na,nab,nb->n", z2, g, z2)
        det = e * g2 - f_ * f_
        return float(
            np.sum(self.grid.weights * np.sqrt(det) / self.grid.sin_theta)
        )

    def solve_radius(self, rho_guess, w, target_area):
        """Newton iteration on rho with dA/drho ~ 2A/rho."""
        rho = rho_guess
        w_sup = float(np.max(np.abs(w))) if w.size else 0.0
        rho_cap = self.s_max / (1.0 + w_sup) * (1.0 - 1e-12)
        for _ in range(40):
            rho = min(rho, rho_cap)
            area = self.area_of(rho, w)
            err = area - target_area
            if abs(err) <= self.cfg.area_rtol * target_area:
                return rho, area
            rho = rho * (1.0 - 0.5 * err / area)
            if rho <= 0.0:
                raise DomainError("area solve collapsed the radius")
        raise DomainError("area constraint did not converge")

    def surface_at(self, rho, w):
        """The surface at radius ``rho`` and shape ``w``, and the outward
        geodesic velocities at its nodes."""
        radii = rho * (1.0 - w)
        positions = self.fan.positions_at(radii)
        velocities = self.fan.velocities_at(radii)
        tangents = surface_tangents(positions, self.grid, self.fd_order)
        surf = extrinsic_geometry(
            self.metric, self.grid, positions, tangents, velocities, self.fd_order
        )
        return surf, velocities

    def constrained_mass(self, coeffs, rho_guess, target_area):
        """Hawking mass at the area-matched radius for the given shape.

        Returns ``(mass, rho, surface, velocities)``.
        """
        w = self.w_values(coeffs)
        rho, _ = self.solve_radius(rho_guess, w, target_area)
        surf, velocities = self.surface_at(rho, w)
        report = floor_corrected_mass(surf, self.K)
        value = report.generalized if self.K != 0 else report.hawking
        return value, rho, surf, velocities

    def mass_gradient(self, coeffs, rho, surf, velocities):
        """Gradient of :meth:`constrained_mass` in the shape coefficients,
        from the first variation at ``surf`` (module docstring)."""
        w = self.w_values(coeffs)
        g = metric_at(self.metric, surf.positions)
        v_n = np.einsum("na,nab,nb->n", velocities, g, surf.normal)  # g(gamma', N)
        # column 0 moves the radius, (1 - w) gamma'; column 1 + k is mode k
        speeds = np.column_stack([(1.0 - w) * v_n, -rho * (self.shape_basis * v_n).T])
        d_w, d_a = willmore_first_variation(surf, self.metric, speeds)
        lam = -d_w[0] / d_a[0]  # int E psi_rho / int H psi_rho
        area = floor_corrected_mass(surf, self.K).area
        return -np.sqrt(area / (16.0 * np.pi) ** 3) * (d_w[1:] + lam * d_a[1:])


def maximize_hawking(
    metric,
    p,
    target_area,
    cfg=None,
    grid=None,
    geo_cfg=None,
    K=0,
    fd_order=8,
):
    """Projected-gradient ascent of the Hawking mass at fixed area.

    Starts from the round sphere (plus a seeded jitter of size
    ``cfg.init_jitter``), takes the analytic gradient in the shape
    coefficients from the first variation of the surface it holds
    (:meth:`_SurfaceEvaluator.mass_gradient`, no extra surface or area
    solve), backtracks along the normalized gradient, and rescales the
    radius after every trial step so the area constraint holds exactly.
    Terminates on the gradient norm, on step collapse, or at ``max_iters``
    (in which case ``converged`` is False and the best iterate is returned).
    """
    if cfg is None:
        cfg = OptimizeConfig()
    cfg.validate()
    if grid is None:
        from .surface import build_grid

        grid = build_grid(32, 64)
    if geo_cfg is None:
        geo_cfg = GeodesicConfig()
    p = np.asarray(p, dtype=float)

    rho_flat = np.sqrt(target_area / (4.0 * np.pi))
    ev = _SurfaceEvaluator(metric, p, grid, rho_flat * 1.05, cfg, geo_cfg, K, fd_order)

    rng = np.random.default_rng(cfg.seed)
    coeffs = cfg.init_jitter * rng.standard_normal(ev.n_coeff)

    value, rho, surf, velocities = ev.constrained_mass(coeffs, rho_flat, target_area)
    step = cfg.initial_step
    trace = []
    grad_norm = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iters + 1):
        grad = ev.mass_gradient(coeffs, rho, surf, velocities)
        grad_norm = float(np.linalg.norm(grad))
        trace.append(
            {
                "iteration": iterations,
                "mass": value,
                "gradient_norm": grad_norm,
                "step": step,
                "rho": rho,
            }
        )
        if grad_norm <= cfg.gradient_tol:
            converged = True
            break

        direction = grad / grad_norm
        improved = False
        while step >= cfg.min_step:
            candidate = coeffs + step * direction
            try:
                cand_value, cand_rho, cand_surf, cand_vel = ev.constrained_mass(
                    candidate, rho, target_area
                )
            except DomainError:
                step *= cfg.shrink
                continue
            if cand_value > value:
                coeffs, value, rho = candidate, cand_value, cand_rho
                surf, velocities = cand_surf, cand_vel
                step = min(step * cfg.grow, 1.0)
                improved = True
                break
            step *= cfg.shrink
        if not improved:
            converged = True  # no ascent direction resolvable above rounding
            break

    w_star = HarmonicField(
        cfg.max_degree,
        np.concatenate([np.zeros(4), coeffs]),
        grid,
    )
    res_field = willmore_el_residual(surf, metric)
    el_norm = float(np.sqrt(surf.integrate(res_field**2)))
    return OptimizeResult(
        w_star=w_star,
        rho_star=float(rho),
        m_H_star=float(value),
        iterations=iterations,
        final_gradient_norm=grad_norm,
        el_residual_norm=el_norm,
        converged=converged,
        target_area=float(target_area),
        area=float(surf.area),
        trace=trace,
        surface=surf,
    )


def lagrange_multiplier_from_surface(surface, metric):
    """Least-squares multiplier: lam minimizing || EL(lam) ||_L2 on the surface."""
    return least_squares_multiplier(surface, willmore_el_operator(surface, metric))


def lagrange_multiplier_estimate(result, metric, p=None):
    """Least-squares Lagrange multiplier of a converged optimizer result."""
    if result.surface is None:
        raise ValueError("result carries no surface to estimate the multiplier from")
    return lagrange_multiplier_from_surface(result.surface, metric)


def closed_form_reference(metric, p, rho, grid, geo_cfg=None, fd_order=8, K=0, max_degree=4):
    """Area and mass of the closed-form optimally perturbed sphere at ``rho``.

    Returns ``(target_area, mass, w_field)`` for optimizer comparisons: the
    optimizer searching at this target area can only do at least as well as
    this surface.  The target is the raw surface area, which the optimizer's
    area solve matches; the mass is floor-corrected, as the optimizer's are.
    """
    from .geodesics import geodesic_sphere_surface

    if geo_cfg is None:
        geo_cfg = GeodesicConfig()
    packet = curvature_packet(metric, p)
    pert = optimal_perturbation(packet, grid, max_degree)
    w = pert.w_values(rho, grid)
    surf = geodesic_sphere_surface(
        metric, p, rho, w, grid, geo_cfg, fd_order=fd_order, packet=packet
    )
    report = floor_corrected_mass(surf, K)
    mass = report.generalized if K != 0 else report.hawking
    return surf.area, mass, pert.w_field(rho)


def trace_to_csv(trace, path):
    """Write the per-iteration optimizer trace."""
    with open(path, "w") as fh:
        fh.write("iteration,mass,gradient_norm,step,rho\n")
        for row in trace:
            fh.write(
                f"{row['iteration']},{row['mass']:.17g},"
                f"{row['gradient_norm']:.17g},{row['step']:.17g},{row['rho']:.17g}\n"
            )
