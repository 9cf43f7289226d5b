"""Area-constrained maximization of the Hawking mass over spectral graph
perturbations of a geodesic sphere.

The search space is the span of real spherical harmonics of degree 2..L
(degrees 0 and 1 are excluded: they move area and centre, not shape).  For
every coefficient vector the radius is solved for so the surface area
matches the target, making the search an unconstrained problem in the shape
coefficients.  Every surface evaluation reuses one geodesic fan, so the
inner loop is pure interpolation and quadrature.  The fan is the only input
that carries geometry: its metric, centre, grid and integrator settings
(``fan.metric``, ``fan.p``, ``fan.grid``, ``fan.cfg``) are the search's, and
a radius beyond its reach ``fan.s_max`` raises :class:`DomainError`.
:func:`optimizer_fan` shoots the fan that reaches the closed-form reference
sphere (:func:`closed_form_reference`) and the search around it, so a run
with a reference shoots one fan and computes one curvature packet.

Each iterate builds one surface: the area solve reads positions, tangents
and velocities from the fan (:meth:`geodesics.GeodesicFan.read`), measures
the first form only and returns the read that met the area tolerance, which
is completed into the iterate's surface.  The gradient returns that
surface's Willmore densities with it, and for the returned iterate they
serve its Euler-Lagrange residual too.

The gradient is analytic and comes from the surface the iteration already
holds.  Mode k of the shape moves the nodes along the fan by
``-rho phi_k gamma'``, the radius by ``(1 - w) gamma'``; their normal speeds
``psi = g(V, N)`` are summed against the node densities of the
area-constrained Willmore first variation (:func:`harmonics.willmore_densities`,
Lamm and Metzger, IMRN 2010), the same weak assembly the Euler-Lagrange
residual reads.
The radial variation fixes the multiplier ``lam = int E psi_rho / int H psi_rho``
that keeps the area, and at fixed area

    dm/dc_k = -sqrt(A / (16 pi)^3) int (E - lam H) psi_k dmu,

with E the Euler-Lagrange left-hand side and A the surface area.
The ``-4 K |Sigma|`` term of the generalized mass is constant at fixed area,
so the same formula holds for every K.

The iteration takes Newton steps preconditioned by the Hessian at the round
sphere, ``-2 sqrt(A / (16 pi)^3) Lap (Lap + 2)`` in the shape coefficients:
the operator of the paper's PDE for the optimal graph
(:func:`harmonics.pde_residual`).  It is diagonal in the real
harmonics, with ``l(l+1)(l(l+1) - 2)`` for the degree-l modes, because the
problem at the round sphere is rotation-invariant: a Hessian that commutes
with rotations acts on each degree as a multiple of the identity.  Curvature
perturbs it at order rho^2: central differences of the gradient at the
round sphere (32x64, L = 4, rho = 0.2) match the diagonal to 6e-4, with
off-diagonal entries below 8e-4 of it, on Schwarzschild, and to 3e-3 on a
conformally flat metric.  So the steps converge in a few iterations (Nocedal
and Wright, *Numerical Optimization*).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .geodesics import GeodesicFan, sphere_reach
from .harmonics import (
    HarmonicField,
    _check_band_limit,
    _expand,
    _galerkin_residual,
    _project,
    _shifted_bilaplacian_eigenvalues,
    _tables,
    optimal_perturbation,
    willmore_densities,
)
from .manifold import _dot3, curvature_packet, metric_action
from .surface import first_form, hawking_mass

__all__ = [
    "OptimizeConfig",
    "OptimizeResult",
    "maximize_hawking",
    "closed_form_reference",
    "optimizer_fan",
]


@dataclass(frozen=True)
class OptimizeConfig:
    """Settings of the Newton iteration: the band limit ``max_degree`` of the
    shape, the iteration budget, the gradient-norm stopping tolerance and
    the relative area tolerance of the radius solve."""

    max_degree: int = 4
    max_iters: int = 500
    gradient_tol: float = 1e-9
    area_rtol: float = 1e-10

    def __post_init__(self):
        if self.max_degree < 2:
            raise ValueError("max_degree must be at least 2")
        for name in ("gradient_tol", "area_rtol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class OptimizeResult:
    """Converged (or best-effort) area-constrained maximizer.

    ``stop_reason`` is ``"gradient_tol"`` when the gradient norm fell to the
    tolerance (then ``converged`` is True) and ``"max_iters"`` when the
    iteration budget ran out first.
    """

    w_star: HarmonicField
    rho_star: float
    m_H_star: float
    iterations: int
    final_gradient_norm: float
    el_residual_norm: float
    converged: bool
    stop_reason: str
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
            "stop_reason": self.stop_reason,
            "target_area": self.target_area,
            "area": self.area,
            "coefficients": self.w_star.coeffs.tolist(),
        }


def optimizer_fan(metric, p, rho, grid, geo_cfg=None):
    """The one geodesic fan of an area-constrained search around radius ``rho``.

    It reaches the closed-form reference sphere at ``rho`` (checked by
    :func:`geodesics.sphere_reach`) and the search headroom
    ``min(1.35 * 1.05 rho, injectivity bound)``: 35% above a radius 5% over
    ``rho``.
    """
    packet = curvature_packet(metric, p)
    w = optimal_perturbation(packet, grid).w_values(rho, grid)
    headroom = min(1.35 * 1.05 * rho, float(metric.injectivity_bound(p)))
    s_max = max(sphere_reach(metric, p, rho, w, grid), headroom)
    return GeodesicFan(metric, p, grid, s_max, geo_cfg, packet=packet)


def _normal_speed(surface):
    """g(gamma', N) at the nodes, for the outward fan velocities gamma'
    stored as ``surface.outward``.  g N is parallel to c = Z_1 x Z_2
    (:func:`surface.extrinsic_geometry`), so g(gamma', N) =
    (gamma' . c) / (N . c), with no read of the metric."""
    cross = np.cross(surface.tangents[:, 0], surface.tangents[:, 1])
    return _dot3(surface.outward, cross) / _dot3(surface.normal, cross)


class _SurfaceEvaluator:
    """Shape synthesis, area solve and mass evaluation on one fan."""

    def __init__(self, fan, cfg, K=0):
        _check_band_limit(cfg.max_degree, fan.grid, "optimizer.max_degree")
        self.fan = fan
        self.cfg = cfg
        self.K = K
        self.n_coeff = (cfg.max_degree + 1) ** 2 - 4  # degrees >= 2
        # the shape basis factors, for every expansion and projection here
        self._tables = _tables(fan.grid, cfg.max_degree)

    def w_values(self, coeffs):
        coeffs = np.concatenate([np.zeros(4), coeffs])
        return _expand(coeffs, self.fan.grid, self.cfg.max_degree, self._tables)

    def area_of(self, rho, w):
        """``(area, read)``: the area of the surface at radius ``rho`` and
        shape ``w``, from its first fundamental form alone, and the fan's
        :meth:`GeodesicFan.read` it was measured on."""
        read = self.fan.read(rho, w)
        positions, tangents, _ = read
        g = metric_action(self.fan.metric, positions)
        g_z = np.stack([g.apply(tangents[:, 0]), g.apply(tangents[:, 1])], axis=1)
        _, det = first_form(tangents, g_z)
        grid = self.fan.grid
        return float(np.sum(grid.weights * np.sqrt(det) / grid.sin_theta)), read

    def solve_radius(self, rho_guess, w, target_area):
        """Newton iteration on rho with dA/drho ~ 2A/rho.  Returns
        ``(rho, read)``, the read whose area met the tolerance.  Raises
        DomainError on the first read at the fan's reach whose area is still
        below the target."""
        rho = rho_guess
        w_sup = float(np.max(np.abs(w))) if w.size else 0.0
        rho_cap = self.fan.s_max / (1.0 + w_sup) * (1.0 - 1e-12)
        for _ in range(40):
            capped = rho >= rho_cap
            rho = min(rho, rho_cap)
            area, read = self.area_of(rho, w)
            err = area - target_area
            if abs(err) <= self.cfg.area_rtol * target_area:
                return rho, read
            if capped and err < 0.0:
                raise DomainError(
                    f"target area {target_area:.6g} lies beyond the fan: the surface at its"
                    f" reach s_max = {self.fan.s_max:.6g} has area {area:.6g}"
                )
            rho = rho * (1.0 - 0.5 * err / area)
            if rho <= 0.0:
                raise DomainError("area solve collapsed the radius")
        raise DomainError("area constraint did not converge")

    def constrained_mass(self, w, rho_guess, target_area):
        """Hawking mass at the area-matched radius for the shape values ``w``
        (:meth:`w_values`).

        Returns ``(mass, rho, surface)``.  The surface is completed
        (:meth:`GeodesicFan.surface_from`) from the read the area solve
        accepted, at the radius it returns.
        """
        rho, read = self.solve_radius(rho_guess, w, target_area)
        surf = self.fan.surface_from(read)
        return hawking_mass(surf, self.K).generalized, rho, surf

    def mass_gradient(self, w, rho, surf):
        """Gradient of :meth:`constrained_mass` in the shape coefficients,
        from the first variation at ``surf`` of shape ``w`` (module
        docstring).  Returns ``(grad, densities)``, the second the Willmore
        densities of ``surf`` it sums (:func:`harmonics.willmore_densities`)."""
        v_n = _normal_speed(surf)
        densities = willmore_densities(surf, self.fan.metric)
        g_e, g_h = densities
        radial = (1.0 - w) * v_n  # psi_rho
        lam = (radial @ g_e) / (radial @ g_h)  # int E psi_rho / int H psi_rho
        # psi_k = -rho phi_k v_n, so int (E - lam H) psi_k dmu = -rho moments[k]
        moments = _project(
            v_n * (g_e - lam * g_h), self.fan.grid, self.cfg.max_degree, self._tables
        )[4:]
        return np.sqrt(surf.area / (16.0 * np.pi) ** 3) * rho * moments, densities


def maximize_hawking(fan, target_area, cfg=None, K=0):
    """Newton iteration for the Hawking mass at fixed area on ``fan``.

    Starts from the round sphere (``coeffs = 0``) and takes the analytic
    gradient in the shape coefficients from the first variation of the
    surface it holds (:meth:`_SurfaceEvaluator.mass_gradient`, no extra
    surface or area solve).  Each step divides the gradient by minus the
    Hessian at the round sphere of the target area A,
    ``2 sqrt(A / (16 pi)^3) l(l+1)(l(l+1) - 2)`` per degree-l mode (module
    docstring), and the next surface is read at the radius that restores the
    area, solved from the last radius.  No mass is compared and no step is
    retried: a step that leaves the fan raises :class:`DomainError`.
    Terminates on the gradient norm, which sets ``converged``, or at
    ``max_iters``; the last iterate is returned in either case, and
    ``final_gradient_norm`` is its own gradient norm (after the last step
    of a run that used its budget, one more gradient is taken, with no trace
    row).  ``stop_reason`` is ``"gradient_tol"`` whenever that norm is
    within the tolerance, else ``"max_iters"``.
    A ``cfg.max_degree`` above the band limit of ``fan.grid`` raises
    :class:`BandLimitExceeded`.
    """
    if cfg is None:
        cfg = OptimizeConfig()
    ev = _SurfaceEvaluator(fan, cfg, K)
    # at the round sphere of the target area (module docstring)
    minus_hessian = 2.0 * np.sqrt(target_area / (16.0 * np.pi) ** 3) * (
        _shifted_bilaplacian_eigenvalues(cfg.max_degree)[4:]
    )

    # each iterate's shape is expanded once, for its surface and its gradient
    coeffs = np.zeros(ev.n_coeff)
    w = ev.w_values(coeffs)
    rho_flat = np.sqrt(target_area / (4.0 * np.pi))
    value, rho, surf = ev.constrained_mass(w, rho_flat, target_area)
    trace = []
    stop_reason = "max_iters"

    for iterations in range(1, cfg.max_iters + 1):
        grad, densities = ev.mass_gradient(w, rho, surf)
        grad_norm = float(np.linalg.norm(grad))
        row = {
            "iteration": iterations,
            "mass": value,
            "gradient_norm": grad_norm,
            "step": 0.0,
            "rho": rho,
        }
        trace.append(row)
        if grad_norm <= cfg.gradient_tol:
            stop_reason = "gradient_tol"
            break
        step = grad / minus_hessian
        row["step"] = float(np.linalg.norm(step))
        coeffs = coeffs + step
        w = ev.w_values(coeffs)
        value, rho, surf = ev.constrained_mass(w, rho, target_area)
    else:
        # the budget ran out after a step: report the returned surface's own
        # gradient, not the one the step was taken from
        grad, densities = ev.mass_gradient(w, rho, surf)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= cfg.gradient_tol:
            stop_reason = "gradient_tol"

    w_star = HarmonicField(
        cfg.max_degree,
        np.concatenate([np.zeros(4), coeffs]),
        fan.grid,
    )
    # the last gradient was taken at the returned surface, so its Willmore
    # densities serve the Euler-Lagrange residual too
    res_field = _galerkin_residual(surf, densities)
    el_norm = float(np.sqrt(surf.integrate(res_field**2)))
    return OptimizeResult(
        w_star=w_star,
        rho_star=float(rho),
        m_H_star=float(value),
        iterations=iterations,
        final_gradient_norm=grad_norm,
        el_residual_norm=el_norm,
        converged=stop_reason == "gradient_tol",
        stop_reason=stop_reason,
        target_area=float(target_area),
        area=float(surf.area),
        trace=trace,
        surface=surf,
    )


def closed_form_reference(fan, rho, K=0):
    """Area and mass of the closed-form optimally perturbed sphere at ``rho``.

    Returns ``(target_area, mass, w_field)`` for optimizer comparisons: the
    optimizer searching at this target area can only do at least as well as
    this surface.  The sphere is read from ``fan``, the
    :func:`optimizer_fan` around ``rho`` that the search then shares.
    """
    pert = optimal_perturbation(fan.packet, fan.grid)
    surf = fan.surface(rho, pert.w_values(rho, fan.grid))
    return surf.area, hawking_mass(surf, K).generalized, pert.w_field(rho)
