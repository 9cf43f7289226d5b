"""Exponential map and perturbed-sphere embedding by geodesic integration.

Geodesics solve x'' + Gamma(x)(x', x') = 0 with an adaptive embedded
Runge-Kutta pair (DOP853).  The right-hand side contracts the metric
derivative with the velocity (:func:`manifold.geodesic_acceleration`) and
never forms g^{-1} or the full Christoffel tensor; each evaluation reads g
and dg once on the whole stacked batch.

Building a surface needs one geodesic per grid node; :class:`GeodesicFan`
integrates the whole fan of unit-speed radial geodesics in a single stacked
ODE solve, samples it on Chebyshev-Lobatto arclength nodes, and reconstructs
positions at arbitrary per-node radii by barycentric interpolation.  Re-embedding the same fan at a new radius or
graph function is then just interpolation, which is what makes radius
ladders and coefficient optimizers affordable.

:meth:`GeodesicFan.surface` is the one path from a fan to an
:class:`~hawking_lab.surface.EmbeddedSurface`, and :func:`sphere_fan` the
one place that checks a sphere family against the injectivity bound and
shoots the fan that reaches it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    DomainExit,
    PerturbationTooLarge,
    RadiusOutOfRange,
    StepLimit,
)
from .manifold import curvature_packet, geodesic_acceleration
from .surface import extrinsic_geometry

__all__ = [
    "GeodesicConfig",
    "exp_map",
    "GeodesicFan",
    "sphere_fan",
    "embed_sphere",
    "surface_tangents",
    "geodesic_sphere_surface",
]


@dataclass(frozen=True)
class GeodesicConfig:
    """Integrator tolerances for geodesic shooting."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 100_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_steps < 100:
            raise ValueError("max_steps must be at least 100")


# Chebyshev-Lobatto arclength samples per fan geodesic
_N_SAMPLES = 33


def _geodesic_rhs(metric, n_points, cfg, counter):
    def rhs(t, y):
        counter[0] += 1
        if counter[0] > 16 * cfg.max_steps:
            raise StepLimit("geodesic integration exceeded the step budget")
        state = y.reshape(2, n_points, 3)
        x, v = state[0], state[1]
        # raw (unguarded) metric evaluation: the terminal domain event owns
        # boundary handling, and trial steps may probe past the margin
        acc = geodesic_acceleration(metric.metric(x), metric.metric_deriv(x), v)
        return np.concatenate([v.ravel(), acc.ravel()])

    return rhs


def _domain_event(metric, n_points):
    def event(t, y):
        x = y.reshape(2, n_points, 3)[0]
        return float(np.min(metric.domain_margin(x)))

    event.terminal = True
    event.direction = -1.0
    return event


def _integrate(metric, x0, v0, t_end, cfg, t_eval=None):
    """Integrate a stack of geodesics; returns the solve_ivp solution."""
    from scipy.integrate import solve_ivp

    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    n = x0.shape[0]
    if not np.all(metric.domain_guard(x0)):
        raise DomainError("geodesic initial point outside the chart")
    counter = [0]
    sol = solve_ivp(
        _geodesic_rhs(metric, n, cfg, counter),
        (0.0, t_end),
        np.concatenate([x0.ravel(), v0.ravel()]),
        method="DOP853",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        t_eval=t_eval,
        events=[_domain_event(metric, n)],
        dense_output=False,
    )
    if sol.status == 1:
        raise DomainExit("a geodesic reached the chart boundary")
    if not sol.success:
        raise StepLimit(f"geodesic integrator failed: {sol.message}")
    return sol


def exp_map(metric, p, v, cfg=None):
    """Exponential map: endpoint of the geodesic with initial velocity ``v``.

    Integrates x'' + Gamma(x)(x', x') = 0 over unit parameter time.  Raises
    DomainExit if the geodesic leaves the chart and StepLimit when the step
    budget is exhausted.
    """
    if cfg is None:
        cfg = GeodesicConfig()
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.all(v == 0.0):
        if not np.all(metric.domain_guard(p)):
            raise DomainError("base point outside the chart")
        return p.copy()
    sol = _integrate(metric, p[np.newaxis], v[np.newaxis], 1.0, cfg)
    return sol.y[:3, -1].copy()


class GeodesicFan:
    """All radial geodesics from one centre, sampled for fast re-evaluation.

    The fan shoots the unit-speed geodesic in direction Theta(node) for every
    grid node, records states on Chebyshev-Lobatto arclength nodes in
    ``[0, s_max]``, and exposes barycentric interpolants for positions and
    velocities at per-node arclengths.  ``rhs_evals`` counts the right-hand
    side evaluations of the stacked solve and ``speed_drift`` is the largest
    ``|g(v, v) - 1|`` over the last arclength sample.
    """

    def __init__(self, metric, p, grid, s_max, cfg=None, packet=None):
        if cfg is None:
            cfg = GeodesicConfig()
        self.metric = metric
        self.p = np.asarray(p, dtype=float)
        self.grid = grid
        self.s_max = float(s_max)
        self.cfg = cfg
        if packet is None:
            packet = curvature_packet(metric, p)
        self.packet = packet

        # unit directions in the orthonormal frame of the packet
        directions = grid.unit @ packet.frame  # (N, 3) chart components
        n = grid.n_nodes
        k = np.arange(_N_SAMPLES)
        nodes = 0.5 * self.s_max * (1.0 - np.cos(np.pi * k / (_N_SAMPLES - 1)))
        nodes[0] = 0.0
        nodes[-1] = self.s_max
        x0 = np.broadcast_to(self.p, (n, 3))
        sol = _integrate(metric, x0, directions, self.s_max, cfg, t_eval=nodes)
        self.rhs_evals = int(sol.nfev)
        states = sol.y.reshape(2, n, 3, nodes.size)
        self._nodes = nodes
        self._positions = np.moveaxis(states[0], -1, 0)   # (M, N, 3)
        self._velocities = np.moveaxis(states[1], -1, 0)  # (M, N, 3)
        w = np.ones(_N_SAMPLES)
        w[1::2] = -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
        self._bary_w = w

    @cached_property
    def speed_drift(self):
        # evaluated on first use, so a fan build reads the metric only in
        # the integrator's right-hand side
        x, v = self._positions[-1], self._velocities[-1]
        speed_sq = np.einsum("na,nab,nb->n", v, self.metric.metric(x), v)
        return float(np.max(np.abs(speed_sq - 1.0)))

    def diagnostics(self):
        """Integrator statistics for reports: ``{rhs_evals, speed_drift}``."""
        return {"rhs_evals": self.rhs_evals, "speed_drift": self.speed_drift}

    def _interpolate(self, samples, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-12) or np.any(s > self.s_max * (1.0 + 1e-12)):
            raise DomainError("arclength outside the sampled fan range")
        diff = s[np.newaxis, :] - self._nodes[:, np.newaxis]  # (M, N)
        exact = np.isclose(diff, 0.0, atol=1e-15 * max(1.0, self.s_max))
        diff = np.where(exact, 1.0, diff)
        w = self._bary_w[:, np.newaxis] / diff
        num = np.einsum("mn,mnc->nc", w, samples)
        den = np.sum(w, axis=0)
        out = num / den[:, np.newaxis]
        hit_col, hit_row = np.nonzero(exact.T)
        out[hit_col] = samples[hit_row, hit_col]
        return out

    def positions_at(self, s):
        """Chart positions at per-node arclengths ``s`` of shape (N,)."""
        return self._interpolate(self._positions, s)

    def velocities_at(self, s):
        """Outward unit-speed geodesic velocities at per-node arclengths."""
        return self._interpolate(self._velocities, s)

    def surface(self, rho, w):
        """The surface Exp_p[rho (1 - w) Theta] for node values ``w``, with
        its extrinsic geometry; the normal is oriented against the outward
        geodesic velocities."""
        radii = rho * (1.0 - w)
        positions = self.positions_at(radii)
        velocities = self.velocities_at(radii)
        tangents = surface_tangents(positions, self.grid)
        return extrinsic_geometry(self.metric, self.grid, positions, tangents, velocities)


def _as_w_values(w, grid):
    if w is None:
        return np.zeros(grid.n_nodes)
    if np.isscalar(w):
        return np.full(grid.n_nodes, float(w))
    if callable(w):
        return np.asarray(w(grid), dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n_nodes,):
        raise ValueError("w values must match the grid layout")
    return w


def _radial_w(w, grid):
    w_values = _as_w_values(w, grid)
    if np.max(np.abs(w_values)) >= 1.0:
        raise PerturbationTooLarge("need |w| < 1 for a radial graph")
    return w_values


def sphere_fan(metric, p, rho, w, grid, cfg=None, packet=None):
    """The :class:`GeodesicFan` that reaches the sphere Exp_p[rho (1 - w) Theta].

    Checks ``|w| < 1`` and ``rho`` against the metric's injectivity bound
    (RadiusOutOfRange), then shoots the fan out to the largest radius
    ``rho (1 - w)`` needs.
    """
    w_values = _radial_w(w, grid)
    bound = metric.injectivity_bound(p)
    if rho > bound:
        raise RadiusOutOfRange(
            f"radius {rho} exceeds the injectivity bound {bound:.6g}"
        )
    s_max = rho * float(np.max(1.0 - w_values)) * (1.0 + 1e-9)
    return GeodesicFan(metric, p, grid, s_max, cfg, packet=packet)


def embed_sphere(metric, p, rho, w, grid, cfg=None):
    """Positions of the perturbed geodesic sphere Exp_p[rho (1 - w) Theta].

    ``w`` may be None, a scalar, a node array or a callable of the grid.
    Directions are taken in the orthonormal frame at ``p``.
    """
    w_values = _radial_w(w, grid)
    fan = sphere_fan(metric, p, rho, w_values, grid, cfg)
    return fan.positions_at(rho * (1.0 - w_values))


def surface_tangents(positions, grid):
    """Coordinate tangents Z_i = d(embedding)/d theta^i on the grid, by the
    grid's spectral angular derivatives."""
    positions = np.asarray(positions, dtype=float)
    return np.stack([grid.dtheta(positions), grid.dphi(positions)], axis=1)


def geodesic_sphere_surface(metric, p, rho, w, grid, cfg=None, packet=None):
    """Full pipeline: shoot the fan of a perturbed geodesic sphere
    (:func:`sphere_fan`) and read the surface from it
    (:meth:`GeodesicFan.surface`)."""
    w_values = _radial_w(w, grid)
    fan = sphere_fan(metric, p, rho, w_values, grid, cfg, packet=packet)
    return fan.surface(rho, w_values)
