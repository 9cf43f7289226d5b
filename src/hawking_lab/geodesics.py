"""Exponential map and perturbed-sphere embedding by geodesic integration.

Geodesics solve x'' + Gamma(x)(x', x') = 0 with Dormand and Prince's
adaptive Runge-Kutta method of order 8 (DOP853, in :mod:`._dop853`), read
at the sample arclengths from its order-7 dense output.  The right-hand
side is the metric's closed-form ``acceleration(x, v)`` = -Gamma(v, v)
where its kind has one (the conformally flat kinds and Schwarzschild), which
reads neither g nor dg.  Other kinds contract dg with the velocity
(:func:`manifold.geodesic_acceleration`), reading g and dg once per
evaluation on the whole stacked batch through the metric object the fan was
handed; neither path forms g^{-1} or the full Christoffel tensor.  Every
step end is held to the chart by ``metric.domain_margin``.

A surface is read off a fan of radial geodesics: :class:`GeodesicFan`
integrates the whole fan of unit-speed radial geodesics in a single stacked
ODE solve, samples it on 17 Chebyshev-Lobatto arclength nodes, and
reconstructs positions at arbitrary per-node radii by barycentric
interpolation (Berrut and Trefethen, SIAM Rev. 2004).  Re-embedding the same
fan at a new radius or graph function is then just interpolation, which is
what makes radius ladders and coefficient optimizers affordable.

Seventeen samples resolve a fan to the integrator's own noise.  From 33
samples, the Chebyshev coefficients in arclength of x and v (largest over
the nodes of a 48x96 fan) beyond degree 12 are at most 5e-15
(Schwarzschild, m = 1, p = (4, 0, 0)), 2e-15 (a polynomial conformal
factor) and 2e-14 (the round 3-sphere) at s_max = 0.21, and at s_max = 0.84
they sit on a floor of 1e-12 to 4e-11 that the integrator's tolerances set,
reached by degree 10 to 12 (Trefethen, *Approximation Theory and
Approximation Practice*, ch. 4 and 8).  The 17 Lobatto arclengths are every
other one of the 33, and the dense output is read per arclength, so the
samples kept are the same values bit for bit.

At arclength s the fan is p + s Theta plus terms in s^3, s^4, ... that are
polynomials of low degree in Theta, so a small radius needs far fewer
geodesics than the surface grid has nodes.  The fan is therefore shot on
the coarsest of a fixed ladder of shooting grids whose spectral tail (the
top colatitude degrees and Fourier modes of x - p and v at the last sample)
is within the integrator's ``abs_tol``, and its samples of x - p and v stay
on that grid.  Refining costs a shot per grid tried; ``rhs_evals`` sums them
all.  A read whose shape is a :class:`~hawking_lab.harmonics.HarmonicField`
evaluates the shape on the shooting grid and interpolates there.  It is
accepted when its arclengths lie in the fan's range and its own spectral
tail passes the shots' test.  The read is itself a smooth field on the
sphere, so only its six fields are upsampled spectrally to the surface grid,
exactly for band-limited fields (the double Fourier sphere of Townsend,
Wilber and Wright, SIAM J. Sci. Comput. 2016).  A mass needs no upsampling:
the quadrature of a shooting grid that resolves the read integrates its
area and Willmore energy to rounding, so
:meth:`GeodesicFan.mass_surface` computes the geometry on the shooting grid
itself (the masses of a 48x96 surface grid to 7e-16 absolute, on every kind
at s_max = 0.21 and 0.84).  Every other read, and every read with node
values, interpolates the whole fan upsampled to the surface grid, which is
built once, on first use.

A fan builds an :class:`~hawking_lab.surface.EmbeddedSurface` along one
path: :meth:`GeodesicFan.read` interpolates positions and velocities and
differentiates the tangents, and :meth:`GeodesicFan.surface_from` completes
the read; :meth:`GeodesicFan.surface` does both, and a caller that measures
a read first (the optimizer's area solve) completes that same read.  A
caller that needs only the mass (a radius ladder's rungs) reads
:meth:`GeodesicFan.mass_surface`, whose ``grid`` is the shooting grid when
that grid holds the read.
:func:`sphere_reach` is the one place that checks a sphere family against
the injectivity bound and gives the arclength its fan must reach
(:func:`sphere_fan` shoots that fan).
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _dop853
from .errors import DomainError, DomainExit, PerturbationTooLarge, RadiusOutOfRange
from .harmonics import HarmonicField, synthesize
from .manifold import _dot3, curvature_packet, geodesic_acceleration, metric_action
from .surface import build_grid, extrinsic_geometry

__all__ = [
    "GeodesicConfig",
    "exp_map",
    "GeodesicFan",
    "sphere_reach",
    "sphere_fan",
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


# Chebyshev-Lobatto arclength samples per fan geodesic (module docstring)
_N_SAMPLES = 17
# colatitude counts of the shooting grids a fan tries before its surface grid
_SHOOTING_N_THETA = (12, 16, 24, 32)


def _integrate(metric, x0, v0, t_end, cfg, t_eval):
    """Integrate a stack of geodesics by DOP853 (:mod:`._dop853`).

    Returns the states ``[x, v]`` at the arclengths ``t_eval``, shape
    (len(t_eval), 2, n, 3), and the right-hand sides evaluated.  A
    right-hand side calls ``metric.acceleration`` where the metric has it and
    otherwise contracts ``metric.metric`` and ``metric.metric_deriv`` (module
    docstring).  Step ends must stay inside the chart (DomainExit), and the
    integration may use at most 16 ``max_steps`` right-hand sides (StepLimit,
    also on underflow).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    n = x0.shape[0]
    if not np.all(metric.domain_guard(x0)):
        raise DomainError("geodesic initial point outside the chart")

    # raw (unguarded) metric evaluation: trial stages may probe past the
    # margin, and only step ends are held to the chart
    acceleration = getattr(metric, "acceleration", None)
    if acceleration is None:
        def acceleration(x, v):
            return geodesic_acceleration(metric.metric(x), metric.metric_deriv(x), v)

    def rhs(t, y):
        x, v = y.reshape(2, n, 3)
        return np.concatenate([v.ravel(), acceleration(x, v).ravel()])

    def check(y):
        if np.min(metric.domain_margin(y[: 3 * n].reshape(n, 3))) < 0.0:
            raise DomainExit("a geodesic reached the chart boundary")

    states, n_evals = _dop853.integrate(
        rhs, np.concatenate([x0.ravel(), v0.ravel()]), t_end, t_eval,
        cfg.rel_tol, cfg.abs_tol, 16 * cfg.max_steps, check,
    )
    return states.reshape(states.shape[:-1] + (2, n, 3)), n_evals


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
    # the dense output at the last step's end, the end state to rounding
    states, _ = _integrate(metric, p[np.newaxis], v[np.newaxis], 1.0, cfg, [1.0])
    return states[0, 0, 0]


class GeodesicFan:
    """All radial geodesics from one centre, sampled for fast re-evaluation.

    The fan holds the unit-speed geodesics in the directions Theta of the
    nodes of its *shooting grid*, sampled on 17 Chebyshev-Lobatto arclength
    nodes in ``[0, s_max]`` (enough to reach the integrator's noise; module
    docstring), as x - p and v, shape (N_shot, 6, 17), and reads surfaces
    on the surface grid ``grid`` from them.

    The shooting grid is the first that resolves the geodesics: n_theta =
    12, 16, 24, 32 (those below the surface grid's n_theta, each with
    n_phi = min(2 n_theta, surface n_phi)), and last the surface grid
    itself.  A shot passes when the :meth:`SphereGrid.spectral_tail` of
    x - p and v at the last sample is at most ``cfg.abs_tol``, the
    integrator's own error scale.  ``shooting_grid`` is ``[n_theta, n_phi]``
    of the grid shot last, ``spectral_tail`` its tail, ``rhs_evals`` the
    right-hand-side evaluations summed over every shot, and ``speed_drift``
    the largest ``|g(v, v) - 1|`` over the last sample upsampled to the
    surface grid, so it also bounds the upsampling error.

    :meth:`read` takes a shape on the shooting grid when it can (module
    docstring), and :meth:`mass_surface` also computes the geometry there;
    otherwise each interpolates the fan's samples upsampled to the
    surface grid, ``_samples`` (N, 6, 17) of x and v, built on first use
    (as are ``positions_at``, ``velocities_at``, ``_positions`` and
    ``_velocities``, which read them).  Every upsampled position must pass
    ``metric.domain_guard``: DomainExit otherwise, as from the integrator's
    chart check, raised by the read or the samples that hold it.  An
    ``s_max`` that is not finite and positive raises DomainError, and a
    ``packet`` at any point but ``p`` ValueError.
    """

    def __init__(self, metric, p, grid, s_max, cfg=None, packet=None):
        if cfg is None:
            cfg = GeodesicConfig()
        self.metric = metric
        self.p = np.asarray(p, dtype=float)
        self.grid = grid
        self.s_max = float(s_max)
        if not 0.0 < self.s_max < np.inf:
            raise DomainError(
                f"fan arclength must be finite and positive, got {self.s_max!r}"
            )
        self.cfg = cfg
        if packet is None:
            packet = curvature_packet(metric, p)
        elif not np.array_equal(packet.point, self.p):
            raise ValueError(f"the packet is at {packet.point.tolist()}, not at the fan's centre")
        self.packet = packet

        k = np.arange(_N_SAMPLES)
        nodes = 0.5 * self.s_max * (1.0 - np.cos(np.pi * k / (_N_SAMPLES - 1)))
        nodes[0] = 0.0
        nodes[-1] = self.s_max
        self.rhs_evals = 0
        offset = np.concatenate([self.p, np.zeros(3)])
        coarse = (
            build_grid(n, min(2 * n, grid.n_phi))
            for n in _SHOOTING_N_THETA
            if n < grid.n_theta
        )
        for shot in itertools.chain(coarse, [grid]):
            # unit directions in the orthonormal frame of the packet
            directions = shot.unit @ packet.frame
            x0 = np.broadcast_to(self.p, (shot.n_nodes, 3))
            states, n_evals = _integrate(metric, x0, directions, self.s_max, cfg, t_eval=nodes)
            self.rhs_evals += n_evals
            # (N_shot, 6, M): [x - p, v] of each node over the arclength samples
            samples = np.concatenate([states[:, 0], states[:, 1]], axis=-1).transpose(1, 2, 0)
            samples -= offset[:, np.newaxis]
            self.spectral_tail = shot.spectral_tail(samples[..., -1])
            if self.spectral_tail <= cfg.abs_tol:
                break
        self.shooting_grid = [shot.n_theta, shot.n_phi]
        self._shot = shot
        self._nodes = nodes
        # node-major and contiguous, so a read contracts over contiguous rows
        self._shot_samples = np.ascontiguousarray(samples)
        w = np.ones(_N_SAMPLES)
        w[1::2] = -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
        self._bary_w = w

    def _upsampled(self, fields):
        """Fields [x - p, v] (N_shot, 6, ...) on the shooting grid as [x, v]
        on the surface grid, with every position held to the chart."""
        coarse = self._shot is not self.grid
        fields = self._shot.upsample(fields, self.grid) if coarse else fields.copy()
        fields[:, :3] += self.p.reshape((3,) + (1,) * (fields.ndim - 2))
        positions = np.moveaxis(fields[:, :3], 1, -1)
        if coarse and not np.all(self.metric.domain_guard(positions)):
            raise DomainExit("an upsampled fan geodesic left the chart")
        return fields

    @cached_property
    def _samples(self):
        """The samples [x, v] on the surface grid, (N, 6, M), upsampled from
        the shooting grid on first use."""
        return np.ascontiguousarray(self._upsampled(self._shot_samples))

    @property
    def _positions(self):
        return self._samples[:, :3].transpose(2, 0, 1)  # (M, N, 3)

    @property
    def _velocities(self):
        return self._samples[:, 3:].transpose(2, 0, 1)  # (M, N, 3)

    @cached_property
    def speed_drift(self):
        """Largest ``|g(v, v) - 1|`` over the last sample, upsampled alone to
        the surface grid, from the metric's action on the velocities
        (:func:`manifold.metric_action`); evaluated on first use, so a fan
        build reads the metric only in the integrator's right-hand side."""
        last = self._upsampled(self._shot_samples[..., -1])
        x, v = last[:, :3], last[:, 3:]
        speed_sq = _dot3(v, metric_action(self.metric, x).apply(v))
        return float(np.max(np.abs(speed_sq - 1.0)))

    def diagnostics(self):
        """Integrator statistics for reports: ``{rhs_evals, speed_drift,
        shooting_grid, spectral_tail}``."""
        return {
            "rhs_evals": self.rhs_evals,
            "speed_drift": self.speed_drift,
            "shooting_grid": self.shooting_grid,
            "spectral_tail": self.spectral_tail,
        }

    def shape_values(self, w, grid=None):
        """Node values on ``grid`` (the surface grid by default) of a shape:
        a :class:`~hawking_lab.harmonics.HarmonicField`, or node values on
        the surface grid, returned as they are."""
        if not isinstance(w, HarmonicField):
            return w
        return synthesize(w, self.grid if grid is None else grid)

    def _reaches(self, s):
        """Whether the per-node arclengths ``s`` lie within the sampled range."""
        return not (np.any(s < -1e-12) or np.any(s > self.s_max * (1.0 + 1e-12)))

    def _interpolate(self, s, rows=slice(None), samples=None):
        """The rows ``rows`` of ``samples`` (all six of the surface grid's
        [x, v] by default) at per-node arclengths ``s``, shape
        (N, len(rows))."""
        s = np.asarray(s, dtype=float)
        if not self._reaches(s):
            raise DomainError("arclength outside the sampled fan range")
        diff = s[:, np.newaxis] - self._nodes  # (N, M)
        exact = np.abs(diff) <= 1e-15 * max(1.0, self.s_max)
        hit = np.any(exact)
        if hit:
            diff = np.where(exact, 1.0, diff)
        w = self._bary_w / diff
        samples = (self._samples if samples is None else samples)[:, rows]
        out = np.einsum("ncm,nm->nc", samples, w) / np.sum(w, axis=1)[:, np.newaxis]
        if hit:
            node, sample = np.nonzero(exact)
            out[node] = samples[node, :, sample]
        return out

    def positions_at(self, s):
        """Chart positions at per-node arclengths ``s`` of shape (N,)."""
        return self._interpolate(s, slice(0, 3))

    def velocities_at(self, s):
        """Outward unit-speed geodesic velocities at per-node arclengths."""
        return self._interpolate(s, slice(3, 6))

    def _shot_read(self, rho, w):
        """[x - p, v] of the sphere of shape ``w`` at the shooting-grid
        nodes, or None when the shooting grid does not hold the read: a
        shape that is not a harmonic field, a shooting grid that is the
        surface grid, an arclength beyond the fan's range there, or a read
        whose spectral tail exceeds ``cfg.abs_tol``."""
        if not isinstance(w, HarmonicField) or self._shot is self.grid:
            return None
        s = rho * (1.0 - self.shape_values(w, self._shot))
        if not self._reaches(s):
            return None
        states = self._interpolate(s, samples=self._shot_samples)
        if self._shot.spectral_tail(states) > self.cfg.abs_tol:
            return None
        return states

    def read(self, rho, w):
        """Positions, coordinate tangents and outward geodesic velocities of
        the sphere Exp_p[rho (1 - w) Theta] for the shape ``w``: a
        :class:`~hawking_lab.harmonics.HarmonicField`, read on the shooting
        grid where it holds the read and upsampled (module docstring), or
        node values on the surface grid.  Positions and velocities share one
        set of barycentric weights."""
        states = self._shot_read(rho, w)
        if states is None:
            states = self._interpolate(rho * (1.0 - self.shape_values(w)))
        else:
            states = self._upsampled(states)
        positions = states[:, :3]
        return positions, surface_tangents(positions, self.grid), states[:, 3:]

    def surface_from(self, read):
        """The surface of a :meth:`read`, with its extrinsic geometry; the
        normal is oriented against the outward geodesic velocities.  A read
        may carry, fourth, the :func:`surface.induced_metric` already
        measured on it, which the geometry then starts from."""
        return extrinsic_geometry(self.metric, self.grid, *read)

    def surface(self, rho, w):
        """The surface Exp_p[rho (1 - w) Theta] for the shape ``w`` (a
        harmonic field or node values): its :meth:`read`, completed by
        :meth:`surface_from`."""
        return self.surface_from(self.read(rho, w))

    def mass_surface(self, rho, w):
        """The surface of :meth:`surface` on the grid its mass needs: the
        shooting grid, where that grid holds the read and every position
        there passes ``metric.domain_guard``, and otherwise the surface
        grid.  Its ``grid`` says which (module docstring)."""
        states = self._shot_read(rho, w)
        if states is not None:
            positions = states[:, :3] + self.p
            if np.all(self.metric.domain_guard(positions)):
                tangents = surface_tangents(positions, self._shot)
                return extrinsic_geometry(
                    self.metric, self._shot, positions, tangents, states[:, 3:]
                )
        return self.surface(rho, w)


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


def sphere_reach(metric, p, rho, w, grid):
    """Arclength a fan must reach for the sphere Exp_p[rho (1 - w) Theta].

    Checks ``|w| < 1`` and ``rho`` against the metric's injectivity bound
    (RadiusOutOfRange), then returns the largest radius ``rho (1 - w)``
    needs, with a relative margin of 1e-9.
    """
    w_values = _radial_w(w, grid)
    bound = metric.injectivity_bound(p)
    if rho > bound:
        raise RadiusOutOfRange(
            f"radius {rho} exceeds the injectivity bound {bound:.6g}"
        )
    return rho * float(np.max(1.0 - w_values)) * (1.0 + 1e-9)


def sphere_fan(metric, p, rho, w, grid, cfg=None, packet=None):
    """The :class:`GeodesicFan` that reaches the sphere Exp_p[rho (1 - w) Theta]
    (:func:`sphere_reach`)."""
    s_max = sphere_reach(metric, p, rho, w, grid)
    return GeodesicFan(metric, p, grid, s_max, cfg, packet=packet)


def surface_tangents(positions, grid):
    """Coordinate tangents Z_i = d(embedding)/d theta^i on the grid, by the
    grid's spectral angular derivatives."""
    return np.stack(grid.gradient(np.asarray(positions, dtype=float)), axis=1)


def geodesic_sphere_surface(metric, p, rho, w, grid, cfg=None, packet=None):
    """Full pipeline: shoot the fan of a perturbed geodesic sphere
    (:func:`sphere_fan`) and read the surface from it
    (:meth:`GeodesicFan.surface`)."""
    w_values = _radial_w(w, grid)
    fan = sphere_fan(metric, p, rho, w_values, grid, cfg, packet=packet)
    return fan.surface(rho, w_values)
