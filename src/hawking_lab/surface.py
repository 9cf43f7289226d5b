"""Quadrature grid on the unit sphere and extrinsic geometry of embedded
surfaces: fundamental forms, mean curvature, area, Willmore energy and the
(generalized) Hawking mass.

Grid layout
-----------
Colatitude nodes are Gauss-Legendre points in cos(theta1) (open at both
poles), longitude nodes are uniform.  Fields live on flattened arrays of
length ``n_theta * n_phi`` with node index ``i_theta * n_phi + i_phi``.
Angular derivatives use banded stencils of configurable order; across the
poles a field value at (-t, phi) is read from (t, phi + pi), which keeps
every stencil centred.

Quadrature weights integrate against the measure ``d(cos theta) d(phi)``, so
surface integrals divide the area element sqrt(det g) by sin(theta1) before
applying the weights.

Second fundamental form
-----------------------
h_ij = -g(D_i N, Z_j), symmetrised, needs no Christoffel symbols: the
Christoffel part of -g(D_i N, Z_j) is

    -1/2 [(Z_i.d)g(Z_j, N) - (Z_j.d)g(Z_i, N) + (N.d)g(Z_i, Z_j)],

whose first two terms are antisymmetric in i, j.  After symmetrisation only
-1/2 (N.d)g(Z_i, Z_j) remains, one contraction of the metric derivative.
"""

from dataclasses import dataclass, field

import numpy as np

from ._fd import stencil_weights
from .errors import DegenerateSurface, FitUnstable, GridTooCoarse
from .manifold import _solve_sym3, metric_at

__all__ = [
    "SphereGrid",
    "build_grid",
    "EmbeddedSurface",
    "extrinsic_geometry",
    "HawkingReport",
    "hawking_mass",
    "hawking_mass_from",
    "expansion_order_check",
    "ExpansionOrderReport",
    "surface_to_csv",
]


@dataclass(frozen=True)
class SphereGrid:
    """Tensor-product quadrature grid on the unit 2-sphere."""

    n_theta: int
    n_phi: int
    theta_axis: np.ndarray       # (n_theta,) colatitudes, ascending in (0, pi)
    phi_axis: np.ndarray         # (n_phi,) longitudes in [0, 2 pi)
    theta1: np.ndarray           # (N,) per-node colatitude
    theta2: np.ndarray           # (N,) per-node longitude
    unit: np.ndarray             # (N, 3) radial unit vector Theta
    theta_tangent: np.ndarray    # (N, 3) d Theta / d theta1
    phi_tangent: np.ndarray      # (N, 3) d Theta / d theta2 (norm sin theta1)
    weights: np.ndarray          # (N,) quadrature weights, sum 4 pi
    sin_theta: np.ndarray        # (N,)
    _diff_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_nodes(self):
        return self.n_theta * self.n_phi

    def integrate(self, values):
        """Quadrature of a scalar field against the round-sphere measure."""
        return float(np.sum(self.weights * np.asarray(values)))

    def to_2d(self, values):
        values = np.asarray(values)
        return values.reshape((self.n_theta, self.n_phi) + values.shape[1:])

    def _theta_weights(self, order):
        key = ("theta", order)
        if key not in self._diff_cache:
            p = order // 2
            t = self.theta_axis
            t_ext = np.concatenate([-t[p - 1 :: -1], t, 2.0 * np.pi - t[: -p - 1 : -1]])
            rows = np.zeros((self.n_theta, t_ext.size))
            for i in range(self.n_theta):
                sl = slice(i, i + 2 * p + 1)
                rows[i, sl] = stencil_weights(t_ext[sl], t[i], 1)
            self._diff_cache[key] = rows
        return self._diff_cache[key]

    def _phi_weights(self, order):
        key = ("phi", order)
        if key not in self._diff_cache:
            p = order // 2
            dphi = 2.0 * np.pi / self.n_phi
            offsets = np.arange(-p, p + 1)
            w = stencil_weights(offsets * dphi, 0.0, 1)
            self._diff_cache[key] = (offsets, w)
        return self._diff_cache[key]

    def _extend_theta(self, f2d, p, parity):
        half = self.n_phi // 2
        top = parity * np.roll(f2d[p - 1 :: -1], half, axis=1)
        bottom = parity * np.roll(f2d[: -p - 1 : -1], half, axis=1)
        return np.concatenate([top, f2d, bottom], axis=0)

    def dtheta(self, values, order=4, parity=1):
        """d/d theta1 of a node field (any trailing component shape).

        ``parity`` states how the field continues across the poles: +1 for
        fields even under the meridian continuation (f(-t, phi) =
        f(t, phi + pi)), such as plain scalars, -1 for odd ones, such as a
        previously taken theta derivative.  A product of two odd factors is
        even: the theta flux of a Laplacian, the area element (odd, like
        sin theta) times a theta derivative, continues with +1.  Getting this
        wrong corrupts the stencils nearest the poles only, which makes the
        bug easy to miss on integral quantities.
        """
        self._validate_order(order)
        f2d = self.to_2d(np.asarray(values, dtype=float))
        trail = f2d.shape[2:]
        ext = self._extend_theta(
            f2d.reshape(self.n_theta, self.n_phi, -1), order // 2, parity
        )
        rows = self._theta_weights(order)
        out = np.einsum("ie,ejc->ijc", rows, ext)
        return out.reshape((self.n_nodes,) + trail)

    def dphi(self, values, order=4):
        """d/d theta2 of a node field (periodic)."""
        self._validate_order(order)
        f2d = self.to_2d(np.asarray(values, dtype=float))
        trail = f2d.shape[2:]
        flat = f2d.reshape(self.n_theta, self.n_phi, -1)
        offsets, w = self._phi_weights(order)
        out = np.zeros_like(flat)
        for off, wk in zip(offsets, w):
            if wk != 0.0:
                out += wk * np.roll(flat, -off, axis=1)
        return out.reshape((self.n_nodes,) + trail)

    def surface_laplacian(self, values, first_form, area_element, order=4):
        """Laplace-Beltrami of a scalar field of the surface with metric
        ``first_form`` (per-node 2x2) and area element sqrt(det g).

        The area element continues across the poles as an odd function, like
        sin theta, and so does a theta derivative; their product, the theta
        component of the flux, is even, so the divergence stencil reads it
        with the plain parity +1.
        """
        df = np.stack([self.dtheta(values, order), self.dphi(values, order)], axis=-1)
        g_inv = np.linalg.inv(first_form)
        flux = area_element[:, None] * np.einsum("nij,nj->ni", g_inv, df)
        div = self.dtheta(flux[:, 0], order) + self.dphi(flux[:, 1], order)
        return div / area_element

    def _validate_order(self, order):
        if order % 2 or order < 2:
            raise ValueError("stencil order must be even and >= 2")
        if order + 1 > self.n_theta:
            raise GridTooCoarse("stencil wider than the theta grid")


def build_grid(n_theta, n_phi):
    """Gauss-Legendre x uniform quadrature grid with tangent-frame data.

    Requires ``n_theta >= 8`` and even ``n_phi >= 16``; weights sum to 4 pi
    and the rule integrates spherical polynomials of degree
    min(2 n_theta - 1, n_phi - 1) exactly.
    """
    if n_theta < 8 or n_phi < 16:
        raise GridTooCoarse("need n_theta >= 8 and n_phi >= 16")
    if n_phi % 2:
        raise GridTooCoarse("n_phi must be even (pole extension needs phi + pi)")
    x, glw = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x[::-1])          # ascending colatitude
    glw = glw[::-1]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi

    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    theta1 = tt.ravel()
    theta2 = pp.ravel()
    st, ct = np.sin(theta1), np.cos(theta1)
    sp_, cp = np.sin(theta2), np.cos(theta2)
    unit = np.stack([st * cp, st * sp_, ct], axis=-1)
    theta_tangent = np.stack([ct * cp, ct * sp_, -st], axis=-1)
    phi_tangent = np.stack([-st * sp_, st * cp, np.zeros_like(st)], axis=-1)
    weights = np.repeat(glw, n_phi) * (2.0 * np.pi / n_phi)
    return SphereGrid(
        n_theta=n_theta,
        n_phi=n_phi,
        theta_axis=theta,
        phi_axis=phi,
        theta1=theta1,
        theta2=theta2,
        unit=unit,
        theta_tangent=theta_tangent,
        phi_tangent=phi_tangent,
        weights=weights,
        sin_theta=st,
    )


# ---------------------------------------------------------------------------
# embedded surfaces
# ---------------------------------------------------------------------------

@dataclass
class EmbeddedSurface:
    """A discretized closed surface with its extrinsic geometry.

    ``tangents[n, i]`` is Z_i at node n, ``normal`` the inward unit normal,
    ``first_form``/``second_form`` the per-node 2x2 matrices g_ij and h_ij,
    and ``area_element`` the scalar sqrt(det g_ij).
    """

    grid: SphereGrid
    positions: np.ndarray        # (N, 3)
    tangents: np.ndarray         # (N, 2, 3)
    normal: np.ndarray           # (N, 3)
    first_form: np.ndarray       # (N, 2, 2)
    second_form: np.ndarray      # (N, 2, 2)
    mean_curvature: np.ndarray   # (N,)
    gauss_product: np.ndarray    # (N,) product of principal curvatures
    area_element: np.ndarray     # (N,)
    fd_order: int = 4

    def integrate(self, values):
        """Surface integral of a per-node scalar field."""
        g = self.grid
        return float(np.sum(g.weights * np.asarray(values) * self.area_element / g.sin_theta))

    @property
    def area(self):
        return self.integrate(np.ones(self.grid.n_nodes))

    @property
    def willmore_energy(self):
        return self.integrate(self.mean_curvature**2)


def extrinsic_geometry(metric, grid, positions, tangents, outward, fd_order=4):
    """Build an :class:`EmbeddedSurface` from node positions and tangents.

    Parameters
    ----------
    metric : MetricField
        Ambient metric.
    grid : SphereGrid
        Parametrizing grid.
    positions, tangents : ndarray
        Node positions (N, 3) and coordinate tangents (N, 2, 3).
    outward : ndarray
        Reference field (N, 3) pointing out of the enclosed region; the unit
        normal is oriented inward against it.
    fd_order : int
        Stencil order for the angular derivatives of the normal.
    """
    positions = np.asarray(positions, dtype=float)
    tangents = np.asarray(tangents, dtype=float)
    g = metric_at(metric, positions)
    z_cols = np.swapaxes(tangents, 1, 2)  # (N, 3, 2), columns Z_j
    g_z = g @ z_cols

    first = tangents @ g_z
    first = 0.5 * (first + np.swapaxes(first, 1, 2))
    det_first = first[:, 0, 0] * first[:, 1, 1] - first[:, 0, 1] ** 2
    if np.any(det_first <= 0.0):
        raise DegenerateSurface("first fundamental form is singular at a node")

    # normal: g N is euclidean-orthogonal to Z_1, Z_2, so g N = cross / |.|,
    # g(N, N) = N . cross and g(N, outward) has the sign of cross . outward
    cross = np.cross(tangents[:, 0], tangents[:, 1])
    n_raw = _solve_sym3(g, cross)
    normal = n_raw / np.sqrt(np.sum(n_raw * cross, axis=1))[:, None]
    normal[np.sum(cross * np.asarray(outward, dtype=float), axis=1) > 0.0] *= -1.0

    dn = np.stack(
        [grid.dtheta(normal, fd_order), grid.dphi(normal, fd_order)], axis=1
    )  # (N, 2, 3) partial derivatives of the normal components
    # symmetrised, the Christoffel part of -g(D_i N, Z_j) is
    # -1/2 (N.d)g(Z_i, Z_j) (module docstring); positions are guarded above
    dg = metric.metric_deriv(positions)
    dg_n = (normal[:, np.newaxis, :] @ dg.reshape(-1, 3, 9)).reshape(-1, 3, 3)
    second = -(dn @ g_z) - 0.5 * (tangents @ (dg_n @ z_cols))
    second = 0.5 * (second + np.swapaxes(second, 1, 2))

    # trace and determinant of the shape operator first^{-1} second
    mean = (
        first[:, 1, 1] * second[:, 0, 0]
        - 2.0 * first[:, 0, 1] * second[:, 0, 1]
        + first[:, 0, 0] * second[:, 1, 1]
    ) / det_first
    gauss = (second[:, 0, 0] * second[:, 1, 1] - second[:, 0, 1] ** 2) / det_first
    return EmbeddedSurface(
        grid=grid,
        positions=positions,
        tangents=tangents,
        normal=normal,
        first_form=first,
        second_form=second,
        mean_curvature=mean,
        gauss_product=gauss,
        area_element=np.sqrt(det_first),
        fd_order=fd_order,
    )


# ---------------------------------------------------------------------------
# Hawking mass
# ---------------------------------------------------------------------------

@dataclass
class HawkingReport:
    """Area, Willmore energy and Hawking masses of a closed surface."""

    area: float
    willmore: float
    hawking: float
    cosmological_sign: int
    generalized: float

    def as_dict(self):
        return {
            "area": self.area,
            "willmore": self.willmore,
            "hawking": self.hawking,
            "cosmological_sign": self.cosmological_sign,
            "generalized": self.generalized,
        }


def hawking_mass(surface, metric=None, K=0):
    """Hawking mass report of an embedded sphere.

    ``K`` in {-1, 0, +1} selects the cosmological normalization of the
    generalized mass, which subtracts ``4 K |Sigma|`` alongside the Willmore
    energy.  The ``metric`` argument is accepted for interface symmetry; all
    geometry is already stored on the surface.
    """
    return hawking_mass_from(surface.area, surface.willmore_energy, K)


def hawking_mass_from(area, willmore, K=0):
    """Hawking mass report from a surface's area and Willmore energy."""
    if K not in (-1, 0, 1):
        raise ValueError("K must be one of -1, 0, +1")
    prefactor = np.sqrt(area / (16.0 * np.pi) ** 3)
    hawking = prefactor * (16.0 * np.pi - willmore)
    generalized = prefactor * (16.0 * np.pi - willmore - 4.0 * K * area)
    return HawkingReport(
        area=area,
        willmore=willmore,
        hawking=float(hawking),
        cosmological_sign=int(K),
        generalized=float(generalized),
    )


def surface_to_csv(surface, path):
    """Write the plot-ready node table (theta1, theta2, x, y, z, H, dA)."""
    g = surface.grid
    da = g.weights * surface.area_element / g.sin_theta
    cols = np.column_stack(
        [
            g.theta1,
            g.theta2,
            surface.positions[:, 0],
            surface.positions[:, 1],
            surface.positions[:, 2],
            surface.mean_curvature,
            da,
        ]
    )
    with open(path, "w") as fh:
        fh.write("theta1,theta2,x,y,z,H,dA\n")
        for row in cols:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# expansion-order verification for the second fundamental form
# ---------------------------------------------------------------------------

@dataclass
class ExpansionOrderReport:
    radii: np.ndarray
    h_residuals: np.ndarray
    mean_curvature_residuals: np.ndarray
    order: float
    mean_curvature_order: float
    r_squared: float


def _sphere_metric_fields(grid):
    """Round metric of S^2, its inverse and derivative at the grid nodes."""
    st = grid.sin_theta
    ct = np.cos(grid.theta1)
    n = grid.n_nodes
    g = np.zeros((n, 2, 2))
    g[:, 0, 0] = 1.0
    g[:, 1, 1] = st**2
    g_inv = np.zeros_like(g)
    g_inv[:, 0, 0] = 1.0
    g_inv[:, 1, 1] = 1.0 / st**2
    dg = np.zeros((n, 2, 2, 2))  # dg[n, l, i, j] = d_l g_ij
    dg[:, 0, 1, 1] = 2.0 * st * ct
    return g, g_inv, dg


def _sphere_hessian(grid, w, order):
    """Covariant Hessian of a scalar on the round S^2 (per-node 2x2).

    The repeated theta derivative acts on an odd-continuing field, so it
    runs with flipped pole parity.
    """
    w1 = grid.dtheta(w, order)
    w2 = grid.dphi(w, order)
    st = grid.sin_theta
    ct = np.cos(grid.theta1)
    cot = ct / st
    h = np.empty((grid.n_nodes, 2, 2))
    h[:, 0, 0] = grid.dtheta(w1, order, parity=-1)
    h[:, 0, 1] = h[:, 1, 0] = grid.dphi(w1, order) - cot * w2
    h[:, 1, 1] = grid.dphi(w2, order) + st * ct * w1
    return h


def _theta_second_derivatives(grid):
    """Second derivatives of the embedding Theta (coordinate expressions)."""
    st = grid.sin_theta
    ct = np.cos(grid.theta1)
    cot = ct / st
    t11 = -grid.unit
    t12 = cot[:, None] * grid.phi_tangent
    t22 = -(st * ct)[:, None] * grid.theta_tangent - (st**2)[:, None] * grid.unit
    return t11, t12, t22


def _curvature_sphere_fields(packet, grid):
    """Radial curvature couplings on the parameter sphere.

    Returns ``q[n, i, j] = g(R(Theta, Theta_i) Theta, Theta_j)`` and its
    angular derivatives ``dq[n, k, i, j]``, built from the frame Riemann
    tensor at the centre point.
    """
    n = grid.n_nodes
    rm = packet.riemann
    theta = grid.unit
    tang = np.stack([grid.theta_tangent, grid.phi_tangent], axis=1)  # (N, 2, 3)

    def q_form(A, B):
        # g(R(Theta, A) Theta, B) = -Rm(Theta, A, Theta, B) in this convention
        return -np.einsum("abcd,na,nb,nc,nd->n", rm, theta, A, theta, B)

    q = np.empty((n, 2, 2))
    for i in range(2):
        for j in range(2):
            q[:, i, j] = q_form(tang[:, i], tang[:, j])

    t11, t12, t22 = _theta_second_derivatives(grid)
    second_tang = {(0, 0): t11, (0, 1): t12, (1, 0): t12, (1, 1): t22}

    dq = np.empty((n, 2, 2, 2))  # (node, k, i, j) = d_k q_ij
    for k in range(2):
        for i in range(2):
            for j in range(2):
                dq[:, k, i, j] = -(
                    np.einsum(
                        "abcd,na,nb,nc,nd->n", rm, tang[:, k], tang[:, i], theta, tang[:, j]
                    )
                    + np.einsum(
                        "abcd,na,nb,nc,nd->n",
                        rm, theta, second_tang[(i, k)], theta, tang[:, j],
                    )
                    + np.einsum(
                        "abcd,na,nb,nc,nd->n", rm, theta, tang[:, i], tang[:, k], tang[:, j]
                    )
                    + np.einsum(
                        "abcd,na,nb,nc,nd->n",
                        rm, theta, tang[:, i], theta, second_tang[(j, k)],
                    )
                )
    return q, dq


def truncated_second_form(packet, grid, w, rho, order=4):
    """Second fundamental form of a perturbed geodesic sphere, truncated at
    cubic order in the radius, assembled from curvature at the centre.

    ``w`` holds the graph-function values on the grid; the curvature data is
    read from the packet's orthonormal frame, matching the frame used to
    shoot the sphere's geodesics.
    """
    n = grid.n_nodes
    w = np.asarray(w, dtype=float)
    g, g_inv, dg = _sphere_metric_fields(grid)
    w_i = np.stack([grid.dtheta(w, order), grid.dphi(w, order)], axis=-1)  # (N, 2)
    hess_w = _sphere_hessian(grid, w, order)
    q, dq = _curvature_sphere_fields(packet, grid)

    wk_up = np.einsum("nkl,nk->nl", g_inv, w_i)
    grad_sq = np.einsum("nl,nl->n", wk_up, w_i)
    one_minus = 1.0 - w

    h = g * (one_minus * rho)[:, None, None]
    h = h + hess_w * rho
    # quadratic gradient terms collapse to 2 w_i w_j - g_ij |grad w|^2 / 2
    h = h + (
        2.0 * np.einsum("ni,nj->nij", w_i, w_i)
        - 0.5 * g * grad_sq[:, None, None]
    ) * rho
    h = h + (2.0 / 3.0) * q * (one_minus**3 * rho**3)[:, None, None]
    # (1/6) w_k g^{kn} Q_nm g^{ml} (d_i g_jl + d_j g_il - d_l g_ij) rho^3
    qmix = np.einsum("nk,nkl->nl", w_i, np.linalg.solve(g, q) @ g_inv)
    term5 = np.zeros((n, 2, 2))
    term6 = np.zeros((n, 2, 2))
    for i in range(2):
        for j in range(2):
            for l in range(2):
                term5[:, i, j] += qmix[:, l] * (
                    dg[:, i, j, l] + dg[:, j, i, l] - dg[:, l, i, j]
                )
                term6[:, i, j] += wk_up[:, l] * (
                    dq[:, i, j, l] + dq[:, j, i, l] - dq[:, l, i, j]
                )
    h = h + (term5 / 6.0 - term6 / 6.0) * rho**3
    return h


def truncated_mean_curvature(packet, grid, w, rho, order=4):
    """Mean curvature of a perturbed geodesic sphere through linear order in
    the radius (the curvature-gradient corrections enter at quadratic order
    and are not reproduced here)."""
    n = grid.n_nodes
    w = np.asarray(w, dtype=float)
    g, g_inv, dg = _sphere_metric_fields(grid)
    w_i = np.stack([grid.dtheta(w, order), grid.dphi(w, order)], axis=-1)
    hess_w = _sphere_hessian(grid, w, order)
    lap_w = np.einsum("nij,nij->n", g_inv, hess_w)
    q, dq = _curvature_sphere_fields(packet, grid)

    theta = grid.unit
    ric_tt = np.einsum("ab,na,nb->n", packet.ricci, theta, theta)
    wk_up = np.einsum("nkl,nk->nl", g_inv, w_i)
    qmix = np.einsum("nk,nkl->nl", w_i, np.linalg.solve(g, q) @ g_inv)

    H = (2.0 + 2.0 * w + lap_w + 2.0 * w * (w + lap_w)) / rho
    term_a = np.zeros(n)
    term_b = np.zeros(n)
    for i in range(2):
        for j in range(2):
            gij = g_inv[:, i, j]
            for l in range(2):
                term_a += gij * qmix[:, l] * (
                    dg[:, i, j, l] + dg[:, j, i, l] - dg[:, l, i, j]
                )
                term_b += gij * wk_up[:, l] * (
                    dq[:, i, j, l] + dq[:, j, i, l] - dq[:, l, i, j]
                )
    H = H + (term_a - term_b) / 6.0 * rho
    qhess = np.einsum("nij,nij->n", np.linalg.solve(g, q) @ g_inv, hess_w)
    H = H - (1.0 / 3.0) * qhess * rho
    H = H - (1.0 / 3.0) * ric_tt * (1.0 - w) * rho
    return H


def expansion_order_check(metric, p, w_values_fn, radii, grid, cfg=None, fd_order=4):
    """Measure the convergence order of the numerical second fundamental form
    against its cubic-order truncation on a shrinking radius ladder.

    ``w_values_fn(rho)`` must return the graph-function values for the given
    radius (use ``lambda rho: np.zeros(grid.n_nodes)`` for geodesic spheres).
    Returns an :class:`ExpansionOrderReport` whose ``order`` is the log-log
    slope of the max-norm residual; a slope regression with R^2 < 0.99 raises
    FitUnstable unless the residuals sit at rounding level.
    """
    from .geodesics import GeodesicConfig, geodesic_sphere_surface
    from .manifold import curvature_packet

    radii = np.asarray(radii, dtype=float)
    if radii.size < 5:
        raise ValueError("need at least five radii")
    if cfg is None:
        cfg = GeodesicConfig()
    packet = curvature_packet(metric, p)

    h_res = np.empty(radii.size)
    mc_res = np.empty(radii.size)
    for k, rho in enumerate(radii):
        w = np.asarray(w_values_fn(rho), dtype=float)
        surf = geodesic_sphere_surface(
            metric, p, rho, w, grid, cfg, fd_order=fd_order, packet=packet
        )
        h_trunc = truncated_second_form(packet, grid, w, rho, order=fd_order)
        mc_trunc = truncated_mean_curvature(packet, grid, w, rho, order=fd_order)
        h_res[k] = np.max(np.abs(surf.second_form - h_trunc))
        mc_res[k] = np.max(np.abs(surf.mean_curvature - mc_trunc))

    order, r2 = _loglog_slope(radii, h_res)
    mc_order, _ = _loglog_slope(radii, mc_res)
    if np.isfinite(order) and r2 < 0.99:
        raise FitUnstable(f"order regression too noisy (R^2 = {r2:.4f})")
    return ExpansionOrderReport(
        radii=radii,
        h_residuals=h_res,
        mean_curvature_residuals=mc_res,
        order=order,
        mean_curvature_order=mc_order,
        r_squared=r2,
    )


def _loglog_slope(radii, residuals):
    mask = residuals > 1e-14
    if mask.sum() < 3:
        return np.inf, 1.0
    x = np.log(radii[mask])
    y = np.log(residuals[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = np.sum((y - fit) ** 2)
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r2)
