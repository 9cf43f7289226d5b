"""Real spherical-harmonic transforms, the shifted bilaplacian on the sphere,
the optimal graph perturbation and its PDE, and the weak Euler-Lagrange
assembly of the area-constrained Willmore problem.

The real orthonormal basis is ordered by ``(l, m)`` with ``l`` ascending and
``m`` from ``-l`` to ``l``; the flat mode index is ``l*l + l + m``.  The
Laplace-Beltrami operator of the unit sphere acts as multiplication by
``-l(l+1)``, so the fourth-order operator used throughout acts as
``(-l(l+1)) * (-l(l+1) + 2)`` and annihilates exactly the degree-0 and
degree-1 modes.

Mode (l, m) is a Legendre function of order |m| in colatitude times 1,
sqrt(2) cos(m phi) or sqrt(2) sin(|m| phi), so :func:`project` and
:func:`expand` run as one longitude sum per order and one colatitude sum per
mode (Schaeffer, G^3 2013).  They build these factors on every call; a
caller that transforms several fields on one grid within one call (the
Galerkin residual, the optimizer's search) builds them once and passes them
to ``_project`` and ``_expand``.  No basis matrix is formed and nothing is
cached.

The Euler-Lagrange left-hand side ``E = 2 Lap H + H (H^2 - 4 D + 2 Ric(N, N))``
is assembled once, weakly, as node densities (:func:`willmore_densities`;
Dziuk and Elliott, Acta Numerica 2013): summed against normal speeds they
give the optimizer's first variation, and tested against the real harmonics
of degree up to :func:`galerkin_degree` they give the Galerkin residual and
its multiplier.  No fourth derivative of the positions is formed pointwise.
``Ric(N, N)`` comes from :func:`manifold.ricci_along` at the nodes, the
closed form of the metric kind where it has one, so no Ricci tensor is
assembled along the surface.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BandLimitExceeded
from .manifold import ricci_along
from .surface import SphereGrid

__all__ = [
    "HarmonicField",
    "project",
    "expand",
    "analyze",
    "synthesize",
    "apply_bilaplacian_shifted",
    "OptimalPerturbation",
    "optimal_perturbation",
    "pde_residual",
    "willmore_densities",
    "galerkin_degree",
    "lagrange_multiplier_from_surface",
    "willmore_el_residual",
]

def mode_index(l, m):
    """Flat index of the real mode (l, m)."""
    return l * l + l + m


def mode_degrees(max_degree):
    """Degree l of every flat mode up to the band limit."""
    return np.concatenate(
        [np.full(2 * l + 1, l, dtype=int) for l in range(max_degree + 1)]
    )


def _legendre_table(theta, max_degree):
    """Orthonormal associated Legendre functions at the colatitudes ``theta``,
    without the Condon-Shortley phase: ``table[l, m]`` for 0 <= m <= l, zero
    for m > l, shape (max_degree + 1, max_degree + 1, len(theta)).

    The sectoral P_m^m = sqrt((2m + 1) / (2m)) sin(theta) P_{m-1}^{m-1} seed
    the three-term recurrence in l, run for every order at once:
    P_l^m = a_lm (cos(theta) P_{l-1}^m - b_lm P_{l-2}^m), with
    a_lm = sqrt((4l^2 - 1) / (l^2 - m^2)) and
    b_lm = sqrt(((l - 1)^2 - m^2) / (4 (l - 1)^2 - 1)).
    """
    x, y = np.cos(theta), np.sin(theta)
    m = np.arange(max_degree + 1)
    table = np.zeros((max_degree + 1, max_degree + 1, theta.size))
    table[0, 0] = 1.0 / np.sqrt(4.0 * np.pi)
    for k in m[1:]:
        table[k, k] = np.sqrt((2 * k + 1) / (2 * k)) * y * table[k - 1, k - 1]
    for l in m[1:]:
        mm = m[:l, np.newaxis]
        a = np.sqrt((4 * l * l - 1) / (l * l - mm * mm))
        table[l, :l] = a * x * table[l - 1, :l]
        if l > 1:
            b = np.sqrt(((l - 1) ** 2 - mm * mm) / (4 * (l - 1) ** 2 - 1))
            table[l, :l] -= a * b * table[l - 2, :l]
    return table


def _longitude_rows(phi, max_degree):
    """Longitude factors of the real basis, row ``m + max_degree`` for order m:
    1, sqrt(2) cos(m phi) or sqrt(2) sin(|m| phi)."""
    m = np.arange(-max_degree, max_degree + 1)[:, np.newaxis]
    rows = np.sqrt(2.0) * np.where(m < 0, np.sin(-m * phi), np.cos(m * phi))
    rows[max_degree] = 1.0
    return rows


def _tables(grid, max_degree):
    """The colatitude and longitude factors of the real basis on ``grid``
    (:func:`_legendre_table`, :func:`_longitude_rows`)."""
    return (
        _legendre_table(grid.theta_axis, max_degree),
        _longitude_rows(grid.phi_axis, max_degree),
    )


def project(values, grid, max_degree):
    """``Y @ values`` for the real orthonormal harmonics Y of degree at most
    ``max_degree`` at the nodes, unweighted, for values (N,) or (N, C): one
    longitude sum per order, then one colatitude sum per mode."""
    return _project(values, grid, max_degree, _tables(grid, max_degree))


def _project(values, grid, max_degree, tables):
    """:func:`project` with the basis factors ``tables`` of :func:`_tables`."""
    values = np.asarray(values, dtype=float)
    legendre, rows = tables
    f = values.reshape(grid.n_theta, grid.n_phi, -1)
    sums = rows @ f  # (n_theta, orders, C)
    coeffs = np.empty(((max_degree + 1) ** 2, f.shape[2]))
    for m in range(-max_degree, max_degree + 1):
        l = np.arange(abs(m), max_degree + 1)
        coeffs[mode_index(l, m)] = legendre[abs(m):, abs(m)] @ sums[:, m + max_degree]
    return coeffs.reshape((-1,) + values.shape[1:])


def expand(coeffs, grid, max_degree):
    """``Y.T @ coeffs``, the transpose of :func:`project`: node values of the
    expansion with coefficients (modes,) or (modes, C)."""
    return _expand(coeffs, grid, max_degree, _tables(grid, max_degree))


def _expand(coeffs, grid, max_degree, tables):
    """:func:`expand` with the basis factors ``tables`` of :func:`_tables`."""
    coeffs = np.asarray(coeffs, dtype=float)
    legendre, rows = tables
    c = coeffs.reshape(coeffs.shape[0], -1)
    sums = np.empty((grid.n_theta, 2 * max_degree + 1, c.shape[1]))
    for m in range(-max_degree, max_degree + 1):
        l = np.arange(abs(m), max_degree + 1)
        sums[:, m + max_degree] = legendre[abs(m):, abs(m)].T @ c[mode_index(l, m)]
    values = rows.T @ sums
    return values.reshape((grid.n_nodes,) + coeffs.shape[1:])


@dataclass
class HarmonicField:
    """Band-limited real field on the sphere in coefficient representation."""

    max_degree: int
    coeffs: np.ndarray
    grid: SphereGrid

    def degree_of_mode(self):
        return mode_degrees(self.max_degree)

    def copy_with(self, coeffs):
        return HarmonicField(self.max_degree, np.asarray(coeffs, dtype=float), self.grid)


def _check_band_limit(max_degree, grid, name="degree"):
    """Raise :class:`BandLimitExceeded`, naming ``name``, when ``max_degree``
    is above the band limit ``min(n_theta - 2, n_phi // 2 - 1)`` of ``grid``."""
    limit = min(grid.n_theta - 2, grid.n_phi // 2 - 1)
    if max_degree > limit:
        raise BandLimitExceeded(
            f"{name} {max_degree} exceeds the grid band limit {limit}"
        )


def analyze(values, grid, max_degree):
    """Project grid values onto the real orthonormal basis by quadrature."""
    _check_band_limit(max_degree, grid)
    coeffs = project(grid.weights * np.asarray(values, dtype=float), grid, max_degree)
    return HarmonicField(max_degree, coeffs, grid)


def synthesize(field, grid=None):
    """Evaluate a harmonic field on grid nodes."""
    if grid is None:
        grid = field.grid
    return expand(field.coeffs, grid, field.max_degree)


def _shifted_bilaplacian_eigenvalues(max_degree):
    l = mode_degrees(max_degree).astype(float)
    lap = -l * (l + 1.0)
    return lap * (lap + 2.0)


def apply_bilaplacian_shifted(field):
    """Apply Lap (Lap + 2) in coefficient space."""
    return field.copy_with(field.coeffs * _shifted_bilaplacian_eigenvalues(field.max_degree))


# ---------------------------------------------------------------------------
# the optimal perturbation and its PDE
# ---------------------------------------------------------------------------

@dataclass
class OptimalPerturbation:
    """Leading-order optimal graph perturbation at a point.

    ``wbar`` is the radius-independent shape (pure degree-0/2 content with
    vanishing mean, hence pure degree 2); the graph function at radius rho is
    ``rho^2 * wbar``.  ``lam`` is the area-constraint Lagrange multiplier
    2 Sc(p) / 3.
    """

    wbar: HarmonicField
    lam: float

    def wbar_values(self, grid=None):
        return synthesize(self.wbar, grid)

    def w_values(self, rho, grid=None):
        """Graph-function values rho^2 * wbar on the grid."""
        return rho**2 * self.wbar_values(grid)

    def w_field(self, rho):
        return self.wbar.copy_with(rho**2 * self.wbar.coeffs)


def ricci_direction_field(packet, grid):
    """Ric(Theta, Theta) on the grid, with Theta in the packet frame."""
    return np.einsum("ab,na,nb->n", packet.ricci, grid.unit, grid.unit)


def optimal_perturbation(packet, grid, max_degree=4):
    """Closed-form optimal perturbation ``wbar = -Ric(Theta,Theta)/6 + Sc/18``.

    Returns the spectral representation (band-limited at ``max_degree`` so
    tests can assert the absence of spurious content) together with the
    Lagrange multiplier ``2 Sc / 3``.
    """
    values = -ricci_direction_field(packet, grid) / 6.0 + packet.scalar / 18.0
    wbar = analyze(values, grid, max_degree)
    return OptimalPerturbation(wbar=wbar, lam=2.0 * packet.scalar / 3.0)


def pde_residual(packet, wbar, grid=None):
    """Spectral residual of the optimality PDE for ``wbar``.

    Compares Lap(Lap+2) wbar against the source
    ``(1/3) Lap Ric(Theta,Theta) - 2 Ric(Theta,Theta) + lam`` with
    ``lam = 2 Sc / 3``, all in coefficient space.
    """
    if grid is None:
        grid = wbar.grid
    lhs = apply_bilaplacian_shifted(wbar).coeffs
    ric_field = ricci_direction_field(packet, grid)
    ric_hat = analyze(ric_field, grid, wbar.max_degree)
    l = mode_degrees(wbar.max_degree).astype(float)
    lap = -l * (l + 1.0)
    rhs = lap * ric_hat.coeffs / 3.0 - 2.0 * ric_hat.coeffs
    lam = 2.0 * packet.scalar / 3.0
    rhs[0] += lam * np.sqrt(4.0 * np.pi)
    return float(np.linalg.norm(lhs - rhs))


def _willmore_potential(surface, metric):
    """Zeroth-order part ``H (H^2 - 4 D + 2 Ric(N, N))`` of the Willmore
    first variation at the surface nodes."""
    H = surface.mean_curvature
    ric_nn = ricci_along(metric, surface.positions, surface.normal)
    return H * (H**2 - 4.0 * surface.gauss_product + 2.0 * ric_nn)


def willmore_densities(surface, metric):
    """Node densities ``(g_E, g_H)`` of the area-constrained Willmore first
    variation: for every node field psi,

        sum(g_E psi) = int [-2 <grad H, grad psi> + H (H^2 - 4 D + 2 Ric(N, N)) psi] dmu,
        sum(g_H psi) = int H psi dmu,

    that is ``int E psi dmu`` with ``2 Lap H`` tested weakly: the derivatives
    of psi move onto the adjoint angular derivatives, so H is differentiated
    once.  For the normal speeds ``psi = g(V, N)`` of a variation V of the
    nodes (N is the stored inward normal, so a positive speed moves the
    surface inwards) the Willmore energy and the area vary by ``psi @ g_E``
    and ``-psi @ g_H``; tangential parts of V only reparametrize the surface.
    """
    grid = surface.grid
    H = surface.mean_curvature
    dmu = grid.weights * surface.area_element / grid.sin_theta
    dh1, dh2 = grid.gradient(H)
    # the flux dmu g^{ij} d_j H, by the 2x2 inverse written out
    first = surface.first_form
    e, f, gg = first[:, 0, 0], first[:, 0, 1], first[:, 1, 1]
    scale = dmu / (e * gg - f * f)
    # the transpose of dphi is -dphi
    weak_lap = grid.dtheta_adjoint(scale * (gg * dh1 - f * dh2)) - grid.dphi(
        scale * (e * dh2 - f * dh1)
    )
    return dmu * _willmore_potential(surface, metric) - 2.0 * weak_lap, dmu * H


def galerkin_degree(grid):
    """Highest degree L of the real harmonics the Euler-Lagrange residual is
    tested against: half the colatitude count, and at most
    ``n_phi // 2 - 1`` so that the uniform longitudes integrate the
    frequency-2L products of two test functions exactly."""
    return min(grid.n_theta // 2, grid.n_phi // 2 - 1)


def _galerkin_fields(surface, densities):
    """Galerkin representatives ``r_E``, ``r_H`` of E and H, and the
    multiplier ``lam`` with ``int (r_E - lam r_H) H dmu = 0``, from the
    surface's weak densities ``(g_E, g_H)`` (:func:`willmore_densities`).

    The test functions Y are orthonormal under the round quadrature, so the
    moments ``c = Y g`` of the weak densities synthesize to ``Y^T c`` on the
    round sphere; divided by the Jacobian ``dmu / dOmega`` they become node
    fields r with ``int r Y dmu = c``, and no Gram matrix of the surface
    measure is solved.  One set of basis factors serves both transforms.
    """
    grid = surface.grid
    L = galerkin_degree(grid)
    tables = _tables(grid, L)
    fields = _expand(_project(np.column_stack(densities), grid, L, tables), grid, L, tables)
    fields /= (surface.area_element / grid.sin_theta)[:, np.newaxis]
    r_e, r_h = fields.T
    H = surface.mean_curvature
    return r_e, r_h, surface.integrate(r_e * H) / surface.integrate(r_h * H)


def _galerkin_residual(surface, densities, lam=None):
    """:func:`willmore_el_residual` from the surface's weak densities."""
    r_e, r_h, lam_h = _galerkin_fields(surface, densities)
    return r_e - (lam_h if lam is None else lam) * r_h


def lagrange_multiplier_from_surface(surface, metric):
    """The multiplier that leaves the Galerkin residual L2-orthogonal to H."""
    return _galerkin_fields(surface, willmore_densities(surface, metric))[2]


def willmore_el_residual(surface, metric, lam=None):
    """Galerkin residual ``r_E - lam r_H`` of the area-constrained Willmore
    equation ``E - lam H = 0`` at the surface nodes, tested against the real
    harmonics of degree at most :func:`galerkin_degree`.  Without ``lam``
    the multiplier of :func:`lagrange_multiplier_from_surface` is used.
    """
    return _galerkin_residual(surface, willmore_densities(surface, metric), lam)

