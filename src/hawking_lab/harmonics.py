"""Real spherical-harmonic transforms, the shifted bilaplacian on the sphere,
its constrained inverse, the optimal graph perturbation and the weak
Euler-Lagrange assembly of the area-constrained Willmore problem.

The real orthonormal basis is ordered by ``(l, m)`` with ``l`` ascending and
``m`` from ``-l`` to ``l``; the flat mode index is ``l*l + l + m``.  The
Laplace-Beltrami operator of the unit sphere acts as multiplication by
``-l(l+1)``, so the fourth-order operator used throughout acts as
``(-l(l+1)) * (-l(l+1) + 2)`` and annihilates exactly the degree-0 and
degree-1 modes.

The Euler-Lagrange left-hand side ``E = 2 Lap H + H (H^2 - 4 D + 2 Ric(N, N))``
is assembled once, weakly, as node densities (:func:`willmore_densities`;
Dziuk and Elliott, Acta Numerica 2013): summed against normal speeds they
give the optimizer's first variation, and tested against the real harmonics
of degree up to ``n_theta // 2`` they give the Galerkin residual and its
multiplier.  No fourth derivative of the positions is formed pointwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BandLimitExceeded
from .manifold import ricci_at
from .surface import SphereGrid

__all__ = [
    "HarmonicField",
    "analyze",
    "synthesize",
    "kernel_projection",
    "apply_bilaplacian_shifted",
    "solve_constrained",
    "OptimalPerturbation",
    "optimal_perturbation",
    "pde_residual",
    "willmore_densities",
    "galerkin_degree",
    "lagrange_multiplier_from_surface",
    "willmore_el_residual",
    "coefficients_to_csv",
]

_BASIS_CACHE = {}


def mode_index(l, m):
    """Flat index of the real mode (l, m)."""
    return l * l + l + m


def mode_degrees(max_degree):
    """Degree l of every flat mode up to the band limit."""
    return np.concatenate(
        [np.full(2 * l + 1, l, dtype=int) for l in range(max_degree + 1)]
    )


def _basis_matrix(grid, max_degree):
    """Real orthonormal spherical harmonics at the grid nodes, (modes, N).

    Mode (l, m) separates into the normalized associated Legendre function
    of order |m| on the colatitudes times 1, sqrt(2) (-1)^m cos(m phi) or
    sqrt(2) (-1)^m sin(|m| phi) on the longitudes.
    """
    from scipy.special import sph_legendre_p

    key = (grid.n_theta, grid.n_phi, max_degree)
    if key in _BASIS_CACHE:
        return _BASIS_CACHE[key]
    trig = {0: np.ones(grid.n_phi)}
    for m in range(1, max_degree + 1):
        trig[m], trig[-m] = np.cos(m * grid.phi_axis), np.sin(m * grid.phi_axis)
    basis = np.empty(((max_degree + 1) ** 2, grid.n_theta, grid.n_phi))
    for l in range(max_degree + 1):
        legendre = [sph_legendre_p(l, m, grid.theta_axis) for m in range(l + 1)]
        for m in range(-l, l + 1):
            row = basis[mode_index(l, m)]
            np.outer(legendre[abs(m)], trig[m], out=row)
            if m:
                row *= np.sqrt(2.0) * (-1.0) ** m
    basis = basis.reshape(-1, grid.n_nodes)
    _BASIS_CACHE[key] = basis
    return basis


@dataclass
class HarmonicField:
    """Band-limited real field on the sphere in coefficient representation."""

    max_degree: int
    coeffs: np.ndarray
    grid: SphereGrid

    def degree_of_mode(self):
        return mode_degrees(self.max_degree)

    def coefficient(self, l, m):
        return float(self.coeffs[mode_index(l, m)])

    def degree_energy(self):
        """l -> sum of squared coefficients at that degree."""
        degs = self.degree_of_mode()
        return np.array(
            [np.sum(self.coeffs[degs == l] ** 2) for l in range(self.max_degree + 1)]
        )

    def copy_with(self, coeffs):
        return HarmonicField(self.max_degree, np.asarray(coeffs, dtype=float), self.grid)


def analyze(values, grid, max_degree):
    """Project grid values onto the real orthonormal basis by quadrature."""
    if max_degree > grid.n_theta - 2:
        raise BandLimitExceeded(
            f"degree {max_degree} exceeds the grid band limit {grid.n_theta - 2}"
        )
    basis = _basis_matrix(grid, max_degree)
    coeffs = basis @ (grid.weights * np.asarray(values, dtype=float))
    return HarmonicField(max_degree, coeffs, grid)


def synthesize(field, grid=None):
    """Evaluate a harmonic field on grid nodes."""
    if grid is None:
        grid = field.grid
    basis = _basis_matrix(grid, field.max_degree)
    return basis.T @ field.coeffs


def kernel_projection(field):
    """Remove the degree-0 and degree-1 content (kernel of the operator)."""
    coeffs = field.coeffs.copy()
    coeffs[:4] = 0.0
    return field.copy_with(coeffs)


def _shifted_bilaplacian_eigenvalues(max_degree):
    l = mode_degrees(max_degree).astype(float)
    lap = -l * (l + 1.0)
    return lap * (lap + 2.0)


def apply_bilaplacian_shifted(field):
    """Apply Lap (Lap + 2) in coefficient space."""
    return field.copy_with(field.coeffs * _shifted_bilaplacian_eigenvalues(field.max_degree))


def solve_constrained(rhs):
    """Solve Lap (Lap + 2) w = P rhs with w orthogonal to the kernel.

    The kernel content of ``rhs`` is projected away first; degree-0/1
    coefficients of the solution are exactly zero.
    """
    eig = _shifted_bilaplacian_eigenvalues(rhs.max_degree)
    coeffs = rhs.coeffs.copy()
    coeffs[:4] = 0.0
    coeffs[4:] = coeffs[4:] / eig[4:]
    return rhs.copy_with(coeffs)


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
    ric = ricci_at(metric, surface.positions)
    ric_nn = np.einsum("nab,na,nb->n", ric, surface.normal, surface.normal)
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
    dh = np.stack([grid.dtheta(H), grid.dphi(H)], axis=-1)
    grad_h = np.einsum("nij,nj->ni", np.linalg.inv(surface.first_form), dh)
    flux = dmu[:, np.newaxis] * grad_h
    # the transpose of dphi is -dphi
    weak_lap = grid.dtheta_adjoint(flux[:, 0]) - grid.dphi(flux[:, 1])
    return dmu * _willmore_potential(surface, metric) - 2.0 * weak_lap, dmu * H


def galerkin_degree(grid):
    """Highest degree of the real harmonics the Euler-Lagrange residual is
    tested against: half the colatitude count, so that the round quadrature
    of an ``n_phi = 2 n_theta`` grid integrates products of two test
    functions exactly."""
    return grid.n_theta // 2


def _galerkin_fields(surface, metric):
    """Galerkin representatives ``r_E``, ``r_H`` of E and H, and the
    multiplier ``lam`` with ``int (r_E - lam r_H) H dmu = 0``.

    The test functions Y are orthonormal under the round quadrature, so the
    moments ``c = Y g`` of the weak densities synthesize to ``Y^T c`` on the
    round sphere; divided by the Jacobian ``dmu / dOmega`` they become node
    fields r with ``int r Y dmu = c``, and no Gram matrix of the surface
    measure is solved.
    """
    grid = surface.grid
    basis = _basis_matrix(grid, galerkin_degree(grid))
    fields = basis.T @ (basis @ np.column_stack(willmore_densities(surface, metric)))
    fields /= (surface.area_element / grid.sin_theta)[:, np.newaxis]
    r_e, r_h = fields.T
    H = surface.mean_curvature
    return r_e, r_h, surface.integrate(r_e * H) / surface.integrate(r_h * H)


def lagrange_multiplier_from_surface(surface, metric):
    """The multiplier that leaves the Galerkin residual L2-orthogonal to H."""
    return _galerkin_fields(surface, metric)[2]


def willmore_el_residual(surface, metric, lam=None):
    """Galerkin residual ``r_E - lam r_H`` of the area-constrained Willmore
    equation ``E - lam H = 0`` at the surface nodes, tested against the real
    harmonics of degree at most :func:`galerkin_degree`.  Without ``lam``
    the multiplier of :func:`lagrange_multiplier_from_surface` is used.
    """
    r_e, r_h, lam_h = _galerkin_fields(surface, metric)
    return r_e - (lam_h if lam is None else lam) * r_h


def coefficients_to_csv(field, path):
    """Write the (l, m, value) table of a harmonic field."""
    degs = field.degree_of_mode()
    with open(path, "w") as fh:
        fh.write("l,m,value\n")
        idx = 0
        for l in range(field.max_degree + 1):
            for m in range(-l, l + 1):
                fh.write(f"{l},{m},{field.coeffs[idx]:.17g}\n")
                idx += 1
