"""Real spherical-harmonic transforms, the shifted bilaplacian on the sphere,
its constrained inverse, the optimal graph perturbation and Euler-Lagrange
residuals of the area-constrained Willmore problem.

The real orthonormal basis is ordered by ``(l, m)`` with ``l`` ascending and
``m`` from ``-l`` to ``l``; the flat mode index is ``l*l + l + m``.  The
Laplace-Beltrami operator of the unit sphere acts as multiplication by
``-l(l+1)``, so the fourth-order operator used throughout acts as
``(-l(l+1)) * (-l(l+1) + 2)`` and annihilates exactly the degree-0 and
degree-1 modes.
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
    "willmore_el_operator",
    "willmore_el_residual",
    "willmore_first_variation",
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
    """Real orthonormal spherical harmonics at the grid nodes, (modes, N)."""
    from scipy.special import sph_harm_y

    key = (grid.n_theta, grid.n_phi, max_degree)
    if key in _BASIS_CACHE:
        return _BASIS_CACHE[key]
    theta = grid.theta1
    phi = grid.theta2
    rows = []
    for l in range(max_degree + 1):
        complex_rows = {
            m: sph_harm_y(l, m, theta, phi) for m in range(l + 1)
        }
        for m in range(-l, l + 1):
            if m == 0:
                rows.append(np.real(complex_rows[0]))
            elif m > 0:
                rows.append(np.sqrt(2.0) * (-1.0) ** m * np.real(complex_rows[m]))
            else:
                rows.append(np.sqrt(2.0) * (-1.0) ** m * np.imag(complex_rows[-m]))
    basis = np.array(rows)
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


def willmore_el_operator(surface, metric):
    """Left-hand side ``2 Lap_Sigma H + H (H^2 - 4 D + 2 Ric(N, N))`` of the
    area-constrained Willmore equation at the surface nodes, with the surface
    Laplacian assembled from the first fundamental form by the same angular
    derivatives used for the geometry."""
    H = surface.mean_curvature
    lap_h = surface.grid.surface_laplacian(H, surface.first_form, surface.area_element)
    return 2.0 * lap_h + _willmore_potential(surface, metric)


def least_squares_multiplier(surface, lhs):
    """The ``lam`` minimizing ``|| lhs - lam H ||_L2`` on the surface."""
    H = surface.mean_curvature
    return float(surface.integrate(lhs * H) / surface.integrate(H * H))


def willmore_el_residual(surface, metric, lam=None):
    """Pointwise residual of the area-constrained Willmore equation.

    Evaluates ``2 Lap_Sigma H + H (H^2 - 4 D + 2 Ric(N, N)) - lam H`` on the
    surface nodes (:func:`willmore_el_operator`).  Without ``lam`` the
    least-squares multiplier of the same assembly is used.
    """
    lhs = willmore_el_operator(surface, metric)
    if lam is None:
        lam = least_squares_multiplier(surface, lhs)
    return lhs - lam * surface.mean_curvature


def willmore_first_variation(surface, metric, speeds):
    """First variations of the Willmore energy and the area.

    ``speeds`` is a stack ``psi = g(V, N)`` of normal speeds, shape (N, K),
    of variations V of the node positions; N is the surface's stored inward
    normal, so a positive speed moves the surface inwards.  Returns
    ``(dW, dA)``, each of shape (K,), with

        dW = int [-2 <grad H, grad psi> + H (H^2 - 4 D + 2 Ric(N, N)) psi] dmu,
        dA = -int H psi dmu.

    dW is the integral of the Euler-Lagrange left-hand side
    (:func:`willmore_el_operator`) against psi with ``2 Lap H`` tested weakly,
    so no fourth derivative of the positions is formed.  Tangential parts of
    V only reparametrize the closed surface and do not contribute.
    """
    grid = surface.grid
    H = surface.mean_curvature
    dh = np.stack([grid.dtheta(H), grid.dphi(H)], axis=-1)                 # (N, 2)
    dpsi = np.stack([grid.dtheta(speeds), grid.dphi(speeds)], axis=1)
    grad_h = np.linalg.inv(surface.first_form) @ dh[:, :, np.newaxis]      # (N, 2, 1)
    gradient_term = np.sum(dpsi * grad_h, axis=1)                          # (N, K)
    potential = _willmore_potential(surface, metric)
    integrand = potential[:, np.newaxis] * speeds - 2.0 * gradient_term
    dmu = grid.weights * surface.area_element / grid.sin_theta
    return dmu @ integrand, -(dmu * H) @ speeds


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
