"""Quadrature grid on the unit sphere and extrinsic geometry of embedded
surfaces: fundamental forms, mean curvature, area, Willmore energy and the
(generalized) Hawking mass.

Grid layout
-----------
Colatitude nodes are Gauss-Legendre points in cos(theta1) (open at both
poles), longitude nodes are uniform.  Fields live on flattened arrays of
length ``n_theta * n_phi`` with node index ``i_theta * n_phi + i_phi``.
Angular derivatives are spectral: a Fourier transform in longitude, then per
Fourier mode a cosine or sine series in colatitude through the nodes.  A
smooth field satisfies f(-t, phi) = f(t, phi + pi) across the poles, so its
mode m continues as an even function of t when m is even and as an odd one
when m is odd (the double Fourier sphere of Townsend, Wilber and Wright,
SIAM J. Sci. Comput. 2016).  Polynomials of the unit vector of degree below
min(n_theta, n_phi / 2) are differentiated exactly.

Quadrature weights integrate against the measure ``d(cos theta) d(phi)``, so
surface integrals divide the area element sqrt(det g) by sin(theta1) before
applying the weights.

Per-node algebra
----------------
The metric enters only through its action at the nodes
(:func:`manifold.metric_action`): g Z_i, the normal g^{-1} (Z_1 x Z_2) and
((N.d)g) Z_i, in closed form on every kind but the polynomial perturbation,
which applies its assembled g component by component.  Dot products, the 2x2 forms and their inverses are written out component by
component over node arrays too: numpy's stacked ``matmul`` and ``inv`` run a
per-matrix inner loop on 3x3 and 2x2 blocks, which costs several times the
arithmetic at a few thousand nodes.

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

from .errors import DegenerateSurface, GridTooCoarse
from .manifold import _dot3, metric_action

__all__ = [
    "SphereGrid",
    "build_grid",
    "EmbeddedSurface",
    "first_form",
    "induced_metric",
    "extrinsic_geometry",
    "HawkingReport",
    "hawking_mass",
]


@dataclass(frozen=True)
class SphereGrid:
    """Tensor-product quadrature grid on the unit 2-sphere.  It keeps every
    table built from its nodes, its own and the harmonic basis, for its
    lifetime (:meth:`cached`)."""

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

    def _colatitude_series(self, target=None, derivative=False):
        """Matrices taking a Fourier mode's values at the colatitude nodes to
        its cosine series (even modes, k = 0..n_theta-1) and its sine series
        (odd modes, k = 1..n_theta): with ``target`` None the series
        coefficients, else the series' values at the colatitudes ``target``,
        or their d/d theta1 with ``derivative``.  Returns ``(even, odd)``."""
        k = np.arange(self.n_theta)
        series = []
        for kk, f, df in ((k, np.cos, lambda a: -np.sin(a)), (k + 1, np.sin, np.cos)):
            at_nodes = f(np.outer(self.theta_axis, kk))
            if target is None:
                series.append(np.linalg.inv(at_nodes))
                continue
            kt = np.outer(target, kk)
            at_target = kk * df(kt) if derivative else f(kt)
            series.append(np.linalg.solve(at_nodes.T, at_target.T).T)
        return tuple(series)

    def cached(self, key, build):
        """The grid's table ``key``, built by ``build()`` on first use and
        kept for the grid's lifetime."""
        if key not in self._diff_cache:
            self._diff_cache[key] = build()
        return self._diff_cache[key]

    def _theta_matrices(self):
        """d/d theta1 of the colatitude series through the nodes."""
        return self.cached(
            "theta", lambda: self._colatitude_series(self.theta_axis, derivative=True)
        )

    def _spectrum(self, values):
        """Fourier coefficients in theta2, shape (C, n_theta, n_phi // 2 + 1),
        and the trailing component shape of ``values``.  The components are
        moved to the front first, so each transform runs along a contiguous
        axis."""
        f2d = self.to_2d(np.asarray(values, dtype=float))
        flat = f2d.reshape(self.n_theta, self.n_phi, -1)
        return np.fft.rfft(np.moveaxis(flat, -1, 0), axis=-1), f2d.shape[2:]

    def _synthesis(self, spectrum, trail):
        """Node values (N,) + ``trail`` of a spectrum in the layout of
        :meth:`_spectrum`."""
        values = np.fft.irfft(spectrum, n=self.n_phi, axis=-1)
        return np.moveaxis(values, 0, -1).reshape((self.n_nodes,) + trail)

    def _theta_modes(self, values, even, odd):
        """Apply ``even`` to the even Fourier modes and ``odd`` to the odd ones."""
        spectrum, trail = self._spectrum(values)
        return self._synthesis(_by_parity(spectrum, even, odd), trail)

    def dtheta(self, values):
        """d/d theta1 of a smooth node field (any trailing component shape).

        Fourier mode m of a smooth field is even in theta1 for even m and
        odd for odd m, since f(-t, phi) = f(t, phi + pi); each mode is
        differentiated through the cosine or sine series it continues as.
        """
        return self._theta_modes(values, *self._theta_matrices())

    def dtheta_adjoint(self, values):
        """Transpose of :meth:`dtheta` under the plain node sum, so that
        ``sum(f * dtheta(u)) == sum(dtheta_adjoint(f) * u)``.  The Fourier
        projections are symmetric, so only the colatitude matrices transpose.
        """
        even, odd = self._theta_matrices()
        return self._theta_modes(values, even.T, odd.T)

    def _upsampling(self, fine):
        """The colatitude series at the fine colatitudes, ``(even, odd)``,
        and the longitude interpolation matrix (fine n_phi, n_phi) of
        :meth:`upsample`, built once per fine grid shape."""
        def build():
            even, odd = self._colatitude_series(fine.theta_axis)
            padded = np.fft.rfft(np.eye(self.n_phi), axis=0) * (fine.n_phi / self.n_phi)
            if fine.n_phi > self.n_phi:
                padded[-1] *= 0.5
            return even, odd, np.fft.irfft(padded, n=fine.n_phi, axis=0)

        return self.cached(("upsample", fine.n_theta, fine.n_phi), build)

    def upsample(self, values, fine):
        """A node field's values at the nodes of the grid ``fine``, which has
        at least as many colatitudes and longitudes.  Each Fourier mode's
        colatitude series is evaluated at the fine colatitudes, then every
        fine colatitude row is interpolated trigonometrically in longitude
        (the zero-padded spectrum, as one real matrix, with the Nyquist mode
        split between +m and -m).  Exact for fields band-limited to this
        grid."""
        spectrum, trail = self._spectrum(values)
        even, odd, lon = self._upsampling(fine)
        rows = np.fft.irfft(_by_parity(spectrum, even, odd), n=self.n_phi, axis=-1)
        rows = np.ascontiguousarray(np.moveaxis(rows, 0, -1))  # (fine n_theta, n_phi, C)
        return (lon @ rows).reshape((fine.n_nodes,) + trail)

    def spectral_tail(self, values):
        """Largest magnitude of a node field's series coefficients (Fourier
        in longitude, divided by n_phi, then cosine or sine in colatitude)
        over the top two colatitude degrees and the top two Fourier modes."""
        series = self.cached("series", self._colatitude_series)
        spectrum, _ = self._spectrum(values)
        coeffs = np.abs(_by_parity(spectrum, *series)) / self.n_phi
        return float(max(np.max(coeffs[:, -2:]), np.max(coeffs[..., -2:])))

    def dphi(self, values):
        """d/d theta2 of a node field (periodic).  The Nyquist mode's
        derivative is imaginary, and ``irfft`` drops it; what is left is an
        antisymmetric circulant, so its transpose is ``-dphi``."""
        spectrum, trail = self._spectrum(values)
        return self._synthesis(_phi_derivative(spectrum), trail)

    def gradient(self, values):
        """``(dtheta(values), dphi(values))`` from one forward and one
        inverse Fourier transform: both derivatives' spectra are stacked
        for the inverse."""
        spectrum, trail = self._spectrum(values)
        both = np.concatenate(
            [_by_parity(spectrum, *self._theta_matrices()), _phi_derivative(spectrum)]
        )
        values = self._synthesis(both, (2,) + trail)
        return values[:, 0], values[:, 1]


def _phi_derivative(spectrum):
    """d/d theta2 of a Fourier spectrum (C, n_theta, n_phi // 2 + 1)."""
    return spectrum * (1j * np.arange(spectrum.shape[-1]))


def _by_parity(spectrum, even, odd):
    """Apply the colatitude matrix ``even`` to the even Fourier modes of a
    spectrum (C, n_theta, n_phi // 2 + 1) and ``odd`` to the odd ones."""
    out = np.empty((spectrum.shape[0], even.shape[0], spectrum.shape[2]), dtype=complex)
    out[..., 0::2] = _real_matmul(even, spectrum[..., 0::2])
    out[..., 1::2] = _real_matmul(odd, spectrum[..., 1::2])
    return out


def _real_matmul(a, z):
    """``a @ z`` over the middle axis of ``z`` (C, n, M), for a real
    (possibly rectangular) matrix and a complex array, as one real product
    over every component on the (n, M, C) layout: a product per component
    would round differently."""
    z = np.ascontiguousarray(z.transpose(1, 2, 0))
    out = a @ z.view(float).reshape(z.shape[0], -1)
    return out.view(complex).reshape((a.shape[0],) + z.shape[1:]).transpose(2, 0, 1)


def build_grid(n_theta, n_phi):
    """Gauss-Legendre x uniform quadrature grid with tangent-frame data.

    Requires ``n_theta >= 8`` and even ``n_phi >= 16``; weights sum to 4 pi
    and the rule integrates spherical polynomials of degree
    min(2 n_theta - 1, n_phi - 1) exactly.
    """
    if n_theta < 8 or n_phi < 16:
        raise GridTooCoarse("need n_theta >= 8 and n_phi >= 16")
    if n_phi % 2:
        raise GridTooCoarse("n_phi must be even, so that every node's antipode is a node")
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
    ``outward`` the reference field the normal was oriented against (the
    outward geodesic velocities for a sphere read from a fan),
    ``first_form``/``second_form`` the per-node 2x2 matrices g_ij and h_ij,
    and ``area_element`` the scalar sqrt(det g_ij).
    """

    grid: SphereGrid
    positions: np.ndarray        # (N, 3)
    tangents: np.ndarray         # (N, 2, 3)
    normal: np.ndarray           # (N, 3)
    outward: np.ndarray          # (N, 3)
    first_form: np.ndarray       # (N, 2, 2)
    second_form: np.ndarray      # (N, 2, 2)
    mean_curvature: np.ndarray   # (N,)
    gauss_product: np.ndarray    # (N,) product of principal curvatures
    area_element: np.ndarray     # (N,)

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


def _sym2(a, b, c):
    """Per-node symmetric 2x2 matrices [[a, b], [b, c]], shape (N, 2, 2)."""
    return np.stack([a, b, b, c], axis=-1).reshape(-1, 2, 2)


def first_form(tangents, g_z):
    """Symmetrised first fundamental form g(Z_i, Z_j) and its determinant.

    ``g_z[n, i]`` holds the metric applied to the tangent Z_i, (N, 2, 3),
    in the layout of ``tangents``.  Raises DegenerateSurface where the form
    is singular.
    """
    z1, z2 = tangents[:, 0], tangents[:, 1]
    e = _dot3(z1, g_z[:, 0])
    f = 0.5 * (_dot3(z1, g_z[:, 1]) + _dot3(z2, g_z[:, 0]))
    gg = _dot3(z2, g_z[:, 1])
    det = e * gg - f * f
    if np.any(det <= 0.0):
        raise DegenerateSurface("first fundamental form is singular at a node")
    return _sym2(e, f, gg), det


def induced_metric(metric, positions, tangents):
    """``(g, g_z, form, det)`` at node positions (N, 3) with tangents
    (N, 2, 3): the metric's action g (:func:`manifold.metric_action`),
    ``g_z[n, i]`` = g Z_i (N, 2, 3), and the first fundamental form with its
    determinant (:func:`first_form`).  The area needs no more, and
    :func:`extrinsic_geometry` starts from it."""
    g = metric_action(metric, positions)
    g_z = np.stack([g.apply(tangents[:, 0]), g.apply(tangents[:, 1])], axis=1)
    return (g, g_z, *first_form(tangents, g_z))


def extrinsic_geometry(metric, grid, positions, tangents, outward, induced=None):
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
    induced : tuple, optional
        The :func:`induced_metric` of these positions and tangents, when the
        caller has already measured it; computed here otherwise.
    """
    positions = np.asarray(positions, dtype=float)
    tangents = np.asarray(tangents, dtype=float)
    z1, z2 = tangents[:, 0], tangents[:, 1]
    if induced is None:
        induced = induced_metric(metric, positions, tangents)
    g, g_z, first, det_first = induced

    # normal: g N is euclidean-orthogonal to Z_1, Z_2, so g N = cross / |.|,
    # g(N, N) = N . cross and g(N, outward) has the sign of cross . outward
    outward = np.asarray(outward, dtype=float)
    cross = np.cross(z1, z2)
    n_raw = g.solve(cross)
    normal = n_raw / np.sqrt(_dot3(n_raw, cross))[:, None]
    normal[_dot3(cross, outward) > 0.0] *= -1.0

    # h_ij = -g(d_i N, Z_j) - 1/2 Z_i . (N.d)g Z_j, symmetrised: the
    # Christoffel part of -g(D_i N, Z_j) (module docstring)
    dn1, dn2 = grid.gradient(normal)
    dg_n = g.along(normal)
    dg_z2 = dg_n(z2)
    h11 = -_dot3(dn1, g_z[:, 0]) - 0.5 * _dot3(z1, dg_n(z1))
    h22 = -_dot3(dn2, g_z[:, 1]) - 0.5 * _dot3(z2, dg_z2)
    h12 = -0.5 * (_dot3(dn1, g_z[:, 1]) + _dot3(dn2, g_z[:, 0]) + _dot3(z1, dg_z2))

    # trace and determinant of the shape operator first^{-1} second
    e, f, gg = first[:, 0, 0], first[:, 0, 1], first[:, 1, 1]
    mean = (gg * h11 - 2.0 * f * h12 + e * h22) / det_first
    gauss = (h11 * h22 - h12 * h12) / det_first
    return EmbeddedSurface(
        grid=grid,
        positions=positions,
        tangents=tangents,
        normal=normal,
        outward=outward,
        first_form=first,
        second_form=_sym2(h11, h12, h22),
        mean_curvature=mean,
        gauss_product=gauss,
        area_element=np.sqrt(det_first),
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


def hawking_mass(surface, K=0):
    """Hawking mass report of an embedded sphere.

    ``K`` in {-1, 0, +1} selects the cosmological normalization of the
    generalized mass, which subtracts ``4 K |Sigma|`` alongside the Willmore
    energy.
    """
    if K not in (-1, 0, 1):
        raise ValueError("K must be one of -1, 0, +1")
    area = surface.area
    willmore = surface.willmore_energy
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

