"""Radius-ladder scans of the (generalized) Hawking mass, the odd expansion
coefficients read from them, their curvature-side predictions, and the
Bartnik-mass lower-bound evaluator.

The mass of an optimally perturbed geodesic sphere behaves like

    m(rho) = c3 rho^3 + c5 rho^5 + c7 rho^7 + O(rho^9),
    c3 = Sc/12,   c5 = Lap(Sc)/120 + |S|^2/90 - Sc^2/144,

with the traceless-Ricci term absent for unperturbed spheres.  The graph
rho^2 w-bar is even in Theta, so the coefficient of rho^(3+k) integrates a
polynomial of parity (-1)^k over the sphere: m is odd and analytic in rho.
So the coefficients are read from its odd interpolant at Chebyshev radii,
which is spectrally accurate and needs no basis choice.

Every rung is read from one geodesic fan, the one
:func:`geodesics.sphere_fan` shoots for the ladder's width rho0, through
:meth:`geodesics.GeodesicFan.mass_surface`: on the fan's shooting grid
where that grid holds the read, which gives the surface grid's masses to
rounding at a fraction of its nodes, and otherwise on the surface grid.

Rung values are the surfaces' own masses, with no correction: the spectral
angular derivatives leave the flat unit sphere's W - 16 pi and
|Sigma|/(4 pi) - 1 at rounding level, so no radius-independent error is left
for the read to magnify.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import RadiusOutOfRange
from .geodesics import sphere_fan
from .harmonics import HarmonicField, optimal_perturbation, synthesize
from .manifold import curvature_packet
from .surface import hawking_mass

__all__ = [
    "LadderResult",
    "radius_ladder",
    "ExpansionFit",
    "fit_coefficients",
    "PredictedCoefficients",
    "predicted_coefficients",
    "ComparisonReport",
    "compare_report",
    "BartnikBound",
    "bartnik_lower_bound",
]

MODES = ("optimal", "unperturbed")
# the fewest rungs a ladder takes: 2n - 1 >= 9, so c7 and its error exist
MIN_RUNGS = 5
# a rung mass's rounding, in units of eps 16 pi sqrt(A / (16 pi)^3)
# (:func:`fit_coefficients`): a +-1-ulp perturbation of a read's positions
# and velocities moves the mass by a standard deviation of 0.43 to 0.69 of
# these units (at most 1.27), on the shooting grid and on the surface grid,
# on Schwarzschild, flat, round-sphere and polynomial ladders
MASS_ROUNDING_ULPS = 1.0


def _chebyshev_angles(n):
    """theta_j = (2j - 1) pi / (4n), j = 1..n: rung j of a ladder of width R
    is rho_j = R cos(theta_j), so the radii decrease."""
    return (2.0 * np.arange(1, n + 1) - 1.0) * (np.pi / (4.0 * n))


@dataclass
class LadderResult:
    """Chebyshev radius ladder of width ``rho0`` with per-radius mass data.

    ``fan`` is the geodesic fan every rung was read from, and
    ``evaluation_grids`` holds ``[n_theta, n_phi]`` of the grid each rung's
    mass was evaluated on (:meth:`geodesics.GeodesicFan.mass_surface`).
    """

    mode: str
    K: int
    rho0: float
    radii: np.ndarray
    masses: np.ndarray      # generalized Hawking mass at the given K
    areas: np.ndarray
    willmores: np.ndarray
    evaluation_grids: list
    packet: object = field(repr=False, default=None)
    fan: object = field(repr=False, default=None)


def radius_ladder(metric, p, mode, rho0, n, grid, K=0, cfg=None):
    """Build surfaces at the n Chebyshev radii rho0 cos((2j - 1) pi / (4n))
    and record their masses.

    ``mode`` selects the graph function: the closed-form optimal perturbation
    scaled by rho^2, or identically zero.  All rungs reuse one geodesic fan,
    the :func:`sphere_fan` of radius ``rho0``, which raises RadiusOutOfRange
    when ``rho0`` exceeds the injectivity bound.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n < MIN_RUNGS:
        raise ValueError(f"need at least {MIN_RUNGS} ladder rungs")
    packet = curvature_packet(metric, p)
    radii = rho0 * np.cos(_chebyshev_angles(n))

    if mode == "optimal":
        wbar = optimal_perturbation(packet, grid).wbar
    else:
        wbar = HarmonicField(0, np.zeros(1), grid)
    # the reach from the node values, each rung's shape as a field
    wbar_values = synthesize(wbar)
    fan = sphere_fan(metric, p, rho0, rho0**2 * wbar_values, grid, cfg, packet=packet)

    masses = np.empty(n)
    areas = np.empty(n)
    willmores = np.empty(n)
    grids = []
    for k, rho in enumerate(radii):
        surface = fan.mass_surface(rho, wbar.copy_with(rho**2 * wbar.coeffs))
        report = hawking_mass(surface, K)
        masses[k] = report.generalized
        areas[k] = report.area
        willmores[k] = report.willmore
        grids.append([surface.grid.n_theta, surface.grid.n_phi])
    return LadderResult(
        mode=mode, K=int(K), rho0=float(rho0), radii=radii, masses=masses,
        areas=areas, willmores=willmores, evaluation_grids=grids, packet=packet, fan=fan,
    )


# ---------------------------------------------------------------------------
# Chebyshev read
# ---------------------------------------------------------------------------

@dataclass
class ExpansionFit:
    """Leading coefficients of a ladder's odd interpolant in powers of rho,
    each with its error estimate (:func:`fit_coefficients`)."""

    c1: float   # 0 for a mass expansion; its reading is a diagnostic
    c1_error: float
    c3: float
    c3_error: float
    c5: float
    c5_error: float
    c7: float
    c7_error: float
    condition_number: float


def _chebyshev_to_monomial(degree):
    """Row k holds the monomial coefficients of T_k, k = 0..degree, from the
    recurrence T_(k+1) = 2 x T_k - T_(k-1)."""
    table = np.zeros((degree + 1, degree + 1))
    table[0, 0] = table[1, 1] = 1.0
    for k in range(1, degree):
        table[k + 1, 1:] = 2.0 * table[k, :-1]
        table[k + 1] -= table[k - 1]
    return table


def fit_coefficients(rho0, values):
    """Read c1, c3, c5 and c7 from masses at the Chebyshev radii of
    :func:`radius_ladder` of width ``rho0``, in that ladder's order.

    With n values m_j, the interpolant is sum_k a_k T_(2k+1)(rho / rho0)
    over k < n.  The columns of V[j, k] = T_(2k+1)(rho_j / rho0) are
    orthogonal, so a = (2/n) V^T m with no solve.  Each ``c<d>_error`` is
    the change in ``c<d>`` when the top term is dropped, which is also the
    least-squares refit without it, plus the masses' rounding, which the
    top term does not see; ``condition_number``, that of V, is 1 to
    rounding.  A mass rounds at MASS_ROUNDING_ULPS units of
    eps 16 pi sqrt(A / (16 pi)^3), the rounding of 16 pi - W at the mass's
    scale, here with the area A = 4 pi rho_j^2, so eps rho_j / 2; c<d>
    takes the rungs' levels through its row of the read, as a 2-norm.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < MIN_RUNGS:
        raise ValueError(f"need at least {MIN_RUNGS} samples")
    if not np.all(np.isfinite(values)):
        raise ValueError("mass values must be finite")
    if not rho0 > 0.0:
        raise ValueError("rho0 must be positive")
    angles = _chebyshev_angles(n)
    basis = np.cos(np.outer(angles, np.arange(1, 2 * n, 2)))
    series = (2.0 / n) * (values @ basis)
    # rows T_1, T_3, ..., T_(2n-1); columns rho, rho^3, rho^5, rho^7
    powers = np.arange(1, 8, 2)
    to_monomial = _chebyshev_to_monomial(2 * n - 1)[1::2, powers] / float(rho0) ** powers
    c1, c3, c5, c7 = (series @ to_monomial).tolist()
    truncation = np.abs(series[-1] * to_monomial[-1])
    level = MASS_ROUNDING_ULPS * 0.5 * np.finfo(float).eps * rho0 * np.cos(angles)
    rows = (2.0 / n) * (basis @ to_monomial)  # c<d> = sum_j m_j rows[j, d]
    e1, e3, e5, e7 = (truncation + np.sqrt(level**2 @ rows**2)).tolist()
    return ExpansionFit(c1, e1, c3, e3, c5, e5, c7, e7, float(np.linalg.cond(basis)))


# ---------------------------------------------------------------------------
# curvature-side predictions
# ---------------------------------------------------------------------------

@dataclass
class PredictedCoefficients:
    """Mass-expansion coefficients predicted from curvature at the centre."""

    mode: str
    K: int
    c3: float
    c5: float


def predicted_coefficients(packet, mode, K=0):
    """Predicted (c3, c5) of the ``optimal`` or ``unperturbed`` family for the
    mass with the ``4 K |Sigma|`` term, which shifts both families alike:
    their areas agree to the order the shift reads."""
    sc = packet.scalar
    s2 = packet.traceless_norm_sq
    dsc = packet.scalar_laplacian
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    shape = s2 if mode == "optimal" else 0.0
    c3 = sc / 12.0 - K / 2.0
    c5 = dsc / 120.0 + shape / 90.0 - sc**2 / 144.0 + K * sc / 24.0
    return PredictedCoefficients(mode=mode, K=int(K), c3=float(c3), c5=float(c5))


# a coefficient may miss its prediction by this many of its error estimates
ERROR_MARGIN = 3.0


@dataclass
class ComparisonReport:
    """Read vs predicted coefficients with configurable pass criteria."""

    c3_fit: float
    c3_pred: float
    c3_delta: float
    c3_tolerance: float
    c3_pass: bool
    c5_fit: float
    c5_pred: float
    c5_delta: float
    c5_tolerance: float
    c5_pass: bool

    @property
    def passed(self):
        return self.c3_pass and self.c5_pass


def compare_report(fit, pred, *, c3_rel, c3_abs, c5_rel, c5_abs):
    """Deltas between a read and a prediction.

    A coefficient passes when ``|delta| <= abs_tol + rel_tol * |predicted|
    + ERROR_MARGIN * e``, with e the read's error estimate, so a prediction
    of 0 can pass.
    """
    fields = {}
    for name, rel, atol in (("c3", c3_rel, c3_abs), ("c5", c5_rel, c5_abs)):
        read, want = getattr(fit, name), getattr(pred, name)
        tolerance = atol + rel * abs(want) + ERROR_MARGIN * getattr(fit, f"{name}_error")
        fields.update({
            f"{name}_fit": read, f"{name}_pred": want, f"{name}_delta": read - want,
            f"{name}_tolerance": tolerance, f"{name}_pass": abs(read - want) <= tolerance,
        })
    return ComparisonReport(**fields)


# ---------------------------------------------------------------------------
# Bartnik lower bound
# ---------------------------------------------------------------------------

@dataclass
class BartnikBound:
    """Truncated polynomial lower bound for the Bartnik mass.

    The bound drops the point-dependent remainder, c7 rho^7 by the parity
    of the graph (module docstring); it is a numeric evaluation of the
    leading polynomial, not a certified inequality at finite radius.
    """

    point: np.ndarray
    rho: float
    bound: float
    validity_radius: float
    cubic_term: float
    quintic_term: float
    remainder_dropped: bool = True


def bartnik_lower_bound(packet, rho, validity_radius):
    """Evaluate the curvature polynomial bounding the Bartnik mass from below.

    Requires ``0 < rho < validity_radius / 2``; the caller asserts that the
    scalar curvature is non-negative around the point (the regime where the
    bound applies).
    """
    if not 0.0 < rho < 0.5 * validity_radius:
        raise RadiusOutOfRange(
            f"need 0 < rho < validity_radius/2 = {0.5 * validity_radius:.6g}"
        )
    pred = predicted_coefficients(packet, "optimal")
    cubic = pred.c3 * rho**3
    quintic = pred.c5 * rho**5
    return BartnikBound(
        point=np.array(packet.point, dtype=float),
        rho=float(rho),
        bound=float(cubic + quintic),
        validity_radius=float(validity_radius),
        cubic_term=float(cubic),
        quintic_term=float(quintic),
    )

