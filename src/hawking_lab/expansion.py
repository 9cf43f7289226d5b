"""Radius-ladder scans of the (generalized) Hawking mass, least-squares
extraction of the asymptotic coefficients, their curvature-side predictions,
and the Bartnik-mass lower-bound evaluator.

The mass of an optimally perturbed geodesic sphere behaves like

    m(rho) = c3 rho^3 + c5 rho^5 + c7 rho^7 + O(rho^9),
    c3 = Sc/12,   c5 = Lap(Sc)/120 + |S|^2/90 - Sc^2/144,

with the traceless-Ricci term absent for unperturbed spheres.  The graph
rho^2 w-bar is even in Theta, so the coefficient of rho^(3+k) integrates a
polynomial of parity (-1)^k over the sphere: c4 = c6 = 0, and the remainder
after c5 is c7 rho^7.  Ladders are geometric with ratio 1/2.  The fits'
rho^6 column therefore fits a term that vanishes, and it aliases c7 into
c5 instead of absorbing it, so the reported c5 is biased: on Schwarzschild
(m = 1, p = (4, 0, 0), 32x64, rho0 = 0.8, 6 rungs) its relative error is
4.2e-3 with {rho^3, rho^5, rho^6} against 1.1e-4 with {rho^3, rho^5, rho^7}.

Every rung is read from one geodesic fan, the one
:func:`geodesics.sphere_fan` shoots for the widest rung, through
:meth:`geodesics.GeodesicFan.surface`.

Rung values are the surfaces' own masses, with no correction: the spectral
angular derivatives leave the flat unit sphere's W - 16 pi and
|Sigma|/(4 pi) - 1 at rounding level, so no radius-independent error is left
for the fits to magnify.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FitUnstable, RadiusOutOfRange
from .geodesics import sphere_fan
from .harmonics import optimal_perturbation
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
# the fewest rungs a ladder takes
MIN_RUNGS = 5

@dataclass
class LadderResult:
    """Geometric radius ladder with per-radius mass data.

    ``fan`` is the geodesic fan every rung was read from.
    """

    mode: str
    K: int
    radii: np.ndarray
    masses: np.ndarray      # generalized Hawking mass at the given K
    areas: np.ndarray
    willmores: np.ndarray
    packet: object = field(repr=False, default=None)
    fan: object = field(repr=False, default=None)


def radius_ladder(metric, p, mode, rho0, n, grid, K=0, cfg=None):
    """Build surfaces on the ladder rho_k = rho0 / 2^k and record their masses.

    ``mode`` selects the graph function: the closed-form optimal perturbation
    scaled by rho^2, or identically zero.  All rungs reuse one geodesic fan,
    the :func:`sphere_fan` of the widest rung, which raises RadiusOutOfRange
    when ``rho0`` exceeds the injectivity bound.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n < MIN_RUNGS:
        raise ValueError(f"need at least {MIN_RUNGS} ladder rungs")
    packet = curvature_packet(metric, p)
    radii = rho0 * 0.5 ** np.arange(n)

    if mode == "optimal":
        wbar = optimal_perturbation(packet, grid).wbar_values(grid)
    else:
        wbar = np.zeros(grid.n_nodes)
    fan = sphere_fan(metric, p, rho0, rho0**2 * wbar, grid, cfg, packet=packet)

    masses = np.empty(n)
    areas = np.empty(n)
    willmores = np.empty(n)
    for k, rho in enumerate(radii):
        report = hawking_mass(fan.surface(rho, rho**2 * wbar), K)
        masses[k] = report.generalized
        areas[k] = report.area
        willmores[k] = report.willmore
    return LadderResult(
        mode=mode, K=int(K), radii=radii, masses=masses, areas=areas,
        willmores=willmores, packet=packet, fan=fan,
    )


# ---------------------------------------------------------------------------
# least-squares extraction
# ---------------------------------------------------------------------------

@dataclass
class ExpansionFit:
    """Weighted fit of mass values against {rho^3, rho^5, rho^6}."""

    radii: np.ndarray
    values: np.ndarray
    c3: float
    c5: float
    c6: float
    condition_number: float
    rms_residual: float


def _check_geometric(radii):
    radii = np.asarray(radii, dtype=float)
    if radii.size < MIN_RUNGS:
        raise ValueError(f"need at least {MIN_RUNGS} samples")
    if np.any(np.diff(radii) >= 0.0):
        raise ValueError("radii must be strictly decreasing")
    ratios = radii[1:] / radii[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9:
        raise ValueError("radii must form a geometric ladder")
    return radii


def fit_coefficients(radii, values, condition_limit=1e8):
    """Fit ``values ~ c3 rho^3 + c5 rho^5 + c6 rho^6``.

    Residuals are weighted by rho^-6 (equations scaled by rho^-3), which
    keeps all rungs comparable.  The expansion has no rho^6 term, and the
    rho^6 column aliases the remainder c7 rho^7 into c5 rather than
    absorbing it (module docstring), so c5 carries that bias.  Raises
    FitUnstable when the scaled design matrix is ill-conditioned.
    """
    radii = _check_geometric(radii)
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("mass values must be finite")
    scaled = values / radii**3
    design = np.column_stack([np.ones_like(radii), radii**2, radii**3])
    cond = float(np.linalg.cond(design))
    if cond > condition_limit:
        raise FitUnstable(f"design matrix condition {cond:.3e} too large")
    coef, _, _, _ = np.linalg.lstsq(design, scaled, rcond=None)
    resid = design @ coef - scaled
    return ExpansionFit(
        radii=radii,
        values=values,
        c3=float(coef[0]),
        c5=float(coef[1]),
        c6=float(coef[2]),
        condition_number=cond,
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


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


@dataclass
class ComparisonReport:
    """Fitted vs predicted coefficients with configurable pass criteria."""

    c3_fit: float
    c3_pred: float
    c3_delta: float
    c3_pass: bool
    c5_fit: float
    c5_pred: float
    c5_delta: float
    c5_pass: bool

    @property
    def passed(self):
        return self.c3_pass and self.c5_pass


def compare_report(fit, pred, *, c3_rel, c3_abs, c5_rel, c5_abs):
    """Absolute/relative deltas between a fit and a prediction.

    A coefficient passes when ``|delta| <= abs_tol + rel_tol * |predicted|``.
    """
    d3 = fit.c3 - pred.c3
    d5 = fit.c5 - pred.c5
    return ComparisonReport(
        c3_fit=fit.c3,
        c3_pred=pred.c3,
        c3_delta=float(d3),
        c3_pass=bool(abs(d3) <= c3_abs + c3_rel * abs(pred.c3)),
        c5_fit=fit.c5,
        c5_pred=pred.c5,
        c5_delta=float(d5),
        c5_pass=bool(abs(d5) <= c5_abs + c5_rel * abs(pred.c5)),
    )


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

