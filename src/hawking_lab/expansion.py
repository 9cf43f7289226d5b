"""Radius-ladder scans of the (generalized) Hawking mass, least-squares
extraction of the asymptotic coefficients, their curvature-side predictions,
and the Bartnik-mass lower-bound evaluator.

The mass of an optimally perturbed geodesic sphere behaves like

    m(rho) = c3 rho^3 + c5 rho^5 + O(rho^6),
    c3 = Sc/12,   c5 = Lap(Sc)/120 + |S|^2/90 - Sc^2/144,

with the traceless-Ricci term absent for unperturbed spheres.  Ladders are
geometric with ratio 1/2; fits include a rho^6 nuisance term so the reported
c5 is unbiased against the remainder.  Every rung is read from one
geodesic fan, the one :func:`geodesics.sphere_fan` shoots for the widest
rung, through :meth:`geodesics.GeodesicFan.surface`.

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
    "WillmoreExpansionReport",
    "willmore_expansion_check",
    "BartnikBound",
    "bartnik_lower_bound",
    "ladder_to_csv",
]

MODES = ("optimal", "unperturbed")

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
    if n < 5:
        raise ValueError("need at least five ladder rungs")
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
    if radii.size < 5:
        raise ValueError("need at least five samples")
    if np.any(np.diff(radii) >= 0.0):
        raise ValueError("radii must be strictly decreasing")
    ratios = radii[1:] / radii[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9:
        raise ValueError("radii must form a geometric ladder")
    return radii


def fit_coefficients(radii, values, condition_limit=1e8):
    """Fit ``values ~ c3 rho^3 + c5 rho^5 + c6 rho^6``.

    Residuals are weighted by rho^-6 (equations scaled by rho^-3), which
    keeps all rungs comparable; the rho^6 basis element absorbs the
    expansion remainder so c5 stays unbiased.  Raises FitUnstable when the
    scaled design matrix is ill-conditioned.
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
    """Mass-expansion coefficients predicted from curvature at the centre.

    ``willmore_quadratic``/``willmore_quartic`` are the coefficients of the
    integrand-side expansion: for K = 0 they describe W - 16 pi, including
    the 4 K |Sigma| shift otherwise.  ``area_quadratic`` is the rho^2
    coefficient of |Sigma| / (4 pi rho^2) - 1.
    """

    mode: str
    K: int
    c3: float
    c5: float
    willmore_quadratic: float
    willmore_quartic: float
    area_quadratic: float


def predicted_coefficients(packet, mode, K=0):
    """Evaluate the predicted (c3, c5) for the requested surface family."""
    sc = packet.scalar
    s2 = packet.traceless_norm_sq
    dsc = packet.scalar_laplacian
    if mode == "optimal":
        c3 = sc / 12.0
        c5 = dsc / 120.0 + s2 / 90.0 - sc**2 / 144.0
        w2 = -(8.0 * np.pi / 3.0) * sc
        w4 = (4.0 * np.pi / 27.0) * sc**2 - (16.0 * np.pi / 45.0) * s2 - (4.0 * np.pi / 15.0) * dsc
    elif mode == "unperturbed":
        c3 = sc / 12.0
        c5 = dsc / 120.0 - sc**2 / 144.0
        w2 = -(8.0 * np.pi / 3.0) * sc
        w4 = (4.0 * np.pi / 27.0) * sc**2 - (4.0 * np.pi / 15.0) * dsc
    elif mode == "generalized":
        # optimal surfaces, mass with the 4 K |Sigma| normalization
        c3 = sc / 12.0 - K / 2.0
        c5 = dsc / 120.0 + s2 / 90.0 - sc**2 / 144.0 + K * sc / 24.0
        w2 = -((8.0 * np.pi / 3.0) * sc - 16.0 * np.pi * K)
        w4 = -(
            (4.0 * np.pi / 15.0) * dsc
            + (16.0 * np.pi / 45.0) * s2
            - (4.0 * np.pi / 27.0) * sc**2
            + (8.0 * np.pi * K / 9.0) * sc
        )
    else:
        raise ValueError("mode must be optimal, unperturbed or generalized")
    return PredictedCoefficients(
        mode=mode,
        K=int(K),
        c3=float(c3),
        c5=float(c5),
        willmore_quadratic=float(w2),
        willmore_quartic=float(w4),
        area_quadratic=float(-sc / 18.0),
    )


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


def compare_report(
    fit,
    pred,
    c3_rel=0.01,
    c3_abs=0.0,
    c5_rel=0.05,
    c5_abs=0.0,
):
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
# Willmore / area expansion verification
# ---------------------------------------------------------------------------

@dataclass
class WillmoreExpansionReport:
    radii: np.ndarray
    willmore_quadratic: float
    willmore_quartic: float
    area_quadratic: float
    predicted: PredictedCoefficients

    def deltas(self):
        return {
            "willmore_quadratic": self.willmore_quadratic - self.predicted.willmore_quadratic,
            "willmore_quartic": self.willmore_quartic - self.predicted.willmore_quartic,
            "area_quadratic": self.area_quadratic - self.predicted.area_quadratic,
        }


def willmore_expansion_check(ladder, condition_limit=1e8):
    """Fit the Willmore-energy and area expansions of an optimal-mode ladder.

    W - 16 pi is fitted against {rho^2, rho^4, rho^5} and
    |Sigma|/(4 pi rho^2) - 1 against {rho^2, rho^4}; the fitted quadratic and
    quartic coefficients are compared with the curvature predictions.  The
    grid's error in W and area on the flat unit sphere is at rounding level,
    so no constant term is fitted.
    """
    if ladder.mode != "optimal":
        raise ValueError("the Willmore expansion check runs in optimal mode")
    radii = _check_geometric(ladder.radii)
    w_excess = ladder.willmores - 16.0 * np.pi
    design = np.column_stack([radii**2, radii**4, radii**5])
    scale = radii**2
    cond = float(np.linalg.cond(design / scale[:, None]))
    if cond > condition_limit:
        raise FitUnstable(f"Willmore design condition {cond:.3e} too large")
    wcoef, _, _, _ = np.linalg.lstsq(design / scale[:, None], w_excess / scale, rcond=None)

    area_ratio = ladder.areas / (4.0 * np.pi * radii**2) - 1.0
    adesign = np.column_stack([radii**2, radii**4])
    acoef, _, _, _ = np.linalg.lstsq(
        adesign / scale[:, None], area_ratio / scale, rcond=None
    )
    pred = predicted_coefficients(ladder.packet, "optimal")
    return WillmoreExpansionReport(
        radii=radii,
        willmore_quadratic=float(wcoef[0]),
        willmore_quartic=float(wcoef[1]),
        area_quadratic=float(acoef[0]),
        predicted=pred,
    )


# ---------------------------------------------------------------------------
# Bartnik lower bound
# ---------------------------------------------------------------------------

@dataclass
class BartnikBound:
    """Truncated polynomial lower bound for the Bartnik mass.

    The bound drops the point-dependent O(rho^6) remainder; it is a numeric
    evaluation of the leading polynomial, not a certified inequality at
    finite radius.
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


def ladder_to_csv(ladder, path, predicted=None):
    """Write the per-rung table (rho, area, willmore, hawking, predicted_leading)."""
    if predicted is None:
        mode = "generalized" if ladder.K != 0 else ladder.mode
        predicted = predicted_coefficients(ladder.packet, mode, ladder.K)
    with open(path, "w") as fh:
        fh.write("rho,area,willmore,hawking,predicted_leading\n")
        for rho, area, willmore, mass in zip(
            ladder.radii, ladder.areas, ladder.willmores, ladder.masses
        ):
            leading = predicted.c3 * rho**3 + predicted.c5 * rho**5
            fh.write(
                ",".join(
                    f"{v:.17g}" for v in (rho, area, willmore, mass, leading)
                )
                + "\n"
            )
