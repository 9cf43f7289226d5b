"""Numerical laboratory for Hawking masses of perturbed geodesic spheres in
analytic Riemannian 3-manifolds."""

__version__ = "0.1.0"

from .errors import (
    BandLimitExceeded,
    ConfigError,
    DegenerateSurface,
    DomainError,
    DomainExit,
    FitUnstable,
    GridTooCoarse,
    HawkingLabError,
    PerturbationTooLarge,
    RadiusOutOfRange,
    StepLimit,
)
from .manifold import (
    ConformalMetric,
    CurvaturePacket,
    EuclideanMetric,
    HyperbolicMetric,
    PolynomialMetric,
    RoundSphereMetric,
    SchwarzschildMetric,
    christoffel_at,
    curvature_packet,
    geodesic_acceleration,
    metric_at,
    metric_from_config,
)
from .surface import (
    EmbeddedSurface,
    HawkingReport,
    SphereGrid,
    build_grid,
    extrinsic_geometry,
    hawking_mass,
)
from .geodesics import (
    GeodesicConfig,
    GeodesicFan,
    exp_map,
    geodesic_sphere_surface,
    sphere_fan,
    surface_tangents,
)
from .harmonics import (
    HarmonicField,
    analyze,
    apply_bilaplacian_shifted,
    optimal_perturbation,
    pde_residual,
    synthesize,
    willmore_el_residual,
)
from .expansion import (
    BartnikBound,
    ExpansionFit,
    PredictedCoefficients,
    bartnik_lower_bound,
    compare_report,
    fit_coefficients,
    predicted_coefficients,
    radius_ladder,
)
from .optimizer import (
    OptimizeConfig,
    OptimizeResult,
    closed_form_reference,
    maximize_hawking,
)
