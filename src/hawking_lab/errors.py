"""Exception types shared across the package."""

__all__ = [
    "HawkingLabError",
    "DomainError",
    "DomainExit",
    "StepLimit",
    "ConditioningError",
    "PerturbationTooLarge",
    "GridTooCoarse",
    "DegenerateSurface",
    "BandLimitExceeded",
    "FitUnstable",
    "RadiusOutOfRange",
    "ConfigError",
]


class HawkingLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HawkingLabError):
    """A point lies outside the validity region of a metric chart."""


class DomainExit(HawkingLabError):
    """A geodesic left the chart during integration."""


class StepLimit(HawkingLabError):
    """The geodesic integrator exceeded its step budget."""


class ConditioningError(HawkingLabError):
    """A finite-difference stencil left the chart or is ill-conditioned."""


class PerturbationTooLarge(HawkingLabError):
    """A graph perturbation has sup-norm >= 1 and would fold the sphere."""


class GridTooCoarse(HawkingLabError):
    """The angular grid is below the minimum supported resolution."""


class DegenerateSurface(HawkingLabError):
    """The induced first fundamental form is singular at some node."""


class BandLimitExceeded(HawkingLabError):
    """Requested harmonic degree exceeds what the grid can resolve."""


class FitUnstable(HawkingLabError):
    """A least-squares fit is too ill-conditioned to be trusted."""


class RadiusOutOfRange(DomainError):
    """A requested radius violates its validity bound."""


class ConfigError(HawkingLabError):
    """A run configuration is malformed or contains unknown keys."""
