"""Shared exception types.

Kept in one place because several failure modes (resolution, containment,
statistics) are raised from more than one module.
"""


class GravlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidProfileError(GravlabError):
    """Mass profile failed a normalization or parameter check."""


class DomainError(GravlabError):
    """Input outside the physically meaningful domain (negative separation etc.)."""


class ResolutionError(GravlabError):
    """Grid too coarse to resolve the requested profile or state."""


class InstabilityError(GravlabError):
    """Solver state left the physical region (e.g. non-normalizable width)."""


class ContainmentError(GravlabError):
    """Wave packet reached the edge of the simulation domain."""


class StepSizeError(GravlabError):
    """Per-step diagnostic exceeded the expected discretization bound."""


class StatisticsError(GravlabError):
    """Ensemble estimator cannot produce a trustworthy result."""


class ConfigError(GravlabError):
    """Malformed run configuration or config file."""
