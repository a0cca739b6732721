"""Exception types shared across the package.

Every error raised on purpose derives from BiasLabError so callers can
catch the package's failures without also swallowing genuine bugs.
"""


class BiasLabError(Exception):
    """Base class for all errors raised by bias_lab."""


class DomainError(BiasLabError, ValueError):
    """A numeric parameter lies outside its admissible range."""


class DegenerateTemplateSetError(BiasLabError, ValueError):
    """Two templates coincide, or a construction collapses to one."""


class SpectrumError(BiasLabError, ValueError):
    """A circulant correlation sequence has a non-positive eigenvalue."""


class DimensionError(BiasLabError, ValueError):
    """Array shapes are inconsistent with the requested operation."""


class FactorizationError(BiasLabError, ValueError):
    """A matrix is indefinite, or a GramModel singular (rank_factor rule)."""


class ParseError(BiasLabError, ValueError):
    """A CSV, PGM, or config file does not match its expected format."""


class ConfigError(BiasLabError, ValueError):
    """A run configuration is missing keys or holds invalid values."""


class RankError(BiasLabError, ValueError):
    """A template set is singular (rank_factor rule) where rank L is needed."""


class ApproximationBreakdownError(BiasLabError, ValueError):
    """A series approximation is outside its region of validity."""

