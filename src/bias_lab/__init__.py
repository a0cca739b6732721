"""Monte Carlo laboratory for the alignment bias of one-step cluster fits.

Feed pure Gaussian noise to a single hard (argmax) or soft (softmax)
assignment-and-average step and the resulting centroids correlate with
the templates used for the assignment. This package measures that
pull-through in controlled experiments, predicts it with closed forms,
and checks both against an independent quadrature oracle.
"""

from .errors import (
    ApproximationBreakdownError,
    BiasLabError,
    ConfigError,
    DegenerateTemplateSetError,
    DimensionError,
    DomainError,
    FactorizationError,
    ParseError,
    RankError,
    SpectrumError,
)
from .engine import (
    AssignmentEstimate,
    ExperimentConfig,
    GramDiagEstimate,
    correlation_matrix,
    extract_coefficients,
    hard_assign,
    hard_assign_diag,
    soft_assign,
    soft_assign_diag,
    span_residual,
)
from .oracle import (
    OracleResult,
    bvn_cdf,
    hard_moments,
    ibp_residual,
    max_gaussian_mean,
    soft_moments,
    soft_second_moments,
    softmax_weights,
)
from .templates import (
    GramModel,
    TemplateSet,
    circulant_spectrum,
    load_csv,
    load_pgm,
    load_pgm_dir,
    make_circulant,
    make_exponential,
    make_haar_family,
    make_pair,
    save_csv,
)
from .theory import (
    TheoryPrediction,
    beta_zero_limit,
    gumbel_constants,
    gumbel_prediction,
    hard_pair_prediction,
    max_two_gaussians_mean,
    soft_finite_prediction,
    soft_pair_prediction,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationBreakdownError",
    "BiasLabError",
    "ConfigError",
    "DegenerateTemplateSetError",
    "DimensionError",
    "DomainError",
    "FactorizationError",
    "ParseError",
    "RankError",
    "SpectrumError",
    "AssignmentEstimate",
    "ExperimentConfig",
    "GramDiagEstimate",
    "correlation_matrix",
    "extract_coefficients",
    "hard_assign",
    "hard_assign_diag",
    "soft_assign",
    "soft_assign_diag",
    "span_residual",
    "OracleResult",
    "bvn_cdf",
    "hard_moments",
    "ibp_residual",
    "max_gaussian_mean",
    "soft_moments",
    "soft_second_moments",
    "softmax_weights",
    "GramModel",
    "TemplateSet",
    "circulant_spectrum",
    "load_csv",
    "load_pgm",
    "load_pgm_dir",
    "make_circulant",
    "make_exponential",
    "make_haar_family",
    "make_pair",
    "save_csv",
    "TheoryPrediction",
    "beta_zero_limit",
    "gumbel_constants",
    "gumbel_prediction",
    "hard_pair_prediction",
    "max_two_gaussians_mean",
    "soft_finite_prediction",
    "soft_pair_prediction",
    "__version__",
]
