"""Closed-form predictions for single-pass cluster estimators on noise.

Each prediction expresses the large-M limit of the centroid estimates as
linear combinations of the templates: alpha[l][k] is the coefficient of
template k in the estimate of template l. The induced correlation matrix
alpha @ (scale**2 * rho) is directly comparable to what the Monte Carlo
engine measures. Predictions for a general Gram take a GramModel.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ApproximationBreakdownError, DimensionError
from .templates import _array, _integer, _positive, _readonly, _real


@dataclass(frozen=True, eq=False)
class TheoryPrediction:
    """Predicted estimates in template-span coordinates.

    predicted_corr[l][k] = (alpha @ (scale**2 * rho))[l][k] is the
    predicted inner product of estimate l with template k, derived from
    the other fields.
    """

    alpha: np.ndarray
    rho: np.ndarray = field(repr=False)
    scale: float = 1.0
    validity_note: str = ""
    predicted_corr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alpha = _array(self.alpha, "alpha", 2, square=True)
        rho = _array(self.rho, "rho", 2)
        if rho.shape != alpha.shape:
            raise DimensionError("rho must match alpha in shape")
        object.__setattr__(self, "scale", _positive(self.scale, "scale"))
        corr = alpha @ ((self.scale ** 2) * rho)
        for name, arr in (("alpha", alpha), ("rho", rho),
                          ("predicted_corr", corr)):
            object.__setattr__(self, name, _readonly(arr))

    @property
    def L(self):
        return self.alpha.shape[0]


def _pair_rho(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


_PAIR_SHAPE = np.array([[1.0, -1.0], [-1.0, 1.0]])


def hard_pair_prediction(rho, norm=1.0):
    """Limit of the argmax-average estimates for a correlated pair.

    Both estimates converge to +-c (x0 - x1) with
    c = sqrt(1 / (pi (1 - rho) norm**2)), so the self inner product is
    norm * sqrt((1 - rho) / pi).
    """
    rho = _real(rho, "a hard pair's rho", -1.0, 1.0, "[)")
    norm = _positive(norm, "norm")
    c = math.sqrt(1.0 / (math.pi * (1.0 - rho) * norm * norm))
    return TheoryPrediction(
        alpha=c * _PAIR_SHAPE,
        rho=_pair_rho(rho),
        scale=norm,
        validity_note="exact M -> infinity limit for two templates",
    )


def soft_pair_prediction(rho, norm=1.0):
    """Smoothed-assignment analogue of the hard pair limit at beta = 1.

    Based on the logistic-to-erf surrogate, so the value is approximate;
    its error grows with (1 - rho) * norm**2, and the small-norm limit of
    alpha is [[1/2, -1/2], [-1/2, 1/2]].
    """
    rho = _real(rho, "a soft pair's rho", -1.0, 1.0, "[)")
    norm = _positive(norm, "norm")
    gap = (1.0 - rho) * norm * norm
    a = 0.5 / math.sqrt(1.0 + 0.25 * math.pi * gap)
    return TheoryPrediction(
        alpha=a * _PAIR_SHAPE,
        rho=_pair_rho(rho),
        scale=norm,
        validity_note="logistic approximated by erf; error grows with "
                      "(1 - rho) * norm**2",
    )


def soft_finite_prediction(g):
    """First-order finite-L expansion of the beta = 1 soft estimates of
    the templates of GramModel g.

    Estimate l is predicted as
    x_l - (1/C_l) sum_r exp(<x_l, x_r>) x_r, with
    C_l = L - sum_r exp(<x_l, x_r>) + (1/L) sum_{r1,r2} exp(<x_r1, x_r2>)
    and inner products taken unnormalized (scale**2 * rho). Valid only
    while every C_l stays positive; accuracy degrades as the exponents
    grow, so the validity note must travel with the numbers.
    """
    rho, scale = g.rho, g.scale
    L = rho.shape[0]
    ex = np.exp((scale * scale) * rho)
    total = float(ex.sum())
    c = L - ex.sum(axis=1) + total / L
    bad = np.nonzero(c <= 0.0)[0]
    if bad.size:
        raise ApproximationBreakdownError(
            f"normalizer C_{bad[0]} = {c[bad[0]]:.6g} is not positive; "
            f"the expansion has left its validity region")
    alpha = -ex / c[:, None]
    alpha[np.diag_indices(L)] += 1.0
    return TheoryPrediction(
        alpha=alpha,
        rho=rho,
        scale=scale,
        validity_note=f"first-order expansion, normalizers C in "
                      f"[{c.min():.6g}, {c.max():.6g}]; trust only while "
                      f"exp(scale**2 * rho) stays moderate",
    )


def beta_zero_limit(g):
    """Slope of the soft estimates at vanishing inverse temperature, for
    the templates of GramModel g.

    As beta -> 0, estimate l divided by beta converges to
    x_l - (1/L) sum_r x_r, so alpha = I - (1/L) ones.
    """
    L = g.L
    alpha = np.eye(L) - np.full((L, L), 1.0 / L)
    return TheoryPrediction(
        alpha=alpha,
        rho=g.rho,
        scale=g.scale,
        validity_note="leading order in beta; compare corr / beta against it",
    )


def gumbel_prediction(L, norm=1.0):
    """Leading-order growth of the self inner products for many templates.

    For (near) orthogonal sets each argmax-average estimate aligns with
    its own template at magnitude sqrt(2 log L) to leading order.
    """
    L = _integer(L, "L", 2)
    norm = _positive(norm, "norm")
    a_l = math.sqrt(2.0 * math.log(L))
    return TheoryPrediction(
        alpha=(a_l / norm) * np.eye(L),
        rho=np.eye(L),
        scale=norm,
        validity_note="leading order only; the second-order constant b_L "
                      "converges very slowly",
    )


def gumbel_constants(n):
    """Centering and scaling constants for the max of n iid standard normals.

    Returns (a_n, b_n) with a_n = sqrt(2 log n), the leading growth
    rate of the maximum, and b_n = a_n - (log log n + log 4 pi) / (2 a_n).
    """
    n = _integer(n, "n", 2)
    a_n = math.sqrt(2.0 * math.log(n))
    b_n = a_n - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * a_n)
    return a_n, b_n


def max_two_gaussians_mean(rho):
    """E[max(Z0, Z1)] for standard normals at correlation rho.

    The max is (Z0 + Z1)/2 + |Z0 - Z1|/2; the absolute difference is a
    folded normal, which gives sqrt((1 - rho) / pi) exactly.
    """
    return math.sqrt((1.0 - _real(rho, "correlation", -1.0, 1.0)) / math.pi)
