"""Tests for the closed-form predictions, against frozen reference values.

The frozen numbers were produced by independent routes (direct evaluation
of the folded-normal moment, the logistic surrogate, the extreme value
constants, and the finite-L expansion) and are asserted to 1e-9.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bias_lab import (
    ApproximationBreakdownError,
    DomainError,
    GramModel,
    theory,
    templates as tpl,
)

# E[max(Z0, Z1)] = sqrt((1 - rho) / pi) for the six benchmark correlations
HARD_PAIR_VALUES = {
    -1.0: 0.7978845608,
    -0.5: 0.6909882989,
    0.0: 0.5641895835,
    0.5: 0.3989422804,
    0.9: 0.1784124116,
    0.99: 0.0564189584,
}


def test_hard_pair_frozen_values():
    for rho, want in HARD_PAIR_VALUES.items():
        got = theory.hard_pair_prediction(rho).predicted_corr[0, 0]
        assert got == pytest.approx(want, abs=1e-9), f"rho={rho}"


def test_hard_pair_structure():
    pred = theory.hard_pair_prediction(0.3)
    corr = pred.predicted_corr
    # antisymmetric rows: row of x1 is the negative of row of x0
    np.testing.assert_allclose(corr[1], -corr[0], atol=1e-14)
    np.testing.assert_allclose(corr[0, 1], -corr[0, 0], atol=1e-14)
    assert pred.L == 2


def test_hard_pair_norm_scaling():
    base = theory.hard_pair_prediction(0.2).predicted_corr[0, 0]
    scaled = theory.hard_pair_prediction(0.2, norm=2.0).predicted_corr[0, 0]
    assert scaled == pytest.approx(2.0 * base, rel=1e-12)


def test_hard_pair_domain():
    with pytest.raises(DomainError):
        theory.hard_pair_prediction(1.0)
    with pytest.raises(DomainError):
        theory.hard_pair_prediction(-1.5)
    with pytest.raises(DomainError):
        theory.hard_pair_prediction(0.0, norm=0.0)


def test_max_two_gaussians_mean():
    assert theory.max_two_gaussians_mean(0.0) == pytest.approx(
        0.5641895835477563, abs=1e-12)
    assert theory.max_two_gaussians_mean(0.5) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
    assert theory.max_two_gaussians_mean(1.0) == 0.0
    assert theory.max_two_gaussians_mean(-1.0) == pytest.approx(
        2.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
    with pytest.raises(DomainError):
        theory.max_two_gaussians_mean(1.01)


@settings(max_examples=50, deadline=None)
@given(rho=st.floats(-1.0, 0.999))
def test_hard_pair_equals_folded_normal_mean(rho):
    """Two routes to the same number: the pair limit and E[max of two]."""
    pred = theory.hard_pair_prediction(rho).predicted_corr[0, 0]
    assert pred == pytest.approx(theory.max_two_gaussians_mean(rho), rel=1e-12)


# --------------------------------------------------------------- soft pair

def test_soft_pair_frozen_value():
    got = theory.soft_pair_prediction(0.0).predicted_corr[0, 0]
    assert got == pytest.approx(0.3741988621, abs=1e-9)


def test_soft_pair_small_norm_limit():
    # as the gap shrinks, alpha approaches the beta-to-zero slope 1/2
    pred = theory.soft_pair_prediction(0.0, norm=1e-6)
    assert pred.alpha[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_soft_pair_below_hard():
    # smoothing shrinks the bias at every correlation
    for rho in (-0.5, 0.0, 0.5, 0.9):
        soft = theory.soft_pair_prediction(rho).predicted_corr[0, 0]
        hard = theory.hard_pair_prediction(rho).predicted_corr[0, 0]
        assert 0.0 < soft < hard


# ------------------------------------------------------------ finite-L form

def test_soft_finite_orthonormal_values():
    g3 = GramModel.from_correlation(np.eye(3))
    got = theory.soft_finite_prediction(g3).predicted_corr[0, 0]
    assert got == pytest.approx(1.0 - math.e / 3.0, abs=1e-12)
    assert got == pytest.approx(0.0939060572, abs=1e-9)
    g256 = GramModel.from_correlation(np.eye(256))
    got = theory.soft_finite_prediction(g256).predicted_corr[0, 0]
    assert got == pytest.approx(1.0 - math.e / 256.0, abs=1e-12)
    assert got == pytest.approx(0.9893817116, abs=1e-9)


def test_soft_finite_breakdown():
    rho = np.array([[1.0, 0.9, 0.0],
                    [0.9, 1.0, 0.0],
                    [0.0, 0.0, 1.0]])
    g = GramModel.from_correlation(rho, scale=2.0)
    with pytest.raises(ApproximationBreakdownError):
        theory.soft_finite_prediction(g)


# ------------------------------------------------------------ beta to zero

def test_beta_zero_limit_orthonormal():
    g = GramModel.from_correlation(np.eye(4))
    pred = theory.beta_zero_limit(g)
    np.testing.assert_allclose(pred.predicted_corr[0],
                               [0.75, -0.25, -0.25, -0.25], atol=1e-14)
    # rows of the coefficient matrix sum to zero: the mean template drops out
    np.testing.assert_allclose(pred.alpha.sum(axis=1), 0.0, atol=1e-14)


def test_beta_zero_limit_general_gram():
    ts = tpl.make_pair(0.6, norm=1.5)
    pred = theory.beta_zero_limit(ts.gram())
    want = (np.eye(2) - 0.5) @ (1.5 ** 2 * ts.correlation())
    np.testing.assert_allclose(pred.predicted_corr, want, atol=1e-12)


# ----------------------------------------------------------------- gumbel

def test_gumbel_constants_frozen():
    a, b = theory.gumbel_constants(2)
    assert a == pytest.approx(1.1774100226, abs=1e-9)
    assert b == pytest.approx(0.2582266943, abs=1e-9)
    a, b = theory.gumbel_constants(1000)
    assert a == pytest.approx(3.7169221888, abs=1e-9)
    assert b == pytest.approx(3.1164698853, abs=1e-9)
    a, b = theory.gumbel_constants(4096)
    assert a == pytest.approx(4.0786679607, abs=1e-9)
    assert b == pytest.approx(3.5087002628, abs=1e-9)


def test_gumbel_constants_monotone():
    values = [theory.gumbel_constants(n) for n in (4, 16, 64, 256, 1024)]
    a = [v[0] for v in values]
    b = [v[1] for v in values]
    assert all(x < y for x, y in zip(a, a[1:]))
    assert all(x < y for x, y in zip(b, b[1:]))
    for n in (1, 2.5, math.nan):
        with pytest.raises(DomainError):
            theory.gumbel_constants(n)


def test_gumbel_prediction():
    pred = theory.gumbel_prediction(64, norm=2.0)
    a64 = math.sqrt(2.0 * math.log(64))
    np.testing.assert_allclose(np.diag(pred.predicted_corr), 2.0 * a64,
                               rtol=1e-12)
    off = pred.predicted_corr - np.diag(np.diag(pred.predicted_corr))
    np.testing.assert_allclose(off, 0.0, atol=1e-14)
    for L in (1, 2.5):
        with pytest.raises(DomainError):
            theory.gumbel_prediction(L)


# ------------------------------------------------------- container checks

def test_prediction_is_immutable():
    pred = theory.beta_zero_limit(GramModel.from_correlation(np.eye(3)))
    with pytest.raises(ValueError):
        pred.alpha[0, 0] = 9.0
    with pytest.raises(ValueError):
        pred.predicted_corr[0, 0] = 9.0
