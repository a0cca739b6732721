"""Tests for the numerical reference oracle.

Every frozen constant below was cross-checked by at least two
independent routes (closed form, adaptive quadrature on the
order-statistic density, the orthant reduction, plain Monte Carlo)
before being frozen here. Quadrature values are asserted far inside
their reported bounds; the reported bounds themselves are checked to be
honest against exact values where those exist.
"""

import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, ndtr
from scipy.stats import norm

from bias_lab import (
    DimensionError,
    DomainError,
    ExperimentConfig,
    GramModel,
    engine,
    oracle,
    templates as tpl,
)
from bias_lab import _kernels

# E[max of n iid standard normals], arbitrated across four quadrature
# routes agreeing to 2e-14
MAX_GAUSSIAN_MEAN = {
    1: 0.0,
    2: 0.564189583548,
    3: 0.846284375322,
    4: 1.029375373004,
    5: 1.162964473640,
    16: 1.765991393055,
    64: 2.343733465079,
    256: 2.826863278939,
    1024: 3.248239601375,
    4096: 3.626082177769,
}


# ----------------------------------------------------------------- bvn_cdf

def test_bvn_cdf_closed_corners():
    # P[U < 0, V < 0] = 1/4 + asin(r) / 2 pi; r = 1/2 gives exactly 1/3
    assert oracle.bvn_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0,
                                                          abs=1e-13)
    assert oracle.bvn_cdf(0.0, 0.0, math.sqrt(0.5)) == pytest.approx(
        0.375, abs=1e-13)
    assert oracle.bvn_cdf(0.7, -0.3, 0.0) == pytest.approx(
        ndtr(0.7) * ndtr(-0.3), abs=1e-13)


def test_bvn_cdf_identities():
    rng = np.random.default_rng(42)
    for _ in range(25):
        h, k = rng.uniform(-2.5, 2.5, size=2)
        r = rng.uniform(-0.999, 0.999)
        a = oracle.bvn_cdf(h, k, r)
        assert 0.0 <= a <= 1.0
        # symmetry in the arguments
        assert a == pytest.approx(oracle.bvn_cdf(k, h, r), abs=1e-13)
        # survival symmetry P[U<h,V<k] - Phi(h) - Phi(k) + 1 = P[U<-h,V<-k]
        b = oracle.bvn_cdf(-h, -k, r)
        assert a - ndtr(h) - ndtr(k) + 1.0 == pytest.approx(b, abs=1e-12)
    # marginal limit
    assert oracle.bvn_cdf(0.4, 8.5, 0.7) == pytest.approx(ndtr(0.4),
                                                          abs=1e-12)
    # antithetic in r at the origin
    for r in (0.3, 0.9, 0.99, 0.9999):
        s = oracle.bvn_cdf(0.0, 0.0, r) + oracle.bvn_cdf(0.0, 0.0, -r)
        assert s == pytest.approx(0.5, abs=1e-12)


def test_bvn_lower_moment_on_node_arrays():
    """The conditional route calls _bvn_lower_moment on whole node arrays:
    each entry has the bits of the call at that node alone, and the
    moment matches adaptive quadrature of E[U ; U < a, V < b] =
    integral of u phi(u) Phi((b - r u) / sqrt(1 - r^2)) over u < a."""
    rng = np.random.default_rng(8)
    a, b = rng.uniform(-3.0, 3.0, size=(2, 40))
    for r in (-0.9, 0.0, 0.4, 0.999):
        got = oracle._bvn_lower_moment(a, b, r)
        want = [oracle._bvn_lower_moment(ai, bi, r) for ai, bi in zip(a, b)]
        np.testing.assert_array_equal(got, want)
        s = math.sqrt(1.0 - r * r)
        ref = quad(lambda u: u * norm.pdf(u) * ndtr((b[0] - r * u) / s),
                   -40.0, a[0], epsabs=1e-13, limit=200)[0]
        assert got[0] == pytest.approx(ref, abs=1e-10)


def test_bvn_cdf_extreme_correlation():
    # near r = 1 the mass collapses onto min(h, k)
    for r in (0.999, 0.99999):
        got = oracle.bvn_cdf(-0.3, 1.4, r)
        assert abs(got - ndtr(-0.3)) < 2e-3 * (1.0 - r) ** 0.5 + 1e-10
    with pytest.raises(DomainError):
        oracle.bvn_cdf(0.0, 0.0, 1.0)


def test_bvn_cdf_matches_adaptive_reference():
    """bvn_cdf against Phi(h) Phi(k) plus adaptive quadrature of the
    bivariate normal density along the correlation path t in [0, r], to
    1e-14 (3.3e-16 measured): its inner rule has no resolution limit that
    would call for a bound floor above the oracle's 1e-15."""
    points = (-8.0, -2.5, -0.7, 0.0, 0.4, 1.3, 8.0)
    rs = (-0.9999, -0.99, -0.9, -0.5, 0.2, 0.8, 0.85, 0.95, 0.999, 0.9999)
    for h, k in itertools.product(points, repeat=2):
        def dens(t):
            s = 1.0 - t * t
            return (math.exp((2.0 * t * h * k - h * h - k * k) / (2.0 * s))
                    / (2.0 * math.pi * math.sqrt(s)))

        for r in rs:
            path = quad(dens, 0.0, r, epsabs=1e-15, epsrel=1e-13,
                        limit=200)[0]
            assert float(oracle.bvn_cdf(h, k, r)) == pytest.approx(
                ndtr(h) * ndtr(k) + path, abs=1e-14), (h, k, r)


# ------------------------------------------------------- hard oracle, exact

def test_hard_exact_pair_matches_closed_form():
    for rho in (-0.5, 0.0, 0.5, 0.9, 0.99):
        g = GramModel.from_correlation(np.array([[1.0, rho], [rho, 1.0]]))
        res = oracle.hard_moments(g, 0)
        assert res.method == "exact"
        want = math.sqrt((1.0 - rho) / math.pi)
        assert res.ratio()[0] == pytest.approx(want, abs=1e-12)
        assert res.mass == pytest.approx(0.5, abs=1e-13)
        # exchangeability of the pair forces E[S_1 ; win_0] = -E[S_0 ; win_0]
        assert res.value[1] == pytest.approx(-res.value[0], abs=1e-12)


def test_hard_exact_orthonormal_mass_is_uniform():
    # exercises the zero-mean orthant forms in dimensions 1 through 5
    for L in range(2, 7):
        g = GramModel.from_correlation(np.eye(L))
        res = oracle.hard_moments(g, 0)
        assert res.mass == pytest.approx(1.0 / L, abs=5e-11), f"L={L}"


def test_hard_exact_equals_order_statistic_route():
    # the top-cluster self moment at identity correlation is E[max of L] / L
    for L in (2, 3, 4, 5):
        g = GramModel.from_correlation(np.eye(L))
        res = oracle.hard_moments(g, 0)
        assert res.ratio()[0] == pytest.approx(MAX_GAUSSIAN_MEAN[L],
                                               abs=5e-9), f"L={L}"


def test_hard_exact_invariants_random_grams():
    rng = np.random.default_rng(314)
    for L in range(2, 7):
        g = GramModel.from_correlation(tpl.random_correlation(rng, L))
        masses = []
        moment_sum = np.zeros(L)
        for ell in range(L):
            res = oracle.hard_moments(g, ell)
            masses.append(res.mass)
            moment_sum += res.value
        # clusters partition the sample space
        assert sum(masses) == pytest.approx(1.0, abs=1e-9), f"L={L}"
        # summing E[S_k ; argmax = l] over l gives E[S_k] = 0
        np.testing.assert_allclose(moment_sum, 0.0, atol=1e-9)


def _orthant_zero_loop(corr):
    """Orthant probability by Plackett's path identity taken one
    Gauss-Legendre node at a time, with scalar arcsine closed forms: the
    reference for the batched path of oracle._orthant_zero."""
    m = corr.shape[0]
    if m == 2:
        return 0.25 + math.asin(float(corr[0, 1])) / (2.0 * math.pi)
    if m == 3:
        s = (math.asin(float(corr[0, 1])) + math.asin(float(corr[0, 2]))
             + math.asin(float(corr[1, 2])))
        return 0.125 + s / (4.0 * math.pi)
    x, w = oracle._gl_rule(oracle._PLACKETT_NODES)
    total = 2.0 ** (-m)
    eye = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            rij = float(corr[i, j])
            if rij == 0.0:
                continue
            for tn, wn in zip(0.5 * (x + 1.0), 0.5 * w):
                rt = (1.0 - tn) * eye + tn * corr
                r_now = tn * rij
                dens = 1.0 / (2.0 * math.pi * math.sqrt(
                    max(1.0 - r_now * r_now, 1e-300)))
                keep = [a for a in range(m) if a not in (i, j)]
                pair = rt[np.ix_([i, j], [i, j])]
                cross = rt[np.ix_(keep, [i, j])]
                cond = rt[np.ix_(keep, keep)] - cross @ np.linalg.solve(
                    pair, cross.T)
                total += wn * rij * dens * _orthant_zero_loop(
                    oracle._corr_of(cond))
    return total


def test_plackett_batch_matches_node_loop():
    rng = np.random.default_rng(1954)
    for m in (4, 5):
        corrs = [tpl.random_correlation(rng, m) for _ in range(5)]
        # a zero off-diagonal entry: its pair adds nothing to the path
        sparse = tpl.random_correlation(rng, m, rmax=0.3)
        sparse[0, 2] = sparse[2, 0] = 0.0
        assert np.linalg.eigvalsh(sparse)[0] > 0.0
        for corr in corrs + [sparse, np.eye(m)]:
            assert abs(oracle._orthant_zero(corr)
                       - _orthant_zero_loop(corr)) <= 1e-15, (m, corr)


def test_hard_exact_scale_covariance():
    g1 = GramModel.from_correlation(np.eye(3), scale=1.0)
    g2 = GramModel.from_correlation(np.eye(3), scale=2.0)
    r1 = oracle.hard_moments(g1, 0)
    r2 = oracle.hard_moments(g2, 0)
    assert r2.mass == pytest.approx(r1.mass, abs=1e-12)
    np.testing.assert_allclose(r2.value, 2.0 * r1.value, atol=1e-12)


# -------------------------------------------------- hard oracle, quadrature

def test_hard_quadrature_agrees_with_exact_pair():
    for rho in (-0.7, 0.0, 0.6, 0.95):
        g = GramModel.from_correlation(np.array([[1.0, rho], [rho, 1.0]]))
        ex = oracle.hard_moments(g, 0)
        qd = oracle.hard_moments(g, 0, method="quadrature")
        assert np.max(np.abs(ex.value - qd.value)) < 1e-8
        assert abs(ex.mass - qd.mass) < 1e-8


def test_hard_quadrature_bounds_are_honest_l3():
    rng = np.random.default_rng(2718)
    for _ in range(6):
        g = GramModel.from_correlation(tpl.random_correlation(rng, 3))
        for ell in range(3):
            ex = oracle.hard_moments(g, ell)
            qd = oracle.hard_moments(g, ell, method="quadrature")
            gap = float(np.max(np.abs(ex.value - qd.value)))
            assert gap <= ex.error_bound + qd.error_bound
            assert abs(ex.mass - qd.mass) <= ex.mass_bound + qd.mass_bound


def test_hard_tensor_quadrature_l4():
    rng = np.random.default_rng(99)
    g = GramModel.from_correlation(tpl.random_correlation(rng, 4, rmax=0.6))
    ex = oracle.hard_moments(g, 1)
    qd = oracle.hard_moments(g, 1, method="quadrature")
    assert qd.method == "quadrature"
    assert np.max(np.abs(ex.value - qd.value)) <= \
        ex.error_bound + qd.error_bound + 1e-9


def test_node_halving_bound_compares_two_rules():
    """A bound from the run at the halving floor compared with itself
    reads its floor, 1e-15, on these models against true gaps of 7.9e-7
    (soft L = 3, 8 nodes), 0.027 (hard L = 4, 8 nodes), 3.5e-7 (soft
    L = 2, 8 nodes) and 1.6e-6 (hard L = 3, 8 nodes). Such node counts
    are refused; one node above the floor compares two different rules.
    Every route has the same floor, 8 nodes."""
    rng = np.random.default_rng(2024)
    g2 = GramModel.from_correlation(np.array([[1.0, 0.3], [0.3, 1.0]]))
    g3 = GramModel.from_correlation(tpl.random_correlation(rng, 3))
    g4 = GramModel.from_correlation(tpl.random_correlation(rng, 4,
                                                           rmax=0.6))
    at_floor = [
        lambda: oracle.soft_moments(g3, 1.0, 0, nodes=8),
        lambda: oracle.hard_moments(g4, 0, method="quadrature", nodes=8),
        lambda: oracle.soft_moments(g2, 1.0, 0, nodes=8),
        lambda: oracle.hard_moments(g3, 0, method="quadrature", nodes=8),
        lambda: oracle.soft_second_moments(g4, 1.0, 0, nodes=4),
    ]
    for query in at_floor:
        with pytest.raises(DomainError, match="node-halving"):
            query()
    # a node count is an integer, and 0 does not stand for the default
    for nodes in (0, 10.5, -3, math.nan):
        with pytest.raises(DomainError, match="node-halving"):
            oracle.soft_moments(g3, 1.0, 0, nodes=nodes)
        with pytest.raises(DomainError, match="node-halving"):
            oracle.hard_moments(g3, 0, method="quadrature", nodes=nodes)
        with pytest.raises(DomainError):
            oracle.ibp_residual(g3, 1.0, 0, nodes=nodes)
    above = [oracle.soft_moments(g3, 1.0, 0, nodes=9),
             oracle.soft_moments(g4, 1.0, 0, nodes=10),
             oracle.hard_moments(g4, 0, method="quadrature", nodes=9),
             oracle.hard_moments(g3, 0, method="quadrature", nodes=9),
             oracle.soft_moments(g2, 1.0, 0, nodes=9)]
    for res in above:
        assert res.error_bound > 1e-12


def _assert_engine_agrees(ref, est, ell):
    """Engine row ell against an oracle result: the correlation row within
    4 * (stderr + ratio_bound), the mass within 4 binomial standard
    errors, which bound the spread of any weight in [0, 1]."""
    gap = np.abs(est.corr[ell] - ref.ratio())
    assert np.all(gap <= 4.0 * (est.stderr[ell] + ref.ratio_bound()))
    mass_se = math.sqrt(ref.mass * (1.0 - ref.mass) / est.m)
    assert abs(est.mass[ell] - ref.mass) <= 4.0 * mass_se + ref.mass_bound


def test_hard_exact_l5_matches_engine():
    rng = np.random.default_rng(17)
    g = GramModel.from_correlation(tpl.random_correlation(rng, 5, rmax=0.5))
    ex = oracle.hard_moments(g, 2)
    est = engine.hard_assign(g, ExperimentConfig(m=400_000))
    _assert_engine_agrees(ex, est, 2)


# ------------------------------------------------------------- soft oracle

def test_soft_pair_one_dimensional_reduction():
    """At L = 2, p_0 = sigmoid(beta D) with D = S_0 - S_1, and the sum
    coordinate is independent of D, so E[S_0 p_0] = E[D sigmoid(beta D)]
    / 2 = -E[S_1 p_0] and E[p_0] = 1/2. The tensor sweep meets the
    adaptive one-dimensional integral within its bound, and the two
    identities within theirs."""
    rho, scale = 0.2, 1.5
    g = GramModel.from_correlation(np.array([[1.0, rho], [rho, 1.0]]),
                                   scale=scale)
    sd = scale * math.sqrt(2.0 * (1.0 - rho))
    for sharp in (1.0, 5.0, 20.0):
        beta = sharp / scale

        def integrand(d, beta=beta):
            return 0.5 * d * expit(beta * d) * norm.pdf(d, scale=sd)
        ref = quad(integrand, -12.0 * sd, 12.0 * sd, epsabs=1e-14,
                   epsrel=1e-14, limit=400)[0]
        res = oracle.soft_moments(g, beta, 0)
        assert abs(res.value[0] - ref) <= res.error_bound, sharp
        assert abs(res.value[0] + res.value[1]) <= 2.0 * res.error_bound
        assert abs(res.mass - 0.5) <= res.mass_bound, sharp


def test_soft_pair_ell_one_mirrors_ell_zero():
    g = GramModel.from_correlation(np.array([[1.0, -0.4], [-0.4, 1.0]]))
    r0 = oracle.soft_moments(g, 2.0, 0)
    r1 = oracle.soft_moments(g, 2.0, 1)
    np.testing.assert_allclose(r1.value, r0.value[::-1], atol=1e-13)


def test_soft_orthonormal_l3_frozen():
    g = GramModel.from_correlation(np.eye(3))
    res = oracle.soft_moments(g, 1.0, 0)
    assert res.mass == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert res.ratio()[0] == pytest.approx(0.51843428, abs=1e-7)
    assert res.ratio()[1] == pytest.approx(-0.25921714, abs=1e-7)
    # moment conservation: the three value vectors sum to zero
    total = sum(oracle.soft_moments(g, 1.0, ell).value for ell in range(3))
    np.testing.assert_allclose(total, 0.0, atol=1e-9)


def test_soft_masses_sum_to_one():
    rng = np.random.default_rng(55)
    for L in (3, 4, 5):
        rho = tpl.random_correlation(rng, L, rmax=0.6)
        g = GramModel.from_correlation(rho)
        total = sum(oracle.soft_moments(g, 1.5, ell).mass for ell in range(L))
        assert total == pytest.approx(1.0, abs=1e-9), f"L={L}"


def test_soft_quadrature_l3_matches_engine():
    rng = np.random.default_rng(77)
    g = GramModel.from_correlation(tpl.random_correlation(rng, 3, rmax=0.5))
    qd = oracle.soft_moments(g, 1.0, 1)
    est = engine.soft_assign(g, ExperimentConfig(m=400_000, seed=5,
                                                 beta=1.0))
    _assert_engine_agrees(qd, est, 1)


def test_soft_second_moments_consistency():
    g = GramModel.from_correlation(np.eye(3))
    first = oracle.soft_moments(g, 1.0, 0)
    second = oracle.soft_second_moments(g, 1.0, 0)
    # sum_j E[p_0 p_j] = E[p_0] because the weights sum to one
    assert second.value.sum() == pytest.approx(first.mass, abs=1e-9)
    assert np.all(second.value > 0.0)


def test_softmax_weights_simplex():
    rng = np.random.default_rng(303)
    g = GramModel.from_correlation(tpl.random_correlation(rng, 4, rmax=0.6))
    w = oracle.softmax_weights(g, 1.2, 2)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-8)


def test_ibp_residual_small():
    rng = np.random.default_rng(808)
    for _ in range(4):
        L = int(rng.integers(2, 4))
        g = GramModel.from_correlation(tpl.random_correlation(rng, L))
        beta = float(rng.uniform(0.2, 5.0))
        ell = int(rng.integers(0, L))
        assert oracle.ibp_residual(g, beta, ell) < 1e-6


# ----------------------------------------------------------- maximum mean

def test_max_gaussian_mean_frozen_values():
    for n, want in MAX_GAUSSIAN_MEAN.items():
        res = oracle.max_gaussian_mean(n)
        assert res.value[0] == pytest.approx(want, abs=1e-10), f"n={n}"
        assert res.error_bound < 1e-9
    # n = 2 agrees with the folded-normal closed form
    assert oracle.max_gaussian_mean(2).value[0] == pytest.approx(
        1.0 / math.sqrt(math.pi), abs=1e-12)


def test_oracle_nodes_count_the_rule():
    # the integrand evaluations of the adaptive rule: whole 21-point
    # Gauss-Kronrod panels, not the subinterval limit of 400
    for n in (2, 16, 4096):
        used = oracle.max_gaussian_mean(n).nodes
        assert used > 0 and used % 21 == 0 and used != 400, (n, used)
    assert oracle.max_gaussian_mean(1).nodes == 0
    g = GramModel.from_correlation(np.eye(3))
    assert oracle.hard_moments(g, 0, method="exact").nodes == 64
    assert oracle.soft_moments(g, 1.0, 0, nodes=24).nodes == 24


def test_max_gaussian_mean_errors():
    with pytest.raises(DomainError):
        oracle.max_gaussian_mean(0)
    for n in (2.5, math.nan, True, np.True_):
        with pytest.raises(DomainError):
            oracle.max_gaussian_mean(n)


def test_import_leaves_scipy_integrate_unloaded():
    """Only max_gaussian_mean needs scipy.integrate, whose import is
    about 0.3 s of start-up, so importing the package does not load it."""
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, bias_lab; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


# --------------------------------------------------------- result contract

def test_oracle_result_contract():
    g = GramModel.from_correlation(np.eye(3))
    res = oracle.hard_moments(g, 0)
    assert res.error_bound <= 1e-12           # exact branch promise
    with pytest.raises(ValueError):
        res.value[0] = 0.0                    # frozen payload
    rb = res.ratio_bound()
    assert rb > 0.0
    np.testing.assert_allclose(res.ratio(), res.value / res.mass, atol=0)


def test_oracle_argument_validation():
    g = GramModel.from_correlation(np.eye(3))
    with pytest.raises(DomainError):
        oracle.hard_moments(g, 3)
    with pytest.raises(DomainError):
        oracle.hard_moments(g, 0, method="typo")
    for nodes in (40, "x"):
        with pytest.raises(DomainError, match="only to method='quadrature'"):
            oracle.hard_moments(g, 0, method="exact", nodes=nodes)
    with pytest.raises(DomainError):
        oracle.soft_moments(g, -1.0, 0)
    with pytest.raises(DomainError):
        oracle.soft_moments(g, math.inf, 0)
    with pytest.raises(DomainError):
        oracle.soft_moments("not a gram", 1.0, 0)
    g7 = GramModel.from_correlation(np.eye(7))
    with pytest.raises(DimensionError):
        oracle.hard_moments(g7, 0, method="exact")
    with pytest.raises(DimensionError):
        oracle.hard_moments(g7, 0, method="quadrature")
    with pytest.raises(DimensionError):
        oracle.ibp_residual(g7, 1.0, 0)
    # beyond L = 6 the oracle has no route at all
    with pytest.raises(DimensionError):
        oracle.hard_moments(g7, 0)
    with pytest.raises(DimensionError):
        oracle.soft_moments(g7, 1.0, 0)


def test_cluster_index_must_be_an_integer():
    """A fractional cluster index is a DomainError on every query that
    takes one, not numpy's IndexError; an integral float is that index."""
    g = GramModel.from_correlation(np.array([[1.0, 0.3], [0.3, 1.0]]))
    queries = (lambda ell: oracle.hard_moments(g, ell),
               lambda ell: oracle.hard_moments(g, ell, method="quadrature"),
               lambda ell: oracle.soft_moments(g, 1.0, ell),
               lambda ell: oracle.soft_second_moments(g, 1.0, ell),
               lambda ell: oracle.ibp_residual(g, 1.0, ell),
               lambda ell: oracle.softmax_weights(g, 1.0, ell))

    def parts(res):
        if isinstance(res, oracle.OracleResult):
            return res.value, res.mass, res.error_bound, res.mass_bound
        return (res,)

    for query in queries:
        for ell in (0.5, 1.5, True, np.True_):
            with pytest.raises(DomainError, match="cluster index"):
                query(ell)
        for want, got in zip(parts(query(1)), parts(query(1.0))):
            np.testing.assert_array_equal(got, want)


def test_soft_sweep_entry_points_validate_beta():
    g = GramModel.from_correlation(np.eye(3))
    message = "beta must be a positive finite real"
    for beta in (math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(DomainError, match=message):
            oracle.soft_second_moments(g, beta, 0)
        with pytest.raises(DomainError, match=message):
            oracle.ibp_residual(g, beta, 0)
        with pytest.raises(DomainError, match=message):
            oracle.softmax_weights(g, beta, 0)


# ------------------------------------------------------------ node sweeps

def _brute_force_nodes(a, x, w, betas):
    """hard_nodes output, and soft_nodes output at each beta, from a loop
    over every grid node."""
    L = a.shape[0]
    prob, hmom = np.zeros(L), np.zeros((L, L))
    soft = [(np.zeros(L), np.zeros((L, L)), np.zeros((L, L)))
            for _ in betas]
    for idx in itertools.product(range(x.size), repeat=L):
        y = a @ x[list(idx)]
        wt = math.prod(w[i] for i in idx)
        best = y.max()
        tied = y >= best - 1.0e-9 * (1.0 + abs(best))
        share = wt * tied / tied.sum()
        prob += share
        hmom += np.outer(share, y)
        for beta, (mass, smom, pp) in zip(betas, soft):
            e = np.exp(beta * (y - best))
            p = e / e.sum()
            mass += wt * p
            smom += wt * np.outer(p, y)
            pp += wt * np.outer(p, p)
    return (prob, hmom), soft


# beta = 80 sends many of the blocks below down soft_nodes' node-by-node
# branch; cut into 50-node blocks, most cases mix both branches
BETAS = (1.3, 80.0)


@functools.lru_cache(maxsize=None)
def _brute_force_case(L, n):
    """Whitenings of one random Gram and, at odd n, the identity, with
    their brute-force sweep outputs, soft ones at each of BETAS."""
    x, w = oracle._gh_rule(n)
    rng = np.random.default_rng(100 * L + n)
    grams = [1.1 * np.linalg.cholesky(tpl.random_correlation(rng, L))]
    if n % 2:
        grams.append(np.eye(L))
    return [(a, *_brute_force_nodes(a, x, w, BETAS)) for a in grams]


@pytest.mark.parametrize("block", [None, 50])
@pytest.mark.parametrize("L, n", [(L, n) for L in (3, 4, 5)
                                  for n in (5, 6, 7)] + [(3, 31)])
def test_node_kernels_match_brute_force(L, n, block, monkeypatch):
    """Both sweeps equal a node-by-node loop, also when the grid is cut
    into many blocks; the identity Gram at odd n puts
    real weight on exact ties, which the hard sweep splits evenly. The
    soft sweep is checked at a mild beta, where every block is
    factorized, and at a sharp one, where some blocks are swept node by
    node. At n = 31 the grid has nodes of weight under _NODE_TAU, which
    the sweeps skip (ties included) while the loop visits them all; the
    smaller grids have none and are swept whole."""
    if block is not None:
        monkeypatch.setattr(_kernels, "_NODE_BLOCK", block)
    visited = []
    blocks = _kernels._blocks

    def counted(u, v):
        for rows, cols in blocks(u, v):
            visited.append(u[rows].size * v[cols].size)
            yield rows, cols
    monkeypatch.setattr(_kernels, "_blocks", counted)
    x, w = oracle._gh_rule(n)
    for a, hard_ref, soft_refs in _brute_force_case(L, n):
        visited.clear()
        for got, want in zip(_kernels.hard_nodes(None, a, x, w), hard_ref):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        if n == 31:
            assert sum(visited) < n ** L
        else:
            assert sum(visited) == n ** L
        for beta, soft_ref in zip(BETAS, soft_refs):
            for got, want in zip(_kernels.soft_nodes(None, a, x, w, beta),
                                 soft_ref):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    if n % 2:
        # ties split evenly: on the identity every cluster is equally likely
        prob, _ = _kernels.hard_nodes(None, np.eye(L), x, w)
        np.testing.assert_allclose(prob, 1.0 / L, rtol=0, atol=1e-13)


def test_skipped_nodes_cannot_show():
    """The nodes a sweep skips weigh under _NODE_TAU each, so together they
    move a sum of weights, weighted projections or weighted softmax
    products by at most n**L * _NODE_TAU * max(1, max|y|). With unit-norm
    template rows and unit scale, |y_k| <= |node| <= sqrt(L) * max|x|.
    Every node count the oracle's defaults reach keeps that under 1e-16:
    40 and its half 20 at L = 4..6, 80 and 40 at L <= 3, and the
    integration-by-parts counts 96 to 320 at L <= 3."""
    counts = ([(L, n) for L in (4, 5, 6) for n in (20, 40)]
              + [(L, n) for L in (2, 3)
                 for n in (40, 80, 96, 160, 240, 320)])
    for L, n in counts:
        x, _ = oracle._gh_rule(n)
        ymax = math.sqrt(L) * float(np.max(np.abs(x)))
        dropped = n ** L * _kernels._NODE_TAU * max(1.0, ymax)
        assert dropped <= 1e-16, (L, n, dropped)


def test_node_grids_and_first_block_fit_in_8_mib():
    """At L = 6 and 40 nodes, a default count, the whole pruned grid has
    about 4.5e8 nodes. The sweeps hold the head and tail grids of three
    axes each (38336 pruned nodes apiece) and one block of nodes at a
    time: the grids and the first block need about 6 MiB."""
    x, w = oracle._gh_rule(40)
    a = np.linalg.cholesky(tpl.random_correlation(
        np.random.default_rng(6), 6))
    tracemalloc.start()
    try:
        h, u, t, v = _kernels._node_grid(a, x, w)
        rows, cols = next(_kernels._blocks(u, v))
        y, wp = _kernels._block_nodes(h, u, t, v, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (6, wp.size) and wp.size <= _kernels._NODE_BLOCK
    assert peak < 8 * 2 ** 20, peak


def _count_sweeps(monkeypatch):
    """Count kernel sweeps by kind and node count, on an empty memo."""
    oracle._sweep.cache_clear()
    calls = {"soft": [], "hard": []}
    for kind in calls:
        kernel = getattr(_kernels, f"{kind}_nodes")

        def counted(backend, a, x, w, *rest, _k=kernel, _c=calls[kind]):
            _c.append(x.size)
            return _k(backend, a, x, w, *rest)
        monkeypatch.setattr(_kernels, f"{kind}_nodes", counted)
    return calls


def test_one_sweep_serves_every_cluster(monkeypatch):
    rng = np.random.default_rng(404)
    g = GramModel.from_correlation(tpl.random_correlation(rng, 4, rmax=0.6))
    calls = _count_sweeps(monkeypatch)
    n, beta = 10, 1.2
    first = [oracle.soft_moments(g, beta, ell, nodes=n) for ell in range(4)]
    second = [oracle.soft_second_moments(g, beta, ell, nodes=n)
              for ell in range(4)]
    weights = [oracle.softmax_weights(g, beta, ell, nodes=n)
               for ell in range(4)]
    ibp = [oracle.ibp_residual(g, beta, ell, nodes=n) for ell in range(4)]
    hard = [oracle.hard_moments(g, ell, method="quadrature", nodes=n)
            for ell in range(4)]
    # one sweep at n and one at the halving count max(8, n // 2) each
    assert sorted(calls["soft"]) == [8, 10]
    assert sorted(calls["hard"]) == [8, 10]
    assert sum(r.mass for r in first) == pytest.approx(1.0, abs=1e-12)
    assert max(ibp) < 1e-6
    # results stay theirs: no write reaches the memo or another result
    for res in first + second + hard:
        with pytest.raises(ValueError):
            res.value[0] = 0.0
    for kind, b in (("soft", beta), ("hard", None)):
        for m in (8, 10):
            assert not any(arr.flags.writeable
                           for arr in oracle._sweep(kind, g, b, m))
    kept = [wt.copy() for wt in weights]
    for wt in weights:
        wt[:] = -1.0
    for ell in range(4):
        np.testing.assert_array_equal(
            oracle.softmax_weights(g, beta, ell, nodes=n), kept[ell])
        np.testing.assert_array_equal(
            oracle.soft_moments(g, beta, ell, nodes=n).value,
            first[ell].value)
    assert sorted(calls["soft"]) == [8, 10]


@pytest.mark.parametrize("L", [2, 3])
def test_one_sweep_serves_every_cluster_at_small_l(monkeypatch, L):
    """At L <= 3 the hard quadrature queries of every cluster read one
    conditional sweep at n and one at the halving count, which run the
    per-cluster route once for each cluster, and the soft queries read
    one tensor sweep at each count. Repeated queries run nothing."""
    rng = np.random.default_rng(505 + L)
    g = GramModel.from_correlation(tpl.random_correlation(rng, L, rmax=0.6))
    calls = _count_sweeps(monkeypatch)
    runs = []
    once = oracle._hard_conditional_once

    def counted(g, ell, n):
        runs.append((n, ell))
        return once(g, ell, n)
    monkeypatch.setattr(oracle, "_hard_conditional_once", counted)
    n, beta = 20, 1.2
    for _ in range(2):
        hard = [oracle.hard_moments(g, ell, method="quadrature", nodes=n)
                for ell in range(L)]
        soft = [oracle.soft_moments(g, beta, ell, nodes=n)
                for ell in range(L)]
    assert sorted(runs) == [(m, ell) for m in (10, 20) for ell in range(L)]
    assert calls["hard"] == []
    assert sorted(calls["soft"]) == [10, 20]
    for ell, res in enumerate(hard):
        value, prob = once(g, ell, n)
        np.testing.assert_array_equal(res.value, value)
        assert res.mass == prob
    assert sum(r.mass for r in hard) == pytest.approx(1.0, abs=1e-9)
    assert sum(r.mass for r in soft) == pytest.approx(1.0, abs=1e-12)
    for res in hard + soft:
        with pytest.raises(ValueError):
            res.value[0] = 0.0
    assert oracle._sweep.cache_info().currsize == 4
    for kind, b in (("soft", beta), ("hard", None)):
        for m in (10, 20):
            assert not any(arr.flags.writeable
                           for arr in oracle._sweep(kind, g, b, m))
    assert oracle._sweep.cache_info().currsize == 4


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hard_exact_partition_property(seed):
    """Random Gram: masses sum to 1 and moments sum to 0, always."""
    rng = np.random.default_rng(seed)
    L = int(rng.integers(2, 5))
    g = GramModel.from_correlation(tpl.random_correlation(rng, L))
    total_mass = 0.0
    total_mom = np.zeros(L)
    for ell in range(L):
        res = oracle.hard_moments(g, ell)
        assert res.mass > 0.0
        total_mass += res.mass
        total_mom += res.value
    assert total_mass == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(total_mom, 0.0, atol=1e-9)
