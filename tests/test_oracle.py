"""Tests for the numerical reference oracle.

Every frozen constant below was cross-checked by at least two
independent routes (closed form, adaptive quadrature on the
order-statistic density, the orthant reduction, plain Monte Carlo)
before being frozen here. Quadrature values are asserted far inside
their reported bounds; the reported bounds themselves are checked to be
honest against exact values where those exist.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from bias_lab import (
    BudgetError,
    DimensionError,
    DomainError,
    GramModel,
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


def test_bvn_cdf_extreme_correlation():
    # near r = 1 the mass collapses onto min(h, k)
    for r in (0.999, 0.99999):
        got = oracle.bvn_cdf(-0.3, 1.4, r)
        assert abs(got - ndtr(-0.3)) < 2e-3 * (1.0 - r) ** 0.5 + 1e-10
    with pytest.raises(DomainError):
        oracle.bvn_cdf(0.0, 0.0, 1.0)


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


def test_hard_refmc_within_bound():
    rng = np.random.default_rng(17)
    g = GramModel.from_correlation(tpl.random_correlation(rng, 5, rmax=0.5))
    ex = oracle.hard_moments(g, 2)
    mc = oracle.hard_moments(g, 2, method="refmc", samples=400_000)
    assert mc.method == "refMC"
    assert np.max(np.abs(ex.value - mc.value)) <= \
        ex.error_bound + mc.error_bound
    assert abs(ex.mass - mc.mass) <= ex.mass_bound + mc.mass_bound


# ------------------------------------------------------------- soft oracle

def test_soft_pair_one_dimensional_reduction():
    g = GramModel.from_correlation(np.array([[1.0, 0.2], [0.2, 1.0]]))
    res = oracle.soft_moments(g, 1.0, 0)
    # E[p] = 1/2 holds exactly by symmetry of the logistic link
    assert res.mass == 0.5
    assert res.mass_method == "exact"
    assert res.value[1] == pytest.approx(-res.value[0], abs=1e-14)
    tensor = oracle.soft_moments(g, 1.0, 0, method="quadrature", nodes=120)
    np.testing.assert_allclose(res.value, tensor.value, atol=1e-9)


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


def test_soft_refmc_agrees_with_quadrature():
    rng = np.random.default_rng(77)
    g = GramModel.from_correlation(tpl.random_correlation(rng, 3, rmax=0.5))
    qd = oracle.soft_moments(g, 1.0, 1)
    mc = oracle.soft_moments(g, 1.0, 1, method="refmc", samples=400_000,
                             seed=5)
    assert np.max(np.abs(qd.value - mc.value)) <= \
        qd.error_bound + mc.error_bound
    assert abs(qd.mass - mc.mass) <= qd.mass_bound + mc.mass_bound


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


def test_max_gaussian_mean_refmc():
    res = oracle.max_gaussian_mean(16, method="refmc", samples=200_000,
                                   seed=1)
    assert res.method == "refMC"
    assert abs(res.value[0] - MAX_GAUSSIAN_MEAN[16]) <= res.error_bound


def test_max_gaussian_mean_errors():
    with pytest.raises(DomainError):
        oracle.max_gaussian_mean(0)
    with pytest.raises(DomainError):
        oracle.max_gaussian_mean(2.5)
    with pytest.raises(DomainError):
        oracle.max_gaussian_mean(4, method="bogus")


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


def test_budget_error_reports_achieved_bound():
    g = GramModel.from_correlation(np.eye(3))
    with pytest.raises(BudgetError) as exc:
        oracle.hard_moments(g, 0, precision=1e-30, method="quadrature")
    assert exc.value.achieved_bound > 1e-30


def test_oracle_argument_validation():
    g = GramModel.from_correlation(np.eye(3))
    with pytest.raises(DomainError):
        oracle.hard_moments(g, 3)
    with pytest.raises(DomainError):
        oracle.hard_moments(g, 0, method="typo")
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
    # L = 7 without an explicit method falls through to reference MC
    res = oracle.hard_moments(g7, 0, samples=50_000)
    assert res.method == "refMC"


def test_soft_sweep_entry_points_validate_beta():
    g = GramModel.from_correlation(np.eye(3))
    for beta in (math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(DomainError, match="beta must be positive"):
            oracle.soft_second_moments(g, beta, 0)
        with pytest.raises(DomainError, match="beta must be positive"):
            oracle.ibp_residual(g, beta, 0)
        with pytest.raises(DomainError, match="beta must be positive"):
            oracle.softmax_weights(g, beta, 0)


# ------------------------------------------------------------ node sweeps

def _brute_force_nodes(a, x, w, beta):
    """hard_nodes / soft_nodes outputs from a loop over every grid node."""
    L = a.shape[0]
    prob, hmom = np.zeros(L), np.zeros((L, L))
    mass, smom, pp = np.zeros(L), np.zeros((L, L)), np.zeros((L, L))
    for idx in itertools.product(range(x.size), repeat=L):
        y = a @ x[list(idx)]
        wt = math.prod(w[i] for i in idx)
        best = y.max()
        tied = y >= best - 1.0e-9 * (1.0 + abs(best))
        share = wt * tied / tied.sum()
        prob += share
        hmom += np.outer(share, y)
        e = np.exp(beta * (y - best))
        p = e / e.sum()
        mass += wt * p
        smom += wt * np.outer(p, y)
        pp += wt * np.outer(p, p)
    return (prob, hmom), (mass, smom, pp)


@pytest.mark.parametrize("block", [None, 50])
@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("L", [3, 4, 5])
def test_node_kernels_match_brute_force(L, n, block, monkeypatch):
    """Both sweeps equal a node-by-node loop, also when the grid is cut
    into many head groups; the identity Gram at odd n puts real weight on
    exact ties, which the hard sweep splits evenly."""
    if block is not None:
        monkeypatch.setattr(_kernels, "_NODE_BLOCK", block)
    x, w = oracle._gh_rule(n)
    rng = np.random.default_rng(100 * L + n)
    grams = [1.1 * np.linalg.cholesky(tpl.random_correlation(rng, L))]
    if n % 2:
        grams.append(np.eye(L))
    for a in grams:
        hard_ref, soft_ref = _brute_force_nodes(a, x, w, 1.3)
        for got, want in zip(_kernels.hard_nodes(None, a, x, w), hard_ref):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        for got, want in zip(_kernels.soft_nodes(None, a, x, w, 1.3),
                             soft_ref):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    if n % 2:
        # ties split evenly: on the identity every cluster is equally likely
        prob, _ = _kernels.hard_nodes(None, np.eye(L), x, w)
        np.testing.assert_allclose(prob, 1.0 / L, rtol=0, atol=1e-13)


def _count_sweeps(monkeypatch):
    """Count kernel sweeps by kind and node count, on an empty memo."""
    monkeypatch.setattr(oracle, "_SWEEPS", {}, raising=False)
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
    for memo in oracle._SWEEPS.values():
        assert not any(arr.flags.writeable for arr in memo)
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
