"""Tests for the streaming Monte Carlo engine.

Statistical assertions here run at small M with wide (5-6 sigma)
margins; the tight 3-sigma checks at full sample sizes live in the
acceptance suite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bias_lab import (
    ConfigError,
    DimensionError,
    DomainError,
    ExperimentConfig,
    GramModel,
    RankError,
    TemplateSet,
    engine,
    templates as tpl,
    theory,
)
from bias_lab import _kernels


def _cfg(m, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("mode", "gram")
    kw.setdefault("chunks", 4)
    return ExperimentConfig(m=m, **kw)


# ------------------------------------------------------------ config checks

def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(m=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(m=2.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(m=100, mode="sideways")
    with pytest.raises(DomainError):
        ExperimentConfig(m=100, beta=0.0)
    with pytest.raises(DomainError):
        ExperimentConfig(m=100, beta=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(m=100, chunks=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(m=100, chunks=101)


def test_config_auto_chunks():
    assert ExperimentConfig(m=1000).chunks == 1
    assert ExperimentConfig(m=10**6).chunks == 7
    assert ExperimentConfig(m=131072 * 100).chunks == 64


def test_estimator_rejects_wrong_beta():
    g = GramModel.from_correlation(np.eye(2))
    with pytest.raises(ConfigError):
        engine.hard_assign(g, _cfg(1000, beta=1.0))
    with pytest.raises(ConfigError):
        engine.soft_assign(g, _cfg(1000))          # beta defaults to inf
    with pytest.raises(ConfigError):
        engine.hard_assign_diag(4, _cfg(1000, beta=2.0))
    with pytest.raises(ConfigError):
        engine.soft_assign_diag(4, _cfg(1000))


def test_gram_model_requires_gram_mode():
    g = GramModel.from_correlation(np.eye(2))
    with pytest.raises(ConfigError):
        engine.hard_assign(g, _cfg(1000, mode="full"))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 10**8))
def test_auto_chunks_in_range(m):
    cfg = ExperimentConfig(m=m)
    assert 1 <= cfg.chunks <= min(64, m)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 10**7), chunks=st.integers(1, 64))
def test_chunk_rows_partition(m, chunks):
    chunks = min(chunks, m)
    rows = _kernels.chunk_rows(m, chunks)
    assert len(rows) == chunks
    assert sum(rows) == m
    assert max(rows) - min(rows) <= 1


# ------------------------------------------------------------- determinism

def test_thread_count_never_changes_results():
    g = GramModel.from_correlation(_pair_rho(0.3))
    ts = TemplateSet(matrix=np.eye(6)[:, :3] + 0.1)
    runs = {
        "hard": lambda kw: engine.hard_assign(g, _cfg(40_000, **kw)),
        "soft": lambda kw: engine.soft_assign(g, _cfg(40_000, beta=1.0, **kw)),
        "hard_full": lambda kw: engine.hard_assign(
            ts, _cfg(20_000, mode="full", **kw)),
        "soft_full": lambda kw: engine.soft_assign(
            ts, _cfg(20_000, mode="full", beta=1.0, **kw)),
        "hard_diag": lambda kw: engine.hard_assign_diag(8, _cfg(40_000, **kw)),
        "soft_diag": lambda kw: engine.soft_assign_diag(
            8, _cfg(40_000, beta=1.0, **kw)),
    }
    for name, run in runs.items():
        base = run(dict(chunks=5, threads=1))
        other = run(dict(chunks=5, threads=3))
        for field in ("corr", "stderr", "mass", "estimates", "corr_diag",
                      "stderr_diag", "avg_self_corr", "avg_self_stderr"):
            if hasattr(base, field):
                np.testing.assert_array_equal(getattr(base, field),
                                              getattr(other, field),
                                              err_msg=f"{name}.{field}")


def test_gram_equals_full_for_identity_templates():
    """With the identity template matrix the two modes see the same draws."""
    ts = TemplateSet(matrix=np.eye(3))
    hg = engine.hard_assign(ts, _cfg(60_000))
    hf = engine.hard_assign(ts, _cfg(60_000, mode="full"))
    np.testing.assert_array_equal(hg.corr, hf.corr)
    np.testing.assert_array_equal(hg.mass, hf.mass)
    sg = engine.soft_assign(ts, _cfg(60_000, beta=1.0))
    sf = engine.soft_assign(ts, _cfg(60_000, mode="full", beta=1.0))
    np.testing.assert_array_equal(sg.corr, sf.corr)


# ------------------------------------------------------- estimate contract

def _pair_rho(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def test_hard_estimate_contract():
    g = GramModel.from_correlation(_pair_rho(0.2))
    est = engine.hard_assign(g, _cfg(50_000))
    assert est.L == 2 and est.m == 50_000
    assert est.mode == "gram" and math.isinf(est.beta)
    assert est.estimates is None
    assert est.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(est.stderr > 0)
    with pytest.raises(ValueError):
        est.corr[0, 0] = 0.0
    # pooled average equals the mass-weighted diagonal
    recomputed = float(np.sum(est.mass * np.diag(est.corr)))
    assert est.avg_self_corr == pytest.approx(recomputed, abs=1e-12)


def test_soft_estimate_contract():
    g = GramModel.from_correlation(_pair_rho(-0.3))
    est = engine.soft_assign(g, _cfg(50_000, beta=2.0))
    assert est.beta == 2.0
    assert est.mass.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(est.mass > 0)
    recomputed = float(np.sum(est.mass * np.diag(est.corr)))
    assert est.avg_self_corr == pytest.approx(recomputed, abs=1e-12)


def test_empty_cluster_handling():
    ts = TemplateSet(matrix=np.eye(3))
    est = engine.hard_assign(ts, ExperimentConfig(m=1, seed=0, chunks=1))
    assert len(est.undefined) == 2
    for l in est.undefined:
        assert np.isnan(est.corr[l]).all()
    assert any("empty cluster" in w for w in est.warnings)
    assert any("single sample" in w for w in est.warnings)
    assert math.isinf(est.avg_self_stderr)
    assert est.mass.sum() == pytest.approx(1.0)


def test_single_sample_soft_stderr_is_infinite():
    g = GramModel.from_correlation(np.eye(2))
    cfg = ExperimentConfig(m=1, beta=1.0)
    est = engine.soft_assign(g, cfg)
    assert np.isinf(est.stderr).all()
    assert math.isinf(est.avg_self_stderr)
    assert any("single sample" in w for w in est.warnings)
    diag = engine.soft_assign_diag(4, cfg)
    assert np.isinf(diag.stderr_diag).all()
    assert math.isinf(diag.avg_self_stderr)


def test_save_csv_writes_three_tables(tmp_path):
    g = GramModel.from_correlation(_pair_rho(0.1))
    est = engine.hard_assign(g, _cfg(10_000))
    est.save_csv(tmp_path, stem="probe")
    for kind in ("corr", "stderr", "mass"):
        path = tmp_path / f"probe_{kind}.csv"
        text = path.read_text(encoding="utf-8").splitlines()
        assert text[0].count(",") == 1       # two labeled columns
    loaded = np.loadtxt(tmp_path / "probe_corr.csv", delimiter=",",
                        skiprows=1)
    np.testing.assert_array_equal(loaded, est.corr)


# -------------------------------------------------------- statistical sanity

def test_hard_pair_tracks_closed_form_small_m():
    g = GramModel.from_correlation(_pair_rho(0.0))
    est = engine.hard_assign(g, _cfg(200_000))
    want = theory.hard_pair_prediction(0.0).predicted_corr[0, 0]
    assert abs(est.corr[0, 0] - want) < 6.0 * est.stderr[0, 0]
    assert abs(est.corr[0, 1] + want) < 6.0 * est.stderr[0, 1]


def test_sharp_soft_approaches_hard():
    g = GramModel.from_correlation(_pair_rho(0.3))
    hard = engine.hard_assign(g, _cfg(150_000))
    soft = engine.soft_assign(g, _cfg(150_000, beta=200.0))
    assert np.max(np.abs(hard.corr - soft.corr)) < 0.02


def test_weak_soft_matches_linear_slope():
    g = GramModel.from_correlation(np.eye(3))
    beta = 1e-3
    est = engine.soft_assign(g, _cfg(400_000, beta=beta))
    slope = est.corr / beta
    want = theory.beta_zero_limit(g).predicted_corr
    tol = 6.0 * est.stderr / beta
    assert np.all(np.abs(slope - want) < tol)


def test_diag_paths_match_general_paths():
    cfg = _cfg(150_000, seed=11)
    gd = engine.hard_assign_diag(4, cfg)
    ha = engine.hard_assign(GramModel.from_correlation(np.eye(4)), cfg)
    tol = 6.0 * (gd.stderr_diag + np.diag(ha.stderr))
    assert np.all(np.abs(gd.corr_diag - np.diag(ha.corr)) < tol)
    cfg_s = _cfg(150_000, seed=11, beta=1.0)
    sd = engine.soft_assign_diag(4, cfg_s)
    sa = engine.soft_assign(GramModel.from_correlation(np.eye(4)), cfg_s)
    tol = 6.0 * (sd.stderr_diag + np.diag(sa.stderr))
    assert np.all(np.abs(sd.corr_diag - np.diag(sa.corr)) < tol)


def test_diag_scale_argument():
    cfg = _cfg(100_000)
    one = engine.hard_assign_diag(8, cfg, scale=1.0)
    two = engine.hard_assign_diag(8, cfg, scale=2.0)
    np.testing.assert_allclose(two.corr_diag, 2.0 * one.corr_diag,
                               rtol=1e-12)


# ------------------------------------------------------------ full-mode ops

def _haar_set(d=20, L=3, seed=5):
    x0 = tpl.make_exponential(d, 2.0 / d)
    return tpl.make_haar_family(x0, L, seed=seed)


def test_full_mode_correlation_recompute():
    ts = _haar_set()
    est = engine.hard_assign(ts, _cfg(50_000, mode="full"))
    assert est.estimates.shape == (3, 20)
    again = engine.correlation_matrix(est, ts)
    np.testing.assert_allclose(again, est.corr, atol=1e-9)
    soft = engine.soft_assign(ts, _cfg(50_000, mode="full", beta=1.0))
    np.testing.assert_allclose(engine.correlation_matrix(soft, ts),
                               soft.corr, atol=1e-9)


def test_correlation_matrix_requires_full_mode():
    g = GramModel.from_correlation(np.eye(3))
    est = engine.hard_assign(g, _cfg(10_000))
    with pytest.raises(ConfigError):
        engine.correlation_matrix(est, _haar_set())
    ts = _haar_set()
    full = engine.hard_assign(ts, _cfg(10_000, mode="full"))
    with pytest.raises(DimensionError):
        engine.correlation_matrix(full, _haar_set(d=21))


def test_span_residual_shrinks_with_m():
    ts = _haar_set(d=30)
    small = engine.hard_assign(ts, _cfg(2_000, mode="full"))
    large = engine.hard_assign(ts, _cfg(200_000, mode="full"))
    r_small = engine.span_residual(small, ts)
    r_large = engine.span_residual(large, ts)
    assert np.all(r_small <= 1.0) and np.all(r_large >= 0.0)
    assert np.mean(r_large) < np.mean(r_small)


def test_span_residual_errors():
    ts = _haar_set()
    est = engine.hard_assign(ts, _cfg(5_000))
    with pytest.raises(ConfigError):
        engine.span_residual(est, ts)          # gram mode has no vectors
    square = TemplateSet(matrix=np.eye(3))
    full = engine.hard_assign(square, _cfg(5_000, mode="full"))
    with pytest.raises(DimensionError):
        engine.span_residual(full, square)     # needs d > L
    # distinct columns, rank-deficient set
    m = np.zeros((4, 3))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    m[:2, 2] = 1.0 / math.sqrt(2.0)
    bad = TemplateSet(matrix=m)
    full_bad = engine.hard_assign(bad, _cfg(5_000, mode="full"))
    with pytest.raises(RankError):
        engine.span_residual(full_bad, bad)


def test_extract_coefficients_round_trip():
    ts = _haar_set()
    est = engine.hard_assign(ts, _cfg(30_000, mode="full"))
    alpha = engine.extract_coefficients(est, ts)
    gram = ts.matrix.T @ ts.matrix
    np.testing.assert_allclose(alpha @ gram, est.corr, atol=1e-9)
    g = ts.gram()
    est_g = engine.hard_assign(g, _cfg(30_000))
    alpha_g = engine.extract_coefficients(est_g, g)
    np.testing.assert_allclose(alpha_g @ g.covariance(), est_g.corr,
                               atol=1e-9)


def test_extract_coefficients_rank_error():
    m = np.zeros((4, 3))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    m[:2, 2] = 1.0 / math.sqrt(2.0)
    bad = TemplateSet(matrix=m)
    est = engine.hard_assign(bad, _cfg(5_000, mode="full"))
    with pytest.raises(RankError):
        engine.extract_coefficients(est, bad)


def test_antipodal_pair_runs_in_gram_mode():
    # correlation -1 is semidefinite; the engine's factor path accepts it
    ts = tpl.make_pair(-1.0)
    est = engine.hard_assign(ts, _cfg(100_000))
    want = theory.hard_pair_prediction(-1.0).predicted_corr[0, 0]
    assert abs(est.corr[0, 0] - want) < 6.0 * est.stderr[0, 0]
    # with S1 = -S0 the cross entry is exactly the negated self entry
    assert est.corr[0, 1] == pytest.approx(-est.corr[0, 0], abs=1e-12)
