"""Tests for the streaming Monte Carlo engine.

Statistical assertions here run at small M with wide (5-6 sigma)
margins; the tight 3-sigma checks at full sample sizes live in the
acceptance suite.
"""

import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bias_lab import (
    ConfigError,
    DimensionError,
    DomainError,
    ExperimentConfig,
    FactorizationError,
    GramModel,
    RankError,
    SpectrumError,
    TemplateSet,
    engine,
    oracle,
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
    for bad in (math.nan, math.inf):
        for key in ("m", "chunks", "threads"):
            with pytest.raises(ConfigError):
                ExperimentConfig(**{"m": 100, key: bad})
    for threads in (0, -3, 1.5):
        with pytest.raises(ConfigError):
            ExperimentConfig(m=100, threads=threads)
    for seed in (-1, 1.5, math.nan):
        with pytest.raises(ConfigError):
            ExperimentConfig(m=100, seed=seed)
    # a bool is not an integer, though Python counts True as 1
    for key in ("m", "seed", "chunks", "threads"):
        for flag in (True, np.True_):
            with pytest.raises(ConfigError, match="must be an integer"):
                ExperimentConfig(**{"m": 100, key: flag})
    seed = ExperimentConfig(m=100, seed=2.0).seed
    assert seed == 2 and type(seed) is int
    assert ExperimentConfig(m=100, threads=2.0).threads == 2
    assert ExperimentConfig(m=100).threads is None


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
    # the diagonal paths keep no vectors, so full mode is refused too
    with pytest.raises(ConfigError, match="gram mode"):
        engine.hard_assign_diag(4, _cfg(1000, mode="full"))
    with pytest.raises(ConfigError, match="gram mode"):
        engine.soft_assign_diag(4, _cfg(1000, mode="full", beta=1.0))


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

_RESULT_FIELDS = ("corr", "stderr", "mass", "estimates", "corr_diag",
                  "stderr_diag", "avg_self_corr", "avg_self_stderr")


def test_thread_count_never_changes_results():
    _assert_same_bits(_six_paths(40_000, chunks=5, threads=1),
                      _six_paths(40_000, chunks=5, threads=3), "chunks=5")


def _six_paths(m, **kw):
    """The six estimator paths at L = 8, m samples and the given config
    fields."""
    g = GramModel.from_correlation(
        tpl.random_correlation(np.random.default_rng(4), 8))
    ts = _unit_columns(12, 8, 4)
    return {
        "hard": engine.hard_assign(g, _cfg(m, **kw)),
        "soft": engine.soft_assign(g, _cfg(m, beta=1.0, **kw)),
        "hard_full": engine.hard_assign(ts, _cfg(m, mode="full", **kw)),
        "soft_full": engine.soft_assign(
            ts, _cfg(m, mode="full", beta=1.0, **kw)),
        "hard_diag": engine.hard_assign_diag(8, _cfg(m, **kw)),
        "soft_diag": engine.soft_assign_diag(8, _cfg(m, beta=1.0, **kw)),
    }


def _assert_same_bits(want, got, tag):
    for name, a in want.items():
        for field in _RESULT_FIELDS:
            if hasattr(a, field):
                np.testing.assert_array_equal(
                    getattr(a, field), getattr(got[name], field),
                    err_msg=f"{tag}: {name}.{field}")


def test_draw_ahead_and_blas_control_keep_every_bit(monkeypatch):
    """threads >= 2 * chunks draws each chunk's blocks one ahead on a
    helper thread; neither that nor OpenBLAS's thread count moves a bit.
    Every chunk is one block, or two blocks and a short last one."""
    step = _kernels.block_rows(8)
    for chunks in (1, 2):
        for per_chunk in (step, 2 * step + 123):
            m = chunks * per_chunk
            base = _six_paths(m, chunks=chunks, threads=1)
            for threads in (3, 4):
                _assert_same_bits(
                    base, _six_paths(m, chunks=chunks, threads=threads),
                    f"chunks={chunks}, m={m}, threads={threads}")
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_openblas", lambda: None)
                for threads in (1, 3):
                    _assert_same_bits(
                        base, _six_paths(m, chunks=chunks, threads=threads),
                        f"no BLAS control, chunks={chunks}, m={m}, "
                        f"threads={threads}")


def test_normal_blocks_drawn_ahead_are_the_same_blocks():
    step = _kernels.block_rows(64)
    with ThreadPoolExecutor(max_workers=1) as ahead:
        for rows in (1, 7, step, 3 * step + 5):
            want = [z.copy() for z in _kernels.normal_blocks(3, 1, rows, 64)]
            got = [z.copy() for z in _kernels.normal_blocks(
                3, 1, rows, 64, ahead=ahead)]
            assert len(got) == len(want) == -(-rows // step)
            for a, b in zip(want, got):
                np.testing.assert_array_equal(a, b)


class _FakeBlas:
    """Stands in for OpenBLAS's thread count: records every set."""

    def __init__(self, n):
        self.n = n
        self.sets = []

    def get(self):
        return self.n

    def put(self, n):
        self.sets.append(n)
        self.n = n


def test_blas_held_at_one_thread_and_restored(monkeypatch):
    blas = _FakeBlas(5)
    monkeypatch.setattr(engine, "_openblas",
                        lambda: (blas.get, blas.put, "fake.so"))
    seen = []
    hard_block = _kernels.hard_block

    def spy(*args):
        seen.append(blas.n)
        return hard_block(*args)

    monkeypatch.setattr(_kernels, "hard_block", spy)
    g = GramModel.from_correlation(_pair_rho(0.3))
    engine.hard_assign(g, _cfg(5000, chunks=3, threads=2))
    assert blas.n == 5 and blas.sets == [1, 5] and set(seen) == {1}
    # only the outermost of nested runs saves and restores
    with engine._ONE_BLAS_THREAD:
        engine.hard_assign(g, _cfg(5000, threads=2))
        assert blas.n == 1
    assert blas.n == 5 and blas.sets == [1, 5, 1, 5]
    # concurrent runs: the last to leave restores
    errors = []

    def run():
        try:
            for _ in range(5):
                engine.hard_assign(g, _cfg(20_000, chunks=2, threads=2))
        except Exception as exc:   # reported below
            errors.append(exc)

    workers = [threading.Thread(target=run) for _ in range(3)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert not any(w.is_alive() for w in workers) and not errors
    assert blas.n == 5 and set(seen) == {1}
    # full mode's vector build and span_residual factor the template
    # matrix after the chunk loop, also on one thread
    svd, svd_seen = np.linalg.svd, []

    def svd_spy(*args, **kw):
        svd_seen.append(blas.n)
        return svd(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    ts = tpl.make_haar_family(tpl.make_exponential(40, 0.1), 4, seed=3)
    for run, beta in ((engine.hard_assign, math.inf),
                      (engine.soft_assign, 1.0)):
        est = run(ts, _cfg(5000, mode="full", beta=beta, threads=2))
        assert blas.n == 5
        engine.span_residual(est, ts)
        assert blas.n == 5
    assert svd_seen == [1, 1, 1, 1]
    monkeypatch.setattr(np.linalg, "svd", svd)

    def boom(*args):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(_kernels, "hard_block", boom)
    for kw in (dict(chunks=1, threads=1), dict(chunks=3, threads=2)):
        with pytest.raises(RuntimeError, match="kernel failed"):
            engine.hard_assign(g, _cfg(5000, **kw))
        assert blas.n == 5


@pytest.mark.skipif(engine.blas_control() is None,
                    reason="numpy's OpenBLAS thread count is not reachable")
def test_openblas_thread_count_restored(monkeypatch):
    get, put, _ = engine._openblas()
    saved = get()
    seen = []
    soft_block = _kernels.soft_block

    def spy(*args):
        seen.append(get())
        return soft_block(*args)

    g = GramModel.from_correlation(_pair_rho(0.3))
    try:
        put(2)
        engine.soft_assign(g, _cfg(5000, beta=1.0, threads=2))
        assert get() == 2
        monkeypatch.setattr(_kernels, "soft_block", spy)
        engine.soft_assign(g, _cfg(5000, beta=1.0, threads=2))
        assert set(seen) == {1} and get() == 2

        def boom(*args):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(_kernels, "soft_block", boom)
        with pytest.raises(RuntimeError):
            engine.soft_assign(g, _cfg(5000, beta=1.0, threads=2))
        assert get() == 2
    finally:
        put(saved)


def test_threads_bound_the_threads_a_run_starts(monkeypatch):
    """threads=1 starts no thread besides the caller; a run never starts
    more threads than it is given."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    for chunks in (1, 3):
        _six_paths(30_000, chunks=chunks, threads=1)
        assert started == [], chunks
    for threads, chunks in ((2, 1), (2, 3), (3, 1), (4, 2)):
        for name, run in (
                ("hard", lambda kw: engine.hard_assign(
                    GramModel.from_correlation(np.eye(3)), _cfg(60_000, **kw))),
                ("soft_diag", lambda kw: engine.soft_assign_diag(
                    64, _cfg(60_000, beta=1.0, **kw)))):
            started.clear()
            run(dict(threads=threads, chunks=chunks))
            assert 1 <= len(started) <= threads, (name, threads, chunks)


# ----------------------------------------------------------- sample blocks

def _block_runs(threads=1):
    """One run per path that draws (rows, L) normals, plus the hard
    diagonal path, whose stream steps do not follow the block rule."""
    g = GramModel.from_correlation(
        tpl.random_correlation(np.random.default_rng(3), 3))
    ts = _unit_columns(12, 4, 3)
    kw = dict(chunks=3, threads=threads)
    return {
        "hard": engine.hard_assign(g, _cfg(20_000, **kw)),
        "soft": engine.soft_assign(g, _cfg(20_000, beta=1.5, **kw)),
        "hard_full": engine.hard_assign(ts, _cfg(20_000, mode="full", **kw)),
        "soft_full": engine.soft_assign(
            ts, _cfg(20_000, mode="full", beta=1.5, **kw)),
        "soft_diag": engine.soft_assign_diag(
            8, _cfg(20_000, beta=1.5, **kw)),
        "hard_diag": engine.hard_assign_diag(8, _cfg(20_000, **kw)),
    }


def test_block_geometry_is_not_a_result_parameter(monkeypatch):
    """The block rule sets only how per-block partial sums group: draws
    and labels stay, sums move in the last bits, threads never matter."""
    default = _block_runs()
    monkeypatch.setattr(_kernels, "_BLOCK_VALUES", 61)
    monkeypatch.setattr(_kernels, "_BLOCK_MIN_ROWS", 7)
    assert _kernels.block_rows(3) == 20 and _kernels.block_rows(8) == 7
    odd = _block_runs()
    for name, want in default.items():
        got = odd[name]
        for field in _RESULT_FIELDS:
            if not hasattr(want, field) or getattr(want, field) is None:
                continue
            a, b = getattr(want, field), getattr(got, field)
            if name == "hard_diag" or field == "mass" and "hard" in name:
                np.testing.assert_array_equal(a, b, err_msg=f"{name}.{field}")
            else:
                np.testing.assert_allclose(b, a, rtol=1e-12, atol=0,
                                           err_msg=f"{name}.{field}")
        assert got.undefined == want.undefined, name
    for name, two in _block_runs(threads=2).items():
        for field in _RESULT_FIELDS:
            if hasattr(two, field):
                np.testing.assert_array_equal(
                    getattr(odd[name], field), getattr(two, field),
                    err_msg=f"{name}.{field}")


@pytest.mark.parametrize("L", (4, 64))
def test_working_set_is_bounded_in_m(L):
    """One thread's numpy allocations stay within a few sample blocks,
    whatever m and the number of chunks are: each chunk's partial sums
    are folded into the totals as they arrive (64 chunks of soft sums
    at L = 64 held at once took 9.2 MiB). tracemalloc sees numpy's data
    buffers."""
    g = GramModel.from_correlation(np.eye(L))
    g2 = GramModel.from_correlation(np.full((L, L), 0.3) + 0.7 * np.eye(L))
    runs = {
        "hard_assign": lambda m, c: engine.hard_assign(
            g, ExperimentConfig(m=m, chunks=c, threads=1)),
        "soft_assign": lambda m, c: engine.soft_assign(
            g, ExperimentConfig(m=m, chunks=c, beta=1.0, threads=1)),
        "soft_assign_diag": lambda m, c: engine.soft_assign_diag(
            L, ExperimentConfig(m=m, chunks=c, beta=1.0, threads=1)),
        # one shared pass: hard on one model, soft on another
        "assign_many": lambda m, c: engine.assign_many(
            [(model, ExperimentConfig(m=m, chunks=c, beta=beta, threads=1))
             for model, beta in ((g, math.inf), (g2, 1.0))]),
    }
    for name, run in runs.items():
        for m, chunks in ((200_000, None), (400_000, 4), (131_072, 64)):
            tracemalloc.start()
            try:
                run(m, chunks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2 ** 20, (name, m, chunks, peak / 2 ** 20)


def _mixed_batch():
    """Hard and soft runs at several beta on two GramModels that share
    draws, a rank-1 pair (its own group) and a full-rank pair, a second
    seed, chunks 1 and 3 and threads 1 and 2."""
    rng = np.random.default_rng(11)
    models = [GramModel.from_correlation(tpl.random_correlation(rng, 3))
              for _ in range(2)]
    pairs = [tpl.make_pair(-1.0), tpl.make_pair(0.4)]
    runs = []
    for seed in (3, 4):
        for chunks, threads in ((1, 1), (3, 2), (3, 1)):
            kw = dict(seed=seed, chunks=chunks, threads=threads)
            runs += [(g, _cfg(9_000, beta=beta, **kw)) for g in models
                     for beta in (math.inf, 0.5, 3.0)]
            runs += [(ts, _cfg(7_000, beta=beta, **kw)) for ts in pairs
                     for beta in (math.inf, 1.0)]
    return runs


def test_assign_many_returns_each_lone_estimate():
    runs = _mixed_batch()
    many = engine.assign_many(runs)
    assert len(many) == len(runs)
    for (templates, cfg), got in zip(runs, many):
        run = engine.hard_assign if math.isinf(cfg.beta) else engine.soft_assign
        want = run(templates, cfg)
        assert (got.beta, got.seed, got.chunks, got.m) == (
            want.beta, want.seed, want.chunks, want.m)
        assert got.undefined == want.undefined
        for field in _RESULT_FIELDS:
            if hasattr(want, field):
                np.testing.assert_array_equal(
                    getattr(got, field), getattr(want, field),
                    err_msg=f"{field}: beta={cfg.beta}, seed={cfg.seed}, "
                            f"chunks={cfg.chunks}, threads={cfg.threads}")


def test_assign_many_draws_each_group_once(monkeypatch):
    """The mixed batch draws once per draw key: the rank-1 pair apart
    from the rank-2 pair, which shares nothing with the L = 3 models."""
    draws = []
    normal_blocks = _kernels.normal_blocks

    def counted(seed, chunk, rows, L, ahead=None, width=None):
        draws.append((seed, rows, L, width))
        return normal_blocks(seed, chunk, rows, L, ahead, width)

    monkeypatch.setattr(_kernels, "normal_blocks", counted)
    engine.assign_many(_mixed_batch())
    # 2 seeds x (1 + 3 + 3 chunks) x (L = 3, rank-2 pair, rank-1 pair)
    assert len(draws) == 2 * 7 * 3
    assert {(L, width) for _, _, L, width in draws} == {(3, 3), (2, 2),
                                                        (2, 1)}


def test_shared_estimates_come_back_through_the_entry_points(monkeypatch):
    """Wrappers of engine.hard_assign and engine.soft_assign, as the
    benchmark sets them, see one call per estimate of a check, each with
    its own cfg.m, while the check's four L = 2 runs draw m samples of
    two normals once."""
    from bias_lab import checks
    calls, drawn = [], [0]
    for name in ("hard_assign", "soft_assign"):
        def counted(templates, cfg, *, _fn=getattr(engine, name), _name=name,
                    **kw):
            calls.append((_name, cfg.m))
            return _fn(templates, cfg, **kw)
        monkeypatch.setattr(engine, name, counted)
    normal_blocks = _kernels.normal_blocks

    def draws(seed, chunk, rows, L, ahead=None, width=None):
        drawn[0] += rows * width
        return normal_blocks(seed, chunk, rows, L, ahead, width)

    monkeypatch.setattr(_kernels, "normal_blocks", draws)
    res = checks.average_dependency((2,), m=30_000, seed=5)
    assert calls == [("hard_assign", 30_000), ("soft_assign", 30_000)] * 2
    assert drawn[0] == 2 * 30_000
    assert len(res.rows) == 4


def _rank2_set():
    """Distinct unit columns e0, e1 and (e0 + e1) / sqrt(2) in R^4."""
    m = np.zeros((4, 3))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    m[:2, 2] = 1.0 / math.sqrt(2.0)
    return TemplateSet(matrix=m)


def _unit_columns(d, L, seed):
    m = np.random.default_rng(seed).standard_normal((d, L))
    return TemplateSet(matrix=m / np.linalg.norm(m, axis=0))


def test_gram_equals_full_for_identity_templates():
    """Full mode runs on gram mode's draws: identical statistics, bitwise,
    for the identity, a random, a rank-deficient and a d < L set."""
    sets = {"identity": TemplateSet(matrix=np.eye(3)),
            "random": _unit_columns(12, 4, 3),
            "rank 2": _rank2_set(),
            "d < L": _unit_columns(3, 5, 4)}
    for name, ts in sets.items():
        for beta in (math.inf, 1.0):
            fn = engine.hard_assign if math.isinf(beta) else engine.soft_assign
            g = fn(ts, _cfg(60_000, beta=beta))
            f = fn(ts, _cfg(60_000, mode="full", beta=beta))
            for field in ("corr", "stderr", "mass", "avg_self_corr",
                          "avg_self_stderr"):
                np.testing.assert_array_equal(
                    getattr(g, field), getattr(f, field),
                    err_msg=f"{name}, beta={beta}: {field}")
            assert f.estimates.shape == (ts.L, ts.d)


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
    # the diagonal path lists its empty clusters the same way; at
    # L = 4096 and M = 2e4 some clusters draw no sample at all
    m = 20_000
    diag = engine.hard_assign_diag(4096, ExperimentConfig(m=m, seed=1))
    nan = tuple(int(l) for l in np.flatnonzero(np.isnan(diag.corr_diag)))
    assert len(nan) > 0
    assert diag.undefined == nan
    singles = np.flatnonzero(np.rint(diag.mass * m) == 1)
    assert len(singles) > 0
    assert sorted(w for w in diag.warnings if "empty cluster" in w) == sorted(
        f"empty cluster {l}: corr row undefined" for l in nan)
    assert sum("single sample" in w for w in diag.warnings) == len(singles)
    assert len(diag.warnings) == len(nan) + len(singles)
    assert np.all(np.isinf(diag.stderr_diag[singles]))
    full = engine.hard_assign_diag(8, _cfg(10_000))
    assert full.undefined == () and full.warnings == ()


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
    assert diag.warnings == est.warnings


def test_soft_cluster_without_spread_gets_infinite_stderr():
    """At sharp beta and few samples one sample can carry nearly all of a
    soft cluster's weight, so its delta-method variance rounds to 0: both
    soft paths report an infinite stderr there, with a warning, never 0."""
    g = GramModel.from_correlation(np.eye(3))
    runs = [engine.soft_assign(g, ExperimentConfig(m=m, seed=seed, beta=beta,
                                                   chunks=1))
            for m, beta in ((2, 7.5), (10, 50.0)) for seed in range(50)]
    runs += [engine.soft_assign_diag(64, ExperimentConfig(m=2, seed=0,
                                                          beta=beta))
             for beta in (7.5, 50.0)]
    flagged = 0
    for est in runs:
        se = est.stderr if hasattr(est, "stderr") else est.stderr_diag
        live = est.mass > 0
        assert np.all(se[live] > 0)
        flat = [l for l in range(est.L)
                if f"cluster {l} has no spread: stderr infinite"
                in est.warnings]
        # with two samples or more only the no-spread rule makes a
        # soft stderr infinite
        assert flat == [l for l in range(est.L) if np.any(np.isinf(se[l]))]
        flagged += bool(flat)
    # 11 of 50 runs at M = 2, 3 of 50 at M = 10 and both diagonal runs
    assert flagged == 11 + 3 + 2


def test_records_compare_by_identity():
    ts = TemplateSet(matrix=np.eye(3)[:, :2])
    g = GramModel(np.eye(2))
    cfg = ExperimentConfig(m=100, seed=1, chunks=1)
    records = [
        (g, lambda: GramModel(np.eye(2))),
        (ts, lambda: TemplateSet(matrix=np.eye(3)[:, :2])),
        (theory.hard_pair_prediction(0.3),
         lambda: theory.hard_pair_prediction(0.3)),
        (oracle.max_gaussian_mean(2), lambda: oracle.max_gaussian_mean(2)),
        (engine.hard_assign(g, cfg), lambda: engine.hard_assign(g, cfg)),
        (engine.hard_assign_diag(2, cfg),
         lambda: engine.hard_assign_diag(2, cfg)),
    ]
    for rec, copy in records:
        assert rec == rec
        assert rec != copy()


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
    # the soft paths draw the same normals, so they agree to rounding
    cfg_s = _cfg(150_000, seed=11, beta=1.0)
    sd = engine.soft_assign_diag(4, cfg_s)
    sa = engine.soft_assign(GramModel.from_correlation(np.eye(4)), cfg_s)
    for got, want in ((sd.corr_diag, np.diag(sa.corr)),
                      (sd.stderr_diag, np.diag(sa.stderr)),
                      (sd.mass, sa.mass)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_diag_paths_reject_bad_L():
    hard, soft = _cfg(1000), _cfg(1000, beta=1.0)
    for L in (3.9, 2.5, 1, 0, -4, math.nan, math.inf):
        with pytest.raises(DomainError):
            engine.soft_assign_diag(L, soft)
        with pytest.raises(DomainError):
            engine.hard_assign_diag(L, hard)
    assert engine.soft_assign_diag(4.0, soft).L == 4
    assert engine.hard_assign_diag(np.int64(3), hard).L == 3


class _UniformExtremes:
    """Generator stub: uniforms alternate 0 and 1 - 2**-53, labels cycle."""

    def random(self, size):
        u = np.empty(size)
        u[0::2] = 0.0
        u[1::2] = 1.0 - 2.0 ** -53
        return u

    def integers(self, low, high, size=None):
        return np.arange(size) % high


def test_hard_diag_sampler_maxima_finite_at_uniform_extremes(monkeypatch):
    monkeypatch.setattr(_kernels, "chunk_generator",
                        lambda seed, chunk: _UniformExtremes())
    for L in (2, 64, 4096):
        # cluster k sees only the extreme of k's parity, so corr_diag
        # holds the two maxima themselves
        est = engine.hard_assign_diag(L, _cfg(1000))
        live = est.corr_diag[est.mass > 0]
        assert np.all(np.isfinite(live)), L
        assert live[0] < live[1]
        assert math.isfinite(est.avg_self_corr)


def test_hard_diag_labels_uniform():
    m = 400_000
    est = engine.hard_assign_diag(8, _cfg(m))
    counts = np.rint(est.mass * m)
    assert counts.sum() == m
    assert stats.chisquare(counts).pvalue > 1e-3


def test_hard_diag_pooled_mean_closed_form():
    # E[max of L normals]: 1/sqrt(pi) at L = 2, 3/(2 sqrt(pi)) at L = 3
    for L, want in ((2, 1.0), (3, 1.5)):
        est = engine.hard_assign_diag(L, _cfg(400_000))
        want /= math.sqrt(math.pi)
        assert abs(est.avg_self_corr - want) < 4.0 * est.avg_self_stderr


# ------------------------------------------------------------ block layout

_LAYOUT_LS = (2, 3, 4, 8, 64)


def _blocks(L, rows=6000, seed=0):
    """A correlated (rows, L) block, C-ordered, and the same values as
    the transpose view of cluster-major memory."""
    corr = 0.3 * np.ones((L, L)) + 0.7 * np.eye(L)
    s = np.random.default_rng(seed).standard_normal((rows, L)) @ (
        np.linalg.cholesky(corr).T)
    return s, np.ascontiguousarray(s.T).T


def _soft_rowwise(s, beta):
    """Row-major reference of soft_block's accumulators."""
    logits = beta * s
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p2 = p * p
    g = (p * s).sum(axis=1)
    return [p.sum(axis=0), p2.sum(axis=0), p.T @ s, p2.T @ s,
            p2.T @ (s * s), np.array([g.sum(), (g * g).sum()])]


@pytest.mark.parametrize("L", _LAYOUT_LS)
def test_hard_block_layout_bitwise(L):
    s, view = _blocks(L)
    assert view.shape == s.shape and not view.flags["C_CONTIGUOUS"]
    runs = []
    for block in (s, view):
        acc = [np.zeros(L), np.zeros((L, L)), np.zeros((L, L)), np.zeros(2)]
        labels = _kernels.hard_block(None, block, *acc)
        runs.append((labels, acc))
    (l_row, acc_row), (l_cm, acc_cm) = runs
    np.testing.assert_array_equal(l_row, l_cm)
    np.testing.assert_array_equal(l_row, np.argmax(s, axis=1))
    for a, b in zip(acc_row, acc_cm):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("L", _LAYOUT_LS)
def test_soft_block_matches_rowwise_reference(L):
    s, view = _blocks(L)
    acc = [np.zeros(L), np.zeros(L), np.zeros((L, L)), np.zeros((L, L)),
           np.zeros((L, L)), np.zeros(2)]
    p = _kernels.soft_block(None, view, 0.7, *acc)
    assert p.shape == (L, s.shape[0])
    for got, want in zip(acc, _soft_rowwise(s, 0.7)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    for L in _LAYOUT_LS:
        matrix = np.random.default_rng(L).standard_normal((2 * L + 3, L))
        ts = TemplateSet(matrix=matrix / np.linalg.norm(matrix, axis=0))
        for est in (engine.hard_assign(ts, _cfg(20_000, mode="full")),
                    engine.soft_assign(ts, _cfg(20_000, mode="full",
                                                beta=1.5))):
            np.testing.assert_allclose(engine.correlation_matrix(est, ts),
                                       est.corr, atol=1e-9, err_msg=f"L={L}")


def _literal_run(x, m, beta, rng):
    """The experiment as stated: n_i ~ N(0, I_d), weights from <n_i, x_k>,
    v_l = sum_i p_il n_i / w_l. Returns (v, p) with p of shape (L, m)."""
    n = rng.standard_normal((m, x.shape[0]))
    s = n @ x
    if math.isinf(beta):
        p = np.eye(x.shape[1])[np.argmax(s, axis=1)].T
    else:
        e = np.exp(beta * (s - s.max(axis=1, keepdims=True)))
        p = (e / e.sum(axis=1, keepdims=True)).T
    return (p @ n) / p.sum(axis=1)[:, None], p


def _engine_run(ts, m, beta, seed, monkeypatch):
    """A full-mode run and the weights its kernels gave, as (v, p): the
    labels of hard_block as 0/1 rows, or the weights of soft_block."""
    seen = []
    if math.isinf(beta):
        def record(backend, s, *acc, _fn=_kernels.hard_block):
            labels = _fn(backend, s, *acc)
            seen.append(np.eye(ts.L)[labels].T)
            return labels
        monkeypatch.setattr(_kernels, "hard_block", record)
        est = engine.hard_assign(ts, _cfg(m, seed=seed, mode="full",
                                          chunks=1))
    else:
        def record(backend, s, beta, *acc, _fn=_kernels.soft_block):
            p = _fn(backend, s, beta, *acc)
            seen.append(p.copy())
            return p
        monkeypatch.setattr(_kernels, "soft_block", record)
        est = engine.soft_assign(ts, _cfg(m, seed=seed, mode="full",
                                          chunks=1, beta=beta))
    monkeypatch.undo()
    return est.estimates, np.concatenate(seen, axis=1)


def _out_of_span_law(ts, beta, runs, monkeypatch, m=200):
    """Check both the literal experiment and full mode against the law of
    the part of each estimate outside the template span.

    With P the projector onto the complement of span(X), of rank
    k = d - rank(X), and C = sum_i p_i p_i^T, the out-of-span sums
    w_l P v_l are given the weights Gaussian with covariance C_lk P. So
    q_lk = <P v_l, P v_k> w_l w_k / C_lk has mean k, and variance
    k (C_ll C_kk / C_lk^2 + 1); for l = k, q_ll ~ chi-square(k). Hard
    runs have C = diag(counts), so only l = k is checked. Every mean
    over the runs must lie within 4 sigma of k, and the two sides within
    4 sigma of each other.
    """
    x = ts.matrix
    u, sv, _ = np.linalg.svd(x)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    dof = ts.d - rank
    perp = u[:, rank:] @ u[:, rank:].T
    pairs = [(l, l) for l in range(ts.L)]
    if not math.isinf(beta):
        pairs += [(l, k) for l in range(ts.L) for k in range(l + 1, ts.L)]
    stats_ = {}
    for side in ("literal", "full"):
        q = np.empty((runs, len(pairs)))
        var = np.empty_like(q)
        for j in range(runs):
            if side == "literal":
                v, p = _literal_run(x, m, beta, np.random.default_rng(j))
            else:
                v, p = _engine_run(ts, m, beta, 5000 + j, monkeypatch)
            w = p.sum(axis=1)
            c = p @ p.T
            r = v @ perp
            for i, (l, k) in enumerate(pairs):
                q[j, i] = (r[l] @ r[k]) * w[l] * w[k] / c[l, k]
                var[j, i] = dof * (c[l, l] * c[k, k] / c[l, k] ** 2 + 1.0)
        mean = q.mean(axis=0)
        sigma = np.sqrt(var.sum(axis=0)) / runs
        assert np.all(np.abs(mean - dof) <= 4.0 * sigma), (side, mean, dof)
        stats_[side] = mean, sigma
    (a, sa), (b, sb) = stats_["literal"], stats_["full"]
    assert np.all(np.abs(a - b) <= 4.0 * np.hypot(sa, sb)), (a, b)
    return dof


@pytest.mark.parametrize("beta", [math.inf, 1.0])
def test_full_mode_out_of_span_law_matches_literal_noise(beta, monkeypatch):
    ts = _unit_columns(40, 3, 11)
    assert _out_of_span_law(ts, beta, 300, monkeypatch) == 37


@pytest.mark.parametrize("beta", [math.inf, 1.0])
def test_rank_deficient_out_of_span_has_d_minus_rank_dof(beta, monkeypatch):
    # the 4 x 3 set spans a plane: two out-of-span degrees of freedom,
    # which a complement taken from a plain QR of the three columns
    # would cut to one
    assert _out_of_span_law(_rank2_set(), beta, 300, monkeypatch) == 2


@pytest.mark.parametrize("beta", [math.inf, 1.0])
def test_full_mode_adds_no_work_per_block(beta, monkeypatch):
    """A full-mode run makes exactly the accumulate calls, with the same
    block rows, of the gram-mode run with the same set, seed and chunks:
    it builds its vectors once per run from the same sums."""
    calls = []
    for name in ("hard_block", "soft_block", "label_vectors",
                 "weighted_vectors"):
        def counted(backend, block, *rest, _fn=getattr(_kernels, name),
                    _name=name):
            calls.append((_name, block.shape[0]))
            return _fn(backend, block, *rest)
        monkeypatch.setattr(_kernels, name, counted)
    fn = engine.hard_assign if math.isinf(beta) else engine.soft_assign
    seen = {}
    for mode in ("gram", "full"):
        calls.clear()
        fn(_haar_set(), _cfg(70_000, mode=mode, beta=beta, chunks=2,
                             threads=1))
        seen[mode] = list(calls)
    assert len(seen["gram"]) > 2
    assert seen["full"] == seen["gram"]


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
    bad = _rank2_set()                          # distinct columns, rank 2
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
    bad = _rank2_set()
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


@pytest.mark.parametrize("beta", [math.inf, 1.0])
def test_singular_sets_project_exactly_in_range(beta, monkeypatch):
    """A singular set draws r normals per sample, r its rank, in blocks
    of block_rows(L) rows, so its projections lie in the range of its
    Gram, of rank r, and full mode's vectors reproduce corr to rounding,
    as on full-rank sets."""
    fn = engine.hard_assign if math.isinf(beta) else engine.soft_assign
    feed, blocks = engine._feed, []

    def spy(cfg, s, acc):
        blocks.append((s.shape, np.linalg.matrix_rank(s)))
        return feed(cfg, s, acc)

    monkeypatch.setattr(engine, "_feed", spy)
    for ts, rank in ((_rank2_set(), 2), (_unit_columns(3, 5, 4), 3)):
        # one chunk of 50,000 rows is longer than block_rows(L) for
        # L = 3 and 5, so the first block has exactly block_rows(L) rows
        # (block_rows(rank) would differ for both sets)
        cfg = _cfg(50_000, mode="full", beta=beta, chunks=1)
        assert engine._factor(ts, cfg).shape == (ts.L, rank)
        blocks.clear()
        est = fn(ts, cfg)
        rows = _kernels.block_rows(ts.L)
        assert rows < 50_000 and rows != _kernels.block_rows(rank)
        assert blocks[0] == ((rows, ts.L), rank)
        gap = np.max(np.abs(engine.correlation_matrix(est, ts) - est.corr))
        assert gap <= 1e-14, (ts.d, ts.L, gap)


def test_singular_sets_are_refused_with_typed_errors():
    """Each consumer that needs full rank refuses a singular set with
    its own error type."""
    rank2 = _rank2_set()
    full = engine.hard_assign(rank2, _cfg(5_000, mode="full"))
    wide = _unit_columns(3, 5, 4)
    full_wide = engine.soft_assign(wide, _cfg(5_000, mode="full", beta=1.0))
    antipodal = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cases = [
        (FactorizationError, lambda: GramModel(rho=antipodal)),
        (FactorizationError, lambda: GramModel.from_correlation(antipodal)),
        (FactorizationError, rank2.gram),
        (FactorizationError, tpl.make_pair(-1.0).gram),
        (SpectrumError, lambda: tpl.make_circulant([1.0, -0.5, -0.5])),
        (RankError, lambda: engine.span_residual(full, rank2)),
        (RankError, lambda: engine.extract_coefficients(full, rank2)),
        (RankError, lambda: engine.extract_coefficients(full_wide, wide)),
    ]
    for error, call in cases:
        with pytest.raises(error):
            call()
