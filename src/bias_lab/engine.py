"""Streaming Monte Carlo engine for one-step assignment estimators.

Implements a single hard-assignment step (classify each pure-noise
observation to its best-matching template by inner product, then average
per class) and a single soft step (softmax-weighted averages at
sharpness beta), in two sampling modes:

* gram mode draws the projection vector S = scale * (factor @ z) with
  z ~ N(0, I_r) directly, r the rank of the template correlation, which
  has exactly the distribution of (<n, x_k>)_k and makes the cost
  dimension-free;
* full mode also returns the estimator vectors themselves. It runs on
  gram mode's draws, so its correlations, stderrs and masses are
  bitwise those of gram mode, and builds each vector from two parts.
  The part inside the template span is B z for a fixed d x L map B,
  summed per cluster like the projections. The part outside the span
  is, given the weights, exactly Gaussian and independent of the
  assignment, so it is drawn once per run, L x d numbers, rather than
  per observation. The vectors therefore match the literal experiment
  with n ~ N(0, I_d) in law rather than draw for draw.

Samples are split into a fixed number of chunks; each chunk owns an RNG
stream derived from (seed, chunk index) and accumulates partial sums,
which are folded, in index order and as they arrive, into compensated
totals. Results are therefore bitwise reproducible for fixed (seed,
chunks) no matter how many worker threads run.

Runs that draw the same normals can share them (assign_many). Their
draw key is (seed, m, chunks, threads, L, r), r the rank of the
template correlation; one pass per key draws each block once, projects
it once per distinct set, and feeds every run's accumulators in the
order a lone run would, so each estimate is bitwise the lone run's.
hard_assign and soft_assign are that pass over a single run.

The engine schedules the cores of a run itself. cfg.threads caps the
threads working on it; chunks run in parallel up to that cap, and when
it is at least twice the number of chunks each chunk gets a helper
thread that draws its next block of normals while the chunk's kernels
work on the current one. OpenBLAS is held at one thread during a run,
including full mode's vector build, and during span_residual (see
_OneBlasThread), so its own threads do not compete for the same cores;
its products give the same bits on any number of threads.

The orthonormal high-L sweeps get dedicated diagonal-only entry points
that track just the per-sample argmax / softmax self terms, avoiding the
L x L accumulators. They run at unit template norm, so the softmax
takes b = beta. The soft one draws the L normals of every sample; the
hard one draws only the sample's maximum, from its law Phi**L, and its
uniform label, so it matches hard_assign on an identity Gram in law
rather than draw for draw.
"""

import collections
import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .errors import ConfigError, DimensionError, DomainError, RankError
from .templates import (GramModel, TemplateSet, _integer, _readonly,
                        rank_factor)

_AUTO_CHUNK_ROWS = 131072
_MAX_AUTO_CHUNKS = 64


def thread_count(threads):
    """Worker thread count as an int, or None for automatic.

    Raises ConfigError unless threads is None or an integer >= 1.
    """
    return (None if threads is None
            else _integer(threads, "threads", 1, error=ConfigError))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling plan for one estimator run.

    m is the number of observations, seed the integer >= 0 behind every
    RNG stream of the run, beta the softmax sharpness (math.inf selects
    hard assignment), chunks the number of independent accumulation
    blocks (None picks a deterministic default from m).
    threads is the number of cores the engine uses, BLAS included: a run
    works on at most that many threads, and OpenBLAS runs on one thread
    inside it. None means all cores (os.cpu_count()), even for one
    chunk. Chunks run in parallel up to threads; when threads >=
    2 * chunks, each chunk also draws its next block of normals on a
    helper thread. threads never affects values.
    """

    m: int
    seed: int = 0
    mode: str = "gram"
    beta: float = math.inf
    chunks: int = None
    threads: int = None

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m", 1,
                                                error=ConfigError))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0,
                                                   error=ConfigError))
        if self.mode not in ("full", "gram"):
            raise ConfigError(f"mode must be 'full' or 'gram', got {self.mode!r}")
        if not (self.beta > 0):
            raise DomainError(f"beta must be positive (inf = hard), got {self.beta}")
        auto = max(1, min(_MAX_AUTO_CHUNKS, self.m // _AUTO_CHUNK_ROWS))
        object.__setattr__(self, "chunks", _integer(
            auto if self.chunks is None else self.chunks, "chunks", 1,
            self.m, error=ConfigError))
        object.__setattr__(self, "threads", thread_count(self.threads))


@dataclass(frozen=True, eq=False, kw_only=True)
class _Estimate:
    """Fields, checks and L shared by the two records of a run.

    mass[l] is the cluster fraction (hard) or mean softmax weight (soft)
    and sums to 1. avg_self_corr = sum_l mass[l] * corr[l][l] pools all
    samples and carries its own stderr, which accounts for cross-cluster
    covariance. Clusters listed in undefined were empty: their corr rows
    are NaN and a warning is attached. Array fields are stored read-only.
    _rows names a subclass's corr and stderr fields; the stderr must be
    positive wherever mass is.
    """

    mass: np.ndarray
    m: int
    beta: float
    seed: int
    chunks: int
    avg_self_corr: float
    avg_self_stderr: float
    warnings: tuple = ()
    undefined: tuple = ()

    def __post_init__(self):
        for f in fields(self):
            arr = getattr(self, f.name)
            if f.type is np.ndarray and arr is not None:
                object.__setattr__(self, f.name, _readonly(arr))
        if np.any(self.mass < -1e-12):
            raise DomainError("negative mass entry")
        if abs(float(self.mass.sum()) - 1.0) > 1e-9:
            raise DomainError(
                f"mass must sum to 1 within 1e-9, got {self.mass.sum()!r}")
        if np.any(~(getattr(self, self._rows[1])[self.mass > 0] > 0)):
            raise DomainError("stderr must be positive wherever mass > 0")

    @property
    def L(self):
        return self.mass.shape[0]


@dataclass(frozen=True, eq=False, kw_only=True)
class AssignmentEstimate(_Estimate):
    """Immutable result of one hard or soft estimator run.

    corr[l][k] = <x_hat_l, x_k> (raw inner products); stderr holds
    delta-method Monte Carlo standard errors for corr entries. estimates
    holds the L estimator vectors in full mode, None in gram mode.
    """

    _rows = ("corr", "stderr")
    mode: str
    corr: np.ndarray
    stderr: np.ndarray
    estimates: np.ndarray = None


@dataclass(frozen=True, eq=False, kw_only=True)
class GramDiagEstimate(_Estimate):
    """Diagonal-only statistics from the orthonormal-template fast path.

    corr_diag[l] = mean own-template projection within cluster l (hard)
    or weighted mean (soft), with stderr_diag its stderr. Only valid for
    identity correlation, where the own projection of a hard winner is
    the row maximum.
    """

    _rows = ("corr_diag", "stderr_diag")
    corr_diag: np.ndarray
    stderr_diag: np.ndarray


@functools.cache
def _openblas():
    """(get, set, file name) of the thread-count functions of numpy's
    bundled OpenBLAS, or None when the library or a symbol is missing."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put, os.path.basename(path)
    return None


def blas_control():
    """File name of the OpenBLAS that engine runs hold at one thread, or
    None when it cannot be controlled (runs then differ only in speed)."""
    blas = _openblas()
    return blas[2] if blas else None


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any engine run is active.

    The engine schedules the cores itself; BLAS threads of its own would
    compete with the chunk workers and draw-ahead helpers for them, and
    on small factorizations they can cost more than they save (the SVD
    of a 1024 x 12 template matrix took up to 48 ms on two threads
    against under 0.5 ms on one, on a 2-core host). The
    setter is process-wide, so the first run to enter saves the count
    and sets 1, and the last to leave restores it, also when a run
    raises. The lock and depth counter make concurrent and nested runs
    restore correctly.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            blas = _openblas()
            if self._depth == 0 and blas:
                get, put, _ = blas
                self._restore = functools.partial(put, get())
                put(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                self._restore()
                self._restore = None


_ONE_BLAS_THREAD = _OneBlasThread()


def _run_chunks(cfg, shapes, fill):
    """Zeroed accumulators of the given shapes, filled per chunk by
    fill(chunk, rows, ahead, *acc) and summed, compensated, in chunk
    order.

    A run uses at most cfg.threads threads (None: one per core), and
    OpenBLAS one thread inside it. When threads >= 2 * chunks, each
    chunk also gets a helper thread, ahead, that draws its next block of
    normals (see _kernels.normal_blocks); otherwise ahead is None. Each
    chunk is folded into the totals as soon as it and every earlier
    chunk are done, and at most two chunks per worker are in flight, so
    a run holds a bounded number of partial sums.
    """
    def worker(chunk, rows, ahead):
        acc = [np.zeros(shape) for shape in shapes]
        fill(chunk, rows, ahead, *acc)
        return acc

    rows = _kernels.chunk_rows(cfg.m, cfg.chunks)
    threads = cfg.threads or os.cpu_count() or 1
    workers = min(threads, len(rows))
    helpers = (ThreadPoolExecutor(max_workers=len(rows))
               if threads >= 2 * len(rows) else contextlib.nullcontext())
    with _ONE_BLAS_THREAD, helpers as ahead:
        if workers == 1:
            return _kahan_combine(worker(c, r, ahead)
                                  for c, r in enumerate(rows))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            def in_order():
                running = collections.deque()
                for c, r in enumerate(rows):
                    running.append(pool.submit(worker, c, r, ahead))
                    if len(running) == 2 * workers:
                        yield running.popleft().result()
                while running:
                    yield running.popleft().result()

            return _kahan_combine(in_order())


def _kahan_combine(parts):
    """Sum lists of accumulator arrays, compensated, in the order parts
    yields them; each part is folded in as it arrives."""
    totals = comps = None
    for part in parts:
        if totals is None:
            totals = [np.zeros_like(a) for a in part]
            comps = [np.zeros_like(a) for a in part]
        for t, c, v in zip(totals, comps, part):
            y = v - c
            s = t + y
            c[...] = (s - t) - y
            t[...] = s
        del part  # not alive while parts makes the next one
    return totals


def _factor(templates, cfg):
    """The L x r factor of a run's projections S = factor @ z.

    templates is a TemplateSet (either mode) or GramModel (gram mode).
    factor is a GramModel's own (r = L) or, for a TemplateSet,
    common_norm * templates.rank_factor(correlation()), r the rank of
    the set's correlation. With z ~ N(0, I_r) the projections have the
    law of (<n, x_k>)_k for n ~ N(0, I_d) and lie exactly in the range
    of the set's Gram.
    """
    if isinstance(templates, GramModel):
        if cfg.mode != "gram":
            raise ConfigError("a GramModel supports gram mode only")
        return templates.scale * templates.factor
    if isinstance(templates, TemplateSet):
        return templates.common_norm * rank_factor(templates.correlation())
    raise ConfigError(
        f"expected TemplateSet or GramModel, got {type(templates)!r}")


def _shapes(factor, cfg):
    """Accumulator shapes of one run: hard (cfg.beta = inf) or soft
    sums, then full mode's in-span sums (and, soft, sum_i p_i p_i^T)."""
    L, r = factor.shape
    full = cfg.mode == "full"
    if math.isinf(cfg.beta):
        return [L, (L, L), (L, L), 2] + ([(L, r)] if full else [])
    return [L, L, (L, L), (L, L), (L, L), 2] + ([(L, r), (L, L)]
                                                 if full else [])


def _feed(cfg, z, s, acc):
    """Add one block's projections s, and full mode's in-span sums of
    its normals z, into one run's accumulators."""
    full = cfg.mode == "full"
    if math.isinf(cfg.beta):
        labels = _kernels.hard_block(None, s, *acc[:4])
        if full:
            _kernels.label_vectors(None, z, labels, acc[4])
    else:
        p = _kernels.soft_block(None, s, float(cfg.beta), *acc[:6])
        if full:
            _kernels.weighted_vectors(None, z, p, acc[6])
            acc[7] += p @ p.T


def _split(flat, shapes):
    """flat, a run-major list of arrays, as one list per run."""
    arrays = iter(flat)
    return [[next(arrays) for _ in run] for run in shapes]


def _shared_pass(plans):
    """Accumulators of runs that share one draw key, one list per run.

    plans are (factor, cfg) pairs. Each chunk draws its (rows, r)
    standard normals z once, through _kernels.normal_blocks in blocks of
    _kernels.block_rows(L) rows, so the working set does not grow with
    m. Each block is projected once per distinct factor, cluster-major
    as the C-contiguous (L, rows) product factor @ z.T, and s, its
    (rows, L) transpose view, feeds the runs of that factor in turn, so
    every run sees the blocks and makes the additions of a lone run and
    its sums are bitwise that run's. z is a view of a reused buffer,
    valid until the next block; full-mode runs sum it per cluster for
    their estimator vectors (see _full_vectors).
    """
    cfg = plans[0][1]
    L, r = plans[0][0].shape
    models = {}
    for i, (factor, _) in enumerate(plans):
        models.setdefault(factor.tobytes(), (factor, []))[1].append(i)
    shapes = [_shapes(factor, c) for factor, c in plans]

    def fill(chunk, rows, ahead, *flat):
        acc = _split(flat, shapes)
        for z in _kernels.normal_blocks(cfg.seed, chunk, rows, L, ahead, r):
            for factor, members in models.values():
                s = (factor @ z.T).T
                for i in members:
                    _feed(plans[i][1], z, s, acc[i])

    return _split(_run_chunks(cfg, [sh for run in shapes for sh in run],
                              fill), shapes)


def assign_many(runs):
    """Estimates of (templates, cfg) runs, each bitwise what it returns
    alone; cfg.beta = inf makes a run hard.

    Runs that share a draw key (seed, m, chunks, threads, L and the rank
    of their factor) share one pass that draws each block of normals
    once (see _shared_pass). Each estimate is then finished by a call of
    the module attribute hard_assign or soft_assign with the run's own
    cfg and its sums, so wrappers of those names see one call per run;
    a run alone in its group makes its pass inside that call.
    """
    runs = list(runs)
    factors = [_factor(templates, cfg) for templates, cfg in runs]
    groups = {}
    for i, (factor, (_, cfg)) in enumerate(zip(factors, runs)):
        key = (cfg.seed, cfg.m, cfg.chunks, cfg.threads) + factor.shape
        groups.setdefault(key, []).append(i)
    sums = [None] * len(runs)
    for members in groups.values():
        if len(members) == 1:
            continue  # a lone run draws inside its own entry point
        shared = _shared_pass([(factors[i], runs[i][1]) for i in members])
        for i, acc in zip(members, shared):
            sums[i] = acc
    return [(hard_assign if math.isinf(cfg.beta) else soft_assign)(
        templates, cfg, sums=acc) for (templates, cfg), acc in zip(runs, sums)]


def _full_vectors(templates, factor, cfg, span_sums, noise_factor, weights):
    """Estimator vectors v_l = (B S_l + O_l) / w_l of a full-mode run.

    S_l = sum_i p_il z_i are the in-span sums of cluster l, of length r
    (p the hard labels as 0/1 or the soft weights; factor is the run's
    L x r factor) and w_l = sum_i p_il. With U_r diag(sv) V_r^T the top r
    singular triplets of the template matrix X, B = U_r diag(1/sv) V_r^T
    factor: X^T B z = factor @ z = s, as factor's columns lie in the range
    of X^T X, and B z has the law of the noise's component in span(X), so
    B S_l is the in-span part of the literal sum sum_i p_il n_i. The rest,
    sum_i p_il P n_i with P the projector onto the complement of span(X),
    of rank d - r, is independent of the weights and, given them, Gaussian
    with covariance C_lk P, where C = noise_factor @ noise_factor.T =
    sum_i p_i p_i^T. It is drawn once as O = noise_factor @ (Z P), with Z a
    standard normal block of noise_factor.shape[1] x d numbers from the
    stream of chunk index cfg.chunks, which no chunk uses, so O depends on
    (seed, chunks) only. Empty hard clusters give NaN rows.
    """
    with _ONE_BLAS_THREAD:
        u, sv, vt = np.linalg.svd(templates.matrix, full_matrices=False)
        r = factor.shape[1]
        q = u[:, :r]
        basis = q @ ((vt[:r] / sv[:r, None]) @ factor)
        noise = _kernels.chunk_generator(cfg.seed, cfg.chunks).standard_normal(
            (noise_factor.shape[1], templates.d))
        noise -= (noise @ q) @ q.T
        with np.errstate(invalid="ignore", divide="ignore"):
            return ((span_sums @ basis.T + noise_factor @ noise)
                    / weights[:, None])


def _finish(cfg, sums, record, **own):
    """The estimate of one run, of class record, from its sums; own are
    the fields of that class that the sums do not give.

    sums are a hard run's (counts, sum, sum of squares, pooled) or a soft
    run's (w1, w2, a1, a2, a3, pooled). The per-cluster statistics, so
    corr and stderr, are (L, L) on the general paths and (L,) on the
    diagonal ones; record._rows names them. A hard cluster's corr is its
    mean and the stderr that of a mean. A soft one's is the ratio R =
    sum(p S) / sum(p), with the delta-method stderr: Var ~ sum(p^2 (S -
    R)^2) / (sum p)^2, expanded in a2 = sum(p^2 S), a3 = sum(p^2 S^2) and
    w2 = sum(p^2). pooled holds the sum and sum of squares of the pooled
    per-sample statistic avg_self_corr.

    A cluster of mass 0 is empty: its corr row is 0/0 = NaN and it is
    listed in undefined. A stderr is infinite, with a warning, for a hard
    cluster with one sample, for every cluster of a one-sample soft run
    and wherever a cluster of positive mass came out with no spread, as
    when one sample carries nearly all of a soft cluster's weight.
    """
    m = cfg.m
    hard = math.isinf(cfg.beta)
    *stats, pooled = sums
    row = (-1,) + (1,) * (stats[-1].ndim - 1)
    w = stats[0].reshape(row)
    with np.errstate(invalid="ignore", divide="ignore"):
        if hard:
            _, total, total_sq = stats
            corr = total / w
            c = np.maximum(w, 1.0)
            var = np.maximum(total_sq - total ** 2 / c, 0.0)
            stderr = np.where(w >= 2, np.sqrt(var) / c, np.inf)
        else:
            _, w2, a1, a2, a3 = stats
            corr = a1 / w
            var = np.maximum(a3 - 2.0 * corr * a2
                             + corr ** 2 * w2.reshape(row), 0.0)
            stderr = (np.sqrt(var) / w if m >= 2
                      else np.full(corr.shape, np.inf))
    mass = stats[0] / m
    flat = (mass > 0).reshape(row) & ~(stderr > 0)
    stderr[flat] = np.inf
    flat = flat.reshape(len(mass), -1).any(axis=1)
    undefined = []
    warnings_ = ["single sample: stderr infinite"] if not hard and m < 2 else []
    for l in range(len(mass)):
        if mass[l] == 0:
            undefined.append(l)
            warnings_.append(f"empty cluster {l}: corr row undefined")
        elif hard and stats[0][l] < 2:
            warnings_.append(f"cluster {l} has a single sample: stderr infinite")
        elif flat[l]:
            warnings_.append(f"cluster {l} has no spread: stderr infinite")
    avg = pooled[0] / m
    avg_se = (math.sqrt(max(pooled[1] / m - avg * avg, 0.0) / m) if m >= 2
              else math.inf)
    return record(**dict(zip(record._rows, (corr, stderr))), **own,
                  mass=mass, m=m, beta=float(cfg.beta), seed=cfg.seed,
                  chunks=cfg.chunks, avg_self_corr=avg, avg_self_stderr=avg_se,
                  warnings=tuple(warnings_), undefined=tuple(undefined))


def hard_assign(templates, cfg, *, sums=None):
    """One hard assignment-and-average step on pure noise.

    templates is a TemplateSet (either mode) or GramModel (gram mode).
    sums are the run's accumulators from a pass shared with other runs
    (see assign_many); without them the run draws its own.
    """
    if not math.isinf(cfg.beta):
        raise ConfigError("hard_assign expects cfg.beta = inf; use soft_assign")
    return _assign(templates, cfg, sums)


def soft_assign(templates, cfg, *, sums=None):
    """One softmax-weighted averaging step (single EM iteration) on
    noise; templates and sums as in hard_assign."""
    if math.isinf(cfg.beta):
        raise ConfigError("soft_assign expects finite cfg.beta")
    return _assign(templates, cfg, sums)


def _assign(templates, cfg, sums):
    """The estimate of a general run, hard or soft by cfg.beta. Full
    mode's out-of-span noise factor (see _full_vectors) is diag(sqrt
    counts) for hard labels and factors sum_i p_i p_i^T for soft ones."""
    factor = _factor(templates, cfg)
    if sums is None:
        sums, = _shared_pass([(factor, cfg)])
    hard = math.isinf(cfg.beta)
    stats, span = (sums[:4], sums[4:]) if hard else (sums[:6], sums[6:])
    vec = None
    if span:
        noise = np.diag(np.sqrt(stats[0])) if hard else rank_factor(span[1])
        vec = _full_vectors(templates, factor, cfg, span[0], noise, stats[0])
    return _finish(cfg, stats, AssignmentEstimate, mode=cfg.mode,
                   estimates=vec)


def hard_assign_diag(L, cfg):
    """Hard run for L orthonormal templates, diagonal statistics only.

    Equal in law to hard_assign on an identity-correlation Gram but
    tracking just per-cluster count / mean / variance of the winning
    projection. Each sample draws O(1) numbers, a uniform label and its
    maximum by inversion of Phi**L, in place of L normals, so memory is
    O(L) and time O(1) per sample even at L = 4096. Empty clusters are
    listed in undefined, with warnings, as in hard_assign.
    """
    if not math.isinf(cfg.beta):
        raise ConfigError("hard_assign_diag expects cfg.beta = inf")
    L = _integer(L, "L", 2)

    def fill(chunk, rows, ahead, *acc):
        _kernels.hard_diag_chunk(None, cfg.seed, chunk, rows, L, *acc)

    return _finish(cfg, _run_chunks(cfg, (L, L, L, 2), fill),
                   GramDiagEstimate)


def soft_assign_diag(L, cfg):
    """Soft run for L orthonormal templates, diagonal statistics only."""
    if math.isinf(cfg.beta):
        raise ConfigError("soft_assign_diag expects finite cfg.beta")
    beta = float(cfg.beta)
    L = _integer(L, "L", 2)

    def fill(chunk, rows, ahead, *acc):
        _kernels.soft_diag_chunk(None, cfg.seed, chunk, rows, L, beta,
                                 *acc, ahead=ahead)

    return _finish(cfg, _run_chunks(cfg, (L, L, L, L, L, 2), fill),
                   GramDiagEstimate)


def correlation_matrix(est, templates):
    """Recompute <x_hat_l, x_k> from full-mode estimator vectors."""
    if est.estimates is None:
        raise ConfigError("correlation_matrix needs a full-mode estimate")
    if templates.d != est.estimates.shape[1]:
        raise DimensionError(
            f"dimension mismatch: templates d={templates.d}, "
            f"estimates d={est.estimates.shape[1]}")
    return est.estimates @ templates.matrix


def _full_rank(corr):
    """RankError unless corr has full rank by templates.rank_factor."""
    rank = rank_factor(corr).shape[1]
    if rank < corr.shape[0]:
        raise RankError(f"template correlation is singular: rank {rank} "
                        f"of {corr.shape[0]}")


def span_residual(est, templates):
    """Fraction of each estimator vector outside the template span (NaN
    for an empty cluster); a singular set raises RankError."""
    if est.estimates is None:
        raise ConfigError("span_residual needs a full-mode estimate")
    if templates.d <= templates.L:
        raise DimensionError("span residual needs d > L")
    _full_rank(templates.correlation())
    v = est.estimates
    with _ONE_BLAS_THREAD, np.errstate(invalid="ignore"):
        q = np.linalg.svd(templates.matrix, full_matrices=False)[0]
        return (np.linalg.norm(v - (v @ q) @ q.T, axis=1)
                / np.linalg.norm(v, axis=1))


def extract_coefficients(est, templates):
    """Least-squares coefficients of each estimator in the template basis.

    Solves corr = alpha @ G for alpha, with G the unnormalized Gram
    matrix of the templates; a singular template set raises RankError (a
    GramModel is never singular).
    """
    if isinstance(templates, GramModel):
        gram = templates.covariance()
    else:
        _full_rank(templates.correlation())
        gram = templates.matrix.T @ templates.matrix
    return np.linalg.solve(gram.T, est.corr.T).T
