"""Streaming Monte Carlo engine for one-step assignment estimators.

Implements a single hard-assignment step (classify each pure-noise
observation to its best-matching template by inner product, then average
per class) and a single soft step (softmax-weighted averages at
sharpness beta), in two sampling modes:

* full mode draws observations n ~ N(0, I_d) and also returns the
  estimator vectors themselves;
* gram mode draws the projection vector S = scale * (factor @ z) with
  z ~ N(0, I_L) directly, which has exactly the distribution of
  (<n, x_k>)_k and makes the cost dimension-free.

Samples are split into a fixed number of chunks; each chunk owns an RNG
stream derived from (seed, chunk index) and accumulates partial sums,
which are then combined in index order with compensated summation.
Results are therefore bitwise reproducible for fixed (seed, chunks) no
matter how many worker threads run.

The orthonormal high-L sweeps get dedicated diagonal-only entry points
that track just the per-sample argmax / softmax self terms, avoiding the
L x L accumulators.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FactorizationError,
    RankError,
)
from .templates import GramModel, TemplateSet

_AUTO_CHUNK_ROWS = 131072
_MAX_AUTO_CHUNKS = 64
_GRAM_SLICE = 4_000_000
_FULL_SLICE = 2_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling plan for one estimator run.

    m is the number of observations, beta the softmax sharpness
    (math.inf selects hard assignment), chunks the number of independent
    accumulation blocks (None picks a deterministic default from m).
    threads never affect values.
    """

    m: int
    seed: int = 0
    mode: str = "gram"
    beta: float = math.inf
    chunks: int = None
    threads: int = None

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ConfigError(f"m must be a positive integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if self.mode not in ("full", "gram"):
            raise ConfigError(f"mode must be 'full' or 'gram', got {self.mode!r}")
        if not (self.beta > 0):
            raise DomainError(f"beta must be positive (inf = hard), got {self.beta}")
        if self.chunks is None:
            auto = max(1, min(_MAX_AUTO_CHUNKS, self.m // _AUTO_CHUNK_ROWS))
            object.__setattr__(self, "chunks", auto)
        if int(self.chunks) != self.chunks or not 1 <= self.chunks <= self.m:
            raise ConfigError(
                f"chunks must be an integer in [1, m], got {self.chunks}")
        object.__setattr__(self, "chunks", int(self.chunks))


@dataclass(frozen=True)
class AssignmentEstimate:
    """Immutable result of one hard or soft estimator run.

    corr[l][k] = <x_hat_l, x_k> (raw inner products); mass[l] is the
    cluster fraction (hard) or mean softmax weight (soft); stderr holds
    delta-method Monte Carlo standard errors for corr entries.
    avg_self_corr = sum_l mass[l] * corr[l][l] carries its own pooled
    stderr, which accounts for cross-cluster covariance. estimates holds
    the L estimator vectors in full mode, None in gram mode. Rows listed
    in undefined had an empty cluster; their corr entries are NaN and a
    warning is attached.
    """

    mode: str
    corr: np.ndarray
    stderr: np.ndarray
    mass: np.ndarray
    m: int
    beta: float
    seed: int
    chunks: int
    avg_self_corr: float
    avg_self_stderr: float
    estimates: np.ndarray = None
    warnings: tuple = ()
    undefined: tuple = ()

    def __post_init__(self):
        for name in ("corr", "stderr", "mass", "estimates"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.float64)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if np.any(self.mass < -1e-12):
            raise DomainError("negative mass entry")
        if abs(float(self.mass.sum()) - 1.0) > 1e-9:
            raise DomainError(
                f"mass must sum to 1 within 1e-9, got {self.mass.sum()!r}")
        live = self.mass > 0
        ok = np.ones_like(self.mass, dtype=bool)
        ok[list(self.undefined)] = False
        if np.any(~(self.stderr[live & ok] > 0)):
            raise DomainError("stderr must be positive wherever mass > 0")

    @property
    def L(self):
        return self.mass.shape[0]

    def save_csv(self, directory, stem="estimate"):
        """Write corr / stderr / mass tables as headed CSV files."""
        L = self.L
        cols = ",".join(f"corr_with_t{k}" for k in range(L))
        np.savetxt(os.path.join(directory, f"{stem}_corr.csv"), self.corr,
                   delimiter=",", header=cols, comments="", fmt="%.17g")
        np.savetxt(os.path.join(directory, f"{stem}_stderr.csv"), self.stderr,
                   delimiter=",", header=cols.replace("corr_with", "stderr"),
                   comments="", fmt="%.17g")
        np.savetxt(os.path.join(directory, f"{stem}_mass.csv"),
                   self.mass[None, :], delimiter=",",
                   header=",".join(f"mass_t{k}" for k in range(L)),
                   comments="", fmt="%.17g")


@dataclass(frozen=True)
class GramDiagEstimate:
    """Diagonal-only statistics from the orthonormal-template fast path.

    self_corr[l] = mean own-template projection within cluster l (hard)
    or weighted mean (soft); avg_self_corr pools all samples. Only valid
    for identity correlation, where the own projection of a hard winner
    is the row maximum.
    """

    corr_diag: np.ndarray
    stderr_diag: np.ndarray
    mass: np.ndarray
    m: int
    beta: float
    seed: int
    chunks: int
    scale: float
    avg_self_corr: float
    avg_self_stderr: float

    def __post_init__(self):
        for name in ("corr_diag", "stderr_diag", "mass"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def L(self):
        return self.mass.shape[0]


def _psd_factor(corr):
    """Factor F with F @ F.T = corr, tolerating a semidefinite matrix.

    Cholesky when positive definite; otherwise an eigendecomposition
    with negative eigenvalues clipped at zero, which handles exactly
    antipodal template pairs (correlation -1).
    """
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(corr)
        if vals.min() < -1e-8:
            raise FactorizationError(
                f"correlation matrix has eigenvalue {vals.min():.3e} < 0")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _run_chunks(cfg, worker):
    """Run worker(chunk_index, rows) over all chunks, in parallel when asked."""
    rows = _kernels.chunk_rows(cfg.m, cfg.chunks)
    threads = cfg.threads
    if threads is None:
        threads = min(len(rows), os.cpu_count() or 1)
    if threads <= 1 or len(rows) == 1:
        return [worker(c, r) for c, r in enumerate(rows)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futs = [pool.submit(worker, c, r) for c, r in enumerate(rows)]
        return [f.result() for f in futs]


def _kahan_combine(parts):
    """Sum tuples of accumulator arrays over chunks, compensated, in order."""
    totals = [np.zeros_like(a) for a in parts[0]]
    comps = [np.zeros_like(a) for a in parts[0]]
    for part in parts:
        for t, c, v in zip(totals, comps, part):
            y = v - c
            s = t + y
            c[...] = (s - t) - y
            t[...] = s
    return totals


def _accumulate(cfg, shapes, fill):
    """Zeroed accumulators of the given shapes, filled per chunk by
    fill(chunk, rows, *acc) and combined in chunk order."""
    def worker(chunk, rows):
        acc = [np.zeros(shape) for shape in shapes]
        fill(chunk, rows, *acc)
        return acc

    return _kahan_combine(_run_chunks(cfg, worker))


def _sampler(templates, cfg):
    """(L, d, blocks): blocks(chunk, rows) yields one chunk's (n, s) slices.

    templates is a TemplateSet (either mode) or GramModel (gram mode).
    s holds the projections <n, x_k>. Full mode yields the noise block n
    as well, a view of one reused buffer that is valid until the next
    slice; gram mode draws s = z @ (scale * factor).T directly, whose
    law is the same, yields n = None and reports d = None.
    """
    if isinstance(templates, GramModel):
        if cfg.mode != "gram":
            raise ConfigError("a GramModel supports gram mode only")
        factor = templates.scale * templates.factor
    elif isinstance(templates, TemplateSet):
        if cfg.mode == "gram":
            factor = templates.common_norm * _psd_factor(
                templates.correlation())
    else:
        raise ConfigError(
            f"expected TemplateSet or GramModel, got {type(templates)!r}")
    L = templates.L
    if cfg.mode == "gram":
        d, proj = None, factor.T.copy()
        width, slice_rows = L, max(1, _GRAM_SLICE // L)
    else:
        d, proj = templates.d, templates.matrix
        width, slice_rows = d, max(1, _FULL_SLICE // d)

    def blocks(chunk, rows):
        g = _kernels.chunk_generator(cfg.seed, chunk)
        buf = np.empty((min(slice_rows, rows), width))
        for done in range(0, rows, slice_rows):
            n = g.standard_normal(out=buf[:min(slice_rows, rows - done)])
            yield (None if d is None else n), n @ proj

    return L, d, blocks


def _pooled(pooled, m):
    """Mean and stderr of the pooled per-sample statistic."""
    avg = pooled[0] / m
    if m < 2:
        return avg, math.inf
    return avg, math.sqrt(max(pooled[1] / m - avg * avg, 0.0) / m)


def _mean(total, total_sq, counts):
    """Per-cluster mean and its stderr from count, sum and sum of squares.

    An empty cluster has a NaN mean; fewer than two samples give an
    infinite stderr.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = total / counts
        c = np.maximum(counts, 1.0)
        var = np.maximum(total_sq - total ** 2 / c, 0.0)
        return mean, np.where(counts >= 2, np.sqrt(var) / c, np.inf)


def _ratio(num, num_w, num_w2, w1, w2, m):
    """Ratio estimate sum(p S) / sum(p) and its delta-method stderr.

    Var ~ sum(p^2 (S - R)^2) / (sum p)^2, expanded in the streaming
    moments num_w = sum(p^2 S), num_w2 = sum(p^2 S^2) and w2 = sum(p^2).
    A single sample carries no spread, so its stderr is infinite.
    """
    ratio = num / w1
    var_num = np.maximum(num_w2 - 2.0 * ratio * num_w + ratio ** 2 * w2, 0.0)
    stderr = np.sqrt(var_num) / w1
    if m < 2:
        stderr = np.full_like(stderr, np.inf)
    return ratio, stderr


def hard_assign(templates, cfg):
    """One hard assignment-and-average step on pure noise.

    templates is a TemplateSet (either mode) or GramModel (gram mode).
    """
    if not math.isinf(cfg.beta):
        raise ConfigError("hard_assign expects cfg.beta = inf; use soft_assign")
    L, d, blocks = _sampler(templates, cfg)

    def fill(chunk, rows, counts, sum1, sum2, pooled, vec=None):
        for n, s in blocks(chunk, rows):
            labels = _kernels.hard_block(None, s, counts, sum1, sum2, pooled)
            if vec is not None:
                _kernels.label_vectors(None, n, labels, vec)

    shapes = [L, (L, L), (L, L), 2] + ([] if d is None else [(L, d)])
    counts, sum1, sum2, pooled, *vec_sum = _accumulate(cfg, shapes, fill)
    vec = None
    if vec_sum:
        with np.errstate(invalid="ignore", divide="ignore"):
            vec = vec_sum[0] / counts[:, None]
    m = cfg.m
    corr, stderr = _mean(sum1, sum2, counts[:, None])
    undefined = []
    warnings_ = []
    for l in range(L):
        if counts[l] < 1:
            undefined.append(l)
            warnings_.append(f"empty cluster {l}: corr row undefined")
        elif counts[l] < 2:
            warnings_.append(f"cluster {l} has a single sample: stderr infinite")
    corr[undefined] = np.nan
    avg, avg_se = _pooled(pooled, m)
    return AssignmentEstimate(
        mode=cfg.mode, corr=corr, stderr=stderr, mass=counts / m, m=m,
        beta=math.inf, seed=cfg.seed, chunks=cfg.chunks,
        avg_self_corr=avg, avg_self_stderr=avg_se, estimates=vec,
        warnings=tuple(warnings_), undefined=tuple(undefined))


def soft_assign(templates, cfg):
    """One softmax-weighted averaging step (single EM iteration) on noise."""
    if math.isinf(cfg.beta):
        raise ConfigError("soft_assign expects finite cfg.beta")
    beta = float(cfg.beta)
    L, d, blocks = _sampler(templates, cfg)

    def fill(chunk, rows, w1, w2, a1, a2, a3, pooled, vec=None):
        for n, s in blocks(chunk, rows):
            p = _kernels.soft_block(None, s, beta, w1, w2, a1, a2, a3, pooled)
            if vec is not None:
                _kernels.weighted_vectors(None, n, p, vec)

    shapes = [L, L, (L, L), (L, L), (L, L), 2] + ([] if d is None else [(L, d)])
    w1, w2, a1, a2, a3, pooled, *vec_sum = _accumulate(cfg, shapes, fill)
    vec = vec_sum[0] / w1[:, None] if vec_sum else None
    m = cfg.m
    corr, stderr = _ratio(a1, a2, a3, w1[:, None], w2[:, None], m)
    avg, avg_se = _pooled(pooled, m)
    warnings_ = ("single sample: stderr infinite",) if m < 2 else ()
    return AssignmentEstimate(
        mode=cfg.mode, corr=corr, stderr=stderr, mass=w1 / m, m=m,
        beta=beta, seed=cfg.seed, chunks=cfg.chunks,
        avg_self_corr=avg, avg_self_stderr=avg_se, estimates=vec,
        warnings=warnings_)


def _check_diag(L):
    L = int(L)
    if L < 2:
        raise DomainError(f"need at least two templates, got L={L}")
    return L


def hard_assign_diag(L, cfg, scale=1.0):
    """Hard run for L orthonormal templates, diagonal statistics only.

    Equivalent to hard_assign on an identity-correlation Gram but
    tracking just per-cluster count / mean / variance of the winning
    projection, which keeps memory and time O(L) per sample even at
    L = 4096.
    """
    if not math.isinf(cfg.beta):
        raise ConfigError("hard_assign_diag expects cfg.beta = inf")
    L = _check_diag(L)
    scale = float(scale)

    def fill(chunk, rows, *acc):
        _kernels.hard_diag_chunk(None, cfg.seed, chunk, rows, L, scale, *acc)

    counts, d1, d2, pooled = _accumulate(cfg, (L, L, L, 2), fill)
    diag, se = _mean(d1, d2, counts)
    avg, avg_se = _pooled(pooled, cfg.m)
    return GramDiagEstimate(
        corr_diag=diag, stderr_diag=se, mass=counts / cfg.m, m=cfg.m,
        beta=math.inf, seed=cfg.seed, chunks=cfg.chunks,
        scale=scale, avg_self_corr=avg, avg_self_stderr=avg_se)


def soft_assign_diag(L, cfg, scale=1.0):
    """Soft run for L orthonormal templates, diagonal statistics only."""
    if math.isinf(cfg.beta):
        raise ConfigError("soft_assign_diag expects finite cfg.beta")
    beta = float(cfg.beta)
    L = _check_diag(L)
    scale = float(scale)

    def fill(chunk, rows, *acc):
        _kernels.soft_diag_chunk(None, cfg.seed, chunk, rows, L, scale, beta,
                                 *acc)

    w1, w2, b1, b2, b3, pooled = _accumulate(cfg, (L, L, L, L, L, 2), fill)
    diag, se = _ratio(b1, b2, b3, w1, w2, cfg.m)
    avg, avg_se = _pooled(pooled, cfg.m)
    return GramDiagEstimate(
        corr_diag=diag, stderr_diag=se, mass=w1 / cfg.m, m=cfg.m,
        beta=beta, seed=cfg.seed, chunks=cfg.chunks,
        scale=scale, avg_self_corr=avg, avg_self_stderr=avg_se)


def correlation_matrix(est, templates):
    """Recompute <x_hat_l, x_k> from full-mode estimator vectors."""
    if est.mode != "full" or est.estimates is None:
        raise ConfigError("correlation_matrix needs a full-mode estimate")
    if templates.d != est.estimates.shape[1]:
        raise DimensionError(
            f"dimension mismatch: templates d={templates.d}, "
            f"estimates d={est.estimates.shape[1]}")
    return est.estimates @ templates.matrix


def span_residual(est, templates):
    """Fraction of each estimator vector outside the template span."""
    if est.mode != "full" or est.estimates is None:
        raise ConfigError("span_residual needs a full-mode estimate")
    if templates.d <= templates.L:
        raise DimensionError("span residual needs d > L")
    q, r = np.linalg.qr(templates.matrix)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-10 * max(diag.max(), 1.0):
        raise RankError("template matrix is numerically rank deficient")
    out = np.empty(est.L)
    for l in range(est.L):
        v = est.estimates[l]
        nv = np.linalg.norm(v)
        if not np.isfinite(nv) or nv == 0.0:
            out[l] = np.nan
            continue
        resid = v - q @ (q.T @ v)
        out[l] = np.linalg.norm(resid) / nv
    return out


def extract_coefficients(est, templates):
    """Least-squares coefficients of each estimator in the template basis.

    Solves corr = alpha @ G for alpha, with G the unnormalized Gram
    matrix of the templates.
    """
    if isinstance(templates, GramModel):
        gram = templates.covariance()
    else:
        gram = templates.matrix.T @ templates.matrix
    try:
        alpha = np.linalg.solve(gram.T, est.corr.T).T
    except np.linalg.LinAlgError as exc:
        raise RankError(f"singular Gram matrix: {exc}") from exc
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise RankError(f"Gram matrix numerically singular (cond={cond:.2e})")
    return alpha
