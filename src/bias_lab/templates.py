"""Template sets and their Gram models.

A template set is a d x L real matrix whose columns are the fixed
cluster centers handed to a single assignment pass. All columns share
one Euclidean norm. Everything the estimators measure depends on the
columns only through the L x L Gram matrix, so the set carries a
normalized correlation model (GramModel) alongside the raw vectors.
"""

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateTemplateSetError,
    DimensionError,
    DomainError,
    FactorizationError,
    ParseError,
    SpectrumError,
)

NORM_RTOL = 1e-9          # relative spread allowed among column norms
CORR_CAP = 1.0 - 1e-12    # pairwise correlation above this means duplicates
EIG_FLOOR = 1e-12         # smallest eigenvalue accepted as positive
FACTOR_ATOL = 1e-10       # per-entry tolerance for factor @ factor.T == rho


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GramModel:
    """Normalized correlation matrix of a template set plus a sampling factor.

    rho is L x L with unit diagonal, scale is the common column norm, and
    factor satisfies factor @ factor.T == rho so that factor @ z maps iid
    standard normals to the correlation structure of template projections.
    """

    rho: np.ndarray
    scale: float
    factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionError("rho must be a square matrix")
        L = rho.shape[0]
        if L < 2:
            raise DimensionError("a Gram model needs at least two templates")
        if not np.all(np.isfinite(rho)):
            raise DomainError("rho contains non-finite entries")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise DomainError("rho must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-9):
            raise DomainError("rho must have a unit diagonal")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DomainError("scale must be a positive finite real")
        factor = np.asarray(self.factor, dtype=np.float64)
        if factor.shape != rho.shape:
            raise DimensionError("factor must have the same shape as rho")
        if np.max(np.abs(factor @ factor.T - rho)) > FACTOR_ATOL:
            raise FactorizationError("factor does not reproduce rho")
        object.__setattr__(self, "rho", _readonly(rho))
        object.__setattr__(self, "factor", _readonly(factor))
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def L(self):
        return self.rho.shape[0]

    @classmethod
    def from_correlation(cls, rho, scale=1.0):
        """Build a model from a correlation matrix, factoring by Cholesky.

        Raises FactorizationError when the matrix is not positive definite
        (smallest eigenvalue at or below the acceptance floor).
        """
        rho = np.asarray(rho, dtype=np.float64)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionError("rho must be a square matrix")
        rho = 0.5 * (rho + rho.T)
        if _offdiag_absent(rho):
            return cls(rho=rho, scale=scale, factor=np.eye(rho.shape[0]))
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo <= EIG_FLOOR:
            raise FactorizationError(
                f"correlation matrix is not positive definite "
                f"(smallest eigenvalue {lo:.3e})")
        try:
            factor = np.linalg.cholesky(rho)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"Cholesky failed: {exc}") from exc
        return cls(rho=rho, scale=scale, factor=factor)

    def covariance(self):
        """Covariance of the raw template projections, scale**2 * rho."""
        return (self.scale ** 2) * self.rho


def _offdiag_absent(m):
    return np.count_nonzero(m - np.diag(np.diag(m))) == 0


@dataclass(frozen=True)
class TemplateSet:
    """Immutable d x L matrix of templates with a shared column norm."""

    matrix: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise DimensionError("template matrix must be two dimensional")
        d, L = m.shape
        if L < 2:
            raise DimensionError("a template set needs at least two columns")
        if d < 1:
            raise DimensionError("templates must have at least one row")
        if not np.all(np.isfinite(m)):
            raise DomainError("template matrix contains non-finite entries")
        norms = np.linalg.norm(m, axis=0)
        if np.any(norms == 0.0):
            raise DegenerateTemplateSetError("a template column is all zero")
        spread = (norms.max() - norms.min()) / norms.max()
        if spread > NORM_RTOL:
            raise DomainError(
                f"column norms differ by relative {spread:.3e}; "
                f"all templates must share one norm")
        unit = m / norms
        corr = unit.T @ unit
        hi = float(np.max(corr - np.eye(L)))
        if hi > CORR_CAP:
            raise DegenerateTemplateSetError(
                f"two templates are (nearly) identical, correlation {hi!r}")
        labels = tuple(self.labels) if self.labels else tuple(
            f"t{idx}" for idx in range(L))
        if len(labels) != L:
            raise DimensionError("need exactly one label per template")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "labels", labels)

    @property
    def d(self):
        return self.matrix.shape[0]

    @property
    def L(self):
        return self.matrix.shape[1]

    @property
    def common_norm(self):
        return float(np.linalg.norm(self.matrix[:, 0]))

    def correlation(self):
        """Normalized Gram matrix of the columns (unit diagonal)."""
        n = self.common_norm
        c = (self.matrix.T @ self.matrix) / (n * n)
        c = 0.5 * (c + c.T)
        np.fill_diagonal(c, 1.0)
        return c

    def gram(self):
        """Strict GramModel of this set; requires a positive definite Gram."""
        return GramModel.from_correlation(self.correlation(),
                                          scale=self.common_norm)


def make_pair(rho, d=2, norm=1.0):
    """Two templates at a prescribed correlation.

    rho = -1 is allowed and yields the antipodal pair x1 = -x0; rho = 1
    would collapse the pair to one template and is rejected.
    """
    if not (math.isfinite(rho) and -1.0 <= rho <= 1.0):
        raise DomainError(f"pair correlation must lie in [-1, 1], got {rho!r}")
    if rho > CORR_CAP:
        raise DegenerateTemplateSetError(
            "rho = 1 collapses the pair to a single template")
    if d < 2:
        raise DimensionError("a pair needs ambient dimension at least 2")
    if not (norm > 0.0 and math.isfinite(norm)):
        raise DomainError("norm must be a positive finite real")
    m = np.zeros((d, 2))
    m[0, 0] = 1.0
    m[0, 1] = rho
    m[1, 1] = math.sqrt(max(0.0, 1.0 - rho * rho))
    return TemplateSet(matrix=norm * m, labels=("x0", "x1"))


def circulant_spectrum(rho_seq):
    """Eigenvalues of the circulant correlation matrix with first row rho_seq."""
    seq = np.asarray(rho_seq, dtype=np.float64)
    if seq.ndim != 1 or seq.size < 2:
        raise DimensionError("rho_seq must be a 1-D sequence of length >= 2")
    if abs(seq[0] - 1.0) > 1e-12:
        raise DomainError("rho_seq[0] must equal 1 (unit diagonal)")
    if np.max(np.abs(seq[1:] - seq[::-1][:-1])) > 1e-12:
        raise DomainError("rho_seq must be symmetric: rho_seq[k] == rho_seq[L-k]")
    return np.real(np.fft.fft(seq))


def make_circulant(rho_seq, d=None, norm=1.0):
    """Circulant template set whose Gram has first row rho_seq.

    The set embeds the symmetric square root of the circulant correlation
    matrix into the first L coordinates of R^d, so d >= L is required.
    """
    lam = circulant_spectrum(rho_seq)
    L = lam.size
    lo = float(lam.min())
    if lo <= EIG_FLOOR:
        raise SpectrumError(
            f"circulant spectrum has eigenvalue {lo:.3e}; "
            f"the correlation model is not positive definite")
    if not (norm > 0.0 and math.isfinite(norm)):
        raise DomainError("norm must be a positive finite real")
    if d is None:
        d = L
    if d < L:
        raise DimensionError(f"need d >= L to embed the set, got d={d}, L={L}")
    root_row = np.real(np.fft.ifft(np.sqrt(lam)))
    idx = np.arange(L)
    root = root_row[(idx[None, :] - idx[:, None]) % L]
    m = np.zeros((d, L))
    m[:L, :] = root
    return TemplateSet(matrix=norm * m,
                       labels=tuple(f"c{k}" for k in range(L)))


def make_exponential(d, alpha, norm=1.0):
    """Unit-energy decaying profile exp(-alpha * m), m = 0..d-1, scaled to norm."""
    if d < 2:
        raise DimensionError("need at least two samples in the profile")
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise DomainError("alpha must be a finite nonnegative real")
    if not (norm > 0.0 and math.isfinite(norm)):
        raise DomainError("norm must be a positive finite real")
    v = np.exp(-alpha * np.arange(d, dtype=np.float64))
    return norm * v / np.linalg.norm(v)


def random_correlation(rng, L, rmax=0.8):
    """Random L x L correlation matrix with off-diagonals bounded by rmax.

    Normalizes the Gram of L Gaussian vectors in 2L dimensions. When an
    off-diagonal exceeds rmax, all off-diagonals shrink by one factor so
    that the largest equals rmax. Redraws until the smallest eigenvalue
    exceeds 1e-6.
    """
    while True:
        a = rng.standard_normal((L, 2 * L))
        c = a @ a.T
        d = np.sqrt(np.diag(c))
        rho = c / np.outer(d, d)
        off = rho - np.diag(np.diag(rho))
        top = np.max(np.abs(off))
        if top > rmax:
            rho = np.eye(L) + off * (rmax / top)
        if np.linalg.eigvalsh(rho)[0] > 1e-6:
            return rho


def make_haar_family(x0, L, seed):
    """x0 together with L-1 copies rotated by independent Haar rotations.

    Each rotation is the Q factor of a Gaussian matrix with the sign of
    diag(R) folded in, which makes Q exactly Haar distributed. Norms are
    preserved, so the family shares the norm of x0.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    d = x0.size
    if d < 2:
        raise DimensionError("need ambient dimension at least 2 to rotate")
    if L < 2:
        raise DimensionError("a family needs at least two members")
    if not np.all(np.isfinite(x0)) or np.linalg.norm(x0) == 0.0:
        raise DomainError("x0 must be finite and nonzero")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = np.empty((d, L))
    m[:, 0] = x0
    for k in range(1, L):
        g = rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        s = np.sign(np.diag(r))
        s[s == 0.0] = 1.0
        m[:, k] = (q * s) @ x0
    return TemplateSet(matrix=m, labels=tuple(f"h{k}" for k in range(L)))


def save_csv(ts, path, header=True):
    """Write a set as CSV with d rows and L columns (UTF-8)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(",".join(ts.labels) + "\n")
        for row in ts.matrix:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_csv(path, header="auto", rescale=True, norm=None):
    """Read a template set written as d rows by L columns.

    header may be True, False, or "auto" (treat the first line as labels
    when it fails to parse as numbers). With rescale on, every column is
    scaled to a common norm (norm argument, else 1.0); switching rescale
    off keeps the stored vectors, which must then already share a norm.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty template file")
    labels = None
    start = 0
    first = lines[0].split(",")
    if header is True:
        labels, start = [c.strip() for c in first], 1
    elif header == "auto":
        try:
            [float(c) for c in first]
        except ValueError:
            labels, start = [c.strip() for c in first], 1
    rows = []
    width = None
    for ln in lines[start:]:
        cells = ln.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"{path}: ragged row with {len(cells)} cells, "
                             f"expected {width}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"{path}: non-numeric cell ({exc})") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    m = np.asarray(rows, dtype=np.float64)
    if labels is not None and len(labels) != m.shape[1]:
        raise ParseError(f"{path}: {len(labels)} header labels for "
                         f"{m.shape[1]} columns")
    if rescale:
        norms = np.linalg.norm(m, axis=0)
        if np.any(norms == 0.0):
            raise DegenerateTemplateSetError(f"{path}: zero template column")
        m = m / norms * (1.0 if norm is None else float(norm))
    return TemplateSet(matrix=m, labels=tuple(labels) if labels else ())


_PGM_TOKEN = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\S+)")


def _pgm_tokens(data, count):
    """First tokens of a PGM header, skipping comment lines."""
    out, pos = [], 0
    for _ in range(count):
        mt = _PGM_TOKEN.match(data, pos)
        if mt is None:
            raise ParseError("truncated PGM header")
        out.append(mt.group(1))
        pos = mt.end()
    return out, pos


def load_pgm(path):
    """Read one binary (P5) PGM image; returns (vector, width, height)."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks, pos = _pgm_tokens(data, 4)
    if toks[0] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (magic {toks[0]!r})")
    try:
        width, height, maxval = (int(t) for t in toks[1:])
    except ValueError as exc:
        raise ParseError(f"{path}: bad PGM header") from exc
    if maxval <= 0 or maxval > 255:
        raise ParseError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    pos += 1  # single whitespace byte before the raster
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise ParseError(f"{path}: raster has {len(raster)} bytes, "
                         f"expected {width * height}")
    v = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    return v, width, height


def load_pgm_dir(dirpath, mean_subtract=True, norm=1.0):
    """Build a template set from every .pgm image in a directory.

    Images are flattened in row-major order, optionally centered by
    subtracting each image's mean gray level, then scaled to a common
    norm. Files are taken in sorted name order; labels are file stems.
    """
    names = sorted(n for n in os.listdir(dirpath) if n.lower().endswith(".pgm"))
    if len(names) < 2:
        raise ParseError(f"{dirpath}: need at least two .pgm files")
    cols, shape = [], None
    for name in names:
        v, w, h = load_pgm(os.path.join(dirpath, name))
        if shape is None:
            shape = (w, h)
        elif (w, h) != shape:
            raise DimensionError(
                f"{name}: size {w}x{h} differs from first image "
                f"{shape[0]}x{shape[1]}")
        if mean_subtract:
            v = v - v.mean()
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise DegenerateTemplateSetError(f"{name}: constant image")
        cols.append(v / nv * norm)
    m = np.column_stack(cols)
    ts = TemplateSet(matrix=m,
                     labels=tuple(os.path.splitext(n)[0] for n in names))
    return ts, shape
