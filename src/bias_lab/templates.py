"""Template sets and their Gram models.

A template set is a d x L real matrix whose columns are the fixed
cluster centers handed to a single assignment pass. All columns share
one Euclidean norm. Everything the estimators measure depends on the
columns only through the L x L Gram matrix, so the set carries a
normalized correlation model (GramModel) alongside the raw vectors.

Rank rule: rank_factor alone decides the rank r of a singular Gram (the
antipodal pair, three templates in a plane, d < L), under the one
tolerance RANK_RTOL. Gram and full mode draw r normals per sample, so
they stay exactly in its range. GramModel (behind TemplateSet.gram()
and the oracle's models) and make_circulant refuse a singular set;
span_residual and extract_coefficients raise RankError. Templates read
from files (load_csv, load_pgm_dir) are scaled to norm 1.
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
RANK_RTOL = 1e-12         # eigenvalues up to this times the largest are zero


def rank_factor(c):
    """L x r factor F with F @ F.T == c, r the rank of symmetric c.

    An eigenvalue at or below RANK_RTOL * lambda_max counts as zero; one
    below -RANK_RTOL * lambda_max raises FactorizationError (for a
    correlation, rank L means cond < 1 / RANK_RTOL). A positive definite
    c gets np.linalg.cholesky(c), a singular one the eigenvectors of its
    nonzero eigenvalues scaled by their square roots.
    """
    if not np.all(np.isfinite(c)):
        raise DomainError("matrix contains non-finite entries")
    vals = np.linalg.eigvalsh(c)
    tol = RANK_RTOL * vals[-1]
    if vals[0] < -tol:
        raise FactorizationError(
            f"matrix is not positive semidefinite (eigenvalues "
            f"{vals[0]:.3e} to {vals[-1]:.3e})")
    if vals[0] > tol:
        try:
            return np.linalg.cholesky(c)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"Cholesky failed: {exc}") from exc
    vals, vecs = np.linalg.eigh(c)
    keep = vals > tol
    return vecs[:, keep] * np.sqrt(vals[keep])


def _readonly(a):
    """a as a read-only contiguous float64 array, the form every array
    field of a package record takes."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _positive(value, name):
    """value as a float; DomainError unless it is a positive finite real."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be a positive finite real")
    return float(value)


def _integer(value, name, low, high=None, error=DomainError):
    """value as an int; error unless it is an integer in [low, high]
    (high None: no upper end). An integer is a Python or numpy integer,
    or a finite float with no fractional part; strings, NaN, infinities
    and fractions are refused, as are values out of range."""
    whole = (isinstance(value, (int, np.integer))
             or isinstance(value, (float, np.floating))
             and float(value).is_integer())
    if not (whole and low <= value and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class GramModel:
    """Normalized correlation matrix of a template set plus a sampling factor.

    rho is L x L with unit diagonal, symmetric within 1e-12 (stored
    exactly symmetric) and of full rank, scale the common column norm.
    factor = rank_factor(rho) maps iid standard normals z to projections
    factor @ z with the correlation structure of the templates.
    """

    rho: np.ndarray
    scale: float = 1.0
    factor: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "scale", _positive(self.scale, "scale"))
        rho = 0.5 * (rho + rho.T)
        factor = rank_factor(rho)
        if factor.shape[1] < L:
            raise FactorizationError(
                f"correlation matrix is singular: rank {factor.shape[1]} "
                f"of {L}")
        object.__setattr__(self, "rho", _readonly(rho))
        object.__setattr__(self, "factor", _readonly(factor))

    @property
    def L(self):
        return self.rho.shape[0]

    @classmethod
    def from_correlation(cls, rho, scale=1.0):
        """The model of correlation matrix rho at column norm scale."""
        return cls(rho=rho, scale=scale)

    def covariance(self):
        """Covariance of the raw template projections, scale**2 * rho."""
        return (self.scale ** 2) * self.rho


@dataclass(frozen=True, eq=False)
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
    d = _integer(d, "a pair's ambient dimension d", 2, error=DimensionError)
    _positive(norm, "norm")
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
    if lo <= RANK_RTOL * float(lam.max()):
        raise SpectrumError(
            f"circulant spectrum has eigenvalue {lo:.3e}; "
            f"the correlation model is not positive definite")
    _positive(norm, "norm")
    d = L if d is None else _integer(d, f"d (to embed L={L} templates)", L,
                                     error=DimensionError)
    root_row = np.real(np.fft.ifft(np.sqrt(lam)))
    idx = np.arange(L)
    root = root_row[(idx[None, :] - idx[:, None]) % L]
    m = np.zeros((d, L))
    m[:L, :] = root
    return TemplateSet(matrix=norm * m,
                       labels=tuple(f"c{k}" for k in range(L)))


def make_exponential(d, alpha, norm=1.0):
    """Unit-energy decaying profile exp(-alpha * m), m = 0..d-1, scaled to norm."""
    d = _integer(d, "the profile's sample count d", 2, error=DimensionError)
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise DomainError("alpha must be a finite nonnegative real")
    _positive(norm, "norm")
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
    L = _integer(L, "a family's size L", 2, error=DimensionError)
    if not np.all(np.isfinite(x0)) or np.linalg.norm(x0) == 0.0:
        raise DomainError("x0 must be finite and nonzero")
    rng = np.random.default_rng(np.random.SeedSequence(
        _integer(seed, "seed", 0)))
    m = np.empty((d, L))
    m[:, 0] = x0
    for k in range(1, L):
        g = rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        s = np.sign(np.diag(r))
        s[s == 0.0] = 1.0
        m[:, k] = (q * s) @ x0
    return TemplateSet(matrix=m, labels=tuple(f"h{k}" for k in range(L)))


def _numbers(cells):
    """Whether every cell parses as a number, which read_csv takes to
    mean a data row."""
    try:
        [float(c) for c in cells]
    except ValueError:
        return False
    return True


def write_csv(path, header, rows, digits):
    """Write the header line and one comma-separated line per row to
    path (UTF-8); returns path. Floats take `digits` significant digits:
    10 in check tables, 17 (exact) in template sets and estimate tables.
    Booleans read yes or no."""

    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "yes" if v else "no"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return format(float(v), f".{digits}g")
        return str(v)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")
    return path


def save_csv(ts, path):
    """Write a set as CSV (UTF-8): a header row of its labels, then d
    rows of L values. Labels that read_csv would not give back are
    refused with ParseError: labels that all parse as numbers (the
    header would read as data), and a label with a comma, a line break,
    or a blank at either end."""
    if _numbers(ts.labels):
        raise ParseError(f"labels {', '.join(ts.labels)} all parse as "
                         f"numbers, so the header would read as data")
    bad = [repr(s) for s in ts.labels
           if s != s.strip() or re.search("[,\r\n]", s)]
    if bad:
        raise ParseError(f"labels {', '.join(bad)} would not read back "
                         f"(a comma, a line break, or a blank at an end)")
    write_csv(path, ",".join(ts.labels), ts.matrix, 17)


def read_csv(path):
    """The stored d x L values of a template CSV and its header labels
    (None without a header), before any rescaling or TemplateSet check.

    The first line is taken as labels when it fails to parse as numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty template file")
    labels = None
    start = 0
    first = lines[0].split(",")
    if not _numbers(first):
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
    return m, labels


def load_csv(path):
    """Read a template set written as d rows by L columns (see read_csv),
    every column scaled to norm 1."""
    m, labels = read_csv(path)
    norms = np.linalg.norm(m, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateTemplateSetError(f"{path}: zero template column")
    return TemplateSet(matrix=m / norms,
                       labels=tuple(labels) if labels else ())


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


def render_pgm(vector, width, height, path):
    """Write a vector as a binary (P5) PGM image; returns path.

    The value range [min, max] maps affinely onto [0, 255]; constant
    vectors render as all-128. Scaling is per image.
    """
    width = _integer(width, "width", 1, error=DimensionError)
    height = _integer(height, "height", 1, error=DimensionError)
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.size != width * height:
        raise DimensionError(f"vector length {v.size} does not match "
                             f"{width}x{height}")
    if not np.all(np.isfinite(v)):
        raise DomainError("cannot render non-finite values")
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-300:
        pix = np.full(v.size, 128, dtype=np.uint8)
    else:
        pix = np.rint((v - lo) * (255.0 / (hi - lo)))
        pix = np.clip(pix, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pix.reshape(height, width).tobytes())
    return path


def load_pgm(path):
    """Read one binary (P5) PGM image; returns (vector, width, height)."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks, pos = _pgm_tokens(data, 4)
    if toks[0] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (magic {toks[0]!r})")
    try:  # a DomainError from _integer is a ValueError too
        width, height = (_integer(int(t), "PGM size", 1) for t in toks[1:3])
        maxval = _integer(int(toks[3]), "maxval (8-bit PGM only)", 1, 255)
    except ValueError as exc:
        raise ParseError(f"{path}: bad PGM header: {exc}") from exc
    pos += 1  # single whitespace byte before the raster
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise ParseError(f"{path}: raster has {len(raster)} bytes, "
                         f"expected {width * height}")
    v = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    return v, width, height


def load_pgm_dir(dirpath):
    """Build a template set from every .pgm image in a directory.

    Images are flattened in row-major order, centered by subtracting
    each image's mean gray level, then scaled to norm 1. Files are taken
    in sorted name order; labels are file stems.
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
        v = v - v.mean()
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise DegenerateTemplateSetError(f"{name}: constant image")
        cols.append(v / nv)
    m = np.column_stack(cols)
    ts = TemplateSet(matrix=m,
                     labels=tuple(os.path.splitext(n)[0] for n in names))
    return ts, shape
