"""Accumulation kernels behind the Monte Carlo engine and the oracle.

Vectorized numpy bodies for the per-sample work: argmax classification,
stable softmax weighting, the diagonal-only statistics of the orthonormal
paths and the tensor-quadrature node sweeps.

Contract: a worker consumes a sample block (or draws its own from the
per-chunk stream) and adds into plain float64 accumulator arrays.
Partial sums are combined by the caller in chunk order, so results are
bitwise reproducible for a fixed (seed, chunks) regardless of thread
count.

The oracle's node sweeps work on cluster-major blocks: projections y of
shape (L, N) for N grid nodes, so the softmax and argmax reduce over
axis 0 and the moments are (L, N) @ (N, L) products. The grid is visited
in a fixed order (first axis slowest) and in blocks of bounded size.

Every entry point takes a leading ``backend`` argument that is ignored:
the benchmark in ``perfbench/`` wraps the module attributes and counts
rows and nodes from the entry points' positional arguments. The node
sweeps keep the signatures hard_nodes(backend, a, x, w) and
soft_nodes(backend, a, x, w, beta), with a of size L x L and x the 1-D
rule, so one sweep visits x.size ** L nodes.
"""

import importlib.util
import itertools

import numpy as np

# reported in the benchmark's run manifest; nothing here uses numba
HAS_NUMBA = importlib.util.find_spec("numba") is not None

_DIAG_SLICE = 4_000_000
_NODE_BLOCK = 1 << 14


def active_backend():
    """Name of the compute backend: always numpy."""
    return "numpy"


# ---------------------------------------------------------------------------
# reproducible streams
# ---------------------------------------------------------------------------

def chunk_generator(seed, chunk):
    """numpy Generator for one sample block, derived hash-style."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed,
                                               spawn_key=(chunk,))))


def chunk_rows(m, chunks):
    """Deterministic split of m samples into the given number of blocks."""
    base, extra = divmod(m, chunks)
    return [base + (1 if c < extra else 0) for c in range(chunks)]


def _normal_slices(seed, chunk, rows, L):
    """One chunk's (rows, L) standard normals, in slices of bounded size.

    Every slice is a view of one reused buffer, valid until the next.
    """
    g = chunk_generator(seed, chunk)
    step = max(1, _DIAG_SLICE // L)
    buf = np.empty((min(step, rows), L))
    for done in range(0, rows, step):
        yield g.standard_normal(out=buf[:min(step, rows - done)])


def _softmax(logits):
    """Row softmax; shifts logits in place by their row maximum."""
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return p


# ---------------------------------------------------------------------------
# general paths: projections s of one sample block
# ---------------------------------------------------------------------------

def hard_block(backend, s, counts, sum1, sum2, pooled):
    """Argmax statistics of one block; returns the row labels."""
    rows, L = s.shape
    labels = np.argmax(s, axis=1)
    counts += np.bincount(labels, minlength=L).astype(np.float64)
    for k in range(L):
        sum1[:, k] += np.bincount(labels, weights=s[:, k], minlength=L)
        sum2[:, k] += np.bincount(labels, weights=s[:, k] ** 2, minlength=L)
    mx = s[np.arange(rows), labels]
    pooled[0] += mx.sum()
    pooled[1] += (mx * mx).sum()
    return labels


def soft_block(backend, s, beta, w1, w2, a1, a2, a3, pooled):
    """Softmax statistics of one block; returns the weights p."""
    p = _softmax(beta * s)
    p2 = p * p
    w1 += p.sum(axis=0)
    w2 += p2.sum(axis=0)
    a1 += p.T @ s
    a2 += p2.T @ s
    a3 += p2.T @ (s * s)
    g = np.einsum("ij,ij->i", p, s)
    pooled[0] += g.sum()
    pooled[1] += (g * g).sum()
    return p


def label_vectors(backend, n, labels, vec):
    """vec[l] += sum of the noise rows labelled l."""
    L = vec.shape[0]
    onehot = np.zeros((n.shape[0], L))
    onehot[np.arange(n.shape[0]), labels] = 1.0
    vec += onehot.T @ n


def weighted_vectors(backend, n, p, vec):
    """vec[l] += sum of the noise rows weighted by p[:, l]."""
    vec += p.T @ n


# ---------------------------------------------------------------------------
# diagonal paths: orthonormal templates, one chunk drawn here
# ---------------------------------------------------------------------------

def hard_diag_chunk(backend, seed, chunk, rows, L, scale,
                    counts, d1, d2, pooled):
    """Diagonal-only hard statistics for orthonormal templates, one chunk.

    Within cluster l the own-template projection is the row maximum, so
    only the per-cluster count, sum and sum of squares of it are kept.
    """
    for z in _normal_slices(seed, chunk, rows, L):
        labels = np.argmax(z, axis=1)
        mx = z[np.arange(z.shape[0]), labels] * scale
        counts += np.bincount(labels, minlength=L).astype(np.float64)
        d1 += np.bincount(labels, weights=mx, minlength=L)
        d2 += np.bincount(labels, weights=mx * mx, minlength=L)
        pooled[0] += mx.sum()
        pooled[1] += (mx * mx).sum()


def soft_diag_chunk(backend, seed, chunk, rows, L, scale, beta,
                    w1, w2, b1, b2, b3, pooled):
    """Diagonal-only soft statistics for orthonormal templates, one chunk.

    With s = scale * z, accumulates w1[l] += p_l, w2[l] += p_l**2,
    b1[l] += p_l s_l, b2[l] += p_l**2 s_l, b3[l] += p_l**2 s_l**2 and
    the pooled sum_l p_l s_l statistic.
    """
    for z in _normal_slices(seed, chunk, rows, L):
        p = _softmax((beta * scale) * z)
        s = scale * z
        p2 = p * p
        w1 += p.sum(axis=0)
        w2 += p2.sum(axis=0)
        b1 += np.einsum("ij,ij->j", p, s)
        b2 += np.einsum("ij,ij->j", p2, s)
        b3 += np.einsum("ij,ij->j", p2, s * s)
        g = np.einsum("ij,ij->i", p, s)
        pooled[0] += g.sum()
        pooled[1] += (g * g).sum()


# ---------------------------------------------------------------------------
# oracle: tensor-product quadrature over the whitened node grid
# ---------------------------------------------------------------------------

def _axis_grid(a, x, w):
    """Projections (L, n**k) and weights (n**k,) of the grid over the k
    columns of a, first axis slowest, built axis by axis as outer sums."""
    L = a.shape[0]
    y = np.zeros((L, 1))
    wp = np.ones(1)
    for k in range(a.shape[1]):
        y = (y[:, :, None] + np.multiply.outer(a[:, k], x)[:, None, :]
             ).reshape(L, -1)
        wp = np.multiply.outer(wp, w).reshape(-1)
    return y, wp


def _grid_blocks(a, x, w):
    """Yield (y, wp) per block of the n**L grid, first axis slowest.

    y is the cluster-major (L, N) block of projections a @ node and wp
    the product weights. x, w are the 1-D rule scaled for a standard
    normal, w summing to 1. The grid over the last t axes (n**t at most
    _NODE_BLOCK) is built once; each block adds a group of head rows,
    nodes of the first L - t axes, to it. There is one head row per
    n**t nodes, so projecting the head rows and forming their weight
    products is a small share of the sweep.
    """
    L = a.shape[0]
    n = x.size
    t = 0
    while t < L and n ** (t + 1) <= _NODE_BLOCK:
        t += 1
    head = L - t
    tail_y, tail_w = _axis_grid(a[:, head:], x, w)
    group = max(1, _NODE_BLOCK // tail_w.size)
    a_head = a[:, :head]
    rows = itertools.product(range(n), repeat=head)
    while True:
        chunk = list(itertools.islice(rows, group))
        if not chunk:
            return
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), head)
        head_y = a_head @ x[idx].T
        head_w = np.prod(w[idx], axis=1)
        yield ((head_y[:, :, None] + tail_y[:, None, :]).reshape(L, -1),
               np.multiply.outer(head_w, tail_w).reshape(-1))


def hard_nodes(backend, a, x, w):
    """Tensor quadrature sweep for argmax moments; returns (prob, mom).

    prob[l] = P[argmax = l] and mom[l][k] = E[y_k ; argmax = l]. Grid
    points on a decision boundary (ties, which carry real weight on a
    symmetric grid) split their weight evenly over the tied labels.
    """
    L = a.shape[0]
    prob = np.zeros(L)
    mom = np.zeros((L, L))
    for y, wp in _grid_blocks(a, x, w):
        best = y.max(axis=0)
        tied = y >= best - 1.0e-9 * (1.0 + np.abs(best))
        wl = tied * (wp / tied.sum(axis=0))
        prob += wl.sum(axis=1)
        mom += wl @ y.T
    return prob, mom


def soft_nodes(backend, a, x, w, beta):
    """Tensor quadrature sweep for softmax moments; (mass, mom, pp).

    mass[l] = E p_l, mom[l][k] = E p_l y_k and pp[l][k] = E p_l p_k.
    """
    L = a.shape[0]
    mass = np.zeros(L)
    mom = np.zeros((L, L))
    pp = np.zeros((L, L))
    for y, wp in _grid_blocks(a, x, w):
        p = beta * y
        p -= p.max(axis=0)
        np.exp(p, out=p)
        p /= p.sum(axis=0)
        wl = p * wp
        mass += wl.sum(axis=1)
        mom += wl @ y.T
        pp += wl @ p.T
    return mass, mom, pp
