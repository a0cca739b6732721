"""Accumulation kernels behind the Monte Carlo engine and the oracle.

Vectorized numpy bodies for the per-sample work: argmax classification,
stable softmax weighting, the diagonal-only statistics of the orthonormal
paths and the tensor-quadrature node sweeps.

Contract: a worker consumes a sample block (or draws its own from the
per-chunk stream) and adds into plain float64 accumulator arrays.
Partial sums are combined by the caller in chunk order, so results are
bitwise reproducible for a fixed (seed, chunks) regardless of thread
count. The diagonal workers run at unit template norm. The soft one
draws the L normals of each sample; the hard one draws two numbers per
sample, a uniform that it maps to the maximum of L normals and the
winning label (see hard_diag_chunk).
Nothing here starts a thread: the engine passes normal_blocks, directly
or through soft_diag_chunk, an executor with a spare thread when it has
one, and normal_blocks then draws each chunk's next block there while
the kernels work on the current one. The draws stay one at a time and
in stream order, so the blocks are the same bits either way.

Block contract of the general paths: the engine forms the projections
of a sample block as one C-contiguous cluster-major (L, rows) array and
passes its (rows, L) transpose view s. hard_block and soft_block reduce
over st = s.T, so the argmax and the softmax run over axis 0, every
per-cluster pass reads a contiguous row of st and the soft moments are
(L, rows) @ (rows, L) products; soft_block returns its weights as
(L, rows). The soft diagonal worker keeps its (rows, L) draws and takes
the same softmax over their transpose view. Full mode's label_vectors
and weighted_vectors take the block's in-span coordinates: the (rows, r)
standard normals z behind its projections, r <= L the rank of the
template correlation, not d-dimensional noise. They add into (L, r)
sums from which the engine builds the estimator vectors once per run.

Block size: every path that draws normals for L projections, the
engine's sampler ((rows, r) normals) and the soft diagonal worker
((rows, L)), draws them through normal_blocks in blocks of
block_rows(L) rows, max(1024, 65536 // L). A block and the temporaries
a kernel makes from it then fit in a few MiB of cache, and the working
set of a run stays flat in m. The block size is not a result parameter:
the generator fills blocks in stream order, so the draws and the hard
labels do not depend on it; it only groups the per-block partial sums,
which moves sums in their last bits. The hard diagonal worker draws in
its own fixed steps (_HARD_DIAG_STEP), which fix its stream.

The oracle's node sweeps split the n**L grid into head and tail grids
over the first ceil(L/2) axes and the rest (node y = h_r + t_s, weight
u_r v_s), visit blocks of head rows times a tail prefix (see _blocks)
and skip every node of weight below _NODE_TAU (1e-30): at the oracle's
default node counts those move a sum by less than n**L * _NODE_TAU *
max(1, max|y|) < 1e-18 at unit scale, far below its rounding error.

Every entry point takes a leading ``backend`` argument that is ignored:
the benchmark in ``perfbench/`` wraps the module attributes and counts
rows and nodes from the entry points' positional arguments (the
transpose view keeps a block's rows as s.shape[0]). The node
sweeps keep the signatures hard_nodes(backend, a, x, w) and
soft_nodes(backend, a, x, w, beta), with a of size L x L and x the 1-D
rule; a sweep visits at most x.size ** L nodes.
"""

import importlib.util

import numpy as np
from scipy.special import ndtri

# reported in the benchmark's run manifest; nothing here uses numba
HAS_NUMBA = importlib.util.find_spec("numba") is not None

# sample blocks of (rows, L) values: see block_rows
_BLOCK_VALUES = 1 << 16
_BLOCK_MIN_ROWS = 1024
# hard_diag_chunk's step fixes its stream: which draws become uniforms
# and which become labels, so changing it changes every result
_HARD_DIAG_STEP = 2_000_000
_NODE_BLOCK = 1 << 14
# quadrature nodes of smaller product weight are skipped, and head rows
# are enumerated in slabs of at most this many: see _node_grid
_NODE_TAU = 1e-30
_HEAD_ROWS = 1 << 17
# soft blocks sharper than this are swept node by node: see soft_nodes
_SHARP = 300.0


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


def block_rows(L):
    """Rows of one sample block of (rows, L) values.

    A block holds 65536 values (512 KiB of float64) up to L = 64, so the
    block and the few temporaries a kernel makes from it stay in a 4 MiB
    L2 cache and the working set does not grow with m. Above L = 64 the
    floor of 1024 rows keeps the per-cluster passes of hard_block long
    enough to amortize their per-call cost.
    """
    return max(_BLOCK_MIN_ROWS, _BLOCK_VALUES // L)


def normal_blocks(seed, chunk, rows, L, ahead=None, width=None):
    """One chunk's (rows, width) standard normals, width L unless given,
    in blocks of block_rows(L).

    Every block is a view of a reused buffer, valid until the next.
    The generator fills the blocks in stream order, so the draws do not
    depend on the block size; only the grouping of per-block partial
    sums does. ahead, when given, is an executor with a thread to spare:
    while the caller works on block b, block b + 1 is drawn there from
    the same generator into a second buffer. The first block is drawn
    here, so a chunk of one block never uses the executor. Draws run one
    at a time and in stream order either way, so the blocks are bitwise
    the same.
    """
    g = chunk_generator(seed, chunk)
    step = block_rows(L)
    sizes = [min(step, rows - done) for done in range(0, rows, step)]
    bufs = [np.empty((sizes[0], width or L))
            for _ in range(1 if ahead is None else min(2, len(sizes)))]

    def draw(b):
        return g.standard_normal(out=bufs[b % len(bufs)][:sizes[b]])

    z = draw(0)
    for b in range(1, len(sizes)):
        if ahead is None:
            yield z
            z = draw(b)
        else:
            pending = ahead.submit(draw, b)
            yield z
            z = pending.result()
    yield z


def _softmax(logits):
    """Softmax over axis 0 of (L, N) logits, computed in place."""
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


# ---------------------------------------------------------------------------
# general paths: projections s of one sample block
# ---------------------------------------------------------------------------

def hard_block(backend, s, counts, sum1, sum2, pooled):
    """Argmax statistics of one (rows, L) block; returns the row labels.

    The labels and row maxima come from a running maximum over the
    contiguous rows of st: the same first-maximum labels and the same
    maxima as argmax over axis 0, without the copy that argmax makes of
    a strided block.
    """
    st = s.T
    L, rows = st.shape
    mx = st[0].copy()
    labels = np.zeros(rows, dtype=np.intp)
    for k in range(1, L):
        np.copyto(labels, k, where=np.greater(st[k], mx))
        np.maximum(mx, st[k], out=mx)
    counts += np.bincount(labels, minlength=L).astype(np.float64)
    for k in range(L):
        sum1[:, k] += np.bincount(labels, weights=st[k], minlength=L)
        sum2[:, k] += np.bincount(labels, weights=st[k] ** 2, minlength=L)
    pooled[0] += mx.sum()
    pooled[1] += (mx * mx).sum()
    return labels


def soft_block(backend, s, beta, w1, w2, a1, a2, a3, pooled):
    """Softmax statistics of one (rows, L) block; returns the (L, rows)
    weights p."""
    st = s.T
    p = _softmax(beta * st)
    p2 = p * p
    w1 += p.sum(axis=1)
    w2 += p2.sum(axis=1)
    a1 += p @ s
    a2 += p2 @ s
    a3 += p2 @ (s * s)
    g = np.einsum("ij,ij->j", p, st)
    pooled[0] += g.sum()
    pooled[1] += (g * g).sum()
    return p


def label_vectors(backend, z, labels, vec):
    """vec[l] += sum of the in-span coordinate rows z labelled l.

    z is the (rows, r) block of standard normals behind the block's
    projections; vec is (L, r).
    """
    L = vec.shape[0]
    onehot = np.zeros((z.shape[0], L))
    onehot[np.arange(z.shape[0]), labels] = 1.0
    vec += onehot.T @ z


def weighted_vectors(backend, z, p, vec):
    """vec[l] += sum of the in-span coordinate rows z weighted by p[l].

    z is (rows, r) as in label_vectors, p the (L, rows) weights.
    """
    vec += p @ z


# ---------------------------------------------------------------------------
# diagonal paths: orthonormal templates, one chunk drawn here
# ---------------------------------------------------------------------------

def hard_diag_chunk(backend, seed, chunk, rows, L, counts, d1, d2, pooled):
    """Diagonal-only hard statistics for orthonormal templates, one chunk.

    Within cluster l the own-template projection is the row maximum, so
    only the per-cluster count, sum and sum of squares of it are kept.
    For L iid standard normals the argmax is uniform on {0..L-1} and
    independent of the maximum, whose CDF is Phi**L. Each sample
    therefore draws one uniform U and one label, and its maximum is
    Phi^-1(U**(1/L)) = -ndtri(1 - U**(1/L)), with 1 - U**(1/L) formed as
    -expm1(log(U) / L) so the upper tail keeps full precision. U is the
    midpoint of the generator's uniform on a 2**-52 grid: it lies in
    [2**-53, 1 - 2**-53], so every maximum is finite.
    """
    g = chunk_generator(seed, chunk)
    step = _HARD_DIAG_STEP
    for done in range(0, rows, step):
        n = min(step, rows - done)
        u = g.random(n)
        labels = g.integers(0, L, size=n)
        u = (np.floor(u * 2.0 ** 52) + 0.5) * 2.0 ** -52
        mx = -ndtri(-np.expm1(np.log(u) / L))
        counts += np.bincount(labels, minlength=L).astype(np.float64)
        d1 += np.bincount(labels, weights=mx, minlength=L)
        d2 += np.bincount(labels, weights=mx * mx, minlength=L)
        pooled[0] += mx.sum()
        pooled[1] += (mx * mx).sum()


def soft_diag_chunk(backend, seed, chunk, rows, L, beta,
                    w1, w2, b1, b2, b3, pooled, *, ahead=None):
    """Diagonal-only soft statistics for orthonormal templates, one chunk.

    With z a sample's L projections, accumulates w1[l] += p_l, w2[l] +=
    p_l**2, b1[l] += p_l z_l, b2[l] += p_l**2 z_l, b3[l] += p_l**2 z_l**2
    and the pooled sum_l p_l z_l statistic. ahead is normal_blocks'
    draw-ahead executor, or None.
    """
    for z in normal_blocks(seed, chunk, rows, L, ahead=ahead):
        # the same bits as a row softmax of the (rows, L) block
        p = _softmax((beta * z).T).T
        p2 = p * p
        w1 += p.sum(axis=0)
        w2 += p2.sum(axis=0)
        b1 += np.einsum("ij,ij->j", p, z)
        b2 += np.einsum("ij,ij->j", p2, z)
        b3 += np.einsum("ij,ij->j", p2, z * z)
        g = np.einsum("ij,ij->i", p, z)
        pooled[0] += g.sum()
        pooled[1] += (g * g).sum()


# ---------------------------------------------------------------------------
# oracle: tensor-product quadrature over the whitened node grid
# ---------------------------------------------------------------------------

def _pruned_rows(w, h, idx, hw):
    """Extend grid rows by h axes, keeping the nodes whose product weight
    is at least _NODE_TAU; first axis slowest.

    idx holds (R, j) node indices and hw their (R,) product weights.
    Every 1-D weight is below one, so a partial product under _NODE_TAU
    has no extension above it and is dropped as soon as it appears.
    """
    n = w.size
    for _ in range(h):
        cand = np.multiply.outer(hw, w).reshape(-1)
        keep = np.flatnonzero(cand >= _NODE_TAU)
        idx = np.column_stack((idx[keep // n], keep % n))
        hw = cand[keep]
    return idx, hw


def _half_grid(a, x, idx, hw):
    """Projections a @ node (L, N) and weights (N,) of the grid nodes
    idx over the columns of a, heaviest first."""
    order = np.argsort(-hw, kind="stable")
    return a @ x[idx[order]].T, hw[order]


def _node_grid(a, x, w):
    """(t, v, slabs): the tail grid and the head grid's (h, u) slabs of
    at most _HEAD_ROWS candidates, from the 1-D standard normal rule."""
    L = a.shape[0]
    n = x.size
    head = (L + 1) // 2
    outer = 0
    while n ** (head - outer) > _HEAD_ROWS:
        outer += 1
    root = (np.zeros((1, 0), dtype=np.intp), np.ones(1))
    t, v = _half_grid(a[:, head:], x, *_pruned_rows(w, L - head, *root))
    pre, pre_w = _pruned_rows(w, outer, *root)
    slabs = (_half_grid(a[:, :head], x, *_pruned_rows(
        w, head - outer, pre[r:r + 1], pre_w[r:r + 1]))
        for r in range(pre_w.size))
    return t, v, slabs


def _blocks(u, v):
    """Yield (rows, cols) slices of a head slab and the tail covering
    every node of weight u_r * v_s >= _NODE_TAU. Row r needs the tail
    prefix of weights >= _NODE_TAU / u_r. A block is a run of rows times
    the prefix its first row needs, up to _NODE_BLOCK nodes, closed where
    the need halves; a longer prefix is cut, one row per block."""
    need = np.searchsorted(-v, -_NODE_TAU / u, side="right")
    lo, end = 0, int(np.searchsorted(-need, 0))
    while lo < end:
        size = int(need[lo])
        hi = min(int(np.searchsorted(-need, -(size // 2))),
                 lo + max(1, _NODE_BLOCK // size))
        for s in range(0, size, _NODE_BLOCK):
            yield slice(lo, hi), slice(s, min(s + _NODE_BLOCK, size))
        lo = hi


def _block_nodes(h, u, t, v, rows, cols):
    """Projections (L, R * S) and weights of a block's nodes."""
    # order "C" keeps the reshape to (L, R * S) a view for any strides
    y = np.add(h[:, rows, None], t[:, None, cols], order="C")
    return (y.reshape(h.shape[0], -1),
            np.multiply.outer(u[rows], v[cols]).reshape(-1))


def hard_nodes(backend, a, x, w):
    """Tensor quadrature sweep for argmax moments; returns (prob, mom).

    prob[l] = P[argmax = l] and mom[l][k] = E[y_k ; argmax = l]. Grid
    points on a decision boundary (ties, which carry real weight on a
    symmetric grid) split their weight evenly over the tied labels.
    """
    L = a.shape[0]
    prob = np.zeros(L)
    mom = np.zeros((L, L))
    t, v, slabs = _node_grid(a, x, w)
    for h, u in slabs:
        for rows, cols in _blocks(u, v):
            y, wp = _block_nodes(h, u, t, v, rows, cols)
            best = y.max(axis=0)
            thr = np.abs(best)  # best - 1e-9 * (1 + |best|), in place
            thr += 1.0
            thr *= 1.0e-9
            np.subtract(best, thr, out=thr)
            wl = np.empty_like(y)  # the tie mask as 0.0 / 1.0
            np.greater_equal(y, thr, out=wl, casting="unsafe")
            wp /= wl.sum(axis=0)
            wl *= wp
            prob += wl.sum(axis=1)
            mom += wl @ y.T
    return prob, mom


def soft_nodes(backend, a, x, w, beta):
    """Tensor quadrature sweep for softmax moments; (mass, mom, pp).

    mass[l] = E p_l, mom[l][k] = E p_l y_k and pp[l][k] = E p_l p_k. At
    y = h_r + t_s, p_l = E_lr F_ls / Z_rs with E = exp(beta (h - max_l h)),
    F likewise and Z = E.T @ F: block moments are matrix products of
    exponentials taken once per half-grid point. As Z_rs >= exp(-beta
    min(spread h_r, spread t_s)), a block where beta times the smaller of
    its largest spreads exceeds _SHARP is swept node by node.
    """
    L = a.shape[0]
    mass = np.zeros(L)
    mom = np.zeros((L, L))
    pp = np.zeros((L, L))
    t, v, slabs = _node_grid(a, x, w)
    f = np.exp(beta * (t - t.max(axis=0)))
    t_sharp = beta * np.ptp(t, axis=0)
    ff = (f[:, None] * f[None]).reshape(L * L, -1)
    for h, u in slabs:
        e = np.exp(beta * (h - h.max(axis=0)))
        h_sharp = beta * np.ptp(h, axis=0)
        for rows, cols in _blocks(u, v):
            if min(h_sharp[rows].max(), t_sharp[cols].max()) > _SHARP:
                y, wp = _block_nodes(h, u, t, v, rows, cols)
                p = _softmax(beta * y)
                wl = p * wp
                mass += wl.sum(axis=1)
                mom += wl @ y.T
                pp += wl @ p.T
                continue
            eb, fb = e[:, rows], f[:, cols]
            z = eb.T @ fb
            q = np.multiply.outer(u[rows], v[cols]) / z
            g, gt = q @ fb.T, q.T @ eb.T
            mass += np.einsum("lr,rl->l", eb, g)
            mom += (eb * g.T) @ h[:, rows].T + (fb * gt.T) @ t[:, cols].T
            q /= z
            pp += np.einsum("ir,ri->i", (eb[:, None] * eb[None]).reshape(
                L * L, -1), q @ ff[:, cols].T).reshape(L, L)
    return mass, mom, pp
