"""Independent high-precision reference values for assignment moments.

Everything the laboratory measures reduces to two families of Gaussian
expectations over the projection vector S ~ N(0, scale^2 * rho):

* hard: P[argmax S = l] and E[S_k ; argmax S = l];
* soft: E[p_l] and E[S_k p_l] with p = softmax(beta * S), plus the
  second-order weights E[p_l p_j].

This module computes them by routes independent of the Monte Carlo
engine and of the closed-form theory module:

* an exact branch that integrates out the argmax analytically: with d
  the (L-1) x L matrix whose row k is e_ell - e_k, the probability is
  the orthant probability P(d S > 0) at covariance d Sigma d^T, and
  Gaussian integration by parts makes the moments Sigma d^T b, each b_a
  a density at 0 times a lower-dimensional orthant. Orthants in up
  to three dimensions have arcsine closed forms; four and five
  dimensions use Plackett's identity, which turns the orthant into a
  one-dimensional integral of those closed forms.
* a quadrature branch, one memoized sweep per (Gram model, beta, n)
  that yields every cluster and every moment at once: for hard queries
  at L <= 3, one-dimensional Gauss-Hermite integration over each S_ell
  of the smooth conditional form (bivariate normal CDF and partial
  moments inside); for soft queries at every L and hard ones at
  4 <= L <= 6, tensor-product Gauss-Hermite over the whitened vector in
  blocks of a head grid (the first ceil(L/2) axes) times a tail grid.
  The hard sweep tests the argmax at each node; the soft one takes its
  exponentials once per half-grid point and sums each block's softmax
  moments as matrix products, node by node only where beta is so sharp
  that this could underflow. Both skip nodes of weight below 1e-30,
  together under 1e-18 at default node counts (see _kernels). Error bounds
  come from the difference against the sweep at half the node count,
  but at least 8 nodes, which must differ from the sweep it bounds, so
  a node count is an integer of at least 9 (DomainError otherwise).
  Every such bound is at least 1e-15; the conditional route needs no
  floor of its own, as its inner bivariate CDF is exact to rounding.
  Every moment query reads the same memo for every ell. The memo keys
  on the GramModel object (models compare by identity), so queries hit
  it when they pass the same model; an equal model built anew sweeps
  again, to the same values.

The moment queries answer for L <= 6 and raise DimensionError beyond
it; max_gaussian_mean, by adaptive quadrature, takes any n. The oracle
draws no random numbers: every value is a deterministic function of its
arguments.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, roots_hermite

from . import _kernels
from .errors import DimensionError, DomainError
from .templates import GramModel, _integer, _positive, _readonly, _real

_SQRT2PI = math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_EXACT_BOUND = 1e-13
_FLOOR = 1e-15           # least node-halving bound, on every route
_PLACKETT_NODES = 64      # Gauss-Legendre points of the Plackett path


@functools.cache
def _gh_rule(n):
    """Gauss-Hermite nodes scaled for a standard normal, weights sum 1."""
    x, w = roots_hermite(n)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


_gl_rule = functools.cache(leggauss)


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


def bvn_cdf(h, k, r):
    """P(X < h, Y < k) for standard bivariate normals at correlation r.

    Single-integral form with the sine substitution. The integrand
    sharpens toward the upper limit as |r| -> 1, so beyond |r| = 0.8 the
    interval is split into panels refined geometrically toward that
    endpoint; each panel gets a fixed Gauss-Legendre rule; vectorized over
    h and k. Matches adaptive quadrature to 3.3e-16 through |r| = 0.9999.
    """
    r = _real(r, "bvn_cdf's r", -1.0, 1.0, "()")
    h = np.asarray(h, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    base = ndtr(h) * ndtr(k)
    if r == 0.0:
        return base
    upper = math.asin(r)
    if abs(r) <= 0.8:
        cuts = np.array([0.0, 1.0])
        x, w = _gl_rule(48)
    else:
        cuts = np.array([0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 1.0])
        x, w = _gl_rule(24)
    theta_parts = []
    weight_parts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a, b = lo * upper, hi * upper
        theta_parts.append(0.5 * (b - a) * (x + 1.0) + a)
        weight_parts.append(0.5 * (b - a) * w)
    theta = np.concatenate(theta_parts)
    wth = np.concatenate(weight_parts)
    sin_t = np.sin(theta)
    cos2 = np.cos(theta) ** 2
    hh = h[..., None]
    kk = k[..., None]
    expo = np.exp(-(hh * hh - 2.0 * hh * kk * sin_t + kk * kk) / (2.0 * cos2))
    return base + (expo * wth).sum(axis=-1) / _TWO_PI


def _bvn_lower_moment(a, b, r):
    """E[U ; U < a, V < b] for standard bivariate normals, correlation r;
    vectorized over a and b."""
    s = math.sqrt(max(1.0 - r * r, 1e-300))
    return (-_phi(a) * ndtr((b - r * a) / s)
            - r * _phi(b) * ndtr((a - r * b) / s))


def _corr_of(cov):
    sd = np.sqrt(np.diag(cov))
    return cov / np.outer(sd, sd)


def _orthant_zero(corr):
    """P(X > 0 componentwise) for centered normals with this correlation.

    Closed forms through three dimensions; Plackett's path identity
    (one-dimensional Gauss-Legendre over a correlation homotopy from the
    identity) for four and five. The path integral takes all its nodes
    at once for each pair (i, j): one batched solve gives the
    conditional correlations of the other m - 2 coordinates, and the
    closed forms of dimension two or three apply to the whole stack.
    """
    m = corr.shape[0]
    if m <= 1:
        return 2.0 ** -m
    if m <= 3:
        return float(_orthant_closed(corr))
    if m > 5:
        raise DimensionError(f"orthant closed forms implemented for m <= 5, "
                             f"got {m}")
    x, w = _gl_rule(_PLACKETT_NODES)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    total = 2.0 ** (-m)
    # the homotopy (1 - t) I + t corr at every node, (nodes, m, m)
    rt = (1.0 - t)[:, None, None] * np.eye(m) + t[:, None, None] * corr
    for i in range(m):
        for j in range(i + 1, m):
            rij = float(corr[i, j])
            if rij == 0.0:
                continue
            r_now = t * rij
            dens = 1.0 / (_TWO_PI * np.sqrt(np.maximum(1.0 - r_now * r_now,
                                                       1e-300)))
            keep = [a for a in range(m) if a not in (i, j)]
            pair = rt[:, [i, j]][:, :, [i, j]]
            cross = rt[:, keep][:, :, [i, j]]
            cond = rt[:, keep][:, :, keep] - cross @ np.linalg.solve(
                pair, cross.transpose(0, 2, 1))
            sd = np.sqrt(np.diagonal(cond, axis1=1, axis2=2))
            total += float(np.sum(wt * rij * dens * _orthant_closed(
                cond / (sd[:, :, None] * sd[:, None, :]))))
    return total


def _orthant_closed(c):
    """P(X > 0) for centered normals with correlation c (..., k, k),
    k = 2 or 3, by the arcsine closed forms; vectorized over a stack."""
    s = np.arcsin(c[..., 0, 1])
    if c.shape[-1] == 2:
        return 0.25 + s / _TWO_PI
    s = s + np.arcsin(c[..., 0, 2]) + np.arcsin(c[..., 1, 2])
    return 0.125 + s / (2.0 * _TWO_PI)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Reference value with an honest error bound.

    value is the vector (E[S_k ; argmax = l])_k for hard queries or
    (E[S_k p_l])_k for soft ones; mass the matching P[argmax = l] or
    E[p_l]. ratio() = value / mass is the correlation row the engine
    estimates. error_bound covers every entry of value; mass_bound
    covers mass. method names the route, "exact" or "quadrature".

    nodes is the size of the rule behind value, never a sample count:
    for a quadrature moment query the nodes per axis of its finer sweep;
    for the exact hard branch the Gauss-Legendre points of the Plackett
    path integral (_PLACKETT_NODES, used for orthants of dimension 4 and
    5, so from L = 5 on; smaller orthants have closed forms); for
    max_gaussian_mean the integrand evaluations its adaptive quadrature
    made, 0 at n = 1.
    """

    value: np.ndarray
    mass: float
    error_bound: float
    mass_bound: float
    method: str
    nodes: int

    def __post_init__(self):
        object.__setattr__(self, "value", _readonly(self.value))
        if not self.error_bound > 0 or not self.mass_bound >= 0:
            raise DomainError("error bounds must be positive")
        if self.method == "exact" and self.error_bound > 1e-12:
            raise DomainError("exact method requires error_bound <= 1e-12")

    def ratio(self):
        return self.value / self.mass

    def ratio_bound(self):
        """First-order bound on each entry of ratio()."""
        return (self.error_bound
                + np.max(np.abs(self.value)) * self.mass_bound / self.mass
                ) / self.mass


def _check_query(g, ell, what):
    """ell as an int; DomainError unless g is a GramModel and ell one of
    its clusters, DimensionError beyond the oracle's ceiling L <= 6."""
    if not isinstance(g, GramModel):
        raise DomainError(f"expected a GramModel, got {type(g)!r}")
    ell = _integer(ell, "cluster index", 0, g.L - 1)
    if g.L > 6:
        raise DimensionError(f"{what} supports L <= 6, got L={g.L}")
    return ell


def hard_moments(g, ell, method="exact", nodes=None):
    """P[argmax S = ell] and (E[S_k ; argmax S = ell])_k for L <= 6.

    method "exact" uses the orthant reduction; "quadrature" the
    memoized sweep: the conditional route (L <= 3, 96 nodes by default)
    or the tensor node sweep (L in 4..6, 40 nodes). nodes applies only
    to the quadrature route (DomainError otherwise).
    """
    ell = _check_query(g, ell, "hard_moments")
    if method == "exact":
        if nodes is not None:
            raise DomainError("nodes applies only to method='quadrature'")
        return _hard_exact(g, ell)
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}")
    return _tensor_quadrature("hard", g, None, ell, nodes, 1)


def _hard_exact(g, ell):
    """The orthant reduction on D = d S (module docstring), with
    b_a = P(other D > 0 | D_a = 0) / sqrt(2 pi dcov_aa)."""
    cov = g.covariance()
    d = -np.delete(np.eye(g.L), ell, axis=0)
    d[:, ell] = 1.0
    dcov = d @ cov @ d.T
    b = np.empty(g.L - 1)
    for a in range(g.L - 1):
        rest = np.arange(g.L - 1) != a
        cond = dcov - np.outer(dcov[a], dcov[a]) / dcov[a, a]
        b[a] = (_orthant_zero(_corr_of(cond[rest][:, rest]))
                / math.sqrt(_TWO_PI * dcov[a, a]))
    return OracleResult(value=cov @ d.T @ b,
                        mass=_orthant_zero(_corr_of(dcov)),
                        error_bound=_EXACT_BOUND, mass_bound=_EXACT_BOUND,
                        method="exact", nodes=_PLACKETT_NODES)


def _hard_conditional_once(g, ell, n):
    """Hard moments of cluster ell at L <= 3, as (value, prob): outer
    Gauss-Hermite over t = S_ell, closed conditional CDFs inside."""
    L = g.rho.shape[0]
    cov = g.covariance()
    others = [k for k in range(L) if k != ell]
    x, w = _gh_rule(n)
    t = math.sqrt(cov[ell, ell]) * x
    # conditional mean slope and residual spread of S_k given S_ell = t,
    # and the standardized bound a_k of the event S_k < t
    slope = np.array([cov[k, ell] / cov[ell, ell] for k in others])
    resid = np.array([cov[k, k] - cov[k, ell] ** 2 / cov[ell, ell]
                      for k in others])
    sig = np.sqrt(np.maximum(resid, 1e-300))
    a = [(t - slope[i] * t) / sig[i] for i in range(L - 1)]
    # p: P(every S_k < t | t); low[i]: E[U_i ; every S_k < t | t] for
    # the standardized residual U_i of the i-th other coordinate
    if L == 2:
        p, low = ndtr(a[0]), [-_phi(a[0])]
    else:
        j, k = others
        r_c = ((cov[j, k] - cov[j, ell] * cov[k, ell] / cov[ell, ell])
               / (sig[0] * sig[1]))
        r_c = min(max(r_c, -1.0 + 1e-12), 1.0 - 1e-12)
        p = bvn_cdf(a[0], a[1], r_c)
        low = [_bvn_lower_moment(a[0], a[1], r_c),
               _bvn_lower_moment(a[1], a[0], r_c)]
    value = np.empty(L)
    value[ell] = float(w @ (t * p))
    for i, k in enumerate(others):
        value[k] = float(w @ (slope[i] * t * p + sig[i] * low[i]))
    return value, float(w @ p)


@functools.lru_cache(maxsize=8)
def _sweep(kind, g, beta, n):
    """One (Gram model, beta, n) node sweep, shared by every cluster.

    kind "hard" returns (prob, mom), prob[l] = P[argmax = l] and
    mom[l][k] = E[S_k ; argmax = l]: from the conditional route at
    L <= 3, from the argmax tensor sweep above. kind "soft" returns
    (mass, mom, pp) of the softmax tensor sweep at a validated beta. The
    last 8 sweeps are kept, keyed by the model object, and their arrays
    are read-only.
    """
    a = g.scale * g.factor
    x, w = _gh_rule(n)
    if kind == "soft":
        hit = _kernels.soft_nodes(None, a, x, w, beta)
    elif g.L > 3:
        hit = _kernels.hard_nodes(None, a, x, w)
    else:
        vals, probs = zip(*(_hard_conditional_once(g, ell, n)
                            for ell in range(g.L)))
        hit = (np.array(probs), np.array(vals))
    return tuple(_readonly(arr) for arr in hit)


def _tensor_quadrature(kind, g, beta, ell, nodes, moment):
    """Row ell of one sweep moment at n = nodes per axis, bounded by its
    gap to the sweep at n // 2 nodes, but at least 8. DomainError unless
    nodes is an integer >= 9, so that the two sweeps differ: a sweep
    compared with itself bounds nothing.

    nodes None takes the default: 40 above L = 3; at L <= 3, 96 for hard
    queries and 80 for soft ones. moment 1 is E[S_k ; argmax = ell] or
    E[S_k p_ell] with its mass from moment 0; moment 2 is E[p_ell p_j],
    whose weights sum to one.
    """
    n = ((40 if g.L > 3 else 96 if kind == "hard" else 80) if nodes is None
         else _integer(nodes, "nodes of a node-halving bound", 9))
    n_half = max(8, n // 2)
    full = _sweep(kind, g, beta, n)
    half = _sweep(kind, g, beta, n_half)
    val = full[moment][ell].copy()
    bound = max(float(np.max(np.abs(val - half[moment][ell]))), _FLOOR)
    if moment == 2:
        mass, mbound = 1.0, _EXACT_BOUND
    else:
        mass = float(full[0][ell])
        mbound = max(abs(mass - float(half[0][ell])), _FLOOR)
    return OracleResult(value=val, mass=mass, error_bound=bound,
                        mass_bound=mbound, method="quadrature",
                        nodes=n)


def soft_moments(g, beta, ell, nodes=None):
    """E[p_ell] and (E[S_k p_ell])_k for p = softmax(beta * S), L <= 6,
    from the softmax tensor sweep (80 nodes by default for L <= 3, 40
    above)."""
    ell = _check_query(g, ell, "soft_moments")
    return _tensor_quadrature("soft", g, _positive(beta, "beta"), ell,
                              nodes, 1)


def soft_second_moments(g, beta, ell, nodes=None):
    """(E[p_ell p_j])_j with a node-halving bound, from the sweep that
    soft_moments reads and at the same default node counts."""
    ell = _check_query(g, ell, "soft_second_moments")
    return _tensor_quadrature("soft", g, _positive(beta, "beta"), ell,
                              nodes, 2)


def ibp_residual(g, beta, ell, nodes=None):
    """Gap in the Gaussian integration-by-parts identity at the oracle's
    nodes.

    For jointly Gaussian S and p = softmax(beta S),
    E[S_k p_l] = beta * (Sigma[k, l] E[p_l] - sum_j Sigma[k, j] E[p_l p_j])
    with Sigma the covariance of S. Both sides come from one node sweep,
    so the residual measures how faithfully the quadrature realizes the
    identity; it shrinks with the node count. The default count grows
    with the effective sharpness beta * scale; a given one must be an
    integer >= 1.
    """
    ell = _check_query(g, ell, "ibp_residual")
    beta = _positive(beta, "beta")
    sharp = beta * g.scale
    if nodes is not None:
        nodes = _integer(nodes, "nodes", 1)
    elif g.L > 3:
        nodes = 40
    else:
        nodes = 96 if sharp <= 2 else (160 if sharp <= 4 else
                                       (240 if sharp <= 6 else 320))
    mass, mom, pp = _sweep("soft", g, beta, nodes)
    cov = g.covariance()
    lhs = mom[ell]
    rhs = beta * (cov[:, ell] * mass[ell] - cov @ pp[ell])
    return float(np.max(np.abs(lhs - rhs)))


def softmax_weights(g, beta, ell, nodes=None):
    """w_{ell, j} = E[p_ell p_j] / E[p_ell]; entries >= 0, sum to 1."""
    first = soft_moments(g, beta, ell, nodes=nodes)
    second = soft_second_moments(g, beta, ell, nodes=nodes)
    return second.value / first.mass


def max_gaussian_mean(n):
    """E[max of n iid standard normals].

    Adaptive quadrature of the order-statistic density
    n * phi(t) * Phi(t)^(n-1), exact 0 at n = 1. Used as the reference
    for the orthonormal self-correlation sweeps.
    """
    from scipy.integrate import quad  # on first use: 0.3 s of start-up

    n = _integer(n, "n", 1)
    if n == 1:
        return OracleResult(value=np.array([0.0]), mass=1.0,
                            error_bound=_EXACT_BOUND,
                            mass_bound=_EXACT_BOUND, method="exact",
                            nodes=0)
    hi = math.sqrt(2.0 * math.log(max(n, 2))) + 9.0

    def dens(t):
        return t * n * math.exp(-0.5 * t * t) / _SQRT2PI \
            * ndtr(t) ** (n - 1)

    val, err, info = quad(dens, -hi, hi, epsabs=1e-13, epsrel=1e-13,
                          limit=400, full_output=1)[:3]
    return OracleResult(value=np.array([val]), mass=1.0,
                        error_bound=max(err, 1e-14),
                        mass_bound=_EXACT_BOUND, method="quadrature",
                        nodes=int(info["neval"]))
