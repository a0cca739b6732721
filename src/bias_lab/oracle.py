"""Independent high-precision reference values for assignment moments.

Everything the laboratory measures reduces to two families of Gaussian
expectations over the projection vector S ~ N(0, scale^2 * rho):

* hard: P[argmax S = l] and E[S_k ; argmax S = l];
* soft: E[p_l] and E[S_k p_l] with p = softmax(beta * S), plus the
  second-order weights E[p_l p_j].

This module computes them by routes independent of the Monte Carlo
engine and of the closed-form theory module:

* an exact branch that integrates out the argmax analytically: the
  probability is a zero-mean orthant probability of the difference
  vector, and each moment reduces by Gaussian integration by parts to
  boundary terms involving lower-dimensional orthants. Orthants in up
  to three dimensions have arcsine closed forms; four and five
  dimensions use Plackett's identity, which turns the orthant into a
  one-dimensional integral of those closed forms.
* a quadrature branch: for L <= 3, one-dimensional Gauss-Hermite
  integration of the smooth conditional form (bivariate normal CDF and
  partial moments inside); for 4 <= L <= 6, tensor-product
  Gauss-Hermite over the whitened vector with direct indicator/softmax
  evaluation at the nodes. Error bounds come from the difference
  against a run at half the node count. One sweep yields every cluster
  and every moment, so the sweep of one (Gram, beta, n) is computed
  once and shared by soft_moments, soft_second_moments,
  softmax_weights, ibp_residual and hard_moments for every ell.
* a reference Monte Carlo fallback for any L, using antithetic pairs
  and a 3-sigma CLT bound, chunked with the same ordered deterministic
  reduction as the engine.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import ndtr, roots_hermite

from . import _kernels
from .errors import BudgetError, DimensionError, DomainError
from .templates import GramModel

_SQRT2PI = math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_EXACT_BOUND = 1e-13
_GH_CACHE = {}
_GL_CACHE = {}
_SWEEPS = {}
_SWEEP_SLOTS = 8
_SWEEP_LOCK = threading.Lock()


def _gh_rule(n):
    """Gauss-Hermite nodes scaled for a standard normal, weights sum 1."""
    if n not in _GH_CACHE:
        x, w = roots_hermite(n)
        _GH_CACHE[n] = (x * math.sqrt(2.0), w / math.sqrt(math.pi))
    return _GH_CACHE[n]


def _gl_rule(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = leggauss(n)
    return _GL_CACHE[n]


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


def bvn_cdf(h, k, r):
    """P(X < h, Y < k) for standard bivariate normals at correlation r.

    Single-integral form with the sine substitution. The integrand
    sharpens toward the upper limit as |r| -> 1, so beyond |r| = 0.8 the
    interval is split into panels refined geometrically toward that
    endpoint; each panel gets a fixed Gauss-Legendre rule. Accurate to
    ~1e-13 through |r| = 0.9999. Vectorized over h and k.
    """
    h = np.asarray(h, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    base = ndtr(h) * ndtr(k)
    if r == 0.0:
        return base
    if not -1.0 < r < 1.0:
        raise DomainError(f"bvn_cdf needs |r| < 1, got {r}")
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
    """E[U ; U < a, V < b] for standard bivariate normals, correlation r."""
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
    identity) for four and five.
    """
    m = corr.shape[0]
    if m == 0:
        return 1.0
    if m == 1:
        return 0.5
    if m == 2:
        return 0.25 + math.asin(float(corr[0, 1])) / _TWO_PI
    if m == 3:
        s = (math.asin(float(corr[0, 1])) + math.asin(float(corr[0, 2]))
             + math.asin(float(corr[1, 2])))
        return 0.125 + s / (2.0 * _TWO_PI)
    if m > 5:
        raise DimensionError(f"orthant closed forms implemented for m <= 5, "
                             f"got {m}")
    x, w = _gl_rule(64)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    total = 2.0 ** (-m)
    eye = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            rij = float(corr[i, j])
            if rij == 0.0:
                continue
            for tn, wn in zip(t, wt):
                rt = (1.0 - tn) * eye + tn * corr
                r_now = tn * rij
                dens = 1.0 / (_TWO_PI * math.sqrt(max(1.0 - r_now * r_now,
                                                      1e-300)))
                keep = [a for a in range(m) if a not in (i, j)]
                pair = rt[np.ix_([i, j], [i, j])]
                cross = rt[np.ix_(keep, [i, j])]
                cond = rt[np.ix_(keep, keep)] - cross @ np.linalg.solve(
                    pair, cross.T)
                total += wn * rij * dens * _orthant_zero(_corr_of(cond))
    return total


@dataclass(frozen=True)
class OracleResult:
    """Reference value with an honest error bound.

    value is the vector (E[S_k ; argmax = l])_k for hard queries or
    (E[S_k p_l])_k for soft ones; mass the matching P[argmax = l] or
    E[p_l]. ratio() = value / mass is the correlation row the engine
    estimates. error_bound covers every entry of value; mass_bound
    covers mass. method is quadrature, exact, or refMC.
    """

    value: np.ndarray
    mass: float
    error_bound: float
    mass_bound: float
    method: str
    nodes_or_samples: int
    mass_method: str = None

    def __post_init__(self):
        v = np.asarray(self.value, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "value", v)
        if not self.error_bound > 0 or not self.mass_bound >= 0:
            raise DomainError("error bounds must be positive")
        if self.method == "exact" and self.error_bound > 1e-12:
            raise DomainError("exact method requires error_bound <= 1e-12")
        if self.mass_method is None:
            object.__setattr__(self, "mass_method", self.method)

    def ratio(self):
        return self.value / self.mass

    def ratio_bound(self):
        """First-order bound on each entry of ratio()."""
        return (self.error_bound
                + np.max(np.abs(self.value)) * self.mass_bound / self.mass
                ) / self.mass


def _check_gram(g):
    if not isinstance(g, GramModel):
        raise DomainError(f"expected a GramModel, got {type(g)!r}")
    return g.rho.shape[0]


def _check_precision(res, precision, what):
    if precision is not None and res.error_bound > precision:
        err = BudgetError(
            f"{what}: requested precision {precision:g} but achieved bound "
            f"{res.error_bound:g} with {res.nodes_or_samples} nodes/samples")
        err.achieved_bound = res.error_bound
        raise err
    return res


def hard_moments(g, ell, precision=None, method=None, nodes=None,
                 samples=10**7, seed=0, chunks=16):
    """P[argmax S = ell] and (E[S_k ; argmax S = ell])_k.

    method None or "exact" uses the orthant reduction (any L up to 6);
    "quadrature" the conditional route (L <= 3) or the tensor node sweep
    (L in 4..6); "refmc" the antithetic sampler. Raises a budget error
    when a requested precision exceeds what the method achieved.
    """
    L = _check_gram(g)
    if not 0 <= ell < L:
        raise DomainError(f"cluster index {ell} out of range for L={L}")
    if method in (None, "exact"):
        if L > 6:
            if method == "exact":
                raise DimensionError("exact branch supports L <= 6")
            return hard_moments(g, ell, precision, "refmc", nodes,
                                samples, seed, chunks)
        res = _hard_exact(g, ell)
    elif method == "quadrature":
        if L <= 3:
            res = _hard_conditional_quadrature(g, ell, nodes or 96)
        elif L <= 6:
            res = _tensor_quadrature("hard", g, None, ell, nodes or 40, 1)
        else:
            raise DimensionError("quadrature supports L <= 6; use refmc")
    elif method == "refmc":
        res = _ref_mc(g, math.inf, ell, samples, seed, chunks)
    else:
        raise DomainError(f"unknown method {method!r}")
    return _check_precision(res, precision, f"hard_moments(L={L})")


def _hard_exact(g, ell):
    L = g.rho.shape[0]
    cov = g.covariance()
    others = [k for k in range(L) if k != ell]
    # difference vector D_k = S_ell - S_k over k != ell
    dcov = np.empty((L - 1, L - 1))
    for a, ka in enumerate(others):
        for b, kb in enumerate(others):
            dcov[a, b] = (cov[ell, ell] - cov[ell, kb]
                          - cov[ka, ell] + cov[ka, kb])
    prob = _orthant_zero(_corr_of(dcov))
    # E[S_j ; D > 0] = sum_k Cov(S_j, D_k) * pdf_{D_k}(0) * P(rest > 0 | D_k=0)
    sd = np.sqrt(np.diag(dcov))
    boundary = np.empty(L - 1)
    for a in range(L - 1):
        keep = [b for b in range(L - 1) if b != a]
        if keep:
            cond = (dcov[np.ix_(keep, keep)]
                    - np.outer(dcov[keep, a], dcov[a, keep]) / dcov[a, a])
            q = _orthant_zero(_corr_of(cond))
        else:
            q = 1.0
        boundary[a] = q / (sd[a] * _SQRT2PI)
    value = np.empty(L)
    for j in range(L):
        cross = np.array([cov[j, ell] - cov[j, k] for k in others])
        value[j] = float(cross @ boundary)
    return OracleResult(value=value, mass=prob, error_bound=_EXACT_BOUND,
                        mass_bound=_EXACT_BOUND, method="exact",
                        nodes_or_samples=64)


def _hard_conditional_quadrature(g, ell, n):
    def run(nn):
        return _hard_conditional_once(g, ell, nn)

    val, mass = run(n)
    val_h, mass_h = run(max(8, n // 2))
    # floor covers the fixed-resolution inner bivariate CDF, which the
    # outer node halving cannot sense
    bound = max(float(np.max(np.abs(val - val_h))), 1e-12)
    mbound = max(abs(mass - mass_h), 1e-12)
    return OracleResult(value=val, mass=mass, error_bound=bound,
                        mass_bound=mbound, method="quadrature",
                        nodes_or_samples=n)


def _hard_conditional_once(g, ell, n):
    """Outer Gauss-Hermite over t = S_ell, closed conditional CDFs inside."""
    L = g.rho.shape[0]
    cov = g.covariance()
    others = [k for k in range(L) if k != ell]
    s_ell = math.sqrt(cov[ell, ell])
    x, w = _gh_rule(n)
    t = s_ell * x
    # conditional mean slope and residual spread of S_k given S_ell = t
    slope = np.array([cov[k, ell] / cov[ell, ell] for k in others])
    resid = np.array([cov[k, k] - cov[k, ell] ** 2 / cov[ell, ell]
                      for k in others])
    sig = np.sqrt(np.maximum(resid, 1e-300))
    if L == 2:
        a = (t - slope[0] * t) / sig[0]
        inside = ndtr(a)
        prob = float(w @ inside)
        e_own = float(w @ (t * inside))
        mu = slope[0] * t
        e_oth = float(w @ (mu * ndtr(a) + sig[0] * (-_phi(a))))
        value = np.empty(2)
        value[ell] = e_own
        value[others[0]] = e_oth
        return value, prob
    # L == 3: bivariate conditional of the two other coordinates
    j, k = others
    r_c = ((cov[j, k] - cov[j, ell] * cov[k, ell] / cov[ell, ell])
           / (sig[0] * sig[1]))
    r_c = min(max(r_c, -1.0 + 1e-12), 1.0 - 1e-12)
    aj = (t - slope[0] * t) / sig[0]
    ak = (t - slope[1] * t) / sig[1]
    p2 = bvn_cdf(aj, ak, r_c)
    prob = float(w @ p2)
    e_own = float(w @ (t * p2))
    mom_j = np.array([_bvn_lower_moment(aj[i], ak[i], r_c)
                      for i in range(n)])
    mom_k = np.array([_bvn_lower_moment(ak[i], aj[i], r_c)
                      for i in range(n)])
    e_j = float(w @ (slope[0] * t * p2 + sig[0] * mom_j))
    e_k = float(w @ (slope[1] * t * p2 + sig[1] * mom_k))
    value = np.empty(3)
    value[ell] = e_own
    value[j] = e_j
    value[k] = e_k
    return value, prob


def _whitening(g):
    return (g.scale * g.factor).astype(np.float64)


def _sweep(kind, g, beta, n):
    """The tensor node sweep of one (Gram, beta, n), shared by every cluster.

    kind "hard" returns (prob, mom) of the argmax sweep, "soft" returns
    (mass, mom, pp) of the softmax sweep at a validated beta. The last
    _SWEEP_SLOTS sweeps are kept, keyed by the whitening's bytes, and
    their arrays are read-only.
    """
    a = _whitening(g)
    key = (kind, a.shape, a.tobytes(), beta, n)
    with _SWEEP_LOCK:
        hit = _SWEEPS.get(key)
    if hit is not None:
        return hit
    x, w = _gh_rule(n)
    if kind == "hard":
        hit = _kernels.hard_nodes(None, a, x, w)
    else:
        hit = _kernels.soft_nodes(None, a, x, w, beta)
    for arr in hit:
        arr.setflags(write=False)
    with _SWEEP_LOCK:
        _SWEEPS[key] = hit
        while len(_SWEEPS) > _SWEEP_SLOTS:
            del _SWEEPS[next(iter(_SWEEPS))]
    return hit


def _tensor_quadrature(kind, g, beta, ell, n, moment):
    """Row ell of one sweep moment at n nodes per axis, bounded by its gap
    to the sweep at max(8, n // 2).

    moment 1 is E[S_k ; argmax = ell] or E[S_k p_ell] with its mass from
    moment 0; moment 2 is E[p_ell p_j], whose weights sum to one.
    """
    full = _sweep(kind, g, beta, n)
    half = _sweep(kind, g, beta, max(8, n // 2))
    val = full[moment][ell].copy()
    bound = max(float(np.max(np.abs(val - half[moment][ell]))), 1e-15)
    if moment == 2:
        mass, mbound = 1.0, _EXACT_BOUND
    else:
        mass = float(full[0][ell])
        mbound = max(abs(mass - float(half[0][ell])), 1e-15)
    return OracleResult(value=val, mass=mass, error_bound=bound,
                        mass_bound=mbound, method="quadrature",
                        nodes_or_samples=n)


def _check_beta(beta):
    """beta as a float; DomainError unless it is positive and finite."""
    if not (np.isfinite(beta) and beta > 0):
        raise DomainError(f"beta must be positive and finite, got {beta}")
    return float(beta)


def soft_moments(g, beta, ell, precision=None, method=None, nodes=None,
                 samples=10**7, seed=0, chunks=16):
    """E[p_ell] and (E[S_k p_ell])_k for p = softmax(beta * S).

    L = 2 reduces to one-dimensional integrals over the difference
    coordinate, with E[p] = 1/2 exact by symmetry. Larger L uses the
    tensor node sweep, or the antithetic sampler with method="refmc".
    """
    L = _check_gram(g)
    if not 0 <= ell < L:
        raise DomainError(f"cluster index {ell} out of range for L={L}")
    beta = _check_beta(beta)
    if method == "refmc":
        res = _ref_mc(g, beta, ell, samples, seed, chunks)
    elif method in (None, "quadrature"):
        if L == 2:
            res = _soft_pair_quadrature(g, beta, ell, nodes or 200)
        elif L <= 6:
            res = _tensor_quadrature("soft", g, beta, ell,
                                     nodes or (80 if L == 3 else 40), 1)
        else:
            if method == "quadrature":
                raise DimensionError("quadrature supports L <= 6; use refmc")
            res = _ref_mc(g, beta, ell, samples, seed, chunks)
    else:
        raise DomainError(f"unknown method {method!r}")
    return _check_precision(res, precision, f"soft_moments(L={L})")


def _soft_pair_quadrature(g, beta, ell, n):
    """L = 2 route: p_0 = sigmoid(beta * D), D = S_0 - S_1 carries it all.

    The sum coordinate is independent of D (equal norms), so
    E[S_0 p_0] = E[D sigmoid(beta D)] / 2 = -E[S_1 p_0], and
    E[p] = 1/2 exactly by the sigmoid's antisymmetry.
    """
    cov = g.covariance()
    var_d = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
    sd = math.sqrt(max(var_d, 0.0))

    def run(nn):
        x, w = _gh_rule(nn)
        d = sd * x
        sig = _stable_sigmoid(beta * d)
        return 0.5 * float(w @ (d * sig))

    half = run(n)
    half_h = run(max(16, n // 2))
    bound = max(abs(half - half_h), 1e-15)
    value = np.array([half, -half]) if ell == 0 else np.array([-half, half])
    return OracleResult(value=value, mass=0.5, error_bound=bound,
                        mass_bound=_EXACT_BOUND, method="quadrature",
                        nodes_or_samples=n, mass_method="exact")


def _stable_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def soft_second_moments(g, beta, ell, nodes=None):
    """(E[p_ell p_j])_j with a node-halving bound; quadrature only."""
    L = _check_gram(g)
    if not 0 <= ell < L:
        raise DomainError(f"cluster index {ell} out of range for L={L}")
    if L > 6:
        raise DimensionError("soft_second_moments supports L <= 6")
    return _tensor_quadrature("soft", g, _check_beta(beta), ell,
                              nodes or (80 if L <= 3 else 40), 2)


def ibp_residual(g, beta, ell, nodes=None):
    """Gap in the Gaussian integration-by-parts identity at the oracle's
    nodes.

    For jointly Gaussian S and p = softmax(beta S),
    E[S_k p_l] = beta * (Sigma[k, l] E[p_l] - sum_j Sigma[k, j] E[p_l p_j])
    with Sigma the covariance of S. Both sides come from one node sweep,
    so the residual measures how faithfully the quadrature realizes the
    identity; it shrinks with the node count. The default count grows
    with the effective sharpness beta * scale.
    """
    L = _check_gram(g)
    if not 0 <= ell < L:
        raise DomainError(f"cluster index {ell} out of range for L={L}")
    if L > 6:
        raise DimensionError("ibp_residual supports L <= 6")
    beta = _check_beta(beta)
    if nodes is None:
        sharp = beta * g.scale
        if L <= 3:
            nodes = 96 if sharp <= 2 else (160 if sharp <= 4 else
                                           (240 if sharp <= 6 else 320))
        else:
            nodes = 40
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


def max_gaussian_mean(n, method="quadrature", samples=10**7, seed=0,
                      chunks=16):
    """E[max of n iid standard normals].

    The quadrature route integrates the order-statistic density
    n * phi(t) * Phi(t)^(n-1); the refMC route averages sampled maxima
    with a 3-sigma bound. Used as the reference for the orthonormal
    self-correlation sweeps.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    n = int(n)
    if n == 1:
        return OracleResult(value=np.array([0.0]), mass=1.0,
                            error_bound=_EXACT_BOUND,
                            mass_bound=_EXACT_BOUND, method="exact",
                            nodes_or_samples=0)
    if method == "quadrature":
        hi = math.sqrt(2.0 * math.log(max(n, 2))) + 9.0

        def dens(t):
            return t * n * math.exp(-0.5 * t * t) / _SQRT2PI \
                * ndtr(t) ** (n - 1)

        val, err = quad(dens, -hi, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
        return OracleResult(value=np.array([val]), mass=1.0,
                            error_bound=max(err, 1e-14),
                            mass_bound=_EXACT_BOUND, method="quadrature",
                            nodes_or_samples=400)
    if method == "refmc":
        rows = _kernels.chunk_rows(samples, chunks)
        tot = 0.0
        tot2 = 0.0
        count = 0
        for c, r in enumerate(rows):
            gen = _kernels.chunk_generator(seed, c)
            step = max(1, 4_000_000 // n)
            done = 0
            while done < r:
                take = min(step, r - done)
                z = gen.standard_normal((take, n))
                mx = z.max(axis=1)
                tot += mx.sum()
                tot2 += (mx * mx).sum()
                count += take
                done += take
        mean = tot / count
        var = max(tot2 / count - mean * mean, 0.0)
        bound = 3.0 * math.sqrt(var / count)
        return OracleResult(value=np.array([mean]), mass=1.0,
                            error_bound=max(bound, 1e-15),
                            mass_bound=_EXACT_BOUND, method="refMC",
                            nodes_or_samples=count)
    raise DomainError(f"unknown method {method!r}")


def _ref_mc(g, beta, ell, samples, seed, chunks):
    """Antithetic-pair Monte Carlo for one cluster's moments.

    Each antithetic pair (z, -z) contributes the average of its two
    evaluations; the CLT bound uses the empirical variance of the pair
    averages. Deterministic for fixed (seed, chunks).
    """
    L = g.rho.shape[0]
    sf = (g.scale * g.factor).T.copy()
    pairs = max(1, samples // 2)
    rows = _kernels.chunk_rows(pairs, chunks)
    dim = L + 1
    tot = np.zeros(dim)
    tot2 = np.zeros(dim)
    for c, r in enumerate(rows):
        gen = _kernels.chunk_generator(seed, c)
        step = max(1, 2_000_000 // L)
        done = 0
        while done < r:
            take = min(step, r - done)
            z = gen.standard_normal((take, L))
            s = z @ sf
            stats = _mc_cluster_stats(s, beta, ell)
            stats += _mc_cluster_stats(-s, beta, ell)
            stats *= 0.5
            tot += stats.sum(axis=0)
            tot2 += (stats * stats).sum(axis=0)
            done += take
    mean = tot / pairs
    var = np.maximum(tot2 / pairs - mean * mean, 0.0)
    half = 3.0 * np.sqrt(var / pairs)
    return OracleResult(value=mean[:L], mass=float(mean[L]),
                        error_bound=max(float(half[:L].max()), 1e-15),
                        mass_bound=max(float(half[L]), 1e-15),
                        method="refMC", nodes_or_samples=2 * pairs)


def _mc_cluster_stats(s, beta, ell):
    """Per-sample [S_k * weight_ell ..., weight_ell] rows."""
    rows, L = s.shape
    out = np.empty((rows, L + 1))
    if math.isinf(beta):
        win = s.argmax(axis=1) == ell
        out[:, :L] = s * win[:, None]
        out[:, L] = win
    else:
        logits = beta * s
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        pl = p[:, ell] / p.sum(axis=1)
        out[:, :L] = s * pl[:, None]
        out[:, L] = pl
    return out
