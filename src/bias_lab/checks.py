"""The check table: every comparison that verify, run and the acceptance
tests make.

Each check runs the engine or the oracle on the inputs its caller gives,
compares the result with a closed form (`theory`) or the quadrature
`oracle` under one tolerance rule, and returns a CheckResult: ReportRows
plus at most one CSV table. ``CHECKS`` names them all. Three consumers
share the table, each with its own inputs: ``bias-lab verify``, the
experiments of ``bias-lab run`` and the acceptance scorecard in
tests/test_acceptance.py.

Engine, oracle, theory and template calls go through their module
attributes, so tools that wrap those attributes see every call.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import engine, oracle, theory
from . import templates as tpl
from .engine import ExperimentConfig
from .templates import GramModel


@dataclass
class ReportRow:
    """One pass/fail line; passed=None marks an informational row."""

    name: str
    measured: float
    predicted: float
    tolerance: float
    provenance: str
    passed: bool = None
    note: str = ""

    def __post_init__(self):
        if self.passed is not None:
            self.passed = bool(self.passed)

    def line(self):
        tag = ("INFO" if self.passed is None
               else ("PASS" if self.passed else "FAIL"))
        txt = (f"[{tag}] {self.name}: measured={self.measured:.6g} "
               f"predicted={self.predicted:.6g} tol={self.tolerance:.3g} "
               f"({self.provenance})")
        if self.note:
            txt += f" -- {self.note}"
        return txt


@dataclass
class CheckResult:
    """Rows of one check, its CSV table as (header, rows) or None, and
    the estimate of its last engine run when a caller saves it."""

    rows: list
    table: tuple = None
    estimate: object = None


def _near(name, measured, predicted, tol, provenance):
    """Row that passes when |measured - predicted| <= tol; a tolerance
    that is not finite bounds nothing, so its row fails."""
    return ReportRow(name, measured, predicted, tol, provenance,
                     abs(measured - predicted) <= tol < math.inf,
                     "" if tol < math.inf else
                     "too few samples gave no finite tolerance")


def _flag(name, ok, provenance, note=""):
    """Row for a rule that must hold over many sub-checks."""
    return ReportRow(name, float(ok), 1.0, 0.0, provenance, ok, note)


def _entrywise(name, gap, tol, provenance):
    """Row for |gap| <= tol entry by entry, showing the tightest entry."""
    gap, tol = np.ravel(gap), np.ravel(tol)
    k = int(np.argmax(np.abs(gap) / tol))
    return _near(name, float(gap[k]), 0.0, float(tol[k]), provenance)


def estimates(runs, threads=None, **cfg):
    """Hard (beta = inf) or soft estimates of (model, m, seed, beta) runs,
    in order, each bitwise its lone run's; runs that draw the same
    normals share one engine pass (engine.assign_many)."""
    return engine.assign_many(
        [(model, ExperimentConfig(m=m, seed=seed, beta=beta, threads=threads,
                                  **cfg)) for model, m, seed, beta in runs])


def estimate(model, m, seed, beta=math.inf, threads=None, **cfg):
    """The estimate of one run, as in estimates."""
    return estimates([(model, m, seed, beta)], threads, **cfg)[0]


# the estimators that checks run side by side on one model
_KINDS = (("hard", math.inf), ("soft", 1.0))


def oracle_tol(stderr, ref):
    """Engine-vs-oracle tolerance: 3 (Monte Carlo stderr + oracle bound)."""
    return 3.0 * (stderr + float(ref.ratio_bound()))


def pair_hard(rhos, m, seed, scale=1.0, threads=None):
    """Hard pair self correlation against sqrt((1 - rho) / pi) * scale.

    Each row passes within max(0.002, 3 sigma).
    """
    rows, table = [], []
    runs = estimates([(tpl.make_pair(rho, norm=scale), m, seed, math.inf)
                      for rho in rhos], threads)
    for rho, est in zip(rhos, runs):
        pred = theory.hard_pair_prediction(rho, scale).predicted_corr[0][0]
        measured, se = float(est.corr[0, 0]), float(est.stderr[0, 0])
        tol = max(0.002, 3.0 * se)
        row = _near(f"hard pair rho={rho:+.2f} self correlation", measured,
                    pred, tol,
                    "closed form, maximum of two correlated normals")
        rows += [row, _entrywise(  # the rows of the pair cancel
            f"hard pair rho={rho:+.2f} antisymmetry",
            est.corr[1] + est.corr[0], 3.0 * (est.stderr[1] + est.stderr[0]),
            "exchange symmetry of the pair")]
        table.append((rho, measured, se, pred, tol, row.passed))
    return CheckResult(
        rows, ("rho,measured_corr,stderr,predicted,tolerance,passed", table),
        est)


def pair_soft(rho, beta, m, seed, scale=1.0, threads=None):
    """Soft pair self correlation against the oracle, within oracle_tol;
    the small-correlation closed form is shown without a verdict."""
    est = estimate(tpl.make_pair(rho, norm=scale), m, seed, beta, threads)
    ref = oracle.soft_moments(GramModel.from_correlation(
        np.array([[1.0, rho], [rho, 1.0]]), scale=scale), beta, 0)
    truth = float(ref.ratio()[0])
    measured, se = float(est.corr[0, 0]), float(est.stderr[0, 0])
    row = _near(f"soft pair rho={rho:+.2f} self correlation", measured, truth,
                oracle_tol(se, ref),
                f"oracle {ref.method} ({ref.nodes} nodes)")
    approx = theory.soft_pair_prediction(rho, scale)
    pred = float(approx.predicted_corr[0][0])
    note = approx.validity_note + (
        "" if beta == 1.0 else
        f"; stated at unit sharpness, run used beta={beta:g}")
    return CheckResult(
        [row, ReportRow("small-correlation closed-form approximation", truth,
                        pred, math.nan,
                        "linearized sigmoid moment, approximate", None,
                        note)],
        ("rho,beta,measured_corr,stderr,oracle_value,oracle_bound,"
         "approx_prediction,tolerance,passed",
         [(rho, beta, measured, se, truth, float(ref.ratio_bound()), pred,
           row.tolerance, row.passed)]))


def bridge(rho, m, seed, betas, threads=None):
    """Soft meets hard at beta = 100 and approaches it along betas.

    The soft runs of the sweep use max(m // 5, 1e5) samples, so a step
    between two betas is only resolved while its gap exceeds their
    Monte Carlo noise.
    """
    g = GramModel.from_correlation(rho)
    hard, soft, *sweep = estimates(
        [(g, m, seed, math.inf), (g, m, seed, 100.0)]
        + [(g, max(m // 5, 10**5), seed, b) for b in betas], threads)
    gap = float(np.max(np.abs(hard.corr - soft.corr)))
    tol = max(0.01, 5.0 * float(np.max(hard.stderr + soft.stderr)))
    dists = [float(np.max(np.abs(hard.corr - est.corr))) for est in sweep]
    mono = all(a > b for a, b in zip(dists, dists[1:]))
    return CheckResult(
        [_near("beta=100 soft vs hard max correlation gap", gap, 0.0, tol,
               "sharp-limit coincidence of the two estimators"),
         _flag("distance to hard decreasing in beta", mono,
               "sharpness bridge monotonicity",
               "distances " + ", ".join(f"{d:.4f}" for d in dists))],
        ("beta,max_abs_gap_to_hard", list(zip(betas, dists))))


def beta_zero(m, seed, threads=None):
    """corr / beta at beta = 1e-3 against the beta -> 0 limit, entrywise."""
    beta = 1e-3
    g = GramModel.from_correlation(np.eye(4))
    est = estimate(g, m, seed, beta, threads)
    slope = est.corr / beta
    want = np.asarray(theory.beta_zero_limit(g).predicted_corr)
    tol = 5.0 * est.stderr / beta
    return CheckResult(
        [_entrywise("beta->0 slope vs 3/4 on and -1/4 off the diagonal, "
                    "every entry", slope - want, tol,
                    "linearized softmax limit")],
        ("row,column,measured_slope,predicted_slope,tolerance",
         [(i, j, float(slope[i, j]), float(want[i, j]), float(tol[i, j]))
          for i in range(4) for j in range(4)]))


def positivity(nsets, m, seed, threads=None):
    """Self correlations positive and hard diagonals dominant, 3 sigma.

    Set i is a random correlation at L in 2..6 drawn from rng 777 and
    run at seed + i.
    """
    rng = np.random.default_rng(777)
    keys, runs = [], []
    for i in range(nsets):
        L = int(rng.integers(2, 7))
        g = GramModel.from_correlation(tpl.random_correlation(rng, L))
        for kind, beta in _KINDS:
            keys.append((i, kind, L))
            runs.append((g, m, seed + i, beta))
    table = []
    worst_z = math.inf
    for (i, kind, L), est in zip(keys, estimates(runs, threads)):
        diag, dse = np.diag(est.corr), np.diag(est.stderr)
        z = float(np.min(diag / dse))
        worst_z = min(worst_z, z)
        ok = bool(np.all(diag > 3.0 * dse))
        if kind == "hard":
            gap = diag[:, None] - est.corr
            se = np.hypot(dse[:, None], est.stderr)
            off = ~np.eye(L, dtype=bool)
            ok = ok and bool(np.all(gap[off] > 3.0 * se[off]))
        table.append((i, L, kind, z, ok))
    ok = all(row[-1] for row in table)
    return CheckResult(
        [_flag(f"positivity and dominance over {nsets} random sets", ok,
               "3-sigma positivity of every self correlation",
               f"worst z-score {worst_z:.1f}")],
        ("set_index,L,estimator,min_self_z,passed", table))


def average_dependency(Ls, m, seed, threads=None):
    """Mass-weighted self correlation falls from rho = 0 to rho = 0.5.

    Equicorrelated sets of size L run at seed + L.
    """
    rows, table = [], []
    for L in Ls:
        keys, runs = [], []
        for rho_off in (0.0, 0.5):
            rho = np.full((L, L), rho_off)
            np.fill_diagonal(rho, 1.0)
            g = GramModel.from_correlation(rho)
            for kind, beta in _KINDS:
                keys.append((kind, rho_off))
                runs.append((g, m, seed + L, beta))
        vals = {key: (float(est.avg_self_corr), float(est.avg_self_stderr))
                for key, est in zip(keys, estimates(runs, threads))}
        for kind in ("hard", "soft"):
            lo, lo_se = vals[(kind, 0.5)]
            hi, hi_se = vals[(kind, 0.0)]
            margin = 3.0 * math.hypot(lo_se, hi_se)
            ok = hi - lo > margin
            rows.append(ReportRow(
                f"L={L} {kind} mass-weighted self correlation, rho 0 above "
                f"rho 0.5", hi - lo, 0.0, margin,
                "overlap lowers averaged bias", ok))
            table.append((L, kind, hi, hi_se, lo, lo_se, ok))
        if L == 2:
            for rho_off in (0.0, 0.5):
                rows.append(_near(
                    f"L=2 hard average at rho={rho_off}",
                    vals[("hard", rho_off)][0],
                    theory.max_two_gaussians_mean(rho_off), 0.005,
                    "closed form, maximum of two correlated normals"))
    return CheckResult(rows, (
        "L,estimator,avg_corr_rho0,se_rho0,avg_corr_rho05,se_rho05,ordered",
        table))


def individual_dependency(orthogonal, overlapping, m, seed, beta=math.inf,
                          threads=None):
    """Every per-cluster self correlation drops as the overlap grows."""
    a, b = estimates([(orthogonal, m, seed, beta),
                      (overlapping, m, seed, beta)], threads)
    gaps = np.diag(a.corr) - np.diag(b.corr)
    ses = np.sqrt(np.diag(a.stderr) ** 2 + np.diag(b.stderr) ** 2)
    kind = "hard" if math.isinf(beta) else "soft"
    return CheckResult(
        [ReportRow(f"circulant {kind} per-cluster ordering, orthogonal above "
                   f"overlapping", float(np.min(gaps)), 0.0,
                   float(np.max(3.0 * ses)),
                   "per-cluster inverse dependency on overlap",
                   bool(np.all(gaps > 3.0 * ses)))],
        ("cluster,self_corr_orthogonal,self_corr_overlapping,gap,"
         "three_sigma",
         [(k, float(np.diag(a.corr)[k]), float(np.diag(b.corr)[k]),
           float(gaps[k]), float(3.0 * ses[k])) for k in range(a.L)]))


def span(ts, ms, seeds, threads=None):
    """Out-of-span residual shrinks like 1/sqrt(M) and ends below 0.1.

    The shrink factor from ms[0] to ms[1] is checked both as the ratio
    of the largest residuals and as the mean of per-cluster ratios.
    """
    res = [engine.span_residual(estimate(ts, m, seed, threads=threads,
                                     mode="full"), ts)
           for m, seed in zip(ms, seeds)]
    want = math.sqrt(ms[1] / ms[0])
    big = float(np.max(res[1]))
    ratios = (float(np.max(res[0])) / big, float(np.mean(res[0] / res[1])))
    return CheckResult(
        [_near(f"span residual ratio M={ms[0]} over M={ms[1]}", ratios[0],
               want, 0.3 * want,
               "root-M concentration onto the template span"),
         _near("mean per-cluster span residual ratio", ratios[1], want,
               0.3 * want, "root-M concentration onto the template span"),
         ReportRow(f"span residual at M={ms[1]}", big, 0.0, 0.1,
                   "estimates approach the template span", big < 0.1)],
        ("M,max_span_residual",
         [(m, float(np.max(r))) for m, r in zip(ms, res)]))


def finite_l(clusters, m, seed, threads=None):
    """Soft L = 3 orthonormal self correlations against the oracle."""
    g = GramModel.from_correlation(np.eye(3))
    est = estimate(g, m, seed, 1.0, threads)
    approx = theory.soft_finite_prediction(g).predicted_corr
    rows, table = [], []
    for ell in clusters:
        ref = oracle.soft_moments(g, 1.0, ell)
        truth = float(ref.ratio()[ell])
        measured, se = float(est.corr[ell, ell]), float(est.stderr[ell, ell])
        rows.append(_near(
            f"soft L=3 orthonormal cluster {ell} self correlation vs oracle",
            measured, truth, oracle_tol(se, ref),
            f"oracle {ref.method} ({ref.nodes} nodes)"))
        table.append((measured, se, truth, float(ref.ratio_bound()),
                      float(approx[ell][ell])))
    _, _, truth, _, expansion = table[0]
    rows.append(ReportRow(
        "first-order finite-L expansion vs oracle (relative gap)",
        abs(expansion - truth) / abs(truth), 0.0, math.nan,
        "first-order expansion, no error bar", None,
        note=f"expansion {expansion:.5f}, oracle {truth:.5f}"))
    return CheckResult(rows, ("measured_corr,stderr,oracle_value,"
                              "oracle_bound,expansion_value", table))


_LITERAL_MAX_L = 64
_LITERAL_SEED = 1 << 20


def gumbel(levels, m, seed, threads=None):
    """Orthonormal hard sweep against E[max of L normals], run at seed + L.

    Levels, integers >= 2, are taken sorted and without repeats, so
    |ratio to a_L - 1| must shrink along increasing L; from L = 4096 on
    it must be <= 0.15.

    The diagonal path samples the maximum from its law Phi**L, and the
    oracle integrates the density of that same law, so the two share the
    law by different numerics. At every level up to L = 64 the literal
    argmax over L normals (hard_assign on the identity Gram, m // 5
    samples, seed + 2**20 + L) is therefore checked against the diagonal
    path as well, under 3 sigma of their combined stderr.
    """
    rows, table, drift = [], [], []
    levels = sorted({tpl._integer(lv, "each level", 2) for lv in levels})
    for lv in levels:
        est = engine.hard_assign_diag(lv, ExperimentConfig(
            m=m, seed=seed + lv, threads=threads))
        ref = oracle.max_gaussian_mean(lv)
        a_l, b_l = theory.gumbel_constants(lv)
        measured = float(est.avg_self_corr)
        se = float(est.avg_self_stderr)
        row = _near(f"L={lv} pooled self correlation", measured,
                    float(ref.value[0]), 3.0 * se + float(ref.error_bound),
                    "oracle quadrature, mean of the maximum of L normals")
        rows.append(row)
        if lv <= _LITERAL_MAX_L:
            lit = estimate(GramModel.from_correlation(np.eye(lv)),
                           max(m // 5, 1), seed + _LITERAL_SEED + lv,
                           threads=threads)
            rows.append(_near(
                f"L={lv} argmax over L normals vs order-statistic sampler",
                float(lit.avg_self_corr), measured,
                3.0 * math.hypot(float(lit.avg_self_stderr), se),
                "literal argmax simulation of the identity Gram"))
        drift.append(abs(measured / a_l - 1.0))
        table.append((lv, measured, se, a_l, b_l, measured / a_l,
                      float(ref.value[0]), float(ref.error_bound),
                      row.passed))
    if len(levels) > 1:
        rows.append(_flag(
            "|ratio - 1| decreasing along the sweep",
            all(a > b for a, b in zip(drift, drift[1:])),
            "square-root-of-2-log-L normalization",
            f"largest deviation {max(drift):.4f}"))
        if levels[-1] >= 4096:
            rows.append(_near(f"|ratio - 1| at L={levels[-1]}", drift[-1],
                              0.0, 0.15, "asymptotic anchor"))
    return CheckResult(rows, ("L,measured_self_corr,stderr,a_L,b_L,"
                              "ratio_to_a_L,oracle_mean_max,oracle_bound,"
                              "passed", table))


def soft_consistency(L, m, seed, lo, threads=None):
    """Pooled soft self correlation, orthonormal L, beta = 1, in [lo, 1.01]."""
    est = engine.soft_assign_diag(L, ExperimentConfig(
        m=m, seed=seed, beta=1.0, threads=threads))
    measured = float(est.avg_self_corr)
    pred = 1.0 - math.e / L
    return CheckResult(
        [ReportRow(f"soft orthonormal L={L} pooled self correlation in "
                   f"[{lo}, 1.01]", measured, pred, 1.01 - lo,
                   "first-order finite-L expansion as reference point",
                   lo <= measured <= 1.01)],
        ("L,measured_corr,stderr,expansion_reference",
         [(L, measured, float(est.avg_self_stderr), pred)]))


def oracle_self(ibp_models, pair_grams, circulants, nodes, sum_grams,
                threads=None):
    """The oracle against itself: no Monte Carlo, no closed-form bias.

    ibp_models are (GramModel, beta, ell) triples; pair_grams L = 2
    models for exact vs quadrature; circulants first rows of circulant
    correlations, swept at `nodes` per axis (None: the default);
    sum_grams models whose hard occupancies must sum to one. Each row
    reduces with np.max, so a NaN from the oracle reaches it and fails.
    """
    ibp = float(np.max([oracle.ibp_residual(g, beta, ell)
                        for g, beta, ell in ibp_models]))
    quad = []
    for g in pair_grams:
        e = oracle.hard_moments(g, 0, method="exact")
        q = oracle.hard_moments(g, 0, method="quadrature")
        quad += [*np.abs(e.value - q.value), abs(e.mass - q.mass)]
    quad = float(np.max(quad))
    gaps, tols = [], []
    for seq in circulants:
        g = tpl.make_circulant(seq).gram()
        for ell in range(g.L):
            r = oracle.soft_moments(g, 1.0, ell, nodes=nodes)
            gaps.append(r.mass - 1.0 / g.L)
            tols.append(max(float(r.mass_bound), 1e-9))
    psum = float(np.max([abs(sum(oracle.hard_moments(g, ell).mass
                                 for ell in range(g.L)) - 1.0)
                         for g in sum_grams]))
    return CheckResult([
        ReportRow(f"integration-by-parts residual over {len(ibp_models)} "
                  f"random models", ibp, 0.0, 1e-6,
                  "Gaussian integration by parts at the oracle's nodes",
                  ibp < 1e-6),
        ReportRow("hard oracle exact vs quadrature at L=2", quad, 0.0, 1e-8,
                  "independent orthant and conditional-CDF routes",
                  quad < 1e-8),
        _entrywise("circulant soft occupancy equals 1/L", gaps, tols,
                   "cyclic symmetry of the template set"),
        _near("hard occupancy probabilities sum to one", psum, 0.0, 1e-9,
              "orthant closed forms with path integrals")])


def agreement(n_models, m, threads=None):
    """Engine vs oracle, every cluster row, on random models at L = 2, 3."""
    rng = np.random.default_rng(4242)
    keys, runs = [], []
    for i in range(n_models):
        L = int(rng.integers(2, 4))
        g = GramModel.from_correlation(tpl.random_correlation(rng, L))
        for kind, beta in _KINDS:
            keys.append((i, kind))
            runs.append((g, m, 2000 + i, beta))
    table = []
    for (i, kind), (g, _, _, beta), est in zip(keys, runs,
                                               estimates(runs, threads)):
        for ell in range(g.L):
            ref = (oracle.hard_moments(g, ell) if kind == "hard"
                   else oracle.soft_moments(g, beta, ell))
            gap = float(np.max(np.abs(est.corr[ell] - ref.ratio())))
            tol = oracle_tol(float(np.max(est.stderr[ell])), ref)
            table.append((i, g.L, kind, ell, gap, tol, gap <= tol))
    return CheckResult(
        [_flag(f"engine vs oracle over {n_models} random models",
               all(row[-1] for row in table),
               "3-sigma agreement with exact/quadrature references")],
        ("model,L,estimator,cluster,max_abs_gap,tolerance,passed", table))


def mass_sanity(m, threads=None):
    """Hard occupancy of an orthonormal L = 8 circulant within 4 binomial
    standard errors of 1/L."""
    L = 8
    ts = tpl.make_circulant(np.array((1.0,) + (0.0,) * (L - 1)))
    est = estimate(ts, m, 55, threads=threads)
    gap = float(np.max(np.abs(est.mass - 1.0 / L)))
    return CheckResult([_near(
        "circulant occupancy near 1/L", gap, 0.0,
        4.0 * math.sqrt((1.0 / L) * (1.0 - 1.0 / L) / m),
        "binomial standard error")])


def bias_demo(ts, m, seed, beta=math.inf, threads=None):
    """Every full-mode estimate has its largest Pearson correlation (over
    the d coordinates) with its own template; the row shows the worst
    margin. A hard run that leaves a cluster empty has no estimate for
    it: its Pearson row is NaN, the margin is the worst over the other
    clusters, and the row fails with a note that names the cluster."""
    est = estimate(ts, m, seed, beta, threads, mode="full")
    pearson = np.array([[np.corrcoef(e, x)[0, 1] for x in ts.matrix.T]
                        if k not in est.undefined else [math.nan] * ts.L
                        for k, e in enumerate(est.estimates)])
    off = np.where(np.eye(ts.L, dtype=bool), -np.inf, pearson)
    margins = np.diag(pearson) - np.max(off, axis=1)
    # a hard run fills at least one cluster, so some margin is defined
    worst = float(np.min(np.delete(margins, list(est.undefined))))
    note = "" if not est.undefined else "no estimate for empty " + ", ".join(
        f"cluster {k} ({ts.labels[k]})" for k in est.undefined)
    return CheckResult(
        [ReportRow("estimate matches its own template best (worst margin)",
                   worst, 0.0, 0.0,
                   "sample Pearson correlation on rendered vectors",
                   not est.undefined and worst > 0.0, note)],
        ("estimate_index," + ",".join(f"corr_with_template_{j}"
                                      for j in range(ts.L)),
         [(i, *map(float, row)) for i, row in enumerate(pearson)]),
        est)


CHECKS = {f.__name__: f for f in (
    pair_hard, pair_soft, bridge, beta_zero, positivity, average_dependency,
    individual_dependency, span, finite_l, gumbel, soft_consistency,
    oracle_self, agreement, mass_sanity, bias_demo)}
