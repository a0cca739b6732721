"""Command line driver: canned experiments, verification suites, template
tools.

Config files are flat ``key = value`` text. '#' starts a comment at the
start of a line or after whitespace; elsewhere it is part of the value,
so ``template_dir = /data/run#3`` keeps the '#'.
Recognized keys: experiment, L, d, M, mode, beta, seed, chunks, rho,
rho_seq, alpha, scale, levels, width, height, template_dir, out_dir,
tolerance. Every experiment documents its own defaults; M accepts
scientific notation (M = 5e6). The environment variable BIAS_LAB_SEED,
when set, overrides the config seed.

Exit codes: 0 all tolerance rows pass, 1 at least one row failed,
2 unknown experiment name, 3 invalid config, 4 unwritable output
directory.

Artifacts: every experiment writes CSV tables (UTF-8, comma separated,
'.' decimal, one header line naming columns and units) plus report.txt.
CSV bytes are deterministic for a fixed config and seed; wall-clock time
appears only in report.txt.
"""

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import engine, oracle, theory
from . import templates as tpl
from .engine import ExperimentConfig
from .errors import BiasLabError, ConfigError
from .templates import GramModel

EXIT_OK = 0
EXIT_ROW_FAILED = 1
EXIT_UNKNOWN_EXPERIMENT = 2
EXIT_BAD_CONFIG = 3
EXIT_UNWRITABLE = 4

_EXPERIMENTS = ("pair_hard", "pair_soft", "gumbel_sweep", "bias_demo")


# --------------------------------------------------------------------------
# config handling

_KEY_PARSERS = {
    "experiment": str,
    "L": "int",
    "d": "int",
    "M": "int",
    "mode": str,
    "beta": float,
    "seed": "int",
    "chunks": "int",
    "rho": float,
    "rho_seq": "floats",
    "alpha": float,
    "scale": float,
    "levels": "ints",
    "width": "int",
    "height": "int",
    "template_dir": str,
    "out_dir": str,
    "tolerance": float,
}


def _parse_scalar(key, raw, kind):
    try:
        if kind == "int":
            v = float(raw)
            if v != int(v):
                raise ValueError(raw)
            return int(v)
        if kind == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if kind == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}")


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config(path):
    """Read a flat key=value config file into a dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    out = {}
    for no, line in enumerate(lines, 1):
        body = _COMMENT.split(line, 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{no}: expected key = value, got "
                              f"{body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{no}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{no}: duplicate config key {key!r}")
        out[key] = _parse_scalar(key, raw, _KEY_PARSERS[key])
    return out


def _effective_seed(cfg):
    env = os.environ.get("BIAS_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"BIAS_LAB_SEED must be an integer, got "
                              f"{env!r}")
    return int(cfg.get("seed", 0))


# --------------------------------------------------------------------------
# report plumbing


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
class RunReport:
    """Self-contained record of one run: config echo, rows, artifacts."""

    title: str
    config: dict
    rows: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    wall_time: float = 0.0

    def all_pass(self):
        return all(r.passed for r in self.rows if r.passed is not None)

    def add(self, row):
        self.rows.append(row)

    def text(self):
        lines = [f"# {self.title}", "## config"]
        for key in sorted(self.config):
            lines.append(f"{key} = {self.config[key]}")
        lines.append("## checks")
        for row in self.rows:
            lines.append(row.line())
        npass = sum(1 for r in self.rows if r.passed is True)
        nfail = sum(1 for r in self.rows if r.passed is False)
        lines.append(f"## summary: {npass} passed, {nfail} failed, "
                     f"{len(self.rows) - npass - nfail} informational")
        lines.append(f"wall_time_seconds = {self.wall_time:.3f}")
        if self.artifacts:
            lines.append("## artifacts")
            lines.extend(str(p) for p in self.artifacts)
        return "\n".join(lines) + "\n"

    def write(self, outdir):
        path = os.path.join(outdir, "report.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())
        return path


def _write_csv(outdir, name, header, rows, report):
    """Write one CSV artifact with a fixed numeric format."""
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(c) for c in row) + "\n")
    report.artifacts.append(path)
    return path


def _csv_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".10g")
    return str(value)


# --------------------------------------------------------------------------
# PGM rendering


def render_pgm(vector, width, height, path):
    """Write a vector as a binary (P5) PGM image.

    The value range [min, max] maps affinely onto [0, 255]; constant
    vectors render as all-128. Scaling is per image.
    """
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.size != width * height:
        raise ConfigError(f"vector length {v.size} does not match "
                          f"{width}x{height}")
    if not np.all(np.isfinite(v)):
        raise ConfigError("cannot render non-finite values")
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


# --------------------------------------------------------------------------
# experiments


def _pair_run(rho, scale, m, seed, chunks, threads, beta=math.inf):
    ts = tpl.make_pair(rho, norm=scale)
    cfg = ExperimentConfig(m=m, seed=seed, mode="gram", beta=beta,
                           chunks=chunks, threads=threads)
    if math.isinf(beta):
        return engine.hard_assign(ts, cfg)
    return engine.soft_assign(ts, cfg)


def _exp_pair_hard(cfg, outdir, threads):
    rho = float(cfg.get("rho", 0.99))
    scale = float(cfg.get("scale", 1.0))
    m = int(cfg.get("M", 5_000_000))
    seed = _effective_seed(cfg)
    report = RunReport("pair_hard", dict(cfg, seed=seed))
    est = _pair_run(rho, scale, m, seed, cfg.get("chunks"), threads)
    pred = theory.hard_pair_prediction(rho, scale).predicted_corr[0][0]
    tol = float(cfg.get("tolerance", max(0.002, 3.0 * est.stderr[0, 0])))
    measured = float(est.corr[0, 0])
    report.add(ReportRow(
        "self correlation of estimate 0", measured, pred, tol,
        "closed form, maximum of two correlated normals",
        abs(measured - pred) <= tol))
    anti = float(est.corr[1, 0] + est.corr[0, 0])
    anti_tol = 3.0 * float(est.stderr[1, 0] + est.stderr[0, 0])
    report.add(ReportRow(
        "antisymmetry corr[1,0] + corr[0,0]", anti, 0.0, anti_tol,
        "exchange symmetry of the pair", abs(anti) <= anti_tol))
    _write_csv(outdir, "pair_hard.csv",
               "rho,measured_corr,stderr,predicted,tolerance,passed",
               [(rho, measured, float(est.stderr[0, 0]), pred, tol,
                 abs(measured - pred) <= tol)], report)
    est.save_csv(outdir, "pair_hard_estimate")
    return report


def _exp_pair_soft(cfg, outdir, threads):
    rho = float(cfg.get("rho", 0.0))
    scale = float(cfg.get("scale", 1.0))
    beta = float(cfg.get("beta", 1.0))
    m = int(cfg.get("M", 1_000_000))
    seed = _effective_seed(cfg)
    report = RunReport("pair_soft", dict(cfg, seed=seed))
    est = _pair_run(rho, scale, m, seed, cfg.get("chunks"), threads,
                    beta=beta)
    g = GramModel.from_correlation(np.array([[1.0, rho], [rho, 1.0]]),
                                   scale=scale)
    ref = oracle.soft_moments(g, beta, 0)
    truth = float(ref.ratio()[0])
    bound = float(ref.ratio_bound())
    measured = float(est.corr[0, 0])
    tol = float(cfg.get("tolerance",
                        3.0 * (float(est.stderr[0, 0]) + bound)))
    report.add(ReportRow(
        "self correlation of estimate 0", measured, truth, tol,
        f"oracle {ref.method} ({ref.nodes_or_samples} nodes)",
        abs(measured - truth) <= tol))
    approx = theory.soft_pair_prediction(rho, scale)
    approx_note = approx.validity_note
    if beta != 1.0:
        approx_note += "; stated at unit sharpness, run used "
        approx_note += f"beta={beta:g}"
    report.add(ReportRow(
        "small-correlation closed-form approximation",
        truth, approx.predicted_corr[0][0], math.nan,
        "linearized sigmoid moment, approximate", None, note=approx_note))
    _write_csv(outdir, "pair_soft.csv",
               "rho,beta,measured_corr,stderr,oracle_value,oracle_bound,"
               "approx_prediction,passed",
               [(rho, beta, measured, float(est.stderr[0, 0]), truth, bound,
                 float(approx.predicted_corr[0][0]),
                 abs(measured - truth) <= tol)], report)
    return report


def _exp_gumbel_sweep(cfg, outdir, threads):
    levels = tuple(cfg.get("levels", (16, 64, 256, 1024, 4096)))
    m = int(cfg.get("M", 1_000_000))
    seed = _effective_seed(cfg)
    report = RunReport("gumbel_sweep", dict(cfg, seed=seed, levels=levels))
    rows = []
    ratios = []
    for lv in levels:
        run_cfg = ExperimentConfig(m=m, seed=seed + lv, mode="gram",
                                   chunks=cfg.get("chunks"), threads=threads)
        est = engine.hard_assign_diag(int(lv), run_cfg)
        ref = oracle.max_gaussian_mean(int(lv))
        a_l, b_l, _ = theory.gumbel_constants(int(lv))
        measured = float(est.avg_self_corr)
        se = float(est.avg_self_stderr)
        ratio = measured / a_l
        ratios.append(ratio)
        tol = 3.0 * se + float(ref.error_bound)
        ok = abs(measured - float(ref.value[0])) <= tol
        report.add(ReportRow(
            f"L={lv} pooled self correlation", measured,
            float(ref.value[0]), tol,
            "oracle quadrature, mean of the maximum of L normals", ok))
        rows.append((int(lv), measured, se, a_l, b_l, ratio,
                     float(ref.value[0]), float(ref.error_bound), ok))
    if len(levels) > 1:
        drift = max(abs(r - 1.0) for r in ratios)
        shrinking = all(abs(ratios[i + 1] - 1.0) < abs(ratios[i] - 1.0)
                        for i in range(len(ratios) - 1))
        report.add(ReportRow(
            "|ratio - 1| decreasing along the sweep",
            float(shrinking), 1.0, 0.0,
            "square-root-of-2-log-L normalization", shrinking,
            note=f"largest deviation {drift:.4f}"))
        if levels[-1] >= 4096:
            report.add(ReportRow(
                f"|ratio - 1| at L={levels[-1]}", abs(ratios[-1] - 1.0),
                0.0, 0.15, "asymptotic anchor",
                abs(ratios[-1] - 1.0) <= 0.15))
    _write_csv(outdir, "gumbel_sweep.csv",
               "L,measured_self_corr,stderr,a_L,b_L,ratio_to_a_L,"
               "oracle_mean_max,oracle_bound,passed", rows, report)
    return report


def _exp_bias_demo(cfg, outdir, threads):
    seed = _effective_seed(cfg)
    m = int(cfg.get("M", 200_000))
    beta = float(cfg.get("beta", math.inf))
    if "template_dir" in cfg:
        ts, (width, height) = tpl.load_pgm_dir(cfg["template_dir"])
    else:
        width = int(cfg.get("width", 32))
        height = int(cfg.get("height", 32))
        L = int(cfg.get("L", 12))
        d = width * height
        x0 = tpl.make_exponential(d, float(cfg.get("alpha", 8.0 / d)))
        ts = tpl.make_haar_family(np.asarray(x0).ravel(), L, seed=seed + 1)
    report = RunReport("bias_demo", dict(cfg, seed=seed))
    run_cfg = ExperimentConfig(m=m, seed=seed, mode="full", beta=beta,
                               chunks=cfg.get("chunks"), threads=threads)
    if math.isinf(beta):
        est = engine.hard_assign(ts, run_cfg)
    else:
        est = engine.soft_assign(ts, run_cfg)
    L = ts.L
    pearson = np.empty((L, L))
    for i in range(L):
        for j in range(L):
            pearson[i, j] = np.corrcoef(est.estimates[i],
                                        ts.matrix[:, j])[0, 1]
    margins = [float(pearson[i, i] - max(pearson[i, k]
                                         for k in range(L) if k != i))
               for i in range(L)]
    worst = min(margins)
    report.add(ReportRow(
        "estimate matches its own template best (worst margin)",
        worst, 0.0, 0.0, "sample Pearson correlation on rendered vectors",
        worst > 0.0))
    for i in range(L):
        label = ts.labels[i] if ts.labels else f"{i:02d}"
        report.artifacts.append(render_pgm(
            est.estimates[i], width, height,
            os.path.join(outdir, f"estimate_{label}.pgm")))
        report.artifacts.append(render_pgm(
            ts.matrix[:, i], width, height,
            os.path.join(outdir, f"template_{label}.pgm")))
    _write_csv(outdir, "bias_demo_pearson.csv",
               "estimate_index," + ",".join(
                   f"corr_with_template_{j}" for j in range(L)),
               [(i, *[float(pearson[i, j]) for j in range(L)])
                for i in range(L)], report)
    return report


_EXPERIMENT_FUNCS = {
    "pair_hard": _exp_pair_hard,
    "pair_soft": _exp_pair_soft,
    "gumbel_sweep": _exp_gumbel_sweep,
    "bias_demo": _exp_bias_demo,
}


# --------------------------------------------------------------------------
# verification suites


def _rand_corr(rng, L, rmax=0.8):
    while True:
        raw = rng.standard_normal((L, L + 2))
        c = raw @ raw.T
        sd = np.sqrt(np.diag(c))
        rho = c / np.outer(sd, sd)
        off = rho[~np.eye(L, dtype=bool)]
        if np.max(np.abs(off)) <= rmax and np.linalg.eigvalsh(rho).min() > 1e-6:
            return rho


def _verify_pair_family(report, outdir, m, threads):
    rows = []
    for rho in (-1.0, -0.5, 0.0, 0.5, 0.9, 0.99):
        est = _pair_run(rho, 1.0, m, 101, None, threads)
        pred = theory.hard_pair_prediction(rho, 1.0).predicted_corr[0][0]
        measured = float(est.corr[0, 0])
        ok = abs(measured - pred) <= 0.005
        report.add(ReportRow(
            f"hard pair rho={rho:+.2f} self correlation", measured, pred,
            0.005, "closed form, maximum of two correlated normals", ok))
        anti = float(est.corr[1, 0] + est.corr[0, 0])
        anti_tol = 3.0 * float(est.stderr[1, 0] + est.stderr[0, 0])
        report.add(ReportRow(
            f"hard pair rho={rho:+.2f} antisymmetry", anti, 0.0, anti_tol,
            "exchange symmetry", abs(anti) <= anti_tol))
        rows.append((rho, measured, float(est.stderr[0, 0]), pred,
                     abs(measured - pred) <= 0.005))
    _write_csv(outdir, "verify_pair_hard.csv",
               "rho,measured_corr,stderr,predicted,passed", rows, report)


def _verify_bridge(report, outdir, m, threads):
    rng = np.random.default_rng(2024)
    rho = _rand_corr(rng, 3)
    ts = GramModel.from_correlation(rho)
    hard = engine.hard_assign(ts, ExperimentConfig(m=m, seed=11,
                                                   threads=threads))
    soft = engine.soft_assign(ts, ExperimentConfig(m=m, seed=11, beta=100.0,
                                                   threads=threads))
    gap = float(np.max(np.abs(hard.corr - soft.corr)))
    tol = max(0.01, 5.0 * float(np.max(hard.stderr + soft.stderr)))
    report.add(ReportRow(
        "beta=100 soft vs hard max correlation gap", gap, 0.0, tol,
        "sharp-limit coincidence of the two estimators", gap <= tol))
    dists = []
    for beta in (1.0, 5.0, 20.0, 100.0):
        sb = engine.soft_assign(ts, ExperimentConfig(
            m=max(m // 5, 10**5), seed=11, beta=beta, threads=threads))
        dists.append(float(np.max(np.abs(hard.corr - sb.corr))))
    mono = all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
    report.add(ReportRow(
        "distance to hard decreasing in beta", float(mono), 1.0, 0.0,
        "sharpness bridge monotonicity", mono,
        note="distances " + ", ".join(f"{d:.4f}" for d in dists)))
    _write_csv(outdir, "verify_bridge.csv",
               "beta,max_abs_gap_to_hard",
               [(b, d) for b, d in zip((1.0, 5.0, 20.0, 100.0), dists)],
               report)


def _verify_beta_zero(report, outdir, m, threads):
    beta = 1e-3
    ts = GramModel.from_correlation(np.eye(4))
    est = engine.soft_assign(ts, ExperimentConfig(m=m, seed=21, beta=beta,
                                                  threads=threads))
    pred = theory.beta_zero_limit(ts)
    slope = est.corr[0] / beta
    want = np.asarray(pred.predicted_corr)[0]
    tol = 5.0 * float(np.max(est.stderr[0])) / beta
    gap = float(np.max(np.abs(slope - want)))
    report.add(ReportRow(
        "beta->0 slope row vs [3/4, -1/4, -1/4, -1/4]", gap, 0.0, tol,
        "linearized softmax limit", gap <= tol))
    _write_csv(outdir, "verify_beta_zero.csv",
               "entry,measured_slope,predicted_slope",
               [(k, float(slope[k]), float(want[k])) for k in range(4)],
               report)


def _verify_positivity(report, outdir, m, threads, nsets):
    rng = np.random.default_rng(7_7_7)
    rows = []
    all_ok = True
    worst_z = math.inf
    for i in range(nsets):
        L = int(rng.integers(2, 7))
        ts = GramModel.from_correlation(_rand_corr(rng, L))
        seed = 1000 + i
        hard = engine.hard_assign(ts, ExperimentConfig(m=m, seed=seed,
                                                       threads=threads))
        soft = engine.soft_assign(ts, ExperimentConfig(m=m, seed=seed,
                                                       beta=1.0,
                                                       threads=threads))
        for est, kind in ((hard, "hard"), (soft, "soft")):
            diag = np.diag(est.corr)
            dse = np.diag(est.stderr)
            z = float(np.min(diag / dse))
            worst_z = min(worst_z, z)
            ok = bool(np.all(diag > 3.0 * dse))
            if kind == "hard":
                for a in range(L):
                    for b in range(L):
                        if a == b:
                            continue
                        gap = est.corr[a, a] - est.corr[a, b]
                        se = math.hypot(est.stderr[a, a], est.stderr[a, b])
                        ok = ok and gap > 3.0 * se
            all_ok = all_ok and ok
            rows.append((i, L, kind, z, ok))
    report.add(ReportRow(
        f"positivity and dominance over {nsets} random sets",
        float(all_ok), 1.0, 0.0,
        "3-sigma positivity of every self correlation", all_ok,
        note=f"worst z-score {worst_z:.1f}"))
    _write_csv(outdir, "verify_positivity.csv",
               "set_index,L,estimator,min_self_z,passed", rows, report)


def _verify_average_dependency(report, outdir, m, threads):
    rows = []
    for L in (2, 3, 4):
        vals = {}
        for rho_off in (0.0, 0.5):
            rho = np.full((L, L), rho_off)
            np.fill_diagonal(rho, 1.0)
            ts = GramModel.from_correlation(rho)
            for kind, beta in (("hard", math.inf), ("soft", 1.0)):
                cfg = ExperimentConfig(m=m, seed=31 + L, beta=beta,
                                       threads=threads)
                est = (engine.hard_assign(ts, cfg) if kind == "hard"
                       else engine.soft_assign(ts, cfg))
                vals[(kind, rho_off)] = (float(est.avg_self_corr),
                                         float(est.avg_self_stderr))
        for kind in ("hard", "soft"):
            lo, lo_se = vals[(kind, 0.5)]
            hi, hi_se = vals[(kind, 0.0)]
            margin = 3.0 * math.hypot(lo_se, hi_se)
            ok = hi - lo > margin
            report.add(ReportRow(
                f"L={L} {kind} mass-weighted self correlation, rho 0 above "
                f"rho 0.5", hi - lo, 0.0, margin,
                "overlap lowers averaged bias", ok))
            rows.append((L, kind, hi, hi_se, lo, lo_se, ok))
        if L == 2:
            for rho_off, want in ((0.0, 0.5642), (0.5, 0.3989)):
                got = vals[("hard", rho_off)][0]
                ok = abs(got - want) <= 0.005
                report.add(ReportRow(
                    f"L=2 hard average at rho={rho_off}", got, want, 0.005,
                    "closed form, maximum of two correlated normals", ok))
    _write_csv(outdir, "verify_average_dependency.csv",
               "L,estimator,avg_corr_rho0,se_rho0,avg_corr_rho05,se_rho05,"
               "ordered", rows, report)


def _verify_individual_dependency(report, outdir, m, threads):
    L = 8
    seq_a = (1.0,) + (0.0,) * (L - 1)
    seq_b = (1.0, 0.4) + (0.0,) * (L - 3) + (0.4,)
    ests = {}
    for name, seq in (("orthogonal", seq_a), ("overlapping", seq_b)):
        ts = tpl.make_circulant(np.array(seq))
        est = engine.hard_assign(ts, ExperimentConfig(m=m, seed=41,
                                                      threads=threads))
        ests[name] = est
    a, b = ests["orthogonal"], ests["overlapping"]
    gaps = np.diag(a.corr) - np.diag(b.corr)
    ses = np.sqrt(np.diag(a.stderr) ** 2 + np.diag(b.stderr) ** 2)
    ok = bool(np.all(gaps > 3.0 * ses))
    report.add(ReportRow(
        "circulant per-cluster ordering, orthogonal above overlapping",
        float(np.min(gaps)), 0.0, float(np.max(3.0 * ses)),
        "per-cluster inverse dependency on overlap", ok))
    _write_csv(outdir, "verify_individual_dependency.csv",
               "cluster,self_corr_orthogonal,self_corr_overlapping,gap,"
               "three_sigma",
               [(k, float(np.diag(a.corr)[k]), float(np.diag(b.corr)[k]),
                 float(gaps[k]), float(3.0 * ses[k])) for k in range(L)],
               report)


def _verify_span(report, outdir, m_small, m_big, threads):
    rng = np.random.default_rng(5150)
    base = rng.standard_normal(50)
    ts = tpl.make_haar_family(base, 3, seed=99)
    res = {}
    for m in (m_small, m_big):
        cfg = ExperimentConfig(m=m, seed=51, mode="full", threads=threads)
        est = engine.hard_assign(ts, cfg)
        res[m] = float(np.max(engine.span_residual(est, ts)))
    ratio = res[m_small] / res[m_big]
    want = math.sqrt(m_big / m_small)
    ok_ratio = abs(ratio - want) <= 0.3 * want
    report.add(ReportRow(
        f"span residual ratio M={m_small} over M={m_big}", ratio, want,
        0.3 * want, "root-M concentration onto the template span",
        ok_ratio))
    report.add(ReportRow(
        f"span residual at M={m_big}", res[m_big], 0.0, 0.1,
        "estimates approach the template span", res[m_big] < 0.1))
    _write_csv(outdir, "verify_span.csv",
               "M,max_span_residual",
               [(m, res[m]) for m in (m_small, m_big)], report)


def _verify_finite_l(report, outdir, m, threads):
    ts = GramModel.from_correlation(np.eye(3))
    est = engine.soft_assign(ts, ExperimentConfig(m=m, seed=61, beta=1.0,
                                                  threads=threads))
    ref = oracle.soft_moments(ts, 1.0, 0)
    truth = float(ref.ratio()[0])
    bound = float(ref.ratio_bound())
    measured = float(est.corr[0, 0])
    tol = 3.0 * (float(est.stderr[0, 0]) + bound)
    report.add(ReportRow(
        "soft L=3 orthonormal self correlation vs oracle", measured, truth,
        tol, f"oracle {ref.method} ({ref.nodes_or_samples} nodes)",
        abs(measured - truth) <= tol))
    approx = theory.soft_finite_prediction(ts).predicted_corr[0][0]
    rel = abs(approx - truth) / abs(truth)
    report.add(ReportRow(
        "first-order finite-L expansion vs oracle (relative gap)", rel,
        0.0, math.nan, "first-order expansion, no error bar", None,
        note=f"expansion {approx:.5f}, oracle {truth:.5f}"))
    _write_csv(outdir, "verify_finite_l.csv",
               "measured_corr,stderr,oracle_value,oracle_bound,"
               "expansion_value",
               [(measured, float(est.stderr[0, 0]), truth, bound,
                 float(approx))], report)


def _verify_gumbel(report, outdir, levels, m, threads):
    rows = []
    ratios = []
    for lv in levels:
        est = engine.hard_assign_diag(
            lv, ExperimentConfig(m=m, seed=71 + lv, threads=threads))
        ref = oracle.max_gaussian_mean(lv)
        a_l, b_l, _ = theory.gumbel_constants(lv)
        measured = float(est.avg_self_corr)
        se = float(est.avg_self_stderr)
        tol = 3.0 * se + float(ref.error_bound)
        ok = abs(measured - float(ref.value[0])) <= tol
        ratios.append(measured / a_l)
        report.add(ReportRow(
            f"orthogonal L={lv} pooled self correlation", measured,
            float(ref.value[0]), tol,
            "oracle quadrature, mean of the maximum of L normals", ok))
        rows.append((lv, measured, se, a_l, b_l, measured / a_l,
                     float(ref.value[0]), ok))
    if len(levels) > 1:
        shrinking = all(abs(ratios[i + 1] - 1.0) < abs(ratios[i] - 1.0)
                        for i in range(len(ratios) - 1))
        report.add(ReportRow(
            "gumbel ratio drift shrinking", float(shrinking), 1.0, 0.0,
            "square-root-of-2-log-L normalization", shrinking))
        if levels[-1] >= 4096:
            report.add(ReportRow(
                "|ratio - 1| at L=4096", abs(ratios[-1] - 1.0), 0.0, 0.15,
                "asymptotic anchor", abs(ratios[-1] - 1.0) <= 0.15))
    _write_csv(outdir, "verify_gumbel.csv",
               "L,measured_self_corr,stderr,a_L,b_L,ratio_to_a_L,"
               "oracle_mean_max,passed", rows, report)


def _verify_soft_consistency(report, outdir, L, m, lo, threads):
    est = engine.soft_assign_diag(
        L, ExperimentConfig(m=m, seed=81, beta=1.0, threads=threads))
    measured = float(est.corr_diag[0])
    pred = 1.0 - math.e / L
    ok = lo <= measured <= 1.01
    report.add(ReportRow(
        f"soft orthonormal L={L} self correlation in [{lo}, 1.01]",
        measured, pred, 1.01 - lo,
        "first-order finite-L expansion as reference point", ok))
    _write_csv(outdir, "verify_soft_consistency.csv",
               "L,measured_corr,stderr,expansion_reference",
               [(L, measured, float(est.stderr_diag[0]), pred)], report)


def _verify_oracle_self(report, outdir, n_ibp):
    rng = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(n_ibp):
        L = int(rng.integers(2, 4))
        g = GramModel.from_correlation(_rand_corr(rng, L),
                                       scale=float(rng.uniform(0.5, 1.5)))
        beta = float(rng.uniform(0.2, 5.0))
        worst = max(worst, oracle.ibp_residual(g, beta,
                                               int(rng.integers(0, L))))
    report.add(ReportRow(
        f"integration-by-parts residual over {n_ibp} random models", worst,
        0.0, 1e-6, "Gaussian integration by parts at the oracle's nodes",
        worst < 1e-6))
    g2 = GramModel.from_correlation(_rand_corr(rng, 2))
    e = oracle.hard_moments(g2, 0, method="exact")
    q = oracle.hard_moments(g2, 0, method="quadrature")
    gap = float(max(np.max(np.abs(e.value - q.value)), abs(e.mass - q.mass)))
    report.add(ReportRow(
        "hard oracle exact vs quadrature at L=2", gap, 0.0, 1e-8,
        "independent orthant and conditional-CDF routes", gap <= 1e-8))
    seq = np.array([1.0, 0.3, 0.1, 0.1, 0.3])
    g5 = GramModel.from_correlation(_circulant_corr(seq))
    mgap = 0.0
    mb = 0.0
    for ell in range(5):
        r = oracle.soft_moments(g5, 1.0, ell, method="quadrature", nodes=12)
        mgap = max(mgap, abs(r.mass - 0.2))
        mb = max(mb, r.mass_bound)
    report.add(ReportRow(
        "circulant soft occupancy equals 1/L", mgap, 0.0,
        max(float(mb), 1e-9), "cyclic symmetry of the template set",
        mgap <= max(float(mb), 1e-9)))
    g5h = GramModel.from_correlation(_rand_corr(rng, 5))
    probs = [oracle.hard_moments(g5h, ell).mass for ell in range(5)]
    psum = abs(sum(probs) - 1.0)
    report.add(ReportRow(
        "hard occupancy probabilities sum to one at L=5", psum, 0.0, 1e-9,
        "orthant closed forms with path integrals", psum <= 1e-9))


def _circulant_corr(seq):
    L = len(seq)
    rho = np.empty((L, L))
    for i in range(L):
        for j in range(L):
            rho[i, j] = seq[(j - i) % L]
    return rho


def _verify_agreement(report, outdir, n_models, m, threads):
    rng = np.random.default_rng(4242)
    rows = []
    all_ok = True
    for i in range(n_models):
        L = int(rng.integers(2, 4))
        g = GramModel.from_correlation(_rand_corr(rng, L))
        seed = 2000 + i
        hard = engine.hard_assign(g, ExperimentConfig(m=m, seed=seed,
                                                      threads=threads))
        soft = engine.soft_assign(g, ExperimentConfig(m=m, seed=seed,
                                                      beta=1.0,
                                                      threads=threads))
        for kind, est, beta in (("hard", hard, math.inf),
                                ("soft", soft, 1.0)):
            for ell in range(L):
                if kind == "hard":
                    ref = oracle.hard_moments(g, ell)
                else:
                    ref = oracle.soft_moments(g, beta, ell)
                gap = float(np.max(np.abs(est.corr[ell] - ref.ratio())))
                tol = 3.0 * (float(np.max(est.stderr[ell]))
                             + float(ref.ratio_bound()))
                ok = gap <= tol
                all_ok = all_ok and ok
                rows.append((i, L, kind, ell, gap, tol, ok))
    report.add(ReportRow(
        f"engine vs oracle over {n_models} random models", float(all_ok),
        1.0, 0.0, "3-sigma agreement with exact/quadrature references",
        all_ok))
    _write_csv(outdir, "verify_agreement.csv",
               "model,L,estimator,cluster,max_abs_gap,tolerance,passed",
               rows, report)


def _verify_mass_sanity(report, outdir, m, threads):
    L = 8
    ts = tpl.make_circulant(np.array((1.0,) + (0.0,) * (L - 1)))
    est = engine.hard_assign(ts, ExperimentConfig(m=m, seed=55,
                                                  threads=threads))
    gap = float(np.max(np.abs(est.mass - 1.0 / L)))
    tol = 4.0 * math.sqrt((1.0 / L) * (1.0 - 1.0 / L) / m)
    report.add(ReportRow(
        "circulant occupancy near 1/L", gap, 0.0, tol,
        "binomial standard error", gap <= tol))


def verify(suite, outdir, threads=None):
    """Run the fast or full verification suite; returns the RunReport."""
    if suite not in ("fast", "full"):
        raise ConfigError(f"unknown suite {suite!r}")
    os.makedirs(outdir, exist_ok=True)
    t0 = time.time()
    report = RunReport(f"verify --suite {suite}", {"suite": suite})
    full = suite == "full"
    m_std = 10**6
    _verify_pair_family(report, outdir, m_std, threads)
    _verify_bridge(report, outdir, m_std if full else 2 * 10**5, threads)
    _verify_beta_zero(report, outdir, 10**7 if full else m_std, threads)
    _verify_positivity(report, outdir, m_std if full else 2 * 10**5,
                       threads, nsets=50 if full else 6)
    _verify_average_dependency(report, outdir, m_std, threads)
    _verify_individual_dependency(report, outdir, m_std, threads)
    _verify_span(report, outdir, 10**4, 10**6, threads)
    _verify_finite_l(report, outdir, m_std, threads)
    _verify_gumbel(report, outdir,
                   (16, 64, 256, 1024, 4096) if full else (16, 64),
                   m_std, threads)
    if full:
        _verify_soft_consistency(report, outdir, 256, 10**7, 0.95, threads)
    else:
        _verify_soft_consistency(report, outdir, 64, m_std, 0.90, threads)
    _verify_oracle_self(report, outdir, n_ibp=10 if full else 4)
    _verify_agreement(report, outdir, 20 if full else 3,
                      10**7 if full else m_std, threads)
    _verify_mass_sanity(report, outdir, m_std, threads)
    report.wall_time = time.time() - t0
    return report


# --------------------------------------------------------------------------
# templates subcommand


def _templates_make(args):
    fam = args.family
    if fam == "pair":
        ts = tpl.make_pair(args.rho, norm=args.scale)
    elif fam == "circulant":
        if not args.rho_seq:
            raise ConfigError("circulant family needs --rho-seq")
        seq = np.array([float(p) for p in args.rho_seq.split(",")])
        ts = tpl.make_circulant(seq, d=args.d, norm=args.scale)
    elif fam == "exponential":
        # a single decaying profile, not a template set; written as a
        # one-column CSV usable as the seed vector of a haar family
        if args.d is None:
            raise ConfigError("exponential family needs --d")
        v = tpl.make_exponential(args.d, args.alpha, norm=args.scale)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "exponential_profile.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x0\n")
            for val in v:
                fh.write(f"{val:.17g}\n")
        print(f"wrote {path} ({v.size} rows x 1 column, seed profile)")
        return EXIT_OK
    elif fam == "haar":
        if args.d is None or args.L is None:
            raise ConfigError("haar family needs --d and --L")
        rng = np.random.default_rng(args.seed)
        ts = tpl.make_haar_family(rng.standard_normal(args.d), args.L,
                                  seed=args.seed)
    else:
        raise ConfigError(f"unknown family {fam!r}")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{fam}_templates.csv")
    tpl.save_csv(ts, path)
    print(f"wrote {path} ({ts.d} rows x {ts.L} columns)")
    return EXIT_OK


def _templates_inspect(args):
    path = args.path
    if os.path.isdir(path):
        ts, (width, height) = tpl.load_pgm_dir(path)
        print(f"{path}: {ts.L} PGM templates, {width}x{height} pixels")
    else:
        ts = tpl.load_csv(path)
        print(f"{path}: {ts.L} templates, dimension {ts.d}")
    corr = ts.correlation()
    off = corr[~np.eye(ts.L, dtype=bool)]
    print(f"common norm: {ts.common_norm:.6g}")
    if off.size:
        print(f"off-diagonal correlation range: [{off.min():+.4f}, "
              f"{off.max():+.4f}]")
    eig = np.linalg.eigvalsh(corr)
    print(f"correlation eigenvalues: min {eig.min():.4g}, "
          f"max {eig.max():.4g}")
    if ts.labels:
        print("labels: " + ", ".join(ts.labels))
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point


def _prepare_outdir(path):
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError:
        return False
    return True


def _cmd_run(args):
    try:
        cfg = parse_config(args.config)
        seed_check = _effective_seed(cfg)
        del seed_check
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    name = cfg.get("experiment")
    if name is None:
        print("config error: missing 'experiment' key", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if name not in _EXPERIMENT_FUNCS:
        print(f"unknown experiment {name!r}; choose from "
              f"{', '.join(_EXPERIMENTS)}", file=sys.stderr)
        return EXIT_UNKNOWN_EXPERIMENT
    outdir = args.out or cfg.get("out_dir") or f"bias_lab_{name}"
    if not _prepare_outdir(outdir):
        print(f"cannot write to output directory {outdir!r}",
              file=sys.stderr)
        return EXIT_UNWRITABLE
    t0 = time.time()
    try:
        report = _EXPERIMENT_FUNCS[name](cfg, outdir, args.threads)
    except (BiasLabError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    report.wall_time = time.time() - t0
    report.write(outdir)
    print(report.text(), end="")
    return EXIT_OK if report.all_pass() else EXIT_ROW_FAILED


def _cmd_verify(args):
    outdir = args.out or f"bias_lab_verify_{args.suite}"
    if not _prepare_outdir(outdir):
        print(f"cannot write to output directory {outdir!r}",
              file=sys.stderr)
        return EXIT_UNWRITABLE
    report = verify(args.suite, outdir, args.threads)
    report.write(outdir)
    print(report.text(), end="")
    return EXIT_OK if report.all_pass() else EXIT_ROW_FAILED


def _cmd_templates(args):
    try:
        if args.tool == "make":
            return _templates_make(args)
        return _templates_inspect(args)
    except (BiasLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bias-lab",
        description="Monte Carlo laboratory for the bias of single-step "
                    "cluster assignment estimates on pure noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="key=value file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker threads (never changes results)")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--suite", choices=("fast", "full"), required=True)
    p_ver.add_argument("--out", default=None, help="output directory")
    p_ver.add_argument("--threads", type=int, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_tpl = sub.add_parser("templates", help="make or inspect template sets")
    tsub = p_tpl.add_subparsers(dest="tool", required=True)
    p_make = tsub.add_parser("make", help="generate a built-in family")
    p_make.add_argument("--family", required=True,
                        choices=("pair", "circulant", "exponential", "haar"))
    p_make.add_argument("--out", required=True)
    p_make.add_argument("--rho", type=float, default=0.0)
    p_make.add_argument("--rho-seq", default=None)
    p_make.add_argument("--alpha", type=float, default=0.1)
    p_make.add_argument("--d", type=int, default=None)
    p_make.add_argument("--L", type=int, default=None)
    p_make.add_argument("--scale", type=float, default=1.0)
    p_make.add_argument("--seed", type=int, default=0)
    p_make.set_defaults(func=_cmd_templates)
    p_ins = tsub.add_parser("inspect", help="summarize a CSV or PGM set")
    p_ins.add_argument("path")
    p_ins.set_defaults(func=_cmd_templates)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
