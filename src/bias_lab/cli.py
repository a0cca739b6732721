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

Checks: each comparison of a measurement with its reference that
`verify` makes is defined once, in the check table of `bias_lab.checks`.
The table has three consumers, each with its own inputs: `verify` (fast
and full suites), the gumbel_sweep experiment and the acceptance
scorecard (tests/test_acceptance.py).

Artifacts: every experiment writes CSV tables (UTF-8, comma separated,
'.' decimal, one header line naming columns and units) plus report.txt.
CSV bytes are deterministic for a fixed config and seed; wall-clock time,
including the seconds each check took (the "## timings" section),
appears only in report.txt and on stdout.
"""

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks, oracle, theory
from . import templates as tpl
from .checks import ReportRow
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
class RunReport:
    """Self-contained record of one run: config echo, rows, seconds per
    check, artifacts."""

    title: str
    config: dict
    rows: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    wall_time: float = 0.0
    timings: dict = field(default_factory=dict)

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
        lines.append("## timings")
        lines.extend(f"{name} = {secs:.3f}"
                     for name, secs in self.timings.items())
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


def _exp_pair_hard(cfg, outdir, threads):
    rho = float(cfg.get("rho", 0.99))
    scale = float(cfg.get("scale", 1.0))
    m = int(cfg.get("M", 5_000_000))
    seed = _effective_seed(cfg)
    report = RunReport("pair_hard", dict(cfg, seed=seed))
    est = checks.estimate(tpl.make_pair(rho, norm=scale), m, seed,
                          threads=threads, chunks=cfg.get("chunks"))
    pred = theory.hard_pair_prediction(rho, scale).predicted_corr[0][0]
    tol = float(cfg.get("tolerance", max(0.002, 3.0 * est.stderr[0, 0])))
    measured = float(est.corr[0, 0])
    row = ReportRow("self correlation of estimate 0", measured, pred, tol,
                    "closed form, maximum of two correlated normals",
                    abs(measured - pred) <= tol)
    report.add(row)
    report.add(checks.antisymmetry("antisymmetry corr[1] + corr[0]", est))
    _write_csv(outdir, "pair_hard.csv",
               "rho,measured_corr,stderr,predicted,tolerance,passed",
               [(rho, measured, float(est.stderr[0, 0]), pred, tol,
                 row.passed)], report)
    est.save_csv(outdir, "pair_hard_estimate")
    return report


def _exp_pair_soft(cfg, outdir, threads):
    rho = float(cfg.get("rho", 0.0))
    scale = float(cfg.get("scale", 1.0))
    beta = float(cfg.get("beta", 1.0))
    m = int(cfg.get("M", 1_000_000))
    seed = _effective_seed(cfg)
    report = RunReport("pair_soft", dict(cfg, seed=seed))
    est = checks.estimate(tpl.make_pair(rho, norm=scale), m, seed, beta,
                          threads, chunks=cfg.get("chunks"))
    g = GramModel.from_correlation(np.array([[1.0, rho], [rho, 1.0]]),
                                   scale=scale)
    ref = oracle.soft_moments(g, beta, 0)
    truth = float(ref.ratio()[0])
    bound = float(ref.ratio_bound())
    measured = float(est.corr[0, 0])
    tol = float(cfg.get("tolerance",
                        checks.oracle_tol(float(est.stderr[0, 0]), ref)))
    row = ReportRow("self correlation of estimate 0", measured, truth, tol,
                    f"oracle {ref.method} ({ref.nodes_or_samples} nodes)",
                    abs(measured - truth) <= tol)
    report.add(row)
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
                 float(approx.predicted_corr[0][0]), row.passed)], report)
    return report


def _gumbel_sweep(cfg, outdir, threads):
    levels = tuple(cfg.get("levels", (16, 64, 256, 1024, 4096)))
    seed = _effective_seed(cfg)
    report = RunReport("gumbel_sweep", dict(cfg, seed=seed, levels=levels))
    _run_check(report, outdir, "gumbel_sweep.csv", "gumbel", levels=levels,
               m=int(cfg.get("M", 1_000_000)), seed=seed,
               chunks=cfg.get("chunks"), threads=threads)
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
    est = checks.estimate(ts, m, seed, beta, threads, mode="full",
                          chunks=cfg.get("chunks"))
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
    "gumbel_sweep": _gumbel_sweep,
    "bias_demo": _exp_bias_demo,
}


# --------------------------------------------------------------------------
# verification suites


def _run_check(report, outdir, csv_name, name, **inputs):
    """Run one entry of the check table into report, timing it."""
    t0 = time.perf_counter()
    res = checks.CHECKS[name](**inputs)
    report.timings[name] = time.perf_counter() - t0
    report.rows.extend(res.rows)
    if res.table is not None:
        _write_csv(outdir, csv_name, *res.table, report)


def _oracle_inputs(n_ibp):
    """Random models for the oracle self-checks, all drawn from rng 90210."""
    rng = np.random.default_rng(90210)
    models = []
    for _ in range(n_ibp):
        L = int(rng.integers(2, 4))
        g = GramModel.from_correlation(tpl.random_correlation(rng, L),
                                       scale=float(rng.uniform(0.5, 1.5)))
        models.append((g, float(rng.uniform(0.2, 5.0)),
                       int(rng.integers(0, L))))
    pair = GramModel.from_correlation(tpl.random_correlation(rng, 2))
    five = GramModel.from_correlation(tpl.random_correlation(rng, 5))
    return dict(ibp_models=models, pair_grams=[pair],
                circulants=[(1.0, 0.3, 0.1, 0.1, 0.3)], nodes=12,
                sum_grams=[five])


def _suite(full):
    """(check, inputs) pairs of the fast or full suite, in run order."""
    m = 10**6
    small = m if full else 2 * 10**5
    ring = [(1.0,) + (0.0,) * 7, (1.0, 0.4) + (0.0,) * 5 + (0.4,)]
    haar = tpl.make_haar_family(
        np.random.default_rng(5150).standard_normal(50), 3, seed=99)
    return (
        ("pair_hard", dict(rhos=(-1.0, -0.5, 0.0, 0.5, 0.9, 0.99), m=m,
                           seed=101)),
        ("bridge", dict(rho=tpl.random_correlation(
            np.random.default_rng(2024), 3), m=small, seed=11,
            betas=(1.0, 5.0, 20.0, 100.0))),
        ("beta_zero", dict(m=10**7 if full else m, seed=21)),
        ("positivity", dict(nsets=50 if full else 6, m=small, seed=1000)),
        ("average_dependency", dict(Ls=(2, 3, 4), m=m, seed=31)),
        ("individual_dependency", dict(
            orthogonal=tpl.make_circulant(np.array(ring[0])),
            overlapping=tpl.make_circulant(np.array(ring[1])), m=m, seed=41)),
        ("span", dict(ts=haar, ms=(10**4, 10**6), seeds=(51, 51))),
        ("finite_l", dict(clusters=(0,), m=m, seed=61)),
        ("gumbel", dict(levels=(16, 64, 256, 1024, 4096) if full
                        else (16, 64), m=m, seed=71)),
        ("soft_consistency", dict(L=256, m=10**7, seed=81, lo=0.95) if full
         else dict(L=64, m=m, seed=81, lo=0.90)),
        ("oracle_self", _oracle_inputs(10 if full else 4)),
        ("agreement", dict(n_models=20 if full else 3,
                           m=10**7 if full else m)),
        ("mass_sanity", dict(m=m)),
    )


def verify(suite, outdir, threads=None):
    """Run the fast or full verification suite; returns the RunReport."""
    if suite not in ("fast", "full"):
        raise ConfigError(f"unknown suite {suite!r}")
    os.makedirs(outdir, exist_ok=True)
    t0 = time.time()
    report = RunReport(f"verify --suite {suite}", {"suite": suite})
    for name, inputs in _suite(suite == "full"):
        _run_check(report, outdir, f"verify_{name}.csv", name,
                   threads=threads, **inputs)
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
    if not report.timings:
        # an experiment outside the check table counts as one check
        report.timings[name] = report.wall_time
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
