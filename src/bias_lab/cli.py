"""Command line driver: experiments, verification suites, template tools.

Config files are flat ``key = value`` text. '#' starts a comment at the
start of a line or after whitespace; elsewhere it is part of the value,
so ``template_dir = /data/run#3`` keeps the '#'. Every experiment
reads experiment and seed (default 0), and its own keys, shown with
their defaults:

    pair_hard     rho 0.99, scale 1, M 5e6
    pair_soft     rho 0, scale 1, beta 1, M 1e6
    gumbel_sweep  levels 16,64,256,1024,4096, M 1e6
    bias_demo     M 2e5, beta inf, and either template_dir or
                  width 32, height 32, L 12, alpha 8/(width*height)

Every run splits M into chunks by the automatic plan and judges each
row by its check's own rule, as verify does. Output goes to --out, else
bias_lab_<experiment>.

Integer keys take scientific notation, list items too (M = 5e6,
levels = 16, 6.4e1), as do the integer flags --threads, --d, --L and
--seed. The keys must lie in range: M >= 1, seed >= 0, L >= 2, width
and height >= 1 and each item of levels >= 2. Any other key is a config
error, and so is a list key (levels) that holds no value. `templates
make --family F --out DIR` reads these flags, refusing others (exit 3):

    pair          --rho 0, --d 2, --scale 1
    circulant     --rho-seq (required), --d L, --scale 1
    haar          --d, --L (required), --alpha 0.1, --scale 1, --seed 0

Their ranges: --d >= 2 (circulant: >= L, the length of --rho-seq),
--L >= 2, --seed >= 0, --rho in [-1, 1), --alpha >= 0, --scale > 0.

Exit codes, for every command: 0 all tolerance rows pass, 1 at least
one row failed (a row whose tolerance is not finite fails), 2 unknown
experiment name or a command line that argparse refuses, 3 invalid
config or an error raised during the run, 4 unwritable output directory
(run, verify, templates make). A run config that fails to parse or has
a negative seed, or a --threads below 1, prints "config error: <msg>";
any other package or OS error prints "error: <TypeName>: <message>".

Checks: every experiment and every comparison that `verify` makes is an
entry of the check table in `bias_lab.checks`, which the acceptance
scorecard (tests/test_acceptance.py) shares, with inputs of its own.

Artifacts: CSV tables (UTF-8, comma separated, '.' decimal, one header
line naming columns and units), report.txt and, for bias_demo, PGM
images. CSV bytes depend only on the config and seed. What describes
the run goes only to report.txt and stdout: the "## run" section
(versions, --threads as given or "auto", os.cpu_count(), engine_blas:
"1 thread (<library>)" or "not controlled", and peak_rss_mb, the peak
resident set size so far from getrusage) and "## timings", the seconds
each check took.

--threads must be an integer >= 1 when given; one below 1 is a config
error. For run it caps the engine's threads. verify runs its checks side
by side: N threads (default os.cpu_count()) run min(N, checks) of them
at once, each on N // lanes engine threads (at least one) but the
first, the longest, on all N. It starts them in suite order, longest
first, and lists rows, CSV files and timings in that order. A check
that raises a package error during `verify` becomes one FAIL row,
"<check> raised <TypeName>: <message>", and the suite goes on; any
other error stops the checks not yet started and propagates.
"""
import argparse
import inspect
import math
import os
import platform
import re
import resource
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, checks, engine
from . import templates as tpl
from .checks import CheckResult, ReportRow
from .engine import blas_control, thread_count
from .errors import BiasLabError, ConfigError
from .templates import GramModel

EXIT_OK = 0
EXIT_ROW_FAILED = 1
EXIT_UNKNOWN_EXPERIMENT = 2
EXIT_BAD_CONFIG = 3
EXIT_UNWRITABLE = 4


# --------------------------------------------------------------------------
# config handling

def integer(text):
    """text as an int: exactly if it is an integer literal, else through
    float, so scientific notation reads as an integer (6.4e1 as 64)."""
    try:
        return int(text)  # exact at any size
    except ValueError:
        return tpl._integer(float(text), "value", -math.inf)


# a kind in a 1-tuple reads a comma-separated list of such items
_KEY_PARSERS = {
    "experiment": str,
    "L": integer,
    "M": integer,
    "beta": float,
    "seed": integer,
    "rho": float,
    "alpha": float,
    "scale": float,
    "levels": (integer,),
    "width": integer,
    "height": integer,
    "template_dir": str,
}


def _parse_scalar(key, raw, kind):
    try:
        if isinstance(kind, tuple):
            values = tuple(kind[0](p) for p in raw.split(",") if p.strip())
            if not values:
                raise ValueError(raw)  # an empty list would check nothing
            return values
        return kind(raw)
    except ValueError:  # every BiasLabError is a ValueError too
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


# --------------------------------------------------------------------------
# report plumbing


@dataclass
class RunReport:
    """Self-contained record of one run: config echo, rows, what ran
    (versions, --threads as given, cores, engine BLAS threads, peak
    RSS), seconds per check and since the report began, artifacts."""

    title: str
    config: dict
    rows: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    started: float = field(default_factory=time.time)
    timings: dict = field(default_factory=dict)
    threads: int = None

    def all_pass(self):
        return all(r.passed for r in self.rows if r.passed is not None)

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
        lines.append(f"wall_time_seconds = {time.time() - self.started:.3f}")
        threads = "auto" if self.threads is None else self.threads
        lines += ["## run",
                  f"bias_lab = {__version__}",
                  f"python = {platform.python_version()}",
                  f"numpy = {np.__version__}",
                  f"scipy = {scipy.__version__}",
                  f"threads = {threads}",
                  f"cpu_count = {os.cpu_count()}",
                  f"engine_blas = {_engine_blas()}",
                  f"peak_rss_mb = {_peak_rss_mb():.1f}"]
        lines.append("## timings")
        lines.extend(f"{name} = {secs:.3f}"
                     for name, secs in self.timings.items())
        if self.artifacts:
            lines.append("## artifacts")
            lines.extend(str(p) for p in self.artifacts)
        return "\n".join(lines) + "\n"

    def write(self, outdir):
        """Write report.txt into outdir; returns the text written, so
        stdout can show the same peak RSS."""
        text = self.text()
        with open(os.path.join(outdir, "report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        return text


def _engine_blas():
    """BLAS threads inside engine runs: '1 thread (<library>)', or 'not
    controlled' when numpy's OpenBLAS cannot be reached."""
    lib = blas_control()
    return "not controlled" if lib is None else f"1 thread ({lib})"


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (Linux
    reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# experiments


def _declared(fn, given, what, spell=repr):
    """fn(**given), where fn's parameters are the inputs `what` reads and
    its defaults theirs; an input it does not read, or a required one
    missing, is a ConfigError that names it."""
    params = inspect.signature(fn).parameters
    unread = [spell(k) for k in given if k not in params]
    if unread:
        raise ConfigError(f"{what} does not read {', '.join(unread)}")
    missing = [spell(k) for k, p in params.items()
               if p.default is p.empty and k not in given]
    if missing:
        raise ConfigError(f"{what} needs {' and '.join(missing)}")
    return fn(**given)


# An experiment's parameters are the config keys it reads besides
# experiment, with their defaults. It returns the inputs of its check
# and a function that saves what the check returns beyond its CSV
# table, or None.


def _pair_hard(seed, rho=0.99, scale=1.0, M=5_000_000):
    def save(res, outdir):
        # the corr, stderr and mass tables of the run's estimate
        est = res.estimate
        return [tpl.write_csv(
            os.path.join(outdir, f"pair_hard_estimate_{name}.csv"),
            ",".join(f"{head}{k}" for k in range(est.L)), values, 17)
            for name, head, values in (("corr", "corr_with_t", est.corr),
                                       ("stderr", "stderr_t", est.stderr),
                                       ("mass", "mass_t", [est.mass]))]

    return dict(rhos=(rho,), m=M, seed=seed, scale=scale), save


def _pair_soft(seed, rho=0.0, scale=1.0, beta=1.0, M=1_000_000):
    return dict(rho=rho, beta=beta, m=M, seed=seed, scale=scale), None


def _gumbel_sweep(seed, levels=(16, 64, 256, 1024, 4096), M=1_000_000):
    return dict(levels=levels, m=M, seed=seed), None


def _bias_demo(seed, M=200_000, beta=math.inf, template_dir=None,
               width=None, height=None, L=None, alpha=None):
    """The PGM images of template_dir, or, without it, L = 12 Haar
    rotations (seed + 1) of make_exponential(d, alpha) with d = width x
    height pixels, 32 x 32 and alpha = 8 / d unless given."""
    synthetic = dict(width=width, height=height, L=L, alpha=alpha)
    if template_dir is not None:
        given = [repr(k) for k, v in synthetic.items() if v is not None]
        if given:
            raise ConfigError(f"experiment 'bias_demo' does not read "
                              f"{', '.join(given)} with 'template_dir'")
        ts, (width, height) = tpl.load_pgm_dir(template_dir)
    else:
        width = tpl._integer(32 if width is None else width, "width", 1,
                             error=ConfigError)
        height = tpl._integer(32 if height is None else height, "height", 1,
                              error=ConfigError)
        d = width * height
        x0 = tpl.make_exponential(d, 8.0 / d if alpha is None else alpha)
        ts = tpl.make_haar_family(x0, 12 if L is None else L, seed=seed + 1)

    def render(res, outdir):
        # an empty cluster has no estimate to render; the check's row
        # names it
        return [tpl.render_pgm(vec, width, height,
                               os.path.join(outdir, f"{kind}_{label}.pgm"))
                for i, label in enumerate(ts.labels)
                for kind, vec in (("estimate", res.estimate.estimates[i]),
                                  ("template", ts.matrix[:, i]))
                if kind == "template" or i not in res.estimate.undefined]

    return dict(ts=ts, m=M, seed=seed, beta=beta), render


# experiment: (check, CSV file of its table, inputs from config keys)
_EXPERIMENTS = {
    "pair_hard": ("pair_hard", "pair_hard.csv", _pair_hard),
    "pair_soft": ("pair_soft", "pair_soft.csv", _pair_soft),
    "gumbel_sweep": ("gumbel", "gumbel_sweep.csv", _gumbel_sweep),
    "bias_demo": ("bias_demo", "bias_demo_pearson.csv", _bias_demo),
}


# --------------------------------------------------------------------------
# verification suites


def _run_check(report, outdir, csv_name, name, **inputs):
    """Run one entry of the check table into report, timing it.

    Returns (result, error). A check that raises a BiasLabError adds
    one FAIL row naming the error in place of its rows and table, and
    the error is returned, so a suite can go on; otherwise it is None.
    """
    t0 = time.perf_counter()
    err = None
    try:
        res = checks.CHECKS[name](**inputs)
    except BiasLabError as exc:
        err = exc
        res = CheckResult([ReportRow(
            f"{name} raised {type(exc).__name__}: {exc}", math.nan,
            math.nan, math.nan, "the check stopped before its comparisons",
            False)])
    report.timings[name] = time.perf_counter() - t0
    report.rows.extend(res.rows)
    if res.table is not None:
        report.artifacts.append(tpl.write_csv(
            os.path.join(outdir, csv_name), *res.table, 10))
    return res, err


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
    """(check, inputs) pairs of the fast or full suite, in start order.

    verify starts the checks in this order on as many lanes as it has,
    so the longest, soft_consistency in both suites, goes first, and
    that one gets every engine thread. A new heavy check goes at the
    head too; at the tail it would start last and run alone.
    """
    m = 10**6
    small = m if full else 2 * 10**5
    ring = [(1.0,) + (0.0,) * 7, (1.0, 0.4) + (0.0,) * 5 + (0.4,)]
    haar = tpl.make_haar_family(
        np.random.default_rng(5150).standard_normal(50), 3, seed=99)
    return (
        ("soft_consistency", dict(L=256, m=10**7, seed=81, lo=0.95) if full
         else dict(L=64, m=m, seed=81, lo=0.90)),
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
        ("oracle_self", _oracle_inputs(10 if full else 4)),
        ("agreement", dict(n_models=20 if full else 3,
                           m=10**7 if full else m)),
        ("mass_sanity", dict(m=m)),
    )


def verify(suite, outdir, threads=None):
    """Run the fast or full verification suite; returns the RunReport.

    The checks run side by side on lanes = min(threads, number of
    checks) threads, threads None meaning os.cpu_count(). Each check's
    engine runs get threads // lanes threads (at least one), except the
    first, the longest, which gets all of them: it still runs when the
    other lanes have no check left, and its chunks then fill the idle
    cores. Checks start in suite order, and their rows, CSV files and
    timings are listed in that order; no value depends on threads. A
    check that raises anything but a BiasLabError stops the checks not
    yet started, and its error propagates.
    """
    if suite not in ("fast", "full"):
        raise ConfigError(f"unknown suite {suite!r}")
    cores = thread_count(threads) or os.cpu_count() or 1
    os.makedirs(outdir, exist_ok=True)
    report = RunReport(f"verify --suite {suite}", {"suite": suite},
                       threads=threads)
    entries = _suite(suite == "full")
    lanes = min(cores, len(entries))
    stop = threading.Event()  # set once a check raises: skip the rest

    def lane(i, name, inputs):
        if stop.is_set():
            return None
        part = RunReport(name, {})
        try:
            _run_check(part, outdir, f"verify_{name}.csv", name,
                       threads=cores if i == 0 else max(1, cores // lanes),
                       **inputs)
        except BaseException:
            stop.set()
            raise
        return part

    # engine's pool, looked up now, so a pool patched there wraps lanes too
    with engine.ThreadPoolExecutor(max_workers=lanes) as pool:
        futures = [pool.submit(lane, i, *entry)
                   for i, entry in enumerate(entries)]
        try:
            # checks start in order, so a raise precedes every skipped one
            parts = [future.result() for future in futures]
        finally:
            stop.set()  # after an interrupt too, not to wait for the rest
    for part in parts:
        report.rows += part.rows
        report.artifacts += part.artifacts
        report.timings.update(part.timings)
    return report


# --------------------------------------------------------------------------
# templates subcommand


def _make_pair(rho=0.0, d=2, scale=1.0):
    return tpl.make_pair(rho, d=d, norm=scale)


def _make_circulant(rho_seq, d=None, scale=1.0):
    seq = np.array(_parse_scalar("rho_seq", rho_seq, (float,)))
    return tpl.make_circulant(seq, d=d, norm=scale)


def _make_haar(d, L, alpha=0.1, scale=1.0, seed=0):
    # Haar rotations of an exponential profile, as bias_demo builds its set
    return tpl.make_haar_family(tpl.make_exponential(d, alpha, norm=scale),
                                L, seed=seed)


_FAMILIES = {"pair": _make_pair, "circulant": _make_circulant,
             "haar": _make_haar}
_MAKE_FLAGS = dict(rho=float, rho_seq=str, alpha=float, d=integer,
                   L=integer, scale=float, seed=integer)


def _flag(key):
    return "--" + key.replace("_", "-")


def _templates_make(args):
    fam = args.family
    given = {k: getattr(args, k) for k in _MAKE_FLAGS
             if getattr(args, k) is not None}
    made = _declared(_FAMILIES[fam], given, f"--family {fam}", _flag)
    if not _prepare_outdir(args.out):
        return EXIT_UNWRITABLE
    path = os.path.join(args.out, f"{fam}_templates.csv")
    tpl.save_csv(made, path)
    print(f"wrote {path} ({made.d} rows x {made.L} columns)")
    return EXIT_OK


def _templates_inspect(args):
    path = args.path
    if os.path.isdir(path):
        ts, (width, height) = tpl.load_pgm_dir(path)
        print(f"{path}: {ts.L} PGM templates, {width}x{height} pixels")
        print(f"common norm: {ts.common_norm:.6g}")
    else:
        ts = tpl.load_csv(path)
        print(f"{path}: {ts.L} templates, dimension {ts.d}")
        # load_csv rescales the columns, so the norm comes from the file
        norms = np.linalg.norm(tpl.read_csv(path)[0], axis=0)
        lo, hi = norms.min(), norms.max()
        if hi - lo > tpl.NORM_RTOL * hi:
            print(f"column norms: {lo:.6g} to {hi:.6g} (not common; "
                  f"inspected at norm 1)")
        else:
            print(f"common norm: {norms[0]:.6g}")
    corr = ts.correlation()
    off = corr[~np.eye(ts.L, dtype=bool)]
    print(f"off-diagonal correlation range: [{off.min():+.4f}, "
          f"{off.max():+.4f}]")
    eig = np.linalg.eigvalsh(corr)
    print(f"correlation eigenvalues: min {eig.min():.4g}, "
          f"max {eig.max():.4g}")
    print(f"correlation rank: {tpl.rank_factor(corr).shape[1]} of {ts.L}")
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
        print(f"cannot write to output directory {path!r}", file=sys.stderr)
        return False
    return True


def _cmd_run(args):
    try:
        cfg = parse_config(args.config)
        seed = tpl._integer(cfg.get("seed", 0), "seed", 0, error=ConfigError)
        thread_count(args.threads)
        name = cfg.get("experiment")
        if name is None:
            raise ConfigError("missing 'experiment' key")
        if name not in _EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from "
                  f"{', '.join(_EXPERIMENTS)}", file=sys.stderr)
            return EXIT_UNKNOWN_EXPERIMENT
        check, csv_name, build = _EXPERIMENTS[name]
        keys = {k: v for k, v in cfg.items() if k != "experiment"}
        inputs, save = _declared(build, dict(keys, seed=seed),
                                 f"experiment {name!r}")
    except (BiasLabError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    outdir = args.out or f"bias_lab_{name}"
    if not _prepare_outdir(outdir):
        return EXIT_UNWRITABLE
    report = RunReport(name, dict(cfg, seed=seed), threads=args.threads)
    res, err = _run_check(report, outdir, csv_name, check,
                          threads=args.threads, **inputs)
    if err is not None:
        raise err
    if save is not None:
        report.artifacts += save(res, outdir)
    print(report.write(outdir), end="")
    return EXIT_OK if report.all_pass() else EXIT_ROW_FAILED


def _cmd_verify(args):
    try:
        thread_count(args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    outdir = args.out or f"bias_lab_verify_{args.suite}"
    if not _prepare_outdir(outdir):
        return EXIT_UNWRITABLE
    report = verify(args.suite, outdir, args.threads)
    print(report.write(outdir), end="")
    return EXIT_OK if report.all_pass() else EXIT_ROW_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bias-lab",
        description="Monte Carlo laboratory for the bias of single-step "
                    "cluster assignment estimates on pure noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="key=value file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--threads", type=integer, default=None,
                       help="worker threads (never changes results)")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--suite", choices=("fast", "full"), required=True)
    p_ver.add_argument("--out", default=None, help="output directory")
    p_ver.add_argument("--threads", type=integer, default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_tpl = sub.add_parser("templates", help="make or inspect template sets")
    tsub = p_tpl.add_subparsers(dest="tool", required=True)
    p_make = tsub.add_parser("make", help="generate a built-in family")
    p_make.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p_make.add_argument("--out", required=True)
    for key, kind in _MAKE_FLAGS.items():
        # None when not given: each family has its own defaults
        p_make.add_argument(_flag(key), type=kind)
    p_make.set_defaults(func=_templates_make)
    p_ins = tsub.add_parser("inspect", help="summarize a CSV or PGM set")
    p_ins.add_argument("path")
    p_ins.set_defaults(func=_templates_inspect)

    return parser


def main(argv=None):
    """Run one command and return its exit code. A package or OS error
    raised after the inputs parse prints "error: <TypeName>: <message>"
    and exits 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BiasLabError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

