"""The three benchmark workloads: fixed task lists with their checks.

Every random input (Gram matrices, correlation sets, template sets,
engine seeds, softmax sharpness) is drawn here from the workload seed;
the library only ever receives the generated inputs. ``verify-fast`` is
the exception by design: it is the user command ``bias-lab verify
--suite fast``, whose inputs are fixed inside the CLI.

Monte Carlo checks use 5 standard errors. A run makes a few dozen such
comparisons and a benchmark session makes hundreds of runs on different
seeds; at 3 standard errors a correct program would fail a run every
few dozen seeds, at 5 about once in a million comparisons.

Sizes come in two scales: ``full`` is what the benchmark measures,
``tiny`` runs the same code paths in seconds for the smoke tests.
"""

import contextlib
import hashlib
import io
import math
import os
import sys
import traceback

import numpy as np

Z = 5.0
HARD_QUAD_TOL = 0.1

SIZES = {
    "full": {
        "gram_L": 64, "gram_m": 200_000,
        "diag_levels": (256, 512, 1024, 2048, 4096), "diag_m": 20_000,
        "soft_diag_L": 256, "soft_diag_m": 100_000,
        "full_d": 1024, "full_L": 12, "full_m": 50_000,
        "small_m": 200_000,
        "nodes4": 20, "nodes5": 12, "hard_nodes4": 20, "hard_nodes5": 12,
        "ibp_sharpness": (1.0, 3.0, 5.0),
        "control_m": 100_000,
    },
    "tiny": {
        "gram_L": 8, "gram_m": 20_000,
        "diag_levels": (16, 64), "diag_m": 5_000,
        "soft_diag_L": 16, "soft_diag_m": 5_000,
        "full_d": 64, "full_L": 4, "full_m": 5_000,
        "small_m": 20_000,
        "nodes4": 14, "nodes5": 10, "hard_nodes4": 14, "hard_nodes5": 10,
        "ibp_sharpness": (1.0,),
        "control_m": 20_000,
    },
}


class Context:
    """What a task sees: the library, sizes, inputs, threads and results."""

    def __init__(self, lib, scale, seed, threads, outdir):
        self.lib = lib
        self.size = SIZES[scale]
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.threads = threads
        self.outdir = outdir
        self.attempted = 0
        self.failed = []
        self.digests = {}
        self.notes = {}

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def record(self, name, *arrays):
        """Digest of result arrays, compared across passes and threads."""
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        self.digests[name] = h.hexdigest()

    def note(self, name, value):
        """An informational number, reported in the run manifest."""
        self.notes[name] = float(value)

    def seed(self):
        return int(self.rng.integers(0, 2**31 - 1))

    def cfg(self, m, beta=math.inf, mode="gram"):
        return self.lib.engine.ExperimentConfig(
            m=m, seed=self.seed(), mode=mode, beta=beta,
            threads=self.threads)

    def dir(self, name):
        p = os.path.join(self.outdir, name)
        os.makedirs(p, exist_ok=True)
        return p

    def cli(self, argv):
        """Run the bias-lab CLI in this process; returns (code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(argv)
        return code, buf.getvalue()


def random_corr(rng, L, extra, floor):
    """Correlation matrix of L random vectors in L + extra dimensions."""
    while True:
        raw = rng.standard_normal((L, L + extra))
        c = raw @ raw.T
        sd = np.sqrt(np.diag(c))
        rho = c / np.outer(sd, sd)
        np.fill_diagonal(rho, 1.0)
        if np.linalg.eigvalsh(rho)[0] > floor:
            return rho


def mass_sums_to_one(ctx, name, mass):
    ctx.check(f"{name}: masses sum to 1", abs(float(np.sum(mass)) - 1.0)
              <= 1e-9)


def engine_vs_oracle(ctx, name, est, refs):
    """Every cluster row of est.corr within Z sigma of its oracle ratio."""
    for ell, ref in enumerate(refs):
        gap = float(np.max(np.abs(est.corr[ell] - ref.ratio())))
        tol = Z * (float(np.max(est.stderr[ell])) + float(ref.ratio_bound()))
        ctx.check(f"{name}: cluster {ell} engine vs oracle", gap <= tol)


# ---------------------------------------------------------------------------
# verify-fast


PAIR_CONFIG = "experiment = pair_hard\nrho = 0.5\nM = 20000\nseed = 3\n"


def verify_fast(ctx):
    out = ctx.dir("verify")
    if ctx.scale == "tiny":
        # the fast suite has no size knob; a small `run` keeps the smoke
        # test short while exercising the same CLI plumbing
        cfg_path = os.path.join(ctx.dir("config"), "pair.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(PAIR_CONFIG)
        argv = ["run", "--config", cfg_path, "--out", out]
    else:
        argv = ["verify", "--suite", "fast", "--out", out]
    if ctx.threads is not None:
        argv += ["--threads", str(ctx.threads)]
    code, text = ctx.cli(argv)
    ctx.check("bias-lab exit code 0", code == 0)
    rows = 0
    for line in text.splitlines():
        if line.startswith(("[PASS]", "[FAIL]")):
            rows += 1
            ctx.check(line.split(":", 1)[0], line.startswith("[PASS]"))
    ctx.check("scorecard has rows", rows > 0)
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                ctx.digests["csv:" + name] = hashlib.sha256(
                    fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# mc-large


def mc_large(ctx):
    lib, s = ctx.lib, ctx.size
    engine, oracle, theory, tpl = (lib.engine, lib.oracle, lib.theory,
                                   lib.templates)
    rng = ctx.rng
    L = s["gram_L"]
    rho = random_corr(rng, L, 2 * L, 1e-3)
    d, Lf = s["full_d"], s["full_L"]
    raw = rng.standard_normal((d, Lf))
    rho3 = random_corr(rng, 3, 2, 0.05)

    # gram mode at large L
    g = tpl.GramModel.from_correlation(rho)
    for kind, beta in (("hard", math.inf), ("soft", 1.0)):
        fn = engine.hard_assign if kind == "hard" else engine.soft_assign
        est = fn(g, ctx.cfg(s["gram_m"], beta))
        name = f"gram {kind} L={L}"
        mass_sums_to_one(ctx, name, est.mass)
        ctx.check(f"{name}: every self correlation positive",
                  bool(np.all(np.diag(est.corr) > 0.0)))
        ctx.record(name, est.corr, est.stderr, est.mass)

    # hard diagonal sweep against the mean of the maximum of L normals
    ratios = []
    for lv in s["diag_levels"]:
        est = engine.hard_assign_diag(lv, ctx.cfg(s["diag_m"]))
        ref = oracle.max_gaussian_mean(lv)
        measured = float(est.avg_self_corr)
        tol = Z * float(est.avg_self_stderr) + float(ref.error_bound)
        ctx.check(f"hard diag L={lv}: mean max vs oracle",
                  abs(measured - float(ref.value[0])) <= tol)
        mass_sums_to_one(ctx, f"hard diag L={lv}", est.mass)
        ratios.append(measured / theory.gumbel_constants(lv)[0])
        ctx.record(f"hard diag L={lv}", est.corr_diag, est.mass,
                   [est.avg_self_corr])
    ctx.check("hard diag: |ratio - 1| shrinks along the sweep",
              all(abs(b - 1.0) < abs(a - 1.0)
                  for a, b in zip(ratios, ratios[1:])))

    # soft diagonal path: cluster-averaged self correlation in its window
    Ls = s["soft_diag_L"]
    est = engine.soft_assign_diag(Ls, ctx.cfg(s["soft_diag_m"], 1.0))
    mean_corr = float(np.mean(est.corr_diag))
    lo = 1.0 - 2.0 * math.e / Ls
    ctx.check(f"soft diag L={Ls}: self correlation in [{lo:.4f}, 1.01]",
              lo <= mean_corr <= 1.01)
    mass_sums_to_one(ctx, f"soft diag L={Ls}", est.mass)
    ctx.record(f"soft diag L={Ls}", est.corr_diag, est.mass)

    # full mode at the bias_demo shape, templates read from a CSV file
    csv_path = os.path.join(ctx.dir("templates"), "full.csv")
    tpl.save_csv(tpl.TemplateSet(matrix=raw / np.linalg.norm(raw, axis=0)),
                 csv_path)
    code, text = ctx.cli(["templates", "inspect", csv_path])
    ctx.check("templates inspect reads the set",
              code == 0 and f"{Lf} templates, dimension {d}" in text)
    ts = tpl.load_csv(csv_path)
    for kind, beta in (("hard", math.inf), ("soft", 1.0)):
        fn = engine.hard_assign if kind == "hard" else engine.soft_assign
        est = fn(ts, ctx.cfg(s["full_m"], beta, mode="full"))
        name = f"full {kind} d={d} L={Lf}"
        mass_sums_to_one(ctx, name, est.mass)
        recomputed = engine.correlation_matrix(est, ts)
        ctx.check(f"{name}: vectors reproduce corr",
                  float(np.max(np.abs(recomputed - est.corr)))
                  <= 1e-8 * (1.0 + float(np.max(np.abs(est.corr)))))
        ctx.record(name, est.corr, est.estimates)
        if kind == "hard":
            # the part of a cluster mean outside the template span is the
            # mean of count iid N(0, I_{d-L}) vectors: |r|^2 count/(d-L)
            # is chi-square(d-L)/(d-L), mean 1 and sd sqrt(2/(d-L))
            frac = engine.span_residual(est, ts)
            norms = np.linalg.norm(est.estimates, axis=1)
            counts = est.mass * est.m
            q = (frac * norms) ** 2 * counts / (d - Lf)
            tol = Z * math.sqrt(2.0 / (d - Lf))
            ctx.check(f"{name}: span residual follows its noise law",
                      bool(np.all(np.abs(q - 1.0) <= tol)))

    # one small soft run at L = 3 against the quadrature oracle
    g3 = tpl.GramModel.from_correlation(rho3)
    est = engine.soft_assign(g3, ctx.cfg(s["small_m"], 1.0))
    engine_vs_oracle(ctx, "soft L=3", est,
                     [oracle.soft_moments(g3, 1.0, ell) for ell in range(3)])


# ---------------------------------------------------------------------------
# oracle-quad


def circulant_seq(rng, L):
    """Random circulant first row whose spectrum stays positive."""
    cap = 0.3 if L == 4 else 0.2
    a, b = rng.uniform(-cap, cap, 2)
    return [1.0, a, b, a] if L == 4 else [1.0, a, b, b, a]


def oracle_quad(ctx):
    lib, s = ctx.lib, ctx.size
    engine, oracle, theory, tpl = (lib.engine, lib.oracle, lib.theory,
                                   lib.templates)
    rng = ctx.rng
    seqs = {L: circulant_seq(rng, L) for L in (4, 5)}
    rands = {L: random_corr(rng, L, 2, 0.05) for L in (4, 5)}
    beta = float(rng.uniform(0.5, 1.5))
    rho3 = random_corr(rng, 3, 2, 0.05)
    scale3 = float(rng.uniform(0.8, 1.2))
    ell3 = int(rng.integers(0, 3))
    rho2 = float(rng.uniform(-0.8, 0.8))

    grams = {}
    for L, seq in seqs.items():
        code, text = ctx.cli(["templates", "make", "--family", "circulant",
                              "--rho-seq", ",".join(f"{v:.17g}" for v in seq),
                              "--out", ctx.dir(f"circ{L}")])
        ctx.check(f"templates make circulant L={L}", code == 0)
        g = tpl.load_csv(os.path.join(ctx.dir(f"circ{L}"),
                                      "circulant_templates.csv")).gram()
        want = np.array([[seq[(j - i) % L] for j in range(L)]
                         for i in range(L)])
        ctx.check(f"circulant L={L} Gram matches its first row",
                  float(np.max(np.abs(g.rho - want))) <= 1e-9)
        grams[f"circulant L={L}"] = g
        grams[f"random L={L}"] = tpl.GramModel.from_correlation(rands[L])

    soft_refs = {}
    for name, g in grams.items():
        L = g.L
        n = s["nodes4"] if L == 4 else s["nodes5"]
        firsts = [oracle.soft_moments(g, beta, ell, nodes=n)
                  for ell in range(L)]
        seconds = [oracle.soft_second_moments(g, beta, ell, nodes=n)
                   for ell in range(L)]
        soft_refs[name] = firsts
        total = sum(r.mass for r in firsts)
        ctx.check(f"soft {name}: masses sum to 1",
                  abs(total - 1.0)
                  <= sum(r.mass_bound for r in firsts) + 1e-12)
        for ell, (r, r2) in enumerate(zip(firsts, seconds)):
            ctx.check(f"soft {name}: sum_j E[p_l p_j] = E[p_l], l={ell}",
                      abs(float(np.sum(r2.value)) - r.mass)
                      <= L * r2.error_bound + r.mass_bound + 1e-12)
        if name.startswith("circulant"):
            ctx.check(f"soft {name}: occupancy 1/L",
                      all(abs(r.mass - 1.0 / L) <= max(r.mass_bound, 1e-9)
                          for r in firsts))
        ctx.record(f"soft {name}", *[r.value for r in firsts],
                   *[r2.value for r2 in seconds],
                   [r.mass for r in firsts])

    hard_refs = {}
    for name, g in grams.items():
        L = g.L
        n = s["hard_nodes4"] if L == 4 else s["hard_nodes5"]
        exact = [oracle.hard_moments(g, ell, method="exact")
                 for ell in range(L)]
        quad = [oracle.hard_moments(g, ell, method="quadrature", nodes=n)
                for ell in range(L)]
        hard_refs[name] = exact
        ctx.check(f"hard {name}: exact probabilities sum to 1",
                  abs(sum(e.mass for e in exact) - 1.0) <= 1e-9)
        # the argmax integrand is discontinuous, so the tensor route
        # converges slowly and its node-halving bound undershoots the
        # true gap; agreement is an absolute rule that catches a wrong
        # answer, and the bound's honesty is reported, not gated
        gaps = [max(float(np.max(np.abs(e.value - q.value))),
                    abs(e.mass - q.mass)) for e, q in zip(exact, quad)]
        ctx.check(f"hard {name}: exact vs quadrature within {HARD_QUAD_TOL}",
                  max(gaps) <= HARD_QUAD_TOL)
        ctx.note(f"hard {name}: worst gap over node-halving bound",
                 max(g / q.error_bound for g, q in zip(gaps, quad)))
        ctx.record(f"hard {name}", *[q.value for q in quad],
                   *[e.value for e in exact])

    g3 = tpl.GramModel.from_correlation(rho3, scale=scale3)
    for sharp in s["ibp_sharpness"]:
        res = oracle.ibp_residual(g3, sharp / scale3, ell3)
        ctx.check(f"ibp residual at beta*scale={sharp:g} below 1e-6",
                  res < 1e-6)

    g2 = tpl.GramModel.from_correlation(np.array([[1.0, rho2],
                                                  [rho2, 1.0]]))
    e2 = oracle.hard_moments(g2, 0, method="exact")
    pred = theory.hard_pair_prediction(rho2).predicted_corr[0][0]
    ctx.check("pair: exact oracle vs closed form",
              abs(float(e2.ratio()[0]) - pred) <= 1e-9)
    ctx.check("pair: E[max] closed form",
              abs(2.0 * float(e2.value[0])
                  - theory.max_two_gaussians_mean(rho2)) <= 1e-9)

    # a small Monte Carlo control, so that the engine layers are measured
    # on this workload too
    g = grams["circulant L=4"]
    m = s["control_m"]
    engine_vs_oracle(ctx, "control hard L=4",
                     engine.hard_assign(g, ctx.cfg(m)),
                     hard_refs["circulant L=4"])
    engine_vs_oracle(ctx, "control soft L=4",
                     engine.soft_assign(g, ctx.cfg(m, beta)),
                     soft_refs["circulant L=4"])
    est = engine.hard_assign_diag(4, ctx.cfg(m))
    ref = oracle.max_gaussian_mean(4)
    ctx.check("control hard diag L=4: mean max vs oracle",
              abs(float(est.avg_self_corr) - float(ref.value[0]))
              <= Z * float(est.avg_self_stderr) + float(ref.error_bound))


WORKLOADS = {
    "verify-fast": verify_fast,
    "mc-large": mc_large,
    "oracle-quad": oracle_quad,
}


def run(ctx, workload):
    """Run one workload's task list; an exception counts as a failed check."""
    try:
        WORKLOADS[workload](ctx)
    except Exception as exc:  # the pass must report, not crash
        traceback.print_exc(file=sys.stderr)
        ctx.check(f"{workload} raised {type(exc).__name__}: {exc}", False)
