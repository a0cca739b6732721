"""One benchmark pass in a fresh process.

Times the set-up (importing numpy, scipy and bias_lab from ``src/`` and
the first-call warm-up of ``tests/conftest.py``), then runs one
workload's task list once and prints one JSON line with the timings,
the checks and the result digests. With ``--trace 1`` the pass runs
with every layer wrapped and also reports the per-layer numbers.

Run from the root of a bias-lab checkout:

    python3 perfbench/worker.py --workload mc-large --seed 1 --outdir DIR

``--workload none`` measures the set-up alone.
"""

import argparse
import json
import os
import resource
import sys
import time


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def load_library(root):
    """Import bias_lab from root/src and no other place."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bias_lab", "__init__.py")):
        raise SystemExit(f"no bias_lab sources under {src}")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.special  # noqa: F401
    import bias_lab
    from bias_lab import _kernels, cli, engine, oracle, templates, theory
    where = os.path.realpath(os.path.dirname(bias_lab.__file__))
    if where != os.path.realpath(os.path.join(src, "bias_lab")):
        raise SystemExit(f"bias_lab was imported from {where}, not {src}")
    return argparse.Namespace(_kernels=_kernels, cli=cli, engine=engine,
                              oracle=oracle, templates=templates,
                              theory=theory)


def warm_up(lib):
    """The session warm-up of tests/conftest.py, call for call."""
    import numpy as np
    g = lib.templates.GramModel.from_correlation(np.eye(2))
    cfg = lib.engine.ExperimentConfig
    hard = cfg(m=256, seed=0, mode="gram", chunks=1)
    soft = cfg(m=256, seed=0, mode="gram", beta=1.0, chunks=1)
    lib.engine.hard_assign(g, hard)
    lib.engine.soft_assign(g, soft)
    lib.engine.hard_assign_diag(4, hard)
    lib.engine.soft_assign_diag(4, soft)
    ts = lib.templates.TemplateSet(matrix=np.eye(3))
    full_hard = cfg(m=256, seed=0, mode="full", chunks=1)
    full_soft = cfg(m=256, seed=0, mode="full", beta=1.0, chunks=1)
    lib.engine.hard_assign(ts, full_hard)
    lib.engine.soft_assign(ts, full_soft)


def environment(lib):
    import numpy
    import scipy
    k = lib._kernels
    return {
        "backend": k.active_backend(),
        "numba_importable": bool(k.HAS_NUMBA),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    lib = load_library(os.getcwd())
    warm_up(lib)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "env": environment(lib)}
    if args.workload != "none":
        import spans
        import workloads

        ctx = workloads.Context(lib, args.scale, args.seed, args.threads,
                                args.outdir)
        samples = [0]
        counting = spans.count_engine_samples(lib, samples)
        tracer = patches = None
        if args.trace:
            tracer = spans.Tracer()
            patches = spans.attach(tracer, lib)
        cpu0 = _cpu_s()
        t1 = time.perf_counter()
        try:
            workloads.run(ctx, args.workload)
        finally:
            wall_s = time.perf_counter() - t1
            cpu_s = _cpu_s() - cpu0
            if patches is not None:
                patches.restore()
            counting.restore()
        result.update(
            wall_s=wall_s, cpu_s=cpu_s, samples=samples[0],
            attempted=ctx.attempted, failed=ctx.failed,
            digests=ctx.digests, notes=ctx.notes)
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer)
            result["counts"] = dict(tracer.counts)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
