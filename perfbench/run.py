"""bias-lab benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a bias-lab checkout:

    python3 perfbench/run.py --workload mc-large --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):

* verify-fast  ``bias-lab verify --suite fast``, as users run it;
* mc-large     the engine at large L and d, almost no oracle work;
* oracle-quad  the quadrature oracle at L = 3..5 plus a small engine
               control.

Every pass runs in a fresh process (worker.py) so that each starts cold,
as a user's command does. With ``--trace 0`` the benchmark runs a few
set-up-only processes, then passes until their wall times add up to
``--seconds`` or 1.5 times that has elapsed (at least two passes), and
reports the end-to-end metrics: the median set-up time, the median wall
time of a pass, its Monte Carlo throughput, the median peak RSS and the
share of checks passed. With ``--trace 1`` it runs one untraced pass,
one traced pass and one traced pass with a single engine thread, and
reports the per-layer metrics of the traced pass.

Every pass checks its outputs. Result digests (CSV bytes for
verify-fast) must agree between passes, between traced and untraced
passes and between thread counts; each comparison is a check too. The
last stdout line is the result JSON; the line before it holds the run
manifest.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify-fast", "mc-large", "oracle-quad")
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "mc_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    "kernels.draw.normals": "count",
    "kernels.draw.busy_s": "s",
    "kernels.draw.normals_per_s": "1/s",
    "kernels.accumulate.rows": "count",
    "kernels.accumulate.busy_s": "s",
    "kernels.accumulate.rows_per_s": "1/s",
    "kernels.diag.rows": "count",
    "kernels.diag.busy_s": "s",
    "kernels.nodes.count": "count",
    "kernels.nodes.busy_s": "s",
    "kernels.nodes.per_s": "1/s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "engine.calls": "count",
    "engine.samples": "count",
    "engine.self_s": "s",
    "engine.samples_per_s": "1/s",
    "cli.self_s": "s",
    "theory.self_s": "s",
    "templates.self_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "engine.parallel_speedup": "ratio",
    "trace.overhead": "ratio",
}


class PassFailed(Exception):
    pass


class Runner:
    """Starts worker processes from the checkout root, one pass each."""

    def __init__(self, root, args, workdir):
        self.root = root
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("BIAS_LAB_SEED", None)

    def run(self, workload, trace=0, threads=None):
        self.count += 1
        outdir = os.path.join(self.workdir, f"pass{self.count}")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(self.args.seed),
               "--scale", self.args.scale, "--trace", str(trace),
               "--outdir", outdir]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise PassFailed("time limit reached")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=subprocess.PIPE, timeout=left,
                                  check=False)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"pass {self.count} timed out") from exc
        if proc.returncode != 0:
            raise PassFailed(f"pass {self.count} exited with "
                             f"{proc.returncode}")
        lines = proc.stdout.decode().strip().splitlines()
        return json.loads(lines[-1])


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add_pass(self, p, tag):
        self.attempted += p["attempted"]
        self.failed += [f"{tag}: {name}" for name in p["failed"]]

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def same_digests(self, a, b, what):
        """One check per digest: identical in pass a and pass b."""
        for key in sorted(set(a["digests"]) | set(b["digests"])):
            self.check(f"{what}: {key}",
                       a["digests"].get(key) == b["digests"].get(key))


def git_commit(root):
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if (top.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(root)):
        return None
    return lines[1]


def steal_s():
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def untraced(runner, args, checks):
    setups = [runner.run("none")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        p = runner.run(args.workload)
        passes.append(p)
        checks.add_pass(p, f"pass {len(passes)}")
        measured = sum(q["wall_s"] for q in passes)
        elapsed = time.monotonic() - start
        # process start-up is not measured; cap it for very short passes
        if len(passes) >= 2 and (
                measured >= args.seconds or elapsed >= 1.5 * args.seconds
                or elapsed / len(passes) > runner.deadline - time.monotonic()):
            break
    for i, p in enumerate(passes[1:], 2):
        checks.same_digests(passes[0], p, f"pass 1 vs pass {i}")
        checks.check(f"pass 1 vs pass {i}: engine samples",
                     p["samples"] == passes[0]["samples"])
    setups += [p["setup_s"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "mc_samples_per_s": statistics.median(
            p["samples"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    details = {"passes": len(passes), "wall_s": walls, "setup_s": setups,
               "samples_per_pass": passes[0]["samples"],
               "notes": passes[0]["notes"]}
    return metrics, END_TO_END, passes[0]["env"], details


def traced(runner, args, checks):
    plain = runner.run(args.workload)
    full = runner.run(args.workload, trace=1)
    single = runner.run(args.workload, trace=1, threads=1)
    for tag, p in (("untraced", plain), ("traced", full),
                   ("traced threads=1", single)):
        checks.add_pass(p, tag)
    checks.same_digests(plain, full, "untraced vs traced")
    checks.same_digests(plain, single, "threads=default vs threads=1")
    for key in sorted(set(full["counts"]) | set(single["counts"])):
        checks.check(f"count {key} independent of threads",
                     full["counts"].get(key) == single["counts"].get(key))
    layers = full["layers"]
    metrics = {name: layers[name] for name in PER_LAYER if name in layers}
    metrics["process.cpu_s"] = full["cpu_s"]
    metrics["process.cpu_util"] = full["cpu_s"] / full["wall_s"]
    busy1 = single["layers"]["engine.busy_s"]
    busyn = layers["engine.busy_s"]
    metrics["engine.parallel_speedup"] = busy1 / busyn if busyn > 0 else 0.0
    metrics["trace.overhead"] = full["wall_s"] / plain["wall_s"] - 1.0
    details = {"wall_s": {"untraced": plain["wall_s"],
                          "traced": full["wall_s"],
                          "traced_threads_1": single["wall_s"]},
               "engine_busy_s": {"threads_default": busyn,
                                 "threads_1": busy1}}
    return metrics, PER_LAYER, full["env"], details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny runs every code path in seconds (tests)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bias_lab",
                                       "__init__.py")):
        print(f"{root} is not a bias-lab checkout (no src/bias_lab)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(root, args, workdir)
    checks = Checks()
    steal0 = steal_s()
    try:
        measure = traced if args.trace else untraced
        values, units, env, details = measure(runner, args, checks)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    if not args.trace:
        values["pass_ratio"] = 1.0 - len(checks.failed) / checks.attempted
    for name in checks.failed:
        print(f"FAILED CHECK {name}", file=sys.stderr)

    manifest = dict(env)
    manifest.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        scale=args.scale, trace=bool(args.trace), nproc=os.cpu_count(),
        threads=("default and 1" if args.trace else "default"),
        git_commit=git_commit(root), details=details,
        steal_s=(None if steal0 is None else steal_s() - steal0),
        failed_checks=checks.failed)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
