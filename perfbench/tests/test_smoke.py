"""Tiny-size runs of every workload through the benchmark's command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    manifest = json.loads(lines[-2])["manifest"]
    return manifest, json.loads(lines[-1])


def test_metric_table_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_metric(workload):
    manifest, out = result(bench(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert manifest["backend"] in ("numpy", "numba")
    for key in ("numba_importable", "python", "numpy", "scipy", "nproc",
                "threads", "seed", "git_commit", "trace"):
        assert key in manifest

    _, t1 = result(bench(workload, 1))
    _, t2 = result(bench(workload, 1))
    assert t1["correct"] and t2["correct"]
    assert {k: v["unit"] for k, v in t1["metrics"].items()} == run.PER_LAYER
    for name, unit in run.PER_LAYER.items():
        if unit == "count":
            assert t1["metrics"][name]["value"] == t2["metrics"][name]["value"]
    if workload != "verify-fast":
        # at tiny scale verify-fast is a small `bias-lab run`, which does
        # no diagonal or quadrature work; the other two touch every layer
        assert all(v["value"] > 0 for v in t1["metrics"].values()
                   if v["unit"] == "count")


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("mc-large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
