"""Span arithmetic and the wrapping of bias_lab's layers."""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert spans.union_length([(0, 10), (1, 2), (3, 4)]) == 10.0


def test_two_workers_under_one_parent():
    parent = Span("engine", 0.0, 10.0, thread=1)
    a = Span("kernels.accumulate", 1.0, 5.0, thread=2, parent=parent)
    b = Span("kernels.accumulate", 2.0, 8.0, thread=3, parent=parent)
    selfs = self_times([parent, a, b])
    # the workers overlap, so together they cover [1, 8] of the parent
    assert selfs[id(parent)] == pytest.approx(3.0)
    assert selfs[id(a)] == pytest.approx(4.0)
    totals = layer_totals([parent, a, b])
    # busy time sums across threads
    assert totals["kernels.accumulate"]["busy_s"] == pytest.approx(10.0)
    assert totals["kernels.accumulate"]["calls"] == 2
    assert totals["engine"]["busy_s"] == pytest.approx(10.0)
    assert totals["engine"]["self_s"] == pytest.approx(3.0)


def test_nested_same_layer_counts_once():
    outer = Span("oracle", 0.0, 10.0, thread=1)
    inner = Span("oracle", 2.0, 4.0, thread=1, parent=outer)
    leaf = Span("kernels.nodes", 2.5, 3.5, thread=1, parent=inner)
    totals = layer_totals([outer, inner, leaf])
    assert totals["oracle"]["busy_s"] == pytest.approx(10.0)
    assert totals["oracle"]["calls"] == 1
    assert totals["oracle"]["self_s"] == pytest.approx(9.0)
    assert totals["kernels.nodes"]["self_s"] == pytest.approx(1.0)


def test_child_outside_parent_is_clipped():
    parent = Span("cli", 0.0, 2.0, thread=1)
    child = Span("engine", 1.5, 3.0, thread=2, parent=parent)
    assert self_times([parent, child])[id(parent)] == pytest.approx(1.5)


def test_pool_workers_take_the_submitters_span_as_parent():
    tracer = Tracer()

    def work():
        with tracer.span("kernels.accumulate"):
            time.sleep(0.05)
        return threading.get_ident()

    with tracer.span("engine") as parent:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futs = [pool.submit(tracer.run_as_child, tracer.current(), work)
                    for _ in range(2)]
            threads = {f.result() for f in futs}
    assert threading.get_ident() not in threads
    kids = [sp for sp in tracer.spans if sp.layer == "kernels.accumulate"]
    assert len(kids) == 2
    assert all(sp.parent is parent for sp in kids)
    totals = layer_totals(tracer.spans)
    # the wait on the pool is charged to the workers, not to the engine
    assert totals["engine"]["self_s"] < parent.duration - 0.04


@pytest.fixture(scope="module")
def lib():
    import worker
    return worker.load_library(ROOT)


def test_attach_traces_every_layer_and_restores(lib):
    import numpy as np
    targets = [(lib.engine, "hard_assign"), (lib.engine, "ThreadPoolExecutor"),
               (lib._kernels, "chunk_generator"), (lib._kernels, "hard_block"),
               (lib.oracle, "soft_moments"), (lib.templates.GramModel,
                                               "from_correlation")]
    before = [owner.__dict__[name] for owner, name in targets]
    tracer = Tracer()
    patches = spans.attach(tracer, lib)
    try:
        g = lib.templates.GramModel.from_correlation(np.eye(3))
        cfg = lib.engine.ExperimentConfig(m=20_000, seed=1, chunks=4,
                                          threads=2)
        lib.engine.hard_assign(g, cfg)
        lib.oracle.soft_moments(g, 1.0, 0, nodes=10)
    finally:
        patches.restore()
    assert [owner.__dict__[name] for owner, name in targets] == before
    m = spans.layer_metrics(tracer)
    assert m["engine.samples"] == 20_000
    assert m["kernels.draw.normals"] == 3 * 20_000
    assert m["kernels.accumulate.rows"] == 20_000
    assert m["kernels.nodes.count"] == 10 ** 3 + 8 ** 3
    assert m["engine.calls"] == 1 and m["oracle.calls"] == 1
    draws = [sp for sp in tracer.spans if sp.layer == "kernels.draw"]
    assert draws and all(sp.parent.layer == "engine" for sp in draws)


def test_sample_counter_sums_cfg_m(lib):
    import numpy as np
    total = [0]
    patches = spans.count_engine_samples(lib, total)
    try:
        g = lib.templates.GramModel.from_correlation(np.eye(2))
        cfg = lib.engine.ExperimentConfig
        lib.engine.hard_assign(g, cfg(m=1000, seed=0))
        lib.engine.soft_assign_diag(4, cfg(m=500, seed=0, beta=1.0))
    finally:
        patches.restore()
    assert total[0] == 1500
