"""Spans recorded from outside bias_lab, and the per-layer arithmetic.

The tracer wraps module attributes of the library (for example
``engine.hard_assign`` or ``_kernels.soft_nodes``) for the duration of
one traced pass and restores them afterwards; nothing inside ``src/`` is
changed. Each wrapped call records a span: layer name, start, end,
thread and parent. A span opened in an engine pool worker takes as
parent the innermost open span of the thread that submitted the task,
so the time the engine waits on its pool is charged to the workers, not
to the engine.

Derived numbers:

* self time of a span is its duration minus the union of its children's
  intervals (children may run in parallel on several threads);
* busy time of a layer sums the durations of its outermost spans over
  all threads, so two workers busy for 1 s each give 2 s.
"""

import collections
import contextlib
import functools
import threading
import time

import numpy as np

LAYERS = ("cli", "engine", "oracle", "theory", "templates",
          "kernels.draw", "kernels.accumulate", "kernels.diag",
          "kernels.nodes")


class Span:
    __slots__ = ("layer", "start", "end", "thread", "parent")

    def __init__(self, layer, start, end=None, thread=None, parent=None):
        self.layer = layer
        self.start = start
        self.end = end
        self.thread = thread
        self.parent = parent

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans and counters in memory for one pass."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, layer):
        stack = self._stack()
        sp = Span(layer, 0.0, thread=threading.get_ident(),
                  parent=stack[-1] if stack else None)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def count(self, key, n):
        with self._lock:
            self.counts[key] += n

    def run_as_child(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with parent as its innermost open span."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def wrap(self, layer, fn, counter=None):
        """fn traced as a span of layer; counter(args, kwargs) -> (key, n)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, n = counter(args, kwargs)
                self.count(key, n)
            with self.span(layer):
                return fn(*args, **kwargs)
        return traced


def union_length(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map id(span) -> duration minus the union of its children's intervals."""
    children = collections.defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end))
                for c in children.get(id(sp), ())]
        covered = union_length([(lo, hi) for lo, hi in kids if hi > lo])
        out[id(sp)] = max(sp.duration - covered, 0.0)
    return out


def _outermost(sp):
    """True when no ancestor of sp belongs to the same layer."""
    p = sp.parent
    while p is not None:
        if p.layer == sp.layer:
            return False
        p = p.parent
    return True


def layer_totals(spans):
    """Per layer: self_s, busy_s and calls (calls counts outermost spans)."""
    selfs = self_times(spans)
    out = {name: {"self_s": 0.0, "busy_s": 0.0, "calls": 0}
           for name in LAYERS}
    for sp in spans:
        row = out[sp.layer]
        row["self_s"] += selfs[id(sp)]
        if _outermost(sp):
            row["busy_s"] += sp.duration
            row["calls"] += 1
    return out


# ---------------------------------------------------------------------------
# attaching the tracer to bias_lab


class _TracedGenerator:
    """Proxy for a numpy Generator whose normal draws are spans."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span("kernels.draw"):
            out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.count("kernels.draw.normals", int(np.size(out)))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _cfg_arg(args, kwargs):
    return kwargs["cfg"] if "cfg" in kwargs else args[1]


def _engine_samples(args, kwargs):
    return "engine.samples", int(_cfg_arg(args, kwargs).m)


def _rows_of_first_array(args, kwargs):
    # accumulate entry points take (backend, block, ...)
    return "kernels.accumulate.rows", int(np.shape(args[1])[0])


def _diag_rows(args, kwargs):
    # (backend, seed, chunk, rows, L, ...)
    return "kernels.diag.rows", int(args[3])


def _node_count(args, kwargs):
    # (backend, a, x, w, ...): one sweep visits n**L nodes
    a, x = args[1], args[2]
    return "kernels.nodes.count", int(np.size(x)) ** int(np.shape(a)[0])


ENGINE_ESTIMATORS = ("hard_assign", "soft_assign", "hard_assign_diag",
                     "soft_assign_diag")
ENGINE_HELPERS = ("correlation_matrix", "span_residual",
                  "extract_coefficients")
ORACLE_ENTRY = ("hard_moments", "soft_moments", "soft_second_moments",
                "ibp_residual", "softmax_weights", "max_gaussian_mean")
THEORY_ENTRY = ("hard_pair_prediction", "soft_pair_prediction",
                "soft_finite_prediction", "beta_zero_limit",
                "gumbel_prediction", "gumbel_constants",
                "max_two_gaussians_mean")
TEMPLATE_FUNCS = ("make_pair", "make_circulant", "make_exponential",
                  "make_haar_family", "circulant_spectrum", "save_csv",
                  "load_csv", "load_pgm", "load_pgm_dir")
ACCUMULATE = ("hard_block", "soft_block", "label_vectors",
              "weighted_vectors")
DIAG = ("hard_diag_chunk", "soft_diag_chunk")
NODES = ("hard_nodes", "soft_nodes")


class Patches:
    """setattr with undo; restore() puts every original back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def count_engine_samples(lib, total):
    """Untraced counting only: add cfg.m of every estimator call to total[0].

    Returns the Patches to restore. Used by every pass, traced or not,
    because mc_samples_per_s needs the sum of cfg.m.
    """
    patches = Patches()
    for name in ENGINE_ESTIMATORS:
        fn = getattr(lib.engine, name)

        def counted(*args, _fn=fn, **kwargs):
            total[0] += int(_cfg_arg(args, kwargs).m)
            return _fn(*args, **kwargs)
        patches.set(lib.engine, name, counted)
    return patches


def attach(tracer, lib):
    """Wrap the public entry points of every bias_lab layer; returns Patches.

    lib is a namespace with the modules cli, engine, oracle, theory,
    templates and _kernels.
    """
    patches = Patches()
    w = tracer.wrap
    patches.set(lib.cli, "main", w("cli", lib.cli.main))
    for name in ENGINE_ESTIMATORS:
        patches.set(lib.engine, name, w("engine", getattr(lib.engine, name),
                                        _engine_samples))
    for name in ENGINE_HELPERS:
        patches.set(lib.engine, name, w("engine", getattr(lib.engine, name)))

    base_pool = lib.engine.ThreadPoolExecutor

    class TracedPool(base_pool):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_as_child, tracer.current(),
                                  fn, *args, **kwargs)
    patches.set(lib.engine, "ThreadPoolExecutor", TracedPool)

    for name in ORACLE_ENTRY:
        patches.set(lib.oracle, name, w("oracle", getattr(lib.oracle, name)))
    for name in THEORY_ENTRY:
        patches.set(lib.theory, name, w("theory", getattr(lib.theory, name)))
    for name in TEMPLATE_FUNCS:
        patches.set(lib.templates, name,
                    w("templates", getattr(lib.templates, name)))
    for cls, names in ((lib.templates.GramModel,
                        ("__post_init__", "covariance")),
                       (lib.templates.TemplateSet,
                        ("__post_init__", "correlation", "gram"))):
        for name in names:
            patches.set(cls, name, w("templates", cls.__dict__[name]))
    from_corr = lib.templates.GramModel.__dict__["from_correlation"]
    patches.set(lib.templates.GramModel, "from_correlation",
                classmethod(w("templates", from_corr.__func__)))

    k = lib._kernels
    for name in ACCUMULATE:
        patches.set(k, name, w("kernels.accumulate", getattr(k, name),
                               _rows_of_first_array))
    for name in DIAG:
        patches.set(k, name, w("kernels.diag", getattr(k, name), _diag_rows))
    for name in NODES:
        patches.set(k, name, w("kernels.nodes", getattr(k, name),
                               _node_count))
    chunk_generator = k.chunk_generator

    def traced_generator(*args, **kwargs):
        return _TracedGenerator(chunk_generator(*args, **kwargs), tracer)
    patches.set(k, "chunk_generator", traced_generator)
    return patches


def layer_metrics(tracer):
    """Per-layer metric values of one traced pass (units in run.PER_LAYER)."""
    t = layer_totals(tracer.spans)
    c = tracer.counts

    def rate(n, s):
        return n / s if s > 0 else 0.0

    return {
        "kernels.draw.normals": c["kernels.draw.normals"],
        "kernels.draw.busy_s": t["kernels.draw"]["busy_s"],
        "kernels.draw.normals_per_s": rate(c["kernels.draw.normals"],
                                           t["kernels.draw"]["busy_s"]),
        "kernels.accumulate.rows": c["kernels.accumulate.rows"],
        "kernels.accumulate.busy_s": t["kernels.accumulate"]["busy_s"],
        "kernels.accumulate.rows_per_s": rate(
            c["kernels.accumulate.rows"], t["kernels.accumulate"]["busy_s"]),
        "kernels.diag.rows": c["kernels.diag.rows"],
        "kernels.diag.busy_s": t["kernels.diag"]["busy_s"],
        "kernels.nodes.count": c["kernels.nodes.count"],
        "kernels.nodes.busy_s": t["kernels.nodes"]["busy_s"],
        "kernels.nodes.per_s": rate(c["kernels.nodes.count"],
                                    t["kernels.nodes"]["busy_s"]),
        "oracle.calls": t["oracle"]["calls"],
        "oracle.self_s": t["oracle"]["self_s"],
        "engine.calls": t["engine"]["calls"],
        "engine.samples": c["engine.samples"],
        "engine.self_s": t["engine"]["self_s"],
        "engine.busy_s": t["engine"]["busy_s"],
        "engine.samples_per_s": rate(c["engine.samples"],
                                     t["engine"]["busy_s"]),
        "cli.self_s": t["cli"]["self_s"],
        "theory.self_s": t["theory"]["self_s"],
        "templates.self_s": t["templates"]["self_s"],
    }
