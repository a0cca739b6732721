"""Shared fixtures: run every estimator path once per session.

The first call into each estimator pays one-off set-up costs (lazy
imports, BLAS and allocator warm-up). Timed acceptance criteria must
not absorb that cost, so a session-scoped autouse fixture touches every
engine entry point with a tiny workload before any test runs.
"""

import numpy as np
import pytest

from bias_lab import ExperimentConfig, GramModel, engine


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    g = GramModel.from_correlation(np.eye(2))
    hard = ExperimentConfig(m=256, seed=0, mode="gram", chunks=1)
    soft = ExperimentConfig(m=256, seed=0, mode="gram", beta=1.0, chunks=1)
    engine.hard_assign(g, hard)
    engine.soft_assign(g, soft)
    engine.hard_assign_diag(4, hard)
    engine.soft_assign_diag(4, soft)
    from bias_lab.templates import TemplateSet
    ts = TemplateSet(matrix=np.eye(3))
    full_hard = ExperimentConfig(m=256, seed=0, mode="full", chunks=1)
    full_soft = ExperimentConfig(m=256, seed=0, mode="full", beta=1.0, chunks=1)
    engine.hard_assign(ts, full_hard)
    engine.soft_assign(ts, full_soft)
    yield
