"""Smoke test of every library call the benchmark in ``perfbench/`` makes.

The benchmark runs the committed source, so a library change that breaks one
of its calls (a renamed estimator, the ``workers=`` keyword, the positional
``run_replication``, ``pair.adjustment``) should fail here, not when the
benchmark runs.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from ruinlab import SimConfig, engine, tilt_from_config
from ruinlab.tables import table_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up while defined
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_benchmark_estimator_names_resolve():
    run = _load("run")
    for name in run.ESTIMATORS:
        module, attr = name.split(".")
        assert module == "engine" and callable(getattr(engine, attr)), name


@pytest.mark.parametrize("name", ["short_paths", "long_paths", "finite_horizon"])
def test_simulation_workload_calls_run(workloads, name):
    wl = workloads.build(name, 1)
    assert wl.sim
    # the first operation of each estimator name the workload calls
    firsts = {}
    for op in wl.ops:
        firsts.setdefault(op.call, op)
    for op in firsts.values():
        rep = op.run(k=20)
        assert rep.k == 20 and math.isfinite(rep.estimate), op.label
        out = engine.run_replication(op.model, op.pair, op.cfg, 0)
        assert out.n_claims >= 0, op.label


def test_analytic_workload_check_runs(workloads):
    wl = workloads.build("analytic", 1)
    assert not wl.sim
    op = next(op for op in wl.ops if op.label == "Wei(2,1)/Exp")  # quadrature transforms
    assert workloads.check_analytic(op, op.run()) is None


def test_tracer_sees_one_log_weight_span_per_block(monkeypatch):
    # tilts.path_log_weight.* and laws.sample_n.* in the traced run: per walk
    # block, one segmented log-weight call weighing every drawn claim of the
    # block pointwise, and one sample_n call for the waits and one for the claims
    spans = _load("spans")
    col = table_spec("table1").columns[0]
    pair = tilt_from_config(col.tilt_config, col.model)
    cfg = SimConfig(u=5.0, k=2000, seed=3)  # several row blocks, the last partial

    blocks = []  # rows x chunk of each block
    walk_block = engine._walk_block

    def counted(ctx, gen, out, n, m, pos, *rest):
        blocks.append(len(pos) * m)
        return walk_block(ctx, gen, out, n, m, pos, *rest)

    monkeypatch.setattr(engine, "_walk_block", counted)
    tracer = spans.Tracer()
    tracer.install()
    try:
        engine.estimate_psi(col.model, pair, cfg)
    finally:
        tracer.restore()
    sid = tracer.names.index("tilts.path_log_weight")
    counts = [c for n, c in zip(tracer.name, tracer.count) if n == sid]
    assert len(counts) == len(blocks)
    assert sum(counts) == sum(blocks)
    # sample_n spans outside another sample_n (a mixture draws its components)
    sample = {i for i, name in enumerate(tracer.names) if name.startswith("laws.sample_n.")}
    draws = [c for n, p, c in zip(tracer.name, tracer.parent, tracer.count)
             if n in sample and (p < 0 or tracer.name[p] not in sample)]
    assert len(draws) == 2 * len(blocks)
    assert sum(draws) == 2 * sum(blocks)
