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

from ruinlab import engine

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
