import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ruinlab

MODULES = ["ruinlab"] + [f"ruinlab.{m.name}" for m in pkgutil.iter_modules(ruinlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


GUARD = """
import sys
import ruinlab
from ruinlab import SimConfig, Weibull, estimate_psi
from ruinlab.tables import table_spec
from ruinlab.tilts import tilt_from_config

for name in ("table1", "table2", "table3", "table4", "table5"):
    col = table_spec(name).columns[0]
    estimate_psi(col.model, tilt_from_config(col.tilt_config, col.model), SimConfig(u=0.0, k=50, seed=1))
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
print(Weibull(0.375, 0.5).laplace(1.0).hex())
"""


def test_simulation_loads_neither_scipy_optimize_nor_integrate():
    # a fresh interpreter: this test process has both modules loaded already
    path = [str(Path(ruinlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-c", GUARD], capture_output=True, text=True, env=env, check=True
    )
    loaded, laplace = proc.stdout.splitlines()
    assert loaded == "[]"
    # quadrature still imports its integrator on first use; value as with a module-level import
    assert float.fromhex(laplace) == 0.6499164412290026
