import importlib
import json
import math
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
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import ruinlab
from ruinlab import Exponential, InvWeibull, Pareto, SimConfig, Weibull, cli, estimate_psi
from ruinlab.tables import TABLES, table_spec
from ruinlab.tilts import tilt_from_config

for name in TABLES:
    for col in table_spec(name).columns:
        tilt = tilt_from_config(col.tilt_config, col.model)
        estimate_psi(col.model, tilt, SimConfig(u=0.0, k=50, seed=1))
laplace = Weibull(0.375, 0.5).laplace(1.0)
tails = [float(law.sf(2.0)) for law in (Exponential(1.0), Weibull(0.375, 0.5), Pareto(1.5, 3.0),
                                        InvWeibull(3.0, 1.48))]
with tempfile.TemporaryDirectory() as tmp:
    model = Path(tmp) / "model.json"
    exp1 = {"family": "exp", "params": {"rate": 1.0}}
    gamma = {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}
    weibull = {"family": "weibull", "params": {"shape": 0.375, "scale": 0.5}}
    gengamma = {"family": "gengamma", "params": {"alpha": 1.5, "scale": 1.0, "shape": 2.0}}
    lognormal = {"family": "lognormal", "params": {"mu": 0.0, "sigma": 0.5}}
    for claim, wait in ((exp1, gamma), (exp1, weibull), (gengamma, lognormal), (gamma, exp1)):
        model.write_text(json.dumps({"claim": claim, "wait": wait, "safety_loading": 0.5}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", "--model", str(model)]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(laplace.hex())
print(json.dumps(tails))
"""

FIRST_CALLS = """
from ruinlab import InvGamma, LogNormal

print(float(InvGamma(3.0, 4.0).sf(2.0)).hex())
print(float(LogNormal(0.0, 1.0).sf(2.0)).hex())
"""


def _fresh_process(code: str) -> list[str]:
    # a fresh interpreter: this test process has scipy loaded already
    path = [str(Path(ruinlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.splitlines()


def test_simulation_and_closed_form_check_load_no_scipy():
    # the quadrature behind the Weibull Laplace transform, the checks on
    # Exp/Wei, GGa/LN and Ga/Exp (M_X, L_W, the roots, the tilt's
    # normalizers), x-space knots included, and the sf of the exponential,
    # Weibull, Pareto and inverse Weibull laws are numpy alone
    loaded, laplace, tails = _fresh_process(GUARD)
    assert loaded == "[]"
    # against the value to 25 digits
    assert abs(float.fromhex(laplace) / 0.6499164412289979199724419 - 1.0) <= 1e-15
    want = [math.exp(-2.0), math.exp(-(4.0**0.375)), 0.6**1.5, -math.expm1(-(0.74**3))]
    assert json.loads(tails) == pytest.approx(want, rel=1e-15)


def test_first_sf_imports_scipy_special_with_the_same_values():
    # the values with scipy.special imported when ruinlab is
    assert _fresh_process(FIRST_CALLS) == [
        "0x1.4b15566a13b83p-2",
        "0x1.f3ef351c928ecp-3",
    ]
