"""Named benchmark configurations (table1..table5) runnable from the CLI.

Each benchmark fixes a model family grid, a tilt and a reserve grid:

* table1  exponential claims and waits, linear tilt, exact column available
* table2  generalized-gamma claim families with common mean 2, linear tilt
* table3  log-normal claims of increasing volatility, linear tilt
* table4  Pareto claims with Weibull waits, hazard twist on both components
* table5  exponential claims with gamma waits, hazard twist on claims only,
          exact column available

All use safety loading 1/2. Tilt parameters are specified as factors of the
model-dependent boundary values (xi_hat, r_max) and are resolved to absolute
values at load time; the resolved numbers are recorded in the output header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError
from .laws import Exponential, Gamma, InvGamma, InvWeibull, LogNormal, Pareto, Weibull
from .lundberg import exact_psi
from .model import RiskModel

__all__ = ["TableColumn", "TableSpec", "TABLES", "table_spec"]

_ETA = 0.5


@dataclass(frozen=True)
class TableColumn:
    label: str
    model: RiskModel
    tilt_config: dict
    exact: Callable[[RiskModel, float], float] | None = None


@dataclass(frozen=True)
class TableSpec:
    name: str
    columns: tuple[TableColumn, ...]
    u_grid: tuple[float, ...]


def _cl_model(claim, mean_check: float | None = None) -> RiskModel:
    if mean_check is not None and abs(claim.mean() - mean_check) > 0.01:
        raise ConfigError(
            f"{claim.label()} mean {claim.mean():.4f} violates the E[X]={mean_check:g} constraint"
        )
    return RiskModel.from_safety_loading(claim, Exponential(1.0), _ETA)


def _table1() -> TableSpec:
    col = TableColumn(
        "Exp(1)",
        _cl_model(Exponential(1.0)),
        {"family": "linear", "params": {"xi_factor": 1.95}},
        exact_psi,
    )
    return TableSpec("table1", (col,), (0, 1, 2, 3, 4, 5, 10, 20, 30))


def _table2() -> TableSpec:
    claims = [
        ("Ga(2,1)", Gamma(2.0, 1.0)),
        ("Wei(3/4,1.68)", Weibull(0.75, 1.68)),
        ("InvGa(3,4)", InvGamma(3.0, 4.0)),
        ("InvWei(3,1.48)", InvWeibull(3.0, 1.48)),
    ]
    cols = tuple(
        TableColumn(
            label, _cl_model(law, mean_check=2.0), {"family": "linear", "params": {"xi_factor": 1.95}}
        )
        for label, law in claims
    )
    return TableSpec("table2", cols, (0, 1, 2, 3, 4, 5, 10, 15, 20, 30, 40, 50))


def _table3() -> TableSpec:
    cols = tuple(
        TableColumn(
            f"LN(0,{s:g})",
            _cl_model(LogNormal(0.0, s)),
            {"family": "linear", "params": {"xi_factor": 1.95}},
        )
        for s in (0.5, 1.0, 1.5)
    )
    return TableSpec("table3", cols, (0, 1, 2, 3, 4, 5, 10, 15, 20, 30, 40, 50))


def _table4() -> TableSpec:
    cols = tuple(
        TableColumn(
            f"Pa({a:g},3)",
            RiskModel.from_safety_loading(Pareto(a, 3.0), Weibull(0.375, 0.5), _ETA),
            {"family": "hazard", "params": {"theta": 1.2, "r_factor": 0.95}},
        )
        for a in (1.5, 2.0, 2.5)
    )
    return TableSpec("table4", cols, (0, 5, 10, 15, 20, 30, 40, 50, 100, 150, 200, 250))


def _table5() -> TableSpec:
    col = TableColumn(
        "Exp(1)/Ga(2,1)",
        RiskModel.from_safety_loading(Exponential(1.0), Gamma(2.0, 1.0), _ETA),
        {"family": "hazard", "params": {"theta": 1.0, "r_factor": 0.9}},
        exact_psi,
    )
    return TableSpec("table5", (col,), (0, 1, 2, 3, 4, 5, 10, 20, 30))


TABLES: dict[str, Callable[[], TableSpec]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
}


def table_spec(name: str) -> TableSpec:
    if name not in TABLES:
        raise ConfigError(f"unknown table {name!r}; choose from {sorted(TABLES)}")
    return TABLES[name]()
