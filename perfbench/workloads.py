"""The four benchmark workloads and the checks their outputs must pass.

A workload is a fixed list of operations. An operation is one
``engine.estimate_psi*`` call for one (model, tilt, u) point or, in
``analytic``, one check of one model. ``build`` is the set-up that
``setup_s`` times: it calls ``tables.table_spec``, takes the models from the
specs, builds the tilts with ``tilts.tilt_from_config`` and checks
admissibility. The workload seed only picks the ``SimConfig`` seeds; models,
tilts and reserve grids are fixed.

Library functions are looked up on their modules at call time
(``engine.estimate_psi``, not a name bound at import), so the traced run
sees every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ruinlab import engine, laws, lundberg, model, tables, tilts

WORKLOADS = ("short_paths", "long_paths", "finite_horizon", "analytic")

# Replications per estimate. short_paths and finite_horizon points cost
# 40-90 us per replication; table4 points 120-220 us; the deep-tail points
# 0.2-1 ms, so they run at the K the ROADMAP measured them with. The table4
# weights are heavy-tailed: at K=2000 their estimates are skewed low and the
# 4-SE check failed on 2 of 25 seeds; at K=8000 none of 26 seeds came within
# 3.5 SE of failing.
K_SHORT = 2000
K_TABLE4 = 8000
K_TAIL = 500
K_HORIZON = 2000

SHORT_TABLES = ("table1", "table2", "table3", "table5")
SHORT_U = (0, 1, 2, 3, 4, 5)
TABLE4_U = (100, 150, 200, 250)
TAIL_U = (1200, 2300)
HORIZON_UT = ((0.0, 10.0), (2.0, 50.0), (5.0, 100.0))
THRESHOLD_U, THRESHOLD_B = 10.0, 5.0

# Band half-width in combined standard errors (the test suite's convention).
N_SE = 4.0
RHO_TOL = 1e-9
THETA_RESIDUAL_TOL = 1e-12
NORMALIZATION_TOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Failure:
    """Why an operation failed.

    ``kind`` is ``error`` (the call raised), ``degenerate`` (a non-finite
    estimate, or an rse of 0 or nan for a positive reference: the output
    itself says it is unusable) or ``wrong`` (a usable-looking output that
    disagrees with its reference).
    """

    label: str
    kind: str
    reason: str


@dataclass
class SimOp:
    """One estimate for one (model, tilt, u) point."""

    label: str
    call: str  # engine function name
    model: object
    pair: object
    cfg: object
    ref: tuple  # ("exact", psi) | ("log_exact", log psi) | ("stored", psi, se) | ("pair", label)

    def run(self, workers: int = 1, k: int | None = None):
        cfg = self.cfg if k is None else dataclasses.replace(self.cfg, k=k)
        return getattr(engine, self.call)(self.model, self.pair, cfg, workers=workers)


@dataclass
class CheckOp:
    """One analytic check of one model; ``expected`` holds closed forms."""

    label: str
    model: object
    expected: dict = field(default_factory=dict)

    def run(self):
        m = self.model
        rho = lundberg.lundberg_root(m)
        mp = lundberg.memm_point(m)
        pair = tilts.EsscherTilt(m, rho)
        adm = tilts.check_admissible(pair)
        res = tilts.normalization_residuals(pair)
        return {
            "rho": rho,
            "r_m": mp.r if mp is not None else None,
            "theta_residual": pair.adjustment.residual,
            "in_c_p": adm.in_c_p,
            "normalization_residual": max(res),
        }


@dataclass
class Workload:
    name: str
    ops: list

    @property
    def sim(self) -> bool:
        """True when the operations are estimates (all but ``analytic``)."""
        return self.name != "analytic"


def point_seeds(seed: int, name: str, n: int) -> list[int]:
    """``n`` 63-bit SimConfig seeds derived from the workload seed."""
    entropy = [seed, WORKLOADS.index(name)]
    raw = np.random.SeedSequence(entropy).generate_state(n, dtype=np.uint64)
    seeds = [int(s) & (2**63 - 1) for s in raw]
    ref_seed = load_reference()["seed"]
    if ref_seed in seeds:
        raise ValueError("workload seed collides with the reference seed")
    return seeds


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _pair(cfg: dict, m):
    pair = tilts.tilt_from_config(cfg, m)
    report = tilts.check_admissible(pair)
    if pair.variant != "identity" and not report.in_c_p:
        raise ValueError(f"{pair.label()} is not ruin-inducing for {m.label()}")
    return pair


def _esscher_at_rho(m) -> dict:
    return {"family": "esscher", "params": {"r": lundberg.lundberg_root(m)}}


def short_points() -> list[tuple[str, object, object, float, tuple | None]]:
    """(label, model, pair, u, exact ref or None) for every short_paths point."""
    out = []
    for name in SHORT_TABLES:
        spec = tables.table_spec(name)
        for col in spec.columns:
            pair = _pair(col.tilt_config, col.model)
            for u in SHORT_U:
                ref = ("exact", col.exact(col.model, u)) if col.exact else None
                out.append((f"{name}/{col.label}/u={u}", col.model, pair, float(u), ref))
    return out


def table4_points() -> list[tuple[str, object, object, float, None]]:
    spec = tables.table_spec("table4")
    out = []
    for col in spec.columns:
        pair = _pair(col.tilt_config, col.model)
        for u in TABLE4_U:
            out.append((f"table4/{col.label}/u={u}", col.model, pair, float(u), None))
    return out


def _stored(label: str, refs: dict) -> tuple:
    entry = refs["points"][label]
    return ("stored", entry["estimate"], entry["std_error"])


def _build_short(seed: int) -> list:
    refs = load_reference()
    points = short_points()
    seeds = point_seeds(seed, "short_paths", len(points))
    return [
        SimOp(label, "estimate_psi", m, pair,
              engine.SimConfig(u=u, k=K_SHORT, seed=s),
              ref if ref is not None else _stored(label, refs))
        for (label, m, pair, u, ref), s in zip(points, seeds)
    ]


def _build_long(seed: int) -> list:
    refs = load_reference()
    table1 = tables.table_spec("table1").columns[0]
    m = table1.model
    # log psi(u) = log(beta/(theta c)) - (theta - beta/c) u for Exp(theta)/Exp(beta)
    theta, beta, c = m.claim_law.rate, m.wait_law.rate, m.premium
    tail = [
        (f"tail/{family}/u={u}", m, pair, float(u),
         ("log_exact", math.log(beta / (theta * c)) - (theta - beta / c) * u))
        for family, pair in (("esscher", _pair(_esscher_at_rho(m), m)),
                             ("linear", _pair(table1.tilt_config, m)))
        for u in TAIL_U
    ]
    points = table4_points() + tail
    seeds = point_seeds(seed, "long_paths", len(points))
    ops = []
    for (label, mm, pair, u, ref), s in zip(points, seeds):
        k = K_TAIL if ref is not None else K_TABLE4
        ops.append(SimOp(label, "estimate_psi", mm, pair,
                         engine.SimConfig(u=u, k=k, seed=s),
                         ref if ref is not None else _stored(label, refs)))
    return ops


def _build_horizon(seed: int) -> list:
    table1 = tables.table_spec("table1").columns[0]
    table5 = tables.table_spec("table5").columns[0]
    specs = []
    for mlabel, m in (("Exp/Exp", table1.model), ("Exp/Ga(2,1)", table5.model)):
        crude = _pair({"family": "identity"}, m)
        essch = _pair(_esscher_at_rho(m), m)
        for u, t in HORIZON_UT:
            stem = f"horizon/{mlabel}/u={u:g},T={t:g}"
            specs.append((f"{stem}/identity", m, crude, u, t, ("pair", f"{stem}/esscher")))
            specs.append((f"{stem}/esscher", m, essch, u, t, ("pair", f"{stem}/identity")))
    seeds = point_seeds(seed, "finite_horizon", len(specs) + 1)
    ops = [
        SimOp(label, "estimate_psi_finite", m, pair,
              engine.SimConfig(u=u, k=K_HORIZON, seed=s, horizon=t), ref)
        for (label, m, pair, u, t, ref), s in zip(specs, seeds)
    ]
    m = table1.model
    ops.append(SimOp(
        f"threshold/Exp/Exp/u={THRESHOLD_U:g},b={THRESHOLD_B:g}",
        "estimate_psi_threshold", m, _pair(table1.tilt_config, m),
        engine.SimConfig(u=THRESHOLD_U, k=K_HORIZON, seed=seeds[-1], threshold=THRESHOLD_B),
        ("exact", table1.exact(m, THRESHOLD_U - THRESHOLD_B)),
    ))
    return ops


def _build_analytic(seed: int) -> list:
    # seed-independent: the analytic layer takes no random input
    table1 = tables.table_spec("table1").columns[0].model
    table5 = tables.table_spec("table5").columns[0].model
    table4_wait = tables.table_spec("table4").columns[0].model.wait_law
    eta = 0.5
    exp1 = laws.Exponential(1.0)

    def sl(claim, wait):
        return model.RiskModel.from_safety_loading(claim, wait, eta)

    c = table5.premium  # Exp(1) claims, Ga(2,1) waits:
    # (1 - r)(1 + c r)^2 = 1  <=>  c^2 r^2 + (2c - c^2) r - (2c - 1) = 0
    rho_exp_ga = (-(2 * c - c * c) + math.sqrt((2 * c - c * c) ** 2 + 4 * c * c * (2 * c - 1))) / (
        2 * c * c
    )
    return [
        CheckOp("Exp/Exp", table1, {"rho": 1.0 / 3.0, "r_m": 1.0 - math.sqrt(2.0 / 3.0)}),
        CheckOp("Ga(2,1)/Exp", sl(laws.Gamma(2.0, 1.0), exp1)),
        CheckOp("Exp/Ga(2,1)", table5, {"rho": rho_exp_ga}),
        CheckOp("Wei(2,1)/Exp", sl(laws.Weibull(2.0, 1.0), exp1)),
        CheckOp("Exp/Wei(0.375,0.5)", sl(exp1, table4_wait)),
        CheckOp("GenGa(1.5,1,2)/LN(0,0.5)",
                sl(laws.GenGamma(1.5, 1.0, 2.0), laws.LogNormal(0.0, 0.5))),
    ]


_BUILDERS = {
    "short_paths": _build_short,
    "long_paths": _build_long,
    "finite_horizon": _build_horizon,
    "analytic": _build_analytic,
}


def build(name: str, seed: int) -> Workload:
    """The set-up ``setup_s`` times: specs, models, tilts, admissibility."""
    return Workload(name, _BUILDERS[name](seed))


# -- checks -------------------------------------------------------------------


def check(wl: Workload, results) -> list[Failure]:
    """Failures among one pass's ``(output, error, seconds)`` results."""
    sims = {op.label: out for op, (out, _, _) in zip(wl.ops, results) if isinstance(op, SimOp)}
    failures = []
    for op, (out, err, _) in zip(wl.ops, results):
        if err is not None:
            f = Failure(op.label, "error", err)
        elif isinstance(op, SimOp):
            f = check_sim(op, out, sims)
        else:
            f = check_analytic(op, out)
        if f is not None:
            failures.append(f)
    return failures


def check_sim(op: SimOp, rep, by_label: dict) -> Failure | None:
    """Compare one estimate with its reference (4 combined SE)."""
    est, se, rse = rep.estimate, rep.std_error, rep.rse
    if not math.isfinite(est):
        return Failure(op.label, "degenerate", f"non-finite estimate {est!r}")
    kind, *ref = op.ref
    if kind == "pair":
        other = by_label[ref[0]]
        if other is None:
            return Failure(op.label, "error", f"cross-check partner {ref[0]} raised")
        ref_psi, ref_se = other.estimate, other.std_error
    elif kind == "stored":
        ref_psi, ref_se = ref
    else:
        ref_psi, ref_se = (math.exp(ref[0]) if kind == "log_exact" else ref[0]), 0.0
    if (ref_psi > 0 or kind == "log_exact") and not rse > 0:
        return Failure(op.label, "degenerate", f"rse={rse!r} for a positive reference")
    if kind == "log_exact":
        # psi underflows at the deep-tail reserves; SE(log est) ~ rse
        if not est > 0:
            return Failure(op.label, "degenerate", "estimate 0 for a positive reference")
        gap = abs(math.log(est) - ref[0])
        if gap > N_SE * rse:
            return Failure(op.label, "wrong",
                           f"|log est - log psi| = {gap:.4g} > {N_SE:g} * rse = {N_SE * rse:.4g}")
        return None
    band = N_SE * math.hypot(se, ref_se)
    if abs(est - ref_psi) > band:
        gap = abs(est - ref_psi)
        return Failure(op.label, "wrong",
                       f"estimate {est:.6g} vs reference {ref_psi:.6g}: gap {gap:.3g} "
                       f"> {N_SE:g} combined SE {band:.3g}")
    return None


def check_analytic(op: CheckOp, out: dict) -> Failure | None:
    rho, r_m = out["rho"], out["r_m"]
    if rho is None or r_m is None:
        return Failure(op.label, "wrong", f"no root found (rho={rho}, r_m={r_m})")
    for key, want in op.expected.items():
        if abs(out[key] - want) > RHO_TOL * max(1.0, abs(want)):
            return Failure(op.label, "wrong", f"{key}={out[key]!r}, closed form {want!r}")
    if not 0.0 < r_m < rho:
        return Failure(op.label, "wrong", f"expected 0 < r_m < rho, got r_m={r_m}, rho={rho}")
    if not out["theta_residual"] <= THETA_RESIDUAL_TOL:
        return Failure(op.label, "wrong", f"theta_of_r residual {out['theta_residual']:.3g}")
    if not out["normalization_residual"] <= NORMALIZATION_TOL:
        return Failure(op.label, "wrong",
                       f"normalization residual {out['normalization_residual']:.3g}")
    if not out["in_c_p"]:
        return Failure(op.label, "wrong", "Esscher tilt at rho judged not ruin-inducing")
    return None
