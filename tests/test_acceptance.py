"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Monte Carlo checks use fixed seeds and four-standard-error bands.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from ruinlab import (
    EsscherTilt,
    Exponential,
    Gamma,
    HazardTwist,
    IdentityTilt,
    InvGamma,
    InvWeibull,
    LinearTilt,
    LogNormal,
    Pareto,
    RiskModel,
    SimConfig,
    TargetTilt,
    Weibull,
    check_admissible,
    estimate_psi,
    exact_psi,
    hazard_r_max,
    lundberg_root,
    normalization_residuals,
    tilt_from_config,
    xi_hat,
)
from ruinlab.cli import main
from ruinlab.errors import NonFiniteMoment
from ruinlab.tables import table_spec

SEED = 20260811

# reference exact column for the exponential/exponential benchmark (table1)
TABLE1_U = (0, 1, 2, 3, 4, 5, 10, 20, 30)
TABLE1_EXACT = (
    "6.667e-01", "4.777e-01", "3.423e-01", "2.453e-01", "1.757e-01",
    "1.259e-01", "2.378e-02", "8.484e-04", "3.027e-05",
)

# reference Monte Carlo values at u = 0 for the Pareto/Weibull benchmark (table4)
TABLE4_U0_REFERENCE = {"Pa(1.5,3)": 0.8881, "Pa(2,3)": 0.9125, "Pa(2.5,3)": 0.9177}


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_exponential_benchmark():
    model = RiskModel.from_safety_loading(Exponential(1.0), Exponential(1.0), 0.5)
    t0 = time.perf_counter()
    exact = [exact_psi(model, u) for u in TABLE1_U]
    analytic_seconds = time.perf_counter() - t0
    formatted = tuple(f"{v:.3e}" for v in exact)
    exact_ok = formatted == TABLE1_EXACT and analytic_seconds < 1e-3

    pair = LinearTilt(model, 1.95 * xi_hat(model))
    t0 = time.perf_counter()
    failures = []
    rse_30 = None
    for u, psi in zip(TABLE1_U, exact):
        rep = estimate_psi(model, pair, SimConfig(u=float(u), k=100_000, seed=SEED))
        if abs(rep.estimate - psi) > 4 * rep.std_error:
            failures.append((u, rep.estimate, psi, rep.std_error))
        if u == 30:
            rse_30 = rep.rse
    runtime = time.perf_counter() - t0

    ok = exact_ok and not failures and rse_30 <= 0.01 and runtime <= 60.0
    _report(
        "1 exponential benchmark",
        ok,
        f"exact column {'ok' if exact_ok else formatted}; "
        f"{len(failures)} points outside 4 SE; rse(30)={rse_30:.4%}; "
        f"runtime={runtime:.1f}s (cap 60)",
    )


def test_criterion_2_sparre_andersen_benchmark():
    model = RiskModel.from_safety_loading(Exponential(1.0), Gamma(2.0, 1.0), 0.5)
    rho = lundberg_root(model)
    root_ok = abs(9 * rho**2 + 15 * rho - 8) <= 1e-10
    psi0 = exact_psi(model, 0.0)
    psi30 = exact_psi(model, 30.0)
    exact_ok = abs(psi0 / 0.5750 - 1) < 5e-4 and abs(psi30 / 1.670e-06 - 1) < 5e-4

    pair = HazardTwist(model, 0.9 * hazard_r_max(model, 1.0), 1.0)
    t0 = time.perf_counter()
    failures = []
    for u in TABLE1_U:
        psi = exact_psi(model, float(u))
        rep = estimate_psi(model, pair, SimConfig(u=float(u), k=100_000, seed=SEED + 2))
        if abs(rep.estimate - psi) > 4 * rep.std_error:
            failures.append((u, rep.estimate, psi, rep.std_error))
    runtime = time.perf_counter() - t0

    ok = root_ok and exact_ok and not failures and runtime <= 120.0
    _report(
        "2 Sparre Andersen benchmark",
        ok,
        f"rho={rho:.10f} (9r^2+15r-8 residual ok={root_ok}); "
        f"psi(0)={psi0:.4f}, psi(30)={psi30:.3e}; {len(failures)} points outside 4 SE; "
        f"runtime={runtime:.1f}s (cap 120)",
    )


def test_criterion_3_heavy_tail_sanity():
    failures = []
    # tables 2 and 3: compound Poisson models, so psi(0) = 1/(1+eta) = 2/3
    for name in ("table2", "table3"):
        spec = table_spec(name)
        for col in spec.columns:
            pair = tilt_from_config(col.tilt_config, col.model)
            rep = estimate_psi(col.model, pair, SimConfig(u=0.0, k=100_000, seed=SEED + 3))
            if abs(rep.estimate - 2.0 / 3.0) > 4 * rep.std_error:
                failures.append((name, col.label, rep.estimate, rep.std_error))
    # table 4 is a Sparre Andersen model: compare against reference MC values
    spec4 = table_spec("table4")
    for col in spec4.columns:
        pair = tilt_from_config(col.tilt_config, col.model)
        rep = estimate_psi(col.model, pair, SimConfig(u=0.0, k=100_000, seed=SEED + 4))
        ref = TABLE4_U0_REFERENCE[col.label]
        if abs(rep.estimate - ref) / ref > 0.05:
            failures.append(("table4", col.label, rep.estimate, ref))
    _report("3 heavy-tail sanity at u=0", not failures, f"failures={failures}")


def test_criterion_4_normalization_suite():
    exp_exp = RiskModel.from_safety_loading(Exponential(1.0), Exponential(1.0), 0.5)
    exp_ga = RiskModel.from_safety_loading(Exponential(1.0), Gamma(2.0, 1.0), 0.5)
    pa_wei = RiskModel.from_safety_loading(Pareto(1.5, 3.0), Weibull(0.375, 0.5), 0.5)
    wei_exp = RiskModel.from_safety_loading(Weibull(2.0, 1.0), Exponential(1.0), 0.5)
    ga_ga = RiskModel(Gamma(2.0, 1.0), Gamma(2.0, 1.0), 1.5)

    def linear_on(claim):
        model = RiskModel.from_safety_loading(claim, Exponential(1.0), 0.5)
        return LinearTilt(model, 1.95 * xi_hat(model))

    pairs = [
        IdentityTilt(exp_exp),
        EsscherTilt(exp_exp, lundberg_root(exp_exp)),
        EsscherTilt(exp_ga, lundberg_root(exp_ga)),
        EsscherTilt(wei_exp, 0.2),  # quadrature-normalized route
        LinearTilt(exp_exp, 1.95 * xi_hat(exp_exp)),
        linear_on(Gamma(2.0, 1.0)),
        linear_on(Weibull(0.75, 1.68)),
        linear_on(InvGamma(3.0, 4.0)),
        linear_on(InvWeibull(3.0, 1.48)),
        linear_on(LogNormal(0.0, 1.0)),
        HazardTwist(pa_wei, 0.95 * hazard_r_max(pa_wei, 1.2), 1.2),
        HazardTwist(exp_ga, 0.9 * hazard_r_max(exp_ga, 1.0), 1.0),
        HazardTwist(exp_exp, 0.55, 0.9),
        TargetTilt(ga_ga, Exponential(1.0), Exponential(1.0)),
    ]
    assert len(pairs) >= 12
    worst = 0.0
    failures = []
    for pair in pairs:
        cres, wres = normalization_residuals(pair)
        worst = max(worst, cres, wres)
        if cres > 1e-8 or wres > 1e-8:
            failures.append((pair.label(), cres, wres))
    _report(
        "4 normalization suite",
        not failures,
        f"{len(pairs)} combinations, worst residual {worst:.2e} (tol 1e-8)",
    )


def test_criterion_5_boundary_exactness():
    exp_exp = RiskModel.from_safety_loading(Exponential(1.0), Exponential(1.0), 0.5)
    pa_wei = RiskModel.from_safety_loading(Pareto(1.5, 3.0), Weibull(0.375, 0.5), 0.5)

    lin = check_admissible(LinearTilt(exp_exp, xi_hat(exp_exp)))
    lin_ok = abs(lin.lhs - lin.rhs) <= 1e-8 * abs(lin.rhs)
    hz = check_admissible(HazardTwist(pa_wei, hazard_r_max(pa_wei, 1.2), 1.2))
    hz_ok = abs(hz.lhs - hz.rhs) <= 1e-8 * abs(hz.rhs)

    # reversed exponential tilt (heavier waits, lighter claims) must be rejected
    r = 0.1
    counter = TargetTilt(exp_exp, Exponential(1.0 + r), Exponential(1.0 - r))
    counter_rejected = not check_admissible(counter).in_c_p
    identity_rejected = not check_admissible(IdentityTilt(exp_exp)).in_c_p

    ok = lin_ok and hz_ok and counter_rejected and identity_rejected
    _report(
        "5 boundary exactness",
        ok,
        f"linear |lhs-rhs|/rhs={abs(lin.lhs - lin.rhs) / lin.rhs:.2e}, "
        f"hazard {abs(hz.lhs - hz.rhs) / hz.rhs:.2e}; "
        f"counterexample rejected={counter_rejected}, identity rejected={identity_rejected}",
    )


def test_criterion_6_finite_time_oracle_equivalence():
    model = RiskModel.from_safety_loading(Exponential(1.0), Exponential(1.0), 0.5)
    crude = IdentityTilt(model)
    tilted = LinearTilt(model, 1.95 * xi_hat(model))
    failures = []
    for u in (1.0, 2.0):
        cfg = SimConfig(u=u, k=100_000, seed=SEED + 6, horizon=50.0)
        a = estimate_psi(model, crude, cfg)
        b = estimate_psi(model, tilted, cfg)
        combined = math.hypot(a.std_error, b.std_error)
        if abs(a.estimate - b.estimate) > 4 * combined:
            failures.append((u, a.estimate, b.estimate, combined))
    _report("6 finite-time oracle equivalence", not failures, f"failures={failures}")


def test_criterion_7_determinism(tmp_path):
    outs = []
    for name in ("a", "b", "c"):
        path = tmp_path / f"{name}.csv"
        assert main(["table", "table1", "--seed", "42", "--K", "10000", "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _report("7 determinism", ok, f"{len(outs)} runs byte-identical={ok}")


def test_criterion_8_tilted_law_goodness_of_fit():
    rng = np.random.default_rng(SEED + 8)
    exp_exp = RiskModel.from_safety_loading(Exponential(1.0), Exponential(1.0), 0.5)
    ga_exp = RiskModel.from_safety_loading(Gamma(2.0, 1.0), Exponential(1.0), 0.5)
    ln_exp = RiskModel.from_safety_loading(LogNormal(0.0, 1.0), Exponential(1.0), 0.5)
    pa_wei = RiskModel.from_safety_loading(Pareto(1.5, 3.0), Weibull(0.375, 0.5), 0.5)
    rho = lundberg_root(exp_exp)
    hz = HazardTwist(pa_wei, 1.2, 1.2)

    cases = {
        "linear mixture GGa": LinearTilt(ga_exp, 1.95 * xi_hat(ga_exp)).tilted_claim_law(),
        "linear mixture LN": LinearTilt(ln_exp, 1.95 * xi_hat(ln_exp)).tilted_claim_law(),
        "hazard Pareto": hz.tilted_claim_law(),
        "hazard Weibull": hz.tilted_wait_law(),
        "esscher exponential": EsscherTilt(exp_exp, rho).tilted_claim_law(),
    }
    pvalues = {}
    for name, law in cases.items():
        draws = law.sample_n(rng, 100_000)
        pvalues[name] = stats.kstest(draws, lambda x: 1.0 - law.sf(x)).pvalue
    failures = {k: p for k, p in pvalues.items() if p <= 0.01}
    detail = ", ".join(f"{k}: p={p:.3f}" for k, p in pvalues.items())
    _report("8 tilted-law goodness of fit", not failures, detail)


def test_hazard_twist_below_mean_threshold_rejected():
    # companion to criterion 5: a twist leaving the claim mean infinite cannot
    # enter the admissible class at all
    pa_wei = RiskModel.from_safety_loading(Pareto(1.5, 3.0), Weibull(0.375, 0.5), 0.5)
    with pytest.raises(NonFiniteMoment):
        check_admissible(HazardTwist(pa_wei, 0.5, 1.2))
