import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from ruinlab import (
    EsscherTilt,
    Exponential,
    Gamma,
    GenGamma,
    LogNormal,
    Pareto,
    RiskModel,
    Weibull,
    check_admissible,
    exact_psi,
    lundberg_root,
    memm_point,
    theta_of_r,
    theta_prime,
    xi_hat,
)
from ruinlab import laws, lundberg
from ruinlab.errors import (
    MgfUnavailable,
    NoBracket,
    SecondMomentInfinite,
    UnsupportedCombination,
)
from ruinlab.lundberg import exp_weighted_mean

RHO_EXP_GAMMA = (-15 + math.sqrt(513)) / 18  # positive root of 9r^2 + 15r - 8


def test_theta_at_zero_is_exact(model_exp_exp):
    sol = theta_of_r(model_exp_exp, 0.0)
    assert sol.theta == 0.0
    assert sol.y == 0.0
    assert sol.residual == 0.0


def test_theta_vanishes_at_known_roots(model_exp_exp, model_exp_gamma):
    # (1-r)(1+1.5r) = 1 has positive root 1/3
    sol = theta_of_r(model_exp_exp, 1.0 / 3.0)
    assert abs(sol.theta) < 1e-10
    # 9r^2 + 15r - 8 = 0 for exponential claims with gamma waits at c = 0.75
    sol5 = theta_of_r(model_exp_gamma, RHO_EXP_GAMMA)
    assert abs(sol5.theta) < 1e-10


def test_theta_residual_and_convexity_on_grid(model_exp_exp, model_exp_gamma):
    for model in (model_exp_exp, model_exp_gamma):
        radius = model.claim_law.mgf_radius()
        grid = np.linspace(0.0, 0.9 * radius, 41)
        thetas = []
        for r in grid:
            sol = theta_of_r(model, float(r))
            assert sol.residual <= 1e-12
            thetas.append(sol.theta)
        second = np.diff(thetas, 2)
        assert np.all(second >= -1e-9), "theta must be convex"
        assert thetas[0] == 0.0


def test_theta_prime_matches_finite_differences(model_exp_exp):
    h = 1e-6
    for r in (0.05, 0.15, 0.3):
        fd = (theta_of_r(model_exp_exp, r + h).theta - theta_of_r(model_exp_exp, r - h).theta) / (2 * h)
        assert theta_prime(model_exp_exp, r) == pytest.approx(fd, rel=1e-5)


def test_theta_of_r_brackets_roots_beyond_2_to_63():
    # M_X(r) = 1/(1-r) = 2^53 at the last float below r_X = 1, so with Exp(1e4)
    # waits y = 1e4 * (2^53 - 1), about 9.0e19: past 2^63, inside 2^199
    model = RiskModel(Exponential(1.0), Exponential(1e4), 1.5e4)
    r = math.nextafter(1.0, 0.0)
    sol = theta_of_r(model, r)
    assert sol.y > 2.0**63
    assert sol.y == pytest.approx(1e4 * (1 / (1 - r) - 1), rel=1e-12)


def test_theta_requires_valid_range(model_exp_exp):
    with pytest.raises(ValueError):
        theta_of_r(model_exp_exp, 1.0)  # r_X = 1 for Exp(1) claims
    with pytest.raises(ValueError):
        theta_of_r(model_exp_exp, -0.1)


def test_lundberg_root_exp_exp(model_exp_exp):
    rho = lundberg_root(model_exp_exp)
    assert rho == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_lundberg_root_exp_gamma(model_exp_gamma):
    rho = lundberg_root(model_exp_gamma)
    assert abs(9 * rho**2 + 15 * rho - 8) < 1e-10
    assert rho == pytest.approx(RHO_EXP_GAMMA, abs=1e-10)


def test_lundberg_root_heavy_tail_unavailable():
    model = RiskModel.from_safety_loading(Pareto(1.5, 3.0), Exponential(1.0), 0.5)
    with pytest.raises(MgfUnavailable):
        lundberg_root(model)
    model_ln = RiskModel.from_safety_loading(LogNormal(0.0, 1.0), Exponential(1.0), 0.5)
    with pytest.raises(MgfUnavailable):
        memm_point(model_ln)


# safety loading 1e6 puts the adjustment root at y = 1.07e9, where L_W(y) of
# LN(0, 0.5) waits is e^-619: tiny, and still a normal double
MODEL_GGA_LN_ETA_1E6 = RiskModel.from_safety_loading(
    GenGamma(1.5, 1.0, 2.0), LogNormal(0.0, 0.5), 1e6
)


def _lognormal_log_laplace(y, sigma):
    # log E[exp(-y W)] for W = exp(sigma N) by the trapezoid rule in u = log w,
    # summed in log space: with x = e^u the integrand is
    # exp(-y e^u - u^2 / (2 sigma^2)) / (sigma sqrt(2 pi)), smooth and
    # double-exponentially small at both ends, where the rule converges fast
    u, du = np.linspace(-60.0, 10.0, 400_001, retstep=True)
    log_f = -y * np.exp(u) - u * u / (2.0 * sigma * sigma)
    peak = log_f.max()
    return peak + math.log(np.exp(log_f - peak).sum() * du / (sigma * math.sqrt(2.0 * math.pi)))


def test_theta_of_r_at_a_large_loading_where_wait_laplace_is_tiny():
    sol = theta_of_r(MODEL_GGA_LN_ETA_1E6, 16.0)
    assert sol.y == pytest.approx(1.0748554582e9, rel=1e-9)
    want = _lognormal_log_laplace(sol.y, 0.5)  # -618.93671661005...
    assert abs(math.log(sol.wait_laplace) / want - 1.0) <= 1e-12
    assert sol.residual <= 1e-12


def test_theta_of_r_raises_when_wait_laplace_underflows(monkeypatch):
    # a wait law whose Laplace transform reads 0.0 past y = 1e3, as one below
    # the smallest double does: M_X(r) * L_W(y) = 0 does not solve the
    # adjustment equation
    laplace = LogNormal.laplace
    monkeypatch.setattr(LogNormal, "laplace", lambda law, s: 0.0 if s > 1e3 else laplace(law, s))
    with pytest.raises(NoBracket):
        theta_of_r(MODEL_GGA_LN_ETA_1E6, 16.0)


def test_memm_point_at_a_large_loading():
    mp = memm_point(MODEL_GGA_LN_ETA_1E6)
    # theta' changes sign at r_m, from about -2 to +2 within 1e-6 of it
    assert theta_prime(MODEL_GGA_LN_ETA_1E6, mp.r - 1e-6) < 0.0
    assert theta_prime(MODEL_GGA_LN_ETA_1E6, mp.r + 1e-6) > 0.0
    assert mp.r == pytest.approx(11.5909527112, rel=1e-9)


def test_memm_point_against_grid_search(model_exp_exp):
    # brute-force the adjustment function on a fine grid; the discrete minimizer
    # must sit next to the reported zero of theta'
    grid = np.linspace(1e-4, 0.999, 4001)
    thetas = [theta_of_r(model_exp_exp, float(r)).theta for r in grid]
    r_grid = float(grid[int(np.argmin(thetas))])
    mp = memm_point(model_exp_exp)
    spacing = float(grid[1] - grid[0])
    assert abs(mp.r - r_grid) <= spacing
    assert mp.residual <= 1e-10
    # closed form for this model: r_m = 1 - sqrt(2/3)
    assert mp.r == pytest.approx(1.0 - math.sqrt(2.0 / 3.0), abs=1e-9)
    assert mp.premium == pytest.approx(model_exp_exp.premium, rel=1e-9)


def test_memm_below_lundberg_root(model_exp_exp, model_exp_gamma):
    for model in (model_exp_exp, model_exp_gamma):
        assert theta_prime(model, 0.0) < 0.0
        mp = memm_point(model)
        rho = lundberg_root(model)
        assert 0.0 < mp.r < rho


def test_esscher_admissibility_interval(model_exp_exp):
    rho = lundberg_root(model_exp_exp)
    mp = memm_point(model_exp_exp)
    assert check_admissible(EsscherTilt(model_exp_exp, rho)).in_c_p
    assert check_admissible(EsscherTilt(model_exp_exp, mp.r * 1.02)).in_c_p
    assert not check_admissible(EsscherTilt(model_exp_exp, mp.r * 0.95)).in_c_p


def test_xi_hat_examples(model_exp_exp):
    assert xi_hat(model_exp_exp) == pytest.approx(-0.25, rel=1e-12)
    model = RiskModel.from_safety_loading(Pareto(1.5, 3.0), Exponential(1.0), 0.5)
    with pytest.raises(SecondMomentInfinite):
        xi_hat(model)
    model_w = RiskModel.from_safety_loading(Exponential(1.0), Gamma(2.0, 1.0), 0.5)
    with pytest.raises(UnsupportedCombination):
        xi_hat(model_w)


def test_exact_psi_exponential_waits_values(model_exp_exp):
    assert exact_psi(model_exp_exp, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert exact_psi(model_exp_exp, 10.0) == pytest.approx(2.378e-2, rel=1e-3)
    assert exact_psi(model_exp_exp, 30.0) == pytest.approx(3.027e-5, rel=1e-3)
    with pytest.raises(UnsupportedCombination):
        exact_psi(
            RiskModel.from_safety_loading(Gamma(2.0, 1.0), Exponential(1.0), 0.5), 1.0
        )


def test_exact_psi_general_waits_values(model_exp_gamma):
    assert exact_psi(model_exp_gamma, 0.0) == pytest.approx(0.5750, abs=5e-5)
    assert exact_psi(model_exp_gamma, 20.0) == pytest.approx(1.171e-4, rel=1e-3)
    assert exact_psi(model_exp_gamma, 30.0) == pytest.approx(1.670e-6, rel=1e-3)


def test_exact_formulas_agree_for_exponential_waits():
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = float(rng.uniform(0.3, 3.0))
        beta = float(rng.uniform(0.3, 3.0))
        eta = float(rng.uniform(0.05, 1.5))
        u = float(rng.uniform(0.0, 20.0))
        model = RiskModel.from_safety_loading(Exponential(theta), Exponential(beta), eta)
        a = exact_psi(model, u)
        # the general-wait formula, with rho from the root solver
        rho = lundberg_root(model)
        b = (1.0 - rho / theta) * math.exp(-rho * u)
        assert b == pytest.approx(a, rel=1e-9)


def test_lundberg_root_weibull_claims():
    # steep Weibull claims have an everywhere-finite mgf; the root must still exist
    model = RiskModel.from_safety_loading(Weibull(2.0, 1.0), Exponential(1.0), 0.5)
    rho = lundberg_root(model)
    assert rho is not None and rho > 0
    sol = theta_of_r(model, rho)
    assert abs(sol.theta) < 1e-8


@pytest.mark.parametrize("eta", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize(
    "claim, wait",
    [
        (Exponential(1.0), Weibull(0.375, 0.5)),
        (GenGamma(1.5, 1.0, 2.0), LogNormal(0.0, 0.5)),
        (Weibull(2.0, 1.0), Exponential(1.0)),
    ],
    ids=["Exp/Wei(0.375,0.5)", "GenGa(1.5,1,2)/LN(0,0.5)", "Wei(2,1)/Exp"],
)
def test_rho_and_r_m_at_small_safety_loadings(claim, wait, eta):
    # near r = 0, |phi| shrinks like eta^2 and only the quadrature's accuracy
    # keeps its sign: the heavy Weibull waits are integrated over their
    # standard exponential, where the Laplace transform is smooth
    model = RiskModel.from_safety_loading(claim, wait, eta)
    rho = lundberg_root(model)
    mp = memm_point(model)
    assert rho is not None and mp is not None
    assert 0.0 < mp.r < rho
    assert theta_prime(model, rho) > 0.0
    assert abs(theta_of_r(model, rho).theta) <= 1e-10


@pytest.mark.parametrize("eta", [1e-5, 3e-6, 1e-6])
def test_small_loading_root_approaches_diffusion_limit(eta):
    # as eta -> 0, rho -> 2(c E[W] - E[X]) / Var(X - cW); the O(eta) correction
    # is about 2e-5 relative here, and a root lost in quadrature noise reads
    # percents low (|phi| on (0, rho) is of order eta^2 / 25)
    claim, wait = Exponential(1.0), Weibull(0.375, 0.5)
    model = RiskModel.from_safety_loading(claim, wait, eta)
    rho = lundberg_root(model)
    mp = memm_point(model)
    assert rho is not None and mp is not None
    assert 0.0 < mp.r < rho
    c = model.premium
    var_x = claim.raw_moment(2.0) - claim.mean() ** 2
    var_w = wait.raw_moment(2.0) - wait.mean() ** 2
    limit = 2.0 * (c * wait.mean() - claim.mean()) / (eta * (var_x + c * c * var_w))
    assert abs(rho / eta / limit - 1.0) <= 2e-4


def test_gengamma_spike_root_matches_the_same_law_as_gamma():
    # GGa(1, 1e-13, 1e14) is Ga(1e14, 1e13): a density 1e-6 wide at x = 10,
    # between its knots at the median and the 0.999 quantile; the gamma form
    # has a closed-form mgf
    spike = RiskModel.from_safety_loading(GenGamma(1.0, 1e-13, 1e14), Exponential(1.0), 0.5)
    gamma = RiskModel.from_safety_loading(Gamma(1e14, 1e13), Exponential(1.0), 0.5)
    assert abs(lundberg_root(spike) / lundberg_root(gamma) - 1.0) <= 1e-8


@pytest.mark.parametrize("eta", [1e-4, 1e-2, 0.5, 5.0, 50.0, 1e6])
def test_exp_exp_roots_match_closed_forms(eta):
    model = RiskModel.from_safety_loading(Exponential(1.0), Exponential(1.0), eta)
    assert lundberg_root(model) == pytest.approx(eta / (1.0 + eta), rel=0, abs=5e-12)
    assert memm_point(model).r == pytest.approx(
        1.0 - (1.0 + eta) ** -0.5, rel=0, abs=5e-12
    )


def test_exp_weighted_mean_is_inf_past_the_mgf_radius():
    for law in (Exponential(1.0), Gamma(2.0, 1.0)):
        assert exp_weighted_mean(law, 1.0) == math.inf
        assert exp_weighted_mean(law, 1.5) == math.inf
    # a Pareto law's mgf has radius 0: any t > 0 is past it
    assert exp_weighted_mean(Pareto(2.5, 3.0), 1e-9) == math.inf


def test_root_solves_raise_no_bracket(monkeypatch, model_exp_exp):
    with pytest.raises(NoBracket, match="already positive"):
        lundberg._climb_to_root(lambda r: 1.0, 0.0, 1.0)
    # a theta' that jumps from -1 to 1 at r = 0.3 has no zero: the bracketed
    # point leaves a residual of 1
    monkeypatch.setattr(lundberg, "theta_prime", lambda model, r: -1.0 if r < 0.3 else 1.0)
    with pytest.raises(NoBracket, match="did not converge"):
        memm_point(model_exp_exp)


@pytest.mark.parametrize("y", [0.01, 1.0, 40.0])
def test_weibull_tilted_wait_mean_matches_x_space(y):
    # E[W exp(-yW)] for the table4 waits against x-space quadrature of the
    # density, split at the law's median and 0.999 quantile
    law = Weibull(0.375, 0.5)
    knots = [0.0, *(law.scale * math.log(v) ** (1.0 / law.shape) for v in (2.0, 1000.0)),
             math.inf]
    ref = sum(
        quad(lambda x: x * math.exp(-y * x) * math.exp(law.logpdf(x)), a, b, epsabs=1e-14,
             epsrel=1e-11, limit=200)[0]
        for a, b in zip(knots[:-1], knots[1:])
    )
    assert abs(exp_weighted_mean(law, -y) / ref - 1.0) <= 1e-10


def test_memm_point_quadrature_budget(monkeypatch, model_exp_weibull):
    # every Weibull Laplace transform and tilted moment is one quadrature
    calls = []
    inner = laws.expectation

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(laws, "expectation", counted)
    monkeypatch.setattr(lundberg, "expectation", counted)
    memm_point(model_exp_weibull)
    assert len(calls) <= 300
    for r in (0.02, 0.1, 0.3, 0.6, 0.78):
        assert theta_of_r(model_exp_weibull, r).residual <= 1e-12


def _scipy_brentq(fn, lo, hi):
    return brentq(fn, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


# the six models of perfbench's analytic workload, all at safety loading 1/2
ANALYTIC_MODELS = {
    name: RiskModel.from_safety_loading(claim, wait, 0.5)
    for name, claim, wait in [
        ("Exp/Exp", Exponential(1.0), Exponential(1.0)),
        ("Ga(2,1)/Exp", Gamma(2.0, 1.0), Exponential(1.0)),
        ("Exp/Ga(2,1)", Exponential(1.0), Gamma(2.0, 1.0)),
        ("Wei(2,1)/Exp", Weibull(2.0, 1.0), Exponential(1.0)),
        ("Exp/Wei(0.375,0.5)", Exponential(1.0), Weibull(0.375, 0.5)),
        ("GenGa(1.5,1,2)/LN(0,0.5)", GenGamma(1.5, 1.0, 2.0), LogNormal(0.0, 0.5)),
    ]
}


def _analytic_outputs(model):
    rho = lundberg_root(model)
    thetas = [theta_of_r(model, f * rho) for f in (0.25, 0.5, 0.75)]
    return rho, memm_point(model), thetas


@pytest.mark.parametrize("name", list(ANALYTIC_MODELS))
def test_brent_port_matches_scipy_brentq_on_analytic_models(monkeypatch, name):
    model = ANALYTIC_MODELS[name]
    ours = _analytic_outputs(model)
    monkeypatch.setattr(lundberg, "_refine_root", _scipy_brentq)
    reference = _analytic_outputs(model)
    assert ours[0] is not None
    assert ours == reference  # exact: the port takes brentq's steps


@pytest.mark.parametrize(
    "fn, lo, hi",
    [
        (lambda x: x**3 - 2.0, 0.0, 2.0),
        (lambda x: math.exp(x) - 3.0, 0.0, 5.0),
        (lambda x: x - 1.0, 0.0, 1.0),  # exactly 0 at the upper end
        (lambda x: x, 0.0, 1.0),  # exactly 0 at the lower end
        (lambda x: math.tanh(40.0 * (x - 0.3)) + 1e-9, -1.0, 2.0),
        (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),  # f(lo) * f(hi) underflows
    ],
    ids=["cubic", "exp", "zero_at_hi", "zero_at_lo", "steep_tanh", "tiny_values"],
)
def test_brent_port_matches_scipy_brentq_on_closed_forms(fn, lo, hi):
    assert lundberg._refine_root(fn, lo, hi) == _scipy_brentq(fn, lo, hi)


def test_brent_port_returns_a_zero_end():
    assert lundberg._refine_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    assert lundberg._refine_root(lambda x: x, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("solve", [lundberg._refine_root, _scipy_brentq], ids=["port", "scipy"])
@pytest.mark.parametrize(
    "fn, lo, hi, error",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),  # ends of one sign
        (lambda x: math.nan if 0.25 < x < 0.75 else x - 0.5, 0.0, 1.0, ValueError),
        (lambda x: -1.0 if x < 0.0 else 1.0, -1e300, 1e300, RuntimeError),
    ],
    ids=["same_sign", "nan", "no_convergence"],
)
def test_brent_port_raises_as_scipy_brentq(solve, fn, lo, hi, error):
    with pytest.raises(error):
        solve(fn, lo, hi)
