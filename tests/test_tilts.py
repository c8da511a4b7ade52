import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from ruinlab import (
    EsscherTilt,
    Exponential,
    Gamma,
    GenGamma,
    HazardTwist,
    IdentityTilt,
    InvGamma,
    InvWeibull,
    LinearTilt,
    LogNormal,
    Mixture,
    Pareto,
    RiskModel,
    TargetTilt,
    Weibull,
    check_admissible,
    expectation,
    hazard_r_max,
    hazard_twisted,
    lundberg_root,
    normalization_residuals,
    require_ruin_inducing,
    size_biased,
    tilt_from_config,
    xi_hat,
)
from ruinlab.errors import (
    ConfigError,
    DomainError,
    NonFiniteMoment,
    NotRuinInducing,
    UnsupportedCombination,
)
from ruinlab.lundberg import theta_prime
from ruinlab.tables import table_spec

GRID = np.linspace(0.05, 12.0, 80)


# -- pointwise evaluation ------------------------------------------------------


def test_esscher_at_zero_is_identity(model_exp_exp):
    pair = EsscherTilt(model_exp_exp, 0.0)
    assert np.allclose(pair.gamma(GRID), 0.0)
    assert np.allclose(pair.delta(GRID), 0.0)
    assert pair.tilted_claim_law() == model_exp_exp.claim_law
    assert pair.tilted_wait_law() == model_exp_exp.wait_law


def test_linear_gamma_formula(model_exp_exp):
    pair = LinearTilt(model_exp_exp, -1.0)
    assert float(pair.gamma(1.0)) == pytest.approx(0.0, abs=1e-15)
    # direct substitution: ln((1 - xi x)/(1 - xi E[X]))
    xi = -0.4875
    pair2 = LinearTilt(model_exp_exp, xi)
    expected = np.log((1 - xi * GRID) / (1 - xi * 1.0))
    assert np.allclose(pair2.gamma(GRID), expected, rtol=1e-12)
    # delta is affine with slope xi * beta * E[X]
    expected_d = math.log1p(-xi) + xi * GRID
    assert np.allclose(pair2.delta(GRID), expected_d, rtol=1e-12)


def test_hazard_identity_case(model_pareto_weibull):
    pair = HazardTwist(model_pareto_weibull, 1.0, 1.0)
    assert np.allclose(pair.gamma(GRID), 0.0)
    assert np.allclose(pair.delta(GRID), 0.0)
    assert pair.tilted_claim_law() == model_pareto_weibull.claim_law


def test_hazard_pareto_formula(model_pareto_weibull):
    r = 1.2
    pair = HazardTwist(model_pareto_weibull, r, 1.0)
    a, b = 1.5, 3.0
    expected = math.log(r) - a * (r - 1.0) * np.log1p(GRID / b)
    assert np.allclose(pair.gamma(GRID), expected, rtol=1e-12)


def test_domain_validation(model_exp_exp):
    for pair in (IdentityTilt(model_exp_exp), EsscherTilt(model_exp_exp, 0.2),
                 LinearTilt(model_exp_exp, -0.4875)):
        with pytest.raises(DomainError):
            pair.gamma(np.array([1.0, -0.5]))
        with pytest.raises(DomainError):
            pair.delta(-1.0)


def test_claim_mgf_is_computed_once_per_adjustment_solve(monkeypatch):
    # theta_prime and EsscherTilt read M_X(r) from theta_of_r's solution
    # instead of integrating it again
    model = RiskModel.from_safety_loading(Weibull(2.0, 1.0), Exponential(1.0), 0.5)
    mgf, calls = Weibull.mgf, []
    monkeypatch.setattr(Weibull, "mgf", lambda law, t: calls.append(t) or mgf(law, t))
    theta_prime(model, 0.3)
    assert calls == [0.3]
    calls.clear()
    pair = EsscherTilt(model, 0.3)
    assert calls == [0.3]
    assert pair.adjustment.claim_mgf == mgf(model.claim_law, 0.3)


def test_path_log_weight_matches_pointwise(model_exp_exp, model_pareto_weibull, rng):
    x = rng.uniform(0.1, 5.0, 64)
    w = rng.uniform(0.1, 5.0, 64)
    pairs = [
        IdentityTilt(model_exp_exp),
        EsscherTilt(model_exp_exp, 0.25),
        LinearTilt(model_exp_exp, -0.4875),
        HazardTwist(model_pareto_weibull, 0.9, 1.2),
        TargetTilt(model_exp_exp, Gamma(2.0, 2.0), Exponential(1.3)),
    ]
    for pair in pairs:
        direct = [float(np.sum(pair.gamma(x[a:b])) + np.sum(pair.delta(w[a:b])))
                  for a, b in ((0, 10), (10, 11), (11, 64))]
        got = pair.path_log_weight(x, w, [0, 10, 11])
        assert got.shape == (3,)
        assert got == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("kind", ["identity", "esscher", "linear", "hazard", "from_target"])
def test_block_path_log_weight_equals_row_calls(model_exp_exp, model_pareto_weibull, kind):
    # the engine weighs a block's rows laid end to end in one segmented call;
    # each segment must be bit-identical to that segment weighed alone
    pair = {
        "identity": IdentityTilt(model_exp_exp),
        "esscher": EsscherTilt(model_exp_exp, 0.25),
        "linear": LinearTilt(model_exp_exp, -0.4875),
        "hazard": HazardTwist(model_pareto_weibull, 0.9, 1.2),
        "from_target": TargetTilt(model_exp_exp, Gamma(2.0, 2.0), Exponential(1.3)),
    }[kind]
    rng = np.random.default_rng(17)
    lengths = [1, 7, 8, 9, 127, 128, 129, 300, 1000]
    for order in (lengths, lengths[::-1]):  # each segment at two offsets
        starts = np.cumsum(order) - order
        x = rng.uniform(0.1, 5.0, 2 * sum(order))
        w = rng.uniform(0.1, 5.0, 2 * sum(order))
        for xs, ws in (
            (x[::2].copy(), w[::2].copy()),  # contiguous
            (x[::2], w[::2]),  # strided view
        ):
            whole = pair.path_log_weight(xs, ws, starts)
            alone = [
                pair.path_log_weight(xs[a : a + n], ws[a : a + n], [0])
                for a, n in zip(starts, order)
            ]
            assert all(one.shape == (1,) for one in alone)
            assert np.array_equal(whole, np.concatenate(alone)), (kind, order[0])


def _reduced_form(pair, x, w):
    """Terms of each family's reduced form of sum(gamma(x)) + sum(delta(w))."""
    n = len(x)
    m = pair.model
    if pair.variant == "esscher":
        ln_mx = math.log(m.claim_law.mgf(pair.r))
        ln_lw = math.log(pair.adjustment.wait_laplace)
        return [pair.r * x.sum(), -pair.y * w.sum(), -n * (ln_mx + ln_lw)]
    if pair.variant == "linear":
        beta = m.wait_law.rate
        return [np.log1p(-pair.xi * x).sum(), pair.xi * beta * m.claim_mean * w.sum()]
    assert pair.variant == "hazard"
    terms = []  # a component twisted by 1 is untouched and may have no hazard
    for p, law, v in ((pair.r, m.claim_law, x), (pair.theta, m.wait_law, w)):
        if p != 1.0:
            terms += [n * math.log(p), -(p - 1.0) * law.cumulative_hazard(v).sum()]
    return terms


def test_log_weight_matches_reduced_forms():
    # the pointwise sum against each family's algebraically reduced form, on
    # paths drawn from every table model (and Esscher at rho where M_X exists)
    pairs = []
    for name in ("table1", "table2", "table3", "table4", "table5"):
        for col in table_spec(name).columns:
            pairs.append(tilt_from_config(col.tilt_config, col.model))
            if name in ("table1", "table5") or col.label == "Ga(2,1)":
                pairs.append(EsscherTilt(col.model, lundberg_root(col.model)))
    assert {p.variant for p in pairs} == {"esscher", "linear", "hazard"}
    rng = np.random.default_rng(29)
    lengths = np.array([1, 9, 128, 1000])
    starts = np.cumsum(lengths) - lengths
    for pair in pairs:
        x = pair.model.claim_law.sample_n(rng, int(lengths.sum()))
        w = pair.model.wait_law.sample_n(rng, int(lengths.sum()))
        got = pair.path_log_weight(x, w, starts)
        for g, a, n in zip(got, starts, lengths):
            terms = _reduced_form(pair, x[a : a + n], w[a : a + n])
            # relative to the terms' scale: a path's terms may cancel to near 0
            assert abs(g - sum(terms)) <= 1e-12 * sum(map(abs, terms)), (pair.label(), n)


@pytest.mark.parametrize("name, col", [("table4", 0), ("table4", 1), ("table4", 2), ("table5", 0)])
def test_hazard_weights_from_std_exp_match_pointwise(name, col):
    # a twisted draw Z = T_f(E) has H(Z) = E / f, so weighing E is weighing Z:
    # per step, ln f - (1 - 1/f) E against gamma(Z) + delta(W), on draws from
    # the tilted laws and at E = 36.7 (a uniform within 2^-53 of 1) and 2^-53
    col = table_spec(name).columns[col]
    pair = tilt_from_config(col.tilt_config, col.model)
    assert pair.weighs_std_exp == (True, name == "table4")  # table5 leaves Ga(2,1) waits
    rng = np.random.default_rng(37)
    edge = np.array([36.7, 2.0**-53])
    draws = []
    scale = 1.0  # of the terms ln f and (f - 1) H that gamma + delta adds up
    for law, std_exp, f, base in zip((pair.tilted_claim_law(), pair.tilted_wait_law()),
                                     pair.weighs_std_exp, (pair.r, pair.theta),
                                     (pair.model.claim_law, pair.model.wait_law)):
        if std_exp:
            z, e = law.sample_n(rng, 100_000, return_std_exp=True)
            z, e = np.append(z, law._from_std_exp(edge)), np.append(e, edge)
            scale = scale + abs(math.log(f)) + abs(f - 1.0) * base.cumulative_hazard(z)
            draws.append((z, e))
        else:
            draws.append((law.sample_n(rng, 100_000 + edge.size), None))
    (x, ex), (w, ew) = draws
    steps = np.arange(x.size)  # one step per segment
    got = pair.path_log_weight(x, w, steps, ex, ew)
    g, d = pair.gamma(x), pair.delta(w)
    assert np.all(np.abs(got - (g + d)) <= 2e-15 * scale)
    # without E the pair weighs the draws, as every other family does
    assert np.array_equal(pair.path_log_weight(x, w, steps), g + d)


# -- tilted laws ---------------------------------------------------------------


def test_size_biased_families():
    assert size_biased(Exponential(2.0)) == Gamma(2.0, 2.0)
    assert size_biased(Gamma(2.0, 1.0)) == Gamma(3.0, 1.0)
    assert size_biased(LogNormal(0.0, 1.0)) == LogNormal(1.0, 1.0)
    assert size_biased(Weibull(0.75, 1.68)) == GenGamma(0.75, 1.68, 1.0 + 4.0 / 3.0)
    assert size_biased(InvGamma(3.0, 4.0)) == InvGamma(2.0, 4.0)
    assert size_biased(InvWeibull(3.0, 1.48)) == GenGamma(-3.0, 1.48, 1.0 - 1.0 / 3.0)
    with pytest.raises(UnsupportedCombination):
        size_biased(Pareto(3.0, 1.0))
    # density of the size-biased law is x f(x) / E[X]
    for law in (Gamma(2.0, 1.0), LogNormal(0.0, 1.0), Weibull(0.75, 1.68)):
        sb = size_biased(law)
        assert np.allclose(
            np.exp(sb.logpdf(GRID)), GRID * np.exp(law.logpdf(GRID)) / law.mean(), rtol=1e-10
        )


def test_linear_mixture_weights_match_gamma_function_form():
    # generalized-gamma claims: weights G(p)/(G(p) - xi b G(p+1/a)) and the complement
    law = GenGamma(0.75, 1.68, 1.0)
    model = RiskModel.from_safety_loading(law, Exponential(1.0), 0.5)
    xi = 1.95 * xi_hat(model)
    pair = LinearTilt(model, xi)
    mix = pair.tilted_claim_law()
    a, b, p = 0.75, 1.68, 1.0
    g_p = math.exp(gammaln(p))
    g_pt = math.exp(gammaln(p + 1.0 / a))
    denom = g_p - xi * b * g_pt
    assert isinstance(mix, Mixture)
    assert mix.components[0] == law
    assert mix.components[1] == GenGamma(a, b, p + 1.0 / a)
    assert mix.weights[0] == pytest.approx(g_p / denom, rel=1e-12)
    assert mix.weights[1] == pytest.approx(-xi * b * g_pt / denom, rel=1e-12)
    # interarrival law: Exp(beta * (1 - xi b G(p+1/a)/G(p)))
    qw = pair.tilted_wait_law()
    assert qw.rate == pytest.approx(1.0 - xi * b * g_pt / g_p, rel=1e-12)


def test_linear_lognormal_size_bias():
    model = RiskModel.from_safety_loading(LogNormal(0.0, 1.0), Exponential(1.0), 0.5)
    pair = LinearTilt(model, 1.95 * xi_hat(model))
    mix = pair.tilted_claim_law()
    assert mix.components[1] == LogNormal(1.0, 1.0)


def test_linear_requires_exponential_waits(model_exp_gamma):
    with pytest.raises(UnsupportedCombination):
        LinearTilt(model_exp_gamma, -0.1)


def test_hazard_twisted_families():
    pa = hazard_twisted(Pareto(1.5, 3.0), 1.2)
    assert isinstance(pa, Pareto)
    assert pa.shape == pytest.approx(1.8, rel=1e-15) and pa.scale == 3.0
    assert hazard_twisted(Exponential(1.0), 0.6) == Exponential(0.6)
    tw = hazard_twisted(Weibull(0.375, 0.5), 1.2)
    assert tw == Weibull(0.375, 0.5 * 1.2 ** (-1.0 / 0.375))
    with pytest.raises(UnsupportedCombination):
        hazard_twisted(Gamma(2.0, 1.0), 1.2)
    # twisting raises the survival function to the given power
    law = Pareto(1.5, 3.0)
    assert np.allclose(hazard_twisted(law, 1.2).sf(GRID), law.sf(GRID) ** 1.2, rtol=1e-12)


def test_hazard_gamma_waits_untwisted(model_exp_gamma):
    # theta = 1 leaves the gamma waits untouched, so no closed hazard is needed
    pair = HazardTwist(model_exp_gamma, 0.6, 1.0)
    assert pair.tilted_wait_law() == model_exp_gamma.wait_law
    assert pair.tilted_claim_law() == Exponential(0.6)
    with pytest.raises(UnsupportedCombination):
        HazardTwist(model_exp_gamma, 0.6, 1.2)  # twisting gamma waits is unsupported


def test_esscher_tilted_laws(model_exp_exp, model_exp_gamma):
    rho = lundberg_root(model_exp_exp)
    pair = EsscherTilt(model_exp_exp, rho)
    assert pair.tilted_claim_law() == Exponential(1.0 - rho)
    assert pair.tilted_wait_law() == Exponential(1.0 + pair.y)
    rho5 = lundberg_root(model_exp_gamma)
    pair5 = EsscherTilt(model_exp_gamma, rho5)
    qw = pair5.tilted_wait_law()
    assert isinstance(qw, Gamma) and qw.rate == pytest.approx(1.0 + pair5.y, rel=1e-12)
    mg = RiskModel.from_safety_loading(Gamma(2.0, 1.0), Exponential(1.0), 0.5)
    assert EsscherTilt(mg, 0.2).tilted_claim_law() == Gamma(2.0, 0.8)
    # Weibull claims have an mgf but no closed-form tilted family
    mw = RiskModel.from_safety_loading(Weibull(2.0, 1.0), Exponential(1.0), 0.5)
    with pytest.raises(UnsupportedCombination):
        EsscherTilt(mw, 0.1).tilted_claim_law()


# -- admissibility -------------------------------------------------------------


def test_identity_never_admissible(model_exp_exp):
    report = check_admissible(IdentityTilt(model_exp_exp))
    assert not report.in_c_p
    assert report.lhs == pytest.approx(1.5)
    assert report.rhs == pytest.approx(1.0)


def test_reversed_esscher_counterexample(model_exp_exp):
    # gamma = -r x - ln M_X(-r), delta = r w - ln M_W(r): both normalized, yet
    # the tilted model keeps a profitable drift, so the pair must be rejected
    r = 0.1
    pair = TargetTilt(model_exp_exp, Exponential(1.0 + r), Exponential(1.0 - r))
    grid = GRID
    assert np.allclose(
        pair.gamma(grid), -r * grid - math.log(1.0 / (1.0 + r)), rtol=1e-10
    )
    report = check_admissible(pair)
    assert not report.in_c_p
    assert report.lhs == pytest.approx(1.5 / 0.9, rel=1e-12)
    assert report.rhs == pytest.approx(1.0 / 1.1, rel=1e-12)


def test_linear_boundary_equality(model_exp_exp):
    pair = LinearTilt(model_exp_exp, xi_hat(model_exp_exp))
    report = check_admissible(pair)
    assert report.in_c_p
    assert report.lhs == pytest.approx(report.rhs, rel=1e-10)
    # strictly beyond the boundary: admissible with slack
    inside = check_admissible(LinearTilt(model_exp_exp, 1.95 * xi_hat(model_exp_exp)))
    assert inside.in_c_p and inside.lhs < inside.rhs
    # between the boundary and zero: not admissible
    outside = check_admissible(LinearTilt(model_exp_exp, 0.5 * xi_hat(model_exp_exp)))
    assert not outside.in_c_p


def test_hazard_boundary_equality(model_pareto_weibull):
    theta = 1.2
    r_max = hazard_r_max(model_pareto_weibull, theta)
    report = check_admissible(HazardTwist(model_pareto_weibull, r_max, theta))
    assert report.lhs == pytest.approx(report.rhs, rel=1e-8)
    assert check_admissible(
        HazardTwist(model_pareto_weibull, 0.95 * r_max, theta)
    ).in_c_p


def test_hazard_boundary_weibull_claims():
    # Wei(2,1) claims, Exp(1) waits: c E[W_theta] = E[X] / (0.8 theta), and a
    # twist r scales the claim mean by r^(-1/2), so r_max = 0.8^2 at theta = 1.2
    model = RiskModel.from_safety_loading(Weibull(2.0, 1.0), Exponential(1.0), 0.5)
    r_max = hazard_r_max(model, 1.2)
    assert r_max == pytest.approx(0.64, rel=1e-15)
    report = check_admissible(HazardTwist(model, r_max, 1.2))
    assert report.lhs == pytest.approx(report.rhs, rel=1e-15)
    # on the boundary the tilted drift is zero; inside it the pair runs
    with pytest.raises(NotRuinInducing):
        require_ruin_inducing(HazardTwist(model, r_max, 1.2))
    require_ruin_inducing(HazardTwist(model, 0.95 * r_max, 1.2))


def test_hazard_region_bounds_consistency(model_pareto_weibull):
    # closed form for Pareto claims with Weibull waits
    a, b = 1.5, 3.0
    ew = model_pareto_weibull.wait_mean
    c = model_pareto_weibull.premium
    theta = 1.2
    alpha = 0.375
    expected = (1.0 + b * theta ** (1.0 / alpha) / (c * ew)) / a
    assert hazard_r_max(model_pareto_weibull, theta) == pytest.approx(expected, rel=1e-12)


def test_hazard_boundary_cross_checked_by_quadrature(model_pareto_weibull):
    # independent of the closed-form means: both sides evaluated by quadrature
    theta = 1.2
    r_max = hazard_r_max(model_pareto_weibull, theta)
    pair = HazardTwist(model_pareto_weibull, r_max, theta)
    rhs = expectation(model_pareto_weibull.claim_law, lambda x: np.log(x) + pair.gamma(x))
    lhs = model_pareto_weibull.premium * expectation(
        model_pareto_weibull.wait_law, lambda w: np.log(w) + pair.delta(w)
    )
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_weibull_wait_normalization_residuals_to_1e14(model_exp_weibull):
    # Wei(0.375, 0.5) waits: Esscher at rho on Exp claims and the table4 pairs;
    # integrating over the density's x^-0.625 singularity leaves about 1e-12
    pairs = [EsscherTilt(model_exp_weibull, lundberg_root(model_exp_weibull))]
    for col in table_spec("table4").columns:
        pairs.append(tilt_from_config(col.tilt_config, col.model))
    for pair in pairs:
        _, wait_res = normalization_residuals(pair)
        assert wait_res <= 1e-14, (pair.label(), wait_res)


def test_pareto_claim_residual_past_transform_overflow():
    # the twisted Pareto's integrand reaches e where T(e) = b expm1(e/a)
    # overflows; there it is 0, not inf
    col = table_spec("table4").columns[0]
    assert col.label == "Pa(1.5,3)"
    pair = tilt_from_config(col.tilt_config, col.model)
    claim_res, _ = normalization_residuals(pair)
    assert math.isfinite(claim_res) and claim_res <= 1e-14


def test_nonfinite_tilted_moment_raises(model_pareto_weibull):
    # r <= 1/a leaves the twisted Pareto without a mean
    pair = HazardTwist(model_pareto_weibull, 0.5, 1.2)
    with pytest.raises(NonFiniteMoment):
        check_admissible(pair)
    # theta = 0.5 leaves Pa(1.5, 3) waits without a mean: no twist boundary
    model = RiskModel.from_safety_loading(Exponential(1.0), Pareto(1.5, 3.0), 0.5)
    with pytest.raises(NonFiniteMoment):
        hazard_r_max(model, 0.5)


def test_monotone_pairs_inside_the_boundary_are_admissible(model_exp_exp):
    # increasing gamma with decreasing delta (heavier claims, faster arrivals)
    rho = lundberg_root(model_exp_exp)
    monotone_pairs = [
        EsscherTilt(model_exp_exp, rho),
        LinearTilt(model_exp_exp, 1.95 * xi_hat(model_exp_exp)),
        HazardTwist(model_exp_exp, 0.5, 1.2),
    ]
    for pair in monotone_pairs:
        assert check_admissible(pair).in_c_p, pair.label()


# -- from-target construction --------------------------------------------------


def test_from_target_identity_case(model_exp_exp):
    pair = TargetTilt(model_exp_exp, Exponential(1.0), Exponential(1.0))
    assert np.allclose(pair.gamma(GRID), 0.0, atol=1e-14)
    assert np.allclose(pair.delta(GRID), 0.0, atol=1e-14)


def test_from_target_gamma_to_exponential(rng):
    model = RiskModel(Gamma(2.0, 1.0), Gamma(2.0, 1.0), 1.5)
    pair = TargetTilt(model, Exponential(1.0), Exponential(1.0))
    draws = pair.tilted_claim_law().sample_n(rng, 100_000)
    assert stats.kstest(draws, stats.expon.cdf).pvalue > 0.01
    cres, wres = normalization_residuals(pair)
    assert cres < 1e-8 and wres < 1e-8


def test_from_target_admissibility_by_means():
    # target claim mean 2 and wait mean 1 against c = 1.5: 1.5 * 1 <= 2
    model = RiskModel(Gamma(2.0, 1.0), Gamma(2.0, 1.0), 1.5)
    pair = TargetTilt(model, Gamma(2.0, 1.0), Exponential(1.0))
    report = check_admissible(pair)
    assert report.in_c_p
    assert report.lhs == pytest.approx(1.5)
    assert report.rhs == pytest.approx(2.0)


# -- config parsing ------------------------------------------------------------


def test_tilt_config_factors_resolve(model_exp_exp, model_pareto_weibull):
    lin = tilt_from_config(
        {"family": "linear", "params": {"xi_factor": 1.95}}, model_exp_exp
    )
    assert lin.xi == pytest.approx(1.95 * xi_hat(model_exp_exp), rel=1e-12)
    hz = tilt_from_config(
        {"family": "hazard", "params": {"theta": 1.2, "r_factor": 0.95}},
        model_pareto_weibull,
    )
    assert hz.r == pytest.approx(0.95 * hazard_r_max(model_pareto_weibull, 1.2), rel=1e-12)
    es = tilt_from_config({"family": "esscher", "params": {"r": 0.25}}, model_exp_exp)
    assert es.r == 0.25
    ft = tilt_from_config(
        {
            "family": "from_target",
            "params": {
                "claim": {"family": "exp", "params": {"rate": 0.5}},
                "wait": {"family": "exp", "params": {"rate": 1.0}},
            },
        },
        model_exp_exp,
    )
    assert ft.target_claim == Exponential(0.5)


def test_tilt_config_errors(model_exp_exp):
    with pytest.raises(ConfigError):
        tilt_from_config({"family": "unknown"}, model_exp_exp)
    with pytest.raises(ConfigError):
        tilt_from_config({"family": "linear", "params": {}}, model_exp_exp)
    with pytest.raises(ConfigError):
        tilt_from_config(
            {"family": "linear", "params": {"xi": -0.1, "xi_factor": 1.0}}, model_exp_exp
        )
    with pytest.raises(ConfigError):
        tilt_from_config(
            {"family": "hazard", "params": {"theta": 1.2}}, model_exp_exp
        )
    with pytest.raises(ConfigError):
        tilt_from_config({"family": "esscher", "params": {"r": 5.0}}, model_exp_exp)
    with pytest.raises(ConfigError, match="must be a dict"):
        tilt_from_config(["linear"], model_exp_exp)
    with pytest.raises(ConfigError, match="missing parameter"):
        tilt_from_config({"family": "esscher", "params": {}}, model_exp_exp)


def test_tilt_config_absolute_xi(model_exp_exp):
    pair = tilt_from_config({"family": "linear", "params": {"xi": -0.4875}}, model_exp_exp)
    assert isinstance(pair, LinearTilt) and pair.xi == -0.4875


def test_non_negative_xi_and_factor_rejected(model_exp_exp):
    for xi in (0.0, 0.5):
        with pytest.raises(ValueError, match="xi must be negative"):
            LinearTilt(model_exp_exp, xi)
    for factor in (0.0, -1.0):
        with pytest.raises(ValueError, match="twist factor must be positive"):
            hazard_twisted(Exponential(1.0), factor)
