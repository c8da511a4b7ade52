import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln, kv

from ruinlab import (
    Exponential,
    Gamma,
    GenGamma,
    InvGamma,
    InvWeibull,
    LogNormal,
    Mixture,
    Pareto,
    Weibull,
    expectation,
    law_from_config,
)
from ruinlab import laws
from ruinlab.errors import ConfigError, DomainError, UnsupportedCombination
from ruinlab.laws import _FAMILIES, _STIRLING_MIN, _lgam
from ruinlab.model import RiskModel, model_from_config
from ruinlab.tables import TABLES, table_spec
from ruinlab.tilts import hazard_twisted, size_biased, tilt_from_config

ALL_LAWS = [
    Exponential(1.0),
    Exponential(0.4),
    Gamma(2.0, 1.0),
    Gamma(0.7, 2.5),
    Weibull(0.75, 1.68),
    Weibull(3.0, 0.9),
    InvGamma(3.0, 4.0),
    InvWeibull(3.0, 1.48),
    GenGamma(1.5, 2.0, 0.8),
    GenGamma(-2.0, 1.3, 2.2),
    LogNormal(0.0, 1.0),
    LogNormal(0.3, 0.5),
    Pareto(1.5, 3.0),
    Pareto(2.5, 3.0),
]


def _ids(laws):
    return [law.label() for law in laws]


@pytest.mark.parametrize("law", ALL_LAWS, ids=_ids(ALL_LAWS))
def test_density_integrates_to_one(law):
    total = expectation(law, lambda x: 0.0)
    assert abs(total - 1.0) < 1e-8, f"{law.label()}: integral {total}"


@pytest.mark.parametrize("law", ALL_LAWS, ids=_ids(ALL_LAWS))
def test_mean_matches_quadrature(law):
    mean = law.mean()
    if not math.isfinite(mean):
        pytest.skip("mean does not exist")
    quad_mean = expectation(law, np.log)
    assert abs(mean - quad_mean) < 1e-8 * max(1.0, mean)


@pytest.mark.parametrize(
    "law", [LogNormal(0.0, 0.5), InvGamma(3.0, 4.0)], ids=lambda law: law.label()
)
def test_quadrature_calls_log_fn_once_per_level_on_new_nodes(law):
    # one array call per level of the rule; a level halves the step and adds
    # only the nodes between the previous level's, so from the third call on
    # each call gets twice as many points as the one before
    seen = []

    def log_fn(x):
        assert isinstance(x, np.ndarray)
        seen.append(x.size)
        return -0.5 * x

    assert expectation(law, log_fn) == pytest.approx(law.laplace(0.5), rel=1e-15)
    assert 3 <= len(seen) <= laws._QUAD_LEVELS
    assert seen[2:] == [seen[1] * 2**i for i in range(1, len(seen) - 1)]


@pytest.mark.parametrize(
    "law, k, want",
    [
        (Weibull(0.01, 1.0), 1.0, math.gamma(101.0)),  # T(e) = e^100 overflows past e = 1202
        (Pareto(2.5, 3.0), 1.0, 2.0),  # T(e) = 3 expm1(e / 2.5) overflows past e = 1774
        (Pareto(1.5, 3.0), 2.0, math.inf),  # the moment does not exist
    ],
    ids=["Wei(0.01,1)", "Pa(2.5,3)", "Pa(1.5,3)-k2"],
)
def test_quadrature_where_the_transform_overflows(law, k, want):
    # where T(e) is not in (0, inf) the integrand is 0, and no numpy warning
    # leaves the rule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expectation(law, lambda x: k * np.log(x))
    if math.isfinite(want):
        assert abs(got / want - 1.0) <= 1e-12
    else:  # a divergent moment reads inf or a huge finite truncation, never nan
        assert got > 1e6


def test_quadrature_overflow_reads_inf():
    # E[exp(1e300 X)] for Wei(2, 1) is finite but past the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expectation(Weibull(2.0, 1.0), lambda x: 1e300 * x) == math.inf
        assert expectation(LogNormal(0.0, 1.0), lambda x: 800.0 + 0.0 * x) == math.inf


@pytest.mark.parametrize("s", [1e12, 1e20])
def test_laplace_below_the_smallest_double_reads_zero(s):
    # log E[exp(-s X)] for LN(0, 0.5) is -1162 at s = 1e12 and -3520 at 1e20:
    # the first levels' nodes miss the peak by more than e^709, and the sum
    # must rescale to the peak a finer level finds, not overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LogNormal(0.0, 0.5).laplace(s) == 0.0


@pytest.mark.parametrize("s", [1.0, 30.0, 300.0])
def test_inverse_gamma_laplace_against_bessel_closed_form(s):
    # E[exp(-s X)] = 2 (b s)^(a/2) K_a(2 sqrt(b s)) / G(a) for InvGa(a, b); at
    # s = 300 the integrand peaks at x = 0.11, between x-space knots 0 and
    # the median 1.48, where an adaptive rule started on the whole piece read
    # 3% low
    a, b = 3.0, 4.0
    want = 2.0 * (b * s) ** (a / 2) * kv(a, 2.0 * math.sqrt(b * s)) / math.gamma(a)
    assert abs(InvGamma(a, b).laplace(s) / want - 1.0) <= 1e-13


# laws integrated over x, knotted at quantiles computed in the package
X_SPACE_LAWS = [
    *(Gamma(a, 1.0) for a in (0.05, 0.5, 2.0, 99.0, 100.0, 1e6)),
    InvGamma(3.0, 4.0),
    InvGamma(0.7, 2.0),
    GenGamma(1.5, 1.0, 2.0),
    GenGamma(-3.0, 1.48, 2.0 / 3.0),
    GenGamma(2.0, 1.0, 0.05),
    *(LogNormal(0.0, s) for s in (0.25, 0.5, 1.0, 2.0)),
]
# 1e-7 as wide as its location: the rule's own error sets the bound
SPIKE = GenGamma(1.0, 1e-13, 1e14)


@pytest.mark.parametrize(
    "law, bound",
    [*((law, 1e-12) for law in X_SPACE_LAWS), (SPIKE, 5e-10)],
    ids=_ids([*X_SPACE_LAWS, SPIKE]),
)
def test_x_space_quadrature_matches_closed_form_moments(law, bound):
    checked = 0
    for k in (0.5, 1.0, 2.0):
        want = law.raw_moment(k)
        if math.isfinite(want):
            got = expectation(law, lambda x: k * np.log(x))
            assert abs(got / want - 1.0) <= bound, (k, got, want)
            checked += 1
    assert checked


def test_x_space_quadrature_matches_gamma_mgf():
    law = Gamma(2.0, 1.0)
    assert abs(expectation(law, lambda x: 0.5 * x) / law.mgf(0.5) - 1.0) <= 1e-15


@pytest.mark.parametrize("law", [*X_SPACE_LAWS, SPIKE], ids=_ids([*X_SPACE_LAWS, SPIKE]))
def test_x_space_knots_are_ordered_and_finite(law):
    zero, median, tail = laws._x_knots(law)
    assert zero == 0.0 < median < tail < math.inf


@pytest.mark.parametrize(
    "law, inside",
    [
        (Gamma(2.0, 1e40), True),  # smallest node 1.0e-315
        (Gamma(0.001, 1.0), False),  # median knot 5.2e-302: the smallest node is 0
        # knots inside, but Chernoff's bound on the mass outside the nodes is
        # above the rule's tolerance: below the smallest node, or above 1e300
        (Gamma(0.03, 1.0), False),
        (Gamma(0.05, 1.0), True),
        (Gamma(2.0, 1.03e-299), False),  # it read 1 - 3.8e-4
        (Gamma(2.0, 1e-298), True),
        (InvGamma(2.0, 1e290), True),  # tail knot 2.2e291
        (InvGamma(0.005, 1.0), False),  # tail knot inf
        (LogNormal(0.0, 300.0), False),  # tail knot inf
    ],
    ids=lambda v: v.label() if isinstance(v, laws.PositiveLaw) else str(v),
)
def test_x_space_law_whose_knots_leave_the_doubles_raises(law, inside):
    # where the rule's nodes would miss part of the mass it used to read nan
    # or inf for the total; now it integrates or raises, naming the law
    if inside:
        assert abs(expectation(law, lambda x: 0.0 * x) - 1.0) <= 1e-12
    else:
        with pytest.raises(DomainError, match=re.escape(law.label())):
            expectation(law, lambda x: 0.0 * x)


# each family as a scipy.stats law: its quantiles pick test points, and its cdf
# is the sampler tests' reference, independent of the law under test
SCIPY_LAW = {
    Exponential: lambda law: stats.expon(scale=1.0 / law.rate),
    Gamma: lambda law: stats.gamma(law.shape, scale=1.0 / law.rate),
    Weibull: lambda law: stats.weibull_min(law.shape, scale=law.scale),
    InvGamma: lambda law: stats.invgamma(law.shape, scale=law.scale),
    InvWeibull: lambda law: stats.invweibull(law.shape, scale=law.scale),
    GenGamma: lambda law: stats.gengamma(law.shape, law.alpha, scale=law.scale),
    LogNormal: lambda law: stats.lognorm(law.sigma, scale=math.exp(law.mu)),
    Pareto: lambda law: stats.lomax(law.shape, scale=law.scale),
}


@pytest.mark.parametrize("law", ALL_LAWS, ids=_ids(ALL_LAWS))
def test_sf_pdf_consistency(law):
    # minus the numeric derivative of sf recovers the density at a few interior points
    for q in (0.2, 0.5, 0.9):
        x = float(SCIPY_LAW[type(law)](law).ppf(q))
        h = 1e-6 * max(1.0, x)
        deriv = (law.sf(x - h) - law.sf(x + h)) / (2 * h)
        assert deriv == pytest.approx(math.exp(law.logpdf(x)), rel=1e-4)
        assert float(law.sf(x)) == pytest.approx(1.0 - q, abs=1e-9)


@pytest.mark.parametrize(
    "law, x",
    [
        (Pareto(1.5, 3.0), 1e8),  # 1 - cdf keeps 5 digits
        (Pareto(1.5, 3.0), 1e12),  # 5.2e-18: 1 - cdf reads 0 from here on
        (InvGamma(3.0, 4.0), 1e6),
        (Weibull(0.375, 0.5), 1e4),
        (InvWeibull(3.0, 1.48), 1e6),
        (Exponential(1.0), 700.0),
        (LogNormal(0.0, 1.0), 1e3),
    ],
    ids=lambda v: v.label() if isinstance(v, laws.PositiveLaw) else f"{v:g}",
)
def test_sf_keeps_its_digits_deep_in_the_tail(law, x):
    want = SCIPY_LAW[type(law)](law).sf(x)
    assert 0.0 < want < 1e-4
    assert abs(float(law.sf(x)) / want - 1.0) <= 1e-12


def test_sf_is_one_at_zero_and_non_increasing():
    grid = np.concatenate(([0.0], np.geomspace(1e-6, 1e8, 400)))
    mix = Mixture((Exponential(1.0), Gamma(2.0, 1.0)), (0.25, 0.75))
    for law in [*ALL_LAWS, mix]:
        with np.errstate(divide="ignore"):  # x = 0: 1/x or log x is the IEEE fallback
            sf = law.sf(grid)
        assert sf[0] == 1.0, law.label()
        assert np.all((np.diff(sf) <= 0.0) & (sf[1:] >= 0.0)), law.label()


@pytest.mark.parametrize("law", ALL_LAWS, ids=_ids(ALL_LAWS))
def test_sampling_against_cdf(law, rng):
    draws = law.sample_n(rng, 100_000)
    assert np.all(draws > 0)
    assert stats.kstest(draws, SCIPY_LAW[type(law)](law).cdf).pvalue > 0.01


def test_gamma_law_of_large_numbers(rng):
    draws = Gamma(2.0, 1.0).sample_n(rng, 1_000_000)
    assert abs(draws.mean() - 2.0) < 0.01


def test_invweibull_reciprocal_transform(rng):
    # the sampler is literally the reciprocal of a Weibull(3, 1/1.48) draw
    law = InvWeibull(3.0, 1.48)
    draws = law.sample_n(np.random.default_rng(7), 100_000)
    base = Weibull(3.0, 1.0 / 1.48).sample_n(np.random.default_rng(7), 100_000)
    assert np.allclose(draws, 1.0 / base, rtol=1e-12)
    assert stats.kstest(draws, SCIPY_LAW[InvWeibull](law).cdf).pvalue > 0.01


def test_raw_moment_examples():
    assert GenGamma(1.0, 1.0, 2.0).raw_moment(1.0) == pytest.approx(2.0, rel=1e-12)
    assert LogNormal(0.0, 1.0).raw_moment(2.0) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert Pareto(1.5, 3.0).raw_moment(2.0) == math.inf
    # Pareto mean b/(a-1) and second moment 2 b^2 / ((a-1)(a-2))
    assert Pareto(2.5, 3.0).raw_moment(1.0) == pytest.approx(2.0, rel=1e-12)
    assert Pareto(2.5, 3.0).raw_moment(2.0) == pytest.approx(2 * 9 / (1.5 * 0.5), rel=1e-12)


def test_gengamma_embeds_special_cases():
    grid = np.linspace(0.05, 8.0, 100)
    aliases = [
        (Exponential(0.7), GenGamma(1.0, 1.0 / 0.7, 1.0)),
        (Gamma(2.0, 1.0), GenGamma(1.0, 1.0, 2.0)),
        (Weibull(0.75, 1.68), GenGamma(0.75, 1.68, 1.0)),
        (InvGamma(3.0, 4.0), GenGamma(-1.0, 4.0, 3.0)),
        (InvWeibull(3.0, 1.48), GenGamma(-3.0, 1.48, 1.0)),
    ]
    for law, gga in aliases:
        assert np.allclose(
            np.exp(law.logpdf(grid)), np.exp(gga.logpdf(grid)), rtol=1e-12, atol=1e-300
        ), law.label()
        assert np.allclose(law.sf(grid), gga.sf(grid), rtol=1e-10, atol=1e-14)
        assert law.raw_moment(1.3) == pytest.approx(gga.raw_moment(1.3), rel=1e-12)


def test_cumulative_hazard_examples():
    pa = Pareto(2.0, 3.0)
    assert float(pa.cumulative_hazard(3.0)) == pytest.approx(2 * math.log(2), rel=1e-14)
    wei = Weibull(1.0, 1.0)
    assert float(wei.cumulative_hazard(1.0)) == pytest.approx(1.0, rel=1e-14)
    assert float(wei.cumulative_hazard(0.0)) == 0.0


# each family's closed-form quantile, which the sampler's T at -log1p(-q) reproduces
CLOSED_FORM_QUANTILE = {
    Exponential: lambda law, q: -np.log1p(-q) / law.rate,
    Weibull: lambda law, q: law.scale * (-np.log1p(-q)) ** (1.0 / law.shape),
    Pareto: lambda law, q: law.scale * np.expm1(-np.log1p(-q) / law.shape),
}


@pytest.mark.parametrize(
    "law", [Exponential(0.4), Weibull(0.75, 1.68), Pareto(1.5, 3.0)], ids=_ids(
        [Exponential(0.4), Weibull(0.75, 1.68), Pareto(1.5, 3.0)]
    )
)
def test_hazard_inverse_roundtrip(law):
    def quantile(q):
        return law._from_std_exp(-np.log1p(-q))

    q = np.linspace(0.0, 1.0, 100001, endpoint=False)
    assert np.array_equal(quantile(q), CLOSED_FORM_QUANTILE[type(law)](law, q))
    # H inverts through the quantile function: H(F^{-1}(1 - e^{-h})) = h
    h = np.linspace(0.01, 12.0, 100)
    x = quantile(-np.expm1(-h))
    assert np.allclose(law.cumulative_hazard(x), h, rtol=1e-10)
    # H(x) agrees with scipy's -log(survival); against -log(sf) it would be
    # a tautology, since sf is exp(-H)
    assert np.allclose(law.cumulative_hazard(x), -SCIPY_LAW[type(law)](law).logsf(x), rtol=1e-9)


def test_hazard_unsupported():
    for law in (Gamma(2.0, 1.0), LogNormal(0.0, 1.0), InvGamma(3.0, 4.0)):
        with pytest.raises(UnsupportedCombination):
            law.cumulative_hazard(1.0)


def test_transform_examples():
    assert Exponential(1.0).mgf(0.5) == pytest.approx(2.0, rel=1e-14)
    assert Pareto(1.5, 3.0).mgf(0.1) == math.inf
    assert Gamma(2.0, 1.0).laplace(1.0) == pytest.approx(0.25, rel=1e-14)


# the closed forms are written once, as the mgf: rate - (-s) is rate + s exactly
EXACT_LAPLACE_AT_0_3 = {Exponential(0.4): 0.4 / 0.7, Gamma(0.7, 2.5): (2.5 / 2.8) ** 0.7}


@pytest.mark.parametrize("law", ALL_LAWS, ids=_ids(ALL_LAWS))
def test_transforms_at_zero_exact(law):
    assert law.mgf(0.0) == 1.0
    assert law.laplace(0.0) == 1.0
    for s in (0.3, 2.0):
        assert law.laplace(s) == law.mgf(-s)
    if law in EXACT_LAPLACE_AT_0_3:
        assert law.laplace(0.3) == EXACT_LAPLACE_AT_0_3[law]


@pytest.mark.parametrize("law", ALL_LAWS, ids=_ids(ALL_LAWS))
def test_laplace_quadrature_agreement(law):
    # closed forms and the generic quadrature must agree
    s = 0.8
    direct = quad(lambda x: math.exp(-s * x) * math.exp(law.logpdf(x)), 0, np.inf, limit=200)[0]
    assert law.laplace(s) == pytest.approx(direct, rel=1e-8)


# every catalog family, a size-biased and a hazard-twisted law
FLOAT_PATH_LAWS = ALL_LAWS + [
    size_biased(Weibull(0.75, 1.68)),
    hazard_twisted(Pareto(1.5, 3.0), 0.9),
]


@pytest.mark.parametrize("law", FLOAT_PATH_LAWS, ids=_ids(FLOAT_PATH_LAWS))
def test_logpdf_float_path_matches_array_path(law):
    # a Python float takes the same numpy formula as an array, as a 0-d value
    grid = [0.0, *np.geomspace(1e-6, 1e3, 271), 1e300]
    for x in grid:
        with np.errstate(all="ignore"):
            value = law.logpdf(float(x))
            ref = law.logpdf(np.array([x]))[0]
        assert isinstance(value, float) and np.ndim(value) == 0
        if math.isfinite(ref):
            assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), (x, value, ref)
        else:  # the same -inf, inf or nan
            assert str(value) == str(ref), (x, value, ref)


STD_EXP_LAWS = [
    Exponential(1.0),
    Exponential(0.4),
    Weibull(0.75, 1.68),
    Weibull(3.0, 0.9),
    Weibull(0.375, 0.5),
    InvWeibull(3.0, 1.48),
    Pareto(1.5, 3.0),
    Pareto(2.5, 3.0),
]


@pytest.mark.parametrize("law", STD_EXP_LAWS, ids=_ids(STD_EXP_LAWS))
def test_sampler_returns_its_std_exp(law):
    # (Z, E) from one call: Z is the plain sample_n's draws bit for bit, and
    # E the -log1p(-U) they were made from
    z = law.sample_n(np.random.default_rng(7), 1000)
    got, e = law.sample_n(np.random.default_rng(7), 1000, return_std_exp=True)
    assert np.array_equal(got, z)
    assert np.array_equal(e, -np.log1p(-np.random.default_rng(7).random(1000)))
    assert np.array_equal(law._from_std_exp(e), z)


@pytest.mark.parametrize("law", STD_EXP_LAWS, ids=_ids(STD_EXP_LAWS))
def test_std_exp_transform_float_path_matches_array_path(law):
    # one transform serves arrays (the sampler) and a float (0-d)
    grid = np.geomspace(1e-6, 700.0, 271)
    ref = law._from_std_exp(grid)
    for e, want in zip(grid, ref):
        value = law._from_std_exp(float(e))
        assert isinstance(value, float) and np.ndim(value) == 0
        assert abs(value - want) <= 1e-15 * abs(want), (e, value, want)


# 30-digit values of the substituted integral: x = lam * t^(1/k) turns
# E[exp(-s X)] into the integral of exp(-s lam t^(1/k) - t) over (0, inf)
WEIBULL_LAPLACE_REFS = [
    (0.01, 0.982043673296938632667),
    (0.3, 0.790681306692979341976),
    (2.0, 0.562559904199660991412),
]


@pytest.mark.parametrize("s, want", WEIBULL_LAPLACE_REFS)
def test_weibull_laplace_against_independent_reference(s, want):
    assert abs(Weibull(0.375, 0.5).laplace(s) / want - 1.0) <= 1e-11


@pytest.mark.parametrize("s, want", WEIBULL_LAPLACE_REFS)
def test_weibull_laplace_to_1e13(s, want):
    # the density's x^-0.625 singularity at 0 costs about 1e-12 unless the
    # quadrature runs over the standard exponential behind the sampler
    assert abs(Weibull(0.375, 0.5).laplace(s) / want - 1.0) <= 1e-13


def test_mgf_radius_by_family():
    assert Exponential(2.0).mgf_radius() == 2.0
    assert Gamma(3.0, 0.5).mgf_radius() == 0.5
    assert Weibull(2.0, 1.0).mgf_radius() == math.inf
    assert Weibull(1.0, 2.0).mgf_radius() == 0.5
    assert Weibull(0.75, 1.0).mgf_radius() == 0.0
    for law in (LogNormal(0.0, 1.0), Pareto(2.0, 1.0), InvGamma(3.0, 1.0), InvWeibull(3.0, 1.0)):
        assert law.mgf_radius() == 0.0
    # finite mgf below the radius for a steep Weibull
    assert math.isfinite(Weibull(2.0, 1.0).mgf(1.5))


def test_weibull_shape_one_is_exponential():
    wei = Weibull(1.0, 2.0)
    exp = Exponential(0.5)
    grid = np.linspace(0.1, 10, 50)
    assert np.allclose(np.exp(wei.logpdf(grid)), np.exp(exp.logpdf(grid)), rtol=1e-12)
    assert wei.mgf(0.3) == pytest.approx(exp.mgf(0.3), rel=1e-9)


def test_mixture_moments_and_sampling(rng):
    mix = Mixture((Exponential(1.0), Gamma(2.0, 1.0)), (0.25, 0.75))
    draws = mix.sample_n(rng, 100_000)
    assert stats.kstest(draws, lambda x: 1.0 - mix.sf(x)).pvalue > 0.01
    assert mix.mgf(0.0) == 1.0


def _mask_filled_mixture(mix, rng, n):
    # reference: the same selector and component draws, scattered by boolean masks
    second = rng.random(n) >= mix.weights[0]
    k = int(np.count_nonzero(second))
    out = np.empty(n)
    out[~second] = mix.components[0].sample_n(rng, n - k)
    out[second] = mix.components[1].sample_n(rng, k)
    return out


LINEAR_MIXTURES = [
    tilt_from_config(col.tilt_config, col.model).tilted_claim_law()
    for name in ("table1", "table2", "table3")
    for col in table_spec(name).columns
]
ONE_SIDED_MIXTURES = [  # a draw of 50 almost surely leaves one component empty
    Mixture((Exponential(1.0), Gamma(2.0, 1.0)), (1.0 - 1e-13, 1e-13)),
    Mixture((Exponential(1.0), Gamma(2.0, 1.0)), (1e-13, 1.0 - 1e-13)),
]


@pytest.mark.parametrize("n", [0, 1, 50, 5000])
@pytest.mark.parametrize("mix", LINEAR_MIXTURES + ONE_SIDED_MIXTURES,
                         ids=lambda mix: mix.label())
def test_mixture_index_fill_matches_mask_fill(mix, n):
    assert isinstance(mix, Mixture)
    got_rng, want_rng = (np.random.Generator(np.random.SFC64(17)) for _ in range(2))
    got = mix.sample_n(got_rng, n)
    want = _mask_filled_mixture(mix, want_rng, n)
    assert got.tobytes() == want.tobytes()
    # the same generator state: the same raw output from here on
    raw = [g.bit_generator.random_raw(8) for g in (got_rng, want_rng)]
    assert np.array_equal(*raw)


@pytest.mark.parametrize("mix", ONE_SIDED_MIXTURES, ids=lambda mix: mix.label())
def test_one_sided_mixture_draw_leaves_a_component_empty(mix):
    second = np.random.Generator(np.random.SFC64(17)).random(50) >= mix.weights[0]
    assert second.all() or not second.any()


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        GenGamma(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Pareto(1.0, -2.0)
    with pytest.raises(ValueError):
        Mixture((Exponential(1.0),), (0.5,))


_VALID_PARAMS = {
    "exp": {"rate": 1.0},
    "gamma": {"shape": 2.0, "rate": 1.0},
    "weibull": {"shape": 2.0, "scale": 1.0},
    "invgamma": {"shape": 3.0, "scale": 4.0},
    "invweibull": {"shape": 3.0, "scale": 1.5},
    "gengamma": {"alpha": 1.5, "scale": 1.0, "shape": 2.0},
    "lognormal": {"mu": 0.0, "sigma": 0.5},
    "pareto": {"shape": 2.0, "scale": 3.0},
}


def test_non_finite_parameters_rejected():
    for family, (cls, names) in _FAMILIES.items():
        valid = _VALID_PARAMS[family]
        cls(**valid)
        for name in names:
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError):
                    cls(**{**valid, name: bad})
    exp1 = Exponential(1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RiskModel(exp1, exp1, bad)
        with pytest.raises(ValueError):
            RiskModel.from_safety_loading(exp1, exp1, bad)


def test_moment_past_largest_double_reads_inf():
    # Gamma(201) and exp(2 * 30^2) do not fit in a double
    assert Weibull(0.01, 1.0).raw_moment(2.0) == math.inf
    assert Weibull(0.005, 1.0).mean() == math.inf
    assert LogNormal(0.0, 30.0).raw_moment(2.0) == math.inf
    # a finite moment is the formula's value, bit for bit
    assert Weibull(0.01, 1.0).mean() == 1.0**1.0 * math.exp(gammaln(1.0 + 1.0 / 0.01))


def _assert_lgam_is_gammaln(points):
    bad = [x for x in points if _lgam(float(x)) != float(gammaln(x))]
    assert not bad, bad[:5]


def test_lgam_is_gammaln_bit_for_bit():
    sweep = np.exp(np.random.default_rng(2026).uniform(-20.0, 12.0, 20_000))
    edges = [
        math.nextafter(e, to) for e in (2.0, 3.0, 13.0, 1000.0, 1e8) for to in (0.0, math.inf)
    ]
    extremes = [1e-300, 1e300, 2.556348e305, 2.6e305, math.inf]
    _assert_lgam_is_gammaln(
        [*range(1, 172), *(k / 2 for k in range(1, 401)), *sweep, 2.0, 3.0, 13.0, 1000.0, 1e8,
         *edges, *extremes]
    )
    assert _lgam(2.6e305) == math.inf


def test_lgam_is_gammaln_on_every_table_law_argument(monkeypatch):
    # every argument the table1..table5 laws pass, when built and at moments 1 and 2
    seen = set()

    def spy(x):
        seen.add(x)
        return _lgam(x)

    monkeypatch.setattr(laws, "_lgam", spy)
    for name in TABLES:
        for col in table_spec(name).columns:
            tilt = tilt_from_config(col.tilt_config, col.model)
            for law in (col.model.claim_law, col.model.wait_law,
                        tilt.tilted_claim_law(), tilt.tilted_wait_law()):
                for part in getattr(law, "components", (law,)):
                    part.raw_moment(1.0)
                    part.raw_moment(2.0)
    for k in (1, 2):  # Wei(0.375), InvWei(3), InvGa(3), size-biased Wei(0.75) moments
        assert {1 + k / 0.375, 1 - k / 3, 3.0 - k, 1 + 1 / 0.75 + k / 0.75} <= seen
    _assert_lgam_is_gammaln(sorted(seen))


@pytest.mark.parametrize(
    "a", [10.0, 99.0, 999.0, 1e14, *(10.0**j for j in range(2, 301, 7)), 1e300, 3e305]
)
def test_gamma_ratio_moments_at_large_shapes(a):
    # each mean is 10; log G(a + d) - log G(a) cancels at large a unless it
    # is taken as a difference of Stirling's series, and past 2.6e305 both
    # log-gammas are inf
    for law in (Gamma(a, a / 10), InvGamma(a, 10 * (a - 1)), Pareto(a, 10 * (a - 1))):
        assert abs(law.mean() / 10.0 - 1.0) <= 1e-12, law
    assert abs(GenGamma(-1.0, 10 * (a - 1), a).mean() / 10.0 - 1.0) <= 1e-12


def test_gamma_ratio_moments_on_both_sides_of_the_stirling_switch():
    for a in np.linspace(_STIRLING_MIN - 5.0, _STIRLING_MIN + 5.0, 41):
        for law in (Gamma(a, a / 10), InvGamma(a, 10 * (a - 1)), Pareto(a, 10 * (a - 1))):
            assert abs(law.mean() / 10.0 - 1.0) <= 1e-12, law
    # below the switch the moment is the log-gamma difference, bit for bit
    assert Gamma(3.0, 2.0).raw_moment(2.5) == math.exp(
        gammaln(5.5) - gammaln(3.0) - 2.5 * math.log(2.0)
    )
    assert Pareto(3.5, 3.0).raw_moment(1.5) == 3.0**1.5 * math.exp(
        gammaln(2.5) + gammaln(2.0) - gammaln(3.5)
    )


def test_gamma_mgf_past_largest_double_reads_inf():
    assert Gamma(3e305, 1e300).mgf(0.5e300) == math.inf


def test_gamma_mgf_at_large_shapes():
    # (rate / (rate - t))^shape multiplies its base's rounding error by the
    # shape; exp(-shape log1p(-t / rate)) does not. Ga(a, a/10) at t = 1/10
    # is (1 - 1/a)^-a = exp(1 + 1/(2a) + 1/(3a^2) + ...)
    assert Gamma(1e14, 1e13).mgf(0.1) == pytest.approx(math.e, rel=1e-14)
    for a in (1e6, 1e20, 1e300):
        want = math.exp(1.0 + 1.0 / (2 * a) + 1.0 / (3 * a * a))
        assert Gamma(a, a / 10).mgf(0.1) == pytest.approx(want, rel=1e-14), a
    # below the switch the power form stays, bit for bit
    assert Gamma(2.0, 1.0).mgf(0.3) == (1.0 / 0.7) ** 2.0
    assert Gamma(99.5, 9.95).mgf(0.5) == (9.95 / 9.45) ** 99.5


@pytest.mark.parametrize("a", [1e6, 1e14, 1e100, 3e305])
def test_gamma_type_logpdf_at_large_shapes(a):
    # at its mean 10 a law of shape a is within O(1/a) of the normal density
    # with its sd, 10 / sqrt(a) up to O(1/a): the plain forms lose every
    # digit to a log a - log G(a) here, and past 2.6e305 read nan
    ref = -math.log(10.0 / math.sqrt(a) * math.sqrt(2 * math.pi))
    for law in (Gamma(a, a / 10), InvGamma(a, 10 * (a - 1))):
        assert law.logpdf(10.0) == pytest.approx(ref, rel=1e-14, abs=3.0 / a), law
        assert law.logpdf(np.array([10.0]))[0] == pytest.approx(law.logpdf(10.0), rel=1e-15)
    # 0.5 log(a / 2 pi) - log x at the mode of Ga(3e305, 1e300)
    assert Gamma(3e305, 1e300).logpdf(3e5) == pytest.approx(338.16, abs=5e-3)


def test_gamma_type_logpdf_on_both_sides_of_the_shape_switch():
    for a in np.linspace(_STIRLING_MIN - 5.0, _STIRLING_MIN + 5.0, 11):
        for law, ref in ((Gamma(a, a / 10), stats.gamma(a, scale=10 / a)),
                         (InvGamma(a, 10 * a), stats.invgamma(a, scale=10 * a))):
            x = np.array([8.0, 10.0, 12.5])
            assert np.allclose(law.logpdf(x), ref.logpdf(x), rtol=1e-12, atol=1e-12), law
        with np.errstate(divide="ignore"):  # the IEEE fallback for log of 0
            assert Gamma(a, a / 10).logpdf(0.0) == -math.inf


@pytest.mark.parametrize("a", [0.7, 2.0, 99.0, 100.0, 1e4, 1e14])
def test_gamma_and_inverse_gamma_are_gengamma_at_alpha_one_and_minus_one(a):
    # Ga(a, rate) = GGa(1, 1/rate, a) and InvGa(a, s) = GGa(-1, s, a) share one
    # density and sf; Gamma writes its moments in its rate
    for law, gga in ((Gamma(a, 2.5), GenGamma(1.0, 1.0 / 2.5, a)),
                     (InvGamma(a, 4.0), GenGamma(-1.0, 4.0, a))):
        x = SCIPY_LAW[GenGamma](gga).ppf(np.array([0.01, 0.3, 0.5, 0.7, 0.99]))
        assert np.all(np.isfinite(gga.logpdf(x))), gga
        assert np.array_equal(law.logpdf(x), gga.logpdf(x)), law
        assert law.logpdf(float(x[2])) == gga.logpdf(float(x[2])), law
        assert np.array_equal(law.sf(x), gga.sf(x)), law
        for k in (1.0, 2.0):
            assert law.raw_moment(k) == pytest.approx(gga.raw_moment(k), rel=1e-13), (law, k)


@pytest.mark.parametrize("k", [-0.05, -0.5, -1.0])
def test_gamma_negative_moments_match_gengamma(k):
    # E[Z^k] = inf where shape + k <= 0, in the rate-written form too
    for shape, rate in ((0.05, 1.0), (2.0, 2.5)):
        law, gga = Gamma(shape, rate), GenGamma(1.0, 1.0 / rate, shape)
        want = gga.raw_moment(k)
        assert law.raw_moment(k) == pytest.approx(want, rel=1e-13), (law, k)
        assert math.isfinite(want) == (shape + k > 0), (law, k)


# where E[Z^k] is finite for k < 0, by each family's density at 0
NEGATIVE_MOMENT_EXISTS = {
    Exponential: lambda law, k: k > -1.0,
    Gamma: lambda law, k: law.shape + k > 0.0,
    Weibull: lambda law, k: k > -law.shape,
    InvGamma: lambda law, k: True,
    InvWeibull: lambda law, k: True,
    GenGamma: lambda law, k: law.shape + k / law.alpha > 0.0,
    LogNormal: lambda law, k: True,
    Pareto: lambda law, k: k > -1.0,
}


@pytest.mark.parametrize("k", [-0.5, -1.0, -2.5])
@pytest.mark.parametrize("law", ALL_LAWS, ids=_ids(ALL_LAWS))
def test_negative_moments_are_inf_exactly_where_they_diverge(law, k):
    got = law.raw_moment(k)
    assert math.isfinite(got) == NEGATIVE_MOMENT_EXISTS[type(law)](law, k), got
    if math.isfinite(got):
        assert abs(expectation(law, lambda x: k * np.log(x)) / got - 1.0) <= 1e-10
    else:
        assert got == math.inf


@pytest.mark.parametrize("a", [1e6, 1e14])
def test_gengamma_logpdf_at_large_shapes(a):
    # at about its mean 10, Z = b G^(1/alpha) of shape a is within O(1/a) of
    # the normal density with its sd, 10 / (|alpha| sqrt(a)) up to O(1/a)
    for alpha, b in ((1.0, 10.0 / a), (-1.0, 10.0 * (a - 1.0)),
                     (2.0, 10.0 / math.sqrt(a)), (-2.0, 10.0 * math.sqrt(a))):
        ref = -math.log(10.0 / (abs(alpha) * math.sqrt(a)) * math.sqrt(2 * math.pi))
        law = GenGamma(alpha, b, a)
        assert law.logpdf(10.0) == pytest.approx(ref, rel=1e-14, abs=3.0 / a), law
        assert law.logpdf(np.array([10.0]))[0] == pytest.approx(law.logpdf(10.0), rel=1e-15)
    assert GenGamma(1.0, 1e-13, 1e14).logpdf(10.0) == pytest.approx(12.8966, abs=1e-4)


def test_risk_model_rejections():
    exp1 = Exponential(1.0)
    for premium in (0.5, 1.0):  # c*E[W] below and at E[X]
        with pytest.raises(ValueError, match="net profit condition"):
            RiskModel(exp1, exp1, premium)
    for claim in (Pareto(1.0, 3.0), Weibull(0.005, 1.0)):  # infinite and overflowing means
        with pytest.raises(ValueError, match="finite means"):
            RiskModel(claim, exp1, 2.0)
        with pytest.raises(ValueError, match="finite means"):
            RiskModel.from_safety_loading(claim, exp1, 0.5)


def test_model_config_errors():
    law = {"family": "exp", "params": {"rate": 1.0}}
    bad = [
        [law, law],
        {"claim": law, "wait": law},
        {"claim": law, "wait": law, "premium": 2.0, "safety_loading": 0.5},
    ]
    for obj in bad:
        with pytest.raises(ConfigError):
            model_from_config(obj)


_FAMILY_STRATEGIES = st.one_of(
    st.builds(Exponential, st.floats(0.01, 100)),
    st.builds(Gamma, st.floats(0.1, 50), st.floats(0.01, 100)),
    st.builds(Weibull, st.floats(0.1, 10), st.floats(0.01, 100)),
    st.builds(InvGamma, st.floats(0.1, 50), st.floats(0.01, 100)),
    st.builds(InvWeibull, st.floats(0.1, 10), st.floats(0.01, 100)),
    st.builds(LogNormal, st.floats(-5, 5), st.floats(0.01, 5)),
    st.builds(Pareto, st.floats(0.1, 50), st.floats(0.01, 100)),
    st.builds(
        GenGamma,
        st.floats(0.1, 10) | st.floats(-10, -0.1),
        st.floats(0.01, 100),
        st.floats(0.1, 50),
    ),
)


@settings(max_examples=200, deadline=None)
@given(law=_FAMILY_STRATEGIES)
def test_config_roundtrip_bit_exact(law):
    family = {cls: name for name, (cls, _) in _FAMILIES.items()}[type(law)]
    blob = json.dumps({"family": family, "params": dataclasses.asdict(law)})
    back = law_from_config(json.loads(blob))
    assert back == law  # dataclass equality: bit-exact parameters


def test_config_errors():
    with pytest.raises(ConfigError):
        law_from_config({"family": "cauchy", "params": {}})
    with pytest.raises(ConfigError):
        law_from_config({"family": "exp", "params": {"rate": 1.0, "junk": 2}})
    with pytest.raises(ConfigError):
        law_from_config({"family": "exp", "params": {"rate": -1.0}})
    with pytest.raises(ConfigError):
        law_from_config(["exp"])
