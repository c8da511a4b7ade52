"""Catalog of positive continuous laws used for claim sizes and interarrival times.

Every law exposes what the tilting machinery and the engine need: the
log-density, the survival function ``sf(x) = P(Z > x)``, one transform
``mgf(t) = E[exp(t Z)]`` for real t with ``laplace(s) = mgf(-s)``, raw moments
(``math.inf`` where one does not exist), the cumulative hazard H where it has a
closed form, and a deterministic sampler. ``sf`` is the tail itself, never
1 - F, so it keeps its digits where it is far below the double's epsilon; it is
exp(-H) for every family with a closed-form H and is written directly for the
others. There is no quantile function: nothing in the package inverts ``sf``.

Sampling contract: each family uses a fixed, documented algorithm driven by a
``numpy.random.Generator``. Exponential, Weibull, inverse Weibull and Pareto
draw Z = T(E), where E = -log1p(-U) is a standard exponential made from
``Generator.random`` and T is the family's ``_from_std_exp(e)``. They share
one ``sample_n``, whose ``return_std_exp=True`` returns E beside Z, so a
hazard-twist weight needs no transcendental call per draw; Z is the same
array either way. Log-normal is exp(mu + sigma N) on
``Generator.standard_normal``. Gamma-type laws transform a standard gamma draw
G from ``_std_gamma``: at an integer shape k <= ``_ERLANG_MAX`` it is the
Erlang product -log prod(1 - U) of k uniforms from one ``Generator.random``
call, at any other shape ``Generator.standard_gamma``, numpy's Marsaglia-Tsang
rejection sampler; inverse gamma is the reciprocal of its draw. Streams are
therefore reproducible for a fixed numpy version given the same generator
state and call sequence.

Gamma type: five laws are members (alpha, b, p) of Stacy's family
Z = b G^(1/alpha), G ~ Ga(p, 1): gamma (1, 1/rate, shape), inverse gamma
(-1, scale, shape), generalized gamma (alpha, scale, shape), Weibull (shape,
scale, 1) and inverse Weibull (-shape, scale, 1). ``_GammaType`` states their
log-density, ``sf``, moment formula and mgf radius once; from shape
``_STIRLING_MIN`` on the log-density is written about G = p, where nothing
cancels. The gamma law keeps its moments and mgf written in its rate. Weibull
and inverse Weibull keep their closed-form log-density and tail, which need
no incomplete gamma function, and their T(E) sampler.

Quadrature: ``expectation`` integrates a family with a ``_from_std_exp`` over
its standard exponential E, through the same T as the sampler, and every
other law over x against its density. In e-space the heavy Weibull's
singularity at 0 and the Pareto's polynomial tail become smooth, fast-decaying
integrands. The rule is an in-package double-exponential one (tanh-sinh on
the finite pieces, exp-sinh on the tail) that evaluates the integrand on
numpy arrays, one call per level; there is no QUADPACK (see ``expectation``).
Its x-space knots are placements near the median and 0.999 quantile of a
gamma-type or log-normal law, from closed forms: Wilson-Hilferty's for the
gamma type, which is not refined to the exact quantile since the rule does
not need it. A law whose knots leave the doubles raises ``DomainError``, and
so does a gamma-type law whose mass outside the rule's nodes may exceed its
tolerance.

Arithmetic: each family writes its log-density once, as ``_logpdf(x)`` on a
numpy array, and its T as ``_from_std_exp(e)``; the sampler, the engine and
the quadrature share them. Constants of a density, such as log G of a shape,
are computed once when the law is built. Log-gamma is ``_lgam``, an
in-package transcription of the cephes routine behind
``scipy.special.gammaln`` that matches it bit for bit, so building a law, its
moments, its quadratures and every simulation import numpy alone.
``scipy.special`` is imported on the first ``sf`` that needs an incomplete
gamma or normal function; nothing else in the package needs it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedCombination

__all__ = [
    "PositiveLaw",
    "Exponential",
    "Gamma",
    "Weibull",
    "InvGamma",
    "InvWeibull",
    "GenGamma",
    "LogNormal",
    "Pareto",
    "Mixture",
    "expectation",
    "law_from_config",
]

_QUAD_RTOL = 1e-11
# levels of the quadrature rule: its step runs from 1/2 down to 2^-_QUAD_LEVELS
_QUAD_LEVELS = 10
# the largest node of the rule
_NODE_MAX = 1e300
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_LN_2 = math.log(2.0)
_LN_1000 = math.log(1000.0)
# Phi^-1(q) at the probabilities of the x-space quadrature knots
_NORMAL_QUANTILE = {0.5: 0.0, 0.999: 3.090232306167813, 0.001: -3.090232306167813}
# the largest integer gamma shape drawn as an Erlang product of uniforms
# (``_std_gamma``); a stream constant, since it sets which gamma-type laws draw
# from ``Generator.random`` and which from ``Generator.standard_gamma``
_ERLANG_MAX = 4


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_positive(**params: float) -> None:
    """Raise ValueError unless every named parameter lies in (0, inf)."""
    bad = [name for name, v in params.items() if not 0 < v < math.inf]
    _require(not bad, f"{' and '.join(bad)} must be positive and finite")


class PositiveLaw:
    """Base class for laws supported on (0, inf)."""

    # -- density / distribution ------------------------------------------------

    def logpdf(self, x):
        return self._logpdf(np.asarray(x, dtype=float))

    def _logpdf(self, x):
        """The log-density formula on an array."""
        raise NotImplementedError

    def sf(self, x):
        """The survival function P(Z > x), exp(-H(x)) where H has a closed form."""
        return np.exp(-self.cumulative_hazard(x))

    # -- moments ---------------------------------------------------------------

    def raw_moment(self, k: float) -> float:
        """E[Z^k] for real k; ``math.inf`` when the moment does not exist or
        exceeds the largest double."""
        try:
            return self._raw_moment(k)
        except OverflowError:  # from math.exp or float ** past the largest double
            return math.inf

    def _raw_moment(self, k: float) -> float:
        """The family's moment formula; it may overflow."""
        raise NotImplementedError

    def mean(self) -> float:
        return self.raw_moment(1.0)

    # -- hazard ----------------------------------------------------------------

    def cumulative_hazard(self, x):
        """H(x) = -ln sf(x); only families with a closed form support this."""
        raise UnsupportedCombination(f"{self.label()} has no closed-form cumulative hazard")

    # -- transforms --------------------------------------------------------------

    def mgf(self, t: float) -> float:
        """E[exp(t Z)] for real t, the Laplace transform at -t when t < 0 (finite
        for every law); ``math.inf`` for t at or beyond ``mgf_radius``."""
        if t == 0.0:
            return 1.0
        if t >= self.mgf_radius():
            return math.inf
        return expectation(self, lambda x: t * x)

    def laplace(self, s: float) -> float:
        """E[exp(-s Z)], the mgf reflected."""
        return self.mgf(-s)

    def mgf_radius(self) -> float:
        """Abscissa of convergence r_Z = sup{r >= 0 : E[exp(rZ)] < inf}."""
        raise NotImplementedError

    def _quad_knots(self) -> tuple[float, float]:
        """Placements near the median and the 0.999 quantile, for a law
        ``expectation`` integrates over x."""
        raise NotImplementedError

    # -- sampling ----------------------------------------------------------------

    # T in Z = T(E), E standard exponential, for the families sampled that way:
    # ``_from_std_exp(e)`` on an array
    _from_std_exp = None

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` independent draws.

        A family sampled as Z = T(E) also takes ``return_std_exp``: when true
        it returns (Z, E), E the standard exponentials the draws came from.
        """
        raise NotImplementedError

    # -- misc ---------------------------------------------------------------------

    def label(self) -> str:
        raise NotImplementedError


def _std_exp(rng: np.random.Generator, n: int) -> np.ndarray:
    # inverse CDF on U in [0,1); -log1p(-U) never hits log(0). Each pass runs
    # in place in the uniforms' buffer
    e = rng.random(n)
    np.negative(e, out=e)
    np.log1p(e, out=e)
    return np.negative(e, out=e)


def _std_gamma(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """``n`` standard gamma draws of the given shape.

    An integer shape k <= _ERLANG_MAX is an Erlang law, the sum of k standard
    exponentials: one ``Generator.random(k * n)`` call, and -log of the
    product of (1 - U) over its k consecutive runs of n, multiplied in run
    order (Devroye 1986, ch. IX.3). Each factor lies in [2^-53, 1], so every
    draw is finite and >= 0; it is 0 only where all k uniforms are 0. Any
    other shape is numpy's ``standard_gamma``.
    """
    k = int(shape)
    if k != shape or k > _ERLANG_MAX:
        return rng.standard_gamma(shape, n)
    u = rng.random(k * n)
    g = np.subtract(1.0, u, out=u)[:n]
    for i in range(1, k):
        g *= u[i * n : (i + 1) * n]
    np.log(g, out=g)
    return np.negative(g, out=g)


def _sample_t_of_e(law: PositiveLaw, rng, n: int, return_std_exp: bool = False):
    """Z = T(E) for ``n`` standard exponentials E; (Z, E) if ``return_std_exp``."""
    e = _std_exp(rng, n)
    z = law._from_std_exp(e)  # a new array: E stays as drawn
    return (z, e) if return_std_exp else z


@dataclass(frozen=True)
class Exponential(PositiveLaw):
    """Exponential law with the given rate; sampled by inverse CDF."""

    rate: float

    def __post_init__(self):
        _require_positive(rate=self.rate)
        object.__setattr__(self, "_log_rate", float(np.log(self.rate)))

    def _logpdf(self, x):
        return self._log_rate - self.rate * x

    def _raw_moment(self, k: float) -> float:
        if k <= -1.0:
            return math.inf
        return math.exp(_lgam(k + 1.0) - k * math.log(self.rate))

    def cumulative_hazard(self, x):
        return self.rate * np.asarray(x, dtype=float)

    def mgf(self, t: float) -> float:
        if t >= self.rate:
            return math.inf
        return self.rate / (self.rate - t)

    def mgf_radius(self) -> float:
        return self.rate

    def _from_std_exp(self, e):
        return e / self.rate

    sample_n = _sample_t_of_e

    def label(self) -> str:
        return f"Exp({self.rate:g})"


class _GammaType(PositiveLaw):
    """Stacy's generalized gamma law Z = b G^(1/alpha), G ~ Ga(p, 1).

    Its density is |alpha| x^(alpha p - 1) exp(-(x/b)^alpha) / (b^(alpha p) G(p)).
    The members are gamma (1, 1/rate, shape), inverse gamma (-1, scale,
    shape), generalized gamma (alpha, scale, shape), Weibull (shape, scale, 1)
    and inverse Weibull (-shape, scale, 1). Each family keeps its own fields,
    sampler and label, and names its triple (alpha, b, p) to ``_set_triple``
    when it is built; the log-density, ``sf``, moments, mgf radius and
    quadrature knots are stated here once. Gamma keeps its moments, mgf and
    mgf radius written in its rate, and Weibull and inverse Weibull their
    log-density and ``sf``.
    """

    def _set_triple(self, alpha: float, b: float, p: float) -> None:
        log_abs_alpha = math.log(abs(alpha))
        if p < _STIRLING_MIN:
            # the log normalizer's three terms, kept apart: the density sums
            # them in this order
            log_norm = (log_abs_alpha, alpha * p * math.log(b), _lgam(p))
        else:
            # log|alpha| - log b + (1/2 - 1/alpha) log p - log G(p) + p - p log p,
            # once Stirling's series for log G(p) has cancelled its large terms
            log_norm = (log_abs_alpha - math.log(b)) + (
                (0.5 - 1.0 / alpha) * math.log(p) - _HALF_LOG_2PI - _stirling_tail(p)
            )
        for name, v in (("_alpha", alpha), ("_b", b), ("_p", p), ("_log_norm", log_norm)):
            object.__setattr__(self, name, v)

    @property
    def stacy_triple(self) -> tuple[float, float, float]:
        """(alpha, b, p), the law as Z = b G^(1/alpha), G ~ Ga(p, 1)."""
        return self._alpha, self._b, self._p

    def _logpdf(self, x):
        a, p = self._alpha, self._p
        y = (x / self._b) ** a
        if p < _STIRLING_MIN:
            log_abs_alpha, log_scale_pow, log_gamma = self._log_norm
            return log_abs_alpha + (a * p - 1.0) * np.log(x) - log_scale_pow - log_gamma - y
        # about y = p (1 + d), so no term of size p log p cancels: at p = 1e14
        # the form above reads 13.0 for a log-density of 12.90, and past
        # 2.6e305 its log G(p) is inf
        d = (y - p) / p
        return (p - 1.0 / a) * np.log1p(d) - p * d + self._log_norm

    def sf(self, x):
        from scipy.special import gammainc, gammaincc  # on first use: no simulation needs it

        t = (np.asarray(x, dtype=float) / self._b) ** self._alpha
        return (gammaincc if self._alpha > 0 else gammainc)(self._p, t)

    def _raw_moment(self, k: float) -> float:
        d = k / self._alpha
        if self._p + d <= 0:
            return math.inf
        return self._b**k * math.exp(_log_gamma_ratio(self._p, d))

    def _quad_knots(self) -> tuple[float, float]:
        # b G_q^(1/alpha): G's approximate 0.5 and 0.999 quantiles, or its
        # 0.001 one when Z falls as G grows. numpy's power: a knot past the
        # doubles reads 0 or inf here, and ``_x_knots`` rejects it
        tail = 0.999 if self._alpha > 0 else 0.001
        with np.errstate(divide="ignore", over="ignore"):
            return tuple(
                float(self._b * np.float64(_std_gamma_quantile(self._p, q)) ** (1.0 / self._alpha))
                for q in (0.5, tail)
            )

    def mgf_radius(self) -> float:
        if self._alpha > 1.0:
            return math.inf
        if self._alpha == 1.0:
            return 1.0 / self._b
        return 0.0

    def _outside_mass_bound(self, lo: float, hi: float) -> float:
        """Chernoff's bound on P(Z < lo) + P(Z > hi), for 0 < lo < hi.

        At the G-images t = (x/b)^alpha of the two ends it is exp(p - t +
        p ln(t/p)), a bound on P(G <= t) for t < p and on P(G >= t) for
        t > p; an end on the wrong side of p reads 1. It is taken in log
        space, as p (d - expm1(d)) with d = ln(t/p): t itself overflows a
        double for ends far from b.
        """
        log_p = math.log(self._p)
        d = sorted(self._alpha * (math.log(x) - math.log(self._b)) - log_p for x in (lo, hi))
        d = np.array([min(d[0], 0.0), max(d[1], 0.0)])
        with np.errstate(over="ignore"):
            return float(np.exp(self._p * (d - np.expm1(d))).sum())


@dataclass(frozen=True)
class Gamma(_GammaType):
    """Gamma law (shape, rate); sampled as a ``_std_gamma`` draw over the rate.

    Its moments, mgf and mgf radius stay written in the rate: through
    b = 1/rate they would round differently.
    """

    shape: float
    rate: float

    def __post_init__(self):
        _require_positive(shape=self.shape, rate=self.rate)
        self._set_triple(1.0, 1.0 / self.rate, self.shape)

    def _raw_moment(self, k: float) -> float:
        if self.shape + k <= 0:
            return math.inf
        return math.exp(_log_gamma_ratio(self.shape, k) - k * math.log(self.rate))

    def mgf(self, t: float) -> float:
        if t >= self.rate:
            return math.inf
        try:
            if self.shape < _STIRLING_MIN:
                return (self.rate / (self.rate - t)) ** self.shape
            # the power would multiply its base's rounding error by the shape
            return math.exp(-self.shape * math.log1p(-t / self.rate))
        except OverflowError:  # past the largest double
            return math.inf

    def mgf_radius(self) -> float:
        return self.rate

    def sample_n(self, rng, n):
        return _std_gamma(rng, self.shape, n) / self.rate

    def label(self) -> str:
        return f"Ga({self.shape:g},{self.rate:g})"


@dataclass(frozen=True)
class Weibull(_GammaType):
    """Weibull law (shape, scale), the member (shape, scale, 1); sampled by inverse CDF."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)
        self._set_triple(self.shape, self.scale, 1.0)
        object.__setattr__(self, "_log_shape_scale", math.log(self.shape / self.scale))

    def _logpdf(self, x):
        t = x / self.scale
        return self._log_shape_scale + (self.shape - 1.0) * np.log(t) - t**self.shape

    def cumulative_hazard(self, x):
        return (np.asarray(x, dtype=float) / self.scale) ** self.shape

    # exp(-H): the family's incomplete-gamma tail would import scipy.special
    sf = PositiveLaw.sf

    def _from_std_exp(self, e):
        return self.scale * e ** (1.0 / self.shape)

    sample_n = _sample_t_of_e

    def label(self) -> str:
        return f"Wei({self.shape:g},{self.scale:g})"


@dataclass(frozen=True)
class InvGamma(_GammaType):
    """Inverse gamma law (shape, scale); sampled as scale / a ``_std_gamma`` draw."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)
        self._set_triple(-1.0, self.scale, self.shape)

    def sample_n(self, rng, n):
        return self.scale / _std_gamma(rng, self.shape, n)

    def label(self) -> str:
        return f"InvGa({self.shape:g},{self.scale:g})"


@dataclass(frozen=True)
class InvWeibull(_GammaType):
    """Inverse Weibull (Frechet) law, the member (-shape, scale, 1); sampled as
    the reciprocal of a Weibull draw."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)
        self._set_triple(-self.shape, self.scale, 1.0)
        object.__setattr__(self, "_log_shape_scale", math.log(self.shape / self.scale))

    def _logpdf(self, x):
        t = self.scale / x
        return self._log_shape_scale + (self.shape + 1.0) * np.log(t) - t**self.shape

    def sf(self, x):
        t = self.scale / np.asarray(x, dtype=float)
        return -np.expm1(-(t**self.shape))

    def _from_std_exp(self, e):
        # reciprocal of Weibull(shape, 1/scale): scale * E^(-1/shape)
        return self.scale * e ** (-1.0 / self.shape)

    sample_n = _sample_t_of_e

    def label(self) -> str:
        return f"InvWei({self.shape:g},{self.scale:g})"


@dataclass(frozen=True)
class GenGamma(_GammaType):
    """Generalized gamma law with density |a| x^{ap-1} exp(-(x/b)^a) / (b^{ap} G(p)).

    ``alpha`` may be negative (inverse families); ``alpha = 1`` recovers the
    gamma law with rate 1/scale. Sampling: scale * G^{1/alpha} with G a
    ``_std_gamma`` draw of the shape.
    """

    alpha: float
    scale: float
    shape: float

    def __post_init__(self):
        _require(self.alpha != 0 and math.isfinite(self.alpha), "alpha must be nonzero and finite")
        _require_positive(scale=self.scale, shape=self.shape)
        self._set_triple(self.alpha, self.scale, self.shape)

    def sample_n(self, rng, n):
        return self.scale * _std_gamma(rng, self.shape, n) ** (1.0 / self.alpha)

    def label(self) -> str:
        return f"GGa({self.alpha:g},{self.scale:g},{self.shape:g})"


@dataclass(frozen=True)
class LogNormal(PositiveLaw):
    """Log-normal law; sampled as exp(mu + sigma * standard normal draw)."""

    mu: float
    sigma: float

    def __post_init__(self):
        _require(math.isfinite(self.mu), "mu must be finite")
        _require_positive(sigma=self.sigma)
        object.__setattr__(self, "_log_sigma", math.log(self.sigma))

    def _logpdf(self, x):
        log_x = np.log(x)
        z = (log_x - self.mu) / self.sigma
        return -log_x - self._log_sigma - _HALF_LOG_2PI - 0.5 * z * z

    def sf(self, x):
        from scipy.special import ndtr

        return ndtr((self.mu - np.log(np.asarray(x, dtype=float))) / self.sigma)

    def _raw_moment(self, k: float) -> float:
        return math.exp(self.mu * k + 0.5 * self.sigma**2 * k**2)

    def _quad_knots(self) -> tuple[float, float]:
        with np.errstate(over="ignore"):
            return tuple(
                float(np.exp(self.mu + self.sigma * z)) for z in (0.0, _NORMAL_QUANTILE[0.999])
            )

    def mgf_radius(self) -> float:
        return 0.0

    def sample_n(self, rng, n):
        return np.exp(self.mu + self.sigma * rng.standard_normal(n))

    def label(self) -> str:
        return f"LN({self.mu:g},{self.sigma:g})"


@dataclass(frozen=True)
class Pareto(PositiveLaw):
    """Pareto (Lomax) law with survival (b/(b+x))^a; sampled by inverse CDF."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)
        log_norm = math.log(self.shape) + self.shape * math.log(self.scale)
        object.__setattr__(self, "_log_norm", log_norm)

    def _logpdf(self, x):
        return self._log_norm - (self.shape + 1.0) * np.log(self.scale + x)

    def _raw_moment(self, k: float) -> float:
        if not -1.0 < k < self.shape:
            return math.inf
        return self.scale**k * math.exp(_log_gamma_ratio(self.shape, -k, _lgam(k + 1.0)))

    def cumulative_hazard(self, x):
        return self.shape * np.log1p(np.asarray(x, dtype=float) / self.scale)

    def mgf_radius(self) -> float:
        return 0.0

    def _from_std_exp(self, e):
        return self.scale * np.expm1(e / self.shape)

    sample_n = _sample_t_of_e

    def label(self) -> str:
        return f"Pa({self.shape:g},{self.scale:g})"


class Mixture(PositiveLaw):
    """Two-component mixture of positive laws (the linear tilt's claim law).

    Sampling draws one selector uniform per variate, then fills the first
    component's slots from its sampler, then the second's, each by index.
    """

    def __init__(self, components: tuple[PositiveLaw, ...], weights: tuple[float, ...]):
        _require(len(components) == len(weights) == 2, "need two components and two weights")
        _require(all(w > 0 for w in weights), "weights must be positive")
        _require(abs(sum(weights) - 1.0) < 1e-12, "weights must sum to 1")
        self.components = tuple(components)
        self.weights = tuple(float(w) for w in weights)

    def sf(self, x):
        return sum(w * c.sf(x) for w, c in zip(self.weights, self.components))

    def sample_n(self, rng, n):
        second = rng.random(n) >= self.weights[0]
        at = np.flatnonzero(~second), np.flatnonzero(second)
        out = np.empty(n)
        for c, i in zip(self.components, at):
            out[i] = c.sample_n(rng, len(i))
        return out

    def label(self) -> str:
        parts = ", ".join(
            f"{w:g}*{c.label()}" for w, c in zip(self.weights, self.components)
        )
        return f"Mix({parts})"


def expectation(law: PositiveLaw, log_fn) -> float:
    """E[exp(log_fn(Z))] by double-exponential quadrature over (0, inf).

    ``log_fn`` takes a numpy array of points and returns their values as an
    array (or a scalar that broadcasts); the whole integrand is one array
    call per level of the rule.

    A family sampled as Z = T(E), E standard exponential, is integrated over
    e: the integrand is exp(log_fn(T(e)) - e), knotted at E's median ln 2 and
    its 0.999 quantile ln 1000. There a Weibull with shape < 1 has no
    x^(shape-1) singularity at 0 and a Pareto no polynomial tail. Where T(e)
    is not in (0, inf) the integrand is 0, and ``log_fn`` is not called there.
    Every other law is integrated over x: the integrand is
    exp(log_fn(x) + logpdf(x)), knotted near the law's median and 0.999
    quantile, so the rule sees the bulk and the tail separately. The knots
    are placements, not exact quantiles: exp(mu) and exp(mu + sigma z),
    z = Phi^-1(0.999), for a log-normal law, and b G_q^(1/alpha) for a
    gamma-type one, with G's Wilson-Hilferty 0.5 and 0.999 quantiles (its
    0.001 quantile when alpha < 0) from ``_std_gamma_quantile``. They are
    kept per law (``_x_knots``), since every transform and root on a law
    asks for them.

    Domain: over x the rule's nodes run from k1 u0, k1 the median knot and
    u0 = 6.1e-276 the smallest tanh-sinh node, to 1e300. A law whose k1 u0
    underflows to 0 (k1 below about 4e-49, as for Ga(0.001, 1)) or whose
    tail knot is not below 1e300 (InvGa(0.005, 1), LN(0, 300)) has mass
    where the rule has no node, and there it would read nan, inf or a short
    sum; ``expectation`` raises ``DomainError`` naming the law instead. So
    it does for a gamma-type law whose mass outside [k1 u0, 1e300] may
    exceed ``_QUAD_RTOL`` by Chernoff's bound, though both knots are inside:
    Ga(0.03, 1) has up to 3.1e-9 of it below k1 u0, InvGa(0.02, 1) up to
    1.1e-6 above 1e300, and Ga(2, 1.03e-299) loses 3.8e-4 above 1e300. The
    bound is not taken for a log-normal law.

    The rule (Takahasi & Mori, Publ. RIMS 9, 1974; Bailey, Jeyabalan & Li,
    Experimental Mathematics 14, 2005) is tanh-sinh on each finite piece
    [a, b], with nodes a + (b - a) sigma(pi sinh t) (sigma the logistic
    function, so x - a keeps its relative precision at a singular end), and
    exp-sinh on [last knot, inf), with nodes scaled by the last finite
    piece's width. The step starts at h = 1/2 and halves, each level adding
    only the nodes halfway between the previous level's, until a level moves
    the sum by at most ``_QUAD_RTOL`` of itself or ``_QUAD_LEVELS`` levels
    have run. The integrand is exponentiated relative to the largest log
    value seen, so reweighting factors stay finite where the density
    underflows and terms that each underflow still add up; an overflow gives
    inf, and no numpy warning leaves the rule. It is numpy arithmetic only,
    with no QUADPACK or other SciPy integration routine behind it.
    """
    transform = law._from_std_exp
    if transform is None:
        knots = _x_knots(law)

        def log_integrand(x):
            return log_fn(x) + law.logpdf(x)

    else:
        knots = (0.0, _LN_2, _LN_1000)

        def log_integrand(e):
            z = transform(e)
            inside = (z > 0.0) & (z < math.inf)
            out = np.full_like(e, -math.inf)
            out[inside] = log_fn(z[inside]) - e[inside]
            return out

    # the sums are kept as multiples of exp(shift), shift the largest log
    # integrand yet seen, so an integral whose terms each underflow still sums
    total = prev = 0.0
    shift = -math.inf
    with np.errstate(all="ignore"):
        for level in range(_QUAD_LEVELS):
            x, w = _de_points(knots, level)
            log_f = log_integrand(x)
            peak = float(log_f.max())
            if peak == math.inf:
                return math.inf
            if peak > shift:
                total *= math.exp(shift - peak)
                prev *= math.exp(shift - peak)
                shift = peak
            total = 0.5 * total + float(w @ np.exp(log_f - shift))
            if not math.isfinite(total) or (level and abs(total - prev) <= _QUAD_RTOL * total):
                break
            prev = total
        return float(np.exp(np.log(total) + shift))


@functools.lru_cache(maxsize=64)
def _x_knots(law: PositiveLaw) -> tuple[float, float, float]:
    """(0, ~median, ~0.999 quantile) of a law integrated over x, kept for the last 64 laws.

    Raises ``DomainError`` where the rule's nodes miss part of the law's mass
    (see ``expectation``).
    """
    median, tail = law._quad_knots()
    # u0 is level 0's first node, the smallest of every level
    lo = median * _de_nodes(0)[0][0]
    if not (lo > 0.0 and tail < _NODE_MAX) or (
        isinstance(law, _GammaType) and law._outside_mass_bound(lo, _NODE_MAX) > _QUAD_RTOL
    ):
        raise DomainError(
            f"law {law.label()} has mass outside the doubles the quadrature reaches "
            f"(x-space knots {median:g} and {tail:g})"
        )
    return (0.0, median, tail)


@functools.lru_cache(maxsize=64)
def _de_points(knots: tuple[float, float, float], level: int):
    """The nodes level ``level`` adds on (0, k1), (k1, k2) and (k2, inf), and their weights.

    The reference nodes are mapped affinely: x = a + (b - a) u on a finite
    piece, x = k2 + (k2 - k1) v on the tail, whose nodes stop at x =
    ``_NODE_MAX`` so that no point or weight overflows. Knots are shared by
    every law integrated over E and by every quadrature on one law over x, so
    the mapped nodes are kept for the last 64 (knots, level) pairs.
    """
    u, wu, v, wv = _de_nodes(level)
    lo = np.array(knots[:-1])[:, None]
    width = np.diff(knots)[:, None]
    tail, tail_scale = knots[-1], float(width[-1, 0])
    n = np.searchsorted(v, (_NODE_MAX - tail) / tail_scale) if tail_scale else 0
    x = np.concatenate(((lo + width * u).ravel(), tail + tail_scale * v[:n]))
    w = np.concatenate(((width * wu).ravel(), tail_scale * wv[:n]))
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _de_nodes(level: int):
    """The nodes level ``level`` adds to the two reference rules, and their weights.

    h = 2^-(level + 1); level 0 has every t = k h, a later level the odd k.
    tanh-sinh on [0, 1]: u = sigma(pi sinh t) for t in [-6, 3.5] (u reaches
    1e-275 on the left; past t = 3.5 the weights are below 2e-21).
    exp-sinh on [0, inf): v = exp(pi/2 sinh t) for t in [-4.5, 6] (v from
    1e-31 to 1e137). The weights include h, so a level's sum is half the
    previous level's plus the new nodes' terms. The arrays are read-only:
    every quadrature shares them.
    """
    h = 0.5 ** (level + 1)

    def grid(a, b):
        k = np.arange(math.ceil(a / h), math.floor(b / h) + 1)
        return h * (k[k % 2 == 1] if level else k)

    t = grid(-6.0, 3.5)
    s = math.pi * np.sinh(t)
    u = 1.0 / (1.0 + np.exp(-s))
    wu = h * math.pi * np.cosh(t) * u / (1.0 + np.exp(s))  # h du/dt
    t = grid(-4.5, 6.0)
    v = np.exp(0.5 * math.pi * np.sinh(t))
    wv = h * 0.5 * math.pi * np.cosh(t) * v  # h dv/dt
    for arr in (u, wu, v, wv):
        arr.flags.writeable = False
    return u, wu, v, wv


_FAMILIES = {
    "exp": (Exponential, ("rate",)),
    "gamma": (Gamma, ("shape", "rate")),
    "weibull": (Weibull, ("shape", "scale")),
    "invgamma": (InvGamma, ("shape", "scale")),
    "invweibull": (InvWeibull, ("shape", "scale")),
    "gengamma": (GenGamma, ("alpha", "scale", "shape")),
    "lognormal": (LogNormal, ("mu", "sigma")),
    "pareto": (Pareto, ("shape", "scale")),
}


def config_float(value, name: str) -> float:
    """``float(value)`` for the config field ``name``; a JSON true or false is
    not a number there, and raises ConfigError."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, not {value!r}")
    return float(value)


def law_from_config(obj: dict) -> PositiveLaw:
    """Build a law from {"family": ..., "params": {...}}; raises ConfigError."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError(f"law config must be a dict with a 'family' key, got {obj!r}")
    family = obj["family"]
    if family not in _FAMILIES:
        raise ConfigError(f"unknown law family {family!r}")
    cls, names = _FAMILIES[family]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{family} params must be a dict, got {params!r}")
    if set(params) != set(names):
        raise ConfigError(f"{family} expects params {set(names)}, got {set(params)}")
    try:
        return cls(**{k: config_float(params[k], f"{family} parameter {k!r}") for k in names})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {family} parameters: {exc}") from exc


# -- log-gamma -------------------------------------------------------------------

# cephes lgam's coefficients: A for the Stirling correction, B/C for the
# rational approximation on [2, 3). C's leading 1 is implicit in cephes (p1evl)
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305
# from here on log G(b + d) - log G(b) is a difference of Stirling's series,
# and gamma-type laws of this shape or more take the form of their log-density
# that does not cancel, and the gamma law that of its mgf
_STIRLING_MIN = 100.0


def _horner(x: float, coef: tuple[float, ...]) -> float:
    # cephes polevl; with a leading coefficient 1 also p1evl, since 0*x + 1 = 1
    # and 1*x + c = x + c exactly
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    """log G(x) for a float x > 0, bit for bit as ``scipy.special.gammaln``.

    A transcription of cephes ``lgam`` (licence notice below), the routine
    ``gammaln`` wraps, without its branch for negative arguments: below 13 the
    argument is shifted into [2, 3) by the recurrence, and a rational
    approximation is added to the log of the product; from 13 on it is
    Stirling's series, truncated to fewer terms past 1000 and to none past 1e8.
    """
    if not math.isfinite(x):
        return x
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C)
        return math.log(z) + p
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    else:
        q += _horner(p, _LGAM_A) / x
    return q


def _stirling_tail(y: float) -> float:
    # log G(y) - (y - 1/2) log y + y - log sqrt(2 pi), to its 1/y^3 term
    return (1.0 / 12.0 - 1.0 / (360.0 * y * y)) / y


def _log_gamma_ratio(b: float, d: float, offset: float = 0.0) -> float:
    """offset + log G(b + d) - log G(b), summed in that order; b, b + d > 0.

    Below ``_STIRLING_MIN`` it subtracts the two ``_lgam`` values. Past it that
    difference cancels: at b = 1e14 both logs are near 3e15, where a double
    keeps no digit of a difference of 30. There it takes the difference of
    Stirling's series, written so that nothing large cancels; for b from 100
    to 1e307 and d in {+-1, +-2, 1/2, 2/3, 4/3} it is within 1.1e-15
    relative of the exact value.
    """
    x = b + d
    if min(b, x) < _STIRLING_MIN:
        return offset + _lgam(x) - _lgam(b)
    return offset + (
        (b - 0.5) * math.log1p(d / b)
        + d * math.log(x)
        - d
        + _stirling_tail(x)
        - _stirling_tail(b)
    )


# -- standard gamma knot placements ----------------------------------------------


def _std_gamma_quantile(p: float, q: float) -> float:
    """An approximate q-quantile of Ga(p, 1), for q in ``_NORMAL_QUANTILE``.

    Wilson and Hilferty's cube-root normal approximation
    p (1 - 1/(9p) + z/(3 sqrt p))^3, z = Phi^-1(q) (PNAS 17, 1931), or, where
    that base is not positive, the small-x form (q G(p + 1))^(1/p) of
    P(p, x) ~ x^p / G(p + 1). It places the quadrature's x-space knots, which
    need not be exact quantiles: against ``scipy.special.gammaincinv`` it is
    within 4% of the median for p from 0.02 up, and within a factor of 5 of
    the 0.999 and 0.001 quantiles; from p = 1e3 on all three are within 7e-6
    relative. A value that underflows reads 0.
    """
    z = _NORMAL_QUANTILE[q]
    base = 1.0 - 1.0 / (9.0 * p) + z / (3.0 * math.sqrt(p))
    return p * base**3 if base > 0 else (q * math.exp(_lgam(p + 1.0))) ** (1.0 / p)


# _lgam is a transcription of lgam in cephes/gamma.c (Cephes Math Library
# Release 2.8, copyright 1984, 1987, 1989, 1992, 2000 by Stephen L. Moshier),
# which SciPy distributes, with the author's permission, under this licence:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
