"""Catalog of positive continuous laws used for claim sizes and interarrival times.

Every law exposes what the tilting machinery and the engine need: the
log-density, the distribution function ``cdf`` (the sampler tests' reference),
the quantile ``ppf``, one transform ``mgf(t) = E[exp(t Z)]`` for real t with
``laplace(s) = mgf(-s)``, raw moments (``math.inf`` where one does not exist),
the cumulative hazard where it has a closed form, and a deterministic sampler.

Sampling contract: each family uses a fixed, documented algorithm driven by a
``numpy.random.Generator``. Exponential, Weibull, inverse Weibull and Pareto
draw Z = T(E), where E = -log1p(-U) is a standard exponential made from
``Generator.random`` and T is the family's ``_from_std_exp(e, xp)``; their
quantile is the same T. Log-normal is exp(mu + sigma N) on
``Generator.standard_normal``; gamma-type laws use ``Generator.standard_gamma``,
numpy's Marsaglia-Tsang rejection sampler, and inverse gamma is the reciprocal
of its draw. Streams are therefore reproducible for a fixed numpy version given
the same generator state and call sequence.

Quadrature: ``expectation`` integrates a family with a ``_from_std_exp`` over
its standard exponential E, through the same T as the sampler, and every
other law over x against its density. In e-space the heavy Weibull's
singularity at 0 and the Pareto's polynomial tail become smooth, fast-decaying
integrands (see ``expectation``).

Float path: each family writes its log-density once, as ``_logpdf(x, xp)``
with ``xp`` the ``math`` or the ``numpy`` module. ``logpdf`` hands a Python
float to ``math`` and anything else, as an array, to numpy (see ``_by_kind``),
so a quadrature integrand, called with one float at a time, runs as plain
float arithmetic while the engine's array calls keep their numpy arithmetic
bit for bit. Constants of a density, such as ``gammaln`` of a shape, are
computed once when the law is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (
    gammainc,
    gammaincc,
    gammainccinv,
    gammaincinv,
    gammaln,
    ndtr,
    ndtri,
)

from .errors import ConfigError, UnsupportedCombination

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
_QUAD_LIMIT = 200
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_LN_2 = math.log(2.0)
_LN_1000 = math.log(1000.0)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_positive(**params: float) -> None:
    """Raise ValueError unless every named parameter lies in (0, inf)."""
    bad = [name for name, v in params.items() if not 0 < v < math.inf]
    _require(not bad, f"{' and '.join(bad)} must be positive and finite")


def _by_kind(formula, x):
    """``formula(x, math)`` for a Python float, ``formula(array, numpy)`` otherwise.

    The float path returns a Python float. Where ``math`` raises instead of
    giving an IEEE special value (log of 0, overflow in ``**`` or ``exp``), the
    float takes the numpy path, so both paths give the same -inf, inf or nan.
    """
    if type(x) is float:
        try:
            return formula(x, math)
        except (ArithmeticError, ValueError):
            return float(formula(np.float64(x), np))
    return formula(np.asarray(x, dtype=float), np)


class PositiveLaw:
    """Base class for laws supported on (0, inf)."""

    # -- density / distribution ------------------------------------------------

    def logpdf(self, x):
        return _by_kind(self._logpdf, x)

    def _logpdf(self, x, xp):
        """The log-density formula; ``xp`` is the ``math`` or the ``numpy`` module."""
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, q):
        """F^{-1}(q) = T(-log(1 - q)) for a family sampled as Z = T(E), T increasing."""
        return self._from_std_exp(-np.log1p(-np.asarray(q, dtype=float)), np)

    # -- moments ---------------------------------------------------------------

    def raw_moment(self, k: float) -> float:
        """E[Z^k] for k > 0; ``math.inf`` when the moment does not exist or
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
        """H(x) = -ln(1 - F(x)); only families with a closed form support this."""
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

    # -- sampling ----------------------------------------------------------------

    # T in Z = T(E), E standard exponential, for the families sampled that way:
    # ``_from_std_exp(e, xp)`` with ``xp`` as in ``_logpdf``
    _from_std_exp = None

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` independent draws."""
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


@dataclass(frozen=True)
class Exponential(PositiveLaw):
    """Exponential law with the given rate; sampled by inverse CDF."""

    rate: float

    def __post_init__(self):
        _require_positive(rate=self.rate)
        object.__setattr__(self, "_log_rate", float(np.log(self.rate)))

    def _logpdf(self, x, xp):
        return self._log_rate - self.rate * x

    def cdf(self, x):
        return -np.expm1(-self.rate * np.asarray(x, dtype=float))

    def _raw_moment(self, k: float) -> float:
        return math.exp(gammaln(k + 1.0) - k * math.log(self.rate))

    def cumulative_hazard(self, x):
        return self.rate * np.asarray(x, dtype=float)

    def mgf(self, t: float) -> float:
        if t >= self.rate:
            return math.inf
        return self.rate / (self.rate - t)

    def mgf_radius(self) -> float:
        return self.rate

    def _from_std_exp(self, e, xp):
        return e / self.rate

    def sample_n(self, rng, n):
        return self._from_std_exp(_std_exp(rng, n), np)

    def label(self) -> str:
        return f"Exp({self.rate:g})"


@dataclass(frozen=True)
class Gamma(PositiveLaw):
    """Gamma law (shape, rate); sampled via numpy's standard_gamma rejection."""

    shape: float
    rate: float

    def __post_init__(self):
        _require_positive(shape=self.shape, rate=self.rate)
        log_norm = self.shape * math.log(self.rate) - float(gammaln(self.shape))
        object.__setattr__(self, "_log_norm", log_norm)

    def _logpdf(self, x, xp):
        return self._log_norm + (self.shape - 1.0) * xp.log(x) - self.rate * x

    def cdf(self, x):
        return gammainc(self.shape, self.rate * np.asarray(x, dtype=float))

    def ppf(self, q):
        return gammaincinv(self.shape, np.asarray(q, dtype=float)) / self.rate

    def _raw_moment(self, k: float) -> float:
        return math.exp(
            gammaln(self.shape + k) - gammaln(self.shape) - k * math.log(self.rate)
        )

    def mgf(self, t: float) -> float:
        if t >= self.rate:
            return math.inf
        return (self.rate / (self.rate - t)) ** self.shape

    def mgf_radius(self) -> float:
        return self.rate

    def sample_n(self, rng, n):
        return rng.standard_gamma(self.shape, n) / self.rate

    def label(self) -> str:
        return f"Ga({self.shape:g},{self.rate:g})"


@dataclass(frozen=True)
class Weibull(PositiveLaw):
    """Weibull law (shape, scale); sampled by inverse CDF."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)
        object.__setattr__(self, "_log_norm", math.log(self.shape / self.scale))

    def _logpdf(self, x, xp):
        t = x / self.scale
        return self._log_norm + (self.shape - 1.0) * xp.log(t) - t**self.shape

    def cdf(self, x):
        t = np.asarray(x, dtype=float) / self.scale
        return -np.expm1(-(t**self.shape))

    def _raw_moment(self, k: float) -> float:
        return self.scale**k * math.exp(gammaln(1.0 + k / self.shape))

    def cumulative_hazard(self, x):
        return (np.asarray(x, dtype=float) / self.scale) ** self.shape

    def mgf_radius(self) -> float:
        if self.shape > 1.0:
            return math.inf
        if self.shape == 1.0:
            return 1.0 / self.scale
        return 0.0

    def _from_std_exp(self, e, xp):
        return self.scale * e ** (1.0 / self.shape)

    def sample_n(self, rng, n):
        return self._from_std_exp(_std_exp(rng, n), np)

    def label(self) -> str:
        return f"Wei({self.shape:g},{self.scale:g})"


@dataclass(frozen=True)
class InvGamma(PositiveLaw):
    """Inverse gamma law (shape, scale); sampled as scale / standard gamma draw."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)
        log_norm = self.shape * math.log(self.scale) - float(gammaln(self.shape))
        object.__setattr__(self, "_log_norm", log_norm)

    def _logpdf(self, x, xp):
        return self._log_norm - (self.shape + 1.0) * xp.log(x) - self.scale / x

    def cdf(self, x):
        return gammaincc(self.shape, self.scale / np.asarray(x, dtype=float))

    def ppf(self, q):
        return self.scale / gammainccinv(self.shape, np.asarray(q, dtype=float))

    def _raw_moment(self, k: float) -> float:
        if k >= self.shape:
            return math.inf
        return self.scale**k * math.exp(gammaln(self.shape - k) - gammaln(self.shape))

    def mgf_radius(self) -> float:
        return 0.0

    def sample_n(self, rng, n):
        return self.scale / rng.standard_gamma(self.shape, n)

    def label(self) -> str:
        return f"InvGa({self.shape:g},{self.scale:g})"


@dataclass(frozen=True)
class InvWeibull(PositiveLaw):
    """Inverse Weibull (Frechet) law; sampled as the reciprocal of a Weibull draw."""

    shape: float
    scale: float

    def __post_init__(self):
        _require_positive(shape=self.shape, scale=self.scale)
        object.__setattr__(self, "_log_norm", math.log(self.shape / self.scale))

    def _logpdf(self, x, xp):
        t = self.scale / x
        return self._log_norm + (self.shape + 1.0) * xp.log(t) - t**self.shape

    def cdf(self, x):
        t = self.scale / np.asarray(x, dtype=float)
        return np.exp(-(t**self.shape))

    def ppf(self, q):
        # T is decreasing here, so F^{-1}(q) = T(-log q)
        return self._from_std_exp(-np.log(np.asarray(q, dtype=float)), np)

    def _raw_moment(self, k: float) -> float:
        if k >= self.shape:
            return math.inf
        return self.scale**k * math.exp(gammaln(1.0 - k / self.shape))

    def mgf_radius(self) -> float:
        return 0.0

    def _from_std_exp(self, e, xp):
        # reciprocal of Weibull(shape, 1/scale): scale * E^(-1/shape)
        return self.scale * e ** (-1.0 / self.shape)

    def sample_n(self, rng, n):
        return self._from_std_exp(_std_exp(rng, n), np)

    def label(self) -> str:
        return f"InvWei({self.shape:g},{self.scale:g})"


@dataclass(frozen=True)
class GenGamma(PositiveLaw):
    """Generalized gamma law with density |a| x^{ap-1} exp(-(x/b)^a) / (b^{ap} G(p)).

    ``alpha`` may be negative (inverse families); ``alpha = 1`` recovers the
    gamma law with rate 1/scale. Sampling: scale * G^{1/alpha} with G a
    standard gamma(shape) draw.
    """

    alpha: float
    scale: float
    shape: float

    def __post_init__(self):
        _require(self.alpha != 0 and math.isfinite(self.alpha), "alpha must be nonzero and finite")
        _require_positive(scale=self.scale, shape=self.shape)
        a, b, p = self.alpha, self.scale, self.shape
        # kept as separate terms: the array path sums them in this order
        object.__setattr__(self, "_log_abs_alpha", math.log(abs(a)))
        object.__setattr__(self, "_log_scale_pow", a * p * math.log(b))
        object.__setattr__(self, "_gammaln_shape", float(gammaln(p)))

    def _logpdf(self, x, xp):
        a, b, p = self.alpha, self.scale, self.shape
        return (
            self._log_abs_alpha
            + (a * p - 1.0) * xp.log(x)
            - self._log_scale_pow
            - self._gammaln_shape
            - (x / b) ** a
        )

    def cdf(self, x):
        t = (np.asarray(x, dtype=float) / self.scale) ** self.alpha
        if self.alpha > 0:
            return gammainc(self.shape, t)
        return gammaincc(self.shape, t)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if self.alpha > 0:
            t = gammaincinv(self.shape, q)
        else:
            t = gammainccinv(self.shape, q)
        return self.scale * t ** (1.0 / self.alpha)

    def _raw_moment(self, k: float) -> float:
        arg = self.shape + k / self.alpha
        if arg <= 0:
            return math.inf
        return self.scale**k * math.exp(gammaln(arg) - gammaln(self.shape))

    def mgf_radius(self) -> float:
        if self.alpha > 1.0:
            return math.inf
        if self.alpha == 1.0:
            return 1.0 / self.scale
        return 0.0

    def sample_n(self, rng, n):
        return self.scale * rng.standard_gamma(self.shape, n) ** (1.0 / self.alpha)

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

    def _logpdf(self, x, xp):
        log_x = xp.log(x)
        z = (log_x - self.mu) / self.sigma
        return -log_x - self._log_sigma - _HALF_LOG_2PI - 0.5 * z * z

    def cdf(self, x):
        return ndtr((np.log(np.asarray(x, dtype=float)) - self.mu) / self.sigma)

    def ppf(self, q):
        return np.exp(self.mu + self.sigma * ndtri(np.asarray(q, dtype=float)))

    def _raw_moment(self, k: float) -> float:
        return math.exp(self.mu * k + 0.5 * self.sigma**2 * k**2)

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

    def _logpdf(self, x, xp):
        return self._log_norm - (self.shape + 1.0) * xp.log(self.scale + x)

    def cdf(self, x):
        t = np.asarray(x, dtype=float) / self.scale
        return -np.expm1(-self.shape * np.log1p(t))

    def _raw_moment(self, k: float) -> float:
        if k >= self.shape:
            return math.inf
        return self.scale**k * math.exp(
            gammaln(k + 1.0) + gammaln(self.shape - k) - gammaln(self.shape)
        )

    def cumulative_hazard(self, x):
        return self.shape * np.log1p(np.asarray(x, dtype=float) / self.scale)

    def mgf_radius(self) -> float:
        return 0.0

    def _from_std_exp(self, e, xp):
        return self.scale * xp.expm1(e / self.shape)

    def sample_n(self, rng, n):
        return self._from_std_exp(_std_exp(rng, n), np)

    def label(self) -> str:
        return f"Pa({self.shape:g},{self.scale:g})"


class Mixture(PositiveLaw):
    """Two-component mixture of positive laws (the linear tilt's claim law).

    Sampling draws one selector uniform per variate, then fills the first
    component's slots from its sampler, then the second's.
    """

    def __init__(self, components: tuple[PositiveLaw, ...], weights: tuple[float, ...]):
        _require(len(components) == len(weights) == 2, "need two components and two weights")
        _require(all(w > 0 for w in weights), "weights must be positive")
        _require(abs(sum(weights) - 1.0) < 1e-12, "weights must sum to 1")
        self.components = tuple(components)
        self.weights = tuple(float(w) for w in weights)

    def cdf(self, x):
        return sum(w * c.cdf(x) for w, c in zip(self.weights, self.components))

    def sample_n(self, rng, n):
        second = rng.random(n) >= self.weights[0]
        k = int(np.count_nonzero(second))
        out = np.empty(n)
        out[~second] = self.components[0].sample_n(rng, n - k)
        out[second] = self.components[1].sample_n(rng, k)
        return out

    def label(self) -> str:
        parts = ", ".join(
            f"{w:g}*{c.label()}" for w, c in zip(self.weights, self.components)
        )
        return f"Mix({parts})"


def expectation(law: PositiveLaw, log_fn) -> float:
    """E[exp(log_fn(Z))] by adaptive quadrature over (0, inf), relative tolerance 1e-11.

    A family sampled as Z = T(E), E standard exponential, is integrated over
    e: the integrand is exp(log_fn(T(e)) - e), knotted at E's median ln 2 and
    its 0.999 quantile ln 1000. There a Weibull with shape < 1 has no
    x^(shape-1) singularity at 0 and a Pareto no polynomial tail, so QUADPACK
    converges in 140-260 evaluations where x-space took 750-1150 and still
    left up to 1e-12 of error. Where T(e) overflows, or underflows to 0, the
    integrand is 0; x-space quadrature never reached past the largest float
    either.

    Every other law is integrated over x: the integrand is
    exp(log_fn(x) + logpdf(x)), knotted at the law's median and 0.999
    quantile so the adaptive rule sees the bulk and the tail separately.

    Both integrands keep exponential reweighting factors finite where the
    density underflows, and an overflow in ``exp`` gives inf. QUADPACK calls
    the integrand with one Python float at a time, so with a ``log_fn`` in
    float arithmetic it runs on the laws' float path and never enters numpy.
    The unbounded piece goes through QUADPACK's standard infinite-interval
    transformation.
    """
    from scipy import integrate  # on first use: no simulation needs quadrature

    transform = law._from_std_exp
    if transform is None:
        knots = (0.0, float(law.ppf(0.5)), float(law.ppf(0.999)), math.inf)

        def log_integrand(x):
            return log_fn(x) + law.logpdf(x)

    else:
        knots = (0.0, _LN_2, _LN_1000, math.inf)

        def log_integrand(e):
            try:
                z = transform(e, math)
            except ArithmeticError:  # math raises where T(e) overflows
                return -math.inf
            if not 0.0 < z < math.inf:
                return -math.inf
            return log_fn(z) - e

    def integrand(t):
        try:
            return math.exp(log_integrand(t))
        except OverflowError:
            return math.inf

    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        val, _ = integrate.quad(
            integrand, a, b, epsabs=1e-14, epsrel=_QUAD_RTOL, limit=_QUAD_LIMIT
        )
        total += val
    return total


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
        return cls(**{k: float(params[k]) for k in names})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {family} parameters: {exc}") from exc
