"""Tilting pairs (gamma, delta) and admissibility in the ruin-inducing class.

A tilting pair is a pair of functions with E[exp(gamma(X))] = E[exp(delta(W))]
= 1 defining an equivalent change of measure that keeps the compound renewal
structure and reweights claims by exp(gamma) and interarrival times by
exp(delta). The pair is ruin-inducing (admissible) when the tilted model
violates the net profit condition:

    c * E[W exp(delta(W))] <= E[X exp(gamma(X))].

Four parametric families are provided, each with closed-form normalizers and
sampleable tilted laws wherever those exist:

* identity          gamma = delta = 0 (crude Monte Carlo; never admissible)
* esscher           gamma = r*x - ln M_X(r) paired through the adjustment
                    function, so delta = -y(r)*w - ln L_W(y(r))
* linear            gamma = ln((1 - xi*x)/(1 - xi*E[X])) with exponential
                    waits; the tilted claim law is a mixture of the original
                    and its size-biased counterpart
* hazard twist      gamma = ln r - (r-1) H_X(x), delta = ln t - (t-1) H_W(w),
                    i.e. survival functions raised to a power (proportional
                    hazards); component with parameter 1 is left untouched
* from-target       gamma = ln(g/f_X), delta = ln(h/f_W) for prescribed
                    target densities g, h

A family defines only gamma, delta and its tilted laws; the path log-weight,
sum(gamma(X_j)) + sum(delta(W_j)) over each path's own steps, is evaluated
pointwise for every family by ``TiltingPair.path_log_weight``. The hazard
twist alone may weigh a draw by the standard exponential E it was made from
(see ``HazardTwist.path_log_weight``); its ``weighs_std_exp`` names the
components for which a caller passes E.

All laws in the catalog share support (0, inf), so targets never need a
support check here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NonFiniteMoment,
    NotRuinInducing,
    RuinlabError,
    UnsupportedCombination,
)
from .laws import (
    Exponential,
    Gamma,
    GenGamma,
    InvGamma,
    InvWeibull,
    LogNormal,
    Mixture,
    Pareto,
    PositiveLaw,
    Weibull,
    expectation,
    law_from_config,
)
from .lundberg import exp_weighted_mean, theta_of_r, xi_hat
from .model import RiskModel

__all__ = [
    "TiltingPair",
    "IdentityTilt",
    "EsscherTilt",
    "LinearTilt",
    "HazardTwist",
    "TargetTilt",
    "AdmissibilityReport",
    "check_admissible",
    "require_ruin_inducing",
    "size_biased",
    "hazard_twisted",
    "hazard_r_max",
    "normalization_residuals",
    "tilt_from_config",
]

# boundary pairs (xi = xi_hat, r = r_max) sit on the equality edge of the
# admissible class; a hair of float slack keeps them classified as inside, and
# the same slack keeps their zero tilted drift out of infinite-time runs
_BOUNDARY_RTOL = 1e-9


def _pos(v):
    """``v`` checked to lie in [0, inf); a Python float stays a float, all else an array.

    0 is let through: a sampler maps U = 0, drawn with probability 2^-53 per
    uniform, to a standard exponential of 0 and so to a draw of 0.
    """
    if type(v) is float:
        low = v
    else:
        v = np.asarray(v, dtype=float)
        low = np.min(v) if v.size else math.inf
    if low < 0.0:
        raise DomainError("tilting functions are defined on [0, inf) only")
    return v


@dataclass(frozen=True)
class AdmissibilityReport:
    """Both sides of the ruin-inducing inequality c*E[W e^delta] <= E[X e^gamma]."""

    in_c_p: bool
    lhs: float
    rhs: float
    method: str  # "closed" or "quadrature"


class TiltingPair:
    """Base class; concrete pairs are immutable once constructed."""

    variant: str
    # (claims, waits): the components whose standard exponentials E, the draws
    # behind Z = T(E), ``path_log_weight`` reads in place of the draws
    weighs_std_exp = (False, False)

    def __init__(self, model: RiskModel):
        self.model = model

    def gamma(self, x) -> np.ndarray:
        raise NotImplementedError

    def delta(self, w) -> np.ndarray:
        raise NotImplementedError

    def tilted_claim_law(self) -> PositiveLaw:
        raise NotImplementedError

    def tilted_wait_law(self) -> PositiveLaw:
        raise NotImplementedError

    def tilted_claim_mean(self) -> float:
        """E[X exp(gamma(X))], the tilted claim law's mean; may be inf."""
        return self.tilted_claim_law().mean()

    def tilted_wait_mean(self) -> float:
        """E[W exp(delta(W))], the tilted wait law's mean; may be inf."""
        return self.tilted_wait_law().mean()

    def path_log_weight(self, x: np.ndarray, w: np.ndarray, starts: np.ndarray,
                        ex=None, ew=None):
        """sum(gamma) + sum(delta) over each path segment of the 1-D ``x``, ``w``.

        Segment i runs from ``starts[i]`` to ``starts[i + 1]`` (the last to the
        end); the pointwise log-weight is evaluated on every element. A
        non-empty segment's value depends only on its own elements,
        bit-identical to weighing it alone. An empty segment (a repeated
        start) gives the element at its start, not 0, as ``reduceat`` does: a
        caller may pass empty gap segments only where it discards them. ``ex``
        and ``ew`` are the standard exponentials behind ``x`` and ``w``, passed
        for the components ``weighs_std_exp`` names; only the hazard twist
        reads them.
        """
        return np.add.reduceat(self.gamma(x) + self.delta(w), starts)

    @property
    def moment_method(self) -> str:
        return "closed"

    def resolved_params(self) -> dict:
        return {}

    def label(self) -> str:
        params = ", ".join(f"{k}={v:g}" for k, v in self.resolved_params().items())
        return f"{self.variant}({params})"


class IdentityTilt(TiltingPair):
    variant = "identity"

    def gamma(self, x):
        return np.zeros_like(_pos(x))

    delta = gamma

    def tilted_claim_law(self):
        return self.model.claim_law

    def tilted_wait_law(self):
        return self.model.wait_law


def _exp_tilted(law: PositiveLaw, t: float) -> PositiveLaw:
    """The law with density e^{tz} f(z) / M(t), for exponential and gamma laws."""
    if t == 0.0:
        return law
    if isinstance(law, Exponential):
        return Exponential(law.rate - t)
    if isinstance(law, Gamma):
        return Gamma(law.shape, law.rate - t)
    raise UnsupportedCombination(f"no closed-form exponential tilt of {law.label()}")


class EsscherTilt(TiltingPair):
    """Exponential tilt of the claims coupled to the waits through theta(r)."""

    variant = "esscher"

    def __init__(self, model: RiskModel, r: float):
        super().__init__(model)
        self.r = float(r)
        self.adjustment = theta_of_r(model, self.r)  # validates r in [0, r_X)
        self.y = self.adjustment.y
        self._ln_mx = math.log(self.adjustment.claim_mgf) if self.r else 0.0
        self._ln_lw = math.log(self.adjustment.wait_laplace) if self.y else 0.0

    def gamma(self, x):
        return self.r * _pos(x) - self._ln_mx

    def delta(self, w):
        return -self.y * _pos(w) - self._ln_lw

    def tilted_claim_law(self):
        return _exp_tilted(self.model.claim_law, self.r)

    def tilted_wait_law(self):
        return _exp_tilted(self.model.wait_law, -self.y)

    def tilted_claim_mean(self):
        return exp_weighted_mean(self.model.claim_law, self.r) * math.exp(-self._ln_mx)

    def tilted_wait_mean(self):
        return exp_weighted_mean(self.model.wait_law, -self.y) * math.exp(-self._ln_lw)

    @property
    def moment_method(self):
        closed = (Exponential, Gamma)
        if isinstance(self.model.claim_law, closed) and isinstance(
            self.model.wait_law, closed
        ):
            return "closed"
        return "quadrature"

    def resolved_params(self):
        return {"r": self.r, "theta": self.adjustment.theta, "y": self.y}


def size_biased(law: PositiveLaw) -> PositiveLaw:
    """The law with density x*f(x)/E[X]; family-preserving shape shift."""
    if isinstance(law, Exponential):
        return Gamma(2.0, law.rate)
    if isinstance(law, Gamma):
        return Gamma(law.shape + 1.0, law.rate)
    if isinstance(law, Weibull):
        return GenGamma(law.shape, law.scale, 1.0 + 1.0 / law.shape)
    if isinstance(law, InvGamma):
        return InvGamma(law.shape - 1.0, law.scale)
    if isinstance(law, InvWeibull):
        return GenGamma(-law.shape, law.scale, 1.0 - 1.0 / law.shape)
    if isinstance(law, GenGamma):
        return GenGamma(law.alpha, law.scale, law.shape + 1.0 / law.alpha)
    if isinstance(law, LogNormal):
        return LogNormal(law.mu + law.sigma**2, law.sigma)
    raise UnsupportedCombination(f"no named size-biased family for {law.label()}")


class LinearTilt(TiltingPair):
    """Linear claim reweighting 1 - xi*x (xi < 0) with exponential waits."""

    variant = "linear"

    def __init__(self, model: RiskModel, xi: float):
        super().__init__(model)
        if not isinstance(model.wait_law, Exponential):
            raise UnsupportedCombination("the linear tilt requires exponential interarrivals")
        if not xi < 0:
            raise ValueError(f"xi must be negative, got {xi:g}")
        self.xi = float(xi)
        self._m1 = model.claim_mean
        self._m2 = model.claim_law.raw_moment(2.0)
        self._beta = model.wait_law.rate
        self._ln_norm = math.log1p(-self.xi * self._m1)

    def gamma(self, x):
        return np.log1p(-self.xi * _pos(x)) - self._ln_norm

    def delta(self, w):
        return self._ln_norm + self.xi * self._beta * self._m1 * _pos(w)

    def tilted_claim_law(self):
        norm = 1.0 - self.xi * self._m1
        return Mixture(
            (self.model.claim_law, size_biased(self.model.claim_law)),
            (1.0 / norm, -self.xi * self._m1 / norm),
        )

    def tilted_wait_law(self):
        return Exponential(self._beta * (1.0 - self.xi * self._m1))

    def tilted_claim_mean(self):
        if not math.isfinite(self._m2):
            return math.inf
        return (self._m1 - self.xi * self._m2) / (1.0 - self.xi * self._m1)

    def tilted_wait_mean(self):
        return 1.0 / (self._beta * (1.0 - self.xi * self._m1))

    def resolved_params(self):
        return {"xi": self.xi}


def hazard_twisted(law: PositiveLaw, factor: float) -> PositiveLaw:
    """Law with survival function raised to the power ``factor``."""
    if factor <= 0:
        raise ValueError("twist factor must be positive")
    if factor == 1.0:
        return law
    if isinstance(law, Exponential):
        return Exponential(factor * law.rate)
    if isinstance(law, Weibull):
        return Weibull(law.shape, law.scale * factor ** (-1.0 / law.shape))
    if isinstance(law, Pareto):
        return Pareto(factor * law.shape, law.scale)
    raise UnsupportedCombination(f"{law.label()} has no closed-form hazard twist")


def _twist_log_weight(factor: float, e: np.ndarray) -> np.ndarray:
    # ln f - (f - 1) H(Z), H the untwisted law's cumulative hazard, for a draw
    # Z = T_f(E) of the law twisted by f, where H(Z) = E / f
    return math.log(factor) - (1.0 - 1.0 / factor) * e


class HazardTwist(TiltingPair):
    """Proportional-hazards twist of the claims (r) and/or the waits (theta)."""

    variant = "hazard"

    def __init__(self, model: RiskModel, r: float, theta: float):
        super().__init__(model)
        self.r = float(r)
        self.theta = float(theta)
        # validates the factors and closed-form hazards; a factor of 1 leaves
        # its component untouched
        self._qx = hazard_twisted(model.claim_law, self.r)
        self._qw = hazard_twisted(model.wait_law, self.theta)
        self.weighs_std_exp = (self.r != 1.0, self.theta != 1.0)

    def gamma(self, x):
        if self.r == 1.0:
            return np.zeros_like(_pos(x))
        h = self.model.claim_law.cumulative_hazard(_pos(x))
        return math.log(self.r) - (self.r - 1.0) * h

    def delta(self, w):
        if self.theta == 1.0:
            return np.zeros_like(_pos(w))
        h = self.model.wait_law.cumulative_hazard(_pos(w))
        return math.log(self.theta) - (self.theta - 1.0) * h

    def path_log_weight(self, x, w, starts, ex=None, ew=None):
        """The base class's segmented sum, reading E where it is passed.

        Every law with a closed-form twist (Exp, Weibull, Pareto) is sampled
        as Z = T(E), and its twist by a factor f has cumulative hazard f H, so
        H(T_f(E)) = E / f exactly and the log-weight of a twisted draw is
        ln f - (1 - 1/f) E, with no transcendental call per step. A component
        weighs its E when given one (``weighs_std_exp`` names when the caller
        should) and its draw through ``gamma``/``delta`` otherwise.
        """
        g = self.gamma(x) if ex is None else _twist_log_weight(self.r, ex)
        d = self.delta(w) if ew is None else _twist_log_weight(self.theta, ew)
        return np.add.reduceat(g + d, starts)

    def tilted_claim_law(self):
        return self._qx

    def tilted_wait_law(self):
        return self._qw

    def resolved_params(self):
        return {"r": self.r, "theta": self.theta}


class TargetTilt(TiltingPair):
    """Pair whose tilted laws are prescribed target distributions."""

    variant = "from_target"

    def __init__(self, model: RiskModel, target_claim: PositiveLaw, target_wait: PositiveLaw):
        super().__init__(model)
        self.target_claim = target_claim
        self.target_wait = target_wait

    def gamma(self, x):
        x = _pos(x)
        return self.target_claim.logpdf(x) - self.model.claim_law.logpdf(x)

    def delta(self, w):
        w = _pos(w)
        return self.target_wait.logpdf(w) - self.model.wait_law.logpdf(w)

    def tilted_claim_law(self):
        return self.target_claim

    def tilted_wait_law(self):
        return self.target_wait

    def label(self):
        return f"from_target(X~{self.target_claim.label()}, W~{self.target_wait.label()})"


def check_admissible(pair: TiltingPair) -> AdmissibilityReport:
    """Evaluate both sides of the ruin-inducing inequality for a pair.

    Raises NonFiniteMoment when a tilted first moment is infinite (the pair
    then falls outside the admissible class by definition).
    """
    rhs = pair.tilted_claim_mean()
    lhs = pair.model.premium * pair.tilted_wait_mean()
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NonFiniteMoment(
            f"tilted first moments must be finite (lhs={lhs:g}, rhs={rhs:g})"
        )
    in_c_p = lhs <= rhs * (1.0 + _BOUNDARY_RTOL)
    return AdmissibilityReport(in_c_p, lhs, rhs, pair.moment_method)


def require_ruin_inducing(pair: TiltingPair) -> None:
    """Raise unless the pair is ruin-inducing with a positive tilted drift.

    NotRuinInducing, with both sides of the inequality, when the drift
    E[X e^gamma] - c*E[W e^delta] is not above _BOUNDARY_RTOL * E[X e^gamma];
    NonFiniteMoment when a tilted first moment is infinite.
    """
    report = check_admissible(pair)
    if report.rhs - report.lhs <= _BOUNDARY_RTOL * report.rhs:
        raise NotRuinInducing(report.lhs, report.rhs)


def hazard_r_max(model: RiskModel, theta: float) -> float:
    """Largest admissible claim twist r for a given wait twist theta.

    Solves c * E[W e^delta] = E[X e^gamma] using the closed-form mean of the
    twisted claim law; defined for exponential, Pareto and Weibull claims.
    """
    mw = hazard_twisted(model.wait_law, theta).mean()
    if not math.isfinite(mw):
        raise NonFiniteMoment("twisted interarrival mean is infinite")
    cmw = model.premium * mw
    claw = model.claim_law
    if isinstance(claw, Exponential):
        return 1.0 / (claw.rate * cmw)
    if isinstance(claw, Pareto):
        return (1.0 + claw.scale / cmw) / claw.shape
    if isinstance(claw, Weibull):
        try:
            return (claw.mean() / cmw) ** claw.shape
        except OverflowError:
            raise DomainError(
                f"r_max = ({claw.mean() / cmw:g})^{claw.shape:g} exceeds the largest double"
            ) from None
    raise UnsupportedCombination(f"no closed-form twist boundary for {claw.label()}")


def normalization_residuals(pair: TiltingPair) -> tuple[float, float]:
    """Quadrature residuals |E[e^gamma] - 1| and |E[e^delta] - 1|."""
    claim_res = abs(expectation(pair.model.claim_law, pair.gamma) - 1.0)
    wait_res = abs(expectation(pair.model.wait_law, pair.delta) - 1.0)
    return claim_res, wait_res


def tilt_from_config(obj: dict, model: RiskModel) -> TiltingPair:
    """Build a tilting pair from {"family": ..., "params": {...}}.

    The linear family accepts either {"xi": v} or {"xi_factor": f} meaning
    xi = f * xi_hat; the hazard family accepts {"theta": t, "r": v} or
    {"theta": t, "r_factor": f} meaning r = f * r_max(theta).
    """
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError("tilt config must be a dict with a 'family' key")
    family = obj["family"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{family} tilt params must be a dict, got {params!r}")
    try:
        if family == "identity":
            return IdentityTilt(model)
        if family == "esscher":
            return EsscherTilt(model, float(params["r"]))
        if family == "linear":
            if ("xi" in params) == ("xi_factor" in params):
                raise ConfigError("linear tilt needs exactly one of 'xi' or 'xi_factor'")
            if "xi" in params:
                xi = float(params["xi"])
            else:
                xi = float(params["xi_factor"]) * xi_hat(model)
            return LinearTilt(model, xi)
        if family == "hazard":
            theta = float(params.get("theta", 1.0))
            if ("r" in params) == ("r_factor" in params):
                raise ConfigError("hazard tilt needs exactly one of 'r' or 'r_factor'")
            if "r" in params:
                r = float(params["r"])
            else:
                r = float(params["r_factor"]) * hazard_r_max(model, theta)
            return HazardTwist(model, r, theta)
        if family == "from_target":
            return TargetTilt(
                model,
                law_from_config(params["claim"]),
                law_from_config(params["wait"]),
            )
    except KeyError as exc:
        raise ConfigError(f"tilt config missing parameter {exc}") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError, RuinlabError) as exc:
        raise ConfigError(f"invalid {family} tilt: {exc}") from exc
    raise ConfigError(f"unknown tilt family {family!r}")
