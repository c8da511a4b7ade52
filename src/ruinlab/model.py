"""Risk model: claim law, interarrival law and premium rate under the NPC."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .laws import PositiveLaw, config_float, law_from_config

__all__ = ["RiskModel", "model_from_config"]


@dataclass(frozen=True)
class RiskModel:
    """Sparre Andersen risk model with premium income at constant rate.

    The premium may be given directly or derived from a safety loading eta via
    c = (1 + eta) * E[X] / E[W]. Construction rejects models violating the net
    profit condition c * E[W] > E[X], a non-finite premium or non-finite
    first moments.
    """

    claim_law: PositiveLaw
    wait_law: PositiveLaw
    premium: float
    claim_mean: float = field(init=False)
    wait_mean: float = field(init=False)

    def __post_init__(self):
        mx = self.claim_law.mean()
        mw = self.wait_law.mean()
        if not (math.isfinite(mx) and math.isfinite(mw)):
            raise ValueError("claim and interarrival laws must have finite means")
        if not math.isfinite(self.premium):
            raise ValueError(f"premium must be finite, got {self.premium!r}")
        if not self.premium * mw > mx:
            raise ValueError(
                f"net profit condition fails: c*E[W] = {self.premium * mw:.6g} "
                f"<= E[X] = {mx:.6g}"
            )
        object.__setattr__(self, "claim_mean", mx)
        object.__setattr__(self, "wait_mean", mw)

    @classmethod
    def from_safety_loading(
        cls, claim_law: PositiveLaw, wait_law: PositiveLaw, eta: float
    ) -> "RiskModel":
        if not 0 < eta < math.inf:
            raise ValueError("safety loading must be positive and finite")
        c = (1.0 + eta) * claim_law.mean() / wait_law.mean()
        return cls(claim_law, wait_law, c)

    @property
    def safety_loading(self) -> float:
        return self.premium * self.wait_mean / self.claim_mean - 1.0

    def label(self) -> str:
        return (
            f"X~{self.claim_law.label()} W~{self.wait_law.label()} c={self.premium:g}"
        )


def model_from_config(obj: dict) -> RiskModel:
    """Build a model from {"claim": LAW, "wait": LAW, "premium": c | "safety_loading": eta}."""
    if not isinstance(obj, dict):
        raise ConfigError("model config must be a dict")
    for key in ("claim", "wait"):
        if key not in obj:
            raise ConfigError(f"model config missing {key!r}")
    claim = law_from_config(obj["claim"])
    wait = law_from_config(obj["wait"])
    has_c = "premium" in obj
    has_eta = "safety_loading" in obj
    if has_c == has_eta:
        raise ConfigError("model config needs exactly one of 'premium' or 'safety_loading'")
    try:
        if has_c:
            return RiskModel(claim, wait, config_float(obj["premium"], "'premium'"))
        eta = config_float(obj["safety_loading"], "'safety_loading'")
        return RiskModel.from_safety_loading(claim, wait, eta)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
