"""Adjustment function, Lundberg root and closed-form ruin benchmarks.

The adjustment function theta(r) is the unique solution of

    M_X(r) * L_W(theta(r) + c*r) = 1,        0 <= r < r_X,

where M_X is the claim mgf and L_W the interarrival Laplace transform. theta
is strictly convex with theta(0) = 0; its positive zero rho (when it exists)
is the classical Lundberg adjustment coefficient. The derivative is evaluated
through the tilted moment ratio

    theta'(r) = E[X e^{rX}] / M_X(r) / (E[W e^{-yW}] / L_W(y)) - c,  y = theta(r) + c*r,

rather than by numerically differentiating theta, to avoid compounding solver
error. Zeros of theta' locate the entropy-minimal tilt argument r_m below
which the Esscher pair stops being ruin-inducing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MgfUnavailable, NoBracket, SecondMomentInfinite, UnsupportedCombination
from .laws import Exponential, Gamma, PositiveLaw, expectation
from .model import RiskModel

__all__ = [
    "AdjustmentSolution",
    "MemmPoint",
    "theta_of_r",
    "theta_prime",
    "lundberg_root",
    "memm_point",
    "xi_hat",
    "exact_psi_cl_exp",
    "exact_psi_sa_exp",
    "exp_weighted_mean",
]

_RESIDUAL_TOL = 1e-12
_BISECT_WIDTH = 1e-10


@dataclass(frozen=True)
class AdjustmentSolution:
    """One solve of the adjustment equation at tilt argument r."""

    r: float
    theta: float
    y: float  # theta + c*r
    residual: float  # |M_X(r) * L_W(y) - 1|


@dataclass(frozen=True)
class MemmPoint:
    """Zero of theta' plus the associated premium when the waits are exponential."""

    r: float
    residual: float  # |theta'(r)|
    premium: float | None


def exp_weighted_mean(law: PositiveLaw, t: float) -> float:
    """E[Z * exp(t Z)]; closed form for exponential/gamma, quadrature otherwise."""
    if isinstance(law, Exponential):
        if t >= law.rate:
            return math.inf
        return law.rate / (law.rate - t) ** 2
    if isinstance(law, Gamma):
        if t >= law.rate:
            return math.inf
        return law.mgf(t) * law.shape / (law.rate - t)
    if t > 0 and t >= law.mgf_radius():
        return math.inf
    return expectation(law, lambda x: np.log(x) + t * x, fn_is_log=True)


def _esscher_claim_mean(law: PositiveLaw, r: float) -> float:
    return exp_weighted_mean(law, r) / law.mgf(r)


def _esscher_wait_mean(law: PositiveLaw, y: float) -> float:
    return exp_weighted_mean(law, -y) / law.laplace(y)


def _require_light_tail(model: RiskModel) -> float:
    radius = model.claim_law.mgf_radius()
    if radius <= 0.0:
        raise MgfUnavailable(
            f"claim law {model.claim_law.label()} has no mgf on (0, inf)"
        )
    return radius


def theta_of_r(model: RiskModel, r: float) -> AdjustmentSolution:
    """Solve the adjustment equation for theta at tilt argument r in [0, r_X).

    The left-hand side is strictly decreasing in theta, so the root is
    bracketed by doubling, then bisected and Newton-polished by the shared
    root refiner with the analytic slope.
    """
    radius = _require_light_tail(model)
    if not 0.0 <= r < radius:
        raise ValueError(f"r must lie in [0, {radius:g}), got {r:g}")
    if r == 0.0:
        return AdjustmentSolution(0.0, 0.0, 0.0, 0.0)

    mx = model.claim_law.mgf(r)
    wait = model.wait_law
    g = lambda y: mx * wait.laplace(y) - 1.0

    # g(0) = mx - 1 >= 0 and g -> -1 as y -> inf: double until the sign flips
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if g(hi) < 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NoBracket("could not bracket the adjustment equation root")

    y = _refine_root(g, lo, hi, lambda y: -mx * exp_weighted_mean(wait, -y))
    return AdjustmentSolution(r, y - model.premium * r, y, abs(g(y)))


def theta_prime(model: RiskModel, r: float) -> float:
    """theta'(r) via the tilted moment ratio; negative on [0, r_m)."""
    if r == 0.0:
        return model.claim_mean / model.wait_mean - model.premium
    sol = theta_of_r(model, r)
    num = _esscher_claim_mean(model.claim_law, r)
    if not math.isfinite(num):
        return math.inf
    return num / _esscher_wait_mean(model.wait_law, sol.y) - model.premium


def _ascending_probes(radius: float) -> list[float]:
    if math.isfinite(radius):
        below = [radius * 0.5**j for j in range(40, 1, -1)]
        near = [radius * (1.0 - 0.5**j) for j in range(1, 50)]
        return below + near
    return [2.0**j for j in range(-40, 64)]


def _refine_root(fn, lo: float, hi: float, dfn=None) -> float:
    # bisection to fixed width, then a few Newton/secant polish steps
    flo = fn(lo)
    for _ in range(200):
        if hi - lo <= _BISECT_WIDTH * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    # float noise may place the root a few ulps outside the bisection
    # bracket, so only steps larger than the bracket are rejected
    x = 0.5 * (lo + hi)
    width = hi - lo
    for _ in range(5):
        fx = fn(x)
        if abs(fx) <= _RESIDUAL_TOL:
            break
        slope = dfn(x) if dfn is not None else (fn(x + 1e-9) - fx) / 1e-9
        if slope == 0.0 or not math.isfinite(slope):
            break
        step = fx / slope
        if abs(step) > width:
            break
        x = x - step
    return x


def lundberg_root(model: RiskModel) -> float | None:
    """Positive zero rho of theta, or None when theta stays negative on (0, r_X)."""
    radius = _require_light_tail(model)
    c = model.premium
    claim, wait = model.claim_law, model.wait_law

    def phi(r: float) -> float:
        mx = claim.mgf(r)
        if not math.isfinite(mx):
            return math.inf
        return mx * wait.laplace(c * r) - 1.0

    # phi(0) = 0 with phi'(0) < 0 under the NPC, so scan for the dip-then-rise
    neg_r = None
    for r in _ascending_probes(radius):
        v = phi(r)
        if v <= 0.0:
            neg_r = r
        elif neg_r is not None:
            return _refine_root(phi, neg_r, r)
        else:
            raise NoBracket("phi positive before any negative probe")  # defensive
    return None


def memm_point(model: RiskModel) -> MemmPoint | None:
    """Zero r_m of theta' in (0, r_X), or None when theta' never changes sign."""
    radius = _require_light_tail(model)
    h0 = theta_prime(model, 0.0)
    if not h0 < 0.0:
        raise AssertionError("theta'(0) must be negative under the net profit condition")

    h = lambda r: theta_prime(model, r)
    neg_r = 0.0
    root = None
    for r in _ascending_probes(radius):
        v = h(r)
        if v <= 0.0:
            neg_r = r
        else:
            root = _refine_root(h, neg_r, r)
            break
    if root is None:
        return None

    residual = abs(h(root))
    if residual > 1e-10:
        raise NoBracket(f"theta' zero did not converge (residual {residual:.2e})")
    premium = None
    if isinstance(model.wait_law, Exponential):
        premium = model.wait_law.rate * exp_weighted_mean(model.claim_law, root)
    return MemmPoint(root, residual, premium)


def xi_hat(model: RiskModel) -> float:
    """Boundary linear-tilt parameter (beta*E[X] - c) / (beta*E[X^2]); always < 0."""
    if not isinstance(model.wait_law, Exponential):
        raise UnsupportedCombination("the linear tilt requires exponential interarrivals")
    m2 = model.claim_law.raw_moment(2.0)
    if not math.isfinite(m2):
        raise SecondMomentInfinite(
            f"claim law {model.claim_law.label()} has infinite second moment"
        )
    beta = model.wait_law.rate
    return (beta * model.claim_mean - model.premium) / (beta * m2)


def exact_psi_cl_exp(model: RiskModel, u: float) -> float:
    """Closed-form ruin probability for exponential claims and exponential waits."""
    if not (
        isinstance(model.claim_law, Exponential) and isinstance(model.wait_law, Exponential)
    ):
        raise UnsupportedCombination("closed form needs exponential claims and waits")
    theta = model.claim_law.rate
    beta = model.wait_law.rate
    c = model.premium
    return beta / (theta * c) * math.exp(-(theta - beta / c) * u)


def exact_psi_sa_exp(model: RiskModel, u: float) -> float:
    """Closed-form ruin probability for exponential claims and general waits.

    psi(u) = (1 - rho/zeta) * exp(-rho*u) with zeta the claim rate and rho the
    Lundberg root.
    """
    if not isinstance(model.claim_law, Exponential):
        raise UnsupportedCombination("closed form needs exponential claims")
    rho = lundberg_root(model)
    if rho is None:
        raise NoBracket("no Lundberg root; the closed form does not apply")
    zeta = model.claim_law.rate
    return (1.0 - rho / zeta) * math.exp(-rho * u)
