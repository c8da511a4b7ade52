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

Each solver returns a number or raises a RuinlabError: MgfUnavailable for a
claim law with no mgf, and NoBracket when no root is bracketed or the root
found cannot be used. None of them returns None.
"""

from __future__ import annotations

import functools
import math
import sys
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
    "exact_psi",
    "exp_weighted_mean",
]


@dataclass(frozen=True)
class AdjustmentSolution:
    """One solve of the adjustment equation at tilt argument r."""

    r: float
    theta: float
    y: float  # theta + c*r
    residual: float  # |M_X(r) * L_W(y) - 1|
    wait_laplace: float  # L_W(y)
    claim_mgf: float  # M_X(r)


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
    return expectation(law, lambda x: np.log(x) + t * x)


def _require_light_tail(model: RiskModel) -> float:
    radius = model.claim_law.mgf_radius()
    if radius <= 0.0:
        raise MgfUnavailable(
            f"claim law {model.claim_law.label()} has no mgf on (0, inf)"
        )
    return radius


def theta_of_r(model: RiskModel, r: float) -> AdjustmentSolution:
    """Solve the adjustment equation for theta at tilt argument r in [0, r_X).

    The left-hand side is strictly decreasing in y = theta + c*r, so the root
    is bracketed by climbing y = 1, 2, 4, ... and then located by Brent's
    method. Each L_W(y) is computed once per solve: the climb, Brent's bracket
    ends, the residual and ``wait_laplace`` share it, and M_X(r) is computed
    once and returned as ``claim_mgf``. Raises NoBracket when
    L_W underflows to 0 at the root, which then does not solve the equation.
    """
    radius = _require_light_tail(model)
    if not 0.0 <= r < radius:
        raise ValueError(f"r must lie in [0, {radius:g}), got {r:g}")
    if r == 0.0:
        return AdjustmentSolution(0.0, 0.0, 0.0, 0.0, 1.0, 1.0)

    mx = model.claim_law.mgf(r)
    laplace = functools.cache(model.wait_law.laplace)
    g = lambda y: mx * laplace(y) - 1.0

    # g(0) = mx - 1 >= 0 and g -> -1 as y -> inf: -g climbs through zero once
    y = _climb_to_root(lambda y: -g(y), 0.0, math.inf)
    if laplace(y) == 0.0:
        raise NoBracket(f"L_W underflows to 0 at the adjustment root for r = {r:g}")
    return AdjustmentSolution(r, y - model.premium * r, y, abs(g(y)), laplace(y), mx)


def theta_prime(model: RiskModel, r: float) -> float:
    """theta'(r) via the tilted moment ratio; negative on [0, r_m)."""
    if r == 0.0:
        return model.claim_mean / model.wait_mean - model.premium
    sol = theta_of_r(model, r)
    num = exp_weighted_mean(model.claim_law, r) / sol.claim_mgf
    if not math.isfinite(num):
        return math.inf
    wait_mean = exp_weighted_mean(model.wait_law, -sol.y) / sol.wait_laplace
    return num / wait_mean - model.premium


_BRENT_XTOL = 1e-15
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _refine_root(fn, lo: float, hi: float) -> float:
    # Brent's method, ported line for line from scipy's brentq (licence notice
    # below) with its settings: xtol 1e-15, rtol 4*eps, 100 iterations. Like
    # brentq it raises ValueError for ends of one sign or a NaN value and
    # RuntimeError when it does not converge. Each caller's bracket comes from
    # the monotonicity or convexity of its function, so fn(lo) and fn(hi)
    # differ in sign and fn crosses zero once in between. Brent evaluates fn at
    # both ends again and returns a point it evaluated, so callers wrap fn in
    # functools.cache to share those values with their probes and residuals
    def f(x: float) -> float:
        fx = float(fn(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        # keep the root between xcur and xblk, with |f(xcur)| <= |f(xblk)|
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic step
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gives inf or nan here, which bisects
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


# _refine_root is a transcription of scipy/optimize/Zeros/brentq.c (written by
# Charles Harris), distributed with SciPy under this licence:
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


def _climb_to_root(fn, lo: float, radius: float) -> float:
    """Root of fn above lo, where fn(lo) <= 0 and fn changes sign at most once.

    Probes r = radius*(1 - 2^-j) for a finite radius and 2^j otherwise.
    Raises NoBracket when fn(lo) > 0 or fn is still not positive at the last
    probe.
    """
    if fn(lo) > 0.0:
        raise NoBracket(f"no sign change above {lo:g}: the function is already positive there")
    if math.isfinite(radius):
        probes = (radius * (1.0 - 0.5**j) for j in range(1, 50))
    else:
        probes = (2.0**j for j in range(200))
    for r in probes:
        if r <= lo:
            continue
        if fn(r) > 0.0:
            return _refine_root(fn, lo, r)
        lo = r
    raise NoBracket(f"no sign change on the probes up to {lo:g}")


def lundberg_root(model: RiskModel) -> float:
    """Positive zero rho of theta; NoBracket when none is bracketed on (0, r_X)."""
    radius = _require_light_tail(model)
    c = model.premium
    claim, wait = model.claim_law, model.wait_law

    @functools.cache
    def phi(r: float) -> float:
        mx = claim.mgf(r)
        if not math.isfinite(mx):
            return math.inf
        return mx * wait.laplace(c * r) - 1.0

    # phi is convex with phi(0) = 0 and phi'(0) < 0 under the NPC, so it is
    # negative on (0, rho) and positive past rho. Probes start at radius/2
    # (or 1) and halve only until phi < 0: near 0, |phi| sinks below the
    # quadrature noise and its sign says nothing
    start = radius / 2.0 if math.isfinite(radius) else 1.0
    lo = start
    for _ in range(60):
        if phi(lo) < 0.0:
            break
        lo /= 2.0
    else:
        raise NoBracket(f"phi is not negative on any probe down to r = {lo:g}")
    if lo < start:
        return _refine_root(phi, lo, 2.0 * lo)
    return _climb_to_root(phi, lo, radius)


def memm_point(model: RiskModel) -> MemmPoint:
    """Zero r_m of theta' in (0, r_X); NoBracket when none is found or it does not converge."""
    radius = _require_light_tail(model)
    # theta is convex, so theta' is increasing from its closed-form theta'(0) < 0
    h = functools.cache(lambda r: theta_prime(model, r))
    root = _climb_to_root(h, 0.0, radius)
    # theta' + c is a ratio of tilted means: its rounding error near the zero scales with c
    residual = abs(h(root))
    if residual > 1e-10 * max(1.0, model.premium):
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


def exact_psi(model: RiskModel, u: float) -> float:
    """Closed-form ruin probability psi(u) = (1 - rho/zeta) exp(-rho u) for
    exponential claims of rate zeta, with rho the Lundberg root.

    Exponential waits of rate beta give rho = zeta - beta/c, written as
    beta/(zeta c) exp(-(zeta - beta/c) u); other waits take rho from
    ``lundberg_root`` and its NoBracket when none is found. Any other claim
    law raises UnsupportedCombination.
    """
    claim, wait = model.claim_law, model.wait_law
    if not isinstance(claim, Exponential):
        raise UnsupportedCombination(
            f"no closed form applies: psi(u) needs exponential claims, not {claim.label()}"
        )
    zeta = claim.rate
    if isinstance(wait, Exponential):
        beta, c = wait.rate, model.premium
        return beta / (zeta * c) * math.exp(-(zeta - beta / c) * u)
    rho = lundberg_root(model)
    return (1.0 - rho / zeta) * math.exp(-rho * u)
