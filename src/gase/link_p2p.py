"""Point-to-point link: ergodic capacity, GASE, and the GASE-optimal power.

Under Rayleigh fading the ergodic capacity is (1/ln 2) * exp(x) * E1(x) with
x = d^a N / P_t, and GASE divides it by the single-transmitter affected area.
GASE is unimodal in P_t for path-loss exponents above 2; the maximiser solves
(x + 2/a) * exp(x) * E1(x) = 1, which is scale-free in x, so the root is
found once in x, by safeguarded Newton steps in ln x, and mapped back through
P_t = d^a N / x.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict

from .mathkernel import EULER_GAMMA, scaled_e1, scaled_en
from .propagation import (PowerLevel, PropagationEnvironment, _ratio_text,
                          affected_area_single, mean_snr, path_ratio, watts_of)

LN2 = math.log(2.0)

__all__ = [
    "P2pScenario",
    "NoInteriorOptimumError",
    "ergodic_capacity_p2p",
    "gase_p2p",
    "optimal_inverse_snr",
    "optimal_power_p2p",
    "optimal_power_residual",
]


class NoInteriorOptimumError(ValueError):
    """GASE has no interior maximum in transmit power (path-loss exponent <= 2)."""


@dataclass(frozen=True)
class P2pScenario:
    env: PropagationEnvironment
    p_t: PowerLevel
    d: float

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("distance must be > 0")


def ergodic_capacity_p2p(s: P2pScenario) -> float:
    """Rayleigh ergodic capacity (1/ln 2) * exp(x) * E1(x), x = d^a N / P_t."""
    x = 1.0 / mean_snr(s.env, s.p_t, s.d)
    return scaled_e1(x) / LN2


def _footprint(env: PropagationEnvironment, p_t, name: str) -> float:
    """affected_area_single, for a GASE to divide by: refused, by name, where it
    underflows to 0 or overflows."""
    try:
        area = affected_area_single(env, p_t)
    except OverflowError as exc:
        raise OverflowError(f"the {name}'s {exc}") from None
    if area == 0.0:
        ratio = _ratio_text(watts_of(p_t), env.p_min_w)
        raise ZeroDivisionError(f"the {name}'s affected area underflows to 0 m^2 "
                                f"({ratio}, a = {env.path_loss_exponent:g})")
    return area


def gase_p2p(s: P2pScenario) -> Dict[str, float]:
    """Capacity over affected area for a single link, as the CSV row: each
    column by name, in output order."""
    capacity = ergodic_capacity_p2p(s)
    area = _footprint(s.env, s.p_t, "transmitter")
    return {"capacity_bps_hz": capacity, "area_m2": area, "gase_bps_hz_m2": capacity / area}


def _residual(x: float, a: float) -> float:
    """(x + 2/a) * exp(x) * E1(x) - 1, which falls through 0 at the optimum x*."""
    return (x + 2.0 / a) * scaled_e1(x) - 1.0


def optimal_power_residual(env: PropagationEnvironment, d: float, p_t) -> float:
    """Residual (x + 2/a) * exp(x) * E1(x) - 1 at x = d^a N / P_t."""
    return _residual(1.0 / mean_snr(env, p_t, d), env.path_loss_exponent)


def _newton_step(x: float, c: float):
    """The residual R = (x + c) h - 1 at x, c = 2/a, h = exp(x) E1(x), and its
    Newton step in t = ln x.  With g = x h and h2 = exp(x) E2(x) = 1 - g,
    dR/dt = g + (x + c)(g - 1) = g - (x + c) h2.  Above x = 1, h2 comes from
    its own continued fraction and R = c h - h2: no term near 1 cancels as
    x* grows (a -> 2), where R and its slope are small.  R falls in t, so a
    slope of 0 or above is rounding: the step is then inf, which bisects."""
    if x <= 1.0:
        h = scaled_e1(x)
        g = x * h
        h2 = 1.0 - g
        r = (x + c) * h - 1.0
    else:
        h2 = scaled_en(x, 2)
        g = 1.0 - h2
        r = c * (g / x) - h2
    slope = g - (x + c) * h2
    return r, -r / slope if slope < 0.0 else math.inf


def optimal_inverse_snr(a: float) -> float:
    """Root x* of (x + 2/a) * exp(x) * E1(x) = 1, for path-loss exponent a > 2.

    x is the inverse mean SNR d^a N / P_t of a link, so the root does not
    depend on distance, noise or detection threshold.  Refuses for a <= 2,
    where GASE has no interior maximum, and raises ArithmeticError where x*
    is below the smallest normal float (a above about 1,415).

    Newton's method in t = ln x (_newton_step), from the asymptotes
    x* ~ 2/(a - 2) as a -> 2 and x* ~ exp(-a/2 - gamma) as a grows.  A step
    that leaves the sign bracket [lo, hi] of R bisects it instead.  The
    iteration stops once a step is within 4 ulps of 1 + |t|, or once a step
    below 1e-6 no longer halves: quadratic convergence has then reached the
    rounding of R.
    """
    if a <= 2.0:
        raise NoInteriorOptimumError(
            f"path loss exponent {a:g} <= 2: GASE is maximised only in the "
            "vanishing-power limit, no interior optimum exists")
    if _residual(sys.float_info.min, a) <= 0.0:
        raise ArithmeticError(f"optimal inverse SNR below the smallest normal float at a = {a:g}")
    c = 2.0 / a
    lo, hi = min(math.log(1e-6), -0.5 * a - 1.0), math.log(max(1e3, 4.0 * a / (a - 2.0)))
    t = min(math.log(2.0 / (a - 2.0)) - 1.0, -0.5 * a - EULER_GAMMA + 1.25 * math.exp(4.0 - a))
    last = math.inf
    for _ in range(100):
        r, step = _newton_step(math.exp(t), c)
        if r == 0.0:
            return math.exp(t)
        if r > 0.0:
            lo = t
        else:
            hi = t
        if abs(step) <= 4.0 * math.ulp(1.0 + abs(t)) or 0.5 * last <= abs(step) < 1e-6:
            return math.exp(t + step)
        if lo < t + step < hi:
            t, last = t + step, abs(step)
        else:
            t, last = 0.5 * (lo + hi), math.inf
    raise ArithmeticError(f"optimal inverse SNR did not converge at a = {a:g}")


def optimal_power_p2p(env: PropagationEnvironment, d: float) -> PowerLevel:
    """GASE-maximising transmit power d^a * N / x* for a > 2 (optimal_inverse_snr),
    refused by name where it overflows or underflows to 0 W."""
    a = env.path_loss_exponent
    p = path_ratio(a, d, env.noise_w, optimal_inverse_snr(a))
    if not 0.0 < p < math.inf:
        side = "overflows" if p else "underflows to 0 W"
        raise ArithmeticError(f"optimal power d^a N / x* {side} at a = {a:g}, d = {d:g} m")
    return PowerLevel(p)
