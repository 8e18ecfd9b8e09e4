"""Point-to-point link: ergodic capacity, GASE, and the GASE-optimal power.

Under Rayleigh fading the ergodic capacity is (1/ln 2) * exp(x) * E1(x) with
x = d^a N / P_t, and GASE divides it by the single-transmitter affected area.
GASE is unimodal in P_t for path-loss exponents above 2; the maximiser solves
(x + 2/a) * exp(x) * E1(x) = 1, which is scale-free in x, so the root is
found once in x and mapped back through P_t = d^a N / x.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict

from .mathkernel import find_root_bracketed, scaled_e1
from .propagation import (PowerLevel, PropagationEnvironment, affected_area_single,
                          mean_snr, path_ratio, watts_of)

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
        ratio, a = watts_of(p_t) / env.p_min_w, env.path_loss_exponent
        raise ZeroDivisionError(f"the {name}'s affected area underflows to 0 m^2 "
                                f"(P/P_min = {ratio:.3g}, a = {a:g})")
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


def optimal_inverse_snr(a: float) -> float:
    """Root x* of (x + 2/a) * exp(x) * E1(x) = 1, for path-loss exponent a > 2.

    x is the inverse mean SNR d^a N / P_t of a link, so the root does not
    depend on distance, noise or detection threshold.  Refuses for a <= 2,
    where GASE has no interior maximum, and raises ArithmeticError where x*
    is below the smallest normal float (a above about 1,415).
    """
    if a <= 2.0:
        raise NoInteriorOptimumError(
            f"path loss exponent {a:g} <= 2: GASE is maximised only in the "
            "vanishing-power limit, no interior optimum exists")
    if _residual(sys.float_info.min, a) <= 0.0:
        raise ArithmeticError(f"optimal inverse SNR below the smallest normal float at a = {a:g}")
    # x* ~ a/(a - 2) as a -> 2 and ~ exp(-a/2 - 0.577) as a grows: solved in t = ln x,
    # where Brent's stop test is relative to t, not to a tiny x
    lo, hi = min(math.log(1e-6), -0.5 * a - 1.0), math.log(max(1e3, 4.0 * a / (a - 2.0)))
    return math.exp(find_root_bracketed(lambda t: _residual(math.exp(t), a), lo, hi))


def optimal_power_p2p(env: PropagationEnvironment, d: float) -> PowerLevel:
    """GASE-maximising transmit power d^a * N / x* for a > 2 (optimal_inverse_snr),
    refused by name where it overflows or underflows to 0 W."""
    a = env.path_loss_exponent
    p = path_ratio(a, d, env.noise_w, optimal_inverse_snr(a))
    if not 0.0 < p < math.inf:
        side = "overflows" if p else "underflows to 0 W"
        raise ArithmeticError(f"optimal power d^a N / x* {side} at a = {a:g}, d = {d:g} m")
    return PowerLevel(p)
