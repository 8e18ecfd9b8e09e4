"""Propagation model shared by every transmission scenario.

Received power follows P_r = P_t * Z / (d / d_ref)^a with d_ref fixed at 1 m:
deterministic power-law path loss times a unit-mean fading power gain Z.
Under Rayleigh fading Z is Exp(1), which gives the closed-form affected area
(2*pi/a) * Gamma(2/a) * (P_t / P_min)^(2/a).

Scenario inputs arrive in dBm, the formulas run in watts; the module owns
that conversion discipline.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "PropagationEnvironment",
    "PowerLevel",
    "dbm_to_watts",
    "watts_to_dbm",
    "watts_of",
    "path_ratio",
    "mean_snr",
    "affected_area_single",
]

_TINY = sys.float_info.min  # the smallest normal float

def dbm_to_watts(p_dbm: float) -> float:
    """dBm to watts: P_W = 10^((P_dBm - 30) / 10)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    """Watts to dBm; requires a positive power."""
    if p_watts <= 0:
        raise ValueError("watts_to_dbm requires power > 0")
    return 10.0 * math.log10(p_watts) + 30.0


@dataclass(frozen=True)
class PowerLevel:
    """A transmit power in watts, constructed from either unit."""

    watts: float

    def __post_init__(self):
        if not (self.watts > 0 and math.isfinite(self.watts)):
            raise ValueError("power must be positive and finite")

    @classmethod
    def from_dbm(cls, p_dbm: float) -> "PowerLevel":
        return cls(dbm_to_watts(p_dbm))

    @property
    def dbm(self) -> float:
        return watts_to_dbm(self.watts)


def watts_of(p) -> float:
    """Accept a PowerLevel (checked when it was made) or a plain positive wattage."""
    if isinstance(p, PowerLevel):
        return p.watts
    w = float(p)
    if not (w > 0 and math.isfinite(w)):
        raise ValueError("power must be positive and finite")
    return w


@dataclass(frozen=True)
class PropagationEnvironment:
    """Path-loss exponent, noise power, and detection threshold (linear units)."""

    path_loss_exponent: float
    noise_w: float
    p_min_w: float

    def __post_init__(self):
        if self.path_loss_exponent <= 0:
            raise ValueError("path loss exponent must be > 0")
        if self.noise_w <= 0:
            raise ValueError("noise power must be > 0")
        if self.p_min_w <= 0:
            raise ValueError("detection threshold must be > 0")

    @classmethod
    def from_dbm(cls, path_loss_exponent: float, noise_dbm: float,
                 p_min_dbm: float) -> "PropagationEnvironment":
        return cls(path_loss_exponent, dbm_to_watts(noise_dbm), dbm_to_watts(p_min_dbm))


def path_ratio(a: float, d: float, num: float, den: float) -> float:
    """d^a * num / den for d, num, den > 0: that product in linear scale where
    it and d^a are normal floats, else exp(a ln d + ln num - ln den), which is
    inf or 0 only where the ratio itself leaves the float range."""
    try:
        power = d ** a
        if power >= _TINY:
            ratio = power * num / den
            if _TINY <= ratio < math.inf:
                return ratio
    except OverflowError:
        pass
    try:
        return math.exp(a * math.log(d) + math.log(num) - math.log(den))
    except OverflowError:
        return math.inf


def mean_snr(env: PropagationEnvironment, p_t, d: float) -> float:
    """Average received SNR P_t / (d^a * N) at distance d (meters).  Raises
    ArithmeticError, naming a and d, where it overflows or underflows to 0."""
    if d <= 0:
        raise ValueError("distance must be > 0")
    a = env.path_loss_exponent
    loss = path_ratio(a, d, env.noise_w, 1.0)
    snr = watts_of(p_t) / loss if loss else math.inf
    if not 0.0 < snr < math.inf:
        side = "overflows" if snr else "underflows to 0"
        raise ArithmeticError(f"mean SNR P / (d^a N) {side} at a = {a:g}, d = {d:g} m")
    return snr


def _ratio_text(watts: float, p_min_w: float) -> str:
    """P/P_min for a message: the ratio where it is a normal float, else its log10."""
    ratio = watts / p_min_w
    if _TINY <= ratio < math.inf:
        return f"P/P_min = {ratio:.3g}"
    return f"log10(P/P_min) = {math.log10(watts) - math.log10(p_min_w):.4g}"


def affected_area_single(env: PropagationEnvironment, p_t) -> float:
    """Rayleigh closed-form affected area of one transmitter, in m^2.

    (2*pi/a) * Gamma(2/a) * (P_t / P_min)^(2/a); grows as P_t^(2/a) and is
    independent of the noise power and of any link distance.  Where P_t/P_min
    is not a normal float, the power comes from (2/a)(ln P_t - ln P_min).
    Raises OverflowError, naming P/P_min and a, where it exceeds the float range.
    """
    a = env.path_loss_exponent
    watts = watts_of(p_t)
    ratio = watts / env.p_min_w
    try:
        if _TINY <= ratio < math.inf:
            power = ratio ** (2.0 / a)
        else:
            power = math.exp(2.0 / a * (math.log(watts) - math.log(env.p_min_w)))
        area = (2.0 * math.pi / a) * math.gamma(2.0 / a) * power
    except OverflowError:
        area = math.inf
    if area == math.inf:
        raise OverflowError(f"affected area overflows the float range "
                            f"({_ratio_text(watts, env.p_min_w)}, a = {a:g})")
    return area
