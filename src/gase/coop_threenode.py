"""Three-node cooperative link: per-realisation choice of direct vs. relay path.

The source compares log2(1 + G_SD) with (1/2) log2(1 + G_eq) and transmits on
whichever path is instantaneously better, which is the event
G_SD^2 + 2*G_SD > G_eq.  Over the direct-link SNR t = G_SD, each mode
probability is one integral:

    P_relay = S / gbar_SD,   S = int_0^inf exp(-t/gbar_SD) (1 - F_eq(t^2 + 2t)) dt,
    P_direct = R / gbar_SD,  R = int_0^inf exp(-t/gbar_SD) F_eq(t^2 + 2t) dt,

with S = D(a1, a2) in closed form for DF (a2 = 2/gbar_SR + 2/gbar_RD
+ 1/gbar_SD) and a one-dimensional Bessel integral for AF, and R a
quadrature for both.  The conditional densities of the composite SNR
normalise to exactly 1 against S (relay mode) and R (direct mode), so the
conditional capacities are evaluated by quadrature of those densities; the
direct-mode integrand is taken in the substitution t = xi(g) = sqrt(1+g) - 1,
where its tail scale is gbar_SD.

``gase_coop_batch`` and ``density_normalizations`` each build the one
selection split of their scenarios, ``_split``, and read S, R, the
relay-path SNR cdf and pdf and the relay tail scale from it.  The smaller
mode probability is R/gbar_SD or S/gbar_SD, the other 1 minus it, so
neither is a difference that cancels.  A batch evaluates each of its
integrals (AF selection, R, direct mode, relay mode) for all scenarios in
one quadrature batch; ``gase_coop`` is the batch of one.  Each result is the
CSV row: each column by name, in output order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .link_p2p import LN2, _footprint
from .mathkernel import (QuadratureSpec, bessel_k1, erfcx, integrate, integrate_semi_infinite,
                         integrate_semi_infinite_batch)
from .propagation import PowerLevel, PropagationEnvironment, mean_snr
from .relay_dualhop import RelayProtocol, _rates, af_snr_cdf, af_snr_pdf, df_snr_pdf

__all__ = [
    "CoopScenario",
    "special_integral_D",
    "af_selection_integral",
    "density_normalizations",
    "gase_coop",
    "gase_coop_batch",
]

# for every integral here: the direct-mode integrand rises at t ~ 1/sqrt(a1),
# far below its scale gbar_SD at high SNR, where 1e-8 still left 3e-11
_CAP_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=0.0)


@dataclass(frozen=True)
class CoopScenario:
    env: PropagationEnvironment
    p_s: PowerLevel
    p_r: PowerLevel
    d_sd: float
    d_sr: float
    d_rd: float

    def __post_init__(self):
        if min(self.d_sd, self.d_sr, self.d_rd) <= 0:
            raise ValueError("all distances must be > 0")

    @property
    def mean_snr_sd(self) -> float:
        return mean_snr(self.env, self.p_s, self.d_sd)

    @property
    def mean_snr_sr(self) -> float:
        return mean_snr(self.env, self.p_s, self.d_sr)

    @property
    def mean_snr_rd(self) -> float:
        return mean_snr(self.env, self.p_r, self.d_rd)


def _coeffs(s: CoopScenario):
    """gbar_SD and the relay path's a1 and b1 (relay_dualhop._rates), with a2."""
    gsd = s.mean_snr_sd
    a1, b1 = _rates(s)
    return gsd, a1, 2.0 * a1 + 1.0 / gsd, b1


def special_integral_D(a1: float, a2: float) -> float:
    """int_0^inf exp(-a1 t^2 - a2 t) dt in closed form.

    Equals 0.5*sqrt(pi/a1)*erfcx(a2/(2 sqrt(a1))); the scaled erfc keeps the
    evaluation finite when a2^2/(4 a1) is large.
    """
    if a1 <= 0:
        raise ValueError("special_integral_D requires a1 > 0")
    if a2 < 0:
        raise ValueError("special_integral_D requires a2 >= 0")
    return 0.5 * math.sqrt(math.pi / a1) * erfcx(a2 / (2.0 * math.sqrt(a1)))


def _af_selection_integrals(coeffs) -> List[float]:
    """af_selection_integral of each (gsd, a1, a2, b1) of _coeffs, one batch."""
    _, a1, a2, b1 = (np.array(v) for v in zip(*coeffs))

    def integrand(t, rows):
        w = t * (t + 2.0)
        z = 2.0 * b1[rows] * w
        return z * bessel_k1(z) * np.exp(-a1[rows] * t * t - a2[rows] * t)

    scale = np.minimum(1.0 / a2, 1.0 / np.sqrt(a1))
    return [r.value for r in integrate_semi_infinite_batch(integrand, scale, _CAP_SPEC)]


def af_selection_integral(s: CoopScenario) -> float:
    """Relay-selection weight for AF: gbar_SD * P{relay mode}.

    int_0^inf 2 b1 (t^2+2t) K1(2 b1 (t^2+2t)) exp(-a1 t^2 - a2 t) dt, i.e. the
    expectation of the AF cdf complement over the direct-link fading after the
    xi substitution.  This is the quantity that normalises the conditional
    densities.
    """
    return _af_selection_integrals([_coeffs(s)])[0]


def _xi(g):
    """sqrt(1 + g) - 1 without the cancellation that makes it 0 at small g."""
    return g / (np.sqrt(g + 1.0) + 1.0)


class _Split(NamedTuple):
    """Per scenario of a batch, as arrays: gbar_SD, S = gbar_SD * P{relay},
    R = gbar_SD * P{direct}, each its own integral for either protocol, and
    the relay-path SNR's tail scale 1/a1 (DF) or 1/(a1 + 2 b1) (AF); and that
    SNR's cdf(g, rows) and pdf(g, rows), rows indexing the scenarios."""

    gsd: np.ndarray
    sel: np.ndarray
    rest: np.ndarray
    cdf: Callable
    pdf: Callable
    tail: np.ndarray


def _split(scenarios: Sequence[CoopScenario], protocol: RelayProtocol) -> _Split:
    coeffs = [_coeffs(s) for s in scenarios]
    gsd, a1, _, b1 = (np.array(v) for v in zip(*coeffs))
    if protocol is RelayProtocol.DF:
        sel, tail = np.array([special_integral_D(*c[1:3]) for c in coeffs]), 1.0 / a1
        cdf, pdf = (lambda g, rows: -np.expm1(-a1[rows] * g),
                    lambda g, rows: df_snr_pdf(g, a1[rows]))
    else:
        sel, tail = np.array(_af_selection_integrals(coeffs)), 1.0 / (a1 + 2.0 * b1)
        cdf, pdf = (lambda g, rows: af_snr_cdf(g, a1[rows], b1[rows]),
                    lambda g, rows: af_snr_pdf(g, a1[rows], b1[rows]))
    # R = int_0^inf exp(-t/gbar_SD) F_eq(t^2 + 2t) dt, as its own integral:
    # gbar_SD - S loses every digit where the relay path almost always wins
    rest = integrate_semi_infinite_batch(
        lambda t, rows: np.exp(-t / gsd[rows]) * cdf(t * (t + 2.0), rows), gsd, _CAP_SPEC)
    return _Split(gsd, sel, np.array([r.value for r in rest]), cdf, pdf, tail)


def density_normalizations(s: CoopScenario, protocol: RelayProtocol) -> Tuple[float, float]:
    """Integrals of the composite SNR's densities given direct and given relay
    mode, 1 in exact arithmetic: each over [0, 50 min(tail scales)] on its own,
    so that a factor rising on the other mode's much shorter scale is sampled,
    then over the rest on its tail scale, gbar_SD (2 + gbar_SD) or the relay's."""
    sp = _split([s], protocol)
    gsd, sel, rest = float(sp.gsd[0]), float(sp.sel[0]), float(sp.rest[0])

    def direct(g):
        xi = _xi(g)
        return np.exp(-xi / gsd) * sp.cdf(g, 0) / (2.0 * (xi + 1.0) * rest)

    def relay(g):
        return gsd * sp.pdf(g, 0) * (-np.expm1(-_xi(g) / gsd)) / sel

    scales = (gsd * (2.0 + gsd), float(sp.tail[0]))
    split = 50.0 * min(scales)
    return tuple(integrate(pdf, 0.0, split, _CAP_SPEC).value
                 + integrate_semi_infinite(lambda t: pdf(split + t), _CAP_SPEC,
                                           scale=scale).value
                 for pdf, scale in zip((direct, relay), scales))


def gase_coop_batch(scenarios: Sequence[CoopScenario],
                    protocol: RelayProtocol) -> List[Dict[str, float]]:
    """gase_coop of each scenario, each of its integrals as one quadrature
    batch; each result equals gase_coop of its scenario alone."""
    sp = _split(scenarios, protocol)
    gsd = sp.gsd

    # direct mode in the xi substitution, where (1/2) log2(1+g) becomes
    # log2(1+t) and the integrand decays on the scale gbar_SD; log1p keeps
    # the digits that log2(1 + t) loses at small t (it is 0 below 1.1e-16)
    def direct(t, rows):
        return np.log1p(t) / LN2 * np.exp(-t / gsd[rows]) * sp.cdf(t * (t + 2.0), rows)

    def relay(g, rows):
        return (0.5 * np.log1p(g) / LN2 * sp.pdf(g, rows)
                * (-np.expm1(-_xi(g) / gsd[rows])))

    directs = integrate_semi_infinite_batch(direct, gsd, _CAP_SPEC)
    relays = integrate_semi_infinite_batch(relay, sp.tail, _CAP_SPEC)
    return [_result(s, g, sel, rest, d.value, r.value) for s, g, sel, rest, d, r
            in zip(scenarios, gsd.tolist(), sp.sel.tolist(), sp.rest.tolist(), directs, relays)]


def _result(s: CoopScenario, gsd: float, sel: float, rest: float, direct: float,
            relay: float) -> Dict[str, float]:
    # S and R are each their own integral: the smaller mode probability keeps its digits
    small = min(rest, sel) / gsd
    p_d, p_r = (small, 1.0 - small) if rest < sel else (1.0 - small, small)
    c_d = direct / rest
    c_r = gsd * relay / sel
    area_s = _footprint(s.env, s.p_s, "source")
    area_r = _footprint(s.env, s.p_r, "relay")
    return {"p_direct": p_d, "p_relay": p_r, "c_direct_bps_hz": c_d, "c_relay_bps_hz": c_r,
            "capacity_bps_hz": p_d * c_d + p_r * c_r, "area_s_m2": area_s, "area_r_m2": area_r,
            "gase_bps_hz_m2": p_d * c_d / area_s + p_r * 0.5 * (c_r / area_s + c_r / area_r)}


def gase_coop(s: CoopScenario, protocol: RelayProtocol) -> Dict[str, float]:
    """Mode probabilities, conditional capacities, and composite GASE.

    eta = P_d * C_d / A_S + P_r * (C_r / A_S + C_r / A_R) / 2, with A_S and
    A_R the single-transmitter footprints of source and relay.  The CSV row
    holds all of them and the capacity P_d * C_d + P_r * C_r.
    """
    return gase_coop_batch([s], protocol)[0]
