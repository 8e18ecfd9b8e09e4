"""Three-node cooperative link: per-realisation choice of direct vs. relay path.

The source compares log2(1 + G_SD) with (1/2) log2(1 + G_eq) and transmits on
whichever path is instantaneously better, which is the event
G_SD^2 + 2*G_SD > G_eq.  Writing xi = sqrt(1+g) - 1, the direct-mode
probability reduces to one Gaussian-type integral:

    P_direct = 1 - S / gbar_SD,   S = int_0^inf F_eq(t^2 + 2t) ... dt,

with S = D(a1, a2) in closed form for DF (a2 = 2/gbar_SR + 2/gbar_RD
+ 1/gbar_SD) and a one-dimensional Bessel integral for AF.  The
conditional densities of the composite SNR normalise to exactly 1 against
that same S, so the conditional capacities are evaluated by quadrature of
those densities; the direct-mode integrand is taken in the xi substitution
where its tail scale is gbar_SD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .mathkernel import QuadratureSpec, bessel_k1, erfcx, integrate_semi_infinite
from .propagation import PowerLevel, PropagationEnvironment, affected_area_single, mean_snr
from .relay_dualhop import RelayProtocol, af_snr_cdf, af_snr_pdf, df_snr_pdf

__all__ = [
    "CoopScenario",
    "CoopResult",
    "special_integral_D",
    "af_selection_integral",
    "prob_direct",
    "conditional_capacity_direct",
    "conditional_capacity_relay",
    "conditional_snr_pdf_direct",
    "conditional_snr_pdf_relay",
    "relay_tail_scale",
    "gase_coop",
]

_CAP_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-16)


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


@dataclass(frozen=True)
class CoopResult:
    p_direct: float
    p_relay: float
    c_direct: float
    c_relay: float
    gase: float
    components: Dict[str, float] = field(default_factory=dict)


def _coeffs(s: CoopScenario):
    gsd, gsr, grd = s.mean_snr_sd, s.mean_snr_sr, s.mean_snr_rd
    a1 = 1.0 / gsr + 1.0 / grd
    a2 = 2.0 * a1 + 1.0 / gsd
    b1 = 1.0 / math.sqrt(gsr * grd)
    return gsd, a1, a2, b1


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


def af_selection_integral(s: CoopScenario, spec: QuadratureSpec = _CAP_SPEC) -> float:
    """Relay-selection weight for AF: gbar_SD * P{relay mode}.

    int_0^inf 2 b1 (t^2+2t) K1(2 b1 (t^2+2t)) exp(-a1 t^2 - a2 t) dt, i.e. the
    expectation of the AF cdf complement over the direct-link fading after the
    xi substitution.  This is the quantity that normalises the conditional
    densities.
    """
    gsd, a1, a2, b1 = _coeffs(s)

    def integrand(t):
        w = t * (t + 2.0)
        z = 2.0 * b1 * w
        return z * bessel_k1(z) * np.exp(-a1 * t * t - a2 * t)

    scale = min(1.0 / a2, 1.0 / math.sqrt(a1))
    return integrate_semi_infinite(integrand, spec, scale=scale).value


def _selection_weight(s: CoopScenario, protocol: RelayProtocol) -> float:
    """S = gbar_SD * P{relay}; closed form for DF, quadrature for AF."""
    gsd, a1, a2, b1 = _coeffs(s)
    if protocol is RelayProtocol.DF:
        return special_integral_D(a1, a2)
    return af_selection_integral(s)


def prob_direct(s: CoopScenario, protocol: RelayProtocol,
                selection: float | None = None) -> float:
    """Probability of the direct path; ``selection`` may pass in a precomputed S."""
    sel = _selection_weight(s, protocol) if selection is None else selection
    return 1.0 - sel / s.mean_snr_sd


def _eq_cdf(s: CoopScenario, protocol: RelayProtocol):
    _, a1, _, b1 = _coeffs(s)
    if protocol is RelayProtocol.DF:
        return lambda g: -np.expm1(-a1 * np.asarray(g, dtype=float))
    return af_snr_cdf(a1, b1)


def _eq_pdf(s: CoopScenario, protocol: RelayProtocol):
    _, a1, _, b1 = _coeffs(s)
    if protocol is RelayProtocol.DF:
        return df_snr_pdf(a1)
    return af_snr_pdf(a1, b1)


def conditional_snr_pdf_direct(s: CoopScenario, protocol: RelayProtocol):
    """Density of the composite SNR given direct mode was selected."""
    gsd = s.mean_snr_sd
    sel = _selection_weight(s, protocol)
    cdf = _eq_cdf(s, protocol)

    def pdf(g):
        g = np.asarray(g, dtype=float)
        xi = np.sqrt(g + 1.0) - 1.0
        return np.exp(-xi / gsd) * cdf(g) / (2.0 * (xi + 1.0) * (gsd - sel))

    return pdf


def conditional_snr_pdf_relay(s: CoopScenario, protocol: RelayProtocol):
    """Density of the composite SNR given relay mode was selected."""
    gsd = s.mean_snr_sd
    sel = _selection_weight(s, protocol)
    eq_pdf = _eq_pdf(s, protocol)

    def pdf(g):
        g = np.asarray(g, dtype=float)
        xi = np.sqrt(g + 1.0) - 1.0
        return gsd * eq_pdf(g) * (-np.expm1(-xi / gsd)) / sel

    return pdf


def conditional_capacity_direct(s: CoopScenario, protocol: RelayProtocol,
                                spec: QuadratureSpec = _CAP_SPEC,
                                selection: float | None = None) -> float:
    """E[(1/2) log2(1 + G_C) | direct mode].

    Evaluated in the xi substitution, where (1/2) log2(1+g) becomes
    log2(1+t) and the integrand decays on the scale gbar_SD.
    """
    gsd, a1, a2, b1 = _coeffs(s)
    sel = _selection_weight(s, protocol) if selection is None else selection
    cdf = _eq_cdf(s, protocol)

    def integrand(t):
        return np.log2(1.0 + t) * np.exp(-t / gsd) * cdf(t * (t + 2.0))

    num = integrate_semi_infinite(integrand, spec, scale=gsd).value
    return num / (gsd - sel)


def relay_tail_scale(s: CoopScenario, protocol: RelayProtocol) -> float:
    """Decay length of the relay-path SNR density: 1/a1 (DF), 1/(a1 + 2 b1) (AF)."""
    _, a1, _, b1 = _coeffs(s)
    return 1.0 / a1 if protocol is RelayProtocol.DF else 1.0 / (a1 + 2.0 * b1)


def conditional_capacity_relay(s: CoopScenario, protocol: RelayProtocol,
                               spec: QuadratureSpec = _CAP_SPEC,
                               selection: float | None = None) -> float:
    """E[(1/2) log2(1 + G_C) | relay mode]."""
    gsd = s.mean_snr_sd
    sel = _selection_weight(s, protocol) if selection is None else selection
    eq_pdf = _eq_pdf(s, protocol)

    def integrand(g):
        xi = np.sqrt(g + 1.0) - 1.0
        return 0.5 * np.log2(1.0 + g) * eq_pdf(g) * (-np.expm1(-xi / gsd))

    num = integrate_semi_infinite(integrand, spec, scale=relay_tail_scale(s, protocol)).value
    return gsd * num / sel


def gase_coop(s: CoopScenario, protocol: RelayProtocol) -> CoopResult:
    """Mode probabilities, conditional capacities, and composite GASE.

    eta = P_d * C_d / A_S + P_r * (C_r / A_S + C_r / A_R) / 2, with A_S and
    A_R the single-transmitter footprints of source and relay.
    """
    sel = _selection_weight(s, protocol)
    p_d = prob_direct(s, protocol, selection=sel)
    p_r = 1.0 - p_d
    c_d = conditional_capacity_direct(s, protocol, selection=sel)
    c_r = conditional_capacity_relay(s, protocol, selection=sel)
    area_s = affected_area_single(s.env, s.p_s)
    area_r = affected_area_single(s.env, s.p_r)
    gase = p_d * c_d / area_s + p_r * 0.5 * (c_r / area_s + c_r / area_r)
    capacity = p_d * c_d + p_r * c_r
    return CoopResult(
        p_direct=p_d, p_relay=p_r, c_direct=c_d, c_relay=c_r, gase=gase,
        components={
            "capacity_bps_hz": capacity,
            "area_s_m2": area_s,
            "area_r_m2": area_r,
        })
