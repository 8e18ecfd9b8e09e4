"""Dual-hop relay link (no direct path): DF and AF capacity, GASE, power tuning.

The end-to-end SNR is min(G_SR, G_RD) for decode-and-forward and is modelled
for amplify-and-forward by the harmonic-mean density

    f(g) = 2*b1*g*exp(-a1*g) * (a1*K1(2*b1*g) + 2*b1*K0(2*b1*g)),

with a1 = 1/gbar_SR + 1/gbar_RD and b1 = 1/sqrt(gbar_SR * gbar_RD).  That
density is exact for G1*G2/(G1+G2) and is the standard approximation to the
true AF SNR G1*G2/(G1+G2+1); both capacities are therefore reported by the
verification tooling.  Source and relay transmit in alternating slots, so the
two footprints never coexist and the GASE averages the per-slot ratios:
eta = (C/A_SR + C/A_RD) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .link_p2p import LN2, GaseBreakdown
from .mathkernel import QuadratureSpec, bessel_k01, bessel_k1, integrate_semi_infinite, scaled_e1
from .propagation import (PowerLevel, PropagationEnvironment, affected_area_single,
                          mean_snr, watts_of)

__all__ = [
    "RelayProtocol",
    "DualHopScenario",
    "df_snr_pdf",
    "af_snr_pdf",
    "af_snr_cdf",
    "ergodic_capacity_df",
    "ergodic_capacity_af",
    "ergodic_capacity",
    "gase_dualhop",
    "optimize_relay_powers",
]


class RelayProtocol(Enum):
    DF = "df"
    AF = "af"

    @classmethod
    def parse(cls, text: str) -> "RelayProtocol":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown relay protocol {text!r} (expected df or af)") from None


@dataclass(frozen=True)
class DualHopScenario:
    env: PropagationEnvironment
    p_s: PowerLevel
    p_r: PowerLevel
    d_sr: float
    d_rd: float

    def __post_init__(self):
        if self.d_sr <= 0 or self.d_rd <= 0:
            raise ValueError("hop distances must be > 0")

    @property
    def mean_snr_sr(self) -> float:
        return mean_snr(self.env, self.p_s, self.d_sr)

    @property
    def mean_snr_rd(self) -> float:
        return mean_snr(self.env, self.p_r, self.d_rd)


def _rates(s: DualHopScenario):
    gsr, grd = s.mean_snr_sr, s.mean_snr_rd
    a1 = 1.0 / gsr + 1.0 / grd
    b1 = 1.0 / math.sqrt(gsr * grd)
    return a1, b1


# Density factories over (a1, b1), shared with the three-node cooperative module.

def df_snr_pdf(a1: float):
    """Exponential density of min of the two hop SNRs."""
    def pdf(g):
        return a1 * np.exp(-a1 * np.asarray(g, dtype=float))
    return pdf


def af_snr_pdf(a1: float, b1: float):
    """Harmonic-mean equivalent-SNR density (normalises to 1 analytically)."""
    def pdf(g):
        g = np.asarray(g, dtype=float)
        z = 2.0 * b1 * g
        k0, k1 = bessel_k01(z)
        return z * np.exp(-a1 * g) * (a1 * k1 + 2.0 * b1 * k0)
    return pdf


def af_snr_cdf(a1: float, b1: float):
    """cdf matching af_snr_pdf: F(g) = 1 - 2*b1*g*exp(-a1*g)*K1(2*b1*g)."""
    def cdf(g):
        g = np.asarray(g, dtype=float)
        z = 2.0 * b1 * g
        return 1.0 - z * np.exp(-a1 * g) * bessel_k1(z)
    return cdf


def ergodic_capacity_df(s: DualHopScenario) -> float:
    """Half-duplex DF capacity (1/(2 ln 2)) * exp(a1) * E1(a1)."""
    a1, _ = _rates(s)
    return scaled_e1(a1) / (2.0 * LN2)


def ergodic_capacity_af(s: DualHopScenario,
                        spec: QuadratureSpec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14)) -> float:
    """Half-duplex AF capacity by quadrature against the harmonic-mean density."""
    a1, b1 = _rates(s)
    pdf = af_snr_pdf(a1, b1)

    def integrand(g):
        return 0.5 * np.log2(1.0 + g) * pdf(g)

    # integrand tail decays like exp(-(a1 + 2 b1) g)
    return integrate_semi_infinite(integrand, spec, scale=1.0 / (a1 + 2.0 * b1)).value


def ergodic_capacity(s: DualHopScenario, protocol: RelayProtocol) -> float:
    if protocol is RelayProtocol.DF:
        return ergodic_capacity_df(s)
    return ergodic_capacity_af(s)


def gase_dualhop(s: DualHopScenario, protocol: RelayProtocol) -> GaseBreakdown:
    """Average of the per-slot capacity/area ratios.

    ``area`` holds the harmonic mean of the two footprints so that
    gase == capacity / area stays an identity.
    """
    capacity = ergodic_capacity(s, protocol)
    area_sr = affected_area_single(s.env, s.p_s)
    area_rd = affected_area_single(s.env, s.p_r)
    gase = 0.5 * capacity * (1.0 / area_sr + 1.0 / area_rd)
    return GaseBreakdown(capacity=capacity, area=capacity / gase, gase=gase,
                         components={"area_sr_m2": area_sr, "area_rd_m2": area_rd})


# ---------------------------------------------------------------------------
# joint source/relay power optimisation
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximisation on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimize_relay_powers(env: PropagationEnvironment, d_sr: float, d_rd: float,
                          p_max, protocol: RelayProtocol,
                          span_decades: float = 10.0, tol: float = 1e-5):
    """Box-constrained maximiser of dual-hop GASE over (P_S, P_R).

    Multi-start coordinate descent with golden-section line searches on the
    log-power axes: 8 deterministic starts on a 3x3 grid (centre excluded),
    box (p_max * 10^-span_decades, p_max] per axis.  The objective is smooth
    and empirically unimodal; a grid oracle guards this in the test suite.
    """
    pmax_w = watts_of(p_max)
    hi = math.log(pmax_w)
    lo = hi - span_decades * math.log(10.0)

    def eta(ls, lr):
        s = DualHopScenario(env, PowerLevel(math.exp(ls)), PowerLevel(math.exp(lr)), d_sr, d_rd)
        return gase_dualhop(s, protocol).gase

    fracs = (0.2, 0.5, 0.8)
    starts = [(f1, f2) for f1 in fracs for f2 in fracs if (f1, f2) != (0.5, 0.5)]
    best = (-math.inf, hi, hi)
    for f1, f2 in starts:
        ls = lo + f1 * (hi - lo)
        lr = lo + f2 * (hi - lo)
        val = eta(ls, lr)
        for _ in range(60):
            ls_new, val = _golden_max(lambda v: eta(v, lr), lo, hi, tol)
            lr_new, val = _golden_max(lambda v: eta(ls_new, v), lo, hi, tol)
            moved = max(abs(ls_new - ls), abs(lr_new - lr))
            ls, lr = ls_new, lr_new
            if moved < 2.0 * tol:
                break
        if val > best[0]:
            best = (val, ls, lr)
    val, ls, lr = best
    return PowerLevel(math.exp(ls)), PowerLevel(math.exp(lr)), val
