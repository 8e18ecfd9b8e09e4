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

The GASE-optimal powers (optimize_relay_powers) are closed form for DF when
a > 2.  Otherwise a projected Newton ascent in (ln P_S, ln P_R) finds them,
with the gradient and Hessian of ln(eta) in closed form for DF and from one
batch of five positive AF moments per step.  For a <= 2 they lie on a corner
or a face of the power box.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence

import numpy as np

from .link_p2p import LN2, _footprint, optimal_inverse_snr
from .mathkernel import (QuadratureSpec, bessel_k01, integrate_semi_infinite_batch,
                         one_minus_xk1, scaled_e1, scaled_en)
from .propagation import PowerLevel, PropagationEnvironment, mean_snr, watts_of

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
    "gase_dualhop_batch",
    "optimize_relay_powers",
]


# the capacities are positive, so the relative tolerance alone decides convergence
_CAP_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=0.0)
_LN_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows above it


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
    b1 = 1.0 / (math.sqrt(gsr) * math.sqrt(grd))  # gsr * grd can underflow to 0
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
    """cdf matching af_snr_pdf: F(g) = 1 - 2*b1*g*exp(-a1*g)*K1(2*b1*g),
    summed as (1 - exp(-a1*g)) + exp(-a1*g) (1 - z K1(z)), z = 2*b1*g, so
    that it keeps its digits at small g, where both terms are small.  z is
    capped at 1e300, short of overflow: 1 - z K1(z) is 1 from z = 750 on."""
    def cdf(g):
        g = np.asarray(g, dtype=float)
        z = np.minimum(2.0 * b1 * g, 1e300)
        return -np.expm1(-a1 * g) + np.exp(-a1 * g) * one_minus_xk1(z)
    return cdf


def ergodic_capacity_df(s: DualHopScenario) -> float:
    """Half-duplex DF capacity (1/(2 ln 2)) * exp(a1) * E1(a1)."""
    a1, _ = _rates(s)
    return scaled_e1(a1) / (2.0 * LN2)


def _af_capacities(scenarios: Sequence[DualHopScenario]) -> List[float]:
    """Half-duplex AF capacities by quadrature against the harmonic-mean
    density, all scenarios in one batch."""
    a1, b1 = (np.array(v) for v in zip(*map(_rates, scenarios)))

    def integrand(g, rows):
        # log1p keeps the digits that log2(1 + g) loses at small g (it is 0 below 1.1e-16)
        return np.log1p(g) / (2.0 * LN2) * af_snr_pdf(a1[rows], b1[rows])(g)

    # integrand tail decays like exp(-(a1 + 2 b1) g)
    results = integrate_semi_infinite_batch(integrand, 1.0 / (a1 + 2.0 * b1), _CAP_SPEC)
    return [r.value for r in results]


def ergodic_capacity_af(s: DualHopScenario) -> float:
    """Half-duplex AF capacity by quadrature against the harmonic-mean density."""
    return _af_capacities([s])[0]


def ergodic_capacity(s: DualHopScenario, protocol: RelayProtocol) -> float:
    if protocol is RelayProtocol.DF:
        return ergodic_capacity_df(s)
    return ergodic_capacity_af(s)


def _row(s: DualHopScenario, capacity: float) -> Dict[str, float]:
    area_sr = _footprint(s.env, s.p_s, "source")
    area_rd = _footprint(s.env, s.p_r, "relay")
    return {"capacity_bps_hz": capacity, "area_sr_m2": area_sr, "area_rd_m2": area_rd,
            "gase_bps_hz_m2": 0.5 * capacity * (1.0 / area_sr + 1.0 / area_rd)}


def gase_dualhop(s: DualHopScenario, protocol: RelayProtocol) -> Dict[str, float]:
    """Average of the per-slot capacity/area ratios, as the CSV row: the
    capacity, both hops' footprints and the GASE."""
    return _row(s, ergodic_capacity(s, protocol))


def gase_dualhop_batch(scenarios: Sequence[DualHopScenario],
                       protocol: RelayProtocol) -> List[Dict[str, float]]:
    """gase_dualhop of each scenario, the AF capacities as one quadrature batch;
    each result equals gase_dualhop of its scenario alone."""
    capacities = (_af_capacities(scenarios) if protocol is RelayProtocol.AF
                  else [ergodic_capacity_df(s) for s in scenarios])
    return [_row(s, c) for s, c in zip(scenarios, capacities)]


# ---------------------------------------------------------------------------
# joint source/relay power optimisation
# ---------------------------------------------------------------------------

# the AF moments are positive, so the relative tolerance alone decides convergence
_MOMENT_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=0.0)
# AF moment i weighs z K1(z), or z^2 K0(z) where _MOMENT_K0[i], by (a1 g)^_MOMENT_POWER[i]
_MOMENT_POWER = np.array([0, 1, 0, 2, 1])
_MOMENT_K0 = np.array([False, False, True, False, True])


def _log_gase(protocol: RelayProtocol, a: float, ln_c: np.ndarray, point: np.ndarray):
    """ln(eta) + const, its gradient and its Hessian at point = (ln P_S, ln P_R).

    C~ = int F/(1+g) dg, F the equivalent-SNR ccdf, is the capacity up to 2 ln 2.
    It depends on x = c/P = exp(ln_c - point) through a1 = x_S + x_R and
    b1 = sqrt(x_S x_R), whose ln P_i derivatives are -x_i and -b1/2, and each
    inverse area grows as P^(-2/a).  With r = x/a1, D = -dC~ and C_ = d^2 C~,
    the chain rule needs C~, a1 D_a, b1 D_b, a1^2 C_aa, a1 b1 C_ab and b1^2 C_bb.
    For DF (F = exp(-a1 g)) they are exp(a1) E_n(a1), n = 1..3, with no b1.  For
    AF (F = z K1(z) exp(-a1 g), z = 2 b1 g) DLMF 10.29.3-4 make them five positive
    moments, and 2 g z K0 = 4 b1 g^2 K0 gives b1^2 C_bb = 4 r_S r_R a1^2 C_aa - b1 D_b.
    """
    x = np.exp(ln_c - point)
    a1 = float(x[0] + x[1])
    r = x / a1
    if protocol is RelayProtocol.DF:
        c, m_a, m_aa = scaled_en(a1, 1), scaled_en(a1, 2), 2.0 * scaled_en(a1, 3)
        m_b = m_ab = m_bb = 0.0
    else:
        b1 = math.sqrt(x[0] * x[1])

        def integrand(g, rows):
            z = 2.0 * b1 * g
            k0, k1 = bessel_k01(z)
            bessel = z * np.where(_MOMENT_K0[rows], z * k0, k1)
            return (a1 * g) ** _MOMENT_POWER[rows] * bessel * np.exp(-a1 * g) / (1.0 + g)

        scales = np.full(_MOMENT_POWER.size, 1.0 / (a1 + 2.0 * b1))
        c, m_a, m_b, m_aa, m_ab = (
            m.value for m in integrate_semi_infinite_batch(integrand, scales, _MOMENT_SPEC))
        m_bb = 4.0 * r[0] * r[1] * m_aa - m_b
    grad = (m_a * r + 0.5 * m_b) / c
    hess = ((m_aa * np.outer(r, r) + 0.5 * m_ab * np.add.outer(r, r) + 0.25 * (m_bb - m_b)
             - np.diag(m_a * r)) / c - np.outer(grad, grad))
    k = 2.0 / a
    ln_area = float(np.logaddexp(-k * point[0], -k * point[1]))  # ln(1/A_S + 1/A_R) + const
    share = np.exp(-k * point - ln_area)  # each hop's share of the inverse areas
    return (math.log(c) + ln_area, grad - k * share,
            hess + k * k * share[0] * share[1] * np.array([[1.0, -1.0], [-1.0, 1.0]]))


def _ascend(protocol: RelayProtocol, a: float, ln_c: np.ndarray, point, lo: float, hi: float):
    """Projected Newton ascent of _log_gase on the box [lo, hi]^2 from point.

    A coordinate is free unless it sits on a bound with its gradient pointing
    out of the box.  Along each eigendirection of the free Hessian, negative
    curvature takes the Newton step, at most 2 long in ln P, and positive
    curvature climbs uphill to the box (towards P_S > P_R where rounding hides
    the slope, as on the equal-hop saddle).  A step that lowers ln(eta) is
    halved until it does not; one of at most 1e-4 is taken unchecked and ends
    the ascent, as Newton converges quadratically there.  No step calls BLAS
    or LAPACK, whose first call costs 0.3-0.7 MB of resident memory.
    """
    value, grad, hess = _log_gase(protocol, a, ln_c, point)
    for _ in range(60):
        free = ~(((point <= lo) & (grad < 0.0)) | ((point >= hi) & (grad > 0.0)))
        step, directions = np.zeros(2), np.eye(2)[free]
        if free.all():  # the Hessian's eigenvectors, by its rotation angle
            angle = 0.5 * math.atan2(2.0 * hess[0, 1], hess[0, 0] - hess[1, 1])
            directions = np.array([[math.cos(angle), math.sin(angle)],
                                   [-math.sin(angle), math.cos(angle)]])
        for d in directions:
            curvature, slope = float(np.sum(np.outer(d, d) * hess)), float(np.sum(d * grad))
            if curvature < 0.0:
                step += min(max(-slope / curvature, -2.0), 2.0) * d
                continue
            if abs(slope) <= 1e-12 * float(np.abs(grad).sum()):
                slope = d[0] - d[1]
            d *= math.copysign(1.0, slope)
            step += min(((hi if di > 0.0 else lo) - pi) / di for pi, di in zip(point, d) if di) * d
        while np.max(np.abs(step)) > 1e-4:
            trial = np.clip(point + step, lo, hi)
            evaluated = _log_gase(protocol, a, ln_c, trial)
            if evaluated[0] >= value:
                break
            step = 0.5 * (trial - point)
        else:
            return tuple(np.clip(point + step, lo, hi).tolist())
        point, (value, grad, hess) = trial, evaluated
    raise ArithmeticError("dual-hop power ascent did not converge in 60 Newton steps")


def optimize_relay_powers(env: PropagationEnvironment, d_sr: float, d_rd: float,
                          p_max, protocol: RelayProtocol,
                          span_decades: float = 10.0, tol: float = 1e-5):
    """Box-constrained maximiser of dual-hop GASE over (P_S, P_R).

    The box is [p_max * 10^-span_decades, p_max] per axis, and c = d^a N per hop.

    * For a > 2 the DF optimum is closed form: the sum of its two first-order
      conditions in (ln P_S, ln P_R) is the p2p root (a1 + 2/a) e^a1 E1(a1) = 1,
      a1 = x* (link_p2p.optimal_inverse_snr), and their ratio gives the split
      P_S/P_R = rho = (c_S/c_R)^(a/(a-2)), so P_R = (c_S/rho + c_R)/x*.  DF
      returns it inside the box; otherwise _ascend starts from it, clipped.
    * For a <= 2 there is no interior maximum, and GASE can fall and rise
      again along a box face, so that both its ends are local maxima.  When
      the ascent ends on a face, and always for a <= 2, the four corners are
      evaluated in one batch, and the ascent runs from the best of them if
      that beats its result.  Ties go to P_S >= P_R.

    ``tol`` is kept only for compatibility.  Raises ArithmeticError if an ascent
    does not converge or a hop's inverse SNR leaves the float range on the box.
    Returns (P_S, P_R, GASE at that point).
    """
    p_s, p_r, row = _optimum(env, d_sr, d_rd, p_max, protocol, span_decades)
    return p_s, p_r, row["gase_bps_hz_m2"]


def _optimum(env: PropagationEnvironment, d_sr: float, d_rd: float, p_max,
             protocol: RelayProtocol, span_decades: float = 10.0):
    """optimize_relay_powers with the whole gase_dualhop row at the optimum: (P_S, P_R, row)."""
    a = env.path_loss_exponent
    ln_hi = math.log(watts_of(p_max))
    ln_lo = ln_hi - span_decades * math.log(10.0)
    ln_c = np.array([a * math.log(d_sr), a * math.log(d_rd)]) + math.log(env.noise_w)
    c_sr, c_rd = ln_c.tolist()
    # ln of the largest and the smallest hop inverse SNR on the box, in floats:
    # numpy calls on so few values cost more than the arithmetic
    big, small = max(c_sr, c_rd) - ln_lo, min(c_sr, c_rd) - ln_hi
    if big > _LN_FLOAT_MAX or math.exp(small) == 0.0:
        side = "overflows" if big > _LN_FLOAT_MAX else "underflows to 0"
        raise ArithmeticError(f"a hop's inverse SNR d^a N / P {side} on the power box at "
                              f"a = {a:g}, d_sr = {d_sr:g} m, d_rd = {d_rd:g} m")

    def scenario(point):
        return DualHopScenario(env, PowerLevel(math.exp(point[0])), PowerLevel(math.exp(point[1])),
                               d_sr, d_rd)

    def result(point, row=None):
        s = scenario(point)
        return s.p_s, s.p_r, gase_dualhop(s, protocol) if row is None else row

    end = None
    if a > 2.0:
        ln_q = c_sr - c_rd
        ln_pr = (c_rd + float(np.logaddexp(0.0, -2.0 * ln_q / (a - 2.0)))
                 - math.log(optimal_inverse_snr(a)))
        start = (ln_pr + ln_q * a / (a - 2.0), ln_pr)
        if protocol is RelayProtocol.DF and all(ln_lo <= v <= ln_hi for v in start):
            return result(start)
        end = _ascend(protocol, a, ln_c, np.clip(start, ln_lo, ln_hi), ln_lo, ln_hi)
        if all(ln_lo < v < ln_hi for v in end):
            return result(end)
    corners = [(u, v) for u in (ln_hi, ln_lo) for v in (ln_hi, ln_lo)]
    points = corners if end is None else [end] + corners
    rows = gase_dualhop_batch([scenario(p) for p in points], protocol)
    row, best = max(zip(rows, points),
                    key=lambda pair: (pair[0]["gase_bps_hz_m2"], pair[1][0] >= pair[1][1]))
    top = best if best == end else _ascend(protocol, a, ln_c, np.array(best), ln_lo, ln_hi)
    return result(top, row if top == best else None)
