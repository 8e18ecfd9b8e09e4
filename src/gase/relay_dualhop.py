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

The GASE-optimal powers solve the two first-order conditions in
(ln P_S, ln P_R) directly, using that C depends on the powers only through
a1 and b1 and that each area grows as P^(2/a).  For DF they are closed form:
the scale condition is the point-to-point root (a1 + 2/a) e^a1 E1(a1) = 1 and
the split is P_S/P_R = (c_S/c_R)^(a/(a-2)), c = d^a N.  For AF the scale
condition E[G/(1+G)] = (2/a) E[ln(1+G)] and the split condition are each one
scalar quadrature, solved by Brent roots.  When the optimum leaves the power
box, and always for a <= 2 (no interior optimum), each box face is a 1-D
root in the free power.  Every root is solved to full precision; the
optimiser's ``tol`` argument is kept only for compatibility.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence

import numpy as np

from .link_p2p import LN2, GaseBreakdown, optimal_inverse_snr
from .mathkernel import (BracketingError, QuadratureSpec, bessel_k01, bessel_k1,
                         find_root_bracketed, integrate_semi_infinite,
                         integrate_semi_infinite_batch, scaled_e1, scaled_en)
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
    "gase_dualhop_batch",
    "optimize_relay_powers",
]


_CAP_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14)


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


def _af_capacities(scenarios: Sequence[DualHopScenario]) -> List[float]:
    """Half-duplex AF capacities by quadrature against the harmonic-mean
    density, all scenarios in one batch.

    The integrand is divided by the DF closed form exp(a1) E1(a1), which the
    AF capacity stays within a small factor of, and the integral multiplied
    back, so the absolute tolerance floor never decides convergence, however
    small the capacity.
    """
    a1, b1 = (np.array(v) for v in zip(*map(_rates, scenarios)))
    h = scaled_e1(a1)

    def integrand(g, rows):
        # log1p keeps the digits that log2(1 + g) loses at small g (it is 0 below 1.1e-16)
        return np.log1p(g) / (2.0 * LN2) * af_snr_pdf(a1[rows], b1[rows])(g) / h[rows]

    # integrand tail decays like exp(-(a1 + 2 b1) g)
    results = integrate_semi_infinite_batch(integrand, 1.0 / (a1 + 2.0 * b1), _CAP_SPEC)
    return [r.value * scale for r, scale in zip(results, h.tolist())]


def ergodic_capacity_af(s: DualHopScenario) -> float:
    """Half-duplex AF capacity by quadrature against the harmonic-mean density."""
    return _af_capacities([s])[0]


def ergodic_capacity(s: DualHopScenario, protocol: RelayProtocol) -> float:
    if protocol is RelayProtocol.DF:
        return ergodic_capacity_df(s)
    return ergodic_capacity_af(s)


def _breakdown(s: DualHopScenario, capacity: float) -> GaseBreakdown:
    area_sr = affected_area_single(s.env, s.p_s)
    area_rd = affected_area_single(s.env, s.p_r)
    gase = 0.5 * capacity * (1.0 / area_sr + 1.0 / area_rd)
    return GaseBreakdown(capacity=capacity, area=capacity / gase, gase=gase,
                         components={"area_sr_m2": area_sr, "area_rd_m2": area_rd})


def gase_dualhop(s: DualHopScenario, protocol: RelayProtocol) -> GaseBreakdown:
    """Average of the per-slot capacity/area ratios.

    ``area`` holds the harmonic mean of the two footprints so that
    gase == capacity / area stays an identity.
    """
    return _breakdown(s, ergodic_capacity(s, protocol))


def gase_dualhop_batch(scenarios: Sequence[DualHopScenario],
                       protocol: RelayProtocol) -> List[GaseBreakdown]:
    """gase_dualhop of each scenario, the AF capacities as one quadrature batch;
    each result equals gase_dualhop of its scenario alone."""
    capacities = (_af_capacities(scenarios) if protocol is RelayProtocol.AF
                  else [ergodic_capacity_df(s) for s in scenarios])
    return [_breakdown(s, c) for s, c in zip(scenarios, capacities)]


# ---------------------------------------------------------------------------
# joint source/relay power optimisation
# ---------------------------------------------------------------------------

# The AF stationarity integrands change sign, so at a root their integral
# vanishes and a relative tolerance alone could never be met; normalised by
# the DF capacity their terms are O(1), and the absolute floor bounds the
# residual's error instead.
_ROOT_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)


def _log_gradient(protocol: RelayProtocol, a: float, x_s: float, x_r: float,
                  split: float, k_s: float, k_r: float) -> float:
    """k_s * d ln(eta)/d ln(P_S) + k_r * d ln(eta)/d ln(P_R), times C~/C~_DF > 0.

    x_s, x_r are the inverse mean hop SNRs d^a N / P and split = ln(P_S/P_R).
    With the equivalent-SNR ccdf F (exp(-a1 g) for DF, z K1(z) exp(-a1 g) for
    AF, z = 2 b1 g), C~ = int F/(1+g) dg is the capacity up to 2 ln 2, and
    d ln(eta)/d ln(P_i) = (x_i D_a + (b1/2) D_b)/C~ - (2/a) s_i, where
    D_a = -dC~/da1 = int g F/(1+g), D_b = -dC~/db1 = int 2 g z K0(z)
    exp(-a1 g)/(1+g) (DLMF 10.29.4: (z K1)' = -z K0) and s_i = A_i^-1 /
    (A_S^-1 + A_R^-1) is hop i's share of the inverse areas.  DF is closed
    form (C~ = exp(a1) E1(a1), D_b = 0); AF is one scalar quadrature.
    """
    a1 = x_s + x_r
    e = math.exp(-2.0 * abs(split) / a)  # (P_S/P_R)^(-2/a) on the side that cannot overflow
    s_s, s_r = (e / (1.0 + e), 1.0 / (1.0 + e)) if split > 0 else (1.0 / (1.0 + e), e / (1.0 + e))
    alpha = k_s * x_s + k_r * x_r
    gamma = (2.0 / a) * (k_s * s_s + k_r * s_r)
    h = scaled_e1(a1)
    if protocol is RelayProtocol.DF:
        # D_a = 1/a1 - exp(a1) E1(a1) = exp(a1) E2(a1)/a1, free of cancellation
        return alpha * scaled_en(a1, 2) / (a1 * h) - gamma
    b1 = math.sqrt(x_s * x_r)
    beta = (k_s + k_r) * b1

    def integrand(g):
        z = 2.0 * b1 * g
        k0, k1 = bessel_k01(z)
        return z * np.exp(-a1 * g) / (1.0 + g) * (g * (alpha * k1 + beta * k0) - gamma * k1) / h

    return integrate_semi_infinite(integrand, _ROOT_SPEC, scale=1.0 / (a1 + 2.0 * b1)).value


def _rising_root(g, lo: float, hi: float) -> float:
    """Root of g, negative below it and positive above, from the bracket
    [lo, hi] moved by factors of 4 (at most 25 times) until it straddles
    the sign change."""
    g = functools.lru_cache(maxsize=None)(g)
    for _ in range(25):
        if g(lo) > 0.0:
            lo, hi = 0.25 * lo, lo
        elif g(hi) < 0.0:
            lo, hi = hi, 4.0 * hi
        else:
            return find_root_bracketed(g, lo, hi)
    raise BracketingError(f"no sign change near [{lo:g}, {hi:g}]")


def _interior_optimum(protocol: RelayProtocol, a: float, ln_c, ln_lo: float, ln_hi: float):
    """(ln P_S, ln P_R) of a maximum where both log-power derivatives of eta
    vanish (a > 2), or None when none has its split ln(P_S/P_R) in the box."""
    x_star = optimal_inverse_snr(a)
    ln_q = ln_c[0] - ln_c[1]
    if protocol is RelayProtocol.DF:
        # the scale condition is the p2p root a1 = x*; dividing the two
        # conditions gives P_S/P_R = (c_S/c_R)^(a/(a-2))
        split = ln_q * a / (a - 2.0)
        ln_pr = ln_c[1] + float(np.logaddexp(0.0, -2.0 * ln_q / (a - 2.0))) - math.log(x_star)
        return ln_pr + split, ln_pr

    def scale_root(split):
        """ln P_R on the ray ln(P_S/P_R) = split where E[G/(1+G)] = (2/a) E[ln(1+G)]."""
        q = math.exp(ln_q - split)  # x_s/x_r
        y0 = x_star / (1.0 + q)     # x_r of the DF scale root on this ray
        y = _rising_root(lambda y: _log_gradient(protocol, a, q * y, y, split, 1.0, 1.0),
                         0.25 * y0, 2.0 * y0)
        return ln_c[1] - math.log(y)

    # With the scale at its root, the split residual below is, up to a positive
    # factor, the derivative of ln(eta) along the split (envelope theorem).
    # Walking the way its sign points from a start therefore brackets a
    # maximum along the split, never the minimum between two maxima.
    # q = x_s/x_r > 0 is the variable of the Brent solve.
    @functools.lru_cache(maxsize=None)
    def split_gradient(q):
        split = ln_q - math.log(q)
        x_r = math.exp(ln_c[1] - scale_root(split))
        return _log_gradient(protocol, a, q * x_r, x_r, split, 1.0, -1.0)

    span = ln_hi - ln_lo  # feasible splits have |ln(P_S/P_R)| <= span
    if ln_q == 0.0:
        # equal hops: the diagonal is stationary, and it is the maximum unless
        # eta rises off it (AF at small a, where the optimum splits into two
        # mirror images; the one with P_S > P_R is taken).  By symmetry the
        # scale root moves only at second order off the diagonal, so the
        # probe keeps the diagonal's scale.
        ln_pr = scale_root(0.0)
        start = 0.01
        x = math.exp(ln_c[1] - ln_pr)
        if _log_gradient(protocol, a, x * math.exp(-0.5 * start), x * math.exp(0.5 * start),
                         start, 1.0, -1.0) <= 0.0:
            return ln_pr, ln_pr
    else:
        start = min(max(ln_q * a / (a - 2.0), -span), span)  # the DF split
    direction = 1.0 if split_gradient(math.exp(ln_q - start)) > 0.0 else -1.0
    prev, step = start, 0.5
    while True:
        nxt = min(max(prev + direction * step, -span), span)
        if nxt == prev:
            return None
        if (split_gradient(math.exp(ln_q - nxt)) > 0.0) != (direction > 0.0):
            break
        prev, step = nxt, 2.0 * step
    q = find_root_bracketed(split_gradient, math.exp(ln_q - prev), math.exp(ln_q - nxt))
    split = ln_q - math.log(q)
    ln_pr = scale_root(split)
    return ln_pr + split, ln_pr


def optimize_relay_powers(env: PropagationEnvironment, d_sr: float, d_rd: float,
                          p_max, protocol: RelayProtocol,
                          span_decades: float = 10.0, tol: float = 1e-5):
    """Box-constrained maximiser of dual-hop GASE over (P_S, P_R).

    The box is [p_max * 10^-span_decades, p_max] per axis.  With c = d^a N
    per hop, C depends on the powers only through a1 = c_S/P_S + c_R/P_R and
    b1 = sqrt(c_S c_R / (P_S P_R)), and each area grows as P^(2/a), so the two
    first-order conditions in (ln P_S, ln P_R) are solved directly:

    * DF, closed form: their sum is the p2p root (a1 + 2/a) e^a1 E1(a1) = 1,
      a1 = x* (link_p2p.optimal_inverse_snr), and their ratio gives the split
      P_S/P_R = rho = (c_S/c_R)^(a/(a-2)), so P_R = (c_S/rho + c_R)/x*.
    * AF: scaling both powers gives the scale condition
      E[G/(1+G)] = (2/a) E[ln(1+G)] under the equivalent-SNR density, one
      scalar quadrature per step of a Brent root bracketed from the DF one.
      The split ln(P_S/P_R) is a second Brent root, bracketed by walking
      uphill from the DF split.  Equal hops make the diagonal stationary; it
      is the optimum unless GASE rises off it (small a), in which case the
      optimum is one of two mirror images and the one with P_S > P_R is
      returned.
    * Box faces and a <= 2: for a <= 2 GASE only grows as both powers shrink,
      so there is no interior optimum.  When there is none inside the box,
      each of the four faces fixes one power at its bound and solves the 1-D
      condition for the other (or takes the end of the face its gradient
      points to), and the face optimum with the largest GASE is returned.

    Every root is solved to 1e-12 relative in power, far below the AF
    quadrature's 1e-8, whatever ``tol`` is; ``tol`` is kept only for
    compatibility.  Returns (P_S, P_R, GASE at that point).
    """
    a = env.path_loss_exponent
    ln_hi = math.log(watts_of(p_max))
    ln_lo = ln_hi - span_decades * math.log(10.0)
    ln_c = (a * math.log(d_sr) + math.log(env.noise_w), a * math.log(d_rd) + math.log(env.noise_w))

    def eta(point):
        s = DualHopScenario(env, PowerLevel(math.exp(point[0])), PowerLevel(math.exp(point[1])),
                            d_sr, d_rd)
        return gase_dualhop(s, protocol).gase

    def face_optimum(fixed: int, bound: float):
        free = 1 - fixed
        k = (0.0, 1.0) if fixed == 0 else (1.0, 0.0)

        def point(ln_p):
            return (bound, ln_p) if fixed == 0 else (ln_p, bound)

        @functools.lru_cache(maxsize=None)
        def gradient(x):  # x = c/P of the free hop; d ln(eta)/d ln(P_free)
            u, v = point(ln_c[free] - math.log(x))
            return _log_gradient(protocol, a, math.exp(ln_c[0] - u), math.exp(ln_c[1] - v),
                                 u - v, *k)

        x_at_hi, x_at_lo = math.exp(ln_c[free] - ln_hi), math.exp(ln_c[free] - ln_lo)
        if gradient(x_at_hi) >= 0.0:
            return point(ln_hi)
        if gradient(x_at_lo) <= 0.0:
            return point(ln_lo)
        return point(ln_c[free] - math.log(find_root_bracketed(gradient, x_at_hi, x_at_lo)))

    best = _interior_optimum(protocol, a, ln_c, ln_lo, ln_hi) if a > 2.0 else None
    if best is not None and all(ln_lo <= v <= ln_hi for v in best):
        return PowerLevel(math.exp(best[0])), PowerLevel(math.exp(best[1])), eta(best)
    faces = [face_optimum(fixed, bound) for fixed in (0, 1) for bound in (ln_lo, ln_hi)]
    value, best = max((eta(p), p) for p in faces)
    return PowerLevel(math.exp(best[0])), PowerLevel(math.exp(best[1])), value
