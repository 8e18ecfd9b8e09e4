"""Underlay cognitive radio: two co-channel pairs under an interference cap.

The secondary transmitter stays silent unless its interference at the primary
receiver is below i_th, which happens with probability
P = 1 - exp(-i_th * d_sp^a / p2).  While both transmit, each receiver sees the
other's signal as exponentially-faded interference; the resulting SINR cdfs
give piecewise closed-form ergodic capacities in the geometry ratios

    rho_p = (p1/p2) * (d_sp/d_p)^a,   rho_s = (p2/p1) * (d_ps/d_s)^a,

with a removable 0/0 at rho = 1: near it the difference quotient of
exp(x) E1(x) is summed as its Taylor series in 1 - rho.  The primary
capacity is conditioned on the interference constraint being met (the joint
closed form divided by P, or, where a tight constraint makes that form
cancel, a quadrature over the admissible interference).

The parallel affected area integrates, over the plane, the tail T of the sum
of the two received powers (hypoexponential; Erlang-2 where the two means
coincide).  In the thresholds u_p = (m/P1) r^a and u_s = (m/P2) r_s^a, m =
P_min, normalised by the local mean powers, and with e = exp(-u), it is split as

    A_par = A(P1) + A(P2) + 2 int_0^pi int_0^inf [T - e_p - e_s] r dr dtheta,

in polar coordinates about the primary transmitter.  The two single
footprints are the Rayleigh closed form, so a secondary far from the primary
is never lost.  The correction, max(e_p, e_s) lo (1 - e^(-d))/d - min(e_p, e_s)
with lo the smaller u and d = |u_s - u_p|, is non-zero only where the
footprints overlap, and costs three transcendentals per node (r_s^a, e_s and
expm1).  It is integrated by a fixed composite Gauss-Legendre product rule
(4 x 8 panels of 16 nodes, 64 x 128 nodes) on the map r = L u/(1 - u),
L = d0 + the larger footprint; the 2 x 4-panel rule (32 x 64 nodes) gives the
error estimate.  Each rule is one numpy pass over its whole grid and one dot
product with its weight matrix: at these sizes the cost is per numpy call more
than per node.  Where the two disagree by more than the area tolerance, the
nested adaptive Gauss-Kronrod rules integrate the same correction instead.

The composite metric mixes the parallel branch with the silent-secondary
point-to-point branch by P, and recovers the X-channel (no constraint) and
pure point-to-point links in the i_th limits.  ``gase_cognitive_batch``
evaluates a list of scenarios, and ``gase_cognitive`` is the batch of one.
Only P and the primary's joint term read i_th, and the batch computes the
rest once per run of scenarios that differ only in i_th.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from .link_p2p import LN2, GaseBreakdown, P2pScenario, gase_p2p
from .mathkernel import (EULER_GAMMA, QuadratureSpec, integrate, integrate_semi_infinite,
                         scaled_e1, scaled_en)
from .propagation import PowerLevel, PropagationEnvironment, affected_area_single

__all__ = [
    "CognitiveScenario",
    "prob_parallel",
    "primary_capacity_parallel",
    "secondary_capacity_parallel",
    "x_channel_primary_capacity",
    "two_source_power_tail",
    "affected_area_parallel",
    "gase_cognitive",
    "gase_cognitive_batch",
    "gase_x_channel",
]

# Within this distance of rho = 1 the difference quotient is summed as a
# Taylor series whose first dropped term is below 0.05^14 = 6e-19 of the sum;
# outside it the closed difference loses less than 1e-12 to cancellation.
_TAYLOR_BAND = 0.05
_TAYLOR_TERMS = 14

_AREA_SPEC = QuadratureSpec(rel_tol=2e-5, abs_tol=0.0, max_subdivisions=4000)

# Below this fraction of the unconstrained capacity the joint closed form of
# the primary has lost over 3 digits to cancellation, and the conditional
# capacity is integrated instead (at _MEAN_SPEC)
_CANCELLATION = 1e-3
_MEAN_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)

_HUGE, _TINY = np.finfo(float).max, np.finfo(float).tiny


_GL16 = np.polynomial.legendre.leggauss(16)


def _product_rule(theta_panels: int, u_panels: int):
    """Composite 16-node Gauss-Legendre rule for 2 int_0^pi int_0^inf f r dr dtheta.

    theta in [0, pi] and u in [0, 1) are cut into equal panels, with
    r = L t, t = u/(1 - u).  Returns t as a row, sin^2(theta/2) as a column
    and the weights 2 w_theta w_u t/(1 - u)^2 as a matrix, which times L^2
    integrate f sampled on the whole grid.
    """
    x, w = _GL16

    def composite(hi, panels):
        half = 0.5 * hi / panels
        mids = half * (2.0 * np.arange(panels) + 1.0)
        return (mids[:, None] + half * x).ravel(), np.tile(half * w, panels)

    theta, w_theta = composite(math.pi, theta_panels)
    u, w_u = composite(1.0, u_panels)
    t = u / (1.0 - u)
    return t, np.sin(0.5 * theta)[:, None] ** 2, np.outer(2.0 * w_theta, w_u * t / (1.0 - u) ** 2)


_FINE = _product_rule(4, 8)     # 64 theta x 128 u nodes
_COARSE = _product_rule(2, 4)   # 32 x 64 on panels twice as wide: the error estimate


@dataclass(frozen=True)
class CognitiveScenario:
    """Geometry and powers of the primary/secondary pair.

    d_p, d_s are the desired-link distances; d_sp (secondary tx -> primary rx)
    and d_ps (primary tx -> secondary rx) the interference links; d0 the
    transmitter separation.  Receiver positions must be geometrically
    realisable: |d0 - d_p| <= d_sp <= d0 + d_p, and likewise for d_ps, d_s.
    """

    env: PropagationEnvironment
    p1: PowerLevel
    p2: PowerLevel
    d_p: float
    d_s: float
    d_sp: float
    d_ps: float
    d0: float
    i_th_w: float

    def __post_init__(self):
        for name in ("d_p", "d_s", "d_sp", "d_ps", "d0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.i_th_w <= 0:
            raise ValueError("i_th_w must be > 0")
        if not (abs(self.d0 - self.d_p) <= self.d_sp <= self.d0 + self.d_p):
            raise ValueError(
                f"d_sp={self.d_sp:g} violates the triangle bound "
                f"|d0 - d_p| <= d_sp <= d0 + d_p with d0={self.d0:g}, d_p={self.d_p:g}")
        if not (abs(self.d0 - self.d_s) <= self.d_ps <= self.d0 + self.d_s):
            raise ValueError(
                f"d_ps={self.d_ps:g} violates the triangle bound "
                f"|d0 - d_s| <= d_ps <= d0 + d_s with d0={self.d0:g}, d_s={self.d_s:g}")

    @property
    def rho_p(self) -> float:
        a = self.env.path_loss_exponent
        return (self.p1.watts / self.p2.watts) * (self.d_sp / self.d_p) ** a

    @property
    def rho_s(self) -> float:
        a = self.env.path_loss_exponent
        return (self.p2.watts / self.p1.watts) * (self.d_ps / self.d_s) ** a

    @property
    def n1(self) -> float:
        """Noise over the primary's mean received power, noise * d_p^a / p1."""
        return self.d_p ** self.env.path_loss_exponent * self.env.noise_w / self.p1.watts

    @property
    def n2(self) -> float:
        """Noise over the secondary's mean received power, noise * d_s^a / p2."""
        return self.d_s ** self.env.path_loss_exponent * self.env.noise_w / self.p2.watts

    @property
    def i1(self) -> float:
        """i_th over the primary's mean received power: the largest admissible
        normalised interference, c / rho_p."""
        return self.d_p ** self.env.path_loss_exponent * self.i_th_w / self.p1.watts

    @property
    def constraint_exponent(self) -> float:
        """i_th * d_sp^a / p2; the parallel-transmission probability is 1 - exp(-this)."""
        return self.i_th_w * self.d_sp ** self.env.path_loss_exponent / self.p2.watts


def prob_parallel(s: CognitiveScenario) -> float:
    """Probability the secondary's interference stays under the threshold."""
    return -math.expm1(-s.constraint_exponent)


def _interference_integral(rho: float, n: float) -> float:
    """int (tail of the SINR cdf)/(1+g) dg for the shared cdf family: the
    ergodic capacity in nats.

    The tail is rho/(g+rho) * exp(-n g), and the integral is
    rho/(1-rho) * (h(n rho) - h(n)) with h(x) = exp(x) E1(x).  Near rho = 1
    that is summed as the Taylor series rho * sum_j (1-rho)^j exp(n) E_(j+2)(n)
    of the difference quotient, from h^(k)(n) = (-1)^k k! exp(n) E_(k+1)(n)/n^k
    (h' = h - 1/x); at rho = 1 it is exp(n) E2(n) = 1 - n h(n).  Where n rho
    underflows, h(n rho) = -ln n - ln rho - gamma to within n rho ln(n rho),
    and the rho -> 0 limit is 0.
    """
    if abs(rho - 1.0) <= _TAYLOR_BAND:
        return rho * math.fsum((1.0 - rho) ** j * scaled_en(n, j + 2)
                               for j in range(_TAYLOR_TERMS))
    if rho == 0.0:
        return 0.0
    h = scaled_e1(n * rho) if n * rho >= _TINY else -math.log(n) - math.log(rho) - EULER_GAMMA
    return rho / (1.0 - rho) * (h - scaled_e1(n))


def primary_capacity_parallel(s: CognitiveScenario) -> float:
    """Primary ergodic capacity given parallel transmission is permitted.

    Conditioning on the interference constraint truncates the interfering
    fading gain: the SINR tail gains the factor 1 - exp(-c - i1 g), so the
    joint capacity is C(n1) - exp(-c) C(n1 + i1), divided by the parallel
    probability.  When the constraint is tight that difference cancels (it
    is 0 once exp(-c) rounds to 1).  There the capacity is computed as what
    it equals: the mean of exp(z) E1(z) / ln 2 at z = n1 + x, over the
    normalised interference x in [0, i1] with weight exp(-rho_p x), by
    quadrature of a positive integrand.  Where the parallel probability P
    underflows to 0, so does c = rho_p i1, and the weight's normaliser
    rho_p/P = (1/i1) c/(1 - exp(-c)) is its limit 1/i1: x is uniform on [0, i1].
    """
    return _primary_capacity(s, prob_parallel(s), _interference_integral(s.rho_p, s.n1))


def _primary_capacity(s: CognitiveScenario, p: float, free: float) -> float:
    """primary_capacity_parallel, given the parallel probability p and the
    unconstrained integral free = _interference_integral(rho_p, n1)."""
    n1, i1, rho = s.n1, s.i1, s.rho_p
    joint = free - math.exp(-s.constraint_exponent) * _interference_integral(rho, n1 + i1)
    if p > 0.0 and joint >= _CANCELLATION * free:
        return joint / LN2 / p
    weighted = integrate(lambda x: scaled_e1(n1 + x) * np.exp(-rho * x), 0.0, i1, _MEAN_SPEC)
    if p > 0.0:
        return weighted.value * rho / LN2 / p
    return weighted.value / i1 / LN2


def secondary_capacity_parallel(s: CognitiveScenario) -> float:
    """Secondary ergodic capacity under primary interference (no constraint)."""
    return _interference_integral(s.rho_s, s.n2) / LN2


def x_channel_primary_capacity(s: CognitiveScenario) -> float:
    """Primary capacity with the interference constraint removed (i_th -> inf)."""
    return _interference_integral(s.rho_p, s.n1) / LN2


def two_source_power_tail(u_p, u_s):
    """P{sum of two exponential received powers >= p_min} less the single-source
    tails e_i = exp(-u_i), in the thresholds u_i = p_min r_i^a / P_i.

    With lo = min(u_p, u_s) and d = |u_s - u_p| the hypoexponential tail is
    exp(-lo) (1 + lo (1 - exp(-d))/d), so this is max(e_p, e_s) lo (1 - exp(-d))/d
    less min(e_p, e_s), free of cancellation for every ratio of the means: d = 0
    is the Erlang-2 tail, d = inf a single source (0), u = 0 at a transmitter a
    tail of 1, and u_p = u_s = inf gives 0.
    """
    e_p, e_s = np.exp(-u_p), np.exp(-u_s)
    # written in place into three buffers, which holds down the temporaries of
    # a whole-grid call; [()] returns a scalar for scalar thresholds
    lo, neg_d, excess = (np.empty(np.broadcast(u_p, u_s).shape) for _ in range(3))
    # lo * 0, not inf * 0, where both are inf
    np.minimum(np.minimum(u_p, u_s, out=lo), _HUGE, out=lo)
    # -d, held below -tiny so that the quotient is 1 at d = 0
    np.subtract(lo, np.maximum(u_p, u_s, out=neg_d), out=neg_d)
    np.minimum(neg_d, -_TINY, out=neg_d)
    np.multiply(np.maximum(e_p, e_s, out=excess), lo, out=excess)
    excess *= np.divide(np.expm1(neg_d, out=lo), neg_d, out=lo)
    excess -= np.minimum(e_p, e_s, out=lo)
    return excess[()]


def _overlap_correction(s: CognitiveScenario, r, sin2_half):
    """T - e_p - e_s at distance r from the primary, at the angle theta from
    the secondary given as sin^2(theta/2)."""
    a = s.env.path_loss_exponent
    p_min = s.env.p_min_w
    with np.errstate(over="ignore"):
        # (r - d0)^2 + 4 r d0 sin^2(theta/2) is r_s^2 without cancellation
        u_s = 4.0 * r * s.d0 * sin2_half
        u_s += (r - s.d0) ** 2
        u_s **= 0.5 * a
        u_s *= p_min / s.p2.watts
        return two_source_power_tail(p_min / s.p1.watts * r ** a, u_s)


def _rule_correction(s: CognitiveScenario, scale: float, rule) -> float:
    """The product rule's 2 int int correction r dr dtheta, in one call on the
    whole grid."""
    t, sin2, w = rule
    total = float(np.vdot(w, _overlap_correction(s, scale * t, sin2)))
    return scale * (scale * total)  # stays 0, not nan, where scale^2 overflows


def _weaker_footprint_missed(s: CognitiveScenario, scale: float, x: float, radius: float,
                             singles: float) -> bool:
    """Whether both fixed rules can miss the weaker footprint (radius R, at
    distance x from the primary) alike.

    That needs R below 4 node spacings of the fine rule there: (x + L)^2/(128 L)
    radially (du = 1/128 on r = L u/(1 - u)) and x pi/64 angularly.  It also
    needs the stronger field to reach it: the correction there is bounded by
    about A_weak times lam_strong(d0)/P_min = min(1, (R_strong/d0)^a), which
    must exceed a tenth of the area tolerance.
    """
    spacing = max((x + scale) ** 2 / (128.0 * scale), x * math.pi / 64.0)
    if radius >= 4.0 * spacing:
        return False
    ratio = (scale - s.d0) / s.d0
    reach = 1.0 if ratio >= 1.0 else ratio ** s.env.path_loss_exponent
    weak = affected_area_single(s.env, min(s.p1.watts, s.p2.watts))
    return weak * reach > 0.1 * _AREA_SPEC.rel_tol * singles


def _adaptive_correction(s: CognitiveScenario, scale: float, x: float, width: float,
                         tol: float) -> float:
    """2 int_0^pi int_0^inf of the overlap correction r dr dtheta by adaptive
    Gauss-Kronrod, to the absolute tolerance ``tol``.

    The radial integrals break at x +- width, so that a footprint of that
    size around the weaker transmitter at distance x lies inside its own
    panel instead of between nodes.  Each of the (up to) three radial pieces
    gets tol/(12 pi) and the angular integral tol/4, so twice the angular
    plus pi times the radial errors stay within tol.
    """
    radial_spec = replace(_AREA_SPEC, abs_tol=tol / (12.0 * math.pi))
    cuts = sorted({0.0, max(x - width, 0.0), x + width})

    def radial(sin2_half: float) -> float:
        def f(r):
            return _overlap_correction(s, r, sin2_half) * r
        total = sum(integrate(f, lo, hi, radial_spec).value for lo, hi in zip(cuts, cuts[1:]))
        return total + integrate_semi_infinite(lambda t: f(cuts[-1] + t), radial_spec,
                                               scale=scale).value

    angular = integrate(lambda theta: np.array([radial(math.sin(0.5 * t) ** 2) for t in theta]),
                        0.0, math.pi, replace(_AREA_SPEC, abs_tol=tol / 4.0))
    return 2.0 * angular.value


def affected_area_parallel(s: CognitiveScenario) -> float:
    """Affected area while both transmitters are active, in m^2.

    The closed-form single footprints A(P1) + A(P2) plus the overlap
    correction, integrated by the fixed product rule on r = L u/(1 - u) with
    L = d0 + the larger footprint.  The result is accepted when the 64 x 128
    and 32 x 64 rules agree to the area tolerance and neither can have missed
    the weaker footprint (_weaker_footprint_missed).  Otherwise the correction is
    integrated again by adaptive Gauss-Kronrod, radially (semi-infinite) at
    each node of an angular rule on [0, pi], with radial breaks around the
    weaker transmitter and an absolute tolerance set by the whole area, so
    that a vanishing correction ends at once.
    """
    a = s.env.path_loss_exponent
    singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
    scale = s.d0 + (max(s.p1.watts, s.p2.watts) / s.env.p_min_w) ** (1.0 / a)
    fine, coarse = (singles + _rule_correction(s, scale, rule) for rule in (_FINE, _COARSE))
    x = s.d0 if s.p2.watts < s.p1.watts else 0.0  # the weaker transmitter's distance
    radius = (min(s.p1.watts, s.p2.watts) / s.env.p_min_w) ** (1.0 / a)
    if (abs(fine - coarse) <= _AREA_SPEC.rel_tol * fine
            and not _weaker_footprint_missed(s, scale, x, radius, singles)):
        return fine
    return singles + _adaptive_correction(s, scale, x, 4.0 * radius,
                                          0.5 * _AREA_SPEC.rel_tol * singles)


def gase_cognitive_batch(scenarios: Sequence[CognitiveScenario]) -> List[GaseBreakdown]:
    """gase_cognitive of each scenario, bit for bit.  The parallel area, the
    unconstrained primary integral with the secondary capacity, and the
    silent branch, which do not read i_th, are computed again only where the
    inputs each reads differ from the predecessor's."""
    results, area_key, free_key, p2p_key = [], None, None, None
    for s in scenarios:
        p = prob_parallel(s)
        key = (s.env, s.p1, s.p2, s.d_p, s.d_s, s.d_sp, s.d_ps)
        fresh = key != free_key
        if fresh:
            free_key, free = key, _interference_integral(s.rho_p, s.n1)
        c_p = _primary_capacity(s, p, free)
        if fresh:  # after C_p, so that a point that fails raises what a lone one does
            c_s = secondary_capacity_parallel(s)
        key = (s.env, s.p1, s.p2, s.d0)
        if key != area_key:
            area_key, area_par = key, affected_area_parallel(s)
        key = (s.env, s.p1, s.d_p)
        if key != p2p_key:
            p2p_key, p2p = key, gase_p2p(P2pScenario(s.env, s.p1, s.d_p))
        # rounded as (p * (C_p + C_s)) / A, the order the golden CSV rows use
        gase = p * (c_p + c_s) / area_par + (1.0 - p) * p2p.gase
        se_total = p * (c_p + c_s) + (1.0 - p) * p2p.capacity
        results.append(GaseBreakdown(se_total, se_total / gase, gase, {
            "p_parallel": p, "c_primary_bps_hz": c_p, "c_secondary_bps_hz": c_s,
            "c_p2p_bps_hz": p2p.capacity, "area_parallel_m2": area_par,
            "area_p2p_m2": p2p.area, "se_total_bps_hz": se_total, "gase_bps_hz_m2": gase,
            "gase_x_bps_hz_m2": (free / LN2 + c_s) / area_par,
            "gase_p2p_bps_hz_m2": p2p.gase}))
    return results


def gase_cognitive(s: CognitiveScenario) -> GaseBreakdown:
    """Composite underlay GASE: P * parallel branch + (1 - P) * silent branch.

    The components (the CSV row) hold P, the branch capacities and areas, the
    total spectral efficiency P*(C_p + C_s) + (1-P)*C_p2p, and the composite,
    X-channel and silent-branch GASEs: gase_cognitive_batch of one scenario.
    """
    return gase_cognitive_batch([s])[0]


def gase_x_channel(s: CognitiveScenario) -> GaseBreakdown:
    """GASE of the unconstrained two-pair (X) channel: both always transmit."""
    c_p = x_channel_primary_capacity(s)
    c_s = secondary_capacity_parallel(s)
    area_par = affected_area_parallel(s)
    se_total = c_p + c_s
    gase = se_total / area_par
    return GaseBreakdown(capacity=se_total, area=area_par, gase=gase, components={
        "c_primary_bps_hz": c_p, "c_secondary_bps_hz": c_s, "se_total_bps_hz": se_total,
        "area_parallel_m2": area_par, "gase_bps_hz_m2": gase})
