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
is never lost.  The correction, e^(-lo) (lo (1 - e^(-d))/d - e^(-d)) with lo
the smaller u and d = |u_s - u_p|, is non-zero only where the footprints
overlap, and costs three transcendentals per node (r_s^a, e^(-lo) and
expm1(-d)).  It is integrated by globally adaptive subdivision: 16 x 16-node
Gauss-Legendre panels on (theta, u) in [0, pi] x [0, 1), r = L u/(1 - u),
each checked against the sum of the rules on its quarters; the panels whose
checks disagree most are replaced by their quarters.  Round 0, 2 x 4 panels
and their quarters, is the composite rules on 32 x 64 and 64 x 128 nodes as
two tensor-product grids, less the rows of u where both thresholds pass 750
and every correction is 0.0 (8,400 nodes of 10,240 on fig7a); it is
accepted on every preset.

The composite metric mixes the parallel branch with the silent-secondary
point-to-point branch by P, and recovers the X-channel (no constraint) and
pure point-to-point links in the i_th limits.  ``gase_cognitive_batch``
evaluates a list of scenarios, and ``gase_cognitive`` is the batch of one.
Only P and the primary's joint term read i_th, and the batch computes the
rest once per run of scenarios that differ only in i_th.  It takes the means
of all its tight points in one quadrature batch, and a lone
``primary_capacity_parallel`` takes its mean as the batch of one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .link_p2p import LN2, P2pScenario, gase_p2p
from .mathkernel import (EULER_GAMMA, QuadratureError, QuadratureSpec, integrate_batch,
                         scaled_e1, scaled_en)
from .propagation import (PowerLevel, PropagationEnvironment, _ratio_text,
                          affected_area_single, path_ratio)

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

_AREA_TOL = 2e-5   # relative tolerance of the parallel affected area

# Below this fraction of the unconstrained capacity the joint closed form of
# the primary has lost over 3 digits to cancellation, and the conditional
# capacity is integrated instead (at _MEAN_SPEC)
_CANCELLATION = 1e-3
_MEAN_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)

_HUGE, _TINY = np.finfo(float).max, np.finfo(float).tiny


# 16-node Gauss-Legendre nodes on [-1, 1] and their weights (numpy's
# leggauss(16); tests/test_cognitive_underlay.py rebuilds them bit for bit)
_GL16 = (np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
]), np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
]))
# The area's refinement raises QuadratureError past these.  Each split costs
# 16 new panels of 256 nodes, so a round evaluates at most 2.8e6 nodes
_MAX_ROUNDS, _MAX_PANELS = 200, 2048


def _nodes(box):
    """16 x 16-node Gauss-Legendre rules for 2 int int f r dr dtheta on panels
    (theta centre, half-width, u centre, half-width), r = L u/(1 - u): the
    sin^2(theta/2) (n, 16, 1), t = r/L (n, 1, 16) and weights (n, 16, 16),
    which times L^2 integrate f on each panel."""
    x, w = _GL16
    mid_th, half_th, mid_u, half_u = (c[:, None] for c in box.T)
    theta, u = mid_th + half_th * x, mid_u + half_u * x
    t = u / (1.0 - u)
    weights = (2.0 * half_th * w)[:, :, None] * (half_u * w * t / (1.0 - u) ** 2)[:, None, :]
    return np.sin(0.5 * theta)[:, :, None] ** 2, t[:, None, :], weights


def _quarters(box, u_only):
    """Each panel's four quarters, consecutive: 2 x 2, or four strips in u."""
    q = u_only[:, None]
    mid_th, half_th, mid_u, half_u = (c[:, None] for c in box.T)
    return np.stack(np.broadcast_arrays(
        mid_th + np.where(q, 0.0, [-0.5, -0.5, 0.5, 0.5]) * half_th, np.where(q, 1.0, 0.5) * half_th,
        mid_u + np.where(q, [-0.75, -0.25, 0.25, 0.75], [-0.5, 0.5, -0.5, 0.5]) * half_u,
        np.where(q, 0.25, 0.5) * half_u), axis=-1).reshape(-1, 4)


def _grid(theta_panels, u_panels):
    """The composite rule on theta_panels x u_panels equal panels, transposed:
    sin^2(theta/2) (n_theta,), t (n_u,) and _nodes' weights (n_u, n_theta)."""
    x, w = _GL16
    (theta, w_th), (u, w_u) = (
        (((half * (2.0 * np.arange(n) + 1.0))[:, None] + half * x).ravel(), np.tile(half * w, n))
        for half, n in ((0.5 * math.pi / theta_panels, theta_panels), (0.5 / u_panels, u_panels)))
    t = u / (1.0 - u)
    return np.sin(0.5 * theta) ** 2, t, np.outer(w_u * t / (1.0 - u) ** 2, 2.0 * w_th)


# Round 0: 2 x 4 panels and their quarters, the composite rules on 32 x 64 and
# 64 x 128 nodes.  Past u = 750, exp(-u) and so the correction are 0.0
_START = _quarters(np.array([[1.0, 1.0, 2.0, 2.0], [3.0, 1.0, 2.0, 2.0]])
                   * [0.25 * math.pi, 0.25 * math.pi, 0.25, 0.25], np.ones(2, bool))
_START_GRIDS, _EXP_ZERO = (_grid(2, 4), _grid(4, 8)), 750.0


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
        return path_ratio(a, self.d_sp / self.d_p, self.p1.watts / self.p2.watts, 1.0)

    @property
    def rho_s(self) -> float:
        a = self.env.path_loss_exponent
        return path_ratio(a, self.d_ps / self.d_s, self.p2.watts / self.p1.watts, 1.0)

    @property
    def n1(self) -> float:
        """Noise over the primary's mean received power, noise * d_p^a / p1."""
        return path_ratio(self.env.path_loss_exponent, self.d_p, self.env.noise_w, self.p1.watts)

    @property
    def n2(self) -> float:
        """Noise over the secondary's mean received power, noise * d_s^a / p2."""
        return path_ratio(self.env.path_loss_exponent, self.d_s, self.env.noise_w, self.p2.watts)

    @property
    def i1(self) -> float:
        """i_th over the primary's mean received power: the largest admissible
        normalised interference, c / rho_p."""
        return path_ratio(self.env.path_loss_exponent, self.d_p, self.i_th_w, self.p1.watts)

    @property
    def constraint_exponent(self) -> float:
        """i_th * d_sp^a / p2; the parallel-transmission probability is 1 - exp(-this)."""
        return path_ratio(self.env.path_loss_exponent, self.d_sp, self.i_th_w, self.p2.watts)


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
    and the rho -> 0 limit is 0.  Where n rho overflows, rho = inf included,
    the tail is exp(-n g) to within 1/rho, and the integral h(n).
    """
    if abs(rho - 1.0) <= _TAYLOR_BAND:
        return rho * math.fsum((1.0 - rho) ** j * scaled_en(n, j + 2)
                               for j in range(_TAYLOR_TERMS))
    if rho == 0.0:
        return 0.0
    if n * rho == math.inf:
        return scaled_e1(n)
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
    quadrature of a positive integrand, the batch of one of the means that
    gase_cognitive_batch takes together.  Where the parallel probability P
    underflows to 0, so does c = rho_p i1, and the weight's normaliser
    rho_p/P = (1/i1) c/(1 - exp(-c)) is its limit 1/i1: x is uniform on [0, i1].
    """
    p = prob_parallel(s)
    c_p = _primary_capacity(s, p, _interference_integral(s.rho_p, s.n1))
    return _tight_means([s], [p])[0] if c_p is None else c_p


def _primary_capacity(s: CognitiveScenario, p: float, free: float):
    """primary_capacity_parallel, given the parallel probability p and the
    unconstrained integral free = _interference_integral(rho_p, n1); None
    where the constraint is tight, for _tight_means."""
    joint = free - math.exp(-s.constraint_exponent) * _interference_integral(s.rho_p, s.n1 + s.i1)
    if p > 0.0 and joint >= _CANCELLATION * free:
        return joint / LN2 / p
    return None


def _tight_means(scenarios: Sequence[CognitiveScenario], probabilities: Sequence[float]
                 ) -> List[float]:
    """primary_capacity_parallel of the tight scenarios, with their parallel
    probabilities, from one integrate_batch of their means."""
    n1, rho, i1 = (np.array([getattr(s, name) for s in scenarios])
                   for name in ("n1", "rho_p", "i1"))
    weighted = integrate_batch(lambda x, rows: scaled_e1(n1[rows] + x) * np.exp(-rho[rows] * x),
                               np.zeros(i1.size), i1, _MEAN_SPEC)
    return [w.value * r / LN2 / p if p > 0.0 else w.value / i / LN2
            for w, r, i, p in zip(weighted, rho.tolist(), i1.tolist(), probabilities)]


def secondary_capacity_parallel(s: CognitiveScenario) -> float:
    """Secondary ergodic capacity under primary interference (no constraint)."""
    return _interference_integral(s.rho_s, s.n2) / LN2


def x_channel_primary_capacity(s: CognitiveScenario) -> float:
    """Primary capacity with the interference constraint removed (i_th -> inf)."""
    return _interference_integral(s.rho_p, s.n1) / LN2


def two_source_power_tail(u_p, u_s):
    """P{sum of two exponential received powers >= p_min} less the single-source
    tails e_i = exp(-u_i), in the thresholds u_i = p_min r_i^a / P_i.

    With lo = min(u_p, u_s), d = |u_s - u_p|, em = expm1(-d) and q = em/(-d), the
    hypoexponential tail is exp(-lo) (1 + lo q), and this is exp(-lo) (lo q - 1 - em):
    one exp and one expm1 a node, and no difference of the two means, so no ratio of
    them costs digits.  d = 0 is the Erlang-2 tail, d = inf a single source (0), u = 0
    at a transmitter a tail of 1, and u_p = u_s = inf gives 0.
    """
    # written in place into three buffers, which holds down the temporaries of
    # a whole-grid call; [()] returns a scalar for scalar thresholds
    lo, neg_d, em = (np.empty(np.broadcast(u_p, u_s).shape) for _ in range(3))
    # lo * 0, not inf * 0, where both are inf
    np.minimum(np.minimum(u_p, _HUGE), u_s, out=lo)
    # -d, held below -tiny so that q is 1 at d = 0
    np.subtract(lo, np.maximum(u_p, u_s, out=neg_d), out=neg_d)
    np.minimum(neg_d, -_TINY, out=neg_d)
    np.expm1(neg_d, out=em)
    excess = np.divide(em, neg_d, out=neg_d)
    excess *= lo
    excess -= 1.0
    excess -= em
    excess *= np.exp(np.negative(lo, out=lo), out=lo)
    return excess[()]


def _overlap_correction(s: CognitiveScenario, r, sin2_half):
    """T - e_p - e_s at distance r from the primary, at the angle theta from
    the secondary given as sin^2(theta/2)."""
    a = s.env.path_loss_exponent
    p_min = s.env.p_min_w
    with np.errstate(over="ignore"):
        # (r - d0)^2 + 4 r d0 sin^2(theta/2) is r_s^2 without cancellation
        u_s = r * (4.0 * s.d0) * sin2_half
        u_s += (r - s.d0) ** 2
        u_s **= 0.5 * a
        u_s *= p_min / s.p2.watts
        return two_source_power_tail(p_min / s.p1.watts * r ** a, u_s)


def _start_rules(corrs):
    """The rules of round 0's 8 panels and of their quarters (8, 4), from each
    grid's corrections on the rows it kept and its weights, the dropped rows 0."""
    own, kids = (np.sum((w * np.pad(c, ((0, len(w) - len(c)), (0, 0))))
                        .reshape(len(w) // 16, 16, -1, 16), axis=(1, 3)).T for c, w in corrs)
    return own.ravel(), kids.reshape(2, 2, 4, 2).transpose(0, 2, 1, 3).reshape(8, 4)


def _too_coarse(x, radius, scale, half_th, half_u):
    """Whether a radius at distance x from the primary is under four node spacings
    of the 2 x 2 quarters there: (x + L)^2/L du/16 or x dtheta/16."""
    return ((4.0 * radius < (x + scale) * ((x + scale) / scale) * half_u)
            | (4.0 * radius < x * half_th))


def affected_area_parallel(s: CognitiveScenario) -> float:
    """Affected area while both transmitters are active, in m^2.

    A(P1) + A(P2) plus the overlap correction, on r = L u/(1 - u) with
    L = d0 + the larger footprint radius R_i, widened at a < 2 by (2/a)^(1/a)
    to where the correction around a footprint lies.  Round 0, 2 x 4 panels
    and their quarters, is accepted when its sums over both agree to the
    area tolerance and no panel is blind: within its own width of a
    transmitter whose R_i is under four node spacings there, while the other
    field reaches it (A(P_i) min(1, (R_j/d0)^a) over a tenth of the
    tolerance).  Else each round replaces by their quarters the blind panels
    and the fewest, largest first, whose local estimates (quarters less
    panel) make up half of the total; the quarters are strips in u where the
    correction barely depends on theta (r <= d0/8 or r >= 8 d0).
    """
    env, a, tol = s.env, s.env.path_loss_exponent, _AREA_TOL
    area1, area2 = affected_area_single(env, s.p1), affected_area_single(env, s.p2)
    singles = area1 + area2
    radius1, radius2 = ((p.watts / env.p_min_w * max(1.0, 2.0 / a)) ** (1.0 / a)
                        for p in (s.p1, s.p2))
    scale = s.d0 + max(radius1, radius2)
    # (distance from the primary, radius) of each transmitter the other field reaches
    reached = [(x, radius) for x, radius, area, other in ((0.0, radius1, area1, radius2),
                                                           (s.d0, radius2, area2, radius1))
               if area * min(other / s.d0, 1.0) ** a > 0.1 * tol * singles]
    # round 0 drops the rows where r >= cut L: there u_p and u_s >= _EXP_ZERO
    widen = (_EXP_ZERO / max(1.0, 2.0 / a)) ** (1.0 / a)  # under 1e61 at any a
    cut = max(radius1 * widen, s.d0 + radius2 * widen) / scale
    corrs = [(_overlap_correction(s, scale * t[:bisect_left(t, cut), None], sin2), w)
             for sin2, t, w in _START_GRIDS]
    # stays 0, not nan, where L^2 overflows
    coarse, fine = (singles + scale * (scale * float(np.vdot(w[:len(c)], c))) for c, w in corrs)
    converged = abs(fine - coarse) <= tol * fine
    if converged and not any(_too_coarse(x, radius, scale, 0.25 * math.pi, 0.125)
                             for x, radius in reached):
        return fine  # no panel is blind, as none of round 0 is
    box, u_only, (own, kids) = _START, np.zeros(8, bool), _start_rules(corrs)
    near, far = s.d0 / (s.d0 + 8.0 * scale), 8.0 * s.d0 / (8.0 * s.d0 + scale)
    for _ in range(_MAX_ROUNDS):
        mid_th, half_th, mid_u, half_u = box.T
        split = np.zeros(len(box), bool)
        for x, radius in reached:
            split |= ((np.abs(mid_u - x / (x + scale)) <= 2.0 * half_u)
                      & ((mid_th <= 2.0 * half_th) | (x == 0.0))
                      & _too_coarse(x, radius, scale, half_th, half_u))
        if converged and not split.any():
            return fine
        local = np.abs(kids.sum(axis=1) - own)
        order = np.argsort(-local)
        split[order[:np.searchsorted(np.cumsum(local[order]), 0.5 * local.sum()) + 1]] = True
        if len(box) + 3 * np.count_nonzero(split) > _MAX_PANELS:
            break
        children = _quarters(box[split], u_only[split])
        strips = (children[:, 2] + children[:, 3] <= near) | (children[:, 2] - children[:, 3] >= far)
        sin2, t, w = _nodes(_quarters(children, strips))
        rules = np.einsum("pij,pij->p", w, _overlap_correction(s, scale * t, sin2)).reshape(-1, 4)
        box, u_only = np.concatenate([box[~split], children]), np.append(u_only[~split], strips)
        own, kids = np.append(own[~split], kids[split]), np.concatenate([kids[~split], rules])
        fine, coarse = (singles + scale * (scale * v.sum()) for v in (kids, own))
        converged = abs(fine - coarse) <= tol * fine
    raise QuadratureError(f"parallel affected area did not converge in {len(box)} panels",
                          fine, abs(fine - coarse))


def _row(p, c_p, c_s, free, area_par, p2p) -> Dict[str, float]:
    """gase_cognitive's CSV row from P, the branch capacities, the
    unconstrained primary integral, the parallel area and the silent branch."""
    c_p2p, eta_p2p = p2p["capacity_bps_hz"], p2p["gase_bps_hz_m2"]
    return {
        "p_parallel": p, "c_primary_bps_hz": c_p, "c_secondary_bps_hz": c_s,
        "c_p2p_bps_hz": c_p2p, "area_parallel_m2": area_par, "area_p2p_m2": p2p["area_m2"],
        "se_total_bps_hz": p * (c_p + c_s) + (1.0 - p) * c_p2p,
        # rounded as (p * (C_p + C_s)) / A, the order the golden CSV rows use
        "gase_bps_hz_m2": p * (c_p + c_s) / area_par + (1.0 - p) * eta_p2p,
        "gase_x_bps_hz_m2": (free / LN2 + c_s) / area_par, "gase_p2p_bps_hz_m2": eta_p2p}


def gase_cognitive_batch(scenarios: Sequence[CognitiveScenario]) -> List[Dict[str, float]]:
    """gase_cognitive of each scenario, bit for bit.  The parallel area, the
    unconstrained primary integral with the secondary capacity, and the
    silent branch, which do not read i_th, are computed again only where the
    inputs each reads differ from the predecessor's.  The primary capacities
    of the tight points are their means, taken after the closed forms of
    every point in one _tight_means."""
    parts, tight, area_key, free_key, p2p_key = [], [], None, None, None
    for s in scenarios:
        p = prob_parallel(s)
        key = (s.env, s.p1, s.p2, s.d_p, s.d_s, s.d_sp, s.d_ps)
        fresh = key != free_key
        if fresh:
            free_key, free = key, _interference_integral(s.rho_p, s.n1)
        c_p = _primary_capacity(s, p, free)
        if fresh:  # after the joint term, so that a point that fails raises what a lone one does
            c_s = secondary_capacity_parallel(s)
        key = (s.env, s.p1, s.p2, s.d0)
        if key != area_key:
            area_key, area_par = key, affected_area_parallel(s)
        key = (s.env, s.p1, s.d_p)
        if key != p2p_key:
            p2p_key, p2p = key, gase_p2p(P2pScenario(s.env, s.p1, s.d_p))
        if c_p is None:
            tight.append((len(parts), s))
        parts.append([p, c_p, c_s, free, area_par, p2p])
    if tight:
        means = _tight_means([s for _, s in tight], [parts[i][0] for i, _ in tight])
        for (i, _), c_p in zip(tight, means):
            parts[i][1] = c_p
    return [_row(*row) for row in parts]


def gase_cognitive(s: CognitiveScenario) -> Dict[str, float]:
    """Composite underlay GASE: P * parallel branch + (1 - P) * silent branch.

    The CSV row holds P, the branch capacities and areas, the total spectral
    efficiency P*(C_p + C_s) + (1-P)*C_p2p, and the composite, X-channel and
    silent-branch GASEs: gase_cognitive_batch of one scenario.
    """
    return gase_cognitive_batch([s])[0]


def gase_x_channel(s: CognitiveScenario) -> Dict[str, float]:
    """GASE of the unconstrained two-pair (X) channel, both always transmitting,
    as the CSV row."""
    c_p = x_channel_primary_capacity(s)
    c_s = secondary_capacity_parallel(s)
    area_par = affected_area_parallel(s)
    if area_par == 0.0:  # named, as link_p2p names a single footprint's underflow
        raise ZeroDivisionError("the parallel affected area underflows to 0 m^2 (" + _ratio_text(
            max(s.p1.watts, s.p2.watts), s.env.p_min_w) + f", a = {s.env.path_loss_exponent:g})")
    return {"c_primary_bps_hz": c_p, "c_secondary_bps_hz": c_s, "se_total_bps_hz": c_p + c_s,
            "area_parallel_m2": area_par, "gase_bps_hz_m2": (c_p + c_s) / area_par}
