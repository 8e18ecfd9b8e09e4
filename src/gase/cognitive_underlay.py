"""Underlay cognitive radio: two co-channel pairs under an interference cap.

The secondary transmitter stays silent unless its interference at the primary
receiver is below i_th, which happens with probability
P = 1 - exp(-i_th * d_sp^a / p2).  While both transmit, each receiver sees the
other's signal as exponentially-faded interference; the resulting SINR cdfs
give piecewise closed-form ergodic capacities in the geometry ratios

    rho_p = (p1/p2) * (d_sp/d_p)^a,   rho_s = (p2/p1) * (d_ps/d_s)^a,

with a removable 0/0 at rho = 1 handled by a dedicated branch.  The primary
capacity is conditioned on the interference constraint being met (the joint
closed form divided by P).  The parallel affected area integrates, over the
plane, the tail of the sum of the two received powers (hypoexponential, or
Erlang-2 where the two means coincide).  The composite metric mixes the
parallel branch with the silent-secondary point-to-point branch by P, and
recovers the X-channel (no constraint) and pure point-to-point links in the
i_th limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link_p2p import LN2, GaseBreakdown, P2pScenario, gase_p2p
from .mathkernel import QuadratureSpec, integrate, integrate_semi_infinite, scaled_e1
from .propagation import PowerLevel, PropagationEnvironment

__all__ = [
    "CognitiveScenario",
    "prob_parallel",
    "primary_capacity_parallel",
    "secondary_capacity_parallel",
    "x_channel_primary_capacity",
    "two_source_power_tail",
    "affected_area_parallel",
    "gase_cognitive",
    "gase_x_channel",
]

# both piecewise branches agree to ~1e-10 at this distance from rho = 1, while
# the generic branch's cancellation error stays below the 1e-6 continuity
# tolerance just outside it
_RHO_GUARD = 1e-6

_AREA_SPEC = QuadratureSpec(rel_tol=2e-5, abs_tol=0.0, max_subdivisions=4000)


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
    def constraint_exponent(self) -> float:
        """i_th * d_sp^a / p2; the parallel-transmission probability is 1 - exp(-this)."""
        return self.i_th_w * self.d_sp ** self.env.path_loss_exponent / self.p2.watts


def prob_parallel(s: CognitiveScenario) -> float:
    """Probability the secondary's interference stays under the threshold."""
    return -math.expm1(-s.constraint_exponent)


def _interference_capacity(rho: float, n: float, extra: float, weight: float) -> float:
    """(1/ln 2) * int (tail of the SINR cdf)/(1+g) dg for the shared cdf family.

    The tail is rho/(g+rho) * exp(-n g) * (1 - weight * exp(-extra g)); the
    rho = 1 branch is the analytic limit of the generic one.
    """
    def branch(srate: float) -> float:
        if abs(rho - 1.0) <= _RHO_GUARD:
            return 1.0 - srate * scaled_e1(srate)
        return rho / (1.0 - rho) * (scaled_e1(srate * rho) - scaled_e1(srate))

    total = branch(n)
    if weight != 0.0:
        total -= weight * branch(n + extra)
    return total / LN2


def primary_capacity_parallel(s: CognitiveScenario) -> float:
    """Primary ergodic capacity given parallel transmission is permitted.

    Conditioning on the interference constraint truncates the interfering
    fading gain, so the joint closed form is divided by the parallel
    probability.
    """
    a = s.env.path_loss_exponent
    n1 = s.d_p ** a * s.env.noise_w / s.p1.watts
    i1 = s.d_p ** a * s.i_th_w / s.p1.watts
    c = s.constraint_exponent
    joint = _interference_capacity(s.rho_p, n1, i1, math.exp(-c))
    return joint / prob_parallel(s)


def secondary_capacity_parallel(s: CognitiveScenario) -> float:
    """Secondary ergodic capacity under primary interference (no constraint)."""
    a = s.env.path_loss_exponent
    n2 = s.d_s ** a * s.env.noise_w / s.p2.watts
    return _interference_capacity(s.rho_s, n2, 0.0, 0.0)


def x_channel_primary_capacity(s: CognitiveScenario) -> float:
    """Primary capacity with the interference constraint removed (i_th -> inf)."""
    a = s.env.path_loss_exponent
    n1 = s.d_p ** a * s.env.noise_w / s.p1.watts
    return _interference_capacity(s.rho_p, n1, 0.0, 0.0)


def two_source_power_tail(lam_p, lam_s, p_min: float):
    """P{sum of two exponential received powers >= p_min}.

    lam_p, lam_s are the local mean received powers P_i / r_i^a.  Uses the
    hypoexponential tail, switching to the Erlang-2 branch where the means
    agree to 1e-9 to avoid catastrophic cancellation.
    """
    lam_p, lam_s = np.broadcast_arrays(np.asarray(lam_p, float), np.asarray(lam_s, float))
    out = np.empty(lam_p.shape)
    near = np.abs(lam_p / lam_s - 1.0) < 1e-9
    if near.any():
        lm = 0.5 * (lam_p[near] + lam_s[near])
        out[near] = (1.0 + p_min / lm) * np.exp(-p_min / lm)
    far = ~near
    if far.any():
        lp, ls = lam_p[far], lam_s[far]
        out[far] = (lp * np.exp(-p_min / lp) - ls * np.exp(-p_min / ls)) / (lp - ls)
    return out


def affected_area_parallel(s: CognitiveScenario) -> float:
    """Affected area while both transmitters are active, in m^2.

    Polar integral centred on the primary transmitter; the secondary sits at
    distance d0.  The angular integrand is symmetric about theta = pi, so only
    [0, pi] is integrated (doubled); the radial integral runs on a
    semi-infinite axis scaled by the larger single footprint.
    """
    a = s.env.path_loss_exponent
    p_min = s.env.p_min_w
    p1, p2 = s.p1.watts, s.p2.watts
    r_scale = s.d0 + (max(p1, p2) / p_min) ** (1.0 / a)

    def radial(theta: float) -> float:
        cos_t = math.cos(theta)

        def f(r):
            rs = np.sqrt(np.maximum(r * r + s.d0 * s.d0 - 2.0 * r * s.d0 * cos_t, 1e-24))
            lam_p = p1 / np.maximum(r, 1e-12) ** a
            lam_s = p2 / rs ** a
            return two_source_power_tail(lam_p, lam_s, p_min) * r

        return integrate_semi_infinite(f, _AREA_SPEC, scale=r_scale).value

    def angular(theta):
        return np.array([radial(t) for t in np.atleast_1d(theta)])

    return 2.0 * integrate(angular, 0.0, math.pi, _AREA_SPEC).value


def _p2p_branch(s: CognitiveScenario) -> GaseBreakdown:
    return gase_p2p(P2pScenario(s.env, s.p1, s.d_p))


def gase_cognitive(s: CognitiveScenario, area_parallel: float | None = None) -> GaseBreakdown:
    """Composite underlay GASE: P * parallel branch + (1 - P) * silent branch.

    The breakdown components expose both branch GASEs, the branch capacities,
    the X-channel GASE at the same point, and the total spectral efficiency
    P*(C_p + C_s) + (1-P)*C_p2p.  ``area_parallel`` may pass in a precomputed
    affected_area_parallel(s), which does not depend on i_th.
    """
    p = prob_parallel(s)
    c_p = primary_capacity_parallel(s)
    c_s = secondary_capacity_parallel(s)
    area_par = affected_area_parallel(s) if area_parallel is None else area_parallel
    p2p = _p2p_branch(s)
    eta_parallel = (c_p + c_s) / area_par
    eta_silent = p2p.gase
    # rounded as (p * (C_p + C_s)) / A, the order the golden CSV rows use
    gase = p * (c_p + c_s) / area_par + (1.0 - p) * eta_silent
    se_total = p * (c_p + c_s) + (1.0 - p) * p2p.capacity
    return GaseBreakdown(
        capacity=se_total, area=se_total / gase, gase=gase,
        components={
            "p_parallel": p,
            "c_primary_bps_hz": c_p,
            "c_secondary_bps_hz": c_s,
            "c_p2p_bps_hz": p2p.capacity,
            "area_parallel_m2": area_par,
            "area_p2p_m2": p2p.area,
            "gase_parallel": eta_parallel,
            "gase_silent": eta_silent,
            "gase_x_channel": (x_channel_primary_capacity(s) + c_s) / area_par,
        })


def gase_x_channel(s: CognitiveScenario) -> GaseBreakdown:
    """GASE of the unconstrained two-pair (X) channel: both always transmit."""
    c_p = x_channel_primary_capacity(s)
    c_s = secondary_capacity_parallel(s)
    area_par = affected_area_parallel(s)
    se_total = c_p + c_s
    gase = se_total / area_par
    return GaseBreakdown(
        capacity=se_total, area=area_par, gase=gase,
        components={
            "c_primary_bps_hz": c_p,
            "c_secondary_bps_hz": c_s,
            "area_parallel_m2": area_par,
        })
