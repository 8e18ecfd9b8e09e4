"""Underlay cognitive radio: SINR capacities, parallel area, composite GASE."""

import math

import numpy as np
import pytest

from gase.cognitive_underlay import (CognitiveScenario, affected_area_parallel,
                                     gase_cognitive, gase_x_channel,
                                     primary_capacity_parallel, prob_parallel,
                                     secondary_capacity_parallel, two_source_power_tail,
                                     x_channel_primary_capacity)
from gase.link_p2p import P2pScenario, ergodic_capacity_p2p, gase_p2p
from gase.mathkernel import QuadratureSpec, integrate_semi_infinite
from gase.mc_oracle import (McConfig, certified_disk_radius, mc_affected_area,
                            mc_ergodic_capacity, primary_sinr_sampler,
                            secondary_sinr_sampler, two_source_field)
from gase.propagation import PowerLevel, PropagationEnvironment, affected_area_single, dbm_to_watts

ENV = PropagationEnvironment.from_dbm(4.0, -100.0, -100.0)


def fig6_scenario(i_th_dbm=-80.0):
    return CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
                             100.0, 100.0, 150.0, 150.0, 100.0, dbm_to_watts(i_th_dbm))


def rho_p_scenario(rho_p: float) -> CognitiveScenario:
    """Equal powers; d_sp chosen so the primary interference ratio equals rho_p."""
    d_sp = 100.0 * rho_p ** 0.25
    return CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
                             100.0, 100.0, d_sp, 150.0, d_sp, dbm_to_watts(-80.0))


class TestScenarioInvariants:
    def test_triangle_bound_enforced(self):
        with pytest.raises(ValueError, match="triangle"):
            CognitiveScenario(ENV, PowerLevel(0.1), PowerLevel(0.1),
                              100.0, 100.0, 500.0, 150.0, 100.0, 1e-11)
        with pytest.raises(ValueError, match="triangle"):
            CognitiveScenario(ENV, PowerLevel(0.1), PowerLevel(0.1),
                              100.0, 100.0, 150.0, 350.0, 100.0, 1e-11)

    def test_positive_threshold(self):
        with pytest.raises(ValueError):
            CognitiveScenario(ENV, PowerLevel(0.1), PowerLevel(0.1),
                              100.0, 100.0, 150.0, 150.0, 100.0, 0.0)


class TestProbParallel:
    def test_reference_value(self):
        assert prob_parallel(fig6_scenario()) == pytest.approx(0.04936490814130157, rel=1e-12)

    def test_limits(self):
        assert prob_parallel(fig6_scenario(i_th_dbm=90.0)) == 1.0
        lo = fig6_scenario(i_th_dbm=-200.0)
        assert 0.0 < prob_parallel(lo) < 1e-10

    def test_monotone_in_threshold_and_power(self):
        probs = [prob_parallel(fig6_scenario(i)) for i in (-100.0, -80.0, -60.0)]
        assert probs[0] < probs[1] < probs[2]
        s_hot = CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(40.0),
                                  100.0, 100.0, 150.0, 150.0, 100.0, 1e-11)
        assert prob_parallel(s_hot) < prob_parallel(fig6_scenario())


class TestProbParallelRandomScenarios:
    def test_ten_random_scenarios_within_three_sigma(self):
        from gase.mc_oracle import McConfig, McSampler, exponential_from_uniform, mc_mode_probability
        rng = np.random.default_rng(65)
        for i in range(10):
            p2 = PowerLevel(float(10.0 ** rng.uniform(-3, 0)))
            d_sp = float(rng.uniform(80.0, 300.0))
            i_th = float(10.0 ** rng.uniform(-12, -9))
            s = CognitiveScenario(ENV, PowerLevel(0.1), p2, 100.0, 100.0,
                                  d_sp, d_sp, d_sp, i_th)
            interference = p2.watts / d_sp ** 4
            event = McSampler(
                1, lambda u, k=interference, t=i_th: k * exponential_from_uniform(u[:, 0]) < t)
            est = mc_mode_probability(event, McConfig(200_000, 66, i))
            band = max(3.0 * est.std_error, 1e-9)
            assert abs(prob_parallel(s) - est.mean) <= band


class TestPrimaryCapacity:
    def test_fig6_against_conditional_simulation(self):
        s = fig6_scenario()
        closed = primary_capacity_parallel(s)
        est = mc_ergodic_capacity(primary_sinr_sampler(s), McConfig(1_000_000, 61))
        assert abs(closed - est.mean) <= 3.0 * est.std_error

    def test_branch_continuity_at_rho_one(self):
        base = primary_capacity_parallel(rho_p_scenario(1.0))
        # inside the merge guard the equality branch is used; only the tiny
        # geometric coupling of c and rho remains
        assert primary_capacity_parallel(rho_p_scenario(1.0 + 1e-9)) == pytest.approx(
            base, rel=1e-8)
        # branch mismatch proper: a point just inside the guard (equality
        # branch) against one just outside (generic branch)
        for sign in (+1.0, -1.0):
            inside = primary_capacity_parallel(rho_p_scenario(1.0 + sign * 0.95e-6))
            outside = primary_capacity_parallel(rho_p_scenario(1.0 + sign * 1.05e-6))
            assert outside == pytest.approx(inside, rel=1e-6)

    def test_vanishing_threshold_removes_interference(self):
        s = fig6_scenario()
        tight = CognitiveScenario(ENV, s.p1, s.p2, s.d_p, s.d_s, s.d_sp, s.d_ps,
                                  s.d0, 1e-20)
        clean = ergodic_capacity_p2p(P2pScenario(ENV, s.p1, s.d_p))
        assert primary_capacity_parallel(tight) == pytest.approx(clean, rel=0.01)


class TestSecondaryCapacity:
    def test_fig6_against_simulation(self):
        s = fig6_scenario()
        closed = secondary_capacity_parallel(s)
        est = mc_ergodic_capacity(secondary_sinr_sampler(s), McConfig(1_000_000, 62))
        assert abs(closed - est.mean) <= 3.0 * est.std_error

    def test_far_interferer_degenerates_to_p2p(self):
        # the entire secondary pair sits 10^7 m away, so both cross links are
        # ~d0 and the triangle bounds stay satisfied
        far = 1e7
        s = CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
                              100.0, 100.0, far, far, far, 1e-11)
        clean = ergodic_capacity_p2p(P2pScenario(ENV, s.p2, s.d_s))
        assert secondary_capacity_parallel(s) == pytest.approx(clean, rel=0.01)

    def test_branch_continuity_at_rho_one(self):
        # rho_s = 1 at d_ps = d_s with equal powers
        mk = lambda rho: CognitiveScenario(
            ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
            100.0, 100.0, 150.0, 100.0 * rho ** 0.25, 150.0, 1e-11)
        base = secondary_capacity_parallel(mk(1.0))
        assert secondary_capacity_parallel(mk(1.0 + 1.05e-6)) == pytest.approx(base, rel=1e-6)


class TestXChannel:
    def test_symmetric_scenario_equal_capacities(self):
        s = fig6_scenario()
        assert x_channel_primary_capacity(s) == secondary_capacity_parallel(s)

    def test_cognitive_converges_to_x_channel(self):
        s = fig6_scenario()
        loose = CognitiveScenario(ENV, s.p1, s.p2, s.d_p, s.d_s, s.d_sp, s.d_ps, s.d0, 1e3)
        eta_cr = gase_cognitive(loose).gase
        eta_x = gase_x_channel(loose).gase
        assert eta_cr == pytest.approx(eta_x, rel=0.005)

    def test_close_interferers_hurt(self):
        s = CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
                              100.0, 100.0, 60.0, 60.0, 100.0, 1e-11)
        eta_x = gase_x_channel(s).gase
        eta_p2p = gase_p2p(P2pScenario(ENV, s.p1, s.d_p)).gase
        assert eta_x < eta_p2p


class TestTwoSourceTail:
    def test_erlang_branch_on_equal_means(self):
        lam = 2.5e-12
        m = ENV.p_min_w
        assert two_source_power_tail(lam, lam, m) == pytest.approx(
            (1 + m / lam) * math.exp(-m / lam), rel=1e-12)

    def test_single_source_limits(self):
        m = 1e-12
        assert two_source_power_tail(1e-11, 1e-25, m) == pytest.approx(
            math.exp(-m / 1e-11), rel=1e-9)
        assert two_source_power_tail(1e-25, 1e-11, m) == pytest.approx(
            math.exp(-m / 1e-11), rel=1e-9)

    def test_guard_continuity(self):
        lam = 3e-12
        m = 1e-12
        inside = two_source_power_tail(lam * (1 + 5e-10), lam, m)
        outside = two_source_power_tail(lam * (1 + 5e-9), lam, m)
        assert inside == pytest.approx(outside, rel=1e-6)


class TestAffectedAreaParallel:
    def test_coincident_equal_sources_match_erlang_quadrature(self):
        p = PowerLevel.from_dbm(20.0)
        tiny = 1e-9  # d0 = 0 is excluded by the scenario type; use 1 nm
        s = CognitiveScenario(ENV, p, p, 100.0, 100.0, 100.0, 100.0, tiny, 1e-11)
        area = affected_area_parallel(s)

        def erlang_tail(r):
            x = ENV.p_min_w * r ** 4 / p.watts
            return (1.0 + x) * np.exp(-x) * r

        ref = 2 * math.pi * integrate_semi_infinite(
            erlang_tail, QuadratureSpec(1e-10, 1e-14),
            scale=(p.watts / ENV.p_min_w) ** 0.25).value
        assert area == pytest.approx(ref, rel=1e-4)

    def test_feeble_secondary_collapses_to_single(self):
        s = CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel(0.1e-12),
                              100.0, 100.0, 150.0, 150.0, 100.0, 1e-11)
        assert affected_area_parallel(s) == pytest.approx(
            affected_area_single(ENV, s.p1), rel=0.005)

    def test_fig6_against_spatial_sampling(self):
        s = fig6_scenario()
        area = affected_area_parallel(s)
        radius, tail = certified_disk_radius(ENV, s.p1.watts + s.p2.watts, d0=s.d0)
        est = mc_affected_area(two_source_field(ENV, s.p1, s.p2, s.d0), radius,
                               McConfig(400_000, 63), tail, ENV.p_min_w)
        assert abs(area - est.mean) <= 3.0 * est.std_error

    def test_dominates_single_footprints(self):
        for p2_dbm in (0.0, 20.0, 35.0):
            s = CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(p2_dbm),
                                  100.0, 100.0, 150.0, 150.0, 100.0, 1e-11)
            floor = max(affected_area_single(ENV, s.p1), affected_area_single(ENV, s.p2))
            assert affected_area_parallel(s) >= floor * (1.0 - 1e-9)


class TestCompositeGase:
    def test_limits_bracket_the_composite(self):
        s = fig6_scenario()
        eta_p2p = gase_p2p(P2pScenario(ENV, s.p1, s.d_p)).gase
        tight = CognitiveScenario(ENV, s.p1, s.p2, s.d_p, s.d_s, s.d_sp, s.d_ps, s.d0, 1e-18)
        assert gase_cognitive(tight).gase == pytest.approx(eta_p2p, rel=0.005)
        loose = CognitiveScenario(ENV, s.p1, s.p2, s.d_p, s.d_s, s.d_sp, s.d_ps, s.d0, 1e3)
        assert gase_cognitive(loose).gase == pytest.approx(gase_x_channel(loose).gase, rel=0.005)

    def test_between_bounds_across_sweep(self):
        s = fig6_scenario()
        eta_p2p = gase_p2p(P2pScenario(ENV, s.p1, s.d_p)).gase
        eta_x = gase_x_channel(s).gase
        lo, hi = min(eta_x, eta_p2p), max(eta_x, eta_p2p)
        for i_dbm in range(-120, -39, 10):
            b = gase_cognitive(fig6_scenario(float(i_dbm)))
            assert lo - 1e-15 <= b.gase <= hi + 1e-15

    def test_breakdown_components(self):
        b = gase_cognitive(fig6_scenario())
        c = b.components
        mix = (c["p_parallel"] * c["gase_parallel"]
               + (1 - c["p_parallel"]) * c["gase_silent"])
        assert b.gase == pytest.approx(mix, rel=1e-14)
        assert b.capacity == pytest.approx(
            c["p_parallel"] * (c["c_primary_bps_hz"] + c["c_secondary_bps_hz"])
            + (1 - c["p_parallel"]) * c["c_p2p_bps_hz"], rel=1e-14)
