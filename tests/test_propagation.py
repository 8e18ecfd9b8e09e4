"""Unit conversions, mean SNR, and affected-area formulas."""

import math

import mpmath
import pytest

from gase.mc_oracle import McConfig, certified_disk_radius, mc_affected_area, single_source_field
from gase.propagation import (PowerLevel, PropagationEnvironment, affected_area_single,
                              dbm_to_watts, mean_snr, watts_to_dbm)


def env_dbm(a, noise_dbm=-100.0, p_min_dbm=-90.0):
    return PropagationEnvironment.from_dbm(a, noise_dbm, p_min_dbm)


class TestUnits:
    def test_definitions(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert dbm_to_watts(-100.0) == pytest.approx(1e-13, rel=1e-15)
        assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-15)

    def test_round_trip(self):
        for p in (-100.0, -42.5, 0.0, 17.3, 30.0, 60.0):
            assert watts_to_dbm(dbm_to_watts(p)) == pytest.approx(p, abs=1e-12)
        for w in (1e-13, 1e-3, 0.38, 25.0):
            assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            watts_to_dbm(-1.0)
        with pytest.raises(ValueError):
            PowerLevel(0.0)

    def test_power_level(self):
        p = PowerLevel.from_dbm(30.0)
        assert p.watts == pytest.approx(1.0, rel=1e-15)
        assert p.dbm == pytest.approx(30.0, abs=1e-12)


class TestEnvironment:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PropagationEnvironment(0.0, 1e-13, 1e-12)
        with pytest.raises(ValueError):
            PropagationEnvironment(4.0, -1e-13, 1e-12)
        with pytest.raises(ValueError):
            PropagationEnvironment(4.0, 1e-13, 0.0)


class TestMeanSnr:
    def test_direct_substitution(self):
        env = env_dbm(4.0)
        assert mean_snr(env, PowerLevel(1.0), 1000.0) == pytest.approx(10.0, rel=1e-12)
        # P = 0.1 W, d = 100 m, a = 4, N = 1e-13 W: 0.1 / (1e8 * 1e-13)
        assert mean_snr(env, PowerLevel(0.1), 100.0) == pytest.approx(1e4, rel=1e-12)

    def test_linearity_in_power(self):
        env = env_dbm(3.4)
        base = mean_snr(env, PowerLevel(0.2), 730.0)
        assert mean_snr(env, PowerLevel(0.4), 730.0) == pytest.approx(2 * base, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            mean_snr(env_dbm(4.0), PowerLevel(1.0), 0.0)


class TestAffectedAreaClosedForm:
    def test_a2_collapses_to_pi(self):
        env = PropagationEnvironment(2.0, 1e-13, 1e-12)
        assert affected_area_single(env, PowerLevel(1e-12)) == pytest.approx(math.pi, rel=1e-14)

    def test_reference_ratios(self):
        env = env_dbm(4.0)
        # (pi/2) Gamma(1/2) sqrt(ratio); also within a coarse sampling estimate
        a9 = affected_area_single(env, PowerLevel(1e9 * env.p_min_w))
        assert a9 == pytest.approx(88042.996144355259, rel=1e-12)
        assert a9 == pytest.approx(8.8040e4, rel=5e-4)
        a12 = affected_area_single(env, PowerLevel(1e12 * env.p_min_w))
        assert a12 == pytest.approx(2784163.9984158539, rel=1e-12)

    def test_power_scaling_law(self):
        for a in (2.5, 3.0, 4.0, 6.0):
            env = env_dbm(a)
            base = affected_area_single(env, PowerLevel(0.01))
            for c in (2.0, 10.0, 123.4):
                assert affected_area_single(env, PowerLevel(0.01 * c)) == pytest.approx(
                    c ** (2.0 / a) * base, rel=1e-12)

    def test_a2_bit_per_joule_proportionality(self):
        env = PropagationEnvironment(2.0, 1e-13, 1e-12)
        base = affected_area_single(env, PowerLevel(1e-3))
        assert affected_area_single(env, PowerLevel(7e-3)) == pytest.approx(7 * base, rel=1e-12)

    def test_independent_of_noise_and_distance(self):
        a1 = affected_area_single(env_dbm(4.0, noise_dbm=-100.0), PowerLevel(1.0))
        a2 = affected_area_single(env_dbm(4.0, noise_dbm=-70.0), PowerLevel(1.0))
        assert a1 == a2

    @pytest.mark.parametrize("watts,p_min_w", [(1e300, 1e-300), (1e-300, 1e300), (1e-200, 1e108)])
    def test_ratio_past_the_normal_floats_has_its_area(self, watts, p_min_w):
        # P/P_min is inf, 0 or subnormal; (P/P_min)^(2/a) and the area are normal
        env = PropagationEnvironment(4.0, 1e-13, p_min_w)
        with mpmath.workdps(40):
            ref = mpmath.pi / 2 * mpmath.sqrt(mpmath.pi * mpmath.mpf(watts) / mpmath.mpf(p_min_w))
        area = affected_area_single(env, PowerLevel(watts))
        assert area == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    def test_overflow_names_the_log_ratio(self):
        with pytest.raises(OverflowError, match=r"\(log10\(P/P_min\) = 600, a = 1\)$"):
            affected_area_single(PropagationEnvironment(1.0, 1e-13, 1e-300), PowerLevel(1e300))


class TestSpatialOracleAgreement:
    @pytest.mark.parametrize("a", [2.5, 3.0, 4.0, 6.0])
    def test_closed_form_within_three_sigma(self, a):
        env = env_dbm(a)
        p = PowerLevel.from_dbm(10.0)
        closed = affected_area_single(env, p)
        radius, tail = certified_disk_radius(env, p)
        est = mc_affected_area(single_source_field(env, p), radius,
                               McConfig(samples=200_000, seed=91, stream_id=int(a * 10)),
                               tail, env.p_min_w)
        assert abs(closed - est.mean) <= 3.0 * est.std_error
