"""Three-node cooperative mode selection, conditional capacities, composite GASE."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate
from scipy import special as sci_special

from gase import coop_threenode as coop
from gase.coop_threenode import (CoopScenario, af_selection_integral, density_normalizations,
                                 gase_coop, special_integral_D)
from gase.mathkernel import QuadratureSpec, integrate_semi_infinite, one_minus_xk1, scaled_e1
from gase.mc_oracle import McConfig, mc_coop_summary
from gase.propagation import PowerLevel, PropagationEnvironment
from gase.relay_dualhop import (DualHopScenario, RelayProtocol, ergodic_capacity_af,
                                ergodic_capacity_df)
from test_relay_dualhop import dyadic_quad, mp_bessel_k01

LN2 = math.log(2.0)
ENV = PropagationEnvironment.from_dbm(4.0, -100.0, -80.0)


def column(s, protocol, name):
    """One printed column of gase_coop(s, protocol)."""
    return gase_coop(s, protocol)[name]


def snr_scenario(gsd, gsr, grd, d_sd=1000.0, d_sr=500.0, d_rd=500.0):
    """Scenario with prescribed mean SNRs; source power fixes gsd and gsr jointly,
    so d_sr is adjusted to honour both."""
    p_s = gsd * d_sd ** 4 * ENV.noise_w
    d_sr_eff = (p_s / (gsr * ENV.noise_w)) ** 0.25
    p_r = grd * d_rd ** 4 * ENV.noise_w
    s = CoopScenario(ENV, PowerLevel(p_s), PowerLevel(p_r), d_sd, d_sr_eff, d_rd)
    assert s.mean_snr_sd == pytest.approx(gsd, rel=1e-10)
    assert s.mean_snr_sr == pytest.approx(gsr, rel=1e-10)
    assert s.mean_snr_rd == pytest.approx(grd, rel=1e-10)
    return s


def mp_df_direct_integral(s, f=lambda t: 1):
    """int_0^inf f(t) exp(-t/gbar_SD) F(t^2 + 2t) dt / gbar_SD of a DF coop
    scenario in 30-digit mpmath, F(g) = 1 - exp(-a1 g) the relay-path cdf:
    p_direct = R/gbar_SD at f = 1, and p_direct c_direct at f = log2(1 + t)."""
    with mpmath.workdps(30):
        gsd, gsr, grd = map(mpmath.mpf, (s.mean_snr_sd, s.mean_snr_sr, s.mean_snr_rd))
        a1 = 1 / gsr + 1 / grd
        return dyadic_quad(lambda t: f(t) * mpmath.exp(-t / gsd)
                           * -mpmath.expm1(-a1 * t * (t + 2)), gsd) / gsd


class TestSpecialIntegralD:
    def test_pure_gaussian(self):
        for a1 in (0.3, 1.0, 7.0):
            assert special_integral_D(a1, 0.0) == pytest.approx(
                0.5 * math.sqrt(math.pi / a1), rel=1e-13)

    def test_pure_exponential_limit(self):
        assert special_integral_D(1e-12, 2.0) == pytest.approx(0.5, rel=1e-5)

    def test_against_quadrature_oracle(self):
        for a1, a2 in ((1.0, 1.0), (0.2, 0.5), (3.0, 0.1), (0.05, 8.0), (10.0, 30.0)):
            ref = integrate_semi_infinite(
                lambda t: np.exp(-a1 * t * t - a2 * t),
                QuadratureSpec(1e-11, 1e-16), scale=1.0 / (a2 + math.sqrt(a1))).value
            assert special_integral_D(a1, a2) == pytest.approx(ref, rel=1e-8)
        assert special_integral_D(1.0, 1.0) == pytest.approx(0.54564136076504704, rel=1e-12)

    def test_extreme_arguments_no_overflow(self):
        # a2^2/(4 a1) far beyond exp range; value ~ 1/a2
        val = special_integral_D(1e-6, 1e6)
        assert val == pytest.approx(1e-6, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            special_integral_D(0.0, 1.0)
        with pytest.raises(ValueError):
            special_integral_D(1.0, -0.5)


def selection_coeffs(gsd, gsr, grd):
    """(a1, a2, b1) of the AF selection integral for the given mean SNRs."""
    a1 = 1.0 / gsr + 1.0 / grd
    return a1, 2.0 * a1 + 1.0 / gsd, 1.0 / math.sqrt(gsr * grd)


class TestSpecialIntegralA:
    """The Bessel-type A integral, evaluated by af_selection_integral."""

    SNRS = ((10.0, 10.0, 10.0), (2.0, 30.0, 0.5), (50.0, 3.0, 8.0))

    def test_bessel_bound(self):
        # z K1(z) <= 1 bounds it by the Gaussian-exponential integral
        for snrs in self.SNRS:
            a1, a2, _ = selection_coeffs(*snrs)
            assert af_selection_integral(snr_scenario(*snrs)) <= special_integral_D(a1, a2) + 1e-12

    def test_against_scipy_oracle(self):
        for snrs in self.SNRS:
            a1, a2, b1 = selection_coeffs(*snrs)
            ref, _ = sci_integrate.quad(
                lambda t: 2 * b1 * (t * t + 2 * t) * np.exp(-a1 * t * t - a2 * t)
                * sci_special.k1(2 * b1 * (t * t + 2 * t)), 0, np.inf, limit=300)
            assert af_selection_integral(snr_scenario(*snrs)) == pytest.approx(ref, rel=1e-7)

    def test_vanishes_for_large_decay(self):
        # a2 >= 1/gbar_SD = 1e4
        assert af_selection_integral(snr_scenario(1e-4, 10.0, 10.0)) < 1e-3


class TestProbDirect:
    def test_useless_relay_forces_direct(self):
        s = snr_scenario(10.0, 1e-6, 10.0)
        assert column(s, RelayProtocol.DF, "p_direct") == pytest.approx(1.0, abs=1e-3)
        assert column(s, RelayProtocol.AF, "p_direct") == pytest.approx(1.0, abs=1e-3)

    def test_df_against_simulation(self):
        s = snr_scenario(10.0, 10.0, 10.0)
        closed = column(s, RelayProtocol.DF, "p_direct")
        out = mc_coop_summary(10.0, 10.0, 10.0, "df", McConfig(1_000_000, 51))
        assert abs(closed - out["p_direct"].mean) <= 3.0 * out["p_direct"].std_error

    def test_af_against_simulation(self):
        s = snr_scenario(10.0, 10.0, 10.0)
        closed = column(s, RelayProtocol.AF, "p_direct")
        harmonic = mc_coop_summary(10.0, 10.0, 10.0, "af", McConfig(1_000_000, 52))
        assert abs(closed - harmonic["p_direct"].mean) <= 3.0 * harmonic["p_direct"].std_error

    def test_af_selection_integral_identity(self):
        # the selection weight is exactly gbar_SD * P{relay}
        s = snr_scenario(10.0, 10.0, 10.0)
        assert af_selection_integral(s) == pytest.approx(
            (1.0 - column(s, RelayProtocol.AF, "p_direct")) * s.mean_snr_sd, rel=1e-12)

    def test_probability_range_random_scenarios(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            gsd, gsr, grd = 10.0 ** rng.uniform(-2, 4, size=3)
            a1 = 1.0 / gsr + 1.0 / grd
            a2 = 2.0 * a1 + 1.0 / gsd
            p = 1.0 - special_integral_D(a1, a2) / gsd
            assert 0.0 <= p <= 1.0
        for _ in range(25):
            gsd, gsr, grd = 10.0 ** rng.uniform(-1, 3, size=3)
            s = snr_scenario(float(gsd), float(gsr), float(grd))
            assert 0.0 <= column(s, RelayProtocol.AF, "p_direct") <= 1.0

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(-200.0, 100.0), st.floats(-200.0, 100.0),
           st.floats(-200.0, 100.0), st.tuples(*[st.floats(-3.0, 6.0)] * 3))
    def test_df_mode_split_over_drawn_scenarios(self, a, noise_dbm, p_s_dbm, p_r_dbm, log_d):
        # where the relay path almost always wins, p_direct lies below the
        # rounding of 1 - S/gbar_SD and must come from R's own integral; p_min
        # midway between the powers keeps both footprints inside the float
        # range at every a >= 0.1, and it enters no mode probability
        env = PropagationEnvironment.from_dbm(a, noise_dbm, 0.5 * (p_s_dbm + p_r_dbm))
        s = CoopScenario(env, PowerLevel.from_dbm(p_s_dbm), PowerLevel.from_dbm(p_r_dbm),
                         *(10.0 ** e for e in log_d))
        row = gase_coop(s, RelayProtocol.DF)
        assert 0.0 <= row["p_direct"] <= 1.0
        assert row["p_direct"] + row["p_relay"] == 1.0
        assert row["c_direct_bps_hz"] >= 0.0
        if row["p_direct"] < 1e-6:
            reference = float(mp_df_direct_integral(s))
            assert row["p_direct"] == pytest.approx(reference, rel=1e-12, abs=0.0)


class TestConditionalDensities:
    @pytest.mark.parametrize("protocol", [RelayProtocol.DF, RelayProtocol.AF])
    @pytest.mark.parametrize("snrs", [(10.0, 10.0, 10.0), (3.0, 25.0, 8.0), (1.0, 16.0, 1.6),
                                      (1e-30, 1.6e-29, 1.6e-30)])
    def test_normalise_to_one(self, protocol, snrs):
        direct, relay = density_normalizations(snr_scenario(*snrs), protocol)
        assert direct == pytest.approx(1.0, abs=1e-12)
        assert relay == pytest.approx(1.0, abs=1e-12)


class TestConditionalCapacities:
    def test_df_direct_matches_analytic_reduction(self):
        # gbar_SD F(1/gbar_SD) - int ln(1+t) exp(-a1 t^2 - a2 t) dt, over
        # ln2 (gbar_SD - D(a1, a2))
        s = snr_scenario(10.0, 10.0, 10.0)
        gsd = 10.0
        a1, a2 = 0.2, 0.5
        t3 = integrate_semi_infinite(lambda t: np.log(1.0 + t) * np.exp(-a1 * t * t - a2 * t),
                                     QuadratureSpec(1e-11, 1e-16), scale=1.0 / a2).value
        closed = (gsd * scaled_e1(1.0 / gsd) - t3) / (LN2 * (gsd - special_integral_D(a1, a2)))
        assert column(s, RelayProtocol.DF, "c_direct_bps_hz") == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("protocol,equivalent", [(RelayProtocol.DF, "df"),
                                                     (RelayProtocol.AF, "af")])
    def test_total_expectation_against_simulation(self, protocol, equivalent):
        s = snr_scenario(10.0, 10.0, 10.0)
        c = gase_coop(s, protocol)
        p_d, c_d, c_r = c["p_direct"], c["c_direct_bps_hz"], c["c_relay_bps_hz"]
        out = mc_coop_summary(10.0, 10.0, 10.0, equivalent, McConfig(1_000_000, 54))
        total = p_d * c_d + (1.0 - p_d) * c_r
        assert abs(total - out["c_inst"].mean) <= 3.0 * out["c_inst"].std_error
        assert abs(c_d - out["c_direct"].mean) <= 3.0 * out["c_direct"].std_error
        assert abs(c_r - out["c_relay"].mean) <= 3.0 * out["c_relay"].std_error

    @pytest.mark.parametrize("protocol", [RelayProtocol.DF, RelayProtocol.AF])
    def test_relay_capacity_degenerates_to_dualhop(self, protocol):
        # with the direct link dead, relay mode is always selected and the
        # conditional capacity reduces to the dual-hop ergodic capacity
        s = snr_scenario(1e-6, 10.0, 10.0)
        c_r = column(s, protocol, "c_relay_bps_hz")
        dh = DualHopScenario(ENV, PowerLevel(10.0 * 500.0 ** 4 * ENV.noise_w),
                             PowerLevel(10.0 * 500.0 ** 4 * ENV.noise_w), 500.0, 500.0)
        ref = (ergodic_capacity_df(dh) if protocol is RelayProtocol.DF
               else ergodic_capacity_af(dh))
        assert c_r == pytest.approx(ref, rel=0.01)

    def test_direct_capacity_strong_direct_link(self):
        # with gbar_SD huge, direct mode is near-certain and conditioning
        # changes nothing: E[C|direct] -> E[log2(1 + G_SD)]
        s = snr_scenario(1e6, 10.0, 10.0)
        c_d = column(s, RelayProtocol.DF, "c_direct_bps_hz")
        unconditional = scaled_e1(1e-6) / LN2
        assert c_d == pytest.approx(unconditional, rel=0.01)

    @pytest.mark.parametrize("protocol", [RelayProtocol.DF, RelayProtocol.AF])
    @pytest.mark.parametrize("snrs", [(1.0, 16.0, 1.6), (630.0, 1e4, 1.6),
                                      (1e-30, 1.6e-29, 1.6e-30)])
    def test_integrals_against_mpmath(self, protocol, snrs):
        # p_direct = R/gbar_SD, c_direct = direct/R and c_relay =
        # gbar_SD relay/S, S and R each integrated on its own;
        # 1 - z K1(z) comes from the kernel, as K0 and K1 do
        s = snr_scenario(*snrs)
        row = gase_coop(s, protocol)
        with mpmath.workdps(20):
            gsd, gsr, grd = map(mpmath.mpf, (s.mean_snr_sd, s.mean_snr_sr, s.mean_snr_rd))
            a1, b1 = 1 / gsr + 1 / grd, 1 / mpmath.sqrt(gsr * grd)
            a2 = 2 * a1 + 1 / gsd
            af = protocol is RelayProtocol.AF

            def ccdf(g):  # 1 - F_eq(g)
                z = 2 * b1 * g
                return (z * mp_bessel_k01(z)[1] if af else 1) * mpmath.exp(-a1 * g)

            def cdf(g):
                one_minus_zk1 = mpmath.mpf(one_minus_xk1(float(2 * b1 * g))) if af else 0
                return -mpmath.expm1(-a1 * g) + mpmath.exp(-a1 * g) * one_minus_zk1

            def pdf(g):
                if not af:
                    return a1 * mpmath.exp(-a1 * g)
                z = 2 * b1 * g
                k0, k1 = mp_bessel_k01(z)
                return z * mpmath.exp(-a1 * g) * (a1 * k1 + 2 * b1 * k0)

            tail = 1 / (a1 + 2 * b1) if af else 1 / a1
            sel = dyadic_quad(lambda t: mpmath.exp(-t / gsd) * ccdf(t * (t + 2)),
                              min(1 / a2, 1 / mpmath.sqrt(a1)))
            rest = dyadic_quad(lambda t: mpmath.exp(-t / gsd) * cdf(t * (t + 2)), gsd)
            direct = dyadic_quad(lambda t: mpmath.log1p(t) * mpmath.exp(-t / gsd)
                                 * cdf(t * (t + 2)), gsd) / mpmath.log(2)
            relay = dyadic_quad(lambda g: mpmath.log1p(g) * pdf(g)
                                * -mpmath.expm1(-g / (mpmath.sqrt(g + 1) + 1) / gsd),
                                tail) / (2 * mpmath.log(2))
            refs = [rest / gsd, direct / rest, gsd * relay / sel]
        columns = ["p_direct", "c_direct_bps_hz", "c_relay_bps_hz"]
        assert [row[c] for c in columns] == pytest.approx([float(r) for r in refs], rel=1e-12)

    def test_af_relay_weight_below_the_absolute_floor(self, monkeypatch):
        # S = gbar_SD P{relay} is about 4.6e-22 here: an absolute quadrature
        # floor of 1e-16 ended its integral 1.1e-5 short, and c_relay and the
        # relay density's normalisation carried that error
        env = PropagationEnvironment.from_dbm(5.004318661231725, -11.136252953917364,
                                              -2.2275133267462965e-14)
        s = CoopScenario(env, PowerLevel.from_dbm(8.652319531856939e-69),
                         PowerLevel.from_dbm(-125.91934497731978),
                         2.616989453780738, 26713.05069247967, 2.616989453780738)
        sel = af_selection_integral(s)
        c_relay = column(s, RelayProtocol.AF, "c_relay_bps_hz")
        _, relay = density_normalizations(s, RelayProtocol.AF)
        assert relay == pytest.approx(1.0, abs=1e-6)
        monkeypatch.setattr(coop, "_CAP_SPEC", QuadratureSpec(rel_tol=1e-12, abs_tol=0.0))
        assert sel == pytest.approx(af_selection_integral(s), rel=1e-8, abs=0.0)
        assert c_relay == pytest.approx(column(s, RelayProtocol.AF, "c_relay_bps_hz"),
                                        rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("protocol,capacity,c_direct,c_relay", [
        (RelayProtocol.DF, 2.7418009221837384e-31, 5.950128673165683e-32,
         2.990449445064834e-31),
        (RelayProtocol.AF, 1.8447642442724573e-31, 6.130348338550035e-32,
         2.0175925387613615e-31)], ids=["df", "af"])
    def test_capacities_at_low_snr(self, protocol, capacity, c_direct, c_relay):
        # mean SNRs near 1e-31: log2(1 + g) and sqrt(1 + g) - 1 both read 0
        # there, which made every capacity exactly 0.  References: the same
        # integrals at rel_tol 1e-12 and abs_tol 0
        env = PropagationEnvironment.from_dbm(5.11, 73.7, -90.0)
        p = PowerLevel.from_dbm(50.0)
        r = gase_coop(CoopScenario(env, p, p, 5.4e5, 2.7e5, 2.7e5), protocol)
        assert r["capacity_bps_hz"] == pytest.approx(capacity, rel=1e-8, abs=0.0)
        assert r["c_direct_bps_hz"] == pytest.approx(c_direct, rel=1e-8, abs=0.0)
        assert r["c_relay_bps_hz"] == pytest.approx(c_relay, rel=1e-8, abs=0.0)
        assert r["gase_bps_hz_m2"] > 0

    def test_relay_capacity_grows_with_uniform_snr_scaling(self):
        base = column(snr_scenario(5.0, 10.0, 10.0), RelayProtocol.DF, "c_relay_bps_hz")
        boosted = column(snr_scenario(10.0, 20.0, 20.0), RelayProtocol.DF, "c_relay_bps_hz")
        assert boosted > base


class TestModeSelectionDominance:
    def test_instantaneous_capacity_dominates_branches(self):
        rng = np.random.default_rng(77)
        z = rng.exponential(1.0, size=(10_000, 3))
        gsd, gsr, grd = 10.0, 10.0, 10.0
        g_sd = gsd * z[:, 0]
        g_eq = np.minimum(gsr * z[:, 1], grd * z[:, 2])
        c_inst = 0.5 * np.log2(1.0 + np.maximum(g_sd ** 2 + 2 * g_sd, g_eq))
        c_direct = np.log2(1.0 + g_sd)
        c_relay = 0.5 * np.log2(1.0 + g_eq)
        assert np.all(c_inst >= c_direct - 1e-12)
        assert np.all(c_inst >= c_relay - 1e-12)


class TestGaseCoop:
    @pytest.mark.parametrize("protocol", [RelayProtocol.DF, RelayProtocol.AF])
    def test_result_invariants(self, protocol):
        s = snr_scenario(8.0, 30.0, 12.0)
        c = gase_coop(s, protocol)
        assert c["p_direct"] + c["p_relay"] == 1.0
        assert c["c_direct_bps_hz"] >= 0 and c["c_relay_bps_hz"] >= 0
        assert c["gase_bps_hz_m2"] > 0
        expected = (c["p_direct"] * c["c_direct_bps_hz"] / c["area_s_m2"]
                    + c["p_relay"] * 0.5 * (c["c_relay_bps_hz"] / c["area_s_m2"]
                                            + c["c_relay_bps_hz"] / c["area_r_m2"]))
        assert c["gase_bps_hz_m2"] == pytest.approx(expected, rel=1e-14)
