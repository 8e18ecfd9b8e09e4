"""Dual-hop DF/AF densities, capacities, GASE assembly, and power optimisation."""

import math

import numpy as np
import pytest

from gase.link_p2p import P2pScenario, ergodic_capacity_p2p
from gase.mathkernel import QuadratureSpec, integrate_semi_infinite, scaled_e1
from gase.mc_oracle import (McConfig, McSampler, af_snr_sampler, df_snr_sampler,
                            exponential_from_uniform, mc_ergodic_capacity,
                            mc_mode_probability)
from gase.propagation import PowerLevel, PropagationEnvironment
from gase.relay_dualhop import (DualHopScenario, RelayProtocol, af_snr_cdf, af_snr_pdf,
                                df_snr_pdf, ergodic_capacity,
                                ergodic_capacity_af, ergodic_capacity_df, gase_dualhop,
                                optimize_relay_powers)

LN2 = math.log(2.0)
ENV = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)

# P = gbar * d^a * N gives the hop the requested mean SNR at 500 m
_HOP_SCALE = 500.0 ** 4 * ENV.noise_w


def hop_scenario(gsr, grd):
    return DualHopScenario(ENV, PowerLevel(gsr * _HOP_SCALE), PowerLevel(grd * _HOP_SCALE),
                           500.0, 500.0)


def hop_rates(s):
    """(a1, b1) of the equivalent-SNR densities of a dual-hop scenario."""
    gsr, grd = s.mean_snr_sr, s.mean_snr_rd
    return 1.0 / gsr + 1.0 / grd, 1.0 / math.sqrt(gsr * grd)


class TestDfDensity:
    def test_symmetric_rate(self):
        s = hop_scenario(10.0, 10.0)
        pdf = df_snr_pdf(hop_rates(s)[0])
        for g in (0.1, 1.0, 5.0):
            assert pdf(g) == pytest.approx(0.2 * math.exp(-0.2 * g), rel=1e-12)

    def test_normalisation(self):
        pdf = df_snr_pdf(hop_rates(hop_scenario(4.0, 9.0))[0])
        total = integrate_semi_infinite(pdf, QuadratureSpec(1e-12, 1e-15), scale=1.0).value
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_ccdf_against_min_simulation(self):
        s = hop_scenario(10.0, 10.0)
        a1 = 1.0 / s.mean_snr_sr + 1.0 / s.mean_snr_rd
        for i, t in enumerate((1.0, 5.0, 10.0)):
            def survives(u, thr=t):
                z = exponential_from_uniform(u)
                return np.minimum(10.0 * z[:, 0], 10.0 * z[:, 1]) > thr
            est = mc_mode_probability(McSampler(2, survives), McConfig(1_000_000, 41, i))
            assert abs(math.exp(-a1 * t) - est.mean) <= 3.0 * est.std_error


class TestDfCapacity:
    def test_reference_value(self):
        assert ergodic_capacity_df(hop_scenario(10.0, 10.0)) == pytest.approx(
            1.0772234157584448, rel=1e-12)

    def test_against_monte_carlo(self):
        s = hop_scenario(10.0, 10.0)
        est = mc_ergodic_capacity(df_snr_sampler(10.0, 10.0), McConfig(1_000_000, 42)).scaled(0.5)
        assert abs(ergodic_capacity_df(s) - est.mean) <= 3.0 * est.std_error

    def test_vanishing_snr(self):
        assert ergodic_capacity_df(hop_scenario(1e-8, 1e-8)) < 1e-7

    def test_half_of_p2p_identity(self):
        s = hop_scenario(7.0, 3.0)
        a1 = 1.0 / 7.0 + 1.0 / 3.0
        p2p = P2pScenario(ENV, PowerLevel((1.0 / a1) * 1000.0 ** 4 * ENV.noise_w), 1000.0)
        assert ergodic_capacity_df(s) == pytest.approx(0.5 * ergodic_capacity_p2p(p2p), rel=1e-12)


class TestAfDensity:
    def test_normalisation(self):
        s = hop_scenario(10.0, 10.0)
        pdf = af_snr_pdf(*hop_rates(s))
        total = integrate_semi_infinite(pdf, QuadratureSpec(1e-9, 1e-14), scale=2.5).value
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_small_argument_finite(self):
        # z K1(z) -> 1 keeps the density finite as gamma -> 0+
        s = hop_scenario(10.0, 10.0)
        pdf = af_snr_pdf(*hop_rates(s))
        a1 = 1.0 / s.mean_snr_sr + 1.0 / s.mean_snr_rd
        assert pdf(1e-10) == pytest.approx(a1, rel=1e-6)

    def test_cdf_at_simulated_median(self):
        s = hop_scenario(10.0, 10.0)
        a1 = 0.2
        b1 = 0.1
        u = np.random.default_rng(7).random((1_000_000, 2))
        z = exponential_from_uniform(u)
        harm = 10 * z[:, 0] * 10 * z[:, 1] / (10 * z[:, 0] + 10 * z[:, 1])
        median = float(np.median(harm))
        assert af_snr_cdf(a1, b1)(median) == pytest.approx(0.5, abs=0.01)


class TestAfCapacity:
    def test_against_harmonic_simulation(self):
        s = hop_scenario(10.0, 10.0)
        est = mc_ergodic_capacity(af_snr_sampler(10.0, 10.0, exact=False),
                                  McConfig(1_000_000, 43)).scaled(0.5)
        assert abs(ergodic_capacity_af(s) - est.mean) <= 3.0 * est.std_error

    def test_against_exact_simulation(self):
        # the density drops the +1 in the AF SNR denominator; at hop SNR 10 the
        # measured gap is ~3.5%, shrinking quickly with SNR
        s = hop_scenario(10.0, 10.0)
        est = mc_ergodic_capacity(af_snr_sampler(10.0, 10.0, exact=True),
                                  McConfig(1_000_000, 44)).scaled(0.5)
        gap = abs(ergodic_capacity_af(s) - est.mean) / est.mean
        assert gap < 0.04
        s_hi = hop_scenario(50.0, 50.0)
        est_hi = mc_ergodic_capacity(af_snr_sampler(50.0, 50.0, exact=True),
                                     McConfig(1_000_000, 45)).scaled(0.5)
        assert abs(ergodic_capacity_af(s_hi) - est_hi.mean) / est_hi.mean < 0.01

    def test_af_below_df_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gsr, grd = rng.uniform(0.5, 200.0, size=2)
            s = hop_scenario(float(gsr), float(grd))
            assert ergodic_capacity_af(s) <= ergodic_capacity_df(s) + 1e-12

    def test_far_relay_degenerates_to_single_hop(self):
        s = hop_scenario(10.0, 1e6)
        p2p = P2pScenario(ENV, PowerLevel(10.0 * 500.0 ** 4 * ENV.noise_w), 500.0)
        assert ergodic_capacity_af(s) == pytest.approx(
            0.5 * ergodic_capacity_p2p(p2p), rel=0.01)


class TestGaseAssembly:
    def test_equal_powers_collapse(self):
        s = hop_scenario(10.0, 10.0)
        b = gase_dualhop(s, RelayProtocol.DF)
        assert b.gase == pytest.approx(b.capacity / b.components["area_sr_m2"], rel=1e-12)

    def test_df_closed_form_identity(self):
        # direct closed form: a/(8 pi ln2 Gamma(2/a)) e^{a1}E1(a1) (r_s + r_r),
        # r_i = (P_i/p_min)^(-2/a); must equal the generic assembly to 1e-12
        s = DualHopScenario(ENV, PowerLevel(0.05), PowerLevel(0.2), 500.0, 400.0)
        a = ENV.path_loss_exponent
        a1 = 1.0 / s.mean_snr_sr + 1.0 / s.mean_snr_rd
        closed = (a / (8.0 * math.pi * LN2 * math.gamma(2.0 / a)) * scaled_e1(a1)
                  * ((s.p_s.watts / ENV.p_min_w) ** (-2.0 / a)
                     + (s.p_r.watts / ENV.p_min_w) ** (-2.0 / a)))
        generic = gase_dualhop(s, RelayProtocol.DF).gase
        assert generic == pytest.approx(closed, rel=1e-12)

    def test_monotone_degradation_with_distance(self):
        for protocol in (RelayProtocol.DF, RelayProtocol.AF):
            caps = []
            for d_sr in np.linspace(300.0, 1200.0, 10):
                s = DualHopScenario(ENV, PowerLevel(0.1), PowerLevel(0.1), float(d_sr), 500.0)
                caps.append(ergodic_capacity(s, protocol))
            assert all(x >= y - 1e-12 for x, y in zip(caps, caps[1:]))

    def test_half_duplex_large_power_behaviour(self):
        small = gase_dualhop(hop_scenario(10.0, 10.0), RelayProtocol.DF)
        big = gase_dualhop(hop_scenario(1e6, 1e6), RelayProtocol.DF)
        assert big.capacity > small.capacity
        assert big.gase < small.gase


class TestPowerOptimisation:
    def test_symmetric_geometry_symmetric_optimum(self):
        p_s, p_r, eta = optimize_relay_powers(ENV, 500.0, 500.0, PowerLevel(10.0),
                                              RelayProtocol.DF)
        assert p_s.watts == pytest.approx(p_r.watts, rel=0.01)
        assert p_s.watts == pytest.approx(0.048272, rel=0.01)
        assert eta == pytest.approx(1.553777e-06, rel=1e-4)

    def test_matches_grid_oracle(self):
        d_sr, d_rd = 600.0, 350.0
        p_max = PowerLevel(10.0)
        p_s, p_r, eta = optimize_relay_powers(ENV, d_sr, d_rd, p_max, RelayProtocol.DF)
        # exhaustive 200x200 log-grid oracle, vectorised over the DF closed form
        grid = np.geomspace(p_max.watts * 1e-6, p_max.watts, 200)
        gsr = grid / (d_sr ** 4 * ENV.noise_w)
        grd = grid / (d_rd ** 4 * ENV.noise_w)
        alpha1 = 1.0 / gsr[:, None] + 1.0 / grd[None, :]
        capacity = scaled_e1(alpha1) / (2.0 * LN2)
        inv_area = ((2.0 * math.pi / 4.0) * math.gamma(0.5)
                    * (grid / ENV.p_min_w) ** 0.5) ** -1.0
        eta_grid = 0.5 * capacity * (inv_area[:, None] + inv_area[None, :])
        i, j = np.unravel_index(int(np.argmax(eta_grid)), eta_grid.shape)
        step = grid[1] / grid[0]
        assert grid[i] / step <= p_s.watts <= grid[i] * step
        assert grid[j] / step <= p_r.watts <= grid[j] * step
        assert eta >= eta_grid[i, j] * (1.0 - 1e-6)

    def test_dominates_random_feasible_points(self):
        p_max = PowerLevel(5.0)
        _, _, eta = optimize_relay_powers(ENV, 450.0, 700.0, p_max, RelayProtocol.DF)
        rng = np.random.default_rng(11)
        for _ in range(100):
            ps, pr = p_max.watts * 10.0 ** rng.uniform(-6, 0, size=2)
            s = DualHopScenario(ENV, PowerLevel(float(ps)), PowerLevel(float(pr)), 450.0, 700.0)
            assert eta >= gase_dualhop(s, RelayProtocol.DF).gase - 1e-18

    def test_tiny_box_pushes_to_boundary(self):
        p_max = PowerLevel(1e-6)
        p_s, p_r, _ = optimize_relay_powers(ENV, 500.0, 500.0, p_max, RelayProtocol.DF)
        assert p_s.watts == pytest.approx(p_max.watts, rel=1e-3)
        assert p_r.watts == pytest.approx(p_max.watts, rel=1e-3)

    def test_af_smoke(self):
        # AF objective evaluates a quadrature per point; keep the box tight
        p_s, p_r, eta = optimize_relay_powers(ENV, 500.0, 500.0, PowerLevel(10.0),
                                              RelayProtocol.AF, span_decades=4.0, tol=3e-3)
        assert eta > 0
        assert p_s.watts == pytest.approx(p_r.watts, rel=0.05)
