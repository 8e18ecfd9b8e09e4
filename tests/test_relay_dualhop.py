"""Dual-hop DF/AF densities, capacities, GASE assembly, and power optimisation."""

import math

import mpmath
import numpy as np
import pytest

from gase import mathkernel
from gase import relay_dualhop as relay
from gase.link_p2p import P2pScenario, ergodic_capacity_p2p
from gase.mathkernel import QuadratureSpec, bessel_k01, integrate_semi_infinite, scaled_e1
from gase.mc_oracle import (McConfig, McSampler, af_snr_sampler, df_snr_sampler,
                            exponential_from_uniform, mc_ergodic_capacity,
                            mc_mode_probability)
from gase.propagation import (PowerLevel, PropagationEnvironment, affected_area_single,
                              watts_of)
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


def dyadic_quad(f, scale):
    """mpmath.quad of f over [0, inf) with knots at scale * 2^k, k = -20..11.
    mpmath's tolerance is absolute, so f is integrated in units of
    scale * f(scale), which keeps it relative however small the integral."""
    unit = scale * f(scale)
    knots = [mpmath.mpf(2) ** k for k in range(-20, 12)]
    return unit * mpmath.quad(lambda u: f(scale * u) * scale / unit, [0, *knots, mpmath.inf])


def mp_bessel_k01(z):
    """K0(z) and K1(z) at an mpmath z, from the kernel: TestMpmathOracle pins
    it to mpmath, whose own besselk takes milliseconds a call."""
    return tuple(map(mpmath.mpf, bessel_k01(float(z))))


def descent_oracle(env, d_sr, d_rd, p_max, tol):
    """The coordinate-descent optimiser the stationarity solve replaced, kept
    as the DF reference: 8 starts on a 3x3 log-power grid (centre excluded),
    golden-section line searches in ln P_S and ln P_R on the 10-decade box,
    GASE from its DF closed form up to a constant factor (A grows as
    P^(2/a)).  Returns (ln P_S, ln P_R)."""
    a = env.path_loss_exponent
    hi = math.log(watts_of(p_max))
    lo = hi - 10.0 * math.log(10.0)
    c_s, c_r = d_sr ** a * env.noise_w, d_rd ** a * env.noise_w

    def eta(ls, lr):
        return (scaled_e1(c_s * math.exp(-ls) + c_r * math.exp(-lr))
                * (math.exp(-2.0 * ls / a) + math.exp(-2.0 * lr / a)))

    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def line_max(f):
        x0, x1 = lo, hi
        c, d = x1 - golden * (x1 - x0), x0 + golden * (x1 - x0)
        fc, fd = f(c), f(d)
        while x1 - x0 > tol:
            if fc >= fd:
                x1, d, fd = d, c, fc
                c = x1 - golden * (x1 - x0)
                fc = f(c)
            else:
                x0, c, fc = c, d, fd
                d = x0 + golden * (x1 - x0)
                fd = f(d)
        x = 0.5 * (x0 + x1)
        return x, f(x)

    best = (-math.inf, hi, hi)
    for f1 in (0.2, 0.5, 0.8):
        for f2 in (0.2, 0.5, 0.8):
            if (f1, f2) == (0.5, 0.5):
                continue
            ls, lr = lo + f1 * (hi - lo), lo + f2 * (hi - lo)
            val = eta(ls, lr)
            for _ in range(60):
                ls_new, val = line_max(lambda v: eta(v, lr))
                lr_new, val = line_max(lambda v: eta(ls_new, v))
                moved = max(abs(ls_new - ls), abs(lr_new - lr))
                ls, lr = ls_new, lr_new
                if moved < 2.0 * tol:
                    break
            if val > best[0]:
                best = (val, ls, lr)
    return best[1], best[2]


def df_grid_optimum(env, d_sr, d_rd, p_max, n=201):
    """Maximum of the DF GASE closed form over an exhaustive n x n grid in
    (ln P_S, ln P_R) on the 10-decade box, corners included: returns its
    (ln P_S, ln P_R), its GASE and the grid step."""
    a = env.path_loss_exponent
    hi = math.log(watts_of(p_max))
    grid = np.linspace(hi - 10.0 * math.log(10.0), hi, n)
    alpha1 = (d_sr ** a * env.noise_w * np.exp(-grid)[:, None]
              + d_rd ** a * env.noise_w * np.exp(-grid)[None, :])
    inv_area = np.exp(grid - math.log(env.p_min_w)) ** (-2.0 / a)
    eta = (a / (8.0 * math.pi * LN2 * math.gamma(2.0 / a)) * scaled_e1(alpha1)
           * (inv_area[:, None] + inv_area[None, :]))
    i, j = np.unravel_index(int(np.argmax(eta)), eta.shape)
    return (grid[i], grid[j]), eta[i, j], grid[1] - grid[0]


_TIGHT = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0)


def af_log_gase(env, d_sr, d_rd, ls, lr):
    """ln of 4 ln(2) times the AF GASE, from a tight capacity quadrature of
    log1p(g) against the harmonic-mean density, at ln P_S = ls, ln P_R = lr."""
    a = env.path_loss_exponent
    x_s = d_sr ** a * env.noise_w / math.exp(ls)
    x_r = d_rd ** a * env.noise_w / math.exp(lr)
    a1, b1 = x_s + x_r, math.sqrt(x_s * x_r)
    capacity = integrate_semi_infinite(lambda g: np.log1p(g) * af_snr_pdf(g, a1, b1), _TIGHT,
                                       scale=1.0 / (a1 + 2.0 * b1)).value
    inv_area = (1.0 / affected_area_single(env, PowerLevel(math.exp(ls)))
                + 1.0 / affected_area_single(env, PowerLevel(math.exp(lr))))
    return math.log(capacity * inv_area)


def hop_rates(s):
    """(a1, b1) of the equivalent-SNR densities of a dual-hop scenario."""
    gsr, grd = s.mean_snr_sr, s.mean_snr_rd
    return 1.0 / gsr + 1.0 / grd, 1.0 / math.sqrt(gsr * grd)


class TestDfDensity:
    def test_symmetric_rate(self):
        s = hop_scenario(10.0, 10.0)
        a1 = hop_rates(s)[0]
        for g in (0.1, 1.0, 5.0):
            assert df_snr_pdf(g, a1) == pytest.approx(0.2 * math.exp(-0.2 * g), rel=1e-12)

    def test_normalisation(self):
        a1 = hop_rates(hop_scenario(4.0, 9.0))[0]
        total = integrate_semi_infinite(lambda g: df_snr_pdf(g, a1), QuadratureSpec(1e-12, 1e-15),
                                        scale=1.0).value
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
        rates = hop_rates(s)
        total = integrate_semi_infinite(lambda g: af_snr_pdf(g, *rates),
                                        QuadratureSpec(1e-9, 1e-14), scale=2.5).value
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_small_argument_finite(self):
        # z K1(z) -> 1 keeps the density finite as gamma -> 0+
        s = hop_scenario(10.0, 10.0)
        a1 = 1.0 / s.mean_snr_sr + 1.0 / s.mean_snr_rd
        assert af_snr_pdf(1e-10, *hop_rates(s)) == pytest.approx(a1, rel=1e-6)

    def test_cdf_at_simulated_median(self):
        s = hop_scenario(10.0, 10.0)
        a1 = 0.2
        b1 = 0.1
        u = np.random.default_rng(7).random((1_000_000, 2))
        z = exponential_from_uniform(u)
        harm = 10 * z[:, 0] * 10 * z[:, 1] / (10 * z[:, 0] + 10 * z[:, 1])
        median = float(np.median(harm))
        assert af_snr_cdf(median, a1, b1) == pytest.approx(0.5, abs=0.01)


    @pytest.mark.parametrize("g", [1e-40, 1e-20, 1e-8, 1e-2, 1.0, 30.0])
    def test_cdf_keeps_its_digits_at_small_snr(self, g):
        # 1 - z exp(-a1 g) K1(z), z = 2 b1 g, cancels as g -> 0, where it read
        # rounding noise of 1e-16 instead of about a1 g
        a1, b1 = 0.2, 0.1
        with mpmath.workdps(120):
            x, z = mpmath.mpf(g), 2 * mpmath.mpf(b1) * mpmath.mpf(g)
            ref = float(1 - z * mpmath.exp(-mpmath.mpf(a1) * x) * mpmath.besselk(1, z))
        assert af_snr_cdf(g, a1, b1) == pytest.approx(ref, rel=1e-14, abs=0.0)


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

    def test_accurate_far_below_the_absolute_tolerance(self):
        # capacities of 1e-28 to 1e-19, far below any absolute tolerance,
        # against a purely relative reference
        env = PropagationEnvironment.from_dbm(1.11, -100.0, -90.0)
        for p_r in np.arange(-300.0, -199.0, 5.0):
            s = DualHopScenario(env, PowerLevel.from_dbm(-300.0),
                                PowerLevel.from_dbm(float(p_r)), 0.11, 3.5)
            a1 = 1.0 / s.mean_snr_sr + 1.0 / s.mean_snr_rd
            b1 = 1.0 / math.sqrt(s.mean_snr_sr * s.mean_snr_rd)
            ref = integrate_semi_infinite(lambda g: np.log1p(g) * af_snr_pdf(g, a1, b1),
                                          QuadratureSpec(rel_tol=1e-12, abs_tol=0.0),
                                          scale=1.0 / (a1 + 2.0 * b1)).value / (2.0 * LN2)
            assert ergodic_capacity_af(s) == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("gsr,grd", [(31.6, 31.6), (1e3, 2.5), (1e-30, 3e-30)])
    def test_against_mpmath(self, gsr, grd):
        s = hop_scenario(gsr, grd)
        with mpmath.workdps(20):
            gsr, grd = mpmath.mpf(s.mean_snr_sr), mpmath.mpf(s.mean_snr_rd)
            a1, b1 = 1 / gsr + 1 / grd, 1 / mpmath.sqrt(gsr * grd)

            def integrand(g):
                z = 2 * b1 * g
                k0, k1 = mp_bessel_k01(z)
                return mpmath.log1p(g) * z * mpmath.exp(-a1 * g) * (a1 * k1 + 2 * b1 * k0)

            ref = dyadic_quad(integrand, 1 / (a1 + 2 * b1)) / (2 * mpmath.log(2))
        assert ergodic_capacity_af(s) == pytest.approx(float(ref), rel=1e-12)

    def test_far_relay_degenerates_to_single_hop(self):
        s = hop_scenario(10.0, 1e6)
        p2p = P2pScenario(ENV, PowerLevel(10.0 * 500.0 ** 4 * ENV.noise_w), 500.0)
        assert ergodic_capacity_af(s) == pytest.approx(
            0.5 * ergodic_capacity_p2p(p2p), rel=0.01)


class TestGaseAssembly:
    def test_equal_powers_collapse(self):
        s = hop_scenario(10.0, 10.0)
        b = gase_dualhop(s, RelayProtocol.DF)
        assert b["gase_bps_hz_m2"] == pytest.approx(b["capacity_bps_hz"] / b["area_sr_m2"],
                                                    rel=1e-12)

    def test_df_closed_form_identity(self):
        # direct closed form: a/(8 pi ln2 Gamma(2/a)) e^{a1}E1(a1) (r_s + r_r),
        # r_i = (P_i/p_min)^(-2/a); must equal the generic assembly to 1e-12
        s = DualHopScenario(ENV, PowerLevel(0.05), PowerLevel(0.2), 500.0, 400.0)
        a = ENV.path_loss_exponent
        a1 = 1.0 / s.mean_snr_sr + 1.0 / s.mean_snr_rd
        closed = (a / (8.0 * math.pi * LN2 * math.gamma(2.0 / a)) * scaled_e1(a1)
                  * ((s.p_s.watts / ENV.p_min_w) ** (-2.0 / a)
                     + (s.p_r.watts / ENV.p_min_w) ** (-2.0 / a)))
        generic = gase_dualhop(s, RelayProtocol.DF)["gase_bps_hz_m2"]
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
        assert big["capacity_bps_hz"] > small["capacity_bps_hz"]
        assert big["gase_bps_hz_m2"] < small["gase_bps_hz_m2"]


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
            assert eta >= gase_dualhop(s, RelayProtocol.DF)["gase_bps_hz_m2"] - 1e-18

    def test_tiny_box_pushes_to_boundary(self):
        p_max = PowerLevel(1e-6)
        p_s, p_r, _ = optimize_relay_powers(ENV, 500.0, 500.0, p_max, RelayProtocol.DF)
        assert p_s.watts == pytest.approx(p_max.watts, rel=1e-3)
        assert p_r.watts == pytest.approx(p_max.watts, rel=1e-3)

    GEOMETRIES = [(250.0, 500.0), (500.0, 500.0), (1000.0, 500.0)]

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0, 4.0, 6.0])
    def test_df_matches_descent_oracle(self, a):
        # p_max below, at and above the interior optimum (a > 2); for a <= 2,
        # where GASE only grows as the powers shrink, three fixed boxes.  There
        # GASE can fall and rise again along a face, whose far end golden
        # section cannot see, so the reference is an exhaustive grid.
        env = PropagationEnvironment.from_dbm(a, -100.0, -90.0)
        for d_sr, d_rd in self.GEOMETRIES:
            if a > 2.0:
                p_s, p_r, _ = optimize_relay_powers(env, d_sr, d_rd, PowerLevel(1e12),
                                                    RelayProtocol.DF, span_decades=40.0)
                top = max(p_s.watts, p_r.watts)
                boxes = [PowerLevel(top * f) for f in (1e-3, 1.0, 1e3)]
            else:
                boxes = [PowerLevel.from_dbm(v) for v in (-40.0, 17.0, 60.0)]
            for p_max in boxes:
                p_s, p_r, eta = optimize_relay_powers(env, d_sr, d_rd, p_max, RelayProtocol.DF)
                got = (math.log(p_s.watts), math.log(p_r.watts))
                if a > 2.0:
                    want, tol = descent_oracle(env, d_sr, d_rd, p_max, 1e-8), 1e-4
                else:
                    want, best, tol = df_grid_optimum(env, d_sr, d_rd, p_max)
                    assert eta >= best * (1.0 - 1e-12)
                # equal hops with a <= 2 have two mirror-image optima of equal GASE
                mirrors = [want, want[::-1]] if d_sr == d_rd else [want]
                assert min(max(abs(g - w) for g, w in zip(got, m)) for m in mirrors) <= tol

    @pytest.mark.parametrize("protocol,gase", [(RelayProtocol.DF, 1.379e-7),
                                               (RelayProtocol.AF, 1.257e-7)])
    def test_u_shaped_face_loses_to_the_corner(self, protocol, gase):
        # a = 1.5: along the P_S = 60 dBm face GASE falls and rises again, so
        # the face's far end (60, -40) dBm is a local maximum with GASE 8.25e-8,
        # below the (-40, -40) dBm corner
        env = PropagationEnvironment.from_dbm(1.5, -100.0, -90.0)
        p_s, p_r, eta = optimize_relay_powers(env, 500.0, 500.0, PowerLevel.from_dbm(60.0),
                                              protocol)
        assert p_s.dbm == pytest.approx(-40.0, abs=1e-9)
        assert p_r.dbm == pytest.approx(-40.0, abs=1e-9)
        assert eta == pytest.approx(gase, rel=1e-3)

    def test_af_optimum_quadrature_count(self, monkeypatch):
        # one quadrature batch per Newton step, plus the corner batch when the
        # optimum is on a face (the P_R = 40 dBm face for the unequal hops)
        calls = []
        batch = mathkernel._double_exponential
        monkeypatch.setattr(mathkernel, "_double_exponential",
                            lambda *args, **kwargs: calls.append(1) or batch(*args, **kwargs))
        for d_sr, d_rd, most in ((300.0, 700.0, 10), (200.0, 800.0, 10), (100.0, 900.0, 10),
                                 (500.0, 500.0, 6)):
            calls.clear()
            optimize_relay_powers(ENV, d_sr, d_rd, PowerLevel.from_dbm(40.0), RelayProtocol.AF)
            assert 0 < len(calls) <= most

    @pytest.mark.parametrize("x", [(0.0316, 0.0316), (1e-3, 0.4), (1e30, 3e30)])
    def test_af_moments_against_mpmath(self, monkeypatch, x):
        # the five AF moments of one Newton step, at a1 = x_S + x_R and
        # b1 = sqrt(x_S x_R): (a1 g)^p z K1(z) or (a1 g)^p z^2 K0(z), z = 2 b1 g,
        # against exp(-a1 g)/(1 + g)
        moments = []
        batch = relay.integrate_semi_infinite_batch

        def recording(*args):
            moments.extend(batch(*args))
            return moments

        monkeypatch.setattr(relay, "integrate_semi_infinite_batch", recording)
        relay._log_gase(RelayProtocol.AF, 4.0, np.log(x), np.zeros(2))
        assert len(moments) == 5
        with mpmath.workdps(20):
            x_s, x_r = map(mpmath.mpf, np.exp(np.log(x)))  # as _log_gase forms them
            a1, b1 = x_s + x_r, mpmath.sqrt(x_s * x_r)
            for m, power, uses_k0 in zip(moments, relay._MOMENT_POWER, relay._MOMENT_K0):
                def integrand(g):
                    z = 2 * b1 * g
                    k0, k1 = mp_bessel_k01(z)
                    bessel = z * (z * k0 if uses_k0 else k1)
                    return (a1 * g) ** int(power) * bessel * mpmath.exp(-a1 * g) / (1 + g)

                ref = dyadic_quad(integrand, 1 / (a1 + 2 * b1))
                assert m.value == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("a,d_sr,d_rd", [(4.0, 500.0, 500.0), (6.0, 500.0, 500.0),
                                             (3.0, 500.0, 500.0), (3.3, 600.0, 350.0)])
    def test_af_optimum_is_a_tight_stationary_maximum(self, a, d_sr, d_rd):
        # one Newton step of the tightly integrated ln(GASE), by central
        # differences, moves the optimum by at most 1e-4 in ln P, and the
        # Hessian is negative definite.  At a = 3 the equal-hop diagonal is a
        # saddle and the optimum has P_S > P_R.
        env = PropagationEnvironment.from_dbm(a, -100.0, -90.0)
        p_s, p_r, eta = optimize_relay_powers(env, d_sr, d_rd, PowerLevel(1e6), RelayProtocol.AF,
                                              span_decades=20.0)
        ls, lr = math.log(p_s.watts), math.log(p_r.watts)
        assert math.log(1e-14) < min(ls, lr) and max(ls, lr) < math.log(1e6)

        def f(du, dv):
            return af_log_gase(env, d_sr, d_rd, ls + du, lr + dv)

        h = 1e-3
        f0 = f(0.0, 0.0)
        grad = np.array([f(h, 0.0) - f(-h, 0.0), f(0.0, h) - f(0.0, -h)]) / (2.0 * h)
        cross = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h)
        hess = np.array([[f(h, 0.0) - 2.0 * f0 + f(-h, 0.0), cross * h * h],
                         [cross * h * h, f(0.0, h) - 2.0 * f0 + f(0.0, -h)]]) / (h * h)
        assert np.all(np.linalg.eigvalsh(hess) < 0.0)
        assert np.max(np.abs(np.linalg.solve(hess, grad))) <= 1e-4
        # GASE is C/2 (1/A_S + 1/A_R) with C in bits over the two slots
        assert 4.0 * LN2 * eta == pytest.approx(math.exp(f0), rel=1e-7)
        if a == 3.0:
            assert p_s.watts > 10.0 * p_r.watts

    def test_af_box_face(self):
        # the interior AF optimum for these hops lies just above 40 dBm in P_S:
        # P_S sits on the bound, GASE still rises through it, and P_R solves
        # its own condition on that face
        env = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)
        p_s, p_r, _ = optimize_relay_powers(env, 600.0, 350.0, PowerLevel.from_dbm(40.0),
                                            RelayProtocol.AF)
        assert p_s.dbm == pytest.approx(40.0, abs=1e-12)
        ls, lr = math.log(p_s.watts), math.log(p_r.watts)
        h = 1e-3
        f = [af_log_gase(env, 600.0, 350.0, ls + du, lr + dv)
             for du, dv in ((0.0, -h), (0.0, 0.0), (0.0, h), (-h, 0.0))]
        assert f[1] > f[3]
        step = (f[2] - f[0]) / (2.0 * h) / ((f[2] - 2.0 * f[1] + f[0]) / h ** 2)
        assert abs(step) <= 1e-4

    def test_af_smoke(self):
        # AF objective evaluates a quadrature per point; keep the box tight
        p_s, p_r, eta = optimize_relay_powers(ENV, 500.0, 500.0, PowerLevel(10.0),
                                              RelayProtocol.AF, span_decades=4.0, tol=3e-3)
        assert eta > 0
        assert p_s.watts == pytest.approx(p_r.watts, rel=0.05)
