"""Point-to-point capacity, GASE, limiting behaviour, and optimal power."""

import math

import mpmath
import numpy as np
import pytest

from gase import link_p2p
from gase.link_p2p import (NoInteriorOptimumError, P2pScenario, ergodic_capacity_p2p,
                           gase_p2p, optimal_inverse_snr, optimal_power_p2p,
                           optimal_power_residual)
from gase.mathkernel import find_root_bracketed, scaled_e1
from gase.mc_oracle import McConfig, mc_ergodic_capacity, p2p_snr_sampler
from gase.propagation import PowerLevel, PropagationEnvironment, mean_snr

LN2 = math.log(2.0)


def scenario(a=4.0, p_t_dbm=30.0, d=1000.0, noise_dbm=-100.0, p_min_dbm=-90.0):
    env = PropagationEnvironment.from_dbm(a, noise_dbm, p_min_dbm)
    return P2pScenario(env, PowerLevel.from_dbm(p_t_dbm), d)


def eta_grid(env, d, powers_w):
    """Vectorised GASE over a power grid (test-side grid oracle)."""
    return np.array([gase_p2p(P2pScenario(env, PowerLevel(float(p)), d))["gase_bps_hz_m2"]
                     for p in powers_w])


class TestErgodicCapacity:
    def test_mean_snr_ten(self):
        s = scenario()  # P_t = 1 W, d = 1000 m, a = 4, N = -100 dBm
        assert mean_snr(s.env, s.p_t, s.d) == pytest.approx(10.0, rel=1e-12)
        assert ergodic_capacity_p2p(s) == pytest.approx(2.906514808414805, rel=1e-12)

    def test_against_monte_carlo(self):
        s = scenario()
        est = mc_ergodic_capacity(p2p_snr_sampler(10.0), McConfig(1_000_000, 31))
        assert abs(ergodic_capacity_p2p(s) - est.mean) <= 3.0 * est.std_error

    def test_vanishing_snr(self):
        assert ergodic_capacity_p2p(scenario(p_t_dbm=-120.0)) < 1e-10

    def test_monotone_in_power(self):
        caps = [ergodic_capacity_p2p(scenario(p_t_dbm=p)) for p in range(-10, 51, 5)]
        assert all(a < b for a, b in zip(caps, caps[1:]))


class TestGase:
    def test_reference_operating_point(self):
        b = gase_p2p(scenario())
        assert b["gase_bps_hz_m2"] == pytest.approx(1.0439452597147898e-06, rel=1e-12)
        assert b["gase_bps_hz_m2"] == pytest.approx(b["capacity_bps_hz"] / b["area_m2"], rel=1e-15)

    def test_small_power_limit_a2(self):
        # eta -> log2(e) p_min / (pi N d^2); relative gap decays like d^2 N / P_t
        s = scenario(a=2.0, d=1000.0)
        limit = (1.0 / LN2) * s.env.p_min_w / (math.pi * s.env.noise_w * s.d ** 2)
        assert limit == pytest.approx(4.5922409426328517e-06, rel=1e-12)
        tiny = gase_p2p(P2pScenario(s.env, PowerLevel(1e-12), s.d))["gase_bps_hz_m2"]
        assert tiny == pytest.approx(limit, rel=1e-4)

    def test_large_power_decay(self):
        s = scenario(a=2.0)
        peak = max(eta_grid(s.env, s.d, np.geomspace(1e-12, 1e2, 60)).max(),
                   4.5922409426328517e-06)
        big = gase_p2p(P2pScenario(s.env, PowerLevel(1e6), s.d))["gase_bps_hz_m2"]
        assert big / peak < 1e-9

    def test_unimodal_for_a_above_two(self):
        for a in (3.0, 4.0, 6.0):
            env = PropagationEnvironment.from_dbm(a, -100.0, -90.0)
            # grid spans nine decades either side of the optimum for this a
            centre = optimal_power_p2p(env, 1000.0).watts
            vals = eta_grid(env, 1000.0, np.geomspace(centre * 1e-9, centre * 1e9, 400))
            peak = int(np.argmax(vals))
            rising = np.diff(vals[:peak + 1])
            falling = np.diff(vals[peak:])
            assert np.all(rising > -1e-12 * vals.max())
            assert np.all(falling < 1e-12 * vals.max())
            # both grid extremes sit far below the interior peak, on their way
            # to the zero limits
            assert vals[0] < 0.05 * vals[peak]
            assert vals[-1] < 0.05 * vals[peak]


class TestOptimalPower:
    def test_reference_root(self):
        env = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)
        star = optimal_power_p2p(env, 1000.0)
        x_star = 1000.0 ** 4 * env.noise_w / star.watts
        assert x_star == pytest.approx(0.25894690868039507, rel=1e-9)
        assert star.watts == pytest.approx(0.3861795474, rel=1e-9)
        assert 0.37 < star.watts < 0.40          # coarse sanity band around the optimum
        assert star.dbm == pytest.approx(25.87, abs=0.05)

    @staticmethod
    def mpmath_root(a):
        """40-digit x* and |dR/dt| there, R = (x + 2/a) exp(x) E1(x) - 1, t = ln x:
        the root by Illinois on a sign bracket in t around optimal_inverse_snr."""
        with mpmath.workdps(40):
            c = 2 / mpmath.mpf(a)

            def residual(t):
                x = mpmath.exp(t)
                return (x + c) * mpmath.exp(x) * mpmath.e1(x) - 1
            t0 = mpmath.log(optimal_inverse_snr(a))
            lo, hi = t0 - mpmath.mpf(0.5), t0 + mpmath.mpf(0.5)
            assert residual(lo) > 0 > residual(hi)
            x = mpmath.exp(mpmath.findroot(residual, (lo, hi), solver="illinois", verify=False))
            g = x * mpmath.exp(x) * mpmath.e1(x)
            return float(x), float(abs(g + (x + c) * (g - 1)))

    # x* ~ exp(-a/2 - 0.577): below 1e-6 from a ~ 26.5 on; x* ~ 2/(a - 2) as a -> 2
    @pytest.mark.parametrize("a", [2.001, 2.005, 2.01, 2.02, 2.05, 2.2, 2.5, 3.0, 4.0, 27.0,
                                   60.0, 200.0, 1000.0, 1400.0])
    def test_root_against_mpmath(self, a):
        assert optimal_inverse_snr(a) == pytest.approx(self.mpmath_root(a)[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5])
    def test_root_just_above_a_equal_two(self, eps):
        # x* ~ 2/eps at a = 2 + eps, where R and its slope in t are O(eps^2):
        # R's rounding leaves x* about 2e-16 * 2/eps wide.  Brent stopped
        # where |R| <= 1e-12, at 4 x* for eps = 1e-9
        a = 2.0 + eps
        ref = self.mpmath_root(a)[0]
        assert optimal_inverse_snr(a) == pytest.approx(ref, rel=1e-15 / eps, abs=0.0)

    def test_root_no_farther_than_brent(self):
        # The Brent solve this Newton solve replaced: same bracket in t = ln x,
        # stopped at |R| <= 1e-12, which left errors up to 2.5e-6 on this grid.
        # R is formed from exp(x) E1(x) or exp(x) E2(x), each within about
        # 6e-15 of mpmath here, so no solver of it pins x* closer than about
        # 1e-14 / |dR/dt|; below that, Brent's smaller errors are luck.
        for a in (2.0 + np.geomspace(1e-3, 1413.0, 200)).tolist():
            ref, slope = self.mpmath_root(a)
            lo, hi = min(math.log(1e-6), -0.5 * a - 1.0), math.log(max(1e3, 4.0 * a / (a - 2.0)))
            brent = math.exp(find_root_bracketed(
                lambda t: (math.exp(t) + 2.0 / a) * scaled_e1(math.exp(t)) - 1.0, lo, hi))
            err, brent_err = (abs(x - ref) / ref for x in (optimal_inverse_snr(a), brent))
            assert err <= max(brent_err, 1e-14 / slope), a

    def test_root_takes_few_residual_evaluations(self, monkeypatch):
        calls = []
        for name in ("scaled_e1", "scaled_en"):
            fn = getattr(link_p2p, name)
            monkeypatch.setattr(link_p2p, name,
                                lambda *args, fn=fn: calls.append(args) or fn(*args))
        assert optimal_inverse_snr(4.0) == 0.25894690868039516
        assert len(calls) <= 6      # Brent took 15, besides the refusal test's one

    def test_root_below_the_normal_floats_is_refused(self):
        with pytest.raises(ArithmeticError, match="smallest normal float"):
            optimal_inverse_snr(1500.0)

    def test_residual_tolerance(self):
        env = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)
        star = optimal_power_p2p(env, 1000.0)
        assert abs(optimal_power_residual(env, 1000.0, star)) <= 1e-9

    def test_noise_scaling(self):
        env1 = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)
        env2 = PropagationEnvironment(4.0, env1.noise_w / 2.0, env1.p_min_w)
        p1 = optimal_power_p2p(env1, 700.0)
        p2 = optimal_power_p2p(env2, 700.0)
        assert p2.watts == pytest.approx(p1.watts / 2.0, rel=1e-10)

    def test_matches_grid_argmax(self):
        env = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)
        star = optimal_power_p2p(env, 1000.0)
        grid = np.geomspace(1e-4, 1e2, 600)
        best = grid[int(np.argmax(eta_grid(env, 1000.0, grid)))]
        step = grid[1] / grid[0]
        assert best / step <= star.watts <= best * step

    def test_p_min_invariance_of_argmax(self):
        d = 1000.0
        grid = np.geomspace(1e-4, 1e2, 600)
        env_lo = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)
        env_hi = PropagationEnvironment(4.0, env_lo.noise_w, env_lo.p_min_w * 100.0)
        lo = eta_grid(env_lo, d, grid)
        hi = eta_grid(env_hi, d, grid)
        assert abs(int(np.argmax(lo)) - int(np.argmax(hi))) <= 1
        assert hi.max() / lo.max() == pytest.approx(100.0 ** (2.0 / 4.0), rel=1e-6)

    def test_refuses_low_exponent(self):
        env = PropagationEnvironment.from_dbm(2.0, -100.0, -90.0)
        with pytest.raises(NoInteriorOptimumError):
            optimal_power_p2p(env, 1000.0)
        env = PropagationEnvironment.from_dbm(1.8, -100.0, -90.0)
        with pytest.raises(NoInteriorOptimumError):
            optimal_power_p2p(env, 1000.0)
