"""Underlay cognitive radio: SINR capacities, parallel area, composite GASE."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from gase import cli
from gase import cognitive_underlay as cg
from gase.cognitive_underlay import (CognitiveScenario, affected_area_parallel,
                                     gase_cognitive, gase_x_channel,
                                     primary_capacity_parallel, prob_parallel,
                                     secondary_capacity_parallel, two_source_power_tail,
                                     x_channel_primary_capacity)
from gase.link_p2p import P2pScenario, ergodic_capacity_p2p, gase_p2p
from gase.mathkernel import QuadratureError, QuadratureSpec, integrate_semi_infinite
from gase.mc_oracle import (McConfig, certified_disk_radius, mc_affected_area,
                            mc_ergodic_capacity, primary_sinr_sampler,
                            secondary_sinr_sampler, two_source_field)
from gase.config import derive_kind, load_preset, parse_config
from gase.propagation import PowerLevel, PropagationEnvironment, affected_area_single, dbm_to_watts
from test_config_cli import run_module, two_transmitter_configs

ENV = PropagationEnvironment.from_dbm(4.0, -100.0, -100.0)


def fig6_scenario(i_th_dbm=-80.0):
    return CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
                             100.0, 100.0, 150.0, 150.0, 100.0, dbm_to_watts(i_th_dbm))


def rho_p_scenario(rho_p: float) -> CognitiveScenario:
    """Equal powers; d_sp chosen so the primary interference ratio equals rho_p."""
    d_sp = 100.0 * rho_p ** 0.25
    return CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
                             100.0, 100.0, d_sp, 150.0, d_sp, dbm_to_watts(-80.0))


def split_scenario(a, d0, p1_dbm, p2_dbm):
    """Transmitters d0 apart, receivers placed so every link is realisable."""
    env = PropagationEnvironment.from_dbm(a, -100.0, -100.0)
    return CognitiveScenario(env, PowerLevel.from_dbm(p1_dbm), PowerLevel.from_dbm(p2_dbm),
                             100.0, 100.0, d0, d0, d0, dbm_to_watts(-80.0))


def preset_scenarios(name, kind="cognitive"):
    """The scenario at every point of a preset's sweep, as a cognitive or an
    X-channel (i_th = inf) scenario."""
    cfg = derive_kind(load_preset(name), kind)
    return cli._scenarios(cfg, cfg.sweep.parameter, [float(v) for v in cli._sweep_values(cfg)])


def underflow_config(kind, a, noise_dbm, power_dbm, i_th_dbm=None):
    """d_p = d_s = d0 = 1 m and d_sp = d_ps = 1e-323 m, whose d^a underflows to 0:
    both interference ratios and the constraint exponent c are 0."""
    return (f"scenario.kind = {kind}\nenv.path_loss_exponent = {a!r}\n"
            f"env.noise_dbm = {noise_dbm}\nenv.p_min_dbm = {noise_dbm}\n"
            "geom.d_p = 1\ngeom.d_s = 1\ngeom.d_sp = 1e-323\ngeom.d_ps = 1e-323\ngeom.d0 = 1\n"
            f"power.p1_dbm = {power_dbm}\npower.p2_dbm = {power_dbm}\n"
            + ("" if i_th_dbm is None else f"threshold.i_th_dbm = {i_th_dbm}\n"))


def overflow_config(kind):
    """d_p = d_s = 100 m and d0 = d_sp = d_ps = 1e160 m, whose d^a (a = 4)
    overflows the float range: both interference ratios and the constraint
    exponent c are inf."""
    return (f"scenario.kind = {kind}\nenv.path_loss_exponent = 4\n"
            "env.noise_dbm = -100\nenv.p_min_dbm = -100\n"
            "geom.d_p = 100\ngeom.d_s = 100\ngeom.d_sp = 1e160\ngeom.d_ps = 1e160\n"
            "geom.d0 = 1e160\npower.p1_dbm = 20\npower.p2_dbm = 20\n"
            + ("threshold.i_th_dbm = -80\n" if kind == "cognitive" else ""))


def footprint_scale(s):
    """L = d0 + the larger footprint radius, the product rule's length scale."""
    big = max(s.p1.watts, s.p2.watts) / s.env.p_min_w
    return s.d0 + big ** (1.0 / s.env.path_loss_exponent)


def lam_space_tail(lam_p, lam_s, p_min):
    """The two-source tail in the local mean powers lam_i = P_i / r_i^a: with
    hi >= lo the means, u = p_min/hi and d = p_min/lo - u, exp(-u) * (1 + u *
    (1 - exp(-d))/d); 1 at a transmitter (a mean of inf), 0 where both means
    are 0."""
    hi, lo = np.maximum(lam_p, lam_s), np.minimum(lam_p, lam_s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = p_min / hi
        d = u * ((hi - lo) / lo)
        ratio = np.where(d > 0.0, -np.expm1(-d) / d, 1.0)
        tail = np.exp(-u) * (1.0 + u * ratio)
    return np.where(u < math.inf, tail, 0.0)


def lam_space_correction(s, r, sin2_half):
    """The overlap correction T - exp(-p_min/lam_p) - exp(-p_min/lam_s) in
    the mean powers, independently of the module's normalised thresholds."""
    a, m = s.env.path_loss_exponent, s.env.p_min_w
    with np.errstate(divide="ignore", over="ignore"):
        rs2 = (r - s.d0) ** 2 + 4.0 * r * s.d0 * sin2_half
        lam_p = s.p1.watts / r ** a
        lam_s = s.p2.watts / rs2 ** (0.5 * a)
        return lam_space_tail(lam_p, lam_s, m) - np.exp(-m / lam_p) - np.exp(-m / lam_s)


def split_reference(s, tol):
    """A(P1) + A(P2) + the overlap correction by a composite 16-node
    Gauss-Legendre product rule on theta in [0, pi] and u in [0, 1), with
    r = L u/(1 - u), at 4k x 8k panels; k doubles until two successive areas
    agree to ``tol``.  r_s comes from the law of cosines and the tail from
    lam_space_tail, independently of the module's own integrand."""
    a, m = s.env.path_loss_exponent, s.env.p_min_w
    singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
    scale = footprint_scale(s)
    x, w = np.polynomial.legendre.leggauss(16)

    def composite(hi, panels):
        half = 0.5 * hi / panels
        mids = half * (2.0 * np.arange(panels) + 1.0)
        return (mids[:, None] + half * x).ravel(), np.tile(half * w, panels)

    def area(k):
        theta, w_theta = composite(math.pi, 4 * k)
        u, w_u = composite(1.0, 8 * k)
        r = scale * u / (1.0 - u)
        w_r = w_u * r * scale / (1.0 - u) ** 2
        total = 0.0
        for rows in np.array_split(np.arange(theta.size), max(1, theta.size // 64)):
            rs = np.sqrt(r * r + s.d0 ** 2 - 2.0 * r * s.d0 * np.cos(theta[rows])[:, None])
            lam_p, lam_s = s.p1.watts / r ** a, s.p2.watts / rs ** a
            corr = lam_space_tail(lam_p, lam_s, m) - np.exp(-m / lam_p) - np.exp(-m / lam_s)
            total += float(np.sum(w_theta[rows, None] * w_r * corr))
        return singles + 2.0 * total

    prev, k = area(1), 2
    while True:
        cur = area(k)
        if abs(cur - prev) <= tol * abs(cur):
            return cur
        prev, k = cur, 2 * k


def local_frame_reference(s, tol=1e-11, nodes=64):
    """A(P1) + A(P2) + the overlap correction, split between two polar frames,
    one centred on each transmitter, by the partition of unity
    w = 1/(1 + (r/r_o)^8) in the distances r to the centre and r_o to the other
    transmitter.  Each frame covers the whole plane: Gauss-Legendre in the
    angle from the other transmitter, and scipy's adaptive quad_vec in ln r,
    from 20 e-folds inside the centre's footprint (or d0) out to where every
    threshold exceeds 800.  It shares neither the module's grid nor its
    integrand: r_o comes from the law of cosines and the tail from
    lam_space_tail."""
    a, m, d0 = s.env.path_loss_exponent, s.env.p_min_w, s.d0
    singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
    radii = [(p.watts / m) ** (1.0 / a) for p in (s.p1, s.p2)]
    x, w = np.polynomial.legendre.leggauss(nodes)
    sin2 = np.sin(0.25 * math.pi * (x + 1.0)) ** 2
    far = math.log(d0 + max(radii)) + math.log(800.0) / a
    total = 0.0
    for (p_c, p_o), radius in zip(((s.p1.watts, s.p2.watts), (s.p2.watts, s.p1.watts)), radii):
        def f(log_r):
            r = math.exp(log_r)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                r_o = np.sqrt((d0 - r) ** 2 + 4.0 * d0 * r * sin2)
                lam_c, lam_o = p_c / r ** a, p_o / r_o ** a
                corr = lam_space_tail(lam_c, lam_o, m) - np.exp(-m / lam_c) - np.exp(-m / lam_o)
                return np.nan_to_num(corr / (1.0 + (r / r_o) ** 8)) * r * r

        near = math.log(min(radius, d0)) - 20.0
        breaks = sorted(b for b in {math.log(radius), math.log(d0), math.log(max(radii))}
                        if near < b < far)
        radial, _ = quad_vec(f, near, far, epsrel=tol, epsabs=0.1 * tol * singles, norm="max",
                             points=breaks or None, limit=100_000)
        total += math.pi * float(np.dot(w, radial))
    return singles + total


def count_rounds(monkeypatch):
    """Count the area's refinement rounds: each builds the rules of its new
    panels once."""
    count = []
    nodes = cg._nodes

    def counting(box):
        count.append(len(box))
        return nodes(box)

    monkeypatch.setattr(cg, "_nodes", counting)
    return count


def draw_scenario(text):
    return cli._scenarios(parse_config(text))[0]


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

    def test_underflowing_parallel_probability_takes_its_limit(self, tmp_path, capsys):
        # P = 0 leaves the normalised interference x uniform on [0, i1]: the
        # capacity is (1/i1) int_0^i1 h(n1 + x) dx / ln 2, h(z) = exp(z) E1(z),
        # whose antiderivative is h(z) + ln z
        cfg = tmp_path / "p0.cfg"
        cfg.write_text(underflow_config("cognitive", 4, -100, 20, i_th_dbm=-80))
        assert cli.main(["eval", "--config", str(cfg)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["p_parallel"] == values["c_secondary_bps_hz"] == 0.0
        assert values["gase_bps_hz_m2"] == values["gase_p2p_bps_hz_m2"]
        s, = cli._scenarios(parse_config(cfg.read_text()))
        assert prob_parallel(s) == 0.0
        with mpmath.workdps(40):
            n1, i1 = mpmath.mpf(s.n1), mpmath.mpf(s.i1)
            antiderivative = lambda z: mpmath.exp(z) * mpmath.e1(z) + mpmath.log(z)
            ref = float((antiderivative(n1 + i1) - antiderivative(n1)) / i1 / mpmath.log(2))
        assert primary_capacity_parallel(s) == pytest.approx(ref, rel=1e-12)
        assert values["c_primary_bps_hz"] == pytest.approx(ref, rel=1e-11)

    def test_branch_continuity_at_rho_one(self):
        base = primary_capacity_parallel(rho_p_scenario(1.0))
        # both points sum the Taylor series about rho = 1; only the tiny
        # geometric coupling of c and rho remains
        assert primary_capacity_parallel(rho_p_scenario(1.0 + 1e-9)) == pytest.approx(
            base, rel=1e-8)
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


    @pytest.mark.parametrize("s", [
        fig6_scenario(-120.0), fig6_scenario(-110.0), fig6_scenario(-90.0),
        fig6_scenario(-200.0),
        # p_parallel 2.1e-16: the double-precision joint closed form read -88.2
        CognitiveScenario(PropagationEnvironment.from_dbm(8.0, 0.0, 0.0), PowerLevel(1e-3),
                          PowerLevel(1e-3), 0.01, 1.0, 0.011, 1.001, 0.001, 1e-3)],
        ids=["fig6-120dBm", "fig6-110dBm", "fig6-90dBm", "fig6-200dBm", "p-2e-16"])
    def test_tight_constraint_against_mpmath(self, s):
        # the joint closed form C(n1) - exp(-c) C(n1 + i1) over 1 - exp(-c) at
        # 60 digits, where its cancellation costs nothing
        a = s.env.path_loss_exponent
        with mpmath.workdps(60):
            d_p, rho = mpmath.mpf(s.d_p), mpmath.mpf(s.rho_p)
            n1 = d_p ** a * mpmath.mpf(s.env.noise_w) / mpmath.mpf(s.p1.watts)
            i1 = d_p ** a * mpmath.mpf(s.i_th_w) / mpmath.mpf(s.p1.watts)

            def capacity(n):
                h = [mpmath.exp(x) * mpmath.e1(x) for x in (n * rho, n)]
                return rho / (1 - rho) * (h[0] - h[1])

            c = i1 * rho
            ref = ((capacity(n1) - mpmath.exp(-c) * capacity(n1 + i1))
                   / -mpmath.expm1(-c) / mpmath.log(2))
        assert primary_capacity_parallel(s) == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("srate", [1e-4, 1.0, 1e3])
    def test_near_rho_one_against_mpmath(self, srate):
        # rho/(1-rho) (h(s rho) - h(s)), h(x) = exp(x) E1(x), against the
        # cancellation-free rho s int_0^inf exp(-t)/((s rho + t)(s + t)) dt,
        # with |rho - 1| in {0, 1e-12, ..., 1e-2} on alternating sides
        offsets = [0.0] + [(-1.0) ** k * 10.0 ** -k for k in range(12, 1, -1)]
        with mpmath.workdps(50):
            s = mpmath.mpf(srate)
            for offset in offsets:
                rho = 1.0 + offset
                r = mpmath.mpf(rho)
                ref = r * s * mpmath.quad(lambda t: mpmath.exp(-t) / ((s * r + t) * (s + t)),
                                          [0, 1, 10, mpmath.inf])
                got = cg._interference_integral(rho, srate)
                assert abs(got - ref) <= 1e-13 * ref


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
        eta_cr = gase_cognitive(loose)["gase_bps_hz_m2"]
        eta_x = gase_x_channel(loose)["gase_bps_hz_m2"]
        assert eta_cr == pytest.approx(eta_x, rel=0.005)

    def test_underflowing_interference_ratio_takes_its_limit(self, tmp_path, capsys):
        # d_sp = d_ps = 1e-323 m: both rho underflow to 0, where an interferer
        # at the receiver leaves no capacity
        cfg = tmp_path / "rho0.cfg"
        cfg.write_text(underflow_config("xchannel", 4, -100, 20))
        assert cli.main(["eval", "--config", str(cfg)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["c_primary_bps_hz"] == values["c_secondary_bps_hz"] == 0.0
        assert values["area_parallel_m2"] > 0.0

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_underflowing_parallel_area_is_named(self, tmp_path, capsys, command):
        # (P/P_min)^(2/a) = (1e-20)^20 underflows to 0 at a = 0.1, and with
        # it the parallel area that the X-channel GASE divides by
        cfg = tmp_path / "area0.cfg"
        cfg.write_text("scenario.kind = xchannel\nenv.path_loss_exponent = 0.1\n"
                       "env.noise_dbm = -100\nenv.p_min_dbm = 0\ngeom.d_p = 1\ngeom.d_s = 1\n"
                       "geom.d_sp = 1\ngeom.d_ps = 1\ngeom.d0 = 1\n"
                       "power.p1_dbm = -200\npower.p2_dbm = -200\n")
        assert cli.main([command, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("gase: numerical failure: the parallel affected area underflows "
                                "to 0 m^2 (P/P_min = 1e-20, a = 0.1)\n")

    @pytest.mark.parametrize("kind", ["cognitive", "xchannel"])
    def test_overflowing_interference_ratio_takes_its_limit(self, tmp_path, capsys, kind):
        # (d_sp/d_p)^a and d_sp^a pass the float range, which raised
        # OverflowError; in the limit the interference vanishes, and each pair
        # is the point-to-point link of its own distance and power
        cfg = tmp_path / "far.cfg"
        cfg.write_text(overflow_config(kind))
        assert cli.main(["eval", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        s, = cli._scenarios(parse_config(cfg.read_text()))
        assert s.rho_p == s.rho_s == s.constraint_exponent == math.inf
        c = gase_cognitive(s) if kind == "cognitive" else gase_x_channel(s)
        assert c.get("p_parallel", 1.0) == 1.0
        for power, d, column in ((s.p1, s.d_p, "c_primary_bps_hz"),
                                 (s.p2, s.d_s, "c_secondary_bps_hz")):
            p2p = gase_p2p(P2pScenario(s.env, power, d))
            assert c[column] == pytest.approx(p2p["capacity_bps_hz"], rel=1e-15, abs=0.0)
        # d0 = 1e160 m: the footprints do not overlap
        singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
        assert c["area_parallel_m2"] == pytest.approx(singles, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("kind", ["cognitive", "xchannel"])
    def test_verify_far_apart_writes_no_warning(self, tmp_path, kind):
        # the spatial oracle's path loss from 1e160 m overflows to inf, the
        # limit of 0 received power, and numpy must not warn of it.  The area
        # row stays NaN: the certified disk's area is inf and its hit fraction 0
        cfg = tmp_path / "far.cfg"
        cfg.write_text(overflow_config(kind))
        proc = run_module("verify", "--config", str(cfg), "--samples", "20000")
        assert (proc.returncode, proc.stderr) == (2, "")
        rows = [line.split(",") for line in proc.stdout.splitlines()]
        assert rows[0][0] == "check" and rows[0][-1] == "status"
        assert [(row[0], row[-1]) for row in rows[1:]] == (
            [("p_parallel_vs_mc", "pass")] if kind == "cognitive" else []) + [
            ("c_primary_vs_mc", "pass"), ("c_secondary_vs_mc", "pass"),
            ("area_parallel_vs_spatial_mc", "FAIL"), ("area_parallel_ge_singles", "pass")]
        assert rows[-2][2:] == ["nan", "nan", "nan", "nan", "FAIL"]

    @pytest.mark.parametrize("rho", [1e300, math.inf])
    def test_interference_integral_past_the_float_range(self, rho):
        # n rho overflows: the integral is its rho -> inf limit exp(n) E1(n),
        # which a finite rho this large meets to within 1/rho
        n = 1e10
        with mpmath.workdps(40):
            ref = float(mpmath.exp(n) * mpmath.e1(n))
        assert cg._interference_integral(rho, n) == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("rho,n", [(1e-300, 1e-10), (1e-200, 1e-120), (1e-30, 1e-3)])
    def test_small_interference_ratio_against_mpmath(self, rho, n):
        # n rho underflows in the first two, and is normal in the last
        with mpmath.workdps(40):
            r, nn = mpmath.mpf(rho), mpmath.mpf(n)
            ref = float(r / (1 - r) * (mpmath.exp(nn * r) * mpmath.e1(nn * r)
                                       - mpmath.exp(nn) * mpmath.e1(nn)))
        assert cg._interference_integral(rho, n) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_close_interferers_hurt(self):
        s = CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
                              100.0, 100.0, 60.0, 60.0, 100.0, 1e-11)
        eta_x = gase_x_channel(s)["gase_bps_hz_m2"]
        eta_p2p = gase_p2p(P2pScenario(ENV, s.p1, s.d_p))["gase_bps_hz_m2"]
        assert eta_x < eta_p2p


def tail(u_p, u_s):
    """The two-source tail from its excess over the single-source tails."""
    return two_source_power_tail(u_p, u_s) + np.exp(-u_p) + np.exp(-u_s)


class TestSinrSamplers:
    UNIFORMS = np.vstack([np.random.default_rng(7).random((2000, 2)),
                          [[0.0, 0.0], [0.5, 1.0 - 2.0 ** -53]]])

    @pytest.mark.parametrize("s", [
        fig6_scenario(), fig6_scenario(-200.0), fig6_scenario(-250.0), rho_p_scenario(1.0),
        CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(35.0),
                          100.0, 100.0, 150.0, 150.0, 100.0, math.inf)],
        ids=["fig6", "c-5e-14", "c-5e-19", "rho-1", "xchannel"])
    def test_normalised_draws_equal_the_received_powers(self, s):
        # z_p/(x + n1) against P1 d_p^-a z_p/(P2 d_sp^-a z_sp + noise), with z_sp
        # truncated at c; c = 5e-19 takes z_sp/c = u
        a, u = s.env.path_loss_exponent, self.UNIFORMS
        z = -np.log1p(-u)
        z_sp = -np.log1p(-u[:, 1] * -math.expm1(-s.constraint_exponent))
        primary = s.p1.watts / s.d_p ** a * z[:, 0] / (
            s.p2.watts / s.d_sp ** a * z_sp + s.env.noise_w)
        secondary = s.p2.watts / s.d_s ** a * z[:, 0] / (
            s.p1.watts / s.d_ps ** a * z[:, 1] + s.env.noise_w)
        np.testing.assert_allclose(primary_sinr_sampler(s).fn(u), primary, rtol=1e-13, atol=0)
        np.testing.assert_allclose(secondary_sinr_sampler(s).fn(u), secondary, rtol=1e-13,
                                   atol=0)

    @pytest.mark.parametrize("d_sp", [1e-80, 1e-323])
    def test_vanishing_interference_ratio_draws_zero_quietly(self, d_sp):
        # rho = (d_sp/d_p)^a = 1e-320, where z'/rho overflows to inf, and 0:
        # the SINR's limit 0
        p = PowerLevel.from_dbm(20.0)
        s = CognitiveScenario(ENV, p, p, 1.0, 1.0, d_sp, d_sp, 1.0, math.inf)
        assert s.rho_p < 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not primary_sinr_sampler(s).fn(self.UNIFORMS).any()
            assert not secondary_sinr_sampler(s).fn(self.UNIFORMS).any()

    @pytest.mark.parametrize("kind,a,noise_dbm,power_dbm,i_th_dbm", [
        ("xchannel", 9.432950678495303, 0, 0, None), ("cognitive", 4, -100, 20, -80)])
    def test_verify_where_the_interference_ratios_underflow(self, tmp_path, capsys, kind, a,
                                                            noise_dbm, power_dbm, i_th_dbm):
        # rho = 0 draws an SINR of 0; with c = 0 as well the cognitive draw
        # is z_p/(i1 u + n1), the oracle of the P = 0 limit
        cfg = tmp_path / "rho0.cfg"
        cfg.write_text(underflow_config(kind, a, noise_dbm, power_dbm, i_th_dbm))
        assert cli.main(["verify", "--config", str(cfg), "--samples", "20000"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == (5 if kind == "cognitive" else 4)
        assert all(row[-1] == "pass" for row in rows)
        primary = next(row for row in rows if row[0] == "c_primary_vs_mc")
        assert (float(primary[1]) > 0.0) == (kind == "cognitive")


class TestTwoSourceTail:
    """two_source_power_tail in the normalised thresholds u_i = p_min/lam_i."""

    def test_erlang_branch_on_equal_means(self):
        u = ENV.p_min_w / 2.5e-12
        assert tail(u, u) == pytest.approx((1 + u) * math.exp(-u), rel=1e-12)
        assert two_source_power_tail(u, u) == pytest.approx((u - 1) * math.exp(-u), rel=1e-12)

    def test_single_source_limits(self):
        assert tail(0.1, 1e13) == pytest.approx(math.exp(-0.1), rel=1e-9)
        assert tail(1e13, 0.1) == pytest.approx(math.exp(-0.1), rel=1e-9)

    def test_guard_continuity(self):
        u = 1.0 / 3.0
        inside = tail(u * (1 + 5e-10), u)
        outside = tail(u * (1 + 5e-9), u)
        assert inside == pytest.approx(outside, rel=1e-6)

    def test_matches_mpmath_across_mean_ratios(self):
        m = 1e-12
        with mpmath.workdps(50):
            mm = mpmath.mpf(m)
            for lam_s in (2e-13, 1e-12, 5e-12):
                for excess in (0.0, *(10.0 ** k for k in range(-12, 4))):
                    lam_p = lam_s * (1.0 + excess)
                    lp, ls = mpmath.mpf(lam_p), mpmath.mpf(lam_s)
                    if lp == ls:
                        ref = (1 + mm / lp) * mpmath.exp(-mm / lp)
                    else:
                        ref = (lp * mpmath.exp(-mm / lp) - ls * mpmath.exp(-mm / ls)) / (lp - ls)
                    ref_excess = ref - mpmath.exp(-mm / lp) - mpmath.exp(-mm / ls)
                    u_p, u_s = m / lam_p, m / lam_s
                    for got, got_excess in ((tail(u_p, u_s), two_source_power_tail(u_p, u_s)),
                                            (tail(u_s, u_p), two_source_power_tail(u_s, u_p))):
                        assert abs(float(got) - float(ref)) <= 1e-14 * float(ref)
                        assert abs(float(got_excess) - float(ref_excess)) <= 1e-15 * float(ref)

    def test_finite_at_a_transmitter_and_far_out(self):
        u_p = np.array([0.0, 0.0, math.inf, 0.1, math.inf])
        u_s = np.array([0.0, 0.1, math.inf, math.inf, 0.1])
        assert tail(u_p, u_s).tolist() == pytest.approx(
            [1.0, 1.0, 0.0, math.exp(-0.1), math.exp(-0.1)], rel=1e-15, abs=0.0)
        assert two_source_power_tail(u_p, u_s).tolist() == pytest.approx(
            [-1.0, -math.exp(-0.1), 0.0, 0.0, 0.0], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a", [1.5, 4.0, 12.0])
    def test_overflow_of_both_thresholds_is_zero(self, a):
        # r^a and r_s^a overflow, so both u are inf: the correction is 0, not nan
        s = split_scenario(a, 100.0, 20.0, 20.0)
        r = np.array([1e300, 10.0 ** (320.0 / a)])
        sin2 = np.array([[0.0], [0.5], [1.0]])
        with np.errstate(over="ignore"):
            assert np.isinf(s.env.p_min_w / s.p1.watts * r ** a).all()
        assert cg._overlap_correction(s, r, sin2).tolist() == [[0.0, 0.0]] * 3
        assert lam_space_correction(s, r, sin2).tolist() == [[0.0, 0.0]] * 3

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(a=st.floats(0.3, 12.0), d0=st.floats(50.0, 1e4), p1_dbm=st.floats(-30.0, 50.0),
           p2_dbm=st.floats(-30.0, 50.0), p_min_dbm=st.floats(-130.0, -50.0),
           log_r=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8),
           sin2=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    @example(a=12.0, d0=1e4, p1_dbm=-30.0, p2_dbm=-30.0, p_min_dbm=-50.0,
             log_r=[6.0, 0.0, -6.0], sin2=[0.0, 1.0])
    def test_correction_equals_lam_space_expression(self, a, d0, p1_dbm, p2_dbm, p_min_dbm,
                                                    log_r, sin2):
        env = PropagationEnvironment.from_dbm(a, -100.0, p_min_dbm)
        s = CognitiveScenario(env, PowerLevel.from_dbm(p1_dbm), PowerLevel.from_dbm(p2_dbm),
                              100.0, 100.0, d0, d0, d0, 1e-11)
        r = d0 * 10.0 ** np.array(log_r)
        sin2_half = np.array(sin2)[:, None]
        got = cg._overlap_correction(s, r, sin2_half)
        ref = lam_space_correction(s, r, sin2_half)
        assert np.isfinite(got).all()
        assert np.abs(got - ref).max() <= 1e-15


class TestAffectedAreaParallel:
    def test_gauss_legendre_rule_rebuilt(self):
        for embedded, rebuilt in zip(cg._GL16, np.polynomial.legendre.leggauss(16)):
            assert embedded.shape == rebuilt.shape
            assert embedded.tobytes() == rebuilt.tobytes()    # bit for bit

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

    # a = 6 with both transmitters at 20 dBm and 20 km apart, and two weaker
    # secondaries: the footprints do not overlap, so the area is their sum
    FAR_APART = [(6.0, 20e3, 20.0), (4.0, 20e3, -20.0), (6.0, 2e3, -20.0)]

    @pytest.mark.parametrize("a,d0,p2_dbm", FAR_APART)
    def test_far_secondary_keeps_both_footprints(self, a, d0, p2_dbm):
        s = split_scenario(a, d0, 20.0, p2_dbm)
        singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
        assert affected_area_parallel(s) == pytest.approx(singles, rel=1e-9)

    @pytest.mark.parametrize("a,d0,p2_dbm", FAR_APART)
    def test_far_secondary_keeps_both_footprints_in_eval(self, tmp_path, capsys,
                                                          a, d0, p2_dbm):
        cfg = tmp_path / "far.cfg"
        cfg.write_text(
            "scenario.kind = cognitive\n"
            f"env.path_loss_exponent = {a}\nenv.noise_dbm = -100\nenv.p_min_dbm = -100\n"
            f"geom.d_p = 100\ngeom.d_s = 100\ngeom.d_sp = {d0}\ngeom.d_ps = {d0}\n"
            f"geom.d0 = {d0}\npower.p1_dbm = 20\npower.p2_dbm = {p2_dbm}\n"
            "threshold.i_th_dbm = -80\n")
        assert cli.main(["eval", "--config", str(cfg)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        area = float(row.split(",")[header.split(",").index("area_parallel_m2")])
        s = split_scenario(a, d0, 20.0, p2_dbm)
        singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
        assert area == pytest.approx(singles, rel=1e-9)

    @pytest.mark.parametrize("preset", ["fig6", "fig7a", "fig7b"])
    def test_presets_match_converged_reference(self, preset):
        for s in preset_scenarios(preset):
            assert affected_area_parallel(s) == pytest.approx(split_reference(s, 1e-12),
                                                              rel=1e-10)

    def test_stress_grid_matches_converged_reference(self, monkeypatch):
        rounds = count_rounds(monkeypatch)
        for a in (2.1, 2.5, 3.3, 4.0, 6.0):
            for d0 in (50.0, 250.0, 2e3, 20e3):
                for dp in (-40.0, 0.0, 40.0):
                    s = split_scenario(a, d0, 20.0, 20.0 + dp)
                    assert affected_area_parallel(s) == pytest.approx(
                        local_frame_reference(s), rel=2e-5, abs=0.0)
        # a small secondary footprint inside the primary's (a = 4, d0 = 2 km,
        # -40 dB) defeats round 0's estimate and is refined
        assert rounds

    @pytest.mark.parametrize("d0,p2_dbm", [(0.215, -129.9), (0.05, -130.0), (0.25, -120.0)])
    def test_footprint_between_nodes_is_refined(self, monkeypatch, d0, p2_dbm):
        # a secondary footprint of a few mm, d0 from a 0.26 m primary one,
        # falls between round 0's nodes, where both of its rules agree on
        # missing it
        env = PropagationEnvironment.from_dbm(6.076, -100.0, 29.0)
        s = CognitiveScenario(env, PowerLevel.from_dbm(-7.0), PowerLevel.from_dbm(p2_dbm),
                              100.0, 100.0, 100.0, 100.0, d0, dbm_to_watts(-80.0))
        rounds = count_rounds(monkeypatch)
        assert affected_area_parallel(s) == pytest.approx(local_frame_reference(s), rel=2e-5,
                                                          abs=0.0)
        assert rounds

    # footprint radii of 4-5 um, 3.8 m apart at a = 0.58, and of 0.13 nm,
    # 2.7 mm apart at a = 0.68: far narrower than round 0's node spacing, with
    # an overlap correction of 1.2e-3 and 3.2e-5 of the area
    NARROW = [
        ("scenario.kind = cognitive\nenv.path_loss_exponent = 0.582568209305757\n"
         "env.noise_dbm = 22.915982914225907\nenv.p_min_dbm = 31.517460720124035\n"
         "geom.d_p = 3.824443147776326\ngeom.d_s = 3.824443147776326\n"
         "geom.d0 = 3.824443147776326\ngeom.d_sp = 9.113810849587259e-263\n"
         "geom.d_ps = 1.337644497563862\npower.p1_dbm = 0.582568209305757\n"
         "power.p2_dbm = -9.052246838775558e-63\nthreshold.i_th_dbm = -20.35392577674611\n",
         1.30449239612e-09),
        ("scenario.kind = xchannel\nenv.path_loss_exponent = 0.6782730596074411\n"
         "env.noise_dbm = -199\nenv.p_min_dbm = 67.14312682868962\n"
         "geom.d_p = 0.0026899282419095495\ngeom.d_s = 0.0026899282419095495\n"
         "geom.d0 = 0.0026899282419095495\ngeom.d_sp = 0.004601695338942171\n"
         "geom.d_ps = 0.0035046709154807655\npower.p1_dbm = 5.960464477539063e-08\n"
         "power.p2_dbm = 2.4771544242195988e-14\n",
         5.62658621597e-19),
    ]

    @pytest.mark.parametrize("text,expected", NARROW, ids=["um_at_a0.58", "nm_at_a0.68"])
    def test_footprints_far_narrower_than_d0_keep_their_correction(self, text, expected):
        # expected is scipy's dblquad at epsrel 1e-10 in local polar frames of
        # radius d0/2 about each transmitter; the first-order law
        # sum_i A_i (2/a) P_j/(P_min d0^a) puts the correction at 1.17e-3 and
        # 3.15e-5 of A(P1) + A(P2)
        s = draw_scenario(text)
        singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
        assert local_frame_reference(s) == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert affected_area_parallel(s) == pytest.approx(expected, rel=2e-5, abs=0.0)
        assert affected_area_parallel(s) > singles * (1.0 + 1e-5)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(text=two_transmitter_configs())
    def test_drawn_areas_match_local_frame_reference(self, text):
        try:
            s = draw_scenario(text)
            area = affected_area_parallel(s)
        except (ArithmeticError, ValueError):
            return  # a named float-range limit or a rejected config
        assert area == pytest.approx(local_frame_reference(s), rel=2e-5, abs=0.0)

    def test_round_zero_sum_equals_per_node_reference(self, monkeypatch):
        # every cognitive preset's sweep, the X channel's, a across the
        # presets' range, and a far field where r^a overflows to u = inf
        scenarios = [s for name in ("fig6", "fig7a", "fig7b") for s in preset_scenarios(name)]
        scenarios += preset_scenarios("fig7a", "xchannel")
        scenarios += [split_scenario(a, d0, 20.0, p2_dbm) for a in (2.5, 3.0, 4.5, 5.3)
                      for d0 in (50.0, 250.0, 2e3) for p2_dbm in (-20.0, 20.0, 40.0)]
        far = split_scenario(40.0, 1e5, 20.0, 20.0)
        sin2, t, w = cg._START_GRIDS[1]
        assert w.shape == (128, 64)
        rounds, accepted = count_rounds(monkeypatch), 0
        with np.errstate(over="ignore"):
            assert np.isinf((footprint_scale(far) * t) ** 40).any()
        for s in scenarios + [far]:
            scale = footprint_scale(s)
            # the fine grid's every node, none dropped
            nodes = w * cg._overlap_correction(s, scale * t[:, None], sin2)
            # where round 0 is accepted, its value is the sum over the fine grid
            rounds.clear()
            singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
            ref = scale * (scale * math.fsum(nodes.ravel()))
            area = affected_area_parallel(s)
            if not rounds:
                accepted += 1
                assert abs(area - singles - ref) <= 1e-14 * abs(ref) + 2.0 * math.ulp(area)
        assert accepted > 0.9 * len(scenarios)

    def test_round_zero_holds_the_composite_rule_nodes(self):
        # round 0's grids hold, bit for bit and in order, the sin^2(theta/2),
        # t and weights (u rows, theta columns) of the composite 16-node rules
        # on 32 x 64 and 64 x 128 nodes: the nodes of the 2 x 4 panels that
        # refinement starts from and of their 4 x 8 quarters
        x, w16 = np.polynomial.legendre.leggauss(16)
        panels = (cg._START, cg._quarters(cg._START, np.zeros(8, bool)))
        for (sin2, t, w), box, theta_panels, u_panels in zip(cg._START_GRIDS, panels,
                                                             (2, 4), (4, 8)):
            half_th, half_u = 0.5 * math.pi / theta_panels, 0.5 / u_panels
            theta = ((half_th * (2.0 * np.arange(theta_panels) + 1.0))[:, None]
                     + half_th * x).ravel()
            u = ((half_u * (2.0 * np.arange(u_panels) + 1.0))[:, None] + half_u * x).ravel()
            weights = np.outer(2.0 * np.tile(half_th * w16, theta_panels),
                               np.tile(half_u * w16, u_panels) * (u / (1.0 - u)) / (1.0 - u) ** 2)
            assert sin2.tobytes() == (np.sin(0.5 * theta) ** 2).tobytes()
            assert t.tobytes() == (u / (1.0 - u)).tobytes()
            assert w.tobytes() == np.ascontiguousarray(weights.T).tobytes()
            grid = np.broadcast_arrays(sin2, t[:, None], w)
            assert (sorted(zip(*(a.ravel().tolist() for a in grid)))
                    == sorted(zip(*(a.ravel().tolist()
                                    for a in np.broadcast_arrays(*cg._nodes(box))))))

    class Refining(Exception):
        pass

    @classmethod
    def round_zero(cls, s):
        """The corrections that round 0 of affected_area_parallel(s) evaluates
        on its coarse and fine grids, the rows it kept, and whether it went on
        to refine; refinement is cut off at its first panels."""
        calls, correction = [], cg._overlap_correction

        def recording(*args):
            calls.append(correction(*args))
            return calls[-1]

        def refusing(box):
            raise cls.Refining

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cg, "_overlap_correction", recording)
            mp.setattr(cg, "_nodes", refusing)
            try:
                affected_area_parallel(s)
            except cls.Refining:
                return calls, True
        return calls, False

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(a=st.floats(0.3, 12.0), log_d0=st.floats(-2.0, 4.0), p1_db=st.floats(-60.0, 60.0),
           p2_db=st.floats(-60.0, 60.0), p_min_db=st.floats(-60.0, 60.0))
    @example(a=4.0, log_d0=math.log10(250.0), p1_db=0.0, p2_db=0.0, p_min_db=0.0)
    @example(a=0.5, log_d0=1.0, p1_db=20.0, p2_db=-20.0, p_min_db=0.0)
    def test_round_zero_drops_only_rows_that_are_zero(self, a, log_d0, p1_db, p2_db, p_min_db):
        # every row round 0 drops is exactly +0.0, and its sums are those of
        # the whole grids; a < 2 widens L by (2/a)^(1/a)
        d0 = 10.0 ** log_d0
        env = PropagationEnvironment.from_dbm(a, -100.0, -100.0 + p_min_db)
        s = CognitiveScenario(env, PowerLevel.from_dbm(20.0 + p1_db),
                              PowerLevel.from_dbm(20.0 + p2_db), d0, d0, d0, d0, d0, 1e-11)
        scale = d0 + max((p.watts / env.p_min_w * max(1.0, 2.0 / a)) ** (1.0 / a)
                         for p in (s.p1, s.p2))
        corrs, _ = self.round_zero(s)
        assert len(corrs) == 2
        for kept, (sin2, t, w) in zip(corrs, cg._START_GRIDS):
            whole = cg._overlap_correction(s, scale * t[:, None], sin2)
            assert kept.tobytes() == whole[:len(kept)].tobytes()
            dropped = whole[len(kept):]
            assert not dropped.any() and not np.signbit(dropped).any()
            trimmed, full = np.vdot(w[:len(kept)], kept), np.vdot(w, whole)
            assert abs(trimmed - full) <= 1e-15 * abs(full)

    def test_round_zero_drops_the_far_rows_of_fig7a(self):
        # about 8,400 of round 0's 10,240 nodes a point are kept on fig7a
        kept = [sum(c.size for c in self.round_zero(s)[0]) for s in preset_scenarios("fig7a")]
        assert 8000 < np.mean(kept) < 9000

    @pytest.mark.parametrize("a,d0,p2_dbm,p_min_dbm,p1_dbm", [
        (4.0, 2e3, -20.0, -100.0, 20.0), (6.076, 0.215, -129.9, 29.0, -7.0),
        (6.076, 0.25, -120.0, 29.0, -7.0), (0.582568209305757, 3.8, -9e-63, 31.5, 0.58)])
    def test_refinement_starts_from_the_panel_rules(self, a, d0, p2_dbm, p_min_dbm, p1_dbm):
        # where round 0 is not accepted, refinement starts from its panels'
        # and quarters' rules, taken from the grids: those of the panels'
        # own 16 x 16-node rules
        env = PropagationEnvironment.from_dbm(a, -100.0, p_min_dbm)
        s = CognitiveScenario(env, PowerLevel.from_dbm(p1_dbm), PowerLevel.from_dbm(p2_dbm),
                              d0, d0, d0, d0, d0, 1e-11)
        corrs, refined = self.round_zero(s)
        assert refined and len(corrs) == 2
        own, kids = cg._start_rules([(c, w) for c, (_, _, w) in zip(corrs, cg._START_GRIDS)])
        scale = d0 + max((p.watts / env.p_min_w * max(1.0, 2.0 / a)) ** (1.0 / a)
                         for p in (s.p1, s.p2))
        sin2, t, w = cg._nodes(np.concatenate([cg._START,
                                               cg._quarters(cg._START, np.zeros(8, bool))]))
        ref = np.einsum("pij,pij->p", w, cg._overlap_correction(s, scale * t, sin2))
        assert abs(ref).max() > 0.0
        np.testing.assert_allclose(own, ref[:8], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(kids, ref[8:].reshape(8, 4), rtol=1e-15, atol=0.0)

    def test_correction_is_zero_where_scale_squared_overflows(self):
        s = split_scenario(4.0, 1e160, 20.0, 20.0)
        assert math.isinf(footprint_scale(s) * footprint_scale(s))
        singles = affected_area_single(s.env, s.p1) + affected_area_single(s.env, s.p2)
        assert affected_area_parallel(s) == singles

    @pytest.mark.parametrize("preset,kind", [("fig6", "cognitive"), ("fig7a", "cognitive"),
                                             ("fig7a", "xchannel")])
    def test_preset_sweeps_take_no_refinement_round(self, monkeypatch, tmp_path, preset, kind):
        rounds = count_rounds(monkeypatch)
        assert cli.main(["sweep", "--preset", preset, "--kind", kind,
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert rounds == []

    @pytest.mark.parametrize("cap,value", [("_MAX_PANELS", 64), ("_MAX_ROUNDS", 2)])
    def test_refinement_is_bounded(self, monkeypatch, tmp_path, capsys, cap, value):
        text, _ = self.NARROW[0]
        monkeypatch.setattr(cg, cap, value)
        with pytest.raises(QuadratureError, match="parallel affected area"):
            affected_area_parallel(draw_scenario(text))
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(text)
        assert cli.main(["eval", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("gase: numerical failure: parallel affected area")

    def test_dominates_single_footprints(self):
        for p2_dbm in (0.0, 20.0, 35.0):
            s = CognitiveScenario(ENV, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(p2_dbm),
                                  100.0, 100.0, 150.0, 150.0, 100.0, 1e-11)
            floor = max(affected_area_single(ENV, s.p1), affected_area_single(ENV, s.p2))
            assert affected_area_parallel(s) >= floor * (1.0 - 1e-9)


class TestCompositeGase:
    def test_limits_bracket_the_composite(self):
        s = fig6_scenario()
        eta_p2p = gase_p2p(P2pScenario(ENV, s.p1, s.d_p))["gase_bps_hz_m2"]
        tight = CognitiveScenario(ENV, s.p1, s.p2, s.d_p, s.d_s, s.d_sp, s.d_ps, s.d0, 1e-18)
        assert gase_cognitive(tight)["gase_bps_hz_m2"] == pytest.approx(eta_p2p, rel=0.005)
        loose = CognitiveScenario(ENV, s.p1, s.p2, s.d_p, s.d_s, s.d_sp, s.d_ps, s.d0, 1e3)
        assert gase_cognitive(loose)["gase_bps_hz_m2"] == pytest.approx(
            gase_x_channel(loose)["gase_bps_hz_m2"], rel=0.005)

    def test_between_bounds_across_sweep(self):
        s = fig6_scenario()
        eta_p2p = gase_p2p(P2pScenario(ENV, s.p1, s.d_p))["gase_bps_hz_m2"]
        eta_x = gase_x_channel(s)["gase_bps_hz_m2"]
        lo, hi = min(eta_x, eta_p2p), max(eta_x, eta_p2p)
        for i_dbm in range(-120, -39, 10):
            b = gase_cognitive(fig6_scenario(float(i_dbm)))
            assert lo - 1e-15 <= b["gase_bps_hz_m2"] <= hi + 1e-15

    def test_batch_takes_the_parallel_area_once_per_i_th_sweep(self, monkeypatch):
        scenarios = [fig6_scenario(float(i_dbm)) for i_dbm in range(-120, -39, 20)]
        alone = [gase_cognitive(s) for s in scenarios]
        calls = []

        def counting(s):
            calls.append(s)
            return affected_area_parallel(s)

        monkeypatch.setattr(cg, "affected_area_parallel", counting)
        assert cg.gase_cognitive_batch(scenarios) == alone
        assert len(calls) == 1
        # another d0 is another parallel area
        moved = CognitiveScenario(ENV, scenarios[0].p1, scenarios[0].p2, 100.0, 100.0, 150.0,
                                  150.0, 120.0, scenarios[0].i_th_w)
        cg.gase_cognitive_batch([moved, *scenarios])
        assert len(calls) == 3

    def test_batch_takes_the_i_th_free_forms_once_per_i_th_sweep(self, monkeypatch):
        # only P and the primary's joint term read i_th: the unconstrained
        # primary and the secondary integral are taken once, the joint one per
        # point, and the silent branch once
        scenarios = [fig6_scenario(float(i_dbm)) for i_dbm in range(-120, -39, 20)]
        alone = [gase_cognitive(s) for s in scenarios]
        integrals, silent = [], []
        integral, p2p = cg._interference_integral, cg.gase_p2p
        monkeypatch.setattr(cg, "_interference_integral",
                            lambda rho, n: integrals.append(rho) or integral(rho, n))
        monkeypatch.setattr(cg, "gase_p2p", lambda s: silent.append(s) or p2p(s))
        batch = cg.gase_cognitive_batch(scenarios)
        assert batch == alone
        assert len(integrals) == 2 + len(scenarios) and len(silent) == 1
        for s, c in zip(scenarios, batch):
            assert c["c_primary_bps_hz"] == primary_capacity_parallel(s)
            assert c["c_secondary_bps_hz"] == secondary_capacity_parallel(s)
            assert c["gase_x_bps_hz_m2"] == ((x_channel_primary_capacity(s)
                                               + secondary_capacity_parallel(s))
                                              / affected_area_parallel(s))

    def test_batch_takes_the_silent_branch_once_per_p2_sweep(self, monkeypatch):
        s = fig6_scenario()
        scenarios = [CognitiveScenario(ENV, s.p1, PowerLevel.from_dbm(p2_dbm), s.d_p, s.d_s,
                                       s.d_sp, s.d_ps, s.d0, s.i_th_w)
                     for p2_dbm in (0.0, 10.0, 20.0, 30.0)]
        alone = [gase_cognitive(s) for s in scenarios]
        integrals, silent = [], []
        integral, p2p = cg._interference_integral, cg.gase_p2p
        monkeypatch.setattr(cg, "_interference_integral",
                            lambda rho, n: integrals.append(rho) or integral(rho, n))
        monkeypatch.setattr(cg, "gase_p2p", lambda s: silent.append(s) or p2p(s))
        assert cg.gase_cognitive_batch(scenarios) == alone
        assert len(integrals) == 3 * len(scenarios) and len(silent) == 1

    def test_batch_recomputes_what_a_changed_input_reads(self):
        # each scenario differs from its predecessor in one input
        s = fig6_scenario()
        env = PropagationEnvironment.from_dbm(3.5, -100.0, -100.0)
        steps = [{}, {"i_th_w": 1e-12}, {"d_ps": 160.0}, {"d_sp": 140.0}, {"d_s": 90.0},
                 {"d_p": 110.0}, {"d0": 120.0}, {"env": env}, {"p1": PowerLevel.from_dbm(25.0)},
                 {"p2": PowerLevel.from_dbm(15.0)}, {"i_th_w": 1e-9}]
        fields = dict(vars(s))
        scenarios = []
        for step in steps:
            fields.update(step)
            scenarios.append(CognitiveScenario(**fields))
        assert cg.gase_cognitive_batch(scenarios) == [gase_cognitive(s) for s in scenarios]

    def test_sweep_takes_its_tight_means_in_one_quadrature_batch(self, monkeypatch):
        # the 41-point fig6 i_th sweep has 9 tight points, whose joint closed
        # form cancels: one integrate_batch takes all their means
        scenarios = preset_scenarios("fig6")
        alone = [gase_cognitive(s) for s in scenarios]
        calls, batch = [], cg.integrate_batch
        monkeypatch.setattr(cg, "integrate_batch",
                            lambda f, a, b, spec: calls.append(b) or batch(f, a, b, spec))
        rows = cg.gase_cognitive_batch(scenarios)
        assert rows == alone
        assert len(calls) == 1 and calls[0].tolist() == [s.i1 for s in scenarios[:9]]
        for s, row in zip(scenarios, rows):
            assert row["c_primary_bps_hz"] == primary_capacity_parallel(s)

    def test_batch_mixes_tight_loose_and_vanishing_probability_points(self, monkeypatch):
        # a tight point, a loose one, a point whose P underflows to 0 (the
        # uniform weight) and another tight one, each as it is alone
        env = PropagationEnvironment.from_dbm(4.0, -100.0, -100.0)
        p20 = PowerLevel.from_dbm(20.0)
        vanishing = CognitiveScenario(env, p20, p20, 1.0, 1.0, 1e-323, 1e-323, 1.0,
                                      dbm_to_watts(-80.0))
        assert prob_parallel(vanishing) == 0.0
        scenarios = [fig6_scenario(-120.0), fig6_scenario(-60.0), vanishing, fig6_scenario(-110.0)]
        alone = [gase_cognitive(s) for s in scenarios]
        calls, batch = [], cg.integrate_batch
        monkeypatch.setattr(cg, "integrate_batch",
                            lambda f, a, b, spec: calls.append(b.size) or batch(f, a, b, spec))
        rows = cg.gase_cognitive_batch(scenarios)
        assert rows == alone and calls == [3]
        for s, row in zip(scenarios, rows):
            assert row["c_primary_bps_hz"] == primary_capacity_parallel(s)

    def test_breakdown_components(self):
        c = gase_cognitive(fig6_scenario())
        parallel = (c["c_primary_bps_hz"] + c["c_secondary_bps_hz"]) / c["area_parallel_m2"]
        mix = c["p_parallel"] * parallel + (1 - c["p_parallel"]) * c["gase_p2p_bps_hz_m2"]
        assert c["gase_bps_hz_m2"] == pytest.approx(mix, rel=1e-14)
        assert c["se_total_bps_hz"] == pytest.approx(
            c["p_parallel"] * (c["c_primary_bps_hz"] + c["c_secondary_bps_hz"])
            + (1 - c["p_parallel"]) * c["c_p2p_bps_hz"], rel=1e-14)
