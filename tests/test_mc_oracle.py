"""Determinism, convergence, and reference behaviour of the Monte Carlo oracles."""

import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from gase import mc_oracle
from gase.mc_oracle import (McConfig, McSampler, TailCertificationError,
                            af_snr_sampler, certified_disk_radius, df_snr_sampler,
                            exponential_from_uniform, mc_affected_area, mc_coop_summary,
                            mc_ergodic_capacity, mc_mode_probability, p2p_snr_sampler,
                            single_source_field, two_source_field)
from gase.propagation import PowerLevel, PropagationEnvironment, affected_area_single
from gase.mathkernel import QuadratureSpec, integrate_semi_infinite, scaled_e1

LN2 = math.log(2.0)
ENV4 = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)


class TestDeterminism:
    def test_bitwise_reproducible(self):
        cfg = McConfig(samples=300_000, seed=1234, stream_id=7)
        a = mc_ergodic_capacity(p2p_snr_sampler(10.0), cfg)
        b = mc_ergodic_capacity(p2p_snr_sampler(10.0), cfg)
        assert a == b

    def test_streams_are_distinct(self):
        a = mc_ergodic_capacity(p2p_snr_sampler(10.0), McConfig(100_000, 5, 0))
        b = mc_ergodic_capacity(p2p_snr_sampler(10.0), McConfig(100_000, 5, 1))
        assert a.mean != b.mean

    def test_sample_prefix_stability(self, monkeypatch):
        # sample i depends only on (seed, stream, i), not on the total count;
        # both counts end mid-chunk, and 70,000 ends where 140,000 has a full chunk
        seen = {n: drawn_uniforms(monkeypatch, McConfig(n, 9, 3), 2) for n in (70_000, 140_000)}
        assert seen[70_000].shape == (70_000, 2)
        np.testing.assert_array_equal(seen[140_000][:70_000], seen[70_000])
        # the stream layout: chunk k of stream s is Philox keyed (seed, s << 32 | k)
        chunk1 = np.random.Generator(np.random.Philox(key=[9, (3 << 32) | 1]))
        np.testing.assert_array_equal(seen[70_000][1 << 16:], chunk1.random((4_464, 2)))

    def test_exponential_inverse_cdf_mean(self):
        u = np.linspace(0.0, 1.0, 100_001)[:-1]
        z = exponential_from_uniform(u)
        assert z.min() == 0.0
        assert z.mean() == pytest.approx(1.0, abs=2e-4)


def chunk_uniforms(cfg, cols):
    """Each chunk's uniforms, drawn whole: chunk k of stream s is Philox keyed
    (seed, s << 32 | k)."""
    for k, start in enumerate(range(0, cfg.samples, 1 << 16)):
        key = [cfg.seed, (cfg.stream_id << 32) | k]
        yield np.random.Generator(np.random.Philox(key=key)).random(
            (min(1 << 16, cfg.samples - start), cols))


def drawn_uniforms(monkeypatch, cfg, cols):
    """The uniforms that a mode-probability estimate draws, in stream order.

    Each chunk's generator records the blocks drawn from it; one thread draws
    a chunk's blocks in order, so they concatenate to the chunk."""
    blocks = {}
    generator = mc_oracle._chunk_generator

    class Recording:
        def __init__(self, cfg, chunk_index):
            self.gen = generator(cfg, chunk_index)
            self.blocks = blocks.setdefault(chunk_index, [])

        def random(self, out):
            self.gen.random(out=out)
            self.blocks.append(out.copy())

    monkeypatch.setattr(mc_oracle, "_chunk_generator", Recording)
    mc_mode_probability(McSampler(cols, lambda u: u[:, 0] < 0.25), cfg)
    monkeypatch.undo()
    return np.concatenate([np.concatenate(blocks[k]) for k in sorted(blocks)])


def plain_chunk_sums(cfg, cols, evaluate, partials):
    """The chunk loop without a helper thread: each chunk is drawn and
    evaluated whole in one call, then reduced 8,192 rows at a time; the block
    sums are added in block order and the chunk sums in chunk order."""
    totals = None
    for u in chunk_uniforms(cfg, cols):
        values = evaluate(u)
        chunk = None
        for start in range(0, len(u), 1 << 13):
            part = partials(*(v[start:start + (1 << 13)] for v in values))
            chunk = part if chunk is None else [t + x for t, x in zip(chunk, part)]
        totals = [t + x for t, x in zip(totals or [0.0] * len(chunk), chunk)]
    return totals


_P = PowerLevel(0.05)
_RADIUS, _TAIL = certified_disk_radius(ENV4, 2 * _P.watts, d0=150.0)
ESTIMATORS = {
    "capacity_p2p": lambda cfg: mc_ergodic_capacity(p2p_snr_sampler(3.0), cfg),
    "capacity_af": lambda cfg: mc_ergodic_capacity(af_snr_sampler(2.0, 5.0), cfg),
    "capacity_af_harmonic": lambda cfg: mc_ergodic_capacity(
        af_snr_sampler(2.0, 5.0, exact=False), cfg),
    "capacity_df": lambda cfg: mc_ergodic_capacity(df_snr_sampler(2.0, 5.0), cfg),
    "mode_probability": lambda cfg: mc_mode_probability(
        McSampler(2, lambda u: u[:, 0] < 0.3 * u[:, 1]), cfg),
    "area_single": lambda cfg: mc_affected_area(
        single_source_field(ENV4, _P), _RADIUS, cfg, _TAIL, ENV4.p_min_w),
    "area_two_source": lambda cfg: mc_affected_area(
        two_source_field(ENV4, _P, _P, 150.0), _RADIUS, cfg, _TAIL, ENV4.p_min_w),
    **{f"coop_{eq}": (lambda eq: lambda cfg: mc_coop_summary(0.4, 2.0, 3.0, eq, cfg))(eq)
       for eq in ("df", "af")},
}


class TestChunkLoop:
    @pytest.mark.parametrize("samples", [1, 8_191, 8_192, 8_193, 65_535, 65_536, 65_537,
                                         140_000])
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_blocked_equals_plain(self, monkeypatch, estimator, samples):
        cfg = McConfig(samples, 31, 5)
        blocked = ESTIMATORS[estimator](cfg)
        monkeypatch.setattr(mc_oracle, "_chunk_sums", plain_chunk_sums)
        plain = ESTIMATORS[estimator](cfg)
        # repr is exact for floats and, unlike ==, equates a NaN with itself
        # (an empty conditional mode of mc_coop_summary)
        assert repr(blocked) == repr(plain)

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_an_estimate_holds_no_chunk_sized_buffer(self, estimator):
        # each of the two threads holds one block of uniforms and the block's
        # temporaries: 0.4-1.6 MiB in all, against 1.4-2.7 MiB with chunk-sized buffers
        tracemalloc.start()
        try:
            ESTIMATORS[estimator](McConfig(1 << 17, 31, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_callbacks_get_each_block_once_and_a_chunk_in_order_on_one_thread(self):
        baseline = threading.active_count()
        calls = []

        def record(u):
            calls.append((threading.get_ident(), u.copy()))
            return u[:, 0]

        cfg = McConfig(140_000, 9, 3)
        mc_ergodic_capacity(McSampler(2, record), cfg)
        assert threading.active_count() == baseline
        # every call is one whole block of one chunk, and the calls cover the stream once
        blocks = {chunk[start:start + (1 << 13)].tobytes(): (k, start)
                  for k, chunk in enumerate(chunk_uniforms(cfg, 2))
                  for start in range(0, len(chunk), 1 << 13)}
        got = [(blocks[u.tobytes()], ident) for ident, u in calls]
        assert sorted(place for place, _ in got) == sorted(blocks.values())
        # one thread evaluates a chunk's blocks in order; at most two threads in all
        for k in {k for (k, _), _ in got}:
            mine = [(start, ident) for (chunk, start), ident in got if chunk == k]
            assert [start for start, _ in mine] == sorted(start for start, _ in mine)
            assert len({ident for _, ident in mine}) == 1
        assert len({ident for _, ident in got}) <= 2

    def test_the_helper_keeps_the_callers_numpy_error_state(self):
        # the caller's first block waits until the helper has taken a chunk,
        # and only the helper overflows: errstate(over="raise") must reach it
        caller = threading.get_ident()
        helper_started, waited = threading.Event(), []

        def overflow_off_the_caller(u):
            if threading.get_ident() != caller:
                helper_started.set()
                return np.exp(np.full(len(u), 1e3))
            if not waited:
                waited.append(helper_started.wait(timeout=10))
            return u[:, 0]

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            mc_ergodic_capacity(McSampler(1, overflow_off_the_caller), McConfig(3 << 16, 9, 3))
        # the caller evaluates nothing if the helper has failed before it starts
        assert helper_started.is_set() and False not in waited

    @pytest.mark.parametrize("fail_at", [0, 70_000, 139_999])
    def test_a_raising_callback_leaves_no_thread(self, fail_at):
        baseline = threading.active_count()
        error = RuntimeError("sampler failed")
        seen = [0]

        def failing(u):
            seen[0] += len(u)
            if seen[0] > fail_at:
                raise error
            return u[:, 0]

        with pytest.raises(RuntimeError) as excinfo:
            mc_ergodic_capacity(McSampler(1, failing), McConfig(140_000, 9, 3))
        assert excinfo.value is error
        assert threading.active_count() == baseline

    def test_concurrent_callers_with_fast_switching(self):
        # four estimates at once, each with its own helper, and a thread switch
        # every 10 us: a chunk read before its fill completes, or refilled
        # while still in use, would change an estimate
        names = ("area_two_source", "capacity_af", "coop_af", "mode_probability")
        cfg = McConfig(300_000, 17, 2)
        expected = {name: repr(ESTIMATORS[name](cfg)) for name in names}
        got = {}
        callers = [threading.Thread(target=lambda n=n: got.update({n: repr(ESTIMATORS[n](cfg))}))
                   for n in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == expected

    def test_a_failed_draw_reaches_the_caller(self, monkeypatch):
        baseline = threading.active_count()
        error = MemoryError("draw failed")
        generator = mc_oracle._chunk_generator

        class FailingDraw:
            def random(self, out):
                raise error

        def failing(cfg, chunk_index):
            return FailingDraw() if chunk_index == 2 else generator(cfg, chunk_index)

        monkeypatch.setattr(mc_oracle, "_chunk_generator", failing)
        with pytest.raises(MemoryError) as excinfo:
            mc_ergodic_capacity(p2p_snr_sampler(1.0), McConfig(200_000, 9, 3))
        assert excinfo.value is error
        assert threading.active_count() == baseline


class TestErgodicCapacity:
    def test_constant_sampler_exact(self):
        est = mc_ergodic_capacity(McSampler(1, lambda u: np.full(len(u), 3.0)),
                                  McConfig(10_000, 1))
        assert est.mean == 2.0
        assert est.std_error == 0.0

    def test_rayleigh_matches_closed_form(self):
        est = mc_ergodic_capacity(p2p_snr_sampler(10.0), McConfig(1_000_000, 11))
        closed = scaled_e1(0.1) / LN2
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_df_sampler_with_half_duplex_scaling(self):
        est = mc_ergodic_capacity(df_snr_sampler(10.0, 10.0), McConfig(1_000_000, 12)).scaled(0.5)
        closed = scaled_e1(0.2) / (2.0 * LN2)
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_af_exact_below_df(self):
        df = mc_ergodic_capacity(df_snr_sampler(8.0, 14.0), McConfig(200_000, 13))
        af = mc_ergodic_capacity(af_snr_sampler(8.0, 14.0, exact=True), McConfig(200_000, 13))
        assert af.mean < df.mean

    def test_convergence_rate(self):
        small = mc_ergodic_capacity(p2p_snr_sampler(5.0), McConfig(100_000, 21))
        large = mc_ergodic_capacity(p2p_snr_sampler(5.0), McConfig(400_000, 21))
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_convergence_rate_all_oracles(self):
        # quadrupling samples halves the standard error for each oracle kind
        event = McSampler(1, lambda u: u[:, 0] < 0.3)
        p_small = mc_mode_probability(event, McConfig(100_000, 22))
        p_large = mc_mode_probability(event, McConfig(400_000, 22))
        assert p_small.std_error / p_large.std_error == pytest.approx(2.0, rel=0.2)

        p = PowerLevel(0.01)
        radius, tail = certified_disk_radius(ENV4, p)
        field = single_source_field(ENV4, p)
        a_small = mc_affected_area(field, radius, McConfig(100_000, 23), tail, ENV4.p_min_w)
        a_large = mc_affected_area(field, radius, McConfig(400_000, 23), tail, ENV4.p_min_w)
        assert a_small.std_error / a_large.std_error == pytest.approx(2.0, rel=0.2)


class TestModeProbability:
    def test_always_true(self):
        est = mc_mode_probability(McSampler(1, lambda u: np.ones(len(u), dtype=bool)),
                                  McConfig(10_000, 2))
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_interference_constraint_event(self):
        # secondary at 20 dBm, 150 m interference link, a = 4, i_th = -80 dBm
        interference = 0.1 / 150.0 ** 4
        i_th = 1e-11
        event = McSampler(1, lambda u: interference * exponential_from_uniform(u[:, 0]) < i_th)
        est = mc_mode_probability(event, McConfig(1_000_000, 3))
        closed = -math.expm1(-i_th / interference)
        assert closed == pytest.approx(0.04936490814130157, rel=1e-10)
        assert abs(est.mean - closed) <= 3.0 * est.std_error


class TestAffectedArea:
    def test_deterministic_disk(self):
        # no fading: power P/r^4 exceeds p_min inside radius (P/p_min)^(1/4)
        field = McSampler(0, lambda r, v, u: 1.0 / r ** 4)
        expected = math.pi * (1.0 / ENV4.p_min_w) ** 0.5
        radius = 2.0 * (1.0 / ENV4.p_min_w) ** 0.25
        est = mc_affected_area(field, radius, McConfig(400_000, 4), 0.0, ENV4.p_min_w)
        assert abs(est.mean - expected) <= 3.0 * est.std_error

    def test_single_rayleigh_source(self):
        p = PowerLevel(1e9 * ENV4.p_min_w)
        radius, tail = certified_disk_radius(ENV4, p)
        est = mc_affected_area(single_source_field(ENV4, p), radius,
                               McConfig(1_000_000, 5), tail, ENV4.p_min_w)
        closed = affected_area_single(ENV4, p)
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_two_source_collapse_matches_erlang_quadrature(self):
        p = PowerLevel(0.05)
        field = two_source_field(ENV4, p, p, d0=0.0)
        radius, tail = certified_disk_radius(ENV4, 2 * p.watts)
        est = mc_affected_area(field, radius, McConfig(600_000, 6), tail, ENV4.p_min_w)

        def erlang_tail(r):
            x = ENV4.p_min_w * r ** 4 / p.watts
            return (1.0 + x) * np.exp(-x) * r

        scale = (p.watts / ENV4.p_min_w) ** 0.25
        ref = 2 * math.pi * integrate_semi_infinite(
            erlang_tail, QuadratureSpec(1e-10, 1e-14), scale=scale).value
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    @pytest.mark.parametrize("d0", [250.0, 0.0])
    def test_two_source_polar_matches_cartesian(self, d0):
        # the law-of-cosines field against the hypot form at 50 digits
        env = PropagationEnvironment.from_dbm(3.7, -100.0, -90.0)
        w1, w2 = 0.1, 0.03
        rng = np.random.default_rng(17)
        r = list(3.0 * max(d0, 1.0) * np.sqrt(rng.random(200)))
        v = list(rng.random(200))
        for axis in (0.0, 0.5):                      # both sides of the source axis
            r += [0.5 * d0, d0, 2.0 * d0, 1e-13]
            v += [axis] * 4
        for offset in (1e-6, 1e-9):                  # around the second source
            for phi in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
                x = d0 * (1.0 + offset * math.cos(phi))
                y = d0 * offset * math.sin(phi)
                r.append(math.hypot(x, y))
                v.append(math.atan2(y, x) / (2.0 * math.pi) % 1.0)
        r, v = np.array(r), np.array(v)
        u = rng.random((len(r), 2))
        got = two_source_field(env, PowerLevel(w1), PowerLevel(w2), d0).fn(r, v, u)

        with mpmath.workdps(50):
            def cartesian(r, v, u):
                r, theta = mpmath.mpf(r), 2 * mpmath.pi * mpmath.mpf(v)
                x, y = r * mpmath.cos(theta), r * mpmath.sin(theta)
                r1 = max(mpmath.hypot(x, y), mpmath.mpf(1e-12))
                r2 = max(mpmath.hypot(x - d0, y), mpmath.mpf(1e-12))
                z = [-mpmath.log1p(-mpmath.mpf(c)) for c in u]
                return float(w1 * z[0] / r1 ** 3.7 + w2 * z[1] / r2 ** 3.7)

            ref = np.array([cartesian(*point) for point in zip(r, v, u)])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13

    def test_tail_certification_refusal(self):
        field = single_source_field(ENV4, PowerLevel(1.0))
        with pytest.raises(TailCertificationError):
            mc_affected_area(field, 100.0, McConfig(1000, 7), 1e-3, ENV4.p_min_w)

    def test_certified_radius_bound_is_tiny(self):
        _, tail = certified_disk_radius(ENV4, PowerLevel(1.0))
        assert tail < 1e-10


class TestCoopSummary:
    def test_mixture_identity(self):
        # P_d E[C|d] + P_r E[C|r] == E[C] holds exactly on shared draws
        out = mc_coop_summary(10.0, 10.0, 10.0, "df", McConfig(200_000, 8))
        mix = (out["p_direct"].mean * out["c_direct"].mean
               + (1 - out["p_direct"].mean) * out["c_relay"].mean)
        assert mix == pytest.approx(out["c_inst"].mean, rel=1e-12)

    def test_reproducible(self):
        a = mc_coop_summary(5.0, 8.0, 12.0, "af", McConfig(100_000, 9))
        b = mc_coop_summary(5.0, 8.0, 12.0, "af", McConfig(100_000, 9))
        assert a == b

    def test_only_the_closed_forms_relay_models(self):
        with pytest.raises(ValueError, match="'df' or 'af'"):
            mc_coop_summary(1.0, 1.0, 1.0, "af-exact", McConfig(10, 1))


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            McConfig(samples=0)
        with pytest.raises(ValueError):
            McConfig(samples=10, stream_id=2 ** 32)

    def test_estimate_scaling(self):
        est = mc_ergodic_capacity(p2p_snr_sampler(2.0), McConfig(50_000, 14))
        half = est.scaled(0.5)
        assert half.mean == est.mean * 0.5
        assert half.std_error == est.std_error * 0.5
