"""Seeded Monte Carlo oracles that cross-check every closed form in the package.

Randomness comes from counter-based Philox streams keyed by
(seed, stream_id << 32 | chunk_index) with a fixed chunk size, so sample i
always receives the same underlying uniforms whatever the sample count.
Exponential fading gains are drawn by inverse cdf (-log1p(-u)).

Every estimator runs one chunk loop (_chunk_sums) on two threads: the caller
and one helper, started and joined within the estimate, each take the next
chunk, draw it in blocks of _BLOCK_VALUES = 2^15 uniforms and reduce each
block to its partial sums at once, so no buffer outlives a block.  The
threads run in parallel only inside numpy calls, which release the GIL, so
the samplers make few in-place passes over whole blocks.  The sums are added
in block order within a chunk, then in chunk order; a chunk's uniforms
depend only on its key and the per-sample arithmetic is elementwise, so
every McEstimate is bit-reproducible for a fixed McConfig and equals the one
of a plain loop that draws and evaluates each chunk whole and reduces it
block by block.

Spatial fields take polar coordinates: a field callback maps
(r, v, fading uniforms) to received power, where r is the distance from the
origin and v in [0, 1) is the angular uniform (angle 2*pi*v).  A source at
(d0, 0) is at distance sqrt((r - d0)^2 + 4 r d0 sin^2(pi v)) -- the law of
cosines with 1 - cos(2 pi v) = 2 sin^2(pi v), which cannot cancel -- so a
field needs at most one sin per sample and no cos or hypot.

Three oracle operations cover the package's closed forms: fading-averaged
capacity of an arbitrary SNR sampler, event probabilities for mode-selection
and interference-constraint predicates, and affected areas: the probability
that a point uniform on a certified bounding disk is covered, times the
disk's area.  Samplers for each scenario family are provided as
(draws-per-sample, vectorised map) pairs, and beside them ``CHECKS``, the
list of verify's checks of each scenario kind (README, "Verify checks").
The checks import the relay modules' protocol and density normalisations
where they use them, so the module itself needs only link_p2p and
propagation.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .link_p2p import LN2
from .propagation import PropagationEnvironment, affected_area_single, mean_snr, watts_of

__all__ = [
    "McConfig",
    "McEstimate",
    "McSampler",
    "TailCertificationError",
    "mc_ergodic_capacity",
    "mc_affected_area",
    "mc_mode_probability",
    "mc_coop_summary",
    "p2p_snr_sampler",
    "df_snr_sampler",
    "af_snr_sampler",
    "primary_sinr_sampler",
    "secondary_sinr_sampler",
    "single_source_field",
    "two_source_field",
    "certified_disk_radius",
    "TAIL_FRACTION_LIMIT",
    "CHECKS",
]

_CHUNK = 1 << 16
_BLOCK_VALUES = 1 << 15

TAIL_FRACTION_LIMIT = 1e-5

_EXPONENT_CUT = 45.0

_EPS = np.finfo(float).eps


class TailCertificationError(ValueError):
    """The bounding disk cannot certify a negligible excluded tail."""


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 42
    stream_id: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.samples > _CHUNK << 32:  # a chunk's index takes 32 bits of its key
            raise ValueError(f"samples must be at most {_CHUNK << 32} (2**32 chunks)")
        if not (0 <= self.stream_id < 2 ** 32):
            raise ValueError("stream_id must fit in 32 bits")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float

    def scaled(self, factor: float) -> "McEstimate":
        """Apply a deterministic scalar (e.g. the half-duplex 1/2)."""
        return McEstimate(self.mean * factor, self.std_error * abs(factor))


@dataclass(frozen=True)
class McSampler:
    """A vectorised map from per-sample uniforms to the quantity of interest.

    ``fn`` takes a (samples, draws_per_sample) array of uniforms; a spatial
    field for mc_affected_area instead takes (r, v, fading uniforms), with r
    the distance from the origin and v the angular uniform, and
    ``draws_per_sample`` counts only the fading columns.  ``fn`` must be a
    pure function of its arguments, which it must not write, and the float
    array it returns is the estimate's to overwrite.  It may run on the
    calling thread or on the estimate's helper thread, and each call gets one
    block of at most _BLOCK_VALUES uniforms of one chunk.
    """

    draws_per_sample: int
    fn: Callable[[np.ndarray], np.ndarray]


def _chunk_generator(cfg: McConfig, chunk_index: int) -> np.random.Generator:
    """Chunk ``chunk_index``'s Philox generator.  Successive ``random(out=...)``
    calls continue its stream: a chunk drawn in blocks has the bits of the
    chunk drawn whole, and sample i its uniforms whatever the sample count."""
    key = np.array(
        [np.uint64(cfg.seed % 2 ** 64),
         (np.uint64(cfg.stream_id) << np.uint64(32)) | np.uint64(chunk_index)],
        dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sums(cfg: McConfig, cols: int, evaluate, partials) -> List[float]:
    """Evaluate the sample stream block by block and total its partial sums.

    The calling thread and one helper each take the next chunk index from a
    shared counter and draw that chunk _BLOCK_VALUES // cols rows at a time
    into one block-sized buffer, which ``partials(*evaluate(block))`` reduces
    to a tuple of floats at once: blocks of a fixed number of uniforms keep
    the peak memory of the widest estimate and give narrow ones fewer numpy
    calls, each a hand-over of the GIL.  The tuples are added in block order
    within a chunk, and the chunks' sums in chunk order once the helper is
    joined.  The helper runs in a copy of the caller's context, numpy's error
    state included; the first exception of either worker stops both and is
    raised.
    """
    takes = [min(_CHUNK, cfg.samples - start) for start in range(0, cfg.samples, _CHUNK)]
    rows = _BLOCK_VALUES // max(cols, 1)
    slots = [None] * len(takes)
    chunks = iter(range(len(takes)))
    lock = threading.Lock()
    failed = []

    def work():
        try:
            u = np.empty((min(rows, takes[0]), cols))
            while not failed:
                with lock:
                    k = next(chunks, None)
                if k is None:
                    return
                draw, take = _chunk_generator(cfg, k).random, takes[k]
                for start in range(0, take, rows):
                    block = u[:min(rows, take - start)]
                    draw(out=block)
                    part = partials(*evaluate(block))
                    slots[k] = part if start == 0 else [t + x for t, x in zip(slots[k], part)]
        except BaseException as exc:  # raised by the caller once both workers are done
            failed.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    helper.start()
    try:
        work()
    finally:
        helper.join()
    if failed:
        raise failed[0]
    totals = [0.0] * len(slots[0])
    for part in slots:
        totals = [t + x for t, x in zip(totals, part)]
    return totals


def exponential_from_uniform(u: np.ndarray) -> np.ndarray:
    """Unit-mean exponential draw -log1p(-u) by inverse cdf; u in [0, 1)."""
    z = np.negative(u)
    return np.negative(np.log1p(z, out=z), out=z)


def _fading(u: np.ndarray, *scales: float) -> List[np.ndarray]:
    """exponential_from_uniform of each column of u times its scale, one per
    column, each a new 1-D array: on a column slice of a sample block, numpy's
    loop over the short rows costs about twice as much.  The outer negation
    goes into the scale, log1p(-u) * -scale, which is exact: the values are
    the same."""
    gains = [np.log1p(z, out=z) for z in map(np.negative, u.T)]
    return [np.multiply(g, -scale, out=g) for g, scale in zip(gains, scales, strict=True)]


def _estimate(total: float, total_sq: float, count: float) -> McEstimate:
    """Mean and standard error of ``count`` values from their sum and sum of squares."""
    if count == 0:
        return McEstimate(math.nan, math.nan)
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return McEstimate(mean, math.sqrt(var / count))


def _proportion(mean: float, count: int) -> McEstimate:
    """A hit fraction of ``count`` samples, with its error sqrt(p (1 - p) / n)."""
    p = min(max(mean, 0.0), 1.0)
    return McEstimate(mean, math.sqrt(p * (1.0 - p) / count))


# ---------------------------------------------------------------------------
# oracle operations
# ---------------------------------------------------------------------------

def mc_ergodic_capacity(snr_sampler: McSampler, cfg: McConfig) -> McEstimate:
    """Mean of log2(1 + gamma) over the sampler's SNR distribution.

    Any half-duplex factor is the caller's to apply (see McEstimate.scaled).
    """
    # log1p keeps the digits that log2(1 + gamma) loses at small gamma (it is 0 below 1.1e-16)
    def evaluate(u):
        c = snr_sampler.fn(u)
        return np.divide(np.log1p(c, out=c), LN2, out=c),

    total, total_sq = _chunk_sums(cfg, snr_sampler.draws_per_sample, evaluate,
                                  lambda c: (float(c.sum()), float(np.square(c, out=c).sum())))
    return _estimate(total, total_sq, cfg.samples)


def mc_mode_probability(event: McSampler, cfg: McConfig) -> McEstimate:
    """Binomial proportion of a predicate over the fading draws."""
    total, = _chunk_sums(cfg, event.draws_per_sample, lambda u: (event.fn(u),),
                         lambda v: (float(np.count_nonzero(v)),))
    return _proportion(total / cfg.samples, cfg.samples)


def mc_affected_area(power_field: McSampler, radius: float, cfg: McConfig,
                     tail_fraction: float, p_min_w: float) -> McEstimate:
    """The mode probability that a point uniform on a disk of the given radius
    receives at least ``p_min_w``, times the disk's area.

    ``power_field.fn`` maps (r, v, fading uniforms) to total received power,
    where r = radius * sqrt(u0) is the distance from the origin and v = u1 the
    angular uniform (angle 2*pi*v), so the point is uniform on the disk;
    ``tail_fraction`` is the caller's certified bound on the area excluded by
    the disk, refused above TAIL_FRACTION_LIMIT.
    """
    if not (tail_fraction >= 0):
        raise ValueError("tail_fraction must be >= 0")
    if tail_fraction > TAIL_FRACTION_LIMIT:
        raise TailCertificationError(
            f"certified excluded tail {tail_fraction:.2e} exceeds "
            f"{TAIL_FRACTION_LIMIT:.0e}; enlarge the bounding radius")

    def hit(u):
        # first two uniforms place the point uniformly on the disk
        return power_field.fn(radius * np.sqrt(u[:, 0]), u[:, 1], u[:, 2:]) >= p_min_w

    with np.errstate(over="ignore"):  # a path loss past the float range: 0 received power
        est = mc_mode_probability(McSampler(power_field.draws_per_sample + 2, hit), cfg)
    return est.scaled(math.pi * radius * radius)


def mc_coop_summary(gsd: float, gsr: float, grd: float, equivalent: str,
                    cfg: McConfig) -> Dict[str, McEstimate]:
    """Joint statistics of the three-node mode selection from shared draws.

    ``equivalent`` selects the relay-path SNR model of the closed forms:
    'df' (df_snr_sampler, the min of the hops) or 'af' (af_snr_sampler with
    exact=False, their harmonic mean).  Returns the direct-mode probability,
    the overall capacity E[C_inst], and the per-mode conditional capacities.
    """
    if equivalent not in ("df", "af"):
        raise ValueError("equivalent must be 'df' or 'af'")
    relay = (df_snr_sampler(gsr, grd) if equivalent == "df"
             else af_snr_sampler(gsr, grd, exact=False)).fn
    def draw(u):
        g_sd, = _fading(u[:, :1], gsd)
        g_eq = relay(u[:, 1:])
        g_direct = np.square(g_sd)
        g_direct += np.multiply(g_sd, 2.0, out=g_sd)
        direct = g_direct > g_eq
        # log1p keeps the digits that log2(1 + g) loses at small g
        c = np.log1p(np.maximum(g_direct, g_eq, out=g_direct), out=g_direct)
        c *= 0.5
        return np.divide(c, LN2, out=c), direct

    def partials(c_inst, direct):
        # each mode's values and 0 elsewhere, both exact for a finite c_inst
        cd = c_inst * direct
        cr = np.subtract(c_inst, cd, out=c_inst)
        n = float(np.count_nonzero(direct))
        return (n, float(cd.sum()), float(np.square(cd, out=cd).sum()),
                len(cr) - n, float(cr.sum()), float(np.square(cr, out=cr).sum()))

    n_d, c_d, c_d2, n_r, c_r, c_r2 = _chunk_sums(cfg, 3, draw, partials)
    return {
        "p_direct": _proportion(n_d / cfg.samples, cfg.samples),
        "c_inst": _estimate(c_d + c_r, c_d2 + c_r2, cfg.samples),
        "c_direct": _estimate(c_d, c_d2, n_d),
        "c_relay": _estimate(c_r, c_r2, n_r),
    }


# ---------------------------------------------------------------------------
# SNR samplers
# ---------------------------------------------------------------------------

def p2p_snr_sampler(mean_snr: float) -> McSampler:
    return McSampler(1, lambda u: _fading(u[:, :1], mean_snr)[0])


def df_snr_sampler(gsr: float, grd: float) -> McSampler:
    def fn(u):
        g1, g2 = _fading(u, gsr, grd)
        return np.minimum(g1, g2, out=g1)
    return McSampler(2, fn)


def af_snr_sampler(gsr: float, grd: float, exact: bool = True) -> McSampler:
    """AF equivalent SNR; exact=True keeps the +1 denominator."""
    def fn(u):
        g1, g2 = _fading(u, gsr, grd)
        den = g1 + g2
        den += 1.0 if exact else 0.0
        g1 *= g2
        return np.divide(g1, den, out=g1)
    return McSampler(2, fn)


def _interference_sinr_sampler(rho: float, n: float) -> McSampler:
    """z/(z'/rho + n) for two unit exponential gains: the SINR over the
    desired link's mean power, with the interference ratio rho and the
    normalised noise n of the closed forms.  It is 0 at rho = 0."""
    if rho == 0.0:
        return McSampler(2, lambda u: np.zeros(len(u)))

    def fn(u):
        z = exponential_from_uniform(u)
        with np.errstate(over="ignore"):  # z'/rho = inf at a subnormal rho: an SINR of 0
            x = z[:, 1] / rho
        x += n
        return np.divide(z[:, 0], x, out=x)

    return McSampler(2, fn)


def primary_sinr_sampler(s) -> McSampler:
    """Primary SINR conditioned on the interference constraint.

    In the closed forms' terms it is z_p/(x + n1), with x = z_sp/rho_p the
    normalised interference.  The interfering gain z_sp is drawn from the
    exponential truncated to the constraint event z_sp <= c by inverse cdf
    (no rejection), and x = i1 (z_sp/c), which tends to i1 u as c -> 0.
    Without a constraint (c = inf) the draw is the unconstrained one.
    """
    c = s.constraint_exponent
    if not c < math.inf:  # no constraint: c = inf (nan only where a ln d_sp is -inf)
        return _interference_sinr_sampler(s.rho_p, s.n1)
    n1, i1, cap = s.n1, s.i1, -math.expm1(-c)

    def fn(u):
        if c < _EPS:  # z_sp/c is u to within c/8
            x = u[:, 1] * i1
        else:
            x = np.multiply(u[:, 1], -cap)
            np.log1p(x, out=x)
            x /= -c
            x *= i1
        x += n1
        return np.divide(exponential_from_uniform(u[:, 0]), x, out=x)

    return McSampler(2, fn)


def secondary_sinr_sampler(s) -> McSampler:
    """Secondary SINR under unconstrained primary interference."""
    return _interference_sinr_sampler(s.rho_s, s.n2)


# ---------------------------------------------------------------------------
# spatial fields and tail certification
# ---------------------------------------------------------------------------

def single_source_field(env: PropagationEnvironment, p_t) -> McSampler:
    a = env.path_loss_exponent
    p = watts_of(p_t)

    def fn(r, v, u):
        g, = _fading(u[:, :1], p)
        d = np.maximum(r, 1e-12)
        return np.divide(g, np.power(d, a, out=d), out=g)

    return McSampler(1, fn)


def two_source_field(env: PropagationEnvironment, p1, p2, d0: float) -> McSampler:
    """Sum of received powers from sources at the origin and at (d0, 0).

    The second distance comes from the law of cosines in its cancellation-free
    form r2^2 = (r - d0)^2 + 4 r d0 sin^2(pi v); both distances are clamped
    at 1e-12 m.
    """
    a = env.path_loss_exponent
    w1, w2 = watts_of(p1), watts_of(p2)

    def fn(r, v, u):
        g1, g2 = _fading(u, w1, w2)
        # sin(pi v) = sin(pi (1 - v)), and 1 - v is exact for v >= 1/2: the
        # reflected argument keeps sin accurate to its last digit near v = 1
        s = np.subtract(1.0, v)
        np.sin(np.multiply(np.minimum(v, s, out=s), math.pi, out=s), out=s)
        s *= s
        s *= np.multiply(r, 4.0 * d0)
        r2_sq = np.subtract(r, d0)
        r2_sq *= r2_sq
        r2_sq += s
        d = np.maximum(r, 1e-12)
        g1 /= np.power(d, a, out=d)
        g2 /= np.power(np.maximum(r2_sq, 1e-24, out=r2_sq), 0.5 * a, out=r2_sq)
        return np.add(g1, g2, out=g1)

    return McSampler(2, fn)


def certified_disk_radius(env: PropagationEnvironment, total_power, d0: float = 0.0):
    """Bounding radius and a certified excluded-tail fraction.

    Radius d0 + (s * P_total / P_min)^(1/a), s = _EXPONENT_CUT, puts every
    excluded point at path-loss attenuation >= s relative to the threshold;
    the exceedance probability out there is below (1 + s) e^-s (Erlang-2
    bound), and a factor 100 covers the outer-area measure relative to the
    estimated area.  The certified bound is ~1e-16, far under the 1e-5
    acceptance line.
    """
    a = env.path_loss_exponent
    p = watts_of(total_power)
    s = _EXPONENT_CUT
    radius = d0 + (s * p / env.p_min_w) ** (1.0 / a)
    tail_fraction = 100.0 * (1.0 + s) * math.exp(-s)
    return radius, tail_fraction


# ---------------------------------------------------------------------------
# verify's checks, by scenario kind
# ---------------------------------------------------------------------------

def _band(name: str, closed: float, est: McEstimate):
    """A closed form against an oracle estimate, inside its 3-sigma band."""
    return name, closed, est.mean, est.std_error, 3.0 * est.std_error


def _area(env, power_field: McSampler, total_power, streams, d0: float = 0.0) -> McEstimate:
    radius, tail = certified_disk_radius(env, total_power, d0=d0)
    return mc_affected_area(power_field, radius, next(streams), tail, env.p_min_w)


def _p2p_checks(s, protocol, c, streams):
    yield _band("capacity_vs_mc", c["capacity_bps_hz"], mc_ergodic_capacity(
        p2p_snr_sampler(mean_snr(s.env, s.p_t, s.d)), next(streams)))
    yield _band("area_vs_spatial_mc", c["area_m2"],
                _area(s.env, single_source_field(s.env, s.p_t), s.p_t, streams))


def _dualhop_checks(s, protocol, c, streams):
    from .relay_dualhop import RelayProtocol
    gsr, grd, capacity = s.mean_snr_sr, s.mean_snr_rd, c["capacity_bps_hz"]
    if RelayProtocol.parse(protocol) is RelayProtocol.DF:
        yield _band("capacity_df_vs_mc", capacity, mc_ergodic_capacity(
            df_snr_sampler(gsr, grd), next(streams)).scaled(0.5))
    else:
        yield _band("capacity_af_vs_harmonic_mc", capacity, mc_ergodic_capacity(
            af_snr_sampler(gsr, grd, exact=False), next(streams)).scaled(0.5))
        # the harmonic-mean model of the +1-denominator SNR, in a 3% band
        est = mc_ergodic_capacity(af_snr_sampler(gsr, grd), next(streams)).scaled(0.5)
        yield "capacity_af_vs_exact_mc", capacity, est.mean, est.std_error, 0.03 * abs(est.mean)
    for hop, power in (("sr", s.p_s), ("rd", s.p_r)):
        yield _band(f"area_{hop}_vs_spatial_mc", c[f"area_{hop}_m2"],
                    _area(s.env, single_source_field(s.env, power), power, streams))


def _coop_checks(s, protocol, c, streams):
    from .coop_threenode import density_normalizations
    from .relay_dualhop import RelayProtocol
    protocol = RelayProtocol.parse(protocol)
    out = mc_coop_summary(s.mean_snr_sd, s.mean_snr_sr, s.mean_snr_rd, protocol.value,
                          next(streams))
    for name, key, column in (("p_direct_vs_mc", "p_direct", "p_direct"),
                              ("c_direct_vs_mc", "c_direct", "c_direct_bps_hz"),
                              ("c_relay_vs_mc", "c_relay", "c_relay_bps_hz"),
                              ("total_capacity_vs_mc", "c_inst", "capacity_bps_hz")):
        yield _band(name, c[column], out[key])
    for mode, total in zip(("direct", "relay"), density_normalizations(s, protocol)):
        yield f"density_{mode}_normalization", total, 1.0, 0.0, 1e-6


def _x_channel_checks(s, protocol, c, streams):
    par = c["area_parallel_m2"]
    yield _band("c_primary_vs_mc", c["c_primary_bps_hz"],
                mc_ergodic_capacity(primary_sinr_sampler(s), next(streams)))
    yield _band("c_secondary_vs_mc", c["c_secondary_bps_hz"],
                mc_ergodic_capacity(secondary_sinr_sampler(s), next(streams)))
    yield _band("area_parallel_vs_spatial_mc", par, _area(
        s.env, two_source_field(s.env, s.p1, s.p2, s.d0), s.p1.watts + s.p2.watts, streams, s.d0))
    floor = max(affected_area_single(s.env, s.p1), affected_area_single(s.env, s.p2))
    yield "area_parallel_ge_singles", max(par, floor), par, 0.0, 1e-9 * par


def _cognitive_checks(s, protocol, c, streams):
    # parallel transmission is allowed while the unit exponential gain stays below c
    event = McSampler(1, lambda u: exponential_from_uniform(u[:, 0]) < s.constraint_exponent)
    yield _band("p_parallel_vs_mc", c["p_parallel"], mc_mode_probability(event, next(streams)))
    yield from _x_channel_checks(s, protocol, c, streams)


# verify's rows (name, closed form, oracle mean, oracle std error, tolerance)
# by kind: CHECKS[kind](s, protocol, s's closed-form CSV row, streams) makes
# each as it is reached, each Monte Carlo estimate on the next McConfig of streams
CHECKS = {"p2p": _p2p_checks, "dualhop": _dualhop_checks, "coop": _coop_checks,
          "cognitive": _cognitive_checks, "xchannel": _x_channel_checks}
