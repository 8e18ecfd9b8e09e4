"""Layer microbenchmarks, run after the traced passes so they add to no wall_s.

Each measurement calls a public function of the program on a fixed input and
reports the median of the repeats taken in the machine's fast state
(speed.fast_median).  A function that no longer exists is skipped and its
metrics are absent.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict

import numpy as np

import speed
import tracing

NODES = (1, 15, 1500)
MC_SAMPLES = 1 << 17
PREFIXES = ("mathkernel.scaled_e1.", "mathkernel.bessel_k0.", "mathkernel.bessel_k1.",
            "mathkernel.erfcx.", "quad.", "mc_oracle.samples_per_s.")


def provides(name: str) -> bool:
    """Whether a per-layer metric comes from these microbenchmarks."""
    return name.startswith(PREFIXES)


def _seconds(fn: Callable[[], object], min_batch_s: float = 0.02) -> float:
    """Time of one call in the machine's fast state, batching short calls."""
    start = speed.clock()
    fn()
    batch = max(1, int(min_batch_s / max(speed.clock() - start, 1e-7)))

    def calls():
        start = speed.clock()
        for _ in range(batch):
            fn()
        return (speed.clock() - start) / batch

    return speed.fast_median(calls)


def _special(out: Dict[str, float]):
    from gase import mathkernel as mk

    # scalar points sit in the series branch of K0/K1 and the continued
    # fraction of E1, the arrays span every branch
    inputs = {
        "scaled_e1": {1: 3.0, 15: np.geomspace(0.1, 20.0, 15), 1500: np.geomspace(0.1, 20.0, 1500)},
        "bessel_k0": {1: 1.0, 15: np.geomspace(0.05, 40.0, 15), 1500: np.geomspace(0.05, 40.0, 1500)},
        "bessel_k1": {1: 1.0, 15: np.geomspace(0.05, 40.0, 15), 1500: np.geomspace(0.05, 40.0, 1500)},
    }
    for name, by_n in inputs.items():
        fn = getattr(mk, name, None)
        if fn is None:
            continue
        for n in NODES:
            x = by_n[n]
            out[f"mathkernel.{name}.us_per_node.n{n}"] = 1e6 * _seconds(lambda: fn(x)) / n
    if hasattr(mk, "erfcx"):
        out["mathkernel.erfcx.us_per_call"] = 1e6 * _seconds(lambda: mk.erfcx(1.7))


def _quadrature(out: Dict[str, float]):
    from gase import cognitive_underlay as cg
    from gase import coop_threenode as coop
    from gase import relay_dualhop as relay
    from gase.propagation import PowerLevel, PropagationEnvironment

    env3 = PropagationEnvironment.from_dbm(4.0, -100.0, -90.0)
    env4 = PropagationEnvironment.from_dbm(4.0, -100.0, -80.0)
    env6 = PropagationEnvironment.from_dbm(4.0, -100.0, -100.0)
    cases = {}
    if hasattr(relay, "ergodic_capacity_af"):
        s = relay.DualHopScenario(env3, PowerLevel.from_dbm(30.0), PowerLevel.from_dbm(30.0),
                                  500.0, 500.0)
        cases["af_capacity"] = lambda: relay.ergodic_capacity_af(s)
    if hasattr(coop, "af_selection_integral"):
        c = coop.CoopScenario(env4, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(10.0),
                              1000.0, 500.0, 500.0)
        cases["coop_selection"] = lambda: coop.af_selection_integral(c)
    if hasattr(cg, "affected_area_parallel"):
        g = cg.CognitiveScenario(env6, PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0),
                                 100.0, 100.0, 150.0, 150.0, 100.0, 1e-11)
        cases["area_parallel"] = lambda: cg.affected_area_parallel(g)
    for name, fn in cases.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            fn()
        finally:
            tracer.restore()
        panels = sum(s[tracing.PANELS] for s in tracer.spans if s[tracing.NAME] == "mathkernel.integrate")
        if "mathkernel.integrate" not in tracer.absent:
            out[f"quad.{name}.panels"] = panels
        out[f"quad.{name}.ms"] = 1e3 * _seconds(fn)


def _samplers(out: Dict[str, float]):
    from gase import mc_oracle as mc
    from gase.cognitive_underlay import CognitiveScenario
    from gase.propagation import PowerLevel, PropagationEnvironment

    env = PropagationEnvironment.from_dbm(4.0, -100.0, -100.0)
    p1, p2 = PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0)
    cog = CognitiveScenario(env, p1, p2, 100.0, 100.0, 150.0, 150.0, 100.0, 1e-11)
    cfg = mc.McConfig(MC_SAMPLES, 7, 0)
    radius1, tail1 = mc.certified_disk_radius(env, p1)
    radius2, tail2 = mc.certified_disk_radius(env, p1.watts + p2.watts, d0=100.0)
    event = mc.McSampler(1, lambda u: mc.exponential_from_uniform(u[:, 0]) < 0.5)
    cases = {
        "p2p": lambda: mc.mc_ergodic_capacity(mc.p2p_snr_sampler(100.0), cfg),
        "df": lambda: mc.mc_ergodic_capacity(mc.df_snr_sampler(100.0, 50.0), cfg),
        "af_harmonic": lambda: mc.mc_ergodic_capacity(
            mc.af_snr_sampler(100.0, 50.0, exact=False), cfg),
        "af_exact": lambda: mc.mc_ergodic_capacity(mc.af_snr_sampler(100.0, 50.0), cfg),
        "primary_sinr": lambda: mc.mc_ergodic_capacity(mc.primary_sinr_sampler(cog), cfg),
        "secondary_sinr": lambda: mc.mc_ergodic_capacity(mc.secondary_sinr_sampler(cog), cfg),
        "single_field": lambda: mc.mc_affected_area(
            mc.single_source_field(env, p1), radius1, cfg, tail1, env.p_min_w),
        "two_source_field": lambda: mc.mc_affected_area(
            mc.two_source_field(env, p1, p2, 100.0), radius2, cfg, tail2, env.p_min_w),
        "coop_df": lambda: mc.mc_coop_summary(1.0, 100.0, 50.0, "df", cfg),
        "coop_af": lambda: mc.mc_coop_summary(1.0, 100.0, 50.0, "af", cfg),
        "mode_probability": lambda: mc.mc_mode_probability(event, cfg),
    }
    for name, fn in cases.items():
        out[f"mc_oracle.samples_per_s.{name}"] = MC_SAMPLES / _seconds(fn)


def run() -> Dict[str, float]:
    """Every microbenchmark whose functions exist; a missing one is skipped."""
    out: Dict[str, float] = {}
    for part in (_special, _quadrature, _samplers):
        try:
            part(out)
        except (AttributeError, ImportError, TypeError) as exc:
            print(f"bench: microbenchmark {part.__name__[1:]} skipped: {exc}", file=sys.stderr)
    return out
