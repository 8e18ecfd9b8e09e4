"""Seeded inputs for the four benchmark workloads, and the code that runs one op.

A workload is a fixed list of *slots*.  Each slot names a figure preset used
as a template and the command to run on it.  A sweep covers the preset's own
range at its own point count (61, or 41 for fig6); an eval takes one point of
a stratum of that range.  Every slot has ``CANDIDATES`` pre-drawn variants
(the AF optimiser slot has one) whose outputs at the commit that defined the
benchmark are stored in ``reference.json.gz``; the ``--seed`` argument only
picks one candidate per slot.  So any seed yields inputs that have reference
outputs, and because every seed covers every template over its whole range,
the amount of work per pass barely depends on the seed.

An op is one ``gase.cli.main`` call with ``--workers 1`` on a generated
config file, except for ``optimize_af``: the CLI's fixed 10-decade AF box
takes over 40 s, so that op parses the generated config with
``gase.config.parse_config`` and calls
``gase.relay_dualhop.optimize_relay_powers`` on a 5 dB box around the optimum.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import speed

WORKLOADS = ("sweep_closed", "sweep_quad", "verify_mc", "optimize_power")

CANDIDATES = 4          # pre-recorded variants per slot
MASTER_SEED = 20141402  # fixes the candidate pool; changing it needs a new reference

VERIFY_FLAGS = ("--seed", "7", "--samples", "1000000")  # the CLI's default count
AF_SPAN_DECADES = 0.5
AF_TOL = 3e-2

# The six figure presets of gase.config, copied so that the inputs stay fixed
# when the program changes.  fig7b shares fig7a's parameters.
PRESETS = {
    "fig1": dict(kind="p2p", env=(4.0, -100.0, -90.0), geom={"d": 1000.0},
                 power={"p_t_dbm": 30.0}, sweep=("p_t_dbm", -10.0, 50.0, 61)),
    "fig3": dict(kind="dualhop", env=(4.0, -100.0, -90.0),
                 geom={"d_sr": 500.0, "d_rd": 500.0, "d_sd": 1000.0, "theta": 0.0},
                 power={"p_s_dbm": 30.0, "p_r_dbm": 30.0}, protocol="df",
                 sweep=("p_t_dbm", -10.0, 50.0, 61)),
    "fig4": dict(kind="coop", env=(4.0, -100.0, -80.0),
                 geom={"d_sd": 1000.0, "d_sr": 500.0, "d_rd": 500.0, "theta": 0.0},
                 power={"p_s_dbm": 20.0, "p_r_dbm": 10.0}, protocol="df",
                 sweep=("p_s_dbm", -10.0, 50.0, 61)),
    "fig6": dict(kind="cognitive", env=(4.0, -100.0, -100.0),
                 geom={"d_p": 100.0, "d_s": 100.0, "d_sp": 150.0, "d_ps": 150.0, "d0": 100.0},
                 power={"p1_dbm": 20.0, "p2_dbm": 20.0}, i_th=-80.0,
                 sweep=("i_th_dbm", -120.0, -40.0, 41)),
    "fig7a": dict(kind="cognitive", env=(4.0, -100.0, -100.0),
                  geom={"d_p": 100.0, "d_s": 100.0, "d_sp": 250.0, "d_ps": 250.0, "d0": 250.0},
                  power={"p1_dbm": 20.0, "p2_dbm": 10.0}, i_th=-80.0,
                  sweep=("p2_dbm", -10.0, 50.0, 61)),
}
PRESETS["fig7b"] = PRESETS["fig7a"]

_GEOM_ORDER = ("d", "d_sr", "d_rd", "d_sd", "d_p", "d_s", "d_sp", "d_ps", "d0", "theta")


@dataclass(frozen=True)
class Slot:
    template: str
    command: str                    # eval | sweep | optimize | verify | optimize_af
    stratum: int = 0                # an eval's point lies in stratum k of ``strata``
    strata: int = 1                 # equal parts of the preset's swept range
    flags: Tuple[str, ...] = ()     # extra CLI flags (--kind, --protocol, ...)
    candidates: int = CANDIDATES


@dataclass(frozen=True)
class Op:
    key: str                        # "<slot>.<candidate>", the reference key
    command: str
    kind: str                       # scenario kind the program evaluates
    protocol: Optional[str]
    config_text: str
    flags: Tuple[str, ...]


@dataclass
class OpResult:
    rc: int
    out: str
    err: str
    seconds: float                          # wall time on speed.clock
    samples: List[float] = field(default_factory=list)   # slowness during the op

    def fast(self, c: float) -> float:
        """Seconds at slowness 1 for program sensitivity c (speed.py)."""
        return self.seconds * speed.rate(self.samples, c) if self.samples else self.seconds


def _slots() -> Dict[str, List[Slot]]:
    def strata(template, command, n, flags=()):
        return [Slot(template, command, k, n, flags) for k in range(n)]

    p2p = ("--kind", "p2p")
    af = ("--protocol", "af")
    return {
        # op_p50_ms of these 18 ops falls on the two p2p optimize ops (about
        # 6 ms), clear of the 2 ms evals below and the 12 ms fig6 evals above
        "sweep_closed": (
            [Slot("fig1", "sweep"), Slot("fig3", "sweep"), Slot("fig3", "sweep", flags=p2p),
             Slot("fig4", "sweep"), Slot("fig4", "sweep", flags=p2p), Slot("fig6", "sweep")]
            + strata("fig1", "eval", 3) + strata("fig3", "eval", 3)
            + strata("fig4", "eval", 2) + strata("fig6", "eval", 2)
            + strata("fig1", "optimize", 2)),
        "sweep_quad": [Slot("fig3", "sweep", flags=af), Slot("fig4", "sweep", flags=af),
                       Slot("fig7a", "sweep"),
                       Slot("fig7a", "sweep", flags=("--kind", "xchannel"))],
        "verify_mc": [
            Slot(t, "verify", flags=VERIFY_FLAGS + extra)
            for t, extra in (("fig1", ()), ("fig3", ()), ("fig3", af), ("fig4", ()),
                             ("fig4", af), ("fig6", ()), ("fig7a", ()), ("fig7b", ()))],
        # Three DF ops put op_p50_ms inside the DF cluster, clear of the AF op.
        # The AF op is one fixed config: nearby AF inputs take different
        # coordinate-descent paths and cost from 2.8 to 3.4 s, which a seeded
        # AF op would carry into wall_s.
        "optimize_power": ([Slot("fig3", "optimize")] * 3
                           + [Slot("fig3", "optimize_af", candidates=1)]),
    }


SLOTS = _slots()


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _render(kind, env, geom, power, protocol=None, i_th=None, sweep=None,
            p_max=None) -> str:
    a, noise, p_min = env
    lines = [f"scenario.kind = {kind}",
             f"env.path_loss_exponent = {_fmt(a)}",
             f"env.noise_dbm = {_fmt(noise)}",
             f"env.p_min_dbm = {_fmt(p_min)}"]
    lines += [f"geom.{k} = {_fmt(geom[k])}" for k in _GEOM_ORDER if k in geom]
    lines += [f"power.{k} = {_fmt(v)}" for k, v in power.items()]
    if protocol is not None:
        lines.append(f"protocol.relay = {protocol}")
    if i_th is not None:
        lines.append(f"threshold.i_th_dbm = {_fmt(i_th)}")
    if sweep is not None:
        param, start, stop, points = sweep
        lines += [f"sweep.parameter = {param}", f"sweep.start = {_fmt(start)}",
                  f"sweep.stop = {_fmt(stop)}", f"sweep.points = {points}",
                  "sweep.spacing = linear"]
    if p_max is not None:
        lines.append(f"optimize.p_max_dbm = {_fmt(p_max)}")
    return "\n".join(lines) + "\n"


def _window(rng, lo, hi, k, n):
    """A sub-window of stratum k of n on [lo, hi]; the strata tile the range."""
    w = (hi - lo) / n
    return lo + (k + rng.uniform(0.0, 0.1)) * w, lo + (k + 1 - rng.uniform(0.0, 0.1)) * w


def _candidate(workload: str, slot_index: int, slot: Slot, j: int) -> Op:
    rng = np.random.default_rng([MASTER_SEED, WORKLOADS.index(workload), slot_index, j])
    t = PRESETS[slot.template]
    a, noise, p_min = t["env"]
    # Small jitter around the preset: the program's cost jumps where inputs
    # cross a regime (fig7a's area needs 3x the panels once p2 < p1 - 27 dB),
    # so wide jitter would make the work per pass depend on the seed.
    scale = rng.uniform(0.95, 1.05)
    env = (a, noise + rng.uniform(-0.5, 0.5), p_min + rng.uniform(-0.5, 0.5))
    dpow = rng.uniform(-1.0, 1.0)
    # a common scale keeps the cognitive triangle bounds; the 2% per-distance
    # jitter stays inside them for both cognitive templates
    geom = {k: (v if k == "theta" else v * scale * rng.uniform(0.98, 1.02))
            for k, v in t["geom"].items()}
    power = {k: v + dpow for k, v in t["power"].items()}
    protocol = t.get("protocol")
    i_th = t.get("i_th")
    param, lo, hi, points = t["sweep"]
    sweep = p_max = None

    if slot.command == "sweep":
        sweep = (param, lo, hi, points)
    elif slot.command == "eval":
        value = _window(rng, lo, hi, slot.stratum, slot.strata)[0]
        if param == "i_th_dbm":
            i_th = value
        elif param == "p_t_dbm" and t["kind"] == "dualhop":
            power = {"p_s_dbm": value, "p_r_dbm": value}
        else:
            power[param] = value
    elif slot.command == "optimize" and t["kind"] == "dualhop":
        p_max = 40.0
    elif slot.command == "optimize_af":
        # symmetric hops: a 4% asymmetry already splits the two optimal powers
        # by about 3 dB, out of a 5 dB box.  The fig3 optimum is 18.6 dBm per
        # hop at 500 m, a = 4, noise -100 dBm, and scales as d^a * N.
        d = geom["d_sr"]
        geom = {"d_sr": d, "d_rd": d}
        opt_dbm = 18.6 + 10.0 * a * np.log10(d / 500.0) + (env[1] + 100.0)
        p_max = opt_dbm + rng.uniform(1.75, 2.25)
        protocol = "af"

    text = _render(t["kind"], env, geom, power, protocol, i_th, sweep, p_max)
    kind = t["kind"]
    flags = slot.flags
    if "--kind" in flags:
        kind = flags[flags.index("--kind") + 1]
    if "--protocol" in flags:
        protocol = flags[flags.index("--protocol") + 1]
    if kind not in ("dualhop", "coop"):
        protocol = None
    return Op(f"{slot_index:02d}.{j}", slot.command, kind, protocol, text, flags)


def generate(workload: str, seed: int) -> List[Op]:
    """The op list of one pass: one seeded candidate per slot, in slot order."""
    picks = np.random.default_rng([seed, WORKLOADS.index(workload)]).integers(
        0, CANDIDATES, len(SLOTS[workload]))
    return [_candidate(workload, i, slot, int(j) % slot.candidates)
            for i, (slot, j) in enumerate(zip(SLOTS[workload], picks))]


def all_candidates(workload: str) -> List[Op]:
    return [_candidate(workload, i, slot, j)
            for i, slot in enumerate(SLOTS[workload]) for j in range(slot.candidates)]


def write_inputs(ops: List[Op], directory: Path) -> List[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = directory / f"{op.key}.cfg"
        path.write_text(op.config_text, encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------

def _optimize_af(text: str) -> str:
    from gase.config import parse_config
    from gase.propagation import PowerLevel, PropagationEnvironment
    from gase.relay_dualhop import RelayProtocol, optimize_relay_powers

    cfg = parse_config(text)
    env = PropagationEnvironment.from_dbm(cfg.path_loss_exponent, cfg.noise_dbm,
                                          cfg.p_min_dbm)
    p_s, p_r, eta = optimize_relay_powers(
        env, cfg.geometry["d_sr"], cfg.geometry["d_rd"], PowerLevel.from_dbm(cfg.p_max_dbm),
        RelayProtocol.AF, span_decades=AF_SPAN_DECADES, tol=AF_TOL)
    return ("p_s_star_dbm,p_r_star_dbm,gase_bps_hz_m2\n"
            f"{p_s.dbm:.11e},{p_r.dbm:.11e},{eta:.11e}\n")


def run_op(op: Op, path: Path) -> OpResult:
    """Run one op and capture its stdout; any exception counts as a failure."""
    from gase import cli

    out, err = io.StringIO(), io.StringIO()
    start = speed.clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.command == "optimize_af":
                out.write(_optimize_af(path.read_text(encoding="utf-8")))
                rc = 0
            else:
                rc = cli.main([op.command, "--config", str(path), "--workers", "1", *op.flags])
    except Exception:  # an op that crashes is a failed op, not a crashed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return OpResult(rc, out.getvalue(), err.getvalue(), speed.clock() - start)
