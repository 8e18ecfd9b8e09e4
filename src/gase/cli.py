"""Command-line front end: evaluate, sweep, optimize, and verify scenarios.

``gase <eval|sweep|optimize|verify> (--config PATH | --preset NAME) [--out CSV]``

Sweeps reproduce the figure presets as CSV tables (header row, comma
separator, scientific notation with 12 significant digits).  Every value,
and every column name after the parameter's, comes from the scenario
modules: each result is its CSV row.  A sweep builds per point only the
swept power or i_th, and hands all its points to the scenario module in one
batch call, _results (each dual-hop and cooperative integral is one
quadrature batch, and an i_th sweep takes the i_th-free closed forms once);
an eval is the batch of one, and so are verify's closed forms.  ``verify``
then makes its kind's rows of mc_oracle.CHECKS in order, each Monte Carlo
estimate on the next stream id; a check is its CSV row, and reads FAIL where
|closed form - oracle mean| exceeds its tolerance.  ``--seed`` and
``--samples`` override mc.seed and mc.samples (default 42 and 1,000,000) as
``--kind`` and ``--protocol`` override the config.  ``--workers`` is accepted
and changes nothing.

Start-up imports only what every command runs: config, propagation and
link_p2p (with mathkernel).  The dispatchers that first need relay_dualhop,
coop_threenode, cognitive_underlay or mc_oracle import it where they do, so
a command loads only the scenario modules of its kind, and mc_oracle only
for ``verify``.

``main(argv)`` may be called repeatedly and concurrently in one process: the
one argument parser, whose positional is the command (so the options may come
before or after it), is built on the first call and shared by every later
one (parsing does not change it, and a usage error raises instead of exiting).

Exit codes: 0 success, 1 usage/config error (including a config or output
path that cannot be read or written), 2 verification failure,
3 numerical failure (non-convergence, an arithmetic error in evaluation, or
an array too large to allocate).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import link_p2p as p2p
from .config import (DEFAULT_SAMPLES, DEFAULT_SEED, KINDS, ConfigError, ScenarioConfig,
                     derive_kind, load_preset, parse_config, preset_names)
from .propagation import PowerLevel, PropagationEnvironment, dbm_to_watts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the CLI contract reserves 2
    # for verification failures
    def error(self, message):
        raise _UsageError(message)


def _env_of(cfg: ScenarioConfig) -> PropagationEnvironment:
    return PropagationEnvironment.from_dbm(cfg.path_loss_exponent, cfg.noise_dbm,
                                           cfg.p_min_dbm)


def _scenarios(cfg: ScenarioConfig, param: Optional[str] = None, values=(None,)) -> list:
    """The scenario at each value (dBm) of the swept ``param``, or cfg's own.

    Per point only the swept power (both of a relay's for p_t_dbm) or i_th is
    built.  The rest is built once, where the first point needs it, so a bad
    input fails where, and as, a scenario built from scratch does.
    """
    env, g = _env_of(cfg), cfg.geometry
    swept = ("p_s_dbm", "p_r_dbm") if param == "p_t_dbm" and cfg.kind != "p2p" else (param,)
    unswept = functools.cache(lambda key: PowerLevel.from_dbm(cfg.power_dbm[key]))

    def power(key, value):
        return PowerLevel.from_dbm(value) if key in swept else unswept(key)

    if cfg.kind == "p2p":
        return [p2p.P2pScenario(env, power("p_t_dbm", v), g["d"]) for v in values]
    if cfg.kind == "dualhop":
        from . import relay_dualhop as relay
        return [relay.DualHopScenario(env, power("p_s_dbm", v), power("p_r_dbm", v),
                                      g["d_sr"], g["d_rd"]) for v in values]
    if cfg.kind == "coop":
        from . import coop_threenode as coop
        return [coop.CoopScenario(env, power("p_s_dbm", v), power("p_r_dbm", v),
                                  g["d_sd"], g["d_sr"], g["d_rd"]) for v in values]
    from . import cognitive_underlay as cg

    def cognitive(i_th, v):  # i_th is built before the powers
        return cg.CognitiveScenario(env, power("p1_dbm", v), power("p2_dbm", v), g["d_p"],
                                    g["d_s"], g["d_sp"], g["d_ps"], g["d0"], i_th)

    if param == "i_th_dbm" and cfg.kind == "cognitive":
        return [cognitive(dbm_to_watts(v), v) for v in values]
    # xchannel is the no-constraint limit
    i_th = math.inf if cfg.kind == "xchannel" else dbm_to_watts(cfg.i_th_dbm)
    return [cognitive(i_th, v) for v in values]


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

def _results(cfg: ScenarioConfig, scenarios) -> list:
    """The CSV row of each scenario of cfg's kind and protocol, from one batch
    call of the scenario module."""
    kind = cfg.kind
    if kind == "p2p":
        return list(map(p2p.gase_p2p, scenarios))
    if kind == "dualhop":
        from . import relay_dualhop as relay
        return relay.gase_dualhop_batch(scenarios, relay.RelayProtocol.parse(cfg.protocol))
    if kind == "coop":
        from . import coop_threenode as coop
        from .relay_dualhop import RelayProtocol
        return coop.gase_coop_batch(scenarios, RelayProtocol.parse(cfg.protocol))
    from . import cognitive_underlay as cg
    if kind == "cognitive":
        return cg.gase_cognitive_batch(scenarios)
    return list(map(cg.gase_x_channel, scenarios))


def _table(cfg: ScenarioConfig, param: str, values: Sequence[float], scenarios):
    """(header, rows) of the scenarios' results: the parameter value, then
    each result's CSV row."""
    results = _results(cfg, scenarios)
    return [param, *results[0]], [[v, *row.values()] for v, row in zip(values, results)]


def _sweep_values(cfg: ScenarioConfig) -> np.ndarray:
    s = cfg.sweep
    if s.spacing == "log":
        return np.geomspace(s.start, s.stop, s.points)
    return np.linspace(s.start, s.stop, s.points)


def run_eval(cfg: ScenarioConfig):
    param = cfg.default_parameter()
    return _table(cfg, param, [cfg.parameter_value(param)], _scenarios(cfg))


def run_sweep(cfg: ScenarioConfig):
    if cfg.sweep is None:
        raise ConfigError([(0, "sweep command requires a sweep block")])
    param = cfg.sweep.parameter
    values = [float(v) for v in _sweep_values(cfg)]
    return _table(cfg, param, values, _scenarios(cfg, param, values))


def run_optimize(cfg: ScenarioConfig):
    env = _env_of(cfg)
    if cfg.kind == "p2p":
        star = p2p.optimal_power_p2p(env, cfg.geometry["d"])
        row = p2p.gase_p2p(p2p.P2pScenario(env, star, cfg.geometry["d"]))
        residual = p2p.optimal_power_residual(env, cfg.geometry["d"], star)
        return (["p_t_star_dbm", "p_t_star_w", "residual", *row],
                [[star.dbm, star.watts, residual, *row.values()]])
    if cfg.kind == "dualhop":
        if cfg.p_max_dbm is None:
            raise ConfigError([(0, "optimize on dualhop requires optimize.p_max_dbm")])
        from . import relay_dualhop as relay
        p_s, p_r, row = relay._optimum(env, cfg.geometry["d_sr"], cfg.geometry["d_rd"],
                                       PowerLevel.from_dbm(cfg.p_max_dbm),
                                       relay.RelayProtocol.parse(cfg.protocol))
        header = ["p_s_star_dbm", "p_r_star_dbm", "p_s_star_w", "p_r_star_w",
                  "capacity_bps_hz", "gase_bps_hz_m2"]
        return header, [[p_s.dbm, p_r.dbm, p_s.watts, p_r.watts, row["capacity_bps_hz"],
                         row["gase_bps_hz_m2"]]]
    raise ConfigError([(0, f"optimize supports p2p and dualhop, not {cfg.kind}")])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def run_verify(cfg: ScenarioConfig):
    """(header, rows) of cfg's kind's checks in order, each MC estimate on the
    next stream id."""
    from . import mc_oracle as mc
    s, = _scenarios(cfg)
    closed, = _results(cfg, [s])
    samples = cfg.mc_samples or DEFAULT_SAMPLES
    seed = DEFAULT_SEED if cfg.mc_seed is None else cfg.mc_seed
    streams = (mc.McConfig(samples, seed, stream) for stream in itertools.count())
    rows = []
    for name, closed_form, mean, std_error, tolerance in mc.CHECKS[cfg.kind](
            s, cfg.protocol, closed, streams):
        diff = abs(closed_form - mean)
        rows.append([name, closed_form, mean, std_error, diff, tolerance,
                     "pass" if diff <= tolerance else "FAIL"])
    return ["check", "closed_form", "oracle_mean", "oracle_std_error", "abs_diff",
            "tolerance", "status"], rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_csv(path: Optional[str], header: Sequence[str], rows):
    # one format per table, from the first row: numbers as f"{x:.11e}" writes them
    row_format = ",".join("%s" if isinstance(cell, str) else "%.11e" for cell in rows[0])
    text = "\n".join([",".join(header), *(row_format % tuple(row) for row in rows)]) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_cfg(args) -> ScenarioConfig:
    if (args.config is None) == (args.preset is None):
        raise _UsageError("exactly one of --config or --preset is required")
    if args.preset is not None:
        cfg = load_preset(args.preset)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    if args.kind:
        cfg = derive_kind(cfg, args.kind)
    if args.protocol:
        if cfg.kind not in ("dualhop", "coop"):
            raise _UsageError(f"--protocol does not apply to kind {cfg.kind}")
        cfg = replace(cfg, protocol=args.protocol)
    if args.samples:
        cfg = replace(cfg, mc_samples=args.samples)
    if args.seed is not None:
        cfg = replace(cfg, mc_seed=args.seed)
    return cfg


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="gase",
                     description="Generalized area spectral efficiency calculator")
    parser.add_argument("command", choices=("eval", "sweep", "optimize", "verify"),
                        help="eval: evaluate the configured operating point; sweep: sweep "
                             "the configured parameter, write CSV; optimize: maximise GASE "
                             "over transmit power; verify: closed forms vs Monte Carlo oracles")
    parser.add_argument("--config", help="path to a scenario config file")
    parser.add_argument("--preset", choices=preset_names(), help="built-in figure preset")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed override")
    parser.add_argument("--samples", type=_positive_int,
                        help="Monte Carlo sample count override")
    parser.add_argument("--kind", choices=KINDS,
                        help="re-target the config at another scenario kind")
    parser.add_argument("--protocol", choices=("df", "af"), help="relay protocol override")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; evaluation is sequential")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_cfg(args)
        run = {"eval": run_eval, "sweep": run_sweep, "optimize": run_optimize,
               "verify": run_verify}
        header, rows = run[args.command](cfg)
        _write_csv(args.out, header, rows)
        return EXIT_VERIFY if any(row[-1] == "FAIL" for row in rows) else EXIT_OK
    except _UsageError as exc:
        print(f"gase: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"gase: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, MemoryError, ValueError) as exc:
        # ConfigError and UnicodeDecodeError are ValueErrors caught above as
        # bad input; every remaining one comes from evaluation, and a
        # MemoryError from an array too large to allocate
        print(f"gase: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
