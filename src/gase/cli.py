"""Command-line front end: evaluate, sweep, optimize, and verify scenarios.

``gase <eval|sweep|optimize|verify> (--config PATH | --preset NAME) [--out CSV]``

Sweeps reproduce the figure presets as CSV tables (header row, comma
separator, scientific notation with 12 significant digits).  ``verify`` runs
the closed forms against the seeded Monte Carlo oracles and exits nonzero if
any check fails its band.  Every value comes from the scenario modules; this
layer only picks the columns.  Sweep points and verify checks are evaluated
sequentially, and the Monte Carlo streams are keyed per check.  ``--workers``
is accepted for compatibility and has no effect on the output.

Exit codes: 0 success, 1 usage/config error (including a config or output
path that cannot be read or written), 2 verification failure,
3 numerical failure (non-convergence or an arithmetic error in evaluation).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from . import cognitive_underlay as cg
from . import coop_threenode as coop
from . import link_p2p as p2p
from . import mc_oracle as mc
from . import relay_dualhop as relay
from .config import (DEFAULT_SAMPLES, DEFAULT_SEED, ConfigError, ScenarioConfig,
                     derive_kind, load_preset, parse_config, preset_names,
                     render_config)
from .mathkernel import QuadratureSpec, integrate_semi_infinite
from .propagation import (PowerLevel, PropagationEnvironment, affected_area_single,
                          dbm_to_watts, mean_snr)

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


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _env_of(cfg: ScenarioConfig) -> PropagationEnvironment:
    return PropagationEnvironment.from_dbm(cfg.path_loss_exponent, cfg.noise_dbm,
                                           cfg.p_min_dbm)


def _power(cfg: ScenarioConfig, key: str) -> PowerLevel:
    return PowerLevel.from_dbm(cfg.power_dbm[key])


def _scenario(cfg: ScenarioConfig):
    env = _env_of(cfg)
    g = cfg.geometry
    if cfg.kind == "p2p":
        return p2p.P2pScenario(env, _power(cfg, "p_t_dbm"), g["d"])
    if cfg.kind == "dualhop":
        return relay.DualHopScenario(env, _power(cfg, "p_s_dbm"), _power(cfg, "p_r_dbm"),
                                     g["d_sr"], g["d_rd"])
    if cfg.kind == "coop":
        return coop.CoopScenario(env, _power(cfg, "p_s_dbm"), _power(cfg, "p_r_dbm"),
                                 g["d_sd"], g["d_sr"], g["d_rd"])
    # xchannel is the no-constraint limit; any finite stand-in for i_th works
    # because the xchannel paths never read it
    i_th = 1e6 if cfg.kind == "xchannel" else dbm_to_watts(cfg.i_th_dbm)
    return cg.CognitiveScenario(env, _power(cfg, "p1_dbm"), _power(cfg, "p2_dbm"),
                                g["d_p"], g["d_s"], g["d_sp"], g["d_ps"], g["d0"], i_th)


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

_COLUMNS = {
    "p2p": ("capacity_bps_hz", "area_m2", "gase_bps_hz_m2"),
    "dualhop": ("capacity_bps_hz", "area_sr_m2", "area_rd_m2", "gase_bps_hz_m2"),
    "coop": ("p_direct", "p_relay", "c_direct_bps_hz", "c_relay_bps_hz",
             "capacity_bps_hz", "area_s_m2", "area_r_m2", "gase_bps_hz_m2"),
    "cognitive": ("p_parallel", "c_primary_bps_hz", "c_secondary_bps_hz",
                  "c_p2p_bps_hz", "area_parallel_m2", "area_p2p_m2",
                  "se_total_bps_hz", "gase_bps_hz_m2", "gase_x_bps_hz_m2",
                  "gase_p2p_bps_hz_m2"),
    "xchannel": ("c_primary_bps_hz", "c_secondary_bps_hz", "se_total_bps_hz",
                 "area_parallel_m2", "gase_bps_hz_m2"),
}


def _evaluate_row(cfg: ScenarioConfig, param_value: float,
                  area_parallel: Optional[float] = None) -> List[float]:
    s = _scenario(cfg)
    if cfg.kind == "p2p":
        b = p2p.gase_p2p(s)
        vals = (b.capacity, b.area, b.gase)
    elif cfg.kind == "dualhop":
        b = relay.gase_dualhop(s, relay.RelayProtocol.parse(cfg.protocol))
        vals = (b.capacity, b.components["area_sr_m2"], b.components["area_rd_m2"], b.gase)
    elif cfg.kind == "coop":
        r = coop.gase_coop(s, relay.RelayProtocol.parse(cfg.protocol))
        vals = (r.p_direct, r.p_relay, r.c_direct, r.c_relay,
                r.components["capacity_bps_hz"], r.components["area_s_m2"],
                r.components["area_r_m2"], r.gase)
    elif cfg.kind == "cognitive":
        b = cg.gase_cognitive(s, area_parallel=area_parallel)
        c = b.components
        vals = (c["p_parallel"], c["c_primary_bps_hz"], c["c_secondary_bps_hz"],
                c["c_p2p_bps_hz"], c["area_parallel_m2"], c["area_p2p_m2"], b.capacity,
                b.gase, c["gase_x_channel"], c["gase_silent"])
    else:  # xchannel
        b = cg.gase_x_channel(s)
        c = b.components
        vals = (c["c_primary_bps_hz"], c["c_secondary_bps_hz"], b.capacity, b.area, b.gase)
    return [param_value, *vals]


def _sweep_values(cfg: ScenarioConfig) -> np.ndarray:
    s = cfg.sweep
    if s.spacing == "log":
        return np.geomspace(s.start, s.stop, s.points)
    return np.linspace(s.start, s.stop, s.points)


def run_eval(cfg: ScenarioConfig) -> List[List[float]]:
    param = cfg.default_parameter()
    return [_evaluate_row(cfg, cfg.parameter_value(param))]


def run_sweep(cfg: ScenarioConfig) -> List[List[float]]:
    if cfg.sweep is None:
        raise ConfigError([(0, "sweep command requires a sweep block")])
    param = cfg.sweep.parameter
    # the parallel area depends on powers and geometry but not on i_th
    area = cg.affected_area_parallel(_scenario(cfg)) if param == "i_th_dbm" else None
    return [_evaluate_row(cfg.with_parameter(param, float(v)), float(v), area)
            for v in _sweep_values(cfg)]


def run_optimize(cfg: ScenarioConfig):
    env = _env_of(cfg)
    if cfg.kind == "p2p":
        star = p2p.optimal_power_p2p(env, cfg.geometry["d"])
        b = p2p.gase_p2p(p2p.P2pScenario(env, star, cfg.geometry["d"]))
        residual = p2p.optimal_power_residual(env, cfg.geometry["d"], star)
        header = ["p_t_star_dbm", "p_t_star_w", "residual", "capacity_bps_hz",
                  "area_m2", "gase_bps_hz_m2"]
        return header, [[star.dbm, star.watts, residual, b.capacity, b.area, b.gase]]
    if cfg.kind == "dualhop":
        if cfg.p_max_dbm is None:
            raise ConfigError([(0, "optimize on dualhop requires optimize.p_max_dbm")])
        protocol = relay.RelayProtocol.parse(cfg.protocol)
        p_s, p_r, _ = relay.optimize_relay_powers(
            env, cfg.geometry["d_sr"], cfg.geometry["d_rd"],
            PowerLevel.from_dbm(cfg.p_max_dbm), protocol)
        b = relay.gase_dualhop(relay.DualHopScenario(
            env, p_s, p_r, cfg.geometry["d_sr"], cfg.geometry["d_rd"]), protocol)
        header = ["p_s_star_dbm", "p_r_star_dbm", "p_s_star_w", "p_r_star_w",
                  "capacity_bps_hz", "gase_bps_hz_m2"]
        return header, [[p_s.dbm, p_r.dbm, p_s.watts, p_r.watts, b.capacity, b.gase]]
    raise ConfigError([(0, f"optimize supports p2p and dualhop, not {cfg.kind}")])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyCheck:
    name: str
    closed_form: float
    oracle_mean: float
    oracle_std_error: float
    tolerance: float          # allowed |closed_form - oracle_mean|

    @property
    def passed(self) -> bool:
        return abs(self.closed_form - self.oracle_mean) <= self.tolerance


def _cap_check(name, closed, sampler, samples, seed, stream, half=False):
    est = mc.mc_ergodic_capacity(sampler, mc.McConfig(samples, seed, stream))
    if half:
        est = est.scaled(0.5)
    return VerifyCheck(name, closed, est.mean, est.std_error, 3.0 * est.std_error)


def _area_check(name, env, field, radius, tail, closed, samples, seed, stream):
    est = mc.mc_affected_area(field, radius, mc.McConfig(samples, seed, stream),
                              tail, env.p_min_w)
    return VerifyCheck(name, closed, est.mean, est.std_error, 3.0 * est.std_error)


def _density_normalization(name, pdf, scale):
    total = integrate_semi_infinite(pdf, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-14),
                                    scale=scale).value
    return VerifyCheck(name, total, 1.0, 0.0, 1e-6)


def _verify_checks(cfg: ScenarioConfig, samples: int, seed: int):
    """Check thunks in output order; each receives its fixed MC stream id."""
    env = _env_of(cfg)
    s = _scenario(cfg)
    tasks = []

    if cfg.kind == "p2p":
        b = p2p.gase_p2p(s)
        gbar = mean_snr(env, s.p_t, s.d)
        radius, tail = mc.certified_disk_radius(env, s.p_t)
        tasks.append(lambda st: _cap_check(
            "capacity_vs_mc", b.capacity, mc.p2p_snr_sampler(gbar), samples, seed, st))
        tasks.append(lambda st: _area_check(
            "area_vs_spatial_mc", env, mc.single_source_field(env, s.p_t),
            radius, tail, b.area, samples, seed, st))

    elif cfg.kind == "dualhop":
        protocol = relay.RelayProtocol.parse(cfg.protocol)
        b = relay.gase_dualhop(s, protocol)
        gsr, grd = s.mean_snr_sr, s.mean_snr_rd
        if protocol is relay.RelayProtocol.DF:
            tasks.append(lambda st: _cap_check(
                "capacity_df_vs_mc", b.capacity, mc.df_snr_sampler(gsr, grd),
                samples, seed, st, half=True))
        else:
            tasks.append(lambda st: _cap_check(
                "capacity_af_vs_harmonic_mc", b.capacity,
                mc.af_snr_sampler(gsr, grd, exact=False), samples, seed, st, half=True))

            def exact_af(st):
                # the harmonic-mean density approximates the +1-denominator
                # SNR; the gap is reported against a 3% band, not hidden
                est = mc.mc_ergodic_capacity(mc.af_snr_sampler(gsr, grd, exact=True),
                                             mc.McConfig(samples, seed, st)).scaled(0.5)
                return VerifyCheck("capacity_af_vs_exact_mc", b.capacity, est.mean,
                                   est.std_error, 0.03 * abs(est.mean))

            tasks.append(exact_af)
        for name, power, area in (("area_sr_vs_spatial_mc", s.p_s, b.components["area_sr_m2"]),
                                  ("area_rd_vs_spatial_mc", s.p_r, b.components["area_rd_m2"])):
            radius, tail = mc.certified_disk_radius(env, power)
            tasks.append(lambda st, n=name, p=power, a=area, r=radius, t=tail: _area_check(
                n, env, mc.single_source_field(env, p), r, t, a, samples, seed, st))

    elif cfg.kind == "coop":
        protocol = relay.RelayProtocol.parse(cfg.protocol)
        equivalent = "df" if protocol is relay.RelayProtocol.DF else "af"
        gsd, gsr, grd = s.mean_snr_sd, s.mean_snr_sr, s.mean_snr_rd
        r = coop.gase_coop(s, protocol)

        def coop_checks(st):
            out = mc.mc_coop_summary(gsd, gsr, grd, equivalent,
                                     mc.McConfig(samples, seed, st))
            return [VerifyCheck(name, closed, out[key].mean, out[key].std_error,
                                3 * out[key].std_error)
                    for name, key, closed in (
                        ("p_direct_vs_mc", "p_direct", r.p_direct),
                        ("c_direct_vs_mc", "c_direct", r.c_direct),
                        ("c_relay_vs_mc", "c_relay", r.c_relay),
                        ("total_capacity_vs_mc", "c_inst", r.components["capacity_bps_hz"]))]

        tasks.append(coop_checks)
        tasks.append(lambda st: _density_normalization(
            "density_direct_normalization", coop.conditional_snr_pdf_direct(s, protocol),
            gsd * (2.0 + gsd)))
        tasks.append(lambda st: _density_normalization(
            "density_relay_normalization", coop.conditional_snr_pdf_relay(s, protocol),
            coop.relay_tail_scale(s, protocol)))

    else:  # cognitive / xchannel
        if cfg.kind == "cognitive":
            b = cg.gase_cognitive(s)
            interference = s.p2.watts / s.d_sp ** env.path_loss_exponent

            def prob_check(st):
                event = mc.McSampler(1, lambda u: (
                    interference * mc.exponential_from_uniform(u[:, 0]) < s.i_th_w))
                est = mc.mc_mode_probability(event, mc.McConfig(samples, seed, st))
                return VerifyCheck("p_parallel_vs_mc", b.components["p_parallel"], est.mean,
                                   est.std_error, 3 * est.std_error)

            tasks.append(prob_check)
        else:
            b = cg.gase_x_channel(s)
        c_p = b.components["c_primary_bps_hz"]
        c_s = b.components["c_secondary_bps_hz"]
        area = b.components["area_parallel_m2"]
        tasks.append(lambda st: _cap_check(
            "c_primary_vs_mc", c_p, mc.primary_sinr_sampler(s), samples, seed, st))
        tasks.append(lambda st: _cap_check(
            "c_secondary_vs_mc", c_s, mc.secondary_sinr_sampler(s), samples, seed, st))
        radius, tail = mc.certified_disk_radius(env, s.p1.watts + s.p2.watts, d0=s.d0)
        tasks.append(lambda st: _area_check(
            "area_parallel_vs_spatial_mc", env, mc.two_source_field(env, s.p1, s.p2, s.d0),
            radius, tail, area, samples, seed, st))
        floor = max(affected_area_single(env, s.p1), affected_area_single(env, s.p2))
        tasks.append(lambda st: VerifyCheck(
            "area_parallel_ge_singles", max(area, floor), area, 0.0, 1e-9 * area))
    return tasks


def run_verify(cfg: ScenarioConfig, samples: int, seed: int) -> List[VerifyCheck]:
    checks = []
    for stream, task in enumerate(_verify_checks(cfg, samples, seed)):
        out = task(stream)
        checks.extend(out if isinstance(out, list) else [out])
    return checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_csv(path: Optional[str], header: Sequence[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    text = "\n".join(lines) + "\n"
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
    if getattr(args, "kind", None):
        cfg = derive_kind(cfg, args.kind)
    if getattr(args, "protocol", None):
        if cfg.kind not in ("dualhop", "coop"):
            raise _UsageError(f"--protocol does not apply to kind {cfg.kind}")
        cfg = parse_config(render_config(replace(cfg, protocol=args.protocol.lower())))
    return cfg


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="gase",
                     description="Generalized area spectral efficiency calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a scenario config file")
    common.add_argument("--preset", choices=preset_names(),
                        help="built-in figure preset")
    common.add_argument("--out", help="output CSV path (default: stdout)")
    common.add_argument("--seed", type=int, help="Monte Carlo seed override")
    common.add_argument("--samples", type=_positive_int,
                        help="Monte Carlo sample count override")
    common.add_argument("--kind", choices=("p2p", "dualhop", "coop", "cognitive", "xchannel"),
                        help="re-target the config at another scenario kind")
    common.add_argument("--protocol", choices=("df", "af"), help="relay protocol override")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; evaluation is sequential")
    for name, descr in (("eval", "evaluate the configured operating point"),
                        ("sweep", "sweep the configured parameter, write CSV"),
                        ("optimize", "maximise GASE over transmit power"),
                        ("verify", "closed forms vs Monte Carlo oracles")):
        sub.add_parser(name, parents=[common], help=descr)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_cfg(args)
        if args.command == "eval":
            rows = run_eval(cfg)
            _write_csv(args.out, [cfg.default_parameter(), *_COLUMNS[cfg.kind]], rows)
        elif args.command == "sweep":
            rows = run_sweep(cfg)
            _write_csv(args.out, [cfg.sweep.parameter, *_COLUMNS[cfg.kind]], rows)
        elif args.command == "optimize":
            header, rows = run_optimize(cfg)
            _write_csv(args.out, header, rows)
        else:
            samples = args.samples or cfg.mc_samples or DEFAULT_SAMPLES
            seed = args.seed if args.seed is not None else (
                cfg.mc_seed if cfg.mc_seed is not None else DEFAULT_SEED)
            checks = run_verify(cfg, samples, seed)
            header = ["check", "closed_form", "oracle_mean", "oracle_std_error",
                      "abs_diff", "tolerance", "status"]
            rows = [[c.name, c.closed_form, c.oracle_mean, c.oracle_std_error,
                     abs(c.closed_form - c.oracle_mean), c.tolerance,
                     "pass" if c.passed else "FAIL"] for c in checks]
            _write_csv(args.out, header, rows)
            if not all(c.passed for c in checks):
                return EXIT_VERIFY
        return EXIT_OK
    except _UsageError as exc:
        print(f"gase: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"gase: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ValueError) as exc:
        # ConfigError and UnicodeDecodeError are ValueErrors caught above as
        # bad input; every remaining one comes from evaluation
        print(f"gase: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
