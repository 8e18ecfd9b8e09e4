"""Scenario configuration: a line-oriented ``section.key = value`` format.

Grammar (one statement per line):

    # full-line comment
    section.key = value      # trailing comment

Values are numbers or bare words; blank lines are ignored.  Parsing collects
every diagnostic (unknown key, missing key, violated invariant) with its line
number instead of stopping at the first.

The built-in presets carry the figure parameter sets used throughout the test
suite and are exposed by name (fig1, fig3, fig4, fig6, fig7a, fig7b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "ScenarioConfig",
    "SweepBlock",
    "ConfigError",
    "parse_config",
    "preset_names",
    "load_preset",
    "derive_kind",
]


class _Kind(NamedTuple):
    """The config keys of one scenario kind."""

    geom: Tuple[str, ...]           # required geom keys
    optional_geom: Tuple[str, ...]
    powers: Tuple[str, ...]         # required power keys
    sweepable: Tuple[str, ...]      # valid sweep.parameter values
    default: str                    # the parameter an eval reports without a sweep


_KINDS = {
    "p2p": _Kind(("d",), ("theta",), ("p_t_dbm",), ("p_t_dbm",), "p_t_dbm"),
    "dualhop": _Kind(("d_sr", "d_rd"), ("d_sd", "theta"), ("p_s_dbm", "p_r_dbm"),
                     ("p_t_dbm", "p_s_dbm", "p_r_dbm"), "p_s_dbm"),
    "coop": _Kind(("d_sd", "d_sr", "d_rd"), ("theta",), ("p_s_dbm", "p_r_dbm"),
                  ("p_s_dbm", "p_r_dbm"), "p_s_dbm"),
    "cognitive": _Kind(("d_p", "d_s", "d_sp", "d_ps", "d0"), (), ("p1_dbm", "p2_dbm"),
                       ("i_th_dbm", "p1_dbm", "p2_dbm"), "i_th_dbm"),
    "xchannel": _Kind(("d_p", "d_s", "d_sp", "d_ps", "d0"), (), ("p1_dbm", "p2_dbm"),
                      ("p1_dbm", "p2_dbm"), "p2_dbm"),
}
KINDS = tuple(_KINDS)

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 1_000_000


class ConfigError(ValueError):
    """All collected diagnostics of a failed parse, each with a line number."""

    def __init__(self, diagnostics: List[Tuple[int, str]]):
        self.diagnostics = list(diagnostics)
        lines = "\n".join(f"  line {ln}: {msg}" if ln else f"  {msg}"
                          for ln, msg in self.diagnostics)
        super().__init__(f"invalid scenario config:\n{lines}")


@dataclass(frozen=True)
class SweepBlock:
    parameter: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    path_loss_exponent: float
    noise_dbm: float
    p_min_dbm: float
    geometry: Dict[str, float] = field(default_factory=dict)
    power_dbm: Dict[str, float] = field(default_factory=dict)
    protocol: Optional[str] = None
    i_th_dbm: Optional[float] = None
    sweep: Optional[SweepBlock] = None
    mc_samples: Optional[int] = None
    mc_seed: Optional[int] = None
    p_max_dbm: Optional[float] = None

    def default_parameter(self) -> str:
        if self.sweep is not None:
            return self.sweep.parameter
        return _KINDS[self.kind].default

    def parameter_value(self, name: str) -> float:
        if name == "i_th_dbm":
            return self.i_th_dbm
        if name == "p_t_dbm" and self.kind == "dualhop":
            return self.power_dbm["p_s_dbm"]
        return self.power_dbm[name]


def _parse_number(text: str):
    """int or float; nan, inf and values beyond the float range raise ValueError.

    Only text of digits, underscores and a sign goes to int, so a decimal
    number is parsed without a caught exception."""
    try:
        value = int(text) if text.strip().lstrip("+-").replace("_", "").isdecimal() else float(text)
    except ValueError:  # a stray sign or underscore, or over 4,300 digits: float decides
        value = float(text)
    try:
        finite = math.isfinite(value)
    except OverflowError:       # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{text!r} is not finite")
    return value


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    entries: Dict[str, Tuple[int, str]] = {}
    errors: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append((lineno, f"expected 'section.key = value', got {raw.strip()!r}"))
            continue
        name, value = (part.strip() for part in line.split("=", 1))
        if "." not in name or not value:
            errors.append((lineno, f"expected 'section.key = value', got {raw.strip()!r}"))
            continue
        if name in entries:
            errors.append((lineno, f"duplicate key {name}"))
            continue
        entries[name] = (lineno, value)

    def take(name: str):
        return entries.pop(name, None)

    def take_number(name: str, required: bool = False):
        item = take(name)
        if item is None:
            if required:
                errors.append((0, f"missing required key {name}"))
            return None, 0
        lineno, value = item
        try:
            return _parse_number(value), lineno
        except ValueError:
            errors.append((lineno, f"{name}: {value!r} is not a finite number"))
            return None, lineno

    kind_item = take("scenario.kind")
    kind = None
    if kind_item is None:
        errors.append((0, "missing required key scenario.kind"))
    else:
        kind = kind_item[1].lower()
        if kind not in KINDS:
            errors.append((kind_item[0], f"unknown scenario kind {kind_item[1]!r}"))
            kind = None

    a, a_line = take_number("env.path_loss_exponent", required=True)
    if a is not None and a <= 0:
        errors.append((a_line, "env.path_loss_exponent must be > 0"))
    noise_dbm, _ = take_number("env.noise_dbm", required=True)
    p_min_dbm, _ = take_number("env.p_min_dbm", required=True)

    geometry: Dict[str, float] = {}
    power: Dict[str, float] = {}
    protocol = None
    i_th_dbm = None
    geom_lines: Dict[str, int] = {}

    if kind is not None:
        required = _KINDS[kind].geom
        for key in required + _KINDS[kind].optional_geom:
            val, ln = take_number(f"geom.{key}", required=key in required)
            if val is not None:
                if key != "theta" and val <= 0:
                    errors.append((ln, f"geom.{key} must be > 0"))
                geometry[key] = float(val)
                geom_lines[key] = ln
        for key in _KINDS[kind].powers:
            val, _ = take_number(f"power.{key}", required=True)
            if val is not None:
                power[key] = float(val)
        if kind in ("dualhop", "coop"):
            item = take("protocol.relay")
            if item is None:
                errors.append((0, "missing required key protocol.relay"))
            elif item[1].lower() not in ("df", "af"):
                errors.append((item[0], f"protocol.relay must be df or af, got {item[1]!r}"))
            else:
                protocol = item[1].lower()
        if kind == "cognitive":
            i_th_dbm, _ = take_number("threshold.i_th_dbm", required=True)

        # cognitive geometry must be realisable
        if kind in ("cognitive", "xchannel") and all(
                k in geometry for k in ("d_p", "d_s", "d_sp", "d_ps", "d0")):
            d0, d_p, d_s = geometry["d0"], geometry["d_p"], geometry["d_s"]
            if not (abs(d0 - d_p) <= geometry["d_sp"] <= d0 + d_p):
                errors.append((geom_lines["d_sp"],
                               f"geom.d_sp={geometry['d_sp']:g} outside triangle bound "
                               f"[{abs(d0 - d_p):g}, {d0 + d_p:g}]"))
            if not (abs(d0 - d_s) <= geometry["d_ps"] <= d0 + d_s):
                errors.append((geom_lines["d_ps"],
                               f"geom.d_ps={geometry['d_ps']:g} outside triangle bound "
                               f"[{abs(d0 - d_s):g}, {d0 + d_s:g}]"))

    sweep = None
    sweep_items = {k: take_number(f"sweep.{k}") for k in ("start", "stop", "points")}
    sweep_param = take("sweep.parameter")
    sweep_spacing = take("sweep.spacing")
    if sweep_param is not None or any(v is not None for v, _ in sweep_items.values()):
        missing = [f"sweep.{k}" for k, (v, _) in sweep_items.items() if v is None]
        if sweep_param is None:
            missing.append("sweep.parameter")
        if missing:
            errors.append((0, "incomplete sweep block, missing " + ", ".join(missing)))
        else:
            spacing = "linear"
            if sweep_spacing is not None:
                spacing = sweep_spacing[1].lower()
                if spacing not in ("linear", "log"):
                    errors.append((sweep_spacing[0],
                                   f"sweep.spacing must be linear or log, got {sweep_spacing[1]!r}"))
            pts, pts_line = sweep_items["points"]
            if pts is not None and (int(pts) != pts or pts < 1):
                errors.append((pts_line, "sweep.points must be a positive integer"))
            start = sweep_items["start"][0]
            stop = sweep_items["stop"][0]
            if spacing == "log" and (start is None or stop is None or start * stop <= 0):
                errors.append((sweep_items["start"][1],
                               "log spacing requires start and stop of the same sign"))
            param = sweep_param[1]
            if kind is not None and param not in _KINDS[kind].sweepable:
                errors.append((sweep_param[0],
                               f"sweep parameter {param!r} not valid for kind {kind}; "
                               f"expected one of {', '.join(_KINDS[kind].sweepable)}"))
            if not errors:
                sweep = SweepBlock(param, float(start), float(stop), int(pts), spacing)

    mc_samples, ms_line = take_number("mc.samples")
    if mc_samples is not None and (int(mc_samples) != mc_samples or mc_samples < 1):
        errors.append((ms_line, "mc.samples must be a positive integer"))
    mc_seed, sd_line = take_number("mc.seed")
    if mc_seed is not None and int(mc_seed) != mc_seed:
        errors.append((sd_line, "mc.seed must be an integer"))
    p_max_dbm, _ = take_number("optimize.p_max_dbm")

    for name, (lineno, _) in entries.items():
        errors.append((lineno, f"unknown key {name}"))

    if errors:
        raise ConfigError(sorted(errors))

    return ScenarioConfig(
        kind=kind,
        path_loss_exponent=float(a),
        noise_dbm=float(noise_dbm),
        p_min_dbm=float(p_min_dbm),
        geometry=geometry,
        power_dbm=power,
        protocol=protocol,
        i_th_dbm=None if i_th_dbm is None else float(i_th_dbm),
        sweep=sweep,
        mc_samples=None if mc_samples is None else int(mc_samples),
        mc_seed=None if mc_seed is None else int(mc_seed),
        p_max_dbm=None if p_max_dbm is None else float(p_max_dbm),
    )


def derive_kind(cfg: ScenarioConfig, new_kind: str) -> ScenarioConfig:
    """Re-target a config at another scenario kind for comparison runs.

    Supports the relay/cooperative -> p2p collapse (direct-link distance taken
    from geom.d_sd, transmit power from the source power, a power sweep
    taken as a p_t_dbm sweep) and cognitive -> xchannel (the threshold
    dropped); every other pair raises ConfigError.  The result only
    recombines values of cfg, so a config from parse_config gives a valid
    one.  Nothing else is validated here: a hand-built cfg is validated where
    its result is evaluated, as one used without re-targeting is.
    """
    if new_kind == cfg.kind:
        return cfg
    if new_kind not in KINDS:
        raise ConfigError([(0, f"unknown scenario kind {new_kind!r}")])
    if new_kind == "p2p" and cfg.kind in ("dualhop", "coop"):
        if "d_sd" not in cfg.geometry:
            raise ConfigError([(0, "kind override to p2p requires geom.d_sd")])
        return replace(cfg, kind=new_kind, geometry={"d": cfg.geometry["d_sd"]},
                       power_dbm={"p_t_dbm": cfg.power_dbm["p_s_dbm"]}, protocol=None,
                       sweep=cfg.sweep and replace(cfg.sweep, parameter="p_t_dbm"))
    if new_kind == "xchannel" and cfg.kind == "cognitive":
        if cfg.sweep is not None and cfg.sweep.parameter == "i_th_dbm":
            raise ConfigError([(0, "an i_th sweep cannot be re-targeted at xchannel")])
        return replace(cfg, kind=new_kind, i_th_dbm=None)
    if new_kind == "cognitive" and cfg.kind == "xchannel":
        raise ConfigError([(0, "xchannel -> cognitive override needs threshold.i_th_dbm")])
    raise ConfigError([(0, f"cannot derive kind {new_kind} from {cfg.kind}")])


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

_PRESETS = {
    "fig1": """\
scenario.kind = p2p
env.path_loss_exponent = 4
env.noise_dbm = -100
env.p_min_dbm = -90
geom.d = 1000
power.p_t_dbm = 30
sweep.parameter = p_t_dbm
sweep.start = -10
sweep.stop = 50
sweep.points = 61
sweep.spacing = linear
""",
    "fig3": """\
scenario.kind = dualhop
env.path_loss_exponent = 4
env.noise_dbm = -100
env.p_min_dbm = -90
geom.d_sr = 500
geom.d_rd = 500
geom.d_sd = 1000
geom.theta = 0
power.p_s_dbm = 30
power.p_r_dbm = 30
protocol.relay = df
sweep.parameter = p_t_dbm
sweep.start = -10
sweep.stop = 50
sweep.points = 61
sweep.spacing = linear
""",
    "fig4": """\
scenario.kind = coop
env.path_loss_exponent = 4
env.noise_dbm = -100
env.p_min_dbm = -80
geom.d_sd = 1000
geom.d_sr = 500
geom.d_rd = 500
geom.theta = 0
power.p_s_dbm = 20
power.p_r_dbm = 10
protocol.relay = df
sweep.parameter = p_s_dbm
sweep.start = -10
sweep.stop = 50
sweep.points = 61
sweep.spacing = linear
""",
    "fig6": """\
scenario.kind = cognitive
env.path_loss_exponent = 4
env.noise_dbm = -100
env.p_min_dbm = -100
geom.d_p = 100
geom.d_s = 100
geom.d_sp = 150
geom.d_ps = 150
geom.d0 = 100
power.p1_dbm = 20
power.p2_dbm = 20
threshold.i_th_dbm = -80
sweep.parameter = i_th_dbm
sweep.start = -120
sweep.stop = -40
sweep.points = 41
sweep.spacing = linear
""",
    # fig7a (spectral efficiency view) and fig7b (GASE view) share parameters:
    # kappa = 2.5 with d_p = d_s = 100 m, transmitter separation 250 m
    "fig7a": """\
scenario.kind = cognitive
env.path_loss_exponent = 4
env.noise_dbm = -100
env.p_min_dbm = -100
geom.d_p = 100
geom.d_s = 100
geom.d_sp = 250
geom.d_ps = 250
geom.d0 = 250
power.p1_dbm = 20
power.p2_dbm = 10
threshold.i_th_dbm = -80
sweep.parameter = p2_dbm
sweep.start = -10
sweep.stop = 50
sweep.points = 61
sweep.spacing = linear
""",
}
_PRESETS["fig7b"] = _PRESETS["fig7a"]


def preset_names() -> List[str]:
    return sorted(_PRESETS)


def load_preset(name: str) -> ScenarioConfig:
    try:
        text = _PRESETS[name]
    except KeyError:
        raise ConfigError([(0, f"unknown preset {name!r}; available: "
                            + ", ".join(preset_names()))]) from None
    return parse_config(text)
