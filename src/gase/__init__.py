"""Generalized area spectral efficiency (GASE) under Rayleigh fading.

GASE divides a link's ergodic capacity by the area over which its transmission
raises the received power above a detection threshold, giving bps/Hz/m^2.
The package evaluates it in closed form (with quadrature where no closed form
exists) for point-to-point links, dual-hop DF/AF relays, three-node
cooperative relays, and underlay cognitive-radio pairs, optimises transmit
power against it, and cross-checks every formula with seeded Monte Carlo
oracles.  The ``gase`` CLI exposes evaluation, parameter sweeps, optimisation,
and verification as CSV-emitting commands.

``import gase`` loads no submodule.  Each package-level name in _EXPORTS, and
each submodule, is imported on first use by the module ``__getattr__``
(PEP 562) and is the defining module's own object, so a command or a library
user pays only for the scenario modules it runs.
"""

import importlib

# package-level name -> the submodule that defines it (and lists it in __all__)
_EXPORTS = {
    **dict.fromkeys(("CognitiveScenario", "affected_area_parallel", "gase_cognitive",
                     "gase_x_channel", "primary_capacity_parallel", "prob_parallel",
                     "secondary_capacity_parallel", "x_channel_primary_capacity"),
                    "cognitive_underlay"),
    **dict.fromkeys(("ConfigError", "ScenarioConfig", "load_preset", "parse_config",
                     "preset_names"), "config"),
    **dict.fromkeys(("CoopScenario", "gase_coop", "special_integral_D"), "coop_threenode"),
    **dict.fromkeys(("NoInteriorOptimumError", "P2pScenario", "ergodic_capacity_p2p",
                     "gase_p2p", "optimal_power_p2p"), "link_p2p"),
    **dict.fromkeys(("BracketingError", "QuadratureError", "QuadratureSpec", "bessel_k0",
                     "bessel_k1", "find_root_bracketed", "integrate",
                     "integrate_semi_infinite", "scaled_e1"), "mathkernel"),
    **dict.fromkeys(("McConfig", "McEstimate", "mc_affected_area", "mc_ergodic_capacity",
                     "mc_mode_probability"), "mc_oracle"),
    **dict.fromkeys(("PowerLevel", "PropagationEnvironment", "affected_area_single",
                     "dbm_to_watts", "mean_snr", "watts_to_dbm"), "propagation"),
    **dict.fromkeys(("DualHopScenario", "RelayProtocol", "ergodic_capacity_af",
                     "ergodic_capacity_df", "gase_dualhop", "optimize_relay_powers"),
                    "relay_dualhop"),
}
_SUBMODULES = {"cli", *_EXPORTS.values()}

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups do not reach __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
