"""Generalized area spectral efficiency (GASE) under Rayleigh fading.

GASE divides a link's ergodic capacity by the area over which its transmission
raises the received power above a detection threshold, giving bps/Hz/m^2.
The package evaluates it in closed form (with quadrature where no closed form
exists) for point-to-point links, dual-hop DF/AF relays, three-node
cooperative relays, and underlay cognitive-radio pairs, optimises transmit
power against it, and cross-checks every formula with seeded Monte Carlo
oracles.  The ``gase`` CLI exposes evaluation, parameter sweeps, optimisation,
and verification as CSV-emitting subcommands.
"""

from .cognitive_underlay import (CognitiveScenario, affected_area_parallel,
                                 gase_cognitive, gase_x_channel,
                                 primary_capacity_parallel, prob_parallel,
                                 secondary_capacity_parallel,
                                 x_channel_primary_capacity)
from .config import ConfigError, ScenarioConfig, load_preset, parse_config, preset_names
from .coop_threenode import CoopScenario, gase_coop, special_integral_D
from .link_p2p import (NoInteriorOptimumError, P2pScenario, ergodic_capacity_p2p, gase_p2p,
                       optimal_power_p2p)
from .mathkernel import (BracketingError, QuadratureError, QuadratureSpec,
                         bessel_k0, bessel_k1, find_root_bracketed, integrate,
                         integrate_semi_infinite, scaled_e1)
from .mc_oracle import (McConfig, McEstimate, mc_affected_area,
                        mc_ergodic_capacity, mc_mode_probability)
from .propagation import (PowerLevel, PropagationEnvironment, affected_area_single,
                          dbm_to_watts, mean_snr, watts_to_dbm)
from .relay_dualhop import (DualHopScenario, RelayProtocol, ergodic_capacity_af,
                            ergodic_capacity_df, gase_dualhop,
                            optimize_relay_powers)

__version__ = "0.1.0"
