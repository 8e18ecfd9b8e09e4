"""Config grammar, presets, CSV schema, CLI exit codes, and determinism."""

import argparse
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gase import cli
from gase import cognitive_underlay as cg
from gase import config
from gase import coop_threenode as coop
from gase import link_p2p as p2p
from gase import mathkernel
from gase import relay_dualhop as relay
from gase.config import ConfigError, SweepBlock, derive_kind, load_preset, parse_config
from gase.link_p2p import optimal_inverse_snr
from gase.propagation import PowerLevel
from test_coop_threenode import mp_df_direct_integral
from test_relay_dualhop import dyadic_quad, mp_bessel_k01

FIG1_TEXT = """\
# point-to-point reference scenario
scenario.kind = p2p
env.path_loss_exponent = 4
env.noise_dbm = -100   # thermal noise floor
env.p_min_dbm = -90
geom.d = 1000
power.p_t_dbm = 30
"""

# DF with gbar_SD ~ 8e-16: p_direct ~ 2 a1 gbar_SD ~ 6e-17 lies below the
# rounding of 1 - S/gbar_SD, where gbar_SD - S rounds to 0, so R = gbar_SD
# p_direct must be an integral of its own; likewise the next two configs
COOP_CANCEL_TEXT = """\
scenario.kind = coop
env.path_loss_exponent = 6
env.noise_dbm = -97.557
env.p_min_dbm = -89.05
geom.d_sd = 4000
geom.d_sr = 7.008
geom.d_rd = 3.5587
power.p_s_dbm = -32.16
power.p_r_dbm = -33.74
protocol.relay = df
"""

# gbar_SD ~ 1e-50 and a1 ~ 1e33: 1 - S/gbar_SD rounds to -2.22e-16
COOP_DF_NEGATIVE_TEXT = """\
scenario.kind = coop
env.path_loss_exponent = 9.597416206829473
env.noise_dbm = -53.12311003589099
env.p_min_dbm = -161.67809327176872
geom.d_sd = 10069.313677231958
geom.d_sr = 1
geom.d_rd = 10069.313677231958
power.p_s_dbm = -167.75440335606532
power.p_r_dbm = 0
protocol.relay = df
"""

# gbar_SD ~ 5e-20 and a1 ~ 20: gbar_SD - S rounds to 0
COOP_DF_ZERO_REST_TEXT = """\
scenario.kind = coop
env.path_loss_exponent = 3.3836743845701522
env.noise_dbm = -148.44127761525885
env.p_min_dbm = -64.74292857844222
geom.d_sd = 206123.16025779775
geom.d_sr = 1
geom.d_rd = 1
power.p_s_dbm = -161.52668763038963
power.p_r_dbm = -118.75868283098907
protocol.relay = df
"""

# at a = 0.1 the source's footprint (P/P_min)^(2/a) = (1e-20)^20 underflows to 0 m^2
COOP_DF_UNDERFLOW_TEXT = ("scenario.kind = coop\ngeom.d_sd = 20\ngeom.d_sr = 10\n"
                          "geom.d_rd = 10\npower.p_s_dbm = -150\npower.p_r_dbm = -150\n"
                          "protocol.relay = df\n")
UNDERFLOW_ENV = "env.path_loss_exponent = 0.1\nenv.noise_dbm = -100\nenv.p_min_dbm = 50\n"

SRC = Path(__file__).resolve().parents[1] / "src"


def preset_text(name, entries):
    """The preset's config text with each key of entries set to its value
    (a string as written, a number by repr), or dropped where it is None."""
    lines = dict(line.split(" = ") for line in config._PRESETS[name].splitlines())
    return _text({k: v for k, v in {**lines, **entries}.items() if v is not None})


def run_python(*args):
    """``python ARGS`` in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(*argv):
    """``python -m gase ARGV`` on this checkout's sources."""
    return run_python("-m", "gase", *argv)


# mean hop SNR ~1e-31: 0.5*log2(1 + g) reads exactly 0 there, log1p(g) does not
AF_LOW_SNR_TEXT = """\
scenario.kind = dualhop
env.path_loss_exponent = 5.11
env.noise_dbm = 73.7
env.p_min_dbm = -90
geom.d_sr = 2.7e5
geom.d_rd = 2.7e5
power.p_s_dbm = 50
power.p_r_dbm = 50
protocol.relay = af
"""

COOP_LOW_SNR_TEXT = """\
scenario.kind = coop
env.path_loss_exponent = 5.11
env.noise_dbm = 73.7
env.p_min_dbm = -90
geom.d_sd = 5.4e5
geom.d_sr = 2.7e5
geom.d_rd = 2.7e5
geom.theta = 0
power.p_s_dbm = 50
power.p_r_dbm = 50
protocol.relay = df
"""

# AF with S = gbar_SD P{relay} about 4.6e-22, far below the coop quadrature's
# former absolute floor of 1e-16; no sample of 20,000 chooses the relay
COOP_RELAY_FLOOR_TEXT = """\
scenario.kind = coop
env.path_loss_exponent = 5.004318661231725
env.noise_dbm = -11.136252953917364
env.p_min_dbm = -2.2275133267462965e-14
geom.d_sd = 2.616989453780738
geom.d_sr = 26713.05069247967
geom.d_rd = 2.616989453780738
geom.theta = 0
power.p_s_dbm = 8.652319531856939e-69
power.p_r_dbm = -125.91934497731978
protocol.relay = af
"""

# DF where the relay-path cdf in the direct-mode density rises on 1/a1 = 3.3e-9,
# a millionth of that density's own scale gbar_SD (2 + gbar_SD)
COOP_SHORT_RISE_TEXT = """\
scenario.kind = coop
env.path_loss_exponent = 3.3917560628131835
env.noise_dbm = 28.58320387124698
env.p_min_dbm = -21.22623402530286
geom.d_sd = 1
geom.d_sr = 45.29724033504165
geom.d_rd = 1
power.p_s_dbm = 0
power.p_r_dbm = 89.13857386712226
protocol.relay = df
"""

# AF with gbar_SD about 2e-33: the direct-mode integral evaluates the relay-path
# cdf at g near 1e-33, where 1 - z exp(-a1 g) K1(z) read rounding noise
COOP_AF_TINY_DIRECT_TEXT = """\
scenario.kind = coop
env.path_loss_exponent = 9.283160501695114
env.noise_dbm = -60.927621500502795
env.p_min_dbm = -1.0345762465678097e-08
geom.d_sd = 14963.55513281024
geom.d_sr = 0.10679036629148236
geom.d_rd = 2.4089625613414194
power.p_s_dbm = 2.2250738585072014e-308
power.p_r_dbm = 11.01570288928346
protocol.relay = af
"""

# a = 1.5: GASE along the P_S = 60 dBm face falls and rises again, so that
# face's far end (60, -40) dBm is a local maximum below the (-40, -40) dBm corner
U_FACE_TEXT = """\
scenario.kind = dualhop
env.path_loss_exponent = 1.5
env.noise_dbm = -100
env.p_min_dbm = -90
geom.d_sr = 500
geom.d_rd = 500
power.p_s_dbm = 30
power.p_r_dbm = 30
protocol.relay = df
optimize.p_max_dbm = 60
"""

# a steep path loss: the optimal inverse SNR x* ~ exp(-a/2 - 0.577) is below
# 1e-6 from a ~ 26.5 on, and below the smallest normal float from a ~ 1,415 on
STEEP_P2P_TEXT = """\
scenario.kind = p2p
env.path_loss_exponent = {a}
env.noise_dbm = -100
env.p_min_dbm = -90
geom.d = 1
power.p_t_dbm = 30
"""

# d^a = 1e310 leaves the float range, but d^a N / P_t = 1 does not
HUGE_DISTANCE_P2P_TEXT = """\
scenario.kind = p2p
env.path_loss_exponent = 10
env.noise_dbm = -300
env.p_min_dbm = -200
geom.d = 1e31
power.p_t_dbm = 2800
"""

HUGE_DISTANCE_XCHANNEL_TEXT = """\
scenario.kind = xchannel
env.path_loss_exponent = 10
env.noise_dbm = -300
env.p_min_dbm = -200
geom.d_p = 1e31
geom.d_s = 1e31
geom.d_sp = 1e31
geom.d_ps = 1e31
geom.d0 = 1
power.p1_dbm = 2800
power.p2_dbm = 2800
"""

# both relay hops at mean SNR 1e-300 (1 W over 1e313 m^4 at -100 dBm noise),
# whose product underflows to 0; the coop direct link at mean SNR 10
TINY_HOPS_TEXT = """\
scenario.kind = {kind}
env.path_loss_exponent = 4
env.noise_dbm = -100
env.p_min_dbm = -90
geom.d_sd = 1000
geom.d_sr = 1.778279410038923e78
geom.d_rd = 1.778279410038923e78
power.p_s_dbm = 30
power.p_r_dbm = 30
protocol.relay = af
"""

def mp_af_mode_probabilities(c):
    """P{direct} = R/gbar_SD and P{relay} = S/gbar_SD of an AF coop scenario,
    each from its own integral in mpmath: R over the relay-path cdf, S over
    its complement z K1(z) exp(-a1 g), z = 2 b1 g.  1 - z K1(z) and K1 come
    from the kernel, which TestMpmathOracle pins; z K1(z) is 1 to 40 digits
    below z = 1e-300, where the float z may underflow, and 0 above 1e300."""
    with mpmath.workdps(40):
        gsd, gsr, grd = map(mpmath.mpf, (c.mean_snr_sd, c.mean_snr_sr, c.mean_snr_rd))
        a1, b1 = 1 / gsr + 1 / grd, 1 / mpmath.sqrt(gsr * grd)

        def cdf(g):
            z = 2 * b1 * g
            rest = mathkernel.one_minus_xk1(float(z)) if 1e-300 < z < 1e300 else z >= 1e300
            return -mpmath.expm1(-a1 * g) + mpmath.exp(-a1 * g) * mpmath.mpf(rest)

        def ccdf(g):
            z = 2 * b1 * g
            zk1 = z * mp_bessel_k01(z)[1] if 1e-300 < z < 1e300 else mpmath.mpf(z <= 1e-300)
            return zk1 * mpmath.exp(-a1 * g)

        rest = dyadic_quad(lambda t: mpmath.exp(-t / gsd) * cdf(t * (t + 2)), gsd)
        sel = dyadic_quad(lambda t: mpmath.exp(-t / gsd) * ccdf(t * (t + 2)),
                          min(1 / (2 * a1 + 1 / gsd), 1 / mpmath.sqrt(a1)))
        return float(rest / gsd), float(sel / gsd)


# frozen golden rows: 12-significant-digit scientific notation, fixed order
GOLDEN_FIG1_EVAL = (
    "p_t_dbm,capacity_bps_hz,area_m2,gase_bps_hz_m2\n"
    "3.00000000000e+01,2.90651480841e+00,2.78416399842e+06,1.04394525971e-06\n")
GOLDEN_FIG6_EVAL = (
    "i_th_dbm,p_parallel,c_primary_bps_hz,c_secondary_bps_hz,c_p2p_bps_hz,"
    "area_parallel_m2,area_p2p_m2,se_total_bps_hz,gase_bps_hz_m2,"
    "gase_x_bps_hz_m2,gase_p2p_bps_hz_m2\n"
    "-8.00000000000e+01,4.93649081413e-02,7.23027812293e+00,2.91025164980e+00,"
    "1.24563560415e+01,4.18668329033e+06,2.78416399842e+06,1.23420354905e+01,"
    "4.37270987797e-06,1.39024208328e-06,4.47400226732e-06\n")
# the fine product rule's error is about 2e-13 at fig7a and 1e-16 at the fig6
# point, so these rows guard the parallel area's printed digits
GOLDEN_FIG7A_XCHANNEL_EVAL = (
    "p2_dbm,c_primary_bps_hz,c_secondary_bps_hz,se_total_bps_hz,area_parallel_m2,"
    "gase_bps_hz_m2\n"
    "1.00000000000e+01,8.42137579518e+00,2.61110452399e+00,1.10324803192e+01,"
    "3.03485415294e+06,3.63525881745e-06\n")
GOLDEN_FIG7B_EVAL = (
    "p2_dbm,p_parallel,c_primary_bps_hz,c_secondary_bps_hz,c_p2p_bps_hz,"
    "area_parallel_m2,area_p2p_m2,se_total_bps_hz,gase_bps_hz_m2,"
    "gase_x_bps_hz_m2,gase_p2p_bps_hz_m2\n"
    "1.00000000000e+01,9.79884205973e-01,8.47963598353e+00,2.61110452399e+00,"
    "1.24563560415e+01,3.03485415294e+06,2.78416399842e+06,1.11182109483e+01,"
    "3.67094167512e-06,3.63525881745e-06,4.47400226732e-06\n")
GOLDEN_U_FACE_OPTIMIZE = (
    "p_s_star_dbm,p_r_star_dbm,p_s_star_w,p_r_star_w,capacity_bps_hz,gase_bps_hz_m2\n"
    "-4.00000000000e+01,-4.00000000000e+01,1.00000000000e-07,1.00000000000e-07,"
    "2.39405162628e+00,1.37891260275e-07\n")
GOLDEN_FIG4_EVAL = (
    "p_s_dbm,p_direct,p_relay,c_direct_bps_hz,c_relay_bps_hz,capacity_bps_hz,"
    "area_s_m2,area_r_m2,gase_bps_hz_m2\n"
    "2.00000000000e+01,6.44033323588e-01,3.55966676412e-01,1.13341436899e+00,"
    "7.69218280332e-01,1.00377269775e+00,2.78416399842e+05,8.80429961444e+04,"
    "4.66856797636e-06\n")
# verify --samples 20000 --seed 7: the first three run every oracle function that
# verify calls, and each kind of band (3 sigma, the 3 % model row, the density
# normalisations and the parallel-area floor)
GOLDEN_FIG3_AF_VERIFY = (
    "check,closed_form,oracle_mean,oracle_std_error,abs_diff,tolerance,status\n"
    "capacity_af_vs_harmonic_mc,2.57239084715e+00,2.56904968145e+00,5.33206352191e-03,"
    "3.34116570103e-03,1.59961905657e-02,pass\n"
    "capacity_af_vs_exact_mc,2.57239084715e+00,2.56137206782e+00,5.34517214089e-03,"
    "1.10187793262e-02,7.68411620347e-02,pass\n"
    "area_sr_vs_spatial_mc,2.78416399842e+06,2.75969846709e+06,5.02708542325e+04,"
    "2.44655313265e+04,1.50812562697e+05,pass\n"
    "area_rd_vs_spatial_mc,2.78416399842e+06,2.76812824477e+06,5.03359862495e+04,"
    "1.60357536493e+04,1.51007958749e+05,pass\n")
GOLDEN_FIG4_VERIFY = (
    "check,closed_form,oracle_mean,oracle_std_error,abs_diff,tolerance,status\n"
    "p_direct_vs_mc,6.44033323588e-01,6.40350000000e-01,3.39338973226e-03,"
    "3.68332358752e-03,1.01801691968e-02,pass\n"
    "c_direct_vs_mc,1.13341436899e+00,1.12695217260e+00,4.98015325942e-03,"
    "6.46219639488e-03,1.49404597783e-02,pass\n"
    "c_relay_vs_mc,7.69218280332e-01,7.65645756604e-01,4.04832405970e-03,"
    "3.57252372749e-03,1.21449721791e-02,pass\n"
    "total_capacity_vs_mc,1.00377269775e+00,9.97008320086e-01,3.71390193174e-03,"
    "6.76437766391e-03,1.11417057952e-02,pass\n"
    "density_direct_normalization,1.00000000000e+00,1.00000000000e+00,0.00000000000e+00,"
    "0.00000000000e+00,1.00000000000e-06,pass\n"
    "density_relay_normalization,1.00000000000e+00,1.00000000000e+00,0.00000000000e+00,"
    "0.00000000000e+00,1.00000000000e-06,pass\n")
GOLDEN_FIG6_VERIFY = (
    "check,closed_form,oracle_mean,oracle_std_error,abs_diff,tolerance,status\n"
    "p_parallel_vs_mc,4.93649081413e-02,4.94500000000e-02,1.53304757754e-03,"
    "8.50918586985e-05,4.59914273262e-03,pass\n"
    "c_primary_vs_mc,7.23027812293e+00,7.23490264965e+00,1.53667092448e-02,"
    "4.62452672006e-03,4.61001277343e-02,pass\n"
    "c_secondary_vs_mc,2.91025164980e+00,2.92326079534e+00,1.39046230600e-02,"
    "1.30091455351e-02,4.17138691801e-02,pass\n"
    "area_parallel_vs_spatial_mc,4.18668329033e+06,4.16351694331e+06,7.58096025322e+04,"
    "2.31663470196e+04,2.27428807597e+05,pass\n"
    "area_parallel_ge_singles,4.18668329033e+06,4.18668329033e+06,0.00000000000e+00,"
    "0.00000000000e+00,4.18668329033e-03,pass\n")
# and the other four check lists: p2p, DF dual-hop, AF coop and xchannel
GOLDEN_FIG1_VERIFY = (
    "check,closed_form,oracle_mean,oracle_std_error,abs_diff,tolerance,status\n"
    "capacity_vs_mc,2.90651480841e+00,2.88896987977e+00,9.26389198369e-03,"
    "1.75449286471e-02,2.77916759511e-02,pass\n"
    "area_vs_spatial_mc,2.78416399842e+06,2.77971918907e+06,5.04252903574e+04,"
    "4.44480934304e+03,1.51275871072e+05,pass\n")
GOLDEN_FIG3_DF_VERIFY = (
    "check,closed_form,oracle_mean,oracle_std_error,abs_diff,tolerance,status\n"
    "capacity_df_vs_mc,2.78821547212e+00,2.78521826886e+00,5.95990485278e-03,"
    "2.99720326274e-03,1.78797145583e-02,pass\n"
    "area_sr_vs_spatial_mc,2.78416399842e+06,2.77971918907e+06,5.04252903574e+04,"
    "4.44480934304e+03,1.51275871072e+05,pass\n"
    "area_rd_vs_spatial_mc,2.78416399842e+06,2.75969846709e+06,5.02708542325e+04,"
    "2.44655313265e+04,1.50812562697e+05,pass\n")
GOLDEN_FIG4_AF_VERIFY = (
    "check,closed_form,oracle_mean,oracle_std_error,abs_diff,tolerance,status\n"
    "p_direct_vs_mc,6.81064041754e-01,6.77050000000e-01,3.30645805584e-03,"
    "4.01404175353e-03,9.91937416751e-03,pass\n"
    "c_direct_vs_mc,1.11130884423e+00,1.10500995809e+00,4.81124284023e-03,"
    "6.29888614193e-03,1.44337285207e-02,pass\n"
    "c_relay_vs_mc,6.72692747565e-01,6.69824118668e-01,3.71240633471e-03,"
    "2.86862889646e-03,1.11372190041e-02,pass\n"
    "total_capacity_vs_mc,9.71418399140e-01,9.64466691249e-01,3.75751352014e-03,"
    "6.95170789030e-03,1.12725405604e-02,pass\n"
    "density_direct_normalization,1.00000000000e+00,1.00000000000e+00,0.00000000000e+00,"
    "0.00000000000e+00,1.00000000000e-06,pass\n"
    "density_relay_normalization,1.00000000000e+00,1.00000000000e+00,0.00000000000e+00,"
    "1.22124532709e-15,1.00000000000e-06,pass\n")
GOLDEN_FIG7A_XCHANNEL_VERIFY = (
    "check,closed_form,oracle_mean,oracle_std_error,abs_diff,tolerance,status\n"
    "c_primary_vs_mc,8.42137579518e+00,8.41395077169e+00,1.64918836992e-02,"
    "7.42502348541e-03,4.94756510975e-02,pass\n"
    "c_secondary_vs_mc,2.61110452399e+00,2.61825557369e+00,1.30875463969e-02,"
    "7.15104969829e-03,3.92626391908e-02,pass\n"
    "area_parallel_vs_spatial_mc,3.03485415294e+06,3.06607579769e+06,5.98939348366e+04,"
    "3.12216447442e+04,1.79681804510e+05,pass\n"
    "area_parallel_ge_singles,3.03485415294e+06,3.03485415294e+06,0.00000000000e+00,"
    "0.00000000000e+00,3.03485415294e-03,pass\n")


# fig1 and fig6 without their sweep blocks, and fig3 without geom.d_sd, geom.theta
# and its sweep block
P2P_TEXT = "".join(config._PRESETS["fig1"].splitlines(True)[:6])
DUALHOP_TEXT = "".join(config._PRESETS["fig3"].splitlines(True)[:4]) + (
    "geom.d_sr = 500\ngeom.d_rd = 500\npower.p_s_dbm = 30\npower.p_r_dbm = 30\n"
    "protocol.relay = df\n")
COGNITIVE_TEXT = "".join(config._PRESETS["fig6"].splitlines(True)[:12])
SWEEP_TEXT = "sweep.parameter = p_t_dbm\nsweep.start = -10\nsweep.stop = 50\nsweep.points = 61\n"


def _missing(*keys):
    return [f"missing required key {key}" for key in keys]


_ENV_KEYS = ("env.noise_dbm", "env.p_min_dbm", "env.path_loss_exponent")
# (text, the lines of str(ConfigError) after its first); one case for each
# message of parse_config, and the order of several on one line
_DIAGNOSTICS = {
    "no_equals": (P2P_TEXT + "geom.theta 5\n",
                  ["line 7: expected 'section.key = value', got 'geom.theta 5'"]),
    "no_dot": (P2P_TEXT + "theta = 5\n",
               ["line 7: expected 'section.key = value', got 'theta = 5'"]),
    "empty_value": (P2P_TEXT + "geom.theta =   # none\n",
                    ["line 7: expected 'section.key = value', got 'geom.theta =   # none'"]),
    "duplicate": (P2P_TEXT + "geom.d = 500\n", ["line 7: duplicate key geom.d"]),
    "empty_text": ("", _missing(*_ENV_KEYS, "scenario.kind")),
    "missing_p2p": ("scenario.kind = p2p\n", _missing(*_ENV_KEYS, "geom.d", "power.p_t_dbm")),
    "missing_dualhop": ("scenario.kind = dualhop\n",
                        _missing(*_ENV_KEYS, "geom.d_rd", "geom.d_sr", "power.p_r_dbm",
                                 "power.p_s_dbm", "protocol.relay")),
    "missing_coop": ("scenario.kind = coop\n",
                     _missing(*_ENV_KEYS, "geom.d_rd", "geom.d_sd", "geom.d_sr",
                              "power.p_r_dbm", "power.p_s_dbm", "protocol.relay")),
    "missing_cognitive": ("scenario.kind = Cognitive\n",
                          _missing(*_ENV_KEYS, "geom.d0", "geom.d_p", "geom.d_ps", "geom.d_s",
                                   "geom.d_sp", "power.p1_dbm", "power.p2_dbm",
                                   "threshold.i_th_dbm")),
    "missing_xchannel": ("scenario.kind = xchannel\n",
                         _missing(*_ENV_KEYS, "geom.d0", "geom.d_p", "geom.d_ps", "geom.d_s",
                                  "geom.d_sp", "power.p1_dbm", "power.p2_dbm")),
    "non_finite": (P2P_TEXT.replace("-100", "nan"),
                   ["line 3: env.noise_dbm: 'nan' is not a finite number"]),
    "unknown_kind": (P2P_TEXT.replace("= p2p", "= Mesh") + SWEEP_TEXT,
                     ["line 1: unknown scenario kind 'Mesh'", "line 5: unknown key geom.d",
                      "line 6: unknown key power.p_t_dbm"]),
    "exponent": (P2P_TEXT.replace("exponent = 4", "exponent = 0"),
                 ["line 2: env.path_loss_exponent must be > 0"]),
    "distance": (DUALHOP_TEXT.replace("d_rd = 500", "d_rd = -1") + "geom.theta = -3\n",
                 ["line 6: geom.d_rd must be > 0"]),
    "protocol": (DUALHOP_TEXT.replace("= df", "= amplify"),
                 ["line 9: protocol.relay must be df or af, got 'amplify'"]),
    "triangle_sp": (COGNITIVE_TEXT.replace("d_sp = 150", "d_sp = 500"),
                    ["line 7: geom.d_sp=500 outside triangle bound [0, 200]"]),
    "triangle_ps": (COGNITIVE_TEXT.replace("d_s = 100", "d_s = 30.5")
                    .replace("d_ps = 150", "d_ps = 0.25"),
                    ["line 8: geom.d_ps=0.25 outside triangle bound [69.5, 130.5]"]),
    "incomplete_sweep": (P2P_TEXT + "sweep.stop = 50\nsweep.parameter = p_t_dbm\n",
                         ["incomplete sweep block, missing sweep.start, sweep.points"]),
    "spacing": (P2P_TEXT + SWEEP_TEXT + "sweep.spacing = cubic\n",
                ["line 11: sweep.spacing must be linear or log, got 'cubic'"]),
    "points_fraction": (P2P_TEXT + SWEEP_TEXT.replace("= 61", "= 2.5"),
                        ["line 10: sweep.points must be a positive integer"]),
    "points_zero": (P2P_TEXT + SWEEP_TEXT.replace("= 61", "= 0"),
                    ["line 10: sweep.points must be a positive integer"]),
    "log_across_zero": (P2P_TEXT + SWEEP_TEXT + "sweep.spacing = LOG\n",
                        ["line 8: log spacing requires start and stop of the same sign"]),
    "sweep_parameter": (P2P_TEXT + SWEEP_TEXT.replace("= p_t_dbm", "= p_s_dbm"),
                        ["line 7: sweep parameter 'p_s_dbm' not valid for kind p2p; "
                         "expected one of p_t_dbm"]),
    # read without regard to case, but echoed as written
    "sweep_parameter_as_written": (P2P_TEXT + SWEEP_TEXT.replace("= p_t_dbm", "= P_S_dbm"),
                                   ["line 7: sweep parameter 'P_S_dbm' not valid for kind p2p; "
                                    "expected one of p_t_dbm"]),
    "mc": (P2P_TEXT + "mc.samples = 0\nmc.seed = 1.5\nbogus.key = 1\n",
           ["line 7: mc.samples must be a positive integer", "line 8: mc.seed must be an integer",
            "line 9: unknown key bogus.key"]),
    "mc_words": (P2P_TEXT + "mc.samples = 2.5\nmc.seed = x\n",
                 ["line 7: mc.samples must be a positive integer",
                  "line 8: mc.seed: 'x' is not a finite number"]),
    "two_on_one_line": (COGNITIVE_TEXT.replace("d_sp = 150", "d_sp = -5"),
                        ["line 7: geom.d_sp must be > 0",
                         "line 7: geom.d_sp=-5 outside triangle bound [0, 200]"]),
    # every present sweep key is checked, in a complete block or not
    "incomplete_and_bad": (P2P_TEXT + "sweep.parameter = i_th_dbm\nsweep.points = 2.5\n"
                           "sweep.spacing = cubic\n",
                           ["incomplete sweep block, missing sweep.start, sweep.stop",
                            "line 7: sweep parameter 'i_th_dbm' not valid for kind p2p; "
                            "expected one of p_t_dbm",
                            "line 8: sweep.points must be a positive integer",
                            "line 9: sweep.spacing must be linear or log, got 'cubic'"]),
    "lone_spacing": (P2P_TEXT + "sweep.spacing = cubic\n",
                     ["line 7: sweep.spacing must be linear or log, got 'cubic'"]),
    "incomplete_log": (P2P_TEXT + "sweep.start = -10\nsweep.stop = 50\nsweep.spacing = log\n",
                       ["incomplete sweep block, missing sweep.points, sweep.parameter",
                        "line 7: log spacing requires start and stop of the same sign"]),
}


class TestParsing:
    def test_fig1_parameters(self):
        cfg = parse_config(FIG1_TEXT)
        assert cfg.kind == "p2p"
        assert cfg.path_loss_exponent == 4.0
        assert cfg.noise_dbm == -100.0
        assert cfg.p_min_dbm == -90.0
        assert cfg.geometry["d"] == 1000.0
        assert cfg.power_dbm["p_t_dbm"] == 30.0

    def test_missing_key_single_diagnostic(self):
        text = FIG1_TEXT.replace("env.path_loss_exponent = 4\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.diagnostics) == 1
        assert "env.path_loss_exponent" in err.value.diagnostics[0][1]

    def test_triangle_bound_with_line_number(self):
        text = """\
scenario.kind = cognitive
env.path_loss_exponent = 4
env.noise_dbm = -100
env.p_min_dbm = -100
geom.d_p = 100
geom.d_s = 100
geom.d_sp = 500
geom.d_ps = 150
geom.d0 = 100
power.p1_dbm = 20
power.p2_dbm = 20
threshold.i_th_dbm = -80
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        (line, msg), = err.value.diagnostics
        assert line == 7
        assert "triangle" in msg

    def test_all_errors_collected(self):
        text = """\
scenario.kind = p2p
env.noise_dbm = -100
env.p_min_dbm = -90
geom.d = -5
power.p_t_dbm = 30
bogus.key = 1
sweep.parameter = d_sp
sweep.start = 0
sweep.stop = 1
sweep.points = 3
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        messages = [m for _, m in err.value.diagnostics]
        assert any("env.path_loss_exponent" in m for m in messages)
        assert any("geom.d must be > 0" in m for m in messages)
        assert any("unknown key bogus.key" in m for m in messages)
        assert any("sweep parameter" in m for m in messages)

    def test_sweep_parameter_must_exist_for_kind(self):
        text = FIG1_TEXT + "sweep.parameter = p2_dbm\nsweep.start = 0\nsweep.stop = 1\nsweep.points = 2\n"
        with pytest.raises(ConfigError, match="not valid for kind p2p"):
            parse_config(text)

    @pytest.mark.parametrize("text,value", [
        ("61", 61), ("-3", -3), (" 7 ", 7), ("1_0", 10), ("0.5", 0.5), ("1e3", 1000.0),
        ("-0", 0), ("1_0.5", 10.5), ("--1", "could not convert string to float: '--1'"),
        ("1__0", "could not convert string to float: '1__0'"),
        ("nan", "'nan' is not finite"), ("inf", "'inf' is not finite"),
        ("1e400", "'1e400' is not finite"), ("9" * 400, f"{'9' * 400!r} is not finite"),
        ("", "could not convert string to float: ''")])
    def test_number_values_types_and_errors(self, text, value):
        # integer text stays an int (sweep.points); the rest is a float
        if isinstance(value, str):
            with pytest.raises(ValueError) as err:
                config._parse_number(text)
            assert str(err.value) == value
        else:
            parsed = config._parse_number(text)
            assert (type(parsed), parsed) == (type(value), value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(FIG1_TEXT + "geom.d = 500\n")

    @pytest.mark.parametrize("text,lines", _DIAGNOSTICS.values(), ids=_DIAGNOSTICS)
    def test_each_diagnostic_exactly(self, text, lines):
        # the text, line number and sorted order that `gase` prints
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == "\n".join(["invalid scenario config:",
                                            *(f"  {line}" for line in lines)])


class TestPresetsAndKinds:
    def test_preset_values(self):
        fig6 = load_preset("fig6")
        assert fig6.kind == "cognitive"
        assert fig6.geometry["d_sp"] == 150.0
        assert fig6.i_th_dbm == -80.0
        fig7 = load_preset("fig7b")
        assert fig7.geometry["d_sp"] == 250.0
        assert fig7.sweep.parameter == "p2_dbm"

    def test_derive_kind_to_p2p(self):
        p2p_cfg = derive_kind(load_preset("fig3"), "p2p")
        assert p2p_cfg.kind == "p2p"
        assert p2p_cfg.geometry == {"d": 1000.0}
        assert p2p_cfg.power_dbm == {"p_t_dbm": 30.0}
        assert p2p_cfg.sweep.parameter == "p_t_dbm"

    def test_derive_kind_to_xchannel(self):
        cfg = derive_kind(load_preset("fig7b"), "xchannel")
        assert cfg.kind == "xchannel"
        assert cfg.i_th_dbm is None

    @pytest.mark.parametrize("preset,kind,text", [
        ("fig3", "p2p", "scenario.kind = p2p\nenv.path_loss_exponent = 4\nenv.noise_dbm = -100\n"
         "env.p_min_dbm = -90\ngeom.d = 1000\npower.p_t_dbm = 30\n"
         "sweep.parameter = p_t_dbm\nsweep.start = -10\nsweep.stop = 50\nsweep.points = 61\n"),
        ("fig4", "p2p", "scenario.kind = p2p\nenv.path_loss_exponent = 4\nenv.noise_dbm = -100\n"
         "env.p_min_dbm = -80\ngeom.d = 1000\npower.p_t_dbm = 20\n"
         "sweep.parameter = p_t_dbm\nsweep.start = -10\nsweep.stop = 50\nsweep.points = 61\n"),
        ("fig6", "xchannel", "scenario.kind = xchannel\nenv.path_loss_exponent = 4\n"
         "env.noise_dbm = -100\nenv.p_min_dbm = -100\ngeom.d_p = 100\ngeom.d_s = 100\n"
         "geom.d_sp = 150\ngeom.d_ps = 150\ngeom.d0 = 100\npower.p1_dbm = 20\n"
         "power.p2_dbm = 20\nsweep.parameter = p2_dbm\nsweep.start = -10\nsweep.stop = 50\n"
         "sweep.points = 61\n")])
    def test_derived_kind_equals_a_parsed_config(self, preset, kind, text):
        cfg = load_preset(preset)
        if kind == "xchannel":  # an i_th sweep has no xchannel counterpart
            cfg = replace(cfg, sweep=SweepBlock("p2_dbm", -10.0, 50.0, 61))
        assert derive_kind(cfg, kind) == parse_config(text)

    @pytest.mark.parametrize("kind,preset,entries,expected", [
        ("p2p", "fig1", {}, "p_t_dbm"),
        ("dualhop", "fig3", {}, "p_t_dbm, p_s_dbm, p_r_dbm"),
        ("coop", "fig4", {}, "p_s_dbm, p_r_dbm"),
        ("cognitive", "fig6", {}, "i_th_dbm, p1_dbm, p2_dbm"),
        ("xchannel", "fig7a", {"scenario.kind": "xchannel", "threshold.i_th_dbm": None},
         "p1_dbm, p2_dbm")])
    def test_bad_sweep_parameter_lists_the_kinds_parameters(self, kind, preset, entries,
                                                             expected):
        text = preset_text(preset, {**entries, "sweep.parameter": "bogus"})
        line = text.splitlines().index("sweep.parameter = bogus") + 1
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.diagnostics == [(line, f"sweep parameter 'bogus' not valid for kind "
                                                f"{kind}; expected one of {expected}")]


class TestCliCommands:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_eval_golden_fig1(self, tmp_path, capsys):
        assert self.run("eval", "--preset", "fig1") == 0
        assert capsys.readouterr().out == GOLDEN_FIG1_EVAL

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'eval', 'sweep', "
                    "'optimize', 'verify')"),
        (["eval", "--preset", "nosuch"], "argument --preset: invalid choice: 'nosuch' (choose "
                                         "from 'fig1', 'fig3', 'fig4', 'fig6', 'fig7a', 'fig7b')"),
        (["eval", "--preset", "fig1", "--bogus"], "unrecognized arguments: --bogus"),
        (["verify", "--preset", "fig1", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["verify", "--preset", "fig1", "--samples", "0"],
         "argument --samples: '0' is not a positive integer"),
        (["eval", "--preset", "fig1", "extra"], "unrecognized arguments: extra")],
        ids=["no-arguments", "bogus-command", "bogus-preset", "unknown-option", "bad-seed",
             "zero-samples", "stray-positional"])
    def test_usage_error_exactly(self, capsys, argv, message):
        assert self.run(*argv) == 1
        assert capsys.readouterr() == ("", f"gase: error: {message}\n")

    @pytest.mark.parametrize("before,after", [
        (["--preset", "fig1", "eval"], ["eval", "--preset", "fig1"]),
        (["--preset", "fig3", "sweep", "--protocol", "af"],
         ["sweep", "--preset", "fig3", "--protocol", "af"])], ids=["eval", "sweep"])
    def test_options_may_come_before_the_command(self, capsys, before, after):
        assert self.run(*after) == 0
        expected = capsys.readouterr()
        assert self.run(*before) == 0
        assert capsys.readouterr() == expected

    def test_sweep_parameter_in_any_case(self, tmp_path):
        block = "sweep.start = -10\nsweep.stop = 50\nsweep.points = 61\n"
        lower = _run_cli(tmp_path, P2P_TEXT + "sweep.parameter = p_t_dbm\n" + block, "sweep")
        upper = _run_cli(tmp_path, P2P_TEXT + "sweep.parameter = P_T_DBM\n" + block, "sweep")
        assert lower[0] == 0 and upper == lower

    def test_eval_golden_fig6(self, capsys):
        assert self.run("eval", "--preset", "fig6") == 0
        assert capsys.readouterr().out == GOLDEN_FIG6_EVAL

    def test_eval_golden_fig7a_xchannel(self, capsys):
        assert self.run("eval", "--preset", "fig7a", "--kind", "xchannel") == 0
        assert capsys.readouterr().out == GOLDEN_FIG7A_XCHANNEL_EVAL

    def test_eval_golden_fig7b(self, capsys):
        assert self.run("eval", "--preset", "fig7b") == 0
        assert capsys.readouterr().out == GOLDEN_FIG7B_EVAL

    def test_eval_golden_fig4(self, capsys):
        assert self.run("eval", "--preset", "fig4") == 0
        assert capsys.readouterr().out == GOLDEN_FIG4_EVAL

    @pytest.mark.parametrize("flags,golden", [
        (("--preset", "fig3", "--protocol", "af"), GOLDEN_FIG3_AF_VERIFY),
        (("--preset", "fig4"), GOLDEN_FIG4_VERIFY),
        (("--preset", "fig6"), GOLDEN_FIG6_VERIFY),
        (("--preset", "fig1"), GOLDEN_FIG1_VERIFY),
        (("--preset", "fig3", "--protocol", "df"), GOLDEN_FIG3_DF_VERIFY),
        (("--preset", "fig4", "--protocol", "af"), GOLDEN_FIG4_AF_VERIFY),
        (("--preset", "fig7a", "--kind", "xchannel"), GOLDEN_FIG7A_XCHANNEL_VERIFY)])
    def test_verify_golden(self, capsys, flags, golden):
        assert self.run("verify", *flags, "--samples", "20000", "--seed", "7") == 0
        assert capsys.readouterr() == (golden, "")

    def test_optimize_golden_u_shaped_face(self, tmp_path, capsys):
        cfg = tmp_path / "uface.cfg"
        cfg.write_text(U_FACE_TEXT)
        assert self.run("optimize", "--config", str(cfg)) == 0
        assert capsys.readouterr().out == GOLDEN_U_FACE_OPTIMIZE

    @pytest.mark.parametrize("a", [27, 60, 200, 1000])
    def test_optimize_at_a_steep_path_loss(self, tmp_path, capsys, a):
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(STEEP_P2P_TEXT.format(a=a))
        assert self.run("optimize", "--config", str(cfg)) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert abs(float(row.split(",")[header.split(",").index("residual")])) <= 1e-9

    def test_optimize_dualhop_df_at_a_steep_path_loss(self, tmp_path, capsys):
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(U_FACE_TEXT.replace("exponent = 1.5", "exponent = 40"))
        assert self.run("optimize", "--config", str(cfg)) == 0

    def test_optimize_below_the_normal_floats_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(STEEP_P2P_TEXT.format(a=1500))
        assert self.run("optimize", "--config", str(cfg)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "smallest normal float" in err

    @pytest.mark.parametrize("kind,a,d,message", [
        ("p2p", 1000, "10", "optimal power d^a N / x* overflows at a = 1000, d = 10 m"),
        ("p2p", 60, "1e-9", "optimal power d^a N / x* underflows to 0 W at a = 60, d = 1e-09 m"),
        ("dualhop", 1000, "10", "a hop's inverse SNR d^a N / P overflows on the power box "
                                "at a = 1000, d_sr = 10 m, d_rd = 10 m"),
        ("dualhop", 60, "1e-9", "a hop's inverse SNR d^a N / P underflows to 0 on the power box "
                                "at a = 60, d_sr = 1e-09 m, d_rd = 1e-09 m")],
        ids=["p2p-over", "p2p-under", "dualhop-over", "dualhop-under"])
    def test_optimize_past_the_float_range_names_its_limit(self, tmp_path, capsys, kind, a, d,
                                                           message):
        # d^a N leaves the float range: the p2p optimum power, or a hop's inverse
        # SNR at an end of the dual-hop box, is refused by name with no numpy warning
        if kind == "p2p":
            text = STEEP_P2P_TEXT.format(a=a).replace("geom.d = 1\n", f"geom.d = {d}\n")
        else:
            text = (U_FACE_TEXT.replace("exponent = 1.5", f"exponent = {a}")
                    .replace("= 500\n", f"= {d}\n").replace("p_max_dbm = 60", "p_max_dbm = 40"))
        cfg = tmp_path / "range.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run("optimize", "--config", str(cfg)) == 3
        assert capsys.readouterr() == ("", f"gase: numerical failure: {message}\n")

    def test_huge_distance_with_an_in_range_snr_has_its_value(self):
        # e E1(1) / ln 2 and (1 - e E1(1)) / ln 2: the SNR is 1 though d^a overflows
        with mpmath.workdps(40):
            h = mpmath.e * mpmath.e1(1)
            ln2 = mpmath.log(2)
            p2p_capacity, primary = float(h / ln2), float((1 - h) / ln2)
        header, (row,) = cli.run_eval(parse_config(HUGE_DISTANCE_P2P_TEXT))
        assert row[header.index("capacity_bps_hz")] == pytest.approx(p2p_capacity, rel=1e-12)
        header, (row,) = cli.run_eval(parse_config(HUGE_DISTANCE_XCHANNEL_TEXT))
        assert row[header.index("c_primary_bps_hz")] == pytest.approx(primary, rel=1e-12)

    def test_af_at_tiny_mean_hop_snrs_has_its_value(self):
        # gbar_SR gbar_RD = 1e-600 underflows to 0, so b1 takes the square roots
        # apart.  At gbar = 1e-300, ln(1 + g) is g to every digit, so the AF
        # capacity is E[G1 G2/(G1 + G2)]/(2 ln 2) = gbar/(6 ln 2) for equal hops.
        # The coop direct link carries the rest: c_direct is
        # e^(1/gbar_SD) E1(1/gbar_SD)/ln 2; the relay mode's probability
        # (~1.7e-302, its own integral) and capacity lie below it
        dualhop = parse_config(TINY_HOPS_TEXT.format(kind="dualhop"))
        coop_cfg = parse_config(TINY_HOPS_TEXT.format(kind="coop"))
        (s,), (c,) = cli._scenarios(dualhop), cli._scenarios(coop_cfg)
        with mpmath.workdps(40):
            d, noise = mpmath.mpf(s.d_sr), mpmath.mpf(s.env.noise_w)
            gbar = mpmath.mpf(s.p_s.watts) / (d ** 4 * noise)
            capacity = float(gbar / (6 * mpmath.log(2)))
            x = 1 / mpmath.mpf(c.mean_snr_sd)
            direct = float(mpmath.exp(x) * mpmath.e1(x) / mpmath.log(2))
        assert s.mean_snr_sr == pytest.approx(float(gbar), rel=1e-12)
        header, (row,) = cli.run_eval(dualhop)
        values = dict(zip(header, row))
        assert all(math.isfinite(v) for v in row)
        assert values["capacity_bps_hz"] == pytest.approx(capacity, rel=1e-12)
        header, (row,) = cli.run_eval(coop_cfg)
        values = dict(zip(header, row))
        assert all(math.isfinite(v) for v in row)
        assert values["p_direct"] == pytest.approx(1.0, rel=1e-12)
        assert values["c_direct_bps_hz"] == pytest.approx(direct, rel=1e-12)
        assert values["capacity_bps_hz"] == pytest.approx(direct, rel=1e-12)
        assert values["p_relay"] == pytest.approx(mp_af_mode_probabilities(c)[1], rel=1e-12,
                                                  abs=0.0)
        assert values["c_relay_bps_hz"] == pytest.approx(0.0, abs=1e-12)

    def test_optimize_at_a_huge_distance_has_its_value(self):
        # p* = d^a N / x*, with (x* + 2/a) e^x* E1(x*) = 1 at a = 10
        cfg = parse_config(HUGE_DISTANCE_P2P_TEXT)
        with mpmath.workdps(40):
            x = mpmath.findroot(lambda x: (x + mpmath.mpf(1) / 5) * mpmath.exp(x) * mpmath.e1(x)
                                - 1, (0.001, 0.01), solver="illinois")
            star = mpmath.mpf(1e31) ** 10 * mpmath.mpf(PowerLevel.from_dbm(-300.0).watts) / x
            star_w, star_dbm = float(star), float(10 * mpmath.log10(star) + 30)
        header, (row,) = cli.run_optimize(cfg)
        assert row[header.index("p_t_star_w")] == pytest.approx(star_w, rel=1e-12)
        assert row[header.index("p_t_star_dbm")] == pytest.approx(star_dbm, rel=1e-12)

    def test_optimize_past_the_float_range_of_p_over_p_min_has_its_area(self):
        # P*/P_min ~ 2e311 overflows; (2 pi/a) Gamma(2/a) (P*/P_min)^(2/a) ~ 5e62 m^2 does not
        cfg = parse_config(HUGE_DISTANCE_P2P_TEXT.replace("p_min_dbm = -200", "p_min_dbm = -290"))
        with mpmath.workdps(40):
            x = mpmath.findroot(lambda x: (x + mpmath.mpf(1) / 5) * mpmath.exp(x) * mpmath.e1(x)
                                - 1, (0.001, 0.01), solver="illinois")
            star = mpmath.mpf(1e31) ** 10 * mpmath.mpf(PowerLevel.from_dbm(-300.0).watts) / x
            ratio = star / mpmath.mpf(PowerLevel.from_dbm(-290.0).watts)
            fifth = mpmath.mpf(1) / 5
            area = float(2 * mpmath.pi / 10 * mpmath.gamma(fifth) * ratio ** fifth)
        header, (row,) = cli.run_optimize(cfg)
        assert row[header.index("area_m2")] == pytest.approx(area, rel=1e-12)

    @pytest.mark.parametrize("a,d,side", [(400, "10", "underflows to 0"),
                                          (60, "1e-09", "overflows")])
    def test_mean_snr_past_the_float_range_is_named(self, tmp_path, capsys, a, d, side):
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(STEEP_P2P_TEXT.format(a=a).replace("geom.d = 1\n", f"geom.d = {d}\n"))
        assert self.run("eval", "--config", str(cfg)) == 3
        assert capsys.readouterr() == ("", "gase: numerical failure: mean SNR P / (d^a N) "
                                           f"{side} at a = {a}, d = {d} m\n")

    def test_unallocatable_sweep_is_numeric_exit_code(self, tmp_path, capsys):
        # numpy refuses the 8e18-byte grid before it allocates anything
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(preset_text("fig1", {"sweep.points": "1e18"}))
        assert self.run("sweep", "--config", str(cfg)) == 3
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("gase: numerical failure: Unable to allocate")

    def test_optimize_without_convergence_exit_code(self, monkeypatch, tmp_path, capsys):
        # a gradient that flips sign at every evaluation, with GASE always
        # rising, keeps the power ascent from settling
        calls = iter(range(1000))

        def zigzag(protocol, a, ln_c, point):
            n = next(calls)
            return float(n), np.array([(-1.0) ** n, 0.0]), -np.eye(2)

        monkeypatch.setattr(relay, "_log_gase", zigzag)
        cfg = tmp_path / "uface.cfg"
        cfg.write_text(U_FACE_TEXT)
        assert self.run("optimize", "--config", str(cfg)) == 3
        err = capsys.readouterr().err
        assert err.startswith("gase: numerical failure: dual-hop power ascent did not converge")
        assert len(err.splitlines()) == 1

    def test_degenerate_sweep_equals_eval(self, tmp_path):
        single = preset_text("fig1", {"sweep.start": 30, "sweep.stop": 30, "sweep.points": 1})
        cfg_path = tmp_path / "single.cfg"
        cfg_path.write_text(single)
        out_sweep = tmp_path / "sweep.csv"
        out_eval = tmp_path / "eval.csv"
        assert self.run("sweep", "--config", str(cfg_path), "--out", str(out_sweep)) == 0
        assert self.run("eval", "--config", str(cfg_path), "--out", str(out_eval)) == 0
        assert out_sweep.read_bytes() == out_eval.read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert self.run("eval") == 1
        assert self.run("eval", "--preset", "fig1", "--config", "x.cfg") == 1
        assert self.run("verify", "--preset", "fig1", "--samples", "-5") == 1
        assert self.run("verify", "--preset", "fig1", "--samples", "0") == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario.kind = p2p\n")
        assert self.run("eval", "--config", str(bad)) == 1
        err = capsys.readouterr().err
        assert "missing required key" in err

    def test_binary_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "binary.cfg"
        bad.write_bytes(b"\xff\xfe scenario.kind = p2p\n")
        assert self.run("eval", "--config", str(bad)) == 1
        assert "can't decode" in capsys.readouterr().err

    def test_directory_config_exit_code(self, tmp_path):
        proc = run_module("eval", "--config", str(tmp_path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("gase: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_numeric_error_exit_code(self, tmp_path):
        cfg = tmp_path / "a2.cfg"
        cfg.write_text(FIG1_TEXT.replace("env.path_loss_exponent = 4",
                                         "env.path_loss_exponent = 2"))
        assert self.run("optimize", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "1" + "0" * 400])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FIG1_TEXT.replace("env.noise_dbm = -100", f"env.noise_dbm = {bad}"))
        assert self.run("eval", "--config", str(cfg)) == 1
        assert f"line 4: env.noise_dbm: {bad!r} is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["power.p_t_dbm", "env.noise_dbm", "env.p_min_dbm",
                                     "threshold.i_th_dbm"])
    @pytest.mark.parametrize("value,side", [("4000", "overflows the float range"),
                                            ("-4000", "underflows to 0 W")])
    def test_dbm_out_of_the_float_range_is_named(self, tmp_path, capsys, key, value, side):
        text = COGNITIVE_TEXT if key == "threshold.i_th_dbm" else P2P_TEXT
        cfg = tmp_path / "dbm.cfg"
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
        assert self.run("eval", "--config", str(cfg)) == 3
        assert capsys.readouterr().err == (f"gase: numerical failure: {value} dBm in watts "
                                           f"{side}\n")

    def test_swept_dbm_out_of_the_float_range_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(P2P_TEXT + SWEEP_TEXT.replace("start = -10", "start = 3000")
                       .replace("stop = 50", "stop = 4000").replace("= 61", "= 3"))
        assert self.run("sweep", "--config", str(cfg)) == 3
        assert capsys.readouterr().err == ("gase: numerical failure: 3500 dBm in watts "
                                           "overflows the float range\n")

    def test_division_by_zero_is_numeric_exit_code(self, tmp_path):
        # the footprint that underflows to 0 m^2 is raised as ZeroDivisionError
        cfg = tmp_path / "underflow.cfg"
        cfg.write_text(COOP_DF_UNDERFLOW_TEXT + UNDERFLOW_ENV)
        proc = run_module("eval", "--config", str(cfg))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("gase: numerical failure: the source's affected area "
                                      "underflows to 0 m^2")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("geometry,footprint", [
        ("scenario.kind = p2p\ngeom.d = 10\npower.p_t_dbm = -150\n", "transmitter"),
        ("scenario.kind = dualhop\ngeom.d_sr = 10\ngeom.d_rd = 10\npower.p_s_dbm = -150\n"
         "power.p_r_dbm = -150\nprotocol.relay = af\n", "source"),
        (COOP_DF_UNDERFLOW_TEXT, "source"),
    ], ids=["p2p", "dualhop_af", "coop_df"])
    def test_underflowing_affected_area_is_named(self, tmp_path, capsys, geometry, footprint):
        # (P/P_min)^(2/a) = (1e-20)^20 underflows to 0 at a = 0.1
        cfg = tmp_path / "underflow.cfg"
        cfg.write_text(geometry + UNDERFLOW_ENV)
        assert self.run("eval", "--config", str(cfg)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"gase: numerical failure: the {footprint}'s affected area "
                              "underflows to 0 m^2")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("geometry,area", [
        ("scenario.kind = p2p\ngeom.d = 1.26\npower.p_t_dbm = 0.1\n",
         "the transmitter's affected area"),
        ("scenario.kind = dualhop\ngeom.d_sr = 1.26\ngeom.d_rd = 1.26\npower.p_s_dbm = 0.1\n"
         "power.p_r_dbm = 0.1\nprotocol.relay = af\n", "the source's affected area"),
        ("scenario.kind = xchannel\ngeom.d_p = 1.26\ngeom.d_s = 1.26\ngeom.d_sp = 1.26\n"
         "geom.d_ps = 1.26\ngeom.d0 = 1.26\npower.p1_dbm = 0.1\npower.p2_dbm = 0.1\n",
         "affected area"),
    ], ids=["p2p", "dualhop_af", "xchannel"])
    def test_overflowing_affected_area_is_named(self, tmp_path, capsys, geometry, area):
        # (P/P_min)^(2/a) = (1.41e18)^20 overflows at a = 0.1
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(geometry + "env.path_loss_exponent = 0.1\nenv.noise_dbm = -100\n"
                       "env.p_min_dbm = -181.4\n")
        assert self.run("eval", "--config", str(cfg)) == 3
        assert capsys.readouterr().err == (
            f"gase: numerical failure: {area} overflows the float range "
            "(P/P_min = 1.41e+18, a = 0.1)\n")

    def test_optimize_reuses_the_optimum_breakdown(self, monkeypatch, tmp_path, capsys):
        # the AF capacity at the optimum comes from the optimiser, not from a
        # second quadrature batch
        calls = []
        batch = mathkernel._double_exponential

        def counting(*args, **kwargs):
            calls.append(args)
            return batch(*args, **kwargs)

        monkeypatch.setattr(mathkernel, "_double_exponential", counting)
        cfg = tmp_path / "fig3_af.cfg"
        cfg.write_text(preset_text("fig3", {"protocol.relay": "af", "optimize.p_max_dbm": 40}))
        assert self.run("optimize", "--config", str(cfg)) == 0
        assert 1 <= len(calls) <= 4

    def test_eval_headers_match_the_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### CSV output"):]
        section = section[:section.index("`verify` emits")]
        documented = {kind: " ".join(columns.split()).split(", ")
                      for kind, columns in re.findall(r"\* `(\w+)`: `([^`]+)`", section)}
        assert sorted(documented) == ["cognitive", "coop", "dualhop", "p2p", "xchannel"]
        for preset, kind, protocols in (("fig1", "p2p", [None]), ("fig3", "dualhop", ["df", "af"]),
                                        ("fig4", "coop", ["df", "af"]),
                                        ("fig6", "cognitive", [None]),
                                        ("fig7a", "xchannel", [None])):
            cfg = derive_kind(load_preset(preset), kind)
            for protocol in protocols:
                if protocol is not None:
                    cfg = replace(cfg, protocol=protocol)
                header, rows = cli.run_eval(cfg)
                assert header == [cfg.default_parameter(), *documented[kind]]
                assert len(rows) == 1 and len(rows[0]) == len(header)

    @pytest.mark.parametrize("preset,kind,protocol", [
        ("fig1", "p2p", None), ("fig3", "dualhop", "df"), ("fig3", "dualhop", "af"),
        ("fig4", "coop", "df"), ("fig4", "coop", "af"), ("fig6", "cognitive", None),
        ("fig7a", "xchannel", None)])
    def test_library_result_is_the_eval_row(self, preset, kind, protocol):
        cfg = derive_kind(load_preset(preset), kind)
        if protocol is not None:
            cfg = replace(cfg, protocol=protocol)
        s, = cli._scenarios(cfg)
        if protocol is not None:
            gase = relay.gase_dualhop if kind == "dualhop" else coop.gase_coop
            row = gase(s, relay.RelayProtocol.parse(protocol))
        else:
            row = {"p2p": p2p.gase_p2p, "cognitive": cg.gase_cognitive,
                   "xchannel": cg.gase_x_channel}[kind](s)
        header, (values,) = cli.run_eval(cfg)
        assert type(row) is dict
        assert list(row) == header[1:]
        assert list(row.values()) == values[1:]

    def test_af_capacity_at_low_snr(self, tmp_path, capsys):
        # equal hops at low SNR: C_AF/C_DF -> E[harmonic mean]/E[min] = 2/3
        cfg = tmp_path / "low.cfg"
        cfg.write_text(AF_LOW_SNR_TEXT)
        capacity = {}
        for protocol in ("af", "df"):
            assert self.run("eval", "--config", str(cfg), "--protocol", protocol) == 0
            header, row = capsys.readouterr().out.splitlines()
            capacity[protocol] = float(row.split(",")[header.split(",").index("capacity_bps_hz")])
        assert capacity["af"] / capacity["df"] == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_capacity_oracles_at_low_snr(self, tmp_path, capsys):
        # log2(1 + gamma) read 0 for every sample here, so each capacity
        # oracle was 0 +- 0 and failed with zero tolerance
        cfg = tmp_path / "low.cfg"
        cfg.write_text(AF_LOW_SNR_TEXT)
        assert self.run("verify", "--config", str(cfg), "--samples", "20000",
                        "--protocol", "df") == 0
        capsys.readouterr()
        # the exact AF SNR G1 G2/(G1 + G2 + 1) is about G1 G2 at mean SNR 1e-30,
        # thirty decades below the harmonic-mean model, so only that check fails
        assert self.run("verify", "--config", str(cfg), "--samples", "20000") == 2
        status = dict(line.split(",")[::6] for line in capsys.readouterr().out.splitlines()[1:])
        assert status.pop("capacity_af_vs_exact_mc") == "FAIL"
        assert set(status.values()) == {"pass"}
        assert "capacity_af_vs_harmonic_mc" in status

    def test_coop_at_low_snr(self, tmp_path, capsys):
        # log2(1 + g) and sqrt(1 + g) - 1 read 0 at these mean SNRs (near
        # 1e-31), so eval printed every capacity as exactly 0 and verify
        # ended in a numerical failure
        cfg = tmp_path / "low.cfg"
        cfg.write_text(COOP_LOW_SNR_TEXT)
        for protocol in ("df", "af"):
            assert self.run("eval", "--config", str(cfg), "--protocol", protocol) == 0
            header, row = capsys.readouterr().out.splitlines()
            values = dict(zip(header.split(","), map(float, row.split(","))))
            for column in ("c_direct_bps_hz", "c_relay_bps_hz", "capacity_bps_hz",
                           "gase_bps_hz_m2"):
                assert values[column] > 0
        assert self.run("verify", "--config", str(cfg), "--samples", "20000") == 0
        capsys.readouterr()
        # with AF the density normalisations read 0.999909 and 1.0000128 while
        # the AF selection integral S (about 1e-31) stopped at an absolute
        # quadrature floor of 1e-16; they normalise against S
        assert self.run("verify", "--config", str(cfg), "--samples", "20000",
                        "--protocol", "af") == 0
        status = dict(line.split(",")[::6] for line in capsys.readouterr().out.splitlines()[1:])
        assert status["density_direct_normalization"] == "pass"
        assert status["density_relay_normalization"] == "pass"

    def test_coop_relay_weight_below_the_absolute_floor(self, tmp_path, capsys):
        # the floor ended S 1.1e-5 short: eval printed c_relay 1.31921157997e-21
        # and density_relay_normalization read 1.00001128 (FAIL)
        cfg = tmp_path / "floor.cfg"
        cfg.write_text(COOP_RELAY_FLOOR_TEXT)
        assert self.run("eval", "--config", str(cfg)) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["c_relay_bps_hz"] == "1.31845108864e-21"
        # c_relay_vs_mc still fails: its oracle is NaN, as no sample chose the relay
        assert self.run("verify", "--config", str(cfg), "--samples", "20000") == 2
        status = dict(line.split(",")[::6] for line in capsys.readouterr().out.splitlines()[1:])
        assert status.pop("c_relay_vs_mc") == "FAIL"
        assert set(status.values()) == {"pass"}

    def test_coop_density_with_a_short_rise(self, tmp_path, capsys):
        # integrated at its own scale alone, the direct-mode density read
        # 1.00000120775 (FAIL), gbar_SD/(gbar_SD - S); p_direct and c_relay
        # fail as their oracles see no relay-mode sample
        cfg = tmp_path / "rise.cfg"
        cfg.write_text(COOP_SHORT_RISE_TEXT)
        assert self.run("verify", "--config", str(cfg), "--samples", "20000") == 2
        rows = {line.split(",")[0]: line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]}
        for name in ("density_direct_normalization", "density_relay_normalization"):
            assert rows[name][6] == "pass"
            assert float(rows[name][4]) <= 1e-15
        assert {name for name, row in rows.items() if row[6] == "FAIL"} == {
            "p_direct_vs_mc", "c_relay_vs_mc"}

    def test_coop_direct_mode_at_tiny_mean_snr(self, tmp_path, capsys):
        # with no absolute floor the direct-mode quadrature ran into its
        # subdivision limit on the noise of the relay-path cdf (exit 3)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(COOP_AF_TINY_DIRECT_TEXT)
        assert self.run("eval", "--config", str(cfg)) == 0
        assert capsys.readouterr().err == ""

    def test_coop_af_tiny_direct_probability_has_its_value(self):
        # p_direct ~ 1e-36 is R/gbar_SD from R's own integral; 1 - S/gbar_SD
        # read 0 there
        (c,) = cli._scenarios(parse_config(COOP_AF_TINY_DIRECT_TEXT))
        header, (row,) = cli.run_eval(parse_config(COOP_AF_TINY_DIRECT_TEXT))
        values = dict(zip(header, row))
        p_direct, p_relay = mp_af_mode_probabilities(c)
        assert 1e-37 < p_direct < 1e-35
        assert values["p_direct"] == pytest.approx(p_direct, rel=1e-12, abs=0.0)
        assert values["p_relay"] == pytest.approx(p_relay, rel=1e-12, abs=0.0)
        assert values["p_direct"] + values["p_relay"] == 1.0

    @pytest.mark.parametrize("text", [COOP_CANCEL_TEXT, COOP_DF_NEGATIVE_TEXT,
                                      COOP_DF_ZERO_REST_TEXT], ids=["cancel", "negative", "zero"])
    def test_coop_df_tiny_direct_mode_has_its_value(self, tmp_path, capsys, text):
        # p_direct, 2e-18 to 6e-17, is R/gbar_SD from R's own integral; the Monte
        # Carlo oracle draws no direct-mode sample, so only its two direct-mode rows fail
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(text)
        assert self.run("eval", "--config", str(cfg)) == 0
        assert capsys.readouterr().err == ""
        parsed = parse_config(text)
        (c,) = cli._scenarios(parsed)
        header, (row,) = cli.run_eval(parsed)
        values = dict(zip(header, row))
        p_direct = mp_df_direct_integral(c)
        c_direct = mp_df_direct_integral(c, lambda t: mpmath.log1p(t) / mpmath.log(2)) / p_direct
        assert values["p_direct"] == pytest.approx(float(p_direct), rel=1e-12, abs=0.0)
        assert values["c_direct_bps_hz"] == pytest.approx(float(c_direct), rel=1e-9, abs=0.0)
        assert self.run("verify", "--config", str(cfg), "--samples", "20000") == 2
        rows = {line.split(",")[0]: line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]}
        assert rows["density_direct_normalization"][6] == "pass"
        assert {name for name, row in rows.items() if row[6] == "FAIL"} == {
            "p_direct_vs_mc", "c_direct_vs_mc"}

    def test_verification_failure_exit_code(self, monkeypatch, tmp_path):
        header = ["check", "closed_form", "oracle_mean", "oracle_std_error", "abs_diff",
                  "tolerance", "status"]
        failed = ["synthetic", 1.0, 2.0, 0.1, 1.0, 0.05, "FAIL"]
        monkeypatch.setattr(cli, "run_verify", lambda cfg: (header, [failed]))
        assert self.run("verify", "--preset", "fig1", "--out", str(tmp_path / "v.csv")) == 2
        assert "FAIL" in (tmp_path / "v.csv").read_text()

    def test_verify_seed_and_samples_precedence(self, tmp_path, capsys):
        # --seed > mc.seed > 42 and --samples > mc.samples, as --kind and
        # --protocol override the config; --seed 0 counts
        def verify(*argv):
            code = self.run("verify", *argv)
            return code, capsys.readouterr().out

        def config(entries):
            path = tmp_path / "mc.cfg"
            path.write_text(preset_text("fig1", entries))
            return "--config", str(path)

        def preset(samples, seed):
            return verify("--preset", "fig1", "--samples", samples, "--seed", seed)

        both = config({"mc.samples": 20000, "mc.seed": 5})
        runs = {(samples, seed): preset(samples, seed)
                for samples, seed in [("20000", "5"), ("20000", "9"), ("20000", "0"),
                                      ("30000", "5"), ("20000", "42")]}
        assert len({out for _, out in runs.values()}) == len(runs)
        assert verify(*both) == runs["20000", "5"]
        assert verify(*both, "--seed", "9") == runs["20000", "9"]
        assert verify(*both, "--seed", "0") == runs["20000", "0"]
        assert verify(*both, "--samples", "30000") == runs["30000", "5"]
        assert verify(*config({"mc.samples": 20000})) == runs["20000", "42"]

    def test_verify_passes_on_p2p_preset(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert self.run("verify", "--preset", "fig1", "--samples", "200000",
                        "--out", str(out)) == 0
        text = out.read_text()
        assert text.count("pass") == 2

    def test_protocol_override(self, capsys):
        assert self.run("eval", "--preset", "fig3", "--protocol", "af") == 0
        af_out = capsys.readouterr().out
        assert self.run("eval", "--preset", "fig3") == 0
        df_out = capsys.readouterr().out
        assert af_out != df_out

    def test_kind_override(self, capsys):
        assert self.run("eval", "--preset", "fig3", "--kind", "p2p") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("p_t_dbm,capacity_bps_hz,area_m2")

    def test_kind_override_keeps_a_negative_zero(self, tmp_path, capsys):
        # the re-targeted config is used as built: fig3's direct link at
        # p_s = -0.0 dBm prints as fig1's link at p_t = -0.0 dBm
        outs = []
        for preset, power, flags in (("fig3", "power.p_s_dbm", ["--kind", "p2p"]),
                                     ("fig1", "power.p_t_dbm", [])):
            path = tmp_path / f"{preset}.cfg"
            path.write_text(preset_text(preset, {power: -0.0}))
            assert self.run("eval", "--config", str(path), *flags) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[1].startswith("-0.00000000000e+00,")

    def test_python_m_gase(self):
        proc = run_module("eval", "--preset", "fig1")
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_FIG1_EVAL

    def test_import_loads_no_slow_modules(self):
        # concurrent.futures imports logging, about 12 ms of start-up per command;
        # numpy.polynomial builds no table at import, they are embedded
        proc = run_python("-c", "import sys, gase.cli; print(sorted({'concurrent.futures', "
                          "'logging', 'numpy.polynomial'} & set(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_console_script_installed(self):
        proc = subprocess.run(["gase", "eval", "--preset", "fig1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_FIG1_EVAL


class TestParserReuse:
    """cli.main builds its parser once per process and shares it between calls."""

    @staticmethod
    def call(argv, capsys, fresh=False):
        """(exit code, stdout, stderr) of one cli.main call; fresh=True first
        drops the shared parser, which makes the call an isolated one."""
        if fresh:
            cli._build_parser.cache_clear()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        return code, out, err

    def test_import_builds_no_parser(self):
        proc = run_python("-c", "import argparse\n"
                          "inits = []\n"
                          "init = argparse.ArgumentParser.__init__\n"
                          "def counted(self, *a, **k):\n"
                          "    inits.append(1)\n"
                          "    init(self, *a, **k)\n"
                          "argparse.ArgumentParser.__init__ = counted\n"
                          "import gase.cli\n"
                          "print(len(inits), gase.cli._build_parser.cache_info().currsize)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 0\n"

    def test_calls_build_one_parser(self, monkeypatch, capsys):
        inits = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            inits.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._build_parser.cache_clear()
        assert self.call(["eval", "--preset", "fig1"], capsys)[0] == 0
        built = len(inits)
        # one parser: the command is a positional of it
        assert built == 1
        for argv in (["eval", "--preset", "fig3", "--protocol", "af"], ["eval"],
                     ["sweep", "--preset", "fig1"], ["optimize", "--preset", "fig1"]):
            self.call(argv, capsys)
        assert len(inits) == built
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    @pytest.mark.parametrize("first,second", [
        (["verify", "--preset", "fig1", "--samples", "20000", "--seed", "5"],
         ["verify", "--preset", "fig1", "--samples", "20000"]),
        (["eval", "--preset", "fig3", "--protocol", "af"], ["eval", "--preset", "fig3"]),
        (["eval", "--preset", "fig3", "--kind", "p2p"], ["eval", "--preset", "fig3"]),
        (["eval", "--preset", "nosuch"], ["eval", "--preset", "fig1"]),
        (["eval", "--preset", "fig1", "--config", "x.cfg"], ["eval", "--preset", "fig1"]),
        (["verify", "--preset", "fig1", "--samples", "0"], ["verify", "--preset", "fig1",
                                                            "--samples", "20000"]),
        (["--help"], ["eval", "--preset", "fig1"]),
        (["sweep", "--help"], ["sweep", "--preset", "fig1"])],
        ids=["seed", "protocol", "kind", "bad-choice", "config-and-preset", "bad-samples",
             "help", "sub-help"])
    def test_alternating_calls_equal_isolated_calls(self, capsys, first, second):
        isolated = [self.call(argv, capsys, fresh=True) for argv in (first, second)]
        cli._build_parser.cache_clear()
        shared = [self.call(argv, capsys) for argv in (first, second, first, second)]
        assert shared == isolated * 2
        assert cli._build_parser.cache_info().misses == 1

    def test_help_and_usage_error_exits(self, capsys):
        code, out, _ = self.call(["--help"], capsys)
        assert code == ("SystemExit", 0)
        assert out.startswith("usage: gase ")
        code, _, err = self.call(["eval", "--preset", "nosuch"], capsys)
        assert code == 1
        assert err.startswith("gase: error: argument --preset: invalid choice: 'nosuch'")

    def test_concurrent_calls_equal_serial_calls(self, tmp_path):
        jobs = [["sweep", "--preset", "fig1"], ["eval", "--preset", "fig6"],
                ["sweep", "--preset", "fig3", "--protocol", "af"],
                ["verify", "--preset", "fig1", "--samples", "20000", "--seed", "9"],
                ["optimize", "--preset", "fig1"], ["eval", "--preset", "nosuch"]]

        def run_all(tag, order, results):
            for i in order:
                out = tmp_path / f"{tag}{i}.csv"
                results[i] = (cli.main([*jobs[i], "--out", str(out)]),
                              out.read_bytes() if out.exists() else None)

        serial = {}
        run_all("serial", range(len(jobs)), serial)
        assert [code for code, _ in serial.values()] == [0, 0, 0, 0, 0, 1]
        threaded = [{}, {}]
        barrier = threading.Barrier(2)

        def worker(k):
            barrier.wait()
            run_all(f"t{k}_", range(len(jobs)) if k else reversed(range(len(jobs))),
                    threaded[k])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert threaded[0] == threaded[1] == serial

    @pytest.mark.parametrize("preset", ["fig3", "fig4"])
    @pytest.mark.parametrize("protocol", ["df", "af"])
    def test_protocol_override_equals_a_reparsed_config(self, preset, protocol):
        reparsed = parse_config(preset_text(preset, {"protocol.relay": protocol}))
        args = cli._build_parser().parse_args(["eval", "--preset", preset,
                                               "--protocol", protocol])
        assert cli._load_cfg(args) == reparsed
        assert cli._load_cfg(args).protocol == protocol


class TestDeterminism:
    def test_sweep_worker_independence(self, tmp_path):
        for preset in ("fig1", "fig6"):
            outs = []
            for workers in ("1", "4"):
                out = tmp_path / f"{preset}_{workers}.csv"
                assert cli.main(["sweep", "--preset", preset, "--workers", workers,
                                 "--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("preset,calls", [("fig6", 1), ("fig7a", 61)])
    def test_parallel_area_once_per_i_th_sweep(self, monkeypatch, tmp_path, preset, calls):
        # the area does not depend on i_th, so an i_th sweep computes it once
        count = []
        area = cg.affected_area_parallel

        def counting(*args, **kwargs):
            count.append(1)
            return area(*args, **kwargs)

        monkeypatch.setattr(cg, "affected_area_parallel", counting)
        assert cli.main(["sweep", "--preset", preset, "--out", str(tmp_path / "s.csv")]) == 0
        assert len(count) == calls

    @pytest.mark.parametrize("command,calls", [("eval", 1), ("verify", 2), ("sweep", 1)])
    def test_af_selection_integral_once_per_split(self, monkeypatch, tmp_path, command, calls):
        # gase_coop builds the selection split once, and verify's densities
        # once more; a sweep's 61 points share one batch
        count = []
        selection = coop._af_selection_integrals

        def counting(*args, **kwargs):
            count.append(1)
            return selection(*args, **kwargs)

        monkeypatch.setattr(coop, "_af_selection_integrals", counting)
        assert cli.main([command, "--preset", "fig4", "--protocol", "af",
                         "--out", str(tmp_path / "o.csv")]) == 0
        assert len(count) == calls

    @pytest.mark.parametrize("preset,protocol", [("fig3", "af"), ("fig4", "af"), ("fig4", "df")])
    def test_sweep_integrals_equal_lone_integrals(self, monkeypatch, preset, protocol):
        # value, error and panels of each integral of the 61-point batch
        # equal those of its point evaluated alone
        cfg = replace(load_preset(preset), protocol=protocol)
        scenarios = cli._scenarios(cfg, cfg.sweep.parameter,
                                   [float(v) for v in cli._sweep_values(cfg)])
        module, batch = ((relay, relay.gase_dualhop_batch) if cfg.kind == "dualhop"
                         else (coop, coop.gase_coop_batch))
        calls = []
        original = module.integrate_semi_infinite_batch

        def recording(*args, **kwargs):
            calls.append(original(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(module, "integrate_semi_infinite_batch", recording)
        batch(scenarios, relay.RelayProtocol(protocol))
        together, calls[:] = calls[:], []
        assert together and all(len(results) == 61 for results in together)
        for i, s in enumerate(scenarios):
            batch([s], relay.RelayProtocol(protocol))
            assert [results[i] for results in together] == [alone[0] for alone in calls]
            calls.clear()

    def test_verify_worker_independence(self, tmp_path):
        outs = []
        for workers in ("1", "3"):
            out = tmp_path / f"v{workers}.csv"
            assert cli.main(["verify", "--preset", "fig1", "--samples", "100000",
                             "--workers", workers, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_oracle_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["verify", "--preset", "fig1", "--samples", "50000",
                         "--seed", "1", "--out", str(a)]) == 0
        assert cli.main(["verify", "--preset", "fig1", "--samples", "50000",
                         "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_DBM = _finite(-200.0, 100.0)
_EXPONENT = _finite(0.1, 10.0)
_DISTANCE = _finite(-3.0, 6.0).map(lambda e: 10.0 ** e)
# nearly the whole domain that the parser accepts: any a > 0, any finite distance > 0
_PARSER_EXPONENT = _finite(0.01, 2000.0)
_PARSER_DISTANCE = _finite(-300.0, 300.0).map(lambda e: 10.0 ** e)
_GEOM = {"p2p": ("d",), "dualhop": ("d_sr", "d_rd"), "coop": ("d_sd", "d_sr", "d_rd")}


def _scenario(draw, kind, exponent=_EXPONENT, distance=_DISTANCE):
    """The config entries of one p2p, dual-hop or cooperative scenario, DF or AF."""
    values = {"scenario.kind": kind, "env.path_loss_exponent": draw(exponent),
              "env.noise_dbm": draw(_DBM), "env.p_min_dbm": draw(_DBM)}
    values.update((f"geom.{key}", draw(distance)) for key in _GEOM[kind])
    powers = ("p_t_dbm",) if kind == "p2p" else ("p_s_dbm", "p_r_dbm")
    values.update((f"power.{key}", draw(_DBM)) for key in powers)
    if kind != "p2p":
        values["protocol.relay"] = draw(st.sampled_from(("df", "af")))
    return values


@st.composite
def two_transmitter_configs(draw, max_points=0, exponent=_EXPONENT, distance=_DISTANCE):
    """Config text for one cognitive or xchannel scenario the parser accepts.

    d_sp and d_ps lie inside the triangle bounds [|d0 - d_p|, d0 + d_p] and
    [|d0 - d_s|, d0 + d_s]; i_th is drawn for the cognitive kind only.  With
    max_points > 0 the config sweeps a sweepable parameter over 1 to
    max_points points.
    """
    kind = draw(st.sampled_from(("cognitive", "xchannel")))
    values = {"scenario.kind": kind, "env.path_loss_exponent": draw(exponent),
              "env.noise_dbm": draw(_DBM), "env.p_min_dbm": draw(_DBM)}
    d0, d_p, d_s = draw(distance), draw(distance), draw(distance)
    values.update({"geom.d_p": d_p, "geom.d_s": d_s, "geom.d0": d0})
    for key, d in (("d_sp", d_p), ("d_ps", d_s)):
        lo, hi = abs(d0 - d), d0 + d
        t = draw(st.floats(0.0, 1.0, exclude_min=True))
        values[f"geom.{key}"] = min(max(lo + t * (hi - lo), lo), hi)
    values.update({"power.p1_dbm": draw(_DBM), "power.p2_dbm": draw(_DBM)})
    if kind == "cognitive":
        values["threshold.i_th_dbm"] = draw(_DBM)
    if max_points:
        values.update(_sweep_block(draw, kind, max_points))
    return _text(values)


def _sweep_block(draw, kind, max_points):
    return {"sweep.parameter": draw(st.sampled_from(config._KINDS[kind].sweepable)),
            "sweep.start": draw(_DBM), "sweep.stop": draw(_DBM),
            "sweep.points": draw(st.integers(1, max_points))}


def _text(values):
    return "".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                   for key, value in values.items())


@st.composite
def eval_configs(draw, exponent=_EXPONENT, distance=_DISTANCE):
    """Config text for one p2p, dual-hop or cooperative eval, DF or AF."""
    return _text(_scenario(draw, draw(st.sampled_from(sorted(_GEOM))), exponent, distance))


@st.composite
def optimize_configs(draw):
    """Config text for one dual-hop optimize, DF or AF, on equal or drawn hops.

    p_max sits far below, near or far above the rough optimum N d^a (in dBm),
    so that the 100 dB box holds the optimum, cuts it off at a face or
    corner, or lies wholly below or above it; a <= 2 has no interior optimum.
    """
    values = _scenario(draw, "dualhop")
    if draw(st.booleans()):
        values["geom.d_rd"] = values["geom.d_sr"]
    d = max(values["geom.d_sr"], values["geom.d_rd"])
    rough = values["env.noise_dbm"] + 10.0 * values["env.path_loss_exponent"] * math.log10(d)
    offset = draw(st.sampled_from((-300.0, -40.0, 0.0, 30.0, 90.0, 300.0)))
    values["optimize.p_max_dbm"] = min(max(rough + offset, -200.0), 100.0)
    return _text(values)


@st.composite
def sweep_configs(draw, kinds=tuple(sorted(_GEOM)), max_points=3):
    """Config text for a 1- to max_points-point sweep over any sweepable power."""
    kind = draw(st.sampled_from(kinds))
    values = _scenario(draw, kind)
    values.update(_sweep_block(draw, kind, max_points))
    return _text(values)


def _exit_code(tmp_path, command, text, *flags):
    path = tmp_path / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "out.csv"),
                     *flags])


def _point_config(cfg, param, value):
    """cfg at one value (dBm) of a sweep parameter, from scratch: i_th_dbm sets
    the threshold, p_t_dbm on a relay kind both powers, any other parameter
    the named power."""
    if param == "i_th_dbm":
        return replace(cfg, i_th_dbm=value)
    keys = ("p_s_dbm", "p_r_dbm") if param == "p_t_dbm" and cfg.kind != "p2p" else (param,)
    return replace(cfg, power_dbm={**cfg.power_dbm, **dict.fromkeys(keys, value)})


def _sweep_rows_checked_against_evals(cfg):
    """Each sweep row equals its point's eval row byte for byte, under the
    same header, and a sweep fails exactly when one of its points does;
    returns the sweep's rows, all finite, as column dicts (none when the
    sweep fails)."""
    param = cfg.sweep.parameter
    values = [float(v) for v in cli._sweep_values(cfg)]

    def formatted(run, c):
        try:
            header, rows = run(c)
        except (ArithmeticError, ValueError):
            return None
        return header, [[f"{x:.11e}" for x in row] for row in rows]

    evals = [formatted(cli.run_eval, _point_config(cfg, param, v)) for v in values]
    swept = formatted(cli.run_sweep, cfg)
    if swept is None:
        assert None in evals
        return []
    header, rows = swept
    assert evals == [(header, [row]) for row in rows]
    header, rows = cli.run_sweep(cfg)
    assert all(math.isfinite(x) for row in rows for x in row)
    return [dict(zip(header[1:], row[1:])) for row in rows]


def test_sweep_rows_are_checked_against_evals(monkeypatch):
    fig4 = load_preset("fig4")
    cfg = replace(fig4, sweep=replace(fig4.sweep, points=3))
    assert len(_sweep_rows_checked_against_evals(cfg)) == 3
    batch = coop.gase_coop_batch

    def swapped(scenarios, protocol):
        # a sweep, but not an eval, gets two of its columns swapped
        results = batch(scenarios, protocol)
        for c in results if len(results) > 1 else []:
            c["c_direct_bps_hz"], c["c_relay_bps_hz"] = c["c_relay_bps_hz"], c["c_direct_bps_hz"]
        return results

    monkeypatch.setattr(coop, "gase_coop_batch", swapped)
    with pytest.raises(AssertionError):
        _sweep_rows_checked_against_evals(cfg)


_BUILD = cli._scenarios


def _built_from_scratch(cfg, param=None, values=(None,)):
    """cli._scenarios with each point built from its own config, as a lone eval
    builds it: environment and every power anew."""
    if param is None:
        return _BUILD(cfg)
    return [_BUILD(_point_config(cfg, param, v))[0] for v in values]


# (preset, overrides, sweep parameter): every sweepable parameter of every kind,
# p_t_dbm on coop (both powers, through the library API), both relay
# protocols, and the --kind p2p re-targets of fig3 and fig4
_SWEEP_CASES = [
    ("fig1", {}, "p_t_dbm"),
    ("fig3", {}, "p_t_dbm"), ("fig3", {}, "p_s_dbm"), ("fig3", {}, "p_r_dbm"),
    ("fig3", {"protocol": "af"}, "p_t_dbm"),
    ("fig4", {}, "p_s_dbm"), ("fig4", {}, "p_r_dbm"), ("fig4", {}, "p_t_dbm"),
    ("fig4", {"protocol": "af"}, "p_r_dbm"),
    ("fig6", {}, "i_th_dbm"), ("fig6", {}, "p1_dbm"), ("fig6", {}, "p2_dbm"),
    ("fig7a", {"kind": "xchannel"}, "p1_dbm"), ("fig7a", {"kind": "xchannel"}, "p2_dbm"),
    ("fig3", {"kind": "p2p"}, "p_t_dbm"), ("fig4", {"kind": "p2p"}, "p_t_dbm"),
]

# sweeps whose scenarios cannot be built: a power or i_th beyond the float
# range (OverflowError) or rounding to 0 W, at the first point or a later one,
# with a bad unswept power listed after or before the swept one
_BAD_SWEEPS = [
    ("fig3", {"p_r_dbm": -5000.0}, ("p_s_dbm", 4000.0, 0.0)),
    ("fig3", {"p_s_dbm": -5000.0}, ("p_r_dbm", 4000.0, 0.0)),
    ("fig3", {"p_r_dbm": 4000.0}, ("p_s_dbm", -5000.0, 0.0)),
    ("fig3", {}, ("p_t_dbm", 0.0, 4000.0)),
    ("fig4", {"p_s_dbm": 4000.0}, ("p_r_dbm", 0.0, -5000.0)),
    ("fig1", {}, ("p_t_dbm", 0.0, -5000.0)),
    ("fig6", {"p1_dbm": 5000.0}, ("i_th_dbm", -5000.0, 0.0)),
    ("fig6", {"p1_dbm": 5000.0}, ("i_th_dbm", 5000.0, 0.0)),
    ("fig6", {"p1_dbm": -5000.0}, ("i_th_dbm", 5000.0, 0.0)),
    ("fig6", {}, ("i_th_dbm", 0.0, -5000.0)),
    ("fig6", {}, ("i_th_dbm", 0.0, 5000.0)),
    ("fig6", {"p2_dbm": -5000.0}, ("p1_dbm", 5000.0, 0.0)),
    ("fig7a", {"p1_dbm": -5000.0}, ("p2_dbm", 0.0, 5000.0)),
]


def _run_cli(tmp_path, text, *argv):
    path = tmp_path / "sweep.cfg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--config", str(path)])
    return rc, out.getvalue(), err.getvalue()


class TestSweepPoints:
    # a sweep builds per point only the swept power or i_th; its rows,
    # messages and exit codes are those of its points built from scratch

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize("preset,overrides,param", _SWEEP_CASES)
    def test_sweep_rows_equal_point_evals(self, preset, overrides, param, spacing):
        cfg = load_preset(preset)
        if "kind" in overrides:
            cfg = derive_kind(cfg, overrides["kind"])
        start, stop = (-110.0, -50.0) if param == "i_th_dbm" else (5.0, 35.0)
        cfg = replace(cfg, protocol=overrides.get("protocol", cfg.protocol),
                      sweep=SweepBlock(param, start, stop, 4, spacing))
        header, rows = cli.run_sweep(cfg)
        spaced = np.geomspace if spacing == "log" else np.linspace
        assert [row[0] for row in rows] == spaced(start, stop, 4).tolist()
        for row in rows:
            eval_header, (eval_row,) = cli.run_eval(
                replace(_point_config(cfg, param, row[0]), sweep=None))
            assert eval_header[1:] == header[1:]
            assert eval_row[1:] == row[1:]

    @pytest.mark.parametrize("preset,powers,sweep", _BAD_SWEEPS)
    def test_bad_point_fails_as_when_built_from_scratch(self, monkeypatch, tmp_path, preset,
                                                        powers, sweep):
        param, start, stop = sweep
        text = preset_text(preset, {**{f"power.{k}": v for k, v in powers.items()},
                                    "sweep.parameter": param, "sweep.start": start,
                                    "sweep.stop": stop, "sweep.points": 3})
        got = _run_cli(tmp_path, text, "sweep")
        monkeypatch.setattr(cli, "_scenarios", _built_from_scratch)
        assert got == _run_cli(tmp_path, text, "sweep")
        assert got[0] == 3 and got[1] == ""

    @settings(derandomize=True, database=None, max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(sweep_configs(max_points=4), two_transmitter_configs(max_points=4)))
    def test_sweep_equals_one_built_from_scratch(self, monkeypatch, tmp_path, text):
        # stdout, stderr and exit code, failing points included
        got = _run_cli(tmp_path, text, "sweep")
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_scenarios", _built_from_scratch)
            assert got == _run_cli(tmp_path, text, "sweep")


def test_write_csv_formats_each_cell_alone(tmp_path):
    cells = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
             -2.5e-7, 1.0 / 3.0, np.float64(0.1), 7]
    header = ["check", *(f"c{i}" for i in range(len(cells))), "status"]
    rows = [["first", *cells, "pass"], ["second", *reversed(cells), "FAIL"]]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), header, rows)
    expected = [",".join(header)] + [
        ",".join(c if isinstance(c, str) else f"{c:.11e}" for c in row) for row in rows]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


class TestCliRobustness:
    # a numerical limit is exit 3; no input may end in a traceback

    @settings(derandomize=True, database=None, max_examples=100, deadline=2000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(eval_configs())
    def test_eval_ends_in_an_exit_code(self, tmp_path, text):
        assert _exit_code(tmp_path, "eval", text) in (0, 1, 2, 3)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(eval_configs(_PARSER_EXPONENT, _PARSER_DISTANCE),
                     two_transmitter_configs(0, _PARSER_EXPONENT, _PARSER_DISTANCE)))
    def test_eval_over_the_parser_domain_ends_in_an_exit_code(self, tmp_path, text):
        # a numerical limit is named: exit 3 with a bare Python or domain error fails
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _exit_code(tmp_path, "eval", text)
        assert code in (0, 1, 3)
        message = err.getvalue().removeprefix("gase: numerical failure: ")
        assert not message.startswith(("math domain error", "scaled_e1 requires",
                                       "scaled_en requires"))

    @settings(derandomize=True, database=None, max_examples=40, deadline=2000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(optimize_configs())
    def test_optimize_ends_in_an_exit_code(self, tmp_path, text):
        assert _exit_code(tmp_path, "optimize", text) in (0, 1, 2, 3)

    @settings(derandomize=True, database=None, max_examples=40, deadline=2000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sweep_configs())
    def test_sweep_ends_in_an_exit_code(self, tmp_path, text):
        assert _exit_code(tmp_path, "sweep", text) in (0, 1, 2, 3)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(sweep_configs(("coop", "dualhop"), 5))
    def test_relay_sweep_rows_equal_eval_rows(self, text):
        cfg = parse_config(text)
        for c in _sweep_rows_checked_against_evals(cfg):
            assert min(v for k, v in c.items() if k.startswith(("c_", "capacity"))) >= 0.0
            if cfg.kind == "dualhop":
                inverse_area = 0.5 * (1.0 / c["area_sr_m2"] + 1.0 / c["area_rd_m2"])
                assert c["gase_bps_hz_m2"] == pytest.approx(c["capacity_bps_hz"] * inverse_area,
                                                            rel=1e-12)
                continue
            assert 0.0 <= c["p_direct"] <= 1.0 and 0.0 <= c["p_relay"] <= 1.0
            assert c["p_direct"] + c["p_relay"] == pytest.approx(1.0, abs=1e-15)
            assert c["capacity_bps_hz"] == pytest.approx(
                c["p_direct"] * c["c_direct_bps_hz"] + c["p_relay"] * c["c_relay_bps_hz"],
                rel=1e-12)
            per_area = (c["p_direct"] * c["c_direct_bps_hz"] / c["area_s_m2"]
                        + c["p_relay"] * 0.5 * c["c_relay_bps_hz"]
                        * (1.0 / c["area_s_m2"] + 1.0 / c["area_r_m2"]))
            assert c["gase_bps_hz_m2"] == pytest.approx(per_area, rel=1e-12)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(two_transmitter_configs(max_points=3))
    def test_two_transmitter_sweep_rows_equal_eval_rows(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:  # a distance at a triangle bound can round to 0
            assume(False)
        for c in _sweep_rows_checked_against_evals(cfg):
            assert min(v for k, v in c.items() if k.startswith(("c_", "se_"))) >= 0.0
            if cfg.kind == "xchannel":
                assert c["se_total_bps_hz"] == pytest.approx(
                    c["c_primary_bps_hz"] + c["c_secondary_bps_hz"], rel=1e-12)
                assert c["gase_bps_hz_m2"] == pytest.approx(
                    c["se_total_bps_hz"] / c["area_parallel_m2"], rel=1e-12)
                continue
            p = c["p_parallel"]
            assert 0.0 <= p <= 1.0
            parallel = c["c_primary_bps_hz"] + c["c_secondary_bps_hz"]
            assert c["se_total_bps_hz"] == pytest.approx(
                p * parallel + (1.0 - p) * c["c_p2p_bps_hz"], rel=1e-12)
            assert c["gase_p2p_bps_hz_m2"] == pytest.approx(
                c["c_p2p_bps_hz"] / c["area_p2p_m2"], rel=1e-12)
            assert c["gase_bps_hz_m2"] == pytest.approx(
                p * parallel / c["area_parallel_m2"] + (1.0 - p) * c["gase_p2p_bps_hz_m2"],
                rel=1e-12)
            assert c["gase_x_bps_hz_m2"] >= 0.0

    @settings(derandomize=True, database=None, max_examples=40, deadline=2000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(eval_configs())
    def test_verify_ends_in_an_exit_code(self, tmp_path, text):
        assert _exit_code(tmp_path, "verify", text, "--samples", "2000") in (0, 1, 2, 3)

    @settings(derandomize=True, database=None, max_examples=40, deadline=2000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(two_transmitter_configs())
    def test_verify_two_transmitters_ends_in_an_exit_code(self, tmp_path, text):
        assert _exit_code(tmp_path, "verify", text, "--samples", "2000") in (0, 1, 2, 3)


_BAD_VALUES = ("x", "nan", "-1", "0", "1.5", "1e400", "")
_STRAY_KEYS = ("bogus.key", "geom.theta", "geom.d_sd", "power.p_t_dbm", "protocol.relay",
               "threshold.i_th_dbm", "sweep.parameter", "sweep.spacing", "sweep.points",
               "mc.samples", "mc.seed", "optimize.p_max_dbm")


@st.composite
def malformed_preset_texts(draw):
    """A preset's text after one to three mutations: a line dropped or
    duplicated, a value set to a bad one, or a stray key appended."""
    lines = config._PRESETS[draw(st.sampled_from(config.preset_names()))].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        mutation = draw(st.sampled_from(("drop", "duplicate", "value", "stray")))
        if mutation == "drop":
            del lines[i]
        elif mutation == "duplicate":
            lines.insert(i, lines[i])
        elif mutation == "value":
            lines[i] = f"{lines[i].split(' = ')[0]} = {draw(st.sampled_from(_BAD_VALUES))}"
        else:
            value = draw(st.sampled_from(_BAD_VALUES + ("1", "log", "df", "p_t_dbm")))
            lines.append(f"{draw(st.sampled_from(_STRAY_KEYS))} = {value}")
    return "\n".join(lines) + "\n"


class TestMalformedConfigs:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(malformed_preset_texts())
    def test_a_config_or_its_sorted_diagnostics(self, tmp_path, text):
        # parse_config raises nothing but ConfigError; eval exits 1 exactly there
        try:
            cfg = parse_config(text)
            assert isinstance(cfg, config.ScenarioConfig)
        except ConfigError as exc:
            cfg = None
            assert exc.diagnostics and exc.diagnostics == sorted(exc.diagnostics)
            assert all(0 <= line <= len(text.splitlines()) for line, _ in exc.diagnostics)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _exit_code(tmp_path, "eval", text)
        assert code in ((1,) if cfg is None else (0, 3))
        assert "Traceback" not in err.getvalue()


def _sweep_columns(text, protocol=None):
    """The sweep of a drawn config (re-targeted at ``protocol``) as
    (parameter, {column: values in ascending parameter order}); None where it
    ends in a numerical limit."""
    cfg = parse_config(text)
    if protocol is not None:
        cfg = replace(cfg, protocol=protocol)
    try:
        header, rows = cli.run_sweep(cfg)
    except (ArithmeticError, ValueError):
        return None
    rows = sorted(rows, key=lambda row: row[0])
    return header[0], {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _rises(values):
    return all(a <= b for a, b in zip(values, values[1:]))


class TestMonotoneLaws:
    # the laws of the closed forms in the swept power or threshold, checked
    # along whole sweeps of drawn configs, so that the per-point sweep path
    # is checked with them

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(sweep_configs(("p2p",), 8))
    def test_p2p_capacity_and_area_rise_with_power(self, text):
        sweep = _sweep_columns(text)
        assume(sweep is not None)
        _, c = sweep
        assert _rises(c["capacity_bps_hz"]) and _rises(c["area_m2"])

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(sweep_configs(("dualhop",), 8))
    def test_df_capacity_rises_with_either_power(self, text):
        sweep = _sweep_columns(text, "df")
        assume(sweep is not None)
        _, c = sweep
        assert _rises(c["capacity_bps_hz"])

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(two_transmitter_configs(max_points=8))
    def test_parallel_probability_and_area_along_a_sweep(self, text):
        # P rises with i_th and falls with p2; the parallel area rises with
        # either power, to within the tolerance it is computed to
        try:
            sweep = _sweep_columns(text)
        except ConfigError:  # a distance at a triangle bound can round to 0
            sweep = None
        assume(sweep is not None)
        param, c = sweep
        if param == "i_th_dbm":
            assert _rises(c["p_parallel"])
            return
        if param == "p2_dbm" and "p_parallel" in c:
            assert _rises(c["p_parallel"][::-1])
        area = c["area_parallel_m2"]
        assert all(b >= a * (1.0 - cg._AREA_TOL) for a, b in zip(area, area[1:]))

    @pytest.mark.xfail(strict=True, reason="the parallel area is computed to 2e-5 relative, "
                       "and falls by 8e-7 between these points")
    def test_parallel_area_rises_with_power_exactly(self):
        text = ("scenario.kind = xchannel\nenv.path_loss_exponent = 3.5\nenv.noise_dbm = 0\n"
                "env.p_min_dbm = 0\ngeom.d_p = 1\ngeom.d_s = 1\ngeom.d0 = 0.1\n"
                "geom.d_sp = 1.1\ngeom.d_ps = 1.1\npower.p1_dbm = 0\npower.p2_dbm = 0\n"
                "sweep.parameter = p1_dbm\nsweep.start = -200\nsweep.stop = 0\n"
                "sweep.points = 3\n")
        assert _rises(_sweep_columns(text)[1]["area_parallel_m2"])

def _reference_points(cfg, env):
    """(ln P_S, ln P_R) of the four corners of the optimiser's 10-decade box
    and, for a > 2, of the DF closed-form optimum clipped to it."""
    a = env.path_loss_exponent
    hi = math.log(PowerLevel.from_dbm(cfg.p_max_dbm).watts)
    lo = hi - 10.0 * math.log(10.0)
    points = [(u, v) for u in (lo, hi) for v in (lo, hi)]
    if a > 2.0:
        ln_c = [a * math.log(cfg.geometry[k]) + math.log(env.noise_w) for k in ("d_sr", "d_rd")]
        ln_split = a / (a - 2.0) * (ln_c[0] - ln_c[1])  # ln(P_S/P_R)
        ln_pr = float(np.logaddexp(ln_c[0] - ln_split, ln_c[1])) - math.log(optimal_inverse_snr(a))
        points.append((min(max(ln_pr + ln_split, lo), hi), min(max(ln_pr, lo), hi)))
    return points


class TestOptimumDominance:
    # on the optimize fuzz draws, the optimum's GASE is at least that of each
    # box corner and of the clipped DF closed-form optimum

    @staticmethod
    def check(text, protocol):
        cfg = parse_config(text)
        env = cli._env_of(cfg)
        d_sr, d_rd = cfg.geometry["d_sr"], cfg.geometry["d_rd"]
        try:
            _, _, eta = relay.optimize_relay_powers(env, d_sr, d_rd,
                                                    PowerLevel.from_dbm(cfg.p_max_dbm), protocol)
            points = _reference_points(cfg, env)
        except (ArithmeticError, ValueError):  # a numerical limit: exit 3 in the CLI
            return
        for u, v in points:
            s = relay.DualHopScenario(env, PowerLevel(math.exp(u)), PowerLevel(math.exp(v)),
                                      d_sr, d_rd)
            try:
                reference = relay.gase_dualhop(s, protocol)["gase_bps_hz_m2"]
            except (ArithmeticError, ValueError):
                continue
            assert eta >= reference * (1.0 - 1e-12)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(optimize_configs())
    def test_df_optimum_dominates(self, text):
        self.check(text, relay.RelayProtocol.DF)

    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    @given(optimize_configs())
    def test_af_optimum_dominates(self, text):
        self.check(text, relay.RelayProtocol.AF)
