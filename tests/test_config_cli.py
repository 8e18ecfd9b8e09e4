"""Config grammar, presets, CSV schema, CLI exit codes, and determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gase import cli
from gase import cognitive_underlay as cg
from gase.config import (ConfigError, derive_kind, load_preset, parse_config,
                         preset_names, render_config)

FIG1_TEXT = """\
# point-to-point reference scenario
scenario.kind = p2p
env.path_loss_exponent = 4
env.noise_dbm = -100   # thermal noise floor
env.p_min_dbm = -90
geom.d = 1000
power.p_t_dbm = 30
"""

# gbar_SD ~ 1e-16: the direct-mode normaliser gbar_SD - S cancels to zero
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

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv):
    """``python -m gase ARGV`` on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gase", *argv],
                          capture_output=True, text=True, env=env)


# frozen golden rows: 12-significant-digit scientific notation, fixed order
GOLDEN_FIG1_EVAL = (
    "p_t_dbm,capacity_bps_hz,area_m2,gase_bps_hz_m2\n"
    "3.00000000000e+01,2.90651480841e+00,2.78416399842e+06,1.04394525971e-06\n")
GOLDEN_FIG6_EVAL = (
    "i_th_dbm,p_parallel,c_primary_bps_hz,c_secondary_bps_hz,c_p2p_bps_hz,"
    "area_parallel_m2,area_p2p_m2,se_total_bps_hz,gase_bps_hz_m2,"
    "gase_x_bps_hz_m2,gase_p2p_bps_hz_m2\n"
    "-8.00000000000e+01,4.93649081413e-02,7.23027812293e+00,2.91025164980e+00,"
    "1.24563560415e+01,4.18668329037e+06,2.78416399842e+06,1.23420354905e+01,"
    "4.37270987797e-06,1.39024208327e-06,4.47400226732e-06\n")
GOLDEN_FIG4_EVAL = (
    "p_s_dbm,p_direct,p_relay,c_direct_bps_hz,c_relay_bps_hz,capacity_bps_hz,"
    "area_s_m2,area_r_m2,gase_bps_hz_m2\n"
    "2.00000000000e+01,6.44033323588e-01,3.55966676412e-01,1.13341436899e+00,"
    "7.69218280332e-01,1.00377269775e+00,2.78416399842e+05,8.80429961444e+04,"
    "4.66856797636e-06\n")


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

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(FIG1_TEXT + "geom.d = 500\n")


class TestPresetsAndRendering:
    def test_round_trip_all_presets(self):
        for name in preset_names():
            cfg = load_preset(name)
            assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_survives_mutation(self):
        cfg = load_preset("fig4").with_parameter("p_s_dbm", 17.25)
        assert parse_config(render_config(cfg)) == cfg

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


class TestCliCommands:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_eval_golden_fig1(self, tmp_path, capsys):
        assert self.run("eval", "--preset", "fig1") == 0
        assert capsys.readouterr().out == GOLDEN_FIG1_EVAL

    def test_eval_golden_fig6(self, capsys):
        assert self.run("eval", "--preset", "fig6") == 0
        assert capsys.readouterr().out == GOLDEN_FIG6_EVAL

    def test_eval_golden_fig4(self, capsys):
        assert self.run("eval", "--preset", "fig4") == 0
        assert capsys.readouterr().out == GOLDEN_FIG4_EVAL

    def test_degenerate_sweep_equals_eval(self, tmp_path):
        base = load_preset("fig1")
        single = render_config(base).replace("sweep.start = -10", "sweep.start = 30") \
                                    .replace("sweep.stop = 50", "sweep.stop = 30") \
                                    .replace("sweep.points = 61", "sweep.points = 1")
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

    def test_division_by_zero_is_numeric_exit_code(self, tmp_path):
        cfg = tmp_path / "cancel.cfg"
        cfg.write_text(COOP_CANCEL_TEXT)
        proc = run_module("eval", "--config", str(cfg))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("gase: numerical failure:")
        assert len(proc.stderr.splitlines()) == 1

    def test_verification_failure_exit_code(self, monkeypatch, tmp_path):
        failed = cli.VerifyCheck("synthetic", 1.0, 2.0, 0.1, 0.05)
        monkeypatch.setattr(cli, "run_verify", lambda *a, **k: [failed])
        assert self.run("verify", "--preset", "fig1", "--out", str(tmp_path / "v.csv")) == 2
        assert "FAIL" in (tmp_path / "v.csv").read_text()

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

    def test_python_m_gase(self):
        proc = run_module("eval", "--preset", "fig1")
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_FIG1_EVAL

    def test_console_script_installed(self):
        proc = subprocess.run(["gase", "eval", "--preset", "fig1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_FIG1_EVAL


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
