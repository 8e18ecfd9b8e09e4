"""Every name a ``gase`` module advertises resolves, and so does every name
the benchmark harness under ``bench/`` looks up."""

import functools
import gzip
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gase
from gase import cli
from gase import cognitive_underlay as cg
from gase import config
from gase import coop_threenode as coop
from gase import mathkernel as mk
from gase import mc_oracle as mc
from gase import relay_dualhop as relay
from gase.propagation import PowerLevel, PropagationEnvironment

MODULES = sorted(m.name for m in pkgutil.iter_modules(gase.__path__)
                 if not m.name.startswith("__"))
SRC = Path(gase.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"gase.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


# every package-level name, each resolved from its module on first use
PACKAGE_NAMES = {
    "cognitive_underlay": {"CognitiveScenario", "affected_area_parallel", "gase_cognitive",
                           "gase_x_channel", "primary_capacity_parallel", "prob_parallel",
                           "secondary_capacity_parallel", "x_channel_primary_capacity"},
    "config": {"ConfigError", "ScenarioConfig", "load_preset", "parse_config", "preset_names"},
    "coop_threenode": {"CoopScenario", "gase_coop", "special_integral_D"},
    "link_p2p": {"NoInteriorOptimumError", "P2pScenario", "ergodic_capacity_p2p", "gase_p2p",
                 "optimal_power_p2p"},
    "mathkernel": {"BracketingError", "QuadratureError", "QuadratureSpec", "bessel_k0",
                   "bessel_k1", "find_root_bracketed", "integrate", "integrate_semi_infinite",
                   "scaled_e1"},
    "mc_oracle": {"McConfig", "McEstimate", "mc_affected_area", "mc_ergodic_capacity",
                  "mc_mode_probability"},
    "propagation": {"PowerLevel", "PropagationEnvironment", "affected_area_single",
                    "dbm_to_watts", "mean_snr", "watts_to_dbm"},
    "relay_dualhop": {"DualHopScenario", "RelayProtocol", "ergodic_capacity_af",
                      "ergodic_capacity_df", "gase_dualhop", "optimize_relay_powers"},
}


def test_package_reexports_resolve():
    table = {}
    for name, module in gase._EXPORTS.items():
        table.setdefault(module, set()).add(name)
        mod = importlib.import_module(f"gase.{module}")
        assert name in mod.__all__
        assert getattr(gase, name) is getattr(mod, name)
    assert table == PACKAGE_NAMES
    assert set(gase._SUBMODULES) == set(MODULES)
    assert all(getattr(gase, name) is importlib.import_module(f"gase.{name}") for name in MODULES)
    with pytest.raises(AttributeError):
        gase.no_such_name


def _fresh(code):
    """stdout of ``code`` in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    return proc.stdout


def test_readme_library_snippet_runs():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    assert float(_fresh(snippet)) > 0.0


def _loaded(code):
    """The gase modules in sys.modules after ``code``, in a fresh interpreter."""
    return set(_fresh(code + "\nimport sys\n"
                      "print(*(m for m in sys.modules if m.split('.')[0] == 'gase'))").split())


START_UP = {"gase", "gase.cli", "gase.config", "gase.propagation", "gase.link_p2p",
            "gase.mathkernel"}
FIG3_OPTIMIZE = "\n".join([config._PRESETS["fig3"], "optimize.p_max_dbm = 30", ""])


def test_import_gase_loads_no_submodule():
    assert _loaded("import gase") == {"gase"}


def test_cli_start_up_loads_what_every_command_runs():
    assert _loaded("import gase.cli") == START_UP


@pytest.mark.parametrize("argv,deferred", [
    (["eval", "--preset", "fig1"], set()),
    (["optimize", "--config", "{dir}/fig3.cfg"], {"gase.relay_dualhop"}),
    (["verify", "--preset", "fig1", "--samples", "2000"], {"gase.mc_oracle"}),
    (["verify", "--preset", "fig3", "--samples", "2000"],
     {"gase.relay_dualhop", "gase.mc_oracle"}),
    (["verify", "--preset", "fig4", "--protocol", "af", "--samples", "2000"],
     {"gase.coop_threenode", "gase.relay_dualhop", "gase.mc_oracle"}),
    (["eval", "--preset", "fig6"], {"gase.cognitive_underlay"}),
])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, deferred):
    (tmp_path / "fig3.cfg").write_text(FIG3_OPTIMIZE, encoding="utf-8")
    argv = [arg.format(dir=tmp_path) for arg in argv] + ["--out", str(tmp_path / "out.csv")]
    code = f"from gase import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded(code) == START_UP | deferred


def test_traced_results_keep_what_the_tracer_reads():
    assert mk.integrate(lambda x: x, 0.0, 1.0).panels >= 1
    assert mk.find_root_bracketed(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0)


def test_benchmark_calls_accept_their_arguments():
    env = PropagationEnvironment.from_dbm(4.0, -100.0, -100.0)
    p1, p2 = PowerLevel.from_dbm(20.0), PowerLevel.from_dbm(20.0)
    for fn in (mk.scaled_e1, mk.bessel_k0, mk.bessel_k1):
        assert np.shape(fn(np.geomspace(0.1, 20.0, 15))) == (15,)
        assert np.isfinite(fn(1.0))
    assert np.isfinite(mk.erfcx(1.7))
    hop = relay.DualHopScenario(env, p1, p2, 500.0, 500.0)
    assert relay.ergodic_capacity_af(hop) > 0.0
    assert coop.af_selection_integral(coop.CoopScenario(env, p1, p2, 1000.0, 500.0, 500.0)) > 0.0
    cog = cg.CognitiveScenario(env, p1, p2, 100.0, 100.0, 150.0, 150.0, 100.0, 1e-11)
    assert cg.affected_area_parallel(cog) > 0.0

    cfg = mc.McConfig(1024, 7, 0)
    radius1, tail1 = mc.certified_disk_radius(env, p1)
    radius2, tail2 = mc.certified_disk_radius(env, p1.watts + p2.watts, d0=100.0)
    samplers = [mc.p2p_snr_sampler(100.0), mc.df_snr_sampler(100.0, 50.0),
                mc.af_snr_sampler(100.0, 50.0, exact=False), mc.af_snr_sampler(100.0, 50.0),
                mc.primary_sinr_sampler(cog), mc.secondary_sinr_sampler(cog)]
    for sampler in samplers:
        assert np.isfinite(mc.mc_ergodic_capacity(sampler, cfg).mean)
    for field, radius, tail in ((mc.single_source_field(env, p1), radius1, tail1),
                                (mc.two_source_field(env, p1, p2, 100.0), radius2, tail2)):
        assert mc.mc_affected_area(field, radius, cfg, tail, env.p_min_w).mean > 0.0
    for protocol in ("df", "af"):
        assert mc.mc_coop_summary(1.0, 100.0, 50.0, protocol, cfg)
    event = mc.McSampler(1, lambda u: mc.exponential_from_uniform(u[:, 0]) < 0.5)
    assert 0.0 < mc.mc_mode_probability(event, cfg).mean < 1.0

    *_, eta = relay.optimize_relay_powers(
        PropagationEnvironment.from_dbm(4.0, -100.0, -90.0), 500.0, 500.0,
        PowerLevel.from_dbm(30.0), relay.RelayProtocol.AF, span_decades=0.5, tol=3e-2)
    assert eta > 0.0


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name):
    """bench/<name>.py, imported by path; bench modules import each other by
    bare name (``speed``, ``tracing``)."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return _bench_module(monkeypatch, "tracing")


def test_the_benchmark_gets_every_per_layer_metric(tracing, monkeypatch):
    # a metric whose function the tracer or a microbenchmark cannot find is
    # silently left out of the benchmark's result
    tracer = tracing.Tracer()
    tracer.install()
    try:
        names = set(tracing.layer_metrics([], [], [], [], tracer.absent))
    finally:
        tracer.restore()
    micro = _bench_module(monkeypatch, "micro")
    monkeypatch.setattr(micro, "_seconds", lambda fn, min_batch_s=0.02: 1.0)
    names |= set(micro.run()) | {"trace.overhead_frac"}
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert names == {metric["name"] for metric in declared["per_layer"]}


@pytest.mark.parametrize("flags", [("--preset", "fig6"), ("--preset", "fig4", "--protocol", "af")])
def test_traced_verify_keeps_its_spans_on_the_calling_thread(tracing, capsys, flags):
    # the tracer keeps one span stack for the process: a wrapped function
    # called on the Monte Carlo helper thread would interleave two threads' spans
    args = ["verify", *flags, "--samples", "20000"]
    untraced = cli.main(args), capsys.readouterr().out
    threads = []

    class ThreadRecordingTracer(tracing.Tracer):
        def _wrap(self, name, fn):
            traced = super()._wrap(name, fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                threads.append(threading.get_ident())
                return traced(*args, **kwargs)

            return wrapper

    tracer = ThreadRecordingTracer()
    tracer.install()
    try:
        with tracer.root(0):
            traced = cli.main(args), capsys.readouterr().out
    finally:
        tracer.restore()
    assert threads and set(threads) == {threading.get_ident()}
    assert tracing.span_accounting_error(tracer.spans) < 1e-6
    assert traced == untraced


def _reference_problems(monkeypatch, tmp_path, workload):
    """Every candidate op of a bench workload, run in process, and each op's
    first mismatch against bench/reference.json.gz by check.compare, by op key."""
    workloads = _bench_module(monkeypatch, "workloads")
    check = _bench_module(monkeypatch, "check")
    with gzip.open(BENCH / "reference.json.gz", "rt", encoding="utf-8") as fh:
        reference = json.load(fh)[workload]
    ops = workloads.all_candidates(workload)
    problems = {}
    for op, path in zip(ops, workloads.write_inputs(ops, tmp_path)):
        result = workloads.run_op(op, path)
        problem = check.compare(op, result.rc, result.out, reference[op.key])
        if problem:
            problems[op.key] = f"{problem}; stderr: {result.err.strip()}"
    return ops, problems


def test_verify_matches_the_bench_reference(monkeypatch, tmp_path):
    # the bench gates each verify op to 1e-9 in every Monte Carlo cell; a change
    # to the oracles' sums or streams fails here by op and cell, not only in the bench
    ops, problems = _reference_problems(monkeypatch, tmp_path, "verify_mc")
    assert len(ops) == 32
    assert problems == {}


@pytest.mark.parametrize("workload,count", [("sweep_closed", 72), ("sweep_quad", 16),
                                            ("optimize_power", 13)])
def test_closed_forms_match_the_bench_reference(monkeypatch, tmp_path, workload, count):
    # every op without a Monte Carlo oracle: a printed digit that moves past the
    # bench's tolerance fails here by op and cell, not only as a bench run's
    # correct: false
    ops, problems = _reference_problems(monkeypatch, tmp_path, workload)
    assert len(ops) == count
    assert problems == {}
