"""Every name a ``gase`` module advertises resolves, and so does every name
the benchmark harness under ``bench/`` looks up."""

import ast
import functools
import gzip
import importlib
import importlib.util
import json
import pkgutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gase
from gase import cli
from gase import cognitive_underlay as cg
from gase import coop_threenode as coop
from gase import mathkernel as mk
from gase import mc_oracle as mc
from gase import relay_dualhop as relay
from gase.propagation import PowerLevel, PropagationEnvironment

MODULES = sorted(m.name for m in pkgutil.iter_modules(gase.__path__)
                 if not m.name.startswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"gase.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(gase.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"gase.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(mod, "__all__", ())
            assert getattr(gase, alias.asname or alias.name) is getattr(mod, alias.name)


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
