"""gase benchmark: seeded workloads, end-to-end timings and traced layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload sweep_quad --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 12 --trace 1

One run generates the workload's configs from ``--seed`` (see workloads.py),
runs the first op once as warm-up, then repeats the op list for ``--seconds``
in one process with ``--workers 1``.  Op times are corrected for the shared
machine's slow stretches by a sensitivity fitted from the run's own op times
(speed.py).  Every op's output is checked against the
recorded reference (check.py).  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes, derives
the per-layer metrics from the spans (tracing.py) and runs the layer
microbenchmarks (micro.py).  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
Spans and a full record of each run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json.gz"
SPEC_PATH = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(SRC))

import check  # noqa: E402
import micro  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3          # untraced passes of a --trace 0 run
MIN_TRACED_PASSES = 2   # untraced + traced pass pairs of a --trace 1 run
NUMPY_IMPORT_S = 0.15   # a fresh ``import numpy`` on a shared 2-core x86-64 machine


class Gate:
    """Counts ops attempted and the ops whose output misses its reference."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def check(self, ops, results):
        for op, res in zip(ops, results):
            self.attempted += 1
            ref = self.reference.get(op.key)
            problem = ("no reference output" if ref is None
                       else check.compare(op, res.rc, res.out, ref))
            if problem:
                self.fail(op, problem + (f"; stderr: {res.err.strip()[-300:]}" if res.err else ""))

    def fail(self, op, problem):
        self.failures.append(f"{op.key} {op.command} {op.kind} {' '.join(op.flags)}: {problem}")


def units(group):
    """{metric name: unit} of one metric group of BENCHMARK.json."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def run_pass(ops, paths, waits, tracer=None):
    """Run the op list once, sampling the machine's slowness around and during
    each op (speed.py).  Before op i it waits up to ``waits[i]`` seconds for
    the machine's fast state."""
    results = []
    for i, (op, path) in enumerate(zip(ops, paths)):
        speed.wait_fast(waits[i])
        with speed.Sampler() as sampler:
            if tracer is None:
                res = workloads.run_op(op, path)
            else:
                with tracer.root(i):
                    res = workloads.run_op(op, path)
        res.samples = sampler.samples
        results.append(res)
    return results


def generate_inputs(workload, seed):
    ops = workloads.generate(workload, seed)
    return ops, workloads.write_inputs(ops, OUT / "inputs" / workload)


def measure_setup(workload, seed):
    """Fresh-interpreter ``import gase.cli`` plus input generation, in seconds.

    Interpreter start-up and shared-library loading do not slow down with the
    machine's speed states the way computation does (speed.py), so the import
    is timed against ``import numpy`` in the same kind of fresh interpreter,
    alternating, and reported as median ratio x NUMPY_IMPORT_S.  ``import
    numpy`` is not the program's code, so this ratio moves only with the
    program.  Generation takes milliseconds and is timed as it runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    def fresh(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    ratios, gens = [], []
    for _ in range(SETUP_REPEATS):
        ratios.append(fresh("import gase.cli") / fresh("import numpy"))
        start = time.perf_counter()
        generate_inputs(workload, seed)
        gens.append(time.perf_counter() - start)
    return statistics.median(ratios) * NUMPY_IMPORT_S + statistics.median(gens)


def rows_of(text):
    return max(0, len(text.splitlines()) - 1)


def tail(latencies):
    """(value, percentile, n): highest percentile with at least ten samples above it."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timed_passes(ops, paths, seconds, gate, tracer=None):
    """Warm-up, then passes for ``seconds`` and at least ``MIN_PASSES``; with a
    tracer every pass is run twice, untraced then traced, and at least
    ``MIN_TRACED_PASSES`` times.  Returns the passes' results.

    The warm-up runs the first op once: imports are done by then and the
    program keeps no cache across ops, so the first pass costs the same as
    the rest (and medians absorb what little it does not).

    The wait for the fast state before an op is at most the op's last
    duration, and at most ``speed.WAIT_S``: a short op gains little from
    waiting.
    """
    waits = [speed.FIRST_WAIT_S] * len(ops)
    gate.check(ops[:1], run_pass(ops[:1], paths[:1], waits))
    plain_passes, traced_passes = [], []
    start = time.perf_counter()
    min_passes = MIN_PASSES if tracer is None else MIN_TRACED_PASSES
    while len(plain_passes) < min_passes or time.perf_counter() - start < seconds:
        # only the last pass keeps its output, so that peak RSS does not
        # grow with the number of passes
        for r in (plain_passes[-1:] + traced_passes[-1:]):
            for res in r:
                res.out = res.err = ""
        plain = run_pass(ops, paths, waits)
        gate.check(ops, plain)
        plain_passes.append(plain)
        waits = [min(speed.WAIT_S, r.seconds) for r in plain]
        if tracer is None:
            continue
        tracer.clear()
        tracer.install()
        try:
            traced = run_pass(ops, paths, waits, tracer)
        finally:
            tracer.restore()
        gate.check(ops, traced)
        traced_passes.append(traced)
        for op, a, b in zip(ops, plain, traced):
            if a.out != b.out:
                gate.fail(op, "traced stdout differs from untraced stdout")
    return plain_passes, traced_passes


def fit(passes):
    """Program sensitivity c fitted from untraced passes (speed.fit)."""
    return speed.fit([(j, r.seconds, r.samples) for p in passes for j, r in enumerate(p)])


def per_op(passes, c):
    """Each op's median time at slowness 1 over the passes."""
    return [statistics.median(p[j].fast(c) for p in passes) for j in range(len(passes[0]))]


def pass_seconds(passes, c):
    return [sum(r.fast(c) for r in p) for p in passes]


def metadata(workload, seed, ops):
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "src_lines": src_lines, "ops_per_pass": len(ops),
            "ops_by_command": dict(collections.Counter(op.command for op in ops))}


def load_reference(workload):
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def run_workload(workload, seed, seconds, trace, ops=None, micro_metrics=True):
    """Run one workload; returns (result dict for the JSON line, summary lines, record).

    ``ops`` replaces the seeded op list (the self-test runs a few ops only).
    ``micro_metrics=False`` leaves the layer microbenchmarks out of a traced run.
    """
    reference = load_reference(workload)
    setup_s = None if trace else measure_setup(workload, seed)
    if ops is None:
        ops, paths = generate_inputs(workload, seed)
    else:
        paths = workloads.write_inputs(ops, OUT / "inputs" / workload)
    gate = Gate(reference)
    meta = metadata(workload, seed, ops)
    lines = [f"# gase bench  workload={workload} seed={seed} seconds={seconds} trace={trace}",
             "# " + " ".join(f"{k}={v}" for k, v in meta.items() if k not in ("workload", "seed"))]
    tracer = tracing.Tracer() if trace else None
    plain, traced = timed_passes(ops, paths, seconds, gate, tracer)
    c = fit(plain)
    slowness = [k for p in plain for r in p for k in r.samples]
    raw = [sum(r.seconds for r in p) for p in plain]
    lines.append(f"# timed passes={len(plain)}  ops per pass={len(ops)}  "
                 f"raw pass seconds min={min(raw):.4f} median={statistics.median(raw):.4f} "
                 f"max={max(raw):.4f}  slowness median={statistics.median(slowness):.3f} "
                 f"fast share={sum(k < speed.FAST for k in slowness) / len(slowness):.2f}  "
                 f"fitted sensitivity c={c:.2f}")
    accounting, op_seconds = None, None
    if trace:
        last = traced[-1]
        values = tracing.layer_metrics(tracer.spans, ops, [rows_of(r.out) for r in last],
                                       [speed.rate(r.samples, c) for r in last],
                                       tracer.absent)
        values["trace.overhead_frac"] = (statistics.median(pass_seconds(traced, c))
                                         / statistics.median(pass_seconds(plain, c)) - 1.0)
        accounting = tracing.span_accounting_error(tracer.spans)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.csv.gz")
        if micro_metrics:
            values.update(micro.run())
        names = units("per_layer")
        lines.append(f"# traced passes={len(traced)}  spans={len(tracer.spans)}  "
                     f"span accounting error={accounting:.3g} s")
        absent = sorted(n for n in set(names) - set(values)
                        if micro_metrics or not micro.provides(n))
        if absent:
            lines.append("# absent (a wrapped function is missing): " + ", ".join(absent))
    else:
        op_seconds = [[r.fast(c) for r in p] for p in plain]
        typical = per_op(plain, c)
        wall_s = sum(typical)
        values = {"wall_s": wall_s,
                  "op_p50_ms": 1e3 * statistics.median(typical),
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        names = units("end_to_end")
        t = tail([x for p in op_seconds for x in p])
        if t:
            lines.append(f"op_tail_ms {1e3 * t[0]:.4f} ms  (p{t[1]:.1f} of {t[2]} op runs)")
        else:
            lines.append(f"op_tail_ms absent ({len(plain) * len(ops)} op runs, fewer than 20)")
        results = plain[-1]
        points = sum(rows_of(r.out) for op, r in zip(ops, results)
                     if op.command in ("eval", "sweep"))
        if points:
            lines.append(f"points_per_s {points / wall_s:.4f} 1/s  ({points} rows per pass)")
        verify_s = sum(t for op, t in zip(ops, typical) if op.command == "verify")
        samples = sum(int(workloads.VERIFY_FLAGS[3]) for op, r in zip(ops, results)
                      if op.command == "verify"
                      for row in r.out.splitlines()[1:] if float(row.split(",")[3]) != 0.0)
        if samples:
            lines.append(f"mc_samples_per_s {samples / verify_s:.1f} 1/s  "
                         f"({samples} samples per pass)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names.items() if name in values}
    for name, unit in names.items():
        if name in values:
            lines.append(f"{name} {values[name]:.6g} {unit}")
    failed = len(gate.failures)
    lines.append(f"failed_frac {failed / gate.attempted:.4g}  ({failed} of {gate.attempted} ops)")
    lines += [f"FAILED {f}" for f in gate.failures[:20]]
    result = {"correct": failed == 0, "attempted": gate.attempted, "failed": failed,
              "metrics": metrics}
    record = {**result, "meta": meta, "failures": gate.failures, "summary": lines,
              "span_accounting_error_s": accounting, "sensitivity_c": c,
              "op_seconds_by_pass": op_seconds,
              "raw_op_seconds_by_pass": [[r.seconds for r in p] for p in plain],
              "slowness_by_pass": [[r.samples for r in p] for p in plain]}
    return result, lines, record


def run_all(args):
    """Each workload in its own interpreter, so peak RSS stays per workload.
    A traced run measures the layer microbenchmarks once, not per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--micro", "0"], cwd=ROOT, stdout=subprocess.PIPE,
            text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    if args.trace:
        names = units("per_layer")
        print("# layer microbenchmarks", flush=True)
        for name, value in micro.run().items():
            merged["metrics"][name] = {"value": value, "unit": names[name]}
            print(f"{name} {value:.6g} {names[name]}")
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--micro", type=int, choices=(0, 1), default=1,
                        help="with --trace 1, run the layer microbenchmarks (default 1)")
    args = parser.parse_args(argv)
    try:
        import gase.cli
    except ImportError as exc:
        print(f"bench: cannot import gase from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(gase.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: gase was imported from {gase.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if not SPEC_PATH.is_file():
        print(f"bench: {SPEC_PATH} missing", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"bench: reference outputs {REFERENCE} missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, lines, record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                         micro_metrics=bool(args.micro))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
