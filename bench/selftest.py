"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Runs every workload on at most three of its ops with zero measuring time (so
three timed passes, or two pairs of untraced and traced passes) and checks
that

1. every metric of BENCHMARK.json is printed with its unit: the end-to-end
   ones with --trace 0, the per-layer ones with --trace 1;
2. in each traced pass, the self times of a root op's span tree add up to the
   root's duration within SPAN_TOLERANCE_S, and each span lies inside its parent;
3. a deliberately corrupted output row is counted as a failed op, and the
   same ops without the corruption fail none.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

# perf_counter reads ~1e6 s since boot, so each span end - start carries
# ~1e-10 s of rounding; a tree of ~1e4 spans stays far below this
SPAN_TOLERANCE_S = 1e-6


def tiny_ops(workload):
    ops = workloads.generate(workload, 0)
    return ops[:1] if workload == "optimize_power" else ops[::len(ops) // 3][:3]


def corrupting(run_op, key, count):
    """run_op, except that op ``key`` has the last cell of its first row scaled
    by 1.001; ``count[0]`` counts the corrupted outputs."""
    def wrapped(op, path):
        res = run_op(op, path)
        if op.key == key:
            count[0] += 1
            lines = res.out.splitlines()
            cells = lines[1].split(",")
            cells[-1] = f"{float(cells[-1]) * 1.001:.11e}"
            lines[1] = ",".join(cells)
            res.out = "\n".join(lines) + "\n"
        return res
    return wrapped


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        ops = tiny_ops(workload)
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, lines, record = run.run_workload(workload, 0, 0, trace, ops=ops)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(want) ^ set(got))} "
                                f"missing or extra, or units differ")
            for name, unit in want.items():
                if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{workload} trace {trace}: {name} not printed with {unit}")
            if result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} ops failed: "
                                f"{record['failures'][:3]}")
            if trace and not record["span_accounting_error_s"] <= SPAN_TOLERANCE_S:
                problems.append(f"{workload}: self times miss the root duration by "
                                f"{record['span_accounting_error_s']} s")
        print(f"{workload}: checked", flush=True)

    ops = tiny_ops("sweep_closed")
    original = workloads.run_op
    corrupted = [0]
    workloads.run_op = corrupting(original, ops[0].key, corrupted)
    try:
        result, lines, _ = run.run_workload("sweep_closed", 0, 0, 0, ops=ops)
    finally:
        workloads.run_op = original
    if not (result["failed"] == corrupted[0] > 0 and any(
            line.startswith("failed_frac ") and not line.startswith("failed_frac 0 ")
            for line in lines)):
        problems.append(f"corrupted row: {result['failed']} failed ops, expected {corrupted[0]}")
    print("corrupted row: checked")

    for p in problems:
        print("SELFTEST FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
