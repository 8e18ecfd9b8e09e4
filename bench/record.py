"""Record the reference outputs that bench/run.py checks every op against.

    python3 bench/record.py [workload ...]

Runs every candidate of every slot (workloads.CANDIDATES per slot, so any
``--seed`` finds its outputs) through the program as it is now and rewrites
``bench/reference.json.gz``.  Run it only when the benchmark's inputs change,
never to make a failing check pass.  It refuses to write if any op fails or if
a bounded-box AF optimum sits on the edge of its box.
"""

from __future__ import annotations

import gzip
import json
import sys

import run
import workloads


def _af_on_edge(op, out: str) -> bool:
    p_max = float(next(line.split("=")[1] for line in op.config_text.splitlines()
                       if line.startswith("optimize.p_max_dbm")))
    lo = p_max - 10.0 * workloads.AF_SPAN_DECADES
    powers = [float(x) for x in out.splitlines()[1].split(",")[:2]]
    return any(not lo + 0.25 < p < p_max - 0.25 for p in powers)


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    data = {}
    if run.REFERENCE.is_file():
        with gzip.open(run.REFERENCE, "rt", encoding="utf-8") as fh:
            data = json.load(fh)
    problems = []
    for workload in names:
        ops = workloads.all_candidates(workload)
        paths = workloads.write_inputs(ops, run.OUT / "record" / workload)
        refs = {}
        for op, path in zip(ops, paths):
            res = workloads.run_op(op, path)
            if res.rc != 0:
                problems.append(f"{workload} {op.key}: exit {res.rc}: {res.err.strip()[-400:]}")
            elif op.command == "verify" and ",FAIL" in res.out:
                problems.append(f"{workload} {op.key}: verify check failed\n{res.out}")
            elif op.command == "optimize_af" and _af_on_edge(op, res.out):
                problems.append(f"{workload} {op.key}: AF optimum on the box edge\n{res.out}")
            refs[op.key] = res.out
        data[workload] = refs
        print(f"{workload}: {len(refs)} outputs", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with gzip.GzipFile(run.REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=0).encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
