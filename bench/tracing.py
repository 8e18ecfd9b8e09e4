"""Span tracing from outside the program, and the per-layer metrics built on it.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent, op id), in every
``gase`` module namespace that holds a reference to it, so calls made through
``from .mathkernel import integrate`` are caught too.  ``restore`` puts every
original back.  A target that no longer exists is reported in ``absent`` and
the metrics that need it are left out; nothing under ``src/`` is changed.

Spans live in memory and are written out once, after the traced pass.  They
are timed on ``speed.clock``, which stops while the speed sampler's signal
handler runs, so the handler's time is in no span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
from pathlib import Path
from typing import Dict, List

import speed

# Public functions at each module boundary.  Factories that return integrands
# or samplers are left out: their closures run inside the spans listed here.
TARGETS = {
    "config": ("parse_config", "render_config", "load_preset", "derive_kind"),
    "mathkernel": ("scaled_e1", "exp_integral_e1", "bessel_k0", "bessel_k1", "erfcx",
                   "erfc", "gamma_fn", "integrate", "integrate_semi_infinite",
                   "find_root_bracketed"),
    "link_p2p": ("ergodic_capacity_p2p", "gase_p2p", "optimal_power_p2p",
                 "optimal_power_residual"),
    "relay_dualhop": ("ergodic_capacity_df", "ergodic_capacity_af", "ergodic_capacity",
                      "gase_dualhop", "optimize_relay_powers"),
    "coop_threenode": ("special_integral_D", "af_selection_integral", "prob_direct",
                       "conditional_capacity_direct", "conditional_capacity_relay",
                       "gase_coop"),
    "cognitive_underlay": ("prob_parallel", "primary_capacity_parallel",
                           "secondary_capacity_parallel", "x_channel_primary_capacity",
                           "two_source_power_tail", "affected_area_parallel",
                           "gase_cognitive", "gase_x_channel"),
    "mc_oracle": ("mc_ergodic_capacity", "mc_affected_area", "mc_mode_probability",
                  "mc_coop_summary", "certified_disk_radius"),
}
SPECIAL = tuple(f"mathkernel.{n}" for n in ("scaled_e1", "exp_integral_e1", "bessel_k0",
                                            "bessel_k1", "erfcx", "erfc", "gamma_fn"))
ROOT = "op"

NAME, START, END, PARENT, OP, PANELS = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.absent: List[str] = []
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = speed.clock
        counts_panels = name == "mathkernel.integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counts_panels:
                rec[PANELS] = result.panels
            return result

        return wrapper

    def install(self):
        wrappers = {}
        self.absent = []
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"gase.{module}")
            for n in names:
                fn = getattr(mod, n, None)
                if fn is None:
                    self.absent.append(f"{module}.{n}")
                else:
                    wrappers[id(fn)] = (fn, self._wrap(f"{module}.{n}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "gase" and not modname.startswith("gase."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def restore(self):
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def clear(self):
        self.spans.clear()
        self._stack.clear()

    @contextlib.contextmanager
    def root(self, op_id: int):
        """The root span of one op; every span recorded inside carries op_id."""
        self.op = op_id
        self._stack.append(len(self.spans))
        rec = [ROOT, 0.0, 0.0, -1, op_id, 0]
        self.spans.append(rec)
        rec[START] = speed.clock()
        try:
            yield rec
        finally:
            rec[END] = speed.clock()
            self._stack.pop()
            self.op = -1

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op,panels\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},{s[PANELS]}\n")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Duration minus the time covered by direct children (which never overlap)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def span_accounting_error(spans: List[list]) -> float:
    """Largest |sum of self times in a root's tree - root duration|, in seconds.

    Also checks that every child lies inside its parent; returns inf if not.
    """
    own = self_times(spans)
    totals: Dict[int, float] = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0 and not (spans[p][START] <= s[START] <= s[END] <= spans[p][END]):
            return float("inf")
        root = i
        while spans[root][PARENT] >= 0:
            root = spans[root][PARENT]
        totals[root] = totals.get(root, 0.0) + own[i]
    return max((abs(totals[r] - (spans[r][END] - spans[r][START])) for r in totals),
               default=0.0)


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _has_ancestor(spans, i, pred) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p][NAME]):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: List[list], ops, rows: List[int], factors: List[float],
                  absent: List[str]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``ops[i]``, ``rows[i]`` and ``factors[i]`` describe op i: ``rows`` counts its
    CSV result rows and ``factors`` converts its times to slowness 1 (see
    speed.py).  A metric whose spans are absent is left out; a metric of a
    layer the workload never enters reads 0.
    """
    own = [t * factors[s[OP]] for t, s in zip(self_times(spans), spans)]
    dur = [(s[END] - s[START]) * factors[s[OP]] for s in spans]
    missing = set(absent)
    out: Dict[str, float] = {}

    def have(*names):
        return not any(n in missing for n in names)

    def idx(pred):
        return [i for i, s in enumerate(spans) if pred(s[NAME])]

    special = idx(lambda n: n in SPECIAL)
    if have("mathkernel.scaled_e1", "mathkernel.bessel_k0", "mathkernel.bessel_k1",
            "mathkernel.erfcx"):
        out["mathkernel.special.calls"] = len(special)
        out["mathkernel.special.self_s"] = sum(own[i] for i in special)

    if have("mathkernel.integrate", "mathkernel.integrate_semi_infinite"):
        quad = idx(lambda n: n == "mathkernel.integrate")
        panels = sum(spans[i][PANELS] for i in quad)
        outer = [i for i in quad
                 if not _has_ancestor(spans, i, lambda n: n == "mathkernel.integrate")]
        out["mathkernel.integrate.calls"] = len(quad)
        out["mathkernel.integrate.panels"] = panels
        out["mathkernel.integrate.self_s"] = sum(
            own[i] for i in idx(lambda n: n in ("mathkernel.integrate",
                                                "mathkernel.integrate_semi_infinite")))
        out["mathkernel.integrate.us_per_panel"] = (
            1e6 * sum(dur[i] for i in outer) / panels if panels else 0.0)
    if have("mathkernel.find_root_bracketed"):
        out["mathkernel.find_root.calls"] = len(idx(lambda n: n == "mathkernel.find_root_bracketed"))

    # closed-form layers: time of the module's outermost spans per result row
    def per_point(module, accept):
        chosen = {i for i, op in enumerate(ops)
                  if op.command in ("eval", "sweep") and accept(op)}
        points = sum(rows[i] for i in chosen)
        total = sum(dur[i] for i, s in enumerate(spans)
                    if s[OP] in chosen and _module(s[NAME]) == module
                    and not _has_ancestor(spans, i, lambda n: _module(n) == module))
        return (1e3 * total / points if points else 0.0), chosen, points

    layer = {"link_p2p": "link_p2p.gase_p2p", "relay_dualhop": "relay_dualhop.gase_dualhop",
             "coop_threenode": "coop_threenode.gase_coop",
             "cognitive_underlay": "cognitive_underlay.affected_area_parallel"}
    if have(layer["link_p2p"]):
        out["link_p2p.ms_per_point"] = per_point("link_p2p", lambda op: op.kind == "p2p")[0]
    for module, kind in (("relay_dualhop", "dualhop"), ("coop_threenode", "coop")):
        if have(layer[module]):
            for proto in ("df", "af"):
                out[f"{module}.ms_per_point.{proto}"] = per_point(
                    module, lambda op: op.kind == kind and op.protocol == proto)[0]
    if have(layer["cognitive_underlay"]):
        ms, chosen, points = per_point("cognitive_underlay",
                                       lambda op: op.kind in ("cognitive", "xchannel"))
        out["cognitive_underlay.ms_per_point"] = ms
        calls = sum(1 for s in spans if s[NAME] == layer["cognitive_underlay"] and s[OP] in chosen)
        out["cognitive_underlay.area_parallel.calls_per_point"] = calls / points if points else 0.0

    if have("mc_oracle.mc_ergodic_capacity", "mc_oracle.mc_affected_area"):
        out["mc_oracle.self_s"] = sum(own[i] for i in idx(lambda n: _module(n) == "mc_oracle"))

    if have("relay_dualhop.optimize_relay_powers", "relay_dualhop.ergodic_capacity"):
        opt = idx(lambda n: n == "relay_dualhop.optimize_relay_powers")
        evals = sum(1 for i in idx(lambda n: n == "relay_dualhop.ergodic_capacity")
                    if _has_ancestor(spans, i, lambda n: n == "relay_dualhop.optimize_relay_powers"))
        out["optimize.objective_evals"] = evals
        out["optimize.ms_per_eval"] = 1e3 * sum(dur[i] for i in opt) / evals if evals else 0.0
        out["optimize.self_s"] = sum(own[i] for i in opt)

    if have("config.parse_config"):
        parses = idx(lambda n: n == "config.parse_config")
        out["config.parse_us"] = 1e6 * sum(dur[i] for i in parses) / len(parses) if parses else 0.0

    cli_roots = [i for i, s in enumerate(spans)
                 if s[NAME] == ROOT and ops[s[OP]].command != "optimize_af"]
    out["cli.self_ms_per_op"] = (1e3 * sum(own[i] for i in cli_roots) / len(cli_roots)
                                 if cli_roots else 0.0)
    return out
