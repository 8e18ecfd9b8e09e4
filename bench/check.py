"""Correctness gate: compare an op's CSV output with its recorded reference.

Every numeric cell must satisfy ``|x - ref| <= rel * |ref| + abs`` with a
per-column tolerance chosen by how the column is computed:

* closed forms (E1, erfcx, single-source areas, dB echoes): rel 1e-9, far
  above double-precision noise but below the 12 printed digits;
* adaptive quadrature at rel_tol 1e-8 (AF capacity, coop integrals): rel 1e-6;
* the parallel affected area and everything divided by it, which the program
  integrates at rel_tol 2e-5: rel 2e-4;
* probabilities add an absolute floor of 1e-12, since 1 - S/gbar loses
  relative digits when the direct mode is rare;
* optimiser outputs: the optimum power to 1e-4 in ln(P) for the CLI (tol 1e-5)
  and to the search tolerance for the bounded AF box, GASE at the optimum to
  1e-6 and 1e-3 respectively because it is flat there.

Monte Carlo columns of ``verify`` are bit-reproducible for a fixed seed and
sample count, so they are held to rel 1e-9; ``abs_diff`` is checked against
its own row, and every check must read ``pass``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

TIGHT = (1e-9, 0.0)
QUAD = (1e-6, 0.0)
AREA = (2e-4, 0.0)
PROB = (1e-9, 1e-12)
PROB_QUAD = (1e-6, 1e-12)

_LN_P_TO_DB = 10.0 / math.log(10.0)

_AREA_COLUMNS = {"area_parallel_m2", "gase_bps_hz_m2", "gase_x_bps_hz_m2"}
_VERIFY_CLOSED = {
    "capacity_af_vs_harmonic_mc": QUAD, "capacity_af_vs_exact_mc": QUAD,
    "p_parallel_vs_mc": PROB, "c_direct_vs_mc": QUAD, "c_relay_vs_mc": QUAD,
    "total_capacity_vs_mc": QUAD, "density_direct_normalization": QUAD,
    "density_relay_normalization": QUAD, "area_parallel_vs_spatial_mc": AREA,
    "area_parallel_ge_singles": AREA,
}


def tolerance(op, column: str, check: Optional[str] = None) -> Optional[Tuple[float, float]]:
    """(rel, abs) for a numeric cell, or None where the cell must match exactly."""
    if op.command == "verify":
        if column in ("check", "status"):
            return None
        if check == "area_parallel_ge_singles" and column in ("oracle_mean", "tolerance"):
            return AREA
        if column == "closed_form":
            if check == "p_direct_vs_mc":
                return PROB if op.protocol == "df" else PROB_QUAD
            return _VERIFY_CLOSED.get(check, TIGHT)
        return TIGHT
    if op.command == "optimize_af":
        if column.endswith("_dbm"):
            return 0.0, 3e-2 * _LN_P_TO_DB
        return 1e-3, 0.0
    if op.command == "optimize":
        if column == "residual":
            return 0.0, 1e-9
        if op.kind == "p2p":
            return TIGHT
        if column.endswith("_dbm"):
            return 0.0, 1e-4 * _LN_P_TO_DB
        return (1e-6, 0.0) if column.startswith("gase") else (1e-4, 0.0)
    # eval and sweep rows
    if op.kind in ("cognitive", "xchannel"):
        if column in _AREA_COLUMNS:
            return AREA
        return PROB if column == "p_parallel" else TIGHT
    if op.kind == "coop":
        if column in ("p_direct", "p_relay"):
            return PROB if op.protocol == "df" else PROB_QUAD
        if column in ("area_s_m2", "area_r_m2") or column.endswith("_dbm"):
            return TIGHT
        return QUAD
    if op.kind == "dualhop" and op.protocol == "af" and column in (
            "capacity_bps_hz", "gase_bps_hz_m2"):
        return QUAD
    return TIGHT


def _rows(text: str) -> List[List[str]]:
    return [line.split(",") for line in text.splitlines()]


def compare(op, rc: int, out: str, ref: str) -> Optional[str]:
    """None when the output matches the reference, else the first problem found."""
    if rc != 0:
        return f"exit code {rc}"
    got, want = _rows(out), _rows(ref)
    if not got or got[0] != want[0]:
        return f"header {got[0] if got else None} != {want[0]}"
    if len(got) != len(want):
        return f"{len(got) - 1} rows, expected {len(want) - 1}"
    header = want[0]
    for r, (row, ref_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(row) != len(header):
            return f"row {r} has {len(row)} cells, expected {len(header)}"
        check = row[0] if op.command == "verify" else None
        for column, cell, ref_cell in zip(header, row, ref_row):
            tol = tolerance(op, column, check)
            if tol is None or column == "abs_diff":
                if tol is None and cell != ref_cell:
                    return f"row {r} {column}: {cell!r} != {ref_cell!r}"
                continue
            try:
                x, y = float(cell), float(ref_cell)
            except ValueError:
                return f"row {r} {column}: {cell!r} is not a number"
            rel, absolute = tol
            if not abs(x - y) <= rel * abs(y) + absolute:
                return f"row {r} {column}: {cell} vs reference {ref_cell} (rel {rel:g}, abs {absolute:g})"
        if op.command == "verify":
            values = dict(zip(header, row))
            closed, oracle = float(values["closed_form"]), float(values["oracle_mean"])
            if not abs(float(values["abs_diff"]) - abs(closed - oracle)) <= (
                    1e-10 * max(abs(closed), abs(oracle))):
                return f"row {r} abs_diff {values['abs_diff']} != |closed_form - oracle_mean|"
            if values["status"] != "pass":
                return f"row {r} check {values['check']} reads {values['status']}"
    return None
