"""Pass/fail rules for one op's outputs.

Each check returns the list of reasons the op failed (empty when it passed).
Values are compared with the independent reference; fitted exponents and
signs with the paper's distance laws.  Nothing here is a copy of the
program's own output.
"""

from __future__ import annotations

import csv
import io
import math
from typing import List, Sequence

REL_TOL = 1e-8
GRID_TOL = 1e-12
EXPONENT_TOL = 0.1

# Far-zone exponents of the ten rows (the paper's table).
RETARDED = {"EE": -7, "EP": -7, "ED": -7, "EC": -8, "PP": -7,
            "PD": -7, "PC": -8, "DD": -7, "DC": -8, "CC": -9}
# Near-zone exponents of the paper's table, except ED and DD: with a
# frequency-independent diamagnetic response the model gives ED ~ R^-5 (the
# retardation cutoff survives) and DD ~ R^-7 at every distance.
NONRETARDED = {"EE": -6, "EP": -4, "ED": -5, "EC": -5, "PP": -6,
               "PD": -6, "PC": -5, "DD": -7, "DC": -6, "CC": -6}
# '-' attractive, '+' repulsive, '~' set by handedness (the reference's sign).
SIGNS = {"EE": "-", "EP": "+", "ED": "-", "EC": "~", "PP": "-",
         "PD": "+", "PC": "~", "DD": "-", "DC": "~", "CC": "~"}

# Probes that fail on every run because the half-line log map squeezes the
# resonance region out of reach at R * omega <~ 1e-7 (see CHANGES.md).
KNOWN_FAULTS = frozenset({("probe", 1e-7), ("probe", 1e-8)})


def op_key(op: dict):
    """The op's name in KNOWN_FAULTS (None for ops that are not probes)."""
    return ("probe", op["R"]) if op.get("kind") == "probe" else None


def close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rel * abs(ref)


def _values(name: str, got: Sequence[float], ref: Sequence[float],
            rel: float = REL_TOL) -> List[str]:
    if len(got) != len(ref):
        return [f"{name}: {len(got)} values, expected {len(ref)}"]
    return [f"{name}[{i}] = {g!r}, reference {r!r}"
            for i, (g, r) in enumerate(zip(got, ref))
            if not close(g, r, rel)]


def check_total(out: dict, ref: float) -> List[str]:
    if "error" in out:
        return [out["error"]]
    bad = _values("U", [out["value"]], [ref])
    if not out["converged"]:
        bad.append("not converged")
    return bad


def check_curve(out: dict, op: dict, ref: dict) -> List[str]:
    if "error" in out:
        return [out["error"]]
    bad = [] if out["exit_code"] == 0 else [f"exit code {out['exit_code']}"]
    rows = list(csv.reader(io.StringIO(out["csv"])))
    if not rows or rows[0] != ["R", "component", "U", "error", "converged"]:
        return bad + ["bad CSV header"]
    rows = rows[1:]
    expect = op["component"] if op["kind"] == "tuple" else \
        op["component"].upper()
    try:
        bad += _values("R", [float(r[0]) for r in rows], ref["R"], GRID_TOL)
        bad += _values("U", [float(r[2]) for r in rows], ref["U"])
    except (IndexError, ValueError) as exc:
        return bad + [f"bad CSV row: {exc}"]
    bad += [f"row {i}: component {r[1]!r}" for i, r in enumerate(rows)
            if r[1] != expect]
    bad += [f"row {i}: not converged" for i, r in enumerate(rows)
            if r[4] != "1"]
    return bad


def expected_exponent(row: str, regime: str) -> int:
    return (RETARDED if regime == "retarded" else NONRETARDED)[row]


def check_cell(out: dict, op: dict, ref: dict) -> List[str]:
    if "error" in out:
        return [out["error"]]
    bad = _values("R", out["R"], ref["R"], GRID_TOL)
    bad += _values("U", out["U"], ref["U"])
    if not all(out["converged"]):
        bad.append("not converged")
    if out.get("fit_error"):
        return bad + [f"fit failed: {out['fit_error']}"]
    want = expected_exponent(op["row"], op["regime"])
    if not abs(out["exponent"] - want) <= EXPONENT_TOL:
        bad.append(f"exponent {out['exponent']:.4f}, expected {want}")
    sign = SIGNS[op["row"]]
    want_sign = (-1 if sign == "-" else 1) if sign != "~" else \
        (1 if ref["U"][0] > 0.0 else -1)
    if out["sign"] != want_sign:
        bad.append(f"sign {out['sign']:+d}, expected {want_sign:+d}")
    return bad


def check_probe(out: dict, ref: dict) -> List[str]:
    if "error" in out:
        return [out["error"]]
    bad = _values("U", [out["value"]], [ref["U"]])
    if not out["converged"]:
        bad.append("not converged")
    return bad


def check(workload: str, op: dict, out: dict, ref) -> List[str]:
    """Reasons the op failed, dispatched on the workload and op kind."""
    if workload == "total":
        return check_total(out, ref)
    if workload == "curve":
        return check_curve(out, op, ref)
    if op["kind"] == "cell":
        return check_cell(out, op, ref)
    return check_probe(out, ref)
