"""Seeded inputs of the three workloads, as plain data.

Each builder returns a spec: the molecule documents to write as files, and one
round of ops.  The worker runs the round again and again; the parent checks
every op of every round against the reference.  Inputs that set the cost of
an op (separation, transition count, component) are drawn stratified, so
every seed gives a round of the same make-up and only the values move.

Nothing here imports chivdw.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from reference import ROWS, TUPLES

WORKLOADS = ("total", "curve", "limits")

# CODATA 2018; the au factors follow from the fine-structure constant alone.
_E = 1.602176634e-19
_EPS0 = 8.8541878128e-12
_HBAR = 6.62607015e-34 / (2.0 * math.pi)
_C = 299792458.0
ALPHA_FS = _E * _E / (4.0 * math.pi * _EPS0 * _HBAR * _C)

# File units -> internal units, per quantity (see chivdw.molfiles).
UNIT_FACTORS = {
    "natural": {"omega": 1.0, "length": 1.0, "d": 1.0, "m": 1.0,
                "beta_dia": 1.0},
    "au": {"omega": 1.0, "length": ALPHA_FS,
           "d": math.sqrt(4.0 * math.pi) * ALPHA_FS**1.5,
           "m": math.sqrt(4.0 * math.pi) * ALPHA_FS**2.5,
           "beta_dia": 4.0 * math.pi * ALPHA_FS**5},
}

PROBE_RADII = (1e-5, 1e-6, 1e-7, 1e-8)
LIMIT_POINTS = 7
CURVE_POINTS = 8

# Two kinds of op fail in chivdw on some seeds and not on others, so the
# drawn ops are kept clear of them (see the FOUND lines in CHANGES.md):
#
# * Within about 1e-4 (relative) of a separation where TOTAL changes sign,
#   its sixteen tuples cancel 1e5-fold and the value comes out 1e-7 off,
#   relative, while each tuple is good to 1e-13.  The runner passes
#   ``keep``, which asks the reference whether an op's separations all
#   stay clear of the zeros of its quantity.
#
# * With R * omega_max in about [18.49, 18.62] chivdw's half-line quadrature
#   maps its last breakpoint to a subnormal u, Kronrod nodes of the first panel
#   round to u = 0 (xi = inf) and the call raises "xi must be finite".  Ops
#   are drawn clear of this band.
UNDERFLOW_BAND = (18.0, 19.0)


def _draw_clear(draw, radii, omega_max: float):
    """``draw()`` again until every R of ``radii(value)`` is off the band."""
    lo, hi = UNDERFLOW_BAND
    while True:
        value = draw()
        if all(not lo <= R * omega_max <= hi for R in radii(value)):
            return value


def _omega_max(docs) -> float:
    return max(t["omega"] * UNIT_FACTORS[doc["units"]]["omega"]
               for doc in docs for t in doc["transitions"])


def bundled_docs() -> dict:
    """The bundled pair's molecule documents, read as plain JSON."""
    data = Path(__file__).resolve().parent.parent / "src" / "chivdw" / "data"
    return {f"bundled:{s}": json.loads((data / f"molecule_{s}.json")
                                       .read_text()) for s in "ab"}


def _unit(rng: np.random.Generator) -> list:
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v)).tolist()


def _molecule_doc(rng, name: str, omegas, units: str, scale: float) -> dict:
    """A molecule document whose values are given in ``units``."""
    f = UNIT_FACTORS[units]
    q = rng.uniform(-1.0, 1.0, (3, 3))
    beta = -0.05 * scale**2 * (q @ q.T)          # negative semi-definite
    trs = [{"omega": float(w) / f["omega"],
            "d": (scale * rng.uniform(-1.0, 1.0, 3) / f["d"]).tolist(),
            "m_imag": (0.5 * scale * rng.uniform(-1.0, 1.0, 3)
                       / f["m"]).tolist()}
           for w in omegas]
    return {"name": name, "units": units, "transitions": trs,
            "beta_dia": (beta / f["beta_dia"]).tolist()}


def total(seed: int, keep=None) -> dict:
    """24 TOTAL values: the bundled pair and three seeded pairs with one or
    two transitions (omega in [0.5, 2]), R log-uniform in [0.3, 30] (one
    draw per stratum) along seeded directions."""
    rng = np.random.default_rng([seed, 1])
    molecules = {}
    pairs = [("bundled:a", "bundled:b")]
    for k, (na, nb) in enumerate(((1, 2), (2, 1), (2, 2))):
        names = (f"total-{k}a", f"total-{k}b")
        for name, count in zip(names, (na, nb)):
            molecules[name] = _molecule_doc(
                rng, name, rng.uniform(0.5, 2.0, count), "natural", 1.0)
        pairs.append(names)
    docs = {**bundled_docs(), **molecules}
    ops = []
    for k in range(24):                 # op k: stratum k of log R, pair k % 4
        pair = pairs[k % len(pairs)]
        while True:
            R = _draw_clear(
                lambda: 0.3 * 100.0**((k + rng.random()) / 24),
                lambda R: [R], _omega_max(docs[n] for n in pair))
            op = {"pair": pair, "R": R, "direction": _unit(rng)}
            if keep is None or keep(op, docs):
                break
        ops.append(op)
    order = rng.permutation(len(ops))
    return {"workload": "total", "molecules": molecules,
            "ops": [ops[i] for i in order]}


def curve(seed: int, keep=None) -> dict:
    """12 in-process ``chivdw curve`` calls: six components (EE, EC, MC, CC,
    the row PD and a raw tuple) in natural and in au files, each pair with
    16-64 transitions spread log-uniformly over omega in [0.1, 10]."""
    rng = np.random.default_rng([seed, 2])
    comps = [("label", "EE"), ("label", "EC"), ("label", "MC"),
             ("label", "CC"), ("row", "PD"),
             ("tuple", TUPLES[int(rng.integers(len(TUPLES)))])]
    cases = [(c, u) for c in comps for u in ("natural", "au")]
    # Each component takes one low and one high transition-count stratum and
    # two strata of rmin, the same in every seed, so the round's cost make-up
    # does not move.
    n = len(cases)
    strata = [k // 2 if k % 2 == 0 else n - 1 - k // 2 for k in range(n)]
    r_strata = [(5 * k) % n for k in range(n)]
    molecules, ops = {}, []
    for k, ((kind, name), units) in enumerate(cases):
        files = []
        for side in "ab":
            count = 16 + int((strata[k] + rng.random()) / n * 49)
            fname = f"curve-{k}{side}"
            omegas = np.exp(rng.uniform(math.log(0.1), math.log(10.0), count))
            molecules[fname] = _molecule_doc(rng, fname, omegas, units,
                                             1.0 / math.sqrt(count))
            files.append(fname)
        length = UNIT_FACTORS[units]["length"]
        while True:
            rmin = _draw_clear(                      # internal units
                lambda: 0.3 * 10.0**((r_strata[k] + rng.random()) / n),
                lambda r: np.geomspace(r, 10.0 * r, CURVE_POINTS),
                _omega_max(molecules[f] for f in files))
            op = {"files": files, "units": units, "kind": kind,
                  "component": name, "rmin": rmin / length,
                  "rmax": 10.0 * rmin / length,
                  "orientation": _unit(rng), "points": CURVE_POINTS}
            if keep is None or keep(op, molecules):
                break
        ops.append(op)
    order = rng.permutation(len(ops))
    return {"workload": "curve", "molecules": molecules,
            "ops": [ops[i] for i in order]}


def limits(seed: int, keep=None) -> dict:
    """The bundled pair's 20 (row, regime) power-law cells and four deep
    near-zone EE probes along z; the seed only orders them."""
    rng = np.random.default_rng([seed, 3])
    ops = [{"kind": "cell", "row": row, "regime": regime,
            "points": LIMIT_POINTS}
           for row in ROWS for regime in ("retarded", "nonretarded")]
    ops += [{"kind": "probe", "R": R} for R in PROBE_RADII]
    order = rng.permutation(len(ops))
    return {"workload": "limits", "molecules": {},
            "ops": [ops[i] for i in order]}


def build(name: str, seed: int, keep=None) -> dict:
    """The workload's spec; ``keep(op, docs)``, when given, rejects drawn
    ops (the limits ops are fixed and are not offered to it)."""
    return {"total": total, "curve": curve,
            "limits": limits}[name](seed, keep)
