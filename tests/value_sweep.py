"""The potentials on a fixed sweep, dumped to JSON and compared between
two versions of chivdw.

The sweep is 4 pairs x 46 requests x 21 separations = 3,864 values:

- the pairs: the bundled pair; two generic 2-transition molecules; a
  seeded 16- and 64-transition pair; a pair with omega 1e-4, 1 and 1e-2,
  1e4;
- the requests: ``u_named`` for the 12 components, ``u_row`` for the 10
  rows, TOTAL and EC at ``duality=pi/5`` and ``u_unified`` for the 16 raw
  tuples (3,360 values on the product route); the five direct
  single-trace forms ``u_ec_direct``, ``u_mc_direct``, ``u_pc_direct``,
  ``u_dc_direct`` and ``u_cc_direct`` (420 values); the
  orientation-averaged ``u_cc_isotropic`` (84 values);
- the separations: R = 1e-3 ... 1e3, 21 values, along (1, -2, 2)/3.

``chivdw`` is imported from ``PYTHONPATH``, so one script dumps any
checkout.  To check a change against its parent:

    PYTHONPATH=PARENT/src python tests/value_sweep.py dump parent.json
    PYTHONPATH=src python tests/value_sweep.py dump change.json
    python tests/value_sweep.py compare parent.json change.json

``compare`` prints the worst and median relative deviation, how many
values, error estimates and ``evals`` differ at all (bit for bit), the
changed ``converged`` flags and the eval totals.  It exits 1 when a
value is off by more than 1e-12 relative and by more than the two error
estimates together, or when a ``converged`` flag changed.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

REL = 1e-12
RS = np.geomspace(1e-3, 1e3, 21)
DIRECTION = np.array([1.0, -2.0, 2.0]) / 3.0
DUALITY = math.pi / 5


def _generic(seed, count):
    from chivdw.response import Molecule

    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    return Molecule.from_arrays(f"generic{seed}",
                                rng.uniform(0.5, 2.5, count),
                                rng.normal(size=(count, 3)),
                                rng.normal(size=(count, 3)),
                                -0.03 * (m @ m.T))


def _spread(name, omegas, seed):
    from chivdw.response import Molecule

    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    count = len(omegas)
    return Molecule.from_arrays(name, omegas, rng.normal(size=(count, 3)),
                                rng.normal(size=(count, 3)),
                                -0.01 * (m @ m.T))


def pairs() -> dict:
    from chivdw.molfiles import bundled_pair

    return {
        "bundled": bundled_pair(),
        "generic": (_generic(1, 2), _generic(2, 2)),
        "large": (_generic(16, 16), _generic(64, 64)),
        "spread": (_spread("low", [1e-4, 1.0], 3),
                   _spread("high", [1e-2, 1e4], 4)),
    }


def requests() -> list:
    """(name, function of (a, b, sep)) for the 46 requests."""
    import itertools

    from chivdw import potentials
    from chivdw.potentials import (ROW_NAMES, ComponentLabel, u_named, u_row,
                                   u_unified)

    out = [(label.value, lambda a, b, s, l=label: u_named(a, b, s, l))
           for label in ComponentLabel]
    out += [(f"row {row}", lambda a, b, s, r=row: u_row(a, b, s, r))
            for row in ROW_NAMES]
    out += [(f"{label} duality", lambda a, b, s, l=label:
             u_named(a, b, s, l, duality=DUALITY))
            for label in ("TOTAL", "EC")]
    out += [(tup, lambda a, b, s, t=tup: u_unified(a, b, s, t))
            for tup in ("".join(t) for t in itertools.product("em", repeat=4))]
    out += [(f"{form} direct", getattr(potentials, f"u_{form.lower()}_direct"))
            for form in ("EC", "MC", "PC", "DC", "CC")]
    out.append(("CC isotropic",
                lambda a, b, s: potentials.u_cc_isotropic(a, b, s.R)))
    return out


def dump(path: str) -> None:
    from chivdw.green import Separation

    records = []
    for pair_name, (a, b) in pairs().items():
        for name, request in requests():
            for R in RS.tolist():
                res = request(a, b, Separation(R * DIRECTION, np.zeros(3)))
                records.append({"pair": pair_name, "request": name, "R": R,
                                "value": float(res.value),
                                "error": float(res.error_estimate),
                                "evals": int(res.evals),
                                "converged": bool(res.converged)})
    with open(path, "w") as fh:
        json.dump(records, fh)
    print(f"{len(records)} values written to {path}")


def compare(parent_path: str, change_path: str) -> int:
    def load(path):
        with open(path) as fh:
            return {(r["pair"], r["request"], r["R"]): r
                    for r in json.load(fh)}

    parent, change = load(parent_path), load(change_path)
    if parent.keys() != change.keys():
        print("the two dumps hold different sweeps")
        return 1
    rels, bad, flips = [], [], []
    for key, old in parent.items():
        new = change[key]
        gap = abs(new["value"] - old["value"])
        scale = abs(old["value"])
        rels.append(gap / scale if scale else (0.0 if gap == 0 else math.inf))
        if gap > REL * scale and gap > old["error"] + new["error"]:
            bad.append(key)
        if new["converged"] != old["converged"]:
            flips.append(key)
    worst = int(np.argmax(rels))
    evals = [sum(r["evals"] for r in d.values()) for d in (parent, change)]
    print(f"{len(rels)} values: worst relative deviation {rels[worst]:.2e} "
          f"({list(parent)[worst]}), median {float(np.median(rels)):.2e}, "
          f"{sum(r > REL for r in rels)} above {REL:g}")
    differ = {field: sum(parent[k][field] != change[k][field] for k in parent)
              for field in ("value", "error", "evals")}
    print(f"bit for bit: {differ['value']} values, {differ['error']} error "
          f"estimates and {differ['evals']} evals differ")
    print(f"{len(bad)} off by more than {REL:g} relative and the combined "
          f"error estimates; {len(flips)} converged flags changed")
    print(f"evals: {evals[0]:,} parent, {evals[1]:,} change")
    for key in (bad + flips)[:10]:
        print("  ", key, parent[key], change[key])
    return 1 if bad or flips else 0


def _main(argv) -> int:
    if len(argv) == 3 and argv[1] == "dump":
        dump(argv[2])
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(_main(sys.argv))
