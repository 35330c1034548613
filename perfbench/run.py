#!/usr/bin/env python3
"""The chivdw benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {total,curve,limits} --seed N
                             --seconds S --trace {0,1} [--fresh-reference]
    python3 perfbench/run.py --smoke

Run from the root of a chivdw checkout.  The command builds the workload's
inputs from the seed, computes (or reads from its cache) the independent
reference, times the set-up in fresh interpreters, runs the closed loop in a
worker process and checks every output of every round.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  ``--smoke`` runs a few ops of every
workload, traced and untraced, and exits non-zero if any check fails.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import inspect
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
CACHE = HERE / ".cache"
SETUP_REPEATS = 5
DEADLINE_S = 170.0

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("ms_per_op") or name.endswith("op_ms"):
        return "ms"
    if name.startswith("trace."):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs and reference
# ---------------------------------------------------------------------------

def cached(inputs, compute, fresh: bool = False):
    """``compute()`` cached under CACHE by a digest of ``inputs`` (JSON)."""
    blob = json.dumps(inputs, sort_keys=True).encode()
    path = CACHE / f"ref-{hashlib.sha256(blob).hexdigest()[:24]}.json"
    if not fresh and path.exists():
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            pass
    value = compute()
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value))
    tmp.replace(path)
    return value


def _mol(doc: dict) -> reference.Mol:
    factors = workloads.UNIT_FACTORS[doc["units"]]
    return reference.Mol.from_document(doc, factors)


def _geometry(workload: str, op: dict, docs: dict):
    """(doc_a, doc_b, unit direction, separations, terms) of an op that the
    reference evaluates; molecule B sits at the origin."""
    if workload == "total":
        return (docs[op["pair"][0]], docs[op["pair"][1]],
                np.asarray(op["direction"]), [op["R"]],
                reference.COMPONENTS["TOTAL"])
    if workload == "curve":
        length = workloads.UNIT_FACTORS[op["units"]]["length"]
        n_hat = np.asarray(op["orientation"])
        grid = np.geomspace(op["rmin"] * length, op["rmax"] * length,
                            op["points"])
        return (docs[op["files"][0]], docs[op["files"][1]],
                n_hat / np.linalg.norm(n_hat), grid.tolist(),
                reference.terms_for(op["kind"], op["component"]))
    a, b = docs["bundled:a"], docs["bundled:b"]
    omegas = [t["omega"] for doc in (a, b) for t in doc["transitions"]]
    if op["regime"] == "retarded":       # R omega_min in [50, 500]
        grid = np.geomspace(50.0, 500.0, op["points"]) / min(omegas)
    else:                                # R omega_max in [1e-4, 1e-3]
        grid = np.geomspace(1e-4, 1e-3, op["points"]) / max(omegas)
    return a, b, np.array([0.0, 0.0, 1.0]), grid.tolist(), \
        reference.ROWS[op["row"]]


class Reference:
    """Reference values, each cached under a digest of its inputs and of
    reference.py, so ops and seeds that share a value compute it once."""

    def __init__(self, fresh: bool = False):
        self.fresh = fresh
        self.code = inspect.getsource(reference)

    def value(self, doc_a: dict, doc_b: dict, r_a, terms) -> float:
        key = {"a": doc_a, "b": doc_b, "r_a": list(r_a), "terms": terms,
               "factors": workloads.UNIT_FACTORS, "code": self.code}
        return cached(key, lambda: reference.potential(
            _mol(doc_a), _mol(doc_b), r_a, np.zeros(3), terms), self.fresh)

    def op(self, workload: str, op: dict, docs: dict):
        """The reference output of one op."""
        if op.get("kind") == "probe":
            a, b = _mol(docs["bundled:a"]), _mol(docs["bundled:b"])
            if a.omegas.size != 1 or b.omegas.size != 1:
                raise BenchError("London's law needs one transition per "
                                 "molecule")
            return {"U": reference.london_ee(
                a.d[0], a.omegas[0], b.d[0], b.omegas[0],
                np.array([0.0, 0.0, 1.0]), op["R"])}
        a, b, n_hat, grid, terms = _geometry(workload, op, docs)
        us = [self.value(a, b, R * n_hat, terms) for R in grid]
        return us[0] if workload == "total" else {"R": grid, "U": us}

    def clear_of_zeros(self, workload: str, op: dict, docs: dict) -> bool:
        """Whether no separation of the op lies within about 0.4% of a
        zero of its quantity: there |U(R)| falls below 1% of the geometric
        mean of |U| one curve-grid step (10^(1/7)) below and above R."""
        a, b, n_hat, grid, terms = _geometry(workload, op, docs)
        step = 10.0 ** (1.0 / 7.0)
        radii = [grid[0] / step, *grid, grid[-1] * step]
        us = [abs(self.value(a, b, R * n_hat, terms)) for R in radii]
        return all(us[k] >= 0.01 * math.sqrt(us[k - 1] * us[k + 1])
                   for k in range(1, len(us) - 1))


def prepare(name: str, seed: int, seconds: float, trace: int,
            ref: Reference, max_ops: int = 0):
    """Write the seed's molecule files and the worker's spec; returns the
    spec and its path."""
    spec = workloads.build(
        name, seed, lambda op, docs: ref.clear_of_zeros(name, op, docs))
    if max_ops:
        spec["ops"] = spec["ops"][:max_ops]
    files = OUT / f"{name}-{seed}"
    files.mkdir(parents=True, exist_ok=True)
    for mol_name, doc in spec["molecules"].items():
        (files / f"{mol_name}.json").write_text(json.dumps(doc))
    spec.update(root=str(ROOT), files=str(files), seconds=seconds,
                trace=trace)
    path = files / f"spec-{trace}.json"
    path.write_text(json.dumps(spec))
    return spec, path


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def _python(args, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return proc


def setup_seconds(spec_path: Path, deadline: float) -> float:
    """Median time, at the reference speed, that a fresh interpreter takes
    to import chivdw and load the workload's molecules (after one unmeasured
    run that warms the bytecode and file caches)."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        proc = _python(["--setup", str(spec_path)],
                       deadline - time.monotonic())
        if k:
            got = json.loads(proc.stdout)
            times += speed.scaled([got["setup_s"]], [got["kernel_s"]])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------

def judge(spec: dict, result: dict, refs: list):
    """(attempted, failed, correct): every op of every round is checked;
    only the KNOWN_FAULTS ops may fail."""
    attempted = failed = 0
    unexpected = []
    for outs in result["rounds"]:
        for op, out, ref in zip(spec["ops"], outs, refs):
            attempted += 1
            reasons = checks.check(spec["workload"], op, out, ref)
            if reasons:
                failed += 1
                if checks.op_key(op) not in checks.KNOWN_FAULTS:
                    unexpected.append((op, reasons))
    for op, reasons in unexpected[:5]:
        print(f"FAILED {json.dumps(op)[:160]}: {'; '.join(reasons)[:400]}",
              file=sys.stderr)
    return attempted, failed, not unexpected


def tail_index(n: int) -> int:
    """Index, in sorted order, of the highest percentile with at least ten
    samples beyond it (the maximum when there are fewer than eleven)."""
    return n - 11 if n >= 11 else n - 1


def end_to_end(result: dict, setup_s: float) -> dict:
    """The end-to-end metrics; op times are scaled to the reference speed."""
    untraced = [k for k, flag in enumerate(result["traced"]) if not flag]
    lat = sorted(speed.scaled(
        [t for k in untraced for t in result["latency_s"][k]],
        [t for k in untraced for t in result["kernel_s"][k]]))
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[tail_index(len(lat))],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int,
             fresh: bool = False, max_ops: int = 0) -> dict:
    if not (ROOT / "src" / "chivdw" / "__init__.py").is_file():
        raise BenchError(f"no chivdw sources under {ROOT / 'src'}; run from "
                         "the root of a chivdw checkout")
    deadline = time.monotonic() + DEADLINE_S
    ref = Reference(fresh)
    spec, spec_path = prepare(workload, seed, seconds, trace, ref, max_ops)
    docs = {**workloads.bundled_docs(), **spec["molecules"]}
    refs = [ref.op(workload, op, docs) for op in spec["ops"]]
    setup_s = 0.0 if trace else setup_seconds(spec_path, deadline)
    out_path = spec_path.with_name(f"result-{trace}.json")
    _python([str(spec_path), str(out_path)], deadline - time.monotonic())
    result = json.loads(out_path.read_text())
    attempted, failed, correct = judge(spec, result, refs)
    if trace:
        metrics = {k: (v, layer_unit(k)) for k, v in result["layers"].items()}
    else:
        metrics = {k: (v, E2E_UNITS[k])
                   for k, v in end_to_end(result, setup_s).items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def smoke() -> int:
    """A few ops of every workload, untraced and traced."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            res = run_once(name, 0, 0.0, trace, max_ops=4)
            ok &= res["correct"]
            print(json.dumps({"workload": name, "trace": trace, **res}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fresh-reference", action="store_true",
                        help="recompute the reference instead of reading "
                             "its cache")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        res = run_once(args.workload, args.seed, args.seconds, args.trace,
                       args.fresh_reference)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
