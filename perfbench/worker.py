"""Run one workload's ops in a closed loop, in a process of its own.

    python3 worker.py SPEC OUT     time rounds of ops, write outputs to OUT
    python3 worker.py --setup SPEC import chivdw and load the molecules only

The process imports chivdw and nothing of the reference, so its peak
resident memory is the program's.  One caller runs whole rounds of the
spec's ops for about ``seconds``, stopping at the nearest round boundary.
With ``trace`` set, untraced and traced rounds alternate; the traced ones
give the per-layer figures and the pair gives the tracing overhead.  The
speed kernel runs before every op, outside its timed call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import spans


def _import_chivdw(root: Path) -> None:
    """Import chivdw from the checkout's sources and from nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import chivdw

    if Path(chivdw.__file__).resolve().parent.parent != src:
        raise SystemExit(f"chivdw imported from {chivdw.__file__}, "
                         f"not from {src}")


def _molecules(spec: dict, files: Path) -> dict:
    """The spec's molecules, through the program's own loaders."""
    from chivdw import molfiles

    mols = {}
    if spec["workload"] in ("total", "limits"):
        mols["bundled:a"], mols["bundled:b"] = molfiles.bundled_pair()
    for name in spec["molecules"]:
        mols[name], _ = molfiles.load_molecule(files / f"{name}.json")
    return mols


def _runner(spec: dict, mols: dict, files: Path):
    """A function running op i and returning its JSON-able outputs (a curve
    op returns the path of its CSV, read back outside the timed call)."""
    import numpy as np
    from chivdw import asymptotics, cli, potentials
    from chivdw.green import Separation

    origin = np.zeros(3)
    z_hat = np.array([0.0, 0.0, 1.0])
    workload = spec["workload"]

    def total(op):
        a, b = (mols[n] for n in op["pair"])
        sep = Separation(op["R"] * np.asarray(op["direction"]), origin)
        res = potentials.u_named(a, b, sep, "TOTAL")
        return {"value": res.value, "converged": res.converged}

    def curve(op, out_path):
        argv = ["curve", "--mol-a", str(files / f"{op['files'][0]}.json"),
                "--mol-b", str(files / f"{op['files'][1]}.json"),
                "--component", op["component"],
                "--rmin", repr(op["rmin"]), "--rmax", repr(op["rmax"]),
                "--points", str(op["points"]), "--log",
                # '=' keeps a leading minus sign from reading as a flag
                "--orientation=" + ",".join(map(repr, op["orientation"])),
                "--output", str(out_path)]
        return {"exit_code": cli.main(argv), "csv_path": str(out_path)}

    def limits(op):
        a, b = mols["bundled:a"], mols["bundled:b"]
        if op["kind"] == "probe":
            sep = Separation(op["R"] * z_hat, origin)
            res = potentials.u_named(a, b, sep, "EE")
            return {"value": res.value, "converged": res.converged}
        window = (asymptotics.retarded_window if op["regime"] == "retarded"
                  else asymptotics.nonretarded_window)
        rs = window(a, b, op["points"])
        res = [potentials.u_row(a, b, Separation(R * z_hat, origin),
                                op["row"]) for R in rs]
        us = [r.value for r in res]
        out = {"R": rs.tolist(), "U": us,
               "converged": [r.converged for r in res]}
        try:
            fit = asymptotics.fit_power_law(rs, us)
            out.update(exponent=fit.exponent, sign=fit.sign)
        except ValueError as exc:
            out["fit_error"] = str(exc)
        return out

    if workload == "curve":
        return lambda i, op: curve(op, files / f"out-{i}.csv")
    fn = total if workload == "total" else limits
    return lambda i, op: fn(op)


def _timed_op(run, i, op):
    """(outputs, latency in s); an op that raises is recorded as failed."""
    start = time.perf_counter()
    try:
        out = run(i, op)
    except Exception as exc:  # the loop reports the failure and goes on
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return out, time.perf_counter() - start


def main(argv) -> int:
    if argv[0] == "--setup":
        spec = json.loads(Path(argv[1]).read_text())
        start = time.perf_counter()
        _import_chivdw(Path(spec["root"]))
        _molecules(spec, Path(spec["files"]))
        spent = time.perf_counter() - start
        import speed                # numpy only after the timed import

        kernel = sorted(speed.kernel_seconds() for _ in range(3))[1]
        print(json.dumps({"setup_s": spent, "kernel_s": kernel}))
        return 0

    spec_path, out_path = Path(argv[0]), Path(argv[1])
    spec = json.loads(spec_path.read_text())
    _import_chivdw(Path(spec["root"]))
    import speed

    files = Path(spec["files"])
    mols = _molecules(spec, files)
    run = _runner(spec, mols, files)
    ops = spec["ops"]
    tracing = bool(spec["trace"])
    tracer = spans.Tracer()

    _timed_op(run, 0, ops[0])       # lazy set-up of the first call
    speed.kernel_seconds()
    rounds, latencies, kernels, traced_flags = [], [], [], []
    op_s = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        traced = tracing and len(rounds) % 2 == 1
        undo = spans.install(tracer) if traced else None
        op_fn = tracer.wrap("op", run) if traced else run
        began = time.perf_counter()
        outs, lats, kers = [], [], []
        for i, op in enumerate(ops):
            kers.append(speed.kernel_seconds())
            out, spent = _timed_op(op_fn, i, op)
            if "csv_path" in out:
                out["csv"] = Path(out.pop("csv_path")).read_text()
            outs.append(out)
            lats.append(spent)
        round_spent = time.perf_counter() - began
        op_s[traced] += sum(lats)
        if undo:
            undo()
        rounds.append(outs)
        latencies.append(lats)
        kernels.append(kers)
        traced_flags.append(traced)
        # stop at the round boundary nearest to the requested duration
        done = (time.perf_counter() - start + 0.5 * round_spent
                >= spec["seconds"])
        if done and (not tracing or len(rounds) % 2 == 0):
            break

    result = {
        "rounds": rounds,
        "latency_s": latencies,
        "kernel_s": kernels,
        "traced": traced_flags,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracing:
        n_traced = len(ops) * sum(traced_flags)
        result["layers"] = spans.per_op(
            tracer, n_traced, op_s[True], op_s[False])
        result["trace"] = {"busy_s": tracer.busy, "self_s": tracer.self_s,
                           "calls": tracer.calls, "counts": tracer.counts}
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
