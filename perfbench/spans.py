"""Spans around the calls into each chivdw module, made from outside it.

``install`` rebinds the module attributes through which the layers call one
another (for example ``chivdw.potentials.integrate_halfline``) to timing
wrappers and returns a function that restores them.  Spans nest on a stack,
so every layer's self time is its busy time minus that of the spans it
caused.  Counts (integrand calls, nodes, evaluations) are taken at the same
boundaries.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Busy time, self time and call counts per layer, kept in memory."""

    def __init__(self) -> None:
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                children = stack.pop()
                self.busy[name] += spent
                self.self_s[name] += spent - children
                self.calls[name] += 1
                if stack:
                    stack[-1] += spent

        return traced

    def wrap_quadrature(self, fn):
        """``integrate_halfline`` with its integrand traced and counted."""
        span = self.wrap("quad", fn)

        def traced(f, spec, breakpoints=()):
            def counted(xs):
                self.counts["nodes"] += len(xs)
                return f(xs)

            result = span(self.wrap("integrand", counted), spec, breakpoints)
            self.counts["evals"] += result.evals
            return result

        return traced


def _bindings():
    """(owner, attribute, layer) for every call boundary that is traced."""
    from chivdw import asymptotics, cli, green, kernels, potentials

    return [
        (potentials, "u_named", "potentials"),
        (potentials, "u_row", "potentials"),
        (potentials, "u_unified", "potentials"),
        (potentials, "compute_curve", "potentials"),
        (cli, "compute_curve", "potentials"),
        (potentials, "response_arrays", "response"),
        (green.FreeSpaceProvider, "block", "green"),
        (kernels, "trace4", "kernels.trace4"),
        (asymptotics, "fit_power_law", "asymptotics"),
        (asymptotics, "retarded_window", "asymptotics"),
        (asymptotics, "nonretarded_window", "asymptotics"),
        (cli, "load_molecule", "molfiles"),
        (cli, "length_to_internal", "molfiles"),
        (cli, "main", "cli"),
        (potentials, "integrate_halfline", None),
    ]


def install(tracer: Tracer):
    """Route the traced boundaries through ``tracer``; returns the undo."""
    saved = []
    for owner, attr, layer in _bindings():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        wrapped = (tracer.wrap_quadrature(original) if layer is None
                   else tracer.wrap(layer, original))
        setattr(owner, attr, wrapped)

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def per_op(tracer: Tracer, ops: int, traced_s: float,
           untraced_s: float) -> dict:
    """The per-layer metrics, per op of the traced rounds; ``traced_s`` and
    ``untraced_s`` are the summed op latencies of the two kinds of round."""
    n = max(ops, 1)
    ms = 1e3 / n
    calls = tracer.calls
    op_busy = tracer.busy["op"]
    return {
        "potentials.quad_runs_per_op": calls["quad"] / n,
        "potentials.self_ms_per_op": tracer.self_s["potentials"] * ms,
        "potentials.integrand_self_ms_per_op":
            tracer.self_s["integrand"] * ms,
        "quad.integrand_calls_per_op": calls["integrand"] / n,
        "quad.nodes_per_call":
            tracer.counts["nodes"] / max(calls["integrand"], 1),
        "quad.evals_per_op": tracer.counts["evals"] / n,
        "quad.self_ms_per_op": tracer.self_s["quad"] * ms,
        "green.calls_per_op": calls["green"] / n,
        "green.ms_per_op": tracer.busy["green"] * ms,
        "response.calls_per_op": calls["response"] / n,
        "response.ms_per_op": tracer.busy["response"] * ms,
        "kernels.trace4_calls_per_op": calls["kernels.trace4"] / n,
        "kernels.trace4_ms_per_op": tracer.busy["kernels.trace4"] * ms,
        "asymptotics.ms_per_op": tracer.busy["asymptotics"] * ms,
        "molfiles.ms_per_op": tracer.busy["molfiles"] * ms,
        "cli.self_ms_per_op": tracer.self_s["cli"] * ms,
        "trace.op_ms": op_busy * ms,
        "trace.layer_share_of_op":
            (op_busy - tracer.self_s["op"]) / op_busy if op_busy else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
    }
