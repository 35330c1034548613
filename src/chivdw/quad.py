"""Adaptive quadrature engines.

Two integral families drive this package: semi-infinite integrals of
response kernels over imaginary frequency, and Cauchy principal values with
a simple pole on the path.  Both are served by a single vectorised adaptive
15-point Kronrod core.  Its panel error estimate is a null-rule estimate
(Berntsen and Espelid, ACM TOMS 17, 1991; surveyed by Gonnet, ACM Comput.
Surv. 44, 2012): the decay of the top discrete Legendre coefficients of a
panel's 15 node values, read from the values the rule already has, bounds
the error of the Kronrod value itself (see ``_panel_sums``):

* ``integrate_halfline`` integrates in log-frequency: one up-front panel
  layout, linear below the integrand's smallest scale, uniform in ln(xi)
  across its scales and algebraically mapped beyond the largest, which
  adaptive bisection then refines.
* ``integrate_pv`` removes the pole by the symmetric combination
  f(pole+t) + f(pole-t), which is smooth at t = 0, and integrates the
  leftover one-sided segment normally.
* ``integrate_interval`` exposes the finite-interval core directly.

An integrand is called on an array of n nodes, shape (n,), and returns
shape (n,) or (n, K).  With (n, K), K integrals share one adaptive pass
and its nodes, each component is held to its own tolerance, and the result
carries (K,) arrays with ``evals`` counting the shared nodes; (n,) is the
K = 1 case of the same core.  Any other shape raises ``ValueError``, an
error raised by the integrand propagates unchanged, and a non-finite value
raises ``NonFiniteIntegrandError``.  All engines are stateless and safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "NonFiniteIntegrandError",
    "QuadSpec",
    "QuadResult",
    "integrate_halfline",
    "integrate_interval",
    "integrate_pv",
]

# 15-point Kronrod rule on [-1, 1] (nodes and weights of QUADPACK's qk15).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
# Full 15-node layout: [-x0 .. -x6, 0, +x6 .. +x0]
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])


def _null_rules() -> np.ndarray:
    """The Kronrod weights stacked on six null rules, shape (7, 15).

    Rows 1-6 give the discrete Legendre coefficients c_9 .. c_14 of the 15
    node values: the Legendre polynomials at the nodes, orthonormalised in
    the Kronrod inner product sum_i w_i f(x_i) g(x_i), so coefficient k
    vanishes on every polynomial of degree below k.
    """
    legendre = np.polynomial.legendre.legvander(_NODES, 14)
    sqrt_w = np.sqrt(_W15)[:, None]
    q, _ = np.linalg.qr(sqrt_w * legendre)
    return np.vstack([_W15, (sqrt_w * q).T[9:]])


_RULES = _null_rules()
# The error model of _panel_sums.  Below the decay ratio _R_CRIT a panel is
# taken as asymptotic and its estimate shrinks like ratio**_ALPHA; every
# estimate is _SAFETY times the model.  The values were chosen against the
# exact vacuum oracle of the test suite.
_R_CRIT = 0.5
_ALPHA = 4.0
_SAFETY = 10.0

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # smallest normal float
# The narrowest panel that is still bisected, relative to the magnitude of
# its edges: some 500 floats or more, so that the outer nodes of its
# halves, 0.0085 of a half-width inside their edges, stay clear of them.
_MIN_WIDTH = 1024.0 * _EPS
# The ratio xi_hi/xi_lo of a half-line layout whose scales' ratio
# overflows a float; e times it is still a float, so e^(t - 1) is finite
# for every t of the map.
_MAX_SPAN = 2.0 ** 1020


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for one quadrature run.

    Each component must reach max(``rel_tol`` |value|, ``abs_tol``) on
    its summed error estimate; ``max_evals`` caps the integrand nodes.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-300
    max_evals: int = 20000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if not (self.abs_tol >= 0.0):
            raise ValueError("abs_tol must be non-negative")
        if not (self.max_evals > 0):
            raise ValueError("max_evals must be positive")


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate, evaluation count and convergence flag.

    For a vector-valued integrand ``value`` and ``error_estimate`` are
    arrays with one entry per component, ``evals`` counts the shared
    nodes and ``converged`` holds only if every component converged.
    """

    value: float
    error_estimate: float
    evals: int
    converged: bool

    def __add__(self, other: "QuadResult") -> "QuadResult":
        if not isinstance(other, QuadResult):
            return NotImplemented
        return QuadResult(
            value=self.value + other.value,
            error_estimate=self.error_estimate + other.error_estimate,
            evals=self.evals + other.evals,
            converged=self.converged and other.converged,
        )


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or an infinity; the message names the
    abscissa.  ``mapped`` is true when the integrand was finite and only
    its product with a map's Jacobian, or a folded sum, overflowed, or
    when the half-line map itself leaves float range before the integrand
    is called."""

    def __init__(self, message: str, mapped: bool = False):
        super().__init__(message)
        self.mapped = mapped


class _VectorisedCall:
    """Call an integrand on a node array (n,), returning values (n, K).

    An integrand returning shape (n,) is the K = 1 case; one returning
    (n, K) is vector-valued (``vector`` records which).  Any other shape
    raises ``ValueError``, and a non-finite value
    ``NonFiniteIntegrandError`` naming the integrand's own abscissa.
    """

    def __init__(self, f: Callable):
        self._f = f
        self.vector = False

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        n = xs.shape[0]
        out = np.asarray(self._f(xs), dtype=float)
        if out.ndim not in (1, 2) or out.shape[0] != n:
            raise ValueError(
                f"integrand returned shape {out.shape} for {n} nodes; "
                f"expected ({n},) or ({n}, K)")
        self.vector = out.ndim == 2
        out = out.reshape(n, -1)
        if not np.isfinite(out).all():
            bad = float(xs[~np.isfinite(out).all(axis=1)][0])
            raise NonFiniteIntegrandError(
                f"integrand returned a non-finite value at x={bad!r}")
        return out


def _shaped(res: QuadResult, fv: _VectorisedCall) -> QuadResult:
    """Per-component arrays for a vector integrand, floats otherwise."""
    if fv.vector:
        return res
    return QuadResult(float(res.value[0]), float(res.error_estimate[0]),
                      res.evals, res.converged)


def _panel_sums(fvals: np.ndarray, half: np.ndarray):
    """Kronrod value, error estimate and round-off floor for a batch of
    panels.

    ``fvals`` has shape (m, 15, K); ``half`` the panel half-widths (m,).
    Returns shape (3, m, K): the value, the error estimate and its floor
    per panel and component, from the node values alone, in one product
    with ``_RULES``.  The floor is 50 eps resabs, the round-off of the
    panel's sum.  The error is a null-rule estimate of the Kronrod value
    (Berntsen and Espelid, ACM TOMS 17, 1991): the discrete Legendre
    coefficients c_9 .. c_14 of the node values are paired as
    E3 = |(c_9, c_10)|, E2 = |(c_11, c_12)| and E1 = |(c_13, c_14)|, and
    their decay ratio is r = max(E1/E2, E2/E3).  With r >= 1 the
    coefficients do not decay and the estimate is 10 max(E1, E2, E3);
    below that it is 10 r E1, and below r = 1/2, where they decay
    geometrically and the Kronrod rule, exact to degree 22, sits some five
    pairs further down, 10 (1/2)^-3 r^4 E1.  The estimate is never below
    the floor; a panel of exact zeros has zero error.
    """
    out = np.empty((3, fvals.shape[0], fvals.shape[2]))
    half = half[:, None]
    proj = _RULES @ fvals                                   # (m, 7, K)
    out[0] = half * proj[:, 0]
    out[2] = 50.0 * _EPS * (half * (_W15 @ np.abs(fvals)))
    pairs = np.hypot(proj[:, 1::2], proj[:, 2::2])          # (m, 3, K)
    e3, e2, e1 = pairs.transpose(1, 0, 2)
    # x/0 is inf and 0/0 NaN, which fmax passes over: r is 0 where E1 and
    # E2 vanish, and a panel of zeros ends on its zero floor
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.fmax(e1 / e2, e2 / e3)
        capped = np.minimum(ratio, 1.0)
        shrink = np.where(capped > _R_CRIT, capped,
                          _R_CRIT ** (1.0 - _ALPHA) * capped ** _ALPHA)
        err = np.where(ratio >= 1.0, pairs.max(axis=1), shrink * e1)
        out[1] = np.fmax(_SAFETY * half * err, out[2])
    return out


def _adaptive(f: Callable, edges: Sequence[float],
              spec: QuadSpec) -> QuadResult:
    """Globally adaptive bisection over an initial set of panels.

    ``f`` maps a node array (n,) to values of shape (n, K), all K
    components sharing the nodes.  Component k is converged when its
    summed panel error is within max(rel_tol |value_k|, abs_tol); a panel
    is split when its error in any component exceeds that component's
    equidistributed share.  A component whose summed round-off floor
    exceeds its tolerance while its error is within twice that floor is
    held: splitting cannot lower the floor, so it no longer drives splits
    or the stopping rule, and it leaves the result unconverged.  A panel
    too narrow to bisect in floating point is not split either, and a
    component whose error in such panels alone exceeds its tolerance is
    held in the same way; once every component is converged or held, or
    only such panels exceed their share, the result is returned
    unconverged.
    Value and error estimate are returned as (K,) arrays and ``evals``
    counts shared nodes.
    """
    los = np.array(edges[:-1], dtype=float)
    his = np.array(edges[1:], dtype=float)
    keep = his > los
    pend_lo, pend_hi = los[keep], his[keep]
    if pend_lo.size == 0:
        return QuadResult(0.0, 0.0, 0, True)

    evals = 0
    sums = None
    all_lo = np.empty(0)
    all_hi = np.empty(0)

    while True:
        mid = 0.5 * (pend_lo + pend_hi)
        half = 0.5 * (pend_hi - pend_lo)
        nodes = mid[:, None] + half[:, None] * _NODES[None, :]
        flat = nodes.reshape(-1)
        fv = f(flat)
        if not np.isfinite(fv).all():
            # the integrand itself is checked where it is called, so this
            # is a map's Jacobian or a folded sum overflowing
            bad = float(flat[~np.isfinite(fv).all(axis=1)][0])
            raise NonFiniteIntegrandError(
                f"mapped integrand overflowed at t={bad!r}", mapped=True)
        evals += flat.size
        new = _panel_sums(fv.reshape(nodes.shape + (-1,)), half)
        sums = new if sums is None else np.concatenate([sums, new], axis=1)
        all_lo = np.concatenate([all_lo, pend_lo])
        all_hi = np.concatenate([all_hi, pend_hi])

        total, total_err, total_floor = sums.sum(axis=1)
        tol = np.maximum(spec.rel_tol * np.abs(total), spec.abs_tol)
        done = total_err <= tol
        if done.all():
            return QuadResult(total, total_err, evals, True)
        # a panel too narrow to bisect is not split: its halves' outer nodes
        # would round onto its edges (onto xi = inf at the end of
        # integrate_halfline's tail)
        errs = sums[1]
        wide = (all_hi - all_lo) > _MIN_WIDTH * np.maximum(np.abs(all_lo),
                                                           np.abs(all_hi))
        held = (total_floor > tol) & (total_err <= 2.0 * total_floor)
        held |= errs[~wide].sum(axis=0) > tol
        if (done | held).all() or evals >= spec.max_evals:
            return QuadResult(total, total_err, evals, False)

        # split every panel holding more than its equidistributed share of
        # some component's tolerance, held components aside
        tol = np.where(held, np.inf, tol)
        split = np.flatnonzero((errs > tol / len(errs)).any(axis=1) & wide)
        if split.size == 0:
            return QuadResult(total, total_err, evals, False)
        # respect the remaining budget: each split costs 30 evaluations
        budget = max((spec.max_evals - evals) // 30, 1)
        if split.size > budget:
            excess = (errs / np.maximum(tol, _TINY)).max(axis=1)
            order = np.argsort(excess[split])[::-1]
            split = split[order[:budget]]

        s_lo, s_hi = all_lo[split], all_hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        keep_mask = np.ones(len(errs), dtype=bool)
        keep_mask[split] = False
        all_lo, all_hi = all_lo[keep_mask], all_hi[keep_mask]
        sums = sums[:, keep_mask]
        pend_lo = np.concatenate([s_lo, s_mid])
        pend_hi = np.concatenate([s_mid, s_hi])


def _edge_list(a: float, b: float, interior: Iterable[float]) -> list[float]:
    pts = sorted({float(a), float(b), *(float(p) for p in interior
                                        if a < float(p) < b)})
    return pts


def integrate_interval(f: Callable, a: float, b: float, spec: QuadSpec,
                       breakpoints: Sequence[float] = ()) -> QuadResult:
    """Adaptive quadrature of ``f`` over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_interval requires finite endpoints")
    if b <= a:
        raise ValueError("requires a < b")
    fv = _VectorisedCall(f)
    return _shaped(_adaptive(fv, _edge_list(a, b, breakpoints), spec), fv)


def integrate_halfline(f: Callable, spec: QuadSpec,
                       breakpoints: Sequence[float] = ()) -> QuadResult:
    """Integrate ``f`` over [0, inf) in log-frequency.

    ``breakpoints`` are the scales of the integrand in the original
    variable (e.g. resonance frequencies and an inverse distance); the
    positive finite ones (1 when there are none) fix one panel layout
    from xi_lo = min(scales)/100 to xi_hi = 40 max(scales); where
    xi_hi/xi_lo is not a float, xi_lo is raised to xi_hi/2^1020 and the
    scales below it share the head panel.  One variable
    t runs over [0, 2 + L], L = ln(xi_hi/xi_lo), in three pieces:

    * head  t in [0, 1]: xi = xi_lo t, one panel;
    * body  t in [1, 1 + L]: xi = xi_lo e^(t - 1), panels uniform in t at
      two per decade of xi;
    * tail  t in [1 + L, 2 + L): xi = xi_hi / (2 + L - t), one panel,
      i.e. xi = xi_hi / (1 - tau).

    The map and its first derivative are continuous at both joins.  In
    ln(xi) a resonance or an exp(-2 R xi) cutoff is a feature of width
    about one wherever it lies, so the first layout already resolves every
    scale and adaptive bisection only refines it.  The integrand must be
    integrable at infinity.  Where 40 max(scales), or a node of the tail
    map, is beyond the largest float, ``NonFiniteIntegrandError`` is
    raised with ``mapped`` set, before the integrand is called there.

    ``f`` may return shape (n,) or, for K integrals on shared nodes,
    (n, K); the latter gives per-component arrays (see ``_adaptive``).
    """
    scales = [float(p) for p in breakpoints if 0.0 < float(p) < math.inf]
    if not scales:
        scales = [1.0]
    xi_lo = min(scales) / 100.0
    xi_hi = 40.0 * max(scales)
    if xi_hi == math.inf:
        raise NonFiniteIntegrandError(
            f"the half-line layout leaves float range: 40 x "
            f"{max(scales)!r} overflows", mapped=True)
    if xi_lo == 0.0 or xi_hi / xi_lo == math.inf:
        # scales some 308 decades apart: the lowest share the head panel
        xi_lo = xi_hi / _MAX_SPAN
    body = math.log(xi_hi / xi_lo)
    n_body = math.ceil(2.0 * math.log10(xi_hi / xi_lo))
    tail_start, end = 1.0 + body, 2.0 + body
    # bisection (see _MIN_WIDTH) keeps end - t above 1e-16 at every tail
    # node, so its xi_hi / (end - t) can leave float range only where
    # 1e16 xi_hi does
    far_overflows = 1e16 * xi_hi == math.inf
    edges = [0.0, *(1.0 + body * np.arange(n_body + 1) / n_body), end]
    fv = _VectorisedCall(f)

    def transformed(ts: np.ndarray) -> np.ndarray:
        xs = xi_lo * np.exp(ts - 1.0)
        jac = xs.copy()
        head = ts < 1.0
        xs[head] = xi_lo * ts[head]
        jac[head] = xi_lo
        tail = ts > tail_start
        rest = end - ts[tail]
        far = xi_hi / rest
        if far_overflows and np.isinf(far).any():
            bad = float(ts[tail][np.isinf(far)][0])
            raise NonFiniteIntegrandError(
                f"the half-line map overflowed at t={bad!r}", mapped=True)
        xs[tail] = far
        jac[tail] = far / rest
        return fv(xs) * jac[:, None]

    return _shaped(_adaptive(transformed, edges, spec), fv)


def integrate_pv(f: Callable, pole: float, a: float, b: float,
                 spec: QuadSpec) -> QuadResult:
    """Cauchy principal value of ``f`` over (a, b) with a simple pole.

    The symmetric combination f(pole+t) + f(pole-t) cancels the pole and is
    integrated over (0, delta] with delta = min(pole-a, b-pole); whichever of
    [a, pole-delta] or [pole+delta, b] is non-empty is integrated normally.
    """
    if not (a < pole < b):
        raise ValueError("pole must lie strictly inside (a, b)")
    fv = _VectorisedCall(f)
    delta = min(pole - a, b - pole)
    # Each offset is snapped to t' = fl(pole + t) - pole, at least one ulp
    # of the pole, so that pole + t' and pole - t' are exact mirror images
    # even where pole + t crosses into the next binade.  Naive evaluation
    # lets the rounding of pole+t grow like 1/t^2 in the folded integrand
    # near the pole, and adaptive refinement then chases that noise; with
    # snapped offsets the cancellation is exact.
    quantum = math.ulp(pole)

    def symmetric(ts: np.ndarray) -> np.ndarray:
        ts = (pole + np.maximum(ts, quantum)) - pole
        return fv(pole + ts) + fv(pole - ts)

    core = _adaptive(symmetric, _edge_list(0.0, delta, [delta * 0.1]), spec)
    if pole - a > delta:
        core = core + _adaptive(fv, _edge_list(a, pole - delta, []), spec)
    if b - pole > delta:
        core = core + _adaptive(fv, _edge_list(pole + delta, b, []), spec)
    return _shaped(core, fv)
