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
  adaptive bisection then refines.  Every panel lies in one of the three
  pieces, so the map is applied panel by panel, to slices of the rows
  where the pieces follow in order, as they do in the first round.
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
raises ``NonFiniteIntegrandError``.  Each round of the adaptive core makes
one integrand call on the nodes of all its new panels and checks the
values once: on the half-line after the Jacobian, where a non-finite
integrand names its abscissa x and a finite one carried out of float range
by the Jacobian names t, with ``mapped`` set.  The first round
concatenates nothing.  All engines are stateless and safe for concurrent
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

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
# the round-off floor of a panel per unit of its |f| sum, and the factor of
# the asymptotic error model at the decay ratio _R_CRIT
_FLOOR = 50.0 * _EPS
_SHRINK = _R_CRIT ** (1.0 - _ALPHA)
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
    raises ``ValueError``.  A call does not check the values: each round
    of ``_adaptive`` checks its integrand's once (``checked``, or the
    half-line map's product with its Jacobian).
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
        return out.reshape(n, -1)

    def checked(self, xs: np.ndarray) -> np.ndarray:
        """The values at the nodes ``xs``, of any shape, taken flat; a
        non-finite one raises ``NonFiniteIntegrandError`` naming its
        abscissa."""
        xs = xs.reshape(-1)
        out = self(xs)
        if not np.isfinite(out).all():
            raise _non_finite(xs, out)
        return out


def _non_finite(xs: np.ndarray, values: np.ndarray,
                mapped: bool = False) -> NonFiniteIntegrandError:
    """The error naming the first of the nodes ``xs`` whose ``values``
    (n, K) are not finite: the integrand's abscissa x, or, ``mapped``, the
    variable t of a map whose Jacobian or folded sum overflowed."""
    bad = float(xs.reshape(-1)[~np.isfinite(values).all(axis=1)][0])
    if mapped:
        return NonFiniteIntegrandError(
            f"mapped integrand overflowed at t={bad!r}", mapped=True)
    return NonFiniteIntegrandError(
        f"integrand returned a non-finite value at x={bad!r}")


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
    np.multiply(half, proj[:, 0], out=out[0])
    np.multiply(_FLOOR, half * (_W15 @ np.abs(fvals)), out=out[2])
    pairs = np.hypot(proj[:, 1::2], proj[:, 2::2])          # E3, E2, E1
    # both ratios [E2/E3, E1/E2] in one division: x/0 is inf and 0/0 NaN,
    # which fmax passes over, so r is 0 where E1 and E2 vanish, and a
    # panel of zeros ends on its zero floor
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = pairs[:, 1:] / pairs[:, :2]
        ratio = np.fmax(ratios[:, 1], ratios[:, 0])
        capped = np.minimum(ratio, 1.0)
        shrink = np.where(capped > _R_CRIT, capped,
                          _SHRINK * capped ** _ALPHA)
        err = np.where(ratio >= 1.0, np.maximum.reduce(pairs, axis=1),
                       shrink * pairs[:, 2])
        np.fmax(_SAFETY * half * err, out[2], out=out[1])
    return out


def _adaptive(f: Callable, edges: np.ndarray, spec: QuadSpec) -> QuadResult:
    """Globally adaptive bisection over an initial set of panels.

    ``edges`` are the panels' edges, strictly increasing (one edge: no
    panel, and a zero result).  ``f`` maps the
    nodes of m panels (m, 15) to finite values (15 m, K), panel by panel,
    all K components sharing the nodes, and raises
    ``NonFiniteIntegrandError`` where they are not finite; it is called
    once per round.  Component k is converged when its
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
    if edges.shape[0] < 2:      # an interval that rounds to a point
        return QuadResult(0.0, 0.0, 0, True)
    pend_lo, pend_hi = edges[:-1], edges[1:]
    evals = 0

    while True:
        mid = 0.5 * (pend_lo + pend_hi)
        half = 0.5 * (pend_hi - pend_lo)
        nodes = mid[:, None] + half[:, None] * _NODES
        fv = f(nodes)
        new = _panel_sums(fv.reshape(nodes.shape + (-1,)), half)
        if evals:
            sums = np.concatenate([sums, new], axis=1)
            all_lo = np.concatenate([all_lo, pend_lo])
            all_hi = np.concatenate([all_hi, pend_hi])
        else:       # the first round: its panels are all there are
            sums, all_lo, all_hi = new, pend_lo, pend_hi
        evals += nodes.size

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


def _edge_list(a: float, b: float, interior: Iterable[float]) -> np.ndarray:
    """The edges a < ... < b of the panels split at the ``interior``
    points that lie strictly between a and b."""
    return np.array(sorted({float(a), float(b),
                            *(float(p) for p in interior
                              if a < float(p) < b)}))


def integrate_interval(f: Callable, a: float, b: float, spec: QuadSpec,
                       breakpoints: Sequence[float] = ()) -> QuadResult:
    """Adaptive quadrature of ``f`` over the finite interval [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_interval requires finite endpoints")
    if b <= a:
        raise ValueError("requires a < b")
    fv = _VectorisedCall(f)
    return _shaped(_adaptive(fv.checked, _edge_list(a, b, breakpoints),
                             spec), fv)


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
    layout = _halfline_layout(breakpoints)
    fv = _VectorisedCall(f)

    def mapped(ts: np.ndarray) -> np.ndarray:
        xs, jac = layout.map(ts)
        xs = xs.reshape(-1)
        raw = fv(xs)
        out = raw * jac.reshape(-1, 1)
        # one check per round: a non-finite integrand names its own x, a
        # finite one that the Jacobian carries out of range names t
        if not np.isfinite(out).all():
            if not np.isfinite(raw).all():
                raise _non_finite(xs, raw)
            raise _non_finite(ts, out, mapped=True)
        return out

    return _shaped(_adaptive(mapped, layout.edges, spec), fv)


class _HalfLine(NamedTuple):
    """The panel layout of ``integrate_halfline`` in t and its map to xi:
    the edges 0, 1, ..., 1 + L, 2 + L of the head, body and tail panels,
    xi_lo, xi_hi, and whether the tail's xi_hi / (2 + L - t) can leave
    float range."""

    edges: np.ndarray
    xi_lo: float
    xi_hi: float
    tail_start: float
    end: float
    far_overflows: bool

    def map(self, ts: np.ndarray):
        """(xi, dxi/dt) at the nodes ts (m, 15) of m panels.

        Each panel lies in one piece, so the head, body and tail maps,
        xi = xi_lo t, xi_lo e^(t - 1) and xi_hi / (2 + L - t), apply panel
        by panel: to slices of the rows where the pieces follow in order
        (always in the first round), else to the rows of each piece.  A
        tail node whose xi overflows raises ``NonFiniteIntegrandError``
        with ``mapped`` set."""
        xi_lo, xi_hi = self.xi_lo, self.xi_hi
        head, body, tail = self._pieces(ts)
        xs = np.empty_like(ts)
        jac = np.empty_like(ts)
        xs[head] = xi_lo * ts[head]
        jac[head] = xi_lo
        grown = xi_lo * np.exp(ts[body] - 1.0)
        xs[body] = grown
        jac[body] = grown
        rest = self.end - ts[tail]
        far = xi_hi / rest
        if self.far_overflows and np.isinf(far).any():
            bad = float(ts[tail][np.isinf(far)][0])
            raise NonFiniteIntegrandError(
                f"the half-line map overflowed at t={bad!r}", mapped=True)
        xs[tail] = far
        jac[tail] = far / rest
        return xs, jac

    def _pieces(self, ts: np.ndarray) -> tuple:
        """The rows of ``ts`` in the head, body and tail, read from each
        panel's midpoint, node 7 of the rule: slices when they follow in
        order, else index arrays."""
        tail_start = self.tail_start
        pieces = [0 if mid < 1.0 else 2 if mid > tail_start else 1
                  for mid in ts[:, 7].tolist()]
        if pieces == sorted(pieces):
            first = pieces.count(0)
            last = len(pieces) - pieces.count(2)
            return slice(0, first), slice(first, last), slice(last, None)
        pieces = np.array(pieces)
        return tuple(np.flatnonzero(pieces == k) for k in range(3))


def _halfline_layout(breakpoints: Sequence[float]) -> _HalfLine:
    """The ``integrate_halfline`` layout of the positive finite
    ``breakpoints`` (1 when there are none)."""
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
    edges = np.array([0.0, *(1.0 + body * k / n_body
                             for k in range(n_body + 1)), end])
    # bisection (see _MIN_WIDTH) keeps end - t above 1e-16 at every tail
    # node, so its xi_hi / (end - t) can leave float range only where
    # 1e16 xi_hi does
    return _HalfLine(edges, xi_lo, xi_hi, tail_start, end,
                     1e16 * xi_hi == math.inf)


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
        ts = ts.reshape(-1)
        offsets = (pole + np.maximum(ts, quantum)) - pole
        out = fv.checked(pole + offsets) + fv.checked(pole - offsets)
        if not np.isfinite(out).all():
            raise _non_finite(ts, out, mapped=True)
        return out

    core = _adaptive(symmetric, _edge_list(0.0, delta, [delta * 0.1]), spec)
    if pole - a > delta:
        core = core + _adaptive(fv.checked, _edge_list(a, pole - delta, []),
                                spec)
    if b - pole > delta:
        core = core + _adaptive(fv.checked, _edge_list(pole + delta, b, []),
                                spec)
    return _shaped(core, fv)
