"""Two-molecule dispersion potentials from an imaginary-frequency integral.

The interaction energy between two ground-state molecules is assembled from
fourth-order tuples

    U[l1 l2 l3 l4] = -(1/2 pi) Int_0^inf dxi
        tr[ A_a^{l1 l2} . B_{l2 l3}(r_a, r_b) . A_b^{l3 l4} . B_{l4 l1}(r_b, r_a) ]

where each ``l`` is an electric/magnetic slot label ('e' or 'm'),
``A^{ll'}`` is the corresponding molecular response block (alpha, beta,
chi_em or chi_me) and ``B_{ll'}`` is an environment field-correlation block
supplied by a Green-tensor provider.  Named components group tuples:

==========  ============================================  ====================
component   tuples                                        character
==========  ============================================  ====================
EE          eeee                                          electric-electric
EM / ME     eemm / mmee                                   electric-magnetic
MM          mmmm                                          magnetic-magnetic
EC / CE     eeem + eeme / emee + meee                     electric-chiral
MC / CM     mmem + mmme / emmm + memm                     magnetic-chiral
PC / DC     the MC tuples with molecule A's magnetic      para/dia-chiral
            response restricted to its paramagnetic /
            diamagnetic part
CC          emem + emme + meem + meme                     chiral-chiral
TOTAL       all sixteen                                   full interaction
==========  ============================================  ====================

``u_row`` provides the two-sided decomposition used for tabulation: each of
its ten rows sums every tuple whose response characters match (e.g. row
'EP' includes both the A-electric/B-paramagnetic and the
A-paramagnetic/B-electric orderings), and the ten rows add up to TOTAL
exactly.

Every request is one quadrature over its list of
``(tuple, beta_mode_a, beta_mode_b)`` terms and a weight matrix that maps
the term traces to the integrated columns, all terms on shared frequency
nodes.  The terms are factorised into the paper's unified form,
tr[A_a B(r_a, r_b) A_b B(r_b, r_a)] with A the 2x2 block (6x6)
polarisability [[alpha, chi_em], [chi_me, beta]] restricted to the
blocks the terms use: within a column, the terms of equal weight and
beta modes whose A_a blocks pair with the same set of A_b blocks are one
product.  A named component, TOTAL included, is one product, a row at
most two.  That factorisation depends on the terms alone, not on the
molecules: a request's plan (``_plan``) holds the product weights, each
product's pair of half products and, per side, one gather index into
the tables a molecule holds (``Molecule.tables``) and the shape and
propagator entries of each half.  The plans of the twelve
named components and the ten rows are module constants, built at import
(``_LABEL_PLANS``, ``_ROW_PLANS``); ``u_terms``, ``u_unified`` and a raw
tuple of ``compute_curve`` plan their checked terms when called.

Per request, what remains is the molecules' part: per side one gather of
the halves' columns from the tables every ``Molecule`` holds, the three
beta modes' ``response_table`` side by side (``response.mode_tables``;
a duality request rotates a copy), and the trim to its non-zero rows.
Per transition, A is linear in 2 omega/(omega^2 + xi^2),
2 xi/(omega^2 + xi^2) and 1, so A = sum_s w_s(xi) T_s over the side
table's rows.  The provider is bound once per pass to the stacked
positions of every separation of the pass (``bind``, see
``chivdw.green``): the propagator is B = sum_k c_k(xi) F_k, a per-pass
table of K factor rows and K coefficients per node.  So every trace is
bilinear in (c w_a) and (c w_b), and a pass takes one of two routes
(``_TABLE_ROUTE_MAX``, one constant on the size of that bilinear form):

* the table route, for small forms (free space up to TOTAL with two
  transitions a side): once per pass, each half's side table times the
  K factor tables, and per product and column the table of its bilinear
  form; per node batch the frequency weights, the coefficients, their
  outer products and per column one GEMM and one row-wise dot, for every
  separation at once;
* the product route, for larger forms: per node batch each molecule's
  responses are one product of its weights with its side table, the
  blocks one product of the coefficients with the table, each half
  product one batched matrix product (6x6 for TOTAL, 3x3 for one
  tuple), each trace one contraction, and the columns one product with
  the weights.

``u_terms`` weights by the identity, so each term is its own column and
is converged on its own; a summed request (a named component, a row, a
raw tuple) weights by a row of ones and integrates only its sum, held to
the tolerance in its own right.  The ``evals`` of a multi-term result
counts shared nodes.  Where the potential leaves float range, at tiny
separations, the request raises ``NonFiniteIntegrandError`` naming the
separation, without floating point warnings; at separations so large
that the propagator underflows it is 0.

A curve (``compute_curve``, and the CLI's ``curve``, ``powerlaw`` and
``table1`` windows) integrates its separations together: the responses,
which depend on the frequency only, are formed once per node batch for
all of them, and every separation's sum is converged on its own.  The
separations are grouped by where 1/R lies relative to
the pair's transition band [omega_min, omega_max] (inside it, or the
number of decades outside it), and each group is one pass whose panel
layout spans its members' scales; a single value is the one-separation
case of the same pass.

Besides the provider path, the chiral components have direct
single-trace forms in free space (``u_ec_direct`` and its kin): one
integrand that sums each form's 3x3 traces, listed in block labels in
``_DIRECT_TRACES``, with ``kernels.trace4`` over the ``response_arrays``
tensors and the vacuum blocks.  Their derivation folds the tuples of a
component together with free space's reciprocity (B(r_b, r_a) holds the
blocks of B(r_a, r_b) transposed, the cross blocks with a sign) and
B_me = -B_em, so they take no provider: they are an independent
cross-check of the product route in vacuum.
``u_cc_isotropic`` gives the orientation-averaged
chiral-chiral potential in vacuum from one scalar radial integral.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import (Callable, Iterable, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from chivdw import kernels
from chivdw.green import Separation, free_space_provider
from chivdw.quad import (NonFiniteIntegrandError, QuadResult, QuadSpec,
                         integrate_halfline)
from chivdw.response import (MODE_COLUMNS, ZERO_COLUMN, Molecule,
                             mode_tables, response_arrays,
                             response_from_table)

__all__ = [
    "ComponentLabel",
    "LABEL_TUPLES",
    "ROW_SPECS",
    "ROW_NAMES",
    "PotentialCurve",
    "u_terms",
    "u_unified",
    "u_named",
    "u_row",
    "u_ec_direct",
    "u_mc_direct",
    "u_pc_direct",
    "u_dc_direct",
    "u_cc_direct",
    "u_cc_isotropic",
    "compute_curve",
    "resolve_component",
]

_PI = math.pi


class ComponentLabel(str, Enum):
    """Named groupings of response tuples."""

    EE = "EE"
    EM = "EM"
    ME = "ME"
    MM = "MM"
    EC = "EC"
    CE = "CE"
    MC = "MC"
    CM = "CM"
    PC = "PC"
    DC = "DC"
    CC = "CC"
    TOTAL = "TOTAL"


_ALL16: Tuple[str, ...] = tuple(
    "".join(t) for t in itertools.product("em", repeat=4))

LABEL_TUPLES = {
    ComponentLabel.EE: ("eeee",),
    ComponentLabel.EM: ("eemm",),
    ComponentLabel.ME: ("mmee",),
    ComponentLabel.MM: ("mmmm",),
    ComponentLabel.EC: ("eeem", "eeme"),
    ComponentLabel.CE: ("emee", "meee"),
    ComponentLabel.MC: ("mmem", "mmme"),
    ComponentLabel.CM: ("emmm", "memm"),
    ComponentLabel.PC: ("mmem", "mmme"),
    ComponentLabel.DC: ("mmem", "mmme"),
    ComponentLabel.CC: ("emem", "emme", "meem", "meme"),
    ComponentLabel.TOTAL: _ALL16,
}

# magnetic-slot restriction applied to molecule A for the named para/dia
# chiral components
_LABEL_BETA_MODE_A = {
    ComponentLabel.PC: "para",
    ComponentLabel.DC: "dia",
}

# Two-sided tabulation rows: (tuple, beta_mode_a, beta_mode_b) terms.  The
# ten rows partition all sixteen tuples with the magnetic response split
# into paramagnetic and diamagnetic parts, so their sum equals TOTAL.
ROW_SPECS = {
    "EE": (("eeee", "full", "full"),),
    "EP": (("eemm", "full", "para"), ("mmee", "para", "full")),
    "ED": (("eemm", "full", "dia"), ("mmee", "dia", "full")),
    "EC": (("eeem", "full", "full"), ("eeme", "full", "full"),
           ("emee", "full", "full"), ("meee", "full", "full")),
    "PP": (("mmmm", "para", "para"),),
    "PD": (("mmmm", "para", "dia"), ("mmmm", "dia", "para")),
    "PC": (("mmem", "para", "full"), ("mmme", "para", "full"),
           ("emmm", "full", "para"), ("memm", "full", "para")),
    "DD": (("mmmm", "dia", "dia"),),
    "DC": (("mmem", "dia", "full"), ("mmme", "dia", "full"),
           ("emmm", "full", "dia"), ("memm", "full", "dia")),
    "CC": (("emem", "full", "full"), ("emme", "full", "full"),
           ("meem", "full", "full"), ("meme", "full", "full")),
}

ROW_NAMES: Tuple[str, ...] = tuple(ROW_SPECS)

# index of a slot label in a provider's (n, 2, 2, 3, 3) block matrices
_BLOCK_INDEX = {"e": 0, "m": 1}


def _block_entries() -> dict:
    """The entries of B[C, R], in matrix order, among the 72 of the two
    flattened (2, 2, 3, 3) block matrices [B(r_a, r_b) | B(r_b, r_a)], for
    either of them (its first entry, 0 or 36) and every pair of block
    index ranges C and R: a slice (so a view) for a single block, else an
    index array."""
    entries = np.arange(72).reshape(2, 2, 2, 3, 3)
    table = {}
    for first in (0, 36):
        for cols in ((0,), (1,), (0, 1)):
            for rows in ((0,), (1,), (0, 1)):
                take = entries[first // 36, cols[0]:cols[-1] + 1,
                               rows[0]:rows[-1] + 1]
                take = take.transpose(0, 2, 1, 3).ravel()
                table[(first, cols, rows)] = (
                    slice(take[0], take[0] + 9) if take.size == 9 else take)
    return table


_BLOCK_ENTRIES = _block_entries()


@dataclass(frozen=True)
class PotentialCurve:
    """Potential values over a grid of separations for one component."""

    component: str
    r_values: np.ndarray
    u_values: np.ndarray
    error_estimates: np.ndarray
    converged: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.r_values, dtype=float)
        u = np.array(self.u_values, dtype=float)
        e = np.array(self.error_estimates, dtype=float)
        c = np.array(self.converged, dtype=bool)
        if not (r.shape == u.shape == e.shape == c.shape and r.ndim == 1):
            raise ValueError("curve arrays must be 1-d and congruent")
        for name, arr in (("r_values", r), ("u_values", u),
                          ("error_estimates", e), ("converged", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.r_values.shape[0]


_SPEC = QuadSpec()


def _default_spec() -> QuadSpec:
    """``QuadSpec()``, or its ``rel_tol`` from VDW_QUAD_RTOL when set."""
    raw = os.environ.get("VDW_QUAD_RTOL", "").strip()
    if not raw:
        return _SPEC
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"VDW_QUAD_RTOL is not a number: {raw!r}")
    if not (0.0 < val < 1.0):
        raise ValueError("VDW_QUAD_RTOL must be in (0, 1)")
    return QuadSpec(rel_tol=val)


def _overflow(R: float) -> NonFiniteIntegrandError:
    return NonFiniteIntegrandError(
        f"the potential overflows float range at R = {R!r}")


def _halfline(mol_a: Molecule, mol_b: Molecule, rs: Sequence[float],
              integrand: Callable, spec: Optional[QuadSpec]) -> QuadResult:
    """``integrand`` over [0, inf) on the panel layout of the pair's scales,
    the transition frequencies (resonances) and 1/R (the propagator cutoff)
    at each separation R of ``rs``; ``spec`` defaults to
    ``_default_spec()``.  Every half-line route of this module integrates
    through here.

    Where the potential leaves float range the pass raises
    ``NonFiniteIntegrandError`` naming the separation, and no floating
    point warning escapes: an integrand column that overflows names its
    own (``_check_columns``); an integrand whose integral overflows, or a
    frequency layout that leaves float range (40/R, or its tail nodes,
    beyond the largest float), the smallest of ``rs``, where the
    potential is largest."""
    if spec is None:
        spec = _default_spec()
    scales = [*mol_a.omegas.tolist(), *mol_b.omegas.tolist(),
              *(1.0 / R for R in rs)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            res = integrate_halfline(integrand, spec, breakpoints=scales)
        except NonFiniteIntegrandError as exc:
            if exc.mapped:
                raise _overflow(min(rs)) from exc
            raise
    if not all(map(math.isfinite, np.ravel(res.value).tolist())):
        finite = np.isfinite(np.reshape(res.value, (len(rs), -1)))
        raise _overflow(rs[int(np.argmin(finite.all(axis=1)))])
    return res


def _layout_groups(mol_a: Molecule, mol_b: Molecule,
                   rs: Sequence[float]) -> list:
    """Indices of ``rs`` grouped by where 1/R lies relative to the pair's
    transition band [omega_min, omega_max].

    The key is 0 inside the band and otherwise +-ceil(log10 of the
    distance outside it), so a group's scales span at most one decade more
    than any of its members' and one shared panel layout serves them all.
    A pair without transitions counts as the band [1, 1].
    """
    if len(rs) == 1:
        return [[0]]
    omegas = [*mol_a.omegas, *mol_b.omegas] or [1.0]
    log_lo = math.log10(min(omegas))
    log_hi = math.log10(max(omegas))
    groups = {}
    for i, R in enumerate(rs):
        log_k = -math.log10(R)
        if log_k > log_hi:
            key = math.ceil(log_k - log_hi)
        elif log_k < log_lo:
            key = -math.ceil(log_lo - log_k)
        else:
            key = 0
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _validate_tuple(tup: str) -> str:
    if isinstance(tup, (tuple, list)):
        tup = "".join(tup)
    if not (isinstance(tup, str) and len(tup) == 4
            and set(tup) <= {"e", "m"}):
        raise ValueError(
            f"tuple must be four 'e'/'m' labels, got {tup!r}")
    return tup


def _bind(provider, r_a: np.ndarray, r_b: np.ndarray) -> tuple:
    """The provider's propagator for the P position pairs stacked in ``r_a``
    and ``r_b`` (P, 3), checked: its (P, K, 72) table and a callable of
    the frequency array ``xis`` (n,) returning the (P, n, K) coefficients.

    The provider contract (``chivdw.green``): ``provider.bind(r_a, r_b)``
    returns the pair ``(table, coefficients)``, and the block matrices
    [B(r_a, r_b) | B(r_b, r_a)] at ``xis`` are
    ``coefficients(xis) @ table``; the integrators bind once per pass, with
    every separation of the pass, and call ``coefficients`` once per node
    batch.  A provider without ``bind``, or whose ``bind`` returns anything
    but that pair, raises ``TypeError``; any other shape raises
    ``ValueError``; an error raised by the provider propagates.
    """
    name = type(provider).__name__
    bind = getattr(provider, "bind", None)
    if bind is None:
        raise TypeError(f"provider {name!r} has no bind(r_a, r_b) method")
    pair = bind(r_a, r_b)
    table, bound = (pair if isinstance(pair, (tuple, list)) and len(pair) == 2
                    else (None, None))
    if not callable(bound):
        raise TypeError(
            f"provider {name!r}: bind(r_a, r_b) must return a (table, "
            f"coefficients) pair, a (P, K, 72) table and a callable of xis "
            f"giving (P, n, K) coefficients")
    table = np.asarray(table, dtype=float)
    count = r_a.shape[0]
    if table.ndim != 3 or table.shape[0] != count or table.shape[2] != 72:
        raise ValueError(
            f"provider table has shape {table.shape} for {count} "
            f"separations; expected ({count}, K, 72)")

    def coefficients(xis: np.ndarray) -> np.ndarray:
        expected = (count, xis.shape[0], table.shape[1])
        out = np.asarray(bound(xis), dtype=float)
        if out.shape != expected:
            raise ValueError(
                f"provider coefficients have shape {out.shape} for "
                f"{count} separations and {expected[1]} frequencies; "
                f"expected {expected}")
        return out

    return table, coefficients


def _products(terms: Sequence[Tuple[str, str, str]],
              weights: np.ndarray) -> Tuple[list, np.ndarray]:
    """Factorise the weighted terms into unified-form products.

    Within one column, the terms with the same beta modes and the same
    summed weight are a set of (A-block, B-block) pairs; the A-blocks
    that pair with the same set of B-blocks merge into one product
    (modes, S_a, S_b) whose trace tr[A_a|S_a B A_b|S_b B'] sums exactly
    those terms (A|S is A with every block outside S zero).  Returns the
    distinct products and the (J, Q) matrix of their weights, -1/(2 pi)
    folded in.  A named component is one product, a row at most two and
    ``u_terms``' identity weights one per term.
    """
    index = {}
    columns = []
    for row in weights.tolist():
        coefficients = {}
        for term, w in zip(terms, row):
            if w:
                coefficients[term] = coefficients.get(term, 0.0) + w
        groups = {}
        for (tup, mode_a, mode_b), w in coefficients.items():
            if w:
                partners = groups.setdefault((mode_a, mode_b, w), {})
                partners.setdefault(tup[:2], set()).add(tup[2:])
        column = {}
        for (mode_a, mode_b, w), partners in groups.items():
            merged = {}
            for block_a, blocks_b in partners.items():
                merged.setdefault(tuple(sorted(blocks_b)), []).append(block_a)
            for blocks_b, blocks_a in merged.items():
                key = (mode_a, tuple(sorted(blocks_a)), mode_b, blocks_b)
                column[index.setdefault(key, len(index))] = w
        columns.append(column)
    product_weights = np.zeros((len(weights), len(index)))
    for j, column in enumerate(columns):
        for q, w in column.items():
            product_weights[j, q] = -(0.5 / _PI) * w
    return list(index), product_weights


class _Side(NamedTuple):
    """One side's half products, independent of the molecule.

    ``index`` gathers every half's A|S[R, C] from the columns of a
    molecule's ``tables`` (``response.mode_tables``): the 36 columns of
    the half's beta mode, and the zero column for the entries outside S.
    ``specs`` holds per half its columns, (3 |R|, 3 |C|) and the entries
    of B[C, R_out] among the 72 of both block matrices."""

    index: np.ndarray
    specs: tuple


class _Plan(NamedTuple):
    """A request's unified-form products (``_products``): the (J, Q)
    product weights, each product's (left, right) half products and the
    two sides' halves."""

    weights: np.ndarray
    pairs: tuple
    side_a: _Side
    side_b: _Side


def _side_plan(halves: Sequence[tuple], block: int = 0) -> _Side:
    """The ``_Side`` of halves (mode, S, R_out), each A|S[R, C] @
    B[C, R_out] with R, C the rows and columns of the blocks S and R_out
    the other side's rows, and B the block matrix whose entries start at
    ``block`` among the 72 (0 for B(r_a, r_b), 36 for B(r_b, r_a))."""
    entries = np.arange(36).reshape(2, 3, 2, 3)
    index, specs, first = [], [], 0
    for mode, blocks, rows_out in halves:
        if mode not in MODE_COLUMNS:
            raise ValueError(f"unknown beta_mode {mode!r}")
        ij = [(_BLOCK_INDEX[row], _BLOCK_INDEX[col]) for row, col in blocks]
        rows = sorted({i for i, _ in ij})
        cols = sorted({j for _, j in ij})
        part = np.full((len(rows), 3, len(cols), 3), ZERO_COLUMN)
        for i, j in ij:
            part[i - rows[0], :, j - cols[0]] = (MODE_COLUMNS[mode]
                                                 + entries[i, :, j])
        index.append(part.ravel())
        specs.append((slice(first, first + part.size),
                      (3 * len(rows), 3 * len(cols)),
                      _BLOCK_ENTRIES[(block, tuple(cols), rows_out)]))
        first += part.size
    index = np.concatenate(index)
    index.setflags(write=False)
    return _Side(index, tuple(specs))


def _plan(terms: Sequence[Tuple[str, str, str]],
          weights: np.ndarray) -> _Plan:
    """The ``_Plan`` of the weighted terms; a half product is keyed by
    (mode, S, the other side's rows), so shared halves are formed once."""
    products, product_weights = _products(terms, weights)
    lefts, rights, pairs = {}, {}, []
    for mode_a, blocks_a, mode_b, blocks_b in products:
        rows_a = tuple(sorted({_BLOCK_INDEX[lam] for lam, _ in blocks_a}))
        rows_b = tuple(sorted({_BLOCK_INDEX[lam] for lam, _ in blocks_b}))
        pairs.append(
            (lefts.setdefault((mode_a, blocks_a, rows_b), len(lefts)),
             rights.setdefault((mode_b, blocks_b, rows_a), len(rights))))
    product_weights.setflags(write=False)
    return _Plan(product_weights, tuple(pairs), _side_plan(list(lefts)),
                 _side_plan(list(rights), 36))


def _sum_plan(terms: Sequence[Tuple[str, str, str]]) -> _Plan:
    """The plan of the sum of ``terms``: one column weighted by ones."""
    return _plan(terms, np.ones((1, len(terms))))


def _side_table(mol: Molecule, side: _Side,
                duality: Optional[float]) -> Tuple[np.ndarray, slice]:
    """The side's table, one column group A|S[R, C] per half gathered in
    one ``take`` from ``mol``'s ``tables`` (rotated by ``duality``, when
    given), trimmed to its non-zero rows; and those rows.  The trim keeps
    the leading and trailing zero rows out of the weights product, whose
    rounding depends on the rows it sums."""
    tables = mol.tables if duality is None else mode_tables(mol, duality)
    table = tables.take(side.index, axis=1)
    used = table.any(axis=1).nonzero()[0]
    kept = slice(used[0], used[-1] + 1) if used.size else slice(0, 0)
    return table[kept], kept


def _check_columns(columns: np.ndarray, seps: Sequence[Separation],
                   coefficients: np.ndarray, table: np.ndarray) -> None:
    """Raise ``_overflow`` at the first separation whose columns (n, P, J)
    are not finite, unless the provider's ``coefficients`` (P, n, K) and
    ``table`` (P, K, 72) there hold a NaN and no infinity: that is the
    provider's fault, and the quadrature names the abscissa."""
    for p, sep in enumerate(seps):
        if np.isfinite(columns[:, p]).all():
            continue
        own = (coefficients[p], table[p])
        if (any(np.isnan(a).any() for a in own)
                and not any(np.isinf(a).any() for a in own)):
            return
        raise _overflow(sep.R)


# A pass takes the table route (``_table_columns``) when its per-node
# bilinear form, K |rows_a| by K |rows_b| (K propagator coefficients, the
# side tables' rows after the trim), has at most this many entries, and
# the product route (``_product_columns``) otherwise.  625 is free space's
# TOTAL at T = 2 (K = 5, 2T + 1 = 5 rows a side).  Per pass (set-up and
# one 165-node call, free space, TOTAL, EC and the PD row, 1 and 8
# separations) forms of up to 625 entries took 0.57-0.97 of the product
# route's time, 1225 (T = 3) 0.27-0.99, and from 2025 (T = 4) on a pass
# of 8 separations took 1.2-3.0 times as long.
_TABLE_ROUTE_MAX = 625


def _trace_tables(plan: _Plan, table_a: np.ndarray, table_b: np.ndarray,
                  table: np.ndarray) -> np.ndarray:
    """The (P, J, K S_b, K S_a) tables of the plan's J columns at the P
    separations of the propagator ``table`` (P, K, 72), for the side
    tables ``table_a`` (S_a rows) and ``table_b`` (S_b rows).

    A side's A|S is sum_s w_s T_s over its rows s (``_side_table``) and
    the propagator B = sum_k c_k F_k over the table's rows k, so a half
    product A|S B is sum_(k,s) c_k w_s H_ks with H_ks = T_s|S F_k, one
    matrix product of the side table with the K factor tables per half.
    Product q's trace is then the bilinear form u_a G_q u_b of u = c (x) w,
    with G_q = H_a H_b^T, and column j's the form of G_j = sum_q W_jq G_q,
    held transposed.
    """
    count, K = table.shape[:2]
    halves = []
    for side_table, specs in ((table_a, plan.side_a.specs),
                              (table_b, plan.side_b.specs)):
        rows, side = side_table.shape[0], []
        for cols, (height, width), take in specs:
            factors = (table[..., take] if isinstance(take, slice)
                       else table.take(take, axis=2))
            factors = factors.reshape(count, K, width, -1)
            out = factors.shape[3]
            # (P, K, S height, out): the side table against each F_k
            h = side_table[:, cols].reshape(rows * height, width) @ factors
            side.append(h.reshape(count, K * rows, height, out))
        halves.append(side)
    # The quarter duality turn is exact on this route: it maps the side
    # tables onto each other exactly (``response._cos_sin``); the ee and
    # mm blocks share their factor tables, and the em and me blocks'
    # differ only in sign, with each F_k an S or a cross factor, never
    # both; so the swapped products meet the same non-zero terms, with
    # the zeros elsewhere, and every contraction below runs in the same
    # order on equal values.
    lefts, rights = ([h.reshape(count, h.shape[1], h.shape[2] * h.shape[3])
                      for h in side]
                     for side in (halves[0],
                                  [h.transpose(0, 1, 3, 2) for h in halves[1]]))
    products = np.empty((len(plan.pairs), count, rights[0].shape[1],
                         lefts[0].shape[1]))            # (Q, P, KS_b, KS_a)
    for q, (i, k) in enumerate(plan.pairs):
        np.matmul(rights[k], lefts[i].transpose(0, 2, 1), out=products[q])
    forms = plan.weights @ products.reshape(len(products), -1)
    forms = forms.reshape(len(forms), *products.shape[1:])  # (J, P, ...)
    return np.ascontiguousarray(forms.transpose(1, 0, 2, 3))


def _table_columns(mol_a: Molecule, mol_b: Molecule, plan: _Plan,
                   sides: tuple, table: np.ndarray) -> Callable:
    """The columns (J, P, n) at the nodes ``xis`` from the coefficients
    (P, n, K): per node the J bilinear forms in u = c (x) w of the tables
    that ``_trace_tables`` builds once from the two ``_side_table``s
    ``sides`` and the propagator ``table``, per column one GEMM and a dot
    over the rows of u_b for every separation at once, so a column's
    arithmetic does not depend on the others."""
    (table_a, kept_a), (table_b, kept_b) = sides
    forms = _trace_tables(plan, table_a, table_b, table)
    count, n_cols, size_b, size_a = forms.shape

    def columns(xis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        n = xis.shape[0]
        c = coeffs.transpose(0, 2, 1)[:, :, None]       # (P, K, 1, n)
        u_a, u_b = ((c * kernels.frequency_rows(mol.omegas, xis)[kept])
                    .reshape(count, size, n)
                    for mol, kept, size in ((mol_a, kept_a, size_a),
                                            (mol_b, kept_b, size_b)))
        out = np.empty((n_cols, count, n))
        for j in range(n_cols):
            np.einsum('psn,psn->pn', forms[:, j] @ u_a, u_b, out=out[j])
        return out

    return columns


def _product_columns(mol_a: Molecule, mol_b: Molecule, plan: _Plan,
                     sides: tuple, table: np.ndarray) -> Callable:
    """The columns (J, P, n) at the nodes ``xis`` from the coefficients
    (P, n, K): per node batch each molecule's A|S are one product with its
    side table (``response_from_table``, ``sides`` the two
    ``_side_table``s), the blocks one product of the coefficients with the
    propagator ``table``, each half product one batched matrix product and
    each trace one contraction."""
    (table_a, kept_a), (table_b, kept_b) = sides
    lefts, rights = plan.side_a.specs, plan.side_b.specs
    product_weights, pairs_q = plan.weights, plan.pairs
    count, n_prod = table.shape[0], len(pairs_q)

    def columns(xis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        n = xis.shape[0]
        resp_a = response_from_table(mol_a, table_a, kept_a, xis)
        resp_b = response_from_table(mol_b, table_b, kept_b, xis)
        blocks = coeffs @ table
        left, right = ([resp[:, cols].reshape(n, *shape)
                        @ blocks[..., take].reshape(count, n, shape[1], -1)
                        for cols, shape, take in specs]
                       for resp, specs in ((resp_a, lefts), (resp_b, rights)))
        traces = np.empty((n_prod, count, n))
        for q, (i, k) in enumerate(pairs_q):
            np.einsum('pnij,pnji->pn', left[i], right[k], out=traces[q])
        return (product_weights @ traces.reshape(n_prod, -1)).reshape(
            -1, count, n)

    return columns


def _plan_integrand(mol_a: Molecule, mol_b: Molecule,
                    seps: Sequence[Separation], plan: _Plan, provider,
                    duality: Optional[float]) -> Callable:
    """Integrand returning the J columns of ``plan`` at every separation in
    ``seps`` on shared nodes, (n, P J) for P separations,
    separation-major.

    Product q is tr[A_a|S_a B(r_a, r_b) A_b|S_b B(r_b, r_a)]; each side's
    halves are gathered from the molecule's tables once (``_side_table``)
    and the provider is bound once to the positions (``_bind``).  A pass
    whose bilinear form is small (``_TABLE_ROUTE_MAX``) folds the side
    tables and the propagator's table into per-column tables once
    (``_trace_tables``), and per node batch reads the columns from the
    weights and coefficients (``_table_columns``); a larger one forms the
    responses, blocks and half products per node batch
    (``_product_columns``).  Columns that are not finite raise
    ``_check_columns``' overflow.
    """
    sides = (_side_table(mol_a, plan.side_a, duality),
             _side_table(mol_b, plan.side_b, duality))
    positions = np.array([(s.r_a, s.r_b) for s in seps])
    table, coefficients = _bind(provider, positions[:, 0], positions[:, 1])
    count, K = table.shape[:2]
    rows_a, rows_b = (side[0].shape[0] for side in sides)
    route = (_table_columns if K * rows_a * K * rows_b <= _TABLE_ROUTE_MAX
             else _product_columns)
    columns = route(mol_a, mol_b, plan, sides, table)

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        coeffs = coefficients(xis)
        # formed as (J, P, n) so each column is contiguous over the nodes:
        # the rounding of the panel sums depends on that layout
        out = columns(xis, coeffs).T.reshape(xis.shape[0], -1)
        if not np.isfinite(out).all():
            _check_columns(out.reshape(xis.shape[0], count, -1), seps,
                           coeffs, table)
        return out

    return integrand


def _checked_terms(terms: Iterable) -> list:
    terms = [(_validate_tuple(tup), mode_a, mode_b)
             for tup, mode_a, mode_b in terms]
    if not terms:
        raise ValueError("terms must not be empty")
    return terms


def _terms_quadrature(mol_a: Molecule, mol_b: Molecule,
                      seps: Sequence[Separation], plan: _Plan, provider,
                      spec: Optional[QuadSpec],
                      duality: Optional[float]) -> QuadResult:
    """One pass over ``plan`` at every separation of ``seps``, on the panel
    layout of their joint scales (see ``_plan_integrand`` for the column
    order)."""
    if provider is None:
        provider = free_space_provider()
    integrand = _plan_integrand(mol_a, mol_b, seps, plan, provider, duality)
    return _halfline(mol_a, mol_b, [s.R for s in seps], integrand, spec)


def u_terms(mol_a: Molecule, mol_b: Molecule, sep: Separation,
            terms: Iterable, provider=None, spec: Optional[QuadSpec] = None,
            duality: Optional[float] = None) -> QuadResult:
    """Several response terms in one shared-node quadrature.

    ``terms`` lists ``(tuple, beta_mode_a, beta_mode_b)`` triples, as in
    ``ROW_SPECS``.  All terms are integrated in one adaptive pass; the
    result's ``value`` and ``error_estimate`` are arrays with one entry per
    term, each converged to the requested relative tolerance on its own
    (the only request that converges its terms separately), ``evals``
    counts the shared nodes and ``converged`` holds only if every term
    converged.  A repeated term is integrated once and its column
    repeated: the quadrature's rounding depends on how many columns share
    a pass, so a repeated term is then bit for bit what it is alone.
    """
    terms = _checked_terms(terms)
    distinct = list(dict.fromkeys(terms))
    res = _terms_quadrature(mol_a, mol_b, [sep],
                            _plan(distinct, np.eye(len(distinct))), provider,
                            spec, duality)
    if len(distinct) == len(terms):
        return res
    index = [distinct.index(term) for term in terms]
    return QuadResult(res.value[index], res.error_estimate[index], res.evals,
                      res.converged)


def _summed(mol_a: Molecule, mol_b: Molecule, seps: Sequence[Separation],
            plan: _Plan, provider=None, spec: Optional[QuadSpec] = None,
            duality: Optional[float] = None) -> list:
    """The one column of a sum's ``plan`` (``_sum_plan``, or a constant of
    ``_LABEL_PLANS`` and ``_ROW_PLANS``) at each separation; one
    ``QuadResult`` per separation.

    The separations are integrated together, one pass per group of
    ``_layout_groups``, and each pass integrates only the sums: one column
    per separation, held to max(rel_tol |sum|, abs_tol), so a sum that
    cancels is reported unconverged however well its terms are known.
    ``evals`` counts the shared nodes of the separation's group's pass.
    """
    if spec is None:
        spec = _default_spec()
    results = [None] * len(seps)
    for group in _layout_groups(mol_a, mol_b, [s.R for s in seps]):
        res = _terms_quadrature(mol_a, mol_b, [seps[i] for i in group],
                                plan, provider, spec, duality)
        for i, value, err in zip(group, res.value.tolist(),
                                 res.error_estimate.tolist()):
            converged = err <= max(spec.rel_tol * abs(value), spec.abs_tol)
            results[i] = QuadResult(value, err, res.evals, converged)
    return results


def u_unified(mol_a: Molecule, mol_b: Molecule, sep: Separation, tup,
              provider=None, spec: Optional[QuadSpec] = None,
              beta_mode_a: str = "full", beta_mode_b: str = "full",
              duality: Optional[float] = None) -> QuadResult:
    """One response tuple's contribution to the pair potential.

    ``tup`` is a four-label string such as ``'eeem'``.  ``provider``
    defaults to free space; ``spec`` to a relative tolerance of 1e-10
    (override via the VDW_QUAD_RTOL environment variable).  The frequency
    panels are laid out in ln(xi) across the pair's scales, the
    transition frequencies and 1/R (see ``integrate_halfline``).
    """
    plan = _sum_plan(_checked_terms([(tup, beta_mode_a, beta_mode_b)]))
    return _summed(mol_a, mol_b, [sep], plan, provider, spec, duality)[0]


def _checked_label(label, duality: Optional[float]) -> ComponentLabel:
    label = ComponentLabel(label)
    if duality is not None and label in _LABEL_BETA_MODE_A:
        raise ValueError(
            "duality rotation is undefined for para/dia-restricted "
            "components")
    return label


def _label_terms(label, duality: Optional[float]) -> list:
    label = _checked_label(label, duality)
    beta_mode_a = _LABEL_BETA_MODE_A.get(label, "full")
    return [(tup, beta_mode_a, "full") for tup in LABEL_TUPLES[label]]


# The plans of the named components and the rows depend only on their
# terms, so they are built here, once; a request pays only for its
# molecules' response tables (``_side_table``).
_LABEL_PLANS = {label: _sum_plan(_label_terms(label, None))
                for label in ComponentLabel}
_ROW_PLANS = {row: _sum_plan(terms) for row, terms in ROW_SPECS.items()}


def u_named(mol_a: Molecule, mol_b: Molecule, sep: Separation, label,
            provider=None, spec: Optional[QuadSpec] = None,
            duality: Optional[float] = None) -> QuadResult:
    """A named component of the pair potential (sum of its tuples).

    The tuples share one quadrature that integrates only their sum; the
    result is the sum's (value, error estimate, ``converged``) and
    ``evals`` counts the shared nodes.
    """
    plan = _LABEL_PLANS[_checked_label(label, duality)]
    return _summed(mol_a, mol_b, [sep], plan, provider, spec, duality)[0]


def u_row(mol_a: Molecule, mol_b: Molecule, sep: Separation, row: str,
          provider=None, spec: Optional[QuadSpec] = None) -> QuadResult:
    """One two-sided tabulation row (see ROW_SPECS).

    The ten rows partition the sixteen tuples with the magnetic responses
    split into para/dia parts, so summing them reproduces TOTAL.  The
    row's terms share one quadrature of their sum, as in ``u_named``.
    """
    row = str(row).upper()
    if row not in ROW_SPECS:
        raise ValueError(f"unknown row {row!r}; expected one of {ROW_NAMES}")
    return _summed(mol_a, mol_b, [sep], _ROW_PLANS[row], provider, spec)[0]


# ---------------------------------------------------------------------------
# Direct single-trace forms of the chiral components, in free space.  The
# frequency powers of the cross responses and cross blocks cancel
# analytically, leaving division-free integrands finite at xi = 0; they
# equal the components through free space's reciprocity and B_me = -B_em
# (module docstring).
# ---------------------------------------------------------------------------

# Each form is sign/pi times a sum of traces tr[A_a B(r_a, r_b) A_b
# B(r_b, r_a)], one (A_a, B, A_b, B') tuple of block labels per trace: the
# response blocks ee = alpha, mm = beta, em = chi_em, me = chi_me.
_DIRECT_TRACES = {
    "EC": (1.0, (("ee", "ee", "em", "em"),)),
    "MC": (1.0, (("mm", "mm", "me", "me"),)),
    "CC": (-1.0, (("em", "mm", "me", "ee"), ("em", "em", "em", "em"))),
}

# position of a response block in ``response_arrays``' output
_RESPONSE_INDEX = {"ee": 0, "mm": 1, "em": 2, "me": 3}


def _direct(form: str, mol_a: Molecule, mol_b: Molecule, sep: Separation,
            spec: Optional[QuadSpec], beta_mode_a: str = "full") -> QuadResult:
    """The direct form ``form`` of ``_DIRECT_TRACES`` in free space, with
    molecule A's beta restricted by ``beta_mode_a``."""
    sign, traces = _DIRECT_TRACES[form]
    table, coefficients = _bind(free_space_provider(), sep.r_a[None],
                                sep.r_b[None])

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        resp_a = response_arrays(mol_a, xis, beta_mode_a)
        resp_b = response_arrays(mol_b, xis)
        coeffs = coefficients(xis)
        blocks = (coeffs @ table)[0]
        ab, ba = (b.reshape(-1, 2, 2, 3, 3)
                  for b in (blocks[:, :36], blocks[:, 36:]))
        total = (sign / _PI) * sum(kernels.trace4(
            resp_a[_RESPONSE_INDEX[a]],
            ab[:, _BLOCK_INDEX[b[0]], _BLOCK_INDEX[b[1]]],
            resp_b[_RESPONSE_INDEX[c]],
            ba[:, _BLOCK_INDEX[d[0]], _BLOCK_INDEX[d[1]]])
            for a, b, c, d in traces)
        if not np.isfinite(total).all():
            _check_columns(total.reshape(-1, 1, 1), [sep], coeffs, table)
        return total

    return _halfline(mol_a, mol_b, [sep.R], integrand, spec)


def u_ec_direct(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                spec: Optional[QuadSpec] = None) -> QuadResult:
    """Electric-chiral component in free space as a single combined
    trace."""
    return _direct("EC", mol_a, mol_b, sep, spec)


def u_mc_direct(mol_a, mol_b, sep, spec=None) -> QuadResult:
    """Magnetic-chiral component in free space as a single combined
    trace."""
    return _direct("MC", mol_a, mol_b, sep, spec)


def u_pc_direct(mol_a, mol_b, sep, spec=None) -> QuadResult:
    """Paramagnetic-chiral component in free space as a single combined
    trace."""
    return _direct("MC", mol_a, mol_b, sep, spec, "para")


def u_dc_direct(mol_a, mol_b, sep, spec=None) -> QuadResult:
    """Diamagnetic-chiral component in free space as a single combined
    trace."""
    return _direct("MC", mol_a, mol_b, sep, spec, "dia")


def u_cc_direct(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                spec: Optional[QuadSpec] = None) -> QuadResult:
    """Chiral-chiral component in free space as two combined traces."""
    return _direct("CC", mol_a, mol_b, sep, spec)


def _isotropic_rotatory(mol: Molecule, ks: np.ndarray) -> np.ndarray:
    """Isotropically averaged cross-response scalar chi(i k).

    The average of chi_em over orientations is tr(chi_em)/3 times the
    identity, so chi(ik) = (2k/3) sum_t (d_t . m~_t) / (omega_t^2 + k^2).
    """
    chi_em = response_arrays(mol, ks)[2]
    return np.trace(chi_em, axis1=1, axis2=2) / 3.0


def u_cc_isotropic(mol_a: Molecule, mol_b: Molecule, R: float,
                   spec: Optional[QuadSpec] = None) -> QuadResult:
    """Chiral-chiral potential for orientation-averaged molecules.

    Uses the reduced scalar kernel
    U = (1 / 8 pi^3 R^6) Int dk e^{-2 k R} chi_a chi_b (3 + 6 k R + 4 k^2 R^2)
    with the isotropic rotatory scalars chi(ik); depends only on the
    distance R.  e^{-kR}/(4 pi R^3) is the free-space ``free_prefactor``
    p, so the kernel is (2/pi) p^2 chi_a chi_b (3 + 6 k R + 4 k^2 R^2): 0
    where p underflows, a named overflow where the potential leaves float
    range.
    """
    R = float(R)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError("R must be positive and finite")
    rvec = np.array([0.0, 0.0, R])

    def integrand(ks):
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        _, kr, pref = kernels.free_prefactor(rvec, ks)
        out = ((2.0 / _PI) * (pref * _isotropic_rotatory(mol_a, ks))
               * (pref * _isotropic_rotatory(mol_b, ks))
               * (3.0 + 6.0 * kr + 4.0 * kr * kr))
        if not np.isfinite(out).all():
            raise _overflow(R)
        return out

    return _halfline(mol_a, mol_b, [R], integrand, spec)


# ---------------------------------------------------------------------------
# Curves over separation grids.
# ---------------------------------------------------------------------------

def resolve_component(name) -> Tuple[str, str]:
    """Classify a component request.

    Returns ``('label', value)`` for named components, ``('row', value)``
    for two-sided tabulation rows (EP, ED, PP, PD, DD), or
    ``('tuple', value)`` for a raw four-label tuple such as 'eeme'.  Names
    shared by both tables (EE, EC, PC, DC, CC) resolve to the named
    component.
    """
    if isinstance(name, ComponentLabel):
        return "label", name.value
    text = str(name)
    if len(text) == 4 and set(text) <= {"e", "m"}:
        return "tuple", text
    upper = text.upper()
    try:
        return "label", ComponentLabel(upper).value
    except ValueError:
        pass
    if upper in ROW_SPECS:
        return "row", upper
    raise ValueError(
        f"unknown component {name!r}: expected a named component "
        f"({', '.join(l.value for l in ComponentLabel)}), a tabulation row "
        f"({', '.join(ROW_NAMES)}), or a four-label tuple like 'eeme'")


def _direction(orientation) -> np.ndarray:
    """The unit vector along ``orientation``, a finite non-zero 3-vector
    of any magnitude (``kernels.vector_norm`` neither over- nor
    underflows)."""
    direction = np.asarray(orientation, dtype=float).reshape(-1)
    if direction.shape != (3,) or not np.all(np.isfinite(direction)):
        raise ValueError("orientation must be a finite 3-vector")
    norm = kernels.vector_norm(direction)
    if norm <= 0.0:
        raise ValueError("orientation must be non-zero")
    return direction / norm


def compute_curve(mol_a: Molecule, mol_b: Molecule, orientation,
                  r_values, component, provider=None,
                  spec: Optional[QuadSpec] = None) -> PotentialCurve:
    """Potential over a grid of separations along a fixed direction.

    Molecule B sits at the origin and molecule A at R times the normalised
    ``orientation`` vector for each R in ``r_values``.  ``component``
    accepts a named component, a tabulation row, or a raw tuple.  The
    separations are integrated together, one shared-node pass per group
    of separations whose 1/R lies in the same decade relative to the
    pair's transition band; every point is converged on its own and its
    value, error estimate and ``converged`` are those of a single-value
    call (``u_named``, ``u_row`` or ``u_unified``) at that separation.
    """
    direction = _direction(orientation)
    r_values = np.asarray(r_values, dtype=float).reshape(-1)
    if r_values.size == 0:
        raise ValueError("r_values must be non-empty")
    if not np.all(np.isfinite(r_values)) or np.any(r_values <= 0.0):
        raise ValueError("r_values must be positive and finite")

    kind, key = resolve_component(component)
    if kind == "label":
        plan = _LABEL_PLANS[ComponentLabel(key)]
    elif kind == "row":
        plan = _ROW_PLANS[key]
    else:
        plan = _sum_plan([(key, "full", "full")])
    origin = np.zeros(3)
    seps = [Separation(R * direction, origin) for R in r_values]
    results = _summed(mol_a, mol_b, seps, plan, provider, spec)
    return PotentialCurve(
        component=key, r_values=r_values,
        u_values=np.array([res.value for res in results]),
        error_estimates=np.array([res.error_estimate for res in results]),
        converged=np.array([res.converged for res in results]))
