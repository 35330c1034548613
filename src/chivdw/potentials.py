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
product's pair of half products and, per side, the beta modes, one
gather index into a molecule's flattened ``response_table`` and the
shape and propagator entries of each half.  The plans of the twelve
named components and the ten rows are module constants, built at import
(``_LABEL_PLANS``, ``_ROW_PLANS``); ``u_terms``, ``u_unified`` and a raw
tuple of ``compute_curve`` plan their checked terms when called.

Per request, what remains is the molecules' part: per side one
``response_table`` per beta mode, with any duality rotation, one gather
of the halves' columns from it and the trim to its non-zero rows.  Per
transition, A is linear in 2 omega/(omega^2 + xi^2), 2 xi/(omega^2 + xi^2)
and 1, so per node batch each molecule's responses are one product with
those weights.  The provider is bound once per pass to the stacked
positions of every separation of the pass (``bind``, see
``chivdw.green``), and per node batch the bound propagator gives both
block matrices at all of them in one call.  Each half product is one
batched matrix product (6x6 for TOTAL, 3x3 for one tuple), each trace one
contraction, and the columns one product with the weights.
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
single-trace forms (``u_ec_direct`` and its kin): one integrand that sums
each form's 3x3 traces, listed in block labels in ``_DIRECT_TRACES``, with
``kernels.trace4`` over the ``response_arrays`` tensors and the provider's
blocks.  Their derivation folds the tuples of a component together with
reciprocity (B(r_b, r_a) holds the blocks of B(r_a, r_b) transposed, the
cross blocks with a sign) and B_me = -B_em, as in free space; for such a
provider they are an independent cross-check of the product route, and for
a provider without those symmetries they are not the components.
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
from chivdw.green import FreeSpaceProvider, Separation, free_space_provider
from chivdw.quad import (NonFiniteIntegrandError, QuadResult, QuadSpec,
                         integrate_halfline)
from chivdw.response import (Molecule, response_arrays, response_from_table,
                             response_table)

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
    """The entries of B[C, R], in matrix order, among the 36 of a flattened
    (2, 2, 3, 3) block matrix, for every pair of block index ranges C and
    R: a slice (so a view) for a single block, else an index array."""
    entries = np.arange(36).reshape(2, 2, 3, 3)
    table = {}
    for cols in ((0,), (1,), (0, 1)):
        for rows in ((0,), (1,), (0, 1)):
            take = entries[cols[0]:cols[-1] + 1, rows[0]:rows[-1] + 1]
            take = take.transpose(0, 2, 1, 3).ravel()
            table[(cols, rows)] = (slice(take[0], take[0] + 9)
                                   if take.size == 9 else take)
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


def _default_spec() -> QuadSpec:
    """``QuadSpec()``, or its ``rel_tol`` from VDW_QUAD_RTOL when set."""
    raw = os.environ.get("VDW_QUAD_RTOL", "").strip()
    if not raw:
        return QuadSpec()
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
    if not np.isfinite(res.value).all():
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


def _bind(provider, r_a: np.ndarray, r_b: np.ndarray) -> Callable:
    """The provider's propagator for the P position pairs stacked in ``r_a``
    and ``r_b`` (P, 3): a callable of the frequency array ``xis`` (n,)
    returning the block matrices [B(r_a, r_b), B(r_b, r_a)], checked.

    The provider contract: ``provider.bind(r_a, r_b)`` returns a callable
    of ``xis`` that gives the two (P, n, 2, 2, 3, 3) stacks, indexed
    [p, node, lam, lamp] with 0 = 'e' and 1 = 'm'; the integrators bind
    once per pass, with every separation of the pass, and call the bound
    propagator once per node batch.  A provider without ``bind`` raises
    ``TypeError``; any other shape raises ``ValueError``; an error raised
    by the provider propagates.
    """
    bind = getattr(provider, "bind", None)
    if bind is None:
        raise TypeError(
            f"provider {type(provider).__name__!r} has no "
            f"bind(r_a, r_b) method")
    bound = bind(r_a, r_b)
    count = r_a.shape[0]

    def blocks(xis: np.ndarray) -> list:
        expected = (count, xis.shape[0], 2, 2, 3, 3)
        pair = [np.asarray(b, dtype=float) for b in bound(xis)]
        shapes = [b.shape for b in pair]
        if shapes != [expected] * 2:
            raise ValueError(
                f"provider blocks returned shapes {shapes} for "
                f"{expected[0]} separations and {expected[1]} frequencies; "
                f"expected two of {expected}")
        return pair

    return blocks


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

    ``modes`` are its beta modes.  ``index`` gathers every half's
    A|S[R, C] from the side's flattened response tables: 36 columns per
    mode, followed, when ``zeros`` (some S leaves out a block of its rows
    and columns), by one zero column for the entries outside S.
    ``specs`` holds per half its columns, (3 |R|, 3 |C|) and the entries
    of B[C, R_out]."""

    modes: tuple
    zeros: bool
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


def _side_plan(halves: Sequence[tuple]) -> _Side:
    """The ``_Side`` of halves (mode, S, R_out), each A|S[R, C] @
    B[C, R_out] with R, C the rows and columns of the blocks S and R_out
    the other side's rows."""
    modes = tuple(dict.fromkeys(mode for mode, _, _ in halves))
    entries = np.arange(36).reshape(2, 3, 2, 3)
    index, specs, first = [], [], 0
    for mode, blocks, rows_out in halves:
        ij = [(_BLOCK_INDEX[row], _BLOCK_INDEX[col]) for row, col in blocks]
        rows = sorted({i for i, _ in ij})
        cols = sorted({j for _, j in ij})
        part = np.full((len(rows), 3, len(cols), 3), 36 * len(modes))
        for i, j in ij:
            part[i - rows[0], :, j - cols[0]] = (36 * modes.index(mode)
                                                 + entries[i, :, j])
        index.append(part.ravel())
        specs.append((slice(first, first + part.size),
                      (3 * len(rows), 3 * len(cols)),
                      _BLOCK_ENTRIES[(tuple(cols), rows_out)]))
        first += part.size
    index = np.concatenate(index)
    index.setflags(write=False)
    return _Side(modes, bool(index.max() == 36 * len(modes)), index,
                 tuple(specs))


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
                 _side_plan(list(rights)))


def _sum_plan(terms: Sequence[Tuple[str, str, str]]) -> _Plan:
    """The plan of the sum of ``terms``: one column weighted by ones."""
    return _plan(terms, np.ones((1, len(terms))))


def _side_table(mol: Molecule, side: _Side,
                duality: Optional[float]) -> Tuple[np.ndarray, slice]:
    """The side's table, one column group A|S[R, C] per half gathered from
    ``mol``'s ``response_table`` of each mode, trimmed to its non-zero
    rows; and those rows."""
    tables = [response_table(mol, mode, duality).reshape(-1, 36)
              for mode in side.modes]
    if side.zeros:
        tables.append(np.zeros((tables[0].shape[0], 1)))
    table = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=1)
    table = table.take(side.index, axis=1)
    used = table.any(axis=1).nonzero()[0]
    kept = slice(used[0], used[-1] + 1) if used.size else slice(0, 0)
    return table[kept], kept


def _check_columns(columns: np.ndarray, seps: Sequence[Separation],
                   blocks: Sequence[np.ndarray]) -> None:
    """Raise ``_overflow`` at the first separation whose columns (n, P, J)
    are not finite, unless the provider's ``blocks`` (P, n, 2, 2, 3, 3)
    there hold a NaN and no infinity: that is the provider's fault, and
    the quadrature names the abscissa."""
    for p, sep in enumerate(seps):
        if np.isfinite(columns[:, p]).all():
            continue
        own = [b[p] for b in blocks]
        if (any(np.isnan(b).any() for b in own)
                and not any(np.isinf(b).any() for b in own)):
            return
        raise _overflow(sep.R)


def _plan_integrand(mol_a: Molecule, mol_b: Molecule,
                    seps: Sequence[Separation], plan: _Plan, provider,
                    duality: Optional[float]) -> Callable:
    """Integrand returning the J columns of ``plan`` at every separation in
    ``seps`` on shared nodes, (n, P J) for P separations,
    separation-major.

    Product q is tr[A_a|S_a B(r_a, r_b) A_b|S_b B(r_b, r_a)]; each side's
    halves are gathered from the response tables once (``_side_table``)
    and the provider is bound once to the positions (``_bind``).  Per node
    batch each molecule's A|S are one product (``response_from_table``)
    and the blocks one call of the bound propagator.  Columns that are not
    finite raise ``_check_columns``' overflow.
    """
    table_a, kept_a = _side_table(mol_a, plan.side_a, duality)
    table_b, kept_b = _side_table(mol_b, plan.side_b, duality)
    lefts, rights = plan.side_a.specs, plan.side_b.specs
    product_weights, pairs_q = plan.weights, plan.pairs
    n_sep, n_prod = len(seps), len(pairs_q)
    positions = np.array([(s.r_a, s.r_b) for s in seps])
    propagator = _bind(provider, positions[:, 0], positions[:, 1])

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        n = xis.shape[0]
        resp_a = response_from_table(mol_a, table_a, kept_a, xis)
        resp_b = response_from_table(mol_b, table_b, kept_b, xis)
        blocks = propagator(xis)
        ab, ba = (b.reshape(n_sep, n, 36) for b in blocks)
        left, right = ([resp[:, cols].reshape(n, *shape)
                        @ b[..., take].reshape(n_sep, n, shape[1], -1)
                        for cols, shape, take in specs]
                       for resp, b, specs in ((resp_a, ab, lefts),
                                              (resp_b, ba, rights)))
        traces = np.empty((n_prod, n_sep, n))
        for q, (i, k) in enumerate(pairs_q):
            np.einsum('pnij,pnji->pn', left[i], right[k], out=traces[q])
        # formed as (J, P n) so each column is contiguous over the nodes:
        # the rounding of the panel sums depends on that layout
        out = product_weights @ traces.reshape(n_prod, -1)
        out = out.reshape(-1, n_sep, n).T.reshape(n, -1)
        if not np.isfinite(out).all():
            _check_columns(out.reshape(n, n_sep, -1), seps, blocks)
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
    converged.
    """
    terms = _checked_terms(terms)
    return _terms_quadrature(mol_a, mol_b, [sep],
                             _plan(terms, np.eye(len(terms))), provider,
                             spec, duality)


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
# Direct single-trace forms of the chiral components.  The frequency powers
# of the cross responses and cross blocks cancel analytically, leaving
# division-free integrands finite at xi = 0; they equal the components for
# providers with free space's reciprocity and B_me = -B_em (module
# docstring).
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
            provider, spec: Optional[QuadSpec],
            beta_mode_a: str = "full") -> QuadResult:
    """The direct form ``form`` of ``_DIRECT_TRACES``, with molecule A's
    beta restricted by ``beta_mode_a``."""
    if provider is None:
        provider = free_space_provider()
    sign, traces = _DIRECT_TRACES[form]
    propagator = _bind(provider, sep.r_a[None], sep.r_b[None])

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        resp_a = response_arrays(mol_a, xis, beta_mode_a)
        resp_b = response_arrays(mol_b, xis)
        blocks = propagator(xis)
        ab, ba = (b[0] for b in blocks)
        total = (sign / _PI) * sum(kernels.trace4(
            resp_a[_RESPONSE_INDEX[a]],
            ab[:, _BLOCK_INDEX[b[0]], _BLOCK_INDEX[b[1]]],
            resp_b[_RESPONSE_INDEX[c]],
            ba[:, _BLOCK_INDEX[d[0]], _BLOCK_INDEX[d[1]]])
            for a, b, c, d in traces)
        if not np.isfinite(total).all():
            _check_columns(total.reshape(-1, 1, 1), [sep], blocks)
        return total

    return _halfline(mol_a, mol_b, [sep.R], integrand, spec)


def u_ec_direct(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                provider=None, spec: Optional[QuadSpec] = None) -> QuadResult:
    """Electric-chiral component as a single combined trace."""
    return _direct("EC", mol_a, mol_b, sep, provider, spec)


def u_mc_direct(mol_a, mol_b, sep, provider=None, spec=None) -> QuadResult:
    """Magnetic-chiral component as a single combined trace."""
    return _direct("MC", mol_a, mol_b, sep, provider, spec)


def u_pc_direct(mol_a, mol_b, sep, provider=None, spec=None) -> QuadResult:
    """Paramagnetic-chiral component as a single combined trace."""
    return _direct("MC", mol_a, mol_b, sep, provider, spec, "para")


def u_dc_direct(mol_a, mol_b, sep, provider=None, spec=None) -> QuadResult:
    """Diamagnetic-chiral component as a single combined trace."""
    return _direct("MC", mol_a, mol_b, sep, provider, spec, "dia")


def u_cc_direct(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                provider=None, spec: Optional[QuadSpec] = None) -> QuadResult:
    """Chiral-chiral component as two combined traces."""
    return _direct("CC", mol_a, mol_b, sep, provider, spec)


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
    direction = np.asarray(orientation, dtype=float).reshape(-1)
    if direction.shape != (3,) or not np.all(np.isfinite(direction)):
        raise ValueError("orientation must be a finite 3-vector")
    norm = float(np.linalg.norm(direction))
    if norm <= 0.0:
        raise ValueError("orientation must be non-zero")
    direction = direction / norm

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
