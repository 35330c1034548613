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
the term traces to the integrated columns: all terms share the frequency
nodes, the response tensors are computed once per node batch, and the
provider is asked once per separation and node batch for both block
matrices, B(r_a, r_b) and B(r_b, r_a) (``blocks``, see ``chivdw.green``).
The terms are factorised into the paper's unified form,
tr[A_a B(r_a, r_b) A_b B(r_b, r_a)] with A the 2x2 block (6x6)
polarisability [[alpha, chi_em], [chi_me, beta]] restricted to the
blocks the terms use: within a column, the terms of equal weight and
beta modes whose A_a blocks pair with the same set of A_b blocks are one
product.  A named component, TOTAL included, is one product, a row at
most two; each half product is one batched matrix product (6x6 for
TOTAL, 3x3 for one tuple), each trace one contraction, and the columns
one product with the weights.  The plan is rebuilt per request; it costs
microseconds.  ``u_terms`` weights by the identity, so each term is its
own column and is converged on its own; a summed request (a named
component, a row, a raw tuple) weights by a row of ones and integrates
only its sum, held to the tolerance in its own right.  The ``evals`` of
a multi-term result counts shared nodes.

A curve (``compute_curve``, and the CLI's ``curve``, ``powerlaw`` and
``table1`` windows) integrates its separations together: the response
tensors, which depend on the frequency only, are computed once per node
batch for all of them, and every separation's sum is converged on its
own.  The separations are grouped by where 1/R lies relative to
the pair's transition band [omega_min, omega_max] (inside it, or the
number of decades outside it), and each group is one pass whose panel
layout spans its members' scales; a single value is the one-separation
case of the same pass.

Besides the provider path, the chiral components have direct
single-trace forms (``u_ec_direct`` and its kin) for any provider, and
``u_cc_isotropic`` gives the orientation-averaged chiral-chiral potential
in vacuum from one scalar radial integral.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from chivdw import kernels
from chivdw.green import FreeSpaceProvider, Separation, free_space_provider
from chivdw.quad import QuadResult, QuadSpec, integrate_halfline
from chivdw.response import (Molecule, beta_for_mode, response_arrays,
                             rotate_molecule_tensors)

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

_BETA_MODES = ("full", "para", "dia")

_SLOT_INDEX = {("e", "e"): 0, ("m", "m"): 1, ("e", "m"): 2, ("m", "e"): 3}

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
        r = np.asarray(self.r_values, dtype=float)
        u = np.asarray(self.u_values, dtype=float)
        e = np.asarray(self.error_estimates, dtype=float)
        c = np.asarray(self.converged, dtype=bool)
        if not (r.shape == u.shape == e.shape == c.shape and r.ndim == 1):
            raise ValueError("curve arrays must be 1-d and congruent")
        for name, arr in (("r_values", r), ("u_values", u),
                          ("error_estimates", e), ("converged", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.r_values.shape[0]


def _env_rel_tol() -> float:
    raw = os.environ.get("VDW_QUAD_RTOL", "").strip()
    if raw:
        try:
            val = float(raw)
        except ValueError:
            raise ValueError(f"VDW_QUAD_RTOL is not a number: {raw!r}")
        if not (0.0 < val < 1.0):
            raise ValueError("VDW_QUAD_RTOL must be in (0, 1)")
        return val
    return 1e-10


def _default_spec() -> QuadSpec:
    return QuadSpec(rel_tol=_env_rel_tol(), abs_tol=1e-300,
                    max_evals=20_000)


def _default_breakpoints(mol_a: Molecule, mol_b: Molecule,
                         rs: Iterable[float]) -> Tuple[float, ...]:
    """The frequency scales of a pair's integrand: the transition
    frequencies (resonances) and 1/R (the propagator cutoff) for each
    separation R in ``rs``."""
    pts = set(float(w) for w in mol_a.omegas)
    pts.update(float(w) for w in mol_b.omegas)
    pts.update(1.0 / R for R in rs)
    return tuple(sorted(pts))


def _halfline(mol_a: Molecule, mol_b: Molecule, rs: Iterable[float],
              integrand: Callable, spec: Optional[QuadSpec]) -> QuadResult:
    """``integrand`` over [0, inf) on the panel layout of the pair's scales
    at the separations ``rs``; ``spec`` defaults to ``_default_spec()``.
    Every half-line route of this module integrates through here."""
    if spec is None:
        spec = _default_spec()
    breaks = _default_breakpoints(mol_a, mol_b, rs)
    return integrate_halfline(integrand, spec, breakpoints=breaks)


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


def _provider_blocks(provider, r_a: np.ndarray, r_b: np.ndarray,
                     xis: np.ndarray) -> list:
    """The provider's block matrices [B(r_a, r_b), B(r_b, r_a)] over the
    frequency array ``xis`` of shape (n,).

    The provider contract: ``provider.blocks(r_a, r_b, xis)`` returns the
    two (n, 2, 2, 3, 3) stacks, indexed [lam, lamp] with 0 = 'e' and
    1 = 'm'.  A provider without ``blocks`` raises ``TypeError``; any other
    shape raises ``ValueError``; an error raised by the provider
    propagates.
    """
    blocks = getattr(provider, "blocks", None)
    if blocks is None:
        raise TypeError(
            f"provider {type(provider).__name__!r} has no "
            f"blocks(r_a, r_b, xis) method")
    n = xis.shape[0]
    pair = [np.asarray(b, dtype=float) for b in blocks(r_a, r_b, xis)]
    shapes = [b.shape for b in pair]
    if shapes != [(n, 2, 2, 3, 3)] * 2:
        raise ValueError(
            f"provider blocks returned shapes {shapes} for {n} frequencies; "
            f"expected two of ({n}, 2, 2, 3, 3)")
    return pair


def _responses(mol: Molecule, xis: np.ndarray, modes: Sequence[str],
               duality: Optional[float]) -> dict:
    """Response arrays of ``mol`` per beta mode, from one transition sum.

    Without a duality rotation the para, dia and full magnetisabilities
    share one ``response_arrays`` call; a rotation mixes beta into every
    block, so it is applied once per mode.
    """
    if duality is not None:
        return {mode: rotate_molecule_tensors(mol, duality, xis, mode)
                for mode in modes}
    alpha, beta_para, chi_em, chi_me = response_arrays(mol, xis, "para")
    return {mode: (alpha, beta_for_mode(mol, beta_para, mode), chi_em, chi_me)
            for mode in modes}


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


def _half_spec(blocks: tuple, rows_out: tuple) -> tuple:
    """How to form the half product A|S[R, C] @ B[C, R_out] of one side:
    (placements, (|R|, |C|), take), where S = ``blocks`` are the side's
    A-blocks, R and C their row and column labels and R_out the other
    side's row labels ``rows_out``.  Each placement (slot, row, col) puts
    a response block at its place in A|S, and ``take`` picks the entries
    of B[C, R_out] (see ``_block_entries``)."""
    rows = sorted({_BLOCK_INDEX[lam] for lam, _ in blocks})
    cols = sorted({_BLOCK_INDEX[lamp] for _, lamp in blocks})
    out = sorted(_BLOCK_INDEX[lam] for lam in rows_out)
    placements = tuple((_SLOT_INDEX[(lam, lamp)],
                        _BLOCK_INDEX[lam] - rows[0],
                        _BLOCK_INDEX[lamp] - cols[0])
                       for lam, lamp in blocks)
    return (placements, (len(rows), len(cols)),
            _BLOCK_ENTRIES[(tuple(cols), tuple(out))])


def _half_product(resp: tuple, placements: tuple, shape: tuple,
                  take: slice | np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (P, n, 3 |R|, 3 |R_out|) half product of a ``_half_spec`` for
    the response set ``resp`` (alpha, beta, chi_em, chi_me), each
    (n, 3, 3), and the block matrices ``b`` flattened to (P, n, 36).  One
    A-block is used as it is; more are assembled, zero outside S."""
    n_r, n_c = shape
    if len(placements) == 1:
        a = resp[placements[0][0]]
    else:
        n = b.shape[1]
        a = np.zeros((n, n_r, 3, n_c, 3))
        for slot, i, j in placements:
            a[:, i, :, j] = resp[slot]
        a = a.reshape(n, 3 * n_r, 3 * n_c)
    return a @ b[..., take].reshape(*b.shape[:2], 3 * n_c, -1)


def _terms_integrand(mol_a: Molecule, mol_b: Molecule,
                     seps: Sequence[Separation],
                     terms: Sequence[Tuple[str, str, str]], provider,
                     duality: Optional[float], weights: np.ndarray) -> Callable:
    """Integrand returning J weighted sums of the traces of ``terms`` at
    every separation in ``seps`` on shared nodes.

    Each term ``(tuple, beta_mode_a, beta_mode_b)`` has the trace
    -(1/2 pi) tr[A_a^{l1 l2} B_{l2 l3} A_b^{l3 l4} B_{l4 l1}]; the (J, K)
    matrix ``weights`` maps the K term traces to J columns per separation,
    so the output is (n, P J) for P separations, separation-major.
    Per node batch every response set is computed once for all
    separations and the provider's block matrices once per separation.

    The terms are factorised into unified-form products (``_products``):
    product q is tr[A_a|S_a B(r_a, r_b) A_b|S_b B(r_b, r_a)] with A the
    2x2 block polarisability [[alpha, chi_em], [chi_me, beta]] restricted
    to the blocks S.  Its half products A_a|S_a B and A_b|S_b B' are one
    batched product each (6x6 for TOTAL, 3x3 for one block with one
    partner), shared between products that need the same one; the trace
    is one contraction, and one product with the (J, Q) weights gives the
    columns.
    """
    products, product_weights = _products(terms, weights)
    # a half product is keyed by (mode, S, the other side's row labels)
    lefts, rights, pairs_q = {}, {}, []
    for mode_a, blocks_a, mode_b, blocks_b in products:
        rows_a = tuple(sorted({lam for lam, _ in blocks_a}))
        rows_b = tuple(sorted({lam for lam, _ in blocks_b}))
        pairs_q.append(
            (lefts.setdefault((mode_a, blocks_a, rows_b), len(lefts)),
             rights.setdefault((mode_b, blocks_b, rows_a), len(rights))))
    lefts = [(mode, _half_spec(blocks, rows))
             for mode, blocks, rows in lefts]
    rights = [(mode, _half_spec(blocks, rows))
              for mode, blocks, rows in rights]
    modes_a = sorted({mode for mode, _ in lefts})
    modes_b = sorted({mode for mode, _ in rights})
    n_sep, n_prod = len(seps), len(products)

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        n = xis.shape[0]
        ta = _responses(mol_a, xis, modes_a, duality)
        tb = _responses(mol_b, xis, modes_b, duality)
        pairs = [_provider_blocks(provider, s.r_a, s.r_b, xis) for s in seps]
        if n_sep == 1:
            ab, ba = (b.reshape(1, n, 36) for b in pairs[0])
        else:
            ab = np.stack([b for b, _ in pairs]).reshape(n_sep, n, 36)
            ba = np.stack([b for _, b in pairs]).reshape(n_sep, n, 36)
        left = [_half_product(ta[mode], *spec, ab) for mode, spec in lefts]
        right = [_half_product(tb[mode], *spec, ba)
                 for mode, spec in rights]
        traces = np.empty((n_prod, n_sep, n))
        for q, (i, k) in enumerate(pairs_q):
            np.einsum('pnij,pnji->pn', left[i], right[k], out=traces[q])
        # formed as (J, P n) so each column is contiguous over the nodes:
        # the rounding of the panel sums depends on that layout
        out = product_weights @ traces.reshape(n_prod, -1)
        return out.reshape(-1, n_sep, n).T.reshape(n, -1)

    return integrand


def _checked_terms(terms: Iterable) -> list:
    terms = [(_validate_tuple(tup), mode_a, mode_b)
             for tup, mode_a, mode_b in terms]
    if not terms:
        raise ValueError("terms must not be empty")
    unknown = {m for _, a, b in terms for m in (a, b)} - set(_BETA_MODES)
    if unknown:
        raise ValueError(f"unknown beta_mode {', '.join(map(repr, unknown))}")
    return terms


def _terms_quadrature(mol_a: Molecule, mol_b: Molecule,
                      seps: Sequence[Separation], terms: list, provider,
                      spec: Optional[QuadSpec], duality: Optional[float],
                      weights: np.ndarray) -> QuadResult:
    """One pass over the checked ``terms``, weighted by ``weights``, at
    every separation of ``seps``, on the panel layout of their joint
    scales (see ``_terms_integrand`` for the column order)."""
    if provider is None:
        provider = free_space_provider()
    integrand = _terms_integrand(mol_a, mol_b, seps, terms, provider,
                                 duality, weights)
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
    return _terms_quadrature(mol_a, mol_b, [sep], terms, provider, spec,
                             duality, np.eye(len(terms)))


def _summed(mol_a: Molecule, mol_b: Molecule, seps: Sequence[Separation],
            terms: Iterable, provider=None, spec: Optional[QuadSpec] = None,
            duality: Optional[float] = None) -> list:
    """The sum of ``terms`` at each separation; one ``QuadResult`` per
    separation.

    The separations are integrated together, one pass per group of
    ``_layout_groups``, and each pass integrates only the sums: one column
    per separation, held to max(rel_tol |sum|, abs_tol), so a sum that
    cancels is reported unconverged however well its terms are known.
    ``evals`` counts the shared nodes of the separation's group's pass.
    """
    terms = _checked_terms(terms)
    if spec is None:
        spec = _default_spec()
    results = [None] * len(seps)
    for group in _layout_groups(mol_a, mol_b, [s.R for s in seps]):
        res = _terms_quadrature(mol_a, mol_b, [seps[i] for i in group],
                                terms, provider, spec, duality,
                                np.ones((1, len(terms))))
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
    term = (tup, beta_mode_a, beta_mode_b)
    return _summed(mol_a, mol_b, [sep], [term], provider, spec, duality)[0]


def _label_terms(label, duality: Optional[float]) -> list:
    label = ComponentLabel(label)
    beta_mode_a = _LABEL_BETA_MODE_A.get(label, "full")
    if duality is not None and label in _LABEL_BETA_MODE_A:
        raise ValueError(
            "duality rotation is undefined for para/dia-restricted "
            "components")
    return [(tup, beta_mode_a, "full") for tup in LABEL_TUPLES[label]]


def u_named(mol_a: Molecule, mol_b: Molecule, sep: Separation, label,
            provider=None, spec: Optional[QuadSpec] = None,
            duality: Optional[float] = None) -> QuadResult:
    """A named component of the pair potential (sum of its tuples).

    The tuples share one quadrature that integrates only their sum; the
    result is the sum's (value, error estimate, ``converged``) and
    ``evals`` counts the shared nodes.
    """
    terms = _label_terms(label, duality)
    return _summed(mol_a, mol_b, [sep], terms, provider, spec, duality)[0]


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
    return _summed(mol_a, mol_b, [sep], ROW_SPECS[row], provider, spec)[0]


# ---------------------------------------------------------------------------
# Direct single-trace forms of the chiral components.  The frequency powers
# of the cross responses and cross blocks cancel analytically, leaving
# division-free integrands valid for any provider and finite at xi = 0.
# ---------------------------------------------------------------------------

def u_ec_direct(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                provider=None, spec: Optional[QuadSpec] = None) -> QuadResult:
    """Electric-chiral component as a single combined trace."""
    if provider is None:
        provider = free_space_provider()
    r_a, r_b = sep.r_a, sep.r_b

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        alpha_a, _, _, _ = response_arrays(mol_a, xis)
        _, _, chi_em_b, _ = response_arrays(mol_b, xis)
        ab, ba = _provider_blocks(provider, r_a, r_b, xis)
        return (1.0 / _PI) * kernels.trace4(
            np.ascontiguousarray(alpha_a), ab[:, 0, 0],
            np.ascontiguousarray(chi_em_b), ba[:, 0, 1])

    return _halfline(mol_a, mol_b, [sep.R], integrand, spec)


def _u_mc_direct_mode(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                      provider, spec: Optional[QuadSpec],
                      beta_mode_a: str) -> QuadResult:
    if provider is None:
        provider = free_space_provider()
    r_a, r_b = sep.r_a, sep.r_b

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        _, beta_a, _, _ = response_arrays(mol_a, xis, beta_mode_a)
        _, _, _, chi_me_b = response_arrays(mol_b, xis)
        ab, ba = _provider_blocks(provider, r_a, r_b, xis)
        return (1.0 / _PI) * kernels.trace4(
            np.ascontiguousarray(beta_a), ab[:, 1, 1],
            np.ascontiguousarray(chi_me_b), ba[:, 1, 0])

    return _halfline(mol_a, mol_b, [sep.R], integrand, spec)


def u_mc_direct(mol_a, mol_b, sep, provider=None, spec=None) -> QuadResult:
    """Magnetic-chiral component as a single combined trace."""
    return _u_mc_direct_mode(mol_a, mol_b, sep, provider, spec, "full")


def u_pc_direct(mol_a, mol_b, sep, provider=None, spec=None) -> QuadResult:
    """Paramagnetic-chiral component as a single combined trace."""
    return _u_mc_direct_mode(mol_a, mol_b, sep, provider, spec, "para")


def u_dc_direct(mol_a, mol_b, sep, provider=None, spec=None) -> QuadResult:
    """Diamagnetic-chiral component as a single combined trace."""
    return _u_mc_direct_mode(mol_a, mol_b, sep, provider, spec, "dia")


def u_cc_direct(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                provider=None, spec: Optional[QuadSpec] = None) -> QuadResult:
    """Chiral-chiral component as two combined traces."""
    if provider is None:
        provider = free_space_provider()
    r_a, r_b = sep.r_a, sep.r_b

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        _, _, chi_em_a, _ = response_arrays(mol_a, xis)
        _, _, chi_em_b, chi_me_b = response_arrays(mol_b, xis)
        ab, ba = _provider_blocks(provider, r_a, r_b, xis)
        ca = np.ascontiguousarray(chi_em_a)
        term1 = kernels.trace4(ca, ab[:, 1, 1],
                               np.ascontiguousarray(chi_me_b), ba[:, 0, 0])
        term2 = kernels.trace4(ca, ab[:, 0, 1],
                               np.ascontiguousarray(chi_em_b), ba[:, 0, 1])
        return -(1.0 / _PI) * (term1 + term2)

    return _halfline(mol_a, mol_b, [sep.R], integrand, spec)


def _isotropic_rotatory(mol: Molecule, ks: np.ndarray) -> np.ndarray:
    """Isotropically averaged cross-response scalar chi(i k).

    For each transition the average of d m~^T over orientations is
    (d . m~)/3 times the identity; the scalar response is then
    chi(ik) = (2k/3) sum_t (d_t . m~_t) / (omega_t^2 + k^2).
    """
    dots = np.einsum("ti,ti->t", mol.dipoles, mol.magnetic_dipoles)
    return (2.0 * ks / 3.0) * ((1.0 / (mol.omegas**2 + ks[:, None]**2))
                               @ dots)


def u_cc_isotropic(mol_a: Molecule, mol_b: Molecule, R: float,
                   spec: Optional[QuadSpec] = None) -> QuadResult:
    """Chiral-chiral potential for orientation-averaged molecules.

    Uses the reduced scalar kernel
    U = (1 / 8 pi^3 R^6) Int dk e^{-2 k R} chi_a chi_b (3 + 6 k R + 4 k^2 R^2)
    with the isotropic rotatory scalars chi(ik); depends only on the
    distance R.
    """
    R = float(R)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError("R must be positive and finite")
    pref = 1.0 / (8.0 * _PI**3 * R**6)

    def integrand(ks):
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        chi_a = _isotropic_rotatory(mol_a, ks)
        chi_b = _isotropic_rotatory(mol_b, ks)
        kr = ks * R
        return pref * np.exp(-2.0 * kr) * chi_a * chi_b * (
            3.0 + 6.0 * kr + 4.0 * kr**2)

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
        terms = _label_terms(key, None)
    elif kind == "row":
        terms = ROW_SPECS[key]
    else:
        terms = [(key, "full", "full")]
    origin = np.zeros(3)
    seps = [Separation(R * direction, origin) for R in r_values]
    results = _summed(mol_a, mol_b, seps, terms, provider, spec)
    return PotentialCurve(
        component=key, r_values=r_values,
        u_values=np.array([res.value for res in results]),
        error_estimates=np.array([res.error_estimate for res in results]),
        converged=np.array([res.converged for res in results]))
