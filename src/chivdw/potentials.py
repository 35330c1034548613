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

Every request is one vector-valued quadrature over its list of
``(tuple, beta_mode_a, beta_mode_b)`` terms (``u_terms``): all terms share
the frequency nodes, the response tensors are computed once per node
batch, and each term is converged to the relative tolerance on its own.
The provider is asked once per separation and node batch for both block
matrices, B(r_a, r_b) and B(r_b, r_a) (``blocks``, see ``chivdw.green``);
the terms' distinct half products A_a B and A_b B are formed in one
batched product per side and their pairwise traces in one more.  A
summed request (a named component, a row) carries the sum of its terms as
one more column, held to the tolerance in its own right, and reports that
column.  The ``evals`` of a multi-term result therefore counts shared
nodes; a one-term request (a raw tuple, EE) runs exactly as a scalar
quadrature.

A curve (``compute_curve``, and the CLI's ``curve``, ``powerlaw`` and
``table1`` windows) integrates its separations together: the response
tensors, which depend on the frequency only, are computed once per node
batch for all of them, and every (separation, term) column is converged
on its own.  The separations are grouped by where 1/R lies relative to
the pair's transition band [omega_min, omega_max] (inside it, or the
number of decades outside it), and each group is one pass whose panel
layout spans its members' scales; a single value is the one-separation
case of the same pass.

Besides the general provider path there are closed free-space forms
(`u_free_fast`, `u_cc_isotropic`) in which the frequency integral has been
reduced analytically to a single exponentially damped radial integral.
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
    "u_free_fast",
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
                         *rs: float) -> Tuple[float, ...]:
    """The frequency scales of a pair's integrand: the transition
    frequencies (resonances) and 1/R (the propagator cutoff) for each
    separation R in ``rs``."""
    pts = set(float(w) for w in mol_a.omegas)
    pts.update(float(w) for w in mol_b.omegas)
    pts.update(1.0 / R for R in rs)
    return tuple(sorted(pts))


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


def _terms_integrand(mol_a: Molecule, mol_b: Molecule,
                     seps: Sequence[Separation],
                     terms: Sequence[Tuple[str, str, str]], provider,
                     duality: Optional[float],
                     sum_column: bool = False) -> Callable:
    """Integrand returning the traces of all ``terms`` at every separation
    in ``seps`` on shared nodes.

    Each term ``(tuple, beta_mode_a, beta_mode_b)`` contributes the column
    -(1/2 pi) tr[A_a^{l1 l2} B_{l2 l3} A_b^{l3 l4} B_{l4 l1}];
    ``sum_column`` appends their sum, so each separation owns K' = K or
    K + 1 adjacent columns and the output is (n, P K') for P separations.
    Per node batch every response set is computed once for all
    separations and the provider's block matrices once per separation.
    The distinct half products (A_a B_{l2 l3}) and (A_b B_{l4 l1}) are
    formed in one product per side, their pairwise traces in one more,
    and each term reads its entry of the pairwise traces.
    """
    modes_a = sorted({mode_a for _, mode_a, _ in terms})
    modes_b = sorted({mode_b for _, _, mode_b in terms})
    lefts, rights = [], []
    for tup, mode_a, mode_b in terms:
        l1, l2, l3, l4 = tup
        lefts.append((mode_a, _SLOT_INDEX[(l1, l2)], l2, l3))
        rights.append((mode_b, _SLOT_INDEX[(l3, l4)], l4, l1))
    left_keys = sorted(set(lefts))
    right_keys = sorted(set(rights))
    # term k is entry (left_cols[k], right_cols[k]) of the pairwise traces
    left_cols = [left_keys.index(key) for key in lefts]
    right_cols = [right_keys.index(key) for key in rights]
    # the [lam, lamp] block of each half product
    left_lam = [_BLOCK_INDEX[lam] for _, _, lam, _ in left_keys]
    left_lamp = [_BLOCK_INDEX[lamp] for _, _, _, lamp in left_keys]
    right_lam = [_BLOCK_INDEX[lam] for _, _, lam, _ in right_keys]
    right_lamp = [_BLOCK_INDEX[lamp] for _, _, _, lamp in right_keys]
    n_sep, n_left, n_right = len(seps), len(left_keys), len(right_keys)

    def integrand(xis):
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        n = xis.shape[0]
        ta = _responses(mol_a, xis, modes_a, duality)
        tb = _responses(mol_b, xis, modes_b, duality)
        resp_a = np.stack([ta[mode][slot] for mode, slot, _, _ in left_keys],
                          axis=1)
        resp_b = np.stack([tb[mode][slot]
                           for mode, slot, _, _ in right_keys], axis=1)
        pairs = [_provider_blocks(provider, s.r_a, s.r_b, xis) for s in seps]
        ab = np.stack([b for b, _ in pairs])
        ba = np.stack([b for _, b in pairs])
        # (P, n, L, 3, 3) and (P, n, R, 3, 3)
        left = resp_a @ ab[:, :, left_lam, left_lamp]
        right = resp_b @ ba[:, :, right_lam, right_lamp]
        # tr(left_l right_r) = sum_ij left_l[i, j] right_r[j, i], so the
        # pairwise traces are (P, n, L, 9) @ (P, n, 9, R)
        right_t = np.empty((n_sep, n, 9, n_right))
        right_t.reshape(n_sep, n, 3, 3, n_right)[...] = \
            right.transpose(0, 1, 4, 3, 2)
        traces = left.reshape(n_sep, n, n_left, 9) @ right_t
        out = -(0.5 / _PI) * traces[:, :, left_cols, right_cols]
        out = out.transpose(1, 0, 2)
        if sum_column:
            out = np.concatenate([out, out.sum(axis=2, keepdims=True)],
                                 axis=2)
        return out.reshape(n, -1)

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
                      spec: QuadSpec, duality: Optional[float],
                      sum_column: bool) -> QuadResult:
    """One pass over the checked ``terms`` at every separation of ``seps``,
    on the panel layout of their joint scales (see ``_terms_integrand``
    for the column order)."""
    if provider is None:
        provider = free_space_provider()
    integrand = _terms_integrand(mol_a, mol_b, seps, terms, provider,
                                 duality, sum_column)
    breaks = _default_breakpoints(mol_a, mol_b, *(s.R for s in seps))
    return integrate_halfline(integrand, spec, breakpoints=breaks)


def u_terms(mol_a: Molecule, mol_b: Molecule, sep: Separation,
            terms: Iterable, provider=None, spec: Optional[QuadSpec] = None,
            duality: Optional[float] = None) -> QuadResult:
    """Several response terms in one shared-node quadrature.

    ``terms`` lists ``(tuple, beta_mode_a, beta_mode_b)`` triples, as in
    ``ROW_SPECS``.  All terms are integrated in one adaptive pass; the
    result's ``value`` and ``error_estimate`` are arrays with one entry per
    term, each converged to the requested relative tolerance on its own,
    ``evals`` counts the shared nodes and ``converged`` holds only if every
    term converged.
    """
    if spec is None:
        spec = _default_spec()
    return _terms_quadrature(mol_a, mol_b, [sep], _checked_terms(terms),
                             provider, spec, duality, sum_column=False)


def _summed(mol_a: Molecule, mol_b: Molecule, seps: Sequence[Separation],
            terms: Iterable, provider=None, spec: Optional[QuadSpec] = None,
            duality: Optional[float] = None) -> list:
    """The sum of ``terms`` at each separation, held to the tolerance on
    its own; one ``QuadResult`` per separation.

    The separations are integrated together, one pass per group of
    ``_layout_groups``.  Several terms carry their sum as one more column
    of the pass; that column must meet max(rel_tol |sum|, abs_tol), so a
    sum that cancels is not reported converged on the strength of its
    terms.  Each result's value, error estimate and ``converged`` are its
    separation's sum column (for one term, the term's); ``evals`` counts
    the shared nodes of its group's pass.
    """
    terms = _checked_terms(terms)
    if spec is None:
        spec = _default_spec()
    sum_column = len(terms) > 1
    width = len(terms) + sum_column
    results = [None] * len(seps)
    for group in _layout_groups(mol_a, mol_b, [s.R for s in seps]):
        res = _terms_quadrature(mol_a, mol_b, [seps[i] for i in group],
                                terms, provider, spec, duality, sum_column)
        # each separation's last column is its sum (or its one term)
        values = res.value[width - 1::width].tolist()
        errs = res.error_estimate[width - 1::width].tolist()
        for i, value, err in zip(group, values, errs):
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

    The tuples and their sum share one quadrature; each tuple and the sum
    are converged on their own, the result is the sum's (value, error
    estimate, ``converged``) and ``evals`` counts the shared nodes.
    """
    terms = _label_terms(label, duality)
    return _summed(mol_a, mol_b, [sep], terms, provider, spec, duality)[0]


def u_row(mol_a: Molecule, mol_b: Molecule, sep: Separation, row: str,
          provider=None, spec: Optional[QuadSpec] = None) -> QuadResult:
    """One two-sided tabulation row (see ROW_SPECS).

    The ten rows partition the sixteen tuples with the magnetic responses
    split into para/dia parts, so summing them reproduces TOTAL.  The
    row's terms and their sum share one quadrature, as in ``u_named``.
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

def _direct_quadrature(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                       provider, spec: Optional[QuadSpec],
                       integrand: Callable) -> QuadResult:
    if spec is None:
        spec = _default_spec()
    breaks = _default_breakpoints(mol_a, mol_b, sep.R)
    return integrate_halfline(integrand, spec, breakpoints=breaks)


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

    return _direct_quadrature(mol_a, mol_b, sep, provider, spec, integrand)


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

    return _direct_quadrature(mol_a, mol_b, sep, provider, spec, integrand)


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

    return _direct_quadrature(mol_a, mol_b, sep, provider, spec, integrand)


# ---------------------------------------------------------------------------
# Closed free-space kernels: the frequency integral reduced analytically to
# one exponentially damped radial integral (no provider, vacuum only).
# ---------------------------------------------------------------------------

_FREE_FAST_LABELS = (ComponentLabel.EC, ComponentLabel.MC, ComponentLabel.CC)


def _free_fast_ec_mc(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                     spec: QuadSpec, magnetic: bool) -> QuadResult:
    R = sep.R
    rhat = sep.r_hat
    proj = np.outer(rhat, rhat)
    eye = np.eye(3)
    m1 = eye - proj
    m2 = eye - 2.0 * proj
    m3 = eye - 3.0 * proj
    sig = "ipq,q,nij,npr,jr->n" if magnetic else "ipq,q,nij,nrp,jr->n"
    pref = 1.0 / (16.0 * _PI**3)

    def integrand(ks):
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        alpha_a, beta_a, _, _ = response_arrays(mol_a, ks)
        _, _, chi_b, _ = response_arrays(mol_b, ks)
        tensor_a = beta_a if magnetic else alpha_a
        e1 = np.einsum(sig, kernels.LEVI_CIVITA, rhat, tensor_a, chi_b, m1)
        e2 = np.einsum(sig, kernels.LEVI_CIVITA, rhat, tensor_a, chi_b, m2)
        e3 = np.einsum(sig, kernels.LEVI_CIVITA, rhat, tensor_a, chi_b, m3)
        radial = (ks**4 / R**2 * e1 + 2.0 * ks**3 / R**3 * e2
                  + (2.0 * ks**2 / R**4 + ks / R**5) * e3)
        return pref * np.exp(-2.0 * ks * R) * radial

    breaks = _default_breakpoints(mol_a, mol_b, R)
    return integrate_halfline(integrand, spec, breakpoints=breaks)


def _cc_angular_tensors(rhat: np.ndarray):
    eye = np.eye(3)
    proj = np.outer(rhat, rhat)
    m3 = eye - 3.0 * proj
    t1 = np.einsum("jq,ip->jqip", m3, m3)
    dd = np.einsum("jq,ip->jqip", eye, eye)
    d_rr = (np.einsum("jq,ip->jqip", eye, proj)
            + np.einsum("jq,ip->jqip", proj, eye))
    rrrr = np.einsum("jq,ip->jqip", proj, proj)
    eps = kernels.LEVI_CIVITA
    epseps = np.einsum("jrp,qsi,r,s->jqip", eps, eps, rhat, rhat)
    t2 = 3.0 * dd - 7.0 * d_rr + 15.0 * rrrr + epseps
    t3 = 2.0 * dd - 4.0 * d_rr + 6.0 * rrrr + 2.0 * epseps
    t4 = dd - d_rr + rrrr + epseps
    return t1, t2, t3, t4


def _free_fast_cc(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                  spec: QuadSpec) -> QuadResult:
    R = sep.R
    t1, t2, t3, t4 = _cc_angular_tensors(sep.r_hat)
    pref = 1.0 / (16.0 * _PI**3)

    def integrand(ks):
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        _, _, chi_a, _ = response_arrays(mol_a, ks)
        _, _, chi_b, _ = response_arrays(mol_b, ks)
        v1 = np.einsum("nij,npq,jqip->n", chi_a, chi_b, t1)
        v2 = np.einsum("nij,npq,jqip->n", chi_a, chi_b, t2)
        v3 = np.einsum("nij,npq,jqip->n", chi_a, chi_b, t3)
        v4 = np.einsum("nij,npq,jqip->n", chi_a, chi_b, t4)
        radial = ((1.0 / R**6 + 2.0 * ks / R**5) * v1 + ks**2 / R**4 * v2
                  + ks**3 / R**3 * v3 + ks**4 / R**2 * v4)
        return pref * np.exp(-2.0 * ks * R) * radial

    breaks = _default_breakpoints(mol_a, mol_b, R)
    return integrate_halfline(integrand, spec, breakpoints=breaks)


def u_free_fast(mol_a: Molecule, mol_b: Molecule, sep: Separation, label,
                spec: Optional[QuadSpec] = None) -> QuadResult:
    """Closed vacuum form of a chiral component (EC, MC or CC).

    The frequency integral over the two cross blocks has been carried out
    against the explicit vacuum Green tensor, leaving a single radial
    integral; faster and better conditioned than the provider path, but
    valid in free space only.
    """
    label = ComponentLabel(label)
    if label not in _FREE_FAST_LABELS:
        raise ValueError(
            f"closed free-space form exists for EC, MC, CC only, got "
            f"{label.value}")
    if spec is None:
        spec = _default_spec()
    if label is ComponentLabel.CC:
        return _free_fast_cc(mol_a, mol_b, sep, spec)
    return _free_fast_ec_mc(mol_a, mol_b, sep, spec,
                            magnetic=(label is ComponentLabel.MC))


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
    if spec is None:
        spec = _default_spec()
    pref = 1.0 / (8.0 * _PI**3 * R**6)

    def integrand(ks):
        ks = np.atleast_1d(np.asarray(ks, dtype=float))
        chi_a = _isotropic_rotatory(mol_a, ks)
        chi_b = _isotropic_rotatory(mol_b, ks)
        kr = ks * R
        return pref * np.exp(-2.0 * kr) * chi_a * chi_b * (
            3.0 + 6.0 * kr + 4.0 * kr**2)

    breaks = _default_breakpoints(mol_a, mol_b, R)
    return integrate_halfline(integrand, spec, breakpoints=breaks)


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
