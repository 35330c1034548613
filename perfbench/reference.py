"""Independent reference for the dispersion potentials, made apart from chivdw.

Every value is the single trace

    U = -(1/2 pi) Int_0^inf dxi tr[ AA(xi) . BB(r_a, r_b, xi) . AB(xi) . BB(r_b, r_a, xi) ]

with 6x6 block matrices: the response AX = [[alpha, chi_em], [chi_me, beta]]
of each molecule built from its transition data (omega, d, m_tilde, beta_dia),
and the vacuum propagator BB = [[S, E], [M, S]] built from the closed
free-space Green tensor.  A response tuple, a named component or a two-sided
row is picked out by masking blocks of AA and AB, and the frequency integral
is done with ``scipy.integrate.quad`` piece by piece over geometric
breakpoints that reach past 60/R, so the resonance region and the
retardation cutoff are both resolved at every separation.

Nothing here imports chivdw.  Units are the program's internal natural units
(hbar = c = eps0 = mu0 = 1).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import integrate

__all__ = ["Mol", "TUPLES", "COMPONENTS", "ROWS", "terms_for", "potential",
           "propagator", "london_ee"]

TUPLES: Tuple[str, ...] = tuple(
    "".join(t) for t in itertools.product("em", repeat=4))

# The named components the workloads use.  A term is (tuple, beta_mode_a,
# beta_mode_b); the tuple "*" keeps every block, which is the sum of all
# sixteen tuples in one trace.
COMPONENTS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "EE": (("eeee", "full", "full"),),
    "EC": (("eeem", "full", "full"), ("eeme", "full", "full")),
    "MC": (("mmem", "full", "full"), ("mmme", "full", "full")),
    "CC": (("emem", "full", "full"), ("emme", "full", "full"),
           ("meem", "full", "full"), ("meme", "full", "full")),
    "TOTAL": (("*", "full", "full"),),
}

# The ten two-sided rows: every tuple whose response characters match, with
# the magnetic response split into its paramagnetic (P) and diamagnetic (D)
# parts and C the electric-magnetic cross response.
ROWS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
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

_SLOT = {"e": slice(0, 3), "m": slice(3, 6)}


def terms_for(kind: str, name: str) -> Tuple[Tuple[str, str, str], ...]:
    """Terms of a named component ('label'), a row ('row') or a tuple."""
    if kind == "label":
        return COMPONENTS[name]
    if kind == "row":
        return ROWS[name]
    if kind == "tuple" and name in TUPLES:
        return ((name, "full", "full"),)
    raise ValueError(f"unknown {kind} {name!r}")


@dataclass(frozen=True)
class Mol:
    """Transition data of one molecule, in internal units."""

    omegas: np.ndarray      # (T,)
    d: np.ndarray           # (T, 3) electric dipoles
    m: np.ndarray           # (T, 3) m_tilde, the magnetic dipole over i
    beta_dia: np.ndarray    # (3, 3)

    @classmethod
    def from_document(cls, doc: dict, factors: Dict[str, float]) -> "Mol":
        """From a molecule-file document and its unit factors."""
        trs = doc["transitions"]
        omegas = np.array([t["omega"] for t in trs], dtype=float)
        d = np.array([t["d"] for t in trs], dtype=float).reshape(-1, 3)
        m = np.array([t["m_imag"] for t in trs], dtype=float).reshape(-1, 3)
        beta = np.array(doc.get("beta_dia", np.zeros((3, 3))), dtype=float)
        return cls(omegas * factors["omega"], d * factors["d"],
                   m * factors["m"], beta * factors["beta_dia"])

    def mirrored(self) -> "Mol":
        """The enantiomer: every m_tilde negated."""
        return Mol(self.omegas, self.d, -self.m, self.beta_dia)

    def response(self, xi: float, beta_mode: str) -> np.ndarray:
        """The 6x6 response [[alpha, chi_em], [chi_me, beta]] at i xi."""
        denom = self.omegas**2 + xi * xi
        w_even = 2.0 * self.omegas / denom
        w_odd = 2.0 * xi / denom
        alpha = (self.d.T * w_even) @ self.d
        para = (self.m.T * w_even) @ self.m
        chi_em = (self.d.T * w_odd) @ self.m
        beta = {"full": para + self.beta_dia, "para": para,
                "dia": self.beta_dia}[beta_mode]
        out = np.empty((6, 6))
        out[:3, :3] = alpha
        out[:3, 3:] = chi_em
        out[3:, :3] = -chi_em.T
        out[3:, 3:] = beta
        return out


def propagator(r: np.ndarray, rp: np.ndarray, xi: float) -> np.ndarray:
    """The 6x6 vacuum propagator between slots at r and rp, at i xi.

    With v = r - rp, R = |v|, x = xi R and the scattering Green tensor
    G = [(1 + x + x^2) I - (3 + 3x + x^2) v^ v^T] e^{-x} / (4 pi R^3 xi^2):
    S = xi^2 G (the ee and mm blocks); the em block is xi times the curl of
    G in its first argument, -xi e^{-x}(1 + x)/(4 pi R^3) [v]_x, and the me
    block is fixed by reciprocity, BB_me(r, rp) = -BB_em(rp, r)^T.
    """
    v = r - rp
    R = math.sqrt(float(v @ v))
    vh = v / R
    x = xi * R
    damp = math.exp(-x) / (4.0 * math.pi * R**3)
    s = damp * ((1.0 + x + x * x) * np.eye(3)
                - (3.0 + 3.0 * x + x * x) * np.outer(vh, vh))
    cross = np.array([[0.0, -v[2], v[1]],
                      [v[2], 0.0, -v[0]],
                      [-v[1], v[0], 0.0]])
    em = -xi * damp * (1.0 + x) * cross
    out = np.empty((6, 6))
    out[:3, :3] = s
    out[3:, 3:] = s
    out[:3, 3:] = em
    out[3:, :3] = -em          # = -em(rp, r)^T, since [-v]_x^T = [v]_x
    return out


def _mask(tup: str, first: bool) -> np.ndarray:
    """0/1 mask keeping the (l1, l2) block of A or the (l3, l4) block of B."""
    mask = np.zeros((6, 6))
    if tup == "*":
        mask[:] = 1.0
    else:
        rows, cols = (tup[0], tup[1]) if first else (tup[2], tup[3])
        mask[_SLOT[rows], _SLOT[cols]] = 1.0
    return mask


def _breaks(mol_a: Mol, mol_b: Mol, R: float) -> Sequence[float]:
    omegas = np.concatenate([mol_a.omegas, mol_b.omegas])
    lo = min(float(omegas.min()), 1.0 / R) / 16.0
    hi = max(60.0 / R, 20.0 * float(omegas.max()))
    count = int(math.ceil(math.log2(hi / lo))) + 1
    return np.geomspace(lo, hi, count).tolist()


def potential(mol_a: Mol, mol_b: Mol, r_a, r_b, terms,
              rel_tol: float = 1e-13) -> float:
    """The sum of ``terms`` (see COMPONENTS) for molecules at r_a and r_b."""
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    R = float(np.linalg.norm(r_a - r_b))
    masked = [(_mask(t, True), _mask(t, False), ma, mb) for t, ma, mb in terms]
    modes_a = {ma for _, _, ma, _ in masked}
    modes_b = {mb for _, _, _, mb in masked}

    def integrand(xi: float) -> float:
        resp_a = {m: mol_a.response(xi, m) for m in modes_a}
        resp_b = {m: mol_b.response(xi, m) for m in modes_b}
        b_ab = propagator(r_a, r_b, xi)
        b_ba = propagator(r_b, r_a, xi)
        acc = 0.0
        for mask_a, mask_b, ma, mb in masked:
            left = (resp_a[ma] * mask_a) @ b_ab
            right = (resp_b[mb] * mask_b) @ b_ba
            acc += float(np.einsum("ij,ji->", left, right))
        return -acc / (2.0 * math.pi)

    edges = [0.0, *_breaks(mol_a, mol_b, R)]
    total = 0.0
    with warnings.catch_warnings():
        # About one piece in a thousand cannot reach rel_tol of its own,
        # small value; quad then warns and returns its best estimate.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += integrate.quad(integrand, lo, hi, epsabs=0.0,
                                    epsrel=rel_tol, limit=200)[0]
        total += integrate.quad(integrand, edges[-1], math.inf, epsabs=0.0,
                                epsrel=rel_tol, limit=200)[0]
    return total


def london_ee(d_a, omega_a: float, d_b, omega_b: float, r_hat, R: float):
    """London's near-zone EE law for one transition on each molecule:
    -(d_a . T . d_b)^2 / ((omega_a + omega_b) (4 pi)^2 R^6), T = I - 3 r^r^T.
    """
    r_hat = np.asarray(r_hat, dtype=float)
    t = np.eye(3) - 3.0 * np.outer(r_hat, r_hat)
    proj = float(np.asarray(d_a, dtype=float) @ t @ np.asarray(d_b, float))
    return -proj**2 / ((omega_a + omega_b) * (4.0 * math.pi) ** 2 * R**6)
