"""Molecular response tensors at imaginary frequency.

A molecule is described by its dipole transitions and a static diamagnetic
tensor.  Each transition carries a frequency, a real electric dipole vector,
and the real vector ``m_tilde`` representing a purely imaginary magnetic
dipole m = i*m_tilde.  With that representation every response tensor — the
electric polarisability ``alpha``, the magnetisability ``beta`` (paramagnetic
part plus the static diamagnetic part), and the two electric-magnetic cross
responses ``chi_em``/``chi_me`` — is manifestly real on the imaginary
frequency axis, and the cross responses obey chi_me = -(chi_em)^T.

Internally everything is in natural units (hbar = c = eps0 = mu0 = 1); the
file-ingestion layer converts SI or atomic-unit input on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np

from chivdw import kernels

__all__ = [
    "Transition",
    "Molecule",
    "ResponseSet",
    "DualityAngle",
    "eval_response",
    "static_limits",
    "dual_polarisability",
    "duality_rotate",
]

_LLOYD_TOL = 1e-12


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _as_mat3(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 tensor, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Transition:
    """One dipole transition: frequency, electric dipole, and the real
    vector whose i-multiple is the magnetic dipole."""

    omega: float
    d: np.ndarray
    m_tilde: np.ndarray

    def __post_init__(self) -> None:
        omega = float(self.omega)
        if not (math.isfinite(omega) and omega > 0.0):
            raise ValueError("transition frequency must be positive and finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "d", _as_vec3(self.d, "d"))
        object.__setattr__(self, "m_tilde", _as_vec3(self.m_tilde, "m_tilde"))


@dataclass(frozen=True)
class Molecule:
    """Named set of dipole transitions plus a static diamagnetisability.

    ``beta_dia`` must be symmetric and negative semi-definite (its physical
    definition carries an overall minus sign).
    """

    name: str
    transitions: Tuple[Transition, ...]
    beta_dia: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self) -> None:
        trs = tuple(self.transitions)
        for t in trs:
            if not isinstance(t, Transition):
                raise TypeError("transitions must contain Transition objects")
        object.__setattr__(self, "transitions", trs)
        bd = _as_mat3(self.beta_dia, "beta_dia")
        scale = float(np.max(np.abs(bd))) or 1.0
        if not np.allclose(bd, bd.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("beta_dia must be symmetric")
        eig = np.linalg.eigvalsh(0.5 * (bd + bd.T))
        if np.max(eig) > 1e-10 * scale:
            raise ValueError("beta_dia must be negative semi-definite")
        object.__setattr__(self, "beta_dia", bd)
        # cached flat transition arrays used by the batched kernels
        if trs:
            omegas = np.array([t.omega for t in trs], dtype=float)
            ds = np.array([t.d for t in trs], dtype=float)
            mts = np.array([t.m_tilde for t in trs], dtype=float)
        else:
            omegas = np.zeros(0)
            ds = np.zeros((0, 3))
            mts = np.zeros((0, 3))
        for arr in (omegas, ds, mts):
            arr.setflags(write=False)
        object.__setattr__(self, "_omegas", omegas)
        object.__setattr__(self, "_ds", ds)
        object.__setattr__(self, "_mts", mts)

    @property
    def omegas(self) -> np.ndarray:
        return self._omegas  # type: ignore[attr-defined]

    @property
    def dipoles(self) -> np.ndarray:
        return self._ds  # type: ignore[attr-defined]

    @property
    def magnetic_dipoles(self) -> np.ndarray:
        return self._mts  # type: ignore[attr-defined]

    def enantiomer(self) -> "Molecule":
        """Mirror-image partner: all magnetic dipole vectors negated."""
        return Molecule(
            name=self.name + "-enantiomer",
            transitions=tuple(
                Transition(t.omega, t.d, -t.m_tilde) for t in self.transitions
            ),
            beta_dia=self.beta_dia,
        )


@dataclass(frozen=True)
class ResponseSet:
    """The four 3x3 response tensors evaluated at one imaginary frequency.

    Constructed from a molecule the set satisfies chi_me = -(chi_em)^T
    exactly; sets produced by duality rotations may violate that relation
    (see :func:`duality_rotate`), which ``satisfies_lloyd`` reports.
    """

    xi: float
    alpha: np.ndarray
    beta: np.ndarray
    chi_em: np.ndarray
    chi_me: np.ndarray

    def __post_init__(self) -> None:
        xi = float(self.xi)
        if not (math.isfinite(xi) and xi >= 0.0):
            raise ValueError("xi must be non-negative and finite")
        object.__setattr__(self, "xi", xi)
        for name in ("alpha", "beta", "chi_em", "chi_me"):
            object.__setattr__(self, name, _as_mat3(getattr(self, name), name))

    @property
    def lloyd_defect(self) -> float:
        """Max-norm of chi_me + chi_em^T (zero for transition-built sets)."""
        return float(np.max(np.abs(self.chi_me + self.chi_em.T)))

    def satisfies_lloyd(self, tol: float = _LLOYD_TOL) -> bool:
        scale = max(float(np.max(np.abs(self.chi_em))),
                    float(np.max(np.abs(self.chi_me))), 1.0)
        return self.lloyd_defect <= tol * scale


@dataclass(frozen=True)
class DualityAngle:
    """Rotation angle in the two-dimensional electric-magnetic index space."""

    theta: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", theta)


def response_arrays(mol: Molecule, xis: np.ndarray, beta_mode: str = "full"):
    """Batched response tensors over a frequency array.

    Returns (alpha, beta, chi_em, chi_me), each of shape (n, 3, 3), with
    ``beta`` assembled according to ``beta_mode``:
    ``"full"`` = paramagnetic + diamagnetic, ``"para"`` = paramagnetic only,
    ``"dia"`` = static diamagnetic tensor only.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    alpha, beta_para, chi_em = kernels.response_tensors(
        mol.omegas, mol.dipoles, mol.magnetic_dipoles, xis)
    if beta_mode == "full":
        beta = beta_para + mol.beta_dia[None, :, :]
    elif beta_mode == "para":
        beta = beta_para
    elif beta_mode == "dia":
        beta = np.broadcast_to(mol.beta_dia, (xis.shape[0], 3, 3)).copy()
    else:
        raise ValueError(f"unknown beta_mode {beta_mode!r}")
    chi_me = -np.transpose(chi_em, (0, 2, 1))
    return alpha, beta, chi_em, chi_me


def eval_response(mol: Molecule, xi: float) -> ResponseSet:
    """Evaluate all four response tensors of ``mol`` at frequency ``xi``.

    For an empty transition list the dynamic tensors are zero and beta is
    the static diamagnetic tensor alone.
    """
    xi = float(xi)
    if xi < 0.0:
        raise ValueError("xi must be non-negative")
    alpha, beta, chi_em, chi_me = response_arrays(mol, np.array([xi]))
    return ResponseSet(xi=xi, alpha=alpha[0], beta=beta[0],
                       chi_em=chi_em[0], chi_me=chi_me[0])


def static_limits(mol: Molecule):
    """Zero-frequency limits: (alpha0, beta0, chi_prime).

    ``alpha0`` and ``beta0`` are the plain static tensors.  The cross
    response vanishes linearly at zero frequency, so its static information
    is the leading coefficient ``chi_prime``: the cross response per unit
    frequency, 2 * sum_t d_t m_t^T / omega_t^2 (in natural units).  The
    squared frequency in that denominator follows from the small-frequency
    expansion of the dynamic cross response; a commonly printed single-power
    variant is inconsistent with that expansion and is not used here.
    """
    if any(t.omega <= 0.0 for t in mol.transitions):
        raise ValueError("all transition frequencies must be positive")
    alpha0 = np.zeros((3, 3))
    beta0 = np.array(mol.beta_dia, dtype=float, copy=True)
    chi_prime = np.zeros((3, 3))
    for t in mol.transitions:
        alpha0 += 2.0 * np.outer(t.d, t.d) / t.omega
        beta0 += 2.0 * np.outer(t.m_tilde, t.m_tilde) / t.omega
        chi_prime += 2.0 * np.outer(t.d, t.m_tilde) / t.omega**2
    return alpha0, beta0, chi_prime


def dual_polarisability(rs: ResponseSet, lam: str, lamp: str) -> np.ndarray:
    """The (lam, lamp) block of the 2x2 duality-space polarisability.

    In natural units (c = 1) the blocks are the bare tensors:
    (e,e) -> alpha, (e,m) -> chi_em, (m,e) -> chi_me, (m,m) -> beta.
    """
    key = (lam, lamp)
    table = {("e", "e"): rs.alpha, ("e", "m"): rs.chi_em,
             ("m", "e"): rs.chi_me, ("m", "m"): rs.beta}
    try:
        return table[key]
    except KeyError:
        raise ValueError(f"block labels must be 'e' or 'm', got {key!r}")


def _cos_sin(theta: float):
    """cos/sin with values within one rounding step of 0 or +-1 snapped.

    Quarter-turn rotations permute the response blocks exactly in exact
    arithmetic; snapping makes the floating-point rotation honour that
    (cos(pi/2) evaluates to 6.1e-17, which would otherwise leak a little
    of every block into every other one).
    """
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) < 1e-15:
        c = 0.0
    elif abs(abs(c) - 1.0) < 1e-15:
        c = math.copysign(1.0, c)
    if abs(s) < 1e-15:
        s = 0.0
    elif abs(abs(s) - 1.0) < 1e-15:
        s = math.copysign(1.0, s)
    return c, s


def _rotate_blocks(theta, alpha, beta, chi_em, chi_me):
    """D(theta) A D(theta)^T for the block matrix A = [[alpha, chi_em],
    [chi_me, beta]], with D = [[cos, sin], [-sin, cos]] acting on the
    electric-magnetic block indices.  The blocks may be (3, 3) tensors or
    (n, 3, 3) stacks; returns the rotated (alpha, beta, chi_em, chi_me).
    """
    if isinstance(theta, DualityAngle):
        theta = theta.theta
    c, s = _cos_sin(theta)
    D = np.array([[c, s], [-s, c]])
    blk = np.array([[alpha, chi_em], [chi_me, beta]])
    rot = np.einsum('ai,bj,ij...->ab...', D, D, blk)
    return rot[0, 0], rot[1, 1], rot[0, 1], rot[1, 0]


def duality_rotate(rs: ResponseSet, theta) -> ResponseSet:
    """Rotate the 2x2 block matrix of dual polarisabilities by ``theta``.

    Applies A' = D(theta) A D(theta)^T on the electric-magnetic block
    indices, with D = [[cos, sin], [-sin, cos]].  At theta = pi/2 this
    swaps alpha with beta and maps chi_em -> -chi_me, chi_me -> -chi_em,
    exactly (see :func:`_cos_sin`).

    The rotated set is returned raw: for generic inputs it can violate the
    chi_me = -(chi_em)^T constraint that transition-built responses obey
    (check with ``ResponseSet.satisfies_lloyd``); such sets are still valid
    inputs to every potential formula.
    """
    alpha, beta, chi_em, chi_me = _rotate_blocks(
        theta, rs.alpha, rs.beta, rs.chi_em, rs.chi_me)
    return ResponseSet(xi=rs.xi, alpha=alpha, beta=beta, chi_em=chi_em,
                       chi_me=chi_me)


def rotate_molecule_tensors(mol: Molecule, theta, xis: np.ndarray,
                            beta_mode: str = "full"):
    """Batched duality-rotated response tensors for ``mol`` at ``xis``.

    Returns (alpha, beta, chi_em, chi_me) arrays of shape (n, 3, 3) after
    applying the 2x2 duality rotation at every frequency.  Used by the
    potential assembly to test duality invariance without materialising one
    ResponseSet per quadrature node.
    """
    return _rotate_blocks(theta, *response_arrays(mol, xis, beta_mode))
