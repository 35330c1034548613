"""Molecular response tensors at imaginary frequency.

A molecule is described by its dipole transitions and a static diamagnetic
tensor.  Each transition carries a frequency, a real electric dipole vector,
and the real vector ``m_tilde`` representing a purely imaginary magnetic
dipole m = i*m_tilde.  With that representation every response tensor — the
electric polarisability ``alpha``, the magnetisability ``beta`` (paramagnetic
part plus the static diamagnetic part), and the two electric-magnetic cross
responses ``chi_em``/``chi_me`` — is manifestly real on the imaginary
frequency axis, and the cross responses obey chi_me = -(chi_em)^T.

Every dynamic tensor is a transition sum of a frequency weight times an
outer product (d d^T, m m^T or d m^T) that does not depend on frequency.
``mode_tables`` is the one place that lays those products out in the 6x6
form A = [[alpha, chi_em], [chi_me, beta]], with the beta modes and any
electric-magnetic duality rotation: per beta mode a (2T+1, 6, 6) table
whose product with ``kernels.frequency_weights`` is A on n frequencies,
the three modes side by side.  A ``Molecule`` builds its own once, at
construction (``tables``), and every reader reads them:
``response_table`` returns one mode's table (a rotated copy for a
duality angle), ``response_arrays`` the four 3x3 blocks of its product
with the weights (one xi is ``[xi]``), ``static_limits`` their
zero-frequency limits, and the potentials gather their columns, one
``take`` per request.

Internally everything is in natural units (hbar = c = eps0 = mu0 = 1); the
file-ingestion layer converts SI or atomic-unit input on load.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from chivdw import kernels

__all__ = [
    "Transition",
    "Molecule",
    "response_arrays",
    "response_table",
    "mode_tables",
    "MODE_COLUMNS",
    "ZERO_COLUMN",
    "response_from_table",
    "static_limits",
]

_BETA_MODES = ("full", "para", "dia")

# the first of each beta mode's 36 columns in ``mode_tables``, and the
# index of its one zero column after them
MODE_COLUMNS = {mode: 36 * k for k, mode in enumerate(_BETA_MODES)}
ZERO_COLUMN = 36 * len(_BETA_MODES)

# the (row, column) block indices of alpha, beta, chi_em and chi_me in A
_ROWS, _COLS = [0, 1, 0, 1], [0, 1, 1, 0]


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


def _transition_arrays(omegas, dipoles, magnetic_dipoles, fields):
    """Validated read-only arrays omegas (T,), dipoles (T, 3) and magnetic
    dipoles (T, 3); the error names the first bad entry as
    ``transitions[i].<field>``, with the three field names of ``fields``."""
    omegas = np.array(omegas, dtype=float).reshape(-1)
    count = omegas.shape[0]
    arrays = [omegas]
    for field, value in zip(fields[1:], (dipoles, magnetic_dipoles)):
        arr = np.array(value, dtype=float)
        arr = arr.reshape(0, 3) if arr.size == 0 == count else arr
        if arr.shape != (count, 3):
            raise ValueError(f"transition {field} vectors must have shape "
                             f"({count}, 3), got {arr.shape}")
        arrays.append(arr)
    bad = np.stack([~((omegas > 0.0) & np.isfinite(omegas)),
                    ~np.isfinite(arrays[1]).all(axis=1),
                    ~np.isfinite(arrays[2]).all(axis=1)], axis=1)
    if bad.any():
        idx, col = np.argwhere(bad)[0].tolist()
        what = "positive and finite" if col == 0 else "finite"
        raise ValueError(f"transitions[{idx}].{fields[col]} must be {what}")
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class Molecule:
    """Named set of dipole transitions plus a static diamagnetisability.

    The state is read-only arrays: ``omegas`` (T,), ``dipoles`` (T, 3),
    ``magnetic_dipoles`` (T, 3) and ``tables`` (2T+1, 109), the
    ``response_table`` of each beta mode flattened to 36 columns, in the
    order full, para, dia, then one zero column (built by ``mode_tables``;
    the columns of a mode start at ``MODE_COLUMNS[mode]``).  Every
    molecule builds its own tables once, when it is made, so a request
    only reads them.  ``Molecule(name, transitions, beta_dia)`` packs
    ``Transition`` objects into the arrays and ``from_arrays`` takes them
    directly, through the same validation; ``transitions`` is built on
    first access.

    ``beta_dia`` must be symmetric and negative semi-definite (its physical
    definition carries an overall minus sign).
    """

    def __init__(self, name: str, transitions: Iterable[Transition],
                 beta_dia=None) -> None:
        trs = tuple(transitions)
        if not all(isinstance(t, Transition) for t in trs):
            raise TypeError("transitions must contain Transition objects")
        self._set(name, beta_dia, [t.omega for t in trs], [t.d for t in trs],
                  [t.m_tilde for t in trs], ("omega", "d", "m_tilde"))
        self.__dict__["transitions"] = trs

    @classmethod
    def from_arrays(cls, name: str, omegas, dipoles, magnetic_dipoles,
                    beta_dia=None, fields=("omega", "d", "m_tilde")):
        """A molecule from omegas (T,), dipoles (T, 3) and
        magnetic_dipoles (T, 3); ``fields`` names them in errors."""
        mol = cls.__new__(cls)
        mol._set(name, beta_dia, omegas, dipoles, magnetic_dipoles, fields)
        return mol

    def _set(self, name, beta_dia, omegas, dipoles, magnetic_dipoles,
             fields) -> None:
        omegas, ds, mts = _transition_arrays(omegas, dipoles,
                                             magnetic_dipoles, fields)
        bd = _as_mat3(np.zeros((3, 3)) if beta_dia is None else beta_dia,
                      "beta_dia")
        scale = float(np.max(np.abs(bd))) or 1.0
        if float(np.max(np.abs(bd - bd.T))) > 1e-12 * scale:
            raise ValueError("beta_dia must be symmetric")
        eig = np.linalg.eigvalsh(0.5 * (bd + bd.T))
        if np.max(eig) > 1e-10 * scale:
            raise ValueError("beta_dia must be negative semi-definite")
        self.__dict__.update(name=name, beta_dia=bd, omegas=omegas,
                             dipoles=ds, magnetic_dipoles=mts)
        tables = mode_tables(self)
        tables.setflags(write=False)
        self.__dict__["tables"] = tables

    def __setattr__(self, attr, value):
        raise AttributeError(f"Molecule is immutable; cannot set {attr!r}")

    def __repr__(self) -> str:
        return f"Molecule({self.name!r}, {len(self.omegas)} transitions)"

    @functools.cached_property
    def transitions(self) -> Tuple[Transition, ...]:
        return tuple(Transition(w, d, m) for w, d, m in zip(
            self.omegas.tolist(), self.dipoles, self.magnetic_dipoles))

    def enantiomer(self) -> "Molecule":
        """Mirror-image partner: all magnetic dipole vectors negated."""
        return Molecule.from_arrays(self.name + "-enantiomer", self.omegas,
                                    self.dipoles, -self.magnetic_dipoles,
                                    self.beta_dia)


def response_arrays(mol: Molecule, xis: np.ndarray, beta_mode: str = "full",
                    duality=None):
    """Batched response tensors over a frequency array.

    Returns (alpha, beta, chi_em, chi_me), each of shape (n, 3, 3), with
    ``beta`` the paramagnetic part plus ``beta_dia`` (``"full"``), the
    first alone (``"para"``) or the second alone (``"dia"``): the blocks
    of A on the frequencies, one product of the molecule's
    ``response_table`` with its frequency weights.

    A ``duality`` angle theta rotates them as A' = D(theta) A D(theta)^T
    on the electric-magnetic block indices, with
    D = [[cos, sin], [-sin, cos]].  At theta = pi/2 this swaps alpha with
    beta and maps chi_em -> -chi_me, chi_me -> -chi_em, exactly (see
    :func:`_cos_sin`).  For a generic angle the rotated tensors can
    violate the chi_me = -(chi_em)^T relation that transition-built
    responses obey; they are still valid inputs to every potential
    formula.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    table = response_table(mol, beta_mode, duality).reshape(-1, 36)
    blocks = response_from_table(mol, table, slice(None), xis)
    return tuple(blocks.reshape(-1, 2, 3, 2, 3)[:, _ROWS, :, _COLS])


def response_table(mol: Molecule, beta_mode: str = "full",
                   duality=None) -> np.ndarray:
    """The (2T+1, 6, 6) table of A = [[alpha, chi_em], [chi_me, beta]] for
    ``mol``'s T transitions: A on n frequencies is their (n, 2T+1)
    ``kernels.frequency_weights`` times it.  Rows 0..T-1 hold d d^T at
    (e, e) and, unless ``beta_mode`` is ``"dia"``, m m^T at (m, m); rows
    T..2T-1 d m^T at (e, m) and -(d m^T)^T at (m, e); row 2T ``beta_dia``
    at (m, m) unless ``beta_mode`` is ``"para"``.  The table is a copy of
    the mode's 36 columns of ``mol.tables``, or, for a ``duality`` angle,
    of ``mode_tables(mol, duality)``, rotated as the tensors of
    ``response_arrays`` are."""
    if beta_mode not in _BETA_MODES:
        raise ValueError(f"unknown beta_mode {beta_mode!r}")
    tables = mol.tables if duality is None else mode_tables(mol, duality)
    first = MODE_COLUMNS[beta_mode]
    return tables[:, first:first + 36].copy().reshape(-1, 6, 6)


def mode_tables(mol: Molecule, duality=None) -> np.ndarray:
    """The (2T+1, 109) tables of the three beta modes side by side: the
    ``response_table`` of "full", "para" and "dia", each flattened to 36
    columns, then one zero column.  This is the one builder of those
    tables: a ``Molecule`` holds its own as ``tables``, and a ``duality``
    angle rotates every mode's table of a new copy."""
    count = mol.omegas.shape[0]
    ds, mts = mol.dipoles, mol.magnetic_dipoles
    dd, mm, dm = (a[:, :, None] * b[:, None, :]
                  for a, b in ((ds, ds), (mts, mts), (ds, mts)))
    md = -dm.transpose(0, 2, 1)
    out = np.zeros((2 * count + 1, ZERO_COLUMN + 1))
    for mode, first in MODE_COLUMNS.items():
        # a view: the blocks are written into ``out`` in place
        table = out[:, first:first + 36].reshape(-1, 2, 3, 2, 3)
        table[:count, 0, :, 0] = dd
        table[count:-1, 0, :, 1] = dm
        table[count:-1, 1, :, 0] = md
        if mode != "dia":
            table[:count, 1, :, 1] = mm
        if mode != "para":
            table[-1, 1, :, 1] = mol.beta_dia
        if duality is not None:
            table[:, _ROWS, :, _COLS] = _rotate_blocks(
                duality, *table[:, _ROWS, :, _COLS])
    return out


def response_from_table(mol: Molecule, table: np.ndarray, rows: slice,
                        xis: np.ndarray) -> np.ndarray:
    """(n, K): the columns ``table`` of ``mol``'s response tables, cut to
    their ``rows``, at the frequencies xis (n,): one weights product."""
    return kernels.frequency_weights(mol.omegas, xis)[:, rows] @ table


def static_limits(mol: Molecule):
    """Zero-frequency limits: (alpha0, beta0, chi_prime).

    ``alpha0`` and ``beta0`` are the plain static tensors.  The cross
    response vanishes linearly at zero frequency, so its static information
    is the leading coefficient ``chi_prime``: the cross response per unit
    frequency, 2 * sum_t d_t m_t^T / omega_t^2 (in natural units).  The
    squared frequency in that denominator follows from the small-frequency
    expansion of the dynamic cross response; a commonly printed single-power
    variant is inconsistent with that expansion and is not used here.
    All three are one product of ``response_table`` with the weights
    [2/w_t | 2/w_t^2 | 1], the zero-frequency limits of
    ``kernels.frequency_weights`` and of the cross weights' slope.
    """
    inv = 1.0 / mol.omegas
    weights = np.concatenate([2.0 * inv, 2.0 * inv * inv, [1.0]])
    static = weights @ response_table(mol).reshape(-1, 36)
    static = static.reshape(2, 3, 2, 3)
    return static[0, :, 0], static[1, :, 1], static[0, :, 1]


def _cos_sin(theta: float):
    """cos/sin with values within one rounding step of 0 or +-1 snapped.

    Quarter-turn rotations permute the response blocks exactly in exact
    arithmetic; snapping makes the floating-point rotation honour that
    (cos(pi/2) evaluates to 6.1e-17, which would otherwise leak a little
    of every block into every other one).
    """
    def snap(v):
        return next((r for r in (0.0, 1.0, -1.0) if abs(v - r) < 1e-15), v)

    return snap(math.cos(theta)), snap(math.sin(theta))


def _rotate_blocks(theta, alpha, beta, chi_em, chi_me):
    """D(theta) A D(theta)^T for the block matrix A = [[alpha, chi_em],
    [chi_me, beta]], with D = [[cos, sin], [-sin, cos]] acting on the
    electric-magnetic block indices, for (n, 3, 3) stacks of blocks;
    returns the rotated (alpha, beta, chi_em, chi_me).
    """
    c, s = _cos_sin(theta)
    D = np.array([[c, s], [-s, c]])
    blk = np.array([[alpha, chi_em], [chi_me, beta]])
    rot = np.einsum('ai,bj,ij...->ab...', D, D, blk)
    return rot[0, 0], rot[1, 1], rot[0, 1], rot[1, 0]
