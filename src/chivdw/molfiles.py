"""Molecule file I/O and unit conversion.

Molecules are stored as JSON documents::

    {
      "name": "example",
      "units": "natural",
      "transitions": [
        {"omega": 1.0, "d": [0.6, 0.2, 0.3], "m_imag": [0.1, 0.5, -0.2]}
      ],
      "beta_dia": [[...], [...], [...]]        # optional, default zero
    }

``m_imag`` is the real vector whose ``i``-multiple is the magnetic
transition dipole.  Three unit systems are accepted:

``natural``
    The library's internal system: hbar = c = eps0 = mu0 = 1 with the
    atomic unit of time fixing the remaining freedom.  Values pass
    through unchanged, so a dump/load cycle is bit-exact.
``SI``
    omega in rad/s, d in C m, m_imag in J/T, beta_dia in J/T^2, and
    distances in metres.
``au``
    Hartree atomic units: omega in hartree (times hbar^-1), d in e a0,
    m_imag in hbar e / m_e, beta_dia in e^2 a0^2 / m_e, distances in a0.

All conversion factors are derived at runtime from the five exact or
CODATA-2018 base constants, never hard-coded.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from .response import Molecule

__all__ = [
    "MoleculeFileError",
    "BaseConstants",
    "Conversions",
    "CODATA2018",
    "conversion_factors",
    "length_to_internal",
    "length_from_internal",
    "load_molecule",
    "dump_molecule",
    "bundled_pair",
]

UNIT_TAGS = ("natural", "SI", "au")


class MoleculeFileError(ValueError):
    """A molecule file failed schema validation."""


@dataclass(frozen=True)
class BaseConstants:
    """Exact SI defining constants plus the CODATA-2018 measured ones."""

    c: float = 299792458.0              # m/s, exact
    h: float = 6.62607015e-34           # J s, exact
    e: float = 1.602176634e-19          # C, exact
    m_e: float = 9.1093837015e-31       # kg, CODATA 2018
    eps0: float = 8.8541878128e-12      # F/m, CODATA 2018

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)

    @property
    def alpha_fs(self) -> float:
        return self.e * self.e / (4.0 * math.pi * self.eps0
                                  * self.hbar * self.c)

    @property
    def bohr_radius(self) -> float:
        return self.hbar / (self.m_e * self.c * self.alpha_fs)

    @property
    def hartree(self) -> float:
        return self.alpha_fs ** 2 * self.m_e * self.c ** 2

    @property
    def atomic_time(self) -> float:
        return self.hbar / self.hartree


CODATA2018 = BaseConstants()


@dataclass(frozen=True)
class Conversions:
    """Multiplicative factors taking file-unit values to internal ones."""

    omega: float
    length: float
    electric_dipole: float
    magnetic_dipole: float
    magnetizability: float


def conversion_factors(units: str,
                       base: BaseConstants = CODATA2018) -> Conversions:
    """Factors from the named unit system into the internal natural one.

    The internal system sets hbar = c = eps0 = 1 and measures time in the
    atomic unit t0 = hbar / hartree, which fixes every other scale.
    """
    if units == "natural":
        return Conversions(1.0, 1.0, 1.0, 1.0, 1.0)
    if units == "SI":
        t0 = base.atomic_time
        dipole_scale = math.sqrt(base.hbar * base.eps0 * base.c) \
            * (base.c * t0)
        return Conversions(
            omega=t0,
            length=1.0 / (base.c * t0),
            electric_dipole=1.0 / dipole_scale,
            magnetic_dipole=1.0 / (base.c * dipole_scale),
            magnetizability=1.0 / (base.eps0 * base.c ** 5 * t0 ** 3),
        )
    if units == "au":
        alpha = base.alpha_fs
        root = math.sqrt(4.0 * math.pi)
        return Conversions(
            omega=1.0,
            length=alpha,
            electric_dipole=root * alpha ** 1.5,
            magnetic_dipole=root * alpha ** 2.5,
            magnetizability=4.0 * math.pi * alpha ** 5,
        )
    raise MoleculeFileError(
        f"unknown units tag {units!r}; expected one of {UNIT_TAGS}")


def length_to_internal(value: float, units: str,
                       base: BaseConstants = CODATA2018) -> float:
    """Convert a distance given in the named units to internal units."""
    return float(value) * conversion_factors(units, base).length


def length_from_internal(value: float, units: str,
                         base: BaseConstants = CODATA2018) -> float:
    """Convert an internal distance to the named units."""
    return float(value) / conversion_factors(units, base).length


# ---------------------------------------------------------------------------
# Schema handling
# ---------------------------------------------------------------------------

def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise MoleculeFileError(f"{context}: missing required key {key!r}")
    return mapping[key]


_TRANSITION_FIELDS = ("omega", "d", "m_imag")
_TRANSITION_KEYS = frozenset(_TRANSITION_FIELDS)


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MoleculeFileError(f"{context}: expected a number, got "
                                f"{type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise MoleculeFileError(
            f"{context}: integer too large for a float") from None


def _as_vector(value, context: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise MoleculeFileError(f"{context}: expected a list of 3 numbers")
    return [_as_float(v, context) for v in value]


def _as_matrix(value, context: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise MoleculeFileError(f"{context}: expected a 3x3 nested list")
    return np.array([_as_vector(row, context) for row in value], dtype=float)


def _transition_rows(entries: list, context: str) -> np.ndarray:
    """The (T, 7) rows [omega, *d, *m_imag] of the transitions.  The types
    are checked in bulk, and entry by entry only to name a fault."""
    if all(type(e) is dict and e.keys() == _TRANSITION_KEYS
           and type(e["d"]) is list and len(e["d"]) == 3
           and type(e["m_imag"]) is list and len(e["m_imag"]) == 3
           for e in entries):
        rows = [[e["omega"], *e["d"], *e["m_imag"]] for e in entries]
        # bool is a subclass of int, but its type is not int
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            try:
                return np.array(rows, dtype=float).reshape(-1, 7)
            except OverflowError:
                pass  # an integer too large for a float, named below
    for idx, entry in enumerate(entries):
        where = f"{context}: transitions[{idx}]"
        if not isinstance(entry, dict):
            raise MoleculeFileError(f"{where}: must be an object")
        extra = set(entry) - _TRANSITION_KEYS
        if extra:
            raise MoleculeFileError(f"{where}: unknown keys {sorted(extra)}")
        _as_float(_require(entry, "omega", where), where + ".omega")
        for key in ("d", "m_imag"):
            _as_vector(_require(entry, key, where), f"{where}.{key}")
    return np.array([[e["omega"], *e["d"], *e["m_imag"]] for e in entries],
                    dtype=float).reshape(-1, 7)


def _molecule_from_document(doc: dict, context: str) -> Tuple[Molecule, str]:
    if not isinstance(doc, dict):
        raise MoleculeFileError(f"{context}: top level must be an object")
    name = _require(doc, "name", context)
    if not isinstance(name, str) or not name:
        raise MoleculeFileError(f"{context}: 'name' must be a non-empty "
                                "string")
    units = _require(doc, "units", context)
    if units not in UNIT_TAGS:
        raise MoleculeFileError(f"{context}: units tag {units!r} not in "
                                f"{UNIT_TAGS}")
    raw_transitions = _require(doc, "transitions", context)
    if not isinstance(raw_transitions, list):
        raise MoleculeFileError(f"{context}: 'transitions' must be a list")
    unknown = set(doc) - {"name", "units", "transitions", "beta_dia"}
    if unknown:
        raise MoleculeFileError(f"{context}: unknown keys {sorted(unknown)}")

    factors = conversion_factors(units)
    # the values are validated as whole arrays, after unit conversion
    rows = _transition_rows(raw_transitions, context) * (
        [factors.omega] + [factors.electric_dipole] * 3
        + [factors.magnetic_dipole] * 3)
    beta_dia = np.zeros((3, 3))
    if "beta_dia" in doc:
        beta_dia = _as_matrix(doc["beta_dia"], f"{context}: beta_dia") \
            * factors.magnetizability
    try:
        molecule = Molecule.from_arrays(name, rows[:, 0], rows[:, 1:4],
                                        rows[:, 4:], beta_dia,
                                        fields=_TRANSITION_FIELDS)
    except ValueError as exc:
        raise MoleculeFileError(f"{context}: {exc}") from exc
    return molecule, units


def load_molecule(path) -> Tuple[Molecule, str]:
    """Read a molecule file; returns the molecule (in internal units) and
    the file's units tag."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MoleculeFileError(f"{path}: cannot read file ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MoleculeFileError(f"{path}: invalid JSON ({exc})") from exc
    return _molecule_from_document(doc, str(path))


def _molecule_to_document(mol: Molecule, units: str) -> dict:
    factors = conversion_factors(units)
    transitions = [
        {"omega": omega, "d": d, "m_imag": m_imag}
        for omega, d, m_imag in zip(
            (mol.omegas / factors.omega).tolist(),
            (mol.dipoles / factors.electric_dipole).tolist(),
            (mol.magnetic_dipoles / factors.magnetic_dipole).tolist())
    ]
    doc = {
        "name": mol.name,
        "units": units,
        "transitions": transitions,
    }
    if np.any(mol.beta_dia != 0.0):
        doc["beta_dia"] = [
            [v / factors.magnetizability for v in row]
            for row in mol.beta_dia.tolist()
        ]
    return doc


def dump_molecule(mol: Molecule, path, units: str = "natural") -> None:
    """Write a molecule file in the requested units.

    ``natural`` dumps are bit-exact under a load/dump round trip because
    JSON serialises floats with their shortest exact representation.
    """
    if units not in UNIT_TAGS:
        raise MoleculeFileError(f"unknown units tag {units!r}; expected one "
                                f"of {UNIT_TAGS}")
    doc = _molecule_to_document(mol, units)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def bundled_pair() -> Tuple[Molecule, Molecule]:
    """The two example molecules shipped with the package."""
    from importlib import resources

    data = resources.files("chivdw") / "data"
    pair = []
    for filename in ("molecule_a.json", "molecule_b.json"):
        doc = json.loads((data / filename).read_text())
        molecule, _ = _molecule_from_document(doc, f"bundled:{filename}")
        pair.append(molecule)
    return pair[0], pair[1]
