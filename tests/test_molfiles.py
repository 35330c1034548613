"""Tests for molecule file I/O and unit conversion.

Frozen oracle values: the derived constants are pinned against the
published CODATA-2018 table (fine-structure constant, Bohr radius,
hartree energy, atomic time unit), and the hartree-unit conversion path
is required to agree with the SI path for one and the same physical
molecule.
"""

import json
import math

import numpy as np
import pytest

from chivdw.molfiles import (
    CODATA2018,
    Conversions,
    MoleculeFileError,
    bundled_pair,
    conversion_factors,
    dump_molecule,
    length_from_internal,
    length_to_internal,
    load_molecule,
)
from chivdw.response import Molecule, Transition

# Published CODATA-2018 values used as frozen oracles for the runtime
# derivations (these are the table entries, not defining constants).
FINE_STRUCTURE = 7.2973525693e-3
BOHR_RADIUS_M = 5.29177210903e-11
HARTREE_J = 4.3597447222071e-18
ATOMIC_TIME_S = 2.4188843265857e-17


def _sample_molecule():
    return Molecule("sample", (
        Transition(1.0, (0.6, 0.2, 0.3), (0.1, 0.5, -0.2)),
        Transition(1.7, (-0.2, 0.4, 0.1), (0.3, -0.1, 0.2)),
    ), beta_dia=-0.05 * np.array([[2.0, 0.3, 0.1],
                                  [0.3, 1.5, 0.2],
                                  [0.1, 0.2, 1.0]]))


# ---------------------------------------------------------------------------
# Constants and conversion factors
# ---------------------------------------------------------------------------

def test_derived_constants_match_published_table():
    assert CODATA2018.hbar == pytest.approx(
        CODATA2018.h / (2.0 * math.pi), rel=1e-15)
    assert CODATA2018.alpha_fs == pytest.approx(FINE_STRUCTURE, rel=1e-9)
    assert CODATA2018.bohr_radius == pytest.approx(BOHR_RADIUS_M, rel=1e-9)
    assert CODATA2018.hartree == pytest.approx(HARTREE_J, rel=1e-9)
    assert CODATA2018.atomic_time == pytest.approx(ATOMIC_TIME_S, rel=1e-9)


def test_natural_factors_are_identity():
    assert conversion_factors("natural") == Conversions(1.0, 1.0, 1.0,
                                                        1.0, 1.0)


def test_si_and_au_factor_paths_agree():
    """The hartree-unit factors must equal the SI factors times the SI
    sizes of the hartree units themselves."""
    si = conversion_factors("SI")
    au = conversion_factors("au")
    base = CODATA2018
    assert au.omega == pytest.approx(
        si.omega * base.hartree / base.hbar, rel=1e-12)
    assert au.length == pytest.approx(
        si.length * base.bohr_radius, rel=1e-12)
    assert au.electric_dipole == pytest.approx(
        si.electric_dipole * base.e * base.bohr_radius, rel=1e-12)
    assert au.magnetic_dipole == pytest.approx(
        si.magnetic_dipole * base.hbar * base.e / base.m_e, rel=1e-12)
    assert au.magnetizability == pytest.approx(
        si.magnetizability * base.e ** 2 * base.bohr_radius ** 2 / base.m_e,
        rel=1e-12)


def test_au_factors_closed_forms():
    au = conversion_factors("au")
    alpha = CODATA2018.alpha_fs
    root = math.sqrt(4.0 * math.pi)
    assert au.omega == 1.0
    assert au.length == alpha
    assert au.electric_dipole == pytest.approx(root * alpha ** 1.5,
                                               rel=1e-15)
    assert au.magnetic_dipole == pytest.approx(root * alpha ** 2.5,
                                               rel=1e-15)
    assert au.magnetizability == pytest.approx(4 * math.pi * alpha ** 5,
                                               rel=1e-15)


def test_unknown_units_tag_rejected():
    with pytest.raises(MoleculeFileError):
        conversion_factors("cgs")


def test_length_conversions_roundtrip():
    for units in ("natural", "SI", "au"):
        value = 3.7
        internal = length_to_internal(value, units)
        assert length_from_internal(internal, units) == \
            pytest.approx(value, rel=1e-15)
    assert length_to_internal(2.0, "natural") == 2.0
    assert length_to_internal(1.0, "au") == pytest.approx(FINE_STRUCTURE,
                                                          rel=1e-9)
    # one metre is an enormous distance in atomic-time natural units
    assert length_to_internal(1.0, "SI") == pytest.approx(
        1.0 / (CODATA2018.c * CODATA2018.atomic_time), rel=1e-12)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

def test_natural_roundtrip_is_bit_exact(tmp_path):
    mol = _sample_molecule()
    path = tmp_path / "mol.json"
    dump_molecule(mol, path, units="natural")
    loaded, units = load_molecule(path)
    assert units == "natural"
    assert loaded.name == mol.name
    assert len(loaded.transitions) == len(mol.transitions)
    for got, want in zip(loaded.transitions, mol.transitions):
        assert got.omega == want.omega
        assert np.array_equal(got.d, want.d)
        assert np.array_equal(got.m_tilde, want.m_tilde)
    assert np.array_equal(loaded.beta_dia, mol.beta_dia)
    # a second dump must reproduce the first file byte for byte
    path2 = tmp_path / "mol2.json"
    dump_molecule(loaded, path2, units="natural")
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("units", ["SI", "au"])
def test_physical_roundtrip_through_other_units(tmp_path, units):
    mol = _sample_molecule()
    path = tmp_path / "mol.json"
    dump_molecule(mol, path, units=units)
    loaded, tag = load_molecule(path)
    assert tag == units
    for got, want in zip(loaded.transitions, mol.transitions):
        assert got.omega == pytest.approx(want.omega, rel=1e-13)
        np.testing.assert_allclose(got.d, want.d, rtol=1e-13)
        np.testing.assert_allclose(got.m_tilde, want.m_tilde, rtol=1e-13)
    np.testing.assert_allclose(loaded.beta_dia, mol.beta_dia, rtol=1e-13)


def test_same_physical_molecule_in_si_and_au_agree(tmp_path):
    """Write one molecule twice, once in hartree units and once in SI,
    and require the loaded internal representations to coincide."""
    base = CODATA2018
    au_doc = {
        "name": "phys",
        "units": "au",
        "transitions": [
            {"omega": 0.8, "d": [0.5, -0.2, 0.1],
             "m_imag": [0.05, 0.2, -0.1]},
            {"omega": 1.4, "d": [0.1, 0.3, -0.4],
             "m_imag": [-0.02, 0.07, 0.03]},
        ],
        "beta_dia": [[-0.4, -0.02, 0.0],
                     [-0.02, -0.3, 0.01],
                     [0.0, 0.01, -0.25]],
    }
    omega_scale = base.hartree / base.hbar
    d_scale = base.e * base.bohr_radius
    m_scale = base.hbar * base.e / base.m_e
    beta_scale = base.e ** 2 * base.bohr_radius ** 2 / base.m_e
    si_doc = {
        "name": "phys",
        "units": "SI",
        "transitions": [
            {"omega": t["omega"] * omega_scale,
             "d": [v * d_scale for v in t["d"]],
             "m_imag": [v * m_scale for v in t["m_imag"]]}
            for t in au_doc["transitions"]
        ],
        "beta_dia": [[v * beta_scale for v in row]
                     for row in au_doc["beta_dia"]],
    }
    p_au = tmp_path / "phys_au.json"
    p_si = tmp_path / "phys_si.json"
    p_au.write_text(json.dumps(au_doc))
    p_si.write_text(json.dumps(si_doc))
    mol_au, _ = load_molecule(p_au)
    mol_si, _ = load_molecule(p_si)
    for got, want in zip(mol_si.transitions, mol_au.transitions):
        assert got.omega == pytest.approx(want.omega, rel=1e-12)
        np.testing.assert_allclose(got.d, want.d, rtol=1e-12)
        np.testing.assert_allclose(got.m_tilde, want.m_tilde, rtol=1e-12)
    np.testing.assert_allclose(mol_si.beta_dia, mol_au.beta_dia, rtol=1e-12)


def test_dump_omits_zero_beta_and_load_defaults_it(tmp_path):
    mol = Molecule("nodia", (Transition(1.0, (1, 0, 0), (0, 0, 0)),))
    path = tmp_path / "nodia.json"
    dump_molecule(mol, path)
    doc = json.loads(path.read_text())
    assert "beta_dia" not in doc
    loaded, _ = load_molecule(path)
    assert np.array_equal(loaded.beta_dia, np.zeros((3, 3)))


def test_dump_rejects_unknown_units(tmp_path):
    with pytest.raises(MoleculeFileError):
        dump_molecule(_sample_molecule(), tmp_path / "x.json", units="cgs")


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def _write(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


_GOOD = {
    "name": "ok",
    "units": "natural",
    "transitions": [{"omega": 1.0, "d": [1, 0, 0], "m_imag": [0, 1, 0]}],
}


def test_load_valid_minimal_document(tmp_path):
    mol, units = load_molecule(_write(tmp_path, _GOOD))
    assert units == "natural"
    assert mol.name == "ok"
    assert mol.transitions[0].omega == 1.0


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("name"), "name"),
    (lambda d: d.pop("units"), "units"),
    (lambda d: d.pop("transitions"), "transitions"),
    (lambda d: d.update(units="parsec"), "units"),
    (lambda d: d.update(name=""), "name"),
    (lambda d: d.update(transitions={}), "list"),
    (lambda d: d.update(extra=1), "unknown"),
    (lambda d: d["transitions"][0].pop("omega"), "omega"),
    (lambda d: d["transitions"][0].update(omega=-1.0), "positive"),
    (lambda d: d["transitions"][0].update(omega="one"), "number"),
    (lambda d: d["transitions"][0].update(d=[1, 0]), "3"),
    (lambda d: d["transitions"][0].update(m_imag=[0, "x", 0]), "number"),
    (lambda d: d["transitions"][0].update(spin=0.5), "unknown"),
    (lambda d: d.update(beta_dia=[[1, 0], [0, 1]]), "3x3"),
    (lambda d: d.update(beta_dia=[[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "beta_dia: integer too large"),
])
def test_schema_violations_raise_clear_errors(tmp_path, mutate, fragment):
    doc = json.loads(json.dumps(_GOOD))
    mutate(doc)
    with pytest.raises(MoleculeFileError) as excinfo:
        load_molecule(_write(tmp_path, doc))
    assert fragment.lower() in str(excinfo.value).lower()


def test_asymmetric_beta_rejected_with_file_context(tmp_path):
    doc = json.loads(json.dumps(_GOOD))
    doc["beta_dia"] = [[-1.0, 0.5, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
    with pytest.raises(MoleculeFileError) as excinfo:
        load_molecule(_write(tmp_path, doc))
    assert "symmetric" in str(excinfo.value)


def test_invalid_json_and_missing_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MoleculeFileError) as excinfo:
        load_molecule(path)
    assert "JSON" in str(excinfo.value)
    with pytest.raises(MoleculeFileError):
        load_molecule(tmp_path / "does-not-exist.json")


# ---------------------------------------------------------------------------
# Bundled pair
# ---------------------------------------------------------------------------

def test_bundled_pair_contents():
    mol_a, mol_b = bundled_pair()
    assert mol_a.name == "example-a"
    assert mol_b.name == "example-b"
    assert mol_a.transitions[0].omega == 1.0
    assert mol_b.transitions[0].omega == 1.3
    np.testing.assert_array_equal(mol_a.transitions[0].d, [0.6, 0.2, 0.3])
    np.testing.assert_array_equal(mol_b.transitions[0].m_tilde,
                                  [-0.3, 0.1, 0.6])
    np.testing.assert_allclose(
        mol_a.beta_dia,
        -0.05 * np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2],
                          [0.1, 0.2, 1.0]]), rtol=0, atol=1e-16)
    np.testing.assert_allclose(
        mol_b.beta_dia,
        -0.04 * np.array([[1.8, 0.2, -0.1], [0.2, 1.2, 0.3],
                          [-0.1, 0.3, 0.9]]), rtol=0, atol=1e-16)


def test_bundled_pair_has_full_response_structure():
    for mol in bundled_pair():
        assert len(mol.transitions) == 1
        assert np.linalg.norm(mol.transitions[0].d) > 0
        assert np.linalg.norm(mol.transitions[0].m_tilde) > 0
        assert np.linalg.eigvalsh(mol.beta_dia).max() < 0


# ---------------------------------------------------------------------------
# Whole-array validation: the error names the first bad entry and field
# ---------------------------------------------------------------------------

def _five_entry_doc(units="natural"):
    return {
        "name": "five",
        "units": units,
        "transitions": [
            {"omega": 0.5 + 0.3 * i, "d": [0.1 * i, 0.2, -0.3],
             "m_imag": [0.05, -0.1 * i, 0.2]}
            for i in range(5)
        ],
    }


def _set(key, value):
    return lambda entry: entry.update({key: value})


@pytest.mark.parametrize("units,fault,fragments", [
    ("natural", lambda e: e.pop("d"), ["missing", "'d'"]),
    ("natural", _set("spin", 0.5), ["unknown", "spin"]),
    ("natural", _set("d", [0.1, "x", 0.0]), [".d:", "number", "str"]),
    ("natural", _set("omega", True), [".omega:", "number", "bool"]),
    ("natural", _set("m_imag", [0.1, False, 0.0]), [".m_imag:", "bool"]),
    ("natural", _set("m_imag", [0.1, 0.2]), [".m_imag:", "3 numbers"]),
    ("natural", _set("d", [0.1, float("inf"), 0.0]), [".d ", "finite"]),
    ("natural", _set("m_imag", [float("-inf"), 0.0, 0.0]),
     [".m_imag ", "finite"]),
    ("natural", _set("d", [float("nan"), 0.0, 0.0]), [".d ", "finite"]),
    ("natural", _set("omega", 0.0), [".omega ", "positive"]),
    ("natural", _set("omega", -1.0), [".omega ", "positive"]),
    ("natural", _set("omega", float("inf")), [".omega ", "finite"]),
    # every atomic-unit factor is below one, so a value that is finite in
    # the file and overflows only on conversion needs the SI factors
    ("SI", _set("d", [1e300, 0.0, 0.0]), [".d ", "finite"]),
    ("SI", _set("m_imag", [0.0, -1e300, 0.0]), [".m_imag ", "finite"]),
    # JSON integers have no size limit
    ("natural", _set("d", [10**400, 0.0, 0.0]),
     [".d:", "integer too large for a float"]),
])
def test_bad_entry_is_named(tmp_path, units, fault, fragments):
    doc = _five_entry_doc(units)
    fault(doc["transitions"][3])
    path = tmp_path / "five.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MoleculeFileError) as excinfo, \
            np.errstate(over="ignore"):
        load_molecule(path)
    message = str(excinfo.value)
    assert message.startswith(str(path)), message
    assert "transitions[3]" in message, message
    for fragment in fragments:
        assert fragment in message, (fragment, message)


def test_json_infinity_is_rejected(tmp_path):
    path = tmp_path / "inf.json"
    text = json.dumps(_five_entry_doc()).replace("0.05", "Infinity", 1)
    assert "Infinity" in text
    path.write_text(text)
    with pytest.raises(MoleculeFileError,
                       match=r"transitions\[0\]\.m_imag must be finite"):
        load_molecule(path)


def test_values_finite_in_every_unit_system_load(tmp_path):
    for units in ("natural", "SI", "au"):
        path = tmp_path / f"five-{units}.json"
        path.write_text(json.dumps(_five_entry_doc(units)))
        mol, tag = load_molecule(path)
        assert tag == units and len(mol.omegas) == 5


def test_empty_transition_list_loads(tmp_path):
    doc = {"name": "empty", "units": "au", "transitions": [],
           "beta_dia": [[-0.1, 0, 0], [0, -0.1, 0], [0, 0, -0.1]]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    mol, _ = load_molecule(path)
    assert mol.omegas.shape == (0,)
    assert mol.dipoles.shape == mol.magnetic_dipoles.shape == (0, 3)
    assert mol.tables.shape == (1, 109)
    assert mol.transitions == ()


def test_constructor_and_loaded_file_are_bit_identical(tmp_path):
    rng = np.random.default_rng(17)
    mol = Molecule("random", tuple(
        Transition(float(rng.uniform(0.1, 10.0)), rng.normal(size=3),
                   rng.normal(size=3)) for _ in range(7)))
    path = tmp_path / "random.json"
    dump_molecule(mol, path, units="natural")
    loaded, _ = load_molecule(path)
    for attr in ("omegas", "dipoles", "magnetic_dipoles", "tables",
                 "beta_dia"):
        got, want = getattr(loaded, attr), getattr(mol, attr)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
