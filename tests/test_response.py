"""Tests for molecular response tensors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chivdw import response
from chivdw.response import (
    MODE_COLUMNS,
    ZERO_COLUMN,
    Molecule,
    Transition,
    _rotate_blocks,
    mode_tables,
    response_arrays,
    response_from_table,
    response_table,
    static_limits,
)

from oracles import ALPHA_SINGLE_ZZ, CHI_PRIME_SINGLE_ZZ, alpha_tensor, chi_tensor

EZ = np.array([0.0, 0.0, 1.0])


def single_z_molecule(m_scale=1.0):
    return Molecule(
        name="single-z",
        transitions=(Transition(omega=1.0, d=EZ, m_tilde=m_scale * EZ),),
    )


def at_xi(mol, xi, theta=None):
    """(alpha, beta, chi_em, chi_me) of ``mol`` at the one frequency xi,
    rotated by the duality angle ``theta`` when one is given."""
    xis = np.array([xi])
    return tuple(t[0] for t in response_arrays(mol, xis, duality=theta))


def generic_molecule(seed=0, n=3, with_dia=True):
    rng = np.random.default_rng(seed)
    trs = tuple(
        Transition(
            omega=float(rng.uniform(0.5, 3.0)),
            d=rng.normal(size=3),
            m_tilde=rng.normal(size=3),
        )
        for _ in range(n)
    )
    if with_dia:
        m = rng.normal(size=(3, 3))
        beta_dia = -(m @ m.T) * 0.05
    else:
        beta_dia = np.zeros((3, 3))
    return Molecule(name=f"gen{seed}", transitions=trs, beta_dia=beta_dia)


class TestConstruction:
    def test_transition_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Transition(omega=0.0, d=EZ, m_tilde=EZ)
        with pytest.raises(ValueError):
            Transition(omega=-1.0, d=EZ, m_tilde=EZ)

    def test_transition_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            Transition(omega=1.0, d=[1.0, 2.0], m_tilde=EZ)
        with pytest.raises(ValueError):
            Transition(omega=1.0, d=[np.nan, 0, 0], m_tilde=EZ)

    def test_molecule_rejects_asymmetric_beta_dia(self):
        bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            Molecule(name="x", transitions=(), beta_dia=bad)

    def test_molecule_rejects_positive_beta_dia(self):
        with pytest.raises(ValueError, match="negative semi-definite"):
            Molecule(name="x", transitions=(), beta_dia=np.eye(3))

    def test_molecule_accepts_negative_definite_beta_dia(self):
        mol = Molecule(name="x", transitions=(), beta_dia=-np.eye(3))
        assert np.allclose(mol.beta_dia, -np.eye(3))

    def test_cached_arrays_match_transitions(self):
        mol = generic_molecule(seed=5)
        assert mol.omegas.shape == (3,)
        assert mol.dipoles.shape == (3, 3)
        for i, t in enumerate(mol.transitions):
            assert mol.omegas[i] == t.omega
            assert np.array_equal(mol.dipoles[i], t.d)
            assert np.array_equal(mol.magnetic_dipoles[i], t.m_tilde)


class TestPinnedValues:
    def test_alpha_single_transition_at_unit_frequency(self):
        # omega = 1, d = z-hat: alpha_zz(i*1) = 2*1*1/(1+1) = 1
        alpha = at_xi(single_z_molecule(), 1.0)[0]
        assert alpha[2, 2] == pytest.approx(ALPHA_SINGLE_ZZ, abs=1e-15)
        expected = np.diag([0.0, 0.0, ALPHA_SINGLE_ZZ])
        np.testing.assert_allclose(alpha, expected, atol=1e-15)

    def test_static_alpha_single_transition(self):
        alpha0, beta0, chi_prime = static_limits(single_z_molecule())
        np.testing.assert_allclose(alpha0, np.diag([0, 0, 2.0]), atol=1e-15)
        np.testing.assert_allclose(beta0, np.diag([0, 0, 2.0]), atol=1e-15)

    def test_chi_prime_single_transition(self):
        # omega = 1, d = m_tilde = z-hat: chi' = 2*1*1/1^2 = 2 on zz
        _, _, chi_prime = static_limits(single_z_molecule())
        assert chi_prime[2, 2] == pytest.approx(CHI_PRIME_SINGLE_ZZ, abs=1e-15)

    def test_chi_em_vanishes_at_zero_frequency(self):
        _, _, chi_em, chi_me = at_xi(generic_molecule(seed=1), 0.0)
        np.testing.assert_allclose(chi_em, 0.0, atol=1e-300)
        np.testing.assert_allclose(chi_me, 0.0, atol=1e-300)

    def test_against_independent_oracle_tensors(self):
        mol = generic_molecule(seed=2)
        xis = np.array([0.0, 0.3, 1.7, 9.0])
        a_or = sum(
            alpha_tensor(t.omega, t.d, xis) for t in mol.transitions
        )
        c_or = sum(
            chi_tensor(t.omega, t.d, t.m_tilde, xis) for t in mol.transitions
        )
        alpha, beta, chi_em, chi_me = response_arrays(mol, xis)
        np.testing.assert_allclose(alpha, a_or, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(chi_em, c_or, rtol=1e-14, atol=1e-16)


class TestInvariants:
    def test_lloyd_relation_exact(self):
        mol = generic_molecule(seed=3)
        for xi in (0.0, 0.4, 2.5):
            _, _, chi_em, chi_me = at_xi(mol, xi)
            assert np.array_equal(chi_me, -chi_em.T)

    def test_alpha_positive_semidefinite_everywhere(self):
        mol = generic_molecule(seed=4)
        for xi in (0.0, 0.1, 1.0, 10.0, 1e4):
            eig = np.linalg.eigvalsh(at_xi(mol, xi)[0])
            assert np.min(eig) >= -1e-15

    def test_alpha_eigenvalues_monotone_in_frequency(self):
        mol = generic_molecule(seed=6)
        xis = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
        alpha, _, _, _ = response_arrays(mol, xis)
        traces = np.einsum('nii->n', alpha)
        assert np.all(np.diff(traces) < 0.0)

    def test_zero_frequency_matches_static_limits(self):
        mol = generic_molecule(seed=7)
        alpha, beta, _, _ = at_xi(mol, 0.0)
        alpha0, beta0, _ = static_limits(mol)
        np.testing.assert_allclose(alpha, alpha0, rtol=1e-14)
        np.testing.assert_allclose(beta, beta0, rtol=1e-14)

    def test_enantiomer_flips_cross_response_only(self):
        mol = generic_molecule(seed=8)
        mirror = mol.enantiomer()
        al, be, ce, cm = at_xi(mol, 0.7)
        al_m, be_m, ce_m, cm_m = at_xi(mirror, 0.7)
        np.testing.assert_allclose(al_m, al, atol=1e-300)
        np.testing.assert_allclose(be_m, be, atol=1e-300)
        np.testing.assert_allclose(ce_m, -ce, atol=1e-300)
        np.testing.assert_allclose(cm_m, -cm, atol=1e-300)

    def test_empty_molecule_has_only_diamagnetic_response(self):
        bd = -0.3 * np.eye(3)
        mol = Molecule(name="empty", transitions=(), beta_dia=bd)
        alpha, beta, chi_em, _ = at_xi(mol, 1.3)
        np.testing.assert_allclose(alpha, 0.0, atol=1e-300)
        np.testing.assert_allclose(chi_em, 0.0, atol=1e-300)
        np.testing.assert_allclose(beta, bd, atol=1e-300)

    def test_beta_modes(self):
        mol = generic_molecule(seed=9)
        xis = np.array([0.8])
        _, full, _, _ = response_arrays(mol, xis, beta_mode="full")
        _, para, _, _ = response_arrays(mol, xis, beta_mode="para")
        _, dia, _, _ = response_arrays(mol, xis, beta_mode="dia")
        np.testing.assert_allclose(full, para + dia, rtol=1e-15)
        np.testing.assert_allclose(dia[0], mol.beta_dia, atol=1e-300)
        with pytest.raises(ValueError):
            response_arrays(mol, xis, beta_mode="bogus")


class TestResponseTable:
    @pytest.mark.parametrize("mode", ["full", "para", "dia"])
    @pytest.mark.parametrize("theta", [None, 0.77])
    def test_table_product_matches_response_arrays(self, mode, theta):
        mol = generic_molecule(seed=16)
        xis = np.array([0.0, 0.2, 1.4, 3.3])
        al, be, ce, cm = response_arrays(mol, xis, mode, duality=theta)
        table = response_table(mol, mode, theta)
        assert table.shape == (7, 6, 6)
        got = response_from_table(mol, table.reshape(7, 36), slice(None),
                                  xis).reshape(-1, 6, 6)
        np.testing.assert_allclose(got, np.block([[al, ce], [cm, be]]),
                                   rtol=1e-14, atol=1e-15)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="beta_mode"):
            response_table(generic_molecule(seed=16), "bogus")


class TestDuality:
    def test_quarter_turn_swaps_blocks(self):
        mol = generic_molecule(seed=11)
        al, be, ce, cm = at_xi(mol, 1.1)
        al_r, be_r, ce_r, cm_r = at_xi(mol, 1.1, math.pi / 2)
        np.testing.assert_allclose(al_r, be, atol=1e-15)
        np.testing.assert_allclose(be_r, al, atol=1e-15)
        np.testing.assert_allclose(ce_r, -cm, atol=1e-15)
        np.testing.assert_allclose(cm_r, -ce, atol=1e-15)

    def test_rotation_matches_written_out_blocks(self):
        # A' = D A D^T with D = [[c, s], [-s, c]], block by block
        mol = generic_molecule(seed=16)
        theta = 0.53
        c, s = math.cos(theta), math.sin(theta)
        al, be, ce, cm = at_xi(mol, 0.7)
        expected = (
            c * c * al + c * s * (ce + cm) + s * s * be,           # alpha
            s * s * al - c * s * (ce + cm) + c * c * be,           # beta
            -c * s * al + c * c * ce - s * s * cm + c * s * be,    # chi_em
            -c * s * al - s * s * ce + c * c * cm + c * s * be,    # chi_me
        )
        for got, value in zip(at_xi(mol, 0.7, theta), expected):
            np.testing.assert_allclose(got, value, rtol=1e-13, atol=1e-14)

    def test_rotation_roundtrip(self):
        mol = generic_molecule(seed=12)
        theta = 0.37
        rotated = response_arrays(mol, np.array([0.6]), duality=theta)
        back = _rotate_blocks(-theta, *rotated)
        for got, want in zip(back, response_arrays(mol, np.array([0.6]))):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_rotated_set_may_break_lloyd(self):
        # generic molecules have alpha != beta, so a rotation mixes them
        # into the off-diagonal blocks asymmetrically
        _, _, chi_em, chi_me = at_xi(generic_molecule(seed=13), 0.5,
                                     math.pi / 4)
        assert np.max(np.abs(chi_me + chi_em.T)) > 1e-6

    def test_batched_rotation_matches_per_frequency(self):
        mol = generic_molecule(seed=15)
        xis = np.array([0.2, 1.4, 3.3])
        theta = 0.77
        al, be, ce, cm = response_arrays(mol, xis, duality=theta)
        for i, xi in enumerate(xis):
            rot = at_xi(mol, xi, theta)
            np.testing.assert_allclose(al[i], rot[0], atol=1e-14)
            np.testing.assert_allclose(be[i], rot[1], atol=1e-14)
            np.testing.assert_allclose(ce[i], rot[2], atol=1e-14)
            np.testing.assert_allclose(cm[i], rot[3], atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    omega=st.floats(0.1, 10.0),
    xi=st.floats(0.0, 50.0),
    dz=st.floats(-2.0, 2.0),
)
def test_single_transition_alpha_closed_form(omega, xi, dz):
    d = np.array([0.0, 0.0, dz])
    mol = Molecule(name="h", transitions=(Transition(omega, d, EZ),))
    alpha = at_xi(mol, xi)[0]
    expected = 2.0 * omega * dz * dz / (omega**2 + xi**2)
    assert alpha[2, 2] == pytest.approx(expected, rel=1e-13, abs=1e-300)


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), xi=st.floats(0.0, 5.0))
def test_rotation_preserves_block_trace_sum(theta, xi):
    # tr(alpha) + tr(beta) is the trace of the 6x6 block matrix and is
    # invariant under the orthogonal duality rotation
    mol = generic_molecule(seed=16)
    alpha, beta, _, _ = at_xi(mol, xi)
    alpha_r, beta_r, _, _ = at_xi(mol, xi, theta)
    before = np.trace(alpha) + np.trace(beta)
    after = np.trace(alpha_r) + np.trace(beta_r)
    assert after == pytest.approx(before, rel=1e-12, abs=1e-15)


class TestMoleculeArrays:
    def test_arrays_are_read_only_and_the_molecule_immutable(self):
        mol = generic_molecule(seed=3)
        for arr in (mol.omegas, mol.dipoles, mol.magnetic_dipoles,
                    mol.tables):
            assert not arr.flags.writeable
        with pytest.raises(AttributeError):
            mol.omegas = np.ones(3)
        with pytest.raises(AttributeError):
            mol.name = "other"

    def test_from_arrays_matches_the_transition_constructor(self):
        mol = generic_molecule(seed=4)
        again = Molecule.from_arrays(mol.name, mol.omegas, mol.dipoles,
                                     mol.magnetic_dipoles, mol.beta_dia)
        for attr in ("omegas", "dipoles", "magnetic_dipoles", "tables"):
            assert np.array_equal(getattr(again, attr), getattr(mol, attr))

    @pytest.mark.parametrize("column,value,message", [
        (0, 0.0, r"transitions\[2\]\.omega must be positive"),
        (0, np.nan, r"transitions\[2\]\.omega must be positive"),
        (2, np.inf, r"transitions\[2\]\.d must be finite"),
        (5, np.nan, r"transitions\[2\]\.m_tilde must be finite"),
    ])
    def test_from_arrays_names_the_first_bad_entry(self, column, value,
                                                   message):
        rows = np.ones((4, 7))
        rows[2, column] = value
        rows[3, column] = value
        with pytest.raises(ValueError, match=message):
            Molecule.from_arrays("x", rows[:, 0], rows[:, 1:4], rows[:, 4:])

    def test_from_arrays_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            Molecule.from_arrays("x", [1.0, 2.0], np.ones((3, 3)),
                                 np.ones((2, 3)))

    def test_transitions_are_built_from_the_arrays(self):
        mol = generic_molecule(seed=5)
        again = Molecule.from_arrays(mol.name, mol.omegas, mol.dipoles,
                                     mol.magnetic_dipoles)
        for got, want in zip(again.transitions, mol.transitions):
            assert got.omega == want.omega
            assert np.array_equal(got.d, want.d)
            assert np.array_equal(got.m_tilde, want.m_tilde)


def _assigned_table(mol, mode, theta=None):
    """A mode's (2T+1, 36) table written out block by block: d d^T and,
    but for "dia", m m^T in rows 0..T-1; d m^T and -(d m^T)^T in rows
    T..2T-1; beta_dia in row 2T but for "para"; then rotated."""
    count = len(mol.omegas)
    table = np.zeros((2 * count + 1, 2, 3, 2, 3))
    for t, (d, m) in enumerate(zip(mol.dipoles, mol.magnetic_dipoles)):
        table[t, 0, :, 0] = np.outer(d, d)
        if mode != "dia":
            table[t, 1, :, 1] = np.outer(m, m)
        table[count + t, 0, :, 1] = np.outer(d, m)
        table[count + t, 1, :, 0] = -np.outer(d, m).T
    if mode != "para":
        table[-1, 1, :, 1] = mol.beta_dia
    if theta is not None:
        blocks = [table[:, i, :, j] for i, j in ((0, 0), (1, 1), (0, 1),
                                                 (1, 0))]
        for (i, j), block in zip(((0, 0), (1, 1), (0, 1), (1, 0)),
                                 _rotate_blocks(theta, *blocks)):
            table[:, i, :, j] = block
    return table.reshape(-1, 36)


def _molecule_with(count):
    rng = np.random.default_rng(count)
    m = rng.normal(size=(3, 3))
    return Molecule.from_arrays(f"t{count}", rng.uniform(0.5, 2.5, count),
                                rng.normal(size=(count, 3)),
                                rng.normal(size=(count, 3)), -0.03 * (m @ m.T))


class TestHeldTables:
    @pytest.mark.parametrize("count", [0, 1, 64])
    @pytest.mark.parametrize("mode", ["full", "para", "dia"])
    def test_each_mode_is_its_response_table(self, count, mode):
        mol = _molecule_with(count)
        first = MODE_COLUMNS[mode]
        held = mol.tables[:, first:first + 36]
        want = response_table(mol, mode).reshape(-1, 36)
        # entry for entry, signed zeros included
        assert np.ascontiguousarray(held).tobytes() == want.tobytes()
        assert np.array_equal(held, _assigned_table(mol, mode))

    @pytest.mark.parametrize("count", [0, 1, 64])
    def test_layout_and_zero_column(self, count):
        mol = _molecule_with(count)
        assert mol.tables.shape == (2 * count + 1, ZERO_COLUMN + 1)
        assert sorted(MODE_COLUMNS.values()) == [0, 36, 72]
        assert ZERO_COLUMN == 108
        assert not mol.tables[:, ZERO_COLUMN].any()

    @pytest.mark.parametrize("theta", [math.pi / 5, math.pi / 2, 0.53])
    def test_rotated_tables_rotate_every_mode(self, theta):
        mol = _molecule_with(3)
        rotated = mode_tables(mol, theta)
        for mode, first in MODE_COLUMNS.items():
            want = response_table(mol, mode, theta).reshape(-1, 36)
            assert (np.ascontiguousarray(rotated[:, first:first + 36])
                    .tobytes() == want.tobytes())
            assert np.allclose(rotated[:, first:first + 36],
                               _assigned_table(mol, mode, theta),
                               rtol=0.0, atol=1e-15)
        assert not rotated[:, ZERO_COLUMN].any()

    def test_tables_are_read_only(self):
        mol = _molecule_with(2)
        assert not mol.tables.flags.writeable
        with pytest.raises(ValueError):
            mol.tables[0, 0] = 1.0
        with pytest.raises(AttributeError):
            mol.tables = np.zeros((5, 109))

    def test_every_constructor_builds_its_own(self):
        mol = generic_molecule(seed=6)
        again = Molecule.from_arrays(mol.name, mol.omegas, mol.dipoles,
                                     mol.magnetic_dipoles, mol.beta_dia)
        mirror = mol.enantiomer()
        assert again.tables is not mol.tables
        assert again.tables.tobytes() == mol.tables.tobytes()
        assert mirror.tables.tobytes() == mode_tables(mirror).tobytes()
        # the mirror image negates m, so d m^T and its transpose flip sign
        count = len(mol.omegas)
        assert np.array_equal(mirror.tables[count:-1],
                              -mol.tables[count:-1])
        assert np.array_equal(mirror.tables[:count], mol.tables[:count])


def test_readers_without_an_angle_build_no_table(monkeypatch):
    mol, empty = _molecule_with(3), _molecule_with(0)

    def no_build(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(response, "mode_tables", no_build)
    xis = np.geomspace(1e-2, 1e2, 7)
    for mode in ("full", "para", "dia"):
        assert response_arrays(mol, xis, mode)[0].shape == (7, 3, 3)
        assert response_table(mol, mode).shape == (7, 6, 6)
    assert static_limits(mol)[0].shape == (3, 3)
    # a copy, also where the held columns are contiguous
    assert not np.shares_memory(response_table(empty), empty.tables)
    # an angle still rotates a new copy
    with pytest.raises(AssertionError, match="a table was built"):
        response_table(mol, "full", math.pi / 5)
