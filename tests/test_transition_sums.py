"""The molecule-array contractions against explicit per-transition sums.

Every function below reads a molecule through its transition arrays and
the tables of their outer products it holds; each is compared with the
transition-by-transition loop that defines it, written out here, on
seeded molecules of one to five transitions.
"""

import numpy as np
import pytest

from chivdw.asymptotics import _nr_cc, _nr_dc, _nr_ec_pc
from chivdw.green import Separation
from chivdw.kernels import LEVI_CIVITA
from chivdw.potentials import _isotropic_rotatory
from chivdw.response import MODE_COLUMNS, Molecule, Transition, static_limits

RTOL = 1e-13
SEEDS = range(10)


def seeded_pair(seed):
    rng = np.random.default_rng(seed)

    def build(tag):
        count = int(rng.integers(1, 6))
        trs = tuple(Transition(float(rng.uniform(0.2, 5.0)),
                               rng.normal(size=3), rng.normal(size=3))
                    for _ in range(count))
        m = rng.normal(size=(3, 3))
        return Molecule(f"{tag}{seed}", trs, beta_dia=-(m @ m.T) * 0.05)

    mol_a, mol_b = build("a"), build("b")
    direction = rng.normal(size=3)
    sep = Separation(rng.uniform(0.5, 3.0) * direction
                     / np.linalg.norm(direction), np.zeros(3))
    return mol_a, mol_b, sep


@pytest.mark.parametrize("seed", SEEDS)
def test_static_limits(seed):
    mol, _, _ = seeded_pair(seed)
    alpha0 = np.zeros((3, 3))
    beta0 = np.array(mol.beta_dia)
    chi_prime = np.zeros((3, 3))
    for t in mol.transitions:
        alpha0 += 2.0 * np.outer(t.d, t.d) / t.omega
        beta0 += 2.0 * np.outer(t.m_tilde, t.m_tilde) / t.omega
        chi_prime += 2.0 * np.outer(t.d, t.m_tilde) / t.omega**2
    for got, want in zip(static_limits(mol), (alpha0, beta0, chi_prime)):
        np.testing.assert_allclose(got, want, rtol=RTOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_isotropic_rotatory(seed):
    mol, _, _ = seeded_pair(seed)
    ks = np.geomspace(1e-3, 1e2, 17)
    want = np.zeros_like(ks)
    for t in mol.transitions:
        want += (2.0 * ks / 3.0) * float(np.dot(t.d, t.m_tilde)) / (
            t.omega**2 + ks**2)
    np.testing.assert_allclose(_isotropic_rotatory(mol, ks), want, rtol=RTOL)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("paramagnetic", [False, True])
def test_nonretarded_ec_pc(seed, paramagnetic):
    mol_a, mol_b, sep = seeded_pair(seed)
    R, rhat = sep.R, sep.r_hat
    weight = np.eye(3) - 3.0 * np.outer(rhat, rhat)
    sig = "ipq,q,ij,pr,jr->" if paramagnetic else "ipq,q,ij,rp,jr->"
    total = 0.0
    for ta in mol_a.transitions:
        vec_a = ta.m_tilde if paramagnetic else ta.d
        for tb in mol_b.transitions:
            frac = ta.omega / (ta.omega + tb.omega)
            total += frac * np.einsum(sig, LEVI_CIVITA, rhat,
                                      np.outer(vec_a, vec_a),
                                      np.outer(tb.d, tb.m_tilde), weight)
    want = total / (8.0 * np.pi**2 * R**5)
    assert _nr_ec_pc(mol_a, mol_b, sep, paramagnetic) == pytest.approx(
        want, rel=RTOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_nonretarded_dc(seed):
    mol_a, mol_b, sep = seeded_pair(seed)
    R, rhat = sep.R, sep.r_hat
    weight = 3.0 * np.eye(3) - 7.0 * np.outer(rhat, rhat)
    cross_b = np.zeros((3, 3))
    for tb in mol_b.transitions:
        cross_b += np.outer(tb.d, tb.m_tilde)
    want = 5.0 / (64.0 * np.pi**3 * R**6) * np.einsum(
        "ipq,q,ij,pr,jr->", LEVI_CIVITA, rhat, mol_a.beta_dia, cross_b,
        weight)
    assert _nr_dc(mol_a, mol_b, sep) == pytest.approx(want, rel=RTOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_nonretarded_cc(seed):
    mol_a, mol_b, sep = seeded_pair(seed)
    R, rhat = sep.R, sep.r_hat
    weight = np.eye(3) - 3.0 * np.outer(rhat, rhat)
    total = 0.0
    for ta in mol_a.transitions:
        for tb in mol_b.transitions:
            total += np.einsum("ip,jq,ij,pq->", weight, weight,
                               np.outer(ta.d, ta.m_tilde),
                               np.outer(tb.d, tb.m_tilde)) / (
                ta.omega + tb.omega)
    want = total / (8.0 * np.pi**2 * R**6)
    assert _nr_cc(mol_a, mol_b, sep) == pytest.approx(want, rel=RTOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_enantiomer_equals_the_transition_rebuild(seed):
    mol, _, _ = seeded_pair(seed)
    rebuilt = Molecule(mol.name + "-enantiomer", tuple(
        Transition(t.omega, t.d, -t.m_tilde) for t in mol.transitions),
        mol.beta_dia)
    mirror = mol.enantiomer()
    assert mirror.name == rebuilt.name
    for attr in ("omegas", "dipoles", "magnetic_dipoles", "tables",
                 "beta_dia"):
        assert np.array_equal(getattr(mirror, attr), getattr(rebuilt, attr))
    for got, want in zip(mirror.transitions, rebuilt.transitions):
        assert got.omega == want.omega
        assert np.array_equal(got.d, want.d)
        assert np.array_equal(got.m_tilde, want.m_tilde)


@pytest.mark.parametrize("seed", SEEDS)
def test_tables_hold_the_outer_products(seed):
    mol, _, _ = seeded_pair(seed)
    count = len(mol.omegas)
    for mode, first in MODE_COLUMNS.items():
        table = mol.tables[:, first:first + 36].reshape(-1, 2, 3, 2, 3)
        for k, t in enumerate(mol.transitions):
            dm = np.outer(t.d, t.m_tilde)
            mm = (np.outer(t.m_tilde, t.m_tilde) if mode != "dia"
                  else np.zeros((3, 3)))
            assert np.array_equal(table[k, 0, :, 0], np.outer(t.d, t.d))
            assert np.array_equal(table[k, 1, :, 1], mm)
            assert not table[k, 0, :, 1].any() and not table[k, 1, :, 0].any()
            assert np.array_equal(table[count + k, 0, :, 1], dm)
            assert np.array_equal(table[count + k, 1, :, 0], -dm.T)
            assert not table[count + k, 0, :, 0].any()
            assert not table[count + k, 1, :, 1].any()