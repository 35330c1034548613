"""The independent reference against closed forms and exact symmetries."""

import numpy as np
import pytest

import reference
import workloads

ORIGIN = np.zeros(3)


def _mols(docs):
    return [reference.Mol.from_document(doc, workloads.UNIT_FACTORS["natural"])
            for doc in docs]


@pytest.fixture(scope="module")
def bundled():
    docs = workloads.bundled_docs()
    return _mols([docs["bundled:a"], docs["bundled:b"]])


@pytest.fixture(scope="module")
def seeded():
    spec = workloads.total(7)
    mols = spec["molecules"]
    return _mols([mols["total-2a"], mols["total-2b"]])


@pytest.mark.parametrize("R", [1e-5, 1e-6, 1e-8])
@pytest.mark.parametrize("direction", [(0.0, 0.0, 1.0), (0.6, -0.3, 0.74)])
def test_near_zone_ee_is_londons_law(bundled, R, direction):
    a, b = bundled
    n_hat = np.asarray(direction) / np.linalg.norm(direction)
    got = reference.potential(a, b, R * n_hat, ORIGIN,
                              reference.COMPONENTS["EE"])
    want = reference.london_ee(a.d[0], a.omegas[0], b.d[0], b.omegas[0],
                               n_hat, R)
    assert abs(got - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("R", [0.5, 4.0])
def test_enantiomer_flips_exactly_the_chiral_tuples(seeded, R):
    a, b = seeded
    r_a = R * np.array([0.36, 0.48, 0.8])
    for tup in reference.TUPLES:
        terms = reference.terms_for("tuple", tup)
        base = reference.potential(a, b, r_a, ORIGIN, terms)
        mirrored_b = reference.potential(a, b.mirrored(), r_a, ORIGIN, terms)
        mirrored_a = reference.potential(a.mirrored(), b, r_a, ORIGIN, terms)
        sign_b = -1.0 if tup[2] != tup[3] else 1.0
        sign_a = -1.0 if tup[0] != tup[1] else 1.0
        assert base != 0.0
        assert mirrored_b == pytest.approx(sign_b * base, rel=1e-13)
        assert mirrored_a == pytest.approx(sign_a * base, rel=1e-13)


def test_mirrored_matches_the_programs_enantiomer(seeded):
    chivdw = pytest.importorskip("chivdw")
    a, _ = seeded
    mol = chivdw.Molecule("a", tuple(
        chivdw.Transition(w, d, m) for w, d, m in zip(a.omegas, a.d, a.m)),
        a.beta_dia).enantiomer()
    assert np.array_equal(mol.magnetic_dipoles, a.mirrored().m)
    assert np.array_equal(mol.dipoles, a.d)


@pytest.mark.parametrize("R", [1e-3, 0.7, 6.0, 200.0])
def test_ten_rows_sum_to_total(seeded, R):
    a, b = seeded
    r_a = R * np.array([0.0, 0.6, 0.8])
    rows = sum(reference.potential(a, b, r_a, ORIGIN, terms)
               for terms in reference.ROWS.values())
    total = reference.potential(a, b, r_a, ORIGIN,
                                reference.COMPONENTS["TOTAL"])
    assert abs(rows - total) <= 1e-10 * abs(total)


def test_rows_partition_the_sixteen_tuples():
    seen = {}
    for terms in reference.ROWS.values():
        for tup, mode_a, mode_b in terms:
            seen.setdefault(tup, set()).add((mode_a, mode_b))
    assert sorted(seen) == sorted(reference.TUPLES)
    for tup, modes in seen.items():
        split_a = tup[:2] == "mm"
        split_b = tup[2:] == "mm"
        expected = {(ma, mb)
                    for ma in (("para", "dia") if split_a else ("full",))
                    for mb in (("para", "dia") if split_b else ("full",))}
        assert modes == expected, tup


def test_static_propagator_is_the_dipole_field():
    v = np.array([0.3, -1.2, 0.5])
    R = np.linalg.norm(v)
    block = reference.propagator(v, ORIGIN, 0.0)
    t = (np.eye(3) - 3.0 * np.outer(v, v) / R**2) / (4.0 * np.pi * R**3)
    assert np.allclose(block[:3, :3], t, rtol=1e-14, atol=0.0)
    assert np.array_equal(block[:3, 3:], np.zeros((3, 3)))


def test_ops_at_a_zero_of_total_are_not_drawn():
    run = pytest.importorskip("run")
    docs = workloads.bundled_docs()
    direction = [-0.8447649294427166, -0.40987135056894003,
                 0.34406059054537896]
    at_zero = {"pair": ["bundled:a", "bundled:b"], "R": 4.2629525001517266,
               "direction": direction}
    ref = run.Reference()
    assert not ref.clear_of_zeros("total", at_zero, docs)
    assert ref.clear_of_zeros("total", {**at_zero, "R": 3.0}, docs)
