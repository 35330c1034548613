"""Every route of the potentials in a medium without vacuum's symmetries.

In free space B_ee = B_mm, B_me = -B_em, and B(r_b, r_a) holds the blocks
of B(r_a, r_b) transposed, so a route that reads one propagator block where
another belongs gives the vacuum value all the same.
``oracles.SyntheticMedium`` has none of those symmetries.  Here the sixteen
tuples (``u_terms``), the twelve named components, the ten rows and the
five direct forms in that medium are checked against the plain 3x3 traces
of its blocks in ``oracles``, integrated with scipy; the direct forms
against the components in its reciprocal variant, where B_ee != B_mm
still; and TOTAL against the duality rotation of molecules and medium
together.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from chivdw.green import Separation
from chivdw.potentials import (LABEL_TUPLES, ROW_SPECS, ComponentLabel,
                               u_cc_direct, u_dc_direct, u_ec_direct,
                               u_mc_direct, u_named, u_pc_direct, u_row,
                               u_terms)
from chivdw.response import Molecule

MEDIUM = oracles.SyntheticMedium()
MODES = ("full", "para", "dia")
ALL16 = LABEL_TUPLES[ComponentLabel.TOTAL]
SEP = Separation(1.3 * np.array([2.0, -1.0, 2.0]) / 3.0, np.zeros(3))

# molecule A's beta mode for the named components that restrict it
LABEL_MODE_A = {ComponentLabel.PC: "para", ComponentLabel.DC: "dia"}

# the direct single-trace forms: molecule A's beta mode and sign/pi times
# traces tr[A_a B(r_a, r_b) A_b B(r_b, r_a)], one tuple of response and
# propagator block labels per trace
DIRECT = {
    "EC": (u_ec_direct, "full", 1.0, (("ee", "ee", "em", "em"),)),
    "MC": (u_mc_direct, "full", 1.0, (("mm", "mm", "me", "me"),)),
    "PC": (u_pc_direct, "para", 1.0, (("mm", "mm", "me", "me"),)),
    "DC": (u_dc_direct, "dia", 1.0, (("mm", "mm", "me", "me"),)),
    "CC": (u_cc_direct, "full", -1.0, (("em", "mm", "me", "ee"),
                                       ("em", "em", "em", "em"))),
}


def _molecule(name, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    return Molecule.from_arrays(name, rng.uniform(0.5, 2.5, 2),
                                rng.normal(size=(2, 3)),
                                rng.normal(size=(2, 3)), -0.03 * (m @ m.T))


PAIR = (_molecule("medium-a", 21), _molecule("medium-b", 22))


def _data(mol):
    return (np.array(mol.omegas), np.array(mol.dipoles),
            np.array(mol.magnetic_dipoles), np.array(mol.beta_dia))


@pytest.fixture(scope="module")
def reference():
    """The medium's tuples for every pair of beta modes, {(mode_a, mode_b):
    (16,)}, and the direct forms, {form: value}, integrated together."""
    a, b = (_data(mol) for mol in PAIR)
    parts = [oracles.sixteen_tuples_integrand(a, b, SEP.r_a, SEP.r_b, MEDIUM,
                                              modes)
             for modes in [(ma, mb) for ma in MODES for mb in MODES]]
    direct = [(sign / math.pi, oracles.block_traces_integrand(
        a, b, SEP.r_a, SEP.r_b, traces, MEDIUM, mode))
        for _, mode, sign, traces in DIRECT.values()]

    def f(xi):
        return np.concatenate([part(xi) for part in parts]
                              + [factor * form(xi).sum(keepdims=True)
                                 for factor, form in direct])

    scales = [*PAIR[0].omegas, *PAIR[1].omegas, 1.0 / SEP.R]
    size = sum(np.abs(f(xi)) * xi for xi in np.geomspace(0.1, 10.0, 5)
               / SEP.R)
    values = oracles.quad_vec_geometric(f, min(scales) / 1e3,
                                        200.0 * max(scales), size)
    tuples = values[:-len(DIRECT)].reshape(len(MODES), len(MODES), 16)
    return ({(ma, mb): tuples[i, k] for i, ma in enumerate(MODES)
             for k, mb in enumerate(MODES)},
            dict(zip(DIRECT, values[-len(DIRECT):])))


def _sum(reference, terms):
    """The reference sum of ``terms`` and the sum of their sizes."""
    tuples = [reference[0][ma, mb][ALL16.index(tup)]
              for tup, ma, mb in terms]
    return sum(tuples), sum(abs(t) for t in tuples)


def _assert_close(res, want, size, what):
    assert res.converged, what
    assert abs(res.value - want) <= 1e-9 * size, (what, res.value, want)


def test_the_medium_has_none_of_vacuums_symmetries():
    xis = np.array([0.0, 0.7, 3.0])
    ab, ba = MEDIUM.bind(SEP.r_a[None], SEP.r_b[None])(xis)
    ab, ba = ab[0, 1], ba[0, 1]
    assert not np.allclose(ab[0, 0], ab[1, 1])
    assert not np.allclose(ab[0, 1], -ab[1, 0])
    assert not np.allclose(ba, ab.swapaxes(2, 3))


def test_sixteen_tuples(reference):
    res = u_terms(*PAIR, SEP, [(tup, "full", "full") for tup in ALL16],
                  provider=MEDIUM)
    assert res.converged
    want = reference[0]["full", "full"]
    assert np.all(np.abs(res.value - want) <= 1e-9 * np.abs(want)), (
        res.value, want)


@pytest.mark.parametrize("label", list(ComponentLabel),
                         ids=[label.value for label in ComponentLabel])
def test_named_components(reference, label):
    mode_a = LABEL_MODE_A.get(label, "full")
    terms = [(tup, mode_a, "full") for tup in LABEL_TUPLES[label]]
    res = u_named(*PAIR, SEP, label, provider=MEDIUM)
    _assert_close(res, *_sum(reference, terms), label)


@pytest.mark.parametrize("row", list(ROW_SPECS))
def test_rows(reference, row):
    res = u_row(*PAIR, SEP, row, provider=MEDIUM)
    _assert_close(res, *_sum(reference, ROW_SPECS[row]), row)


@pytest.mark.parametrize("form", list(DIRECT))
def test_direct_forms(reference, form):
    res = DIRECT[form][0](*PAIR, SEP, provider=MEDIUM)
    want = reference[1][form]
    _assert_close(res, want, abs(want), form)


@pytest.mark.parametrize("form", list(DIRECT))
def test_direct_forms_are_the_components_in_a_reciprocal_medium(form):
    # the direct forms fold a component's tuples together with free
    # space's reciprocity and B_me = -B_em, not with B_ee = B_mm
    medium = oracles.SyntheticMedium(reciprocal=True)
    res = DIRECT[form][0](*PAIR, SEP, provider=medium)
    named = u_named(*PAIR, SEP, form, provider=medium)
    assert res.converged and named.converged
    assert res.value == pytest.approx(named.value, rel=1e-9)


class _Rotated:
    """``MEDIUM`` with both block matrices rotated as D B D^T by the
    duality rotation D(theta) = [[cos, sin], [-sin, cos]] on the
    electric-magnetic block indices, as ``duality=theta`` rotates A."""

    def __init__(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        self._d = np.array([[c, s], [-s, c]])

    def bind(self, r_a, r_b):
        blocks = MEDIUM.bind(r_a, r_b)

        def rotated(xis):
            return tuple(np.einsum("ai,bj,pnijkl->pnabkl", self._d, self._d,
                                   b) for b in blocks(xis))

        return rotated


def test_total_is_invariant_under_a_joint_duality_rotation():
    # tr[A_a B A_b B'] is unchanged when every factor is rotated as
    # D X D^T; rotating the molecules alone changes it in this medium
    theta = 0.7
    plain = u_named(*PAIR, SEP, "TOTAL", provider=MEDIUM)
    joint = u_named(*PAIR, SEP, "TOTAL", provider=_Rotated(theta),
                    duality=theta)
    alone = u_named(*PAIR, SEP, "TOTAL", provider=MEDIUM, duality=theta)
    assert plain.converged and joint.converged and alone.converged
    assert joint.value == pytest.approx(plain.value, rel=1e-9)
    assert abs(alone.value - plain.value) > 1e-3 * abs(plain.value)
