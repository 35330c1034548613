"""Tests for asymptotic distance laws and power-law fitting."""

import math

import numpy as np
import pytest

from chivdw.asymptotics import (
    FRAMEWORK_NONRETARDED,
    NONRETARDED_LABELS,
    REFERENCE_NONRETARDED,
    REFERENCE_RETARDED,
    REFERENCE_SIGNS,
    RETARDED_LABELS,
    PowerLawFit,
    fit_power_law,
    nonretarded_window,
    retarded_window,
    u_nonretarded,
    u_retarded,
)
from chivdw.green import Separation
from chivdw.potentials import u_cc_isotropic, u_named, u_row
from chivdw.quad import QuadSpec
from chivdw.response import Molecule, Transition

EYE = np.eye(3)
NHAT = np.array([1.0, 2.0, 2.0]) / 3.0


def generic_molecule(seed, n=2):
    rng = np.random.default_rng(seed)
    trs = tuple(
        Transition(float(rng.uniform(0.7, 1.8)), rng.normal(size=3),
                   rng.normal(size=3))
        for _ in range(n)
    )
    m = rng.normal(size=(3, 3))
    return Molecule(f"m{seed}", trs, beta_dia=-(m @ m.T) * 0.03)


def isotropic_molecule(name, omega, d_scale, m_scale):
    return Molecule(name, tuple(
        Transition(omega, d_scale * EYE[i], m_scale * EYE[i])
        for i in range(3)))


@pytest.fixture(scope="module")
def pair():
    return generic_molecule(21), generic_molecule(22)


class TestPowerLawFit:
    def test_synthetic_power_law_recovered_exactly(self):
        rs = np.geomspace(1.0, 10.0, 9)
        fit = fit_power_law(rs, -3.2 * rs**-7.0)
        assert fit.exponent == pytest.approx(-7.0, abs=1e-12)
        assert fit.sign == -1
        assert fit.residual < 1e-12
        assert fit.coefficient_log == pytest.approx(math.log(3.2), abs=1e-12)
        assert fit.window == (1.0, 10.0)

    def test_positive_data_sign(self):
        rs = np.geomspace(2.0, 20.0, 7)
        fit = fit_power_law(rs, 0.5 * rs**-4.0)
        assert fit.sign == 1
        assert fit.exponent == pytest.approx(-4.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="five"):
            fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.3, 0.2])

    def test_mixed_sign_rejected(self):
        rs = np.geomspace(1.0, 5.0, 6)
        us = rs**-7.0
        us[3] *= -1.0
        with pytest.raises(ValueError, match="sign"):
            fit_power_law(rs, us)

    def test_zero_value_rejected(self):
        rs = np.geomspace(1.0, 5.0, 6)
        us = rs**-7.0
        us[2] = 0.0
        with pytest.raises(ValueError, match="sign"):
            fit_power_law(rs, us)

    def test_nonpositive_separation_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([-1.0, 1.0, 2.0, 3.0, 4.0], [1.0] * 5)


class TestWindows:
    def test_retarded_window_range(self, pair):
        omega_min = min(pair[0].omegas.min(), pair[1].omegas.min())
        rs = retarded_window(*pair)
        assert rs[0] * omega_min == pytest.approx(50.0, rel=1e-12)
        assert rs[-1] * omega_min == pytest.approx(500.0, rel=1e-12)
        assert np.all(np.diff(rs) > 0.0)

    def test_nonretarded_window_range(self, pair):
        omega_max = max(pair[0].omegas.max(), pair[1].omegas.max())
        rs = nonretarded_window(*pair, n_points=7)
        assert rs.shape == (7,)
        assert rs[0] * omega_max == pytest.approx(1e-4, rel=1e-12)
        assert rs[-1] * omega_max == pytest.approx(1e-3, rel=1e-12)

    def test_windows_need_transitions(self):
        empty = Molecule("none", ())
        with pytest.raises(ValueError, match="transition"):
            retarded_window(empty, empty)


class TestClosedForms:
    def test_label_validation(self, pair):
        sep = Separation(NHAT, np.zeros(3))
        with pytest.raises(ValueError):
            u_retarded(*pair, sep, "PC")
        with pytest.raises(ValueError):
            u_nonretarded(*pair, sep, "MC")

    def test_far_field_homogeneity(self, pair):
        # closed forms scale exactly: EC, MC like R^-8; CC like R^-9
        s1 = Separation(3.0 * NHAT, np.zeros(3))
        s2 = Separation(6.0 * NHAT, np.zeros(3))
        for label, power in (("EC", -8), ("MC", -8), ("CC", -9)):
            v1 = u_retarded(*pair, s1, label)
            v2 = u_retarded(*pair, s2, label)
            assert v2 == pytest.approx(v1 * 2.0**power, rel=1e-13), label

    def test_near_field_homogeneity(self, pair):
        s1 = Separation(0.01 * NHAT, np.zeros(3))
        s2 = Separation(0.02 * NHAT, np.zeros(3))
        for label, power in (("EC", -5), ("PC", -5), ("DC", -6), ("CC", -6)):
            v1 = u_nonretarded(*pair, s1, label)
            v2 = u_nonretarded(*pair, s2, label)
            assert v2 == pytest.approx(v1 * 2.0**power, rel=1e-13), label

    def test_enantiomer_flips_closed_forms(self, pair):
        a, b = pair
        sep = Separation(2.0 * NHAT, np.zeros(3))
        for label in RETARDED_LABELS:
            assert u_retarded(a, b.enantiomer(), sep, label) == pytest.approx(
                -u_retarded(a, b, sep, label), rel=1e-13)
        for label in NONRETARDED_LABELS:
            assert u_nonretarded(a, b.enantiomer(), sep, label) == \
                pytest.approx(-u_nonretarded(a, b, sep, label), rel=1e-13)

    def test_isotropic_ec_closed_form_vanishes(self):
        a = isotropic_molecule("ia", 1.0, 0.8, 0.3)
        b = isotropic_molecule("ib", 1.4, 0.5, -0.6)
        sep = Separation(5.0 * NHAT, np.zeros(3))
        assert abs(u_retarded(a, b, sep, "EC")) < 1e-18
        assert abs(u_nonretarded(a, b, sep, "EC")) < 1e-18
        assert abs(u_retarded(a, b, sep, "MC")) < 1e-18


class TestQuadratureAgreement:
    def test_far_field_ratios(self, pair):
        omega_min = min(pair[0].omegas.min(), pair[1].omegas.min())
        sep = Separation((100.0 / omega_min) * NHAT, np.zeros(3))
        for label in RETARDED_LABELS:
            quad = u_named(*pair, sep, label)
            closed = u_retarded(*pair, sep, label)
            assert quad.converged
            assert 0.99 <= quad.value / closed <= 1.01, label

    def test_near_field_ratios(self, pair):
        omega_max = max(pair[0].omegas.max(), pair[1].omegas.max())
        sep = Separation((1e-4 / omega_max) * NHAT, np.zeros(3))
        for label in NONRETARDED_LABELS:
            quad = u_named(*pair, sep, label)
            closed = u_nonretarded(*pair, sep, label)
            assert quad.converged
            assert 0.99 <= quad.value / closed <= 1.01, label

    def test_isotropic_cc_far_field(self):
        # the reduced isotropic kernel must approach the closed far-field
        # law contracted with isotropic rotatory strengths
        a = isotropic_molecule("ia", 1.0, 0.8, 0.3)
        b = isotropic_molecule("ib", 1.2, 0.5, -0.6)
        R = 100.0
        quad = u_cc_isotropic(a, b, R)
        sep = Separation(R * NHAT, np.zeros(3))
        closed = u_retarded(a, b, sep, "CC")
        assert quad.converged
        assert quad.value / closed == pytest.approx(1.0, abs=5e-3)

    def test_isotropic_cc_retarded_exponent(self):
        a = isotropic_molecule("ia", 1.0, 0.8, 0.3)
        b = isotropic_molecule("ib", 1.2, 0.5, -0.6)
        rs = retarded_window(a, b, n_points=7)
        us = np.array([u_cc_isotropic(a, b, float(R)).value for R in rs])
        fit = fit_power_law(rs, us)
        assert fit.exponent == pytest.approx(-9.0, abs=0.02)


class TestReferenceTables:
    def test_reference_tables_complete(self):
        rows = set(REFERENCE_RETARDED)
        assert rows == set(REFERENCE_NONRETARDED) == set(REFERENCE_SIGNS)
        assert rows == {"EE", "EP", "ED", "EC", "PP", "PD", "PC", "DD",
                        "DC", "CC"}

    def test_framework_overrides(self):
        assert FRAMEWORK_NONRETARDED["ED"] == -5
        assert FRAMEWORK_NONRETARDED["DD"] == -7
        unchanged = {k: v for k, v in FRAMEWORK_NONRETARDED.items()
                     if k not in ("ED", "DD")}
        assert unchanged == {k: v for k, v in REFERENCE_NONRETARDED.items()
                            if k not in ("ED", "DD")}

    def test_dd_row_is_scale_free(self, pair):
        # a frequency-independent magnetic response makes the DD integrand
        # a function of xi*R only, so the potential scales as R^-7 at every
        # distance, including deep in the near field
        omega_max = max(pair[0].omegas.max(), pair[1].omegas.max())
        r1 = 1e-4 / omega_max
        for factor in (2.0, 10.0):
            s1 = Separation(r1 * NHAT, np.zeros(3))
            s2 = Separation(factor * r1 * NHAT, np.zeros(3))
            v1 = u_row(*pair, s1, "DD")
            v2 = u_row(*pair, s2, "DD")
            assert v2.value == pytest.approx(v1.value * factor**-7,
                                             rel=1e-8), factor
