"""Tests for the identity-check suite.

The denominator identities are algebraic identities over the rationals, so
the strongest possible oracle is exact ``Fraction`` arithmetic: at any
rational frequency point both sides must agree *exactly*.  The test-local
oracle below rebuilds the twelve products and both closed forms with
Fractions; the module's floating-point routines are then compared against
it.  The contour checks are cross-validated against scipy's adaptive
Cauchy-weight quadrature.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chivdw.quad import QuadSpec
from chivdw.verify import (
    IdentityCheck,
    VerificationReport,
    check_contour_gn,
    check_contour_j2,
    check_denominators,
    check_exchange,
    denominator_combination,
    reciprocal_denominators,
    run_suite,
)

from oracles import CONTOUR_G1_RHS, CONTOUR_J2_RHS


# ---------------------------------------------------------------------------
# Exact rational oracle for the denominator identities
# ---------------------------------------------------------------------------

def _frac_recips(wa, wb, w1, w2):
    total = wa + wb + w1 + w2
    products = {
        1: (wa + w1) * (w1 + w2) * (wb + w2),
        2: (wa + w1) * (w1 + w2) * (wb + w1),
        3: (wa + w1) * (wa + wb) * (wb + w2),
        4: (wa + w1) * total * (wb + w1),
        5: (wa + w1) * (wa + wb) * (wa + w2),
        6: (wa + w1) * total * (wa + w2),
        7: (wb + w1) * (wa + wb) * (wb + w2),
        8: (wb + w1) * total * (wb + w2),
        9: (wb + w1) * (wa + wb) * (wa + w2),
        10: (wb + w1) * total * (wa + w1),
        11: (wb + w1) * (w1 + w2) * (wa + w2),
        12: (wb + w1) * (w1 + w2) * (wa + w1),
    }
    return {k: Fraction(1) / v for k, v in products.items()}


def _frac_ec_pc_parts(wa, wb, w1, w2):
    r = _frac_recips(wa, wb, w1, w2)
    return (r[1] - r[2] + r[3] - r[9] - r[11] - r[12],
            r[4] - r[5] + r[6] + r[7] + r[8] + r[10])


def _frac_cc_parts(wa, wb, w1, w2):
    r = _frac_recips(wa, wb, w1, w2)
    return (r[1] - r[2] + r[3] + r[9] + r[11] - r[12],
            r[4] - r[5] + r[6] - r[7] + r[8] + r[10])


def _frac_combined(kind, w1, w2, wa, wb):
    if kind in ("EC", "PC"):
        sign = 1 if kind == "EC" else -1
        s12, t12 = _frac_ec_pc_parts(wa, wb, w1, w2)
        s21, t21 = _frac_ec_pc_parts(wa, wb, w2, w1)
        return (s12 + sign * t12) + (-s21 + sign * t21)
    s12, t12 = _frac_cc_parts(wa, wb, w1, w2)
    s21, t21 = _frac_cc_parts(wa, wb, w2, w1)
    return (s12 + t12) + (s21 + t21), (s12 - t12) + (s21 - t21)


def _frac_closed(kind, w1, w2, wa, wb):
    if kind in ("EC", "PC"):
        bracket = (Fraction(1) / ((wa + w2) * (wb + w2))
                   - Fraction(1) / ((wa + w1) * (wb + w1)))
        sign = -1 if kind == "EC" else 1
        return (4 * wa / (wa + wb)) * bracket * (
            Fraction(1, 1) / (w2 + w1) + Fraction(sign) / (w2 - w1))

    def piece(x, y, sign):
        return (x / ((wa + x) * (wb + x))) * (
            Fraction(1) / (x + y) + Fraction(sign) / (x - y))

    factor = Fraction(4) / (wa + wb)
    return (factor * (piece(w1, w2, 1) + piece(w2, w1, 1)),
            factor * (piece(w1, w2, -1) + piece(w2, w1, -1)))


_RATIONAL_POINTS = [
    (Fraction(3, 10), Fraction(17, 10), Fraction(1), Fraction(13, 10)),
    (Fraction(5, 2), Fraction(9, 20), Fraction(4, 5), Fraction(11, 5)),
    (Fraction(1, 7), Fraction(8, 3), Fraction(2), Fraction(5, 9)),
]


@pytest.mark.parametrize("w1,w2,wa,wb", _RATIONAL_POINTS)
def test_ec_pc_identities_hold_exactly_over_rationals(w1, w2, wa, wb):
    for kind in ("EC", "PC"):
        assert _frac_combined(kind, w1, w2, wa, wb) == \
            _frac_closed(kind, w1, w2, wa, wb)


@pytest.mark.parametrize("w1,w2,wa,wb", _RATIONAL_POINTS)
def test_cc_identities_hold_exactly_over_rationals(w1, w2, wa, wb):
    lhs_p, lhs_m = _frac_combined("CC", w1, w2, wa, wb)
    rhs_p, rhs_m = _frac_closed("CC", w1, w2, wa, wb)
    assert lhs_p == rhs_p
    assert lhs_m == rhs_m


@pytest.mark.parametrize("w1,w2,wa,wb", _RATIONAL_POINTS)
def test_exchange_identity_holds_exactly_over_rationals(w1, w2, wa, wb):
    assert _frac_combined("EC", w2, w1, wa, wb) == \
        -_frac_combined("PC", w1, w2, wa, wb)


_frac_freq = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(5),
                          max_denominator=40)


@settings(max_examples=60, deadline=None)
@given(w1=_frac_freq, w2=_frac_freq, wa=_frac_freq, wb=_frac_freq)
def test_identities_hold_exactly_for_random_rationals(w1, w2, wa, wb):
    if w1 == w2:
        return
    for kind in ("EC", "PC"):
        assert _frac_combined(kind, w1, w2, wa, wb) == \
            _frac_closed(kind, w1, w2, wa, wb)
    lhs_pm = _frac_combined("CC", w1, w2, wa, wb)
    rhs_pm = _frac_closed("CC", w1, w2, wa, wb)
    assert lhs_pm == rhs_pm


def test_module_combination_matches_rational_oracle():
    for w1, w2, wa, wb in _RATIONAL_POINTS:
        args = tuple(map(float, (w1, w2, wa, wb)))
        for kind in ("EC", "PC"):
            got = denominator_combination(kind, *args)
            want = float(_frac_combined(kind, w1, w2, wa, wb))
            assert got == pytest.approx(want, rel=1e-13)
        got_p, got_m = denominator_combination("CC", *args)
        want_p, want_m = _frac_combined("CC", w1, w2, wa, wb)
        assert got_p == pytest.approx(float(want_p), rel=1e-13)
        assert got_m == pytest.approx(float(want_m), rel=1e-13)


# ---------------------------------------------------------------------------
# reciprocal_denominators and the check functions
# ---------------------------------------------------------------------------

def test_reciprocal_denominators_unit_point():
    r = reciprocal_denominators(1.0, 1.0, 1.0, 1.0)
    assert sorted(r) == list(range(1, 13))
    # every product is 2*2*2 = 8 except the ones with the grand total 4
    for k, value in r.items():
        if k in (4, 6, 8, 10):
            assert value == pytest.approx(1.0 / 16.0, rel=1e-15)
        else:
            assert value == pytest.approx(1.0 / 8.0, rel=1e-15)


def test_reciprocal_denominators_rejects_nonpositive():
    with pytest.raises(ValueError):
        reciprocal_denominators(1.0, -0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        reciprocal_denominators(1.0, 1.0, 0.0, 2.0)


def test_check_denominators_passes_at_named_points():
    for kind in ("EC", "PC", "CC"):
        check = check_denominators(kind, 0.3, 1.7, 1.0, 1.3)
        assert check.passed
        assert check.residual <= 1e-14
        assert kind in check.name


def test_check_denominators_cc_reports_worse_branch():
    lhs_p, lhs_m = denominator_combination("CC", 0.3, 1.7, 1.0, 1.3)
    check = check_denominators("CC", 0.3, 1.7, 1.0, 1.3)
    assert check.lhs in (lhs_p, lhs_m)


def test_check_denominators_validation():
    with pytest.raises(ValueError):
        check_denominators("XX", 0.3, 1.7, 1.0, 1.3)
    with pytest.raises(ValueError):
        check_denominators("EC", 0.7, 0.7, 1.0, 1.3)
    with pytest.raises(ValueError):
        check_denominators("EC", -0.3, 1.7, 1.0, 1.3)


def test_check_exchange_passes_and_validates():
    check = check_exchange(0.3, 1.7, 1.0, 1.3)
    assert check.passed
    assert check.residual <= 1e-13
    with pytest.raises(ValueError):
        check_exchange(0.7, 0.7, 1.0, 1.3)


# ---------------------------------------------------------------------------
# Contour checks
# ---------------------------------------------------------------------------

def test_contour_moment_matches_frozen_closed_form():
    check = check_contour_gn(1, 1.0, 1.0)
    assert check.rhs == pytest.approx(CONTOUR_G1_RHS, rel=1e-15)
    assert check.passed
    assert check.residual <= 1e-6


def test_contour_moments_all_orders_pass():
    for n in range(4):
        check = check_contour_gn(n, 1.0, 1.0)
        assert check.passed, check
        # signs alternate with the moment order
        assert math.copysign(1.0, check.rhs) == (1.0 if n % 2 == 0 else -1.0)


def test_contour_projection_matches_frozen_closed_form():
    check = check_contour_j2(1.0, 1.0)
    assert check.rhs == pytest.approx(CONTOUR_J2_RHS, rel=1e-15)
    assert check.passed
    assert check.residual <= 1e-6


def _scipy_gn(n, omega, distance):
    from scipy import integrate as si
    scale = 20.0 / distance
    start = 50.0 * omega + 40.0 / distance
    centre = start + 6.0 * scale
    upper = centre + 12.0 * scale
    sign = (-1.0) ** n

    def window(w):
        return 0.5 * (1.0 - math.tanh((w - centre) / scale))

    def regular(w):
        return (w ** n * math.sin(w * distance) / (4 * math.pi * distance)
                / (w + omega) * window(w))

    def cauchy_numerator(w):
        return (sign * w ** n * math.sin(w * distance)
                / (4 * math.pi * distance) * window(w))

    v1, _ = si.quad(regular, 0.0, upper, limit=4000)
    v2, _ = si.quad(cauchy_numerator, 0.0, upper, weight="cauchy",
                    wvar=omega, limit=4000)
    return v1 + v2


def _scipy_j2(xi, distance):
    from scipy import integrate as si
    scale = 20.0 / distance
    start = 50.0 * xi + 40.0 / distance
    centre = start + 6.0 * scale
    upper = centre + 12.0 * scale

    def f(w):
        return (w * math.sin(w * distance) / (4 * math.pi * distance)
                / (w * w + xi * xi)
                * 0.5 * (1.0 - math.tanh((w - centre) / scale)))

    value, _ = si.quad(f, 0.0, upper, limit=4000, points=[xi, centre])
    return value


@pytest.mark.parametrize("n,omega,distance", [(1, 1.0, 1.0), (2, 1.0, 1.0),
                                              (1, 0.7, 2.0)])
def test_contour_moment_agrees_with_scipy_cauchy(n, omega, distance):
    check = check_contour_gn(n, omega, distance)
    oracle = _scipy_gn(n, omega, distance)
    assert abs(check.lhs - oracle) <= 5e-8 * max(abs(oracle),
                                                 1.0 / (4.0 * distance))


@pytest.mark.parametrize("xi,distance", [(1.0, 1.0), (1.0, 2.0)])
def test_contour_projection_agrees_with_scipy(xi, distance):
    check = check_contour_j2(xi, distance)
    oracle = _scipy_j2(xi, distance)
    assert abs(check.lhs - oracle) <= 5e-8 * max(abs(oracle),
                                                 1.0 / (8.0 * distance))


def test_contour_moment_zero_crossing_uses_floor():
    # at omega*R = pi/2 the closed form vanishes; the residual floor keeps
    # the check meaningful instead of dividing by ~0
    check = check_contour_gn(0, math.pi / 2.0, 1.0)
    assert abs(check.rhs) < 1e-16
    assert check.residual <= 1e-10
    assert check.passed


def test_contour_projection_deep_evanescent_tail():
    check = check_contour_j2(50.0, 1.0)
    assert check.passed
    assert check.residual <= 1e-12


def test_contour_validation():
    with pytest.raises(ValueError):
        check_contour_gn(4, 1.0, 1.0)
    # no order is truncated to an integer
    for n in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="n must be 0, 1, 2 or 3"):
            check_contour_gn(n, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_contour_gn(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_contour_gn(0, 1.0, -1.0)
    with pytest.raises(ValueError):
        check_contour_j2(0.0, 1.0)


def test_unconverged_quadrature_marks_check_failed():
    tiny = QuadSpec(rel_tol=1e-14, abs_tol=1e-300, max_evals=100)
    check = check_contour_gn(0, 1.0, 1.0, spec=tiny)
    assert not check.passed


# ---------------------------------------------------------------------------
# Report and suite
# ---------------------------------------------------------------------------

def test_report_accessors():
    good = IdentityCheck("a", 1.0, 1.0, 0.0, True, 1e-12)
    bad = IdentityCheck("b", 1.0, 2.0, 0.5, False, 1e-12)
    report = VerificationReport(checks=(good, bad), seed=7)
    assert not report.all_passed
    assert report.failures == (bad,)
    text = report.render()
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("identity suite: 2 checks, 1 failed")
    assert lines[1].startswith("PASS a:")
    assert lines[2].startswith("FAIL b:")


def test_run_suite_all_pass():
    report = run_suite(seed=0, sweep_points=200)
    assert report.all_passed
    assert report.seed == 0
    # 8 named denominator/exchange + 4 sweep aggregates + 6 moment cases
    # + 3 projection cases + 5 cross-route checks
    assert len(report.checks) == 26


def test_run_suite_render_is_deterministic():
    first = run_suite(seed=1, sweep_points=50).render()
    second = run_suite(seed=1, sweep_points=50).render()
    assert first == second
    assert first.endswith("\n")
    for line in first.strip().split("\n")[1:]:
        assert line.startswith(("PASS", "FAIL"))


def test_run_suite_other_seed_also_passes():
    report = run_suite(seed=12345, sweep_points=50)
    assert report.all_passed
