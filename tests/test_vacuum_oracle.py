"""The pair potential against the exact vacuum oracle.

``oracles.vacuum_sum`` evaluates the imaginary-frequency integral of any
sum of response terms in closed form, without quadrature, so these tests
check what ``converged`` and ``error_estimate`` promise: a converged value
lies within max(rel_tol |U|, abs_tol) of the exact one, and every error
estimate covers the actual error.  The seeded sweep draws pairs whose
transition frequencies spread over eight decades, separations over fifteen
and sums next to a sign change of TOTAL.

Run as a script for a longer sweep, followed by one tenth as many
wide-spectrum cases (3-20 transitions per molecule, omega over 1e-8..1e8):

    PYTHONPATH=src python tests/test_vacuum_oracle.py 1000 [seed]
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from chivdw.green import Separation
from chivdw.molfiles import bundled_pair
from chivdw.potentials import (LABEL_TUPLES, ROW_SPECS, ComponentLabel,
                               u_named, u_row, u_terms)
from chivdw.quad import QuadSpec
from chivdw.response import Molecule

SPEC = QuadSpec()
ALL16 = LABEL_TUPLES[ComponentLabel.TOTAL]
# the named components with the full magnetic response on both sides
FULL_BETA = ("EE", "EM", "ME", "MM", "EC", "CE", "MC", "CM", "CC", "TOTAL")


def _data(mol: Molecule):
    return (np.array(mol.omegas), np.array(mol.dipoles),
            np.array(mol.magnetic_dipoles), np.array(mol.beta_dia))


def _terms(label: str):
    tuples = LABEL_TUPLES[ComponentLabel(label)]
    return [(tup, "full", "full") for tup in tuples]


def _exact(a, b, sep, terms, duality=None):
    return oracles.vacuum_sum(_data(a), _data(b), sep.r_a, sep.r_b, terms,
                              duality)


def _assert_honest(value, err, converged, oracle, what, spec=SPEC):
    """A converged value within tolerance of the exact one, up to the
    oracle's own rounding bound; and the error estimate covering the
    actual error, up to that bound plus four times the change that
    rounding the integrand's coefficients to float64 makes (rounding
    inside the integrand, which no quadrature estimate can see)."""
    exact, uncertainty, float64_shift = oracle
    gap = abs(value - exact)
    if converged:
        assert gap <= max(spec.rel_tol * abs(exact), spec.abs_tol) \
            + uncertainty, (what, value, exact)
    assert gap <= err + uncertainty + 4.0 * float64_shift, \
        (what, value, exact, err)


def _random_molecule(rng, name, transitions=(1, 3), band=(1e-4, 1e4)):
    """``transitions`` (least, most) transitions with omega log-uniform in
    ``band``."""
    count = int(rng.integers(transitions[0], transitions[1] + 1))
    omegas = np.exp(rng.uniform(math.log(band[0]), math.log(band[1]), count))
    m = rng.normal(size=(3, 3))
    scale = math.exp(rng.uniform(math.log(1e-4), 0.0))
    return Molecule.from_arrays(name, omegas, rng.normal(size=(count, 3)),
                                rng.normal(size=(count, 3)),
                                -scale * (m @ m.T))


def _direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@dataclass
class Case:
    a: Molecule
    b: Molecule
    sep: Separation
    label: str
    near_zero: bool = False


def _total_zero(rng, attempts=20):
    """A pair, direction and separation within 1e-8..1e-3 (relative) of a
    sign change of the exact TOTAL, or None if ``attempts`` draws show
    none."""
    terms = _terms("TOTAL")
    for _ in range(attempts):
        a, b = _random_molecule(rng, "za"), _random_molecule(rng, "zb")
        n = _direction(rng)
        omegas = [*a.omegas, *b.omegas]

        def total(log_r):
            sep = Separation(math.exp(log_r) * n, np.zeros(3))
            return _exact(a, b, sep, terms)[0]

        logs = np.linspace(math.log(0.01 / max(omegas)),
                           math.log(100.0 / min(omegas)), 9)
        vals = [total(x) for x in logs]
        flips = [i for i in range(len(logs) - 1) if vals[i] * vals[i + 1] < 0]
        if not flips:
            continue
        i = flips[int(rng.integers(len(flips)))]
        log_star = brentq(total, logs[i], logs[i + 1], xtol=1e-13)
        offset = math.exp(rng.uniform(math.log(1e-8), math.log(1e-3)))
        R = math.exp(log_star) * (1.0 + rng.choice([-1.0, 1.0]) * offset)
        return Case(a, b, Separation(R * n, np.zeros(3)), "TOTAL", True)
    return None


def sweep_cases(seed: int, count: int, zero_share: float = 0.1):
    """``count`` seeded cases: 1-3 transitions per molecule, omega
    log-uniform in [1e-4, 1e4], beta_dia scaled by 1e-4 .. 1, R
    log-uniform in [1e-9, 1e6] along a random direction, one of the ten
    full-beta named components; about ``zero_share`` of them are TOTAL
    next to a sign change."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        if rng.uniform() < zero_share:
            case = _total_zero(rng)
            if case is not None:
                cases.append(case)
            continue
        a, b = _random_molecule(rng, "a"), _random_molecule(rng, "b")
        R = math.exp(rng.uniform(math.log(1e-9), math.log(1e6)))
        sep = Separation(R * _direction(rng), np.zeros(3))
        cases.append(Case(a, b, sep, FULL_BETA[int(rng.integers(10))]))
    return cases


def wide_cases(seed: int, count: int):
    """``count`` seeded wide-spectrum cases: 3-20 transitions per molecule,
    omega log-uniform in [1e-8, 1e8], R log-uniform in [1e-9, 1e9] along a
    random direction, one of the ten full-beta named components."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        a, b = (_random_molecule(rng, name, (3, 20), (1e-8, 1e8))
                for name in "ab")
        R = math.exp(rng.uniform(math.log(1e-9), math.log(1e9)))
        sep = Separation(R * _direction(rng), np.zeros(3))
        cases.append(Case(a, b, sep, FULL_BETA[int(rng.integers(10))]))
    return cases


def run_case(case: Case):
    """(value, error estimate, converged) and the oracle's (exact value,
    uncertainty, float64 shift)."""
    res = u_named(case.a, case.b, case.sep, case.label)
    oracle = _exact(case.a, case.b, case.sep, _terms(case.label))
    return (res.value, res.error_estimate, res.converged), oracle


class TestOracle:
    def test_agrees_with_scipy_reference(self):
        # two independent routes to the sixteen tuples: the closed form
        # and scipy quad_vec over decade pieces of a re-derived integrand
        a, b = bundled_pair()
        sep = Separation(np.array([0.6, -1.2, 1.2]), np.zeros(3))
        exact = np.array([_exact(a, b, sep, [(tup, "full", "full")])[0]
                          for tup in ALL16])
        scales = [*a.omegas, *b.omegas, 1.0 / sep.R]
        ref = oracles.quad_vec_geometric(
            oracles.sixteen_tuples_integrand(_data(a), _data(b), sep.r_a,
                                             sep.r_b),
            min(scales) / 1e3, 200.0 * max(scales), exact)
        np.testing.assert_allclose(ref, exact, rtol=1e-12, atol=0.0)

    def test_rows_sum_to_total(self):
        a, b = bundled_pair()
        sep = Separation(np.array([0.0, 0.0, 2.0]), np.zeros(3))
        rows = sum(_exact(a, b, sep, terms)[0]
                   for terms in ROW_SPECS.values())
        total = _exact(a, b, sep, _terms("TOTAL"))[0]
        assert rows == pytest.approx(total, rel=1e-14)

    def test_quarter_turn_swaps_electric_and_magnetic(self):
        # D(pi/2) maps alpha -> beta, beta -> alpha and chi -> -chi^T, so
        # the rotated eeee tuple is the unrotated mmmm tuple
        a, b = bundled_pair()
        sep = Separation(np.array([0.3, 0.4, 1.2]), np.zeros(3))
        rotated = _exact(a, b, sep, [("eeee", "full", "full")],
                         duality=math.pi / 2)[0]
        plain = _exact(a, b, sep, [("mmmm", "full", "full")])[0]
        assert rotated == pytest.approx(plain, rel=1e-14)


class TestAgainstOracle:
    @pytest.mark.parametrize("R", [1e-8, 0.5, 1e6])
    def test_sixteen_tuples(self, R):
        a, b = bundled_pair()
        sep = Separation(R * np.array([1.0, -2.0, 2.0]) / 3.0, np.zeros(3))
        res = u_terms(a, b, sep, [(tup, "full", "full") for tup in ALL16])
        for k, tup in enumerate(ALL16):
            _assert_honest(res.value[k], res.error_estimate[k],
                           res.converged,
                           _exact(a, b, sep, [(tup, "full", "full")]), tup)

    @pytest.mark.parametrize("R", [1e-6, 50.0])
    def test_rows_beta_modes(self, R):
        a, b = bundled_pair()
        sep = Separation(R * np.array([2.0, 1.0, -2.0]) / 3.0, np.zeros(3))
        for row, terms in ROW_SPECS.items():
            res = u_row(a, b, sep, row)
            _assert_honest(res.value, res.error_estimate, res.converged,
                           _exact(a, b, sep, terms), row)

    def test_duality_rotation(self):
        theta = 1.0
        a, b = bundled_pair()
        sep = Separation(np.array([1.1, 0.2, -0.6]), np.zeros(3))
        for label in FULL_BETA:
            res = u_named(a, b, sep, label, duality=theta)
            _assert_honest(res.value, res.error_estimate, res.converged,
                           _exact(a, b, sep, _terms(label), theta), label)

    def test_seeded_sweep(self):
        # converged implies within tolerance, and every estimate covers
        # the actual error, over eight decades of omega and fifteen of R
        for k, case in enumerate(sweep_cases(seed=1301, count=16)):
            (value, err, conv), oracle = run_case(case)
            _assert_honest(value, err, conv, oracle,
                           (k, case.label, case.sep.R, case.near_zero))


def _report(title: str, cases) -> bool:
    """Print the sweep's summary line; True when a converged value lies
    outside its tolerance or an error beyond its estimate and rounding."""
    converged = outside = uncovered = rounding = 0
    worst_tol = worst_cover = 0.0
    for case in cases:
        (value, err, conv), (exact, unc, shift) = run_case(case)
        gap = max(abs(value - exact) - unc, 0.0)
        tol = max(SPEC.rel_tol * abs(exact), SPEC.abs_tol)
        converged += conv
        if conv:
            outside += gap > tol
            worst_tol = max(worst_tol, gap / tol)
        uncovered += gap > err
        rounding += gap > err + 4.0 * shift
        worst_cover = max(worst_cover, gap / err if err > 0 else math.inf)
    print(f"{title}: {converged} converged, {outside} converged outside "
          f"tolerance (worst {worst_tol:.2e} of it); {uncovered} errors "
          f"above their estimate (worst error/estimate {worst_cover:.2e}), "
          f"{rounding} of them also above four float64 shifts")
    return bool(outside or rounding)


def _main(argv):
    count = int(argv[1]) if len(argv) > 1 else 1000
    seed = int(argv[2]) if len(argv) > 2 else 1
    cases = sweep_cases(seed, count)
    failed = _report(
        f"{count} cases (seed {seed}, "
        f"{sum(c.near_zero for c in cases)} next to a zero of TOTAL)", cases)
    wide = max(count // 10, 1)
    failed |= _report(
        f"{wide} wide-spectrum cases (seed {seed}, omega 1e-8..1e8, "
        f"3-20 transitions)", wide_cases(seed, wide))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv))
