"""Tests for the pair-potential assembly."""

import functools
import itertools
import math

import numpy as np
import pytest

import oracles
from chivdw import kernels, potentials
from chivdw.green import FreeSpaceProvider, Separation
from chivdw.molfiles import bundled_pair
from chivdw.potentials import (
    ComponentLabel,
    LABEL_TUPLES,
    ROW_NAMES,
    ROW_SPECS,
    PotentialCurve,
    compute_curve,
    resolve_component,
    u_cc_direct,
    u_cc_isotropic,
    u_dc_direct,
    u_ec_direct,
    u_mc_direct,
    u_named,
    u_pc_direct,
    u_row,
    u_terms,
    u_unified,
)
from chivdw.quad import NonFiniteIntegrandError, QuadSpec
from chivdw.response import (Molecule, Transition, response_arrays,
                             response_table)
from chivdw.verify import _random_pair

EYE = np.eye(3)


def _vacuum(mol_a, mol_b, sep, label):
    """The exact vacuum value of a named component (see oracles)."""
    data = [(np.array(m.omegas), np.array(m.dipoles),
             np.array(m.magnetic_dipoles), np.array(m.beta_dia))
            for m in (mol_a, mol_b)]
    terms = [(tup, "full", "full")
             for tup in LABEL_TUPLES[ComponentLabel(label)]]
    return oracles.vacuum_sum(*data, sep.r_a, sep.r_b, terms)[0]


def generic_molecule(seed, n=2, dia_scale=0.03):
    rng = np.random.default_rng(seed)
    trs = tuple(
        Transition(float(rng.uniform(0.5, 2.5)), rng.normal(size=3),
                   rng.normal(size=3))
        for _ in range(n)
    )
    m = rng.normal(size=(3, 3))
    return Molecule(f"mol{seed}", trs, beta_dia=-(m @ m.T) * dia_scale)


def isotropic_molecule(name, omega, d_scale, m_scale):
    return Molecule(name, tuple(
        Transition(omega, d_scale * EYE[i], m_scale * EYE[i])
        for i in range(3)))


@pytest.fixture(scope="module")
def pair():
    return generic_molecule(1), generic_molecule(2)


@pytest.fixture(scope="module")
def sep():
    return Separation(1.7 * np.array([2.0, 2.0, 1.0]) / 3.0, np.zeros(3))


class TestLabelTables:
    def test_tuple_counts(self):
        assert len(LABEL_TUPLES[ComponentLabel.TOTAL]) == 16
        assert len(LABEL_TUPLES[ComponentLabel.CC]) == 4
        flat = [t for lab in ("EE", "EM", "ME", "MM", "EC", "CE", "MC", "CM",
                              "CC")
                for t in LABEL_TUPLES[ComponentLabel(lab)]]
        assert sorted(flat) == sorted(LABEL_TUPLES[ComponentLabel.TOTAL])

    def test_resolver(self):
        assert resolve_component("EE") == ("label", "EE")
        assert resolve_component(ComponentLabel.CC) == ("label", "CC")
        assert resolve_component("total") == ("label", "TOTAL")
        assert resolve_component("EP") == ("row", "EP")
        assert resolve_component("pd") == ("row", "PD")
        assert resolve_component("eeme") == ("tuple", "eeme")
        with pytest.raises(ValueError, match="unknown component"):
            resolve_component("XY")

    def test_invalid_tuple_rejected(self, pair, sep):
        with pytest.raises(ValueError):
            u_unified(*pair, sep, "eexm")
        with pytest.raises(ValueError):
            u_unified(*pair, sep, "eee")


class TestDirectFormsAgree:
    def test_ec(self, pair, sep):
        u = u_named(*pair, sep, "EC")
        d = u_ec_direct(*pair, sep)
        assert u.value == pytest.approx(d.value, rel=1e-10)

    def test_pc_dc_mc(self, pair, sep):
        for label, direct in (("PC", u_pc_direct), ("DC", u_dc_direct),
                              ("MC", u_mc_direct)):
            u = u_named(*pair, sep, label)
            d = direct(*pair, sep)
            assert u.value == pytest.approx(d.value, rel=1e-10), label

    def test_cc(self, pair, sep):
        u = u_named(*pair, sep, "CC")
        d = u_cc_direct(*pair, sep)
        assert u.value == pytest.approx(d.value, rel=1e-10)

    def test_mc_splits_into_pc_plus_dc(self, pair, sep):
        mc = u_named(*pair, sep, "MC").value
        pc = u_named(*pair, sep, "PC").value
        dc = u_named(*pair, sep, "DC").value
        assert mc == pytest.approx(pc + dc, rel=1e-12)

    def test_direct_forms_match_exact_oracle(self, pair, sep):
        for label, direct in (("EC", u_ec_direct), ("MC", u_mc_direct),
                              ("CC", u_cc_direct)):
            d = direct(*pair, sep)
            exact = _vacuum(*pair, sep, label)
            assert d.value == pytest.approx(exact, rel=1e-10), label

    def test_direct_forms_random_configurations(self):
        rng = np.random.default_rng(99)
        for trial in range(6):
            a = generic_molecule(100 + trial)
            b = generic_molecule(200 + trial)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            R = float(rng.uniform(0.8, 4.0))
            s = Separation(R * direction, np.zeros(3))
            for label, direct in (("EC", u_ec_direct), ("MC", u_mc_direct),
                                  ("CC", u_cc_direct)):
                d = direct(a, b, s)
                exact = _vacuum(a, b, s, label)
                scale = max(abs(d.value), abs(exact), 1e-30)
                assert abs(d.value - exact) <= 1e-10 * scale, (trial, label)


class TestRowDecomposition:
    def test_rows_sum_to_total(self, pair, sep):
        total = u_named(*pair, sep, "TOTAL")
        rows = sum(u_row(*pair, sep, r).value for r in ROW_NAMES)
        assert rows == pytest.approx(total.value, rel=1e-11)

    def test_ep_plus_ed_equals_em_plus_me(self, pair, sep):
        lhs = u_row(*pair, sep, "EP").value + u_row(*pair, sep, "ED").value
        rhs = (u_named(*pair, sep, "EM").value
               + u_named(*pair, sep, "ME").value)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_unknown_row_rejected(self, pair, sep):
        with pytest.raises(ValueError, match="unknown row"):
            u_row(*pair, sep, "XX")


class TestSymmetries:
    def test_molecule_swap_exchanges_tuple_slots(self, pair, sep):
        a, b = pair
        swapped = Separation(sep.r_b, sep.r_a)
        # relabeling the molecules maps component EM -> ME and EC -> CE
        assert u_named(a, b, sep, "EM").value == pytest.approx(
            u_named(b, a, swapped, "ME").value, rel=1e-10)
        assert u_named(a, b, sep, "EC").value == pytest.approx(
            u_named(b, a, swapped, "CE").value, rel=1e-10)
        assert u_named(a, b, sep, "TOTAL").value == pytest.approx(
            u_named(b, a, swapped, "TOTAL").value, rel=1e-10)

    def test_enantiomer_flips_odd_components(self, pair, sep):
        a, b = pair
        b_mirror = b.enantiomer()
        for label in ("EC", "PC", "DC", "MC", "CC"):
            flipped = u_named(a, b_mirror, sep, label).value
            assert flipped == pytest.approx(
                -u_named(a, b, sep, label).value, rel=1e-10), label
        for label in ("EE", "EM", "MM"):
            same = u_named(a, b_mirror, sep, label).value
            assert same == pytest.approx(
                u_named(a, b, sep, label).value, rel=1e-10), label

    def test_double_mirror_restores_cc(self, pair, sep):
        a, b = pair
        cc = u_named(a, b, sep, "CC").value
        cc_mm = u_named(a.enantiomer(), b.enantiomer(), sep, "CC").value
        assert cc_mm == pytest.approx(cc, rel=1e-10)

    def test_duality_invariance_of_total(self, pair, sep):
        base = u_named(*pair, sep, "TOTAL").value
        for theta in (math.pi / 7, math.pi / 4):
            rot = u_named(*pair, sep, "TOTAL", duality=theta).value
            assert rot == pytest.approx(base, rel=1e-11), theta

    def test_quarter_turn_maps_ee_to_mm(self, pair, sep):
        # the quarter-turn block swap is exact (snapped cos/sin), so EE and
        # MM, one 3x3 product each, match bitwise; EC's and MC's products
        # hold the same terms in another order, so they agree to rounding
        assert u_named(*pair, sep, "EE", duality=math.pi / 2).value == \
            u_named(*pair, sep, "MM").value
        assert u_named(*pair, sep, "EC", duality=math.pi / 2).value == \
            pytest.approx(u_named(*pair, sep, "MC").value, rel=1e-15)

    def test_duality_with_restricted_component_rejected(self, pair, sep):
        with pytest.raises(ValueError, match="duality"):
            u_named(*pair, sep, "PC", duality=0.3)


class TestZeroAndIsotropic:
    def test_empty_molecule_gives_exact_zero(self, sep):
        empty = Molecule("none", ())
        other = generic_molecule(5)
        res = u_named(empty, other, sep, "TOTAL")
        assert res.value == 0.0
        assert res.converged

    def test_isotropic_chiral_components_vanish(self):
        a = isotropic_molecule("ia", 1.0, 0.8, 0.3)
        b = isotropic_molecule("ib", 1.4, 0.5, -0.6)
        s = Separation(np.array([0.0, 0.0, 2.0]), np.zeros(3))
        ee = u_named(a, b, s, "EE").value
        assert abs(u_named(a, b, s, "EC").value) <= 1e-12 * abs(ee)
        assert abs(u_named(a, b, s, "MC").value) <= 1e-12 * abs(ee)

    def test_isotropic_cc_matches_reduced_kernel(self):
        a = isotropic_molecule("ia", 1.0, 0.8, 0.3)
        b = isotropic_molecule("ib", 1.4, 0.5, -0.6)
        s = Separation(np.array([0.0, 0.0, 2.0]), np.zeros(3))
        full = u_named(a, b, s, "CC").value
        reduced = u_cc_isotropic(a, b, 2.0).value
        assert full == pytest.approx(reduced, rel=1e-10)

    def test_reduced_kernel_vs_scipy_oracle(self):
        a = Molecule("a1", (Transition(1.0, 0.9 * EYE[0], 0.4 * EYE[0]),))
        b = Molecule("b1", (Transition(1.3, 0.7 * EYE[1], -0.5 * EYE[1]),))
        mine = u_cc_isotropic(a, b, 3.0).value
        reference = oracles.cc_isotropic_reduced(
            1.0, 0.9 * 0.4 / 3.0, 1.3, 0.7 * (-0.5) / 3.0, 3.0)
        assert mine == pytest.approx(reference, rel=1e-9)

    def test_isotropic_cc_orientation_independent(self):
        a = isotropic_molecule("ia", 1.0, 0.8, 0.3)
        b = isotropic_molecule("ib", 1.4, 0.5, -0.6)
        vals = []
        for direction in ([0, 0, 1.0], [1.0, 0, 0], [1.0, 1.0, 1.0]):
            n = np.asarray(direction) / np.linalg.norm(direction)
            vals.append(u_named(a, b, Separation(2.0 * n, np.zeros(3)),
                                "CC").value)
        assert vals[1] == pytest.approx(vals[0], rel=1e-11)
        assert vals[2] == pytest.approx(vals[0], rel=1e-11)


class TestToyPairOracle:
    def test_ec_against_trapezoid_oracle(self):
        # single-transition toy pair with known closed kernel, checked
        # against a dense-grid trapezoid evaluation (independent oracle)
        a = Molecule("toyA", (Transition(1.0, EYE[0], np.zeros(3)),))
        b = Molecule("toyB", (Transition(1.0, EYE[1], EYE[2]),))
        rvec = 10.0 * np.array([2.0, 2.0, 1.0]) / 3.0
        s = Separation(rvec, np.zeros(3))
        mine = u_named(a, b, s, "EC").value
        reference = oracles.ec_free_trapezoid(
            omega_a=1.0, d_a=EYE[0], omega_b=1.0, d_b=EYE[1], m_b=EYE[2],
            rvec=rvec)
        assert mine == pytest.approx(reference, rel=1e-8)


class TestCurves:
    def test_curve_shapes_and_decay(self, pair):
        rs = np.array([1.0, 1.5, 2.2, 3.0])
        curve = compute_curve(*pair, [0.0, 0.0, 1.0], rs, "EE")
        assert isinstance(curve, PotentialCurve)
        assert len(curve) == 4
        assert curve.component == "EE"
        assert np.all(curve.converged)
        assert np.all(curve.u_values < 0.0)
        assert np.all(np.diff(np.abs(curve.u_values)) < 0.0)

    def test_curve_row_component(self, pair):
        rs = np.array([1.2, 2.0])
        curve = compute_curve(*pair, [1.0, 0.0, 0.0], rs, "EP")
        ref = [u_row(*pair, Separation([float(r), 0, 0], np.zeros(3)),
                     "EP").value for r in rs]
        np.testing.assert_allclose(curve.u_values, ref, rtol=1e-12)

    def test_curve_tuple_component(self, pair):
        rs = np.array([1.5])
        curve = compute_curve(*pair, [0.0, 1.0, 0.0], rs, "eeme")
        ref = u_unified(*pair, Separation([0, 1.5, 0], np.zeros(3)), "eeme")
        assert curve.u_values[0] == pytest.approx(ref.value, rel=1e-12)

    def test_curve_copies_its_arrays(self, pair):
        # the curve is read-only; the caller's arrays stay writeable and a
        # later write to them leaves the curve unchanged
        arrays = [np.array([1.0, 2.0]), np.array([-1.0, -2.0]),
                  np.array([1e-9, 1e-9]), np.array([True, False])]
        curve = PotentialCurve("EE", *arrays)
        assert all(arr.flags.writeable for arr in arrays)
        assert not curve.r_values.flags.writeable
        rs = np.array([1.0, 1.5])
        computed = compute_curve(*pair, [0.0, 0.0, 1.0], rs, "EE")
        rs[0] = 7.0
        arrays[1][0] = 5.0
        assert computed.r_values.tolist() == [1.0, 1.5]
        assert curve.u_values.tolist() == [-1.0, -2.0]

    def test_curve_input_validation(self, pair):
        with pytest.raises(ValueError):
            compute_curve(*pair, [0.0, 0.0, 0.0], [1.0], "EE")
        with pytest.raises(ValueError):
            compute_curve(*pair, [0.0, 0.0, 1.0], [], "EE")
        with pytest.raises(ValueError):
            compute_curve(*pair, [0.0, 0.0, 1.0], [-1.0], "EE")

    @pytest.mark.parametrize("orientation,unit", [
        ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        (np.ldexp([0.6, 0.8, 0.0], -700), [0.6, 0.8, 0.0]),
        (np.ldexp([0.6, 0.8, 0.0], 700), [0.6, 0.8, 0.0]),
    ])
    def test_orientation_of_any_magnitude(self, pair, orientation, unit):
        # the squared length under- or overflows a float here; the
        # direction is the unit vector's, and no warning escapes
        got = compute_curve(*pair, orientation, [2.0], "EE")
        want = compute_curve(*pair, unit, [2.0], "EE")
        assert got.u_values.tobytes() == want.u_values.tobytes()
        assert got.error_estimates.tobytes() == want.error_estimates.tobytes()

    def test_env_override_rel_tol(self, pair, monkeypatch):
        # the default 1e-10 is met on the first panel layout; 1e-13 needs
        # a round of refinement
        sep_local = Separation([0.0, 0.0, 1.3], np.zeros(3))
        monkeypatch.setenv("VDW_QUAD_RTOL", "1e-13")
        tight = u_named(*pair, sep_local, "EE")
        monkeypatch.setenv("VDW_QUAD_RTOL", "not-a-number")
        with pytest.raises(ValueError, match="VDW_QUAD_RTOL"):
            u_named(*pair, sep_local, "EE")
        monkeypatch.delenv("VDW_QUAD_RTOL")
        default = u_named(*pair, sep_local, "EE")
        assert tight.converged and default.converged
        assert default.evals < tight.evals
        assert tight.error_estimate <= 1e-13 * abs(tight.value)
        assert default.value == pytest.approx(tight.value, rel=1e-10)


class TestProviderContract:
    def test_scalar_only_provider_error_propagates(self, pair, sep):
        base = FreeSpaceProvider()

        class ScalarOnly:
            def bind(self, r_a, r_b):
                table, coefficients = base.bind(r_a, r_b)

                def scalar_coefficients(xis):
                    if not np.isscalar(xis) and np.ndim(xis) != 0:
                        raise TypeError("scalar frequencies only")
                    return coefficients(float(xis))

                return table, scalar_coefficients

        with pytest.raises(TypeError, match="scalar frequencies only"):
            u_named(*pair, sep, "EC", provider=ScalarOnly())

    def test_provider_coefficients_of_wrong_shape_raise_naming_them(
            self, pair, sep):
        base = FreeSpaceProvider()

        class FirstNodeOnly:
            def bind(self, r_a, r_b):
                table, coefficients = base.bind(r_a, r_b)
                return table, lambda xis: coefficients(xis[:1])

        with pytest.raises(ValueError, match=r"coefficients.*\(1, 1, 5\)"):
            u_named(*pair, sep, "EC", provider=FirstNodeOnly())

    def test_provider_table_of_wrong_shape_raises_naming_it(self, pair, sep):
        base = FreeSpaceProvider()

        class Flat:
            def bind(self, r_a, r_b):
                table, coefficients = base.bind(r_a, r_b)
                return table.reshape(len(r_a), -1), coefficients

        with pytest.raises(ValueError, match=r"table.*\(1, K, 72\)"):
            u_named(*pair, sep, "EC", provider=Flat())

    def test_rescaled_provider_rescales_quadratically(self, pair, sep):
        base = FreeSpaceProvider()

        class Doubled:
            def bind(self, r_a, r_b):
                table, coefficients = base.bind(r_a, r_b)
                return 2.0 * table, coefficients

        one = u_named(*pair, sep, "TOTAL")
        four = u_named(*pair, sep, "TOTAL", provider=Doubled())
        assert four.value == pytest.approx(4.0 * one.value, rel=1e-11)

    def test_provider_of_the_one_callable_form_raises_naming_the_pair(
            self, pair, sep):
        base = FreeSpaceProvider()

        class OldForm:
            def bind(self, r_a, r_b):
                table, coefficients = base.bind(r_a, r_b)
                return lambda xis: coefficients(xis) @ table

        with pytest.raises(TypeError,
                           match=r"'OldForm'.*\(table, coefficients\)"):
            u_named(*pair, sep, "TOTAL", provider=OldForm())

    @pytest.mark.parametrize("integral", [
        lambda a, b, s, p: u_named(a, b, s, "TOTAL", provider=p),
        lambda a, b, s, p: u_row(a, b, s, "EC", provider=p),
    ])
    def test_provider_with_only_block_raises_naming_bind(self, pair, sep,
                                                         integral):
        base = FreeSpaceProvider()

        class BlockOnly:
            def block(self, lam, lamp, r, rp, xi):
                return base.block(lam, lamp, r, rp, xi)

        with pytest.raises(TypeError, match=r"'BlockOnly'.*bind\(r_a, r_b\)"):
            integral(*pair, sep, BlockOnly())


class _CountingProvider:
    """Free space, recording the separations of every ``bind`` and, per
    call of a bound propagator's coefficients, the separations it was bound
    to."""

    def __init__(self):
        self.binds = []
        self.calls = []
        self._base = FreeSpaceProvider()

    def bind(self, r_a, r_b):
        separations = [tuple(v) for v in np.subtract(r_a, r_b).tolist()]
        self.binds.append(separations)
        table, coefficients = self._base.bind(r_a, r_b)

        def counted(xis):
            self.calls.append(separations)
            return coefficients(xis)

        return table, counted


class TestOneBlocksCallPerSeparation:
    """The provider is bound once per pass and its propagator called once
    per node batch, for every separation of the pass at once.  The direct
    forms bind free space themselves (``potentials.free_space_provider``),
    so the default provider is the counting one here."""

    @pytest.mark.parametrize("integral", [
        lambda a, b, s: u_named(a, b, s, "TOTAL"),
        lambda a, b, s: u_ec_direct(a, b, s),
        lambda a, b, s: u_mc_direct(a, b, s),
        lambda a, b, s: u_cc_direct(a, b, s),
    ], ids=["TOTAL", "ec_direct", "mc_direct", "cc_direct"])
    def test_single_value(self, pair, sep, integral, monkeypatch):
        spy = _HalflineSpy(monkeypatch)
        provider = _CountingProvider()
        monkeypatch.setattr(potentials, "free_space_provider",
                            lambda: provider)
        assert integral(*pair, sep).converged
        assert len(spy.calls) == 1
        assert spy.integrand_calls >= 1
        assert provider.binds == [[tuple(sep.r_a - sep.r_b)]]
        assert provider.calls == provider.binds * spy.integrand_calls

    def test_curve_within_one_layout_group(self, pair, monkeypatch):
        r_values = [2.0, 2.5, 3.0]
        assert len(potentials._layout_groups(*pair, r_values)) == 1
        spy = _HalflineSpy(monkeypatch)
        provider = _CountingProvider()
        curve = compute_curve(*pair, [0.0, 0.0, 1.0], r_values, "TOTAL",
                              provider=provider)
        assert curve.converged.all()
        assert len(spy.calls) == 1
        assert provider.binds == [[(0.0, 0.0, R) for R in r_values]]
        assert provider.calls == provider.binds * spy.integrand_calls


# ---------------------------------------------------------------------------
# One shared-node quadrature per request against one quadrature per term
# ---------------------------------------------------------------------------

_GATE_PAIRS = {
    "bundled": bundled_pair(),
    "random-3": _random_pair(np.random.default_rng(3)),
    "random-11": _random_pair(np.random.default_rng(11)),
}
_GATE_RS = (1e-5, 1e-2, 1.0, 1e2, 1e5)
_GATE_DIRECTION = np.array([2.0, -1.0, 2.0]) / 3.0
_ALL16 = LABEL_TUPLES[ComponentLabel.TOTAL]


def _gate_sep(R):
    return Separation(R * _GATE_DIRECTION, np.zeros(3))


@functools.lru_cache(maxsize=None)
def _one_term(name, R, tup, mode_a, mode_b, duality):
    """One term integrated on its own (value, error, converged)."""
    a, b = _GATE_PAIRS[name]
    res = u_unified(a, b, _gate_sep(R), tup, beta_mode_a=mode_a,
                    beta_mode_b=mode_b, duality=duality)
    return res.value, res.error_estimate, res.converged


@functools.lru_cache(maxsize=None)
def _fused_total(name, R):
    """All sixteen tuples in one shared-node pass (what TOTAL sums)."""
    a, b = _GATE_PAIRS[name]
    return u_terms(a, b, _gate_sep(R),
                   [(tup, "full", "full") for tup in _ALL16])


def _one_term_sum(name, R, terms, duality=None):
    parts = [_one_term(name, R, tup, mode_a, mode_b, duality)
             for tup, mode_a, mode_b in terms]
    return (sum(p[0] for p in parts), sum(p[1] for p in parts),
            all(p[2] for p in parts))


def _assert_agree(fused, fused_err, single, single_err, what):
    """1e-10 relative, or within the combined error estimates."""
    gap = abs(fused - single)
    tol = max(1e-10 * max(abs(fused), abs(single)), fused_err + single_err)
    assert gap <= tol, (what, fused, single, gap, tol)


@pytest.mark.parametrize("R", _GATE_RS)
@pytest.mark.parametrize("name", sorted(_GATE_PAIRS))
class TestFusedMatchesOneTermRuns:
    def test_sixteen_tuples(self, name, R):
        a, b = _GATE_PAIRS[name]
        fused = _fused_total(name, R)
        assert fused.converged
        assert fused.value.shape == fused.error_estimate.shape == (16,)
        # converged means every tuple met the tolerance on its own
        assert np.all(fused.error_estimate
                      <= np.maximum(1e-10 * np.abs(fused.value), 1e-300))
        for k, tup in enumerate(_ALL16):
            value, err, conv = _one_term(name, R, tup, "full", "full", None)
            assert conv
            _assert_agree(fused.value[k], fused.error_estimate[k], value,
                          err, tup)

    def test_ten_rows_and_their_sum(self, name, R):
        a, b = _GATE_PAIRS[name]
        sep = _gate_sep(R)
        rows = {row: u_row(a, b, sep, row) for row in ROW_NAMES}
        for row, res in rows.items():
            assert res.converged, row
            value, err, conv = _one_term_sum(name, R, ROW_SPECS[row])
            assert conv, row
            _assert_agree(res.value, res.error_estimate, value, err, row)
        total = _fused_total(name, R)
        _assert_agree(sum(r.value for r in rows.values()),
                      sum(r.error_estimate for r in rows.values()),
                      total.value.sum(), total.error_estimate.sum(),
                      "rows vs TOTAL")

    @pytest.mark.parametrize("duality", [None, math.pi / 4])
    def test_named_components(self, name, R, duality):
        a, b = _GATE_PAIRS[name]
        sep = _gate_sep(R)
        for label in ComponentLabel:
            mode_a = {"PC": "para", "DC": "dia"}.get(label.value, "full")
            if duality is not None and mode_a != "full":
                continue
            res = u_named(a, b, sep, label, duality=duality)
            assert res.converged, label
            terms = [(tup, mode_a, "full") for tup in LABEL_TUPLES[label]]
            value, err, conv = _one_term_sum(name, R, terms, duality)
            assert conv, label
            _assert_agree(res.value, res.error_estimate, value, err,
                          label.value)


class TestFusedContract:
    def test_one_term_request_is_the_scalar_case(self, pair, sep):
        one = u_terms(*pair, sep, [("eeme", "full", "full")])
        plain = u_unified(*pair, sep, "eeme")
        assert one.value.shape == (1,)
        assert plain.value == one.value[0]
        assert plain.evals == one.evals

    def test_evals_count_shared_nodes(self, pair, sep):
        total = u_named(*pair, sep, "TOTAL")
        per_tuple = sum(u_unified(*pair, sep, tup).evals for tup in _ALL16)
        assert total.evals < per_tuple
        assert total.evals % 15 == 0

    def test_bad_terms_rejected(self, pair, sep):
        with pytest.raises(ValueError, match="empty"):
            u_terms(*pair, sep, [])
        with pytest.raises(ValueError, match="beta_mode"):
            u_terms(*pair, sep, [("eeee", "full", "bogus")])
        with pytest.raises(ValueError):
            u_terms(*pair, sep, [("eexe", "full", "full")])

    def test_repeated_term_is_its_own_column(self, pair, sep):
        term = ("eeme", "full", "full")
        res = u_terms(*pair, sep, [term, term])
        assert res.value[0] == res.value[1] == u_unified(*pair, sep,
                                                         "eeme").value


# ---------------------------------------------------------------------------
# The unified-form products against a brute-force sum of 3x3 traces
# ---------------------------------------------------------------------------

_SLOT_BLOCKS = {"ee": 0, "mm": 1, "em": 2, "me": 3}
_FACTOR_SEPS = [Separation(0.4 * np.array([0.6, 0.0, 0.8]), np.zeros(3)),
                Separation(np.array([1.0, 2.0, -2.0]), np.array([0.5, 0, 0])),
                Separation(np.array([0.0, 0.0, 9.0]), np.zeros(3))]
_FACTOR_XIS = np.geomspace(1e-3, 1e2, 20)


def _brute_force_columns(mol_a, mol_b, terms, weights, duality):
    """(n, P J) columns from one kernels.trace4 per term, separation and
    node batch, and the absolute sum of the weighted terms per column."""
    def responses(mol, mode):
        return response_arrays(mol, _FACTOR_XIS, mode, duality=duality)

    out, scale = [], []
    for s in _FACTOR_SEPS:
        table, coefficients = FreeSpaceProvider().bind(s.r_a, s.r_b)
        blocks = coefficients(_FACTOR_XIS) @ table
        ab, ba = (blocks[:, k:k + 36].reshape(-1, 2, 2, 3, 3)
                  for k in (0, 36))
        traces = []
        for tup, mode_a, mode_b in terms:
            l1, l2, l3, l4 = ("em".index(lam) for lam in tup)
            a = responses(mol_a, mode_a)[_SLOT_BLOCKS[tup[:2]]]
            b = responses(mol_b, mode_b)[_SLOT_BLOCKS[tup[2:]]]
            traces.append(-(0.5 / math.pi) * kernels.trace4(
                np.ascontiguousarray(a), ab[:, l2, l3],
                np.ascontiguousarray(b), ba[:, l4, l1]))
        traces = np.array(traces)                          # (K, n)
        out.append(weights @ traces)
        scale.append(np.abs(weights) @ np.abs(traces))
    return np.hstack([c.T for c in out]), np.hstack([c.T for c in scale])


# a row is one product when both molecules keep one beta mode (EE, PP, DD,
# CC), two when one of them mixes the paramagnetic and diamagnetic parts
_ROW_PRODUCTS = {"EE": 1, "EP": 2, "ED": 2, "EC": 2, "PP": 1, "PD": 2,
                 "PC": 2, "DD": 1, "DC": 2, "CC": 1}


def _factor_cases():
    """(id, terms, weights, duality, product count)."""
    cases = []
    for label in ComponentLabel:
        for duality in (None, math.pi / 5):
            if duality is not None and label.value in ("PC", "DC"):
                continue
            terms = potentials._label_terms(label, duality)
            cases.append((f"{label.value}-{duality}", terms,
                          np.ones((1, len(terms))), duality, 1))
    for row in ROW_NAMES:
        terms = list(ROW_SPECS[row])
        cases.append((f"row-{row}", terms, np.ones((1, len(terms))), None,
                      _ROW_PRODUCTS[row]))
    for tup in _ALL16:
        cases.append((tup, [(tup, "full", "full")], np.ones((1, 1)), None,
                      1))
    terms = [(tup, "full", "full") for tup in _ALL16]
    cases.append(("identity", terms, np.eye(16), None, 16))
    # a general weight matrix: terms of unequal weight are not merged, so
    # its three columns take 19 products; with unit weights they take 2
    mixed = [(tup, mode, "para") for tup in _ALL16[:8]
             for mode in ("full", "dia")]
    weights = np.random.default_rng(4).integers(-2, 3, (3, 16)) / 2.0
    cases.append(("mixed", mixed, weights, None, 19))
    return cases


class TestUnifiedFormProducts:
    @pytest.mark.parametrize("name,terms,weights,duality,count",
                             _factor_cases(),
                             ids=[c[0] for c in _factor_cases()])
    def test_columns_match_brute_force_traces(self, pair, name, terms,
                                              weights, duality, count):
        products, _ = potentials._products(terms, weights)
        assert len(products) == count
        integrand = potentials._plan_integrand(
            *pair, _FACTOR_SEPS, potentials._plan(terms, weights),
            FreeSpaceProvider(), duality)
        got = integrand(_FACTOR_XIS)
        want, scale = _brute_force_columns(*pair, terms, weights, duality)
        assert got.shape == want.shape == (20, 3 * len(weights))
        assert np.all(np.abs(got - want) <= 1e-13 * scale), name


# ---------------------------------------------------------------------------
# The log-frequency layout of the half-line
# ---------------------------------------------------------------------------

def _oracle_data(mol):
    """(omegas, dipoles, magnetic dipoles, beta_dia) for the oracles."""
    return (np.array(mol.omegas),
            np.array([t.d for t in mol.transitions]),
            np.array([t.m_tilde for t in mol.transitions]), mol.beta_dia)


def _wide_pair():
    """Resonances spanning eight decades, 1e-4 to 1e4."""
    rng = np.random.default_rng(7)

    def build(name, omegas):
        trs = tuple(Transition(w, rng.normal(size=3), rng.normal(size=3))
                    for w in omegas)
        m = rng.normal(size=(3, 3))
        return Molecule(name, trs, beta_dia=-0.03 * (m @ m.T))

    return build("wide-a", (1e-4, 1.0)), build("wide-b", (1e-2, 1e4))


_WIDE_PAIR = _wide_pair()


class TestLogFrequencyLayout:
    @pytest.mark.parametrize("R", [1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e5])
    def test_sixteen_tuples_against_quad_vec(self, R):
        # with R omega from 1e-14 to 1e9 one of the two scales, the
        # resonances or 1/R, sits at the edge of any map of the half-line
        # onto a finite interval
        a, b = _WIDE_PAIR
        sep = Separation(R * _GATE_DIRECTION, np.zeros(3))
        res = u_terms(a, b, sep, [(tup, "full", "full") for tup in _ALL16])
        assert res.converged
        scales = [*a.omegas, *b.omegas, 1.0 / R]
        ref = oracles.quad_vec_geometric(
            oracles.sixteen_tuples_integrand(_oracle_data(a), _oracle_data(b),
                                             sep.r_a, sep.r_b),
            min(scales) / 1e3, 200.0 * max(scales), res.value)
        gap = np.abs(res.value - ref)
        assert np.all(gap <= 1e-10 * np.abs(ref)), gap / np.abs(ref)
        # the error estimates cover the actual errors
        assert np.all(gap <= res.error_estimate), gap / res.error_estimate

    def test_near_zone_ee_scales_as_r_minus_six(self):
        # retardation corrections are O((R omega)^2) <= 1e-12 here
        a, b = bundled_pair()
        scaled = []
        for R in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
            res = u_named(a, b, Separation(R * _GATE_DIRECTION, np.zeros(3)),
                          "EE")
            assert res.converged
            scaled.append(R**6 * res.value)
        np.testing.assert_allclose(scaled, scaled[0], rtol=1e-10, atol=0.0)

    def test_total_at_a_sign_change_is_converged_only_when_accurate(self):
        # the sixteen tuples cancel about 2e4-fold near this separation;
        # each tuple meeting rel_tol does not make their sum meet it
        a, b = bundled_pair()
        direction = np.array([-0.8448, -0.4099, 0.3441])
        direction /= np.linalg.norm(direction)
        sep = Separation(4.2629525 * direction, np.zeros(3))
        res = u_named(a, b, sep, "TOTAL")
        tuples = oracles.sixteen_tuples_integrand(
            _oracle_data(a), _oracle_data(b), sep.r_a, sep.r_b)
        scales = [*a.omegas, *b.omegas, 1.0 / sep.R]
        ref = oracles.quad_vec_geometric(
            lambda x: tuples(x).sum(keepdims=True), min(scales) / 1e3,
            200.0 * max(scales), [res.value])[0]
        assert (not res.converged
                or abs(res.value - ref) <= 1e-10 * abs(ref)), (res, ref)


def test_tail_breakpoint_in_subnormal_band_is_dropped():
    # R * omega_max = 18.564 put the former tail breakpoint 20 * omega_max
    # at u = exp(-2 R tail) ~ 1e-322, a subnormal; Kronrod nodes of the
    # panel [0, u] then rounded to u = 0, i.e. xi = inf, and the call raised
    a, b = bundled_pair()
    sep = Separation(np.array([0.0, 0.0, 14.28]), np.zeros(3))
    res = u_named(a, b, sep, "EE")
    assert res.converged
    integrand = potentials._plan_integrand(
        a, b, [sep], potentials._sum_plan([("eeee", "full", "full")]),
        FreeSpaceProvider(), None)
    points = sorted(set(a.omegas) | set(b.omegas))
    reference = oracles.scipy_halfline(
        lambda x: float(integrand(np.array([x]))[0, 0]), points)
    assert res.value == pytest.approx(reference, rel=1e-9)


@pytest.mark.parametrize("label", ["EE", "TOTAL"])
def test_separations_beyond_the_cube_overflow_give_zero(label):
    # R**3 overflows a float from R ~ 5.6e102 on, while the potential has
    # underflowed to 0 long before: the propagator prefactor 1/(4 pi R^3)
    # is 0 there, and so is the converged value
    a, b = bundled_pair()
    for k in range(100, 151):
        sep = Separation(np.array([0.0, 0.0, 10.0 ** k]), np.zeros(3))
        res = u_named(a, b, sep, label)
        assert (res.value, res.converged) == (0.0, True), k


def test_separations_beyond_the_square_overflow_give_zero():
    # from R ~ 1e151 on (xi R)^2, from R ~ 1e155 on r . r and from
    # R ~ 3.5e304 on the layout's xi_hi/xi_lo = 4000 max(omega) R overflow
    # a float; the propagator is exactly 0 there, and so is the value
    a, b = bundled_pair()
    for k in range(151, 309):
        sep = Separation(np.array([0.0, 0.0, 10.0 ** k]), np.zeros(3))
        res = u_named(a, b, sep, "EE")
        assert (res.value, res.converged) == (0.0, True), k


@pytest.mark.parametrize("label", ["EE", "TOTAL"])
def test_separations_where_the_potential_overflows_are_named(label):
    # |U_EE| ~ 1e294 at R = 1e-50 for the bundled pair; far below that the
    # value leaves float range, and the error says so at the separation
    # (every floating point warning is an error in this suite)
    a, b = bundled_pair()
    for k in range(-160, -99):
        R = 10.0 ** k
        sep = Separation(np.array([0.0, 0.0, R]), np.zeros(3))
        with pytest.raises(NonFiniteIntegrandError) as info:
            u_named(a, b, sep, label)
        assert str(info.value) == (
            f"the potential overflows float range at R = {R!r}"), k


@pytest.mark.parametrize("k", [-44.68, -44.8, -52.1])
def test_each_overflow_of_the_potential_is_named(k):
    # row DD of the bundled pair is -1.34e308 at R = 10**-44.64; closer,
    # first its sum over the panels overflows (k = -44.68), then the
    # integrand times the map's Jacobian (-44.8), then the integrand
    # itself (-52.1)
    a, b = bundled_pair()
    res = u_row(a, b, Separation(np.array([0.0, 0.0, 10.0 ** -44.64]),
                                 np.zeros(3)), "DD")
    assert res.converged and -1.8e308 < res.value < -1e308
    R = 10.0 ** k
    with pytest.raises(NonFiniteIntegrandError) as info:
        u_row(a, b, Separation(np.array([0.0, 0.0, R]), np.zeros(3)), "DD")
    assert str(info.value) == (
        f"the potential overflows float range at R = {R!r}")


def test_curve_names_the_separation_that_overflows():
    a, b = bundled_pair()
    with pytest.raises(NonFiniteIntegrandError,
                       match="overflows float range at R = 1e-120"):
        compute_curve(a, b, (0.0, 0.0, 1.0), [1.0, 1e-120], "EE")


@pytest.mark.parametrize("k", range(301, 309))
def test_direct_form_beyond_the_layout_range_gives_zero(k):
    a, b = bundled_pair()
    res = u_cc_direct(a, b, Separation(np.array([0.0, 0.0, 10.0 ** k]),
                                       np.zeros(3)))
    assert (res.value, res.converged) == (0.0, True)


@pytest.mark.parametrize("direct", [u_ec_direct, u_mc_direct, u_pc_direct,
                                    u_dc_direct, u_cc_direct])
def test_direct_forms_name_the_overflow(direct):
    # as the product route does, without a floating point warning
    a, b = bundled_pair()
    R = 1e-100
    with pytest.raises(NonFiniteIntegrandError) as info:
        direct(a, b, Separation(np.array([0.0, 0.0, R]), np.zeros(3)))
    assert str(info.value) == (
        f"the potential overflows float range at R = {R!r}")


@pytest.mark.parametrize("integral", [
    lambda a, b, s: u_named(a, b, s, "TOTAL"),
    lambda a, b, s: u_ec_direct(a, b, s),
])
def test_a_providers_nan_names_the_abscissa(pair, sep, integral,
                                            monkeypatch):
    base = FreeSpaceProvider()

    class NaNAboveTwo:
        def bind(self, r_a, r_b):
            table, coefficients = base.bind(r_a, r_b)

            def poisoned(xis):
                coeffs = coefficients(xis).copy()
                coeffs[:, xis > 2.0] = np.nan
                return coeffs

            return table, poisoned

    # the direct forms bind free space themselves
    monkeypatch.setattr(potentials, "free_space_provider", NaNAboveTwo)
    with pytest.raises(NonFiniteIntegrandError) as info:
        integral(*pair, sep)
    message = str(info.value)
    assert message.startswith("integrand returned a non-finite value at x=")
    assert float(message.rsplit("=", 1)[1]) > 2.0


class _ScaledAt:
    """Free space with both block matrices of separation ``p`` of every
    pass multiplied by ``factor``: its coefficients are."""

    def __init__(self, p, factor):
        self._base, self._p, self._factor = FreeSpaceProvider(), p, factor

    def bind(self, r_a, r_b):
        table, coefficients = self._base.bind(r_a, r_b)

        def scaled(xis):
            coeffs = coefficients(xis).copy()
            coeffs[self._p] *= self._factor
            return coeffs

        return table, scaled


def test_a_providers_nan_at_one_separation_of_a_curve_names_the_abscissa(
        pair, monkeypatch):
    spy = _HalflineSpy(monkeypatch)
    with pytest.raises(NonFiniteIntegrandError) as info:
        compute_curve(*pair, (0.0, 0.0, 1.0), [2.0, 2.5, 3.0], "TOTAL",
                      provider=_ScaledAt(1, np.nan))
    assert str(info.value).startswith(
        "integrand returned a non-finite value at x=")
    assert spy.integrand_calls == 1


def test_an_overflow_at_one_separation_of_a_curve_names_its_r(pair):
    # the blocks of the middle separation are finite, their traces not
    with pytest.raises(NonFiniteIntegrandError) as info:
        compute_curve(*pair, (0.0, 0.0, 1.0), [2.0, 2.5, 3.0], "TOTAL",
                      provider=_ScaledAt(1, 1e200))
    assert str(info.value) == "the potential overflows float range at R = 2.5"


@pytest.mark.parametrize("R", [1e-305, 1e-306, 1e-307, 1e-308])
@pytest.mark.parametrize("integral", [
    lambda a, b, R: u_named(a, b, Separation(np.array([0.0, 0.0, R]),
                                             np.zeros(3)), "EE"),
    lambda a, b, R: u_ec_direct(a, b, Separation(np.array([0.0, 0.0, R]),
                                                 np.zeros(3))),
    lambda a, b, R: u_cc_isotropic(a, b, R),
], ids=["EE", "ec_direct", "cc_isotropic"])
def test_separations_whose_layout_leaves_float_range_are_named(integral, R):
    # 40/R, the layout's largest frequency, or its tail nodes overflow
    a, b = bundled_pair()
    with pytest.raises(NonFiniteIntegrandError) as info:
        integral(a, b, R)
    assert str(info.value) == (
        f"the potential overflows float range at R = {R!r}")


def test_isotropic_cc_over_the_whole_range():
    # R^6 U is the near-zone constant where U is a float; closer, the
    # overflow is named, and far out the value underflows to 0
    a, b = bundled_pair()
    values = {}
    for k in range(-120, 301):
        R = 10.0 ** k
        try:
            res = u_cc_isotropic(a, b, R)
        except NonFiniteIntegrandError as exc:
            assert str(exc) == (
                f"the potential overflows float range at R = {R!r}"), k
            assert not values, k
            continue
        assert res.converged and math.isfinite(res.value), k
        values[k] = res.value
    assert min(values) > -60 and values[40] == 0.0
    assert all(values[k] == 0.0 for k in values if k >= 40)
    near = [values[k] * (10.0 ** k) ** 6 for k in (-50, -40, -30, -20)]
    assert near == pytest.approx([near[0]] * 4, rel=1e-12)


# ---------------------------------------------------------------------------
# The plans of the named components and the rows, built at import
# ---------------------------------------------------------------------------

def _same(x, y) -> bool:
    """Equality of plans: tuples (named ones included) entry by entry,
    arrays by dtype and entries, anything else by ``==``."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return (type(x) is type(y) and x.dtype == y.dtype
                and np.array_equal(x, y))
    if isinstance(x, tuple):
        return (type(x) is type(y) and len(x) == len(y)
                and all(map(_same, x, y)))
    return x == y


def _zero_and_assign_side(mol, halves, duality):
    """A side's table and kept rows as built per request before the plans:
    per half (mode, S, R_out) a zeroed (2T+1, |R|, 3, |C|, 3) column group
    with the blocks of S assigned one by one from ``response_table``,
    concatenated and trimmed to the span of its non-zero rows."""
    tables = {mode: response_table(mol, mode, duality).reshape(-1, 2, 3, 2, 3)
              for mode in {mode for mode, _, _ in halves}}
    slot = {"e": 0, "m": 1}
    columns = []
    for mode, blocks, _ in halves:
        index = [(slot[row], slot[col]) for row, col in blocks]
        rows = sorted({i for i, _ in index})
        cols = sorted({j for _, j in index})
        part = np.zeros((len(tables[mode]), len(rows), 3, len(cols), 3))
        for i, j in index:
            part[:, i - rows[0], :, j - cols[0]] = tables[mode][:, i, :, j]
        columns.append(part.reshape(len(part), -1))
    table = np.concatenate(columns, axis=1)
    used = np.flatnonzero(table.any(axis=1))
    kept = slice(used[0], used[-1] + 1) if used.size else slice(0, 0)
    return table[kept], kept


# every non-empty block set S of the 6x6 response
_BLOCK_SETS = [subset for size in range(1, 5)
               for subset in itertools.combinations(("ee", "em", "me", "mm"),
                                                    size)]


def _side_cases():
    """(id, halves): per beta mode every block set, against both rows of
    the other side; and one side mixing the three modes."""
    cases = [(mode, [(mode, blocks, rows_out) for blocks in _BLOCK_SETS
                     for rows_out in ((0,), (1,), (0, 1))])
             for mode in ("full", "para", "dia")]
    cases.append(("mixed", [(mode, blocks, (0, 1))
                            for mode, blocks in zip(
                                itertools.cycle(("dia", "full", "para")),
                                _BLOCK_SETS)]))
    return cases


def _transitions_molecule(count):
    rng = np.random.default_rng(count)
    m = rng.normal(size=(3, 3))
    return Molecule.from_arrays(f"t{count}", rng.uniform(0.5, 2.5, count),
                                rng.normal(size=(count, 3)),
                                rng.normal(size=(count, 3)), -0.03 * (m @ m.T))


class TestPlanConstants:
    @pytest.mark.parametrize("label", list(ComponentLabel))
    def test_label_plan_is_its_terms_plan(self, label):
        mode_a = {"PC": "para", "DC": "dia"}.get(label.value, "full")
        terms = [(tup, mode_a, "full") for tup in LABEL_TUPLES[label]]
        plan = potentials._LABEL_PLANS[label]
        assert _same(plan, potentials._plan(terms, np.ones((1, len(terms)))))
        assert len(plan.pairs) == 1 and plan.weights.shape == (1, 1)

    @pytest.mark.parametrize("row", ROW_NAMES)
    def test_row_plan_is_its_terms_plan(self, row):
        terms = ROW_SPECS[row]
        plan = potentials._ROW_PLANS[row]
        assert _same(plan, potentials._plan(terms, np.ones((1, len(terms)))))
        assert 1 <= len(plan.pairs) <= 2
        assert plan.weights.shape == (1, len(plan.pairs))

    def test_every_label_and_row_has_a_plan(self):
        assert set(potentials._LABEL_PLANS) == set(ComponentLabel)
        assert tuple(potentials._ROW_PLANS) == ROW_NAMES

    @pytest.mark.parametrize("count", [0, 1, 64])
    @pytest.mark.parametrize("duality", [None, math.pi / 5])
    @pytest.mark.parametrize("name,halves", _side_cases(),
                             ids=[c[0] for c in _side_cases()])
    def test_gathered_side_equals_zero_and_assign(self, name, halves,
                                                  duality, count):
        mol = _transitions_molecule(count)
        table, kept = potentials._side_table(
            mol, potentials._side_plan(halves), duality)
        want, want_kept = _zero_and_assign_side(mol, halves, duality)
        assert kept == want_kept
        assert table.shape == want.shape
        # entry for entry, signed zeros included
        assert table.tobytes() == want.tobytes()

    def test_empty_side_table_keeps_no_rows(self):
        mol = _transitions_molecule(0)
        side = potentials._side_plan([("para", ("mm",), (0, 1))])
        table, kept = potentials._side_table(mol, side, None)
        assert kept == slice(0, 0) and table.shape == (0, 9)

    def test_requests_build_no_plan(self, monkeypatch):
        def no_plan(terms, weights):
            raise AssertionError("a plan was built at request time")

        a, b = bundled_pair()
        sep = Separation(np.array([0.3, -0.4, 2.0]), np.zeros(3))
        monkeypatch.setattr(potentials, "_products", no_plan)
        for label in ComponentLabel:
            assert u_named(a, b, sep, label).converged
        assert u_named(a, b, sep, "TOTAL", duality=math.pi / 5).converged
        for row in ROW_NAMES:
            assert u_row(a, b, sep, row).converged
        for component in ("TOTAL", "PC", "ED"):
            curve = compute_curve(a, b, (0.3, -0.4, 2.0), [1.0, 2.0, 4.0],
                                  component)
            assert curve.converged.all()
        # a list of terms the caller supplies is planned when it is called
        with pytest.raises(AssertionError, match="request time"):
            u_unified(a, b, sep, "eeem")
        with pytest.raises(AssertionError, match="request time"):
            compute_curve(a, b, (0.0, 0.0, 1.0), [2.0], "eeem")


# ---------------------------------------------------------------------------
# A curve's separations integrated together against one run per separation
# ---------------------------------------------------------------------------

def _many_transition_pair(seed):
    """A pair with 16-64 transitions each, log-uniform over [0.1, 10]."""
    rng = np.random.default_rng(seed)

    def build(name):
        count = int(rng.integers(16, 65))
        scale = 1.0 / math.sqrt(count)
        trs = tuple(
            Transition(float(w), scale * rng.normal(size=3),
                       scale * rng.normal(size=3))
            for w in np.exp(rng.uniform(math.log(0.1), math.log(10.0),
                                        count)))
        m = rng.normal(size=(3, 3))
        return Molecule(name, trs, beta_dia=-0.03 * (m @ m.T))

    return build(f"many-{seed}a"), build(f"many-{seed}b")


_CURVE_PAIRS = {"bundled": bundled_pair(), "many-5": _many_transition_pair(5)}
_CURVE_GRIDS = {"near-band": np.geomspace(0.3, 3.0, 6),
                "wide": np.geomspace(1e-6, 1e4, 12)}
_CURVE_DIRECTION = np.array([1.0, -2.0, 2.0]) / 3.0


def _band_decade(a, b, R):
    """0 when 1/R lies in the pair's transition band, else +-the number of
    decades (rounded up) that it lies above or below it."""
    lo = min(*a.omegas, *b.omegas)
    hi = max(*a.omegas, *b.omegas)
    k = 1.0 / R
    if k > hi:
        return math.ceil(math.log10(k / hi))
    if k < lo:
        return -math.ceil(math.log10(lo / k))
    return 0


class _HalflineSpy:
    """Records (evals, columns) of every ``integrate_halfline`` call and
    counts the integrand calls."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.integrand_calls = 0
        inner = potentials.integrate_halfline

        def spy(f, spec, breakpoints=()):
            def counted(xs):
                self.integrand_calls += 1
                return f(xs)

            res = inner(counted, spec, breakpoints=breakpoints)
            self.calls.append((res.evals, np.size(res.value)))
            return res

        monkeypatch.setattr(potentials, "integrate_halfline", spy)

    def columns(self):
        return sum(cols for _, cols in self.calls)

    def node_separations(self):
        """Shared nodes times the separations of each pass (one column per
        separation)."""
        return sum(evals * cols for evals, cols in self.calls)


class TestCurveMatchesPerSeparationRuns:
    @pytest.mark.parametrize("grid", sorted(_CURVE_GRIDS))
    @pytest.mark.parametrize("name,component", [
        ("bundled", "TOTAL"), ("bundled", "EC"), ("bundled", "PD"),
        ("bundled", "eeme"), ("many-5", "EC"), ("many-5", "PD"),
        ("many-5", "eeme")])
    def test_points_match_single_value_calls(self, name, grid, component,
                                             monkeypatch):
        a, b = _CURVE_PAIRS[name]
        rs = _CURVE_GRIDS[grid]
        kind, key = resolve_component(component)
        single = {"label": u_named, "row": u_row, "tuple": u_unified}[kind]

        spy = _HalflineSpy(monkeypatch)
        curve = compute_curve(a, b, _CURVE_DIRECTION, rs, component)
        passes = len(spy.calls)
        # a curve integrates only its sums: one column per separation
        assert spy.columns() == len(rs)
        grouped = spy.node_separations()
        spy.calls.clear()
        refs = [single(a, b, Separation(R * _CURVE_DIRECTION, np.zeros(3)),
                       key) for R in rs]
        per_r = spy.node_separations()

        for R, u, err, conv, ref in zip(rs, curve.u_values,
                                        curve.error_estimates,
                                        curve.converged, refs):
            _assert_agree(u, err, ref.value, ref.error_estimate, (key, R))
            assert conv == ref.converged, (key, R)
        assert curve.converged.all()
        # one pass per decade of 1/R relative to the transition band
        decades = {_band_decade(a, b, R) for R in rs}
        assert passes == len(decades)
        if name == "bundled":
            assert grouped <= 1.3 * per_r, (grouped, per_r)

    @pytest.mark.parametrize("name", sorted(_CURVE_PAIRS))
    def test_in_band_curve_is_one_pass(self, name, monkeypatch):
        a, b = _CURVE_PAIRS[name]
        lo = min(*a.omegas, *b.omegas)
        hi = max(*a.omegas, *b.omegas)
        rs = np.geomspace(1.01 / hi, 0.99 / lo, 5)
        spy = _HalflineSpy(monkeypatch)
        compute_curve(a, b, _CURVE_DIRECTION, rs, "EE")
        assert len(spy.calls) == 1


class TestRoundOffFloor:
    """TOTAL of the bundled pair next to its zero R* along one direction:
    its tolerance there lies below the round-off floor of its terms."""

    R_STAR = 4.266554283
    DIRECTION = np.array([-0.8448, -0.4099, 0.3441])

    def _sep(self, R):
        direction = self.DIRECTION / np.linalg.norm(self.DIRECTION)
        return Separation(R * direction, np.zeros(3))

    def test_single_value_stops_at_the_floor(self):
        a, b = bundled_pair()
        res = u_named(a, b, self._sep(self.R_STAR * (1 + 1e-5)), "TOTAL")
        assert not res.converged
        assert res.evals < 2000
        # the value is honest: the floor is tiny in absolute terms
        assert res.error_estimate < 1e-20

    def test_curve_flags_only_that_point(self, monkeypatch):
        a, b = bundled_pair()
        rs = np.geomspace(1.0, 16.0, 9)
        rs[4] = self.R_STAR * (1 + 1e-5)
        spy = _HalflineSpy(monkeypatch)
        curve = compute_curve(a, b, self.DIRECTION, rs, "TOTAL")
        np.testing.assert_array_equal(curve.converged, np.arange(9) != 4)
        # the held point does not drive its pass to the budget
        assert all(evals < 2000 for evals, _ in spy.calls), spy.calls
        near = u_named(a, b, self._sep(rs[4]), "TOTAL")
        _assert_agree(curve.u_values[4], curve.error_estimates[4],
                      near.value, near.error_estimate, "near R*")
