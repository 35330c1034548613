"""Tests for the adaptive quadrature engines."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from chivdw.quad import (NonFiniteIntegrandError, QuadResult, QuadSpec,
                         integrate_halfline, integrate_interval, integrate_pv)

SPEC = QuadSpec(rel_tol=1e-12, abs_tol=1e-300, max_evals=100_000)
SPEC_ALG = SPEC


class TestQuadSpec:
    def test_defaults(self):
        spec = QuadSpec()
        assert spec.rel_tol == 1e-10
        assert spec.abs_tol == 1e-300
        assert spec.max_evals == 20000

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"rel_tol": -1e-3}, {"max_evals": 0},
        {"abs_tol": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuadSpec(**kwargs)


class TestHalfline:
    def test_exponential(self):
        res = integrate_halfline(lambda x: np.exp(-2.0 * x), SPEC)
        assert res.converged
        assert res.value == pytest.approx(0.5, rel=1e-12)
        assert res.error_estimate <= max(1e-12 * 0.5, 1e-300)

    def test_cubic_exponential(self):
        res = integrate_halfline(lambda x: x**3 * np.exp(-2.0 * x), SPEC)
        assert res.converged
        assert res.value == pytest.approx(oracles.INT_X3_EXP2X, rel=1e-12)

    def test_isotropic_cc_style_kernel(self):
        # e^{-2x}(3 + 6x + 4x^2)/(8 pi^3) against a dense trapezoid oracle
        def f(x):
            return np.exp(-2.0 * x) * (3.0 + 6.0 * x + 4.0 * x**2) / (8.0 * np.pi**3)

        grid = np.linspace(0.0, 40.0, 1_000_001)
        oracle = np.trapezoid(f(grid), grid)
        res = integrate_halfline(f, SPEC)
        assert res.converged
        assert res.value == pytest.approx(oracle, rel=1e-9)

    def test_algebraic_map_without_decay_hint(self):
        res = integrate_halfline(lambda x: 1.0 / (1.0 + x**2), SPEC_ALG)
        assert res.converged
        assert res.value == pytest.approx(np.pi / 2.0, rel=1e-11)

    def test_breakpoints_accepted(self):
        res = integrate_halfline(lambda x: np.exp(-2.0 * x), SPEC,
                                 breakpoints=[0.3, 1.0, 7.5])
        assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_breakpoint_mapping_to_subnormal_u_is_dropped(self):
        # under the former map u = exp(-2x), exp(-2 * 370) ~ 4e-322 was
        # subnormal and Kronrod nodes of the panel [0, u] rounded to u = 0,
        # i.e. x = inf; a breakpoint far in the tail must stay harmless
        res = integrate_halfline(lambda x: np.exp(-2.0 * x), SPEC,
                                 breakpoints=[1.0, 370.0])
        assert res.converged
        assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_vector_integrand_meets_tolerance_per_component(self):
        # the second component is 1e-20 times smaller; a norm over the
        # components would accept it at any accuracy
        def f(x):
            return np.stack([np.exp(-2.0 * x),
                             1e-20 * x**3 * np.exp(-2.0 * x),
                             np.exp(-x) / (1.0 + x**2)], axis=1)

        res = integrate_halfline(f, SPEC)
        assert res.converged
        assert res.value.shape == res.error_estimate.shape == (3,)
        assert res.value[0] == pytest.approx(0.5, rel=1e-12)
        assert res.value[1] == pytest.approx(1e-20 * oracles.INT_X3_EXP2X,
                                             rel=1e-12)
        assert res.value[2] == pytest.approx(
            oracles.scipy_halfline(lambda x: np.exp(-x) / (1.0 + x**2)),
            rel=1e-11)
        assert np.all(res.error_estimate <= 1e-12 * np.abs(res.value))
        # the nodes are shared: fewer evaluations than the three components
        # take on their own, and the same values
        alone = [integrate_halfline(lambda x, k=k: f(x)[:, k], SPEC)
                 for k in range(3)]
        assert res.evals < sum(r.evals for r in alone)
        for k, r in enumerate(alone):
            assert res.value[k] == pytest.approx(r.value, rel=1e-12)

    def test_vector_integrand_budget_exhaustion(self):
        tiny = QuadSpec(rel_tol=1e-15, abs_tol=1e-300, max_evals=45)
        res = integrate_halfline(
            lambda x: np.stack([np.exp(-x), np.exp(-x) * np.sin(x)**2], 1),
            tiny)
        assert not res.converged
        assert res.evals <= 45 + 30 * 15

    def test_scalar_only_integrand_raises_its_own_error(self):
        def f(x):
            return math.exp(-2.0 * x)  # rejects arrays

        with pytest.raises(TypeError):
            integrate_halfline(f, SPEC)

    def test_integrand_of_wrong_shape_raises_naming_it(self):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            integrate_halfline(lambda x: 1.0, SPEC)

    @pytest.mark.parametrize("low", [1e-305, 1e-308, 5e-324])
    def test_scales_whose_ratio_overflows_share_the_head_panel(self, low):
        # 40 * 1e3 / (low / 100) is not a float: the layout starts at
        # 2**-1020 of its top, and the scales below that lie in the head
        res = integrate_halfline(lambda x: np.exp(-2.0 * x), SPEC,
                                 breakpoints=[low, 1.0, 1e3])
        assert res.converged
        assert res.value == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("top", [1e307, sys.float_info.max])
    def test_layout_beyond_float_range_raises_mapped(self, top):
        # 40 * top is not a float; the integrand is never called
        calls = []
        with pytest.raises(NonFiniteIntegrandError,
                           match="layout leaves float range") as info:
            integrate_halfline(lambda x: calls.append(x) or np.exp(-x), SPEC,
                               breakpoints=[1.0, top])
        assert info.value.mapped and not calls

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("top", [1e305, 1e306])
    def test_tail_nodes_beyond_float_range_raise_mapped(self, top):
        # 40 * top is a float, the tail map's outer nodes are not; the
        # integrand never sees xi = inf
        seen = []

        def f(x):
            seen.append(x)
            return np.exp(-x)

        with pytest.raises(NonFiniteIntegrandError,
                           match="map overflowed at t=") as info:
            integrate_halfline(f, SPEC, breakpoints=[1.0, top])
        assert info.value.mapped
        assert all(np.isfinite(x).all() for x in seen)

    def test_nan_raises_with_abscissa(self):
        def f(x):
            x = np.asarray(x)
            out = np.exp(-x)
            return np.where(np.abs(x - 0.5) < 0.2, np.nan, out)

        with pytest.raises(NonFiniteIntegrandError,
                           match="non-finite") as info:
            integrate_halfline(f, SPEC)
        # the abscissa named is xi, where f is NaN, not the mapped variable
        xi = float(str(info.value).rsplit("x=", 1)[1])
        assert abs(xi - 0.5) < 0.2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_integrand_overflowing_the_tail_map_raises(self):
        # f is finite, f times the tail's Jacobian is not
        with pytest.raises(NonFiniteIntegrandError, match="overflowed at t="):
            integrate_halfline(lambda x: np.full(x.shape, 1e305), SPEC)

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-11])
    def test_algebraic_tail_at_tight_tolerance_stays_finite(self, rel_tol):
        # (1 + x)^-1.5 decays so slowly that bisection drives the tail
        # panel down to the float resolution of its end, where a node
        # would round onto xi = inf; the result must stay finite, and
        # converged only within tolerance of the exact value 2
        spec = QuadSpec(rel_tol=rel_tol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_halfline(lambda x: (1.0 + x) ** -1.5, spec)
        assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
        assert abs(res.value - 2.0) <= res.error_estimate
        if res.converged:
            assert abs(res.value - 2.0) <= rel_tol * 2.0

    @pytest.mark.parametrize("rel_tol, within_budget",
                             [(1e-11, True), (1e-12, False)])
    def test_algebraic_tail_below_float_resolution_is_unconverged(
            self, rel_tol, within_budget):
        # the last panel of the tail cannot be narrowed below the float
        # resolution of its end, and what it carries there (about 1.7e-7)
        # is far above these tolerances; at 1e-11 the run stops when that
        # panel becomes too narrow (10,200 evals), at 1e-12 the splits of
        # its neighbours spend the budget first
        spec = QuadSpec(rel_tol=rel_tol)
        res = integrate_halfline(lambda x: (1.0 + x) ** -1.5, spec)
        assert not res.converged
        assert res.error_estimate >= abs(res.value - 2.0)
        assert (res.evals < spec.max_evals) == within_budget

    def test_budget_exhaustion_flags_unconverged(self):
        tiny = QuadSpec(rel_tol=1e-15, abs_tol=1e-300, max_evals=45)
        res = integrate_halfline(lambda x: np.exp(-x) * np.sin(x)**2, tiny)
        assert not res.converged
        assert res.evals <= 45 + 30 * 15  # budget plus at most one round over

    def test_error_tracks_requested_tolerance(self):
        # the realised error must stay within the requested relative
        # tolerance (plus the oracle's own noise floor) at every level
        cases = [
            (lambda x: np.exp(-2.0 * x), 0.5),
            (lambda x: x**3 * np.exp(-2.0 * x), 3.0 / 8.0),
            (lambda x: np.exp(-x) / (1.0 + x**2),
             oracles.scipy_halfline(lambda x: np.exp(-x) / (1.0 + x**2))),
        ]
        for f, oracle in cases:
            errs = {}
            rel = 1e-4
            while rel >= 1e-12:
                res = integrate_halfline(
                    f, QuadSpec(rel_tol=rel, abs_tol=1e-300,
                                max_evals=200_000))
                assert res.converged
                err = abs(res.value - oracle)
                assert err <= rel * abs(oracle) + 1e-12
                errs[rel] = err
                rel /= 2.0
            # tightening from 1e-4 to 1e-12 must actually help (or both
            # already sit at the noise floor)
            assert errs[min(errs)] <= max(errs[max(errs)], 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    def test_linearity(self, a, b):
        f = lambda x: np.exp(-2.0 * x)
        g = lambda x: x * np.exp(-1.5 * x)
        combo = lambda x: a * f(x) + b * g(x)
        spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-16, max_evals=100_000)
        rf = integrate_halfline(f, spec)
        rg = integrate_halfline(g, spec)
        rc = integrate_halfline(combo, spec)
        expected = a * rf.value + b * rg.value
        tol = (abs(a) + 1) * rf.error_estimate + (abs(b) + 1) * rg.error_estimate \
            + rc.error_estimate + 1e-14
        assert abs(rc.value - expected) <= tol


class TestInterval:
    def test_polynomial_exact(self):
        res = integrate_interval(lambda x: x**6, 0.0, 1.0, SPEC_ALG)
        assert res.value == pytest.approx(1.0 / 7.0, rel=1e-14)

    def test_oscillatory(self):
        res = integrate_interval(lambda x: np.sin(10.0 * x), 0.0, 1.0,
                                 SPEC_ALG)
        assert res.converged
        assert res.value == pytest.approx((1 - np.cos(10.0)) / 10.0,
                                          rel=1e-12)

    def test_component_held_at_round_off_floor_stops_refining(self):
        # the integral of sin over a full period is zero to round-off, so
        # its tolerance sits below the 50 eps resabs floor of every panel;
        # splitting cannot lower that floor, and the component must not
        # spend the budget trying while the other one has converged
        def f(x):
            return np.stack([np.sin(x), np.exp(x)], axis=1)

        res = integrate_interval(f, 0.0, 2.0 * math.pi, SPEC)
        assert not res.converged
        assert res.evals < 500
        assert abs(res.value[0]) <= res.error_estimate[0] < 1e-12
        assert res.value[1] == pytest.approx(math.exp(2.0 * math.pi) - 1.0,
                                             rel=1e-12)
        assert res.error_estimate[1] <= 1e-12 * res.value[1]

    def test_component_stuck_in_narrow_panels_leaves_others_refining(self):
        # the first component's singularity at x = 1 leaves more error than
        # its tolerance in the panel beside it once that panel is too
        # narrow to bisect (near 1, long before the second component's
        # panel at 0 is); the second component still needs splits at 0
        # after that, and must get them
        def f(x):
            return np.stack([np.where(x > 1.0, np.abs(x - 1.0) ** -0.9, 0.0),
                             x ** -0.7], axis=1)

        rel_tol = 1e-5
        res = integrate_interval(f, 0.0, 2.0, QuadSpec(rel_tol=rel_tol),
                                 breakpoints=[1.0])
        assert not res.converged
        assert res.error_estimate[0] >= abs(res.value[0] - 10.0)
        exact = 2.0 ** 0.3 / 0.3
        assert res.error_estimate[1] <= rel_tol * abs(res.value[1])
        assert res.value[1] == pytest.approx(exact, rel=rel_tol)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate_interval(lambda x: x, 1.0, 0.0, SPEC_ALG)
        with pytest.raises(ValueError):
            integrate_interval(lambda x: x, 0.0, np.inf, SPEC_ALG)


class TestPrincipalValue:
    def test_odd_pole_vanishes(self):
        res = integrate_pv(lambda x: 1.0 / (x - 1.0), 1.0, 0.0, 2.0, SPEC_ALG)
        assert res.value == pytest.approx(oracles.PV_RECIP_0_2, abs=1e-12)

    def test_x_over_x_minus_one(self):
        res = integrate_pv(lambda x: x / (x - 1.0), 1.0, 0.0, 2.0, SPEC_ALG)
        assert res.converged
        assert res.value == pytest.approx(oracles.PV_X_OVER_XM1_0_2,
                                          rel=1e-12)

    def test_exponential_tail_vs_symmetric_grid_oracle(self):
        f = lambda x: np.exp(-x) / (x - 1.0)
        oracle = oracles.pv_symmetric_grid(
            lambda x: math.exp(-x) / (x - 1.0), 1.0, 0.0, 60.0)
        res = integrate_pv(f, 1.0, 0.0, 60.0, SPEC_ALG)
        assert res.converged
        assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_pole_outside_rejected(self):
        with pytest.raises(ValueError):
            integrate_pv(lambda x: 1.0 / (x - 5.0), 5.0, 0.0, 2.0, SPEC_ALG)

    @settings(max_examples=15, deadline=None)
    @given(pole=st.floats(0.2, 3.0), width=st.floats(0.5, 4.0))
    @example(pole=0.99999, width=1.0)
    def test_odd_integrand_about_pole_gives_zero(self, pole, width):
        # cos(x-p)/(x-p) is odd about the pole: its principal value vanishes.
        # The pinned example has pole + t crossing into the next binade,
        # where offsets snapped to multiples of the pole's ulp lose their
        # mirror symmetry.
        h = lambda x: np.cos(x - pole) / (x - pole)
        res = integrate_pv(h, pole, pole - width, pole + width, SPEC_ALG)
        assert abs(res.value) <= 1e-12

    def test_result_addition(self):
        r1 = QuadResult(1.0, 1e-12, 30, True)
        r2 = QuadResult(2.0, 2e-12, 45, False)
        tot = r1 + r2
        assert tot.value == 3.0
        assert tot.error_estimate == pytest.approx(3e-12)
        assert tot.evals == 75
        assert not tot.converged


class TestKronrodConstants:
    def test_weights_sum_to_two(self):
        from chivdw.quad import _W15
        assert np.sum(_W15) == pytest.approx(2.0, abs=1e-15)

    def test_null_rules_vanish_below_their_degree(self):
        # row 1 + j is the coefficient of degree 9 + j: it annihilates every
        # polynomial of lower degree and not the Legendre polynomial of its
        # own
        from chivdw.quad import _NODES, _RULES
        legendre = np.polynomial.legendre.legvander(_NODES, 14)
        for j, row in enumerate(_RULES[1:]):
            degree = 9 + j
            for k in range(degree):
                assert abs(row @ _NODES**k) < 1e-15, (degree, k)
            assert abs(row @ legendre[:, degree]) > 0.1, degree

    def test_high_degree_polynomial_single_panel(self):
        # Kronrod-15 integrates polynomials up to degree 22 exactly
        res = integrate_interval(lambda x: x**20, -1.0, 1.0, SPEC_ALG)
        assert res.value == pytest.approx(2.0 / 21.0, rel=1e-13)


class TestNullRuleEstimate:
    """The panel error estimate from the null rules of the 15 node values."""

    ONE_PASS = QuadSpec(rel_tol=1e-10, abs_tol=1e-300, max_evals=15)

    def test_smooth_integrand_converges_in_one_pass(self):
        res = integrate_interval(np.exp, 0.0, 1.0, self.ONE_PASS)
        assert res.converged
        assert res.evals == 15
        assert res.value == pytest.approx(math.e - 1.0, rel=1e-15)

    @pytest.mark.parametrize("f,a,b,exact", [
        (lambda x: np.abs(x - 0.3), 0.0, 1.0, 0.29),
        (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0,
         0.4 * math.atan(5.0)),
    ], ids=["kink", "runge"])
    def test_unresolved_integrand_is_not_converged_after_one_pass(
            self, f, a, b, exact):
        first = integrate_interval(f, a, b, self.ONE_PASS)
        assert not first.converged
        assert abs(first.value - exact) <= first.error_estimate
        final = integrate_interval(f, a, b, SPEC)
        assert final.converged
        assert abs(final.value - exact) <= final.error_estimate

    def test_coefficients_that_do_not_decay_give_their_largest_pair(self):
        # node values whose null-rule pairs are E3 = 3, E2 = 1, E1 = 1.5:
        # the ratio is 1.5 >= 1, so the estimate is 10 half max(E), not
        # the last pair E1
        from chivdw.quad import _RULES, _panel_sums
        coeffs = np.array([3.0, 0.0, 1.0, 0.0, 0.0, 1.5])
        fvals = np.linalg.lstsq(_RULES[1:], coeffs, rcond=None)[0]
        half = 0.25
        value, err, floor = _panel_sums(fvals.reshape(1, 15, 1),
                                        np.array([half]))
        assert err[0, 0] == pytest.approx(10.0 * half * 3.0, rel=1e-12)
        assert err[0, 0] > floor[0, 0]

    def test_panel_of_exact_zeros_has_zero_error_and_no_warning(self):
        # an underflowed tail gives panels of exact zeros next to live ones
        from chivdw.quad import _NODES, _panel_sums
        fvals = np.zeros((2, 15, 2))
        fvals[1, :, 1] = np.exp(_NODES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, err, floor = _panel_sums(fvals, np.array([1.0, 0.5]))
            res = integrate_halfline(lambda x: np.exp(-800.0 * x), SPEC,
                                     breakpoints=[1e-3])
        assert value[0].tolist() == err[0].tolist() == [0.0, 0.0]
        assert err[1, 0] == floor[1, 0] == 0.0
        assert err[1, 1] > 0.0
        assert res.converged
        assert res.value == pytest.approx(1.0 / 800.0, rel=1e-12)


# ---------------------------------------------------------------------------
# The half-line pass: the map panel by panel, one call and one check a round
# ---------------------------------------------------------------------------

def _node_mask_map(layout, ts):
    """The half-line map applied node by node through masks: the body map
    on every node, then the head and tail nodes overwritten."""
    flat = ts.reshape(-1)
    with np.errstate(over="ignore"):
        xs = layout.xi_lo * np.exp(flat - 1.0)
        jac = xs.copy()
        head = flat < 1.0
        xs[head] = layout.xi_lo * flat[head]
        jac[head] = layout.xi_lo
        tail = flat > layout.tail_start
        rest = layout.end - flat[tail]
        far = layout.xi_hi / rest
        xs[tail] = far
        jac[tail] = far / rest
    return xs.reshape(ts.shape), jac.reshape(ts.shape)


def _panel_nodes(lo, hi):
    from chivdw.quad import _NODES
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _NODES


def _split_rounds(edges, rng, rounds):
    """The nodes of ``rounds`` random bisection rounds over the panels of
    ``edges``, each round's panels in the order ``_adaptive`` gives them:
    the left halves of the split panels, then their right halves.  Every
    other round also splits the panel at the end of the tail while it is
    wide enough, so its nodes approach the end of the layout."""
    from chivdw.quad import _MIN_WIDTH
    lo, hi = edges[:-1], edges[1:]
    out = []
    for k in range(rounds):
        # as in _adaptive, a panel too narrow to bisect is not split
        wide = np.flatnonzero(
            (hi - lo) > _MIN_WIDTH * np.maximum(np.abs(lo), np.abs(hi)))
        count = int(rng.integers(1, min(len(wide), 6) + 1))
        split = set(rng.choice(wide, size=count, replace=False).tolist())
        if k % 2 and np.argmax(hi) in wide:
            split.add(int(np.argmax(hi)))
        split = np.array(sorted(split))
        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        p_lo = np.concatenate([s_lo, s_mid])
        p_hi = np.concatenate([s_mid, s_hi])
        out.append(_panel_nodes(p_lo, p_hi))
        lo = np.concatenate([lo[keep], p_lo])
        hi = np.concatenate([hi[keep], p_hi])
    return out


_LAYOUTS = [(), [1.0], [0.65, 1.0, 0.5], [1e-4, 1.0, 1e4], [5e-324, 1e3],
            [1e-300, 1e300], [1.0, 1e290]]


class TestHalfLinePass:
    @pytest.mark.parametrize("breakpoints", _LAYOUTS,
                             ids=[str(b) for b in _LAYOUTS])
    def test_panel_map_equals_node_mask_map(self, breakpoints):
        # first-round layouts and random split rounds; the [1, 1e290]
        # layout drives its tail nodes toward the largest float
        from chivdw.quad import _halfline_layout
        layout = _halfline_layout(breakpoints)
        edges = layout.edges
        rounds = [_panel_nodes(edges[:-1], edges[1:])]
        rounds += _split_rounds(edges, np.random.default_rng(len(edges)), 80)
        for ts in rounds:
            want_xs, want_jac = _node_mask_map(layout, ts)
            if np.isinf(want_xs).any():
                # a tail node beyond float range raises before any call
                with pytest.raises(NonFiniteIntegrandError,
                                   match="map overflowed") as info, \
                        np.errstate(over="ignore"):
                    layout.map(ts)
                assert info.value.mapped
                continue
            with np.errstate(over="ignore"):
                xs, jac = layout.map(ts)
            assert xs.tobytes() == want_xs.tobytes()
            assert jac.tobytes() == want_jac.tobytes()

    def test_tail_nodes_reach_float_range(self):
        # the near-range layout of the test above does carry tail nodes
        # past 1e300
        from chivdw.quad import _halfline_layout
        layout = _halfline_layout([1.0, 1e290])
        rounds = _split_rounds(layout.edges, np.random.default_rng(10), 80)
        with np.errstate(over="ignore"):
            top = max(float(layout.map(ts)[0].max()) for ts in rounds)
        assert top > 1e300

    def test_one_integrand_call_per_round(self, monkeypatch):
        from chivdw import quad
        rounds, calls = [], []
        inner = quad._panel_sums

        def counted(fvals, half):
            rounds.append(half.shape[0])
            return inner(fvals, half)

        def f(x):
            calls.append(x.shape[0])
            return np.exp(-x) * np.sin(5.0 * x) ** 2

        monkeypatch.setattr(quad, "_panel_sums", counted)
        res = integrate_halfline(f, SPEC)
        assert res.converged and len(rounds) > 2
        assert calls == [15 * m for m in rounds]
        assert res.evals == sum(calls)

    def test_non_finite_integrand_names_x_unmapped(self):
        def f(x):
            return np.where(x > 3.0, np.nan, np.exp(-x))

        for run in (lambda: integrate_halfline(f, SPEC),
                    lambda: integrate_interval(f, 0.0, 5.0, SPEC)):
            with pytest.raises(NonFiniteIntegrandError,
                               match="integrand returned a non-finite "
                                     "value at x=") as info:
                run()
            assert not info.value.mapped
            assert float(str(info.value).rsplit("x=", 1)[1]) > 3.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_jacobian_overflow_names_t_mapped(self):
        with pytest.raises(NonFiniteIntegrandError,
                           match="mapped integrand overflowed at t=") as info:
            integrate_halfline(lambda x: np.full(x.shape, 1e305), SPEC)
        assert info.value.mapped
        # t lies in the tail piece of the default layout, [1 + L, 2 + L)
        t = float(str(info.value).rsplit("t=", 1)[1])
        assert t > 1.0 + math.log(4000.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_folded_sum_overflow_names_t_mapped(self):
        with pytest.raises(NonFiniteIntegrandError,
                           match="mapped integrand overflowed at t=") as info:
            integrate_pv(lambda x: np.full(x.shape, 1e308), 0.5, 0.0, 2.0,
                         SPEC)
        assert info.value.mapped
