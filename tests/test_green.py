"""Tests for the free-space field-correlation blocks."""

import math

import numpy as np
import pytest

from chivdw.green import (
    FreeSpaceProvider,
    Separation,
    free_space_provider,
)

from oracles import (
    CURL_PREF_K0,
    CURL_PREF_KR1,
    G0_UNIT_XX,
    G0_UNIT_ZZ,
    _propagator_blocks,
    fd_curl_left,
)

FOUR_PI = 4.0 * math.pi


class TestSeparation:
    def test_distance_and_direction(self):
        sep = Separation(r_a=[1.0, 2.0, 2.0], r_b=[1.0, 0.0, 0.0])
        assert sep.R == pytest.approx(math.sqrt(8.0), rel=1e-15)
        np.testing.assert_allclose(sep.r_hat, [0, 2, 2] / np.sqrt(8.0))

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Separation(r_a=[1.0, 1.0, 1.0], r_b=[1.0, 1.0, 1.0])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            Separation(r_a=[1.0, 2.0], r_b=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("k", [-300, -200, -160, -155, 155, 200, 300])
    def test_distance_beyond_the_squared_range(self, k):
        # r . r under- or overflows here; the distance does not
        R = 10.0 ** k
        sep = Separation(r_a=[0.0, 0.6 * R, -0.8 * R], r_b=np.zeros(3))
        assert sep.R == pytest.approx(R, rel=1e-15)
        np.testing.assert_allclose(sep.r_hat, [0.0, 0.6, -0.8], rtol=1e-15)


def block(lam, lamp, r, rp, xi):
    return FreeSpaceProvider().block(lam, lamp, r, rp, xi)


class TestGreenTensor:
    """The ee block S = xi^2 G of the scattering Green tensor G."""

    def test_hand_values_unit_configuration(self):
        # R = 1 along z, xi = 1: xi^2 G = G, diag entries (f, f, f - g)/(4 pi e)
        ez = np.array([0.0, 0.0, 1.0])
        S = block("e", "e", ez, np.zeros(3), 1.0)
        assert S[0, 0] == pytest.approx(G0_UNIT_XX, rel=1e-15)
        assert S[1, 1] == pytest.approx(G0_UNIT_XX, rel=1e-15)
        assert S[2, 2] == pytest.approx(G0_UNIT_ZZ, rel=1e-15)
        offdiag = S - np.diag(np.diag(S))
        np.testing.assert_allclose(offdiag, 0.0, atol=1e-300)
        # R = 1/2 and xi = 2: xi R = 1 again and xi^2 G = e^-x (...)/(4 pi R^3)
        # is 8 times larger
        S2 = block("e", "e", 0.5 * ez, np.zeros(3), 2.0)
        np.testing.assert_allclose(np.diag(S2),
                                   8.0 * np.array([G0_UNIT_XX, G0_UNIT_XX,
                                                   G0_UNIT_ZZ]), rtol=1e-15)

    def test_scaled_static_limit_is_dipole_field(self):
        sep = Separation(r_a=[1.0, 2.0, -1.0], r_b=[0.0, 0.5, 0.5])
        rhat = sep.r_hat
        expected = (np.eye(3) - 3.0 * np.outer(rhat, rhat)) / (FOUR_PI * sep.R**3)
        for lam in ("e", "m"):
            np.testing.assert_allclose(
                block(lam, lam, sep.r_a, sep.r_b, 0.0), expected, rtol=1e-14)

    def test_symmetric_in_argument_exchange(self):
        a, b = np.array([0.3, 0.1, -0.7]), np.array([-0.5, 0.9, 0.2])
        S_ab = block("e", "e", a, b, 1.7)
        S_ba = block("e", "e", b, a, 1.7)
        np.testing.assert_allclose(S_ab, S_ba.T, atol=1e-300)
        # and each is itself symmetric (built from I and rhat rhat^T)
        np.testing.assert_allclose(S_ab, S_ab.T, atol=1e-300)


class TestCurls:
    """The em and me blocks over xi: the curls of G in its first and its
    second argument."""

    def test_prefactor_hand_values(self):
        # s = 1 along z: curl = pref * cross(r' - r); entry (0,1) = -(r'-r)_z
        r, rp = np.array([0.0, 0.0, 1.0]), np.zeros(3)
        C1 = block("e", "m", r, rp, 1.0)
        assert C1[0, 1] == pytest.approx(CURL_PREF_KR1, rel=1e-15)
        # the xi = 0 curl is the small-xi slope of the em block
        xi = 1e-9
        C0 = block("e", "m", r, rp, xi) / xi
        assert C0[0, 1] == pytest.approx(CURL_PREF_K0, rel=1e-15)
        assert not block("e", "m", r, rp, 0.0).any()

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_curl_beyond_the_cube_overflow_is_zero(self, xi):
        # s**3 overflows a float from s ~ 5.6e102 on; every block is 0 there
        for lam, lamp in (("e", "e"), ("e", "m"), ("m", "e"), ("m", "m")):
            B = block(lam, lamp, np.array([0.0, 0.0, 1e103]), np.zeros(3), xi)
            assert B.shape == (3, 3) and not B.any(), (lam, lamp)

    def test_curl_is_antisymmetric(self):
        r, rp = np.array([0.2, -0.4, 1.1]), np.array([-0.3, 0.8, 0.1])
        C = block("e", "m", r, rp, 0.9)
        np.testing.assert_allclose(C, -C.T, atol=1e-300)

    def test_finite_difference_matches_analytic(self):
        # the em block over xi is the curl of G = (ee block) / xi^2 in its
        # first argument
        r, rp = np.array([0.3, 0.5, 1.2]), np.array([-0.2, 0.1, 0.0])
        xi = 0.8

        def field(rr, rrp, x):
            return block("e", "e", rr, rrp, x) / (x * x)

        fd = fd_curl_left(field, r, rp, xi)
        analytic = block("e", "m", r, rp, xi) / xi
        np.testing.assert_allclose(fd, analytic, rtol=1e-8, atol=1e-10)

    def test_double_curl_by_finite_difference(self):
        # curl (in the first argument) of the single-curl field taken in the
        # second argument reproduces xi^2 G on the imaginary axis
        r, rp = np.array([0.4, 0.9, 0.3]), np.array([-0.3, 0.2, -0.5])
        xi = 0.7

        def second_arg_curl(rr, rrp, x):
            # curl' of G(rr, rr') = pref * cross(rr - rr'): the me block / xi
            return block("m", "e", rr, rrp, x) / x

        fd = fd_curl_left(second_arg_curl, r, rp, xi)
        expected = block("e", "e", r, rp, xi)
        np.testing.assert_allclose(fd, expected, rtol=1e-8, atol=1e-12)


class TestProviderBlocks:
    def test_ee_and_mm_equal_scaled_green(self):
        # both are xi^2 G, the oracle's written-out closed form
        prov = free_space_provider()
        a, b = np.array([0.1, 0.7, -0.2]), np.array([0.9, -0.3, 0.4])
        expected = _propagator_blocks(a - b, 1.1)[0, 0]
        for lam in ("e", "m"):
            np.testing.assert_allclose(prov.block(lam, lam, a, b, 1.1),
                                       expected, rtol=1e-14, atol=1e-300)

    def test_cross_blocks_vanish_at_zero_frequency(self):
        prov = free_space_provider()
        a, b = np.array([0.1, 0.7, -0.2]), np.array([0.9, -0.3, 0.4])
        np.testing.assert_allclose(prov.block("e", "m", a, b, 0.0), 0.0,
                                   atol=1e-300)
        np.testing.assert_allclose(prov.block("m", "e", a, b, 0.0), 0.0,
                                   atol=1e-300)

    def test_cross_blocks_linear_in_small_frequency(self):
        prov = free_space_provider()
        a, b = np.array([0.0, 0.0, 2.0]), np.zeros(3)
        lo, hi = 1e-8, 2e-8
        B_lo = prov.block("e", "m", a, b, lo)
        B_hi = prov.block("e", "m", a, b, hi)
        np.testing.assert_allclose(B_hi, 2.0 * B_lo, rtol=1e-6)

    def test_em_is_xi_times_first_argument_curl(self):
        # xi pref cross(b - a), the oracle's written-out closed form
        prov = free_space_provider()
        a, b = np.array([0.5, -0.1, 1.0]), np.array([-0.2, 0.3, 0.1])
        xi = 0.65
        np.testing.assert_allclose(
            prov.block("e", "m", a, b, xi),
            _propagator_blocks(a - b, xi)[0, 1], rtol=1e-13)

    def test_reciprocity_random_sample(self):
        prov = free_space_provider()
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            if np.linalg.norm(a - b) < 1e-3:
                continue
            xi = float(rng.uniform(0.01, 5.0))
            bem = prov.block("e", "m", a, b, xi)
            bme = prov.block("m", "e", b, a, xi)
            assert np.max(np.abs(bem.T + bme)) <= 1e-13 * max(
                1e-30, np.max(np.abs(bem)))
            bee_t = prov.block("e", "e", a, b, xi).T
            bee_swap = prov.block("e", "e", b, a, xi)
            assert np.max(np.abs(bee_t - bee_swap)) <= 1e-13 * np.max(
                np.abs(bee_swap))

    def test_cross_block_sign_pair(self):
        # em and me between the same ordered points are negatives
        prov = free_space_provider()
        a, b = np.array([1.0, 0.2, 0.0]), np.array([0.0, 0.0, 0.3])
        bem = prov.block("e", "m", a, b, 0.9)
        bme = prov.block("m", "e", a, b, 0.9)
        np.testing.assert_allclose(bem, -bme, atol=1e-300)

    def test_blocks_decay_with_distance(self):
        prov = free_space_provider()
        xi = 1.0
        vals = []
        for R in (1.0, 2.0, 4.0):
            B = prov.block("e", "e", np.array([0.0, 0.0, R]), np.zeros(3), xi)
            vals.append(np.max(np.abs(B)))
        assert vals[0] > vals[1] > vals[2]

    def test_array_frequency_blocks(self):
        prov = free_space_provider()
        a, b = np.array([0.0, 0.0, 1.5]), np.zeros(3)
        xis = np.array([0.0, 0.4, 1.9])
        out = prov.block("m", "e", a, b, xis)
        assert out.shape == (3, 3, 3)
        for i, xi in enumerate(xis):
            np.testing.assert_allclose(
                out[i], prov.block("m", "e", a, b, float(xi)), atol=1e-300)

    def test_invalid_labels_rejected(self):
        prov = FreeSpaceProvider()
        with pytest.raises(ValueError):
            prov.block("x", "e", np.array([0, 0, 1.0]), np.zeros(3), 1.0)

    def test_coincident_points_rejected(self):
        prov = FreeSpaceProvider()
        with pytest.raises(ValueError, match="distinct"):
            prov.block("e", "e", np.zeros(3), np.zeros(3), 1.0)


@pytest.mark.parametrize("xi", [0.7, np.array([0.0, 0.3, 2.0, 11.0])])
def test_provider_block_computes_only_the_block_asked_for(xi, monkeypatch):
    # each block is bit-identical to kernels.free_scaled or free_cross (or
    # its negation), and one request builds one of S and X, not both
    from chivdw import kernels

    r, rp = np.array([0.3, -1.1, 0.8]), np.array([-0.2, 0.4, 0.1])
    xis = np.atleast_1d(xi)
    S = kernels.free_scaled(r - rp, xis)
    X = kernels.free_cross(r - rp, xis)
    expected = {("e", "e"): S, ("m", "m"): S, ("e", "m"): -X, ("m", "e"): X}
    built = []
    for name in ("free_scaled", "free_cross"):
        def counted(rvec, xs, _f=getattr(kernels, name), _name=name):
            built.append(_name)
            return _f(rvec, xs)
        monkeypatch.setattr(kernels, name, counted)
    provider = FreeSpaceProvider()
    for (lam, lamp), block in expected.items():
        built.clear()
        out = provider.block(lam, lamp, r, rp, xi)
        assert len(built) == 1, (lam, lamp, built)
        if np.ndim(xi) == 0:
            assert out.shape == (3, 3)
            out = out[None]
        assert np.array_equal(out, block), (lam, lamp)


class TestProviderBlockMatrices:
    """``bind(r_a, r_b)(xis)``: both directions' 2x2 block matrices."""

    @staticmethod
    def _expected(prov, r, rp, xis):
        return np.stack([np.stack([prov.block(lam, lamp, r, rp, xis)
                                   for lamp in ("e", "m")], axis=1)
                         for lam in ("e", "m")], axis=1)

    # generic positions; positions sharing coordinates; R past the R**3
    # overflow (~5.6e102); R where x = xi R is cut at 746 (1e151 on)
    _STACKS = {
        "generic": ([[0.3, -1.1, 0.8], [2.0, 0.5, -1.5], [-0.4, 0.9, 3.1]],
                    [[-0.2, 0.4, 0.1], [0.0, 0.0, 0.0], [1.1, -0.7, 0.2]]),
        "shared_coordinates": ([[0.0, 0.0, 1.5], [0.0, 2.0, 0.0],
                                [1.0, 1.0, 4.0]],
                               [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                [1.0, 1.0, 0.0]]),
        "cube_overflow": ([[0.0, 0.0, 6e102], [0.0, 3e110, 4e110],
                           [1.0, 0.0, 1e150]], np.zeros((3, 3))),
        "cut": ([[0.0, 0.0, 1e151], [6e299, 0.0, 8e299], [0.0, 1e200, 0.0]],
                np.zeros((3, 3))),
    }
    # xi = 0 first, where the cross blocks vanish
    _XIS = np.array([0.0, 1e-3, 0.37, 1.0, 42.0, 1e3, 1e140, 1e299])

    @pytest.mark.parametrize("case", list(_STACKS))
    def test_equal_block(self, case):
        # every entry is one coefficient times an exact table entry, and
        # the diagonal gets its f term last, as ``block`` forms them: equal
        # values, though a zero entry may carry the other sign
        r_a, r_b = (np.array(r, dtype=float) for r in self._STACKS[case])
        prov = FreeSpaceProvider()
        ab, ba = prov.bind(r_a, r_b)(self._XIS)
        for p in range(3):
            assert np.array_equal(
                ab[p], self._expected(prov, r_a[p], r_b[p], self._XIS)), p
            assert np.array_equal(
                ba[p], self._expected(prov, r_b[p], r_a[p], self._XIS)), p

    @pytest.mark.parametrize("case", list(_STACKS))
    def test_stack_equals_its_pairs_bit_for_bit(self, case):
        r_a, r_b = (np.array(r, dtype=float) for r in self._STACKS[case])
        prov = FreeSpaceProvider()
        ab, ba = prov.bind(r_a, r_b)(self._XIS)
        assert ab.shape == ba.shape == (3, len(self._XIS), 2, 2, 3, 3)
        for p in range(3):
            one_ab, one_ba = prov.bind(r_a[p], r_b[p])(self._XIS)
            assert ab[p].tobytes() == one_ab.tobytes(), (case, p)
            assert ba[p].tobytes() == one_ba.tobytes(), (case, p)

    @pytest.mark.parametrize("R", [1e-110, 1e-103, 1e-80])
    def test_an_overflowing_prefactor_keeps_its_infinities(self, R):
        # 4 pi R^3 underflows (1e-110), e^{-x}/(4 pi R^3) g(x) overflows
        # (1e-103) or xi e^{-x}/(4 pi R^3) does (1e-80): the blocks hold the
        # infinities and NaN that ``block`` gives, not the NaN of inf * 0 in
        # a product, and no floating point warning escapes
        r_a, r_b = np.array([0.0, 0.0, R]), np.zeros(3)
        xis = np.array([0.0, 1.0, 1e50, 1e80, 1e100, 1e120])
        prov = FreeSpaceProvider()
        ab, ba = prov.bind(r_a, r_b)(xis)
        assert np.isinf(ab).any() and np.isinf(ba).any()
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            expected = (self._expected(prov, r_a, r_b, xis),
                        self._expected(prov, r_b, r_a, xis))
        assert np.array_equal(ab, expected[0], equal_nan=True)
        assert np.array_equal(ba, expected[1], equal_nan=True)

    def test_leading_axes_of_the_positions_lead_the_output(self):
        prov = FreeSpaceProvider()
        r_a = np.arange(1.0, 19.0).reshape(2, 3, 3)
        xis = np.array([0.5, 2.0])
        ab, ba = prov.bind(r_a, np.zeros((2, 3, 3)))(xis)
        assert ab.shape == ba.shape == (2, 3, 2, 2, 2, 3, 3)
        one_ab, one_ba = prov.bind(r_a[1, 2], np.zeros(3))(xis)
        assert one_ab.shape == (2, 2, 2, 3, 3)
        assert ab[1, 2].tobytes() == one_ab.tobytes()
        assert ba[1, 2].tobytes() == one_ba.tobytes()

    def test_geometry_once_per_bind_and_one_kernel_per_call(self,
                                                            monkeypatch):
        # binding a stack makes its tables once; each call is one product,
        # and no per-block kernel runs
        from chivdw import kernels

        built = []
        for name in ("free_tables", "free_blocks", "free_prefactor",
                     "free_scaled", "free_cross"):
            def counted(*args, _f=getattr(kernels, name), _name=name):
                built.append(_name)
                return _f(*args)
            monkeypatch.setattr(kernels, name, counted)
        r_a = np.array([[0.3, -1.1, 0.8], [0.0, 0.0, 2.0], [5.0, 1.0, 0.0],
                        [0.0, 0.0, 1e200]])
        bound = FreeSpaceProvider().bind(r_a, np.zeros((4, 3)))
        assert built == ["free_tables"]
        built.clear()
        bound(np.array([0.0, 0.5, 2.0]))
        bound(np.array([1.0]))
        assert built == ["free_blocks", "free_blocks"]

    def test_invalid_input_rejected(self):
        prov = FreeSpaceProvider()
        with pytest.raises(ValueError, match="distinct"):
            prov.bind(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="3-vectors"):
            prov.bind(np.zeros(2), np.ones(3))
        with pytest.raises(ValueError, match="non-negative"):
            prov.bind(np.ones(3), np.zeros(3))(np.array([-1.0]))
        with pytest.raises(ValueError, match="finite"):
            prov.bind(np.ones(3), np.zeros(3))(np.array([np.inf]))
        with pytest.raises(ValueError, match="3-vectors"):
            prov.bind(np.ones((2, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="distinct"):
            prov.bind(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                      np.zeros((2, 3)))
