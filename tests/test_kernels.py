"""The numpy hot kernels: response sums, free-space blocks, trace."""

import math

import numpy as np
import pytest

from chivdw import kernels
from chivdw.response import Molecule, response_arrays


def random_inputs(seed=0, n_trans=4, n_xi=7):
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(0.3, 3.0, size=n_trans)
    ds = rng.normal(size=(n_trans, 3))
    mts = rng.normal(size=(n_trans, 3))
    xis = np.sort(rng.uniform(0.0, 8.0, size=n_xi))
    xis[0] = 0.0
    rvec = rng.normal(size=3)
    rvec /= np.linalg.norm(rvec)
    rvec *= rng.uniform(0.5, 4.0)
    return omegas, ds, mts, xis, rvec


class TestPythonBackend:
    def test_response_shapes(self):
        omegas, ds, mts, xis, _ = random_inputs()
        tensors = response_arrays(Molecule.from_arrays("m", omegas, ds, mts),
                                  xis)
        assert [t.shape for t in tensors] == [(7, 3, 3)] * 4

    def test_response_closed_form_single(self):
        omegas = np.array([2.0])
        ds = np.array([[1.0, 0.0, 0.0]])
        mts = np.array([[0.0, 1.0, 0.0]])
        xis = np.array([3.0])
        alpha, beta_para, chi_em, _ = response_arrays(
            Molecule.from_arrays("m", omegas, ds, mts), xis, "para")
        denom = 4.0 + 9.0
        assert alpha[0, 0, 0] == pytest.approx(2 * 2.0 / denom, rel=1e-15)
        assert beta_para[0, 1, 1] == pytest.approx(2 * 2.0 / denom, rel=1e-15)
        assert chi_em[0, 0, 1] == pytest.approx(2 * 3.0 / denom, rel=1e-15)

    def test_trace4_matches_einsum(self):
        rng = np.random.default_rng(1)
        a, b, c, d = (rng.normal(size=(5, 3, 3)) for _ in range(4))
        expected = np.einsum('nij,njk,nkl,nli->n', a, b, c, d)
        np.testing.assert_allclose(kernels.trace4(a, b, c, d), expected,
                                   rtol=1e-13)
        # the direct forms pass strided views of block stacks, as ab[:, 0, 1]
        ab, ba = (rng.normal(size=(5, 2, 2, 3, 3)) for _ in range(2))
        views = (a.transpose(0, 2, 1), ab[:, 0, 1], c[::-1], ba[:, 1, 0])
        expected = np.einsum('nij,njk,nkl,nli->n', *views)
        np.testing.assert_allclose(kernels.trace4(*views), expected,
                                   rtol=1e-13)

    def test_free_scaled_and_cross_zero_frequency(self):
        rvec = np.array([0.0, 0.0, 2.0])
        S = kernels.free_scaled(rvec, np.array([0.0]))
        X = kernels.free_cross(rvec, np.array([0.0]))
        R = 2.0
        expected = (np.eye(3) - 3 * np.diag([0, 0, 1.0])) / (4 * np.pi * R**3)
        np.testing.assert_allclose(S[0], expected, rtol=1e-14)
        np.testing.assert_allclose(X[0], 0.0, atol=1e-300)

    def test_cross_matrix_and_levi_civita_give_the_cross_product(self):
        rng = np.random.default_rng(5)
        v, u = rng.normal(size=3), rng.normal(size=3)
        expected = np.cross(v, u)
        np.testing.assert_allclose(kernels.cross_matrix(v) @ u, expected,
                                   rtol=1e-14)
        np.testing.assert_allclose(
            np.einsum('ijk,j,k->i', kernels.LEVI_CIVITA, v, u), expected,
            rtol=1e-14)

    def test_vector_norm_is_plain_where_the_square_is_normal(self):
        rng = np.random.default_rng(9)
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            for v in scale * rng.normal(size=(50, 3)):
                assert kernels.vector_norm(v) == math.sqrt(float(v @ v))

    @pytest.mark.parametrize("k", [-320, -300, -160, 160, 300, 307])
    def test_vector_norm_scales_beyond_it(self, k):
        v = 10.0 ** k * np.array([0.0, 0.6, -0.8])
        assert kernels.vector_norm(v) == pytest.approx(10.0 ** k, rel=1e-15)
        assert kernels.vector_norm(np.zeros(3)) == 0.0

    def test_free_blocks_stay_finite_where_the_exponential_is_zero(self):
        # x = xi R up to 1e300: x^2 and xi R itself would overflow
        xis = np.array([0.0, 1e-3, 1.0, 1e140, 1e299])
        for R in (1.0, 1e151, 1e300):
            rvec = np.array([0.0, 0.0, R])
            S = kernels.free_scaled(rvec, xis)
            X = kernels.free_cross(rvec, xis)
            assert np.isfinite(S).all() and np.isfinite(X).all()
            assert not S[3:].any() and not X[3:].any()

