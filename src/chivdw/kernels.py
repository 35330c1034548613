"""The numerical hot kernels, in plain numpy.

The molecular response tensors on a batch of imaginary frequencies, the
free-space propagator blocks on the same batch, and the batched trace of
four 3x3 factors that the direct single-trace forms integrate.  The module
also holds the Levi-Civita symbol and the cross-product matrix shared by
the propagator, the closed free-space forms and the asymptotic forms.

All arrays are float64.  Shapes: frequency batches are (n,), tensor batches
are (n, 3, 3).
"""

from __future__ import annotations

import numpy as np

# Levi-Civita symbol eps_ijk.
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0
LEVI_CIVITA.setflags(write=False)


def cross_matrix(v: np.ndarray) -> np.ndarray:
    """The matrix [v]_x with [v]_x u = v x u."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def response_tensors(omegas: np.ndarray, ds: np.ndarray, mts: np.ndarray,
                     xis: np.ndarray):
    """Batched dynamic response tensors from transition data.

    Parameters: omegas (T,), electric dipoles ds (T, 3), real-represented
    magnetic dipoles mts (T, 3), frequencies xis (n,).

    Returns (alpha, beta_para, chi_em), each (n, 3, 3):
        alpha     = sum_t 2 w_t d_t d_t^T / (w_t^2 + xi^2)
        beta_para = sum_t 2 w_t m_t m_t^T / (w_t^2 + xi^2)
        chi_em    = sum_t 2 xi d_t m_t^T / (w_t^2 + xi^2)
    """
    omegas = np.asarray(omegas, dtype=float)
    ds = np.asarray(ds, dtype=float)
    mts = np.asarray(mts, dtype=float)
    xis = np.asarray(xis, dtype=float)
    n = xis.shape[0]
    if omegas.size == 0:
        zero = np.zeros((n, 3, 3))
        return zero, zero.copy(), zero.copy()
    denom = omegas[:, None] ** 2 + xis[None, :] ** 2      # (T, n)
    w_alpha = 2.0 * omegas[:, None] / denom               # (T, n)
    w_chi = 2.0 * xis[None, :] / denom                    # (T, n)
    dd = np.einsum('ti,tj->tij', ds, ds)
    mm = np.einsum('ti,tj->tij', mts, mts)
    dm = np.einsum('ti,tj->tij', ds, mts)
    alpha = np.einsum('tn,tij->nij', w_alpha, dd)
    beta_para = np.einsum('tn,tij->nij', w_alpha, mm)
    chi_em = np.einsum('tn,tij->nij', w_chi, dm)
    return alpha, beta_para, chi_em


def _free_prefactor(rvec: np.ndarray, xis: np.ndarray):
    rvec = np.asarray(rvec, dtype=float)
    xis = np.asarray(xis, dtype=float)
    R = float(np.sqrt(rvec @ rvec))
    x = xis * R
    expf = np.exp(-x) / (4.0 * np.pi * R**3)
    return rvec, xis, R, x, expf


def free_scaled(rvec: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """The S block of ``free_blocks`` alone."""
    rvec, xis, R, x, expf = _free_prefactor(rvec, xis)
    rhat = rvec / R
    f = 1.0 + x + x * x
    g = 3.0 + 3.0 * x + x * x
    rr = np.outer(rhat, rhat)
    eye = np.eye(3)
    return expf[:, None, None] * (f[:, None, None] * eye
                                  - g[:, None, None] * rr)


def free_cross(rvec: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """The X block of ``free_blocks`` alone."""
    rvec, xis, R, x, expf = _free_prefactor(rvec, xis)
    pref = xis * expf * (1.0 + x)
    return pref[:, None, None] * cross_matrix(rvec)


def free_blocks(rvec: np.ndarray, xis: np.ndarray):
    """Batched free-space propagator building blocks.

    ``rvec`` is the separation vector from the second point to the first
    (r_a - r_b); ``xis`` the frequency batch (n,).

    Returns (S, X), each (n, 3, 3):
        S = e^{-xR}/(4 pi R^3) [f(x) I - g(x) RhRh^T],  x = xi R,
            f(x) = 1 + x + x^2,  g(x) = 3 + 3x + x^2
        X = xi e^{-xR}(1 + x)/(4 pi R^3) [rvec]_cross
    S is the doubly-reduced propagator (finite for xi >= 0); X is the
    frequency-weighted single-curl matrix from which all four duality blocks
    are assembled by sign flips.  ``free_scaled`` and ``free_cross`` compute
    one of the two.
    """
    return free_scaled(rvec, xis), free_cross(rvec, xis)


def trace4(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Batched trace of the product of four (n, 3, 3) tensor stacks."""
    return np.einsum('nij,njk,nkl,nli->n', a, b, c, d)
