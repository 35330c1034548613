"""The numerical hot kernels, in plain numpy.

The molecular response tensors on a batch of imaginary frequencies, the
free-space propagator blocks on the same batch, and the batched trace of
four 3x3 factors that the direct single-trace forms integrate.  The module
also holds the Levi-Civita symbol and the cross-product matrix shared by
the propagator and the asymptotic forms.

All arrays are float64.  Shapes: frequency batches are (n,), tensor batches
are (n, 3, 3).
"""

from __future__ import annotations

import math

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


def transition_products(ds: np.ndarray, mts: np.ndarray) -> np.ndarray:
    """The frequency-independent outer products of T transitions, (T, 27).

    Row t is [d_t d_t^T | m_t m_t^T | d_t m_t^T], each 3x3 block flattened
    row-major, from electric dipoles ds (T, 3) and real-represented
    magnetic dipoles mts (T, 3).
    """
    return np.concatenate([(a[:, :, None] * b[:, None, :]).reshape(-1, 9)
                           for a, b in ((ds, ds), (mts, mts), (ds, mts))],
                          axis=1)


def response_tensors(omegas: np.ndarray, products: np.ndarray,
                     xis: np.ndarray):
    """Batched dynamic response tensors from transition data.

    Parameters: omegas (T,), the transitions' outer products (T, 27) of
    ``transition_products``, frequencies xis (n,).

    Returns (alpha, beta_para, chi_em), each (n, 3, 3):
        alpha     = sum_t 2 w_t d_t d_t^T / (w_t^2 + xi^2)
        beta_para = sum_t 2 w_t m_t m_t^T / (w_t^2 + xi^2)
        chi_em    = sum_t 2 xi d_t m_t^T / (w_t^2 + xi^2)
    as two products, (n, T) @ (T, 18) and (n, T) @ (T, 9).
    """
    xis = np.asarray(xis, dtype=float)[:, None]
    denom = omegas ** 2 + xis ** 2                        # (n, T)
    even = (2.0 * omegas / denom) @ products[:, :18]      # (n, 18)
    chi_em = (2.0 * xis / denom) @ products[:, 18:]       # (n, 9)
    return (even[:, :9].reshape(-1, 3, 3), even[:, 9:].reshape(-1, 3, 3),
            chi_em.reshape(-1, 3, 3))


def free_prefactor(rvec: np.ndarray, xis: np.ndarray):
    """(R, x, e^{-x}/(4 pi R^3)) with x = xi R, over the frequency batch
    ``xis`` (n,) for the separation ``rvec``: the factors that S and X
    share."""
    rvec = np.asarray(rvec, dtype=float)
    R = math.sqrt(float(rvec @ rvec))
    x = np.asarray(xis, dtype=float) * R
    return R, x, np.exp(-x) / (4.0 * math.pi * R**3)


def free_scaled(rvec: np.ndarray, xis: np.ndarray,
                prefactor=None) -> np.ndarray:
    """The doubly-reduced free-space propagator S, (n, 3, 3).

    ``rvec`` is the separation vector from the second point to the first
    (r_a - r_b); ``xis`` the frequency batch (n,); ``prefactor`` the
    ``free_prefactor`` of both, computed here when not given:
        S = e^{-xR}/(4 pi R^3) [f(x) I - g(x) RhRh^T],  x = xi R,
            f(x) = 1 + x + x^2,  g(x) = 3 + 3x + x^2,
    finite for xi >= 0: the (n, 9) outer product of the g term with
    -RhRh^T, its diagonal raised by the f term.
    """
    rvec = np.asarray(rvec, dtype=float)
    if prefactor is None:
        prefactor = free_prefactor(rvec, xis)
    R, x, expf = prefactor
    rhat = rvec / R
    x2 = x * x
    out = np.multiply.outer(expf * (3.0 + 3.0 * x + x2),
                            -(rhat[:, None] * rhat).ravel())
    out[:, ::4] += (expf * (1.0 + x + x2))[:, None]
    return out.reshape(-1, 3, 3)


def free_cross(rvec: np.ndarray, xis: np.ndarray,
               prefactor=None) -> np.ndarray:
    """The frequency-weighted single-curl matrix X, (n, 3, 3):
        X = xi e^{-xR}(1 + x)/(4 pi R^3) [rvec]_cross,
    from which all four duality blocks are assembled by sign flips;
    ``prefactor`` as for ``free_scaled``."""
    rvec = np.asarray(rvec, dtype=float)
    if prefactor is None:
        prefactor = free_prefactor(rvec, xis)
    _, x, expf = prefactor
    return np.multiply.outer(np.asarray(xis, dtype=float) * expf * (1.0 + x),
                             cross_matrix(rvec).ravel()).reshape(-1, 3, 3)


def trace4(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Batched trace of the product of four (n, 3, 3) tensor stacks."""
    return np.einsum('nij,njk,nkl,nli->n', a, b, c, d)
