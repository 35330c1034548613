"""The numerical hot kernels, in plain numpy.

The frequency weights of the transition sums on a batch of imaginary
frequencies (the molecular response tensors are their product with a
molecule's response table), the free-space propagator blocks on the same
batch, and the batched trace of four 3x3 factors that the direct
single-trace forms integrate (one contraction of two half products).  The
module also holds the Levi-Civita symbol and the cross-product matrix
shared by the propagator and the asymptotic forms.

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


def frequency_weights(omegas: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """The (n, 2T+1) weights [2 w_t/(w_t^2 + xi^2) | 2 xi/(w_t^2 + xi^2) | 1]
    of T transitions omegas (T,) at the frequencies xis (n,)."""
    xis = np.asarray(xis, dtype=float)[:, None]
    denom, count = omegas ** 2 + xis ** 2, omegas.shape[0]     # (n, T)
    out = np.ones((xis.shape[0], 2 * count + 1))
    np.divide(2.0 * omegas, denom, out=out[:, :count])
    np.divide(2.0 * xis, denom, out=out[:, count:-1])
    return out


# e^{-x} is exactly 0 from x ~ 745.2 on
_X_CUT = 746.0

# within this range of its largest entry, a vector's squared norm is a
# normal float
_PLAIN_NORM = (2.0 ** -500, 2.0 ** 500)


def vector_norm(v: np.ndarray) -> float:
    """|v| of a finite vector, without over- or underflow: sqrt(v . v)
    where v . v is a normal float, else that of v scaled by a power of
    two, which is exact."""
    big = max(abs(c) for c in v.tolist())
    if _PLAIN_NORM[0] <= big <= _PLAIN_NORM[1] or big == 0.0:
        return math.sqrt(float(v @ v))
    scale = math.frexp(big)[1]
    v = np.ldexp(v, -scale)
    return math.ldexp(math.sqrt(float(v @ v)), scale)


def free_prefactor(rvec: np.ndarray, xis: np.ndarray):
    """(R, x, e^{-x}/(4 pi R^3)) with x = xi R, over the frequency batch
    ``xis`` (n,) for the separation ``rvec``: the factors that S and X
    share.  Where e^{-x} is 0, x is cut to ``_X_CUT``, so neither x nor
    the polynomials in x of S and X overflow."""
    rvec = np.asarray(rvec, dtype=float)
    R = vector_norm(rvec)
    x = np.minimum(np.asarray(xis, dtype=float), _X_CUT / R) * R
    try:
        cube = R**3
    except OverflowError:       # R above ~5.6e102: the factor underflows to 0
        cube = math.inf
    return R, x, np.exp(-x) / (4.0 * math.pi * cube)


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
    """Batched trace of the product of four (n, 3, 3) tensor stacks, as the
    contraction of the two half products a b and c d."""
    return np.einsum('nij,nji->n', a @ b, c @ d)
