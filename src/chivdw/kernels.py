"""The numerical hot kernels, in plain numpy.

The frequency weights of the transition sums on a batch of imaginary
frequencies (the molecular response tensors are their product with a
molecule's response table), node-major for the potentials' product route
(``frequency_weights``) and row-major for their table route
(``frequency_rows``); the free-space propagator on the same batch, as a
per-pass table of geometric factors (``free_tables``) and five
coefficients per node (``free_coefficients``), whose product is the
blocks; and the batched trace of four 3x3 factors that the direct
single-trace forms integrate (one contraction of two half products).
The module also holds the Levi-Civita symbol, which the asymptotic forms
use, and the cross-product matrix of the propagator's cross blocks.

Per node batch, the potentials' product route forms the weights, the
coefficients and their products with the tables; the table route forms
only the weights (row-major) and the coefficients, whose outer products
feed per-pass bilinear forms.

All arrays are float64.  Shapes: frequency batches are (n,), tensor batches
are (n, 3, 3).  ``free_scaled`` and ``free_cross`` give S and X of one
separation (3,); for P separations at once, ``free_tables`` forms what
depends on the separations alone, including the (P, 5, 72) table of all
72 entries of both directions' block matrices, and ``free_coefficients``
the (P, n, 5) coefficients per frequency.
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
    """The matrix [v]_x with [v]_x u = v x u, (..., 3, 3) for vectors
    v (..., 3)."""
    v = np.asarray(v, dtype=float)
    rows = [[0.0, -z, y, z, 0.0, -x, -y, x, 0.0]
            for x, y, z in v.reshape(-1, 3).tolist()]
    return np.array(rows).reshape(v.shape[:-1] + (3, 3))


def frequency_weights(omegas: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """The (n, 2T+1) weights [2 w_t/(w_t^2 + xi^2) | 2 xi/(w_t^2 + xi^2) | 1]
    of T transitions omegas (T,) at the frequencies xis (n,)."""
    xis = np.asarray(xis, dtype=float)[:, None]
    denom, count = omegas ** 2 + xis ** 2, omegas.shape[0]     # (n, T)
    out = np.ones((xis.shape[0], 2 * count + 1))
    np.divide(2.0 * omegas, denom, out=out[:, :count])
    np.divide(2.0 * xis, denom, out=out[:, count:-1])
    return out


def frequency_rows(omegas: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """The weights of ``frequency_weights`` laid out (2T+1, n), each row
    contiguous over the frequencies: the same values, entry for entry."""
    xis = np.asarray(xis, dtype=float)
    denom, count = omegas[:, None] ** 2 + xis ** 2, omegas.shape[0]
    out = np.ones((2 * count + 1, xis.shape[0]))
    np.divide((2.0 * omegas)[:, None], denom, out=out[:count])
    np.divide(2.0 * xis, denom, out=out[count:-1])
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
    big = max(map(abs, v.tolist()))
    if _PLAIN_NORM[0] <= big <= _PLAIN_NORM[1] or big == 0.0:
        return math.sqrt(float(v @ v))
    scale = math.frexp(big)[1]
    v = np.ldexp(v, -scale)
    return math.ldexp(math.sqrt(float(v @ v)), scale)


def _separation(v: np.ndarray) -> list:
    """[R, cut, 4 pi R^3] of the separation ``v`` (3,), as Python floats,
    with cut = ``_X_CUT`` / R the frequency from which x = xi R is cut
    (``free_prefactor``)."""
    R = vector_norm(v)
    if not R > 0.0:
        raise ValueError("points must be distinct")
    try:
        cube = R**3
    except OverflowError:   # R above ~5.6e102: the factor underflows to 0
        cube = math.inf
    return [R, _X_CUT / R, 4.0 * math.pi * cube]


def _exp_factor(geometry, xis: np.ndarray):
    """(x, e^{-x}/(4 pi R^3)) with x = xi R over the frequencies ``xis``
    (n,), from a separation's ``_separation`` (R, cut, 4 pi R^3), or from
    a (3, P, 1) stack of them."""
    R, cut, denom = geometry
    x = np.minimum(np.asarray(xis, dtype=float), cut) * R
    return x, np.exp(-x) / denom


def free_prefactor(rvec: np.ndarray, xis: np.ndarray):
    """(R, x, e^{-x}/(4 pi R^3)) with x = xi R, over the frequency batch
    ``xis`` (n,) for the separation ``rvec`` (3,): the factors that S and X
    share.  R is a Python float, x and the factor are (n,).  Where e^{-x}
    is 0, x is cut to ``_X_CUT``, so neither x nor the polynomials in x of
    S and X overflow.  Coincident points raise ``ValueError``."""
    geometry = _separation(np.asarray(rvec, dtype=float))
    return (geometry[0],) + _exp_factor(geometry, xis)


def free_scaled(rvec: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """The doubly-reduced free-space propagator S, (n, 3, 3).

    ``rvec`` is the separation vector from the second point to the first
    (r_a - r_b), (3,); ``xis`` the frequency batch (n,):
        S = e^{-xR}/(4 pi R^3) [f(x) I - g(x) RhRh^T],  x = xi R,
            f(x) = 1 + x + x^2,  g(x) = 3 + 3x + x^2,
    finite for xi >= 0: the (n, 9) outer product of the g term with
    -RhRh^T, its diagonal raised by the f term.
    """
    rvec = np.asarray(rvec, dtype=float)
    R, x, expf = free_prefactor(rvec, xis)
    rhat = rvec / R
    x2 = x * x
    out = ((expf * (3.0 + 3.0 * x + x2))[:, None]
           * -(rhat[:, None] * rhat[None, :]).reshape(1, 9))
    out[:, ::4] += (expf * (1.0 + x + x2))[:, None]
    return out.reshape(-1, 3, 3)


def free_cross(rvec: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """The frequency-weighted single-curl matrix X, (n, 3, 3):
        X = xi e^{-xR}(1 + x)/(4 pi R^3) [rvec]_cross,
    from which all four duality blocks are assembled by sign flips;
    ``rvec`` and ``xis`` as for ``free_scaled``."""
    rvec = np.asarray(rvec, dtype=float)
    _, x, expf = free_prefactor(rvec, xis)
    weight = np.asarray(xis, dtype=float) * expf * (1.0 + x)
    out = weight[:, None] * cross_matrix(rvec).reshape(1, 9)
    return out.reshape(-1, 3, 3)


# Every entry of both directions' block matrices of a separation
# r = r_a - r_b, [B(r_a, r_b) | B(r_b, r_a)] flattened to 72 entries, is one
# frequency coefficient times one geometric factor.  B(r_a, r_b) is
# [[S, -X], [X, S]] (``free_scaled``, ``free_cross``) and B(r_b, r_a) holds
# its 3x3 blocks transposed.  With x = xi R and p = e^{-x}/(4 pi R^3):
#   row 0, c0 = p g(x): -Rh_i Rh_j off the diagonals of the four S blocks;
#   row 1, c1 = (xi p)(1 + x): [r]_x in the four cross blocks, with signs;
#   row 2 + i, d_i = c0 (-Rh_i^2) + p f(x), S's i-th diagonal entry:
#   factor 1.
# ``_TABLE`` is the (5, 72) index of each entry's factor among a
# separation's 17 values [0, 1, r, -r, -RhRh^T], in its coefficient's row,
# and of 0 (value 0) in the other rows.
_TRANSPOSED_BLOCKS = np.arange(36).reshape(2, 2, 3, 3).swapaxes(2, 3).ravel()


def _factor_table() -> np.ndarray:
    cross = [0, 7, 3, 4, 0, 5, 6, 2, 0]   # 0, -z, y, z, 0, -x, -y, x, 0
    minus_cross = [0, 4, 6, 7, 0, 2, 3, 5, 0]
    scaled = np.arange(8, 17)
    scaled[::4] = 1
    scaled_row = np.zeros(9, dtype=int)
    scaled_row[::4] = [2, 3, 4]
    factor = np.concatenate([scaled, minus_cross, cross, scaled])
    row = np.concatenate([scaled_row, np.ones(18, dtype=int), scaled_row])
    row = np.concatenate([row, row[_TRANSPOSED_BLOCKS]])
    factor = np.concatenate([factor, factor[_TRANSPOSED_BLOCKS]])
    table = np.where(np.arange(5)[:, None] == row, factor, 0)
    table.setflags(write=False)
    return table


_TABLE = _factor_table()


def free_tables(rvec: np.ndarray) -> tuple:
    """What the block matrices of the separations ``rvec`` (P, 3) take from
    the separations alone: the (3, P, 1) stack of their ``_separation``
    (R, cut, 4 pi R^3), the (P, 3) diagonals -Rh_i^2 of -RhRh^T, and the
    (P, 5, 72) table holding each entry's geometric factor in its
    coefficient's row, with zeros elsewhere.  Each separation's factors
    are formed from Python floats, bit for bit the values that
    ``free_scaled`` and ``free_cross`` multiply."""
    rows = []
    for v, (x, y, z) in zip(rvec, rvec.tolist()):
        geometry = _separation(v)
        R = geometry[0]
        hx, hy, hz = x / R, y / R, z / R
        rows.append([0.0, 1.0, x, y, z, -x, -y, -z,
                     -(hx * hx), -(hx * hy), -(hx * hz),
                     -(hy * hx), -(hy * hy), -(hy * hz),
                     -(hz * hx), -(hz * hy), -(hz * hz), *geometry])
    values = np.array(rows)
    return (values[:, 17:].T[:, :, None], values[:, 8:17:4],
            values.take(_TABLE, axis=1))


def free_coefficients(geometry, diagonal: np.ndarray,
                      xis: np.ndarray) -> np.ndarray:
    """The (P, n, 5) frequency coefficients [c0, c1, d_0, d_1, d_2] of the
    separations of ``free_tables`` (its ``geometry`` and ``diagonal``) over
    the frequencies ``xis`` (n,), formed as ``free_scaled`` and
    ``free_cross`` form them, the f term of the diagonal last.  Their
    product with the ``free_tables`` table is both directions' block
    matrices, (P, n, 72): each entry is one coefficient times its factor
    plus exact zeros, so each block equals ``free_scaled`` or
    ``free_cross`` (or its negation) exactly, whatever the order of the
    product's sums; a zero entry may carry the other sign.  Where
    4 pi R^3 underflows or a coefficient overflows, the coefficients hold
    the infinity, and no floating point warning escapes."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x, expf = _exp_factor(geometry, xis)
        x2 = x * x
        one_x = 1.0 + x
        coeffs = np.empty((x.shape[0], 5, x.shape[1]))
        c0 = np.multiply(expf, 3.0 + 3.0 * x + x2, out=coeffs[:, 0])
        np.multiply(xis * expf, one_x, out=coeffs[:, 1])
        d = np.multiply(c0[:, None], diagonal[:, :, None], out=coeffs[:, 2:])
        d += (expf * (one_x + x2))[:, None]
    return coeffs.transpose(0, 2, 1)


def trace4(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray):
    """Batched trace of the product of four (n, 3, 3) tensor stacks, as the
    contraction of the two half products a b and c d."""
    return np.einsum('nij,nji->n', a @ b, c @ d)
