"""Free-space field correlation blocks at imaginary frequency.

The pair potential consumes the environment only through four 3x3 blocks
coupling the electric/magnetic response slots of the two molecules.  This
module provides those blocks for two points in unbounded vacuum.

Conventions (natural units, imaginary frequency xi >= 0, k = xi/c = xi),
for the separation vector v = r - r' with s = |v| and x = xi s:

* ee and mm blocks  -- S = xi^2 G(r, r', i xi), with G the scattering
                       Green tensor: e^{-x}/(4 pi s^3) [f(x) I - g(x)
                       vh vh^T], f = 1 + x + x^2, g = 3 + 3x + x^2.
                       Finite at xi = 0, where it is the static dipole
                       field (I - 3 vh vh^T)/(4 pi s^3); G is S / xi^2.
* em block          -- xi times the curl of G in its first argument,
                       -X with X = xi e^{-x}(1 + x)/(4 pi s^3) cross(v)
                       and cross(a) the matrix form of (a x).
* me block          -- xi times the curl of G in its second argument, X.

The em/me blocks vanish linearly at xi = 0; the curl of G is the em block
over xi, and at xi = 0 the em block's slope.  They obey the reciprocity
relation ``block('e','m', r, r')^T = -block('m','e', r', r)`` while ee/mm
transpose plainly under argument exchange.

A Green-tensor provider is any object with a method ``bind(r_a, r_b)``
that takes P position pairs stacked as two (P, 3) arrays and returns its
propagator for those positions: a callable of a frequency array ``xis`` of
shape (n,) returning the pair (B(r_a, r_b), B(r_b, r_a)) of 2x2 block
matrices, each a (P, n, 2, 2, 3, 3) stack indexed [p, node, lam, lamp]
with 0 = 'e' and 1 = 'm'.  The split lets a provider do the work that
depends on the positions alone once.  The potential integrators bind once
per pass with every separation of the pass (P = 1 for a single value) and
call the bound propagator once per node batch; they raise ``ValueError``
on any other shape, raise ``TypeError`` for a provider without ``bind``
and let the provider's own errors propagate.  A provider written for the
one-call form ``blocks(r_a, r_b, xis)`` binds as
``lambda r_a, r_b: lambda xis: blocks(r_a, r_b, xis)``.
``FreeSpaceProvider`` is the bundled vacuum implementation; any structural
look-alike (e.g. a cavity or surface-dressed provider) is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chivdw import kernels

__all__ = [
    "Separation",
    "FreeSpaceProvider",
    "free_space_provider",
]


@dataclass(frozen=True)
class Separation:
    """Pair of positions with cached distance and unit separation vector.

    The separation vector points from the second position to the first:
    ``r_hat = (r_a - r_b) / R``.
    """

    r_a: np.ndarray
    r_b: np.ndarray

    def __post_init__(self) -> None:
        ra = np.array(self.r_a, dtype=float).reshape(-1)
        rb = np.array(self.r_b, dtype=float).reshape(-1)
        if ra.shape != (3,) or rb.shape != (3,):
            raise ValueError("positions must be 3-vectors")
        if not all(map(math.isfinite, ra.tolist() + rb.tolist())):
            raise ValueError("positions must be finite")
        diff = ra - rb
        dist = kernels.vector_norm(diff)
        if dist <= 0.0:
            raise ValueError("positions must be distinct")
        rhat = diff / dist
        for arr in (ra, rb, rhat):
            arr.setflags(write=False)
        # the fields are set once, past the frozen dataclass's __setattr__
        self.__dict__.update(r_a=ra, r_b=rb, _dist=dist, _rhat=rhat)

    @property
    def R(self) -> float:
        return self._dist  # type: ignore[attr-defined]

    @property
    def r_hat(self) -> np.ndarray:
        return self._rhat  # type: ignore[attr-defined]


def _checked_xi(xi) -> np.ndarray:
    """The frequencies ``xi``, a scalar or 1-d array, as a float array
    (n,), checked finite and non-negative."""
    arr = np.asarray(xi, dtype=float)
    if arr.ndim != 1:
        if arr.ndim:
            raise ValueError("xi must be a scalar or 1-d array")
        arr = arr.reshape(1)
    if arr.size:
        # minimum and maximum propagate NaN, so the two decide every check
        lo = float(np.minimum.reduce(arr))
        hi = float(np.maximum.reduce(arr))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("xi must be finite")
        if lo < 0.0:
            raise ValueError("xi must be non-negative")
    return arr


class FreeSpaceProvider:
    """Vacuum field-correlation blocks.

    ``bind(r_a, r_b)`` is the provider contract (see the module
    docstring).  ``block(lam, lamp, r, rp, xi)`` returns the one 3x3 block
    coupling response slot ``lam`` at ``r`` to slot ``lamp`` at ``rp``;
    ``xi`` may be a scalar (returns (3, 3)) or a 1-d array of length n
    (returns (n, 3, 3)).  All blocks are finite at xi = 0; the cross
    blocks vanish there.
    """

    def bind(self, r_a, r_b) -> Callable:
        """The propagator of the positions ``r_a`` and ``r_b``, stacked as
        (P, 3): a callable of ``xis`` (n,) returning
        (B(r_a, r_b), B(r_b, r_a)), each (P, n, 2, 2, 3, 3).  The leading
        axes of the positions lead the output, so a single pair (3,) gives
        (n, 2, 2, 3, 3).

        All eight blocks of every separation r_a - r_b come from one S and
        one X: B(r_a, r_b) = [[S, -X], [X, S]], and B(r_b, r_a) holds its
        transposed blocks, [[S, -X^T], [X^T, S]].  Binding computes what
        depends on the separations alone, once (``kernels.free_tables``):
        each one's R, the cut of x = xi R, 4 pi R^3 and the table of the
        geometric factors of its 72 entries.  Each call is then one product
        of five coefficients per node with that table
        (``kernels.free_blocks``).  Each block equals the corresponding
        ``block`` call, and a stack what its pairs give one by one, bit for
        bit; a zero entry may carry the other sign.
        """
        r_a = np.asarray(r_a, dtype=float)
        r_b = np.asarray(r_b, dtype=float)
        if r_a.shape != r_b.shape or r_a.shape[-1:] != (3,):
            raise ValueError("positions must be 3-vectors, or two equal "
                             "stacks of them")
        lead = r_a.shape[:-1]
        tables = kernels.free_tables((r_a - r_b).reshape(-1, 3))

        def blocks(xis) -> tuple[np.ndarray, np.ndarray]:
            xis = _checked_xi(xis)
            out = kernels.free_blocks(tables, xis)
            shape = lead + (xis.shape[0], 2, 2, 3, 3)
            return out[..., :36].reshape(shape), out[..., 36:].reshape(shape)

        return blocks

    def block(self, lam: str, lamp: str, r, rp, xi) -> np.ndarray:
        r = np.asarray(r, dtype=float).reshape(-1)
        rp = np.asarray(rp, dtype=float).reshape(-1)
        if r.shape != (3,) or rp.shape != (3,):
            raise ValueError("positions must be 3-vectors")
        xis = _checked_xi(xi)
        rvec = r - rp
        if not kernels.vector_norm(rvec) > 0.0:
            raise ValueError("points must be distinct")
        if lam not in ("e", "m") or lamp not in ("e", "m"):
            raise ValueError(f"block labels must be 'e' or 'm', got {(lam, lamp)!r}")
        if lam == lamp:
            out = kernels.free_scaled(rvec, xis)
        elif lam == "e":
            # xi * pref * cross(rp - r), i.e. xi times the first-argument curl
            out = -kernels.free_cross(rvec, xis)
        else:
            # xi * pref * cross(r - rp), i.e. xi times the second-argument curl
            out = kernels.free_cross(rvec, xis)
        return out[0] if np.ndim(xi) == 0 else out


def free_space_provider() -> FreeSpaceProvider:
    """The bundled vacuum provider instance."""
    return FreeSpaceProvider()
