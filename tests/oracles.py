"""Independent brute-force oracles for the test suite.

Everything in this module is deliberately written WITHOUT importing the
package under test.  Each oracle implements the relevant mathematics in the
dumbest defensible way (dense trapezoid grids, symmetric-grid principal
values, scipy reference quadrature) so that agreement with the package is
meaningful evidence rather than a tautology.

One oracle is exact rather than a second quadrature: ``vacuum_sum`` gives
the vacuum pair potential of any sum of response terms (tuples, beta modes,
a duality rotation) of transition-sum molecules in closed form, from the
auxiliary functions f and g of Abramowitz & Stegun 5.2.12-13 in mpmath,
so it shares no blind spot with any quadrature.

All quantities are in natural units (hbar = c = eps0 = mu0 = 1).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate as _sint

EPS3 = np.zeros((3, 3, 3))
EPS3[0, 1, 2] = EPS3[1, 2, 0] = EPS3[2, 0, 1] = 1.0
EPS3[0, 2, 1] = EPS3[2, 1, 0] = EPS3[1, 0, 2] = -1.0

IDENTITY3 = np.eye(3)

# ----------------------------------------------------------------------------
# Frozen hand-computed reference values used across the module tests.
# ----------------------------------------------------------------------------

# single transition omega0=1, d=(0,0,1), xi=1: alpha = 2*1*ddT/(1+1) = diag(0,0,1)
ALPHA_SINGLE_ZZ = 1.0
# single transition omega0=1, d=(0,0,1), m=(0,0,1): static chiral cross response
# coefficient 2*1*1/1^2 = 2
CHI_PRIME_SINGLE_ZZ = 2.0
# free-space propagator at k=1, separation (0,0,1): e^-1/(4 pi) * (3 I - 7 zz)
G0_UNIT_XX = 3.0 * np.exp(-1.0) / (4.0 * np.pi)          # ~0.08782473
G0_UNIT_ZZ = -4.0 * np.exp(-1.0) / (4.0 * np.pi)         # ~-0.11709964
# single-curl prefactor e^-kR (1+kR)/(4 pi R^3) at kR=1, R=1 and at k=0, R=1
CURL_PREF_KR1 = 2.0 * np.exp(-1.0) / (4.0 * np.pi)       # ~0.05854982
CURL_PREF_K0 = 1.0 / (4.0 * np.pi)                       # ~0.07957747
# elementary integrals
INT_X3_EXP2X = 3.0 / 8.0            # integral_0^inf x^3 e^{-2x} dx
PV_RECIP_0_2 = 0.0                  # PV integral_0^2 dx/(x-1)
PV_X_OVER_XM1_0_2 = 2.0             # PV integral_0^2 x/(x-1) dx
# scalar contour identities (omega=1, R=1): n=1 right-hand side -cos(1)/4
CONTOUR_G1_RHS = -np.cos(1.0) / 4.0                      # ~-0.13507561
# half-line Hilbert-type reduction at xi=1, R=1: e^-1/8
CONTOUR_J2_RHS = np.exp(-1.0) / 8.0                      # ~0.04598493


# ----------------------------------------------------------------------------
# Response-tensor helpers (re-derived here, not imported).
# ----------------------------------------------------------------------------

def alpha_tensor(omega: float, d: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Electric response 2*omega*d d^T/(omega^2+k^2) for an array of k.

    Returns shape (n, 3, 3).
    """
    d = np.asarray(d, dtype=float)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    w = 2.0 * omega / (omega**2 + k**2)
    return w[:, None, None] * np.outer(d, d)[None, :, :]


def chi_tensor(omega: float, d: np.ndarray, m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Electric-magnetic cross response 2*k*d m^T/(omega^2+k^2), shape (n,3,3)."""
    d = np.asarray(d, dtype=float)
    m = np.asarray(m, dtype=float)
    k = np.atleast_1d(np.asarray(k, dtype=float))
    w = 2.0 * k / (omega**2 + k**2)
    return w[:, None, None] * np.outer(d, m)[None, :, :]


# ----------------------------------------------------------------------------
# Brute-force trapezoid of the electric-chiral free-space kernel.
# ----------------------------------------------------------------------------

def ec_free_kernel_value(omega_a: float, d_a, omega_b: float, d_b, m_b,
                         rvec, k: np.ndarray) -> np.ndarray:
    """Closed-form free-space electric-chiral integrand evaluated on a k grid.

    integrand(k) = (1/16 pi^3) e^{-2kR} eps_{ipq} Rhat_q alpha_A^{ij}(ik)
                   chi_B^{rp}(ik) * B_{jr}(k)
    with the radial bracket written with the k powers folded in analytically:
    B(k) = k^4 (I - RhRh)/R^2 + 2 k^3 (I - 2 RhRh)/R^3
         + 2 k^2 (I - 3 RhRh)/R^4 + k (I - 3 RhRh)/R^5.
    """
    rvec = np.asarray(rvec, dtype=float)
    R = float(np.linalg.norm(rvec))
    rh = rvec / R
    k = np.atleast_1d(np.asarray(k, dtype=float))
    rr = np.outer(rh, rh)
    t1 = IDENTITY3 - rr
    t2 = IDENTITY3 - 2.0 * rr
    t3 = IDENTITY3 - 3.0 * rr
    bracket = (k[:, None, None] ** 4 * t1 / R**2
               + 2.0 * k[:, None, None] ** 3 * t2 / R**3
               + 2.0 * k[:, None, None] ** 2 * t3 / R**4
               + k[:, None, None] * t3 / R**5)
    aA = alpha_tensor(omega_a, d_a, k)
    chiB = chi_tensor(omega_b, d_b, m_b, k)
    contr = np.einsum('ipq,q,nij,nrp,njr->n', EPS3, rh, aA, chiB, bracket,
                      optimize=True)
    return np.exp(-2.0 * k * R) * contr / (16.0 * np.pi**3)


def ec_free_trapezoid(omega_a: float, d_a, omega_b: float, d_b, m_b,
                      rvec, n: int = 1_000_001, k_max: float | None = None,
                      chunk: int = 100_000) -> float:
    """10^6-point trapezoid of the electric-chiral free-space kernel."""
    rvec = np.asarray(rvec, dtype=float)
    R = float(np.linalg.norm(rvec))
    if k_max is None:
        # integrand carries e^{-2kR}; cut where it is < 1e-45 of peak scale
        k_max = max(60.0 / (2.0 * R), 6.0 * max(omega_a, omega_b))
    grid = np.linspace(0.0, k_max, n)
    vals = np.empty(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        vals[lo:hi] = ec_free_kernel_value(omega_a, d_a, omega_b, d_b, m_b,
                                           rvec, grid[lo:hi])
    return float(np.trapezoid(vals, grid))


# ----------------------------------------------------------------------------
# Principal-value oracle: symmetric grid around the pole.
# ----------------------------------------------------------------------------

def pv_symmetric_grid(f, pole: float, a: float, b: float,
                      n: int = 2_000_001) -> float:
    """Brute-force Cauchy principal value of f over (a, b) with a simple pole.

    Uses the symmetric combination h(t) = f(pole+t) + f(pole-t) on a dense
    uniform grid over (0, delta] plus plain quadrature on the leftover
    regular segment.  The t->0 endpoint uses a small-t evaluation of the
    (removable) limit.
    """
    delta = min(pole - a, b - pole)
    if delta <= 0:
        raise ValueError("pole must lie strictly inside (a, b)")
    ts = np.linspace(0.0, delta, n)
    ts[0] = delta * 1e-9  # removable limit approached numerically
    if pole != 0.0:
        # snap offsets to exact multiples of the pole's ulp: pole+t and
        # pole-t are then exactly symmetric machine numbers, avoiding the
        # 1/t^2 amplification of the rounding of pole+t near the pole
        quantum = math.ulp(abs(pole))
        ts = np.maximum(np.round(ts / quantum), 1.0) * quantum
    h = np.array([f(pole + t) + f(pole - t) for t in ts], dtype=float)
    core = float(np.trapezoid(h, np.linspace(0.0, delta, n)))
    rest = 0.0
    if pole - a > delta:
        rest += _sint.quad(f, a, pole - delta, limit=400)[0]
    if b - pole > delta:
        rest += _sint.quad(f, pole + delta, b, limit=400)[0]
    return core + rest


# ----------------------------------------------------------------------------
# Reduced isotropic chiral-chiral kernel (scalar responses).
# ----------------------------------------------------------------------------

def cc_isotropic_reduced(omega_a: float, ca: float, omega_b: float, cb: float,
                         R: float) -> float:
    """Isotropic chiral-chiral potential via the reduced scalar kernel.

    chi(ik) = 2 k c/(omega^2 + k^2) per molecule (c = d.m per axis for an
    isotropically averaged single transition); kernel
    (1/(8 pi^3 R^6)) e^{-2kR} chi_A chi_B (3 + 6kR + 4 k^2 R^2).
    """
    def integrand(k):
        chi_a = 2.0 * k * ca / (omega_a**2 + k**2)
        chi_b = 2.0 * k * cb / (omega_b**2 + k**2)
        return (np.exp(-2.0 * k * R) * chi_a * chi_b
                * (3.0 + 6.0 * k * R + 4.0 * k**2 * R**2))

    val, _ = _sint.quad(integrand, 0.0, np.inf, limit=400)
    return val / (8.0 * np.pi**3 * R**6)


# ----------------------------------------------------------------------------
# Reference quadrature wrapper (scipy) for engine-vs-oracle property tests.
# ----------------------------------------------------------------------------

def scipy_halfline(f, points=None) -> float:
    """Reference value of integral_0^inf f via scipy with generous limits."""
    if points:
        val = 0.0
        edges = [0.0] + sorted(points)
        for lo, hi in zip(edges[:-1], edges[1:]):
            val += _sint.quad(f, lo, hi, limit=400)[0]
        val += _sint.quad(f, edges[-1], np.inf, limit=400)[0]
        return val
    return _sint.quad(f, 0.0, np.inf, limit=400)[0]


# ----------------------------------------------------------------------------
# The sixteen response tuples of a pair, re-derived from transition data.
# ----------------------------------------------------------------------------

def _response_blocks(omegas, ds, ms, beta_dia, xi: float,
                     beta_mode: str = "full") -> np.ndarray:
    """(2, 2, 3, 3) blocks [[alpha, chi_em], [chi_me, beta]] at i xi, with
    chi_me = -chi_em^T and beta the paramagnetic part plus beta_dia
    ('full'), the first alone ('para') or the second alone ('dia')."""
    denom = omegas**2 + xi * xi
    even = 2.0 * omegas / denom
    odd = 2.0 * xi / denom
    chi_em = (ds.T * odd) @ ms
    para = (ms.T * even) @ ms
    beta = {"full": para + beta_dia, "para": para, "dia": beta_dia}
    return np.array([[(ds.T * even) @ ds, chi_em],
                     [-chi_em.T, beta[beta_mode]]])


def _propagator_blocks(v: np.ndarray, xi: float) -> np.ndarray:
    """(2, 2, 3, 3) vacuum blocks [[ee, em], [me, mm]] for v = r - r'."""
    R = math.sqrt(float(v @ v))
    vh = v / R
    x = xi * R
    damp = math.exp(-x) / (4.0 * math.pi * R**3)
    s = damp * ((1.0 + x + x * x) * IDENTITY3
                - (3.0 + 3.0 * x + x * x) * np.outer(vh, vh))
    cross = xi * damp * (1.0 + x) * np.einsum("ijk,j->ik", EPS3, v)
    return np.array([[s, -cross], [cross, s]])


def _propagator(r_a, r_b, provider):
    """xi -> (B(r_a, r_b), B(r_b, r_a)), each (2, 2, 3, 3): the vacuum
    blocks re-derived here, or, given a ``provider`` (any object with the
    package's ``bind(r_a, r_b)`` contract), its blocks at one frequency."""
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    if provider is None:
        v = r_a - r_b
        return lambda xi: (_propagator_blocks(v, xi),
                           _propagator_blocks(-v, xi))
    bound = provider.bind(r_a.reshape(1, 3), r_b.reshape(1, 3))

    def blocks(xi):
        ab, ba = bound(np.array([xi]))
        return ab[0, 0], ba[0, 0]

    return blocks


def sixteen_tuples_integrand(mol_a, mol_b, r_a, r_b, provider=None,
                             beta_modes=("full", "full")):
    """f(xi) -> (16,): the tuple integrands -(1/2 pi) tr[A_a B_ab A_b B_ba]
    in the order of itertools.product('em', repeat=4), for molecules given
    as (omegas, dipoles, magnetic dipoles, beta_dia), each molecule's beta
    restricted by its entry of ``beta_modes``, and the blocks of
    ``provider`` (default: the vacuum)."""
    propagator = _propagator(r_a, r_b, provider)

    def f(xi):
        a = _response_blocks(*mol_a, xi, beta_modes[0])
        b = _response_blocks(*mol_b, xi, beta_modes[1])
        ab, ba = propagator(xi)
        traces = np.einsum("pqij,qrjk,rskl,spli->pqrs", a, ab, b, ba)
        return -traces.reshape(16) / (2.0 * math.pi)

    return f


def block_traces_integrand(mol_a, mol_b, r_a, r_b, traces, provider=None,
                           beta_mode_a: str = "full"):
    """f(xi) -> (K,): tr[A_a^w B^x(r_a, r_b) A_b^y B^z(r_b, r_a)] for each
    (w, x, y, z) of ``traces``, two-letter block labels such as 'em' in
    any combination (a tuple l1 l2 l3 l4 is (l1 l2, l2 l3, l3 l4, l4 l1)),
    with molecule A's beta restricted by ``beta_mode_a``; molecules and
    ``provider`` as for ``sixteen_tuples_integrand``."""
    propagator = _propagator(r_a, r_b, provider)
    picks = [tuple(("em".index(label[0]), "em".index(label[1]))
                   for label in trace) for trace in traces]

    def f(xi):
        a = _response_blocks(*mol_a, xi, beta_mode_a)
        b = _response_blocks(*mol_b, xi)
        ab, ba = propagator(xi)
        return np.array([np.trace(a[w] @ ab[x] @ b[y] @ ba[z])
                         for w, x, y, z in picks])

    return f


class SyntheticMedium:
    """A provider of a medium without vacuum's symmetries:
    B(r_a, r_b) = K e^(-2 xi R)/(4 pi R^3) and B(r_b, r_a) =
    K' e^(-2 xi R)/(4 pi R^3), with K and K' fixed random 6x6 matrices, so
    B_ee != B_mm, B_em != -B_me and B(r_b, r_a) is not B(r_a, r_b) with
    its 3x3 blocks transposed.  With ``reciprocal`` only B_ee != B_mm
    remains: K_me = -K_em, and K' holds the blocks of K transposed, the
    cross blocks with a sign, as in free space.  The blocks are smooth in
    xi, finite at xi = 0 and decay with xi and R; ``bind`` follows the
    package's provider contract."""

    def __init__(self, seed: int = 3, reciprocal: bool = False):
        rng = np.random.default_rng(seed)
        self.forward, self.backward = rng.normal(size=(2, 2, 2, 3, 3))
        if reciprocal:
            (ee, em), (_, mm) = self.forward
            self.forward = np.array([[ee, em], [-em, mm]])
            self.backward = np.array([[ee.T, em.T], [-em.T, mm.T]])

    def bind(self, r_a, r_b):
        diff = np.asarray(r_a, dtype=float) - np.asarray(r_b, dtype=float)
        R = np.sqrt(np.sum(diff * diff, axis=-1))

        def blocks(xis):
            decay = (np.exp(-2.0 * np.multiply.outer(R, xis))
                     / (4.0 * math.pi * R[:, None] ** 3))
            decay = decay[..., None, None, None, None]
            return decay * self.forward, decay * self.backward

        return blocks


def quad_vec_geometric(f, lo: float, hi: float, scale) -> np.ndarray:
    """Integral over [0, inf) of the vector integrand f with scipy
    ``quad_vec`` on [0, lo], geometric pieces of one decade up to hi, and
    [hi, inf).  Each component is divided by its entry of ``scale`` (an
    estimate of its magnitude) inside the integral, so the max-norm
    tolerance holds for every component relative to its own size; a piece
    is done at 1e-13 of its own value or 1e-15 of the whole."""
    scale = np.asarray(scale, dtype=float)
    count = int(math.ceil(math.log10(hi / lo))) + 1
    edges = [0.0, *np.geomspace(lo, hi, count), np.inf]
    total = np.zeros_like(scale)
    for a, b in zip(edges[:-1], edges[1:]):
        total += _sint.quad_vec(lambda x: f(x) / scale, a, b, epsrel=1e-13,
                                epsabs=1e-15, norm="max")[0]
    return total * scale


# ----------------------------------------------------------------------------
# Finite-difference curl
# ----------------------------------------------------------------------------

def fd_curl_left(field, r, rp, xi: float,
                 step_scale: float = 1e-5) -> np.ndarray:
    """Finite-difference curl of a tensor field in its first argument.

    ``field(r, rp, xi)`` must return a 3x3 array.  Central differences with
    one Richardson refinement; the step is ``step_scale`` times the point
    separation.  Validates the analytic curls.
    """
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    s = float(np.linalg.norm(r - rp))
    if s <= 0.0:
        raise ValueError("points must be distinct")

    def derivative_matrix(h: float) -> np.ndarray:
        # partials[p, q, j] = d/dr_p field_{qj}
        partials = np.empty((3, 3, 3))
        for p in range(3):
            step = np.zeros(3)
            step[p] = h
            plus = field(r + step, rp, xi)
            minus = field(r - step, rp, xi)
            partials[p] = (np.asarray(plus) - np.asarray(minus)) / (2.0 * h)
        return partials

    h = step_scale * s
    coarse = derivative_matrix(h)
    fine = derivative_matrix(0.5 * h)
    partials = (4.0 * fine - coarse) / 3.0
    # (curl F)_{ij} = eps_{ipq} d_p F_{qj}
    return np.einsum('ipq,pqj->ij', EPS3, partials)


# ----------------------------------------------------------------------------
# Exact vacuum oracle: the imaginary-frequency integral in closed form.
# ----------------------------------------------------------------------------
#
# In vacuum every factor of a tuple's integrand is a sum of weighted
# constant matrices: a response block is sum_i w_i(xi) X_i with
# w = 1/(omega^2 + xi^2) (alpha, beta_para), xi/(omega^2 + xi^2) (chi) or 1
# (beta_dia), and a propagator block is e^(-xi R)/(4 pi R^3) sum_p xi^p B_p,
# p <= 2.  The integral of a tuple is then a sum of trace coefficients
# tr[X_i B_p Y_j B'_q] times the elementary integrals
#     int_0^inf xi^n e^(-c xi) w_i(xi) w_j(xi) dxi,   c = 2R,
# which partial fractions reduce to n!/c^(n+1) and
#     J_n(a) = int_0^inf xi^n e^(-c xi)/(a^2 + xi^2) dxi:
# J_0 = f(ac)/a and J_1 = g(ac), with f and g the auxiliary functions of
# Abramowitz & Stegun 5.2.12-13, and J_n = (n-2)!/c^(n-1) - a^2 J_(n-2).
# A double pole a = b takes -dJ_n/da / (2a).  The trace coefficients are
# formed in numpy, in extended precision (np.longdouble) and again in
# float64 to measure their rounding; only the J_n and the final sums are
# formed in mpmath, at a working precision set from the digits that the
# recurrence and the pole differences cancel, and checked against a second
# precision twenty digits higher.

_LD = np.longdouble
# item weights: 1/(omega^2 + xi^2), xi/(omega^2 + xi^2) and 1
_EVEN, _ODD, _CONST = 0, 1, 2
_MAX_POWER = 6                          # two odd weights and xi^4


def _mp(x) -> mpmath.mpf:
    """The float64 or longdouble ``x`` as an mpf, exactly."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - type(x)(hi)))


def _response_items(mol, beta_mode: str, duality, dtype):
    """The response of ``mol`` = (omegas, dipoles, magnetic dipoles,
    beta_dia) as weighted items: (kinds, poles, X), item i contributing
    w_i(xi) X_i, X_i the (2, 2, 3, 3) block matrix [[alpha, chi_em],
    [chi_me, beta]], rotated to D X D^T, D = [[cos, sin], [-sin, cos]],
    when ``duality`` is given.  The items are one even and one odd per
    transition and the constant beta_dia, whatever ``beta_mode``: a mode
    only zeroes blocks, so every mode has the same items."""
    omegas, ds, ms, beta_dia = mol
    omegas = np.asarray(omegas, dtype=float)
    count = omegas.size
    x = np.zeros((2 * count + 1, 2, 2, 3, 3), dtype=dtype)
    for t, (omega, d, m) in enumerate(zip(
            omegas.astype(dtype), np.asarray(ds, dtype=float).astype(dtype),
            np.asarray(ms, dtype=float).astype(dtype))):
        x[2 * t, 0, 0] = 2 * omega * np.outer(d, d)
        if beta_mode in ("full", "para"):
            x[2 * t, 1, 1] = 2 * omega * np.outer(m, m)
        x[2 * t + 1, 0, 1] = 2 * np.outer(d, m)
        x[2 * t + 1, 1, 0] = -2 * np.outer(m, d)
    if beta_mode in ("full", "dia"):
        x[-1, 1, 1] = np.asarray(beta_dia, dtype=float)
    if duality is not None:
        c, s = math.cos(duality), math.sin(duality)
        rot = np.array([[c, s], [-s, c]]).astype(dtype)
        x = np.einsum("xu,yv,iuvab->ixyab", rot, rot, x)
    kinds = [_EVEN, _ODD] * count + [_CONST]
    poles = [float(w) for w in omegas for _ in range(2)] + [0.0]
    return kinds, poles, x


def _propagator_powers(v: np.ndarray, dtype) -> np.ndarray:
    """(3, 2, 2, 3, 3): the xi^p coefficients B_p of the vacuum block
    matrix [[S, -X], [X, S]] for the separation v, less e^(-xi R)/(4 pi R^3):
    S = (1 + xi R + xi^2 R^2) I - (3 + 3 xi R + xi^2 R^2) vv^T/R^2 and
    X = (xi + R xi^2) [v]_x."""
    v = np.asarray(v, dtype=float).astype(dtype)
    R = np.sqrt(np.sum(v * v))
    vh = v / R
    eye = np.eye(3, dtype=dtype)
    proj = np.outer(vh, vh)
    cross = np.einsum("ijk,j->ik", EPS3.astype(dtype), v)
    out = np.zeros((3, 2, 2, 3, 3), dtype=dtype)
    for p, (s, x) in enumerate([(eye - 3 * proj, 0 * cross),
                                (R * (eye - 3 * proj), cross),
                                (R * R * (eye - proj), R * cross)]):
        out[p] = [[s, -x], [x, s]]
    return out


def _trace_coefficients(mol_a, mol_b, v, terms, duality, dtype,
                        absolute=False):
    """The items of both molecules and the summed trace coefficients of
    ``terms`` in ``dtype``: (items_a, items_b, C), with C[i, j, n] the
    coefficient of xi^n w_i w_j e^(-2 xi R)/(4 pi R^3)^2 in the sum of the
    terms' traces tr[A_a^(l1 l2) B_(l2 l3)(r_a, r_b) A_b^(l3 l4)
    B_(l4 l1)(r_b, r_a)]; with ``absolute`` the same sum over the absolute
    values of every product (a bound for the rounding of C)."""
    props = (_propagator_powers(v, dtype), _propagator_powers(-v, dtype))
    by_modes = {}
    for tup, mode_a, mode_b in terms:
        by_modes.setdefault((mode_a, mode_b), []).append(
            tuple("em".index(label) for label in tup))
    coeff = 0
    for (mode_a, mode_b), tuples in by_modes.items():
        items_a = _response_items(mol_a, mode_a, duality, dtype)
        items_b = _response_items(mol_b, mode_b, duality, dtype)
        mats = (items_a[2], props[0], items_b[2], props[1])
        if absolute:
            mats = tuple(np.abs(m) for m in mats)
        full = np.einsum("iwxab,pxybc,jyzcd,qzwda->wxyzijpq", *mats,
                         optimize=True)
        picked = full[tuple(np.array(tuples).T)].sum(axis=0)
        powers = np.zeros(picked.shape[:2] + (5,), dtype=dtype)
        for p in range(3):
            for q in range(3):
                powers[:, :, p + q] += picked[:, :, p, q]
        coeff = coeff + powers
    return items_a, items_b, coeff


def _aux_fg(z):
    """The auxiliary functions f(z) and g(z) of A&S 5.2.6-7."""
    ci, si = mpmath.ci(z), mpmath.si(z) - mpmath.pi / 2
    sin, cos = mpmath.sin(z), mpmath.cos(z)
    return ci * sin - si * cos, -ci * cos - si * sin


def _j_powers(a, c):
    """[J_0 .. J_6] and [dJ_0/da .. dJ_6/da] for the pole a and decay c,
    from f' = -g and g' = f - 1/z."""
    f, g = _aux_fg(a * c)
    j = [f / a, g]
    dj = [-c * g / a - f / (a * a), c * (f - 1 / (a * c))]
    for n in range(2, _MAX_POWER + 1):
        j.append(mpmath.factorial(n - 2) / c ** (n - 1) - a * a * j[n - 2])
        dj.append(-2 * a * j[n - 2] - a * a * dj[n - 2])
    return j, dj


def _elementary(kind_i, pole_i, kind_j, pole_j, c, tables):
    """[int_0^inf xi^n e^(-c xi) w_i w_j dxi for n = 0 .. 4]."""
    shift = (kind_i == _ODD) + (kind_j == _ODD)
    poles = [p for k, p in ((kind_i, pole_i), (kind_j, pole_j))
             if k != _CONST]
    out = []
    for n in range(5):
        m = n + shift
        if not poles:
            out.append(mpmath.factorial(m) / c ** (m + 1))
        elif len(poles) == 1:
            out.append(tables[poles[0]][0][m])
        elif poles[0] == poles[1]:
            out.append(-tables[poles[0]][1][m] / (2 * mpmath.mpf(poles[0])))
        else:
            a, b = mpmath.mpf(poles[0]), mpmath.mpf(poles[1])
            out.append((tables[poles[0]][0][m] - tables[poles[1]][0][m])
                       / (b * b - a * a))
    return out


def _integrals(items_a, items_b, v, dps) -> dict:
    """{(i, j): [-(1/2 pi) Int_0^inf xi^n w_i w_j e^(-2 xi R)/(4 pi R^3)^2
    dxi for n = 0 .. 4]} as mpf at ``dps`` digits."""
    with mpmath.workdps(dps):
        R = mpmath.sqrt(sum(mpmath.mpf(float(x)) ** 2 for x in v))
        c = 2 * R
        tables = {p: _j_powers(mpmath.mpf(p), c)
                  for p in set(items_a[1]) | set(items_b[1]) if p > 0.0}
        scale = -1 / (2 * mpmath.pi * (4 * mpmath.pi * R ** 3) ** 2)
        return {(i, j): [scale * x for x in _elementary(
                    kind_i, pole_i, kind_j, pole_j, c, tables)]
                for i, (kind_i, pole_i) in enumerate(zip(*items_a[:2]))
                for j, (kind_j, pole_j) in enumerate(zip(*items_b[:2]))}


def _closed_form(coeff, ints):
    """sum_ijn C[i, j, n] times the integrals ``ints`` (at the working
    precision of the caller)."""
    return mpmath.fsum(_mp(coeff[i, j, n]) * row[n]
                       for (i, j), row in ints.items() for n in range(5)
                       if coeff[i, j, n])


def _working_digits(poles, R: float) -> int:
    """30 digits, plus 6 |log10(ac)| at the most extreme a c (with ac > 1
    each of the three steps of the recurrence cancels about 2 log10(ac)
    digits, and with ac < 1 the difference of two poles' J_n cancels about
    2 |log10(ac)|), plus 20 for a difference of close poles."""
    logs = [abs(math.log10(2.0 * R * p)) for p in poles if p > 0.0]
    return 30 + math.ceil(6 * max(logs, default=0.0)) + 20


def vacuum_sum(mol_a, mol_b, r_a, r_b, terms, duality=None):
    """Exact vacuum value of the sum of ``terms`` -(1/2 pi) Int_0^inf
    tr[A_a^(l1 l2) B_(l2 l3)(r_a, r_b) A_b^(l3 l4) B_(l4 l1)(r_b, r_a)] dxi.

    ``terms`` lists (tuple, beta_mode_a, beta_mode_b) with beta modes
    "full", "para" (no beta_dia) or "dia" (beta_dia alone); molecules are
    (omegas, dipoles, magnetic dipoles, beta_dia); ``duality`` rotates
    both molecules' block matrices by that angle.  Returns (value,
    uncertainty, float64_shift):

    * ``uncertainty`` bounds the rounding of the extended-precision trace
      coefficients: 64 times the change of the value when they are formed
      in float64 instead, scaled by the ratio of the two epsilons (where
      np.longdouble is no wider than float64, 64 eps times the same sum
      over the absolute values of every product);
    * ``float64_shift`` is that change itself: how far rounding the trace
      coefficients to float64 alone moves the value, the scale of the
      error that any float64 evaluation of the integrand carries.

    Every elementary integral is formed at two precisions, which must
    agree to 25 digits.
    """
    v = np.asarray(r_a, dtype=float) - np.asarray(r_b, dtype=float)
    terms = list(terms)
    items_a, items_b, coeff = _trace_coefficients(
        mol_a, mol_b, v, terms, duality, _LD)
    _, _, coeff64 = _trace_coefficients(mol_a, mol_b, v, terms, duality,
                                        np.float64)
    eps_ld, eps = float(np.finfo(_LD).eps), float(np.finfo(float).eps)
    dps = _working_digits(items_a[1] + items_b[1], math.sqrt(float(v @ v)))
    ints = _integrals(items_a, items_b, v, dps)
    check = _integrals(items_a, items_b, v, dps + 20)
    for key, row in ints.items():
        for x, y in zip(row, check[key]):
            if abs(x - y) > 1e-25 * abs(y):
                raise ArithmeticError(
                    f"vacuum oracle unstable at {dps} digits: {x} vs {y}")
    with mpmath.workdps(dps):
        value, value64 = (_closed_form(c, ints) for c in (coeff, coeff64))
        if eps_ld < eps:
            uncertainty = 64.0 * eps_ld / eps * float(abs(value64 - value))
        else:       # no extended precision: bound the rounding
            bound = _trace_coefficients(mol_a, mol_b, v, terms, duality,
                                        _LD, absolute=True)[2]
            uncertainty = 64.0 * eps * abs(float(_closed_form(bound, ints)))
    return float(value), float(uncertainty), float(abs(value64 - value))
