"""Numerical self-checks of the identities behind the dispersion integrals.

Two independent families are covered.

**Denominator identities.**  Fourth-order perturbation theory for a pair of
coupled dipoles produces time-ordered sums over twelve distinct products of
level-spacing factors.  For each interference class (electric-chiral EC,
paramagnetic-chiral PC, chiral-chiral CC) the signed sum of their
reciprocals collapses, after symmetrisation over the two photon
frequencies, to a compact partial-fraction form.  That collapse is what
lets the pair potential be written as a single integral over imaginary
frequency, so the checks here evaluate both sides of each collapse in
floating point, together with the antisymmetry that maps the EC
combination onto the PC one when the photon frequencies are exchanged.

**Contour identities.**  Rotating the real-frequency integral onto the
imaginary axis relies on closed forms for moment integrals of the
imaginary part of the scalar wave kernel ``exp(i w R) / (4 pi R)``.  The
real-axis integrals converge only as oscillatory improper integrals, so a
smooth high-frequency roll-off ``W(w) = (1 - tanh((w - w_c)/s)) / 2`` is
applied far outside the stationary region; with the window placed well
beyond both the pole and several oscillation scales the windowed result
reproduces the closed form to the quoted tolerance.

:func:`run_suite` bundles both families with a set of cross-route
consistency checks of the potential integrator itself (summed response
tuples against the division-free single-trace forms, para/dia additivity,
duality invariance, and isotropic suppression of the electric-chiral
term), using a fixed random seed so that the rendered report is
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .green import Separation
from .potentials import (
    u_cc_direct,
    u_ec_direct,
    u_named,
)
from .quad import QuadResult, QuadSpec, integrate_interval, integrate_pv
from .response import Molecule, Transition

__all__ = [
    "IdentityCheck",
    "VerificationReport",
    "reciprocal_denominators",
    "denominator_combination",
    "check_denominators",
    "check_exchange",
    "check_contour_gn",
    "check_contour_j2",
    "run_suite",
]

_DENOMINATOR_KINDS = ("EC", "PC", "CC")


# ---------------------------------------------------------------------------
# Report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one two-sided identity evaluation.

    ``residual`` is ``|lhs - rhs|`` divided by the larger of ``|lhs|``,
    ``|rhs|`` and a check-specific floor that keeps the quotient meaningful
    when the identity value itself passes through zero.
    """

    name: str
    lhs: float
    rhs: float
    residual: float
    passed: bool
    tolerance: float


@dataclass(frozen=True)
class VerificationReport:
    """Ordered collection of identity checks plus the seed that built it."""

    checks: Tuple[IdentityCheck, ...]
    seed: Optional[int] = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> Tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def render(self) -> str:
        """Deterministic plain-text report, one line per check."""
        lines = []
        seed_part = "-" if self.seed is None else str(self.seed)
        lines.append(
            "identity suite: %d checks, %d failed (seed=%s)"
            % (len(self.checks), len(self.failures), seed_part)
        )
        for c in self.checks:
            lines.append(
                "%s %s: lhs=%.17g rhs=%.17g residual=%.3e tol=%g"
                % ("PASS" if c.passed else "FAIL", c.name,
                   c.lhs, c.rhs, c.residual, c.tolerance)
            )
        return "\n".join(lines) + "\n"


def _make_check(name: str, lhs: float, rhs: float, tolerance: float,
                floor: float = 0.0, converged: bool = True) -> IdentityCheck:
    """The check of ``lhs`` against ``rhs``; it fails when the residual
    exceeds ``tolerance`` or a quadrature behind it did not converge."""
    lhs = float(lhs)
    rhs = float(rhs)
    scale = max(abs(lhs), abs(rhs), floor, 1e-300)
    residual = abs(lhs - rhs) / scale
    return IdentityCheck(name=name, lhs=lhs, rhs=rhs, residual=residual,
                         passed=converged and residual <= tolerance,
                         tolerance=tolerance)


# ---------------------------------------------------------------------------
# Denominator identities
# ---------------------------------------------------------------------------

def reciprocal_denominators(omega_a: float, omega_b: float,
                            omega1: float, omega2: float) -> Dict[int, float]:
    """Reciprocals of the twelve level-sum products, keyed 1..12.

    ``omega_a`` / ``omega_b`` are the molecular transition frequencies and
    ``omega1`` / ``omega2`` the two photon frequencies of the fourth-order
    sum.  All four must be positive.
    """
    wa, wb = float(omega_a), float(omega_b)
    w1, w2 = float(omega1), float(omega2)
    for value in (wa, wb, w1, w2):
        if not value > 0.0:
            raise ValueError("all frequencies must be positive")
    total = wa + wb + w1 + w2
    products = {
        1: (wa + w1) * (w1 + w2) * (wb + w2),
        2: (wa + w1) * (w1 + w2) * (wb + w1),
        3: (wa + w1) * (wa + wb) * (wb + w2),
        4: (wa + w1) * total * (wb + w1),
        5: (wa + w1) * (wa + wb) * (wa + w2),
        6: (wa + w1) * total * (wa + w2),
        7: (wb + w1) * (wa + wb) * (wb + w2),
        8: (wb + w1) * total * (wb + w2),
        9: (wb + w1) * (wa + wb) * (wa + w2),
        10: (wb + w1) * total * (wa + w1),
        11: (wb + w1) * (w1 + w2) * (wa + w2),
        12: (wb + w1) * (w1 + w2) * (wa + w1),
    }
    return {k: 1.0 / v for k, v in products.items()}


def _ec_pc_parts(omega_a, omega_b, omega1, omega2):
    """Crossing-symmetric and crossing-antisymmetric partial sums for the
    EC / PC interference classes."""
    r = reciprocal_denominators(omega_a, omega_b, omega1, omega2)
    part_s = r[1] - r[2] + r[3] - r[9] - r[11] - r[12]
    part_t = r[4] - r[5] + r[6] + r[7] + r[8] + r[10]
    return part_s, part_t


def _cc_parts(omega_a, omega_b, omega1, omega2):
    """The same split for the chiral-chiral interference class."""
    r = reciprocal_denominators(omega_a, omega_b, omega1, omega2)
    part_s = r[1] - r[2] + r[3] + r[9] + r[11] - r[12]
    part_t = r[4] - r[5] + r[6] - r[7] + r[8] + r[10]
    return part_s, part_t


def denominator_combination(kind: str, omega1: float, omega2: float,
                            omega_a: float, omega_b: float):
    """Symmetrised denominator sum whose closed form the checks verify.

    For ``kind`` ``'EC'`` or ``'PC'`` this returns the single combination
    ``D+(w1, w2) + D-(w2, w1)``; for ``'CC'`` it returns the pair
    ``(D+(w1, w2) + D+(w2, w1), D-(w1, w2) + D-(w2, w1))``.
    """
    kind = str(kind).upper()
    if kind in ("EC", "PC"):
        sign = 1.0 if kind == "EC" else -1.0
        s12, t12 = _ec_pc_parts(omega_a, omega_b, omega1, omega2)
        s21, t21 = _ec_pc_parts(omega_a, omega_b, omega2, omega1)
        return (s12 + sign * t12) + (-s21 + sign * t21)
    if kind == "CC":
        s12, t12 = _cc_parts(omega_a, omega_b, omega1, omega2)
        s21, t21 = _cc_parts(omega_a, omega_b, omega2, omega1)
        return (s12 + t12) + (s21 + t21), (s12 - t12) + (s21 - t21)
    raise ValueError(f"unknown kind {kind!r}; expected one of "
                     f"{_DENOMINATOR_KINDS}")


def _ec_pc_closed_form(kind: str, omega1, omega2, omega_a, omega_b) -> float:
    w1, w2, wa, wb = omega1, omega2, omega_a, omega_b
    bracket = (1.0 / ((wa + w2) * (wb + w2))
               - 1.0 / ((wa + w1) * (wb + w1)))
    sign = -1.0 if kind == "EC" else 1.0
    return (4.0 * wa / (wa + wb)) * bracket * (
        1.0 / (w2 + w1) + sign / (w2 - w1))


def _cc_closed_form(omega1, omega2, omega_a, omega_b):
    w1, w2, wa, wb = omega1, omega2, omega_a, omega_b

    def piece(x, y, sign):
        return (x / ((wa + x) * (wb + x))) * (
            1.0 / (x + y) + sign / (x - y))

    plus = piece(w1, w2, 1.0) + piece(w2, w1, 1.0)
    minus = piece(w1, w2, -1.0) + piece(w2, w1, -1.0)
    factor = 4.0 / (wa + wb)
    return factor * plus, factor * minus


def check_denominators(kind: str, omega1: float, omega2: float,
                       omega_a: float, omega_b: float,
                       tolerance: float = 1e-12) -> IdentityCheck:
    """Verify one interference class's denominator collapse.

    ``omega1`` and ``omega2`` must differ: the closed form carries a
    ``1/(omega2 - omega1)`` factor whose divergence cancels only inside
    the symmetrised combination.
    """
    kind = str(kind).upper()
    if kind not in _DENOMINATOR_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of "
                         f"{_DENOMINATOR_KINDS}")
    if float(omega1) == float(omega2):
        raise ValueError("omega1 and omega2 must differ")
    label = (f"denominator {kind} (w1={omega1:g}, w2={omega2:g}, "
             f"wA={omega_a:g}, wB={omega_b:g})")
    if kind in ("EC", "PC"):
        lhs = denominator_combination(kind, omega1, omega2, omega_a, omega_b)
        rhs = _ec_pc_closed_form(kind, omega1, omega2, omega_a, omega_b)
        return _make_check(label, lhs, rhs, tolerance)
    lhs_p, lhs_m = denominator_combination("CC", omega1, omega2,
                                           omega_a, omega_b)
    rhs_p, rhs_m = _cc_closed_form(omega1, omega2, omega_a, omega_b)
    check_p = _make_check(label, lhs_p, rhs_p, tolerance)
    check_m = _make_check(label, lhs_m, rhs_m, tolerance)
    return check_p if check_p.residual >= check_m.residual else check_m


def check_exchange(omega1: float, omega2: float, omega_a: float,
                   omega_b: float,
                   tolerance: float = 1e-12) -> IdentityCheck:
    """Verify that exchanging the photon frequencies maps the EC
    combination onto minus the PC combination."""
    if float(omega1) == float(omega2):
        raise ValueError("omega1 and omega2 must differ")
    lhs = denominator_combination("EC", omega2, omega1, omega_a, omega_b)
    rhs = -denominator_combination("PC", omega1, omega2, omega_a, omega_b)
    label = (f"exchange EC/PC (w1={omega1:g}, w2={omega2:g}, "
             f"wA={omega_a:g}, wB={omega_b:g})")
    return _make_check(label, lhs, rhs, tolerance)


# ---------------------------------------------------------------------------
# Contour-rotation identities
# ---------------------------------------------------------------------------

def _contour_spec() -> QuadSpec:
    return QuadSpec(rel_tol=1e-10, abs_tol=1e-14, max_evals=200_000)


def _window_params(omega: float, distance: float):
    """Placement of the tanh roll-off: scale, centre and upper edge.

    The window starts far beyond both the pole (50 oscillation periods of
    the slow envelope) and the kernel's own oscillation scale, and spans
    six widths of flat response plus twelve of decay so the truncation
    error sits below the check tolerances.
    """
    scale = 20.0 / distance
    start = 50.0 * omega + 40.0 / distance
    centre = start + 6.0 * scale
    upper = centre + 12.0 * scale
    return scale, centre, upper


def _window(w: np.ndarray, centre: float, scale: float) -> np.ndarray:
    return 0.5 * (1.0 - np.tanh((w - centre) / scale))


def check_contour_gn(n: int, omega: float, distance: float,
                     tolerance: float = 1e-6,
                     spec: Optional[QuadSpec] = None) -> IdentityCheck:
    """Moment integral of the wave kernel's imaginary part.

    Verifies, for ``n`` in 0..3, that the windowed principal-value integral

        PV int_0^inf dw w^n Im[e^{i w R}/(4 pi R)]
                         [1/(w + omega) + (-1)^n / (w - omega)]

    equals ``(-omega)^n cos(omega R) / (4 R)``.  The relative residual is
    floored at ``1/(4 R)`` because the right-hand side vanishes whenever
    ``cos(omega R)`` does.
    """
    n = int(n)
    if n not in (0, 1, 2, 3):
        raise ValueError("moment order n must be 0, 1, 2 or 3")
    omega = float(omega)
    distance = float(distance)
    if not (omega > 0.0 and distance > 0.0):
        raise ValueError("omega and distance must be positive")
    scale, centre, upper = _window_params(omega, distance)
    sign = 1.0 if n % 2 == 0 else -1.0

    def integrand(w):
        w = np.asarray(w, dtype=float)
        imag_kernel = np.sin(w * distance) / (4.0 * np.pi * distance)
        poles = 1.0 / (w + omega) + sign / (w - omega)
        return w ** n * imag_kernel * poles * _window(w, centre, scale)

    result = integrate_pv(integrand, omega, 0.0, upper,
                          spec=spec or _contour_spec())
    rhs = (-omega) ** n * np.cos(omega * distance) / (4.0 * distance)
    label = f"contour moment n={n} (omega={omega:g}, R={distance:g})"
    return _make_check(label, result.value, rhs, tolerance,
                       floor=1.0 / (4.0 * distance),
                       converged=result.converged)


def check_contour_j2(xi: float, distance: float,
                     tolerance: float = 1e-6,
                     spec: Optional[QuadSpec] = None) -> IdentityCheck:
    """Imaginary-frequency projection of the wave kernel.

    Verifies that the windowed integral

        int_0^inf dw  w Im[e^{i w R}/(4 pi R)] / (w^2 + xi^2)

    equals ``exp(-xi R) / (8 R)`` — the identity that moves the pair
    potential onto the imaginary frequency axis.  The relative residual is
    floored at ``1/(8 R)``.
    """
    xi = float(xi)
    distance = float(distance)
    if not (xi > 0.0 and distance > 0.0):
        raise ValueError("xi and distance must be positive")
    scale, centre, upper = _window_params(xi, distance)

    def integrand(w):
        w = np.asarray(w, dtype=float)
        imag_kernel = np.sin(w * distance) / (4.0 * np.pi * distance)
        return w * imag_kernel / (w * w + xi * xi) * _window(w, centre, scale)

    result = integrate_interval(integrand, 0.0, upper,
                                spec=spec or _contour_spec(),
                                breakpoints=(xi, centre))
    rhs = float(np.exp(-xi * distance) / (8.0 * distance))
    label = f"imaginary-axis projection (xi={xi:g}, R={distance:g})"
    return _make_check(label, result.value, rhs, tolerance,
                       floor=1.0 / (8.0 * distance),
                       converged=result.converged)


# ---------------------------------------------------------------------------
# Cross-route integrator checks and the bundled suite
# ---------------------------------------------------------------------------

def _random_pair(rng: np.random.Generator) -> Tuple[Molecule, Molecule]:
    """Two reproducible generic molecules with full response structure."""

    def build(tag: str, count: int) -> Molecule:
        transitions = []
        for _ in range(count):
            omega = float(rng.uniform(0.6, 2.0))
            d = rng.uniform(-0.8, 0.8, size=3)
            m_tilde = rng.uniform(-0.5, 0.5, size=3)
            transitions.append(Transition(omega, d, m_tilde))
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        weights = rng.uniform(0.02, 0.1, size=3)
        beta_dia = -(basis * weights) @ basis.T
        beta_dia = 0.5 * (beta_dia + beta_dia.T)
        return Molecule(f"suite-{tag}", tuple(transitions), beta_dia)

    return build("a", 2), build("b", 2)


def _isotropic_pair() -> Tuple[Molecule, Molecule]:
    eye = np.eye(3)
    mol_a = Molecule("suite-iso-a", tuple(
        Transition(1.1, 0.5 * eye[i], 0.2 * eye[i]) for i in range(3)))
    mol_b = Molecule("suite-iso-b", tuple(
        Transition(0.9, 0.4 * eye[i], -0.3 * eye[i]) for i in range(3)))
    return mol_a, mol_b


def _relative_check(name: str, first: QuadResult, second: QuadResult,
                    tolerance: float) -> IdentityCheck:
    return _make_check(name, first.value, second.value, tolerance,
                       converged=first.converged and second.converged)


def _cross_route_checks(rng: np.random.Generator) -> list:
    spec = QuadSpec(rel_tol=1e-11, abs_tol=1e-300, max_evals=200_000)
    mol_a, mol_b = _random_pair(rng)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    sep = Separation(2.0 * direction, np.zeros(3))

    checks = []
    checks.append(_relative_check(
        "cross-route EC (summed tuples vs single trace)",
        u_named(mol_a, mol_b, sep, "EC", spec=spec),
        u_ec_direct(mol_a, mol_b, sep, spec=spec),
        tolerance=1e-9,
    ))
    checks.append(_relative_check(
        "cross-route CC (summed tuples vs single trace)",
        u_named(mol_a, mol_b, sep, "CC", spec=spec),
        u_cc_direct(mol_a, mol_b, sep, spec=spec),
        tolerance=1e-9,
    ))
    pc = u_named(mol_a, mol_b, sep, "PC", spec=spec)
    dc = u_named(mol_a, mol_b, sep, "DC", spec=spec)
    checks.append(_relative_check(
        "magnetic split MC = PC + DC",
        u_named(mol_a, mol_b, sep, "MC", spec=spec),
        pc + dc,
        tolerance=1e-10,
    ))
    checks.append(_relative_check(
        "duality invariance of TOTAL (theta=pi/4)",
        u_named(mol_a, mol_b, sep, "TOTAL", spec=spec),
        u_named(mol_a, mol_b, sep, "TOTAL", spec=spec,
                duality=np.pi / 4.0),
        tolerance=1e-10,
    ))
    iso_a, iso_b = _isotropic_pair()
    iso_sep = Separation(np.array([0.0, 0.0, 2.0]), np.zeros(3))
    ec_iso = u_named(iso_a, iso_b, iso_sep, "EC", spec=spec)
    ee_iso = u_named(iso_a, iso_b, iso_sep, "EE", spec=spec)
    checks.append(_make_check(
        "isotropic EC suppression (|EC| vs |EE|)",
        ec_iso.value, 0.0, tolerance=1e-12,
        floor=abs(ee_iso.value),
        converged=ec_iso.converged and ee_iso.converged))
    return checks


def _sweep_checks(rng: np.random.Generator, count: int,
                  tolerance: float) -> list:
    """Aggregate denominator checks over ``count`` random frequency sets.

    Points closer than 0.05 to the degenerate line ``omega1 == omega2``
    are resampled: the closed forms contain a ``1/(omega2 - omega1)``
    factor whose intrinsic floating-point cancellation would otherwise
    dominate the residual.
    """
    worst = {kind: None for kind in ("EC", "PC", "CC", "exchange")}
    drawn = 0
    while drawn < count:
        wa, wb, w1, w2 = rng.uniform(0.05, 5.0, size=4)
        if abs(w1 - w2) < 0.05:
            continue
        drawn += 1
        for kind in _DENOMINATOR_KINDS:
            check = check_denominators(kind, w1, w2, wa, wb, tolerance)
            if worst[kind] is None or check.residual > worst[kind].residual:
                worst[kind] = check
        check = check_exchange(w1, w2, wa, wb, tolerance)
        if (worst["exchange"] is None
                or check.residual > worst["exchange"].residual):
            worst["exchange"] = check
    out = []
    for kind in ("EC", "PC", "CC", "exchange"):
        base = worst[kind]
        out.append(IdentityCheck(
            name=f"denominator sweep {kind} "
                 f"(worst of {count}: {base.name})",
            lhs=base.lhs, rhs=base.rhs, residual=base.residual,
            passed=base.passed, tolerance=base.tolerance))
    return out


def run_suite(seed: int = 0, sweep_points: int = 1000) -> VerificationReport:
    """Run every bundled identity check and return the report.

    The same seed always produces the same molecules, the same random
    frequency sweep and therefore a byte-identical rendered report.
    """
    rng = np.random.default_rng(seed)
    checks = []

    for kind in _DENOMINATOR_KINDS:
        checks.append(check_denominators(kind, 0.3, 1.7, 1.0, 1.3))
        checks.append(check_denominators(kind, 2.5, 0.45, 0.8, 2.2))
    checks.append(check_exchange(0.3, 1.7, 1.0, 1.3))
    checks.append(check_exchange(2.5, 0.45, 0.8, 2.2))

    checks.extend(_sweep_checks(rng, sweep_points, tolerance=1e-12))

    for n in range(4):
        checks.append(check_contour_gn(n, 1.0, 1.0))
    checks.append(check_contour_gn(0, 0.01, 1.0, tolerance=1e-5))
    checks.append(check_contour_gn(1, 0.7, 2.0))
    for xi, distance in ((1.0, 1.0), (50.0, 1.0), (1.0, 2.0)):
        checks.append(check_contour_j2(xi, distance))

    checks.extend(_cross_route_checks(rng))

    return VerificationReport(checks=tuple(checks), seed=seed)
