"""Asymptotic distance laws of the chiral dispersion components.

Far-field (retarded) and near-field (non-retarded) closed forms of the
vacuum potentials, power-law fitting utilities, and the reference table of
expected exponents and signs for the ten two-sided rows.

Closed forms exist for the components whose frequency integral localises
cleanly in the respective window:

* retarded (separation much larger than every transition wavelength):
  EC, MC, CC — all determined by static response data;
* non-retarded (separation much smaller than every transition wavelength):
  EC, PC, DC, CC — determined by transition-resolved data.

The reference exponents below come with one caveat, explained in the README
limitations section: for the rows driven purely by the static diamagnetic
response (ED and DD in the short-range column) this model family cannot
produce the commonly printed exponents.  A frequency-independent magnetic
response makes the DD integrand a function of xi*R only, which forces
R^-7 scaling at *all* distances, and the ED near zone inherits an R^-5 law
from the retardation cutoff instead of R^-4.  ``FRAMEWORK_NONRETARDED``
records what the model actually produces; ``REFERENCE_NONRETARDED`` keeps
the printed values so the discrepancy is visible rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from chivdw.green import Separation
from chivdw.kernels import LEVI_CIVITA
from chivdw.response import Molecule, static_limits

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "u_retarded",
    "u_nonretarded",
    "retarded_window",
    "nonretarded_window",
    "REFERENCE_RETARDED",
    "REFERENCE_NONRETARDED",
    "REFERENCE_SIGNS",
    "FRAMEWORK_NONRETARDED",
    "RETARDED_LABELS",
    "NONRETARDED_LABELS",
]


_PI = math.pi

RETARDED_LABELS = ("EC", "MC", "CC")
NONRETARDED_LABELS = ("EC", "PC", "DC", "CC")

# Reference power laws for the ten rows (exponent of R).
REFERENCE_RETARDED: Dict[str, int] = {
    "EE": -7, "EP": -7, "ED": -7, "EC": -8, "PP": -7,
    "PD": -7, "PC": -8, "DD": -7, "DC": -8, "CC": -9,
}
REFERENCE_NONRETARDED: Dict[str, int] = {
    "EE": -6, "EP": -4, "ED": -4, "EC": -5, "PP": -6,
    "PD": -6, "PC": -5, "DD": -6, "DC": -6, "CC": -6,
}
# '-' always attractive, '+' always repulsive, '~' sign set by handedness
REFERENCE_SIGNS: Dict[str, str] = {
    "EE": "-", "EP": "+", "ED": "-", "EC": "~", "PP": "-",
    "PD": "+", "PC": "~", "DD": "-", "DC": "~", "CC": "~",
}
# Short-range exponents this model family actually produces for the purely
# diamagnetic rows (see module docstring); all other rows match the
# reference column.
FRAMEWORK_NONRETARDED: Dict[str, int] = dict(REFERENCE_NONRETARDED,
                                             ED=-5, DD=-7)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares power law U = sign * exp(coefficient_log) * R^exponent.

    ``residual`` is the maximum absolute deviation of log|U| from the fitted
    line over the window; ``sign`` is the common sign of the data (+1/-1).
    """

    exponent: float
    coefficient_log: float
    residual: float
    window: Tuple[float, float]
    sign: int


def fit_power_law(r_values, u_values) -> PowerLawFit:
    """Fit log|U| = coefficient_log + exponent * log R.

    Requires at least five points and a uniform nonzero sign across the
    window (a power law cannot describe a sign change).
    """
    r = np.asarray(r_values, dtype=float).reshape(-1)
    u = np.asarray(u_values, dtype=float).reshape(-1)
    if r.shape != u.shape:
        raise ValueError("r_values and u_values must have the same length")
    if r.size < 5:
        raise ValueError("power-law fit needs at least five points")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(u))):
        raise ValueError("power-law fit needs finite data")
    if np.any(r <= 0.0):
        raise ValueError("separations must be positive")
    if np.any(u == 0.0) or (np.any(u > 0.0) and np.any(u < 0.0)):
        raise ValueError(
            "potential values must share one nonzero sign across the window")
    sign = 1 if u[0] > 0.0 else -1
    logr = np.log(r)
    logu = np.log(np.abs(u))
    slope, intercept = np.polyfit(logr, logu, 1)
    dev = logu - (intercept + slope * logr)
    return PowerLawFit(exponent=float(slope),
                       coefficient_log=float(intercept),
                       residual=float(np.max(np.abs(dev))),
                       window=(float(r.min()), float(r.max())),
                       sign=sign)


def _omega_extremes(mol_a: Molecule, mol_b: Molecule) -> Tuple[float, float]:
    omegas = np.concatenate([mol_a.omegas, mol_b.omegas])
    if omegas.size == 0:
        raise ValueError("asymptotic windows need at least one transition")
    return float(omegas.min()), float(omegas.max())


def retarded_window(mol_a: Molecule, mol_b: Molecule,
                    n_points: int = 9) -> np.ndarray:
    """Separations deep in the far field: R * omega_min in [50, 500]."""
    omega_min, _ = _omega_extremes(mol_a, mol_b)
    return np.geomspace(50.0 / omega_min, 500.0 / omega_min, n_points)


def nonretarded_window(mol_a: Molecule, mol_b: Molecule,
                       n_points: int = 9) -> np.ndarray:
    """Separations deep in the near field: R * omega_max in [1e-4, 1e-3]."""
    _, omega_max = _omega_extremes(mol_a, mol_b)
    return np.geomspace(1e-4 / omega_max, 1e-3 / omega_max, n_points)


# ---------------------------------------------------------------------------
# Closed far-field forms (static response data only).
# ---------------------------------------------------------------------------

def _ret_ec_mc(mol_a: Molecule, mol_b: Molecule, sep: Separation,
               magnetic: bool) -> float:
    R, rhat = sep.R, sep.r_hat
    alpha0_a, beta0_a, _ = static_limits(mol_a)
    _, _, chi_prime_b = static_limits(mol_b)
    tensor_a = beta0_a if magnetic else alpha0_a
    weight = 5.0 * np.eye(3) - 9.0 * np.outer(rhat, rhat)
    sig = "ipq,q,ij,pr,jr->" if magnetic else "ipq,q,ij,rp,jr->"
    contraction = np.einsum(sig, LEVI_CIVITA, rhat, tensor_a, chi_prime_b,
                            weight)
    return float(7.0 / (128.0 * _PI**3 * R**8) * contraction)


def _ret_cc(mol_a: Molecule, mol_b: Molecule, sep: Separation) -> float:
    R, rhat = sep.R, sep.r_hat
    _, _, chi_prime_a = static_limits(mol_a)
    _, _, chi_prime_b = static_limits(mol_b)
    eye = np.eye(3)
    proj = np.outer(rhat, rhat)
    angular = (101.0 * np.einsum("ip,jq->jqip", eye, eye)
               - 171.0 * np.einsum("jq,ip->jqip", eye, proj)
               - 171.0 * np.einsum("ip,jq->jqip", eye, proj)
               + 297.0 * np.einsum("jq,ip->jqip", proj, proj)
               + 81.0 * np.einsum("jrp,qsi,r,s->jqip", LEVI_CIVITA,
                                  LEVI_CIVITA, rhat, rhat))
    contraction = np.einsum("ij,pq,jqip->", chi_prime_a, chi_prime_b,
                            angular)
    return float(contraction / (128.0 * _PI**3 * R**9))


def u_retarded(mol_a: Molecule, mol_b: Molecule, sep: Separation,
               label) -> float:
    """Closed far-field value of a chiral component (EC, MC or CC)."""
    label = str(label).upper()
    if label not in RETARDED_LABELS:
        raise ValueError(
            f"closed far-field form exists for {RETARDED_LABELS}, got "
            f"{label!r}")
    if label == "CC":
        return _ret_cc(mol_a, mol_b, sep)
    return _ret_ec_mc(mol_a, mol_b, sep, magnetic=(label == "MC"))


# ---------------------------------------------------------------------------
# Closed near-field forms (transition-resolved data).
# ---------------------------------------------------------------------------

def _nr_ec_pc(mol_a: Molecule, mol_b: Molecule, sep: Separation,
              paramagnetic: bool) -> float:
    R, rhat = sep.R, sep.r_hat
    weight = np.eye(3) - 3.0 * np.outer(rhat, rhat)
    # per transition pair, eps_ipq rhat_q v_i v_j x_p y_r weight_jr with
    # v = d_a, (x, y) = (m_b, d_b), or v = m_a, (x, y) = (d_b, m_b), is the
    # triple product v . (x x rhat) times v^T weight y
    v = mol_a.magnetic_dipoles if paramagnetic else mol_a.dipoles
    x, y = ((mol_b.dipoles, mol_b.magnetic_dipoles) if paramagnetic
            else (mol_b.magnetic_dipoles, mol_b.dipoles))
    frac = mol_a.omegas[:, None] / np.add.outer(mol_a.omegas, mol_b.omegas)
    total = np.sum(frac * (v @ np.cross(x, rhat).T) * (v @ weight @ y.T))
    return float(total / (8.0 * _PI**2 * R**5))


def _nr_dc(mol_a: Molecule, mol_b: Molecule, sep: Separation) -> float:
    R, rhat = sep.R, sep.r_hat
    weight = 3.0 * np.eye(3) - 7.0 * np.outer(rhat, rhat)
    cross_b = mol_b.dipoles.T @ mol_b.magnetic_dipoles
    contraction = np.einsum("ipq,q,ij,pr,jr->", LEVI_CIVITA, rhat,
                            mol_a.beta_dia, cross_b, weight)
    return float(5.0 / (64.0 * _PI**3 * R**6) * contraction)


def _nr_cc(mol_a: Molecule, mol_b: Molecule, sep: Separation) -> float:
    R, rhat = sep.R, sep.r_hat
    weight = np.eye(3) - 3.0 * np.outer(rhat, rhat)
    # per transition pair, weight_ip weight_jq (d_a m_a^T)_ij (d_b m_b^T)_pq
    # = (d_a^T weight d_b)(m_a^T weight m_b)
    total = np.sum(
        (mol_a.dipoles @ weight @ mol_b.dipoles.T)
        * (mol_a.magnetic_dipoles @ weight @ mol_b.magnetic_dipoles.T)
        / np.add.outer(mol_a.omegas, mol_b.omegas))
    return float(total / (8.0 * _PI**2 * R**6))


def u_nonretarded(mol_a: Molecule, mol_b: Molecule, sep: Separation,
                  label) -> float:
    """Closed near-field value of a chiral component (EC, PC, DC or CC)."""
    label = str(label).upper()
    if label not in NONRETARDED_LABELS:
        raise ValueError(
            f"closed near-field form exists for {NONRETARDED_LABELS}, got "
            f"{label!r}")
    if label == "CC":
        return _nr_cc(mol_a, mol_b, sep)
    if label == "DC":
        return _nr_dc(mol_a, mol_b, sep)
    return _nr_ec_pc(mol_a, mol_b, sep, paramagnetic=(label == "PC"))
