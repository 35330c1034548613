"""Command-line interface.

Four subcommands::

    chivdw curve     --mol-a a.json --mol-b b.json --component EE \
                     --rmin 1 --rmax 20 --points 9 [--log] [...]
    chivdw powerlaw  --mol-a a.json --mol-b b.json --component CC \
                     --window retarded [...]
    chivdw table1    [--rows EE,EP,...] [--only retarded] [...]
    chivdw verify    [--seed 0] [--points 1000] [...]

``curve`` tabulates one potential component against separation and writes
CSV with the columns ``R,component,U,error,converged``; ``R`` and ``U``
are always reported in the library's internal natural units while
``--rmin``/``--rmax`` are interpreted in the units declared by the
molecule files (which must therefore agree).  ``powerlaw`` fits the
scaling exponent over an asymptotic window, ``table1`` summarises the
near- and far-zone exponents and signs of all ten tabulation rows for
the bundled example pair, and ``verify`` runs the identity-check suite.

Exit codes: 0 on success, 1 for input errors (bad flags, malformed
molecule files, mismatched units), 2 for numerical failures (unconverged
quadrature, a non-finite integrand, power-law fit impossible).  ``verify``
returns 2 when any identity check fails.  ``table1`` returns 2 when any
cell is ``unconverged`` or ``fit-failed``, and otherwise 1 when any cell
disagrees with both its reference entry and this framework's exponent
(``mismatch``).  A cell that matches this framework's near-zone exponent
in ``FRAMEWORK_NONRETARDED`` but not the reference (the diamagnetic ED and
DD rows) is ``framework`` and exits 0.

Warnings (an unconverged separation, a failed power-law fit) are records
of the ``chivdw`` logger; ``main`` also writes them to standard error as
plain text while it runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import logging
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import (
    FRAMEWORK_NONRETARDED,
    REFERENCE_NONRETARDED,
    REFERENCE_RETARDED,
    REFERENCE_SIGNS,
    fit_power_law,
    nonretarded_window,
    retarded_window,
)
from .molfiles import (
    MoleculeFileError,
    bundled_pair,
    length_to_internal,
    load_molecule,
)
from .green import Separation
from .potentials import _ROW_PLANS, ROW_NAMES, PotentialCurve, _direction, \
    _summed, compute_curve
from .quad import NonFiniteIntegrandError
from .response import Molecule
from .verify import run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2

_log = logging.getLogger("chivdw")

_REGIMES = ("retarded", "nonretarded")

# Near-zone rows where the frequency-independent diamagnetic response makes
# this framework's exponent differ from the reference tabulation; the
# table1 note explains the cell instead of hiding it.
_FRAMEWORK_NOTES = {
    "ED": "diamagnetic response is frequency-independent here; the near "
          "zone keeps the retardation cutoff and scales as R^-5",
    "DD": "diamagnetic response is frequency-independent here; the "
          "integrand depends on xi*R only and scales as R^-7 at all "
          "distances",
}


class CliError(Exception):
    """Invalid input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage errors as CliError (exit 1)."""

    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage()}".rstrip())


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _load_pair(args) -> Tuple[Molecule, Molecule, str]:
    mol_a, units_a = load_molecule(args.mol_a)
    mol_b, units_b = load_molecule(args.mol_b)
    if units_a != units_b:
        raise CliError(
            f"molecule files use different units ({args.mol_a}: {units_a!r},"
            f" {args.mol_b}: {units_b!r}); convert one of them first")
    return mol_a, mol_b, units_a


def _parse_orientation(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"--orientation needs three comma-separated numbers, "
                       f"got {text!r}")
    try:
        vec = np.array([float(p) for p in parts], dtype=float)
    except ValueError as exc:
        raise CliError(f"--orientation {text!r}: {exc}") from None
    try:
        _direction(vec)   # a check: compute_curve normalises the vector
    except ValueError:
        raise CliError("--orientation must be a finite non-zero vector") \
            from None
    return vec


def _internal_length(args, flag: str, units: str) -> float:
    """``--rmin`` or ``--rmax`` in internal units, finite before and after
    the conversion."""
    value = getattr(args, flag)
    internal = length_to_internal(value, units)
    if not math.isfinite(internal):
        raise CliError(f"--{flag} must be a finite length, also in internal "
                       f"units; got {value!r} ({units})")
    return internal


def _radius_grid(args, units: str) -> np.ndarray:
    if args.rmin is None or args.rmax is None:
        raise CliError("--rmin and --rmax are required")
    lo = _internal_length(args, "rmin", units)
    hi = _internal_length(args, "rmax", units)
    if not (0.0 < args.rmin <= args.rmax):
        raise CliError("need 0 < --rmin <= --rmax")
    if args.points < 1:
        raise CliError("--points must be at least 1")
    if args.points == 1:
        return np.array([lo])
    if args.log:
        return np.geomspace(lo, hi, args.points)
    return np.linspace(lo, hi, args.points)


def _emit(output: Optional[str], text: str) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


def _g17(value: float) -> str:
    return "%.17g" % float(value)


def _curve_csv(curve: PotentialCurve) -> str:
    lines = ["R,component,U,error,converged"]
    for r, u, err, conv in zip(curve.r_values, curve.u_values,
                               curve.error_estimates, curve.converged):
        lines.append(",".join([
            _g17(r), curve.component, _g17(u), _g17(err),
            "1" if conv else "0",
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    mol_a, mol_b, units = _load_pair(args)
    orientation = _parse_orientation(args.orientation)
    r_values = _radius_grid(args, units)
    curve = compute_curve(mol_a, mol_b, orientation, r_values,
                          args.component)
    _emit(args.output, _curve_csv(curve))
    if not bool(np.all(curve.converged)):
        _log.warning("warning: quadrature did not converge at every "
                     "separation")
        return EXIT_NUMERICAL
    return EXIT_OK


def _window_grid(window: str, mol_a: Molecule, mol_b: Molecule,
                 n_points: int) -> np.ndarray:
    if window == "retarded":
        return retarded_window(mol_a, mol_b, n_points)
    return nonretarded_window(mol_a, mol_b, n_points)


def cmd_powerlaw(args) -> int:
    mol_a, mol_b, units = _load_pair(args)
    orientation = _parse_orientation(args.orientation)
    if args.points < 5:
        raise CliError("a power-law fit needs --points of at least 5")
    if args.window is not None:
        given = [f"--{flag}" for flag in ("rmin", "rmax")
                 if getattr(args, flag) is not None]
        if given:
            raise CliError(f"--window cannot be combined with "
                           f"{' and '.join(given)}; give one or the other")
        window_name = args.window
        r_values = _window_grid(args.window, mol_a, mol_b, args.points)
    elif args.rmin is not None and args.rmax is not None:
        window_name = "custom"
        lo = _internal_length(args, "rmin", units)
        hi = _internal_length(args, "rmax", units)
        if not (0.0 < lo < hi):
            raise CliError("need 0 < --rmin < --rmax")
        r_values = np.geomspace(lo, hi, args.points)
    else:
        raise CliError("powerlaw needs --window or both --rmin and --rmax")
    curve = compute_curve(mol_a, mol_b, orientation, r_values,
                          args.component)
    code = EXIT_OK
    if not bool(np.all(curve.converged)):
        _log.warning("warning: quadrature did not converge at every "
                     "separation")
        code = EXIT_NUMERICAL
    try:
        fit = fit_power_law(curve.r_values, curve.u_values)
    except ValueError as exc:
        _log.warning("power-law fit failed: %s", exc)
        return EXIT_NUMERICAL
    lines = ["component,window,exponent,coefficient_log,residual,sign,points"]
    lines.append(",".join([
        curve.component, window_name, _g17(fit.exponent),
        _g17(fit.coefficient_log), _g17(fit.residual),
        "%+d" % fit.sign, str(len(curve)),
    ]))
    _emit(args.output, "\n".join(lines) + "\n")
    return code


def _table_cell(mol_a: Molecule, mol_b: Molecule, row: str, regime: str,
                n_points: int, direction: np.ndarray):
    # the two-sided row, not the named component some rows share a name
    # with; the window's separations are integrated together
    r_values = _window_grid(regime, mol_a, mol_b, n_points)
    origin = np.zeros(3)
    seps = [Separation(R * direction, origin) for R in r_values]
    results = _summed(mol_a, mol_b, seps, _ROW_PLANS[row])
    converged = all(res.converged for res in results)
    try:
        fit = fit_power_law(r_values, [res.value for res in results])
    except ValueError:
        fit = None
    return fit, converged


def cmd_table1(args) -> int:
    if args.mol_a or args.mol_b:
        if not (args.mol_a and args.mol_b):
            raise CliError("table1 needs either both --mol-a and --mol-b "
                           "or neither")
        mol_a, mol_b, _ = _load_pair(args)
    else:
        mol_a, mol_b = bundled_pair()

    rows = list(ROW_NAMES)
    if args.rows is not None:
        rows = [token.strip().upper() for token in args.rows.split(",")
                if token.strip()]
        for k, row in enumerate(rows):
            if row not in ROW_NAMES:
                raise CliError(f"unknown row {row!r}; expected a subset of "
                               f"{','.join(ROW_NAMES)}")
            if row in rows[:k]:
                raise CliError(f"--rows names row {row!r} more than once")
        if not rows:
            raise CliError("--rows selected nothing")
    regimes = list(_REGIMES) if args.only is None else [args.only]
    if args.points < 5:
        raise CliError("a power-law fit needs --points of at least 5")
    direction = _direction(_parse_orientation(args.orientation))

    lines = ["row,regime,fitted_exponent,reference_exponent,fitted_sign,"
             "reference_sign,status,note"]
    statuses = set()
    for row, regime in itertools.product(rows, regimes):
        fit, converged = _table_cell(mol_a, mol_b, row, regime, args.points,
                                     direction)
        reference = (REFERENCE_RETARDED if regime == "retarded"
                     else REFERENCE_NONRETARDED)[row]
        framework = (REFERENCE_RETARDED if regime == "retarded"
                     else FRAMEWORK_NONRETARDED)[row]
        ref_sign = REFERENCE_SIGNS[row]
        note = ""
        if regime == "nonretarded" and row in _FRAMEWORK_NOTES:
            note = (_FRAMEWORK_NOTES[row]
                    + f" (framework exponent {FRAMEWORK_NONRETARDED[row]})")
        if fit is None:
            fitted_exponent = ""
            fitted_sign = ""
            status = "fit-failed"
        else:
            fitted_exponent = "%.4f" % fit.exponent
            fitted_sign = "+" if fit.sign > 0 else "-"
            sign_ok = ref_sign == "~" or fitted_sign == ref_sign
            if not converged:
                status = "unconverged"
            elif sign_ok and abs(fit.exponent - reference) <= 0.1:
                status = "ok"
            elif sign_ok and abs(fit.exponent - framework) <= 0.1:
                status = "framework"
            else:
                status = "mismatch"
        statuses.add(status)
        lines.append(",".join([
            row, regime, fitted_exponent, str(reference),
            fitted_sign, ref_sign, status, note.replace(",", ";"),
        ]))
    _emit(args.output, "\n".join(lines) + "\n")
    if statuses & {"unconverged", "fit-failed"}:
        return EXIT_NUMERICAL
    return EXIT_INPUT if "mismatch" in statuses else EXIT_OK


def cmd_verify(args) -> int:
    if args.points < 1:
        raise CliError("--points must be at least 1")
    report = run_suite(seed=args.seed, sweep_points=args.points)
    _emit(args.output, report.render())
    return EXIT_NUMERICAL if report.failures else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_pair_options(sub, required: bool) -> None:
    sub.add_argument("--mol-a", required=required,
                     help="molecule file for the first partner")
    sub.add_argument("--mol-b", required=required,
                     help="molecule file for the second partner")


def _add_common_options(sub) -> None:
    sub.add_argument("--orientation", default="0,0,1",
                     help="direction from the second molecule to the first "
                          "as 'x,y,z' (default 0,0,1)")
    sub.add_argument("--output", default=None,
                     help="write to this file instead of stdout")


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's parser, built once per process; ``parse_args`` keeps no
    state between calls."""
    parser = _Parser(
        prog="chivdw",
        description="Dispersion potentials between anisotropic, chiral, "
                    "para- and diamagnetic molecules.",
    )
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    curve = commands.add_parser(
        "curve", help="tabulate one potential component against separation")
    _add_pair_options(curve, required=True)
    curve.add_argument("--component", required=True,
                       help="named component, tabulation row, or four-label "
                            "tuple (e.g. EE, EP, eeme, TOTAL)")
    curve.add_argument("--rmin", type=float, required=True,
                       help="smallest separation, in the molecule files' "
                            "units")
    curve.add_argument("--rmax", type=float, required=True,
                       help="largest separation, in the molecule files' "
                            "units")
    curve.add_argument("--points", type=int, default=9,
                       help="number of separations (default 9)")
    curve.add_argument("--log", action="store_true",
                       help="space the separations geometrically")
    _add_common_options(curve)
    curve.set_defaults(func=cmd_curve)

    powerlaw = commands.add_parser(
        "powerlaw", help="fit the scaling exponent over a distance window")
    _add_pair_options(powerlaw, required=True)
    powerlaw.add_argument("--component", required=True,
                          help="component to fit (as for curve)")
    powerlaw.add_argument("--window", choices=_REGIMES, default=None,
                          help="use the automatic far- or near-zone window")
    powerlaw.add_argument("--rmin", type=float, default=None,
                          help="custom window start (molecule-file units)")
    powerlaw.add_argument("--rmax", type=float, default=None,
                          help="custom window end (molecule-file units)")
    powerlaw.add_argument("--points", type=int, default=9,
                          help="number of separations in the fit "
                               "(default 9)")
    _add_common_options(powerlaw)
    powerlaw.set_defaults(func=cmd_powerlaw)

    table1 = commands.add_parser(
        "table1", help="near/far-zone exponent and sign summary for every "
                       "tabulation row")
    _add_pair_options(table1, required=False)
    table1.add_argument("--rows", default=None,
                        help="comma-separated subset of rows "
                             f"({','.join(ROW_NAMES)})")
    table1.add_argument("--only", choices=_REGIMES, default=None,
                        help="restrict to one regime")
    table1.add_argument("--points", type=int, default=7,
                        help="separations per fit (default 7)")
    _add_common_options(table1)
    table1.set_defaults(func=cmd_table1)

    verify = commands.add_parser(
        "verify", help="run the identity-check suite")
    verify.add_argument("--seed", type=int, default=0,
                        help="random seed for the sweep and cross checks "
                             "(default 0)")
    verify.add_argument("--points", type=int, default=1000,
                        help="random frequency points in the denominator "
                             "sweep (default 1000)")
    verify.add_argument("--output", default=None,
                        help="write the report to this file instead of "
                             "stdout")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    # the warnings reach the standard error of this call as plain text, and
    # any handler the caller configured as records
    handler = logging.StreamHandler(sys.stderr)
    _log.addHandler(handler)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NonFiniteIntegrandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CliError, MoleculeFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        _log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
