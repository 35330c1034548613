"""Dispersion potentials between anisotropic, chiral, para- and
diamagnetic molecules.

The package computes the van der Waals interaction of two ground-state
molecules from their transition dipoles: electric, magnetic (through the
real vector whose imaginary multiple is the magnetic dipole), and a
static diamagnetic susceptibility.  The pair potential is assembled as
an imaginary-frequency integral of traces over response tensors and
electromagnetic propagation blocks supplied by a pluggable provider,
with the free-space blocks built in.  Named components isolate the
electric, paramagnetic, diamagnetic and chiral interference channels;
closed asymptotic forms, power-law fitting, unit-aware molecule files,
an identity-check suite and a command-line interface round the library
out.

Internal unit system: hbar = c = eps0 = mu0 = 1, with the atomic unit of
time fixing the absolute scale (see :mod:`chivdw.molfiles`).
"""

from .asymptotics import (
    FRAMEWORK_NONRETARDED,
    NONRETARDED_LABELS,
    REFERENCE_NONRETARDED,
    REFERENCE_RETARDED,
    REFERENCE_SIGNS,
    RETARDED_LABELS,
    PowerLawFit,
    fit_power_law,
    nonretarded_window,
    retarded_window,
    u_nonretarded,
    u_retarded,
)
from .green import (
    FreeSpaceProvider,
    Separation,
    free_space_provider,
    g0,
    g0_curl_left,
    g0_scaled,
)
from .molfiles import (
    CODATA2018,
    MoleculeFileError,
    bundled_pair,
    conversion_factors,
    dump_molecule,
    length_from_internal,
    length_to_internal,
    load_molecule,
)
from .potentials import (
    LABEL_TUPLES,
    ROW_NAMES,
    ROW_SPECS,
    ComponentLabel,
    PotentialCurve,
    compute_curve,
    resolve_component,
    u_cc_direct,
    u_cc_isotropic,
    u_dc_direct,
    u_ec_direct,
    u_mc_direct,
    u_named,
    u_pc_direct,
    u_row,
    u_terms,
    u_unified,
)
from .quad import (
    QuadResult,
    QuadSpec,
    integrate_halfline,
    integrate_interval,
    integrate_pv,
)
from .response import (
    Molecule,
    Transition,
    response_arrays,
    rotate_molecule_tensors,
    static_limits,
)
from .verify import (
    IdentityCheck,
    VerificationReport,
    check_contour_gn,
    check_contour_j2,
    check_denominators,
    check_exchange,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # response
    "Transition", "Molecule", "response_arrays", "rotate_molecule_tensors",
    "static_limits",
    # green
    "Separation", "FreeSpaceProvider", "free_space_provider",
    "g0", "g0_scaled", "g0_curl_left",
    # quad
    "QuadSpec", "QuadResult",
    "integrate_interval", "integrate_halfline", "integrate_pv",
    # potentials
    "ComponentLabel", "LABEL_TUPLES", "ROW_SPECS", "ROW_NAMES",
    "PotentialCurve", "u_terms", "u_unified", "u_named", "u_row",
    "u_ec_direct", "u_mc_direct", "u_pc_direct", "u_dc_direct",
    "u_cc_direct", "u_cc_isotropic",
    "resolve_component", "compute_curve",
    # asymptotics
    "PowerLawFit", "fit_power_law", "retarded_window",
    "nonretarded_window", "u_retarded", "u_nonretarded",
    "RETARDED_LABELS", "NONRETARDED_LABELS", "REFERENCE_RETARDED",
    "REFERENCE_NONRETARDED", "REFERENCE_SIGNS", "FRAMEWORK_NONRETARDED",
    # verify
    "IdentityCheck", "VerificationReport", "check_denominators",
    "check_exchange", "check_contour_gn", "check_contour_j2", "run_suite",
    # molfiles
    "MoleculeFileError", "CODATA2018", "conversion_factors",
    "load_molecule", "dump_molecule", "bundled_pair",
    "length_to_internal", "length_from_internal",
]
