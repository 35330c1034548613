"""End-to-end tests of the command-line interface.

Everything is driven through ``main(argv)`` so the tests exercise the
same code path as the installed console script, including exit codes and
the CSV contracts.
"""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from chivdw import cli
from chivdw.cli import main
from chivdw.molfiles import CODATA2018, bundled_pair, dump_molecule
from chivdw.response import Molecule, Transition


@pytest.fixture()
def pair_files(tmp_path):
    mol_a, mol_b = bundled_pair()
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    dump_molecule(mol_a, path_a)
    dump_molecule(mol_b, path_b)
    return str(path_a), str(path_b)


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_csv_contract(pair_files, capsys):
    a, b = pair_files
    code = main(["curve", "--mol-a", a, "--mol-b", b, "--component", "EE",
                 "--rmin", "2", "--rmax", "10", "--points", "5"])
    assert code == 0
    header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["R", "component", "U", "error", "converged"]
    assert len(rows) == 5
    r_values = [float(row[0]) for row in rows]
    u_values = [float(row[2]) for row in rows]
    assert r_values == pytest.approx(list(np.linspace(2.0, 10.0, 5)))
    for row in rows:
        assert row[1] == "EE"
        assert row[4] == "1"
        assert float(row[3]) >= 0.0
    # attractive and decaying in magnitude
    assert all(u < 0 for u in u_values)
    assert all(abs(u_values[i]) > abs(u_values[i + 1])
               for i in range(len(u_values) - 1))


def test_curve_log_spacing_and_output_file(pair_files, tmp_path, capsys):
    a, b = pair_files
    out = tmp_path / "curve.csv"
    code = main(["curve", "--mol-a", a, "--mol-b", b, "--component", "TOTAL",
                 "--rmin", "2", "--rmax", "8", "--points", "3", "--log",
                 "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    header, rows = _parse_csv(out.read_text())
    r_values = [float(row[0]) for row in rows]
    assert r_values == pytest.approx([2.0, 4.0, 8.0])


def test_curve_is_deterministic(pair_files, capsys):
    a, b = pair_files
    argv = ["curve", "--mol-a", a, "--mol-b", b, "--component", "EP",
            "--rmin", "2", "--rmax", "6", "--points", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_curve_non_finite_provider_exits_numerical(pair_files, capsys,
                                                   monkeypatch):
    from chivdw.green import FreeSpaceProvider

    def nan_bind(self, r_a, r_b):
        def nan_blocks(xis):
            nan = np.full((len(r_a), np.size(xis), 2, 2, 3, 3), np.nan)
            return nan, nan

        return nan_blocks

    monkeypatch.setattr(FreeSpaceProvider, "bind", nan_bind)
    a, b = pair_files
    code = main(["curve", "--mol-a", a, "--mol-b", b, "--component", "EE",
                 "--rmin", "2", "--rmax", "2", "--points", "1"])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_curve_beyond_the_squared_range_gives_zero(pair_files, capsys):
    a, b = pair_files
    code = main(["curve", "--mol-a", a, "--mol-b", b, "--component", "EE",
                 "--rmin", "1e151", "--rmax", "1e300", "--points", "6",
                 "--log"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert [(float(row[2]), row[4]) for row in rows] == [(0.0, "1")] * 6


def test_curve_beyond_the_layout_range_gives_zero(pair_files, capsys):
    # from R ~ 3.5e304 on the frequency layout's own span is not a float
    a, b = pair_files
    code = main(["curve", "--mol-a", a, "--mol-b", b, "--component", "EE",
                 "--rmin", "1e306", "--rmax", "1e308", "--points", "3",
                 "--log"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert [(float(row[2]), row[4]) for row in rows] == [(0.0, "1")] * 3


def test_curve_where_the_potential_overflows_exits_numerical(pair_files,
                                                             capsys):
    a, b = pair_files
    code = main(["curve", "--mol-a", a, "--mol-b", b, "--component", "TOTAL",
                 "--rmin", "1e-160", "--rmax", "1e-100", "--points", "4",
                 "--log"])
    assert code == 2
    err = capsys.readouterr().err
    assert "overflows float range at R = 1e-160" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("R", ["1e-306", "1e-307", "1e-308"])
def test_curve_where_the_layout_leaves_float_range_exits_numerical(
        pair_files, capsys, R):
    a, b = pair_files
    code = main(["curve", "--mol-a", a, "--mol-b", b, "--component", "EE",
                 "--rmin", R, "--rmax", R, "--points", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"overflows float range at R = {float(R)!r}" in err
    assert "Traceback" not in err


def _unconverged_curves(monkeypatch):
    """Make every curve of the CLI report its points unconverged."""
    from chivdw.potentials import PotentialCurve

    real = cli.compute_curve

    def unconverged(*args, **kwargs):
        curve = real(*args, **kwargs)
        return PotentialCurve(curve.component, curve.r_values,
                              curve.u_values, curve.error_estimates,
                              np.zeros(len(curve), dtype=bool))

    monkeypatch.setattr(cli, "compute_curve", unconverged)


_UNCONVERGED = "warning: quadrature did not converge at every separation"


def test_unconverged_curve_warns_through_the_chivdw_logger(
        pair_files, capsys, caplog, monkeypatch):
    _unconverged_curves(monkeypatch)
    a, b = pair_files
    with caplog.at_level(logging.WARNING, logger="chivdw"):
        code = main(["curve", "--mol-a", a, "--mol-b", b, "--component",
                     "EE", "--rmin", "2", "--rmax", "3", "--points", "2"])
    assert code == 2
    _, rows = _parse_csv(capsys.readouterr().out)
    assert [row[4] for row in rows] == ["0", "0"]
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] \
        == [("chivdw", "WARNING", _UNCONVERGED)]


def test_failed_power_law_fit_warns_through_the_chivdw_logger(
        pair_files, capsys, caplog, monkeypatch):
    def no_fit(r_values, u_values):
        raise ValueError("values change sign")

    monkeypatch.setattr(cli, "fit_power_law", no_fit)
    a, b = pair_files
    with caplog.at_level(logging.WARNING, logger="chivdw"):
        code = main(["powerlaw", "--mol-a", a, "--mol-b", b, "--component",
                     "EE", "--window", "retarded", "--points", "5"])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert [(r.name, r.getMessage()) for r in caplog.records] \
        == [("chivdw", "power-law fit failed: values change sign")]


def test_warning_text_on_stderr_without_logging_configured(pair_files):
    # a fresh interpreter with no logging configured prints the bare
    # message once, the text the CLI has always printed
    a, b = pair_files
    script = (
        "import sys, numpy as np\n"
        "from chivdw import cli\n"
        "from chivdw.potentials import PotentialCurve\n"
        "real = cli.compute_curve\n"
        "def unconverged(*args, **kwargs):\n"
        "    c = real(*args, **kwargs)\n"
        "    return PotentialCurve(c.component, c.r_values, c.u_values,\n"
        "                          c.error_estimates,\n"
        "                          np.zeros(len(c), dtype=bool))\n"
        "cli.compute_curve = unconverged\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run(
        [sys.executable, "-c", script, "curve", "--mol-a", a, "--mol-b", b,
         "--component", "EE", "--rmin", "2", "--rmax", "3", "--points", "2"],
        capture_output=True, text=True, env=env)
    assert fresh.returncode == 2
    assert fresh.stderr == _UNCONVERGED + "\n"
    assert fresh.stdout.startswith("R,component,U,error,converged\n")


def test_one_parser_serves_successive_calls(pair_files, capsys):
    # the parser is built once per process; a curve, a rejected call and a
    # table1 in one process give what fresh interpreters give
    a, b = pair_files
    calls = [
        ["curve", "--mol-a", a, "--mol-b", b, "--component", "EC",
         "--rmin", "2", "--rmax", "8", "--points", "3", "--log"],
        ["curve", "--mol-a", a, "--mol-b", b, "--component", "EC",
         "--rmin", "2", "--rmax", "8", "--points", "three"],
        ["table1", "--rows", "EE,CC", "--points", "5"],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in in_process] == [0, 1, 0]

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, (code, out, err) in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "chivdw", *argv],
                               capture_output=True, text=True, env=env)
        assert (fresh.returncode, fresh.stdout) == (code, out), argv
        if code:
            assert fresh.stderr == err


def test_curve_accepts_rows_and_tuples(pair_files, capsys):
    a, b = pair_files
    assert main(["curve", "--mol-a", a, "--mol-b", b, "--component", "eeme",
                 "--rmin", "2", "--rmax", "4", "--points", "2"]) == 0
    header, rows = _parse_csv(capsys.readouterr().out)
    assert rows[0][1] == "eeme"


def test_curve_orientation_changes_values(pair_files, capsys):
    # Each bundled molecule has one transition, so its polarisability is
    # rank one (alpha ~ d d^T) and the free-space EE trace sees the
    # direction r_hat only through d_A.d_B and (d_A.r_hat)(d_B.r_hat).
    # x_hat is no witness: that product is 0.6*0.2 = 0.3*0.4, the same as
    # for z_hat, so U_EE(x_hat) = U_EE(z_hat) exactly.  y_hat differs.
    mol_a, mol_b = bundled_pair()
    assert len(mol_a.transitions) == len(mol_b.transitions) == 1, \
        "precondition: the bundled molecules have one transition each"
    d_a, d_b = mol_a.transitions[0].d, mol_b.transitions[0].d
    x_hat, y_hat, z_hat = np.eye(3)
    proj_x, proj_y, proj_z = (float(np.dot(d_a, n) * np.dot(d_b, n))
                              for n in (x_hat, y_hat, z_hat))
    assert proj_x == pytest.approx(proj_z, rel=1e-12), \
        "precondition: x_hat and z_hat are degenerate for the bundled pair"
    assert abs(proj_y - proj_z) > 0.1 * abs(proj_z), \
        "precondition: y_hat is distinguishable from z_hat"

    a, b = pair_files
    argv = ["curve", "--mol-a", a, "--mol-b", b, "--component", "EE",
            "--rmin", "3", "--rmax", "3", "--points", "1"]

    def u_and_error(orientation):
        assert main(argv + ["--orientation", orientation]) == 0
        row = _parse_csv(capsys.readouterr().out)[1][0]
        assert row[4] == "1"
        return float(row[2]), float(row[3])

    u_z, err_z = u_and_error("0,0,1")
    u_y, err_y = u_and_error("0,1,0")
    u_x, err_x = u_and_error("1,0,0")
    # anisotropic molecules feel the direction
    assert abs(u_z - u_y) > 100.0 * (err_z + err_y)
    assert abs(u_z - u_y) > 0.1 * abs(u_z)
    # ... and the symmetry of the rank-one trace holds
    assert abs(u_z - u_x) <= err_z + err_x + 1e-12 * abs(u_z)


def test_curve_zero_response_pair(tmp_path, capsys):
    zero = Molecule("null", (Transition(1.0, (0, 0, 0), (0, 0, 0)),))
    path = tmp_path / "zero.json"
    dump_molecule(zero, path)
    code = main(["curve", "--mol-a", str(path), "--mol-b", str(path),
                 "--component", "TOTAL", "--rmin", "1", "--rmax", "2",
                 "--points", "3"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert all(float(row[2]) == 0.0 for row in rows)
    assert all(row[4] == "1" for row in rows)


def test_curve_beyond_the_cube_overflow_exits_ok(pair_files, capsys):
    a, b = pair_files
    code = main(["curve", "--mol-a", a, "--mol-b", b, "--component", "EE",
                 "--rmin", "1e103", "--rmax", "1e104", "--points", "2"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert [(float(row[2]), row[4]) for row in rows] == [(0.0, "1")] * 2


def test_curve_rmin_rmax_interpreted_in_file_units(tmp_path, capsys):
    mol_a, mol_b = bundled_pair()
    path_a = tmp_path / "a_au.json"
    path_b = tmp_path / "b_au.json"
    dump_molecule(mol_a, path_a, units="au")
    dump_molecule(mol_b, path_b, units="au")
    code = main(["curve", "--mol-a", str(path_a), "--mol-b", str(path_b),
                 "--component", "EE", "--rmin", "100", "--rmax", "200",
                 "--points", "2"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    # the CSV reports internal units: R = alpha * R_au
    alpha = CODATA2018.alpha_fs
    assert float(rows[0][0]) == pytest.approx(100.0 * alpha, rel=1e-12)
    assert float(rows[1][0]) == pytest.approx(200.0 * alpha, rel=1e-12)


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------

def test_units_mismatch_is_input_error(tmp_path, capsys):
    mol_a, mol_b = bundled_pair()
    path_a = tmp_path / "a_nat.json"
    path_b = tmp_path / "b_si.json"
    dump_molecule(mol_a, path_a, units="natural")
    dump_molecule(mol_b, path_b, units="SI")
    code = main(["curve", "--mol-a", str(path_a), "--mol-b", str(path_b),
                 "--component", "EE", "--rmin", "1", "--rmax", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "units" in err


def test_schema_violation_is_input_error(tmp_path, pair_files, capsys):
    a, _ = pair_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "units": "natural",
                               "transitions": [{"omega": -1.0,
                                                "d": [1, 0, 0],
                                                "m_imag": [0, 0, 0]}]}))
    code = main(["curve", "--mol-a", a, "--mol-b", str(bad),
                 "--component", "EE", "--rmin", "1", "--rmax", "2"])
    assert code == 1
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv_extra,fragment", [
    (["--component", "XX", "--rmin", "1", "--rmax", "2"],
     "unknown component"),
    (["--component", "EE", "--rmin", "5", "--rmax", "2"], "rmin"),
    (["--component", "EE", "--rmin", "1", "--rmax", "2",
      "--orientation", "1,2"], "orientation"),
    (["--component", "EE", "--rmin", "1", "--rmax", "2",
      "--orientation", "0,0,0"], "orientation"),
    (["--component", "EE", "--rmin", "1", "--rmax", "2",
      "--points", "0"], "points"),
])
def test_curve_input_errors(pair_files, capsys, argv_extra, fragment):
    a, b = pair_files
    code = main(["curve", "--mol-a", a, "--mol-b", b] + argv_extra)
    assert code == 1
    assert fragment.lower() in capsys.readouterr().err.lower()


@pytest.mark.parametrize("command,extra", [
    ("curve", ["--points", "3"]),
    ("curve", ["--points", "1"]),
    ("curve", ["--points", "3", "--log"]),
    ("powerlaw", ["--points", "5"]),
])
@pytest.mark.parametrize("rmin,rmax,flag", [
    ("1", "inf", "--rmax"), ("1", "nan", "--rmax"), ("-inf", "2", "--rmin"),
    ("nan", "2", "--rmin"),
])
def test_non_finite_separation_is_input_error(pair_files, capsys, command,
                                              extra, rmin, rmax, flag):
    a, b = pair_files
    code = main([command, "--mol-a", a, "--mol-b", b, "--component", "EE",
                 f"--rmin={rmin}", f"--rmax={rmax}"] + extra)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be a finite length")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["curve", "powerlaw"])
def test_separation_beyond_float_range_after_conversion(tmp_path, capsys,
                                                        command):
    # 1e302 m is finite in the file's units and overflows in internal ones
    mol_a, mol_b = bundled_pair()
    paths = [str(tmp_path / "a_si.json"), str(tmp_path / "b_si.json")]
    dump_molecule(mol_a, paths[0], units="SI")
    dump_molecule(mol_b, paths[1], units="SI")
    code = main([command, "--mol-a", paths[0], "--mol-b", paths[1],
                 "--component", "EE", "--rmin", "1e-10", "--rmax", "1e302",
                 "--points", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --rmax must be a finite length")
    assert "1e+302 (SI)" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("scaled", ["1e-200,0,0", "1e200,0,0"])
def test_orientation_of_any_magnitude(pair_files, capsys, scaled):
    # the squared length under- or overflows a float; the direction does not
    a, b = pair_files
    outputs = []
    for orientation in (scaled, "1,0,0"):
        for argv in (["curve", "--mol-a", a, "--mol-b", b, "--component",
                      "EE", "--rmin", "2", "--rmax", "3", "--points", "2"],
                     ["table1", "--rows", "EE", "--only", "retarded"]):
            assert main(argv + ["--orientation", orientation]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
    assert outputs[:2] == outputs[2:]


@pytest.mark.parametrize("command", ["powerlaw", "table1"])
def test_zero_orientation_is_input_error(pair_files, capsys, command):
    # curve's case is in test_curve_input_errors
    a, b = pair_files
    argv = {"table1": ["table1"],
            "powerlaw": ["powerlaw", "--mol-a", a, "--mol-b", b,
                         "--component", "EE", "--window", "retarded"]}[command]
    assert main(argv + ["--orientation", "0,0,0"]) == 1
    assert capsys.readouterr().err == (
        "error: --orientation must be a finite non-zero vector\n")


def test_missing_subcommand_and_bad_flag_are_input_errors(capsys):
    assert main([]) == 1
    assert main(["curve", "--bogus-flag"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# powerlaw
# ---------------------------------------------------------------------------

def test_powerlaw_far_zone_chiral_exponent(pair_files, capsys):
    a, b = pair_files
    code = main(["powerlaw", "--mol-a", a, "--mol-b", b,
                 "--component", "CC", "--window", "retarded",
                 "--points", "7"])
    assert code == 0
    header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["component", "window", "exponent", "coefficient_log",
                      "residual", "sign", "points"]
    (component, window, exponent, _, residual, sign, points), = rows
    assert component == "CC"
    assert window == "retarded"
    assert float(exponent) == pytest.approx(-9.0, abs=0.05)
    assert float(residual) < 0.05
    assert points == "7"


def test_powerlaw_near_zone_electric_exponent(pair_files, capsys):
    a, b = pair_files
    code = main(["powerlaw", "--mol-a", a, "--mol-b", b,
                 "--component", "EE", "--window", "nonretarded",
                 "--points", "5"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert float(rows[0][2]) == pytest.approx(-6.0, abs=0.05)
    assert rows[0][5] == "-1"


def test_powerlaw_custom_window(pair_files, capsys):
    a, b = pair_files
    code = main(["powerlaw", "--mol-a", a, "--mol-b", b,
                 "--component", "EE", "--rmin", "100", "--rmax", "300",
                 "--points", "6"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert rows[0][1] == "custom"
    assert float(rows[0][2]) == pytest.approx(-7.0, abs=0.05)


def test_powerlaw_requires_window_or_range(pair_files, capsys):
    a, b = pair_files
    code = main(["powerlaw", "--mol-a", a, "--mol-b", b,
                 "--component", "EE"])
    assert code == 1
    assert "--window" in capsys.readouterr().err


@pytest.mark.parametrize("extra,flags", [
    (["--rmin", "1", "--rmax", "2"], "--rmin and --rmax"),
    (["--rmin", "1"], "--rmin"),
    (["--rmax", "2"], "--rmax"),
])
def test_powerlaw_window_with_a_range_is_input_error(pair_files, capsys,
                                                     extra, flags):
    a, b = pair_files
    code = main(["powerlaw", "--mol-a", a, "--mol-b", b, "--component", "EE",
                 "--window", "retarded"] + extra)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--window cannot be combined with {flags};" in captured.err


def test_powerlaw_fit_failure_is_numerical_warning(tmp_path, capsys):
    zero = Molecule("null", (Transition(1.0, (0, 0, 0), (0, 0, 0)),))
    path = tmp_path / "zero.json"
    dump_molecule(zero, path)
    code = main(["powerlaw", "--mol-a", str(path), "--mol-b", str(path),
                 "--component", "EE", "--window", "retarded"])
    assert code == 2
    assert "fit failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_full_summary(capsys):
    code = main(["table1"])
    out = capsys.readouterr().out
    header, rows = _parse_csv(out)
    assert header == ["row", "regime", "fitted_exponent",
                      "reference_exponent", "fitted_sign", "reference_sign",
                      "status", "note"]
    assert len(rows) == 20
    status = {(r[0], r[1]): r[6] for r in rows}
    # the two documented near-zone diamagnetic cells disagree with the
    # reference tabulation and match the framework's exponents; everything
    # else must match the reference
    others = {key: value for key, value in status.items() if value != "ok"}
    assert others == {("ED", "nonretarded"): "framework",
                      ("DD", "nonretarded"): "framework"}
    assert code == 0
    notes = {(r[0], r[1]): r[7] for r in rows}
    assert "R^-5" in notes[("ED", "nonretarded")]
    assert "R^-7" in notes[("DD", "nonretarded")]
    # fitted exponents for the mismatching cells match the framework values
    fitted = {(r[0], r[1]): float(r[2]) for r in rows}
    assert fitted[("ED", "nonretarded")] == pytest.approx(-5.0, abs=0.05)
    assert fitted[("DD", "nonretarded")] == pytest.approx(-7.0, abs=0.05)


def test_table1_only_retarded_passes(capsys):
    code = main(["table1", "--only", "retarded"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 10
    assert all(row[6] == "ok" for row in rows)
    expected = {"EE": -7, "EP": -7, "ED": -7, "EC": -8, "PP": -7, "PD": -7,
                "PC": -8, "DD": -7, "DC": -8, "CC": -9}
    for row in rows:
        assert float(row[2]) == pytest.approx(expected[row[0]], abs=0.05)


def test_table1_rows_subset(capsys):
    code = main(["table1", "--rows", "EE,CC", "--only", "nonretarded"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert [row[0] for row in rows] == ["EE", "CC"]
    assert all(row[6] == "ok" for row in rows)


def test_table1_fits_the_two_sided_pc_row(capsys):
    # named PC holds two of the row's four tuples and has the other sign:
    # at R = 2 along z the row is +4.227e-7 and named PC is -1.006e-7
    from chivdw.green import Separation
    from chivdw.potentials import u_named, u_row

    mol_a, mol_b = bundled_pair()
    sep = Separation(np.array([0.0, 0.0, 2.0]), np.zeros(3))
    assert u_row(mol_a, mol_b, sep, "PC").value == pytest.approx(
        4.227e-7, rel=1e-3)
    assert u_named(mol_a, mol_b, sep, "PC").value < 0.0
    code = main(["table1", "--rows", "PC"])
    assert code == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert [(row[0], row[1]) for row in rows] == [("PC", "retarded"),
                                                  ("PC", "nonretarded")]
    assert all(row[4] == "+" for row in rows)


def test_table1_unknown_row_is_input_error(capsys):
    assert main(["table1", "--rows", "EE,XX"]) == 1
    assert "unknown row" in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["EE,EE", "EE,CC,ee"])
def test_table1_repeated_row_is_input_error(capsys, monkeypatch, rows):
    def no_cell(*args):
        raise AssertionError("a cell was integrated")

    monkeypatch.setattr(cli, "_table_cell", no_cell)
    assert main(["table1", "--rows", rows, "--only", "retarded"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--rows names row 'EE' more than once" in captured.err


def test_table1_custom_pair_requires_both_files(pair_files, capsys):
    a, _ = pair_files
    assert main(["table1", "--mol-a", a]) == 1
    assert "both" in capsys.readouterr().err


def test_table1_zero_pair_reports_fit_failures(tmp_path, capsys):
    zero = Molecule("null", (Transition(1.0, (0, 0, 0), (0, 0, 0)),))
    path = tmp_path / "zero.json"
    dump_molecule(zero, path)
    code = main(["table1", "--mol-a", str(path), "--mol-b", str(path),
                 "--rows", "EE", "--only", "retarded"])
    assert code == 2
    _, rows = _parse_csv(capsys.readouterr().out)
    assert rows[0][6] == "fit-failed"


def test_table1_unconverged_cell_exits_numerical(capsys, monkeypatch):
    import chivdw.cli as cli_module
    from chivdw.quad import QuadResult

    def unconverged_rows(mol_a, mol_b, seps, terms):
        return [QuadResult(-sep.R ** -7, 0.0, 15, False) for sep in seps]

    monkeypatch.setattr(cli_module, "_summed", unconverged_rows)
    code = main(["table1", "--rows", "EE", "--only", "retarded"])
    assert code == 2
    _, rows = _parse_csv(capsys.readouterr().out)
    assert rows[0][6] == "unconverged"


def test_table1_cell_matching_neither_table_exits_input(capsys,
                                                        monkeypatch):
    import chivdw.cli as cli_module
    from chivdw.quad import QuadResult

    # EE falls off as R^-6 in the near zone in both tables; R^-3 is neither
    def near_cubic_rows(mol_a, mol_b, seps, terms):
        return [QuadResult(-sep.R ** -3, 0.0, 15, True) for sep in seps]

    monkeypatch.setattr(cli_module, "_summed", near_cubic_rows)
    code = main(["table1", "--rows", "EE", "--only", "nonretarded"])
    assert code == 1
    _, rows = _parse_csv(capsys.readouterr().out)
    assert rows[0][6] == "mismatch"


def test_table1_places_the_pair_along_orientation(capsys, monkeypatch):
    import chivdw.cli as cli_module
    from chivdw.quad import QuadResult

    directions = []

    def recording_rows(mol_a, mol_b, seps, terms):
        directions.extend(np.array(sep.r_hat) for sep in seps)
        return [QuadResult(-sep.R ** -7, 0.0, 15, True) for sep in seps]

    monkeypatch.setattr(cli_module, "_summed", recording_rows)
    code = main(["table1", "--rows", "EE", "--only", "retarded",
                 "--points", "5", "--orientation", "1,0,0"])
    assert code == 0
    capsys.readouterr()
    assert len(directions) == 5
    for r_hat in directions:
        np.testing.assert_array_equal(r_hat, [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_and_is_byte_identical(capsys, tmp_path):
    argv = ["verify", "--seed", "3", "--points", "60"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("identity suite:")
    out = tmp_path / "report.txt"
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_text() == first


def test_verify_exit_code_counts_failures(capsys, monkeypatch):
    import chivdw.cli as cli_module
    from chivdw.verify import IdentityCheck, VerificationReport

    def fake_suite(seed=0, sweep_points=1000):
        bad = IdentityCheck("x", 1.0, 2.0, 0.5, False, 1e-12)
        good = IdentityCheck("y", 1.0, 1.0, 0.0, True, 1e-12)
        return VerificationReport(checks=(bad, good, bad), seed=seed)

    monkeypatch.setattr(cli_module, "run_suite", fake_suite)
    assert main(["verify"]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("n_failed", [1, 256])
def test_verify_any_failed_check_exits_numerical(capsys, monkeypatch,
                                                 n_failed):
    # one failure used to exit 1 (the bad-input code) and 256 wrapped to 0
    import chivdw.cli as cli_module
    from chivdw.verify import IdentityCheck, VerificationReport

    def fake_suite(seed=0, sweep_points=1000):
        bad = IdentityCheck("x", 1.0, 2.0, 0.5, False, 1e-12)
        return VerificationReport(checks=(bad,) * n_failed, seed=seed)

    monkeypatch.setattr(cli_module, "run_suite", fake_suite)
    assert main(["verify"]) == 2
    assert "FAIL" in capsys.readouterr().out
