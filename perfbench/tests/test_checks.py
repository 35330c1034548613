"""Every check can fail: a value off by 1e-6 relative, a flipped sign and a
wrong exponent are each counted as a failed op."""

import pytest

import checks
import run

REF = -3.0194499427700994e-06
GRID = [1.0, 2.0, 4.0]
CELL_REF = {"R": [50.0, 100.0, 200.0],
            "U": [-1e-14, -7.8125e-17, -6.103515625e-19]}


def _total(value, converged=True):
    return {"value": value, "converged": converged}


def _csv(us, component="EC", converged="1"):
    lines = ["R,component,U,error,converged"]
    lines += [f"{r!r},{component},{u!r},1e-20,{converged}"
              for r, u in zip(GRID, us)]
    return "\n".join(lines) + "\n"


def _curve(us, exit_code=0, **kw):
    return {"exit_code": exit_code, "csv": _csv(us, **kw)}


CURVE_OP = {"kind": "label", "component": "EC"}
CURVE_REF = {"R": GRID, "U": [REF, 2.0 * REF, 4.0 * REF]}
CELL_OP = {"kind": "cell", "row": "EE", "regime": "retarded"}


def _cell(us=None, exponent=-7.0, sign=-1):
    us = CELL_REF["U"] if us is None else us
    return {"R": CELL_REF["R"], "U": us, "converged": [True] * 3,
            "exponent": exponent, "sign": sign}


def test_exact_outputs_pass():
    assert checks.check_total(_total(REF), REF) == []
    assert checks.check_curve(_curve(CURVE_REF["U"]), CURVE_OP,
                              CURVE_REF) == []
    assert checks.check_cell(_cell(), CELL_OP, CELL_REF) == []
    assert checks.check_probe(_total(REF), {"U": REF}) == []


@pytest.mark.parametrize("factor", [1.0 + 1e-6, -1.0])
def test_perturbed_or_flipped_values_fail(factor):
    assert checks.check_total(_total(REF * factor), REF)
    assert checks.check_probe(_total(REF * factor), {"U": REF})
    us = list(CURVE_REF["U"])
    us[1] *= factor
    assert checks.check_curve(_curve(us), CURVE_OP, CURVE_REF)
    cell = list(CELL_REF["U"])
    cell[2] *= factor
    assert checks.check_cell(_cell(cell), CELL_OP, CELL_REF)


def test_flipped_fit_sign_fails():
    flipped = [-u for u in CELL_REF["U"]]
    reasons = checks.check_cell(_cell(flipped, sign=+1), CELL_OP, CELL_REF)
    assert any(r.startswith("sign") for r in reasons)
    reasons = checks.check_cell(_cell(sign=+1), CELL_OP, CELL_REF)
    assert reasons == ["sign +1, expected -1"]


def test_handed_rows_take_the_references_sign():
    op = {"kind": "cell", "row": "CC", "regime": "retarded"}
    ref = {"R": CELL_REF["R"], "U": [-u for u in CELL_REF["U"]]}
    good = _cell(ref["U"], exponent=-9.0, sign=+1)
    assert checks.check_cell(good, op, ref) == []
    assert checks.check_cell({**good, "sign": -1}, op, ref)


@pytest.mark.parametrize("exponent", [-6.85, -7.5, -6.0])
def test_wrong_exponent_fails(exponent):
    reasons = checks.check_cell(_cell(exponent=exponent), CELL_OP, CELL_REF)
    assert reasons == [f"exponent {exponent:.4f}, expected -7"]


def test_near_zone_uses_the_framework_exponents():
    assert checks.expected_exponent("ED", "nonretarded") == -5
    assert checks.expected_exponent("DD", "nonretarded") == -7
    assert checks.expected_exponent("EP", "nonretarded") == -4
    assert checks.expected_exponent("CC", "retarded") == -9


def test_unconverged_errors_and_exit_codes_fail():
    assert checks.check_total(_total(REF, converged=False), REF)
    assert checks.check_total({"error": "ValueError: boom"}, REF)
    assert checks.check_curve(_curve(CURVE_REF["U"], exit_code=2), CURVE_OP,
                              CURVE_REF)
    assert checks.check_curve(_curve(CURVE_REF["U"], converged="0"),
                              CURVE_OP, CURVE_REF)
    assert checks.check_curve(_curve(CURVE_REF["U"], component="MC"),
                              CURVE_OP, CURVE_REF)
    assert checks.check_curve(_curve(CURVE_REF["U"][:2]), CURVE_OP,
                              CURVE_REF)


def test_judge_counts_failed_ops_and_spares_known_faults():
    probe_ok = {"kind": "probe", "R": 1e-5}
    probe_known = {"kind": "probe", "R": 1e-7}
    spec = {"workload": "limits", "ops": [probe_ok, probe_known]}
    refs = [{"U": REF}, {"U": REF}]
    good, bad = _total(REF), _total(REF * (1 + 1e-6))

    result = {"rounds": [[good, bad], [good, bad]]}
    assert run.judge(spec, result, refs) == (4, 2, True)

    result = {"rounds": [[bad, bad]]}
    assert run.judge(spec, result, refs) == (2, 2, False)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail_index(100) == 89
    assert run.tail_index(11) == 0
    assert run.tail_index(5) == 4


def test_times_are_scaled_by_the_rolling_median_speed():
    import speed

    ref = speed.REFERENCE_S
    assert speed.scaled([0.2, 0.4], [2 * ref, 2 * ref]) == [0.1, 0.2]
    # one outlying kernel time does not move the median of its window
    times = speed.scaled([0.3] * 5, [ref, ref, 9 * ref, ref, ref])
    assert times == [0.3] * 5
