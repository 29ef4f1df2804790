"""Tests for the command line interface."""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pencilab
from pencilab import halfline, verify, weights
from pencilab.catalog import agmon_pencil, broken_pencil, e1_pencil
from pencilab.cli import build_parser, run
from pencilab.errors import EllipticityError
from pencilab.pencil import GridSpec, Pencil, Term, check_lemma21, tau_roots
from reference import SIGN_CHANGING, VERIFY_PENCIL_FILES, pencil_to_dict, reference_csv


@pytest.fixture
def e1_path(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(pencil_to_dict(e1_pencil())))
    return str(path)


@pytest.fixture
def broken_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(pencil_to_dict(broken_pencil())))
    return str(path)


def test_polygon_command(e1_path, capsys):
    assert run(["polygon", e1_path]) == 0
    out = capsys.readouterr().out
    assert "r = 1, d = 4" in out
    assert "(inf, 1), (1, 1)" in out


def test_polygon_command_json(e1_path, capsys):
    assert run(["polygon", e1_path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["weight"]["factors"] == [{"r": "inf", "m": "1"},
                                         {"r": "1", "m": "1"}]


def test_ellipticity_command(e1_path, capsys):
    assert run(["ellipticity", e1_path, "--grid-angular", "90"]) == 0
    assert "N-elliptic with parameter: True" in capsys.readouterr().out


def test_ellipticity_broken(broken_path, capsys):
    # From 1 or 2 directions in the plane the first zoom patch would reach
    # only 63 degrees from its node, short of the zero (0, 1) of xi_1^2 at
    # 90 degrees, so GridSpec scans at least 4.
    for angular in ("1", "2", "90"):
        assert run(["ellipticity", broken_path, "--grid-angular", angular]) == 1
        out = capsys.readouterr().out
        assert "condition (ii)" in out and "N-elliptic with parameter: False" in out


@pytest.mark.parametrize("pencil", [e1_pencil(), broken_pencil()], ids=["e1", "broken"])
def test_ellipticity_emits_every_witness(pencil, tmp_path, capsys):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(pencil_to_dict(pencil)))
    rep = check_lemma21(pencil, GridSpec(angular=24, directions=24, tol=1e-6))
    argv = ["ellipticity", str(path), "--grid-angular", "24"]
    run(argv + ["--format", "json"])
    data = json.loads(capsys.readouterr().out)
    xi, lam = rep.witness_iii
    assert data["witness_i"] == rep.witness_i.tolist()
    assert data["witness_ii"] == rep.witness_ii.tolist()
    assert data["witness_iii"] == {"xi": xi.tolist(), "lambda": lam}
    run(argv)
    lines = capsys.readouterr().out.splitlines()
    for name, point in (("i", rep.witness_i), ("ii", rep.witness_ii)):
        assert f"witness ({name}): xi = {np.array2string(point, precision=6)}" in lines
    assert (f"witness (iii): xi = {np.array2string(xi, precision=6)}, "
            f"lambda = {lam:.6g}") in lines


def test_degeneration_command(e1_path, capsys):
    assert run(["degeneration", e1_path]) == 0
    out = capsys.readouterr().out
    assert "regular degeneration: YES; k1 = 1" in out
    assert "0+1i" in out


def test_roots_and_solve_commands(e1_path, capsys):
    assert run(["roots", e1_path, "--xi-prime", "1.0", "--lam", "10"]) == 0
    out = capsys.readouterr().out
    assert "k1 = 1" in out
    assert run(["solve", e1_path, "--xi-prime", "1.0", "--lam", "10"]) == 0
    out = capsys.readouterr().out
    assert "w_1" in out and "w_2" in out and "norms" in out


def test_point_queries_at_a_scaled_down_point(e1_path, capsys):
    # At (1e-8, 1e-3) e1's roots are +-1e-8 i and about +-1e-3 i: 1e-5 of
    # the largest root from the real axis, which an absolute 1e-6 refused.
    argv = ["--xi-prime", "1e-8", "--lam", "1e-3", "--format", "json"]
    assert run(["roots", e1_path] + argv) == 0
    upper = json.loads(capsys.readouterr().out)["upper"]
    assert sorted(im for _, im in upper) == pytest.approx([1e-8, 1e-3], rel=1e-9)
    assert run(["solve", e1_path] + argv) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect D11: at |xi'| / lambda = 1e-6 the bounded roots lie 1e-6 "
    "of the largest root's modulus from the real axis, and tau_roots "
    "refuses them as real"))
@pytest.mark.parametrize("xi, lam", [("1e-4", "100"), ("1", "1e6")])
def test_point_queries_where_the_bounded_roots_are_small(e1_path, capsys, xi, lam):
    code = run(["roots", e1_path, "--xi-prime", xi, "--lam", lam])
    err = capsys.readouterr().err
    if code and "root on the real axis" not in err:
        pytest.fail(f"exit {code} for another reason than D11: {err}")
    assert code == 0, err


@pytest.mark.parametrize("name", SIGN_CHANGING)
def test_symbol_of_both_signs_is_not_elliptic(name, tmp_path, capsys):
    path = SIGN_CHANGING[name]
    for angular in ("90", "720", "721", "1440"):
        assert run(["ellipticity", str(path), "--grid-angular", angular,
                    "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert not data["cond_iii"] and data["min_ratio"] == data["C_est"] == 0.0
    assert run(["verify", str(path), "--suite", "prop52", "--out", str(tmp_path / "rep")]) == 1


def test_solve_norms_come_from_the_gramian(e1_path, capsys):
    assert run(["solve", e1_path, "--xi-prime", "1.0", "--lam", "10",
                "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    upper = tau_roots(e1_pencil(), np.array([1.0]), 10.0).upper
    table = halfline.gramian_norms([upper], np.eye(2), [0, 1, 2])[0]
    for j in (1, 2):
        assert [data[f"w{j}_norms"][str(l)] for l in range(3)] == table[j - 1].tolist()
    # ||w_2||^2 = 1 / (2ab(a + b)) for the upper roots ia, ib
    a, b = 1.0, math.sqrt(101.0)
    assert data["w2_norms"]["0"] == pytest.approx((2 * a * b * (a + b)) ** -0.5,
                                                  rel=1e-14)


def test_verify_summary_keys_stay_inside_each_suite(e1_path, tmp_path, capsys):
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == list(verify.SUITES)
    for suite in summary.values():
        assert suite["verdict"] == "pass"
        assert suite["provenance"] == {"pencilab": pencilab.__version__,
                                       "numpy": np.__version__,
                                       "python": platform.python_version()}
    for name in ("thm41", "halfspace"):
        assert 0.0 < summary[name]["extras"]["root_clearance_min"] <= 1.0
        text = (out / f"{name}.csv").read_text()
        assert "clearance" not in text and "provenance" not in text


def test_verify_thm41_sextic_at_large_lambda(tmp_path, capsys):
    # xi_1^6 + xi_2^6 + lambda^6: at lambda = 1e3 the leading tau-coefficient
    # is 1e-18 of the constant one, but of the same size once each
    # coefficient is weighted by its homogeneity scale.  thm41 scans the unit
    # slice, where lambda <= 1, so that weighting is checked at large lambda
    # by test_pencil.py::test_tau_roots_sextic_at_large_lambda; here the
    # sextic must pass thm41.
    path = tmp_path / "sextic.json"
    path.write_text(json.dumps(pencil_to_dict(Pencil(n=2, m=3, mu=0, terms=(
        Term((6, 0), 6, 1.0), Term((0, 6), 6, 1.0), Term((0, 0), 0, 1.0))))))
    assert run(["verify", str(path), "--suite", "thm41",
                "--out", str(tmp_path / "rep")]) == 0
    assert "thm41        pass" in capsys.readouterr().out


def test_bad_pencil_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "m": 2, "mu": 1, "terms": [
        {"alpha": [1, 0], "j": 4, "re": 1.0}]}))   # |alpha| != j
    assert run(["polygon", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


_E1 = pencil_to_dict(e1_pencil())


@pytest.mark.parametrize("data, message", [
    # n = 0 died with an IndexError in _sphere_min (ellipticity, exit 1).
    ({"n": 0, "m": 1, "mu": 0, "terms": [{"alpha": [], "j": 0, "re": 1.0}]},
     "need n >= 1, got n=0"),
    # int() read alpha [4.9, 0] with j = 2.5 as xi_1^4 with j = 2.
    ({"n": 2, "m": 2, "mu": 1, "terms": [{"alpha": [4.9, 0], "j": 2.5, "re": 1.0}]},
     "alpha entry must be an integer, got 4.9"),
    ({**_E1, "terms": [{"alpha": [2, 2], "j": 4.5, "re": 1.0}]},
     "j must be an integer, got 4.5"),
    ({**_E1, "m": 1.5}, "m must be an integer, got 1.5"),
    ({**_E1, "mu": True}, "mu must be an integer, got True"),
    ({**_E1, "n": "2"}, "n must be an integer, got '2'"),
    ([_E1], "bad pencil description"),
    ({**_E1, "terms": [{"alpha": [4], "j": 4, "re": 1.0}]},
     "multi-index (4,) has length != n=2"),
    ({**_E1, "terms": [{"alpha": [6, -2], "j": 4, "re": 1.0}]},
     "negative entry in multi-index (6, -2)"),
    # float() read true as 1.0 and "1.0" as 1.0, and ellipticity exited 0.
    ({**_E1, "terms": [{"alpha": [4, 0], "j": 4, "re": True}]},
     "re must be a number, got True"),
    ({**_E1, "terms": [{"alpha": [4, 0], "j": 4, "re": "1.0"}]},
     "re must be a number, got '1.0'"),
    ({**_E1, "terms": [{"alpha": [4, 0], "j": 4, "re": 1.0, "im": False}]},
     "im must be a number, got False"),
    # float() of an integer beyond float64 raised an OverflowError traceback.
    ({**_E1, "terms": [{"alpha": [4, 0], "j": 4, "re": 10 ** 400}]},
     "int too large to convert to float"),
])
@pytest.mark.parametrize("cmd", ["ellipticity", "degeneration", "verify"])
def test_malformed_pencil_exit_2(cmd, data, message, tmp_path, capsys):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "rep"
    assert run([cmd, str(path)] + (["--out", str(out)] if cmd == "verify" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert not out.exists()


_QUADRATIC = Pencil(n=2, m=1, mu=0, terms=(
    Term((2, 0), 2, 1.0), Term((0, 2), 2, 1.0), Term((0, 0), 0, 1.0)))
# xi_1^2 + xi_2^2 - lambda^2: Q(tau) = tau^2 - 1 has real roots.
_REAL_Q = Pencil(n=2, m=1, mu=0, terms=(
    Term((2, 0), 2, 1.0), Term((0, 2), 2, 1.0), Term((0, 0), 0, -1.0)))


@pytest.mark.parametrize("p, coeffs, message", [
    # A = inf xi_1^2 + xi_2^2 + lambda^2 read "condition (i) False (min inf)".
    (_QUADRATIC, {0: math.inf},
     "coefficient (inf+0j) of the term alpha=(2, 0) is not finite"),
    (e1_pencil(), {1: math.nan},
     "coefficient (nan+0j) of the term alpha=(2, 2) is not finite"),
    # e1's terms at 1e308: coeff_scale and so the tolerance were inf.
    (e1_pencil(), dict.fromkeys(range(5), 1e308),
     "of the term alpha=(2, 2) overflows the sum of |coeff|"),
])
@pytest.mark.parametrize("argv", [["ellipticity"], ["verify", "--suite", "polygon"]])
def test_non_finite_coefficients_exit_2(p, coeffs, message, argv, tmp_path, capsys):
    data = pencil_to_dict(p)
    for k, coeff in coeffs.items():
        data["terms"][k]["re"] = coeff
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(data))       # Infinity and NaN, which json reads
    out = tmp_path / "rep"
    assert run(argv[:1] + [str(path)] + argv[1:] + (
        ["--out", str(out)] if argv[0] == "verify" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, message", [
    # lambda^2 overflows in the symbol's lambda powers (prop52's ratio, in
    # logs, forms no |A|^2, so lambda up to 1e80 no longer overflows).
    (["--suite", "prop52", "--grid-decades", "160"],
     "suite prop52: float64 fails on lambda in [1, 1e+160] (overflow"),
    (["--suite", "polygon", "--lambda0", "1e100"],
     "suite polygon: float64 fails on lambda in [1e+100, 1e+103] (overflow"),
    # The trace integral underflowed to 0, which then divided.
    (["--suite", "trace", "--lambda0", "1e100"],
     "suite trace: float64 fails on lambda in [1e+100, 1e+103] (integral of "
     "about 1e-400 underflows float64 (a=[1.0, 1e+100], m=['1', '1'], l=0))"),
    (["--suite", "prop52", "--lambda0", "1e160"],
     "suite prop52: float64 fails on lambda in [1e+160, 1e+163] (overflow"),
    # 10.0 ** 400 raised OverflowError, a traceback.
    (["--suite", "all", "--grid-decades", "400"],
     "suite polygon: lambda in [1, inf] overflows float64"),
])
def test_overflowing_lambda_range_exit_2(argv, message, e1_path, tmp_path, capsys):
    # A RuntimeWarning would be an error here (pyproject filterwarnings).
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--out", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not out.exists()


def test_overflow_on_large_coefficients_names_their_size(tmp_path, capsys):
    # agmon times 1e302, A = 1e302 (|xi|^2 + lambda^2), passes ellipticity,
    # but A itself exceeds float64 at the corner |xi| = lambda = 1e3 of
    # prop52's default box: the message ends with the size of the
    # coefficients, which the range alone would not explain.
    data = pencil_to_dict(agmon_pencil())
    for t in data["terms"]:
        t["re"] *= 1e302
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "rep"
    assert run(["verify", str(path), "--suite", "prop52", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: suite prop52: float64 fails on lambda in [1, 1000] (overflow")
    assert captured.err.endswith("; |coefficients| sum to 3e+302\n")
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e100, 1e160, 1e200])
def test_prop52_takes_coefficients_of_any_size(scale, tmp_path, capsys):
    # ROADMAP D13: prop52's ratio squared |A|, so e1 times 1e160 and 1e200
    # exited 2 ("overflow encountered in square").  In logs it forms no
    # |A|^2: every suite passes on e1 times the scale, and prop52's C keeps
    # its log in log10_C.
    data = pencil_to_dict(e1_pencil())
    for t in data["terms"]:
        t["re"] *= scale
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "rep"
    assert run(["verify", str(path), "--suite", "all", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    extras = json.loads((out / "summary.json").read_text())["prop52"]["extras"]
    assert extras["C"] == pytest.approx(10.0 ** extras["log10_C"], rel=1e-12)


@pytest.mark.parametrize("argv", [["--grid-decades", "80"], ["--lambda0", "1e100"]])
def test_prop52_takes_lambda_ranges_whose_symbol_is_finite(argv, e1_path, tmp_path):
    # On these ranges |A| stays below 1e213 but |A|^2 overflowed.
    assert run(["verify", e1_path, "--suite", "prop52",
                "--out", str(tmp_path / "rep")] + argv) == 0


def test_unit_slice_suites_take_any_lambda_range(e1_path, tmp_path, capsys):
    # thm41, halfspace and asymptotics do not run lambda over the range.
    for argv in (["--suite", "thm41", "--grid-decades", "400"],
                 ["--suite", "asymptotics", "--lambda0", "1e300", "--grid-decades", "9"]):
        assert run(["verify", e1_path, "--out", str(tmp_path / "rep")] + argv) == 0


@pytest.mark.parametrize("cmd", ["roots", "solve"])
@pytest.mark.parametrize("point, message", [
    (["--xi-prime", "nan"], "need finite xi' and finite lambda >= 0"),
    (["--xi-prime", "inf"], "need finite xi' and finite lambda >= 0"),
    (["--xi-prime", "1", "--lam", "-5"], "need finite xi' and finite lambda >= 0"),
    (["--xi-prime", "1e200"], "overflows"),
    (["--lam", "1e200"], "overflows"),
])
def test_point_out_of_range_exit_2(cmd, point, message, e1_path, capsys):
    # A RuntimeWarning would be an error here (pyproject filterwarnings).
    assert run([cmd, e1_path] + point) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, option", [
    (["verify", "--suite", "thm41", "--lambda0", "-1"], "--lambda0"),
    (["verify", "--suite", "thm41", "--lambda0", "0"], "--lambda0"),
    (["verify", "--suite", "thm41", "--lambda0", "inf"], "--lambda0"),
    (["verify", "--suite", "thm41", "--lambda0", "nan"], "--lambda0"),
    (["verify", "--suite", "prop52", "--density", "0"], "--density"),
    (["verify", "--suite", "prop52", "--density", "-1"], "--density"),
    (["verify", "--suite", "thm41", "--grid-decades", "0"], "--grid-decades"),
    (["verify", "--suite", "thm41", "--grid-decades", "-2"], "--grid-decades"),
    (["ellipticity", "--grid-angular", "0"], "--grid-angular"),
    (["ellipticity", "--grid-angular", "1.5"], "--grid-angular"),
    (["verify", "--suite", "thm41", "--lambda0", "one"], "--lambda0"),
])
def test_invalid_grid_option_exit_2(argv, option, e1_path, tmp_path, capsys):
    argv = argv[:1] + [e1_path] + argv[1:] + (
        ["--out", str(tmp_path / "report")] if argv[0] == "verify" else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: need " in captured.err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("tol", ["1e-3", "0", "-1", "nan"])
def test_ellipticity_takes_no_tol(tol, e1_path, capsys):
    # ellipticity judges against GridSpec.tol, as prop52 and the benchmark
    # do, so --tol is refused whatever its value.
    assert run(["ellipticity", e1_path, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: --tol {tol}" in captured.err


def test_ellipticity_single_direction_grid(e1_path, capsys):
    # In the plane a grid of 1 direction is scanned with 4, so the zoom
    # patch is sized by the nearest of those.
    assert run(["ellipticity", e1_path, "--grid-angular", "1"]) == 0
    assert "N-elliptic with parameter: True" in capsys.readouterr().out


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["polygon", str(bad)]) == 2


def test_missing_file_exit_2(capsys):
    assert run(["polygon", "/nonexistent/x.json"]) == 2


def test_band_escape_exit_2(e1_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(weights, "LEMMA32_BAND_CONSTANT", 1.0)
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--suite", "trace", "--out", str(out)]) == 2
    assert "error: suite trace: integral" in capsys.readouterr().err


def _quarter_puiseux_fit(fit):
    """fit_loglog with the one-column (Puiseux) slope divided by 4."""
    return lambda x, y: fit(x, y) if np.ndim(y) == 2 else fit(x, y) / 4


def _doubled_exponents(from_polygon):
    """weights.from_polygon with every factor exponent doubled."""
    return lambda np_: weights.ProductWeight(
        tuple((r, 2 * m) for r, m in from_polygon(np_).factors))


@pytest.mark.parametrize("suite, module, name, patch, reason", [
    ("polygon", weights, "from_polygon", _doubled_exponents,
     "side r=1: degree formula mismatch"),
    ("polygon", weights, "xi_sum_eval", lambda f: lambda *a: 2.0 * f(*a),
     "side r=1: scaling limit off by 1.0"),
    # e1's sum/product band is [1.001, 3.57] and its binomial band [1.0, 3.2].
    ("polygon", verify, "POLYGON_BAND_LIMITS", lambda v: (1e-3, 3.3),
     "sum/product band [1.001001, 3.5718420258296533] outside limits"),
    ("polygon", verify, "POLYGON_BAND_LIMITS", lambda v: (1.0005, 1e3),
     "binomial band outside limits"),
    ("trace", verify, "TRACE_BAND_WIDTH_LIMIT", lambda v: 1.0,
     "l=0: band width"),
    ("thm41", verify, "NORM_RATIO_LIMIT", lambda v: 1.0, "max ratio 1.118"),
    ("halfspace", verify, "NORM_RATIO_LIMIT", lambda v: 1.0, "max ratio 1.118"),
    ("asymptotics", verify, "fit_loglog", _quarter_puiseux_fit,
     "Puiseux slope 0.499"),
])
def test_forced_verdict_failure_exit_1(suite, module, name, patch, reason, e1_path,
                                       tmp_path, monkeypatch, capsys):
    # Each verdict check fails once its limit or helper is moved, and the
    # reason reaches the report, the summary and the exit code.
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    rep = verify.run_suites([suite], e1_pencil())[suite]
    assert rep.verdict == "fail"
    assert any(r.startswith(reason) for r in rep.reasons), rep.reasons
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--suite", suite, "--out", str(out)]) == 1
    assert f"\n    {reason}" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())[suite]
    assert summary["verdict"] == "fail" and summary["reasons"] == rep.reasons


def test_degeneration_exit_codes(broken_path, tmp_path, capsys):
    # broken's Q(tau) = tau^2 vanishes at 0: exit 2.  tau^2 - 1 has real
    # roots: the verdict is indeterminate, exit 1.
    assert run(["degeneration", broken_path]) == 2
    assert capsys.readouterr().err.startswith("error: Q(0) = 0")
    path = tmp_path / "real.json"
    path.write_text(json.dumps(pencil_to_dict(_REAL_Q)))
    assert run(["degeneration", str(path)]) == 1
    assert "regular degeneration: INDETERMINATE; k1 = 0" in capsys.readouterr().out


def test_verify_all_writes_reports(e1_path, tmp_path, capsys):
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--suite", "all", "--out", str(out)]) == 0
    csvs = sorted(f.name for f in out.glob("*.csv"))
    assert csvs == ["asymptotics.csv", "halfspace.csv", "polygon.csv",
                    "prop52.csv", "thm41.csv", "trace.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert all(summary[s]["verdict"] == "pass" for s in summary)


def test_verify_single_suite_and_failure_exit(broken_path, tmp_path, capsys):
    out = tmp_path / "rep"
    code = run(["verify", broken_path, "--suite", "prop52", "--out", str(out)])
    assert code == 1


def test_verify_byte_identical(e1_path, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["verify", e1_path, "--suite", "all", "--out", str(out1)]) == 0
    assert run(["verify", e1_path, "--suite", "all", "--out", str(out2)]) == 0
    for f in out1.glob("*.csv"):
        assert f.read_bytes() == (out2 / f.name).read_bytes()


@pytest.mark.parametrize("path", VERIFY_PENCIL_FILES, ids=lambda path: path.stem)
@pytest.mark.parametrize("density", [1, 2])
def test_verify_csvs_equal_the_reference_writer(path, density, tmp_path, monkeypatch,
                                                capsys):
    # verify formats each distinct value of its six reports once; every CSV
    # it writes holds the bytes of the per-row '%.17g' writer, and so does
    # write_csv of each report alone.
    runs = []
    run_refined = verify.run_refined
    monkeypatch.setattr(verify, "run_refined",
                        lambda *args: runs.append(run_refined(*args)) or runs[-1])
    out = tmp_path / "rep"
    assert run(["verify", str(path), "--suite", "all", "--check-refinement",
                "--density", str(density), "--out", str(out)]) == 0
    (reports, _), = runs
    assert sorted(f.stem for f in out.glob("*.csv")) == sorted(reports)
    for name, rep in reports.items():
        assert (out / f"{name}.csv").read_bytes() == reference_csv(rep), name
        verify.write_csv(rep, tmp_path / "alone.csv")
        assert (tmp_path / "alone.csv").read_bytes() == reference_csv(rep), name


@pytest.mark.parametrize("options", [["--lambda0", "10"], ["--grid-decades", "4"]])
def test_norm_suites_ignore_the_lambda_grid(options, e1_path, tmp_path, capsys):
    # thm41 and halfspace scan the unit slice whatever the lambda grid, so
    # their CSVs do not change; on the old (|xi'|, lambda) box these options
    # reached |xi'| / lambda = 1e-6, where e1 exited 2.
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["verify", e1_path, "--out", str(out1)]) == 0
    assert run(["verify", e1_path, "--out", str(out2)] + options) == 0
    for name in ("thm41.csv", "halfspace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _one_variable(tmp_path, m, mu):
    """tau^2m + tau^2mu lambda^(2m-2mu) in n = 1, as a pencil file."""
    path = tmp_path / f"n1_m{m}_mu{mu}.json"
    path.write_text(json.dumps(pencil_to_dict(Pencil(n=1, m=m, mu=mu, terms=(
        Term((2 * m,), 2 * m, 1.0), Term((2 * mu,), 2 * mu, 1.0))))))
    return str(path)


def test_one_variable_pencil_verifies(tmp_path, capsys):
    # tau^2 + lambda^2: the norm scan's one node is xi' = (), lambda = 1,
    # where w_1 = e^{-t}, ||w_1|| = ||D w_1|| = 1/sqrt(2) and the right-hand
    # sides are 1.
    out = tmp_path / "rep"
    assert run(["verify", _one_variable(tmp_path, 1, 0), "--suite", "all",
                "--check-refinement", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert all(s["verdict"] == "pass" for s in summary.values())
    for name in ("thm41", "halfspace"):
        assert summary[name]["records"] == 2
        assert summary[name]["witness_max"]["xi_prime"] == []
        assert summary[name]["max_ratio"] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert summary["asymptotics"]["config"]["xi_prime_list"] == [[]]


def test_one_variable_pencil_with_mu_exits_2(tmp_path, capsys):
    # tau^4 + tau^2 lambda^2: xi' = () puts mu's bounded roots at tau = 0.
    assert run(["verify", _one_variable(tmp_path, 2, 1), "--suite", "thm41",
                "--out", str(tmp_path / "rep")]) == 2
    assert "error: suite thm41: root on the real axis at xi'=[]" in capsys.readouterr().err


def test_suite_error_names_the_suite(broken_path, tmp_path, capsys):
    # broken's A_2mu = xi_1^2 has no upper zero at xi' = 1: the asymptotics
    # suite raises, and the message says which suite did.
    out = tmp_path / "rep"
    assert run(["verify", broken_path, "--suite", "all", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: suite asymptotics: A_2mu has 0 upper zeros, expected mu=1")
    assert not out.exists()
    with pytest.raises(EllipticityError,
                       match=r"^suite asymptotics: A_2mu has 0 upper zeros"):
        verify.run_suites(["asymptotics"], broken_pencil())


@pytest.mark.parametrize("cmd", ["roots", "solve"])
def test_one_variable_point_queries_take_an_empty_xi_prime(cmd, tmp_path, capsys):
    path = _one_variable(tmp_path, 1, 0)
    assert run([cmd, path, "--xi-prime", "", "--lam", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    if cmd == "roots":
        assert data["upper"] == [pytest.approx([0.0, 3.0], abs=1e-15)]
    else:       # w_1 = e^{-3t}: ||w_1||^2 = 1/6
        assert data["w1_norms"]["0"] == pytest.approx(6 ** -0.5, rel=1e-15)
    assert run([cmd, path, "--xi-prime", "1", "--lam", "3"]) == 2
    assert "--xi-prime needs 0 comma-separated values" in capsys.readouterr().err


def test_check_refinement_runs_each_density_once(e1_path, tmp_path,
                                                monkeypatch, capsys):
    # The first pass runs at --density and the refinement at twice it; the
    # refinement computes polygon's box records alone, what the drift reads.
    passes, sweeps = [], []
    run_pass, sweep = verify._run_pass, verify.sweep_polygon_equivalence

    def counting(names, p, density, *args, **kw):
        passes.append((list(names), density, kw.get("refined", False)))
        return run_pass(names, p, density, *args, **kw)

    def counting_sweep(np_, density=1, **kw):
        sweeps.append(density)
        return sweep(np_, density=density, **kw)

    monkeypatch.setattr(verify, "_run_pass", counting)
    monkeypatch.setattr(verify, "sweep_polygon_equivalence", counting_sweep)
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--suite", "polygon", "--density", "2",
                "--check-refinement", "--out", str(out)]) == 0
    assert passes == [(["polygon"], 2, False), (["polygon"], 4, True)]
    assert sweeps == [2]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["polygon"]["extras"]["refinement_drift"] < 0.05


def test_check_refinement_computes_each_number_once(e1_path, tmp_path,
                                                   monkeypatch, capsys):
    # On e1 the refinement reuses the first pass's 44 unit-slice nodes and
    # solves the 40 it adds, 84 in all (not 44 + 84), and prop52's Lemma
    # 2.1 premise is checked once, in the first pass.
    nodes, premises = [], []
    mesh_norms, lemma21 = halfline.mesh_norms, verify.check_lemma21
    monkeypatch.setattr(halfline, "mesh_norms",
                        lambda p, xi, lam: nodes.append(len(lam)) or mesh_norms(p, xi, lam))
    monkeypatch.setattr(verify, "check_lemma21",
                        lambda p, grid: premises.append(grid) or lemma21(p, grid))
    assert run(["verify", e1_path, "--suite", "all", "--check-refinement",
                "--out", str(tmp_path / "rep")]) == 0
    assert nodes == [44, 40] and sum(nodes) == 84
    assert len(premises) == 1


def test_unstable_verdict_exit_1(e1_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "drift_between", lambda r1, r2: 0.5)
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--suite", "polygon", "--check-refinement",
                "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["polygon"]["verdict"] == "unstable"
    # Without the refinement check the same suite passes.
    assert run(["verify", e1_path, "--suite", "polygon", "--out", str(out)]) == 0


def test_asymptotics_ignores_the_lambda_grid(e1_path, tmp_path, capsys):
    # asymptotics runs over the unit-slice scan's s-values, whatever the
    # lambda range, and judges its slopes on every grid.
    csvs = []
    for k, options in enumerate([[], ["--grid-decades", "1"], ["--lambda0", "10"]]):
        out = tmp_path / f"r{k}"
        assert run(["verify", e1_path, "--suite", "asymptotics",
                    "--out", str(out)] + options) == 0
        csvs.append((out / "asymptotics.csv").read_bytes())
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]


def test_perturbed_split_norm_in_refined_run_is_unstable(e1_path, tmp_path,
                                                        monkeypatch, capsys):
    # Doubling the norm of w_1's large-group part at the refined grid's last
    # node, lambda = 1e3 (large root about 1000i), moves its slope by 0.13.
    # The refined grid, at density 2, has 13 nodes; the first pass's has 7.
    norms = halfline.split_norms

    def doubled(upper, group):
        out = norms(upper, group)
        if len(upper) == 13 and group.size and abs(upper[-1, group[-1]]).max() > 999.0:
            out[-1, 0, 0] *= 2.0
        return out

    monkeypatch.setattr(halfline, "split_norms", doubled)
    out = tmp_path / "rep"
    argv = ["verify", e1_path, "--suite", "asymptotics", "--out", str(out)]
    assert run(argv + ["--check-refinement"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["asymptotics"]["verdict"] == "unstable"
    assert 0.1 < summary["asymptotics"]["extras"]["refinement_drift"] < 0.2


def test_help_documents_defaults(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "polygon" in out and "verify" in out


class _Recorder:
    """Parsed-arguments proxy that records every attribute read."""

    def __init__(self, ns):
        self.__dict__["_ns"] = ns
        self.__dict__["read"] = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._ns, name)


@pytest.mark.parametrize("argv", [
    ["polygon"], ["ellipticity", "--grid-angular", "24"], ["degeneration"],
    ["roots"], ["solve"], ["verify", "--suite", "polygon", "--grid-decades", "1"]])
def test_handlers_read_every_option_offered(argv, e1_path, tmp_path, capsys):
    ap = build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    offered = {a.dest for a in sub.choices[argv[0]]._actions
               if not isinstance(a, argparse._HelpAction)}
    argv = argv[:1] + [e1_path] + argv[1:]
    if argv[0] == "verify":
        argv += ["--out", str(tmp_path / "report")]
    ns = ap.parse_args(argv)
    args = _Recorder(ns)
    ns.func(args)
    capsys.readouterr()
    assert args.read == offered


def test_option_not_taken_is_usage_error(e1_path, capsys):
    assert run(["verify", e1_path, "--tol", "1e-3"]) == 2
    assert run(["degeneration", e1_path, "--grid-angular", "90"]) == 2
    # The lambda ray is verify's: no weight or polygon depends on it.
    assert run(["polygon", e1_path, "--lambda0", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("unrecognized arguments") == 3
    assert "unrecognized arguments: --lambda0 1" in err


def test_cli_verify_loads_no_scipy(e1_path, tmp_path):
    code = ("import sys; from pencilab.cli import run; "
            f"rc = run(['verify', {e1_path!r}, '--suite', 'all', '--out', {str(tmp_path)!r}]); "
            "assert 'scipy' not in sys.modules, 'scipy imported'; sys.exit(rc)")
    src = str(Path(pencilab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
