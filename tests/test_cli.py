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
from pencilab.catalog import broken_pencil, e1_pencil
from pencilab.cli import build_parser, run
from pencilab.pencil import Pencil, Term, pencil_to_dict, tau_roots


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


def test_solve_norms_come_from_the_gramian(e1_path, capsys):
    assert run(["solve", e1_path, "--xi-prime", "1.0", "--lam", "10",
                "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    upper = tau_roots(e1_pencil(), np.array([1.0]), 10.0).upper
    table = halfline.gramian_norms([upper], [1, 2], [0, 1, 2])[0]
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


_QUADRATIC = Pencil(n=2, m=1, mu=0, terms=(
    Term((2, 0), 2, 1.0), Term((0, 2), 2, 1.0), Term((0, 0), 0, 1.0)))


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
    # |A|^2 overflowed in prop52's ratio and gave records with ratio 0.
    (["--suite", "prop52", "--grid-decades", "80"],
     "suite prop52: float64 fails on lambda in [1, 1e+80] (overflow"),
    (["--suite", "polygon", "--lambda0", "1e100"],
     "suite polygon: float64 fails on lambda in [1e+100, 1e+103] (overflow"),
    # The trace integrand underflows to 0, which then divides.
    (["--suite", "trace", "--lambda0", "1e100"],
     "suite trace: float64 fails on lambda in [1e+100, 1e+103] (invalid"),
    (["--suite", "prop52", "--lambda0", "1e100"],
     "suite prop52: float64 fails on lambda in [1e+100, 1e+103] (overflow"),
    # 10.0 ** 400 raised OverflowError, a traceback.
    (["--suite", "all", "--grid-decades", "400"],
     "suite polygon: lambda in [1, inf] overflows float64"),
    (["--suite", "asymptotics", "--lambda0", "1e300", "--grid-decades", "9"],
     "suite asymptotics: lambda in [1e+300, inf] overflows float64"),
])
def test_overflowing_lambda_range_exit_2(argv, message, e1_path, tmp_path, capsys):
    # A RuntimeWarning would be an error here (pyproject filterwarnings).
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--out", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not out.exists()


def test_unit_slice_suites_take_any_lambda_range(e1_path, tmp_path, capsys):
    # thm41 and halfspace do not run lambda over the range.
    assert run(["verify", e1_path, "--suite", "thm41", "--grid-decades", "400",
                "--out", str(tmp_path / "rep")]) == 0


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
    (["polygon", "--lambda0", "nan"], "--lambda0"),
    (["verify", "--suite", "prop52", "--density", "0"], "--density"),
    (["verify", "--suite", "prop52", "--density", "-1"], "--density"),
    (["verify", "--suite", "thm41", "--grid-decades", "0"], "--grid-decades"),
    (["verify", "--suite", "thm41", "--grid-decades", "-2"], "--grid-decades"),
    (["ellipticity", "--grid-angular", "0"], "--grid-angular"),
    (["ellipticity", "--grid-angular", "1.5"], "--grid-angular"),
])
def test_invalid_grid_option_exit_2(argv, option, e1_path, tmp_path, capsys):
    argv = argv[:1] + [e1_path] + argv[1:] + (
        ["--out", str(tmp_path / "report")] if argv[0] == "verify" else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: need " in captured.err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_ellipticity_tol_must_be_positive(tol, broken_path, capsys):
    # At tol 0 or below, broken's sampled min |A_2mu| of 3.7e-33 passed.
    assert run(["ellipticity", broken_path, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --tol: need a finite number > 0" in captured.err


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
    assert "error: integral" in capsys.readouterr().err


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
    assert "error: root on the real axis at xi'=[]" in capsys.readouterr().err


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
    densities = []
    run_suite = verify.run_suite

    def counting(name, p, density=1, **kw):
        densities.append((name, density))
        return run_suite(name, p, density=density, **kw)

    monkeypatch.setattr(verify, "run_suite", counting)
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--suite", "polygon", "--density", "2",
                "--check-refinement", "--out", str(out)]) == 0
    assert densities == [("polygon", 2), ("polygon", 4)]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["polygon"]["extras"]["refinement_drift"] < 0.05


def test_unstable_verdict_exit_1(e1_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "drift_between", lambda r1, r2: 0.5)
    out = tmp_path / "rep"
    assert run(["verify", e1_path, "--suite", "polygon", "--check-refinement",
                "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["polygon"]["verdict"] == "unstable"
    # Without the refinement check the same suite passes.
    assert run(["verify", e1_path, "--suite", "polygon", "--out", str(out)]) == 0


def test_short_asymptotics_grid_exits_1_indeterminate(e1_path, tmp_path, capsys):
    out = tmp_path / "rep"
    argv = ["verify", e1_path, "--suite", "asymptotics", "--out", str(out)]
    assert run(argv + ["--grid-decades", "1"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["asymptotics"]["verdict"] == "indeterminate"
    assert "lambda spans 1 decades" in capsys.readouterr().out
    assert run(argv + ["--grid-decades", "2"]) == 0


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
    assert "unrecognized arguments" in capsys.readouterr().err


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
