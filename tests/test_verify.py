"""Tests for the certification sweeps and report plumbing."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pencilab import pencil, verify, weights
from pencilab.catalog import agmon_pencil, broken_pencil, e1_pencil
from pencilab.errors import EllipticityError, PencilabError
from pencilab.pencil import (Pencil, Term, check_lemma21, group_roots, load_pencil,
                             mesh_group_roots, mesh_roots, poly_roots,
                             sphere_directions, tau_polynomial, tau_roots)
from pencilab.polygon import build_polygon
from pencilab import halfline
from reference import BENCHMARK_PENCILS, PENCILS


def test_summary_band_and_first_witnesses():
    # Non-finite ratios are skipped; on a tie the first row is the witness,
    # a dict of the row's Python values in column order.
    rep = verify.SweepReport("x", {})
    assert rep.summary()["witness_min"] is None and np.isnan(rep.min_ratio)
    rep.records = {"i": np.arange(7),
                   "ratio": np.array([2.0, np.nan, 1.0, 3.0, np.inf, 1.0, 3.0])}
    s = rep.summary()
    assert (s["min_ratio"], s["max_ratio"]) == (rep.min_ratio, rep.max_ratio) == (1.0, 3.0)
    assert s["witness_min"] == {"i": 2, "ratio": 1.0}
    assert s["witness_max"] == {"i": 3, "ratio": 3.0}
    assert [type(v) for v in s["witness_max"].values()] == [int, float]
    assert s["records"] == 7
    # No finite ratio: no witness and a NaN band.
    rep.records = {"i": np.arange(3), "ratio": np.array([np.nan, np.inf, -np.inf])}
    s = rep.summary()
    assert s["witness_min"] is None and s["witness_max"] is None
    assert np.isnan(s["min_ratio"]) and np.isnan(s["max_ratio"])


def test_polygon_sweep_e1_band():
    np_ = build_polygon({(4, 0), (2, 2)})
    rep = verify.sweep_polygon_equivalence(np_)
    assert rep.verdict == "pass"
    assert 0.1 <= rep.min_ratio and rep.max_ratio <= 10.0
    lo, hi = rep.extras["binomial_band"]
    assert 0.1 <= lo and hi <= 10.0
    for sc in rep.extras["scaling"]:
        assert sc["formula_matches"]
        assert sc["limit_ratios"][-1] == pytest.approx(1.0, abs=0.05)


def test_polygon_sweep_degenerate_ratio_one():
    np_ = build_polygon({(0, 0)})
    rep = verify.sweep_polygon_equivalence(np_)
    assert rep.min_ratio == rep.max_ratio == 1.0


def test_polygon_sweep_figure_shape_degrees():
    # mixed-slope polygon: sides r = 2 and r = 1/2
    np_ = build_polygon({(6, 0), (2, 2), (0, 3)})
    rep = verify.sweep_polygon_equivalence(np_)
    assert all(sc["formula_matches"] for sc in rep.extras["scaling"])
    assert rep.verdict == "pass"


def test_trace_sweep_band():
    w = weights.from_polygon(build_polygon({(4, 0), (2, 2)}))
    rep = verify.sweep_trace_equivalence(w)
    assert rep.verdict == "pass"
    for l in (0, 1):
        lo, hi = rep.extras[f"band_l{l}"]
        assert hi / lo < 100.0


def test_trace_sweep_matches_scalar_quadrature():
    # The sweep evaluates whole grids at once; each record must agree with
    # the one-point call to a few ulps of the summed nodes.
    w = weights.from_polygon(build_polygon({(4, 0), (2, 2)}))
    rep = verify.sweep_trace_equivalence(w, lam_max=1e6)
    rec = rep.records
    assert len(rec["lhs"]) == 4 * 8 * 7       # l = 0..3
    for l, xa, lam, lhs in zip(rec["l"].tolist(), rec["xi_prime_abs"],
                               rec["lambda"], rec["lhs"]):
        expected, _ = weights.trace_weight_quadrature(w, l, xa, lam)
        assert lhs == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("pencil", [e1_pencil, agmon_pencil])
def test_trace_quadrature_error_reported(pencil):
    rep = verify.run_suites(["trace"], pencil())["trace"]
    err = rep.summary()["extras"]["quad_err_max"]
    assert np.isfinite(err) and 0.0 <= err < 1e-12


def test_trace_sweep_agmon_shape():
    # mu = 0: sigma'_0 tracks (lambda + |xi'|)^(1/2)
    w = weights.from_polygon(build_polygon({(2, 0), (0, 2)}))
    rep = verify.sweep_trace_equivalence(w)
    assert rep.verdict == "pass"


@pytest.mark.parametrize("w, l_list", [
    (weights.ProductWeight(((Fraction(1), Fraction(1, 2)),)), [0]),
    (weights.from_polygon(build_polygon(agmon_pencil().exponent_points())), [0, 1]),
    (weights.from_polygon(build_polygon(e1_pencil().exponent_points())), [0, 1, 2, 3])])
def test_trace_sweep_scans_the_orders_its_weight_allows(w, l_list):
    # sigma'_l converges for 2l + 1 < 4 sum(m_s): sum(m_s) = 1/2, 1 and 2.
    rep = verify.sweep_trace_equivalence(w)
    assert rep.config["l_list"] == l_list
    assert np.unique(rep.records["l"]).tolist() == l_list


@pytest.mark.parametrize("suite", ["polygon", "trace", "prop52"])
@pytest.mark.parametrize("density", [1, 2])
def test_box_suites_record_their_xi_range(suite, density):
    # A box grid is |xi| = 0 and a geometric grid over xi_range, ends kept.
    rep = verify.run_suites([suite], e1_pencil(), density)[suite]
    xa = rep.records["xi_prime_abs"]
    assert rep.config["xi_range"] == [xa[xa > 0].min(), xa.max()]
    assert xa.min() == 0.0


def test_thm41_sweep_e1():
    rep = verify.run_suites(["thm41"], e1_pencil())["thm41"]
    assert rep.verdict == "pass"
    wit = rep.summary()["witness_max"]
    # witness reproducibility: recompute lhs at the witness point, one node
    # alone, and against the closed form for the upper roots i|xi'| and
    # i sqrt(|xi'|^2 + lambda^2)
    xa, lam = wit["xi_prime_abs"], wit["lambda"]
    assert wit["xi_prime"] == [xa]
    upper = tau_roots(e1_pencil(), np.array(wit["xi_prime"]), lam).upper
    lhs = halfline.gramian_norms([upper], np.eye(2)[[wit["j"] - 1]], [wit["l"]])[0, 0, 0]
    assert lhs == wit["lhs"]
    a, b = xa, np.hypot(xa, lam)
    closed = {(1, 0): (a * a + 3 * a * b + b * b) / (2 * a * b * (a + b)),
              (1, 1): a * b / (2 * (a + b)), (2, 0): 1 / (2 * a * b * (a + b)),
              (2, 1): 1 / (2 * (a + b)),
              (2, 2): (a * a + 3 * a * b + b * b) / (2 * (a + b))}[wit["j"], wit["l"]]
    assert lhs == pytest.approx(np.sqrt(closed), rel=1e-12)


def test_thm41_known_point_ratio():
    # The ratio at (|xi'|, lambda) = (1, 10) is ||D^2 w_2|| / sqrt(11) with
    # ||D^2 w_2|| = 2.4453; it is homogeneous of degree 0, so the scan's
    # node s = lambda / |xi'| = 10 on each ray has it too.
    rec = verify.run_suites(["thm41"], e1_pencil())["thm41"].records
    at = ((rec["j"] == 2) & (rec["l"] == 2)
          & np.isclose(rec["lambda"] / rec["xi_prime_abs"], 10.0, rtol=1e-6, atol=0.0))
    assert sorted(rec["xi_prime"][at, 0] / rec["xi_prime_abs"][at]) == [-1.0, 1.0]
    assert rec["ratio"][at] == pytest.approx(2.4453 / np.sqrt(11.0), abs=1e-3)


def test_asymptotics_sweep_e1():
    rep = verify.run_suites(["asymptotics"], e1_pencil())["asymptotics"]
    assert rep.verdict == "pass"
    assert rep.extras["puiseux_slope"] >= rep.extras["puiseux_floor"]
    fits = rep.extras["split_fits"]
    assert abs(fits["w2_j1_l2"]["slope"] - 0.5) < 0.1


def test_asymptotics_counts_ambiguous_groupings(tmp_path):
    # At lambda = 1 both of e1's targets are i, so that grouping is a tie.
    for pencil, at_least in ((e1_pencil, 1), (agmon_pencil, 0)):
        p = pencil()
        rep = verify.run_suites(["asymptotics"], p)["asymptotics"]
        lams = rep.records["lambda"]
        count = sum(group_roots(p, np.array([1.0]), lam).ambiguous for lam in lams)
        assert rep.extras["ambiguous_groupings"] == count >= at_least
        assert rep.summary()["extras"]["ambiguous_groupings"] == count
        verify.write_csv(rep, tmp_path / "out.csv")
        assert "ambiguous" not in (tmp_path / "out.csv").read_text()


def test_asymptotics_double_root_pencil():
    # (|xi|^2 + lambda^2)^2, mu = 0: w2 is the whole solution and its upper
    # roots are double, where the residue Gram sum cancels to 0.
    p = Pencil(n=2, m=2, mu=0, terms=(
        Term((4, 0), 4, 1.0), Term((2, 2), 4, 2.0), Term((0, 4), 4, 1.0),
        Term((2, 0), 2, 2.0), Term((0, 2), 2, 2.0), Term((0, 0), 0, 1.0)))
    rep = verify.run_suites(["asymptotics"], p)["asymptotics"]
    assert rep.verdict == "pass", rep.reasons
    for key, fit in rep.extras["split_fits"].items():
        assert key.startswith("w2_")
        assert abs(fit["slope"] - fit["expected"]) < 1e-3


@pytest.mark.parametrize("b, c", [(2.0, 1.0), (2.000001, 1.000001)])
def test_asymptotics_correction_at_confluent_large_roots(b, c):
    # |xi|^4 + b lambda^2 |xi|^2 + c lambda^4, the double-root (c = 1) and
    # near-confluent benchmark pencils: Q's upper zeros are i sqrt(t_k),
    # t_k = b/2 -+ sqrt(b^2/4 - c), and the upper roots at |xi'| = 1 are
    # i sqrt(1 + lambda^2 t_k).  Each root misses its target by
    # 1 / (sqrt(1 + lambda^2 t_k) + lambda sqrt(t_k)), and the correction
    # is the mean of the two over lambda.
    p = Pencil(n=2, m=2, mu=0, terms=(
        Term((4, 0), 4, 1.0), Term((2, 2), 4, 2.0), Term((0, 4), 4, 1.0),
        Term((2, 0), 2, b), Term((0, 2), 2, b), Term((0, 0), 0, c)))
    rep = verify.run_suites(["asymptotics"], p)["asymptotics"]
    lam = rep.records["lambda"]
    t = b / 2 + np.array([[-1.0], [1.0]]) * np.sqrt(max(b * b / 4 - c, 0.0))
    exact = np.mean(1 / (np.sqrt(1 + lam ** 2 * t) + lam * np.sqrt(t)), axis=0) / lam
    lhs = rep.records["lhs"]
    assert np.all(np.abs(lhs - exact) <= 1e-6 * exact)
    # The fit of the exact correction over lambda in [1, 1e3] has slope
    # 1.981, not 2: it is far from lambda^-2 / 2 at lambda = 1.
    assert abs(rep.extras["puiseux_slope"] - verify.fit_loglog(1 / lam, exact)) < 1e-6


@pytest.mark.parametrize("density, nodes", [(1, 7), (2, 13), (4, 25)])
def test_asymptotics_grid_is_the_scan_s_values_in_1_to_1e3(density, nodes):
    # lambda runs over the unit-slice scan's s-values in [1, 1e3] at
    # xi' = e_1, whatever the lambda range the other suites take.
    s = verify.scan_s(density)
    rep = verify.run_suites(["asymptotics"], e1_pencil(), density=density,
                            lambda0=10.0, decades=1)["asymptotics"]
    assert rep.verdict == "pass"
    assert rep.records["lambda"].tolist() == s[(s >= 1.0) & (s <= 1e3)].tolist()
    assert len(rep.records["lambda"]) == nodes
    assert rep.records["lambda"][[0, -1]].tolist() == [1.0, 1e3]
    assert set(rep.records["xi_prime_abs"].tolist()) == {1.0}


def test_asymptotics_fails_growing_bounded_residuals(monkeypatch):
    def growing(p, xi_prime, lam):
        return [replace(g, residual_bounded=(y ** 2,))
                for g, y in zip(mesh_group_roots(p, xi_prime, lam), lam)]
    monkeypatch.setattr(verify, "mesh_group_roots", growing)
    rep = verify.run_suites(["asymptotics"], e1_pencil())["asymptotics"]
    assert rep.verdict == "fail"
    assert rep.reasons[0] == "bounded-group residuals grow with lambda"


def test_prop52_pass_and_fail():
    ok = verify.sweep_multiplier_rn(e1_pencil())
    assert ok.verdict == "pass" and np.isfinite(ok.extras["C"])
    bad = verify.sweep_multiplier_rn(broken_pencil())
    assert bad.verdict == "fail"


@pytest.mark.parametrize("pencil", [e1_pencil, agmon_pencil])
def test_prop52_polish_raises_grid_maximum_inside_box(pencil):
    rep = verify.sweep_multiplier_rn(pencil(), lam_max=1e2)
    assert rep.extras["C"] >= rep.max_ratio
    xa, lam = rep.extras["C_point"]
    assert 1e-2 <= xa <= 1e3 and 1.0 <= lam <= 1e2


def test_prop52_agmon_order_bound():
    rep = verify.sweep_multiplier_rn(agmon_pencil(), lambda0=1.0)
    assert rep.extras["C"] <= 2.0 * (1.0 + 1.0)


def test_halfspace_sweep_e1():
    rep = verify.run_suites(["halfspace"], e1_pencil())["halfspace"]
    assert rep.verdict == "pass"
    assert np.isfinite(rep.max_ratio)


def test_halfspace_table_dominates_derivative_table():
    # The homogeneous-weight ratio dominates the four-case table (so the
    # norm bound transfers); in the regime |xi'| >= lambda the two tables
    # agree up to bounded factors.
    p = e1_pencil()
    phi = verify.homogeneous_energy_weight(p)
    for xa in (0.1, 1.0, 10.0):
        for lam in (1.0, 100.0):
            for j in (1, 2):
                num = weights.xi_product_eval(
                    weights.shift(phi, Fraction(2 * j - 1, 2)), xa, lam)
                for l in (0, 1, 2):
                    den = weights.xi_product_eval(
                        weights.shift(phi, l), xa, lam)
                    table = verify.rhs_44(p.mu, j, l, xa, lam)
                    ratio = (num / den) / table
                    assert ratio > 0.2
                    if xa >= lam:
                        assert ratio < 5.0


@pytest.mark.parametrize("pencil", [e1_pencil, agmon_pencil])
def test_norm_sweeps_match_pointwise_loop(pencil):
    # Reference: a per-point loop over the residue solutions at the unit
    # slice's nodes (|xi'|, lambda) = (1, s) / sqrt(1 + s^2), s = 0 and 21
    # values over s_range, on each direction.  The norms agree within
    # c eps (s + g^-2), g the smallest root gap relative to max |tau| and
    # s = max |tau| / min |tau|.  The thm41 table is made of scalar calls,
    # so it is exact; the halfspace weights are array calls, whose powers
    # may round 1-2 ulp away from scalar ones.
    p = pencil()
    phi = verify.homogeneous_energy_weight(p)
    thm, half = verify.run_suites(["thm41", "halfspace"], p).values()
    for rep, rhs, rel in (
            (thm, lambda j, l, xa, lam: verify.rhs_44(p.mu, j, l, xa, lam),
             0.0),
            (half, lambda j, l, xa, lam: (
                weights.xi_product_eval(
                    weights.shift(phi, Fraction(2 * j - 1, 2)), xa, lam)
                / weights.xi_product_eval(weights.shift(phi, l), xa, lam)),
             1e-15)):
        cfg = rep.config
        assert cfg["directions"] == 2
        expected = []
        for omega in sphere_directions(1, 2):
            for s in [0.0] + list(np.geomspace(*cfg["s_range"], 21)):
                xa, lam = 1.0 / np.hypot(1.0, s), s / np.hypot(1.0, s)
                sols = halfline.solve(p, omega * xa, lam)
                u = np.array(sols[0].roots)
                gaps = np.abs(u[:, None] - u[None, :])[~np.eye(len(u), dtype=bool)]
                g = gaps.min() / np.abs(u).max() if len(u) > 1 else 1.0
                tol = 32 * np.finfo(float).eps * (
                    np.abs(u).max() / np.abs(u).min() + g ** -2)
                for j in cfg["j_list"]:
                    for l in cfg["l_list"]:
                        expected.append(((omega * xa).tolist(), xa, lam, j, l,
                                         halfline.l2_norm_deriv(sols[j - 1], l),
                                         tol, rhs(j, l, xa, lam)))
        rec = rep.records
        assert len(rec["ratio"]) == len(expected)
        xi, xa, lam, j, l, lhs, tol, r = map(np.array, zip(*expected))
        for name, col in (("xi_prime", xi), ("xi_prime_abs", xa), ("lambda", lam),
                          ("j", j), ("l", l)):
            assert np.array_equal(rec[name], col), name
        assert np.all(np.abs(rec["lhs"] - lhs) <= tol * rec["lhs"])
        assert rec["rhs"] == pytest.approx(r, rel=rel, abs=0.0)
        assert np.array_equal(rec["ratio"], rec["lhs"] / rec["rhs"])


def _double_root_pencil():
    """(|xi|^2 + lambda^2)^2: a double upper root at every (xi', lambda)."""
    return Pencil(n=2, m=2, mu=0, terms=(
        Term((4, 0), 4, 1.0), Term((2, 2), 4, 2.0), Term((0, 4), 4, 1.0),
        Term((2, 0), 2, 2.0), Term((0, 2), 2, 2.0), Term((0, 0), 0, 1.0)))


def _quartic_pencil():
    """|xi_1|^4 + |xi_2|^4 + lambda^4: upper roots at angles pi/4, 3pi/4."""
    return Pencil(n=2, m=2, mu=0, terms=(
        Term((4, 0), 4, 1.0), Term((0, 4), 4, 1.0), Term((0, 0), 0, 1.0)))


@pytest.mark.parametrize("pencil", [e1_pencil, agmon_pencil,
                                    _double_root_pencil, _quartic_pencil])
def test_norm_sweeps_report_root_clearance(pencil, tmp_path):
    # The smallest Im tau / |tau| over the mesh, which bounds the conditioning
    # of the Gramian's Lyapunov solve, is in summary.json, never in the CSV.
    clearance = np.sqrt(0.5) if pencil is _quartic_pencil else 1.0
    for rep in verify.run_suites(["thm41", "halfspace"], pencil()).values():
        extras = rep.summary()["extras"]
        assert extras["root_clearance_min"] == pytest.approx(clearance, rel=1e-12)
        assert "pointwise_nodes" not in extras
        verify.write_csv(rep, tmp_path / "out.csv")
        assert "clearance" not in (tmp_path / "out.csv").read_text()


def test_run_suites_times_each_suite_and_direct_sweeps_do_not():
    # run_suites owns the clock; a sweep called directly reports 0.0.
    p = e1_pencil()
    assert all(rep.runtime > 0 for rep in verify.run_suites(verify.SUITES, p).values())
    np_ = build_polygon(p.exponent_points())
    w, scan = weights.from_polygon(np_), verify.norm_scan(p, 1)
    direct = [verify.sweep_polygon_equivalence(np_),
              verify.sweep_trace_equivalence(w),
              verify.sweep_theorem41(p, 1, scan), verify.sweep_group_asymptotics(p),
              verify.sweep_multiplier_rn(p), verify.sweep_halfspace_ratio(p, 1, scan)]
    assert [rep.runtime for rep in direct] == [0.0] * 6


def test_unknown_suite_raises():
    with pytest.raises(PencilabError, match="^suite nope: unknown suite 'nope'$"):
        verify.run_suites(["polygon", "nope"], e1_pencil())


@pytest.mark.parametrize("density", [1, 2])
def test_four_variables_pass_every_suite(density):
    # |xi|^2 (|xi|^2 + lambda^2) in four variables (m = 2, mu = 1): n >= 4
    # takes the seeded Gaussian directions of sphere_directions.
    p = load_pencil(PENCILS / "e1_n4.json")
    dirs = sphere_directions(4, 48)
    assert dirs.shape == (48, 4)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(dirs, sphere_directions(4, 48))
    assert check_lemma21(p).n_elliptic
    reports = verify.run_suites(verify.SUITES, p, density=density)
    assert {name: rep.verdict for name, rep in reports.items()} == dict.fromkeys(
        verify.SUITES, "pass")
    assert reports["thm41"].config["directions"] == verify.NORM_DIRECTIONS


@pytest.mark.parametrize("pencil", [e1_pencil, agmon_pencil, _double_root_pencil])
def test_norm_suites_share_one_scan(pencil, monkeypatch):
    # run_suites makes one unit-slice scan for thm41 and halfspace, and each
    # report equals that of its suite run alone.
    p = pencil()
    alone = {name: verify.run_suites([name], p, density=2)[name]
             for name in ("halfspace", "thm41")}
    calls = []
    mesh_norms = halfline.mesh_norms
    monkeypatch.setattr(halfline, "mesh_norms",
                        lambda *args: calls.append(args) or mesh_norms(*args))
    both = verify.run_suites(["halfspace", "thm41"], p, density=2)
    assert len(calls) == 1 and list(both) == ["halfspace", "thm41"]
    for name, rep in alone.items():
        assert list(both[name].records) == list(rep.records)
        for key, col in rep.records.items():
            assert np.array_equal(both[name].records[key], col), key
        assert both[name].extras == rep.extras
        assert both[name].config == rep.config
        assert (both[name].verdict, both[name].reasons) == (rep.verdict, rep.reasons)


def test_norm_scan_covers_both_rays_of_the_plane():
    # (|xi|^2 + lambda^2)^2 + 0.5 xi_1 tau^2 lambda is elliptic, and its odd
    # term tells xi' = +|xi'| from xi' = -|xi'|: at (|xi'|, lambda) =
    # (0.6, 0.8) the norms of the two rays differ by about 0.02.
    p = Pencil(n=2, m=2, mu=0,
               terms=_double_root_pencil().terms + (Term((1, 2), 3, 0.5),))
    both = halfline.mesh_norms(p, [[0.6], [-0.6]], [0.8, 0.8])
    assert np.abs(both.values[0] - both.values[1]).min() > 0.01
    rep = verify.run_suites(["thm41"], p)["thm41"]
    assert rep.verdict == "pass"
    # Records come ray by ray, each with the same nodes, j and l.
    rec = rep.records
    half = len(rec["lhs"]) // 2
    for key in ("xi_prime_abs", "lambda", "j", "l"):
        assert np.array_equal(rec[key][:half], rec[key][half:]), key
    sign = np.sign(rec["xi_prime"][:, 0])
    assert np.all(sign[:half] == sign[0]) and np.all(sign[half:] == -sign[0])
    assert np.abs(rec["lhs"][:half] - rec["lhs"][half:]).max() > 0.01
    wit = rep.summary()["witness_max"]
    assert wit["xi_prime"] == [np.sign(wit["xi_prime"][0]) * wit["xi_prime_abs"]]


@pytest.mark.parametrize("density", [1, 2, 4])
def test_scan_s_values_nest(density):
    # What a refined scan rests on: every other s-value of the 2x grid is
    # the grid's own, bit for bit.
    assert verify.scan_s(2 * density)[::2].tobytes() == verify.scan_s(density).tobytes()


# The nine pencils whose verify outputs CI compares (test_golden's VERIFY_PENCILS).
CI_PENCILS = [BENCHMARK_PENCILS / f"{name}.json"
              for name in ("e1", "agmon", "e1_n3", "double", "near")] + [
    PENCILS / f"{name}.json" for name in ("n1", "m3", "e1_n4", "cplx")]


@pytest.mark.parametrize("path", CI_PENCILS, ids=lambda path: path.stem)
@pytest.mark.parametrize("density", [1, 2])
def test_refined_norm_scan_is_the_scan_from_scratch(path, density, monkeypatch):
    p = load_pencil(path)
    coarse = verify.norm_scan(p, density)
    solved = []
    mesh_norms = halfline.mesh_norms
    monkeypatch.setattr(halfline, "mesh_norms",
                        lambda p, xi, lam: solved.append(len(lam)) or mesh_norms(p, xi, lam))
    refined = verify.norm_scan(p, 2 * density, coarse)
    # Only the nodes the coarse scan lacks are solved: 20 density per
    # direction (none for n = 1, whose one node is every scan).
    assert solved == ([20 * density * coarse.directions] if p.n > 1 else [])
    monkeypatch.undo()
    scratch = verify.norm_scan(p, 2 * density)
    for key in ("xi_prime", "xi_abs", "lam"):
        assert getattr(refined, key).tobytes() == getattr(scratch, key).tobytes(), key
    assert refined.directions == scratch.directions
    assert refined.norms.values.tobytes() == scratch.norms.values.tobytes()
    assert refined.norms.values.shape == scratch.norms.values.shape
    assert (np.float64(refined.norms.root_clearance_min).tobytes()
            == np.float64(scratch.norms.root_clearance_min).tobytes())


def test_refined_scan_raises_the_first_refused_node(monkeypatch):
    # Two nodes of the 2x scan that the 1x scan lacks are refused, each with
    # its own message; the refined scan raises the first in node order (the
    # -e_1 ray's comes after the +e_1 ray's), as the scan from scratch does.
    p = e1_pencil()
    coarse = verify.norm_scan(p, 1)
    s = verify.scan_s(2)
    lam_at = lambda k: float(s[k] / np.hypot(1.0, s[k]))
    refused = {(-1.0, lam_at(1)), (1.0, lam_at(3))}
    mesh_roots = halfline.mesh_roots

    def refusing(p, xi_prime, lam):
        out = mesh_roots(p, xi_prime, lam)
        for k, node in enumerate(zip(np.sign(np.asarray(xi_prime)[:, 0]).tolist(),
                                     np.asarray(lam).tolist())):
            if node in refused:
                out[k] = EllipticityError(f"refused at {node}")
        return out

    monkeypatch.setattr(halfline, "mesh_roots", refusing)
    with pytest.raises(EllipticityError) as scratch:
        verify.norm_scan(p, 2)
    with pytest.raises(EllipticityError) as refined:
        verify.norm_scan(p, 2, coarse)
    assert str(refined.value) == str(scratch.value) == f"refused at {(1.0, lam_at(3))}"
    # The first pass passes, and the refinement stops the run with it.
    assert verify.run_suites(["thm41"], p)["thm41"].verdict == "pass"
    with pytest.raises(EllipticityError, match=r"^suite thm41: refused at \(1\.0, "):
        verify.run_refined(["thm41", "halfspace"], p)


@pytest.mark.parametrize("path", CI_PENCILS, ids=lambda path: path.stem)
@pytest.mark.parametrize("density", [1, 2])
def test_refined_asymptotics_groups_only_its_new_lambdas(path, density, monkeypatch):
    # run_refined hands asymptotics' groupings to its 2x pass, which groups
    # only the lambdas it adds (6 density of 12 density + 1), and its report
    # is the sweep's from scratch, bit for bit.
    p = load_pencil(path)
    grouped = []
    mesh_group_roots = verify.mesh_group_roots
    monkeypatch.setattr(verify, "mesh_group_roots", lambda p, xi, lam: grouped.append(
        len(lam)) or mesh_group_roots(p, xi, lam))
    reports, refined = verify.run_refined(["asymptotics"], p, density)
    assert grouped == [6 * density + 1, 6 * density]
    monkeypatch.undo()
    first, fine = reports["asymptotics"], refined["asymptotics"]
    for rep, d in ((first, density), (fine, 2 * density)):
        scratch = verify.sweep_group_asymptotics(p, d)
        assert rep.records.keys() == scratch.records.keys()
        for key, col in scratch.records.items():
            assert rep.records[key].tobytes() == col.tobytes(), key
        extras = {k: v for k, v in rep.extras.items() if k != "refinement_drift"}
        assert repr(extras) == repr(scratch.extras)
        assert (rep.config, rep.reasons) == (scratch.config, scratch.reasons)


def test_refined_asymptotics_raises_the_first_refused_lambda(monkeypatch):
    # Two lambdas of the 2x grid that the 1x grid lacks are refused, each
    # with its own message; the refined groupings raise the first, as the
    # groupings from scratch do.
    p = e1_pencil()
    coarse = verify._asymptotics_groupings(p, 1)
    lams = list(verify._asymptotics_groupings(p, 2))
    refused = {lams[3], lams[7]}
    mesh_roots = pencil.mesh_roots

    def refusing(p, xi_prime, lam):
        out = mesh_roots(p, xi_prime, lam)
        for k, y in enumerate(np.asarray(lam).tolist()):
            if y in refused:
                out[k] = EllipticityError(f"refused at {y!r}")
        return out

    monkeypatch.setattr(pencil, "mesh_roots", refusing)
    with pytest.raises(EllipticityError) as scratch:
        verify._asymptotics_groupings(p, 2)
    with pytest.raises(EllipticityError) as refined:
        verify._asymptotics_groupings(p, 2, coarse)
    assert str(refined.value) == str(scratch.value) == f"refused at {lams[3]!r}"


@pytest.mark.parametrize("path, count", [
    (BENCHMARK_PENCILS / "e1.json", 48), (BENCHMARK_PENCILS / "e1_n3.json", 2000),
    (PENCILS / "n1.json", 2)])
def test_prop52_records_the_directions_it_scans(path, count, monkeypatch):
    # GridSpec scans at least 2000 directions for n = 3, and the sphere of
    # n = 1 is +-1; prop52's config recorded 48 for both.
    scanned = []
    def spy(n, k):
        dirs = sphere_directions(n, k)
        scanned.append(len(dirs))
        return dirs
    monkeypatch.setattr(verify, "sphere_directions", spy)
    rep = verify.sweep_multiplier_rn(load_pencil(path))
    assert scanned == [count] and rep.config["directions"] == count


@pytest.mark.parametrize("name", ["e1", "agmon", "e1_n3", "double", "near"])
def test_norm_scan_ratios_are_scale_invariant(name):
    # The scan covers the unit slice alone because both sides of every thm41
    # and halfspace ratio are jointly homogeneous of degree l - j + 1/2 in
    # (xi', lambda).  Each ratio is recomputed at (c xi', c lambda): the
    # norms within 32 eps times the spread max |tau| / min |tau| of the
    # node's upper roots (the Lyapunov solve's loss), the halfspace
    # right-hand sides within 8 eps.  The roots come from poly_roots: at
    # c = 1e-3 e1's node s = 1e5 has its bounded root at 1e-8 i, which the
    # real-axis test of tau_roots, absolute at that scale, rejects.
    p = load_pencil(BENCHMARK_PENCILS / f"{name}.json")
    phi = verify.homogeneous_energy_weight(p)
    thm, half = verify.run_suites(["thm41", "halfspace"], p).values()
    j_list, l_list = thm.config["j_list"], thm.config["l_list"]
    eps = np.finfo(float).eps
    rec = thm.records
    for c in (1e-3, 7.3, 1e3):
        xa, lam = c * rec["xi_prime_abs"], c * rec["lambda"]
        shifted = lambda s: weights.xi_product_eval(weights.shift(phi, s), xa, lam)
        num = {j: shifted(Fraction(2 * j - 1, 2)) for j in j_list}
        den = {l: shifted(l) for l in l_list}
        for k, (j, l) in enumerate(zip(rec["j"].tolist(), rec["l"].tolist())):
            if k % (len(j_list) * len(l_list)) == 0:       # a new node
                roots = poly_roots(tau_polynomial(p, c * rec["xi_prime"][k], lam[k]))
                upper = roots[roots.imag > 0]
                spread = np.abs(upper).max() / np.abs(upper).min()
                norms = halfline.gramian_norms([upper], np.eye(p.m), l_list)[0]
            ratio = norms[j - 1, l] / verify.rhs_44(p.mu, j, l, xa[k], lam[k])
            assert ratio == pytest.approx(rec["ratio"][k], rel=32 * eps * spread, abs=0.0)
            rhs = num[j][k] / den[l][k] * c ** (j - l - 0.5)
            assert rhs == pytest.approx(half.records["rhs"][k], rel=8 * eps, abs=0.0)


BASE_COLUMNS = ["xi_prime_abs", "lambda", "lhs", "rhs", "ratio"]
COLUMN_ORDER = {
    "polygon": BASE_COLUMNS, "asymptotics": BASE_COLUMNS, "prop52": BASE_COLUMNS,
    "trace": ["xi_prime_abs", "lambda", "l", "lhs", "rhs", "ratio"],
    "thm41": ["xi_prime", "xi_prime_abs", "lambda", "j", "l", "lhs", "rhs", "ratio"],
    "halfspace": ["xi_prime", "xi_prime_abs", "lambda", "j", "l", "lhs", "rhs", "ratio"]}


@pytest.mark.parametrize("name", ["e1", "e1_n3", "n1"])
def test_summary_witnesses_are_json_rows_in_column_order(name):
    # A witness is one row of Python values (no numpy scalars), so the
    # summary is JSON as it stands; its keys follow the suite's columns.
    p = load_pencil((PENCILS if name == "n1" else BENCHMARK_PENCILS) / f"{name}.json")
    for suite, rep in verify.run_suites(verify.SUITES, p).items():
        s = rep.summary()
        json.dumps(s)
        assert list(rep.records) == COLUMN_ORDER[suite]
        assert len({len(col) for col in rep.records.values()}) == 1
        for wit in (s["witness_min"], s["witness_max"]):
            assert list(wit) == COLUMN_ORDER[suite]
            for key, value in wit.items():
                want = {"xi_prime": list, "j": int, "l": int}.get(key, float)
                assert type(value) is want, (suite, key)
            assert all(type(x) is float for x in wit.get("xi_prime", []))


def test_asymptotics_groups_once_on_the_unit_sphere(monkeypatch):
    # One stacked roots call serves every node, the residuals and the split
    # norms alike; no per-node root, grouping or explicit-form call is left.
    seen = []
    def counting(p, xi_prime, lam):
        seen.append(len(lam))
        return mesh_roots(p, xi_prime, lam)
    def refused(*args):
        raise AssertionError("per-node call")
    monkeypatch.setattr(pencil, "mesh_roots", counting)
    for name in ("tau_roots", "group_roots"):
        monkeypatch.setattr(pencil, name, refused)
    for name in ("solve_from_roots", "split_by_group", "l2_norm_deriv"):
        monkeypatch.setattr(halfline, name, refused)
    rep = verify.run_suites(["asymptotics"], e1_pencil())["asymptotics"]
    assert seen == [len(rep.records["lambda"])]


def test_asymptotics_fit_ignores_ambiguous_groupings(monkeypatch):
    # At lambda = 1 both of e1's targets are i, so the matching's tie rule
    # alone decides which root is the large one.  Flipping that choice moves
    # the recorded correction but not the Puiseux slope.
    def flipped(*args):
        return [replace(g, group_bounded=g.group_large, group_large=g.group_bounded)
                if g.ambiguous else g for g in mesh_group_roots(*args)]
    base = verify.run_suites(["asymptotics"], e1_pencil())["asymptotics"]
    monkeypatch.setattr(verify, "mesh_group_roots", flipped)
    rep = verify.run_suites(["asymptotics"], e1_pencil())["asymptotics"]
    assert rep.extras["ambiguous_groupings"] == 1
    assert rep.records["lhs"][0] != base.records["lhs"][0]
    assert rep.extras["puiseux_slope"] == base.extras["puiseux_slope"]


def test_refinement_drift_small_for_e1():
    _, _, drift = verify.refinement_drift("thm41", e1_pencil())
    assert drift < 0.05


@pytest.mark.parametrize("name", ["e1", "agmon", "e1_n3", "double", "near"])
def test_asymptotics_refinement_drift_is_a_small_slope_change(name):
    # The refined grid has 13 nodes against 7, so the fitted slopes move a
    # little: by 3.3e-3 on e1 and e1_n3, 3.7e-3 on agmon, double and near.
    r1, r2, drift = verify.refinement_drift(
        "asymptotics", load_pencil(BENCHMARK_PENCILS / f"{name}.json"))
    assert (len(r1.records["ratio"]), len(r2.records["ratio"])) == (7, 13)
    assert r1.verdict == r2.verdict == "pass"
    assert 0.0 < drift < 0.05


def test_drift_between_asymptotics_takes_the_largest_slope_change():
    def report(puiseux, **slopes):
        return verify.SweepReport("asymptotics", {}, extras={
            "puiseux_slope": puiseux,
            "split_fits": {k: {"slope": v, "expected": 0.0} for k, v in slopes.items()}})
    r1 = report(2.0, w1_j1_l0=0.0, w2_j1_l0=-0.5)
    assert verify.drift_between(r1, report(1.99, w1_j1_l0=0.02, w2_j1_l0=-0.5)) \
        == pytest.approx(0.02)
    assert verify.drift_between(r1, report(1.9, w1_j1_l0=0.0, w2_j1_l0=-0.5)) \
        == pytest.approx(0.1)
    assert verify.drift_between(report(None, w2_j1_l0=-0.5),
                                report(None, w2_j1_l0=-0.5)) == 0.0
    # A slope fitted on one grid and not the other is no small change.
    assert verify.drift_between(r1, report(None, w1_j1_l0=0.0, w2_j1_l0=-0.5)) == np.inf
    assert verify.drift_between(r1, report(2.0, w1_j1_l0=0.0)) == np.inf


def test_drift_between_uses_constant_when_reported():
    r1 = verify.SweepReport("prop52", {}, extras={"C": 2.0})
    r2 = verify.SweepReport("prop52", {}, extras={"C": 2.2})
    assert verify.drift_between(r1, r2) == pytest.approx(0.1)
    r1 = verify.SweepReport("thm41", {}, records={"ratio": np.array([4.0])})
    r2 = verify.SweepReport("thm41", {}, records={"ratio": np.array([3.0])})
    assert verify.drift_between(r1, r2) == pytest.approx(0.25)


def test_drift_between_a_zero_constant():
    # A constant that leaves 0 under refinement is no small change; one that
    # stays 0 does not move.
    zero, one = (verify.SweepReport("prop52", {}, extras={"C": c}) for c in (0.0, 1.0))
    assert verify.drift_between(zero, zero) == 0.0
    assert verify.drift_between(zero, one) == np.inf
    assert verify.drift_between(one, zero) == 1.0
    r1, r2 = (verify.SweepReport("thm41", {}, records={"ratio": np.array([c])})
              for c in (0.0, 3.0))
    assert verify.drift_between(r1, r2) == np.inf


def test_csv_deterministic(tmp_path):
    np_ = build_polygon({(4, 0), (2, 2)})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    verify.write_csv(verify.sweep_polygon_equivalence(np_), p1)
    verify.write_csv(verify.sweep_polygon_equivalence(np_), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "suite,xi_prime_abs,lambda,j,l,lhs,rhs,ratio"


def test_report_summary_and_hash():
    np_ = build_polygon({(4, 0), (2, 2)})
    rep = verify.sweep_polygon_equivalence(np_)
    s = rep.summary()
    assert s["suite"] == "polygon" and s["verdict"] == "pass"
    assert len(s["config_hash"]) == 16
    rep2 = verify.sweep_polygon_equivalence(np_)
    assert rep2.config_hash == rep.config_hash


def test_config_hash_follows_the_lambda_box():
    # polygon, trace and prop52 run lambda over [lambda0, lambda0 10^decades]
    # and record both ends; the unit-slice suites do not read the box.
    # polygon's config held lambda0 alone, and its hash stayed while its
    # band moved with the decades.
    three, five = (verify.run_suites(verify.SUITES, e1_pencil(), decades=d)
                   for d in (3, 5))
    for name in verify.SUITES:
        box = name in ("polygon", "trace", "prop52")
        assert (three[name].config_hash != five[name].config_hash) == box, name
    assert three["polygon"].min_ratio != five["polygon"].min_ratio


def test_fit_loglog():
    x = np.geomspace(1.0, 100.0, 8)
    assert verify.fit_loglog(x, 3.0 * x ** 1.7) == pytest.approx(1.7, abs=1e-9)
