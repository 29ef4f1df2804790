"""Tests for the certification sweeps and report plumbing."""

from dataclasses import replace

import numpy as np
import pytest

from pencilab import verify, weights
from pencilab.catalog import agmon_pencil, broken_pencil, e1_pencil
from pencilab.pencil import Pencil, Term, group_roots, tau_roots
from pencilab.polygon import build_polygon
from pencilab import halfline


def test_summary_band_and_first_witnesses():
    # Non-finite ratios are skipped; on a tie the first record is the witness.
    rep = verify.SweepReport("x", {})
    assert rep.summary()["witness_min"] is None and np.isnan(rep.min_ratio)
    for i, r in enumerate([2.0, np.nan, 1.0, 3.0, np.inf, 1.0, 3.0]):
        rep.records.append({"i": i, "ratio": r})
    s = rep.summary()
    assert (s["min_ratio"], s["max_ratio"]) == (rep.min_ratio, rep.max_ratio) == (1.0, 3.0)
    assert s["witness_min"] is rep.witness_min is rep.records[2]
    assert s["witness_max"] is rep.witness_max is rep.records[3]


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
    rep = verify.sweep_trace_equivalence(w, [0, 1])
    assert rep.verdict == "pass"
    for l in (0, 1):
        lo, hi = rep.extras[f"band_l{l}"]
        assert hi / lo < 100.0


def test_trace_sweep_matches_scalar_quadrature():
    # The sweep evaluates whole grids at once; each record must agree with
    # the one-point call to a few ulps of the summed nodes.
    w = weights.from_polygon(build_polygon({(4, 0), (2, 2)}))
    rep = verify.sweep_trace_equivalence(w, [0, 1, 3], lam_max=1e6)
    assert len(rep.records) == 3 * 8 * 7
    for rec in rep.records:
        lhs = weights.trace_weight_quadrature(w, rec["l"], rec["xi_prime_abs"],
                                              rec["lambda"])
        assert rec["lhs"] == pytest.approx(lhs, rel=1e-14)


@pytest.mark.parametrize("pencil", [e1_pencil, agmon_pencil])
def test_trace_quadrature_error_reported(pencil):
    rep = verify.run_suite("trace", pencil())
    err = rep.summary()["extras"]["quad_err_max"]
    assert np.isfinite(err) and 0.0 <= err < 1e-12


def test_trace_sweep_agmon_shape():
    # mu = 0: sigma'_0 tracks (lambda + |xi'|)^(1/2)
    w = weights.from_polygon(build_polygon({(2, 0), (0, 2)}))
    rep = verify.sweep_trace_equivalence(w, [0])
    assert rep.verdict == "pass"


def test_thm41_sweep_e1():
    rep = verify.sweep_theorem41(e1_pencil(), density=1)
    assert rep.verdict == "pass"
    assert rep.extras["homogeneity_max_rel_err"] < 1e-8
    assert np.isfinite(rep.extras["reduced_max_ratio"])
    wit = rep.witness_max
    # witness reproducibility: recompute lhs at the witness point, one node
    # alone, and against the closed form for the upper roots i|xi'| and
    # i sqrt(|xi'|^2 + lambda^2)
    xa, lam = wit["xi_prime_abs"], wit["lambda"]
    upper = tau_roots(e1_pencil(), np.array([xa]), lam).upper
    lhs = halfline.gramian_norms([upper], [wit["j"]], [wit["l"]])[0, 0, 0]
    assert lhs == wit["lhs"]
    a, b = xa, np.hypot(xa, lam)
    closed = {(1, 0): (a * a + 3 * a * b + b * b) / (2 * a * b * (a + b)),
              (1, 1): a * b / (2 * (a + b)), (2, 0): 1 / (2 * a * b * (a + b)),
              (2, 1): 1 / (2 * (a + b))}[wit["j"], wit["l"]]
    assert lhs == pytest.approx(np.sqrt(closed), rel=1e-12)


def test_thm41_known_point_ratio():
    rep = verify.sweep_theorem41(e1_pencil(), j_list=[2], l_list=[2],
                                 xi_range=(1.0, 1.0), lam_range=(10.0, 10.0))
    rec = rep.records[0]
    assert rec["ratio"] == pytest.approx(2.4453 / np.sqrt(11.0), abs=1e-3)


def test_asymptotics_sweep_e1():
    rep = verify.sweep_group_asymptotics(e1_pencil())
    assert rep.verdict == "pass"
    assert rep.extras["puiseux_slope"] >= rep.extras["puiseux_floor"]
    fits = rep.extras["split_fits"]
    assert abs(fits["w2_j1_l2"]["slope"] - 0.5) < 0.1


def test_asymptotics_counts_ambiguous_groupings(tmp_path):
    # At lambda = 1 both of e1's targets are i, so that grouping is a tie.
    for pencil, at_least in ((e1_pencil, 1), (agmon_pencil, 0)):
        p = pencil()
        rep = verify.run_suite("asymptotics", p)
        lams = rep.config["lambda_list"]
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
    rep = verify.run_suite("asymptotics", p)
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
    rep = verify.sweep_group_asymptotics(p)
    lam = np.array([r["lambda"] for r in rep.records])
    t = b / 2 + np.array([[-1.0], [1.0]]) * np.sqrt(max(b * b / 4 - c, 0.0))
    exact = np.mean(1 / (np.sqrt(1 + lam ** 2 * t) + lam * np.sqrt(t)), axis=0) / lam
    lhs = np.array([r["lhs"] for r in rep.records])
    assert np.all(np.abs(lhs - exact) <= 1e-6 * exact)
    # The fit of the exact correction over lambda in [1, 1e3] has slope
    # 1.984, not 2: it is far from lambda^-2 / 2 at lambda = 1.
    assert abs(rep.extras["puiseux_slope"] - verify.fit_loglog(1 / lam, exact)) < 1e-6


def test_asymptotics_needs_four_points():
    with pytest.raises(Exception):
        verify.sweep_group_asymptotics(e1_pencil(), lambda_list=[1.0, 10.0])


def test_prop52_pass_and_fail():
    ok = verify.sweep_multiplier_rn(e1_pencil())
    assert ok.verdict == "pass" and np.isfinite(ok.extras["C"])
    bad = verify.sweep_multiplier_rn(broken_pencil())
    assert bad.verdict == "fail"


@pytest.mark.parametrize("pencil", [e1_pencil, agmon_pencil])
def test_prop52_polish_raises_grid_maximum_inside_box(pencil):
    rep = verify.sweep_multiplier_rn(pencil(), xi_max=1e2, lam_max=1e2)
    assert rep.extras["C"] >= rep.max_ratio
    xa, lam = rep.extras["C_point"]
    assert 1e-2 <= xa <= 1e2 and 1.0 <= lam <= 1e2


def test_prop52_agmon_order_bound():
    rep = verify.sweep_multiplier_rn(agmon_pencil(), lambda0=1.0)
    assert rep.extras["C"] <= 2.0 * (1.0 + 1.0)


def test_halfspace_sweep_e1():
    rep = verify.sweep_halfspace_ratio(e1_pencil(), density=1)
    assert rep.verdict == "pass"
    assert np.isfinite(rep.max_ratio)


def test_halfspace_table_dominates_derivative_table():
    # The homogeneous-weight ratio dominates the four-case table (so the
    # norm bound transfers); in the regime |xi'| >= lambda the two tables
    # agree up to bounded factors.
    p = e1_pencil()
    phi = verify.homogeneous_energy_weight(p)
    from fractions import Fraction
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
    # Reference: a per-point loop over the residue solutions.  The norms
    # agree within c eps (s + g^-2), g the smallest root gap relative to
    # max |tau| and s = max |tau| / min |tau|.  The thm41 table is made of
    # scalar calls, so it is exact; the halfspace weights are array calls,
    # whose powers may round 1-2 ulp away from scalar ones.
    from fractions import Fraction
    p = pencil()
    phi = verify.homogeneous_energy_weight(p)
    thm = verify.sweep_theorem41(p)
    half = verify.sweep_halfspace_ratio(p)
    for rep, xi_count, rhs, rel in (
            (thm, 7, lambda j, l, xa, lam: verify.rhs_44(p.mu, j, l, xa, lam),
             0.0),
            (half, 6, lambda j, l, xa, lam: (
                weights.xi_product_eval(
                    weights.shift(phi, Fraction(2 * j - 1, 2)), xa, lam)
                / weights.xi_product_eval(weights.shift(phi, l), xa, lam)),
             1e-15)):
        cfg = rep.config
        expected = []
        for xa in verify.geom_grid(*cfg["xi_range"], xi_count):
            for lam in verify.geom_grid(*cfg["lam_range"], 6):
                sols = halfline.solve(p, np.array([xa] + [0.0] * (p.n - 2)), lam)
                u = np.array(sols[0].roots)
                gaps = np.abs(u[:, None] - u[None, :])[~np.eye(len(u), dtype=bool)]
                g = gaps.min() / np.abs(u).max() if len(u) > 1 else 1.0
                tol = 32 * np.finfo(float).eps * (
                    np.abs(u).max() / np.abs(u).min() + g ** -2)
                for j in cfg["j_list"]:
                    for l in cfg["l_list"]:
                        expected.append((xa, lam, j, l,
                                         halfline.l2_norm_deriv(sols[j - 1], l),
                                         tol, rhs(j, l, xa, lam)))
        assert len(rep.records) == len(expected)
        for rec, (xa, lam, j, l, lhs, tol, r) in zip(rep.records, expected):
            assert (rec["xi_prime_abs"], rec["lambda"], rec["j"], rec["l"]) \
                == (xa, lam, j, l)
            assert abs(rec["lhs"] - lhs) <= tol * rec["lhs"]
            assert rec["rhs"] == pytest.approx(r, rel=rel, abs=0.0)
            assert rec["ratio"] == rec["lhs"] / rec["rhs"]


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
    for rep in (verify.sweep_theorem41(pencil()),
                verify.sweep_halfspace_ratio(pencil())):
        extras = rep.summary()["extras"]
        assert extras["root_clearance_min"] == pytest.approx(clearance, rel=1e-12)
        assert "pointwise_nodes" not in extras
        verify.write_csv(rep, tmp_path / "out.csv")
        assert "clearance" not in (tmp_path / "out.csv").read_text()


def test_asymptotics_groups_once_on_the_unit_sphere(monkeypatch):
    # At |xi'| = 1 the split loop reuses the residual loop's groupings.  At
    # |xi'| = 2 it groups again at omega = xi'/|xi'|, the same unit vector,
    # so both runs must give the same split fits.
    seen = []
    def counting(*args):
        seen.append(args)
        return group_roots(*args)
    monkeypatch.setattr(verify, "group_roots", counting)
    fits = {}
    for xa, per_lambda in ((1.0, 1), (2.0, 2)):
        seen.clear()
        rep = verify.sweep_group_asymptotics(e1_pencil(), xi_prime_list=[np.array([xa])])
        assert len(seen) == per_lambda * len(rep.config["lambda_list"])
        fits[xa] = rep.extras["split_fits"]
    assert fits[1.0] == fits[2.0]


def test_asymptotics_fit_ignores_ambiguous_groupings(monkeypatch):
    # At lambda = 1 both of e1's targets are i, so the matching's tie rule
    # alone decides which root is the large one.  Flipping that choice moves
    # the recorded correction but not the Puiseux slope.
    def flipped(*args):
        g = group_roots(*args)
        if g.ambiguous:
            g = replace(g, group_bounded=g.group_large, group_large=g.group_bounded)
        return g
    base = verify.sweep_group_asymptotics(e1_pencil())
    monkeypatch.setattr(verify, "group_roots", flipped)
    rep = verify.sweep_group_asymptotics(e1_pencil())
    assert rep.extras["ambiguous_groupings"] == 1
    assert rep.records[0]["lhs"] != base.records[0]["lhs"]
    assert rep.extras["puiseux_slope"] == base.extras["puiseux_slope"]


def test_refinement_drift_small_for_e1():
    _, _, drift = verify.refinement_drift("thm41", e1_pencil())
    assert drift < 0.05


def test_drift_between_uses_constant_when_reported():
    r1 = verify.SweepReport("prop52", {}, extras={"C": 2.0})
    r2 = verify.SweepReport("prop52", {}, extras={"C": 2.2})
    assert verify.drift_between(r1, r2) == pytest.approx(0.1)
    r1 = verify.SweepReport("thm41", {}, records=[{"ratio": 4.0}])
    r2 = verify.SweepReport("thm41", {}, records=[{"ratio": 3.0}])
    assert verify.drift_between(r1, r2) == pytest.approx(0.25)


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


def test_fit_loglog():
    x = np.geomspace(1.0, 100.0, 8)
    assert verify.fit_loglog(x, 3.0 * x ** 1.7) == pytest.approx(1.7, abs=1e-9)
