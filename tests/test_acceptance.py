"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints "ACCEPTANCE <n> <name>: PASS" on success; a failure raises
before the line is printed, so the pytest report shows exactly which
criterion fell over.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from pencilab import halfline, verify, weights
from pencilab.catalog import agmon_pencil, broken_pencil, e1_pencil
from pencilab.cli import run
from pencilab.pencil import (GridSpec, check_lemma21,
                             check_regular_degeneration, group_roots,
                             q_polynomial)
from pencilab.polygon import INF, build_polygon
from reference import contour_eval, ode_residual, pencil_to_dict

F = Fraction


def _report(num, name, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_polygon_geometry():
    t0 = time.perf_counter()
    for m, mu in ((2, 1), (3, 1), (4, 3)):
        tick = time.perf_counter()
        np_ = build_polygon({(2 * m, 0), (2 * mu, 2 * m - 2 * mu)})
        assert time.perf_counter() - tick < 1e-3
        assert set(np_.vertices) == {(0, 0), (2 * m, 0),
                                     (2 * mu, 2 * m - 2 * mu),
                                     (0, 2 * m - 2 * mu)}
        assert [s.r for s in np_.sides] == [INF, F(1)]
        for s in np_.sides:
            if not s.is_horizontal:
                assert s.d == F(2 * m)
    _report(1, "polygon-geometry", t0, 5.0)


def test_criterion_2_integral_oracle():
    t0 = time.perf_counter()
    for a in np.geomspace(1e-2, 1e3, 11):
        v0, _, _, _ = weights.lemma32_integral([a], [F(1)], 0)
        v1, _, _, _ = weights.lemma32_integral([a], [F(1)], 1)
        assert abs(v0 - math.pi / (2 * a ** 3)) <= 1e-8 * v0
        assert abs(v1 - math.pi / (2 * a)) <= 1e-8 * v1
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(30):
        a1 = rng.uniform(0.05, 5.0)
        a2 = a1 * rng.uniform(1.5, 50.0)
        m = [F(int(rng.integers(1, 5)), 2) for _ in range(2)]
        lmax = int((4 * sum(m) - 1) // 2)
        l = int(rng.integers(0, lmax + 1)) if lmax >= 0 else 0
        value, lower, upper, _ = weights.lemma32_integral([a1, a2], m, l)
        bound = math.sqrt(lower * upper)      # the band center is the bound
        ratios.append(value / bound)
    # one constant C works across all samples
    C = max(max(ratios), 1.0 / min(ratios))
    assert C < 1e3
    _report(2, "integral-two-sided-bound", t0, 5.0)


def test_criterion_3_trace_equivalence():
    t0 = time.perf_counter()
    np_ = build_polygon(e1_pencil().exponent_points())
    w = weights.from_polygon(np_)
    rep = verify.sweep_trace_equivalence(w)
    assert rep.verdict == "pass"
    for l in range(4):
        lo, hi = rep.extras[f"band_l{l}"]
        assert hi / lo <= 1e2
    _report(3, "trace-equivalence", t0, 30.0)


def test_criterion_4_ellipticity_verdicts():
    t0 = time.perf_counter()
    grid = GridSpec(angular=240, directions=720)
    rep = check_lemma21(e1_pencil(), grid)
    assert rep.n_elliptic and rep.C_est >= 0.4
    assert np.allclose(q_polynomial(e1_pencil()), [1.0, 0.0, 1.0])
    deg = check_regular_degeneration(e1_pencil())
    assert deg.regular is True and deg.k1 == 1
    bad = check_lemma21(broken_pencil(), grid)
    assert not bad.cond_ii
    assert min(np.linalg.norm(bad.witness_ii - [0.0, 1.0]),
               np.linalg.norm(bad.witness_ii - [0.0, -1.0])) < 1e-6
    _report(4, "ellipticity-degeneration", t0, 5.0)


def test_criterion_5_root_grouping():
    t0 = time.perf_counter()
    p = e1_pencil()
    for lam in (10.0, 100.0, 1000.0):
        g = group_roots(p, np.array([1.0]), lam)
        (b,) = g.group_bounded
        assert abs(g.upper_roots[b] - 1j) < 1e-10
    g = group_roots(p, np.array([1.0]), 1000.0)
    assert g.residual_large[0] == pytest.approx(1.0 / 2000.0, rel=0.05)
    rep = verify.run_suites(["asymptotics"], p)["asymptotics"]
    assert rep.extras["puiseux_slope"] >= 1.0 / g.k1 - 0.1
    _report(5, "root-grouping", t0, 5.0)


def test_criterion_6_halfline_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        upper = rng.uniform(-2, 2, m) + 1j * rng.uniform(0.2, 3.0, m)
        if m >= 2 and rng.random() < 0.25:
            upper[1] = upper[0]           # exercise confluent clusters
        full = np.array([1.0 + 0j])
        for r in np.concatenate([upper, np.conj(upper)]):   # symmetrized
            full = np.convolve(full, [-r, 1.0])
        for sol in halfline.solve_from_roots(upper):
            assert halfline.boundary_defect(sol) < 1e-8
            assert ode_residual(sol, full) < 1e-8
            for t in (0.0, 0.5, 2.0):
                assert abs(contour_eval(sol, 0, t)
                           - halfline.eval_deriv(sol, 0, t)) < 1e-8
    sols = halfline.solve(e1_pencil(), np.array([1.0]), 10.0)
    a, b = 1.0, math.sqrt(101.0)
    ref0 = math.sqrt((1 / (2 * a) - 2 / (a + b) + 1 / (2 * b)) / (b - a) ** 2)
    assert halfline.l2_norm_deriv(sols[1], 0) == pytest.approx(ref0, rel=1e-6)
    ref2 = 2.4453401465756945
    assert halfline.l2_norm_deriv(sols[1], 2) == pytest.approx(ref2, rel=1e-6)
    _report(6, "halfline-solver", t0, 60.0)


def test_criterion_7_derivative_estimates():
    t0 = time.perf_counter()
    r1, r2, drift = verify.refinement_drift("thm41", e1_pencil())
    assert r1.verdict == "pass" and drift < 0.05
    js = set(r1.records["j"].tolist())
    ls = set(r1.records["l"].tolist())
    assert js == {1, 2} and ls == {0, 1, 2}
    assert np.isfinite(r1.max_ratio)
    _report(7, "derivative-estimate-sweep", t0, 120.0)


def test_criterion_8_group_split_estimates():
    t0 = time.perf_counter()
    rep = verify.run_suites(["asymptotics"], e1_pencil())["asymptotics"]
    assert rep.verdict == "pass"
    for fit in rep.extras["split_fits"].values():
        assert abs(fit["slope"] - fit["expected"]) <= 0.1
    _report(8, "group-split-exponents", t0, 60.0)


def test_criterion_9_multiplier_estimate():
    t0 = time.perf_counter()
    for p in (e1_pencil(), agmon_pencil()):
        r1, r2, drift = verify.refinement_drift("prop52", p)
        assert r1.verdict == "pass" and np.isfinite(r1.extras["C"])
        assert drift < 0.05
    cs = [verify.sweep_multiplier_rn(broken_pencil(),
                                     lam_max=10.0 ** d).extras["C"]
          for d in (2, 3, 4)]
    assert cs[0] < cs[1] < cs[2]          # C grows without bound
    assert verify.sweep_multiplier_rn(broken_pencil()).verdict == "fail"
    _report(9, "multiplier-constant", t0, 30.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(pencil_to_dict(e1_pencil())))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["verify", str(path), "--suite", "all", "--out", str(out1)]) == 0
    assert run(["verify", str(path), "--suite", "all", "--out", str(out2)]) == 0
    names = sorted(f.name for f in out1.glob("*.csv"))
    assert len(names) == 6
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report(10, "csv-determinism", t0, 60.0)
