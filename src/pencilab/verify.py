"""Numerical certification sweeps for the two-sided estimates.

Every sweep evaluates a left-hand and right-hand side on a deterministic
grid, records the ratio, and reports the observed band together with the
extremal witness points.  Constants are always reported, never assumed;
verdicts compare the observed band against fixed limits.  Callers set the
lambda grid and the density; the |xi| ranges and limits are constants below.
The thm41 and halfspace sweeps scan the unit slice |xi'|^2 + lambda^2 = 1
instead, and take only the density.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__, halfline, weights
from .errors import OutOfRangeError, PencilabError
from .pencil import (ZOOM, GridSpec, Pencil, check_lemma21, cluster_roots,
                     column_least, group_roots, homogeneous_table,
                     sphere_directions, symbol_blocks)
from .polygon import INF, NewtonPolygon, build_polygon, r_degree
from .weights import HomogeneousWeight, ProductWeight

SLOPE_TOL = 0.1
# Each sweep records its |xi| range and limit in its config.
POLYGON_BAND_LIMITS = (1e-3, 1e3)   # Xi_sum / Xi_product and binomial bands
TRACE_XI_MAX = 1e2
TRACE_BAND_WIDTH_LIMIT = 1e2        # hi / lo of each l's band
NORM_S_RANGE = (1e-5, 1e5)          # lambda / |xi'| > 0 in thm41 and halfspace
NORM_DIRECTIONS = 8                 # their directions xi' / |xi'| for n >= 3
NORM_RATIO_LIMIT = 1e3
PROP52_XI_MAX = 1e3


def _ratio(rec: dict | None) -> float:
    return float("nan") if rec is None else float(rec["ratio"])


@dataclass
class SweepReport:
    suite: str
    config: dict
    records: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    verdict: str = "pass"
    reasons: list[str] = field(default_factory=list)
    runtime: float = 0.0

    def _witnesses(self) -> tuple[dict | None, dict | None]:
        """First records with the smallest and the largest finite ratio."""
        recs = [r for r in self.records if math.isfinite(r["ratio"])]
        key = lambda r: r["ratio"]
        return min(recs, key=key, default=None), max(recs, key=key, default=None)

    @property
    def min_ratio(self) -> float:
        return _ratio(self._witnesses()[0])

    @property
    def max_ratio(self) -> float:
        return _ratio(self._witnesses()[1])

    @property
    def witness_min(self) -> dict | None:
        return self._witnesses()[0]

    @property
    def witness_max(self) -> dict | None:
        return self._witnesses()[1]

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def fail(self, reason: str):
        self.verdict = "fail"
        self.reasons.append(reason)

    def indeterminate(self, reason: str):
        """A check the grid cannot decide; a failure elsewhere still fails."""
        if self.verdict == "pass":
            self.verdict = "indeterminate"
        self.reasons.append(reason)

    def summary(self) -> dict:
        lo, hi = self._witnesses()
        return {
            "suite": self.suite,
            "verdict": self.verdict,
            "reasons": self.reasons,
            "min_ratio": _ratio(lo),
            "max_ratio": _ratio(hi),
            "witness_min": lo,
            "witness_max": hi,
            "extras": self.extras,
            "config": self.config,
            "config_hash": self.config_hash,
            "provenance": {"pencilab": __version__, "numpy": np.__version__,
                           "python": platform.python_version()},
            "runtime_s": self.runtime,
            "records": len(self.records),
        }


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    return "%.17g" % float(x)


def write_csv(report: SweepReport, path) -> None:
    """Fixed-format CSV: identical invocations give byte-identical files."""
    cols = ("suite", "xi_prime_abs", "lambda", "j", "l", "lhs", "rhs", "ratio")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in report.records:
            row = [report.suite,
                   _fmt(rec.get("xi_prime_abs")), _fmt(rec.get("lambda")),
                   str(rec.get("j", "")), str(rec.get("l", "")),
                   _fmt(rec.get("lhs")), _fmt(rec.get("rhs")),
                   _fmt(rec.get("ratio"))]
            fh.write(",".join(row) + "\n")


def fit_loglog(x, y) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.clip(np.asarray(y, dtype=float), 1e-300, None)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def geom_grid(lo: float, hi: float, count: int) -> np.ndarray:
    return np.geomspace(lo, hi, count)


def _add_records(rep: SweepReport, xi, lam, lhs, rhs, **fixed) -> None:
    """One record per grid point, in array order, with ratio lhs / rhs."""
    for x, y, a, b, r in zip(xi.tolist(), lam.tolist(), lhs.tolist(),
                             rhs.tolist(), (lhs / rhs).tolist()):
        rep.records.append({"xi_prime_abs": x, "lambda": y, **fixed,
                            "lhs": a, "rhs": b, "ratio": r})


# ---------------------------------------------------------------------------
# polygon / weight equivalences

def sweep_polygon_equivalence(np_: NewtonPolygon, density: int = 1,
                              lambda0: float = 1.0,
                              lam_max: float = 1e3) -> SweepReport:
    """Sum-vs-product equivalence, binomial identity, and side scaling.

    Records carry the ratio Xi_sum / Xi_product on a log grid; the binomial
    and scaling checks land in `extras`.
    """
    t0 = time.perf_counter()
    rep = SweepReport("polygon", {
        "density": density, "lambda0": lambda0,
        "band_limits": list(POLYGON_BAND_LIMITS),
        "vertices": [[str(v[0]), str(v[1])] for v in np_.vertices]})

    w = weights.from_polygon(np_, lambda0=lambda0)
    xi_grid = np.concatenate([[0.0], geom_grid(1e-2, 1e3, 11 * density)])
    lam_grid = geom_grid(lambda0, lam_max, 7 * density)

    # Rows follow lambda, columns |xi|, as in the records.
    lam_col = np.repeat(lam_grid, len(xi_grid))
    xi_col = np.tile(xi_grid, len(lam_grid))
    _add_records(rep, xi_col, lam_col, weights.xi_sum_eval(np_, xi_col, lam_col),
                 weights.xi_product_eval(w, xi_col, lam_col))
    if np_.degenerate:
        rep.extras["degenerate"] = True
        rep.runtime = time.perf_counter() - t0
        return rep

    # Binomial identity: Xi^2 against sum_l xi_n^2l (shifted weight)^2.
    lam, xp, xn = np.ix_(lam_grid, xi_grid[::2], xi_grid[::2])
    full = weights.xi_product_eval(w, np.hypot(xp, xn), lam) ** 2
    acc = sum((xn ** (2 * l) * weights.xi_product_eval(weights.shift(w, l), xp, lam)
               ** 2 for l in range(int(2 * w.total_exponent) + 1)), 0.0)
    bin_ratios = full / acc
    rep.extras["binomial_band"] = [float(bin_ratios.min()),
                                   float(bin_ratios.max())]

    # Side scaling: d_s from the support function equals the factor formula,
    # and the rescaled sum converges to the side-restricted sum.
    scaling = []
    points = np_.integer_points()
    for side in np_.sides:
        if side.is_horizontal:
            continue
        rs = side.r
        d_exact = r_degree(np_, rs)
        d_formula = Fraction(0)
        for rq, mq in w.factors:
            if rq == INF or rq > rs:
                d_formula += 2 * mq
            else:
                d_formula += 2 * (rs / rq) * mq
        side_pts = [(i, k) for i, k in points if Fraction(i) + rs * k == d_exact]
        xi0, lam0v = 1.3, 1.7
        limit = sum(xi0 ** i * lam0v ** k for i, k in side_pts)
        ts = np.array([10.0, 100.0, 1000.0])
        vals = (weights.xi_sum_eval(np_, ts * xi0, ts ** float(rs) * lam0v)
                / ts ** float(d_exact)).tolist()
        scaling.append({
            "r": str(rs), "d": str(d_exact),
            "formula_matches": d_exact == d_formula,
            "limit_ratios": [v / limit for v in vals]})
        if d_exact != d_formula:
            rep.fail(f"side r={rs}: degree formula mismatch")
        if abs(vals[-1] / limit - 1.0) > 0.05:
            rep.fail(f"side r={rs}: scaling limit off by {vals[-1] / limit - 1.0}")
    rep.extras["scaling"] = scaling

    lo, hi = rep.min_ratio, rep.max_ratio
    rep.extras["sum_product_band"] = [lo, hi]
    lo_lim, hi_lim = POLYGON_BAND_LIMITS
    if not (lo_lim <= lo and hi <= hi_lim):
        rep.fail(f"sum/product band [{lo}, {hi}] outside limits {POLYGON_BAND_LIMITS}")
    if not (lo_lim <= bin_ratios.min() and bin_ratios.max() <= hi_lim):
        rep.fail("binomial band outside limits")
    rep.runtime = time.perf_counter() - t0
    return rep


def sweep_trace_equivalence(w: ProductWeight, l_list, density: int = 1,
                            lam_max: float = 1e3) -> SweepReport:
    """Band of sigma'_l over the shifted-weight prediction, per l."""
    t0 = time.perf_counter()
    rep = SweepReport("trace", {
        "density": density, "l_list": list(l_list), "xi_max": TRACE_XI_MAX,
        "lam_max": lam_max, "lambda0": w.lambda0,
        "band_width_limit": TRACE_BAND_WIDTH_LIMIT,
        "weight": w.to_json_dict()})
    xi_grid = np.concatenate([[0.0], geom_grid(1e-1, TRACE_XI_MAX, 7 * density)])
    lam_grid = geom_grid(w.lambda0, lam_max, 7 * density)
    # Rows follow lambda, columns |xi'|, as in the records.
    lam_col = np.repeat(lam_grid, len(xi_grid))
    xi_col = np.tile(xi_grid, len(lam_grid))
    quad_err = 0.0
    for l in l_list:
        lhs, err = weights.trace_weight_quadrature(w, l, xi_col, lam_col)
        rhs = weights.xi_product_eval(
            weights.shift(w, Fraction(l) + Fraction(1, 2)), xi_col, lam_col)
        ratios = lhs / rhs
        quad_err = max(quad_err, float(err.max()))
        _add_records(rep, xi_col, lam_col, lhs, rhs, l=l)
        lo, hi = float(ratios.min()), float(ratios.max())
        rep.extras[f"band_l{l}"] = [lo, hi]
        if hi / lo > TRACE_BAND_WIDTH_LIMIT:
            rep.fail(f"l={l}: band width {hi / lo} exceeds {TRACE_BAND_WIDTH_LIMIT}")
    rep.extras["quad_err_max"] = quad_err
    rep.runtime = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# half-line estimates

def scan_directions(n: int) -> np.ndarray:
    """Directions xi' / |xi'| of the norm scan, shape (count, n-1): +-e_1
    for n = 2, sphere_directions(n-1, NORM_DIRECTIONS) for n >= 3, and the
    empty xi' alone for n = 1."""
    if n == 1:
        return np.zeros((1, 0))
    return sphere_directions(n - 1, NORM_DIRECTIONS)


def _norm_scan(suite: str, p: Pencil, density: int, rhs) -> SweepReport:
    """||D^l w_j|| against rhs(|xi'|, lambda)[j, l] on the unit slice.

    Both sides are jointly homogeneous of degree l - j + 1/2 in (xi',
    lambda), so a ratio depends only on s = lambda / |xi'| and on the
    direction of xi'.  Along each scan direction the nodes are (|xi'|,
    lambda) = (1, s) / sqrt(1 + s^2) for s = 0 and 20*density + 1 values
    geometric over NORM_S_RANGE; for n = 1 the only node is xi' = (),
    lambda = 1.  The norms come from one `halfline.mesh_norms` call, and
    records, which carry xi', come in (direction, s, j, l) order.
    """
    j_list = list(range(1, p.m + 1))
    l_list = list(range(0, p.m + 1))
    dirs = scan_directions(p.n)
    rep = SweepReport(suite, {
        "density": density, "j_list": j_list, "l_list": l_list,
        "s_range": list(NORM_S_RANGE), "directions": len(dirs),
        "ratio_limit": NORM_RATIO_LIMIT})
    if p.n == 1:
        xa, lam = np.zeros(1), np.ones(1)
    else:
        s = np.concatenate([[0.0], geom_grid(*NORM_S_RANGE, 20 * density + 1)])
        xa, lam = 1.0 / np.hypot(1.0, s), s / np.hypot(1.0, s)
    xi_prime = np.concatenate([np.outer(xa, omega) for omega in dirs])
    xa, lam = np.tile(xa, len(dirs)), np.tile(lam, len(dirs))
    solved = halfline.mesh_norms(p, xi_prime, lam, j_list, l_list)
    norms = solved.values.tolist()
    table = {key: v.tolist() for key, v in rhs(xa, lam).items()}
    for k, (xi, x, y) in enumerate(zip(xi_prime.tolist(), xa.tolist(),
                                       lam.tolist())):
        for ji, j in enumerate(j_list):
            for li, l in enumerate(l_list):
                a, b = norms[k][ji][li], table[j, l][k]
                rep.records.append({"xi_prime": xi, "xi_prime_abs": x,
                                    "lambda": y, "j": j, "l": l, "lhs": a,
                                    "rhs": b, "ratio": a / b})
    rep.extras["root_clearance_min"] = solved.root_clearance_min
    if rep.max_ratio > NORM_RATIO_LIMIT:
        rep.fail(f"max ratio {rep.max_ratio} exceeds {NORM_RATIO_LIMIT}")
    return rep


def rhs_44(mu: int, j: int, l: int, xi_abs: float, lam: float) -> float:
    """Four-case right-hand side of the half-line derivative estimate."""
    if j <= mu and l <= mu:
        return xi_abs ** (l - j + 0.5)
    if j <= mu and l > mu:
        return xi_abs ** (1 + mu - j) * (lam + xi_abs) ** (l - mu - 0.5)
    if j > mu and l <= mu:
        return xi_abs ** (l - mu) * (lam + xi_abs) ** (mu - j + 0.5)
    return (lam + xi_abs) ** (l - j + 0.5)


def sweep_theorem41(p: Pencil, density: int = 1) -> SweepReport:
    """Ratios of exact derivative norms to the four-case estimate table on
    the unit slice (see _norm_scan), and a spot check of the scaling
    identity for the solutions (extras)."""
    t0 = time.perf_counter()
    # Scalar calls through np.vectorize: numpy's array powers can round
    # 1-2 ulp away from scalar ones, and these tables keep the scalar values.
    rep = _norm_scan("thm41", p, density, lambda xa, lam: {
        (j, l): np.vectorize(rhs_44)(p.mu, j, l, xa, lam)
        for j in range(1, p.m + 1) for l in range(p.m + 1)})

    # Scaling identity spot checks.
    homo_err = 0.0
    xi_prime = 2.0 * scan_directions(p.n)[0]
    for (j, l, r) in [(1, 0, 2.0), (p.m, p.m, 5.0)]:
        lhs, rhs = halfline.homogeneity_check(p, xi_prime, 10.0, r, j, l)
        homo_err = max(homo_err, abs(lhs - rhs) / abs(lhs))
    rep.extras["homogeneity_max_rel_err"] = homo_err
    if homo_err > 1e-8:
        rep.fail(f"scaling identity violated: rel err {homo_err}")
    rep.runtime = time.perf_counter() - t0
    return rep


def sweep_group_asymptotics(p: Pencil, lambda_list) -> SweepReport:
    """Root-grouping quality and split-solution growth exponents at the
    first scan direction xi' (e_1 for n = 2, 3; the empty xi' for n = 1).

    (a) bounded-group residuals stay bounded as lambda grows, (b) the
    large-group correction decays with the expected Puiseux exponent, and
    (c) the split-solution norms grow with the tabulated powers of lambda.
    (b) and (c) fit slopes that hold only asymptotically: over fewer than
    two decades of lambda they are reported but not judged, and the
    verdict is "indeterminate" unless (a) fails.
    The correction compares cluster means: large targets closer than
    halfline.MERGE_TOL form a cluster, and the mean of the roots matched to
    it is set against its mean.  The roots of a split double root or a
    close pair are accurate only in their mean.
    """
    t0 = time.perf_counter()
    lambda_list = np.array(lambda_list, dtype=float)
    if len(lambda_list) < 4:
        raise PencilabError("need at least 4 lambda points for slope fits")
    xi_prime = scan_directions(p.n)[0]
    xi_abs = float(np.linalg.norm(xi_prime))
    rep = SweepReport("asymptotics", {
        "lambda_list": [float(x) for x in lambda_list],
        "xi_prime_list": [xi_prime.tolist()],
        "l_max": p.m, "slope_tol": SLOPE_TOL})

    corr, bounded_res, groupings = [], [], []
    for lam in lambda_list:
        g = group_roots(p, xi_prime, lam)
        groupings.append(g)
        bounded = max(g.residual_bounded, default=0.0)
        large = 0.0
        for center, members in cluster_roots(g.large_targets, halfline.MERGE_TOL):
            mean = sum(g.upper_roots[g.group_large[k]] for k in members) / len(members)
            large = max(large, abs(mean - center) / lam)
        corr.append(large)
        bounded_res.append(bounded)
        rep.records.append({"xi_prime_abs": xi_abs, "lambda": lam,
                            "lhs": large, "rhs": 1.0 / lam,
                            "ratio": large / (1.0 / lam)})
    rep.extras["ambiguous_groupings"] = sum(g.ambiguous for g in groupings)
    rep.extras["bounded_residuals"] = [float(b) for b in bounded_res]
    if bounded_res and max(bounded_res) > 0 and bounded_res[-1] > bounded_res[0] + 1e-9:
        if bounded_res[-1] > 10 * max(bounded_res[0], 1e-12):
            rep.fail("bounded-group residuals grow with lambda")

    # One decade of lambda is not yet asymptotic: on e1 the split-norm
    # slopes read -0.17 and -1.15 where 0 and -1 are expected.
    lo, hi = lambda_list.min(), lambda_list.max()
    judge_slopes = hi >= 100.0 * lo
    if not judge_slopes:
        rep.indeterminate(f"lambda spans {math.log10(hi / lo):.3g} decades; the "
                          "slope checks need at least 2")

    k1 = groupings[-1].k1
    # An ambiguous grouping is decided by the matching's tie rule alone, so
    # its correction says nothing about the Puiseux exponent.
    mask = (np.array(corr) > 1e-13) & ~np.array([g.ambiguous for g in groupings])
    if p.m > p.mu and np.count_nonzero(mask) >= 4:
        slope = fit_loglog(1.0 / lambda_list[mask], np.array(corr)[mask])
        rep.extras["puiseux_slope"] = slope
        rep.extras["puiseux_floor"] = 1.0 / k1 - SLOPE_TOL
        if judge_slopes and slope < 1.0 / k1 - SLOPE_TOL:
            rep.fail(f"Puiseux slope {slope} below 1/k1 - tol")
    else:
        rep.extras["puiseux_slope"] = None

    # (c) split-solution growth on the unit sphere, from (a)'s groupings.
    # The tabulated exponents are asymptotic in lambda, so fit on the upper
    # half of the range where the small-lambda transient has died out.  Each
    # split part has its own expected slope, by (j, l).
    rules = {"w1": lambda j, l: 0.0 if j <= p.mu else float(p.mu - j),
             "w2": lambda j, l: (l - p.mu - 0.5) if j <= p.mu else (l - j + 0.5)}
    norms = {part: {(j, l): [] for j in range(1, p.m + 1)
                    for l in range(0, p.m + 1)} for part in rules}
    for g in groupings:
        for j, sol in enumerate(halfline.solve_from_roots(g.upper_roots), 1):
            for part, w in zip(rules, halfline.split_by_group(sol, g)):
                for l in range(0, p.m + 1):
                    norms[part][j, l].append(halfline.l2_norm_deriv(w, l))
    split_fits = {}
    tail = slice(len(lambda_list) // 2, None)
    for part, rule in rules.items():
        for (j, l), vals in norms[part].items():
            if max(vals) <= 1e-13:
                continue
            expected = rule(j, l)
            slope = fit_loglog(lambda_list[tail], np.asarray(vals)[tail])
            split_fits[f"{part}_j{j}_l{l}"] = {"slope": slope, "expected": expected}
            if judge_slopes and abs(slope - expected) > SLOPE_TOL:
                rep.fail(f"{part} j={j} l={l}: slope {slope} vs {expected}")
    rep.extras["split_fits"] = split_fits
    rep.runtime = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# symbol-level a priori estimates

def energy_weight_value(p: Pencil, xi_abs: float, lam: float) -> float:
    """(1+|xi|^2)^mu (lambda^2+|xi|^2)^(m-mu): squared energy weight."""
    return ((1.0 + xi_abs ** 2) ** p.mu
            * (lam ** 2 + xi_abs ** 2) ** (p.m - p.mu))


def sweep_multiplier_rn(p: Pencil, lambda0: float = 1.0, density: int = 1,
                        lam_max: float = 1e3) -> SweepReport:
    """Empirical constant of the whole-space a priori estimate.

    C = max of W / (|A|^2 / W + lambda^(2m-2mu)) with the squared energy
    weight W; finite and grid-stable exactly when the pencil is elliptic.
    The verdict fails when the ellipticity preconditions fail.
    """
    t0 = time.perf_counter()
    grid = GridSpec(angular=90 * density, directions=48 * density)
    rep = SweepReport("prop52", {
        "density": density, "lambda0": lambda0, "xi_max": PROP52_XI_MAX,
        "lam_max": lam_max, "angular": grid.angular,
        "directions": grid.directions})
    dirs = sphere_directions(p.n, grid.direction_count(p.n))
    xi_grid = np.concatenate([[0.0], geom_grid(1e-2, PROP52_XI_MAX, 10 * density)])
    lam_grid = geom_grid(lambda0, lam_max, 8 * density)

    def ratio(a, xa, lam):          # W / (|A|^2 / W + lambda^(2m-2mu))
        wgt = energy_weight_value(p, xa, lam)
        return wgt / (a ** 2 / wgt + lam ** (2 * p.m - 2 * p.mu))

    def column_max(table, xa, lam):
        """Largest ratio over the table's directions, per (|xi|, lambda)
        column.  Each rounded step of the ratio is monotone in |A|, so it is
        the ratio at the column's least |A|, bit for bit."""
        return ratio(column_least(table, xa, lam), xa, lam)

    # One column per (lambda, |xi|) record: the maximum over the directions.
    lam_col = np.repeat(lam_grid, len(xi_grid))
    xa_col = np.tile(xi_grid, len(lam_grid))
    table = homogeneous_table(p, dirs)
    best = column_max(table, xa_col, lam_col)

    _add_records(rep, xa_col, lam_col, best, np.ones_like(best))

    # Polish the grid maximum so the reported constant does not depend on
    # whether a grid node happens to sit on the smooth peak: a pattern search in
    # (log|xi|, log lambda) on its direction, zooming as pencil._sphere_min does.
    # The direction is the first that attains the maximum in its column.
    i = int(np.argmax(best))
    c_val, point = best[i], (xa_col[i], lam_col[i])
    if point[0] > 0.0:
        xa, lam = xa_col[i:i + 1], lam_col[i:i + 1]
        _, block = next(symbol_blocks(table, xa, lam))
        table = table[int(np.argmax(ratio(np.abs(block[0]), xa, lam)))][None]
        lo, hi = np.array([1e-2, lambda0]), np.array([PROP52_XI_MAX, lam_max])
        step = np.log(hi / lo) / (np.array([10, 8]) * density - 1) / ZOOM
        stencil = np.mgrid[-ZOOM:ZOOM + 1, -ZOOM:ZOOM + 1].reshape(2, -1).T
        while step.max() > 1e-15:
            xa, lam = np.clip(np.exp(np.log(point) + step * stencil), lo, hi).T
            vals = column_max(table, xa, lam)
            k = int(np.argmax(vals))
            if vals[k] > c_val:
                c_val, point = vals[k], (xa[k], lam[k])
            step /= ZOOM
    rep.extras["C_point"] = [float(point[0]), float(point[1])]
    rep.extras["C"] = float(c_val)
    ell = check_lemma21(p, grid)
    rep.extras["elliptic"] = ell.n_elliptic
    if not ell.n_elliptic:
        rep.fail("pencil is not parameter elliptic; the constant is unbounded")
    rep.runtime = time.perf_counter() - t0
    return rep


def homogeneous_energy_weight(p: Pencil) -> HomogeneousWeight:
    """Homogeneous weight of the energy polygon: |xi|^mu (lambda+|xi|)^(m-mu)."""
    np_ = build_polygon({(p.m, 0), (p.mu, p.m - p.mu)})
    w = weights.from_polygon(np_)
    return HomogeneousWeight(w.factors, lambda0=w.lambda0)


def sweep_halfspace_ratio(p: Pencil, density: int = 1) -> SweepReport:
    """Derivative norms against ratios of shifted homogeneous weights on the
    unit slice (see _norm_scan)."""
    t0 = time.perf_counter()
    phi = homogeneous_energy_weight(p)

    def table(xa, lam):
        shifted = lambda s: weights.xi_product_eval(weights.shift(phi, s), xa, lam)
        num = {j: shifted(Fraction(2 * j - 1, 2)) for j in range(1, p.m + 1)}
        den = {l: shifted(l) for l in range(p.m + 1)}
        return {(j, l): num[j] / den[l] for j in num for l in den}

    rep = _norm_scan("halfspace", p, density, table)
    rep.runtime = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# suite orchestration

SUITES = ("polygon", "trace", "thm41", "asymptotics", "prop52", "halfspace")


def run_suite(name: str, p: Pencil, density: int = 1, lambda0: float = 1.0,
              decades: int = 3) -> SweepReport:
    """Dispatch one named suite for a pencil with default desk-scale grids.

    Raises OutOfRangeError, naming the suite and where it ran, when the
    lambda range overflows or the suite's float64 arithmetic overflows,
    divides by zero or makes a NaN: its verdict would rest on infinities.
    """
    unit_slice = name in ("thm41", "halfspace")
    try:
        lam_max = lambda0 * 10.0 ** decades
    except OverflowError:
        lam_max = math.inf
    where = "the unit slice" if unit_slice else f"lambda in [{lambda0:g}, {lam_max:g}]"
    if math.isinf(lam_max) and not unit_slice:
        raise OutOfRangeError(f"suite {name}: {where} overflows float64")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _dispatch(name, p, density, lambda0, decades, lam_max)
    except FloatingPointError as exc:
        raise OutOfRangeError(f"suite {name}: float64 fails on {where} "
                              f"({exc})") from exc


def _dispatch(name: str, p: Pencil, density: int, lambda0: float,
              decades: int, lam_max: float) -> SweepReport:
    if name == "polygon":
        np_ = build_polygon(p.exponent_points())
        return sweep_polygon_equivalence(np_, density=density, lambda0=lambda0,
                                         lam_max=lam_max)
    if name == "trace":
        w = weights.from_polygon(build_polygon(p.exponent_points()), lambda0=lambda0)
        l_list = [l for l in range(4) if 2 * l + 1 < 4 * w.total_exponent]
        return sweep_trace_equivalence(w, l_list, density=density,
                                       lam_max=lam_max)
    if name == "thm41":
        return sweep_theorem41(p, density=density)
    if name == "asymptotics":
        return sweep_group_asymptotics(
            p, lambda_list=geom_grid(lambda0, lam_max, 4 * decades))
    if name == "prop52":
        return sweep_multiplier_rn(p, lambda0=lambda0, density=density,
                                   lam_max=lam_max)
    if name == "halfspace":
        return sweep_halfspace_ratio(p, density=density)
    raise PencilabError(f"unknown suite {name!r}")


def drift_between(r1: SweepReport, r2: SweepReport) -> float:
    """Relative change of the reported constant (prop52) or max ratio."""
    c1 = r1.extras["C"] if "C" in r1.extras else r1.max_ratio
    c2 = r2.extras["C"] if "C" in r2.extras else r2.max_ratio
    return abs(c2 - c1) / abs(c1) if c1 else 0.0


def refinement_drift(name: str, p: Pencil, density: int = 1, **kw) -> tuple:
    """Max-ratio drift between a grid and its 2x refinement."""
    r1 = run_suite(name, p, density=density, **kw)
    r2 = run_suite(name, p, density=2 * density, **kw)
    return r1, r2, drift_between(r1, r2)
