"""Numerical certification sweeps for the two-sided estimates.

Every sweep evaluates a left-hand and right-hand side on a deterministic
grid, records the ratio, and reports the observed band together with the
extremal witness points.  Constants are always reported, never assumed;
verdicts compare the observed band against fixed limits.  Callers set the
lambda grid and the density; the |xi| ranges and limits are constants below.
The thm41, halfspace and asymptotics sweeps depend only on s = lambda/|xi'|
and take no lambda grid.  `run_suites` runs any of the suites at one
density, and thm41 and halfspace read the one scan of the unit slice that
it makes.  `run_refined` runs them, then refines each suite that passes at
twice the density: the refined pass computes only what `drift_between`
compares, and its unit-slice scan and asymptotics' root groupings solve
only the nodes that the first pass lacks.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__, halfline, weights
from .errors import OutOfRangeError, PencilabError
from .pencil import (ZOOM, GridSpec, Pencil, check_lemma21, cluster_roots,
                     column_least, compile_parts, homogeneous_table,
                     mesh_group_roots, sphere_directions, symbol_blocks, zoom)
from .polygon import INF, NewtonPolygon, build_polygon, r_degree
from .weights import HomogeneousWeight, ProductWeight

SLOPE_TOL = 0.1
# Each sweep records its |xi| range and limit in its config.  A box suite
# (polygon, trace, prop52) samples |xi| = 0 and a geometric grid over its
# (lo, hi) range.
POLYGON_XI_RANGE = (1e-2, 1e3)
POLYGON_BAND_LIMITS = (1e-3, 1e3)   # Xi_sum / Xi_product and binomial bands
TRACE_XI_RANGE = (1e-1, 1e2)
TRACE_BAND_WIDTH_LIMIT = 1e2        # hi / lo of each l's band
NORM_S_RANGE = (1e-5, 1e5)          # lambda / |xi'| > 0 in thm41 and halfspace
NORM_DIRECTIONS = 8                 # their directions xi' / |xi'| for n >= 3
NORM_RATIO_LIMIT = 1e3
# s in asymptotics.  Its correction |mean - lambda q| / lambda loses digits
# like eps s^2; a Taylor shift about each root q of Q would lift the cap.
ASYMPTOTICS_S_RANGE = (1.0, 1e3)
PROP52_XI_RANGE = (1e-2, 1e3)


def _ratio(rec: dict | None) -> float:
    return float("nan") if rec is None else float(rec["ratio"])


@dataclass
class SweepReport:
    """One suite's result.  `records` holds one row per grid point as
    equal-length numpy columns keyed xi_prime_abs, lambda, lhs, rhs, ratio;
    trace adds l after lambda, and thm41 and halfspace put xi_prime (shape
    (rows, n-1)) first and add j, l after lambda.  A witness is one row as
    a dict of Python values.  run_suites sets `runtime`, the suite's wall
    time in seconds; a sweep called directly leaves it at 0.0."""
    suite: str
    config: dict
    records: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    verdict: str = "pass"
    reasons: list[str] = field(default_factory=list)
    runtime: float = 0.0

    def _witnesses(self) -> tuple[dict | None, dict | None]:
        """First rows with the smallest and the largest finite ratio."""
        ratio = self.records.get("ratio", np.empty(0))
        finite = np.isfinite(ratio)
        if not finite.any():
            return None, None
        row = lambda i: {k: col[i].tolist() for k, col in self.records.items()}
        return (row(np.where(finite, ratio, np.inf).argmin()),
                row(np.where(finite, ratio, -np.inf).argmax()))

    @property
    def min_ratio(self) -> float:
        return _ratio(self._witnesses()[0])

    @property
    def max_ratio(self) -> float:
        return _ratio(self._witnesses()[1])

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def fail(self, reason: str):
        self.verdict = "fail"
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
            "records": len(self.records.get("ratio", ())),
        }


def write_csv(report: SweepReport, path) -> None:
    """Fixed-format CSV: identical invocations give byte-identical files.
    A column the suite lacks is left empty."""
    cols = ("xi_prime_abs", "lambda", "j", "l", "lhs", "rhs", "ratio")
    present = [name for name in cols if name in report.records]
    row = ",".join([report.suite.replace("%", "%%")] + [
        "" if name not in present else "%d" if name in ("j", "l") else "%.17g"
        for name in cols]) + "\n"
    values = zip(*(report.records[name].tolist() for name in present))
    text = ",".join(("suite",) + cols) + "\n" + "".join([row % v for v in values])
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def fit_loglog(x, y):
    """Least-squares slope of log y against log x; for y of shape
    (len(x), K), the K slopes of its columns from one fit."""
    x = np.asarray(x, dtype=float)
    y = np.clip(np.asarray(y, dtype=float), 1e-300, None)
    return np.polyfit(np.log(x), np.log(y), 1)[0]


def _box(xi_grid, lam_grid) -> tuple[np.ndarray, np.ndarray]:
    """The (|xi|, lambda) columns of a box grid, rows following lambda."""
    return np.tile(xi_grid, len(lam_grid)), np.repeat(lam_grid, len(xi_grid))


def _columns(xi, lam, lhs, rhs, **fixed) -> dict:
    """Record columns in their order, with ratio lhs / rhs."""
    return {"xi_prime_abs": xi, "lambda": lam, **fixed,
            "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}


# ---------------------------------------------------------------------------
# polygon / weight equivalences

def _polygon_box(np_: NewtonPolygon, density: int, lambda0: float,
                 lam_max: float):
    """The polygon report with its records alone, Xi_sum / Xi_product on
    the box, which is all a refinement compares; and the weight and the
    (|xi|, lambda) grids they came from."""
    rep = SweepReport("polygon", {
        "density": density, "lambda0": lambda0, "lam_max": lam_max,
        "xi_range": list(POLYGON_XI_RANGE),
        "band_limits": list(POLYGON_BAND_LIMITS),
        "vertices": [[str(v[0]), str(v[1])] for v in np_.vertices]})
    w = weights.from_polygon(np_)
    xi_grid = np.concatenate([[0.0], np.geomspace(*POLYGON_XI_RANGE, 11 * density)])
    lam_grid = np.geomspace(lambda0, lam_max, 7 * density)
    xi_col, lam_col = _box(xi_grid, lam_grid)
    rep.records = _columns(xi_col, lam_col, weights.xi_sum_eval(np_, xi_col, lam_col),
                           weights.xi_product_eval(w, xi_col, lam_col))
    return rep, w, xi_grid, lam_grid


def sweep_polygon_equivalence(np_: NewtonPolygon, density: int = 1,
                              lambda0: float = 1.0,
                              lam_max: float = 1e3) -> SweepReport:
    """Sum-vs-product equivalence, binomial identity, and side scaling.

    Records carry the ratio Xi_sum / Xi_product on a log grid; the binomial
    and scaling checks land in `extras`.
    """
    rep, w, xi_grid, lam_grid = _polygon_box(np_, density, lambda0, lam_max)
    if np_.degenerate:
        rep.extras["degenerate"] = True
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
    return rep


def sweep_trace_equivalence(w: ProductWeight, density: int = 1,
                            lambda0: float = 1.0,
                            lam_max: float = 1e3) -> SweepReport:
    """Band of sigma'_l over the shifted-weight prediction, per l: every
    l <= 3 whose trace integral converges, 2l + 1 < 4 sum(m_s)."""
    l_list = [l for l in range(4) if 2 * l + 1 < 4 * w.total_exponent]
    rep = SweepReport("trace", {
        "density": density, "l_list": l_list, "xi_range": list(TRACE_XI_RANGE),
        "lam_max": lam_max, "lambda0": lambda0,
        "band_width_limit": TRACE_BAND_WIDTH_LIMIT,
        "weight": w.to_json_dict()})
    xi_grid = np.concatenate([[0.0], np.geomspace(*TRACE_XI_RANGE, 7 * density)])
    lam_grid = np.geomspace(lambda0, lam_max, 7 * density)
    xi_col, lam_col = _box(xi_grid, lam_grid)
    # One call for every l: they share the quadrature lattice.
    sigma, err = weights.trace_weight_quadrature(w, l_list, xi_col, lam_col)
    rhs = np.array([weights.xi_product_eval(
        weights.shift(w, Fraction(l) + Fraction(1, 2)), xi_col, lam_col)
        for l in l_list])
    rep.records = _columns(np.tile(xi_col, len(l_list)),
                           np.tile(lam_col, len(l_list)), sigma.ravel(),
                           rhs.ravel(), l=np.repeat(l_list, len(xi_col)))
    for l, ratios in zip(l_list, rep.records["ratio"].reshape(rhs.shape)):
        lo, hi = float(ratios.min()), float(ratios.max())
        rep.extras[f"band_l{l}"] = [lo, hi]
        if hi / lo > TRACE_BAND_WIDTH_LIMIT:
            rep.fail(f"l={l}: band width {hi / lo} exceeds {TRACE_BAND_WIDTH_LIMIT}")
    rep.extras["quad_err_max"] = float(err.max(initial=0.0))
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


@dataclass(frozen=True)
class NormScan:
    """Nodes of the unit-slice scan and the norms ||D^l w_j|| there, for
    j = 1..m and l = 0..m (see norm_scan)."""
    xi_prime: np.ndarray            # (N, n-1)
    xi_abs: np.ndarray              # (N,)
    lam: np.ndarray                 # (N,)
    directions: int
    norms: halfline.MeshNorms


def scan_s(density: int) -> np.ndarray:
    """The 20*density + 1 values of s = lambda / |xi'| > 0, geometric over
    NORM_S_RANGE, of the unit-slice scan."""
    return np.geomspace(*NORM_S_RANGE, 20 * density + 1)


def norm_scan(p: Pencil, density: int, coarse: NormScan | None = None) -> NormScan:
    """The derivative norms on the unit slice |xi'|^2 + lambda^2 = 1.

    The norms and the right-hand sides of thm41 and halfspace are jointly
    homogeneous of degree l - j + 1/2 in (xi', lambda), so a ratio depends
    only on s = lambda / |xi'| and on the direction of xi'.  Along each scan
    direction the nodes are (|xi'|, lambda) = (1, s) / sqrt(1 + s^2) for
    s = 0 and 20*density + 1 values geometric over NORM_S_RANGE; for n = 1
    the only node is xi' = (), lambda = 1.  The norms come from one
    `halfline.mesh_norms` call.

    `coarse`, the scan at density / 2, refines: the s-values nest bit for
    bit (scan_s(2d)[::2] == scan_s(d)), and mesh_norms gives a node the
    same bits alone as in a stack, so only the nodes that `coarse` lacks
    are solved, and the scan is the one made from scratch, bit for bit.
    Its nodes were all accepted, so the first refused node among the new
    ones is the first refused node of the scan.
    """
    dirs = scan_directions(p.n)
    if p.n == 1:
        xa, lam, new = np.zeros(1), np.ones(1), np.zeros(1, dtype=bool)
    else:
        s = np.concatenate([[0.0], scan_s(density)])
        xa, lam = 1.0 / np.hypot(1.0, s), s / np.hypot(1.0, s)
        # s[2], s[4], ...: the values of odd index in scan_s(density), the
        # ones that scan_s(density // 2) lacks.
        new = np.zeros(len(s), dtype=bool)
        new[2::2] = True
    xi_prime = np.concatenate([np.outer(xa, omega) for omega in dirs])
    xa, lam = np.tile(xa, len(dirs)), np.tile(lam, len(dirs))
    if coarse is None:
        norms = halfline.mesh_norms(p, xi_prime, lam)
    else:
        new = np.tile(new, len(dirs))
        values = np.empty((len(lam),) + coarse.norms.values.shape[1:])
        values[~new] = coarse.norms.values
        clearance = coarse.norms.root_clearance_min
        if new.any():
            added = halfline.mesh_norms(p, xi_prime[new], lam[new])
            values[new] = added.values
            clearance = float(np.minimum(clearance, added.root_clearance_min))
        norms = halfline.MeshNorms(values, clearance)
    return NormScan(xi_prime, xa, lam, len(dirs), norms)


def _norm_report(suite: str, p: Pencil, density: int, scan: NormScan,
                 rhs) -> SweepReport:
    """||D^l w_j|| from the scan against rhs(|xi'|, lambda)[j, l]; records,
    which carry xi', come in (direction, s, j, l) order."""
    j_list = list(range(1, p.m + 1))
    l_list = list(range(0, p.m + 1))
    rep = SweepReport(suite, {
        "density": density, "j_list": j_list, "l_list": l_list,
        "s_range": list(NORM_S_RANGE), "directions": scan.directions,
        "ratio_limit": NORM_RATIO_LIMIT})
    table = rhs(scan.xi_abs, scan.lam)
    nodes, pairs = len(scan.lam), len(j_list) * len(l_list)
    node = lambda col: np.repeat(col, pairs, axis=0)
    lhs = scan.norms.values.ravel()             # values is (node, j, l)
    bound = np.stack([table[j, l] for j in j_list for l in l_list], axis=1).ravel()
    rep.records = {"xi_prime": node(scan.xi_prime), **_columns(
        node(scan.xi_abs), node(scan.lam), lhs, bound,
        j=np.tile(np.repeat(j_list, len(l_list)), nodes),
        l=np.tile(l_list, nodes * len(j_list)))}
    rep.extras["root_clearance_min"] = scan.norms.root_clearance_min
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


def sweep_theorem41(p: Pencil, density: int, scan: NormScan) -> SweepReport:
    """Ratios of exact derivative norms to the four-case estimate table on
    the unit slice: `scan` is its NormScan at this density, which
    run_suites shares with halfspace."""
    # rhs_44 on Python floats: numpy's array powers can round 1-2 ulp away
    # from scalar ones, and these tables keep the scalar values.
    def table(xa, lam):
        nodes = list(zip(xa.tolist(), lam.tolist()))
        return {(j, l): np.array([rhs_44(p.mu, j, l, x, y) for x, y in nodes])
                for j in range(1, p.m + 1) for l in range(p.m + 1)}
    return _norm_report("thm41", p, density, scan, table)


def sweep_group_asymptotics(p: Pencil, density: int = 1) -> SweepReport:
    """Root-grouping quality and split-solution growth exponents at the
    first scan direction xi' (e_1 for n = 2, 3; the empty xi' for n = 1).

    The nodes are lambda = s for the scan's s-values (scan_s) in
    ASYMPTOTICS_S_RANGE, 6*density + 1 of them; what is checked is
    homogeneous in (xi', lambda), so they stand for the scan's nodes.
    (a) bounded-group residuals stay bounded as lambda grows, (b) the
    large-group correction decays with the expected Puiseux exponent, and
    (c) the split-solution norms grow with the tabulated powers of lambda.
    The correction compares cluster means: large targets closer than
    halfline.MERGE_TOL form a cluster, and the mean of the roots matched to
    it is set against its mean.  The roots of a split double root or a
    close pair are accurate only in their mean.
    """
    return _asymptotics_report(p, density, _asymptotics_groupings(p, density))


def _asymptotics_groupings(p: Pencil, density: int, coarse: dict | None = None) -> dict:
    """{lambda: RootGrouping} at sweep_group_asymptotics' nodes, from
    mesh_group_roots.

    `coarse`, the groupings at density / 2, refines: the s-values nest bit
    for bit (scan_s(2d)[::2] == scan_s(d)), and mesh_group_roots groups a
    node as it does alone, so only the lambdas that `coarse` lacks are
    grouped, and the groupings are those made from scratch.  Its nodes
    were all accepted and its targets found, so the first error among the
    new nodes is the first error of the whole.
    """
    s = scan_s(density)
    lams = s[(s >= ASYMPTOTICS_S_RANGE[0]) & (s <= ASYMPTOTICS_S_RANGE[1])].tolist()
    known = coarse or {}
    new = [lam for lam in lams if lam not in known]
    found = dict(zip(new, mesh_group_roots(p, scan_directions(p.n)[0], new))) if new else {}
    return {lam: known[lam] if lam in known else found[lam] for lam in lams}


def _asymptotics_report(p: Pencil, density: int, groupings: dict) -> SweepReport:
    """sweep_group_asymptotics' report from its groupings by lambda."""
    lambda_list, groupings = np.array(list(groupings)), list(groupings.values())
    xi_prime = scan_directions(p.n)[0]
    xi_abs = float(np.linalg.norm(xi_prime))
    rep = SweepReport("asymptotics", {
        "density": density, "s_range": list(ASYMPTOTICS_S_RANGE),
        "xi_prime_list": [xi_prime.tolist()],
        "l_max": p.m, "slope_tol": SLOPE_TOL})

    corr, bounded_res = [], []
    for lam, g in zip(lambda_list, groupings):
        bounded = max(g.residual_bounded, default=0.0)
        large = 0.0
        for center, members in cluster_roots(g.large_targets, halfline.MERGE_TOL):
            mean = sum(g.upper_roots[g.group_large[k]] for k in members) / len(members)
            large = max(large, abs(mean - center) / lam)
        corr.append(large)
        bounded_res.append(bounded)
    corr = np.array(corr)
    rep.records = _columns(np.full(len(lambda_list), xi_abs), lambda_list,
                           corr, 1.0 / lambda_list)
    rep.extras["ambiguous_groupings"] = sum(g.ambiguous for g in groupings)
    rep.extras["bounded_residuals"] = [float(b) for b in bounded_res]
    if bounded_res[-1] > bounded_res[0] + 1e-9:
        if bounded_res[-1] > 10 * max(bounded_res[0], 1e-12):
            rep.fail("bounded-group residuals grow with lambda")

    k1 = groupings[-1].k1
    # An ambiguous grouping is decided by the matching's tie rule alone, so
    # its correction says nothing about the Puiseux exponent.
    mask = (corr > 1e-13) & ~np.array([g.ambiguous for g in groupings])
    if p.m > p.mu and np.count_nonzero(mask) >= 4:
        slope = float(fit_loglog(1.0 / lambda_list[mask], corr[mask]))
        rep.extras["puiseux_slope"] = slope
        rep.extras["puiseux_floor"] = 1.0 / k1 - SLOPE_TOL
        if slope < 1.0 / k1 - SLOPE_TOL:
            rep.fail(f"Puiseux slope {slope} below 1/k1 - tol")
    else:
        rep.extras["puiseux_slope"] = None

    # (c) split-solution growth on the unit sphere, from (a)'s groupings.
    # The tabulated exponents are asymptotic in lambda, so fit on the upper
    # half of the range where the small-lambda transient has died out.  Each
    # split part has its own expected slope, by (j, l).
    rules = {"w1": lambda j, l: 0.0 if j <= p.mu else float(p.mu - j),
             "w2": lambda j, l: (l - p.mu - 0.5) if j <= p.mu else (l - j + 0.5)}
    upper = np.array([g.upper_roots for g in groupings])
    names, series = [], []
    for part, key in zip(rules, ("group_bounded", "group_large")):
        group = np.array([getattr(g, key) for g in groupings], dtype=int)
        norms = halfline.split_norms(upper, group)
        for j in range(1, p.m + 1):
            for l in range(p.m + 1):
                if norms[:, j - 1, l].max() > 1e-13:
                    names.append((part, j, l))
                    series.append(norms[:, j - 1, l])
    tail = slice(len(lambda_list) // 2, None)
    slopes = fit_loglog(lambda_list[tail], np.array(series).T[tail]).tolist()
    split_fits = {}
    for (part, j, l), slope in zip(names, slopes):
        expected = rules[part](j, l)
        split_fits[f"{part}_j{j}_l{l}"] = {"slope": slope, "expected": expected}
        if abs(slope - expected) > SLOPE_TOL:
            rep.fail(f"{part} j={j} l={l}: slope {slope} vs {expected}")
    rep.extras["split_fits"] = split_fits
    return rep


# ---------------------------------------------------------------------------
# symbol-level a priori estimates

def energy_weight_value(p: Pencil, xi_abs: float, lam: float) -> float:
    """(1+|xi|^2)^mu (lambda^2+|xi|^2)^(m-mu): squared energy weight."""
    return ((1.0 + xi_abs ** 2) ** p.mu
            * (lam ** 2 + xi_abs ** 2) ** (p.m - p.mu))


def _prop52_grid(density: int) -> GridSpec:
    return GridSpec(angular=90 * density, directions=48 * density)


def sweep_multiplier_rn(p: Pencil, lambda0: float = 1.0, density: int = 1,
                        lam_max: float = 1e3) -> SweepReport:
    """Empirical constant of the whole-space a priori estimate.

    C = max of W / (|A|^2 / W + lambda^(2m-2mu)) with the squared energy
    weight W; finite and grid-stable exactly when the pencil is elliptic.
    The verdict fails when the ellipticity preconditions fail.
    """
    rep = _multiplier_constant(p, lambda0, density, lam_max)
    ell = check_lemma21(p, _prop52_grid(density))
    rep.extras["elliptic"] = ell.n_elliptic
    if not ell.n_elliptic:
        rep.fail("pencil is not parameter elliptic; the constant is unbounded")
    return rep


def _multiplier_constant(p: Pencil, lambda0: float, density: int,
                         lam_max: float) -> SweepReport:
    """The prop52 report without its ellipticity check: the records and C
    with its point, which is all a refinement compares."""
    grid = _prop52_grid(density)
    dirs = sphere_directions(p.n, grid.direction_count(p.n))
    rep = SweepReport("prop52", {
        "density": density, "lambda0": lambda0, "xi_range": list(PROP52_XI_RANGE),
        "lam_max": lam_max, "angular": grid.angular, "directions": len(dirs)})
    xi_grid = np.concatenate([[0.0], np.geomspace(*PROP52_XI_RANGE, 10 * density)])
    lam_grid = np.geomspace(lambda0, lam_max, 8 * density)

    def ratio(a, xa, lam):          # W / (|A|^2 / W + lambda^(2m-2mu))
        wgt = energy_weight_value(p, xa, lam)
        return wgt / (a ** 2 / wgt + lam ** (2 * p.m - 2 * p.mu))

    # One column per record: the largest ratio over the directions.  Each
    # rounded step of the ratio is monotone in |A|, so it is the ratio at
    # the column's least |A|, bit for bit.
    xa_col, lam_col = _box(xi_grid, lam_grid)
    table = homogeneous_table(compile_parts(p), dirs)
    best = ratio(column_least(table, xa_col, lam_col)[0], xa_col, lam_col)

    rep.records = _columns(xa_col, lam_col, best, np.ones_like(best))

    # Polish the grid maximum so the reported constant does not depend on
    # whether a grid node happens to sit on the smooth peak: a pattern search in
    # (log|xi|, log lambda) on its direction, by pencil.zoom on the negated
    # ratio (its first least value is the ratio's first largest), with at
    # most the box scan's nodes per call.  The direction is the first that
    # attains the maximum in its column.
    i = int(np.argmax(best))
    c_val, point = best[i], (xa_col[i], lam_col[i])
    if point[0] > 0.0:
        xa, lam = xa_col[i:i + 1], lam_col[i:i + 1]
        _, block = next(symbol_blocks(table, xa, lam))
        row = table[int(np.argmax(ratio(np.abs(block[0]), xa, lam)))]
        top, parts = len(row) - 1, [(j, a) for j, a in enumerate(row) if a]

        def least(xa, lam):
            """|A| on the direction of `row`, bit for bit the column_least
            of the one-row table: its nonzero parts' products, each
            rounded once as symbol_blocks rounds them, summed from zeros
            in j order (|.| is never -0.0, so column_least's + 0.0 is
            a no-op here)."""
            total = np.zeros(len(xa))
            for j, a in parts:
                total = total + xa ** j * lam ** (top - j) * a
            return np.abs(total)

        # The grid's box and spacing, past |xi| = 0; geomspace keeps its ends.
        lo, hi = np.array([[xi_grid[1], lam_grid[0]], [xi_grid[-1], lam_grid[-1]]])
        cells = np.array([len(xi_grid) - 2, len(lam_grid) - 1])
        stencil = np.mgrid[-ZOOM:ZOOM + 1, -ZOOM:ZOOM + 1].reshape(2, -1).T

        def evaluate(point, steps):
            nodes = np.exp(np.log(point) + steps[:, None, :] * stencil).reshape(-1, 2)
            np.maximum(nodes, lo, out=nodes)
            xa, lam = np.minimum(nodes, hi, out=nodes).T
            return nodes, -ratio(least(xa, lam), xa, lam)

        point, c_val = zoom(evaluate, np.array(point), -c_val,
                            np.log(hi / lo) / cells / ZOOM,
                            len(dirs) * len(xa_col) // len(stencil))
        c_val = -c_val
    rep.extras["C_point"] = [float(point[0]), float(point[1])]
    rep.extras["C"] = float(c_val)
    return rep


def homogeneous_energy_weight(p: Pencil) -> HomogeneousWeight:
    """Homogeneous weight of the energy polygon: |xi|^mu (lambda+|xi|)^(m-mu)."""
    np_ = build_polygon({(p.m, 0), (p.mu, p.m - p.mu)})
    return HomogeneousWeight(weights.from_polygon(np_).factors)


def sweep_halfspace_ratio(p: Pencil, density: int, scan: NormScan) -> SweepReport:
    """Derivative norms against ratios of shifted homogeneous weights on the
    unit slice; `scan` as in sweep_theorem41."""
    phi = homogeneous_energy_weight(p)

    def table(xa, lam):
        shifted = lambda s: weights.xi_product_eval(weights.shift(phi, s), xa, lam)
        num = {j: shifted(Fraction(2 * j - 1, 2)) for j in range(1, p.m + 1)}
        den = {l: shifted(l) for l in range(p.m + 1)}
        return {(j, l): num[j] / den[l] for j in num for l in den}

    return _norm_report("halfspace", p, density, scan, table)


# ---------------------------------------------------------------------------
# suite orchestration

SUITES = ("polygon", "trace", "thm41", "asymptotics", "prop52", "halfspace")
# The refinement_drift at which a passing suite becomes "unstable".
REFINEMENT_DRIFT_LIMIT = 0.05


def run_suites(names, p: Pencil, density: int = 1, lambda0: float = 1.0,
               decades: int = 3) -> dict:
    """Run the named suites in order, with default desk-scale grids, and
    return {name: report}.

    lambda0 and decades reach only polygon, trace and prop52.  Each
    report's runtime is the wall time of its suite here.  thm41 and
    halfspace read one unit-slice scan (norm_scan), made within the timing
    and error handling of the first of them to run, so that report's
    runtime carries it; nothing is kept after the call (run_refined hands
    the scan and asymptotics' groupings to its second pass).  Raises
    OutOfRangeError, naming the suite and where it ran, when the lambda
    range overflows or the suite's float64 arithmetic overflows, divides
    by zero or makes a NaN: its verdict would rest on infinities.  For
    polygon, trace and prop52 that message ends with the pencil's
    coeff_scale.  Any other PencilabError a suite raises is raised again
    as the same type with the suite's name in front of its message.  The
    first suite in `names` to fail raises.
    """
    return _run_pass(names, p, density, lambda0, decades)[0]


def run_refined(names, p: Pencil, density: int = 1, lambda0: float = 1.0,
                decades: int = 3) -> tuple[dict, dict]:
    """run_suites, then each suite that passes again at twice the density:
    ({name: report}, {name: refined report}).

    A passing report takes the extra refinement_drift, drift_between it and
    its refinement, and the verdict "unstable" when that drift is
    REFINEMENT_DRIFT_LIMIT or more.  A refined report holds what
    drift_between compares and may lack the rest: polygon's has its records
    alone, without the binomial and side-scaling checks, and prop52's its
    records and C, without the Lemma 2.1 check; the other suites run in
    full.  The refined unit-slice scan extends the first pass's, and the
    refined asymptotics groups only the lambdas that the first pass's
    groupings lack; this call hands both over (the `coarse` of norm_scan
    and of _asymptotics_groupings) and keeps them no longer.
    Errors are raised as in run_suites, the refined pass's after every
    suite has run once; a check that the refined pass skips raises none.
    """
    reports, shared = _run_pass(names, p, density, lambda0, decades)
    passed = [name for name, rep in reports.items() if rep.verdict == "pass"]
    refined = _run_pass(passed, p, 2 * density, lambda0, decades,
                        refined=True, coarse=shared)[0]
    for name, fine in refined.items():
        rep = reports[name]
        drift = rep.extras["refinement_drift"] = drift_between(rep, fine)
        if drift >= REFINEMENT_DRIFT_LIMIT:
            rep.verdict = "unstable"
    return reports, refined


class _Shared(NamedTuple):
    """What a pass of the suites computes for more than one suite or for
    its refinement: thm41's and halfspace's unit-slice scan, and
    asymptotics' groupings by lambda; None where no suite made them."""
    scan: NormScan | None = None
    groupings: dict | None = None


def _run_pass(names, p: Pencil, density: int, lambda0: float, decades: int,
              refined: bool = False, coarse: _Shared = _Shared()) -> tuple:
    """The suites' reports and what they share, as run_suites and
    run_refined describe them; `coarse`, the first pass's, refines."""
    try:
        lam_max = lambda0 * 10.0 ** decades
    except OverflowError:
        lam_max = math.inf
    shared, reports = _Shared(), {}
    for name in names:
        unit_slice = name in ("thm41", "halfspace", "asymptotics")
        where = ("the unit slice" if unit_slice
                 else f"lambda in [{lambda0:g}, {lam_max:g}]")
        if math.isinf(lam_max) and not unit_slice:
            raise OutOfRangeError(f"suite {name}: {where} overflows float64")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                t0 = time.perf_counter()
                if shared.scan is None and name in ("thm41", "halfspace"):
                    shared = shared._replace(scan=norm_scan(p, density, coarse.scan))
                if name == "asymptotics":
                    shared = shared._replace(groupings=_asymptotics_groupings(
                        p, density, coarse.groupings))
                rep = reports[name] = _dispatch(name, p, density, lambda0, lam_max,
                                                shared, refined)
                rep.runtime = time.perf_counter() - t0
        except FloatingPointError as exc:
            # Large coefficients overflow too, so a range's error names them.
            scale = "" if unit_slice else f"; |coefficients| sum to {p.coeff_scale:g}"
            raise OutOfRangeError(f"suite {name}: float64 fails on {where} "
                                  f"({exc}){scale}") from exc
        except PencilabError as exc:
            raise type(exc)(f"suite {name}: {exc}") from exc
    return reports, shared


def _dispatch(name: str, p: Pencil, density: int, lambda0: float,
              lam_max: float, shared: _Shared, refined: bool) -> SweepReport:
    if name == "polygon":
        np_ = build_polygon(p.exponent_points())
        if refined:
            return _polygon_box(np_, density, lambda0, lam_max)[0]
        return sweep_polygon_equivalence(np_, density=density, lambda0=lambda0,
                                         lam_max=lam_max)
    if name == "trace":
        w = weights.from_polygon(build_polygon(p.exponent_points()))
        return sweep_trace_equivalence(w, density=density, lambda0=lambda0,
                                       lam_max=lam_max)
    if name == "thm41":
        return sweep_theorem41(p, density=density, scan=shared.scan)
    if name == "asymptotics":
        return _asymptotics_report(p, density, shared.groupings)
    if name == "prop52":
        sweep = _multiplier_constant if refined else sweep_multiplier_rn
        return sweep(p, lambda0, density, lam_max)
    if name == "halfspace":
        return sweep_halfspace_ratio(p, density=density, scan=shared.scan)
    raise PencilabError(f"unknown suite {name!r}")


def _fitted_slopes(rep: SweepReport) -> dict:
    """An asymptotics report's fitted slopes by name."""
    slopes = {key: fit["slope"] for key, fit in rep.extras["split_fits"].items()}
    if rep.extras["puiseux_slope"] is not None:
        slopes["puiseux"] = rep.extras["puiseux_slope"]
    return slopes


def drift_between(r1: SweepReport, r2: SweepReport) -> float:
    """Relative change of the reported constant (prop52) or max ratio (inf
    from 0 to anything else); for asymptotics, whose verdict rests on
    slopes, the largest absolute change of a fitted slope (inf if the two
    fit different slopes)."""
    if r1.suite == "asymptotics":
        s1, s2 = _fitted_slopes(r1), _fitted_slopes(r2)
        if s1.keys() != s2.keys():
            return math.inf
        return max((abs(s2[k] - s1[k]) for k in s1), default=0.0)
    c1 = r1.extras["C"] if "C" in r1.extras else r1.max_ratio
    c2 = r2.extras["C"] if "C" in r2.extras else r2.max_ratio
    if c1 == 0.0:
        return 0.0 if c2 == 0.0 else math.inf
    return abs(c2 - c1) / abs(c1)


def refinement_drift(name: str, p: Pencil, density: int = 1, **kw) -> tuple:
    """(report, refined report, drift) of one suite from run_refined; for a
    suite that does not pass, (report, None, nan)."""
    reports, refined = run_refined([name], p, density, **kw)
    r1 = reports[name]
    return r1, refined.get(name), r1.extras.get("refinement_drift", math.nan)
