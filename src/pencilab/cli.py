"""Command line front end.

Subcommands analyze a pencil given as a JSON file (see the pencil module
for the schema) and the `verify` subcommand runs the certification sweeps,
writing one CSV per suite plus a JSON summary.  Each subcommand takes only
the options its handler reads (see SUBCOMMANDS).  Exit codes: 0 on success,
1 when a verification verdict is "fail", "indeterminate" or, under
--check-refinement, "unstable", 2 on usage errors (an option the subcommand
does not take among them) and on input, configuration or numerical errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import halfline, verify, weights
from .errors import PencilabError
from .pencil import (GridSpec, check_lemma21, check_regular_degeneration,
                     group_roots, load_pencil, poly_roots, q_polynomial,
                     tau_roots)
from .polygon import INF, build_polygon


def _c(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        print("\n".join(text_lines))


def _parse_point(args, n: int):
    # "" is the empty xi' of an n = 1 pencil.
    xi_prime = np.array([float(x) for x in args.xi_prime.split(",")]
                        if args.xi_prime else [])
    if xi_prime.shape != (n - 1,):
        raise PencilabError(
            f"--xi-prime needs {n - 1} comma-separated values for n={n}")
    return xi_prime, args.lam


def cmd_polygon(args) -> int:
    p = load_pencil(args.pencil)
    np_ = build_polygon(p.exponent_points())
    w = weights.from_polygon(np_, lambda0=args.lambda0)
    lines = ["vertices: " + ", ".join(f"({v[0]},{v[1]})" for v in np_.vertices)]
    for s in np_.sides:
        d = "-" if s.d is None else str(s.d)
        r = "inf" if s.r == INF else str(s.r)
        lines.append(f"side ({s.start[0]},{s.start[1]}) -> "
                     f"({s.end[0]},{s.end[1]}): r = {r}, d = {d}")
    lines.append("weight factors (r, m): " + ", ".join(
        f"({'inf' if r == INF else r}, {m})" for r, m in w.factors))
    _emit(args, {"vertices": [[str(v[0]), str(v[1])] for v in np_.vertices],
                 "sides": [{"r": "inf" if s.r == INF else str(s.r),
                            "d": None if s.d is None else str(s.d)}
                           for s in np_.sides],
                 "weight": w.to_json_dict()}, lines)
    return 0


def cmd_ellipticity(args) -> int:
    p = load_pencil(args.pencil)
    grid = GridSpec(angular=args.grid_angular, directions=args.grid_angular,
                    tol=args.tol)
    rep = check_lemma21(p, grid)
    lines = [
        f"condition (i)  [A_2m nonzero on sphere]:  {rep.cond_i} (min {rep.min_a2m:.3e})",
        f"condition (ii) [A_2mu nonzero on sphere]: {rep.cond_ii} (min {rep.min_a2mu:.3e})",
        f"condition (iii) [normalised symbol nonzero on slice]: {rep.cond_iii} "
        f"(min {rep.min_ratio:.3e}; raw min |A| {rep.min_abs:.3e})",
        f"N-elliptic with parameter: {rep.n_elliptic}",
        f"C_est = {rep.C_est:.6g}",
        f"witness (ii): xi = {np.array2string(rep.witness_ii, precision=6)}",
    ]
    _emit(args, {"cond_i": rep.cond_i, "cond_ii": rep.cond_ii,
                 "cond_iii": rep.cond_iii, "n_elliptic": rep.n_elliptic,
                 "C_est": rep.C_est, "min_a2m": rep.min_a2m,
                 "min_a2mu": rep.min_a2mu, "min_abs": rep.min_abs,
                 "min_ratio": rep.min_ratio,
                 "witness_ii": rep.witness_ii.tolist()}, lines)
    return 0 if rep.n_elliptic else 1


def cmd_degeneration(args) -> int:
    p = load_pencil(args.pencil)
    q = q_polynomial(p)
    res = check_regular_degeneration(p)
    verdict = {True: "YES", False: "NO", None: "INDETERMINATE"}[res.regular]
    lines = [
        "Q(tau) ascending coefficients: " + ", ".join(_c(c) for c in q),
        "upper roots: " + (", ".join(_c(r) for r in res.upper_roots) or "none"),
        f"regular degeneration: {verdict}; k1 = {res.k1}",
    ]
    _emit(args, {"q_coeffs": [[c.real, c.imag] for c in q],
                 "upper_roots": [[r.real, r.imag] for r in res.upper_roots],
                 "regular": res.regular, "k1": res.k1}, lines)
    return 0 if res.regular else 1


def cmd_roots(args) -> int:
    p = load_pencil(args.pencil)
    xi_prime, lam = _parse_point(args, p.n)
    rs = tau_roots(p, xi_prime, lam)
    g = group_roots(p, xi_prime, lam)
    lines = ["upper roots: " + ", ".join(_c(r) for r in rs.upper),
             "lower roots: " + ", ".join(_c(r) for r in rs.lower),
             "bounded group: " + ", ".join(
                 _c(g.upper_roots[i]) for i in g.group_bounded),
             "large group:   " + ", ".join(
                 _c(g.upper_roots[i]) for i in g.group_large),
             f"k1 = {g.k1}; ambiguous = {g.ambiguous}",
             "bounded residuals: " + ", ".join(f"{r:.3e}" for r in g.residual_bounded),
             "large residuals:   " + ", ".join(f"{r:.3e}" for r in g.residual_large)]
    _emit(args, {"upper": [[r.real, r.imag] for r in rs.upper],
                 "lower": [[r.real, r.imag] for r in rs.lower],
                 "group_bounded": list(g.group_bounded),
                 "group_large": list(g.group_large),
                 "residual_bounded": list(g.residual_bounded),
                 "residual_large": list(g.residual_large),
                 "k1": g.k1, "ambiguous": g.ambiguous}, lines)
    return 0


def cmd_solve(args) -> int:
    p = load_pencil(args.pencil)
    xi_prime, lam = _parse_point(args, p.n)
    upper = tau_roots(p, xi_prime, lam).upper
    ls = list(range(p.m + 1))
    norm_table = halfline.gramian_norms([upper], range(1, p.m + 1), ls)[0]
    payload = {}
    lines = []
    for sol in halfline.solve_from_roots(upper):
        payload[f"w{sol.j}"] = sol.to_json_dict()
        lines.append(f"w_{sol.j}: " + "; ".join(
            f"exp(i t {_c(t.tau)}) * poly{tuple(_c(c) for c in t.poly)}"
            for t in sol.terms))
        norms = dict(zip(ls, norm_table[sol.j - 1].tolist()))
        payload[f"w{sol.j}_norms"] = norms
        lines.append("    norms ||D^l w||, l=0..m: "
                     + ", ".join(f"{v:.9g}" for v in norms.values()))
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    p = load_pencil(args.pencil)
    suites = list(verify.SUITES) if args.suite == "all" else [args.suite]
    # Every suite runs before any verdict is written, so an error (exit 2)
    # leaves no partial report.
    reports = {}
    for name in suites:
        suite = functools.partial(verify.run_suite, name, p,
                                  lambda0=args.lambda0, decades=args.grid_decades)
        rep = reports[name] = suite(density=args.density)
        if args.check_refinement and rep.verdict == "pass":
            drift = verify.drift_between(rep, suite(density=2 * args.density))
            rep.extras["refinement_drift"] = drift
            if drift >= 0.05:
                rep.verdict = "unstable"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    worst = 0
    for name, rep in reports.items():
        verify.write_csv(rep, out / f"{name}.csv")
        s = summary[name] = rep.summary()
        print(f"{name:12s} {rep.verdict:8s} band [{s['min_ratio']:.6g}, "
              f"{s['max_ratio']:.6g}]  records={s['records']}")
        for reason in rep.reasons:
            print(f"    {reason}")
        if rep.verdict != "pass":
            worst = 1
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=str)
    print(f"reports written to {out}/")
    return worst


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"need a finite number > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return value


# Every option, and the options each subcommand takes: only those its
# handler reads.
OPTIONS = {
    "--lambda0": dict(type=_positive_float, default=1.0, help="lower end of "
                      "the spectral parameter ray (default 1.0)"),
    "--tol": dict(type=_positive_float, default=1e-6,
                  help="zero-detection tolerance (default 1e-6)"),
    "--grid-angular": dict(type=_positive_int, default=720, help="angular "
                           "grid points for compact-set checks (default 720)"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="machine output format; csv keeps the plain text "
                          "summary (default csv)"),
    "--xi-prime": dict(default="1.0", help="tangential frequency, comma "
                       "separated (default 1.0)"),
    "--lam": dict(type=float, default=10.0,
                  help="spectral parameter (default 10.0)"),
    "--suite": dict(default="all", choices=verify.SUITES + ("all",)),
    "--grid-decades": dict(type=_positive_int, default=3, help="lambda range "
                           "decades above lambda0 (default 3)"),
    "--density": dict(type=_positive_int, default=1,
                      help="grid density multiplier (default 1)"),
    "--out": dict(default="report", help="output directory for CSV/JSON "
                  "reports (default report/)"),
    "--check-refinement": dict(action="store_true", help="also rerun each "
                               "suite at 2x density and flag suites whose "
                               "max ratio drifts by 5%% or more"),
}
SUBCOMMANDS = (
    ("polygon", cmd_polygon, ("--lambda0", "--format")),
    ("ellipticity", cmd_ellipticity, ("--tol", "--grid-angular", "--format")),
    ("degeneration", cmd_degeneration, ("--format",)),
    ("roots", cmd_roots, ("--xi-prime", "--lam", "--format")),
    ("solve", cmd_solve, ("--xi-prime", "--lam", "--format")),
    ("verify", cmd_verify, ("--lambda0", "--suite", "--grid-decades",
                            "--density", "--out", "--check-refinement")),
)


# One parser per process: building one takes about 1.4 ms, and its
# reference cycles stay in memory until a full garbage collection, so
# rebuilding it on every in-process `run` grew the heap with each call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pencilab",
        description="Newton-polygon calculus for parameter-elliptic pencils: "
                    "polygon geometry, weights, roots, half-line solutions, "
                    "and numerical certification of the two-sided estimates.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, fn, options in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("pencil", help="pencil description (JSON)")
        for flag in options:
            sp.add_argument(flag, **OPTIONS[flag])
        sp.set_defaults(func=fn)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PencilabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
