"""Independent references and helpers that only the tests use.

The oracles here check pencilab's results by a second route: the half-line
solutions by contour quadrature and by their ODE residual, polygon
membership by the side inequalities, and the verify CSVs by a per-row
'%.17g' writer.  `pencil_to_dict` writes the pencil files that the
command-line tests read, and `PENCILS` holds the pencil files that tests
and CI share, `SIGN_CHANGING` among them; `BENCHMARK_PENCILS` holds the
benchmark's, and `VERIFY_PENCILS` names the nine that CI verifies.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from pencilab.halfline import ExpPolySolution, ExpPolyTerm, _deriv_once, mj, vieta
from pencilab.pencil import Pencil, cluster_roots
from pencilab.polygon import NewtonPolygon

CONTOUR_NODES = 256

# Pencil files that the tests and CI share, and the benchmark's own.
PENCILS = Path(__file__).resolve().parent / "pencils"
BENCHMARK_PENCILS = Path(__file__).resolve().parents[1] / "perfbench" / "pencils"

# The nine pencils that CI runs `verify --suite all --check-refinement` on,
# by file stem, and their files: the first five are the benchmark's.
VERIFY_PENCILS = ("e1", "agmon", "e1_n3", "double", "near", "n1", "m3", "e1_n4", "cplx")
VERIFY_PENCIL_FILES = [(BENCHMARK_PENCILS if k < 5 else PENCILS) / f"{name}.json"
                       for k, name in enumerate(VERIFY_PENCILS)]

# Real pencils whose symbol changes sign on the slice (ROADMAP D16), by
# test id: |xi|^2 - 2 lambda^2, |xi|^2 - lambda^2, |xi|^2 - 3 lambda^2 with
# n = 3, and e1 with its A_2 negated, |xi|^2 (|xi|^2 - lambda^2).  The zero
# of |xi|^2 - lambda^2 lies on a node of the odd grids only.
SIGN_CHANGING = {name: PENCILS / f"{stem}.json" for name, stem in (
    ("xi2-2lam2", "sign"), ("xi2-lam2", "sign_lam2"),
    ("xi2-3lam2-n3", "sign_n3"), ("e1-negated-A2", "sign_e1"))}


def contour_eval(sol: ExpPolySolution, l: int, t: float) -> complex:
    """Independent contour-quadrature evaluation of D_t^l w_j(t).

    Trapezoid rule with CONTOUR_NODES points on each of a union of circles,
    one per root cluster; small circles keep |e^{izt}| moderate on the
    contour, which preserves relative accuracy.  Serves as an oracle for
    the residue construction.
    """
    a = vieta(sol.roots)
    mj_desc = mj(a, sol.j)
    clusters = cluster_roots(sol.roots)
    centers = np.array([c for c, _ in clusters])
    theta = 2.0 * np.pi * (np.arange(CONTOUR_NODES) + 0.5) / CONTOUR_NODES
    out = 0j
    for i, center in enumerate(centers):
        others = np.delete(centers, i)
        gap = np.min(np.abs(others - center)) if others.size else np.inf
        # non-overlapping circles: nearest foreign pole stays 0.55*gap away
        radius = max(min(0.45 * gap, 0.5), 1e-6)
        z = center + radius * np.exp(1j * theta)
        dz = 1j * radius * np.exp(1j * theta)
        vals = (z ** l * np.polyval(mj_desc, z) * np.exp(1j * t * z)
                / np.polyval(a, z))
        out += np.sum(vals * dz) / (1j * CONTOUR_NODES)
    return complex(out)


def ode_residual(sol: ExpPolySolution, coeffs_asc) -> float:
    """Coefficientwise residual of A(xi', D_t, lambda) w_j = 0.

    Applies the tau-polynomial to each exponential-polynomial term and
    returns the largest resulting coefficient magnitude, relative to the
    polynomial scale.
    """
    coeffs_asc = np.asarray(coeffs_asc, dtype=complex)
    scale = np.max(np.abs(coeffs_asc))
    worst = 0.0
    for term in sol.terms:
        acc = np.zeros(len(term.poly), dtype=complex)
        work = [ExpPolyTerm(term.tau, term.poly)]
        for c in coeffs_asc:
            contrib = np.asarray(work[0].poly, dtype=complex)
            acc[: len(contrib)] += c * contrib
            work = _deriv_once(work)
        term_scale = scale * max(1.0, float(np.max(np.abs(term.poly))))
        worst = max(worst, float(np.max(np.abs(acc))) / term_scale)
    return worst


def contains(np_: NewtonPolygon, a, b) -> bool:
    """Whether (a, b) lies in the polygon, by its bounding box and the
    inequalities a + r b <= d of its non-horizontal sides."""
    a, b = Fraction(a), Fraction(b)
    if a < 0 or b < 0 or b > np_.k_max or a > np_.i_max:
        return False
    for s in np_.sides:
        if not s.is_horizontal and a + s.r * b > s.d:
            return False
    return True


def pencil_to_dict(p: Pencil) -> dict:
    """The pencil-file form of p, which pencil_from_dict reads back."""
    return {
        "n": p.n, "m": p.m, "mu": p.mu,
        "terms": [{"alpha": list(t.alpha), "j": t.j,
                   "re": t.coeff.real, "im": t.coeff.imag} for t in p.terms],
    }


def reference_csv(report) -> bytes:
    """The bytes verify.write_csv writes for a SweepReport, by the writer it
    replaced: one '%.17g' (or '%d' for j and l) format string per row,
    applied to the row's Python values, which formats every value anew."""
    cols = ("xi_prime_abs", "lambda", "j", "l", "lhs", "rhs", "ratio")
    present = [name for name in cols if name in report.records]
    row = ",".join([report.suite.replace("%", "%%")] + [
        "" if name not in present else "%d" if name in ("j", "l") else "%.17g"
        for name in cols]) + "\n"
    values = zip(*(report.records[name].tolist() for name in present))
    text = ",".join(("suite",) + cols) + "\n" + "".join([row % v for v in values])
    return text.encode()
