"""Explicit solutions of the half-line Dirichlet problem.

For fixed tangential frequency and parameter the symbol becomes an
ordinary differential operator A(xi', D_t, lambda) in t > 0.  The decaying
solution with k-th boundary derivative delta_jk is a finite sum of
(polynomial in t) * exp(i tau t) over the upper roots tau; the coefficients
come from residues of M_j exp(i t tau) / A_+ at those roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pencil import Pencil, cluster_roots, tau_roots

MAX_RESIDUE_MULTIPLICITY = 4


@dataclass(frozen=True)
class ExpPolyTerm:
    tau: complex
    poly: tuple[complex, ...]   # ascending coefficients in t


@dataclass(frozen=True)
class ExpPolySolution:
    j: int
    terms: tuple[ExpPolyTerm, ...]
    roots: tuple[complex, ...]
    vieta: tuple[complex, ...]
    fallback: bool = False      # residue construction replaced by boundary solve

    def to_json_dict(self) -> dict:
        return {"terms": [{"tau": [t.tau.real, t.tau.imag],
                           "poly": [[c.real, c.imag] for c in t.poly]}
                          for t in self.terms]}


def vieta(upper_roots) -> np.ndarray:
    """Descending coefficients a_0..a_m of prod (tau - tau_k), a_0 = 1.

    a_k is the coefficient of tau^(m-k) and equals the k-th signed
    elementary symmetric function of the roots.
    """
    a = np.array([1.0 + 0j])
    for r in upper_roots:
        a = np.convolve(a, np.array([1.0, -r]))
    return a


def mj(a: np.ndarray, j: int) -> np.ndarray:
    """Descending coefficients of M_j(tau) = sum_{k<=m-j} a_k tau^(m-j-k)."""
    m = len(a) - 1
    if not 1 <= j <= m:
        raise ValueError(f"need 1 <= j <= {m}, got {j}")
    return np.asarray(a[: m - j + 1], dtype=complex)


def _series_inverse(c: np.ndarray, order: int) -> np.ndarray:
    """Truncated power-series inverse of c (ascending, c[0] != 0)."""
    inv = np.zeros(order, dtype=complex)
    inv[0] = 1.0 / c[0]
    for q in range(1, order):
        s = 0j
        for t in range(1, min(q, len(c) - 1) + 1):
            s += c[t] * inv[q - t]
        inv[q] = -s / c[0]
    return inv


def _poly_taylor(coeffs_desc: np.ndarray, center: complex, order: int) -> np.ndarray:
    """First `order` Taylor coefficients of a polynomial about `center`."""
    asc = np.asarray(coeffs_desc, dtype=complex)[::-1].copy()
    out = np.zeros(order, dtype=complex)
    fact = 1.0
    for q in range(order):
        if q > 0:
            asc = asc[1:] * np.arange(1, len(asc))
            fact *= q
        out[q] = (np.polyval(asc[::-1], center) / fact) if len(asc) else 0.0
    return out


def _residue_terms(mj_desc: np.ndarray, clusters) -> list[ExpPolyTerm]:
    """Residues of M_j e^{i t tau} / prod (tau - c)^p at each cluster.

    Writing the regular factor g(tau) = M_j(tau) / prod_{other}(tau - c')^p'
    as a series sum g_q (tau - c)^q, the residue at a cluster of size p is
    e^{i t c} sum_{d<p} g_{p-1-d} (i t)^d / d!.
    """
    terms = []
    for idx, (center, members) in enumerate(clusters):
        p = len(members)
        series = _poly_taylor(mj_desc, center, p)
        for other, (oc, om) in enumerate(clusters):
            if other == idx:
                continue
            # series of (tau - oc)^len(om) about center, then divide
            base = np.zeros(p, dtype=complex)
            shifted = _poly_taylor(vieta([oc] * len(om)), center, p)
            base[: len(shifted)] = shifted
            series = np.convolve(series, _series_inverse(base, p))[:p]
        poly = [series[p - 1 - d] * (1j) ** d / math.factorial(d)
                for d in range(p)]
        terms.append(ExpPolyTerm(tau=complex(center), poly=tuple(poly)))
    return terms


def _boundary_matrix(terms) -> np.ndarray:
    """Rows k: D_t^(k-1) applied to each basis function t^q e^{i tau t} at 0."""
    cols = [(t.tau, q) for t in terms for q in range(len(t.poly))]
    m = len(cols)
    mat = np.zeros((m, m), dtype=complex)
    for col, (tau, q) in enumerate(cols):
        basis = [ExpPolyTerm(tau, tuple(0j if i != q else 1.0 + 0j
                                        for i in range(q + 1)))]
        for k in range(m):
            mat[k, col] = eval_deriv_terms(basis, k, 0.0)
    return mat


def solve_from_roots(upper_roots):
    """Solutions w_1..w_m for the given upper roots (with multiplicity).

    If the residue construction loses boundary accuracy (ill-conditioned
    clusters) the coefficients are recomputed from the confluent boundary
    system and the solution is flagged.  A_+ divides the full symbol, so
    the solutions satisfy its ODE either way (see `ode_residual`).
    """
    upper_roots = list(upper_roots)
    m = len(upper_roots)
    a = vieta(upper_roots)
    clusters = cluster_roots(np.array(upper_roots))
    big = max((len(members) for _, members in clusters), default=0)
    sols = []
    for j in range(1, m + 1):
        if big > MAX_RESIDUE_MULTIPLICITY:
            sol = _boundary_solve(j, clusters, upper_roots, a)
        else:
            terms = tuple(_residue_terms(mj(a, j), clusters))
            sol = ExpPolySolution(j=j, terms=terms, roots=tuple(upper_roots),
                                  vieta=tuple(a))
            if boundary_defect(sol) > 1e-8:
                sol = _boundary_solve(j, clusters, upper_roots, a)
        sols.append(sol)
    return sols


def _boundary_solve(j, clusters, upper_roots, a) -> ExpPolySolution:
    """Fallback: solve the confluent boundary interpolation system directly."""
    proto = [ExpPolyTerm(c, tuple(0j for _ in members))
             for c, members in clusters]
    mat = _boundary_matrix(proto)
    rhs = np.zeros(len(upper_roots), dtype=complex)
    rhs[j - 1] = 1.0
    coef = np.linalg.solve(mat, rhs)
    terms = []
    pos = 0
    for center, members in clusters:
        p = len(members)
        terms.append(ExpPolyTerm(complex(center), tuple(coef[pos: pos + p])))
        pos += p
    return ExpPolySolution(j=j, terms=tuple(terms), roots=tuple(upper_roots),
                           vieta=tuple(a), fallback=True)


def solve(p: Pencil, xi_prime, lam: float):
    """The m half-line Dirichlet solutions of the pencil at (xi', lambda)."""
    return solve_from_roots(tau_roots(p, xi_prime, lam).upper)


# ---------------------------------------------------------------------------
# evaluation, derivatives, norms

def _deriv_once(terms):
    """Apply D_t = -i d/dt to a term list."""
    out = []
    for t in terms:
        poly = np.asarray(t.poly, dtype=complex)
        dpoly = poly[1:] * np.arange(1, len(poly)) if len(poly) > 1 else np.zeros(0)
        new = t.tau * poly
        new[: len(dpoly)] += -1j * dpoly
        out.append(ExpPolyTerm(t.tau, tuple(new)))
    return out


def deriv_terms(terms, l: int):
    terms = list(terms)
    for _ in range(l):
        terms = _deriv_once(terms)
    return terms


def eval_deriv_terms(terms, l: int, t: float) -> complex:
    out = 0j
    for term in deriv_terms(terms, l):
        out += np.polyval(np.asarray(term.poly)[::-1], t) * np.exp(1j * term.tau * t)
    return out


def eval_deriv(sol: ExpPolySolution, l: int, t: float) -> complex:
    """D_t^l w_j(t), exact on the exponential-polynomial form."""
    return eval_deriv_terms(sol.terms, l, t)


def boundary_defect(sol: ExpPolySolution) -> float:
    """max_k |D_t^(k-1) w_j(0) - delta_jk| over k = 1..m."""
    m = len(sol.roots)
    return max(abs(eval_deriv(sol, k - 1, 0.0) - (1.0 if k == sol.j else 0.0))
               for k in range(1, m + 1))


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


def l2_norm_deriv(sol: ExpPolySolution, l: int) -> float:
    """Exact L2(0, inf) norm of D_t^l w_j via the Gram formula.

    Uses int_0^inf t^p e^{-ct} dt = p! / c^(p+1) with c = -i(tau_a -
    conj(tau_b)); Re c > 0 since all tau lie in the upper half-plane.
    """
    terms = deriv_terms(sol.terms, l)
    total = 0j
    for ta in terms:
        for tb in terms:
            c = -1j * (ta.tau - np.conj(tb.tau))
            for pa, ca in enumerate(ta.poly):
                for pb, cb in enumerate(tb.poly):
                    total += (ca * np.conj(cb)
                              * math.factorial(pa + pb) / c ** (pa + pb + 1))
    return math.sqrt(max(total.real, 0.0))


def contour_eval(sol: ExpPolySolution, l: int, t: float,
                 nodes: int = 256) -> complex:
    """Independent contour-quadrature evaluation of D_t^l w_j(t).

    Trapezoid rule on a union of circles, one per root cluster; small
    circles keep |e^{izt}| moderate on the contour, which preserves
    relative accuracy.  Serves as an oracle for the residue construction.
    """
    a = np.asarray(sol.vieta, dtype=complex)
    mj_desc = mj(a, sol.j)
    clusters = cluster_roots(np.array(sol.roots))
    centers = np.array([c for c, _ in clusters])
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
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
        out += np.sum(vals * dz) / (1j * nodes)
    return complex(out)


def split_by_group(sol: ExpPolySolution, grouping):
    """Residue subtotals over the bounded and large root groups.

    Each term is attached to the group of its nearest upper root; the two
    parts sum to the original solution termwise.
    """
    upper = np.array(grouping.upper_roots)
    part1, part2 = [], []
    for term in sol.terms:
        idx = int(np.argmin(np.abs(upper - term.tau)))
        (part1 if idx in grouping.group_bounded else part2).append(term)
    mk = lambda ts: ExpPolySolution(j=sol.j, terms=tuple(ts), roots=sol.roots,
                                    vieta=sol.vieta, fallback=sol.fallback)
    return mk(part1), mk(part2)


def homogeneity_check(p: Pencil, xi_prime, lam: float, r: float,
                      j: int, l: int) -> tuple[float, float]:
    """Norm identity under the scaling tau -> r tau.

    Returns (lhs, rhs) with lhs = ||D^l w_j(xi', ., lambda)|| and
    rhs = r^(1/2 - j + l) ||D^l w_j(xi'/r, ., lambda/r)||, recomputed at the
    scaled point; the two agree for exact arithmetic.
    """
    xi_prime = np.asarray(xi_prime, dtype=float)
    lhs = l2_norm_deriv(solve(p, xi_prime, lam)[j - 1], l)
    scaled = l2_norm_deriv(solve(p, xi_prime / r, lam / r)[j - 1], l)
    return lhs, r ** (0.5 - j + l) * scaled
