"""Explicit solutions of the half-line Dirichlet problem.

For fixed tangential frequency and parameter the symbol becomes an
ordinary differential operator A(xi', D_t, lambda) in t > 0.  The decaying
solution with k-th boundary derivative delta_jk is a finite sum of
(polynomial in t) * exp(i tau t) over the upper roots tau; the coefficients
come from residues of M_j exp(i t tau) / A_+ at those roots.

`solve` and `l2_norm_deriv` work at one point.  `mesh_norms` gives the
same norms, bit for bit, on a whole (|xi'|, lambda) mesh at once with
array arithmetic; nodes whose upper roots cluster, or whose residue
construction misses the boundary data, still go through `solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pencil import (CLUSTER_TOL, Pencil, cluster_roots, mesh_upper_roots,
                     tau_roots)

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


# ---------------------------------------------------------------------------
# the whole (|xi'|, lambda) mesh at once
#
# mesh_norms repeats, on arrays over the nodes, the arithmetic that solve
# and l2_norm_deriv do for one node with separated upper roots, so that the
# two agree bit for bit.  Where that code uses numpy's array multiply (in
# Horner steps and D_t), so does this; where it uses numpy scalar or
# CPython complex products, which round all four real products, this
# writes them out in real arithmetic: on FMA hardware the array multiply
# fuses one product into the sum and can move the last bit.  np.convolve
# goes through a BLAS dot, whose partial sums start from 0.0 (`_dot`).

class MeshNorms(NamedTuple):
    values: np.ndarray   # ||D^l w_j|| by (|xi'|, lambda, j, l)
    pointwise: int       # nodes solved one at a time by `solve`
    fallbacks: int       # solutions among those with fallback=True


def _pack(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _scalar_mul(x, y) -> np.ndarray:
    """x * y as numpy scalars (and CPython) round it."""
    return _pack(x.real * y.real - x.imag * y.imag,
                 x.real * y.imag + x.imag * y.real)


def _dot(x0, y0, x1=None):
    """np.convolve's output x0*y0 (+ x1*1 when x1 is given) as a BLAS dot."""
    d = [0.0 + x0.real * y0.real, 0.0 + x0.imag * y0.imag,
         0.0 + x0.real * y0.imag, 0.0 + x0.imag * y0.real]
    if x1 is not None:
        d = [x1.real + d[0], d[1] + x1.imag * 0.0,
             d[2] + x1.real * 0.0, x1.imag + d[3]]
    return _pack(0.0 + (d[0] - d[1]), 0.0 + (d[2] + d[3]))


def _mesh_vieta(roots) -> list[np.ndarray]:
    """vieta(roots) for columns of roots: the coefficients a_0..a_m."""
    one = np.ones_like(roots[0])
    a = [one]
    for r in roots:
        if len(a) == 1:          # np.convolve swaps the shorter operand first
            a = [_dot(one, a[0]), _dot(-r, a[0])]
        else:
            a = ([_dot(a[0], one)]
                 + [_dot(a[i - 1], -r, a[i]) for i in range(1, len(a))]
                 + [_dot(a[-1], -r)])
    return a


def _mesh_horner(coeffs, x) -> np.ndarray:
    """np.polyval(coeffs, x) / 1.0 as _poly_taylor takes it, descending coeffs."""
    y = np.zeros_like(x)
    for c in coeffs:
        y = y * x + c
    return y / 1.0


def _separated(upper: np.ndarray) -> np.ndarray:
    """Nodes where cluster_roots(upper) would return only singletons."""
    ok = np.ones(upper.shape[0], dtype=bool)
    for i in range(upper.shape[1]):
        center = upper[:, i] / 1            # np.mean of one root
        for k in range(i + 1, upper.shape[1]):
            gap = upper[:, k] - center
            ok &= (np.hypot(gap.real, gap.imag)
                   > CLUSTER_TOL * (1.0 + np.hypot(center.real, center.imag)))
    return ok


def _mesh_terms(upper: np.ndarray, j_list, l_max: int):
    """Residue coefficients of each w_j at the separated roots upper[:, k],
    as _residue_terms computes them, and the largest boundary defect.

    Returns (taus, derivs, defect): derivs[j][k] lists the coefficients of
    D_t^q w_j at tau_k for q <= max(l_max, m - 1), each one tau * (the
    previous) as _deriv_once forms it.
    """
    m = upper.shape[1]
    a = _mesh_vieta([upper[:, k] for k in range(m)])
    taus = [upper[:, k] / 1 for k in range(m)]          # np.mean of one root
    # 1 / (tau_k - tau_o), the series inverse of vieta([tau_o]) at tau_k
    inverse = {(k, o): 1.0 / _mesh_horner(_mesh_vieta([taus[o]]), taus[k])
               for k in range(m) for o in range(m) if o != k}
    derivs, defect = {}, np.zeros(upper.shape[0])
    for j in j_list:
        derivs[j] = []
        for k in range(m):
            series = _mesh_horner(a[: m - j + 1], taus[k])
            for o in range(m):
                if o != k:
                    series = _dot(series, inverse[k, o])
            d = [_scalar_mul(series, np.complex128(1.0)) / 1]   # * 1j**0 / 0!
            while len(d) <= max(l_max, m - 1):
                d.append(taus[k] * d[-1])
            derivs[j].append(d)
        # D_t^q w_j(0) sums the coefficients times e^0, a factor that can
        # only flip the sign of a zero part and so leaves |.| unchanged.
        for q in range(m):
            value = 0j
            for k in range(m):
                value = value + derivs[j][k][q]
            value = value - (1.0 if q + 1 == j else 0.0)
            defect = np.maximum(defect, np.hypot(value.real, value.imag))
    return taus, derivs, defect


def _mesh_gram(taus, derivs, l: int) -> np.ndarray:
    """The sum under the square root of l2_norm_deriv for simple roots."""
    total = 0j
    for ta, da in zip(taus, derivs):
        for tb, db in zip(taus, derivs):
            c = _scalar_mul(np.complex128(-1j), ta - np.conj(tb))
            prod = _scalar_mul(da[l], np.conj(db[l]))
            prod = _scalar_mul(prod, np.complex128(1.0))      # * 0!
            total = total + prod / c
    return total.real


def mesh_norms(p: Pencil, xi_abs, lam, j_list, l_list) -> MeshNorms:
    """||D^l w_j|| at xi' = (|xi'|, 0, ..., 0) on the mesh xi_abs x lam,
    equal to l2_norm_deriv(solve(p, xi', lambda)[j - 1], l) bit for bit.

    Nodes with separated upper roots whose residue construction meets the
    boundary tolerance are solved together.  Every other node (clustered
    roots, the boundary-defect fallback, or roots that tau_roots rejects)
    goes through `solve`, in (|xi'|, lambda) order, so that an error is
    raised at the same node as a loop over `solve` would raise it.
    """
    xi_abs, lam = np.asarray(xi_abs, dtype=float), np.asarray(lam, dtype=float)
    upper, ok = mesh_upper_roots(p, xi_abs, lam)
    upper, ok = upper.reshape(-1, p.m), ok.ravel()
    nodes = np.flatnonzero(ok)
    nodes = nodes[_separated(upper[nodes])]
    taus, derivs, defect = _mesh_terms(upper[nodes], j_list, max(l_list))
    accept = defect <= 1e-8
    norms = np.empty((len(nodes), len(j_list), len(l_list)))
    for ji, j in enumerate(j_list):
        for li, l in enumerate(l_list):
            total = _mesh_gram(taus, derivs[j], l)
            # max(total, 0.0) as Python takes it, which keeps -0.0 and NaN
            norms[:, ji, li] = np.sqrt(np.where(total < 0.0, 0.0, total))
    values = np.empty((ok.size, len(j_list), len(l_list)))
    values[nodes[accept]] = norms[accept]
    rest = np.ones(ok.size, dtype=bool)
    rest[nodes[accept]] = False
    fallbacks = 0
    xi_prime = np.zeros(p.n - 1)
    for node in np.flatnonzero(rest):
        a, b = divmod(int(node), len(lam))
        xi_prime[0] = xi_abs[a]
        sols = solve(p, xi_prime, lam[b])
        for ji, j in enumerate(j_list):
            fallbacks += sols[j - 1].fallback
            for li, l in enumerate(l_list):
                values[node, ji, li] = l2_norm_deriv(sols[j - 1], l)
    return MeshNorms(values.reshape(len(xi_abs), len(lam), len(j_list), len(l_list)),
                     int(np.count_nonzero(rest)), fallbacks)


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
