"""Explicit solutions of the half-line Dirichlet problem.

For fixed tangential frequency and parameter the symbol becomes an
ordinary differential operator A(xi', D_t, lambda) in t > 0.  The decaying
solution with k-th boundary derivative delta_jk is a finite sum of
(polynomial in t) * exp(i tau t) over the upper roots tau; the coefficients
come from residues of M_j exp(i t tau) / A_+ at those roots, and a root of
multiplicity p gives a polynomial of degree p - 1.  A computed double root
splits by about sqrt(eps); residues at two poles a relative gap g apart
cost about eps / g^2 of the norm, while merging them at their mean perturbs
A_+ by (g/2)^2.  The two balance near eps^(1/4), so roots closer than
MERGE_TOL = 1e-4 (relative) are merged.

`solve` gives that form at one point; `l2_norm_deriv` takes norms of it or
of its `split_by_group` parts.  They work on a few coefficients at a time,
in Python complex arithmetic, where numpy's per-call cost would exceed the
work.  Norms of full solutions, at any number of nodes, come from the
Lyapunov Gramian instead (`gramian_norms`), which needs only the symmetric
functions of the roots; `mesh_norms` applies it to a (|xi'|, lambda) mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .pencil import Pencil, cluster_roots, mesh_upper_roots, tau_roots

MERGE_TOL = 1e-4


@dataclass(frozen=True)
class ExpPolyTerm:
    tau: complex
    poly: tuple[complex, ...]   # ascending coefficients in t


@dataclass(frozen=True)
class ExpPolySolution:
    j: int
    terms: tuple[ExpPolyTerm, ...]
    roots: tuple[complex, ...]
    fallback: bool = False      # always False; read by perfbench/tracer.py

    def to_json_dict(self) -> dict:
        return {"terms": [{"tau": [t.tau.real, t.tau.imag],
                           "poly": [[c.real, c.imag] for c in t.poly]}
                          for t in self.terms]}


def vieta(upper_roots) -> list[complex]:
    """Descending coefficients a_0..a_m of prod (tau - tau_k), a_0 = 1.

    a_k is the coefficient of tau^(m-k) and equals the k-th signed
    elementary symmetric function of the roots.
    """
    a = [1.0 + 0j]
    for r in upper_roots:
        a = [x - r * y for x, y in zip(a + [0j], [0j] + a)]
    return a


def mj(a, j: int):
    """Descending coefficients of M_j(tau) = sum_{k<=m-j} a_k tau^(m-j-k)."""
    m = len(a) - 1
    if not 1 <= j <= m:
        raise ValueError(f"need 1 <= j <= {m}, got {j}")
    return a[: m - j + 1]


def _series_inverse(c, order: int) -> list[complex]:
    """Truncated power-series inverse of c (ascending, c[0] != 0)."""
    inv = [1.0 / c[0]]
    for q in range(1, order):
        s = 0j
        for t in range(1, min(q, len(c) - 1) + 1):
            s += c[t] * inv[q - t]
        inv.append(-s / c[0])
    return inv


def _poly_taylor(coeffs_desc, center: complex, order: int) -> list[complex]:
    """First `order` Taylor coefficients of a polynomial about `center`: the
    remainders of repeated synthetic division by (tau - center)."""
    work, out = list(coeffs_desc), []
    for _ in range(order):
        acc, quotient = 0j, []
        for c in work:
            acc = acc * center + c
            quotient.append(acc)
        out.append(quotient.pop() if quotient else 0j)
        work = quotient
    return out


def _residue_terms(mj_desc, clusters) -> list[ExpPolyTerm]:
    """Residues of M_j e^{i t tau} / prod (tau - c)^p at each cluster.

    Writing the regular factor g(tau) = M_j(tau) / prod_{other}(tau - c')^p'
    as a series sum g_q (tau - c)^q, the residue at a cluster of size p is
    e^{i t c} sum_{d<p} g_{p-1-d} (i t)^d / d!.  Each (tau - c')^p' is
    ((tau - c) + (c - c'))^p' expanded by the binomial theorem.
    """
    terms = []
    for idx, (center, members) in enumerate(clusters):
        p = len(members)
        series = _poly_taylor(mj_desc, center, p)
        for other, (oc, om) in enumerate(clusters):
            if other == idx:
                continue
            gap, k = center - oc, len(om)
            inv = _series_inverse([math.comb(k, q) * gap ** (k - q)
                                   for q in range(min(k, p - 1) + 1)], p)
            series = [sum(series[i] * inv[q - i] for i in range(q + 1))
                      for q in range(p)]
        poly = [series[p - 1 - d] * (1j) ** d / math.factorial(d)
                for d in range(p)]
        terms.append(ExpPolyTerm(tau=center, poly=tuple(poly)))
    return terms


def solve_from_roots(upper_roots):
    """Solutions w_1..w_m for the given upper roots (with multiplicity).

    Roots within MERGE_TOL * |c| of a cluster's running mean c are merged
    at c, and w_j is the residue sum with A_+ and M_j built from the merged
    roots: it meets its boundary data to rounding and, as A_+ divides the
    full symbol, its ODE (see `ode_residual`) to the merge's (g/2)^2.
    `roots` keeps the given roots.
    """
    upper_roots = [complex(r) for r in upper_roots]
    clusters = cluster_roots(upper_roots, MERGE_TOL)
    a = vieta([c for c, members in clusters for _ in members])
    return [ExpPolySolution(j=j, terms=tuple(_residue_terms(mj(a, j), clusters)),
                            roots=tuple(upper_roots))
            for j in range(1, len(upper_roots) + 1)]


def solve(p: Pencil, xi_prime, lam: float):
    """The m half-line Dirichlet solutions of the pencil at (xi', lambda)."""
    return solve_from_roots(tau_roots(p, xi_prime, lam).upper)


# ---------------------------------------------------------------------------
# evaluation, derivatives, norms

def _deriv_once(terms):
    """Apply D_t = -i d/dt to a term list."""
    out = []
    for t in terms:
        new = [t.tau * c for c in t.poly]
        for q in range(1, len(t.poly)):
            new[q - 1] += -1j * (q * t.poly[q])
        out.append(ExpPolyTerm(t.tau, tuple(new)))
    return out


def deriv_terms(terms, l: int):
    terms = list(terms)
    for _ in range(l):
        terms = _deriv_once(terms)
    return terms


def eval_deriv(sol: ExpPolySolution, l: int, t: float) -> complex:
    """D_t^l w_j(t), exact on the exponential-polynomial form."""
    out = 0j
    for term in deriv_terms(sol.terms, l):
        out += np.polyval(np.asarray(term.poly)[::-1], t) * np.exp(1j * term.tau * t)
    return out


def boundary_defect(sol: ExpPolySolution) -> float:
    """max_k |D_t^(k-1) w_j(0) - delta_jk| over k = 1..m.

    D_t^k (t^q e^{i tau t}) at t = 0 is k!/(k-q)! tau^(k-q) (-i)^q for
    q <= k and 0 otherwise.
    """
    worst = 0.0
    for k in range(len(sol.roots)):
        val = sum(c * math.perm(k, q) * term.tau ** (k - q) * (-1j) ** q
                  for term in sol.terms for q, c in enumerate(term.poly[: k + 1]))
        worst = max(worst, abs(val - (1.0 if k + 1 == sol.j else 0.0)))
    return worst


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
            c = -1j * (ta.tau - tb.tau.conjugate())
            for pa, ca in enumerate(ta.poly):
                for pb, cb in enumerate(tb.poly):
                    total += (ca * cb.conjugate()
                              * math.factorial(pa + pb) / c ** (pa + pb + 1))
    return math.sqrt(max(total.real, 0.0))


def contour_eval(sol: ExpPolySolution, l: int, t: float,
                 nodes: int = 256) -> complex:
    """Independent contour-quadrature evaluation of D_t^l w_j(t).

    Trapezoid rule on a union of circles, one per root cluster; small
    circles keep |e^{izt}| moderate on the contour, which preserves
    relative accuracy.  Serves as an oracle for the residue construction.
    """
    a = vieta(sol.roots)
    mj_desc = mj(a, sol.j)
    clusters = cluster_roots(sol.roots)
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
    return replace(sol, terms=tuple(part1)), replace(sol, terms=tuple(part2))


# ---------------------------------------------------------------------------
# norms from the Lyapunov Gramian (Bartels and Stewart 1972)
#
# y = (w, Dw, ..., D^(m-1) w) obeys y' = iCy, y(0) = e_j, with C the companion
# matrix of A_+ = prod (tau - tau_k); so ||D^l w_j||^2 = r_l G_j r_l^H with
# r_l = e_1^T C^l and (iC) G_j + G_j (iC)^H = -e_j e_j^H.  A_+ needs only the
# symmetric functions of the upper roots, so no 1/gap term appears.  The
# Kronecker matrix has the eigenvalues i(tau_b - conj(tau_a)) and degrades
# only as a root nears the real axis, where tau_roots refuses.

class MeshNorms(NamedTuple):
    values: np.ndarray          # ||D^l w_j|| by (|xi'|, lambda, j, l)
    root_clearance_min: float   # smallest Im tau / |tau| over the mesh


def gramian_norms(upper, j_list, l_list) -> np.ndarray:
    """||D^l w_j|| by (node, j, l) for upper roots of shape (N, m).

    Each node's roots are first divided by a power of two 2^e near their
    largest modulus, which is exact; ||D^l w_j|| scales as (2^e)^(l-j+1/2).
    Every step is elementwise or one LAPACK solve per node, so a node gives
    the same bits alone (N = 1) as in a stack.
    """
    upper = np.asarray(upper, dtype=complex)
    n, m = upper.shape
    e = np.frexp(np.abs(upper).max(axis=1))[1][:, None]
    tau = upper * np.ldexp(1.0, -e)
    a = np.zeros((n, m + 1), dtype=complex)             # A_+, descending
    a[:, 0] = 1.0
    for k in range(m):
        a[:, 1:k + 2] = a[:, 1:k + 2] - tau[:, k:k + 1] * a[:, :k + 1]
    comp = np.zeros((n, m, m), dtype=complex)
    comp[:, :-1, 1:] = np.eye(m - 1)
    comp[:, -1, :] = -a[:, :0:-1]
    # row-major vec(X G + G X^H) = (X kron I + I kron conj(X)) vec(G), X = iC
    x, eye = 1j * comp, np.eye(m)
    kron = (x[:, :, None, :, None] * eye[:, None, :]
            + eye[:, None, :, None] * x.conj()[:, None, :, None, :])
    rhs = np.zeros((m * m, len(j_list)))
    rhs[[(j - 1) * (m + 1) for j in j_list], range(len(j_list))] = -1.0
    gram = np.linalg.solve(kron.reshape(n, m * m, m * m), rhs).reshape(n, m, m, -1)
    sq = np.empty((n, len(j_list), len(l_list)))
    r = np.broadcast_to(eye[0], (n, m))                 # r_l = e_1^T C^l
    for l in range(max(l_list) + 1):
        if l in l_list:
            sq[:, :, l_list.index(l)] = ((r[:, :, None, None] * gram).sum(axis=1)
                                         * r.conj()[:, :, None]).sum(axis=1).real
        r = (r[:, :, None] * comp).sum(axis=1)
    power = 2 * (np.asarray(l_list) - np.asarray(j_list)[:, None]) + 1
    return np.sqrt(np.ldexp(sq, e[:, :, None] * power))


def mesh_norms(p: Pencil, xi_abs, lam, j_list, l_list) -> MeshNorms:
    """||D^l w_j|| at xi' = (|xi'|, 0, ..., 0) on the mesh xi_abs x lam.

    The upper roots are those of tau_roots bit for bit.  At nodes that
    mesh_upper_roots rejects, tau_roots runs in (|xi'|, lambda) order, so
    an error names the same node as a loop over the mesh would.
    """
    xi_abs, lam = np.asarray(xi_abs, dtype=float), np.asarray(lam, dtype=float)
    upper, ok = mesh_upper_roots(p, xi_abs, lam)
    xi_prime = np.zeros(p.n - 1)
    for a, b in zip(*np.nonzero(~ok)):
        xi_prime[0] = xi_abs[a]
        upper[a, b] = tau_roots(p, xi_prime, lam[b]).upper
    values = gramian_norms(upper.reshape(-1, p.m), j_list, l_list)
    return MeshNorms(values.reshape(upper.shape[:2] + values.shape[1:]),
                     float(np.min(upper.imag / np.abs(upper))))


def homogeneity_check(p: Pencil, xi_prime, lam: float, r: float,
                      j: int, l: int) -> tuple[float, float]:
    """Norm identity under the scaling tau -> r tau.

    Returns (lhs, rhs) with lhs = ||D^l w_j(xi', ., lambda)|| and
    rhs = r^(1/2 - j + l) ||D^l w_j(xi'/r, ., lambda/r)||, recomputed at the
    scaled point; the two agree for exact arithmetic.
    """
    xi_prime = np.asarray(xi_prime, dtype=float)
    upper = [tau_roots(p, xi_prime, lam).upper,
             tau_roots(p, xi_prime / r, lam / r).upper]
    lhs, scaled = gramian_norms(upper, [j], [l])[:, 0, 0]
    return float(lhs), r ** (0.5 - j + l) * float(scaled)
