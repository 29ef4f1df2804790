"""High-precision reference for the half-line derivative norms.

Independent of pencilab: it reads the pencil as the JSON dict and works in
mpmath at 50 digits.  For one point (xi', lambda) it

1. forms the tau-polynomial A(xi', tau, lambda) exactly from the float
   inputs and finds its roots by Durand-Kerner iteration, started from
   numpy's double-precision roots;
2. builds the monic factor A_+ = prod (tau - tau_k) over the upper roots and
   its companion matrix C, so that y = (w, Dw, ..., D^(m-1) w) with
   D = -i d/dt obeys y' = iCy and the Dirichlet data are y(0) = e_j;
3. solves the Lyapunov equation (iC) G + G (iC)^H = -e_j e_j^H for the
   Gramian G = int_0^inf y y^H dt by a Kronecker linear solve;
4. reads ||D^l w_j||^2 = r_l G r_l^H with r_l = e_1^T C^l.

Durand-Kerner converges only linearly at a double root, so the iteration
stops at a relative step of 1e-20 rather than at full precision.  The
symmetric functions of a root cluster, which are all that A_+ needs, are
then still accurate far beyond the 1e-6 the benchmark checks.
"""

from __future__ import annotations

import mpmath
import numpy as np

DPS = 50
ROOT_STEP_TOL = mpmath.mpf("1e-20")
MAX_ROOT_STEPS = 400


def tau_coefficients(pencil: dict, xi_prime, lam: float) -> list:
    """Ascending coefficients of tau -> A(xi', tau, lambda), at DPS digits."""
    m = pencil["m"]
    coeffs = [mpmath.mpc(0)] * (2 * m + 1)
    xs = [mpmath.mpf(float(x)) for x in xi_prime]
    lam = mpmath.mpf(float(lam))
    for term in pencil["terms"]:
        mono = mpmath.mpc(term.get("re", 0.0), term.get("im", 0.0))
        for x, a in zip(xs, term["alpha"][:-1]):
            mono *= x ** a
        coeffs[term["alpha"][-1]] += mono * lam ** (2 * m - term["j"])
    return coeffs


def polynomial_roots(coeffs_asc: list) -> list:
    """All roots of the polynomial, by Durand-Kerner from numpy's roots."""
    desc = [c / coeffs_asc[-1] for c in reversed(coeffs_asc)]
    deg = len(desc) - 1
    start = np.roots(np.array([complex(c) for c in desc]))
    roots = [mpmath.mpc(z) for z in start]
    for _ in range(MAX_ROOT_STEPS):
        biggest = 0
        for i in range(deg):
            step = mpmath.polyval(desc, roots[i])
            for k in range(deg):
                if k != i:
                    step /= roots[i] - roots[k]
            roots[i] -= step
            biggest = max(biggest, abs(step) / (1 + abs(roots[i])))
        if biggest < ROOT_STEP_TOL:
            return roots
    raise ArithmeticError("Durand-Kerner did not converge")


def companion(upper_roots: list) -> mpmath.matrix:
    """Companion matrix of A_+ = prod (tau - tau_k) acting on (w, Dw, ...)."""
    a = [mpmath.mpc(1)]           # descending coefficients of A_+
    for r in upper_roots:
        a = [x - r * y for x, y in zip(a + [0], [0] + a)]
    m = len(upper_roots)
    c = mpmath.matrix(m, m)
    for i in range(m - 1):
        c[i, i + 1] = 1
    for col in range(m):
        c[m - 1, col] = -a[m - col]
    return c


def gramian(c: mpmath.matrix, j: int) -> mpmath.matrix:
    """G solving (iC) G + G (iC)^H = -e_j e_j^H, by a Kronecker solve.

    The unknown G[s, q] sits at index q*m + s (column-major vec).
    """
    m = c.rows
    a = 1j * c
    k = mpmath.matrix(m * m, m * m)
    for q in range(m):
        for r in range(m):
            for s in range(m):
                k[q * m + r, q * m + s] += a[r, s]
                k[q * m + r, s * m + r] += mpmath.conj(a[q, s])
    rhs = mpmath.matrix(m * m, 1)
    rhs[(j - 1) * m + (j - 1)] = -1
    vec = mpmath.lu_solve(k, rhs)
    g = mpmath.matrix(m, m)
    for q in range(m):
        for s in range(m):
            g[s, q] = vec[q * m + s]
    return g


def reference_norms(pencil: dict, xi_prime, lam: float) -> dict:
    """{(j, l): ||D^l w_j||} for 1 <= j <= m and 0 <= l <= m, as floats."""
    m = pencil["m"]
    with mpmath.workdps(DPS):
        roots = polynomial_roots(tau_coefficients(pencil, xi_prime, lam))
        upper = [r for r in roots if mpmath.im(r) > 0]
        if len(upper) != m:
            raise ArithmeticError(f"{len(upper)} upper roots, expected {m}")
        c = companion(upper)
        rows = []
        row = mpmath.matrix(1, m)
        row[0, 0] = 1
        for _ in range(m + 1):
            rows.append(row)
            row = row * c
        out = {}
        for j in range(1, m + 1):
            g = gramian(c, j)
            for l, r in enumerate(rows):
                out[(j, l)] = float(mpmath.sqrt(mpmath.re((r * g * r.H)[0, 0])))
    return out
