"""Operator pencil symbols A(xi, lambda) = sum_j lambda^(2m-j) A_j(xi).

Each A_j is homogeneous of degree j; terms are stored as (alpha, j, coeff)
with |alpha| = j.  This module evaluates the symbol, checks the parameter
ellipticity conditions, and locates and groups the roots of the symbol in
the normal frequency.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EllipticityError, OutOfRangeError, PencilFormatError

REAL_AXIS_TOL = 1e-6
CLUSTER_TOL = 1e-7
AMBIGUITY_TOL = 1e-9


@dataclass(frozen=True)
class Term:
    alpha: tuple[int, ...]
    j: int
    coeff: complex


@dataclass(frozen=True)
class Pencil:
    n: int
    m: int
    mu: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not (self.m > self.mu >= 0):
            raise PencilFormatError(f"need m > mu >= 0, got m={self.m}, mu={self.mu}")
        scale = 0.0
        for t in self.terms:
            if len(t.alpha) != self.n:
                raise PencilFormatError(f"multi-index {t.alpha} has length != n={self.n}")
            if any(a < 0 for a in t.alpha):
                raise PencilFormatError(f"negative entry in multi-index {t.alpha}")
            if sum(t.alpha) != t.j:
                raise PencilFormatError(f"|alpha| = {sum(t.alpha)} != j = {t.j}")
            if not (2 * self.mu <= t.j <= 2 * self.m):
                raise PencilFormatError(f"order j = {t.j} outside [2mu, 2m]")
            if not (math.isfinite(t.coeff.real) and math.isfinite(t.coeff.imag)):
                raise PencilFormatError(f"coefficient {t.coeff} of the term "
                                        f"alpha={t.alpha} is not finite")
            # coeff_scale scales every tolerance, so it must be finite too.
            scale += math.hypot(t.coeff.real, t.coeff.imag)
            if math.isinf(scale):
                raise PencilFormatError(f"coefficient {t.coeff} of the term "
                                        f"alpha={t.alpha} overflows the sum of |coeff|")

    @property
    def degenerate(self) -> bool:
        """True if either extreme homogeneity order 2m or 2mu is absent."""
        orders = {t.j for t in self.terms if t.coeff != 0}
        return not (2 * self.m in orders and 2 * self.mu in orders)

    @property
    def coeff_scale(self) -> float:
        return sum(abs(t.coeff) for t in self.terms) or 1.0

    def exponent_points(self) -> set[tuple[int, int]]:
        """Points (|alpha|, lambda-power) generating the Newton polygon."""
        return {(t.j, 2 * self.m - t.j) for t in self.terms if t.coeff != 0}


def pencil_from_dict(data: dict) -> Pencil:
    try:
        n, m, mu = int(data["n"]), int(data["m"]), int(data["mu"])
        terms = tuple(
            Term(alpha=tuple(int(a) for a in t["alpha"]), j=int(t["j"]),
                 coeff=complex(float(t.get("re", 0.0)), float(t.get("im", 0.0))))
            for t in data["terms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PencilFormatError(f"bad pencil description: {exc}") from exc
    return Pencil(n=n, m=m, mu=mu, terms=terms)


def pencil_to_dict(p: Pencil) -> dict:
    return {
        "n": p.n, "m": p.m, "mu": p.mu,
        "terms": [{"alpha": list(t.alpha), "j": t.j,
                   "re": t.coeff.real, "im": t.coeff.imag} for t in p.terms],
    }


def load_pencil(path) -> Pencil:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PencilFormatError(f"invalid JSON in {path}: {exc}") from exc
    return pencil_from_dict(data)


def eval_symbol(p: Pencil, xi, lam: float) -> complex:
    """A(xi, lambda) = sum coeff * xi^alpha * lambda^(2m - j)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (p.n,):
        raise ValueError(f"xi has shape {xi.shape}, expected ({p.n},)")
    out = 0j
    for t in p.terms:
        mono = 1.0
        for x, a in zip(xi, t.alpha):
            mono *= x ** a
        out += t.coeff * mono * lam ** (2 * p.m - t.j)
    return out


def _tau_terms(terms, degree: int, xs: list[float], lam: float) -> list[complex]:
    """Ascending tau-coefficients of sum coeff xi'^alpha' tau^alpha_n
    lambda^(degree - j) over `terms`, with xi' the Python floats xs: the one
    loop that builds tau-polynomials.  A power that overflows raises."""
    coeffs = [0j] * (degree + 1)
    for t in terms:
        mono = 1.0
        for x, a in zip(xs, t.alpha[:-1]):
            mono *= x ** a
        coeffs[t.alpha[-1]] += t.coeff * mono * lam ** (degree - t.j)
    return coeffs


def tau_polynomial(p: Pencil, xi_prime, lam: float) -> np.ndarray:
    """Coefficients (ascending) of tau -> A(xi', tau, lambda), degree 2m.

    In Python float and complex arithmetic, which rounds as numpy's scalars
    do but shows overflow by an OverflowError or an infinite value, never
    by a warning.  Raises OutOfRangeError unless xi' and lambda are finite,
    lambda >= 0 and every coefficient is finite.
    """
    xi_prime = np.asarray(xi_prime, dtype=float)
    if xi_prime.shape != (p.n - 1,):
        raise ValueError(f"xi' has shape {xi_prime.shape}, expected ({p.n - 1},)")
    return np.array(_tau_coefficients(p, xi_prime.tolist(), float(lam)), dtype=complex)


def _tau_coefficients(p: Pencil, xs: list[float], lam: float) -> list[complex]:
    """tau_polynomial at xi' = xs, as a list: the form a mesh node takes."""
    if not (all(map(math.isfinite, xs)) and math.isfinite(lam) and lam >= 0):
        raise OutOfRangeError(f"need finite xi' and finite lambda >= 0, "
                              f"got xi'={np.array(xs)}, lambda={lam}")
    try:
        coeffs = _tau_terms(p.terms, 2 * p.m, xs, lam)
        mags = [abs(c) for c in coeffs]
    except OverflowError:
        mags = [math.inf]
    if not all(map(math.isfinite, mags)):
        raise OutOfRangeError(f"A(xi', tau, lambda) overflows at xi'={np.array(xs)}, "
                              f"lambda={lam}")
    # A is jointly homogeneous of degree 2m, so with rho = |xi'| + lambda the
    # |c_k| rho^(k-2m) are the coefficients of A(xi'/rho, ., lambda/rho): the
    # test compares numbers of one scale.
    inv = 1.0 / (math.hypot(*xs) + lam or 1.0)
    *lower, lead = mags
    weight, scale = 1.0, 0.0
    for c in reversed(lower):
        weight *= inv
        scale = max(scale, c * weight)
    if lead <= 1e-14 * scale:
        raise EllipticityError(
            "leading tau coefficient vanishes: A_2m is not elliptic in xi_n")
    return coeffs


# ---------------------------------------------------------------------------
# root finding helpers

def poly_roots(coeffs) -> np.ndarray:
    """Roots of a polynomial given by ascending coefficients.

    The eigenvalues of the companion matrix that numpy.roots builds, with
    the roots at 0 split off first as numpy.roots does.  The eigensolve is
    backward stable (Edelman & Murakami 1995) and keeps the mean of a
    split multiple root.  numpy.roots itself is skipped: at one polynomial
    of degree 2m its per-call overhead costs more than the eigensolve.
    mesh_upper_roots solves a stack of these matrices in one eigvals call,
    which gives each matrix the same bits.
    """
    c = np.asarray(coeffs, dtype=complex).tolist()
    while c and c[-1] == 0:
        c.pop()
    if len(c) <= 1:
        return np.zeros(0, dtype=complex)
    zeros = next(k for k, x in enumerate(c) if x != 0)
    roots = np.zeros(len(c) - 1, dtype=complex)
    if len(c) - zeros > 1:
        desc = np.array([c[zeros:][::-1]])
        roots[:len(c) - 1 - zeros] = np.linalg.eigvals(_companion(desc))[0]
    return roots


def _companion(desc: np.ndarray) -> np.ndarray:
    """Companion matrices, as numpy.roots builds them, of the polynomials
    whose descending coefficients run along the last axis of desc."""
    d = desc.shape[-1] - 1
    out = np.zeros(desc.shape[:-1] + (d, d), dtype=complex)
    out[..., 1:, :-1] = np.eye(d - 1)
    out[..., 0, :] = -desc[..., 1:] / desc[..., :1]
    return out


def _near_real_axis(roots: np.ndarray) -> np.ndarray:
    """Whether any root (along the last axis) lies within REAL_AXIS_TOL *
    (1 + max |root|) of the real axis."""
    scale = 1.0 + np.abs(roots).max(axis=-1, initial=0.0, keepdims=True)
    return (np.abs(roots.imag) <= REAL_AXIS_TOL * scale).any(axis=-1)


def cluster_roots(roots, tol_factor: float = CLUSTER_TOL):
    """Group roots within tol_factor * |c| of a cluster's running mean c, a
    relative rule: 2^k * roots cluster as roots do.

    Returns a list of (center, indices); cluster size is the multiplicity
    and the center is the members' mean.
    """
    remaining = list(range(len(roots)))
    clusters = []
    while remaining:
        i = remaining.pop(0)
        members, total = [i], roots[i]
        changed = True
        while changed:
            changed = False
            for k in list(remaining):
                center = total / len(members)
                if abs(roots[k] - center) <= tol_factor * abs(center):
                    members.append(k)
                    total += roots[k]
                    remaining.remove(k)
                    changed = True
        clusters.append((total / len(members), members))
    return clusters


# ---------------------------------------------------------------------------
# grids

def sphere_directions(n: int, count: int) -> np.ndarray:
    """Deterministic unit directions in R^n: +-1 (n=1), uniform angles (n=2),
    Fibonacci nodes (n=3), seeded normalized Gaussians otherwise."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if n == 3:
        k = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / count)
        theta = np.pi * (1.0 + math.sqrt(5.0)) * k
        return np.stack([np.sin(phi) * np.cos(theta),
                         np.sin(phi) * np.sin(theta),
                         np.cos(phi)], axis=1)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class GridSpec:
    """Sampling densities for the compact-set checks."""

    angular: int = 720       # quarter-circle points in (|xi|, lambda)
    directions: int = 720    # unit-sphere directions (n=2 default)
    tol: float = 1e-6

    def direction_count(self, n: int) -> int:
        # From 4 directions in the plane on, _sphere_min's first patch reaches
        # 54.7 degrees, past the midpoint to each neighbour.
        if n == 2:
            return max(self.directions, 4)
        if n == 3:
            return max(self.directions, 2000)
        return self.directions


# Values per block of a slice scan (720 directions x 22 columns), float64 or
# complex128 as the pencil's table.  A block bounds only the columns x
# directions temporaries, which stay under a megabyte whatever the grid
# size; the powers of rho and lambda are per column, once per scan.  On a
# 2-CPU Xeon the 720 x 720 scans took 10-13% less time at 16384 than at 8192.
SLICE_BLOCK_ENTRIES = 16384
# Points per half side of the patches that refine a sphere minimum.
ZOOM = 5


def homogeneous_part(p: Pencil, j: int, dirs: np.ndarray) -> np.ndarray:
    """A_j(omega) at each row omega of dirs.

    float64 when every coefficient of p is real, complex128 otherwise.  The
    values are the same either way: numpy's product of c + 0i and x has
    real part c x exactly and imaginary part 0, and |x + 0i| = |x|.
    """
    real = all(t.coeff.imag == 0 for t in p.terms)
    out = np.zeros(len(dirs), dtype=float if real else complex)
    for t in p.terms:
        if t.j == j:
            mono = np.ones(len(dirs))
            for i, a in enumerate(t.alpha):
                mono = mono * dirs[:, i] ** a
            out += (t.coeff.real if real else t.coeff) * mono
    return out


def homogeneous_table(p: Pencil, dirs: np.ndarray) -> np.ndarray:
    """(directions x (2m+1)) table of the homogeneous parts A_j(omega), in
    homogeneous_part's dtype."""
    return np.stack([homogeneous_part(p, j, dirs) for j in range(2 * p.m + 1)],
                    axis=1)


def symbol_blocks(table: np.ndarray, rho, lam):
    """Yield (cols, block) with block[k, d] = A(rho[c] omega_d, lam[c]) for
    c = cols.start + k, over consecutive slices `cols` of the columns.

    Homogeneity gives A(rho omega, lambda) = sum_j rho^j lambda^(2m-j)
    A_j(omega), with A_j(omega) read from `table` (see homogeneous_table);
    blocks take the table's dtype.  Each column's powers rho^j
    lambda^(2m-j) are computed once per scan, for every part j that is
    not zero, so a block costs one multiply and one add per part.  The sum
    over j is elementwise in a fixed order and uses no matrix product, so
    the values do not depend on the block size, the BLAS build or its
    threads.
    """
    rho, lam = np.asarray(rho, dtype=float), np.asarray(lam, dtype=float)
    top = table.shape[1] - 1
    parts = [(rho ** j * lam ** (top - j), np.ascontiguousarray(table[:, j]))
             for j in range(top + 1) if np.any(table[:, j])]
    step = max(1, SLICE_BLOCK_ENTRIES // len(table))
    for start in range(0, len(rho), step):
        cols = slice(start, start + step)
        block = np.zeros((len(rho[cols]), len(table)), dtype=table.dtype)
        for powers, a_j in parts:
            block += powers[cols, None] * a_j
        yield cols, block


def column_least(table: np.ndarray, rho, lam, value=np.abs) -> np.ndarray:
    """Least value(A(rho[c] omega_d, lam[c])) over the directions d, for each
    column c, from symbol_blocks.

    A scan that needs one extreme per column takes it here, before it
    normalises: dividing by a positive number and rounding is monotone, so
    min_d fl(a_d / c) = fl(min_d a_d / c) bit for bit, and each column
    takes one division instead of one per direction.
    """
    least = np.empty(len(rho))
    for cols, block in symbol_blocks(table, rho, lam):
        least[cols] = value(block).min(axis=1)
    return least


def _slice_nodes(p: Pencil, angular: int):
    """Nodes (rho, lambda) = (cos th, sin th) at the midpoints of `angular`
    cells of [0, pi/2], and the normaliser rho^2mu (lambda+rho)^(2m-2mu)."""
    theta = (np.arange(angular) + 0.5) / angular * (np.pi / 2.0)
    rho, lam = np.cos(theta), np.sin(theta)
    return rho, lam, rho ** (2 * p.mu) * (lam + rho) ** (2 * p.m - 2 * p.mu)


def _sphere_min(p: Pencil, j: int, dirs: np.ndarray, table: np.ndarray):
    """Smallest |A_j| found on the unit sphere, and its direction.

    The grid minimum is refined by zooming in: each round samples a patch
    of 2*ZOOM+1 points a side, parallel to the tangent plane at the grid
    minimum and centred on the best direction so far, and the next round
    samples one cell of it.  The first patch reaches the nearest grid
    direction, so a zero between grid directions is still found: 90
    directions in the plane miss the zero (0, 1) of xi_1^2 with |A_j| =
    1.2e-3 at the nearest one, far above the default tolerance.
    """
    vals = np.abs(table[:, j])
    k = int(np.argmin(vals))
    best, value = dirs[k], float(vals[k])
    if p.n == 1:                    # the two directions are the whole sphere
        return best, value
    gaps = np.sum((dirs - best) ** 2, axis=1)
    gaps[k] = 4.0           # no direction is farther than the antipode
    step = math.sqrt(gaps.min()) / ZOOM
    # Columns 2..n of the Householder reflection that maps e_1 to -+best
    # span the tangent plane at best.
    v = best.copy()
    v[0] += math.copysign(1.0, best[0])
    tangent = (np.eye(p.n) - 2.0 * np.outer(v, v) / np.sum(v * v))[:, 1:]
    side = np.arange(-ZOOM, ZOOM + 1, dtype=float)
    patch = np.stack(np.meshgrid(*[side] * (p.n - 1)), axis=-1).reshape(-1, p.n - 1)
    offsets = np.sum(patch[:, None, :] * tangent[None, :, :], axis=2)
    while step > 1e-15:
        pts = best + step * offsets
        pts /= np.sqrt(np.sum(pts * pts, axis=1))[:, None]
        patch_vals = np.abs(homogeneous_part(p, j, pts))
        i = int(np.argmin(patch_vals))
        if patch_vals[i] < value:
            best, value = pts[i], float(patch_vals[i])
        step /= ZOOM
    return best, value


def _normalised(values: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """values / denom; +inf where the normaliser underflows."""
    out = np.full(values.shape, np.inf)
    return np.divide(values, denom, out=out, where=denom > 1e-300)


@dataclass(frozen=True)
class EllipticityReport:
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    min_a2m: float
    min_a2mu: float
    min_abs: float
    min_ratio: float
    C_est: float
    witness_i: np.ndarray
    witness_ii: np.ndarray
    witness_iii: tuple
    grid: GridSpec = field(default_factory=GridSpec)

    @property
    def n_elliptic(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


def check_lemma21(p: Pencil, grid: GridSpec = GridSpec()) -> EllipticityReport:
    """Test the three equivalent conditions for parameter ellipticity.

    (i), (ii): the extreme homogeneous parts do not vanish on the unit
    sphere, with the grid minima refined by a local search; (iii): on the
    closed slice |xi|^2 + lambda^2 = 1, lambda >= 0, the ratio
    |A| / (|xi|^2mu (lambda+|xi|)^(2m-2mu)) stays away from zero.  The raw
    min |A| (reported as `min_abs`) tends to 0 as the grid approaches xi = 0
    whenever mu > 0, so (iii) tests the ratio.  It extends continuously to
    the slice's ends: at lambda = 0 it is |A_2m(omega)|, and as xi -> 0 it
    tends to |A_2mu(omega)|.  The grid nodes lie inside, so (iii) tests
    min(min_ratio, min_a2m, min_a2mu).  min_ratio, the grid minimum, is the
    empirical lower-bound constant C_est (the symbol is homogeneous of
    degree 2m, so this slice determines the constant).  witness_iii is the
    first minimising node in (angle, direction) order.

    Each angle divides only its least |A| by the normaliser (see
    column_least), which gives the same min_ratio bit for bit.  The least
    ratio's first angle is the first minimising node's angle, and its
    direction is found by evaluating and dividing that angle's row again:
    two values of |A| can round to the same ratio, so the first minimising
    direction need not be the first least |A|.
    """
    dirs = sphere_directions(p.n, grid.direction_count(p.n))
    tol = grid.tol * p.coeff_scale
    table = homogeneous_table(p, dirs)
    witness_i, min_a2m = _sphere_min(p, 2 * p.m, dirs, table)
    witness_ii, min_a2mu = _sphere_min(p, 2 * p.mu, dirs, table)

    rho, lam, denom = _slice_nodes(p, grid.angular)
    lowest = column_least(table, rho, lam)
    ratio = _normalised(lowest, denom)
    k, d = int(np.argmin(ratio)), 0
    min_abs, min_ratio = float(lowest.min()), float(ratio[k])
    if min_ratio < np.inf:          # else the normaliser underflows everywhere
        _, block = next(symbol_blocks(table, rho[k:k + 1], lam[k:k + 1]))
        d = int(np.argmin(np.abs(block[0]) / denom[k]))

    cond_i = bool(min_a2m > tol)
    cond_ii = bool(min_a2mu > tol)
    cond_iii = bool(min(min_ratio, min_a2m, min_a2mu) > tol)
    return EllipticityReport(
        cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii,
        min_a2m=min_a2m, min_a2mu=min_a2mu,
        min_abs=min_abs, min_ratio=min_ratio,
        C_est=min_ratio if (cond_i and cond_ii and cond_iii) else 0.0,
        witness_i=witness_i, witness_ii=witness_ii,
        witness_iii=(rho[k] * dirs[d], float(lam[k])),
        grid=grid)


def q_polynomial(p: Pencil) -> np.ndarray:
    """Ascending coefficients of Q(tau) = tau^(-2mu) A(0, tau, 1), degree 2m-2mu.

    Terms with any tangential frequency vanish at xi' = 0, so the lowest
    2mu coefficients of A(0, tau, 1) vanish structurally; we additionally
    require Q(0) != 0, which holds for parameter-elliptic pencils.
    """
    full = tau_polynomial(p, np.zeros(p.n - 1), 1.0)
    low = full[:2 * p.mu]
    scale = np.max(np.abs(full)) or 1.0
    if np.any(np.abs(low) > 1e-12 * scale):
        raise PencilFormatError("low-order tau coefficients of A(0,tau,1) nonzero")
    q = full[2 * p.mu:]
    if abs(q[0]) <= 1e-12 * scale:
        raise EllipticityError("Q(0) = 0: pencil violates parameter ellipticity at xi=0")
    return q


class DegenerationResult(NamedTuple):
    regular: bool | None           # None = indeterminate (near-real root)
    upper_roots: tuple[complex, ...]
    k1: int


@functools.cache
def check_regular_degeneration(p: Pencil) -> DegenerationResult:
    """Count upper-half-plane roots of Q; regular iff the count is m - mu.
    Q depends on the pencil alone, so results are kept per pencil value."""
    q = q_polynomial(p)
    roots = poly_roots(q)
    if _near_real_axis(roots):
        return DegenerationResult(None, tuple(roots[roots.imag > 0]), 0)
    upper = roots[roots.imag > 0]
    clusters = cluster_roots(upper)
    k1 = max((len(members) for _, members in clusters), default=0)
    return DegenerationResult(len(upper) == p.m - p.mu, tuple(upper), k1)


def remark22_checks(p: Pencil, grid: GridSpec = GridSpec()) -> dict:
    """Sufficient conditions for regular degeneration.

    even_order: only even homogeneity orders occur, so Q is a polynomial in
    tau^2.  strongly_elliptic: Re A dominates |xi|^2mu (lambda+|xi|)^(2m-2mu)
    on the compact slice, with c_min the smallest ratio of the two.  Either
    condition implies regular degeneration.
    """
    even_order = all(t.j % 2 == 0 for t in p.terms if t.coeff != 0)
    table = homogeneous_table(p, sphere_directions(p.n, grid.direction_count(p.n)))
    rho, lam, denom = _slice_nodes(p, grid.angular)
    c_min = float(_normalised(column_least(table, rho, lam, np.real), denom).min())
    return {"even_order": even_order,
            "strongly_elliptic": bool(c_min > grid.tol * p.coeff_scale),
            "c_min": c_min}


@dataclass(frozen=True)
class RootSet:
    all_roots: tuple[complex, ...]
    upper: tuple[complex, ...]
    lower: tuple[complex, ...]


def tau_roots(p: Pencil, xi_prime, lam: float) -> RootSet:
    """All 2m roots of A(xi', tau, lambda), with the upper half marked.

    Raises EllipticityError if a root sits on the real axis (within
    tolerance) or if the upper count differs from m, and tau_polynomial's
    OutOfRangeError for a point outside its range.
    """
    xi_prime = np.asarray(xi_prime, dtype=float)
    coeffs = tau_polynomial(p, xi_prime, lam)
    if lam == 0.0 and math.hypot(*xi_prime.tolist()) == 0.0:
        raise ValueError("need xi' != 0 or lambda > 0")
    roots = poly_roots(coeffs)
    if _near_real_axis(roots):
        raise EllipticityError(
            f"root on the real axis at xi'={xi_prime}, lambda={lam}")
    all_roots, upper, lower = roots.tolist(), [], []
    for r in all_roots:
        (upper if r.imag > 0 else lower).append(r)
    if len(upper) != p.m:
        raise EllipticityError(
            f"{len(upper)} upper roots, expected m = {p.m} (m_+ = m violated)")
    return RootSet(tuple(all_roots), tuple(upper), tuple(lower))


def mesh_upper_roots(p: Pencil, xi_prime, lam) -> tuple[np.ndarray, np.ndarray]:
    """tau_roots(p, xi_prime[k], lam[k]).upper at each node k of a node list.

    xi_prime has shape (N, n-1) and lam shape (N,).  Returns (upper, ok) of
    shapes (N, m) and (N,).  Where ok is False, tau_roots raises at that
    node and upper is NaN; elsewhere upper equals tau_roots bit for bit:
    tau_polynomial builds (or rejects) each node's coefficients, and
    poly_roots' companion matrices go to one stacked eigensolve.
    """
    xi_prime, lam = np.asarray(xi_prime, dtype=float), np.asarray(lam, dtype=float)
    if xi_prime.shape != (len(lam), p.n - 1):
        raise ValueError(f"xi' has shape {xi_prime.shape}, expected "
                         f"({len(lam)}, {p.n - 1})")
    coeffs = np.zeros((len(lam), 2 * p.m + 1), dtype=complex)
    for k, (xs, y) in enumerate(zip(xi_prime.tolist(), lam.tolist())):
        with contextlib.suppress(OutOfRangeError, EllipticityError):
            coeffs[k] = _tau_coefficients(p, xs, y)
    # A node that tau_polynomial rejects keeps zero coefficients.  A zero
    # constant term is a root at 0, which tau_roots rejects as real, and
    # tau_roots rejects xi' = lambda = 0.
    ok = (coeffs[:, 0] != 0) & ((lam != 0) | (xi_prime != 0).any(axis=1))
    roots = np.linalg.eigvals(_companion(coeffs[ok][:, ::-1]))
    good = ~_near_real_axis(roots) & (np.sum(roots.imag > 0, axis=-1) == p.m)
    roots = roots[good]
    upper = np.full((len(lam), p.m), np.nan, dtype=complex)
    ok[ok] = good
    upper[ok] = roots[roots.imag > 0].reshape(-1, p.m)
    return upper, ok


def _min_cost_matching(cost: np.ndarray) -> list[int]:
    """Row matched to each column of the square `cost` by a cheapest matching:
    best[S] is the cheapest match (total, rows) of the first |S| columns onto
    the rows in the set S, and on a tie the later row takes the column."""
    m, c = len(cost), cost.tolist()
    best = [(0.0, [])] + [(math.inf, [])] * ((1 << m) - 1)
    for s in range(1, 1 << m):
        for i in reversed(range(m)):
            total, rows = best[s ^ 1 << i]
            if s >> i & 1 and total + c[i][len(rows)] < best[s][0]:
                best[s] = (total + c[i][len(rows)], rows + [i])
    return best[-1][1]


@dataclass(frozen=True)
class RootGrouping:
    upper_roots: tuple[complex, ...]
    group_bounded: tuple[int, ...]     # indices into upper_roots, mu of them
    group_large: tuple[int, ...]       # indices into upper_roots, m - mu of them
    bounded_targets: tuple[complex, ...]   # upper zeros of A_2mu(xi', .)
    large_targets: tuple[complex, ...]     # lambda * upper zeros of Q
    residual_bounded: tuple[float, ...]
    residual_large: tuple[float, ...]
    k1: int
    ambiguous: bool


def group_roots(p: Pencil, xi_prime, lam: float) -> RootGrouping:
    """Match upper roots to the bounded group and the O(lambda) group.

    Bounded targets are the mu upper zeros of A_2mu(xi', .); large targets
    are lambda times the upper zeros of Q.  Matching is a minimum-cost
    bipartite assignment; residual quality is reported, not asserted.
    """
    rs = tau_roots(p, xi_prime, lam)
    upper = np.array(rs.upper)

    if p.mu > 0:
        # A_2mu(xi', .) from its terms, whose lambda power is 1.0 ** 0 == 1.0.
        a2mu = [t for t in p.terms if t.j == 2 * p.mu]
        xs = np.asarray(xi_prime, dtype=float).tolist()
        bounded_targets = poly_roots(_tau_terms(a2mu, 2 * p.mu, xs, 1.0))
        bounded_targets = bounded_targets[bounded_targets.imag > 0]
        if len(bounded_targets) != p.mu:
            raise EllipticityError(
                f"A_2mu has {len(bounded_targets)} upper zeros, expected mu={p.mu}")
    else:
        bounded_targets = np.zeros(0, dtype=complex)

    deg = check_regular_degeneration(p)
    if deg.regular is None:
        raise EllipticityError("Q has a root on the real axis (within "
                               "REAL_AXIS_TOL): no large-group targets")
    if not deg.regular:
        raise EllipticityError(f"Q has {len(deg.upper_roots)} upper roots, "
                               f"expected m - mu = {p.m - p.mu}")
    k1 = deg.k1
    large_targets = lam * np.array(deg.upper_roots)

    targets = np.concatenate([bounded_targets, large_targets])
    cost = np.abs(upper[:, None] - targets[None, :])
    assign = _min_cost_matching(cost)

    group_bounded = tuple(assign[c] for c in range(p.mu))
    group_large = tuple(assign[c] for c in range(p.mu, p.m))
    residual_bounded = tuple(float(cost[assign[c], c]) for c in range(p.mu))
    residual_large = tuple(float(cost[assign[c], c]) for c in range(p.mu, p.m))

    ambiguous = False
    if p.mu > 0 and p.m > p.mu:
        for i in range(p.m):
            d_b = cost[i, :p.mu].min()
            d_l = cost[i, p.mu:].min()
            if abs(d_b - d_l) <= AMBIGUITY_TOL * (1.0 + abs(upper[i])):
                ambiguous = True
    return RootGrouping(
        upper_roots=tuple(upper), group_bounded=group_bounded,
        group_large=group_large,
        bounded_targets=tuple(bounded_targets),
        large_targets=tuple(large_targets),
        residual_bounded=residual_bounded, residual_large=residual_large,
        k1=k1, ambiguous=ambiguous)
