"""Operator pencil symbols A(xi, lambda) = sum_j lambda^(2m-j) A_j(xi).

Each A_j is homogeneous of degree j; terms are stored as (alpha, j, coeff)
with |alpha| = j.  This module evaluates the symbol, checks the parameter
ellipticity conditions, and locates and groups the roots of the symbol in
the normal frequency.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
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
        if self.n < 1:
            raise PencilFormatError(f"need n >= 1, got n={self.n}")
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
        # Not fields, so ==, hash, repr and dataclasses.replace ignore them:
        # coeff_scale, the sum of |coeff| (1.0 if it is 0), and what is
        # derived from this pencil alone, kept with it: its compiled Parts,
        # Q's DegenerationResult, tau_roots' last point (see tau_roots), and
        # verify's N(A) with its weight and the energy weight.
        object.__setattr__(self, "coeff_scale", scale or 1.0)
        object.__setattr__(self, "_derived", {})

    def exponent_points(self) -> set[tuple[int, int]]:
        """Points (|alpha|, lambda-power) generating the Newton polygon."""
        return {(t.j, 2 * self.m - t.j) for t in self.terms if t.coeff != 0}


def _integer(value, name: str) -> int:
    """A JSON number with an integral value, as an int; a boolean is none."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A JSON number as a float; a boolean or a string is none."""
    if type(value) is int or type(value) is float:
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def pencil_from_dict(data: dict) -> Pencil:
    try:
        n, m, mu = (_integer(data[k], k) for k in ("n", "m", "mu"))
        terms = tuple(
            Term(alpha=tuple(_integer(a, "alpha entry") for a in t["alpha"]),
                 j=_integer(t["j"], "j"),
                 coeff=complex(_real(t.get("re", 0.0), "re"),
                               _real(t.get("im", 0.0), "im")))
            for t in data["terms"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PencilFormatError(f"bad pencil description: {exc}") from exc
    return Pencil(n=n, m=m, mu=mu, terms=terms)


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
    This solves Q and A_2mu(xi', .); mesh_roots solves A's matrices in one
    stacked eigvals call, which gives each matrix the same bits.
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
        roots[:len(c) - 1 - zeros] = np.linalg.eigvals(companion(desc))[0]
    return roots


def companion(desc: np.ndarray) -> np.ndarray:
    """Companion matrices, as numpy.roots builds them, of the polynomials
    whose descending coefficients run along the last axis of desc; reversed,
    they serve the half-line Gramians."""
    d = desc.shape[-1] - 1
    out = np.zeros(desc.shape[:-1] + (d * d,), dtype=complex)
    out[..., d::d + 1] = 1.0            # the subdiagonal, row major
    out[..., :d] = -desc[..., 1:] / desc[..., :1]
    return out.reshape(desc.shape[:-1] + (d, d))


def _near_real_axis(roots: np.ndarray) -> np.ndarray:
    """Whether any root (along the last axis) lies within REAL_AXIS_TOL *
    max |root| of the real axis, a relative rule as in cluster_roots: 2^k *
    roots are near it as roots are.  A root at 0 is real."""
    scale = np.abs(roots).max(axis=-1, initial=0.0, keepdims=True)
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
    """Sampling densities for the compact-set checks, and `tol`, their zero
    threshold as a multiple of the sum of |coeff|.  Every caller in src/
    takes its default; it stays a field because perfbench/workloads.py
    passes it by keyword."""

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


# Values per block of a slice scan (table rows x columns), float64 or
# complex128 as the pencil's table.  A block bounds only the block and part
# buffers, about a megabyte together at most whatever the grid size; the
# powers of rho and lambda are per column, once per scan.  A scan of a real
# table takes the minima, the maxima where it needs them and |A| where A
# changes sign (column_least); when it exceeds this many values, the minima
# and maxima skip the rows that another row dominates (_dominance_parts):
# at the default grid broken's 596 distinct rows of 720 come down to 4 and
# aniso's 669 to 16, one block each.  Blocks still fill for complex tables,
# for the maxima and the rescans of a symbol that changes sign (aniso_sign
# keeps 169 rows for its maxima), and for the superset that
# three or more parts keep.  On a 2-CPU Xeon, check_lemma21 plus
# remark22_checks at the default grid took 2.02 ms on aniso and 2.91 ms on
# aniso_sign, against 2.09 and 2.95 ms at 16384 and 2.03 and 3.11 ms at
# 65536 (medians of 25 interleaved rounds).
SLICE_BLOCK_ENTRIES = 32768
# Points per half side of the patches that refine a sphere minimum.
ZOOM = 5
# Points that a call of zoom evaluates at first and after each move: as many
# rounds as this holds, at least one.  On a 2-CPU Xeon (numpy 2.4.6) the two
# sphere searches of check_lemma21 took, at 64 / 256 / 512 / 1024 / 4096
# points: e1 (11 points a round, 18 rounds) 431 / 350 / 352 / 350 / 349 us;
# e1_n3 (121 points a round) 815 / 817 / 698 / 740 / 827 us; gen_n3 (121)
# 3854 / 3849 / 3540 / 4280 / 5007 us; e1_n4 (1331, so one round a call at
# each) 4.35 / 4.30 / 4.32 / 4.34 / 4.34 ms (medians of 25 interleaved
# rounds of 5 calls).  A generic n = 3 search moves every few rounds, and
# each move discards the rounds its call evaluated after it.
ZOOM_POINTS = 512


def zoom(evaluate, centre, value, step, points: int, most: int):
    """Refine the least `value`, at `centre`, by rounds at the steps step,
    step / ZOOM, ... (while the largest entry exceeds 1e-15); evaluate(centre,
    steps) gives their points and values around `centre`, flat, round after
    round, `points` a round.

    The first call, and the first after a move, takes as many rounds as
    ZOOM_POINTS points hold, and each later call 4 times the last one's, up
    to as many as max(most, ZOOM_POINTS) points hold; every call takes at
    least one round.  So a call that starts the search or follows a move
    evaluates at most max(ZOOM_POINTS, points) points, and any other at
    most 4 times the last call's.  The first round whose least value
    (argmin's) beats the best so far moves the centre, and the rounds after
    it are evaluated again around the new one.  So every round sees the
    round-by-round search's centre, points, values, ties and NaN
    comparisons, bit for bit, in no more calls than rounds.
    """
    steps, top = [], float(np.max(step))    # rounded division keeps the largest
    while top > 1e-15:
        steps.append(step)
        step, top = step / ZOOM, top / ZOOM
    first = max(1, ZOOM_POINTS // points)
    ahead = max(1, max(most, ZOOM_POINTS) // points)
    size = first
    while steps:
        batch = np.array(steps[:size])
        found, vals = evaluate(centre, batch)
        vals, size = vals.reshape(len(batch), -1), min(4 * size, ahead)
        for r, k in enumerate(vals.argmin(axis=1)):
            if vals[r, k] < value:
                centre, value, size = found[r * vals.shape[1] + k], float(vals[r, k]), first
                break
        del steps[:r + 1]
    return centre, value


class Parts(NamedTuple):
    """A pencil's homogeneous parts A_j, compiled by compile_parts."""
    terms: tuple        # terms[j]: A_j's (coefficient, ((axis, power), ...))
    dtype: type         # of their values: float or complex
    tops: tuple         # tops[j][i]: the highest power of axis i in A_j's terms


def compile_parts(p: Pencil) -> Parts:
    """The parts A_j of p, compiled once per pencil and kept with it: each
    term's coefficient and its nonzero exponents, by order j and in p.terms
    order, and the highest power of each coordinate in each part (_powers).

    The dtype is float when every coefficient of p is real, and complex
    otherwise; a real dtype keeps only the real parts of the coefficients.
    The values are the same either way: numpy's product of c + 0i and x has
    real part c x exactly and imaginary part 0, and |x + 0i| = |x|.
    """
    if "parts" not in p._derived:
        real = all(t.coeff.imag == 0 for t in p.terms)
        terms = [[] for _ in range(2 * p.m + 1)]
        tops = [[0] * p.n for _ in terms]
        for t in p.terms:
            terms[t.j].append((t.coeff.real if real else t.coeff,
                               tuple((i, a) for i, a in enumerate(t.alpha) if a)))
            tops[t.j] = list(map(max, tops[t.j], t.alpha))
        p._derived["parts"] = Parts(tuple(map(tuple, terms)),
                                    float if real else complex, tuple(map(tuple, tops)))
    return p._derived["parts"]


def _powers(cols: np.ndarray, tops) -> list:
    """powers[i][k] = x^k for x = cols[i], 1 <= k <= tops[i]: x^k = x^(k-1) x."""
    return [[None, *itertools.accumulate([x] * top, np.multiply)]
            for x, top in zip(cols, tops)]


def _part(terms, powers):
    total = None
    for coeff, exps in terms:
        factors = [powers[i][a] for i, a in exps]
        term = coeff * (functools.reduce(np.multiply, factors) if factors else 1.0)
        total = term if total is None else total + term
    return total


def homogeneous_part(parts: Parts, j: int, cols: np.ndarray):
    """A_j(omega) at each point omega, for a part with at least one term,
    with the points held coordinate-major (cols[i] holds their i-th
    coordinates): its terms summed in order from the first (a constant part
    gives a scalar, which broadcasts against the points).

    A monomial is coeff times its factors x^a in coordinate order, zero
    exponents skipped (the products left out are exact), with x^a from _powers'
    x^k = x^(k-1) x, not x ** a: numpy's pow runs SIMD on positive bases but a
    scalar loop, 27 times slower, on negative ones, half of the coordinates,
    and its bits follow the SIMD build; squares keep x ** 2's bits (x x).  0.0
    plus this sum is the sum from 0.0 bit for bit: running sums differ at most
    in a zero's sign, a sum from 0.0 is never -0.0, and 0.0 + (-0.0) = 0.0.
    """
    return _part(parts.terms[j], _powers(cols, parts.tops[j]))


def homogeneous_table(parts: Parts, dirs: np.ndarray) -> np.ndarray:
    """(directions x (2m+1)) table of the parts A_j(omega), in their dtype,
    from one table of powers: each column is 0.0 plus homogeneous_part's."""
    table = np.zeros((len(dirs), len(parts.terms)), dtype=parts.dtype)
    powers = _powers(dirs.T, map(max, *parts.tops))
    for j, terms in enumerate(parts.terms):
        if terms:
            table[:, j] += _part(terms, powers)
    return table


def distinct_rows(table: np.ndarray) -> np.ndarray:
    """The rows of a direction table that differ bit for bit, each at its
    first occurrence, in order.  The keys are uint64 words (two per complex
    entry), not values: == would merge 0.0 with -0.0 and never merge NaN."""
    keys = np.ascontiguousarray(table).view(np.uint64).T
    order = np.lexsort(keys)            # stable: equal rows keep their order
    cols, new = keys.take(order, axis=1), np.ones(len(order), dtype=bool)
    new[1:] = (cols[:, 1:] != cols[:, :-1]).any(axis=0)
    first = np.zeros(len(order), dtype=bool)
    first[order[new]] = True            # each run's first row: no second sort
    return table[first]


def symbol_blocks(table: np.ndarray, rho, lam):
    """Yield (cols, block) with block[k, d] = A(rho[c] omega_d, lam[c]) for
    c = cols.start + k, over consecutive slices `cols` of the columns.

    Homogeneity gives A(rho omega, lambda) = sum_j rho^j lambda^(2m-j)
    A_j(omega), with A_j(omega) read from `table` (see homogeneous_table);
    blocks take the table's dtype.  Each column's powers rho^j
    lambda^(2m-j) are computed once per scan, for every part j that is
    not zero.  A block is the einsum outer product of the first part's
    powers with its A_j, plus each later part's outer product in j order:
    one multiply per part and one add per later part.  The sum over j is
    elementwise, and einsum runs numpy's own loops (optimize=False, no
    BLAS) over subscripts with no summed index, so each product is the one
    rounding of powers[c] * A_j[d] that a broadcast multiply gives.  The
    values therefore do not depend on the block size, the BLAS build or
    its threads, and equal the sum over j started from zeros; each depends
    on its own table row alone (see distinct_rows).  (einsum
    adds each product to its zeroed output, so a zero product also gets
    that sum's +0.0; column_least does not rely on it.)

    The block and the buffer for a later part are allocated once per scan,
    as the two halves of one array: each yielded block is overwritten by
    the next one, so a caller uses a block, and may overwrite it, before it
    advances.  With two allocations of 259 KB (a 720-row table), glibc's
    malloc returned the top of the heap to the system after some scans and
    the next scan faulted it in again, 95 minor page faults per scan,
    depending on what the process had allocated before; one allocation of
    518 KB raises glibc's trim threshold above what a scan frees.
    """
    rho, lam = np.asarray(rho, dtype=float), np.asarray(lam, dtype=float)
    top = table.shape[1] - 1
    nonzero = table.any(axis=0)
    parts = [(rho ** j * lam ** (top - j), np.ascontiguousarray(table[:, j]))
             for j in range(top + 1) if nonzero[j]]
    # A table of zeros has no part: its blocks are zeros.
    (first, a_first), *rest = parts or [(np.zeros_like(rho), table[:, 0])]
    step = max(1, SLICE_BLOCK_ENTRIES // len(table))
    block_buf, part_buf = np.empty((2, min(step, len(rho)), len(table)),
                                   dtype=table.dtype)
    for start in range(0, len(rho), step):
        cols = slice(start, start + step)
        block = block_buf[:len(first[cols])]
        part = part_buf[:len(block)]
        np.einsum("c,d->cd", first[cols], a_first, out=block)
        for powers, a_j in rest:
            block += np.einsum("c,d->cd", powers[cols], a_j, out=part)
        yield cols, block


def column_least(table: np.ndarray, rho, lam):
    """Least |A(rho[c] omega_d, lam[c])| over the directions d, for each
    column c, from symbol_blocks; and, for a real table, whether A is
    negative at some node and whether it is positive at some node (both
    False otherwise).

    A scan that needs one extreme per column takes it here, before it
    normalises: dividing by a positive number and rounding is monotone, so
    min_d fl(a_d / c) = fl(min_d a_d / c) bit for bit, and each column
    takes one division instead of one per direction.

    The scan reads the table's distinct rows, or fewer (_least_re).  A real
    table's least |A| comes from A's signed extremes: the minima, which are
    the least |A| where they are >= 0, minus the maxima where those are <=
    0, and the two flags.  A column where A changes sign, and a complex
    table, take |A| over every distinct row (_least_abs).  Adding 0.0 to
    the result turns a -0.0 into the +0.0 of a sum from zeros, so the least
    |A| keeps those bits whichever of two rows that tie at zero a reduction
    returns.
    """
    if table.dtype != float:
        return _least_abs(distinct_rows(table), rho, lam), False, False
    least, table, parts = _least_re(table, rho, lam)
    negative, positive = bool((least < 0.0).any()), bool((least > 0.0).any())
    # The maxima serve the columns with a negative minimum, and every
    # column while no positive value has shown.
    cols = np.flatnonzero((least < 0.0) | (not positive))
    if len(cols):
        rows = table if parts is None else table[_undominated(-parts)]
        hi = _column_reduce(np.maximum, rows, rho[cols], lam[cols])
        positive = positive or bool((hi > 0.0).any())
        below = least[cols] < 0.0
        least[cols[below]] = -hi[below]
        mixed = cols[below & (hi > 0.0)]
        if len(mixed):
            least[mixed] = _least_abs(table, rho[mixed], lam[mixed])
    return least + 0.0, negative, positive


def _least_re(table: np.ndarray, rho, lam):
    """Least Re A over the rows of the table, for each column, with +0.0
    for a -0.0 as in column_least; the table's distinct rows; and their
    _dominance_parts, or None.  The minima read the distinct rows, or with
    the parts only those that no row dominates from below."""
    table = distinct_rows(table)
    parts = _dominance_parts(table, rho, lam)
    rows = table if parts is None else table[_undominated(parts)]
    return _column_reduce(np.minimum, rows, rho, lam) + 0.0, table, parts


def _least_abs(table: np.ndarray, rho, lam) -> np.ndarray:
    """Least |A| over every row of the table, for each column, from
    symbol_blocks."""
    least = np.empty(len(rho))
    for cols, block in symbol_blocks(table, rho, lam):
        np.abs(block).min(axis=1, out=least[cols])
    return least


def _dominance_parts(table: np.ndarray, rho, lam):
    """The nonzero parts of a real table, one row of directions each, when a
    scan of the table exceeds SLICE_BLOCK_ENTRIES values and may skip the
    rows that another row dominates; else None.

    A scan may skip them because every part power P_j = rho^j
    lambda^(2m-j) is >= 0 (on the slice and on prop52's box rho, lambda >=
    0), a block value is the rounded products P_j A_j(omega) summed in j
    order, and IEEE rounding is monotone: each rounded product is a
    nondecreasing function of A_j(omega), and so is the rounded sum.  So a
    row that is >= another in every nonzero part gives a value >= the
    other's at every node, bit for bit, and a column's minimum lies on the
    rows that no row dominates from below, and its maximum on those that
    none dominates from above (_undominated).  That needs each P_j >= 0,
    and no product or partial sum of a block value may overflow, on any
    row: P_j's largest value times A_j's largest |.|, summed in j order,
    must be finite, which also makes the table finite and keeps a scan
    that skips rows from missing an overflow that the whole scan would
    raise.  A scan of one block costs less than the search for the rows it
    may skip.
    """
    if table.dtype != float or len(table) * len(rho) <= SLICE_BLOCK_ENTRIES:
        return None
    rho, lam = np.asarray(rho, dtype=float), np.asarray(lam, dtype=float)
    by_part = table.T.copy()        # reductions over rows run contiguous
    largest = np.abs(by_part).max(axis=1)
    nonzero, top, bound = np.flatnonzero(largest), len(largest) - 1, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in nonzero:
            powers = rho ** j * lam ** (top - j)
            if not powers.min() >= 0.0:
                return None
            bound += powers.max() * largest[j]
    return by_part[nonzero] if math.isfinite(bound) else None


def _undominated(parts: np.ndarray) -> np.ndarray:
    """Indices of directions among which each direction of `parts` (nonzero
    parts x directions) finds one that is <= it in every part.

    With one or two parts they are exactly the directions that no other
    dominates, one of each set of equal ones: sorted by (first part, last
    part), a direction is kept when its last part is below every earlier
    one's.  With more parts they are a superset: the pivots, which are each
    part's least direction and the direction of least sum, and every
    direction that no pivot dominates.
    """
    if 1 <= len(parts) <= 2:
        order = np.lexsort((parts[-1], parts[0]))
        last = parts[-1, order]
        keep = np.ones(len(order), dtype=bool)
        keep[1:] = last[1:] < np.minimum.accumulate(last)[:-1]
        return order[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = parts.sum(axis=0)
    pivots = np.unique([*parts.argmin(axis=1), sums.argmin()])
    keep = ~(parts[:, pivots, None] <= parts[:, None, :]).all(axis=0).any(axis=0)
    keep[pivots] = True
    return np.flatnonzero(keep)


def _column_reduce(ufunc, table: np.ndarray, rho, lam) -> np.ndarray:
    """np.minimum or np.maximum of Re A over the rows of the table, for
    each column, from symbol_blocks.  It reduces a contiguous transpose of
    each block: over a few rows, a (720 x 7) block's min along its short
    axis took 60 us, and its transpose's along the long one 4 us."""
    out = np.empty(len(rho))
    for cols, block in symbol_blocks(table, rho, lam):
        ufunc.reduce(block.real.T.copy(), axis=0, out=out[cols])
    return out


def _slice_nodes(p: Pencil, angular: int):
    """Nodes (rho, lambda) = (cos th, sin th) at the midpoints of `angular`
    cells of [0, pi/2], and the normaliser rho^2mu (lambda+rho)^(2m-2mu)."""
    theta = (np.arange(angular) + 0.5) / angular * (np.pi / 2.0)
    rho, lam = np.cos(theta), np.sin(theta)
    return rho, lam, rho ** (2 * p.mu) * (lam + rho) ** (2 * p.m - 2 * p.mu)


def _coordinate_sum(cols: np.ndarray) -> np.ndarray:
    """Sum over the first axis, the coordinates of points held
    coordinate-major: np.add.reduce over axis 0, which adds whole rows
    elementwise, in order, and so runs along numpy's fast contiguous axis
    (4-6 times faster than axis 1 on 720-5324 points).  With fewer than 8
    coordinates it equals np.add.reduce over axis 1 of the points as rows,
    bit for bit, which also adds in order; from 8 values on numpy sums a
    row pairwise, so for n >= 8 the two may differ in the last bit."""
    return np.add.reduce(cols, axis=0)


def _sphere_min(parts: Parts, j: int, cols: np.ndarray, table: np.ndarray):
    """Smallest |A_j| found on the unit sphere, and its direction, over the
    directions held coordinate-major (cols[i] holds their i-th coordinates,
    contiguous) and their table.

    The grid minimum is refined by zoom: each round samples a patch of
    2*ZOOM+1 points a side, parallel to the tangent plane at the grid
    minimum and centred on the best direction so far, and the next round
    samples one cell of it.  The first patch reaches the nearest grid
    direction, so a zero between grid directions is still found: 90
    directions in the plane miss the zero (0, 1) of xi_1^2 with |A_j| =
    1.2e-3 at the nearest one, far above the tolerance.  A zoom call takes
    as many rounds as ZOOM_POINTS points hold first and after each move,
    else 4 times the last call's, and at most as many points as the grid
    has directions or ZOOM_POINTS, whichever is more, but one round at
    least (a 1331-point patch for n = 4).

    The differences, offsets and patches are coordinate-major too, so
    homogeneous_part reads contiguous columns and each sum over the
    coordinates is a _coordinate_sum.  homogeneous_part's products are the
    table's, so a patch's values differ from the table's at most in the
    sign of a zero, which |.| removes.  A part with no term is zero, and
    A_0 is constant: no patch can hold a smaller value than the grid's,
    so neither zooms.
    """
    vals = np.abs(table[:, j])
    k = int(vals.argmin())
    best, value = cols[:, k], float(vals[k])
    n = len(cols)
    if n == 1 or j == 0 or not parts.terms[j]:
        return best, value          # n = 1: the two directions are the sphere
    gaps = _coordinate_sum(np.square(cols - best[:, None]))
    gaps[k] = 4.0           # no direction is farther than the antipode
    # Columns 2..n of the Householder reflection that maps e_1 to -+best
    # span the tangent plane at best.
    v = best.copy()
    v[0] += math.copysign(1.0, best[0])
    tangent = (np.eye(n) - 2.0 * np.outer(v, v) / np.add.reduce(v * v))[:, 1:]
    side = np.arange(-ZOOM, ZOOM + 1, dtype=float)
    patch = np.stack(np.meshgrid(*[side] * (n - 1))).reshape(n - 1, -1)
    offsets = _coordinate_sum(tangent.T[:, :, None] * patch[:, None, :])

    def evaluate(best, steps):
        pts = (steps[:, None] * offsets[:, None, :]).reshape(n, -1)
        pts += best[:, None]
        pts /= np.sqrt(_coordinate_sum(pts * pts))
        return pts.T, np.abs(homogeneous_part(parts, j, pts))

    return zoom(evaluate, best, value, math.sqrt(gaps.min()) / ZOOM,
                offsets.shape[1], cols.shape[1])


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

    The slice scan (column_least) gives min_abs, min_ratio and the sign
    flags of the whole grid bit for bit, from the rows that it reads (see
    _dominance_parts).  Each angle divides only its least |A| by the
    normaliser, which gives the same min_ratio bit for bit.  The least
    ratio's first angle is the first minimising node's angle, and its
    direction is found by evaluating and dividing that angle's row of the
    whole table again: two values of |A| can round to the same ratio, so
    the first minimising direction need not be the first least |A|.

    The closed slice is connected and the ratio, taken with A's sign, is
    continuous on it, with the values A_2m(omega) and A_2mu(omega) at its
    ends.  So a real A whose ratio is negative and positive among the grid
    nodes and the ends vanishes on the slice: min_ratio is then 0.0 and
    (iii) fails, whatever the grid minimum, and witness_iii stays the node
    of least ratio.  A zero without a sign change, or a zero of a complex
    A, shows only as a small grid minimum.
    """
    dirs = sphere_directions(p.n, grid.direction_count(p.n))
    tol = grid.tol * p.coeff_scale
    parts = compile_parts(p)
    table = homogeneous_table(parts, dirs)
    cols = np.ascontiguousarray(dirs.T)
    witness_i, min_a2m = _sphere_min(parts, 2 * p.m, cols, table)
    witness_ii, min_a2mu = _sphere_min(parts, 2 * p.mu, cols, table)

    rho, lam, denom = _slice_nodes(p, grid.angular)
    lowest, negative, positive = column_least(table, rho, lam)
    ratio = _normalised(lowest, denom)
    k, d = int(np.argmin(ratio)), 0
    min_abs, min_ratio = float(lowest.min()), float(ratio[k])
    if min_ratio < np.inf:          # else the normaliser underflows everywhere
        _, block = next(symbol_blocks(table, rho[k:k + 1], lam[k:k + 1]))
        d = int(np.argmin(np.abs(block[0]) / denom[k]))
    ends = table[:, [2 * p.m, 2 * p.mu]]   # the ratio at the slice's ends
    if table.dtype == float and ((negative or ends.min() < 0.0)
                                 and (positive or ends.max() > 0.0)):
        min_ratio = 0.0

    cond_i = bool(min_a2m > tol)
    cond_ii = bool(min_a2mu > tol)
    cond_iii = bool(min(min_ratio, min_a2m, min_a2mu) > tol)
    return EllipticityReport(
        cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii,
        min_a2m=min_a2m, min_a2mu=min_a2mu,
        min_abs=min_abs, min_ratio=min_ratio,
        C_est=min_ratio if (cond_i and cond_ii and cond_iii) else 0.0,
        witness_i=witness_i, witness_ii=witness_ii,
        witness_iii=(rho[k] * dirs[d], float(lam[k])))


def q_polynomial(p: Pencil) -> np.ndarray:
    """Ascending coefficients of Q(tau) = tau^(-2mu) A(0, tau, 1), degree 2m-2mu.

    At xi' = 0 only terms with alpha = (0, ..., 0, j), j >= 2mu, survive, so
    the lowest 2mu coefficients of A(0, tau, 1) are exact zeros.  Requires
    Q(0) != 0, which holds for parameter-elliptic pencils.
    """
    full = tau_polynomial(p, np.zeros(p.n - 1), 1.0)
    scale = np.max(np.abs(full)) or 1.0
    q = full[2 * p.mu:]
    if abs(q[0]) <= 1e-12 * scale:
        raise EllipticityError("Q(0) = 0: pencil violates parameter ellipticity at xi=0")
    return q


class DegenerationResult(NamedTuple):
    regular: bool | None           # None = indeterminate (near-real root)
    upper_roots: tuple[complex, ...]
    k1: int


def check_regular_degeneration(p: Pencil) -> DegenerationResult:
    """Count upper-half-plane roots of Q; regular iff the count is m - mu.
    Q depends on the pencil alone, so the result is kept on the pencil."""
    deg = p._derived.get("degeneration")
    if deg is not None:
        return deg
    roots = poly_roots(q_polynomial(p))
    upper = roots[roots.imag > 0]
    if _near_real_axis(roots):
        deg = DegenerationResult(None, tuple(upper), 0)
    else:
        k1 = max((len(members) for _, members in cluster_roots(upper)), default=0)
        deg = DegenerationResult(len(upper) == p.m - p.mu, tuple(upper), k1)
    p._derived["degeneration"] = deg
    return deg


def remark22_checks(p: Pencil, grid: GridSpec = GridSpec()) -> dict:
    """Sufficient conditions for regular degeneration.

    even_order: only even homogeneity orders occur, so Q is a polynomial in
    tau^2.  strongly_elliptic: Re A dominates |xi|^2mu (lambda+|xi|)^(2m-2mu)
    on the compact slice, with c_min the smallest ratio of the two.  Either
    condition implies regular degeneration.  The least Re A of each angle
    is column_least's first step (_least_re), bit for bit that of the whole
    grid.
    """
    even_order = all(t.j % 2 == 0 for t in p.terms if t.coeff != 0)
    table = homogeneous_table(compile_parts(p),
                              sphere_directions(p.n, grid.direction_count(p.n)))
    rho, lam, denom = _slice_nodes(p, grid.angular)
    c_min = float(_normalised(_least_re(table, rho, lam)[0], denom).min())
    return {"even_order": even_order,
            "strongly_elliptic": bool(c_min > grid.tol * p.coeff_scale),
            "c_min": c_min}


@dataclass(frozen=True)
class RootSet:
    upper: tuple[complex, ...]
    lower: tuple[complex, ...]


def mesh_roots(p: Pencil, xi_prime, lam) -> list:
    """The tau-roots of A at each node (xi_prime[k], lam[k]), xi_prime of
    shape (N, n-1): per node a RootSet, or the error that refuses the node,
    returned and not raised.  Every tau-root set of A comes from here: one
    stacked eigvals call, which gives each node the bits it has alone.
    Refused, in turn: what _tau_coefficients refuses, xi' = lambda = 0, a
    root on the real axis (a zero constant term is a root at 0), m_+ != m.
    """
    xi_prime, lam = np.asarray(xi_prime, dtype=float), np.asarray(lam, dtype=float)
    if xi_prime.shape != (len(lam), p.n - 1):
        raise ValueError(f"xi' has shape {xi_prime.shape}, expected "
                         f"({len(lam)}, {p.n - 1})")
    nodes = list(zip(xi_prime.tolist(), lam.tolist()))
    out, solved, coeffs = [None] * len(nodes), [], []
    for k, (xs, y) in enumerate(nodes):
        try:
            coeffs.append(_tau_coefficients(p, xs, y))
            solved.append(k)
        except (OutOfRangeError, EllipticityError) as exc:
            out[k] = exc
    if not coeffs:
        return out
    roots = np.linalg.eigvals(companion(np.array(coeffs)[:, ::-1]))
    near_real = _near_real_axis(roots).tolist()
    for k, c, r, near in zip(solved, coeffs, roots.tolist(), near_real):
        (xs, y), upper, lower = nodes[k], [], []
        for z in r:
            (upper if z.imag > 0 else lower).append(z)
        if y == 0.0 and math.hypot(*xs) == 0.0:
            out[k] = ValueError("need xi' != 0 or lambda > 0")
        elif near or c[0] == 0:
            out[k] = EllipticityError(
                f"root on the real axis at xi'={np.array(xs)}, lambda={y}")
        elif len(upper) != p.m:
            out[k] = EllipticityError(
                f"{len(upper)} upper roots, expected m = {p.m} (m_+ = m violated)")
        else:
            out[k] = RootSet(tuple(upper), tuple(lower))
    return out


def accepted(results: list) -> list[RootSet]:
    """mesh_roots' results, once none is an error; else raises the first."""
    for rs in results:
        if isinstance(rs, Exception):
            raise rs
    return results


def tau_roots(p: Pencil, xi_prime, lam: float) -> RootSet:
    """The 2m roots of A(xi', tau, lambda), upper and lower half-plane apart:
    mesh_roots at the one node, raising that node's error.

    The pencil keeps the RootSet of its last point, keyed on the bits of xi'
    and lambda; a point that raises is not kept.  halfline-points calls
    group_roots, then solve, at each point: without this memo its wall_s
    rose from 0.040 to 0.056 s (+39%, 2-CPU Xeon).  It can go once that
    benchmark calls what the CLI calls, which solves each point once.
    """
    xi_prime = np.asarray(xi_prime, dtype=float)
    key = (xi_prime.shape, xi_prime.tobytes(), float(lam).hex())
    last = p._derived.get("roots")
    if last is not None and last[0] == key:
        return last[1]
    if xi_prime.shape != (p.n - 1,):
        raise ValueError(f"xi' has shape {xi_prime.shape}, expected ({p.n - 1},)")
    rs, = accepted(mesh_roots(p, xi_prime[None], [lam]))
    p._derived["roots"] = key, rs
    return rs


def _min_cost_matching(cost: list[list[float]]) -> list[int]:
    """Row matched to each column of the square `cost` by a cheapest matching:
    best[S] is the cheapest match (total, rows) of the first |S| columns onto
    the rows in the set S, and on a tie the later row takes the column."""
    m = len(cost)
    best = [(0.0, [])] + [(math.inf, [])] * ((1 << m) - 1)
    for s in range(1, 1 << m):
        for i in reversed(range(m)):
            total, rows = best[s ^ 1 << i]
            if s >> i & 1 and total + cost[i][len(rows)] < best[s][0]:
                best[s] = (total + cost[i][len(rows)], rows + [i])
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
    upper = np.array(tau_roots(p, xi_prime, lam).upper)
    return _match_groups(p, upper, lam, *_grouping_targets(p, xi_prime))


def mesh_group_roots(p: Pencil, xi_prime, lam) -> list[RootGrouping]:
    """group_roots(p, xi_prime, lam[k]) at each lambda of the array lam,
    field for field, from one mesh_roots call; the bounded targets and Q's
    roots are found once, since xi' is fixed.  An error names what a loop
    of group_roots calls would name first: node 0's roots, then the
    targets, then the later nodes.
    """
    xi_prime, lam = np.asarray(xi_prime, dtype=float), np.asarray(lam, dtype=float)
    results = mesh_roots(p, np.tile(xi_prime, (len(lam), 1)), lam)
    accepted(results[:1])
    targets = _grouping_targets(p, xi_prime)
    return [_match_groups(p, np.array(rs.upper), y, *targets)
            for rs, y in zip(accepted(results), lam.tolist())]


def _grouping_targets(p: Pencil, xi_prime) -> tuple[np.ndarray, DegenerationResult]:
    """The upper zeros of A_2mu(xi', .) and the regular degeneration of Q,
    which give group_roots' targets; raises when either count is wrong."""
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
    return bounded_targets, deg


def _match_groups(p: Pencil, upper: np.ndarray, lam: float,
                  bounded_targets: np.ndarray,
                  deg: DegenerationResult) -> RootGrouping:
    """group_roots' matching of the upper roots to its targets.

    The cost matrix takes one np.abs call and the rest runs on lists.  Each
    |upper root| is Python's abs of the complex, which is the libm hypot
    that numpy's scalar abs calls; numpy's array abs can round differently.
    """
    large_targets = lam * np.array(deg.upper_roots)
    targets = np.concatenate([bounded_targets, large_targets])
    cost = np.abs(upper[:, None] - targets[None, :]).tolist()
    assign = _min_cost_matching(cost)
    residuals = [cost[assign[c]][c] for c in range(p.m)]

    ambiguous = False
    if p.mu > 0 and p.m > p.mu:
        for row, root in zip(cost, upper.tolist()):
            gap = abs(min(row[:p.mu]) - min(row[p.mu:]))
            if gap <= AMBIGUITY_TOL * (1.0 + abs(root)):
                ambiguous = True
    return RootGrouping(
        upper_roots=tuple(upper), group_bounded=tuple(assign[:p.mu]),
        group_large=tuple(assign[p.mu:]),
        bounded_targets=tuple(bounded_targets),
        large_targets=tuple(large_targets),
        residual_bounded=tuple(residuals[:p.mu]),
        residual_large=tuple(residuals[p.mu:]),
        k1=deg.k1, ambiguous=ambiguous)
