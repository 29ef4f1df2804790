"""Weight functions attached to a Newton polygon.

A weight is represented up to equivalence as a product of factors
(|xi|^2 + lambda^(2/r))^m over the non-axis sides of the polygon.  The
horizontal side (r = inf) contributes (1 + |xi|^2)^m; in the homogeneous
variant this factor degenerates to |xi|^(2m).  Exponents m may be any
positive rationals (half-integers occur for the energy polygon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import BandError, Float64RangeError, OutOfRangeError
from .polygon import INF, NewtonPolygon

# Single equivalence constant used when asserting the two-sided integral
# bound; the bound itself is reported so callers can tighten it.
LEMMA32_BAND_CONSTANT = 1.0e4


@dataclass(frozen=True)
class ProductWeight:
    """Ordered factors (r, m) with r strictly decreasing, m > 0."""

    factors: tuple[tuple[Fraction | float, Fraction], ...]

    def __post_init__(self):
        rs = [r for r, _ in self.factors]
        if any(r2 >= r1 for r1, r2 in zip(rs[:-1], rs[1:])):
            raise ValueError(f"factor slopes not strictly decreasing: {rs}")
        if any(m <= 0 for _, m in self.factors):
            raise ValueError("factor exponents must be positive")

    @property
    def total_exponent(self) -> Fraction:
        """Half the xi-growth exponent, i.e. sum of the m_s."""
        return sum((m for _, m in self.factors), Fraction(0))

    def to_json_dict(self) -> dict:
        return {"factors": [
            {"r": "inf" if r == INF else str(Fraction(r)), "m": str(Fraction(m))}
            for r, m in self.factors]}


@dataclass(frozen=True)
class HomogeneousWeight(ProductWeight):
    """Same factor list, but the r = inf factor reads |xi|^2 instead of 1 + |xi|^2."""


def from_polygon(np_: NewtonPolygon) -> ProductWeight:
    """Product weight of a polygon: per side, m_s = (a_{s+1} - a_s) / 2."""
    if np_.degenerate:
        # Only the abscissa-axis growth survives; a pure lambda-axis polygon
        # has no product representation of this form.
        if np_.k_max > 0:
            raise OutOfRangeError(
                "degenerate polygon on the ordinate axis has no product weight")
        if np_.i_max == 0:
            return ProductWeight(())
        return ProductWeight(((INF, Fraction(np_.i_max, 2)),))
    factors = []
    for s in np_.sides:
        m = Fraction(s.end[0] - s.start[0], 2)
        if m > 0:
            factors.append((s.r, m))
    return ProductWeight(tuple(factors))


def xi_sum_eval(np_: NewtonPolygon, xi_abs, lambda_abs):
    """Sum of |xi|^i lambda^k over the integer points; arrays broadcast."""
    return sum((xi_abs ** i * lambda_abs ** k for i, k in np_.integer_points()),
               0.0)


def _factor_base(w: ProductWeight, r, xi_abs, lambda_abs):
    if r == INF:
        const = 0.0 if isinstance(w, HomogeneousWeight) else 1.0
        return xi_abs ** 2 + const
    return xi_abs ** 2 + lambda_abs ** float(2 / Fraction(r))


def xi_product_eval(w: ProductWeight, xi_abs, lambda_abs):
    """Evaluate prod (|xi|^2 + lambda^(2/r_s))^(m_s); arrays broadcast."""
    out = np.ones(np.broadcast(xi_abs, lambda_abs).shape)[()]
    for r, m in w.factors:
        out = out * _factor_base(w, r, xi_abs, lambda_abs) ** float(m)
    return out


def kappa_index(w: ProductWeight, s) -> int:
    """1-based index kappa with 2(m_1+..+m_{kappa-1}) <= s < 2(m_1+..+m_kappa)."""
    s = Fraction(s)
    if s < 0:
        raise OutOfRangeError(f"shift amount {s} is negative")
    acc = Fraction(0)
    for idx, (_, m) in enumerate(w.factors, start=1):
        acc += 2 * m
        if s < acc:
            return idx
    raise OutOfRangeError(
        f"shift amount {s} >= total exponent {2 * w.total_exponent}")


def shift(w: ProductWeight, s) -> ProductWeight:
    """Truncated left shift of the polygon by s, on the factor list.

    Factors below the index kappa(s) are dropped, the kappa-th factor keeps
    exponent (m_1+..+m_kappa) - s/2, later factors are unchanged.  s equal
    to the total exponent 2*sum(m_s) yields the empty (constant) weight.
    """
    s = Fraction(s)
    if s == 0:
        return w
    if s == 2 * w.total_exponent:
        return replace(w, factors=())
    kappa = kappa_index(w, s)
    partial = sum((m for _, m in w.factors[:kappa]), Fraction(0))
    # kappa_index puts s below 2 * partial, so the kappa-th factor stays.
    kept = (w.factors[kappa - 1][0], partial - s / 2)
    return replace(w, factors=(kept, *w.factors[kappa:]))


# Trapezoid rule in u = log t.  The integrand is analytic in the strip
# |Im u| < pi/2 (singularities at u = log a_s +- i pi/2), so the error of
# step h falls like exp(-pi^2 / h), about 4e-22 at h = 0.2.  Each point's
# lattice runs from _MARGIN below its smallest log-scale to _MARGIN above
# its largest, the same for every l.  Past its ends the integrand is a
# power of t times a binomial series in (t / a_s)^2 or (a_s / t)^2, both at
# most exp(-2 _MARGIN), so each infinite tail of the rule is a sum of
# geometric series.  The first term left out is below C(E + 12, 13)
# e^(-52) of its tail, E = sum 2m_s: 2e-19 at E = 6.
_STEP = 0.2
_MARGIN = 2.0
_TERMS = 12
_BLOCK = 128    # points per block, so node memory does not grow with the grid


def _series(y, exps):
    """Coefficients c_n, n = 0.._TERMS, of x^n in prod_s (1 - y_s x)^(-e_s),
    shape (_TERMS + 1, rows), for y of shape (rows, factors) with |y_s| < 1:
    with the power sums q_k = sum_s e_s y_s^k, n c_n = sum_(k=1..n) q_k c_(n-k)."""
    powers = np.cumprod(np.repeat(y[:, :, None], _TERMS, axis=2), axis=2)
    q = np.einsum("s,rsk->kr", exps, powers)
    c = np.ones((_TERMS + 1, len(y)))
    for n in range(1, _TERMS + 1):
        c[n] = np.einsum("kr,kr->r", q[:n], c[n - 1::-1]) / n
    return c


def _trapezoid(log_a, exps, rates):
    """Step-h trapezoid sums per row of log_a (rows, factors) for each row
    (2l+1, 2E-2l-1) of `rates`, where `exps` holds the e_s = 2 m_s and
    E = sum e_s: the rates at which the log-integrand falls off to the left
    and to the right of the scales.

    Returns (top, sums, err), each (len(rates), rows): the integral is
    exp(top) * sums, top being the row's largest log-integrand on the
    lattice, so the sums stay in range even where the integral does not.
    The step-2h sums take every other node (the node count is odd, so both
    ends) and their own tails.  r = |I_h - I_2h| / I_h is the error of the
    step-2h value; the error falls like exp(-pi^2 / h), so the step-h
    value's relative error is about r^2.  That is an asymptotic estimate,
    not a bound: it holds at the default step h = 0.2, where the error is
    at rounding level, but at h = 0.3-0.6 the change from halving the step
    exceeded r^2 in 19-98 of 500 random sets of one to three scales.

    Each row has its own odd node count.  The nodes run along the first
    axis, those past a row's last one add exact zeros (log-integrand -inf)
    and the sums add in node order, so a row gives the same bits alone.
    """
    h = _STEP
    lo, hi = log_a.min(axis=1), log_a.max(axis=1)
    counts = np.ceil((hi - lo + 2 * _MARGIN) / h).astype(int) + 1
    counts += 1 - counts % 2
    nodes = np.arange(counts.max())[:, None]
    u = (lo - _MARGIN) + h * nodes
    # log of t^(2l) dt/du / prod (t^2+a_s^2)^(2m_s) with t = e^u, dt/du = t;
    # logaddexp keeps huge and tiny scales from overflowing.  Only the power
    # of t depends on l.  f has shape (nodes, l, rows).
    left, right = rates[:, :1], rates[:, 1:]
    decay = sum(e * np.logaddexp(2.0 * u, 2.0 * log_a[:, s]) for s, e in enumerate(exps))
    decay[nodes >= counts] = np.inf
    f = left * u[:, None] - decay[:, None]
    top = f.max(axis=0)
    g = np.exp(f - top)

    # Left of the lattice the integrand is t^(2l+1) prod_s a_s^(-2 e_s)
    # (1 + y_s)^(-e_s) with y_s = (t/a_s)^2; right of it, t^(2l+1-2E)
    # prod_s (1 + y_s)^(-e_s) with y_s = (a_s/t)^2.  Node j past an end node
    # scales the power of t by e^(-rate jh) and y_s by e^(-2jh), so with c_n
    # the coefficients of prod_s (1 + y_s x)^(-e_s) at the end node, its tail is
    # lead * sum_n c_n / (e^((rate + 2n) h) - 1), lead being the integrand
    # there without that product.  The right lead is t^(-rate) with the
    # exact rate, which can be far below 2l+1 and 2E: that tail then holds
    # most of the integral, and 2l+1-2E in float64 would cost it digits.
    rows = len(log_a)
    first, last = u[0], u[counts - 1, np.arange(rows)]
    y = np.exp(2.0 * np.concatenate([first[:, None] - log_a, log_a - last[:, None]]))
    c = _series(-y, exps)
    lead_left = g[0] * np.prod((1.0 + y[:rows]) ** exps, axis=1)
    lead_right = np.exp(-right * last - top)
    twice_n = 2.0 * np.arange(_TERMS + 1)

    def tails(step):
        # sum_n c_n / (e^((rate + 2n) step) - 1) at both ends.  einsum adds in
        # the same order for any number of rates, so an l's value does not
        # depend on the other l of the call.
        left_sum, right_sum = (
            np.einsum("ln,nr->lr", 1.0 / np.expm1((rate + twice_n) * step), coef)
            for rate, coef in ((left, c[:, :rows]), (right, c[:, rows:])))
        return lead_left * left_sum + lead_right * right_sum

    fine = 2.0 * h * (g.sum(axis=0) + tails(h))
    coarse = 4.0 * h * (g[::2].sum(axis=0) + tails(2.0 * h))
    return top, fine, (np.abs(fine - coarse) / fine) ** 2


def _lemma32(a, m, ls):
    """lemma32_integral for every l in ls at once: each result has a leading
    axis over ls.  The lattice, its logaddexp terms and the tail series are
    computed once for all of them."""
    m = [Fraction(x) for x in m]
    if len(a) != len(m):
        raise ValueError(f"{len(a)} scales for {len(m)} exponents")
    scales = np.stack(np.broadcast_arrays(*a), axis=-1).astype(float)
    shape = scales.shape[:-1]
    scales = scales.reshape(-1, len(m))
    if not np.all((scales > 0) & (scales < math.inf)):
        raise OutOfRangeError("scales a_s must be positive and finite")
    total = sum(m, Fraction(0))
    for l in ls:
        if 2 * l + 1 >= 4 * total:
            raise OutOfRangeError(f"integral diverges: need 2l+1 < 4*sum(m), "
                                  f"got l={l}, sum(m)={total}")
    log_a = np.log(scales)
    exps = np.array([float(x) for x in m])
    m_text = [str(x) for x in m]

    rates = np.array([[2 * l + 1, float(4 * total - 2 * l - 1)]
                      for l in ls]).reshape(-1, 2)
    top, sums, err = map(np.hstack, zip(*(
        _trapezoid(log_a[i:i + _BLOCK], 2.0 * exps, rates)
        for i in range(0, len(log_a), _BLOCK))))
    with np.errstate(over="ignore", under="ignore"):
        value = sums * np.exp(top)
    # Below the smallest normal float64 a value loses digits, then reads 0.
    out = np.argwhere(~((value >= np.finfo(float).tiny) & (value < math.inf)))
    if out.size:
        k, i = out[0]
        exponent = (top[k, i] + math.log(sums[k, i])) / math.log(10.0)
        flows = "underflows" if exponent < 0 else "overflows"
        raise Float64RangeError(
            f"integral of about 1e{exponent:.0f} {flows} float64 "
            f"(a={scales[i].tolist()}, m={m_text}, l={ls[k]})")

    # kappa per the index rule with s = l: a_kappa is the smallest scale
    # such that twice the exponents of the scales up to it (ties included)
    # sum to more than l.  Counted exactly, in units of 1/den.
    den = math.lcm(*(x.denominator for x in m))
    num = np.array([int(x * den) for x in m])
    below = log_a[:, None, :] <= log_a[:, :, None]
    reached = 2 * (below * num).sum(axis=2)
    lower, upper = np.empty_like(value), np.empty_like(value)
    for k, l in enumerate(ls):
        log_k = np.where(reached > l * den, log_a, np.inf).min(axis=1)
        # Scales up to a_kappa enter B through a_kappa, later ones through a_s.
        bound = np.exp((2 * l + 1) * log_k
                       - 4.0 * (exps * np.maximum(log_a, log_k[:, None])).sum(axis=1))
        lower[k] = bound / LEMMA32_BAND_CONSTANT
        upper[k] = bound * LEMMA32_BAND_CONSTANT
        bad = np.flatnonzero(~((lower[k] <= value[k]) & (value[k] <= upper[k])))
        if bad.size:
            i = bad[0]
            raise BandError(
                f"integral {value[k, i]} escapes band [{lower[k, i]}, {upper[k, i]}] "
                f"(a={scales[i].tolist()}, m={m_text}, l={l})")
    return tuple(x.reshape((len(ls),) + shape) for x in (value, lower, upper, err))


def lemma32_integral(a, m, l: int):
    """Two-sided bound check for int t^(2l) / prod (t^2+a_s^2)^(2m_s) dt.

    Returns (value, lower, upper, err): the trapezoid-rule value of the
    integral over the real line, the two-sided band B / C <= value <= B * C
    with B = a_kappa^(2l+1-4(m_1+..+m_kappa)) * prod_{s>kappa} a_s^(-4 m_s)
    (scales in increasing order) and the module constant C, and the error
    estimate (|I_h - I_2h| / I_h)^2 of the value.  Each scale a_s may be an
    array; they broadcast together, every point is checked against its
    band, and the results have the broadcast shape.  A value outside the
    normal float64 range raises Float64RangeError, an OutOfRangeError.
    """
    return tuple(x[0] for x in _lemma32(a, m, [l]))


def trace_weight_quadrature(w: ProductWeight, l, xi_prime_abs, lambda_abs):
    """Trace weight sigma'_l = (int xi_n^(2l) / Xi^2 d xi_n)^(-1/2).

    The squared weight contributes exponent 2 m_s per factor, which is the
    integrand of lemma32_integral with scales a_s^2 = |xi'|^2 + lambda^(2/r_s).
    |xi'| and lambda may be arrays of points.  Returns (sigma, err), err the
    quadrature error estimate of lemma32_integral.  l may also be a
    sequence: then sigma and err gain a leading axis over it, and one
    lattice serves every l.
    """
    if not w.factors:
        raise OutOfRangeError("constant weight has no trace weight")
    a = [np.sqrt(_factor_base(w, r, xi_prime_abs, lambda_abs))
         for r, _ in w.factors]
    value, _, _, err = _lemma32(a, [m for _, m in w.factors], np.ravel(l).tolist())
    if np.ndim(l) == 0:
        value, err = value[0], err[0]
    return value ** -0.5, err
