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

from .errors import BandError, OutOfRangeError
from .polygon import INF, NewtonPolygon

# Single equivalence constant used when asserting the two-sided integral
# bound; the bound itself is reported so callers can tighten it.
LEMMA32_BAND_CONSTANT = 1.0e4


@dataclass(frozen=True)
class ProductWeight:
    """Ordered factors (r, m) with r strictly decreasing, m > 0."""

    factors: tuple[tuple[Fraction | float, Fraction], ...]
    lambda0: float = 1.0

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
        return {
            "factors": [
                {"r": "inf" if r == INF else str(Fraction(r)), "m": str(Fraction(m))}
                for r, m in self.factors
            ],
            "lambda0": self.lambda0,
        }


@dataclass(frozen=True)
class HomogeneousWeight(ProductWeight):
    """Same factor list, but the r = inf factor reads |xi|^2 instead of 1 + |xi|^2."""


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def from_polygon(np_: NewtonPolygon, lambda0: float = 1.0) -> ProductWeight:
    """Product weight of a polygon: per side, m_s = (a_{s+1} - a_s) / 2."""
    if np_.degenerate:
        # Only the abscissa-axis growth survives; a pure lambda-axis polygon
        # has no product representation of this form.
        if np_.k_max > 0:
            raise OutOfRangeError(
                "degenerate polygon on the ordinate axis has no product weight")
        if np_.i_max == 0:
            return ProductWeight((), lambda0=lambda0)
        return ProductWeight(((INF, Fraction(np_.i_max, 2)),), lambda0=lambda0)
    factors = []
    for s in np_.sides:
        m = Fraction(s.end[0] - s.start[0], 2)
        if m > 0:
            factors.append((s.r, m))
    return ProductWeight(tuple(factors), lambda0=lambda0)


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
    s = _as_fraction(s)
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
    s = _as_fraction(s)
    if s == 0:
        return w
    if s == 2 * w.total_exponent:
        return replace(w, factors=())
    kappa = kappa_index(w, s)
    partial = sum((m for _, m in w.factors[:kappa]), Fraction(0))
    new = []
    m_k = partial - s / 2
    if m_k > 0:
        new.append((w.factors[kappa - 1][0], m_k))
    new.extend(w.factors[kappa:])
    return replace(w, factors=tuple(new))


# Trapezoid rule in u = log t.  The integrand is analytic in the strip
# |Im u| < pi/2 (singularities at u = log a_s +- i pi/2), so the error of
# step h falls like exp(-pi^2 / h), about 4e-22 at h = 0.2.  Past the
# outermost scales it decays like exp(-rate |u|), with rate 2l+1 on the left
# and 4 sum(m) - 2l - 1 on the right; the tails stop at exp(-_TAIL).
_STEP = 0.2
_TAIL = 40.0
_BLOCK = 128    # points per block, so node memory does not grow with the grid


def _trapezoid(log_a, exps, l: int):
    """Step-h value and its error estimate per row of log_a (points, factors).

    `exps` holds the exponents 2 m_s; the step-2h sum reuses every other node.
    r = |I_h - I_2h| / I_h is the error of the step-2h value; the error falls
    like exp(-pi^2 / h), so the step-h value's relative error is about r^2.
    That is an asymptotic estimate, not a bound: it holds at the default
    step h = 0.2, where the error is at rounding level, but at h = 0.3-0.6
    the change from halving the step exceeded r^2 in 19-98 of 500 random
    sets of one to three scales.
    """
    lo_rate = 2 * l + 1
    hi_rate = 2.0 * exps.sum() - lo_rate
    start = log_a.min(axis=1) - _TAIL / lo_rate
    stop = log_a.max(axis=1) + _TAIL / hi_rate
    count = int(np.ceil((stop - start).max() / _STEP)) + 1
    u = start[:, None] + _STEP * np.arange(count)
    # log of t^(2l) dt/du / prod (t^2+a_s^2)^(2m_s) with t = e^u, dt/du = t;
    # logaddexp keeps huge and tiny scales from overflowing.
    f = lo_rate * u
    for s, e in enumerate(exps):
        f -= e * np.logaddexp(2.0 * u, 2.0 * log_a[:, s, None])
    g = np.exp(f)
    fine = 2.0 * _STEP * g.sum(axis=1)
    coarse = 4.0 * _STEP * g[:, ::2].sum(axis=1)
    return fine, (np.abs(fine - coarse) / fine) ** 2


def lemma32_integral(a, m, l: int):
    """Two-sided bound check for int t^(2l) / prod (t^2+a_s^2)^(2m_s) dt.

    Returns (value, lower, upper, err): the trapezoid-rule value of the
    integral over the real line, the two-sided band B / C <= value <= B * C
    with B = a_kappa^(2l+1-4(m_1+..+m_kappa)) * prod_{s>kappa} a_s^(-4 m_s)
    (scales in increasing order) and the module constant C, and the error
    estimate (|I_h - I_2h| / I_h)^2 of the value.  Each scale a_s may be an
    array; they broadcast together, every point is checked against its
    band, and the results have the broadcast shape.
    """
    m = [_as_fraction(x) for x in m]
    if len(a) != len(m):
        raise ValueError(f"{len(a)} scales for {len(m)} exponents")
    scales = np.stack(np.broadcast_arrays(*a), axis=-1).astype(float)
    shape = scales.shape[:-1]
    scales = scales.reshape(-1, len(m))
    if not np.all(scales > 0):
        raise OutOfRangeError("scales a_s must be positive")
    total = sum(m, Fraction(0))
    if 2 * l + 1 >= 4 * total:
        raise OutOfRangeError(
            f"integral diverges: need 2l+1 < 4*sum(m), got l={l}, sum(m)={total}")
    log_a = np.log(scales)
    exps = np.array([float(x) for x in m])

    # kappa per the index rule with s = l: a_kappa is the smallest scale
    # such that twice the exponents of the scales up to it (ties included)
    # sum to more than l.  Counted exactly, in units of 1/den.
    den = math.lcm(*(x.denominator for x in m))
    num = np.array([int(x * den) for x in m])
    below = log_a[:, None, :] <= log_a[:, :, None]
    crossed = 2 * (below * num).sum(axis=2) > l * den
    log_k = np.where(crossed, log_a, np.inf).min(axis=1)
    # Scales up to a_kappa enter B through a_kappa, later ones through a_s.
    log_bound = ((2 * l + 1) * log_k
                 - 4.0 * (exps * np.maximum(log_a, log_k[:, None])).sum(axis=1))

    value, err = map(np.concatenate, zip(*(
        _trapezoid(log_a[i:i + _BLOCK], 2.0 * exps, l)
        for i in range(0, len(log_a), _BLOCK))))

    lower = np.exp(log_bound) / LEMMA32_BAND_CONSTANT
    upper = np.exp(log_bound) * LEMMA32_BAND_CONSTANT
    bad = np.flatnonzero(~((lower <= value) & (value <= upper)))
    if bad.size:
        i = bad[0]
        raise BandError(
            f"integral {value[i]} escapes band [{lower[i]}, {upper[i]}] "
            f"(a={scales[i].tolist()}, m={[str(x) for x in m]}, l={l})")
    return tuple(x.reshape(shape)[()] for x in (value, lower, upper, err))


def trace_weight_quadrature(w: ProductWeight, l: int, xi_prime_abs, lambda_abs):
    """Trace weight sigma'_l = (int xi_n^(2l) / Xi^2 d xi_n)^(-1/2).

    The squared weight contributes exponent 2 m_s per factor, which is the
    integrand of lemma32_integral with scales a_s^2 = |xi'|^2 + lambda^(2/r_s).
    |xi'| and lambda may be arrays of points.  Returns (sigma, err), err the
    quadrature error estimate of lemma32_integral.
    """
    if not w.factors:
        raise OutOfRangeError("constant weight has no trace weight")
    a = [np.sqrt(_factor_base(w, r, xi_prime_abs, lambda_abs))
         for r, _ in w.factors]
    value, _, _, err = lemma32_integral(a, [m for _, m in w.factors], l)
    return value ** -0.5, err
