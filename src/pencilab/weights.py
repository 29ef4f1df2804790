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
from scipy.integrate import quad

from .errors import BandError, OutOfRangeError
from .polygon import INF, NewtonPolygon

# Single equivalence constant used when asserting the two-sided integral
# bound; the bound itself is reported so callers can tighten it.
LEMMA32_BAND_CONSTANT = 1.0e4

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-12, limit=400)


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


def xi_sum_eval(np_: NewtonPolygon, xi_abs: float, lambda_abs: float) -> float:
    """Sum of |xi|^i lambda^k over the integer points of the polygon."""
    return float(sum(xi_abs ** i * lambda_abs ** k
                     for i, k in np_.integer_points()))


def _factor_base(w: ProductWeight, r, xi_abs, lambda_abs):
    if r == INF:
        const = 0.0 if isinstance(w, HomogeneousWeight) else 1.0
        return xi_abs ** 2 + const
    return xi_abs ** 2 + lambda_abs ** float(2 / Fraction(r))


def xi_product_eval(w: ProductWeight, xi_abs: float, lambda_abs: float) -> float:
    """Evaluate prod (|xi|^2 + lambda^(2/r_s))^(m_s)."""
    out = 1.0
    for r, m in w.factors:
        out *= _factor_base(w, r, xi_abs, lambda_abs) ** float(m)
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


def _merge_scales(a, m):
    """Sort the scales, merging coincident ones by adding exponents."""
    pairs = sorted(zip([float(x) for x in a], [_as_fraction(x) for x in m]))
    merged = []
    for av, mv in pairs:
        if merged and abs(av - merged[-1][0]) <= 1e-12 * merged[-1][0]:
            merged[-1][1] += mv
        else:
            merged.append([av, mv])
    return [av for av, _ in merged], [mv for _, mv in merged]


def lemma32_integral(a, m, l: int):
    """Two-sided bound check for int t^(2l) / prod (t^2+a_s^2)^(2m_s) dt.

    Returns (value, lower, upper): the adaptive-quadrature value of the
    integral over the real line and the two-sided band
    B / C <= value <= B * C with B = a_kappa^(2l+1-4(m_1+..+m_kappa))
    * prod_{s>kappa} a_s^(-4 m_s) and the module constant C.
    """
    a, m = _merge_scales(a, m)
    if any(x <= 0 for x in a):
        raise OutOfRangeError("scales a_s must be positive")
    total = sum(m, Fraction(0))
    if 2 * l + 1 >= 4 * total:
        raise OutOfRangeError(
            f"integral diverges: need 2l+1 < 4*sum(m), got l={l}, sum(m)={total}")

    # kappa per the index rule, with s = l.
    acc = Fraction(0)
    kappa = len(m)
    for idx, mv in enumerate(m, start=1):
        acc += 2 * mv
        if l < acc:
            kappa = idx
            break
    head = sum(m[:kappa], Fraction(0))
    bound = a[kappa - 1] ** float(2 * l + 1 - 4 * head)
    for s in range(kappa, len(a)):
        bound *= a[s] ** float(-4 * m[s])

    exps = [2.0 * float(mv) for mv in m]

    def integrand(t):
        out = t ** (2 * l)
        for av, e in zip(a, exps):
            out /= (t * t + av * av) ** e
        return out

    cut = 10.0 * max(a)
    inner, _ = quad(integrand, 0.0, cut, points=a, **_QUAD_OPTS)

    # Tail via u = 1/t; the transformed integrand is smooth at u = 0.
    decay = 4.0 * float(total) - 2 * l

    def tail_integrand(u):
        if u == 0.0:
            return 0.0 if decay > 2.0 else 1.0
        out = u ** (decay - 2.0)
        for av, e in zip(a, exps):
            out /= (1.0 + (av * u) ** 2) ** e
        return out

    outer, _ = quad(tail_integrand, 0.0, 1.0 / cut, **_QUAD_OPTS)
    value = 2.0 * (inner + outer)

    lower = bound / LEMMA32_BAND_CONSTANT
    upper = bound * LEMMA32_BAND_CONSTANT
    if not (lower <= value <= upper):
        raise BandError(
            f"integral {value} escapes band [{lower}, {upper}] (a={a}, m={m}, l={l})")
    return value, lower, upper


def trace_weight_quadrature(w: ProductWeight, l: int, xi_prime_abs: float,
                            lambda_abs: float) -> float:
    """Trace weight sigma'_l = (int xi_n^(2l) / Xi^2 d xi_n)^(-1/2).

    The squared weight contributes exponent 2 m_s per factor, which is the
    integrand of lemma32_integral with scales a_s^2 = |xi'|^2 + lambda^(2/r_s).
    """
    if not w.factors:
        raise OutOfRangeError("constant weight has no trace weight")
    a = [math.sqrt(_factor_base(w, r, xi_prime_abs, lambda_abs))
         for r, _ in w.factors]
    m = [m for _, m in w.factors]
    value, _, _ = lemma32_integral(a, m, l)
    return value ** -0.5
