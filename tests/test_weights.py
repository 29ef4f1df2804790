"""Tests for product weights, shifts, and the trace-weight quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilab import weights
from pencilab.errors import BandError, OutOfRangeError
from pencilab.polygon import INF, build_polygon
from pencilab.weights import (HomogeneousWeight, ProductWeight, from_polygon,
                              kappa_index, lemma32_integral, shift,
                              trace_weight_quadrature, xi_product_eval,
                              xi_sum_eval)

F = Fraction


def test_from_polygon_basic():
    np_ = build_polygon({(4, 0), (2, 2)})
    w = from_polygon(np_)
    assert w.factors == ((INF, F(1)), (F(1), F(1)))


def test_from_polygon_pencil_shape_half_integers():
    np_ = build_polygon({(2, 0), (1, 1)})
    w = from_polygon(np_)
    assert w.factors == ((INF, F(1, 2)), (F(1), F(1, 2)))


def test_from_polygon_degenerate_axis():
    np_ = build_polygon({(2, 0)})
    w = from_polygon(np_)
    assert w.factors == ((INF, F(1)),)


def test_factor_validation():
    with pytest.raises(ValueError):
        ProductWeight(((F(1), F(1)), (F(2), F(1))))   # increasing slopes
    with pytest.raises(ValueError):
        ProductWeight(((F(1), F(0)),))                # zero exponent


def test_xi_sum_eval_values():
    np_ = build_polygon({(4, 0), (2, 2)})
    assert xi_sum_eval(np_, 0.0, 5.0) == 31.0   # points (0,0),(0,1),(0,2)
    assert xi_sum_eval(np_, 0.0, 0.0) == 1.0
    seg = build_polygon({(2, 0)})
    assert xi_sum_eval(seg, 2.0, 7.0) == 7.0    # 1 + 2 + 4


def test_xi_product_eval_values():
    w = ProductWeight(((INF, F(1)), (F(1), F(1))))
    assert xi_product_eval(w, 1.0, 2.0) == pytest.approx(10.0)
    half = ProductWeight(((INF, F(1, 2)), (F(1), F(1, 2))))
    assert xi_product_eval(half, 0.0, 7.0) == pytest.approx(7.0)
    hom = HomogeneousWeight(((INF, F(1, 2)), (F(1), F(1, 2))))
    assert xi_product_eval(hom, 3.0, 4.0) == pytest.approx(15.0)


def test_kappa_index():
    w = ProductWeight(((F(2), F(1)), (F(1), F(1))))
    assert kappa_index(w, 0) == 1
    assert kappa_index(w, 1) == 1
    assert kappa_index(w, 2) == 2
    assert kappa_index(w, 3) == 2
    with pytest.raises(OutOfRangeError):
        kappa_index(w, 4)
    half = ProductWeight(((F(2), F(1, 2)), (F(1), F(1, 2))))
    assert kappa_index(half, 0) == 1


def test_shift_energy_weight_cases():
    w = ProductWeight(((INF, F(1, 2)), (F(1), F(1, 2))))
    assert shift(w, F(1, 2)).factors == ((INF, F(1, 4)), (F(1), F(1, 2)))
    assert shift(w, F(3, 2)).factors == ((F(1), F(1, 4)),)
    assert shift(w, 0) is w
    assert shift(w, 2).factors == ()       # total shift: constant weight


def test_shift_preserves_homogeneous_class():
    w = HomogeneousWeight(((INF, F(1, 2)), (F(1), F(1, 2))))
    assert isinstance(shift(w, F(1, 2)), HomogeneousWeight)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=F(1, 4), max_value=2), min_size=1,
                max_size=4),
       st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1))
def test_shift_semigroup(ms, s, t):
    rs = [F(len(ms) - i) for i in range(len(ms))]
    w = ProductWeight(tuple(zip(rs, ms)))
    total = 2 * w.total_exponent
    s = s * total / 2
    t = t * total / 2
    if s + t > total:
        return
    assert shift(shift(w, s), t).factors == shift(w, s + t).factors


def test_lemma32_single_scale_closed_forms():
    for a in np.geomspace(1e-2, 1e3, 11):
        v0, _, _ = lemma32_integral([a], [F(1)], 0)
        assert v0 == pytest.approx(math.pi / (2 * a ** 3), rel=1e-8)
        v1, _, _ = lemma32_integral([a], [F(1)], 1)
        assert v1 == pytest.approx(math.pi / (2 * a), rel=1e-8)


def test_lemma32_two_scale_band():
    value, lower, upper = lemma32_integral([1.0, 10.0], [F(1), F(1)], 0)
    assert lower <= value <= upper
    # exact: int dt / ((t^2+1)^2 (t^2+100)^2) dominated by a_1 scale
    assert value == pytest.approx(math.pi / 2 * 1e-4, rel=0.05)


def test_lemma32_divergent_rejected():
    with pytest.raises(OutOfRangeError):
        lemma32_integral([1.0, 2.0], [F(1, 2), F(1, 2)], 2)


def test_lemma32_band_escape_raises(monkeypatch):
    # A band of width 1 cannot hold the quadrature value.
    monkeypatch.setattr(weights, "LEMMA32_BAND_CONSTANT", 1.0)
    with pytest.raises(BandError, match="escapes band"):
        lemma32_integral([1.0, 10.0], [F(1), F(1)], 0)


def test_lemma32_coincident_scales_merged():
    v, _, _ = lemma32_integral([2.0, 2.0], [F(1, 2), F(1, 2)], 0)
    ref, _, _ = lemma32_integral([2.0], [F(1)], 0)
    assert v == pytest.approx(ref, rel=1e-10)


def test_trace_weight_agmon_closed_form():
    # single factor (lambda^2 + xi^2)^1; squared weight has exponent 2:
    # int t^2/(t^2+a^2)^2 = pi/(2a), so sigma'_1 = (2a/pi)^(1/2)
    w = ProductWeight(((F(1), F(1)),))
    a = math.hypot(3.0, 4.0)
    got = trace_weight_quadrature(w, 1, 3.0, 4.0)
    assert got == pytest.approx(math.sqrt(2 * a / math.pi), rel=1e-8)


def test_trace_weight_energy_shape():
    # E1 energy weight, l=1, xi'=0, lambda=100:
    # int t^2/((t^2+1)(t^2+lambda^2)) = pi/(1+lambda)
    w = ProductWeight(((INF, F(1, 2)), (F(1), F(1, 2))))
    got = trace_weight_quadrature(w, 1, 0.0, 100.0)
    assert got == pytest.approx(math.sqrt(101.0 / math.pi), rel=1e-8)


def test_trace_weight_growth_exponent():
    # sigma'_0 ~ |xi'|^(2 sum m - 1/2) for large |xi'| at fixed lambda
    w = ProductWeight(((INF, F(1)), (F(1), F(1))))
    xs = np.geomspace(1e2, 1e4, 6)
    vals = [trace_weight_quadrature(w, 0, x, 1.0) for x in xs]
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert slope == pytest.approx(2 * float(w.total_exponent) - 0.5, abs=0.05)


def test_trace_matches_shift_prediction_band():
    w = ProductWeight(((INF, F(1)), (F(1), F(1))))
    ratios = []
    for lam in (1.0, 10.0, 100.0):
        for xp in (0.0, 0.5, 5.0, 50.0):
            lhs = trace_weight_quadrature(w, 1, xp, lam)
            rhs = xi_product_eval(shift(w, F(3, 2)), xp, lam)
            ratios.append(lhs / rhs)
    assert max(ratios) / min(ratios) < 10.0


def test_weight_json_round_shape():
    w = ProductWeight(((INF, F(1, 2)), (F(1), F(1, 2))), lambda0=2.0)
    d = w.to_json_dict()
    assert d["factors"][0] == {"r": "inf", "m": "1/2"}
    assert d["lambda0"] == 2.0
