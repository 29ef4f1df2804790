"""Tests for product weights, shifts, and the trace-weight quadrature."""

import math
import re
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


@pytest.mark.parametrize("call, error, message", [
    (lambda: from_polygon(build_polygon({(0, 2)})), OutOfRangeError,
     "degenerate polygon on the ordinate axis has no product weight"),
    (lambda: shift(ProductWeight(((F(1), F(1)),)), -1), OutOfRangeError,
     "shift amount -1 is negative"),
    (lambda: lemma32_integral([1.0], [F(1), F(1)], 0), ValueError,
     "1 scales for 2 exponents"),
    (lambda: lemma32_integral([1.0, 0.0], [F(1), F(1)], 0), OutOfRangeError,
     "scales a_s must be positive and finite"),
    (lambda: lemma32_integral([-1.0, 2.0], [F(1), F(1)], 0), OutOfRangeError,
     "scales a_s must be positive and finite"),
    (lambda: trace_weight_quadrature(ProductWeight(()), 0, 1.0, 1.0),
     OutOfRangeError, "constant weight has no trace weight"),
])
def test_weight_input_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


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
    for a in np.geomspace(1e-6, 1e6, 25):
        v0, _, _, _ = lemma32_integral([a], [F(1)], 0)
        assert v0 == pytest.approx(math.pi / (2 * a ** 3), rel=1e-13)
        v1, _, _, _ = lemma32_integral([a], [F(1)], 1)
        assert v1 == pytest.approx(math.pi / (2 * a), rel=1e-13)


@pytest.mark.parametrize("ratio", np.geomspace(1.0, 1e-6, 13))
def test_lemma32_two_scale_closed_forms(ratio):
    # int dt / ((t^2+a^2)^2 (t^2+b^2)^2) = pi (a^2+3ab+b^2) / (2 a^3 b^3 (a+b)^3)
    # int t^2 dt / (...)                  = pi / (2 a b (a+b)^3)
    # Adaptive quadrature was 18% off at a = 1e-3, b = 1e3.
    for a, b in ((ratio, 1.0), (math.sqrt(ratio), 1.0 / math.sqrt(ratio))):
        v0, _, _, _ = lemma32_integral([a, b], [F(1), F(1)], 0)
        ref0 = math.pi * (a * a + 3 * a * b + b * b) / (2 * (a * b) ** 3 * (a + b) ** 3)
        assert v0 == pytest.approx(ref0, rel=1e-13)
        v1, _, _, _ = lemma32_integral([a, b], [F(1), F(1)], 1)
        assert v1 == pytest.approx(math.pi / (2 * a * b * (a + b) ** 3), rel=1e-13)


@pytest.mark.parametrize("m", [F(1, 3), F(5, 6), F(4, 3)])
def test_lemma32_fractional_exponents(m):
    # Single scale: int t^2l / (t^2+a^2)^p dt = a^(2l+1-2p) B(l+1/2, p-l-1/2).
    p = float(2 * m)
    for l in range(int(2 * m) + 1):
        if 2 * l + 1 >= 4 * m:
            break
        for a in (1e-3, 1.0, 1e3):
            v, _, _, _ = lemma32_integral([a], [m], l)
            ref = (a ** (2 * l + 1 - 2 * p) * math.gamma(l + 0.5)
                   * math.gamma(p - l - 0.5) / math.gamma(p))
            assert v == pytest.approx(ref, rel=1e-13)
    # Merged scales: three factors of exponent m at one scale are one
    # factor of exponent 3m.
    for a in (1e-3, 1.0, 1e3):
        v, _, _, _ = lemma32_integral([a] * 3, [m] * 3, 0)
        ref, _, _, _ = lemma32_integral([a], [3 * m], 0)
        assert v == pytest.approx(ref, rel=1e-13)


def test_lemma32_arrays_match_scalar_calls():
    a = np.geomspace(1e-2, 1e2, 7)
    b = np.geomspace(1e3, 1.0, 7)
    values, lowers, uppers, _ = lemma32_integral([a, b], [F(1, 2), F(1)], 1)
    assert values.shape == lowers.shape == uppers.shape == (7,)
    for i in range(7):
        v, lo, hi, _ = lemma32_integral([a[i], b[i]], [F(1, 2), F(1)], 1)
        assert values[i] == pytest.approx(v, rel=1e-14)
        assert lowers[i] == pytest.approx(lo, rel=1e-14)
        assert uppers[i] == pytest.approx(hi, rel=1e-14)


def test_lemma32_error_estimate():
    for a, m, l in (([1.0, 1e3], [F(1), F(1)], 1),
                    # |I_h - I_2h| / I_h, the error of the step-2h value,
                    # read 1.6e-6 here, while the step-h value matched
                    # 30-digit mpmath to 2.4e-15.
                    ([0.0059, 272.0, 0.0042], [F(5, 3), F(1, 3), F(5, 3)], 2)):
        _, _, _, err = lemma32_integral(a, m, l)
        assert 0.0 <= err < 1e-10


def test_lemma32_error_estimate_bounds_halved_step(monkeypatch):
    # The estimate covers the change from halving the step, up to a floor
    # for the rounding of the sums.
    rng = np.random.default_rng(11)
    changed = 0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        a = (10.0 ** rng.uniform(-3, 3, k)).tolist()
        m = [F(int(x), 3) for x in rng.integers(1, 7, k)]
        l = int(rng.choice([l for l in range(4) if 2 * l + 1 < 4 * sum(m)]))
        value, _, _, err = lemma32_integral(a, m, l)
        with monkeypatch.context() as mp:
            mp.setattr(weights, "_STEP", weights._STEP / 2)
            finer, _, _, _ = lemma32_integral(a, m, l)
        assert abs(value - finer) / finer <= max(err, 1e-14), (a, m, l)
        changed += finer != value
    # The halved step reached the kernel.
    assert changed > 0


def _long_tail_trapezoid(log_a, exps, l, step=0.2, tail=40.0):
    """The trapezoid rule in u = log t with no closed-form tails: one
    lattice per l, reaching exp(-tail) of the integrand past the outermost
    scales, where it decays like exp(-rate |u|)."""
    lo_rate = 2 * l + 1
    hi_rate = 2.0 * exps.sum() - lo_rate
    start = log_a.min(axis=1) - tail / lo_rate
    stop = log_a.max(axis=1) + tail / hi_rate
    count = int(np.ceil((stop - start).max() / step)) + 1
    u = start[:, None] + step * np.arange(count)
    f = lo_rate * u
    for s, e in enumerate(exps):
        f -= e * np.logaddexp(2.0 * u, 2.0 * log_a[:, s, None])
    return 2.0 * step * np.exp(f).sum(axis=1)


def test_short_lattice_matches_long_tail_trapezoid():
    # 500 sets of one to three scales over twelve decades, every admissible
    # l.  Both kernels round a log-integrand whose size grows with sum(m)
    # and |log a_s|; at m <= 1 they agree to 1e-14.  (At m up to 2 they
    # differed by up to 1.6e-14, and 40-digit mpmath put either one closer,
    # case by case.)
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 4))
        log_a = np.log(10.0 ** rng.uniform(-6, 6, (1, k)))
        m = [F(int(x), 6) for x in rng.integers(1, 7, k)]
        exps = np.array([float(2 * x) for x in m])
        ls = [l for l in range(4) if 2 * l + 1 < 4 * sum(m)]
        if not ls:
            continue
        rates = np.array([[2 * l + 1, float(4 * sum(m) - 2 * l - 1)] for l in ls])
        top, sums, _ = weights._trapezoid(log_a, exps, rates)
        for l, value in zip(ls, sums[:, 0] * np.exp(top[:, 0])):
            ref = _long_tail_trapezoid(log_a, exps, l)[0]
            worst = max(worst, abs(value - ref) / ref)
    assert worst <= 1e-14


def test_every_l_at_once_matches_one_l_calls():
    w = ProductWeight(((INF, F(1, 2)), (F(2), F(2, 3)), (F(1), F(5, 6))))
    xi = np.geomspace(1e-3, 1e3, 300)       # two blocks of points
    lam = np.geomspace(1e3, 1.0, 300)
    ls = [0, 1, 2, 3]
    sigma, err = trace_weight_quadrature(w, ls, xi, lam)
    assert sigma.shape == err.shape == (4, 300)
    a = [np.hypot(xi, 1.0), np.hypot(xi, lam ** 0.5), np.hypot(xi, lam)]
    m = [F(1, 2), F(2, 3), F(5, 6)]
    together = weights._lemma32(a, m, ls)
    for k, l in enumerate(ls):
        one, one_err = trace_weight_quadrature(w, l, xi, lam)
        assert one.tobytes() == sigma[k].tobytes()
        assert one_err.tobytes() == err[k].tobytes()
        for x, y in zip(together, lemma32_integral(a, m, l)):
            assert x[k].tobytes() == y.tobytes()


@pytest.mark.parametrize("scale, message", [
    (1e100, "integral of about 1e-400 underflows float64 (a=[1.0, 1e+100], "
            "m=['1', '1'], l=0)"),
    (1e-150, "integral of about 1e450 overflows float64 (a=[1.0, 1e-150], "
             "m=['1', '1'], l=0)"),
])
def test_lemma32_value_out_of_float64_range(scale, message):
    # Relative to each point's largest log-integrand the sums stay finite,
    # so the error names the value that leaves float64 instead of 0 / 0.
    with pytest.raises(OutOfRangeError) as info:
        lemma32_integral([1.0, scale], [F(1), F(1)], 0)
    assert str(info.value) == message


def test_lemma32_two_scale_band():
    value, lower, upper, _ = lemma32_integral([1.0, 10.0], [F(1), F(1)], 0)
    assert lower <= value <= upper
    # exact: int dt / ((t^2+1)^2 (t^2+100)^2) dominated by a_1 scale
    assert value == pytest.approx(math.pi / 2 * 1e-4, rel=0.05)


def test_lemma32_band_center():
    # B = a_kappa^(2l+1-4(m_1+..+m_kappa)) prod_{s>kappa} a_s^(-4 m_s)
    cases = [([1.0, 10.0], [F(1), F(1)], 0, 1e-4),     # kappa = 1
             ([1.0, 10.0], [F(1), F(1)], 2, 1e-3),     # kappa = 2: 2 < 2 fails
             ([10.0, 1.0], [F(1), F(1)], 1, 1e-4),     # scales sorted first
             ([2.0, 2.0], [F(1, 2), F(1, 2)], 1, 0.5)]  # tie: as one factor
    for a, m, l, bound in cases:
        _, lower, upper, _ = lemma32_integral(a, m, l)
        assert math.sqrt(lower * upper) == pytest.approx(bound, rel=1e-14)


def test_lemma32_divergent_rejected():
    with pytest.raises(OutOfRangeError):
        lemma32_integral([1.0, 2.0], [F(1, 2), F(1, 2)], 2)


def test_lemma32_band_escape_raises(monkeypatch):
    # A band of width 1 cannot hold the quadrature value.
    monkeypatch.setattr(weights, "LEMMA32_BAND_CONSTANT", 1.0)
    with pytest.raises(BandError, match="escapes band"):
        lemma32_integral([1.0, 10.0], [F(1), F(1)], 0)
    # One escaping point among many still raises.
    with pytest.raises(BandError, match="escapes band"):
        lemma32_integral([np.ones(5), np.geomspace(1.0, 1e4, 5)],
                         [F(1), F(1)], 0)


def test_lemma32_coincident_scales_merged():
    v, _, _, _ = lemma32_integral([2.0, 2.0], [F(1, 2), F(1, 2)], 0)
    ref, _, _, _ = lemma32_integral([2.0], [F(1)], 0)
    assert v == pytest.approx(ref, rel=1e-10)


def test_trace_weight_agmon_closed_form():
    # single factor (lambda^2 + xi^2)^1; squared weight has exponent 2:
    # int t^2/(t^2+a^2)^2 = pi/(2a), so sigma'_1 = (2a/pi)^(1/2)
    w = ProductWeight(((F(1), F(1)),))
    a = math.hypot(3.0, 4.0)
    got, _ = trace_weight_quadrature(w, 1, 3.0, 4.0)
    assert got == pytest.approx(math.sqrt(2 * a / math.pi), rel=1e-8)


def test_trace_weight_large_lambda_closed_form():
    # E1 weight, l = 1: int t^2 / ((t^2+a^2)^2 (t^2+b^2)^2) = pi / (2ab(a+b)^3)
    # with a^2 = |xi'|^2 + 1, b^2 = |xi'|^2 + lambda^2.  At lambda = 1e6,
    # |xi'| = 1 adaptive quadrature was off by 135%.
    w = ProductWeight(((INF, F(1)), (F(1), F(1))))
    for lam in (1e3, 1e6):
        a, b = math.sqrt(2.0), math.hypot(1.0, lam)
        got, _ = trace_weight_quadrature(w, 1, 1.0, lam)
        ref = (math.pi / (2 * a * b * (a + b) ** 3)) ** -0.5
        assert got == pytest.approx(ref, rel=1e-13)


def test_trace_weight_energy_shape():
    # E1 energy weight, l=1, xi'=0, lambda=100:
    # int t^2/((t^2+1)(t^2+lambda^2)) = pi/(1+lambda)
    w = ProductWeight(((INF, F(1, 2)), (F(1), F(1, 2))))
    got, _ = trace_weight_quadrature(w, 1, 0.0, 100.0)
    assert got == pytest.approx(math.sqrt(101.0 / math.pi), rel=1e-8)


def test_trace_weight_growth_exponent():
    # sigma'_0 ~ |xi'|^(2 sum m - 1/2) for large |xi'| at fixed lambda
    w = ProductWeight(((INF, F(1)), (F(1), F(1))))
    xs = np.geomspace(1e2, 1e4, 6)
    vals = [trace_weight_quadrature(w, 0, x, 1.0)[0] for x in xs]
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert slope == pytest.approx(2 * float(w.total_exponent) - 0.5, abs=0.05)


def test_trace_matches_shift_prediction_band():
    w = ProductWeight(((INF, F(1)), (F(1), F(1))))
    ratios = []
    for lam in (1.0, 10.0, 100.0):
        for xp in (0.0, 0.5, 5.0, 50.0):
            lhs, _ = trace_weight_quadrature(w, 1, xp, lam)
            rhs = xi_product_eval(shift(w, F(3, 2)), xp, lam)
            ratios.append(lhs / rhs)
    assert max(ratios) / min(ratios) < 10.0


def test_weight_json_round_shape():
    w = ProductWeight(((INF, F(1, 2)), (F(1), F(1, 2))))
    assert w.to_json_dict() == {"factors": [{"r": "inf", "m": "1/2"},
                                            {"r": "1", "m": "1/2"}]}


def test_trace_weight_of_a_point_does_not_depend_on_its_block():
    # e1's weight on the trace suite's density-1 box, every l it checks:
    # each point alone gives the weight and error estimate it has among the
    # 56, whose lattices have several lengths.
    w = from_polygon(build_polygon({(4, 0), (2, 2)}))
    xi = np.tile(np.concatenate([[0.0], np.geomspace(1e-1, 1e2, 7)]), 7)
    lam = np.repeat(np.geomspace(1.0, 1e3, 7), 8)
    l_list = [0, 1, 2, 3]
    together = trace_weight_quadrature(w, l_list, xi, lam)
    for k in range(len(xi)):
        alone = trace_weight_quadrature(w, l_list, xi[k:k + 1], lam[k:k + 1])
        for a, b in zip(alone, together):
            assert a[:, 0].tobytes() == b[:, k].tobytes()


def test_trace_weight_does_not_depend_on_the_block_size(monkeypatch):
    # Three factors at points spread over twelve decades: the rows of a
    # block need lattices of many lengths.
    w = ProductWeight(((INF, F(1)), (F(1), F(1, 2)), (F(1, 3), F(1))))
    rng = np.random.default_rng(7)
    xi, lam = 10.0 ** rng.uniform(-6, 6, 60), 10.0 ** rng.uniform(-6, 6, 60)
    whole = trace_weight_quadrature(w, [0, 1, 2], xi, lam)
    monkeypatch.setattr(weights, "_BLOCK", 7)
    for a, b in zip(trace_weight_quadrature(w, [0, 1, 2], xi, lam), whole):
        assert a.tobytes() == b.tobytes()
