"""Tests for symbol evaluation, ellipticity checks, and root grouping."""

import cmath
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilab import pencil as pencil_mod
from pencilab.catalog import agmon_pencil, broken_pencil, e1_pencil
from pencilab.errors import EllipticityError, OutOfRangeError, PencilFormatError
from pencilab.halfline import MERGE_TOL
from pencilab.pencil import (CLUSTER_TOL, ZOOM, GridSpec, Pencil, Term,
                             check_lemma21, check_regular_degeneration,
                             cluster_roots, eval_symbol, group_roots,
                             pencil_from_dict, pencil_to_dict, poly_roots,
                             q_polynomial, remark22_checks, sphere_directions,
                             tau_polynomial, tau_roots)
from pencilab.verify import energy_weight_value, sweep_multiplier_rn

SMALL_GRID = GridSpec(angular=120, directions=120)


def test_term_validation():
    with pytest.raises(PencilFormatError):
        Pencil(n=2, m=2, mu=1, terms=(Term((1, 0), 2, 1.0),))   # |alpha| != j
    with pytest.raises(PencilFormatError):
        Pencil(n=2, m=2, mu=1, terms=(Term((1, 0), 1, 1.0),))   # j < 2mu
    with pytest.raises(PencilFormatError):
        Pencil(n=2, m=1, mu=1, terms=())                        # m <= mu


@pytest.mark.parametrize("coeff", [math.inf, -math.inf, math.nan,
                                   complex(1.0, math.inf), complex(math.nan, 0.0)])
def test_non_finite_coefficient_rejected(coeff):
    data = pencil_to_dict(e1_pencil())
    data["terms"][1]["re"], data["terms"][1]["im"] = coeff.real, coeff.imag
    # Python's json reads Infinity and NaN.
    with pytest.raises(PencilFormatError, match=r"alpha=\(2, 2\) is not finite"):
        pencil_from_dict(json.loads(json.dumps(data)))


def test_overflowing_coefficient_sum_rejected():
    # Each coefficient is finite, but coeff_scale, which scales every
    # tolerance, would be inf: (i)-(iii) then read "not elliptic".
    terms = tuple(Term(t.alpha, t.j, 1e308) for t in e1_pencil().terms)
    with pytest.raises(PencilFormatError,
                       match=r"alpha=\(2, 2\) overflows the sum of \|coeff\|"):
        Pencil(n=2, m=2, mu=1, terms=terms)
    assert Pencil(n=2, m=2, mu=1, terms=terms[:1]).coeff_scale == 1e308


def test_json_round_trip():
    p = e1_pencil()
    q = pencil_from_dict(json.loads(json.dumps(pencil_to_dict(p))))
    assert q == p


def test_eval_symbol_values():
    p = e1_pencil()
    # A = |xi|^2 (|xi|^2 + lambda^2)
    assert eval_symbol(p, (1.0, 0.0), 2.0) == pytest.approx(5.0)
    assert eval_symbol(p, (0.0, 0.0), 0.0) == 0.0
    assert eval_symbol(agmon_pencil(), (3.0, 4.0), 0.0) == pytest.approx(25.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-3, 3), st.floats(-3, 3),
       st.floats(0.0, 3.0))
def test_eval_homogeneity(t, x1, x2, lam):
    p = e1_pencil()
    a = eval_symbol(p, (t * x1, t * x2), t * lam)
    b = t ** (2 * p.m) * eval_symbol(p, (x1, x2), lam)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_tau_polynomial_factorization():
    p = e1_pencil()
    c = tau_polynomial(p, np.array([1.0]), 10.0)
    assert np.allclose(c, [101.0, 0.0, 102.0, 0.0, 1.0])
    c0 = tau_polynomial(p, np.array([0.0]), 1.0)
    assert np.allclose(c0, [0.0, 0.0, 1.0, 0.0, 1.0])
    ca = tau_polynomial(agmon_pencil(), np.array([0.0]), 1.0)
    assert np.allclose(ca, [1.0, 0.0, 1.0])


def test_check_lemma21_e1():
    rep = check_lemma21(e1_pencil(), SMALL_GRID)
    assert rep.n_elliptic
    assert rep.C_est >= 0.4


def test_check_lemma21_agmon():
    rep = check_lemma21(agmon_pencil(), SMALL_GRID)
    assert rep.n_elliptic
    assert rep.C_est >= 0.4


def test_check_lemma21_broken_witness():
    rep = check_lemma21(broken_pencil(), GridSpec(angular=120, directions=720))
    assert not rep.cond_ii
    assert rep.C_est == 0.0
    # the lowest part xi_1^2 vanishes in the direction (0, +-1)
    assert min(np.linalg.norm(rep.witness_ii - np.array([0.0, 1.0])),
               np.linalg.norm(rep.witness_ii - np.array([0.0, -1.0]))) < 1e-6


@pytest.mark.parametrize("angular", [240, 480, 720, 1440])
def test_check_lemma21_verdicts_stable_under_refinement(angular):
    # Condition (iii) is tested on the normalised ratio; the raw min |A|
    # tends to 0 as the grid approaches xi = 0, which used to flip e1 to
    # "not elliptic" from 480 angular points on.
    grid = GridSpec(angular=angular, directions=720)
    for p in (e1_pencil(), agmon_pencil()):
        rep = check_lemma21(p, grid)
        assert rep.cond_iii and rep.n_elliptic
        assert rep.C_est == rep.min_ratio >= 0.4
    bad = check_lemma21(broken_pencil(), grid)
    assert not bad.cond_ii and not bad.n_elliptic


@pytest.mark.parametrize("angular", [1, 2, 90, 720])
def test_check_lemma21_broken_fails_condition_iii_on_every_grid(angular):
    # broken's A_2mu = xi_1^2 vanishes at (0, 1), where the ratio of (iii)
    # tends to |A_2mu| as xi -> 0.  The midpoint nodes never reach that end
    # of the slice, so (iii) also takes the sphere minima of (i) and (ii).
    rep = check_lemma21(broken_pencil(), GridSpec(angular=angular, directions=angular))
    assert not rep.cond_iii


def test_q_polynomial():
    assert np.allclose(q_polynomial(e1_pencil()), [1.0, 0.0, 1.0])
    assert np.allclose(q_polynomial(agmon_pencil()), [1.0, 0.0, 1.0])


def test_regular_degeneration_e1():
    res = check_regular_degeneration(e1_pencil())
    assert res.regular is True
    assert res.k1 == 1
    assert len(res.upper_roots) == 1
    assert res.upper_roots[0] == pytest.approx(1j, abs=1e-10)


@pytest.mark.parametrize("c, k1", [(1.0, 2), (1.0 + 1e-6, 1)])
def test_regular_degeneration_k1_of_close_roots(c, k1):
    # Q = (tau^2 + 1)(tau^2 + c): the eigensolve splits the double root i
    # by about 3e-8, which stays one cluster; the pair 5e-7 apart does not.
    p = Pencil(n=2, m=2, mu=0, terms=(
        Term((4, 0), 4, 1.0), Term((2, 2), 4, 2.0), Term((0, 4), 4, 1.0),
        Term((2, 0), 2, 1.0 + c), Term((0, 2), 2, 1.0 + c), Term((0, 0), 0, c)))
    assert check_regular_degeneration(p).k1 == k1


def test_regular_degeneration_failure_constructed():
    # A(0,tau,1)/tau^2 = (tau - i)(tau - 2i) * conjugate-free: build a pencil
    # whose Q has two upper roots while m - mu = 1.
    # Q(tau) = tau^2 - 3i tau - 2 means A(0,tau,lam) has complex coefficients:
    # terms: tau^4 (j=4), -3i tau^3 lam (j=3), -2 tau^2 lam^2 (j=2).
    p = Pencil(n=2, m=2, mu=1, terms=(
        Term((0, 4), 4, 1.0), Term((0, 3), 3, -3.0j), Term((0, 2), 2, -2.0)))
    res = check_regular_degeneration(p)
    assert res.regular is False


def test_remark22_e1_and_odd_term():
    checks = remark22_checks(e1_pencil(), SMALL_GRID)
    assert checks["even_order"] and checks["strongly_elliptic"]
    podd = Pencil(n=2, m=2, mu=1, terms=e1_pencil().terms
                  + (Term((3, 0), 3, 1.0j),))
    assert not remark22_checks(podd, SMALL_GRID)["even_order"]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.floats(0.5, 4.0))
def test_even_strongly_elliptic_implies_regular(k, c):
    # A = |xi|^(2mu) (|xi|^2 + lambda^2)^(m - mu) variants are even and
    # strongly elliptic; regular degeneration must agree.
    p = Pencil(n=2, m=k + 1, mu=k, terms=_even_pencil_terms(k + 1, k, c))
    assert remark22_checks(p, GridSpec(angular=40, directions=40))["even_order"]
    assert check_regular_degeneration(p).regular is True


def _even_pencil_terms(m, mu, c):
    # (xi_1^2 + xi_2^2)^mu * (xi_1^2 + xi_2^2 + c lambda^2)^(m - mu)
    from math import comb
    terms = {}
    for q in range(m - mu + 1):         # lambda^(2q) choose
        coeff = comb(m - mu, q) * c ** q
        deg = 2 * (m - q)               # remaining |xi| degree
        for i in range(deg // 2 + 1):
            a = (2 * i, deg - 2 * i)
            terms[a] = terms.get(a, 0.0) + coeff * comb(deg // 2, i)
    return tuple(Term(a, sum(a), v) for a, v in terms.items())


def test_poly_roots_accuracy():
    # (tau - 1)(tau - 2)(tau - 3i)
    coeffs = np.array([6j, -2 - 9j, -3 - 3j, 1.0], dtype=complex)[::1]
    # ascending coefficients of tau^3 - (3+3i) tau^2 + (2+9i)... build directly
    roots = np.array([1.0, 2.0, 3.0j])
    asc = np.array([1.0 + 0j])
    for r in roots:
        asc = np.convolve(asc, [-r, 1.0])
    got = np.sort_complex(poly_roots(asc))
    assert np.allclose(np.sort_complex(roots), got, atol=1e-10)


def test_poly_roots_keeps_the_mean_of_a_split_double_root():
    # (tau^2 + kappa^2)^2: the eigensolve splits the double root i kappa by
    # about sqrt(eps) but keeps the pair's mean.
    for kappa in np.geomspace(1e-2, 1e3, 40):
        roots = poly_roots(np.array([kappa ** 4, 0, 2 * kappa ** 2, 0, 1.0],
                                    dtype=complex))
        upper = roots[roots.imag > 0]
        assert abs(upper.sum() - 2j * kappa) <= 1e-14 * kappa


_unit = st.floats(-1.0, 1.0)


@st.composite
def _polynomial_stacks(draw):
    """Ascending coefficients, shape (N, d+1), of N polynomials of one degree
    d in 2..8: roots of moduli 1e-2..1e2 at any angle, some of them double
    (the eigensolve splits those by about sqrt(eps)), times a random
    leading coefficient."""
    degree = draw(st.integers(2, 8))
    _polar = st.builds(lambda e, a: cmath.rect(10.0 ** e, a),
                       st.floats(-2, 2), st.floats(0, 2 * math.pi))
    stack = []
    for _ in range(draw(st.integers(1, 3))):
        roots = []
        while len(roots) < degree:
            roots += [draw(_polar)] * min(draw(st.integers(1, 2)), degree - len(roots))
        stack.append(draw(_polar) * np.poly(roots)[::-1])
    return np.array(stack)


@settings(max_examples=60, deadline=None)
@given(_polynomial_stacks())
def test_point_roots_match_stacked_eigvals_bit_for_bit(coeffs):
    # poly_roots solves one companion matrix, mesh_upper_roots a stack of
    # them in one eigvals call; the tau_roots/mesh contract rests on it.
    stacked = np.linalg.eigvals(pencil_mod._companion(coeffs[:, ::-1]))
    point = np.array([poly_roots(c) for c in coeffs])
    assert point.tobytes() == stacked.tobytes()


@st.composite
def _near_pairs(draw):
    """Roots of moduli 1e-2..1e2, some with a copy moved by up to 3 tol |tau|."""
    tol = draw(st.sampled_from([CLUSTER_TOL, MERGE_TOL]))
    roots = []
    for _ in range(draw(st.integers(1, 4))):
        tau = 10.0 ** draw(st.floats(-2, 2)) * complex(draw(_unit), draw(_unit) + 1.5)
        roots.append(tau)
        for _ in range(draw(st.integers(0, 2))):
            shift = complex(draw(_unit), draw(_unit))
            roots.append(tau * (1 + 3 * tol * draw(st.floats(0, 1)) * shift))
    return draw(st.permutations(roots)), tol


@settings(max_examples=80, deadline=None)
@given(_near_pairs(), st.integers(-20, 20))
def test_cluster_roots_scale_covariant(case, k):
    roots, tol = case
    members = [m for _, m in cluster_roots(roots, tol)]
    scaled = [m for _, m in cluster_roots([2.0 ** k * r for r in roots], tol)]
    assert scaled == members


def test_tau_roots_e1():
    rs = tau_roots(e1_pencil(), np.array([1.0]), 10.0)
    upper = sorted(rs.upper, key=lambda z: z.imag)
    assert upper[0] == pytest.approx(1j, abs=1e-10)
    assert upper[1] == pytest.approx(1j * math.sqrt(101.0), abs=1e-9)


def test_tau_roots_double_at_lambda_zero():
    rs = tau_roots(e1_pencil(), np.array([1.0]), 0.0)
    assert len(rs.upper) == 2
    assert np.allclose(np.array(rs.upper), 1j, atol=1e-6)


def test_tau_roots_real_axis_rejected():
    # lambda^4 - |xi|^4 vanishes for tau real when lambda > |xi'|... use a
    # symbol with real roots: A = xi_n^2 - xi_1^2 - lambda^2 (hyperbolic)
    p = Pencil(n=2, m=1, mu=0, terms=(
        Term((0, 2), 2, 1.0), Term((2, 0), 2, -1.0), Term((0, 0), 0, -1.0)))
    with pytest.raises(EllipticityError):
        tau_roots(p, np.array([1.0]), 1.0)


def _sextic():
    """xi_1^6 + xi_2^6 + lambda^6 (n = 2, m = 3, mu = 0)."""
    return Pencil(n=2, m=3, mu=0, terms=(
        Term((6, 0), 6, 1.0), Term((0, 6), 6, 1.0), Term((0, 0), 0, 1.0)))


@pytest.mark.parametrize("lam", [1e3, 1e6])
def test_tau_roots_sextic_at_large_lambda(lam):
    # tau^6 = -(1 + lambda^6) at xi' = 1: the leading coefficient is 1 and
    # the constant one 1 + lambda^6, so only the homogeneity-weighted test
    # keeps the leading coefficient.
    upper = np.sort_complex(np.array(tau_roots(_sextic(), np.array([1.0]), lam).upper))
    expected = np.sort_complex(lam * (1 + lam ** -6) ** (1 / 6)
                               * np.exp(1j * np.pi * np.array([1, 3, 5]) / 6))
    assert np.allclose(upper, expected, rtol=1e-12, atol=0.0)
    _, ok = pencil_mod.mesh_upper_roots(_sextic(), np.array([[1.0]]), np.array([lam]))
    assert ok.all()


def test_vanishing_leading_coefficient_still_raises():
    # A_2m(e_n) = 0: xi_n^2m is missing, at every scale.
    p = Pencil(n=2, m=1, mu=0, terms=(Term((2, 0), 2, 1.0), Term((1, 1), 2, 0.5),
                                      Term((0, 0), 0, 1.0)))
    for lam in (1e-3, 1.0, 1e6):
        with pytest.raises(EllipticityError, match="leading tau coefficient"):
            tau_roots(p, np.array([1.0]), lam)
        assert not pencil_mod.mesh_upper_roots(p, np.array([[1.0]]), np.array([lam]))[1].any()


def test_out_of_range_lambda_rejected_at_a_point_and_on_the_mesh():
    # e1 is even in lambda, so only the range check tells -5 from 5; at
    # 1e300 A overflows, and a RuntimeWarning would fail this test.
    for lam, message in ((-5.0, "lambda >= 0"), (1e300, "overflows")):
        with pytest.raises(OutOfRangeError, match=message):
            tau_roots(e1_pencil(), np.array([1.0]), lam)
    _, ok = pencil_mod.mesh_upper_roots(e1_pencil(), np.ones((3, 1)),
                                        np.array([-5.0, 1e300, 5.0]))
    assert ok.tolist() == [False, False, True]


@pytest.mark.parametrize("above", [False, True])
def test_leading_coefficient_threshold_same_on_mesh(above):
    # xi_1^2 + a xi_n^2 + lambda^2 at xi' = 1, lambda = 1: rho = 2 and the
    # weighted |c_0| rho^-2 is 1/2, so the threshold is exactly 1e-14 / 2.
    a = 1e-14 * 0.5
    if above:
        a = np.nextafter(a, 1.0)
    p = Pencil(n=2, m=1, mu=0, terms=(Term((2, 0), 2, 1.0), Term((0, 2), 2, a),
                                      Term((0, 0), 0, 1.0)))
    _, ok = pencil_mod.mesh_upper_roots(p, np.array([[1.0]]), np.array([1.0]))
    assert ok[0] == above
    if above:
        tau_roots(p, np.array([1.0]), 1.0)
    else:
        with pytest.raises(EllipticityError, match="leading tau coefficient"):
            tau_roots(p, np.array([1.0]), 1.0)


def test_conjugate_symmetry_counts():
    rs = tau_roots(e1_pencil(), np.array([0.7]), 3.0)
    assert len(rs.upper) == 2 and len(rs.lower) == 2
    # By imaginary part: sort_complex orders by real parts, which are
    # rounding noise on the imaginary axis.
    up = sorted(rs.upper, key=lambda z: z.imag)
    lo = sorted(np.conj(rs.lower), key=lambda z: z.imag)
    assert np.allclose(up, lo, atol=1e-9)


def test_root_continuity_no_axis_crossing():
    p = e1_pencil()
    prev = None
    for lam in np.geomspace(0.5, 50.0, 40):
        rs = tau_roots(p, np.array([1.0]), lam)
        cur = np.array(rs.all_roots)
        if prev is not None:
            # nearest-neighbor step stays well off the real axis
            for r in cur:
                assert abs(r.imag) > 1e-3
        prev = cur


def test_group_roots_e1_lambda10():
    g = group_roots(e1_pencil(), np.array([1.0]), 10.0)
    (b_idx,), (l_idx,) = g.group_bounded, g.group_large
    assert g.upper_roots[b_idx] == pytest.approx(1j, abs=1e-10)
    assert g.residual_bounded[0] < 1e-10
    assert g.residual_large[0] == pytest.approx(math.sqrt(101.0) - 10.0,
                                                abs=1e-9)
    assert g.k1 == 1 and not g.ambiguous


def test_group_roots_e1_large_lambda_residual():
    lam = 1000.0
    g = group_roots(e1_pencil(), np.array([1.0]), lam)
    assert g.residual_large[0] == pytest.approx(1.0 / (2.0 * lam), rel=0.05)


def test_group_roots_mu_zero():
    g = group_roots(agmon_pencil(), np.array([1.0]), 10.0)
    assert g.group_bounded == ()
    assert len(g.group_large) == 1


def _square(entries):
    return st.integers(1, 6).flatmap(lambda m: st.lists(
        st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_square(st.integers(0, 3)),        # small integers force ties
                 _square(st.floats(0.0, 1e3))))
def test_min_cost_matching_is_a_cheapest_permutation(rows):
    cost = np.array(rows, dtype=float)
    m = len(cost)
    match = pencil_mod._min_cost_matching(cost)
    assert sorted(match) == list(range(m))
    total = lambda perm: sum(cost[r, c] for c, r in enumerate(perm))
    brute = min(map(total, itertools.permutations(range(m))))
    assert total(match) == pytest.approx(brute, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pencil", [e1_pencil, agmon_pencil])
def test_group_roots_targets_are_q_upper_roots(pencil):
    p = pencil()
    q = poly_roots(q_polynomial(p))
    g = group_roots(p, np.array([1.0]), 10.0)
    assert g.large_targets == tuple(10.0 * q[q.imag > 0])
    assert g.k1 == check_regular_degeneration(p).k1


def test_group_roots_solves_q_once_per_pencil(monkeypatch):
    # Q depends on the pencil alone: repeated groupings of equal pencils,
    # at several points, find its roots once.
    check_regular_degeneration.cache_clear()
    q = q_polynomial(e1_pencil())
    seen = []
    def counting(coeffs):
        seen.append(np.array_equal(coeffs, q))
        return poly_roots(coeffs)
    monkeypatch.setattr(pencil_mod, "poly_roots", counting)
    for lam in (1.0, 10.0, 100.0):      # at |xi'| = 1, A_2mu's tau-polynomial is Q
        group_roots(e1_pencil(), np.array([2.0]), lam)
    assert sum(seen) == 1
    assert len(seen) == 1 + 3 * 2    # Q; tau_roots and A_2mu per grouping


def test_group_roots_rejects_unsettled_degeneration(monkeypatch):
    p = e1_pencil()
    deg = check_regular_degeneration(p)
    monkeypatch.setattr(pencil_mod, "check_regular_degeneration",
                        lambda p: deg._replace(regular=None))
    with pytest.raises(EllipticityError, match="real axis"):
        group_roots(p, np.array([1.0]), 10.0)
    monkeypatch.setattr(pencil_mod, "check_regular_degeneration",
                        lambda p: deg._replace(regular=False, upper_roots=()))
    with pytest.raises(EllipticityError,
                       match="Q has 0 upper roots, expected m - mu = 1"):
        group_roots(p, np.array([1.0]), 10.0)


def test_c_est_bound_holds_on_fresh_samples():
    p = e1_pencil()
    rep = check_lemma21(p, SMALL_GRID)
    rng = np.random.default_rng(7)
    for _ in range(200):
        xi = rng.standard_normal(2)
        lam = abs(rng.standard_normal())
        bound = (rep.C_est * np.linalg.norm(xi) ** (2 * p.mu)
                 * (lam + np.linalg.norm(xi)) ** (2 * p.m - 2 * p.mu))
        # C_est is a grid minimum, so fresh samples may dip below by the
        # grid resolution; allow one percent slack.
        assert abs(eval_symbol(p, xi, lam)) >= bound * 0.99


# ---------------------------------------------------------------------------
# vectorised slice scans against a scalar eval_symbol loop

@st.composite
def _odd_order_pencils(draw, real=False):
    """sum_i c_i xi_i^2m + lambda^(2m-2mu) sum_i d_i xi_i^2mu, which keeps
    |A| and Re A away from zero on the slice, plus small complex terms (real
    ones if `real`) of odd orders between 2mu and 2m."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    mu = draw(st.integers(0, m - 1))
    terms = [Term(tuple(j if k == i else 0 for k in range(n)), j,
                  draw(st.floats(0.5, 2.0)))
             for i in range(n) for j in (2 * m, 2 * mu)]
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.sampled_from(range(2 * mu + 1, 2 * m, 2)))
        cuts = sorted(draw(st.lists(st.integers(0, j), min_size=n - 1,
                                    max_size=n - 1)))
        alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [j]))
        coeff = complex(draw(st.floats(-0.01, 0.01)),
                        0.0 if real else draw(st.floats(-0.01, 0.01)))
        terms.append(Term(alpha, j, coeff))
    return Pencil(n=n, m=m, mu=mu, terms=tuple(terms))


def _normaliser(p, rho, lam):
    return rho ** (2 * p.mu) * (lam + rho) ** (2 * p.m - 2 * p.mu)


@settings(max_examples=30, deadline=None)
@given(_odd_order_pencils(), st.integers(1, 9), st.integers(3, 40),
       st.lists(st.integers(0, 87), min_size=3, max_size=3))
def test_slice_scans_match_scalar_loop(p, angular, directions, records):
    grid = GridSpec(angular=angular, directions=directions)
    dirs = sphere_directions(p.n, grid.direction_count(p.n))
    theta = (np.arange(angular) + 0.5) / angular * (np.pi / 2.0)
    vals = np.array([[eval_symbol(p, np.cos(th) * w, np.sin(th)) for w in dirs]
                     for th in theta])
    denom = _normaliser(p, np.cos(theta), np.sin(theta))[:, None]
    a2mu = Pencil(p.n, p.m, p.mu, tuple(t for t in p.terms if t.j == 2 * p.mu))
    close = dict(rel=1e-12, abs=0.0)

    rep = check_lemma21(p, grid)
    assert rep.n_elliptic
    assert rep.min_abs == pytest.approx(np.abs(vals).min(), **close)
    assert rep.C_est == pytest.approx((np.abs(vals) / denom).min(), **close)
    # Conditions (i) and (ii) refine the grid minimum, which can only lower it.
    assert rep.min_a2m <= min(abs(eval_symbol(p, w, 0.0)) for w in dirs) * (1 + 1e-12)
    assert rep.min_a2mu <= min(abs(eval_symbol(a2mu, w, 1.0)) for w in dirs) * (1 + 1e-12)
    # Witnesses: the scalar value at the reported node is the minimum.
    assert abs(eval_symbol(p, rep.witness_i, 0.0)) == pytest.approx(rep.min_a2m, **close)
    assert abs(eval_symbol(a2mu, rep.witness_ii, 1.0)) == pytest.approx(
        rep.min_a2mu, **close)
    xi, lam = rep.witness_iii
    ratio = abs(eval_symbol(p, xi, lam)) / _normaliser(p, np.linalg.norm(xi), lam)
    assert ratio == pytest.approx(rep.C_est, **close)

    c_min = remark22_checks(p, grid)["c_min"]
    assert c_min == pytest.approx((vals.real / denom).min(), **close)

    # prop52 scans its own directions.
    sweep = sweep_multiplier_rn(p)
    dirs52 = sphere_directions(
        p.n, GridSpec(angular=90, directions=48).direction_count(p.n))
    for k in records:
        rec = sweep.records[k]
        xa, lam = rec["xi_prime_abs"], rec["lambda"]
        wgt = energy_weight_value(p, xa, lam)
        best = max(wgt / (abs(eval_symbol(p, xa * w, lam)) ** 2 / wgt
                          + lam ** (2 * p.m - 2 * p.mu)) for w in dirs52)
        assert rec["lhs"] == pytest.approx(best, **close)


# ---------------------------------------------------------------------------
# slice scans in the pencil's dtype, reduced per row, against full matrices

def _complex_part(p, j, dirs):
    """A_j(omega) in complex128 whatever the coefficients."""
    out = np.zeros(len(dirs), dtype=complex)
    for t in p.terms:
        if t.j == j:
            mono = np.ones(len(dirs))
            for i, a in enumerate(t.alpha):
                mono = mono * dirs[:, i] ** a
            out += t.coeff * mono
    return out


def _full_symbol(p, dirs, rho, lam):
    """A(rho[c] omega_d, lam[c]) as one complex (column, direction) matrix."""
    top = 2 * p.m
    out = np.zeros((len(rho), len(dirs)), dtype=complex)
    for j in range(top + 1):
        a_j = _complex_part(p, j, dirs)
        if np.any(a_j):
            out += (rho[:, None] ** j * lam[:, None] ** (top - j)) * a_j
    return out


def _reference_prop52(p):
    """sweep_multiplier_rn's records, C and C_point at density 1, from the
    full ratio matrix and its argmax."""
    dirs = sphere_directions(p.n, GridSpec(angular=90, directions=48).direction_count(p.n))
    xi = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 10)])
    lam_grid = np.geomspace(1.0, 1e3, 8)
    lam_col, xa_col = np.repeat(lam_grid, len(xi)), np.tile(xi, len(lam_grid))

    def ratios(dirs, xa, lam):
        wgt = energy_weight_value(p, xa, lam)[:, None]
        a = np.abs(_full_symbol(p, dirs, xa, lam))
        return wgt / (a ** 2 / wgt + lam[:, None] ** (2 * p.m - 2 * p.mu))

    full = ratios(dirs, xa_col, lam_col)
    best = full.max(axis=1)
    i = int(np.argmax(best))
    c_val, point = best[i], (xa_col[i], lam_col[i])
    if point[0] > 0.0:
        peak = dirs[np.argmax(full[i])][None]
        lo, hi = np.array([1e-2, 1.0]), np.array([1e3, 1e3])
        step = np.log(hi / lo) / (np.array([10, 8]) - 1) / ZOOM
        stencil = np.mgrid[-ZOOM:ZOOM + 1, -ZOOM:ZOOM + 1].reshape(2, -1).T
        while step.max() > 1e-15:
            xa, lam = np.clip(np.exp(np.log(point) + step * stencil), lo, hi).T
            vals = ratios(peak, xa, lam)[:, 0]
            k = int(np.argmax(vals))
            if vals[k] > c_val:
                c_val, point = vals[k], (xa[k], lam[k])
            step /= ZOOM
    return best, float(c_val), [float(point[0]), float(point[1])]


def _same(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _assert_slice_scans_bit_identical(p, grid, prop52=True):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pencil_mod, "homogeneous_part", _complex_part)
        ref = check_lemma21(p, grid)     # complex tables throughout
    rep = check_lemma21(p, grid)
    # (i), (ii): the sphere minima and their zooms.
    assert _same(rep.witness_i, ref.witness_i) and _same(rep.witness_ii, ref.witness_ii)
    assert (rep.min_a2m, rep.min_a2mu) == (ref.min_a2m, ref.min_a2mu)

    # (iii): the first minimising node of the full ratio matrix.
    dirs = sphere_directions(p.n, grid.direction_count(p.n))
    theta = (np.arange(grid.angular) + 0.5) / grid.angular * (np.pi / 2.0)
    rho, lam = np.cos(theta), np.sin(theta)
    denom = _normaliser(p, rho, lam)[:, None]
    vals = _full_symbol(p, dirs, rho, lam)
    ratio = np.full(vals.shape, np.inf)
    np.divide(np.abs(vals), denom, out=ratio, where=denom > 1e-300)
    k, d = np.unravel_index(np.argmin(ratio), ratio.shape)
    assert rep.min_abs == np.abs(vals).min()
    assert rep.min_ratio == ratio[k, d]
    assert rep.C_est == (ratio[k, d] if ref.n_elliptic else 0.0)
    assert _same(rep.witness_iii[0], rho[k] * dirs[d])
    assert rep.witness_iii[1] == lam[k]

    real = np.full(vals.shape, np.inf)
    np.divide(vals.real, denom, out=real, where=denom > 1e-300)
    assert _same(remark22_checks(p, grid)["c_min"], real.min())

    if prop52:
        sweep = sweep_multiplier_rn(p)
        best, c_val, c_point = _reference_prop52(p)
        assert _same([r["lhs"] for r in sweep.records], best)
        assert _same([r["ratio"] for r in sweep.records], best)
        assert _same(sweep.extras["C"], c_val)
        assert _same(sweep.extras["C_point"], c_point)


E1_N3 = Pencil(n=3, m=2, mu=1, terms=tuple(
    Term(alpha, sum(alpha), complex(c)) for alpha, c in (
        ((4, 0, 0), 1.0), ((0, 4, 0), 1.0), ((0, 0, 4), 1.0), ((2, 2, 0), 2.0),
        ((2, 0, 2), 2.0), ((0, 2, 2), 2.0), ((2, 0, 0), 1.0), ((0, 2, 0), 1.0),
        ((0, 0, 2), 1.0))))


@pytest.mark.parametrize("p, grid", [
    # e1 is rotation invariant, so ratios tie up to rounding across directions.
    (e1_pencil(), GridSpec(angular=720, directions=720)),
    (broken_pencil(), GridSpec(angular=7, directions=30)),
    (agmon_pencil(), GridSpec(angular=7, directions=30)),
    (E1_N3, GridSpec(angular=3, directions=30))])
def test_slice_scans_bit_identical_to_full_ratio(p, grid):
    _assert_slice_scans_bit_identical(p, grid)


@settings(max_examples=20, deadline=None)
@given(st.one_of(_odd_order_pencils(), _odd_order_pencils(real=True)),
       st.integers(1, 9), st.integers(3, 40))
def test_slice_scans_bit_identical_on_odd_order_pencils(p, angular, directions):
    _assert_slice_scans_bit_identical(p, GridSpec(angular=angular, directions=directions))


@pytest.mark.parametrize("p, grid", [
    # e1 is rotation invariant, so ratios tie up to rounding across directions.
    (e1_pencil(), GridSpec(angular=720, directions=720)),
    (broken_pencil(), GridSpec(angular=7, directions=30)),
    # 2000 directions (the n = 3 least): the default block of
    # SLICE_BLOCK_ENTRIES // 2000 columns leaves a partial last block.
    (E1_N3, GridSpec(angular=97, directions=97))])
def test_slice_scans_do_not_depend_on_the_block_size(p, grid, monkeypatch):
    def scans():
        rep = check_lemma21(p, grid)
        sweep = sweep_multiplier_rn(p)
        return [rep.min_a2m, rep.min_a2mu, rep.min_abs, rep.min_ratio, rep.C_est,
                rep.witness_i, rep.witness_ii, *rep.witness_iii,
                remark22_checks(p, grid)["c_min"],
                [[r[key] for key in ("xi_prime_abs", "lambda", "lhs", "rhs", "ratio")]
                 for r in sweep.records],
                sweep.extras["C"], sweep.extras["C_point"]]

    default = [np.asarray(x).tobytes() for x in scans()]
    # One column per block, and one block for the whole scan.
    for entries in (1, 10 ** 9):
        monkeypatch.setattr(pencil_mod, "SLICE_BLOCK_ENTRIES", entries)
        assert [np.asarray(x).tobytes() for x in scans()] == default
