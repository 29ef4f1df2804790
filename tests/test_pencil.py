"""Tests for symbol evaluation, ellipticity checks, and root grouping."""

import cmath
import dataclasses
import functools
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencilab import halfline
from pencilab import pencil as pencil_mod
from pencilab import verify as verify_mod
from pencilab.catalog import agmon_pencil, broken_pencil, e1_pencil
from pencilab.errors import (EllipticityError, OutOfRangeError, PencilabError,
                             PencilFormatError)
from pencilab.halfline import MERGE_TOL
from pencilab.pencil import (AMBIGUITY_TOL, CLUSTER_TOL, ZOOM,
                             DegenerationResult, GridSpec, Pencil, RootGrouping,
                             RootSet, Term, check_lemma21,
                             check_regular_degeneration, cluster_roots,
                             eval_symbol, group_roots, load_pencil,
                             mesh_group_roots, pencil_from_dict, poly_roots,
                             q_polynomial, remark22_checks, sphere_directions,
                             tau_polynomial, tau_roots)
from pencilab.verify import (energy_weight_value, scan_directions, scan_s,
                             sweep_multiplier_rn)
import reference
from reference import BENCHMARK_PENCILS, PENCILS, pencil_to_dict

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


def test_coeff_scale_is_set_with_the_terms():
    # The sum of |coeff|, 1.0 when every coefficient is zero; replace runs
    # __post_init__ again, so the scale follows the new terms.
    p = e1_pencil()              # coefficients 1, 2, 1, 1, 1
    assert p.coeff_scale == 6.0
    zeros = dataclasses.replace(p, terms=tuple(Term(t.alpha, t.j, 0j) for t in p.terms))
    assert zeros.coeff_scale == 1.0
    tripled = dataclasses.replace(p, terms=tuple(Term(t.alpha, t.j, 3 * t.coeff)
                                                 for t in p.terms))
    assert tripled.coeff_scale == 18.0 and p.coeff_scale == 6.0


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


# The real pencils of both signs on the slice (see reference.SIGN_CHANGING).
SIGN_CHANGING = {name: load_pencil(path)
                 for name, path in reference.SIGN_CHANGING.items()}


@pytest.mark.parametrize("angular", [1, 2, 90, 720, 721, 1440])
@pytest.mark.parametrize("name", SIGN_CHANGING)
def test_check_lemma21_fails_a_real_symbol_of_both_signs(name, angular):
    # The slice is connected and the signed ratio continuous on it, so a
    # sign change among the nodes and the slice's ends is a zero.
    rep = check_lemma21(SIGN_CHANGING[name], GridSpec(angular=angular, directions=angular))
    assert not rep.cond_iii and not rep.n_elliptic
    assert rep.min_ratio == rep.C_est == 0.0


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
    # mesh_roots solves a stack of companion matrices in one eigvals call,
    # and tau_roots a stack of one: a node's roots must not depend on the
    # stack around it.
    stacked = np.linalg.eigvals(pencil_mod.companion(coeffs[:, ::-1]))
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


def _root_bits(rs):
    return np.array(rs.upper).tobytes(), np.array(rs.lower).tobytes()


def _mesh_against_loop(p, xi_prime, lam):
    """Check mesh_roots against tau_roots at each node: the node's RootSet
    bit for bit, or an error of the same type and message.  Returns the
    first node's error, in node order, or None."""
    results = pencil_mod.mesh_roots(p, xi_prime, lam)
    assert len(results) == len(lam)
    first = None
    for got, xs, y in zip(results, xi_prime, lam):
        try:
            want = tau_roots(dataclasses.replace(p), xs, y)
        except Exception as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            first = first or exc
        else:
            assert type(got) is RootSet and _root_bits(got) == _root_bits(want)
    return first


@pytest.mark.parametrize("p, xi_prime, lam, error, message", [
    # (tau - i)(tau - 2i) at lambda = 1: both roots upper, and m = 1.
    (Pencil(n=1, m=1, mu=0, terms=(Term((2,), 2, 1.0), Term((1,), 1, -3j),
                                   Term((0,), 0, -2.0))),
     [], 1.0, EllipticityError, "2 upper roots, expected m = 1 (m_+ = m violated)"),
    (agmon_pencil(), [0.0], 0.0, ValueError, "need xi' != 0 or lambda > 0"),
])
def test_tau_roots_rejects_at_a_point_and_on_the_mesh(p, xi_prime, lam, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        tau_roots(p, np.array(xi_prime), lam)
    exc = _mesh_against_loop(p, np.array([xi_prime, xi_prime]), np.array([2.0, lam]))
    assert str(exc) == message


# tau^2 - 3i lambda tau + 2 xi_1^2 - 2 lambda^2 + 1e15 xi_2^2 (n = 3, m = 1):
# at xi_2 = 0 its roots i(3 lambda +- sqrt(lambda^2 + 8 xi_1^2)) / 2 are one
# upper and one lower where xi_1 > lambda, both upper where xi_1 < lambda,
# and 3i lambda and 0 where xi_1 = lambda.  Where xi_2 dominates, its
# constant coefficient outweighs the leading 1 by more than 1e14.
REFUSALS = Pencil(n=3, m=1, mu=0, terms=(
    Term((0, 0, 2), 2, 1.0), Term((0, 0, 1), 1, -3j), Term((2, 0, 0), 2, 2.0),
    Term((0, 0, 0), 0, -2.0), Term((0, 2, 0), 2, 1e15)))
REFUSAL_NODES = [   # (xi_1, xi_2, lambda), and what tau_roots says there
    (2.0, 0.0, 1.0, None),
    (1.0, 0.0, -1.0, "need finite xi' and finite lambda >= 0"),
    (1.0, 0.0, 1e300, "overflows"),
    (3.0, 0.0, 0.5, None),
    (0.0, 1.0, 0.0, "leading tau coefficient vanishes"),
    (0.0, 0.0, 0.0, "need xi' != 0 or lambda > 0"),
    (1.0, 0.0, 1.0, "root on the real axis"),           # a root at 0
    (1.0, 0.0, 1.0 + 1e-9, "root on the real axis"),    # a root 1.3e-9 i
    (0.5, 0.0, 1.0, "2 upper roots, expected m = 1"),
    (1.0, 0.0, 0.0, None),
]


def test_mesh_roots_refuse_each_node_as_tau_roots_does():
    # One mesh with good nodes and every refusal: each entry is tau_roots'
    # RootSet bit for bit, or the error it raises, of the same type and
    # message; mesh_norms raises the first refusal in node order, and
    # mesh_group_roots what a loop of group_roots calls raises first.
    nodes = np.array([node[:3] for node in REFUSAL_NODES])
    xi_prime, lam = nodes[:, :2], nodes[:, 2]
    results = pencil_mod.mesh_roots(REFUSALS, xi_prime, lam)
    _mesh_against_loop(REFUSALS, xi_prime, lam)
    for (*_, message), got in zip(REFUSAL_NODES, results):
        if message is None:
            assert type(got) is RootSet and len(got.upper) == 1
        else:
            assert isinstance(got, Exception) and message in str(got)
    for start in range(len(nodes)):
        order = np.roll(np.arange(len(nodes)), -start)
        first = next(r for r in np.array(results, dtype=object)[order]
                     if isinstance(r, Exception))
        with pytest.raises(type(first), match=f"^{re.escape(str(first))}$"):
            halfline.mesh_norms(REFUSALS, xi_prime[order], lam[order])
    # mesh_group_roots keeps xi' and varies lambda.  Q = (tau - i)(tau - 2i)
    # has two upper roots: the targets' error comes after node 0's.
    for xi, lams in [((1.0, 0.0), [0.5, -1.0, 1.0]), ((1.0, 0.0), [-1.0, 0.5]),
                     ((1.0, 0.0), [1.0, 1e300]), ((1.0, 0.0), [1.0 + 1e-9, 0.5]),
                     ((1.0, 0.0), [2.0, 0.5]), ((0.0, 1.0), [0.0, 1.0]),
                     ((0.0, 0.0), [0.0, 1.0])]:
        with pytest.raises((PencilabError, ValueError)) as loop:
            for y in lams:
                group_roots(REFUSALS, np.array(xi), y)
        with pytest.raises(type(loop.value), match=f"^{re.escape(str(loop.value))}$"):
            mesh_group_roots(REFUSALS, np.array(xi), np.array(lams))


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
    assert _mesh_against_loop(_sextic(), np.array([[1.0]]), np.array([lam])) is None


@pytest.mark.parametrize("name", ["e1", "agmon", "e1_n3", "double", "near"])
def test_tau_roots_accept_a_point_at_every_scale(name):
    # At (2^k xi', 2^k lambda) the roots are 2^k times those at (xi',
    # lambda): the real-axis rule is relative, so it accepts the point at
    # every scale, down to |xi'| + lambda of about 1e-13.
    p = load_pencil(BENCHMARK_PENCILS / f"{name}.json")
    rng = np.random.default_rng(29)
    for _ in range(4):
        direction = rng.standard_normal(p.n - 1)
        xi = 10.0 ** rng.uniform(-1.0, 1.0) * direction / np.linalg.norm(direction)
        lam = float(10.0 ** rng.uniform(-1.0, 3.0))
        total = sum(tau_roots(p, xi, lam).upper)
        for k in range(-40, 41):
            upper = tau_roots(p, 2.0 ** k * xi, 2.0 ** k * lam).upper
            assert len(upper) == p.m
            assert sum(upper) == pytest.approx(2.0 ** k * total, rel=1e-9)


def test_tau_roots_refuse_a_real_root_at_every_scale():
    # |xi|^2 - 2 lambda^2 at (1, 3): tau^2 = 17.
    p = SIGN_CHANGING["xi2-2lam2"]
    for k in range(-40, 41):
        with pytest.raises(EllipticityError, match="root on the real axis"):
            tau_roots(p, np.array([2.0 ** k]), 3.0 * 2.0 ** k)


def test_vanishing_leading_coefficient_still_raises():
    # A_2m(e_n) = 0: xi_n^2m is missing, at every scale.
    p = Pencil(n=2, m=1, mu=0, terms=(Term((2, 0), 2, 1.0), Term((1, 1), 2, 0.5),
                                      Term((0, 0), 0, 1.0)))
    for lam in (1e-3, 1.0, 1e6):
        with pytest.raises(EllipticityError, match="leading tau coefficient"):
            tau_roots(p, np.array([1.0]), lam)
        exc = _mesh_against_loop(p, np.array([[1.0]]), np.array([lam]))
        assert "leading tau coefficient" in str(exc)


def test_out_of_range_lambda_rejected_at_a_point_and_on_the_mesh():
    # e1 is even in lambda, so only the range check tells -5 from 5; at
    # 1e300 A overflows, and a RuntimeWarning would fail this test.
    for lam, message in ((-5.0, "lambda >= 0"), (1e300, "overflows")):
        with pytest.raises(OutOfRangeError, match=message):
            tau_roots(e1_pencil(), np.array([1.0]), lam)
        # On the mesh, after a node it accepts.
        exc = _mesh_against_loop(e1_pencil(), np.ones((2, 1)), np.array([5.0, lam]))
        assert isinstance(exc, OutOfRangeError) and message in str(exc)
    # Of two rejected nodes the first names the error.
    exc = _mesh_against_loop(e1_pencil(), np.ones((3, 1)), np.array([-5.0, 1e300, 5.0]))
    assert "lambda >= 0" in str(exc)
    assert _mesh_against_loop(e1_pencil(), np.ones((1, 1)), np.array([5.0])) is None


@pytest.mark.parametrize("above", [False, True])
def test_leading_coefficient_threshold_same_on_mesh(above):
    # xi_1^2 + a xi_n^2 + lambda^2 at xi' = 1, lambda = 1: rho = 2 and the
    # weighted |c_0| rho^-2 is 1/2, so the threshold is exactly 1e-14 / 2.
    a = 1e-14 * 0.5
    if above:
        a = np.nextafter(a, 1.0)
    p = Pencil(n=2, m=1, mu=0, terms=(Term((2, 0), 2, 1.0), Term((0, 2), 2, a),
                                      Term((0, 0), 0, 1.0)))
    exc = _mesh_against_loop(p, np.array([[1.0]]), np.array([1.0]))
    assert (exc is None) == above
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
        cur = np.array(rs.upper + rs.lower)
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
    match = pencil_mod._min_cost_matching(cost.tolist())
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
    # Q depends on the pencil alone: repeated groupings of one pencil, at
    # several points, find its roots once; an equal pencil solves it again.
    # poly_roots solves Q and A_2mu(xi', .), mesh_roots the points.
    p = e1_pencil()
    q = q_polynomial(p)
    seen, points = [], []
    mesh_roots = pencil_mod.mesh_roots
    def counting(coeffs):
        seen.append(np.array_equal(coeffs, q))
        return poly_roots(coeffs)
    def solving(p, xi_prime, lam):
        points.append(len(lam))
        return mesh_roots(p, xi_prime, lam)
    monkeypatch.setattr(pencil_mod, "poly_roots", counting)
    monkeypatch.setattr(pencil_mod, "mesh_roots", solving)
    for lam in (1.0, 10.0, 100.0):      # at |xi'| = 1, A_2mu's tau-polynomial is Q
        group_roots(p, np.array([2.0]), lam)
    assert sum(seen) == 1
    assert len(seen) == 1 + 3        # Q; A_2mu per grouping
    assert points == [1, 1, 1]       # one point per grouping
    assert check_regular_degeneration(p) is check_regular_degeneration(p)
    # The pencil keeps its last point's roots: solve there finds none again,
    # and a grouping at a new point finds its roots and A_2mu's.
    halfline.solve(p, np.array([2.0]), 100.0)
    assert len(seen) == 4 and len(points) == 3
    group_roots(p, np.array([2.0]), 1000.0)
    assert len(seen) == 5 and len(points) == 4
    fresh = e1_pencil()
    assert fresh == p and hash(fresh) == hash(p)
    group_roots(fresh, np.array([2.0]), 1000.0)
    assert sum(seen) == 2 and len(seen) == 7 and len(points) == 5


def _field_reprs(obj) -> list[str]:
    # repr writes each float in the fewest digits that read back exactly, so
    # equal reprs are equal bits (the sign of a zero included).
    return [repr(getattr(obj, f.name)) for f in dataclasses.fields(obj)]


def test_tau_roots_memo_gives_the_cold_results_bit_for_bit():
    # 8 seeded points on each benchmark pencil.  Warm: group_roots and solve
    # after tau_roots at the same point on one pencil object, both served
    # from the roots it keeps.  Cold: each call on a fresh equal pencil.
    rng = np.random.default_rng(23)
    calls = (tau_roots, group_roots, halfline.solve)
    for name in ("e1", "agmon", "e1_n3", "double", "near"):
        p = load_pencil(BENCHMARK_PENCILS / f"{name}.json")
        for _ in range(8):
            direction = rng.standard_normal(p.n - 1)
            xi = 10.0 ** rng.uniform(-1.0, 1.0) * direction / np.linalg.norm(direction)
            lam = float(10.0 ** rng.uniform(-1.0, 3.0))
            cold = [call(dataclasses.replace(p), xi, lam) for call in calls]
            warm = [call(p, xi, lam) for call in calls]
            assert _field_reprs(warm[0]) == _field_reprs(cold[0])
            assert _field_reprs(warm[1]) == _field_reprs(cold[1])
            assert ([_field_reprs(s) for s in warm[2]]
                    == [_field_reprs(s) for s in cold[2]])


def test_tau_roots_memo_keys_on_the_pencil_and_the_bits_of_the_point(monkeypatch):
    # Each pencil object keeps its own last point: two pencils queried in
    # turn each keep theirs, and an equal pencil keeps nothing of another.
    solved = []
    mesh_roots = pencil_mod.mesh_roots
    def counting(p, xi_prime, lam):
        solved.append(len(lam))
        return mesh_roots(p, xi_prime, lam)
    monkeypatch.setattr(pencil_mod, "mesh_roots", counting)
    a, e1 = agmon_pencil(), e1_pencil()
    for p, xi, lam, misses in [
            (a, 1.0, 2.0, 1),
            (a, 1.0, 2.0, 1),               # the same point
            (agmon_pencil(), 1.0, 2.0, 2),  # an equal pencil
            (e1, 1.0, 2.0, 3),              # another pencil
            (a, 1.0, 2.0, 3),               # each keeps its own point
            (e1, 1.0, 2.0, 3),
            (a, 1.0, 3.0, 4),               # another lambda
            (a, 1.0, 2.0, 5),               # one entry: (1, 2) was replaced
            (a, 0.0, 3.0, 6),
            (a, -0.0, 3.0, 7),              # -0.0 == 0.0, but other bits
            (a, -0.0, 3.0, 7),
            (e1, 1.0, 0.0, 8),
            (e1, 1.0, -0.0, 9)]:
        rs = tau_roots(p, np.array([xi]), lam)
        assert len(solved) == misses
        assert rs == tau_roots(p, np.array([xi]), lam)
    # The same bits in another shape are another point, which tau_roots
    # refuses before it solves; each solve is of one node.
    with pytest.raises(ValueError, match="xi' has shape"):
        tau_roots(e1, np.array([[1.0]]), -0.0)
    assert solved == [1] * 9


def test_tau_roots_memo_keeps_no_failure(monkeypatch):
    # e1 at xi' = 0 has a double root at tau = 0, which is real: each call
    # solves and raises, and the point kept before stays kept.
    p = e1_pencil()
    kept = tau_roots(p, np.array([1.0]), 10.0)
    solved = []
    mesh_roots = pencil_mod.mesh_roots
    def counting(p, xi_prime, lam):
        solved.append(len(lam))
        return mesh_roots(p, xi_prime, lam)
    monkeypatch.setattr(pencil_mod, "mesh_roots", counting)
    for calls in (1, 2):
        with pytest.raises(EllipticityError, match="root on the real axis"):
            tau_roots(p, np.array([0.0]), 1.0)
        assert len(solved) == calls
    assert tau_roots(p, np.array([1.0]), 10.0) is kept
    assert len(solved) == 2


def _match_groups_on_arrays(p, upper, lam, bounded_targets, deg):
    """pencil._match_groups as it was, on numpy arrays: the reference for
    the list version."""
    large_targets = lam * np.array(deg.upper_roots)
    targets = np.concatenate([bounded_targets, large_targets])
    cost = np.abs(upper[:, None] - targets[None, :])
    assign = pencil_mod._min_cost_matching(cost.tolist())

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
        k1=deg.k1, ambiguous=ambiguous)


@st.composite
def _matching_cases(draw):
    """(m, mu, upper, lam, bounded targets, Q's upper roots) with m <= 4 and
    mu < m.  Upper roots repeat (exact ties in the matching, which the later
    row takes), and a target drawn near a root lies at a shared distance
    `base` from it give or take 3 AMBIGUITY_TOL, so the bounded and the
    large distances of a root can differ by less than the ambiguity
    tolerance or just more."""
    m = draw(st.integers(1, 4))
    mu = draw(st.integers(0, m - 1))
    coord = st.floats(-100.0, 100.0)
    point = st.builds(complex, coord, coord)
    pool = draw(st.lists(point, min_size=1, max_size=m))
    upper = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    lam = draw(st.sampled_from([1.0, 0.5, 3.0, 1e3]))
    base = draw(st.floats(0.0, 10.0))
    targets = []
    for _ in range(m):
        if draw(st.booleans()):
            targets.append(draw(point))
        else:
            r = draw(st.sampled_from(upper))
            step = base + draw(st.floats(-3.0, 3.0)) * AMBIGUITY_TOL * (1.0 + abs(r))
            targets.append(r + draw(st.sampled_from([1, -1, 1j, -1j])) * step)
    deg = DegenerationResult(True, tuple(t / lam for t in targets[mu:]),
                             draw(st.integers(0, m)))
    return (Pencil(n=1, m=m, mu=mu, terms=()), np.array(upper, dtype=complex),
            lam, np.array(targets[:mu], dtype=complex), deg)


@settings(max_examples=300, deadline=None)
@given(_matching_cases())
# The root 100 lies 5 from its bounded target and 0.8 AMBIGUITY_TOL (1 + 100)
# farther from its large target: ambiguous, by a margin a tolerance scaled
# on |root| / 2 would miss.
@example((Pencil(n=1, m=2, mu=1, terms=()), np.array([100 + 0j, -5 + 1j]), 1.0,
          np.array([105 + 0j]),
          DegenerationResult(True, (95 - 0.8 * AMBIGUITY_TOL * 101 + 0j,), 1)))
def test_match_groups_on_lists_equals_the_array_version(case):
    got, want = pencil_mod._match_groups(*case), _match_groups_on_arrays(*case)
    for f in dataclasses.fields(RootGrouping):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b)
        if isinstance(a, tuple):
            assert [type(x) for x in a] == [type(x) for x in b]
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


def test_pencil_hash_and_fields_ignore_what_it_keeps():
    # The roots and Q's result a pencil keeps are no field: equality, the
    # dataclass hash and repr see the four fields alone, and a copy made by
    # dataclasses.replace keeps nothing.
    p, q = e1_pencil(), pencil_from_dict(pencil_to_dict(e1_pencil()))
    group_roots(p, np.array([1.0]), 10.0)
    assert p == q and p is not q and hash(p) == hash(q)
    assert hash(p) == hash((p.n, p.m, p.mu, p.terms))
    assert [f.name for f in dataclasses.fields(p)] == ["n", "m", "mu", "terms"]
    assert repr(p) == repr(e1_pencil()) and "_derived" not in repr(p)
    r = dataclasses.replace(p, terms=p.terms[:-1])
    assert r != p and hash(r) == hash((r.n, r.m, r.mu, r.terms)) != hash(p)
    copy = dataclasses.replace(p)
    assert copy == p and hash(copy) == hash(p)
    assert p._derived and not copy._derived and not q._derived


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


@pytest.mark.parametrize("density", [1, 2, 4])
@pytest.mark.parametrize("name", ["e1", "agmon", "e1_n3", "double", "near"])
def test_mesh_group_roots_equals_group_roots_per_lambda(name, density):
    # At the asymptotics sweep's nodes: xi' the first scan direction and
    # lambda the scan's s-values in [1, 1e3].
    p = load_pencil(BENCHMARK_PENCILS / f"{name}.json")
    xi_prime, s = scan_directions(p.n)[0], scan_s(density)
    lam = s[(s >= 1.0) & (s <= 1e3)]
    mesh = mesh_group_roots(p, xi_prime, lam)
    loop = [group_roots(p, xi_prime, y) for y in lam]
    assert mesh == loop
    assert [repr(g) for g in mesh] == [repr(g) for g in loop]


@pytest.mark.parametrize("lam", [[-5.0, 1.0], [1.0, -5.0], [1.0, 2.0, 1e300]])
def test_mesh_group_roots_raises_what_a_loop_raises_first(lam):
    # broken's A_2mu(e_1, .) = 1 has no zeros: that error comes after node
    # 0's roots and before the later nodes'.
    for p in (broken_pencil(), e1_pencil()):
        with pytest.raises(PencilabError) as loop:
            for y in lam:
                group_roots(p, np.array([1.0]), y)
        with pytest.raises(type(loop.value), match=re.escape(str(loop.value))):
            mesh_group_roots(p, np.array([1.0]), lam)


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
        xa, lam = sweep.records["xi_prime_abs"][k], sweep.records["lambda"][k]
        wgt = energy_weight_value(p, xa, lam)
        best = max(wgt / (abs(eval_symbol(p, xa * w, lam)) ** 2 / wgt
                          + lam ** (2 * p.m - 2 * p.mu)) for w in dirs52)
        assert sweep.records["lhs"][k] == pytest.approx(best, **close)


# ---------------------------------------------------------------------------
# slice scans in the pencil's dtype, reduced per row, against full matrices

def _power(x, a):
    """x^a for a >= 1 by the products x^1 = x, x^k = x^(k-1) x: the rule by
    which pencil builds the powers of direction coordinates."""
    out = x
    for _ in range(a - 1):
        out = out * x
    return out


def _reference_part(p, j, dirs):
    """A_j(omega) from p.terms, term by term, as homogeneous_part evaluated
    it before its parts were compiled: the reference for compile_parts."""
    real = all(t.coeff.imag == 0 for t in p.terms)
    out = np.zeros(len(dirs), dtype=float if real else complex)
    for t in p.terms:
        if t.j == j:
            factors = [_power(dirs[:, i], a) for i, a in enumerate(t.alpha) if a]
            mono = functools.reduce(np.multiply, factors) if factors else 1.0
            out += (t.coeff.real if real else t.coeff) * mono
    return out


def _reference_sphere_min(p, j, dirs, part=_reference_part):
    """_sphere_min's search, round by round, on `part`'s values: the grid
    minimum of |A_j|, then patches of (2 ZOOM + 1)^(n-1) points zooming in
    by ZOOM, each evaluated from scratch."""
    vals = np.abs(part(p, j, dirs))
    k = int(np.argmin(vals))
    best, value = dirs[k], float(vals[k])
    if p.n == 1 or j == 0:
        return best, value
    gaps = np.sum((dirs - best) ** 2, axis=1)
    gaps[k] = 4.0
    step = math.sqrt(gaps.min()) / ZOOM
    v = best.copy()
    v[0] += math.copysign(1.0, best[0])
    tangent = (np.eye(p.n) - 2.0 * np.outer(v, v) / np.sum(v * v))[:, 1:]
    side = np.arange(-ZOOM, ZOOM + 1, dtype=float)
    patch = np.stack(np.meshgrid(*[side] * (p.n - 1)), axis=-1).reshape(-1, p.n - 1)
    offsets = np.sum(patch[:, None, :] * tangent[None, :, :], axis=2)
    while step > 1e-15:
        pts = best + step * offsets
        pts /= np.sqrt(np.sum(pts * pts, axis=1))[:, None]
        patch_vals = np.abs(part(p, j, pts))
        i = int(np.argmin(patch_vals))
        if patch_vals[i] < value:
            best, value = pts[i], float(patch_vals[i])
        step /= ZOOM
    return best, value


def _complex_part(p, j, dirs):
    """A_j(omega) in complex128 whatever the coefficients."""
    out = np.zeros(len(dirs), dtype=complex)
    for t in p.terms:
        if t.j == j:
            mono = np.ones(len(dirs))
            for i, a in enumerate(t.alpha):
                if a:       # x^0 = 1.0: the product by it is exact
                    mono = mono * _power(dirs[:, i], a)
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


def _reference_prop52(p, density=1):
    """sweep_multiplier_rn's records, C and C_point, from the full ratio
    matrix and its argmax; the polish evaluates the whole symbol at the
    peak direction every round."""
    dirs = sphere_directions(p.n, GridSpec(
        angular=90 * density, directions=48 * density).direction_count(p.n))
    xi = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 10 * density)])
    lam_grid = np.geomspace(1.0, 1e3, 8 * density)
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
        step = np.log(hi / lo) / (np.array([10, 8]) * density - 1) / ZOOM
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
    dirs = sphere_directions(p.n, grid.direction_count(p.n))
    # (i), (ii): the sphere minima and their zooms, on complex values.
    ref_i = _reference_sphere_min(p, 2 * p.m, dirs, _complex_part)
    ref_ii = _reference_sphere_min(p, 2 * p.mu, dirs, _complex_part)
    rep = check_lemma21(p, grid)
    assert _same(rep.witness_i, ref_i[0]) and _same(rep.witness_ii, ref_ii[0])
    assert (rep.min_a2m, rep.min_a2mu) == (ref_i[1], ref_ii[1])

    # (iii): the first minimising node of the full ratio matrix.
    theta = (np.arange(grid.angular) + 0.5) / grid.angular * (np.pi / 2.0)
    rho, lam = np.cos(theta), np.sin(theta)
    denom = _normaliser(p, rho, lam)[:, None]
    vals = _full_symbol(p, dirs, rho, lam)
    ratio = np.full(vals.shape, np.inf)
    np.divide(np.abs(vals), denom, out=ratio, where=denom > 1e-300)
    k, d = np.unravel_index(np.argmin(ratio), ratio.shape)
    # A real symbol of both signs, among the nodes and the slice's ends
    # (A_2m and A_2mu), vanishes on the slice: its least ratio is 0.
    signed = np.concatenate([vals.ravel(), _complex_part(p, 2 * p.m, dirs),
                             _complex_part(p, 2 * p.mu, dirs)])
    both_signs = (all(t.coeff.imag == 0 for t in p.terms)
                  and (signed.real < 0).any() and (signed.real > 0).any())
    min_ratio = 0.0 if both_signs else ratio[k, d]
    assert rep.min_abs == np.abs(vals).min()
    assert rep.min_ratio == min_ratio
    elliptic = min(min_ratio, ref_i[1], ref_ii[1]) > grid.tol * p.coeff_scale
    assert rep.C_est == (min_ratio if elliptic else 0.0)
    assert _same(rep.witness_iii[0], rho[k] * dirs[d])
    assert rep.witness_iii[1] == lam[k]

    real = np.full(vals.shape, np.inf)
    np.divide(vals.real, denom, out=real, where=denom > 1e-300)
    assert _same(remark22_checks(p, grid)["c_min"], real.min())

    if prop52:
        sweep = sweep_multiplier_rn(p)
        best, c_val, c_point = _reference_prop52(p)
        assert _same(sweep.records["lhs"], best)
        assert _same(sweep.records["ratio"], best)
        assert _same(sweep.extras["C"], c_val)
        assert _same(sweep.extras["C_point"], c_point)


E1_N3 = Pencil(n=3, m=2, mu=1, terms=tuple(
    Term(alpha, sum(alpha), complex(c)) for alpha, c in (
        ((4, 0, 0), 1.0), ((0, 4, 0), 1.0), ((0, 0, 4), 1.0), ((2, 2, 0), 2.0),
        ((2, 0, 2), 2.0), ((0, 2, 2), 2.0), ((2, 0, 0), 1.0), ((0, 2, 0), 1.0),
        ((0, 0, 2), 1.0))))
# tau^2 + lambda^2: n = 1, whose sphere is the two directions +-1.
N1 = load_pencil(PENCILS / "n1.json")
# |xi|^2 (|xi|^2 + lambda^2)^2: three nonzero parts (j = 6, 4, 2).
M3 = load_pencil(PENCILS / "m3.json")
# |xi|^2 + c lambda^2 with c = e^(i pi/4) (n = 2) and c = i (n = 3): complex
# tables.
CPLX_N2 = load_pencil(PENCILS / "cplx.json")
CPLX_N3 = Pencil(n=3, m=1, mu=0, terms=(
    Term((2, 0, 0), 2, 1.0), Term((0, 2, 0), 2, 1.0), Term((0, 0, 2), 2, 1.0),
    Term((0, 0, 0), 0, 1j)))
# A generic anisotropic pencil, Q1 (Q2 + lambda^2) with non-isotropic
# quadratic forms Q1, Q2: nearly every row of its direction table is
# distinct.  With -lambda^2 in place of +lambda^2 it changes sign on the
# slice (aniso_sign: its A_2 negated), so its scan takes the column maxima
# and rescans the columns of both signs.
ANISO = load_pencil(PENCILS / "aniso.json")
ANISO_SIGN = load_pencil(PENCILS / "aniso_sign.json")


@pytest.mark.parametrize("p, grid", [
    # e1 is rotation invariant, so ratios tie up to rounding across directions.
    (e1_pencil(), GridSpec(angular=720, directions=720)),
    (broken_pencil(), GridSpec(angular=7, directions=30)),
    (agmon_pencil(), GridSpec(angular=7, directions=30)),
    (E1_N3, GridSpec(angular=3, directions=30)),
    (N1, GridSpec(angular=7, directions=30)),
    # m3's 720 directions give a few dozen distinct rows: one block.
    (M3, GridSpec(angular=97, directions=720)),
    (CPLX_N2, GridSpec(angular=7, directions=30)),
    (CPLX_N3, GridSpec(angular=3, directions=30)),
    # No term: every part is zero.
    (Pencil(n=2, m=1, mu=0, terms=()), GridSpec(angular=7, directions=30)),
    # Symbols of both signs: the columns of both signs are rescanned for |.|.
    *((p, GridSpec(angular=97, directions=720)) for p in SIGN_CHANGING.values()),
    # A negative symbol: its least |A| is minus the column maxima.
    (Pencil(n=2, m=3, mu=1, terms=tuple(Term(t.alpha, t.j, -2.0 * t.coeff)
                                        for t in M3.terms)),
     GridSpec(angular=97, directions=720)),
    # broken's several hundred distinct rows: the scans skip the rows that
    # another row dominates, and read 4.
    (broken_pencil(), GridSpec(angular=97, directions=720)),
    # Generic tables, cut by dominance; the sign-changing one also takes
    # the column maxima and rescans its columns of both signs, each over
    # several blocks (test_pruned_scan_ends_in_a_partial_block).
    (ANISO, GridSpec(angular=97, directions=720)),
    (ANISO_SIGN, GridSpec(angular=720, directions=720))])
def test_slice_scans_bit_identical_to_full_ratio(p, grid):
    _assert_slice_scans_bit_identical(p, grid)


@pytest.mark.parametrize("coeffs, c_min", [
    # A = -5e-324 |xi|^2 underflows to -0.0 wherever rho^2 omega_i^2 < 1/2.
    ({(2, 0): -5e-324, (0, 2): -5e-324}, "0100000000000080"),
    # A = -5e-324 xi_1 lambda: rho lambda <= 1/2, so every product is a
    # zero, and the first direction's product is -0.0.
    ({(1, 0): -5e-324}, "0000000000000000")])
def test_slice_scans_keep_the_sign_of_zero(coeffs, c_min):
    # A sum of parts started from zeros turns a product -0.0 into +0.0; the
    # minima of Re A keep that bit.
    p = Pencil(n=2, m=1, mu=0, terms=tuple(
        Term(alpha, sum(alpha), complex(c)) for alpha, c in coeffs.items()))
    assert np.float64(remark22_checks(p)["c_min"]).tobytes().hex() == c_min
    rep = check_lemma21(p)
    assert np.array([rep.min_abs, rep.min_ratio]).tobytes() == bytes(16)


@pytest.mark.parametrize("p", [
    agmon_pencil(), CPLX_N2, CPLX_N3,
    Pencil(n=2, m=1, mu=0, terms=(Term((2, 0), 2, 1.0), Term((1, 1), 2, 0.5),
                                  Term((0, 0), 0, -3.0)))])
def test_sphere_min_of_a_constant_part_is_the_grid_minimum(p, monkeypatch):
    # A_0 is constant on the sphere, so no zoom patch can hold a smaller
    # value: the search evaluates nothing beyond the table, and the first
    # grid direction is the witness.
    dirs = sphere_directions(p.n, GridSpec().direction_count(p.n))
    table = pencil_mod.homogeneous_table(pencil_mod.compile_parts(p), dirs)
    orders = []
    real_part = pencil_mod.homogeneous_part

    def counting(parts, j, pts):
        orders.append(j)
        return real_part(parts, j, pts)

    monkeypatch.setattr(pencil_mod, "homogeneous_part", counting)
    rep = check_lemma21(p)
    assert orders.count(0) == 0             # the table's column takes no call
    assert _same(rep.witness_ii, dirs[0])
    assert _same(rep.min_a2mu, abs(table[0, 0]))


@settings(max_examples=20, deadline=None)
@given(st.one_of(_odd_order_pencils(), _odd_order_pencils(real=True)),
       st.integers(1, 9), st.integers(3, 40))
def test_slice_scans_bit_identical_on_odd_order_pencils(p, angular, directions):
    _assert_slice_scans_bit_identical(p, GridSpec(angular=angular, directions=directions))


@pytest.mark.parametrize("p, grid", [
    # e1 is rotation invariant, so ratios tie up to rounding across directions.
    (e1_pencil(), GridSpec(angular=720, directions=720)),
    (broken_pencil(), GridSpec(angular=7, directions=30)),
    # 2000 directions (the n = 3 least), which give a few dozen distinct
    # rows: the default block holds every angle.
    (E1_N3, GridSpec(angular=97, directions=97)),
    # Kept rows over several blocks, the last one partial, at the default
    # size (test_pruned_scan_ends_in_a_partial_block).
    (ANISO_SIGN, GridSpec(angular=720, directions=720))])
def test_slice_scans_do_not_depend_on_the_block_size(p, grid, monkeypatch):
    def scans():
        rep = check_lemma21(p, grid)
        sweep = sweep_multiplier_rn(p)
        return [rep.min_a2m, rep.min_a2mu, rep.min_abs, rep.min_ratio, rep.C_est,
                rep.witness_i, rep.witness_ii, *rep.witness_iii,
                remark22_checks(p, grid)["c_min"],
                [sweep.records[key] for key in ("xi_prime_abs", "lambda", "lhs",
                                                "rhs", "ratio")],
                sweep.extras["C"], sweep.extras["C_point"]]

    default = [np.asarray(x).tobytes() for x in scans()]
    # One column per block, where every real scan skips dominated rows, and
    # one block for the whole scan, where none does.
    for entries in (1, 10 ** 9):
        monkeypatch.setattr(pencil_mod, "SLICE_BLOCK_ENTRIES", entries)
        assert [np.asarray(x).tobytes() for x in scans()] == default


# ---------------------------------------------------------------------------
# the slice scans visit the distinct rows of the direction table

def _least_re(table, rho, lam):
    """remark22_checks' least Re A per column, from symbol_blocks."""
    return np.concatenate([block.real.min(axis=1) for _, block
                           in pencil_mod.symbol_blocks(table, rho, lam)]) + 0.0


def _first_rows(table):
    """Indices of the rows whose bytes no earlier row has, in order."""
    seen, first = set(), []
    for d, row in enumerate(table):
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            first.append(d)
    return first


def _distinct_count(table):
    """The number of distinct rows of a table, by np.unique on a void view."""
    rows = np.ascontiguousarray(table).view(f"V{table.itemsize * table.shape[1]}")
    return len(np.unique(rows))


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-2.0, 2.0))


@st.composite
def _repeated_tables(draw):
    """Direction tables that repeat a few base rows in any order, real or
    complex: with rows that differ from a base row only in the sign of its
    zeros, all-zero columns, and 1-row tables."""
    cols = draw(st.integers(3, 7))
    dtype = draw(st.sampled_from([float, complex]))
    width = cols * (1 if dtype is float else 2)
    base = np.array(draw(st.lists(st.lists(_ENTRIES, min_size=width, max_size=width),
                                  min_size=1, max_size=4)))
    base = base.view(dtype) if dtype is complex else base
    zero_cols = draw(st.lists(st.integers(0, cols - 1), max_size=cols))
    base[:, zero_cols] = draw(st.sampled_from([0.0, -0.0]))
    flipped = np.empty_like(base)        # each zero of the other sign
    flipped.real = np.where(base.real == 0, -np.copysign(0.0, base.real), base.real)
    if dtype is complex:
        flipped.imag = np.where(base.imag == 0, -np.copysign(0.0, base.imag), base.imag)
    rows = np.concatenate([base, flipped])
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40))
    return np.ascontiguousarray(rows[picks])


@settings(max_examples=200, deadline=None)
@given(_repeated_tables(), st.integers(1, 9))
def test_scans_of_the_distinct_rows_equal_the_full_scans(table, angular):
    theta = (np.arange(angular) + 0.5) / angular * (np.pi / 2.0)
    # The slice's ends, rho = 0 and lambda = 0, besides its midpoints.
    rho, lam = np.r_[np.cos(theta), 0.0, 1.0], np.r_[np.sin(theta), 1.0, 0.0]
    rows = pencil_mod.distinct_rows(table)
    assert rows.dtype == table.dtype
    assert rows.tobytes() == table[_first_rows(table)].tobytes()
    assert len(rows) == _distinct_count(table)
    least, negative, positive = pencil_mod.column_least(rows, rho, lam)
    full_least, full_negative, full_positive = pencil_mod.column_least(table, rho, lam)
    assert least.tobytes() == full_least.tobytes()
    assert (negative, positive) == (full_negative, full_positive)
    assert _least_re(rows, rho, lam).tobytes() == _least_re(table, rho, lam).tobytes()


def _all_values(table, rho, lam):
    """A at every (column, row) node, by brute force: each part's power
    rho^j lambda^(2m-j) times A_j(omega), rounded once, summed from zeros in
    j order over every part, zero ones included (those change at most the
    sign of a zero)."""
    top = table.shape[1] - 1
    values = np.zeros((len(rho), len(table)))
    for j in range(top + 1):
        values = values + (rho ** j * lam ** (top - j))[:, None] * table[:, j]
    return values


@st.composite
def _dominance_tables(draw):
    """Real direction tables with 1 to 5 nonzero parts among up to 7
    orders, and how many values a block of their scans holds: mostly fewer
    than the scan's, so that the scans skip dominated rows over several
    blocks, the last often partial, and otherwise read every row.
    The rows repeat a few base rows shifted up or down by >= 0 in some
    parts (weakly dominated rows, and tied ones when no part moves), and
    flip the sign of zeros; their values are >= 0, <= 0, or of both signs."""
    width = draw(st.integers(1, 7))
    nonzero = draw(st.lists(st.integers(0, width - 1), min_size=1,
                            max_size=min(5, width), unique=True))
    sign = draw(st.sampled_from([1.0, -1.0, None]))
    entries = _ENTRIES if sign is None else _ENTRIES.map(lambda x: sign * abs(x))
    base = draw(st.lists(st.lists(entries, min_size=len(nonzero), max_size=len(nonzero)),
                         min_size=1, max_size=8))
    rows = [list(row) for row in base]
    for _ in range(draw(st.integers(0, 30))):
        row = np.array(draw(st.sampled_from(base)))
        shifts = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]),
                                        min_size=len(row), max_size=len(row))))
        up = draw(st.booleans()) if sign is None else sign < 0
        rows.append(list(row + shifts if up else row - shifts))
        rows.append([-x if x == 0 else x for x in rows[-1]])
    table = np.zeros((len(rows), width))
    table[:, nonzero] = rows
    table = table[draw(st.permutations(range(len(rows))))]
    angular = draw(st.integers(1, 9))
    block = draw(st.integers(1, 2 * len(table) * (angular + 2)))
    return table, angular, block


@settings(max_examples=300, deadline=None)
@given(_dominance_tables())
def test_scans_that_skip_dominated_rows_equal_brute_force(drawn):
    table, angular, block = drawn
    theta = (np.arange(angular) + 0.5) / angular * (np.pi / 2.0)
    # The slice's ends, where a part power is 0 and lambda^0 = 1, besides
    # its midpoints.
    rho, lam = np.r_[np.cos(theta), 0.0, 1.0], np.r_[np.sin(theta), 1.0, 0.0]
    values = _all_values(table, rho, lam)
    with mock.patch.object(pencil_mod, "SLICE_BLOCK_ENTRIES", block):
        least, negative, positive = pencil_mod.column_least(table, rho, lam)
        least_re = pencil_mod._least_re(table, rho, lam)[0]
    assert least.tobytes() == (np.abs(values).min(axis=1) + 0.0).tobytes()
    assert (negative, positive) == (bool((values < 0).any()), bool((values > 0).any()))
    assert least_re.tobytes() == (values.min(axis=1) + 0.0).tobytes()


def test_scans_skip_no_row_unless_every_power_and_value_is_finite():
    # Row 1 is >= row 0 in every part, but rho < 0 makes the power rho
    # lambda of A_1 negative, which reverses the order of that part (rho^2
    # lambda^0 would not), and row 1 overflows where row 0 does not; a
    # table with an infinite entry has no order to rely on.  Each scan then
    # reads every row: it gives the brute-force values, and an overflow
    # raises under np.errstate as the whole scan's does.
    table = np.array([[1.0, 1.0, 0.0], [2.0, 3.0, 0.0]])
    rho, lam = np.linspace(-1.0, 1.0, 40), np.linspace(0.0, 1.0, 40)
    # At rho = lambda = 10 each product of row 1 is 1e308 and their sum overflows.
    huge, big = np.array([[1.0, 0.0, 1.0], [1e306, 0.0, 1e306]]), np.full(40, 10.0)
    with mock.patch.object(pencil_mod, "SLICE_BLOCK_ENTRIES", 10):
        assert pencil_mod._dominance_parts(table, rho, lam) is None
        assert pencil_mod._dominance_parts(table, np.abs(rho), lam) is not None
        even = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 3.0]])      # A_0 and A_2
        assert pencil_mod._dominance_parts(even, rho, lam) is not None
        values = _all_values(table, rho, lam)
        assert pencil_mod.column_least(table, rho, lam)[0].tobytes() == \
            (np.abs(values).min(axis=1) + 0.0).tobytes()
        assert pencil_mod._least_re(table, rho, lam)[0].tobytes() == \
            (values.min(axis=1) + 0.0).tobytes()
        assert pencil_mod._dominance_parts(huge, big, big) is None
        for scan in (pencil_mod.column_least, pencil_mod._least_re):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                scan(huge, big, big)
        infinite = np.array([[1.0, 0.0, 1.0], [np.inf, 0.0, 2.0]])
        assert pencil_mod._dominance_parts(infinite, np.abs(rho), lam) is None


def test_distinct_rows_compare_bits():
    table = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [np.nan, 2.0],
                      [np.nan, 2.0], [-0.0, 1.0]])
    assert pencil_mod.distinct_rows(table).tobytes() == table[[0, 1, 3]].tobytes()
    # A complex entry is two words: rows that differ in an imaginary zero's
    # sign stay apart.
    table = np.array([[1.0 + 0.0j], [complex(1.0, -0.0)], [1.0 + 0.0j]])
    assert pencil_mod.distinct_rows(table).tobytes() == table[[0, 1]].tobytes()
    assert pencil_mod.distinct_rows(table[:1]).tobytes() == table[:1].tobytes()


def _scan_lengths(monkeypatch):
    """(table rows, columns) of each symbol_blocks call, as they come."""
    lengths = []
    real_blocks = pencil_mod.symbol_blocks

    def recording(table, rho, lam):
        lengths.append((len(table), len(rho)))
        return real_blocks(table, rho, lam)

    monkeypatch.setattr(pencil_mod, "symbol_blocks", recording)
    return lengths


def _undominated_count(table):
    """The number of distinct value rows of a table's nonzero parts that no
    other one is <= in every part, by comparing every pair."""
    rows = np.unique(table[:, table.any(axis=0)] + 0.0, axis=0)
    below = (rows[:, None, :] <= rows[None, :, :]).all(axis=2)
    np.fill_diagonal(below, False)
    return int((~below.any(axis=0)).sum())


@pytest.mark.parametrize("path", sorted([*PENCILS.glob("*.json"),
                                         *BENCHMARK_PENCILS.glob("*.json")]),
                         ids=lambda path: path.stem)
def test_slice_scans_visit_each_distinct_row_once(path, monkeypatch):
    # Counts, not clocks: the scans evaluate the symbol at each distinct
    # row of the table and each angle, and the witness of (iii) takes its
    # angle's full row of directions.  A scan of a real table of more than
    # SLICE_BLOCK_ENTRIES values reads only the rows that no row dominates
    # from below, for the minima, or from above, for the maxima.  Of the
    # files whose scans are that large, broken, aniso and aniso_sign have
    # two nonzero parts, where those rows are found exactly; gen_n3 has
    # three, where the scans read a superset of them and at most every
    # distinct row.  check_lemma21's scan of a real table takes the minima
    # at every angle, then the maxima at the angles whose minimum is
    # negative (at every angle when no minimum is positive), then |A| over
    # every distinct row at the angles where A has both signs;
    # remark22_checks takes the minima alone.  How
    # many rows are distinct depends on the platform's cos and sin, so the
    # counts are computed, not pinned, and the passes are found from the
    # brute-force values.
    p, grid = load_pencil(path), GridSpec()
    dirs = sphere_directions(p.n, grid.direction_count(p.n))
    table = pencil_mod.homogeneous_table(pencil_mod.compile_parts(p), dirs)
    real = table.dtype == float
    distinct = _distinct_count(table)
    below = above = distinct
    superset = False
    if real and distinct * grid.angular > pencil_mod.SLICE_BLOCK_ENTRIES:
        superset = table.any(axis=0).sum() > 2
        below, above = _undominated_count(table), _undominated_count(-table)
    lows = [(below, grid.angular)]
    passes = list(lows)
    if real:
        rho, lam, _ = pencil_mod._slice_nodes(p, grid.angular)
        values = _all_values(table, rho, lam)
        lo, hi = values.min(axis=1), values.max(axis=1)
        highs = int(((lo < 0.0) | (not (lo > 0.0).any())).sum())
        mixed = int(((lo < 0.0) & (hi > 0.0)).sum())
        if highs:
            passes.append((above, highs))
        if mixed:
            passes.append((distinct, mixed))

    def read(got, want):        # the rows of each pass, exactly or a superset
        return [c for _, c in got] == [c for _, c in want] and all(
            g == w or superset and w <= g <= distinct for (g, _), (w, _) in zip(got, want))

    lengths = _scan_lengths(monkeypatch)
    check_lemma21(p, grid)
    assert read(lengths, passes + [(len(dirs), 1)])
    lengths.clear()
    remark22_checks(p, grid)
    assert read(lengths, lows)
    if path.stem == "e1":
        assert distinct < 100 < len(dirs)
    if path.stem == "broken":
        assert below < 20 and distinct > 500
    if path.stem == "gen_n3":
        assert superset and lengths[0][0] < distinct
    if path.stem == "aniso_sign":       # pruned minima and maxima, and a rescan
        assert len(passes) == 3 and above < distinct and below < distinct


def test_pruned_scan_ends_in_a_partial_block(monkeypatch):
    # The block-size tests run ANISO_SIGN at the default grid to cover kept
    # rows that span several blocks, the last with fewer columns than the
    # others: in the minima, in the maxima of the columns with a negative
    # minimum, and in the rescan of the columns of both signs over every
    # distinct row.
    lengths = _scan_lengths(monkeypatch)
    check_lemma21(ANISO_SIGN)
    lows, highs, rescan, witness = lengths
    assert lows[1] == GridSpec().angular and witness == (720, 1)
    assert lows[0] < highs[0] < rescan[0] and highs[1] < lows[1]
    for rows, cols in (lows, highs, rescan):
        step = pencil_mod.SLICE_BLOCK_ENTRIES // rows
        assert 1 < step < cols and cols % step


@pytest.mark.parametrize("name", ["e1", "broken", "e1_n3"])
def test_prop52_scans_its_box_once_and_polishes_without_a_scan(name, monkeypatch):
    # The box scan takes the distinct rows, and the ellipticity check at the
    # end takes its own.  Besides them only the polish's choice of direction
    # scans the whole table, at one node; its rounds evaluate their one row
    # directly, with no symbol_blocks or column_least call.
    calls = []
    real_distinct = pencil_mod.distinct_rows

    def counting(table):
        calls.append(table)
        return real_distinct(table)

    monkeypatch.setattr(pencil_mod, "distinct_rows", counting)
    lengths = _scan_lengths(monkeypatch)
    monkeypatch.setattr(verify_mod, "symbol_blocks", pencil_mod.symbol_blocks)
    least = []
    real_least = pencil_mod.column_least
    monkeypatch.setattr(verify_mod, "column_least",
                        lambda *args: least.append(len(args[1])) or real_least(*args))
    p = load_pencil(BENCHMARK_PENCILS / f"{name}.json")
    sweep = sweep_multiplier_rn(p)
    grid = GridSpec(angular=90, directions=48)
    dirs = len(sphere_directions(p.n, grid.direction_count(p.n)))
    box = len(sweep.records["ratio"])
    assert len(calls) == 2 and least == [box]
    assert lengths == [(_distinct_count(calls[0]), box), (dirs, 1),
                       (_distinct_count(calls[1]), grid.angular), (dirs, 1)]
    assert sweep.extras["C"] > sweep.max_ratio       # the polish moved C


# ---------------------------------------------------------------------------
# compiled parts and the searches on them, against the term-by-term loop

_COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0, 2.0, 0.5, 1e-300]),
                    st.floats(-1e3, 1e3))


@st.composite
def _any_pencils(draw):
    """Terms of any orders in [2mu, 2m], in any order and with repeated
    multi-indices, whose coefficients include 1.0, -1.0 and zeros; complex
    ones (1 + 0i among them) in about half of the pencils."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    mu = draw(st.integers(0, m - 1))
    real = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        j = draw(st.integers(2 * mu, 2 * m))
        cuts = sorted(draw(st.lists(st.integers(0, j), min_size=n - 1,
                                    max_size=n - 1)))
        alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [j]))
        coeff = complex(draw(_COEFFS), 0.0 if real else draw(_COEFFS))
        terms.append(Term(alpha, j, coeff))
    return Pencil(n=n, m=m, mu=mu, terms=tuple(terms))


@settings(max_examples=200, deadline=None)
@given(_any_pencils(), st.data())
def test_compiled_parts_match_the_term_loop(p, data):
    # Points anywhere, zeros of either sign among their entries.
    rows = data.draw(st.integers(1, 12))
    pts = np.array(data.draw(st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                           st.floats(-2.0, 2.0)), min_size=p.n, max_size=p.n),
        min_size=rows, max_size=rows))).reshape(rows, p.n)
    parts = pencil_mod.compile_parts(p)
    ref = np.stack([_reference_part(p, j, pts) for j in range(2 * p.m + 1)], axis=1)
    table = pencil_mod.homogeneous_table(parts, pts)
    assert table.dtype == ref.dtype and table.tobytes() == ref.tobytes()
    # One part alone (the zoom's sum, from its first term) can only differ
    # in the sign of a zero, which |.| removes.
    for j in range(2 * p.m + 1):
        if parts.terms[j]:
            part = np.broadcast_to(pencil_mod.homogeneous_part(parts, j, pts), (rows,))
            assert np.all(part == ref[:, j])
            assert np.abs(part).tobytes() == np.abs(ref[:, j]).tobytes()


def _python_table(p, rows):
    """The direction table of a real pencil in Python floats, one IEEE
    rounding per operation: each power x^k = x^(k-1) x, each monomial its
    coefficient times the product of its powers in coordinate order, each
    part the sum of its terms in p.terms order, and 0.0 plus that sum."""
    table = []
    for row in rows:
        entries = [0.0] * (2 * p.m + 1)
        totals = {}
        for t in p.terms:
            mono = None
            for x, a in zip(row, t.alpha):
                if a:
                    mono = _power(x, a) if mono is None else mono * _power(x, a)
            term = t.coeff.real * (1.0 if mono is None else mono)
            totals[t.j] = term if t.j not in totals else totals[t.j] + term
        for j, total in totals.items():
            entries[j] = 0.0 + total
        table.append(entries)
    return np.array(table, dtype=float)


@settings(max_examples=200, deadline=None)
@given(_any_pencils().filter(lambda p: all(t.coeff.imag == 0 for t in p.terms)),
       st.data())
def test_direction_tables_equal_python_float_products(p, data):
    # Coordinates of both signs, zeros of both signs, and rows whose every
    # coordinate is negative or -0.0: the bases on which numpy's float64
    # pow leaves its SIMD kernel.  Products round the same in every kernel,
    # so each entry equals Python's, whatever numpy's CPU dispatch.
    rows = data.draw(st.integers(1, 40))
    pts = np.array(data.draw(st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                           st.floats(-2.0, 2.0)), min_size=p.n, max_size=p.n),
        min_size=rows, max_size=rows))).reshape(rows, p.n)
    if data.draw(st.booleans()):
        pts = -np.abs(pts)
    table = pencil_mod.homogeneous_table(pencil_mod.compile_parts(p), pts)
    assert table.dtype == float
    assert table.tobytes() == _python_table(p, pts.tolist()).tobytes()


class _NoPower(np.ndarray):
    """Directions on which ** raises; numpy's ufuncs keep the subclass, so
    the arrays computed from them (a zoom's patches) raise too."""

    def __pow__(self, other):
        raise AssertionError("** on a direction coordinate")

    __rpow__ = __ipow__ = __pow__


@pytest.mark.parametrize("name", ["e1", "e1_n4", "gen_n3", "cplx", "m3"])
def test_no_direction_coordinate_is_raised_to_a_power(name, monkeypatch):
    folder = BENCHMARK_PENCILS if name == "e1" else PENCILS
    p = load_pencil(folder / f"{name}.json")
    parts = pencil_mod.compile_parts(p)
    dirs = sphere_directions(p.n, GridSpec().direction_count(p.n))
    guarded = dirs.view(_NoPower)
    with pytest.raises(AssertionError):
        guarded[:, 0] ** 3
    table = pencil_mod.homogeneous_table(parts, guarded)
    assert _same(table, pencil_mod.homogeneous_table(parts, dirs))
    for j, terms in enumerate(parts.terms):
        if terms:
            assert _same(pencil_mod.homogeneous_part(parts, j, guarded),
                         pencil_mod.homogeneous_part(parts, j, dirs))
    seen = []
    real = pencil_mod.homogeneous_part
    monkeypatch.setattr(pencil_mod, "homogeneous_part",
                        lambda parts, j, pts: seen.append(type(pts)) or real(parts, j, pts))
    for j in (2 * p.m, 2 * p.mu):
        got = pencil_mod._sphere_min(parts, j, guarded, table)
        want = pencil_mod._sphere_min(parts, j, dirs, table)
        assert _same(got[0], want[0]) and _same(got[1], want[1])
    assert _NoPower in seen


@pytest.mark.parametrize("name", ["e1", "agmon", "e1_n3", "double", "near", "broken",
                                  "aniso", "aniso_sign", "m3", "cplx", "e1_n4"])
def test_searches_match_the_reference_zoom_and_polish(name):
    # The zoom looks ahead over the rounds that keep its centre.  Some
    # searches move it often: aniso's (i) zoom in 8 of 18 rounds, and
    # aniso_sign's polish in 19 of 21.  e1_n4's 1331-point patches exceed
    # the grid's directions, so its zooms take one round per call.
    folder = BENCHMARK_PENCILS
    if not (folder / f"{name}.json").exists():
        folder = PENCILS
    p = load_pencil(folder / f"{name}.json")
    for size in (1, 2, 90, 720):
        grid = GridSpec(angular=size, directions=size)
        dirs = sphere_directions(p.n, grid.direction_count(p.n))
        rep = check_lemma21(p, grid)
        for j, witness, least in ((2 * p.m, rep.witness_i, rep.min_a2m),
                                  (2 * p.mu, rep.witness_ii, rep.min_a2mu)):
            ref_witness, ref_least = _reference_sphere_min(p, j, dirs)
            assert _same(witness, ref_witness) and _same(least, ref_least)
    for density in (1, 2):
        sweep = sweep_multiplier_rn(p, density=density)
        _, c_val, c_point = _reference_prop52(p, density)
        assert _same(sweep.extras["C"], c_val)
        assert _same(sweep.extras["C_point"], c_point)


def _round_by_round(evaluate, centre, value, step):
    """pencil.zoom as one evaluation per round, the search it replaced; and
    the rounds that moved the centre."""
    moves, r = [], 0
    while np.max(step) > 1e-15:
        points, vals = evaluate(centre, np.array([step]))
        k = int(np.argmin(vals))
        if vals[k] < value:
            centre, value = points[k], float(vals[k])
            moves.append(r)
        step, r = step / ZOOM, r + 1
    return centre, value, moves


def _assert_zoom_matches_round_by_round(table, value):
    """zoom from the point with id 0 and `value`, for every look-ahead,
    against _round_by_round; returns the rounds that move the centre.
    Around the point with id c, round r gives its K points the ids
    1 + r K + k and the values table[c, r]."""
    rounds, size = table.shape[1:]
    first = 2e-15 * float(ZOOM) ** (rounds - 1)
    index, step = {}, first
    while step > 1e-15:
        index[step] = len(index)
        step /= ZOOM
    assert len(index) == rounds

    def evaluate(centre, steps):
        r = np.array([index[s] for s in steps])
        return (1 + r[:, None] * size + np.arange(size)).ravel(), table[centre, r].ravel()

    centre, least, moves = _round_by_round(evaluate, 0, value, first)
    for ahead in range(1, rounds + 1):
        calls = []
        got = pencil_mod.zoom(lambda c, steps: calls.append(len(steps)) or evaluate(c, steps),
                              0, value, first, ahead)
        assert _same(got[0], centre) and _same(got[1], least)
        # No more calls than rounds, at most 4 times the rounds evaluated.
        assert len(calls) <= rounds <= sum(calls) <= 4 * rounds
        assert max(calls) <= ahead
        if ahead == rounds and not moves:       # 1, 4, 16, ... rounds a call
            assert calls == [min(4 ** i, rounds - (4 ** i - 1) // 3)
                             for i in range(len(calls))]
    return moves


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 25), st.integers(1, 15), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([math.inf, 2.0, 0.0, math.nan]))
def test_zoom_matches_the_round_by_round_search(rounds, size, seed, value):
    # Small integers tie often, about one value in ten is NaN, and deeper
    # rounds reach lower values, so the centre moves often and anywhere.
    rng = np.random.default_rng(seed)
    low = -np.arange(rounds)[:, None]
    table = rng.integers(low, 3, (1 + rounds * size, rounds, size)).astype(float)
    table[rng.random(table.shape) < 0.1] = math.nan
    _assert_zoom_matches_round_by_round(table, value)


_ZOOM_CASES = {     # the start's value, the rows of every round, and the moves
    # The first of equal least values; an equal value does not move.
    "ties": (2.0, [[1.0, 1.0, 1.0]] * 4 + [[1.0, 0.5, 0.5]], [0, 4]),
    # argmin takes the first NaN, which beats nothing, whatever else is less.
    "nan": (2.0, [[math.nan, 0.0, -1.0], [1.0, math.nan, 1.0], [3.0, 1.0, 0.0]], [2]),
    "first_and_last": (1.0, [[0.0, 2.0, 2.0]] + [[1.0, 0.0, 1.0]] * 6
                       + [[2.0, 2.0, -1.0]], [0, 7]),
    "consecutive": (math.inf, [[4.0 - r, 9.0, 9.0] for r in range(5)], [0, 1, 2, 3, 4]),
}


@pytest.mark.parametrize("value, rows, moves", _ZOOM_CASES.values(), ids=_ZOOM_CASES)
def test_zoom_matches_the_round_by_round_search_on_set_cases(value, rows, moves):
    rows = np.array(rows)
    table = np.broadcast_to(rows, (1 + rows.size, *rows.shape))
    assert _assert_zoom_matches_round_by_round(table, value) == moves


def test_zoom_evaluates_the_rounds_that_keep_its_centre_together(monkeypatch):
    # check_lemma21(e1) zooms on A_4 and on A_2, 18 rounds of 11 points
    # each, which round by round took 2 x 18 calls; the table's columns
    # share one table of powers and take no call.  A call takes one round
    # after a move and 4 times the last one's otherwise.  A_4 = |xi|^4 is 1
    # on the whole sphere, so where its centre moves follows the rounding
    # of its values: in rounds 1 and 2 (_round_by_round), and A_2's never.
    calls = []
    real = pencil_mod.homogeneous_part
    monkeypatch.setattr(pencil_mod, "homogeneous_part",
                        lambda parts, j, pts: calls.append((j, len(pts))) or real(parts, j, pts))
    check_lemma21(load_pencil(BENCHMARK_PENCILS / "e1.json"))
    rounds = [(j, size // 11) for j, size in calls]
    assert rounds == [(4, 1), (4, 4), (4, 1), (4, 1), (4, 4), (4, 10),
                      (2, 1), (2, 4), (2, 13)]
    assert len(calls) < 2 * 18


def test_polish_evaluates_the_rounds_that_keep_its_point_together(monkeypatch):
    # sweep_multiplier_rn(e1) weighs its box scan's 88 columns, then the
    # peak column's directions at one node, then the polish's 21 rounds of
    # 121 nodes, which round by round took 21 calls.  The point moves in
    # round 0 only, and the calls after it take 4 times the last one's
    # rounds.
    calls = []
    real = verify_mod.energy_weight_value
    monkeypatch.setattr(verify_mod, "energy_weight_value",
                        lambda p, xa, lam: calls.append(np.size(xa)) or real(p, xa, lam))
    sweep_multiplier_rn(load_pencil(BENCHMARK_PENCILS / "e1.json"))
    assert calls[:2] == [88, 1]
    assert [size // 121 for size in calls[2:]] == [1, 1, 4, 15]
    assert len(calls) < 2 + 21
