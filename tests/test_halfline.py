"""Tests for the exponential-polynomial half-line solutions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilab import halfline
from pencilab.catalog import agmon_pencil, e1_pencil
from pencilab.errors import EllipticityError
from pencilab.halfline import (boundary_defect, contour_eval, eval_deriv,
                               l2_norm_deriv, mj, ode_residual, solve,
                               solve_from_roots, split_by_group, vieta)
from pencilab.pencil import (Pencil, Term, group_roots, tau_polynomial,
                             tau_roots)

A1, B1 = 1.0, math.sqrt(101.0)     # E1 upper roots i*a, i*b at xi'=1, lam=10


def test_vieta_examples():
    assert np.allclose(vieta([1j, 10j]), [1.0, -11j, -10.0])
    assert np.allclose(vieta([1j]), [1.0, -1j])
    assert np.allclose(vieta([1j, 1j]), [1.0, -2j, -1.0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6))
def test_vieta_reconstruction(roots):
    a = vieta(roots)
    # evaluate the product directly at a test point and compare
    z = 0.37 + 0.41j
    direct = np.prod([z - r for r in roots])
    assert np.polyval(a, z) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_mj_examples():
    a = np.array([1.0, -11j, -10.0])
    assert np.allclose(mj(a, 2), [1.0])
    assert np.allclose(mj(a, 1), [1.0, -11j])
    with pytest.raises(ValueError):
        mj(a, 3)


def test_solve_e1_closed_form():
    sols = solve(e1_pencil(), np.array([1.0]), 10.0)
    a, b = A1, B1
    for t in (0.0, 0.3, 1.0, 2.5):
        w1 = (b * math.exp(-a * t) - a * math.exp(-b * t)) / (b - a)
        w2 = 1j * (math.exp(-a * t) - math.exp(-b * t)) / (b - a)
        assert eval_deriv(sols[0], 0, t) == pytest.approx(w1, abs=1e-10)
        assert eval_deriv(sols[1], 0, t) == pytest.approx(w2, abs=1e-10)


def test_solve_m1_single_exponential():
    sols = solve(agmon_pencil(), np.array([0.0]), 2.0)
    (sol,) = sols
    assert len(sol.terms) == 1
    assert sol.terms[0].tau == pytest.approx(2j, abs=1e-10)
    assert np.allclose(sol.terms[0].poly, [1.0])


def test_solve_confluent_double_root():
    # E1 at lambda=0 has the double upper root i|xi'|; w_1 = (1+t)e^{-t}
    sols = solve(e1_pencil(), np.array([1.0]), 0.0)
    for t in (0.0, 0.5, 2.0):
        assert eval_deriv(sols[0], 0, t) == pytest.approx(
            (1.0 + t) * math.exp(-t), abs=1e-6)


def test_boundary_conditions_and_ode_residual():
    p = e1_pencil()
    coeffs = tau_polynomial(p, np.array([1.0]), 10.0)
    for sol in solve(p, np.array([1.0]), 10.0):
        assert boundary_defect(sol) < 1e-10
        assert ode_residual(sol, coeffs) < 1e-10


def test_eval_deriv_boundary_values():
    sols = solve(e1_pencil(), np.array([1.0]), 10.0)
    assert eval_deriv(sols[0], 0, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert eval_deriv(sols[1], 1, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert eval_deriv(sols[0], 1, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_l2_norm_closed_forms():
    sols = solve(e1_pencil(), np.array([1.0]), 10.0)
    a, b = A1, B1
    ref = math.sqrt((1 / (2 * a) - 2 / (a + b) + 1 / (2 * b)) / (b - a) ** 2)
    assert l2_norm_deriv(sols[1], 0) == pytest.approx(ref, rel=1e-12)
    assert l2_norm_deriv(sols[1], 0) == pytest.approx(0.0671, abs=5e-4)
    assert l2_norm_deriv(sols[1], 2) == pytest.approx(2.445, abs=5e-3)


def test_l2_norm_m1():
    lam = 7.0
    sols = solve_from_roots([1j * lam])
    assert l2_norm_deriv(sols[0], 0) == pytest.approx(1 / math.sqrt(2 * lam),
                                                      rel=1e-12)


def test_contour_oracle_agreement():
    sols = solve(e1_pencil(), np.array([1.0]), 10.0)
    for sol in sols:
        for l in (0, 1, 2):
            for t in (0.0, 0.5, 2.0):
                assert contour_eval(sol, l, t) == pytest.approx(
                    eval_deriv(sol, l, t), abs=1e-8)


def test_biorthogonality_via_contour():
    # (1/2 pi i) contour integral of tau^(k-1) M_j / A_+ equals delta_jk
    sols = solve(e1_pencil(), np.array([0.3]), 4.0)
    for sol in sols:
        for k in (1, 2):
            val = contour_eval(sol, k - 1, 0.0)
            assert val == pytest.approx(1.0 if k == sol.j else 0.0, abs=1e-10)


def test_split_by_group_e1():
    p = e1_pencil()
    sols = solve(p, np.array([1.0]), 10.0)
    g = group_roots(p, np.array([1.0]), 10.0)
    w1, w2 = split_by_group(sols[0], g)
    assert len(w1.terms) == 1 and len(w2.terms) == 1
    assert w1.terms[0].tau.imag == pytest.approx(A1, abs=1e-9)
    assert w2.terms[0].tau.imag == pytest.approx(B1, abs=1e-9)
    for t in (0.0, 0.1, 1.0):
        total = eval_deriv(w1, 0, t) + eval_deriv(w2, 0, t)
        assert total == pytest.approx(eval_deriv(sols[0], 0, t), abs=1e-12)


def test_split_mu_zero_empty_bounded_part():
    p = agmon_pencil()
    sols = solve(p, np.array([1.0]), 2.0)
    g = group_roots(p, np.array([1.0]), 2.0)
    w1, w2 = split_by_group(sols[0], g)
    assert w1.terms == ()
    assert len(w2.terms) == 1


def test_homogeneity_identity():
    p = e1_pencil()
    for (j, l, r) in [(1, 0, 2.0), (2, 2, 5.0), (1, 1, 0.5)]:
        lhs, rhs = halfline.homogeneity_check(p, np.array([1.0]), 10.0, r, j, l)
        assert lhs == pytest.approx(rhs, rel=1e-9)
    lhs, rhs = halfline.homogeneity_check(p, np.array([1.0]), 10.0, 1.0, 1, 0)
    assert lhs == rhs


def test_json_dump_shape():
    sols = solve(agmon_pencil(), np.array([0.0]), 2.0)
    d = sols[0].to_json_dict()
    assert d["terms"][0]["tau"] == pytest.approx([0.0, 2.0], abs=1e-12)
    assert d["terms"][0]["poly"] == [[pytest.approx(1.0), pytest.approx(0.0)]]


def _random_upper_roots(rng, m):
    return rng.uniform(-2, 2, m) + 1j * rng.uniform(0.2, 3.0, m)


def test_random_instances_residue_vs_contour():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = int(rng.integers(1, 6))
        roots = _random_upper_roots(rng, m)
        # occasionally force a multiple root
        if m >= 2 and rng.random() < 0.3:
            roots[1] = roots[0]
        full = _full_polynomial(roots)
        sols = solve_from_roots(roots)
        for sol in sols:
            assert boundary_defect(sol) < 1e-8
            assert ode_residual(sol, full) < 1e-8
            for t in (0.0, 0.5, 2.0):
                assert abs(contour_eval(sol, 0, t)
                           - eval_deriv(sol, 0, t)) < 1e-8


def _full_polynomial(upper):
    """Ascending coefficients of prod (tau - r)(tau - conj r) over `upper`."""
    full = np.array([1.0 + 0j])
    for r in list(upper) + [np.conj(r) for r in upper]:
        full = np.convolve(full, [-r, 1.0])
    return full


@pytest.mark.parametrize("roots, five_fold", [
    ([0.3 + 1j], False),
    ([1j, 0.5 + 2j], False),
    ([1j, 1j, 2j], False),                          # cluster of 2
    ([1j, 1j, 1j, 0.5 + 2j], False),                # cluster of 3
    ([1j] * 4 + [-0.4 + 2j], False),                # cluster of 4
    ([1j] * 5, True),                               # clusters of 5 take
    ([0.2 + 1j] * 5 + [2j], True),                  # residues as well
])
def test_boundary_defect_matches_eval_deriv(roots, five_fold):
    for sol in solve_from_roots(roots):
        # A five-fold root is one term with a degree-4 polynomial.
        assert (max(len(t.poly) for t in sol.terms) == 5) is five_fold
        by_definition = max(abs(eval_deriv(sol, k, 0.0) - (k + 1 == sol.j))
                            for k in range(len(roots)))
        assert abs(boundary_defect(sol) - by_definition) <= 1e-12


@pytest.mark.parametrize("roots", [[1j, 1j], [1j, 1j, 2j], [1j] * 4])
def test_solve_from_roots_exact_multiple_roots(roots):
    full = _full_polynomial(roots)
    sols = solve_from_roots(roots)
    assert [len(s.terms) for s in sols] == [len(set(roots))] * len(roots)
    for sol in sols:
        assert boundary_defect(sol) <= 1e-12
        assert ode_residual(sol, full) <= 1e-12


def test_solve_from_roots_merges_split_double_root():
    # A double root split by 4e-8, as a double-precision eigensolve leaves
    # it: the merged residues meet the boundary data and the Gramian norms.
    roots = [0.3 + 2j, 0.3 + 2j + 3e-8 * (1 + 1j), 3j]
    sols = solve_from_roots(roots)
    assert [len(s.terms) for s in sols] == [2, 2, 2]
    ref = halfline.gramian_norms([roots], [1, 2, 3], [0, 1, 2, 3])[0]
    for sol in sols:
        assert boundary_defect(sol) <= 1e-12
        for l in range(4):
            assert l2_norm_deriv(sol, l) == pytest.approx(ref[sol.j - 1, l],
                                                          rel=1e-10)


@pytest.mark.parametrize("gap", [0.0] + [10.0 ** k for k in range(-9, -1)])
def test_residue_norms_across_root_gaps(gap):
    # Two roots a relative gap apart, merged or not, and a third one at a
    # ratio of their modulus: the residue norms follow the Gramian's, and
    # D^(k-1) w_j(0), of scale |tau|^(k-j), meets delta_jk.
    for base in (1j, 0.3 + 2j, 50j):
        for ratio in (0.05, 3.0, 30.0):
            roots = [base, base * (1 + gap * (1 + 0.5j)), ratio * base]
            scale = max(abs(r) for r in roots)
            ref = halfline.gramian_norms([roots], [1, 2, 3], [0, 1, 2, 3])[0]
            for sol in solve_from_roots(roots):
                assert boundary_defect(sol) <= 1e-11 * scale ** (3 - sol.j)
                for l in range(4):
                    assert l2_norm_deriv(sol, l) == pytest.approx(
                        ref[sol.j - 1, l], rel=1e-6)


# ---------------------------------------------------------------------------
# mesh_norms: gramian_norms node by node, and the residue path as an oracle

def _node_loop(p, xi_abs, lam, j_list, l_list):
    """gramian_norms one node at a time (N = 1), on tau_roots' upper roots."""
    out = np.empty((len(xi_abs), len(lam), len(j_list), len(l_list)))
    xi_prime = np.zeros(p.n - 1)
    for a, xa in enumerate(xi_abs):
        xi_prime[0] = xa
        for b, y in enumerate(lam):
            upper = tau_roots(p, xi_prime, y).upper
            out[a, b] = halfline.gramian_norms([upper], j_list, l_list)[0]
    return out


def _residue_tolerance(upper) -> float:
    """Relative distance allowed between the Gramian and the residue norms.

    The residue Gram sum cancels terms of order 1/g^2, g the smallest root
    gap relative to max |tau|; the Lyapunov solve loses at most the modulus
    spread max |tau| / min |tau|.
    """
    u = np.asarray(upper)
    mod = np.abs(u)
    gaps = np.abs(u[:, None] - u[None, :])[~np.eye(len(u), dtype=bool)]
    g = gaps.min() / mod.max() if len(u) > 1 else 1.0
    return 32 * np.finfo(float).eps * (mod.max() / mod.min() + g ** -2)


def _assert_mesh_matches_loop(p, xi_abs, lam, j_list, l_list):
    """The node loop's bits, or its error at the same node.  Where solve
    merges no roots, the residue norms agree within _residue_tolerance."""
    try:
        expected = _node_loop(p, xi_abs, lam, j_list, l_list)
    except EllipticityError as exc:
        with pytest.raises(EllipticityError, match=f"^{re.escape(str(exc))}$"):
            halfline.mesh_norms(p, xi_abs, lam, j_list, l_list)
        return None
    got = halfline.mesh_norms(p, xi_abs, lam, j_list, l_list)
    assert got.values.tobytes() == expected.tobytes()
    xi_prime = np.zeros(p.n - 1)
    for a, xa in enumerate(xi_abs):
        xi_prime[0] = xa
        for b, y in enumerate(lam):
            sols = solve(p, xi_prime, y)
            if any(len(s.terms) < len(s.roots) for s in sols):
                continue
            tol = _residue_tolerance(sols[0].roots)
            for ji, j in enumerate(j_list):
                for li, l in enumerate(l_list):
                    norm = got.values[a, b, ji, li]
                    assert abs(l2_norm_deriv(sols[j - 1], l) - norm) <= tol * norm
    return got


@st.composite
def _half_line_pencils(draw):
    """Dominant sum_i c_i xi_i^2m + lambda^(2m-2mu) sum_i d_i xi_i^2mu in
    n = 2, 3 variables, plus small complex terms of odd orders."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 3))
    mu = draw(st.integers(0, m - 1))
    terms = [Term(tuple(j if k == i else 0 for k in range(n)), j,
                  draw(st.floats(0.5, 2.0)))
             for i in range(n) for j in (2 * m, 2 * mu)]
    for j in draw(st.lists(st.sampled_from(range(2 * mu + 1, 2 * m, 2)),
                           max_size=3)):
        cuts = sorted(draw(st.lists(st.integers(0, j), min_size=n - 1,
                                    max_size=n - 1)))
        alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [j]))
        coeff = complex(draw(st.floats(-0.01, 0.01)), draw(st.floats(-0.01, 0.01)))
        terms.append(Term(alpha, j, coeff))
    return Pencil(n=n, m=m, mu=mu, terms=tuple(terms))


_grid = st.lists(st.floats(1e-2, 1e3), min_size=1, max_size=4).map(np.array)


@settings(max_examples=40, deadline=None)
@given(_half_line_pencils(), _grid, _grid, st.data())
def test_mesh_norms_match_solve_loop(p, xi_abs, lam, data):
    j_list = data.draw(st.lists(st.integers(1, p.m), min_size=1, unique=True))
    l_list = data.draw(st.lists(st.integers(0, p.m + 1), min_size=1, unique=True))
    _assert_mesh_matches_loop(p, xi_abs, lam, j_list, l_list)


def test_mesh_norms_match_solve_loop_order_three():
    # m = 3 with complex odd terms: roots off the imaginary axis, which the
    # random draws above rarely reach.
    p = Pencil(n=3, m=3, mu=0, terms=(
        Term((6, 0, 0), 6, 1.0), Term((0, 6, 0), 6, 1.0), Term((0, 0, 6), 6, 1.0),
        Term((0, 0, 0), 0, 1.0), Term((1, 1, 1), 3, 0.01 + 0.005j),
        Term((2, 3, 0), 5, -0.004 + 0.008j)))
    _assert_mesh_matches_loop(p, np.geomspace(0.1, 10.0, 7),
                              np.geomspace(1.0, 100.0, 6), [1, 2, 3], [0, 1, 2, 3])


def _confluent(c):
    """(|xi|^2 + lambda^2)(|xi|^2 + c lambda^2) in n = 2: a double root
    at c = 1, a close pair near it."""
    return Pencil(n=2, m=2, mu=0, terms=(
        Term((4, 0), 4, 1.0), Term((2, 2), 4, 2.0), Term((0, 4), 4, 1.0),
        Term((2, 0), 2, 1.0 + c), Term((0, 2), 2, 1.0 + c), Term((0, 0), 0, c)))


@pytest.mark.parametrize("c", [1.0, 1.0 + 1e-6])
def test_mesh_norms_confluent_closed_forms(c):
    # Upper roots i*alpha, i*beta with alpha^2 = |xi'|^2 + lambda^2 and
    # beta^2 = |xi'|^2 + c lambda^2, so w_1 = (beta e^{-alpha t} - alpha
    # e^{-beta t}) / (beta - alpha) and w_2 = i (e^{-alpha t} - e^{-beta t})
    # / (beta - alpha).  At c = 1, with kappa = alpha = beta:
    # ||w_1||^2 = 5/(4 kappa), ||D w_1||^2 = kappa/4, ||w_2||^2 =
    # 1/(4 kappa^3), ||D w_2||^2 = 1/(4 kappa).  The roots of a pair closer
    # than NEWTON_GAP keep the mean the eigensolve gives them, so the norms
    # hold to rounding.
    p = _confluent(c)
    xi_abs, lam = np.geomspace(1e-2, 1e2, 7), np.geomspace(1.0, 1e3, 6)
    got = halfline.mesh_norms(p, xi_abs, lam, [1, 2], [0, 1]).values
    x, y = np.meshgrid(xi_abs, lam, indexing="ij")
    alpha, beta = np.sqrt(x ** 2 + y ** 2), np.sqrt(x ** 2 + c * y ** 2)
    s, q = alpha + beta, alpha * beta
    squares = [[(alpha ** 2 + 3 * q + beta ** 2) / (2 * q * s), q / (2 * s)],
               [1 / (2 * q * s), 1 / (2 * s)]]
    expected = np.sqrt(np.moveaxis(np.array(squares), (0, 1), (2, 3)))
    assert np.allclose(got, expected, rtol=1e-13, atol=0.0)
    if c == 1.0:
        kappa = alpha
        squares = [[5 / (4 * kappa), kappa / 4], [1 / (4 * kappa ** 3), 1 / (4 * kappa)]]
        assert np.allclose(got, np.sqrt(np.moveaxis(np.array(squares), (0, 1), (2, 3))),
                           rtol=1e-13, atol=0.0)


def test_gramian_norms_closed_forms_m1_and_scaling():
    # m = 1: w = e^{i tau t}, ||D^l w||^2 = |tau|^(2l) / (2 Im tau).
    tau = np.array([[3.0 + 4.0j], [1e-3j], [-2e4 + 1e3j]])
    got = halfline.gramian_norms(tau, [1], [0, 1, 2])[:, 0, :]
    expected = np.sqrt(np.abs(tau) ** (2 * np.arange(3)) / (2 * tau.imag))
    assert np.allclose(got, expected, rtol=1e-14, atol=0.0)
    # ||D^l w_j|| scales as r^(l - j + 1/2) when every root scales by r.
    upper = np.array([[0.3 + 1.0j, -0.2 + 2.5j, 4.0j]])
    one = halfline.gramian_norms(upper, [1, 2, 3], [0, 2, 4])
    for r in (1e-3, 7.0, 1e4):
        scaled = halfline.gramian_norms(r * upper, [1, 2, 3], [0, 2, 4])
        power = (np.array([0, 2, 4])[None, :] - np.array([1, 2, 3])[:, None] + 0.5)
        assert np.allclose(scaled, one * r ** power, rtol=1e-12, atol=0.0)


def test_mesh_norms_real_axis_error_at_first_node():
    # xi'^2 + tau^2 - lambda^2 has real roots where lambda > |xi'|: the
    # second and third nodes in (|xi'|, lambda) order.
    p = Pencil(n=2, m=1, mu=0, terms=(Term((2, 0), 2, 1.0), Term((0, 2), 2, 1.0),
                                      Term((0, 0), 0, -1.0)))
    xi_abs, lam = np.array([2.0, 0.5]), np.array([1.0, 3.0])
    _assert_mesh_matches_loop(p, xi_abs, lam, [1], [0, 1])
    with pytest.raises(EllipticityError, match=r"xi'=\[2\.\], lambda=3\.0$"):
        halfline.mesh_norms(p, xi_abs, lam, [1], [0, 1])
