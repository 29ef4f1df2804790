"""Tests for the exponential-polynomial half-line solutions."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencilab import halfline, verify
from pencilab.catalog import agmon_pencil, e1_pencil
from pencilab.errors import EllipticityError
from pencilab.halfline import (boundary_defect, eval_deriv, l2_norm_deriv,
                               mj, solve, solve_from_roots, split_by_group,
                               vieta)
from pencilab.pencil import (Pencil, Term, eval_symbol, group_roots, load_pencil,
                             mesh_group_roots, tau_polynomial, tau_roots)
from reference import BENCHMARK_PENCILS, contour_eval, ode_residual

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
    ref = halfline.gramian_norms([roots], np.eye(3), [0, 1, 2, 3])[0]
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
            ref = halfline.gramian_norms([roots], np.eye(3), [0, 1, 2, 3])[0]
            for sol in solve_from_roots(roots):
                assert boundary_defect(sol) <= 1e-11 * scale ** (3 - sol.j)
                for l in range(4):
                    assert l2_norm_deriv(sol, l) == pytest.approx(
                        ref[sol.j - 1, l], rel=1e-6)


# ---------------------------------------------------------------------------
# mesh_norms: gramian_norms node by node, and the residue path as an oracle

def _node_loop(p, xi_prime, lam):
    """gramian_norms one node at a time (N = 1), on tau_roots' upper roots."""
    return np.array([halfline.gramian_norms([tau_roots(p, x, y).upper],
                                            np.eye(p.m), list(range(p.m + 1)))[0]
                     for x, y in zip(xi_prime, lam)])


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


def _assert_mesh_matches_loop(p, xi_prime, lam):
    """The node loop's bits, or its error at the same node.  Where solve
    merges no roots, the residue norms agree within _residue_tolerance."""
    try:
        expected = _node_loop(p, xi_prime, lam)
    except EllipticityError as exc:
        with pytest.raises(EllipticityError, match=f"^{re.escape(str(exc))}$"):
            halfline.mesh_norms(p, xi_prime, lam)
        return None
    got = halfline.mesh_norms(p, xi_prime, lam)
    assert got.values.tobytes() == expected.tobytes()
    for k, (x, y) in enumerate(zip(xi_prime, lam)):
        sols = solve(p, x, y)
        if any(len(s.terms) < len(s.roots) for s in sols):
            continue
        tol = _residue_tolerance(sols[0].roots)
        for j in range(1, p.m + 1):
            for l in range(p.m + 1):
                norm = got.values[k, j - 1, l]
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


# Nodes (|xi'|, angle of xi', lambda); xi' is |xi'| (cos, sin)[:n-1].
_nodes = st.lists(st.tuples(st.floats(1e-2, 1e3), st.floats(0.0, 2 * math.pi),
                            st.floats(1e-2, 1e3)), min_size=1, max_size=12)


def _node_arrays(p, nodes):
    """xi' of shape (N, n-1) and lambda of shape (N,) for _nodes' draws."""
    xi_prime = [r * np.array([math.cos(a), math.sin(a)])[:p.n - 1]
                for r, a, _ in nodes]
    return np.array(xi_prime), np.array([y for _, _, y in nodes])


@settings(max_examples=40, deadline=None)
@given(_half_line_pencils().filter(lambda p: p.mu > 0), st.floats(1e-2, 1e2),
       st.floats(0.0, 2 * math.pi), st.floats(1e-2, 1e3))
# xi_1^4 + xi_1^2 lambda^2 + xi_2^4 + xi_2^2 lambda^2 at |xi'| / lambda =
# 9.99e-7, which the real-axis test refuses (ROADMAP D11).
@example(Pencil(n=2, m=2, mu=1, terms=(
    Term((4, 0), 4, 1.0), Term((2, 0), 2, 1.0), Term((0, 4), 4, 1.0),
    Term((0, 2), 2, 1.0))), 0.0625, 4.71875, 398.0)
def test_bounded_targets_are_zeros_of_a2mu(p, radius, angle, lam):
    # group_roots builds A_2mu(xi', .) with tau_polynomial's term loop.  Here
    # eval_symbol gives A_2mu at 2mu + 1 real tau, and Lagrange interpolation,
    # exact for degree 2mu, carries it to each complex target.
    xi_prime = radius * np.array([math.cos(angle), math.sin(angle)])[:p.n - 1]
    a2mu = Pencil(p.n, p.m, p.mu, tuple(t for t in p.terms if t.j == 2 * p.mu))
    try:
        targets = group_roots(p, xi_prime, lam).bounded_targets
    except EllipticityError as exc:
        if "root on the real axis" not in str(exc):
            raise
        # D11 refuses accurate roots where the bounded ones are small against
        # the large ones; the refusal is this test's business only there.
        assert np.linalg.norm(xi_prime) / lam < 1e-5, f"not D11: {exc}"
        return
    assert len(targets) == p.mu
    nodes = max(abs(tau) for tau in targets) * np.linspace(-1.0, 1.0, 2 * p.mu + 1)
    values = [eval_symbol(a2mu, np.append(xi_prime, t), 1.0) for t in nodes]
    for tau in targets:
        value = sum(v * math.prod((tau - s) / (t - s) for s in nodes if s != t)
                    for t, v in zip(nodes, values))
        scale = p.coeff_scale * (radius ** 2 + abs(tau) ** 2) ** p.mu
        assert abs(value) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(_half_line_pencils(), _nodes)
def test_mesh_norms_match_solve_loop(p, nodes):
    _assert_mesh_matches_loop(p, *_node_arrays(p, nodes))


def test_mesh_norms_match_solve_loop_order_three():
    # m = 3 with complex odd terms: roots off the imaginary axis, which the
    # random draws above rarely reach.
    p = Pencil(n=3, m=3, mu=0, terms=(
        Term((6, 0, 0), 6, 1.0), Term((0, 6, 0), 6, 1.0), Term((0, 0, 6), 6, 1.0),
        Term((0, 0, 0), 0, 1.0), Term((1, 1, 1), 3, 0.01 + 0.005j),
        Term((2, 3, 0), 5, -0.004 + 0.008j)))
    # 7 x 6 (|xi'|, lambda) pairs, each with its own direction of xi'.
    xa, lam = (g.ravel() for g in np.meshgrid(np.geomspace(0.1, 10.0, 7),
                                              np.geomspace(1.0, 100.0, 6),
                                              indexing="ij"))
    angle = 0.7 * np.arange(len(xa))
    xi_prime = xa[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    _assert_mesh_matches_loop(p, xi_prime, lam)


def _confluent(c):
    """(|xi|^2 + lambda^2)(|xi|^2 + c lambda^2) in n = 2: a double root
    at c = 1, a close pair near it, e1 at c = 0."""
    return Pencil(n=2, m=2, mu=0, terms=(
        Term((4, 0), 4, 1.0), Term((2, 2), 4, 2.0), Term((0, 4), 4, 1.0),
        Term((2, 0), 2, 1.0 + c), Term((0, 2), 2, 1.0 + c), Term((0, 0), 0, c)))


@pytest.mark.parametrize("c", [0.0, 1.0, 1.0 + 1e-6])
def test_mesh_norms_confluent_closed_forms(c):
    # Upper roots i*alpha, i*beta with alpha^2 = |xi'|^2 + lambda^2 and
    # beta^2 = |xi'|^2 + c lambda^2, so w_1 = (beta e^{-alpha t} - alpha
    # e^{-beta t}) / (beta - alpha) and w_2 = i (e^{-alpha t} - e^{-beta t})
    # / (beta - alpha).  At c = 1, with kappa = alpha = beta:
    # ||w_1||^2 = 5/(4 kappa), ||D w_1||^2 = kappa/4, ||w_2||^2 =
    # 1/(4 kappa^3), ||D w_2||^2 = 1/(4 kappa).  The eigensolve keeps the
    # mean of a close or double pair, so the norms hold to rounding; c = 0
    # is e1, whose roots are far apart.
    # The 7 x 6 (|xi'|, lambda) pairs, on xi' = +|xi'| and -|xi'| in turn.
    p = _confluent(c)
    x, y = (g.ravel() for g in np.meshgrid(np.geomspace(1e-2, 1e2, 7),
                                           np.geomspace(1.0, 1e3, 6), indexing="ij"))
    sign = (-1.0) ** np.arange(len(x))
    got = halfline.mesh_norms(p, (sign * x)[:, None], y).values[:, :, :2]
    alpha, beta = np.sqrt(x ** 2 + y ** 2), np.sqrt(x ** 2 + c * y ** 2)
    s, q = alpha + beta, alpha * beta
    squares = [[(alpha ** 2 + 3 * q + beta ** 2) / (2 * q * s), q / (2 * s)],
               [1 / (2 * q * s), 1 / (2 * s)]]
    expected = np.sqrt(np.moveaxis(np.array(squares), (0, 1), (1, 2)))
    assert np.allclose(got, expected, rtol=1e-13, atol=0.0)
    if c == 1.0:
        kappa = alpha
        squares = [[5 / (4 * kappa), kappa / 4], [1 / (4 * kappa ** 3), 1 / (4 * kappa)]]
        assert np.allclose(got, np.sqrt(np.moveaxis(np.array(squares), (0, 1), (1, 2))),
                           rtol=1e-13, atol=0.0)


def test_gramian_norms_closed_forms_m1_and_scaling():
    # m = 1: w = e^{i tau t}, ||D^l w||^2 = |tau|^(2l) / (2 Im tau).
    tau = np.array([[3.0 + 4.0j], [1e-3j], [-2e4 + 1e3j]])
    got = halfline.gramian_norms(tau, np.eye(1), [0, 1, 2])[:, 0, :]
    expected = np.sqrt(np.abs(tau) ** (2 * np.arange(3)) / (2 * tau.imag))
    assert np.allclose(got, expected, rtol=1e-14, atol=0.0)
    # ||D^l w_j|| scales as r^(l - j + 1/2) when every root scales by r.
    upper = np.array([[0.3 + 1.0j, -0.2 + 2.5j, 4.0j]])
    one = halfline.gramian_norms(upper, np.eye(3), [0, 2, 4])
    for r in (1e-3, 7.0, 1e4):
        scaled = halfline.gramian_norms(r * upper, np.eye(3), [0, 2, 4])
        power = (np.array([0, 2, 4])[None, :] - np.array([1, 2, 3])[:, None] + 0.5)
        assert np.allclose(scaled, one * r ** power, rtol=1e-12, atol=0.0)
    # At r = 1e100 the scaled D^2 w_3(0) is 2^-666 and ||w_3||^2 about
    # 1e-503: neither square may underflow on the way.
    one = halfline.gramian_norms(upper, np.eye(3), [0, 1])
    scaled = halfline.gramian_norms(1e100 * upper, np.eye(3), [0, 1])
    power = np.array([0, 1])[None, :] - np.array([1, 2, 3])[:, None] + 0.5
    assert np.allclose(scaled, one * 1e100 ** power, rtol=1e-12, atol=0.0)
    # Norms are linear in the initial vector.
    got = halfline.gramian_norms(tau, [[2.0 - 1.0j]], [0, 1, 2])[:, 0, :]
    assert np.allclose(got, math.sqrt(5.0) * expected, rtol=1e-14, atol=0.0)


_modulus = st.floats(-1.0, 1.0).map(lambda e: 2.0 ** e)
# Generic upper roots, and purely imaginary ones (agmon's), whose companion
# entries hold signed zeros.
_upper_root = st.one_of(
    st.builds(lambda r, a: cmath.rect(r, a), _modulus, st.floats(0.05, 3.09)),
    _modulus.map(lambda r: 1j * r))


@st.composite
def _upper_root_stacks(draw):
    """1-3 rows of m = 1..4 upper roots of moduli 1/2..2, repeated roots among
    them, all scaled by 2^-60, 1 or 2^60 (exactly)."""
    m, scale = draw(st.integers(1, 4)), draw(st.sampled_from([2.0 ** -60, 1.0, 2.0 ** 60]))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = []
        while len(row) < m:
            row += [scale * draw(_upper_root)] * min(draw(st.integers(1, 3)), m - len(row))
        rows.append(row)
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(_upper_root_stacks())
@example(np.array([[2.0 ** 60 * 1j] * 4, [1j, 2j, 1j, 2j]]))
def test_gramian_companion_has_each_root_as_eigenvalue(roots):
    # The Gramians' companion matrix is pencil.companion's of A_+, reversed:
    # C v(tau) = tau v(tau) with v(tau) = (1, tau, ..., tau^(m-1)) at each
    # root, which is what makes C map (w, ..., D^(m-1) w) to (Dw, ..., D^m w).
    comp = halfline._root_companion(roots)
    assert comp.flags.c_contiguous and comp.shape == roots.shape + roots.shape[1:]
    for c, row in zip(comp, roots):
        for tau in row:
            v = tau ** np.arange(len(row))
            assert np.linalg.norm(c @ v - tau * v) <= 1e-12 * np.linalg.norm(tau * v)


# ---------------------------------------------------------------------------
# split_norms: the Gramian of each root group against the explicit split


def _asymptotics_groupings(p, density):
    """The asymptotics sweep's groupings: xi' the first scan direction and
    lambda the scan's s-values in [1, 1e3]."""
    s = verify.scan_s(density)
    lam = s[(s >= 1.0) & (s <= 1e3)]
    return lam, mesh_group_roots(p, verify.scan_directions(p.n)[0], lam)


def _split_norms_both_ways(p, groupings):
    """(split_norms, explicit-form norms) of each group's part, by (part,
    node, j, l), the parts in the order bounded, large."""
    upper = np.array([g.upper_roots for g in groupings])
    l_list = list(range(p.m + 1))
    got, want = [], []
    for part, key in enumerate(("group_bounded", "group_large")):
        group = np.array([getattr(g, key) for g in groupings], dtype=int)
        got.append(halfline.split_norms(upper, group))
        want.append([[[l2_norm_deriv(split_by_group(sol, g)[part], l) for l in l_list]
                      for sol in solve_from_roots(g.upper_roots)] for g in groupings])
    return np.array(got), np.array(want)


@pytest.mark.parametrize("density", [1, 2, 4])
@pytest.mark.parametrize("name", ["e1", "agmon", "e1_n3", "double", "near"])
def test_split_norms_match_the_explicit_split_parts(name, density):
    # Measured: 3.1e-16 relative on e1, e1_n3 and agmon, 9.5e-16 on double,
    # 6.3e-14 on near, where the explicit form merges a pair split by 5e-7.
    p = load_pencil(BENCHMARK_PENCILS / f"{name}.json")
    _, groupings = _asymptotics_groupings(p, density)
    got, want = _split_norms_both_ways(p, groupings)
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    if p.mu == 0:
        assert not got[0].any()


@pytest.mark.parametrize("density", [1, 2, 4])
def test_split_norms_at_a_double_large_root(density):
    # A = |xi|^2 (|xi|^2 + lambda^2)^2 (n = 2, m = 3, mu = 1, k1 = 2): at
    # xi' = 1 the upper roots are i and the double root b = i sqrt(1 + lambda^2).
    # With g = M_j / (tau - i), the parts are the residues
    # M_j(i) / (i - b)^2 e^{-t} and (g'(b) + i t g(b)) e^{i b t}.
    p = Pencil(n=2, m=3, mu=1, terms=(
        Term((6, 0), 6, 1.0), Term((4, 2), 6, 3.0), Term((2, 4), 6, 3.0),
        Term((0, 6), 6, 1.0), Term((4, 0), 4, 2.0), Term((2, 2), 4, 4.0),
        Term((0, 4), 4, 2.0), Term((2, 0), 2, 1.0), Term((0, 2), 2, 1.0)))
    lam, groupings = _asymptotics_groupings(p, density)
    got, want = _split_norms_both_ways(p, groupings)
    # The explicit form merges the computed double root, split by about
    # 1e-8, at its mean.  At the density-1 nodes, against 50-digit residues
    # at the exact roots, it errs by up to 1.2e-13 (at lambda = 316) and the
    # Gramian by up to 4.7e-14, so the two may differ by more than 1e-13.
    assert np.all(np.abs(got - want) <= 3e-13 * want)
    closed = np.empty_like(got)
    for k, b in enumerate(1j * np.sqrt(1.0 + lam ** 2)):
        a = vieta([1j, b, b])
        for j in range(1, 4):
            m_j = np.array(mj(a, j))
            g0 = np.polyval(m_j, b) / (b - 1j)
            g1 = ((np.polyval(np.polyder(m_j), b) * (b - 1j) - np.polyval(m_j, b))
                  / (b - 1j) ** 2)
            parts = (halfline.ExpPolyTerm(1j, (np.polyval(m_j, 1j) / (1j - b) ** 2,)),
                     halfline.ExpPolyTerm(b, (g1, 1j * g0)))
            for part, term in enumerate(parts):
                sol = halfline.ExpPolySolution(j, (term,), ())
                closed[part, k, j - 1] = [l2_norm_deriv(sol, l) for l in range(4)]
    assert np.all(np.abs(got - closed) <= 1e-13 * closed)


def test_mesh_norms_real_axis_error_at_first_node():
    # xi'^2 + tau^2 - lambda^2 has real roots where lambda > |xi'|: the
    # second, third and fourth nodes.
    p = Pencil(n=2, m=1, mu=0, terms=(Term((2, 0), 2, 1.0), Term((0, 2), 2, 1.0),
                                      Term((0, 0), 0, -1.0)))
    xi_prime, lam = np.array([[2.0], [2.0], [0.5], [0.5]]), np.array([1.0, 3.0, 1.0, 3.0])
    _assert_mesh_matches_loop(p, xi_prime, lam)
    with pytest.raises(EllipticityError, match=r"xi'=\[2\.\], lambda=3\.0$"):
        halfline.mesh_norms(p, xi_prime, lam)
