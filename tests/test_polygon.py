"""Tests for convex hull geometry, slopes and degrees."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencilab.errors import UnsupportedShapeError
from pencilab.polygon import INF, NewtonPolygon, Side, _cross, build_polygon, r_degree
from reference import contains

F = Fraction


def _reference_polygon(points) -> NewtonPolygon:
    """The full convex hull (lower and upper monotone chains), rotated
    clockwise from the origin, with the non-axis chain sliced out of it and
    its slopes checked: the construction build_polygon replaced."""
    pts = set()
    for (i, k) in points:
        i, k = int(i), int(k)
        pts.add((F(i), F(k)))
        pts.add((F(i), F(0)))
        pts.add((F(0), F(k)))
    pts.add((F(0), F(0)))
    i_max = max(p[0] for p in pts)
    k_max = max(p[1] for p in pts)
    if i_max == 0 and k_max == 0:
        return NewtonPolygon(((F(0), F(0)),), (), degenerate=True)
    if i_max == 0:
        return NewtonPolygon(((F(0), F(0)), (F(0), k_max)), (), degenerate=True)
    if k_max == 0:
        return NewtonPolygon(((F(0), F(0)), (i_max, F(0))), (), degenerate=True)

    sorted_pts = sorted(pts)
    lower = []
    for p in sorted_pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(sorted_pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull_ccw = lower[:-1] + upper[:-1]
    start = hull_ccw.index((F(0), F(0)))
    hull_cw = [hull_ccw[start]] + [hull_ccw[(start - t) % len(hull_ccw)]
                                   for t in range(1, len(hull_ccw))]
    top = hull_cw.index((F(0), k_max))
    bottom = hull_cw.index((i_max, F(0)))
    chain = hull_cw[top:bottom + 1]

    sides = []
    for u, v in zip(chain[:-1], chain[1:]):
        da, db = v[0] - u[0], u[1] - v[1]
        if db == 0:
            r, d = INF, None
        elif da == 0:
            raise UnsupportedShapeError(
                f"vertical side from {u} to {v}: last side must not be vertical")
        else:
            r = da / db
            d = u[0] + r * u[1]
        sides.append(Side(r=r, d=d, start=u, end=v))
    rs = [s.r for s in sides]
    if any(r2 >= r1 for r1, r2 in zip(rs[:-1], rs[1:])):
        raise UnsupportedShapeError(f"side slopes not strictly decreasing: {rs}")
    return NewtonPolygon(tuple(hull_cw), tuple(sides))


def _outcome(build, points):
    """(vertices, sides, degenerate), or the exception's type and message."""
    try:
        np_ = build(points)
    except UnsupportedShapeError as exc:
        return type(exc), str(exc)
    return np_.vertices, np_.sides, np_.degenerate


def _assert_matches_reference(points):
    got, want = _outcome(build_polygon, points), _outcome(_reference_polygon, points)
    assert got == want
    # Fractions throughout, as the reference builds them: == alone would
    # also accept ints.
    if not isinstance(got[0], type):
        assert all(type(x) is F for v in got[0] for x in v)


_COORD = st.integers(0, 60)
_POINT_SETS = st.one_of(
    st.sets(st.tuples(_COORD, _COORD), max_size=9),
    st.sets(st.tuples(_COORD, st.just(0)), max_size=9),
    st.sets(st.tuples(st.just(0), _COORD), max_size=9),
)


@settings(max_examples=600, deadline=None)
@given(_POINT_SETS)
def test_polygon_matches_full_hull_reference(points):
    _assert_matches_reference(points)


def test_polygon_matches_full_hull_reference_on_small_grid():
    grid = list(itertools.product(range(5), repeat=2))
    for size in range(4):
        for points in itertools.combinations(grid, size):
            _assert_matches_reference(points)


def test_basic_hull_vertices_and_sides():
    np_ = build_polygon({(4, 0), (2, 2)})
    assert set(np_.vertices) == {(0, 0), (4, 0), (2, 2), (0, 2)}
    assert len(np_.sides) == 2
    top, slant = np_.sides
    assert top.is_horizontal
    assert (top.start, top.end) == ((0, 2), (2, 2))
    assert slant.r == 1 and slant.d == 4


def test_vertices_ordered_clockwise_from_origin():
    np_ = build_polygon({(4, 0), (2, 2)})
    assert np_.vertices[0] == (0, 0)
    # clockwise: up the ordinate axis first, then down to the abscissa axis
    assert np_.vertices[1] == (0, 2)


def test_single_point_degenerate():
    np_ = build_polygon({(0, 0)})
    assert np_.degenerate
    assert np_.sides == ()
    assert np_.integer_points() == [(0, 0)]


def test_axis_segment_degenerate():
    np_ = build_polygon({(2, 0)})
    assert np_.degenerate
    assert np_.integer_points() == [(0, 0), (1, 0), (2, 0)]


@pytest.mark.parametrize("m,mu", [(2, 1), (3, 1), (4, 3)])
def test_pencil_shape_polygon(m, mu):
    np_ = build_polygon({(2 * m, 0), (2 * mu, 2 * m - 2 * mu)})
    assert set(np_.vertices) == {(0, 0), (2 * m, 0), (2 * mu, 2 * m - 2 * mu),
                                 (0, 2 * m - 2 * mu)}
    rs = [s.r for s in np_.sides]
    assert rs[0] == INF
    assert rs[1] == F(2 * m - 2 * mu, 2 * m - 2 * mu) == 1


def test_vertical_last_side_rejected():
    # generators force the descending side to drop straight down
    with pytest.raises(UnsupportedShapeError):
        build_polygon({(2, 2), (2, 0)})


@pytest.mark.parametrize("call, message", [
    (lambda: build_polygon({(4, 0), (-1, 2)}), "exponent point (-1,2) has a negative entry"),
    (lambda: r_degree(build_polygon({(4, 0), (2, 2)}), 0), "r must be positive and finite"),
    (lambda: r_degree(build_polygon({(4, 0), (2, 2)}), F(-1, 2)),
     "r must be positive and finite"),
    (lambda: r_degree(build_polygon({(4, 0), (2, 2)}), INF), "r must be positive and finite"),
])
def test_polygon_input_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_collinear_points_not_vertices():
    np_ = build_polygon({(4, 0), (2, 2), (3, 1)})
    assert (3, 1) not in set(np_.vertices)
    assert (3, 1) in np_.integer_points()


def test_r_degree_values():
    np_ = build_polygon({(4, 0), (2, 2)})
    assert r_degree(np_, 1) == 4
    assert r_degree(np_, 2) == 6          # attained at (2,2)
    assert r_degree(np_, F(1, 2)) == 4    # attained at (4,0)


def test_r_degree_degenerate():
    np_ = build_polygon({(0, 0)})
    assert r_degree(np_, 1) == 0
    assert r_degree(np_, F(7, 3)) == 0


def test_support_function_consistency():
    np_ = build_polygon({(6, 0), (2, 4), (4, 1)})
    for s in np_.sides:
        if not s.is_horizontal:
            assert r_degree(np_, s.r) == s.d


@settings(max_examples=200, deadline=None)
@given(_POINT_SETS)
@example({(8, 0), (6, 1), (2, 4)})
def test_slopes_strictly_decreasing(points):
    try:
        np_ = build_polygon(points)
    except UnsupportedShapeError:
        return
    rs = [s.r for s in np_.sides]
    assert np_.degenerate or rs
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_contains_and_integer_points():
    np_ = build_polygon({(4, 0), (2, 2)})
    pts = set(np_.integer_points())
    assert (3, 1) in pts and (4, 0) in pts and (0, 2) in pts
    assert (4, 1) not in pts
    assert contains(np_, 3, 1) and not contains(np_, 4, 1)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
               min_size=1, max_size=8))
def test_hull_idempotence(points):
    try:
        np_ = build_polygon(points)
    except UnsupportedShapeError:
        return
    if np_.degenerate:
        return
    again = build_polygon(np_.integer_points())
    assert set(again.vertices) == set(np_.vertices)
    assert [s.r for s in again.sides] == [s.r for s in np_.sides]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
               min_size=1, max_size=8))
def test_generators_inside_hull(points):
    try:
        np_ = build_polygon(points)
    except UnsupportedShapeError:
        return
    if np_.degenerate:
        return
    for (i, k) in points:
        assert contains(np_, i, k)
