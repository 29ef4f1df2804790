"""Newton polygon of a two-variable exponent set.

Exponent points are pairs (i, k) where i is the total degree in the space
frequency and k the degree in the spectral parameter.  The polygon is the
convex hull of the generating points together with their projections onto
the coordinate axes and the origin.  All geometry is done in exact rational
arithmetic so that side slopes can be ordered reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedShapeError

INF = math.inf

Point = tuple[Fraction, Fraction]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class Side:
    """Non-axis side of the polygon.

    The exterior normal is (1, r); every polygon point (a, b) satisfies
    a + r*b <= d with equality on the side.  For a horizontal top side
    r is infinite and d is None (no finite support value).
    """

    r: Fraction | float
    d: Fraction | None
    start: Point
    end: Point

    @property
    def is_horizontal(self) -> bool:
        return self.r == INF


@dataclass(frozen=True)
class NewtonPolygon:
    """Convex hull data: vertices clockwise from the origin, non-axis sides."""

    vertices: tuple[Point, ...]
    sides: tuple[Side, ...]
    degenerate: bool = False

    @property
    def i_max(self) -> Fraction:
        return max(v[0] for v in self.vertices)

    @property
    def k_max(self) -> Fraction:
        return max(v[1] for v in self.vertices)

    def integer_points(self) -> list[tuple[int, int]]:
        """All lattice points inside or on the hull."""
        pts = []
        for k in range(int(self.k_max) + 1):
            bound = self.i_max
            for s in self.sides:
                if not s.is_horizontal:
                    bound = min(bound, s.d - s.r * k)
            if bound < 0:
                continue
            pts.extend((i, k) for i in range(int(bound) + 1))
        return pts


def build_polygon(points) -> NewtonPolygon:
    """Convex hull of the points, their axis projections and the origin.

    Only the chain from (0, k_max) to (i_max, 0) is computed, since the
    rest of the boundary lies on the axes: one monotone pass (Andrew 1979)
    over the points and the corners keeps their upper hull.  The vertices
    are the origin followed by the chain.

    Raises UnsupportedShapeError if the hull has a (non-degenerate) vertical
    last side; such polygons are outside the supported calculus.
    """
    pts = set()
    for (i, k) in points:
        i, k = int(i), int(k)
        if i < 0 or k < 0:
            raise ValueError(f"exponent point ({i},{k}) has a negative entry")
        pts.add((Fraction(i), Fraction(k)))
    zero = Fraction(0)
    i_max = max((p[0] for p in pts), default=zero)
    k_max = max((p[1] for p in pts), default=zero)
    origin = (zero, zero)
    corners = {origin, (zero, k_max), (i_max, zero)}

    # Degenerate shapes: the origin, or a segment on one axis.
    if i_max == 0 or k_max == 0:
        return NewtonPolygon(tuple(sorted(corners)), (), degenerate=True)

    # Left to right, top down at one abscissa; keep only clockwise turns.
    chain: list[Point] = []
    for p in sorted(pts | corners, key=lambda p: (p[0], -p[1])):
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) >= 0:
            chain.pop()
        chain.append(p)

    # Strict clockwise turns give strictly decreasing slopes r.
    sides = []
    for u, v in zip(chain[:-1], chain[1:]):
        da, db = v[0] - u[0], u[1] - v[1]
        if db == 0:
            r: Fraction | float = INF
            d = None
        elif da == 0:
            raise UnsupportedShapeError(
                f"vertical side from {u} to {v}: last side must not be vertical")
        else:
            r = da / db
            d = u[0] + r * u[1]
        sides.append(Side(r=r, d=d, start=u, end=v))
    return NewtonPolygon((origin, *chain), tuple(sides))


def r_degree(np_: NewtonPolygon, r) -> Fraction:
    """The r-degree max(a + r*b) over the polygon, an exact rational, for
    finite r > 0."""
    if not 0 < r < INF:
        raise ValueError("r must be positive and finite")
    r = Fraction(r)
    return max(v[0] + r * v[1] for v in np_.vertices)
