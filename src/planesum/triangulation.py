"""Triangulation counts for planar point sets, by formula and by construction.

Every triangulation of a finite non-collinear set S that uses all of S as
vertices and covers the convex hull has exactly b + 2i - 2 triangles, where b
counts hull-boundary points and i counts strict-interior points (a
consequence of Euler's relation for planar graphs). ``tr_euler`` evaluates
that formula; ``triangulate_explicit`` builds an actual triangulation
independently, so the two can cross-check each other.

The constructive route inserts points in lexicographic order. Sorting makes
every new point strictly outside the hull of its predecessors (never interior
and never on the closed boundary), so each insertion fans the new point to
the boundary segments it can see. The fringe is kept as the full cycle of
boundary points, collinear ones included, which keeps later fans from
spanning across an earlier point sitting flush on a boundary segment.

The fringe is two monotone chains, ``lower`` and ``upper``, each running from
the smallest point so far to the largest; the CCW cycle is the lower chain
followed by the upper one reversed. A new point p is the largest so far, so
it becomes the right end of both chains. The edges it sees (p strictly
outside) form one run of the cycle through the previous maximum, a strict
hull vertex whose two edges lead to smaller points and so cannot both hide
p; the run never reaches past the smallest point, since p does not lie
behind that vertex. Only the last edges of each chain can thus be visible,
and popping each chain while p is strictly outside its last edge finds them
all. The lower pops reversed, then the upper pops, are the visible edges in
the CCW order a scan of every fringe edge would give. Each point is pushed
once and popped at most once per chain, so after the sort all insertions
together take linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Union

from .errors import CollinearInput
from .geometry import (
    Coords,
    HullDecomposition,
    Point,
    PointSet,
    _collinear,
)


class Triangle(NamedTuple):
    """Triangle with CCW vertex order."""

    a: Point
    b: Point
    c: Point


@dataclass(frozen=True)
class Triangulation:
    """A full triangulation: every input point is a vertex, union is the hull."""

    points: PointSet
    triangles: tuple

    def __len__(self) -> int:
        return len(self.triangles)


def tr_euler(decomp: HullDecomposition) -> int:
    """Triangle count b + 2i - 2 common to all full triangulations."""
    return decomp.b + 2 * decomp.i - 2


def triangulate_explicit(points: Union[PointSet, Iterable[Coords]]) -> Triangulation:
    """Build a triangulation of a non-collinear set by lexicographic insertion."""
    ps = points if isinstance(points, PointSet) else PointSet(points)
    pts = ps.points
    if _collinear(pts):
        raise CollinearInput("triangulation needs a non-collinear set")

    # Longest collinear prefix lies on one line; the first point off that
    # line seeds the fan. Lexicographic order puts the prefix in line order.
    (x0, y0), (x1, y1) = pts[0], pts[1]
    dx, dy = x1 - x0, y1 - y0
    k = 2
    while dx * (pts[k][1] - y0) == dy * (pts[k][0] - x0):
        k += 1
    apex = pts[k]
    line = list(pts[:k])
    if dx * (apex[1] - y0) > dy * (apex[0] - x0):
        # apex left of the line, i.e. above it: the line is the lower chain
        triangles = [Triangle(u, w, apex) for u, w in zip(line, line[1:])]
        lower, upper = line + [apex], [pts[0], apex]
    else:
        triangles = [Triangle(u, apex, w) for u, w in zip(line, line[1:])]
        lower, upper = [pts[0], apex], line + [apex]

    new = tuple.__new__  # a Triangle without NamedTuple's Python-level __new__
    for p in pts[k + 1:]:
        x, y = p
        # pop lower while p is strictly right of its last edge u -> w; the
        # popped w's predecessor u is the next edge's end, so it carries over
        fan = []
        w = lower[-1]
        wx, wy = w
        while len(lower) > 1:
            u = lower[-2]
            ux, uy = u
            if (wx - ux) * (y - uy) >= (wy - uy) * (x - ux):
                break
            lower.pop()
            fan.append(new(Triangle, (u, p, w)))
            w, wx, wy = u, ux, uy
        fan.reverse()
        # ... and upper while p is strictly left of its last edge u -> w,
        # so right of the CCW edge w -> u; fan p to each edge in CCW order
        w = upper[-1]
        wx, wy = w
        while len(upper) > 1:
            u = upper[-2]
            ux, uy = u
            if (wx - ux) * (y - uy) <= (wy - uy) * (x - ux):
                break
            upper.pop()
            fan.append(new(Triangle, (w, p, u)))
            w, wx, wy = u, ux, uy
        if not fan:
            raise AssertionError(f"point {tuple(p)} not strictly outside the fringe")
        triangles += fan
        lower.append(p)
        upper.append(p)

    return Triangulation(points=ps, triangles=tuple(triangles))


def lattice_points_in_hull(hull_vertices: Iterable[Coords]) -> List[Point]:
    """Every lattice point inside or on the given convex CCW polygon.

    The points of the bounding box, taken in x then y order, are kept when
    they lie on or left of every edge. Degenerate polygons pass the same
    test: one vertex gives itself, two give the lattice points of their
    segment.
    """
    vs = [(v[0], v[1]) for v in hull_vertices]
    xs = [x for x, _ in vs]
    ys = [y for _, y in vs]
    # (tail x, tail y, edge dx, edge dy) per edge, closing the cycle
    edges = [(ax, ay, bx - ax, by - ay)
             for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1])]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if all(ex * (y - ay) >= ey * (x - ax) for ax, ay, ex, ey in edges):
                out.append(Point(x, y))
    return out

