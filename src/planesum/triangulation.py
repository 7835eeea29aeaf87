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

The fringe is a linked CCW cycle (a next and a previous map), and an
insertion touches only the edges it sees plus one on each side. The point
inserted last is the lexicographic maximum so far, hence a strict hull
vertex whose two edges both lead to lexicographically smaller points; the
cone they span holds no point that is lexicographically larger, so the new
point sees at least one of those two edges. The visible edges form one
chain, found by walking outwards from there, and the triangles come in the
same CCW order as a scan of every fringe edge would give them. After the
sort, all insertions together take time linear in the number of points.

``twice_hull_area`` is the shoelace sum over hull vertices. For a set that
contains every lattice point of its hull it equals b + 2i - 2 (Pick's
theorem), which the test suite exploits as a third independent route.
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
    convex_hull,
    orientation,
)


class Triangle(NamedTuple):
    """Triangle with CCW vertex order."""

    a: Point
    b: Point
    c: Point


def _ccw_triangle(a: Point, b: Point, c: Point) -> Triangle:
    s = orientation(a, b, c)
    if s == 0:
        raise ValueError(f"degenerate triangle {tuple(a)}, {tuple(b)}, {tuple(c)}")
    return Triangle(a, b, c) if s > 0 else Triangle(a, c, b)


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


def twice_hull_area(points: Union[PointSet, Iterable[Coords]]) -> int:
    """Twice the area of the convex hull (shoelace over the CCW hull cycle)."""
    hull = convex_hull(points)
    if len(hull) < 3:
        raise CollinearInput("hull spans no area")
    total = 0
    for k in range(len(hull)):
        p, q = hull[k], hull[(k + 1) % len(hull)]
        total += p.x * q.y - q.x * p.y
    return total


def triangulate_explicit(points: Union[PointSet, Iterable[Coords]]) -> Triangulation:
    """Build a triangulation of a non-collinear set by lexicographic insertion."""
    ps = points if isinstance(points, PointSet) else PointSet(points)
    pts = list(ps.points)
    if _collinear(pts):
        raise CollinearInput("triangulation needs a non-collinear set")

    # Longest collinear prefix lies on one line; the first point off that
    # line seeds the fan. Lexicographic order puts the prefix in line order.
    k = 2
    while orientation(pts[0], pts[1], pts[k]) == 0:
        k += 1
    apex = pts[k]
    triangles: List[Triangle] = [
        _ccw_triangle(pts[j], pts[j + 1], apex) for j in range(k - 1)
    ]
    cycle = pts[:k] if orientation(pts[0], pts[1], apex) > 0 else pts[k - 1::-1]
    cycle.append(apex)
    # the fringe as a linked CCW cycle: u -> nxt[u] is an edge, prv undoes nxt
    nxt = dict(zip(cycle, cycle[1:] + cycle[:1]))
    prv = dict(zip(cycle, cycle[-1:] + cycle[:-1]))

    last = apex
    for p in pts[k + 1:]:
        # The edge u -> w is visible from p when p is strictly right of it.
        # ``last`` is the lexicographic maximum so far, so p lies outside its
        # vertex cone and sees at least one of its two edges.
        if orientation(last, nxt[last], p) < 0:
            u = last
        elif orientation(prv[last], last, p) < 0:
            u = prv[last]
        else:
            raise AssertionError(f"point {tuple(p)} not strictly outside the fringe")
        w = nxt[u]
        # extend the visible chain both ways: back to its first tail ...
        while orientation(prv[u], u, p) < 0:
            u = prv[u]
            if u == w:
                raise AssertionError(f"point {tuple(p)} not strictly outside the fringe")
        # ... then forward from it, fanning p to each visible edge in CCW order
        start = u
        while True:
            w = nxt[u]
            triangles.append(Triangle(u, p, w))  # CCW since p is right of u -> w
            u = w
            if orientation(u, nxt[u], p) >= 0:
                break
        nxt[start], prv[p], nxt[p], prv[u] = p, start, u, p
        last = p

    return Triangulation(points=ps, triangles=tuple(triangles))


def lattice_points_in_hull(hull_vertices: Iterable[Coords]) -> List[Point]:
    """Every lattice point inside or on the given convex CCW polygon."""
    vs = [Point(v[0], v[1]) for v in hull_vertices]
    n = len(vs)
    xs = [v.x for v in vs]
    ys = [v.y for v in vs]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = Point(x, y)
            if all(orientation(vs[k], vs[(k + 1) % n], p) >= 0 for k in range(n)):
                out.append(p)
    return out


def is_lattice_saturated(points: Union[PointSet, Iterable[Coords]]) -> bool:
    """Whether the set contains every lattice point of its convex hull."""
    ps = points if isinstance(points, PointSet) else PointSet(points)
    hull = convex_hull(ps)
    if len(hull) < 3:
        raise CollinearInput("saturation is defined for non-collinear sets")
    return all(p in ps for p in lattice_points_in_hull(hull))
