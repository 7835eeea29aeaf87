"""Minkowski sumsets of finite planar point sets and translation normal forms.

``sum_decomposition`` splits A + B into hull boundary and interior from the
summands' decompositions alone. The hull of A + B is the Minkowski sum of
the two hull polygons, whose edge cycle is the two summands' edge cycles
merged by angle, with parallel edges added (de Berg et al., *Computational
Geometry*, ch. 13). The lattice points of a hull edge are walked in gcd
steps, and each one that is in A + B is a boundary point. Every other point
of A + B is interior. ``classify_points(minkowski_sum(a, b))`` decides the
same split from scratch and is the reference the tests hold the kernel to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

from .geometry import HullDecomposition, Point, PointSet


@dataclass(frozen=True)
class SumWitness:
    """A sum point with at least two distinct representations a + b."""

    point: Point
    pairs: tuple  # ((a1, b1), (a2, b2), ...) sorted

    def __str__(self) -> str:
        reps = ", ".join(f"{tuple(a)}+{tuple(b)}" for a, b in self.pairs)
        return f"{tuple(self.point)} = {reps}"


def minkowski_sum(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise sums {p + q : p in a, q in b}."""
    if not len(a) or not len(b):
        raise ValueError("minkowski_sum needs nonempty sets")
    # distinct sums as int tuples first: one Point per sum, not per product,
    # made after the sort, which compares plain tuples faster than Points
    sums = {(px + qx, py + qy) for px, py in a.points for qx, qy in b.points}
    return PointSet._sorted(map(Point._make, sorted(sums)))


class SumDecomposition(NamedTuple):
    """Hull boundary and interior of A + B, as ``sum_decomposition`` finds them.

    Points are plain ``(x, y)`` tuples, which compare and hash equal to
    ``Point``s. ``hull_vertices`` is in the order that ``classify_points``
    gives it: CCW from the lexicographically smallest vertex. ``b`` and ``i``
    are the boundary and interior counts.
    """

    points: set
    hull_vertices: tuple
    boundary: frozenset
    b: int
    i: int


def sum_decomposition(da: HullDecomposition, db: HullDecomposition) -> SumDecomposition:
    """Boundary/interior split of A + B from the decompositions of A and B."""
    pts = {(ax + bx, ay + by) for ax, ay in da.points.points for bx, by in db.points.points}
    ea, eb = da.edge_table, db.edge_table
    na, nb = len(ea), len(eb)
    # merge the two edge cycles by angle; rows are (half, sx, sy, g)
    merged = []
    i = j = 0
    while i < na and j < nb:
        ha, ax, ay, ga = ea[i]
        hb, bx, by, gb = eb[j]
        # within one half, parallel edges point the same way
        order = hb - ha if ha != hb else ax * by - ay * bx
        if order > 0:
            merged.append((ax, ay, ga))
            i += 1
        elif order < 0:
            merged.append((bx, by, gb))
            j += 1
        else:
            merged.append((ax, ay, ga + gb))
            i += 1
            j += 1
    merged.extend(row[1:] for row in ea[i:])
    merged.extend(row[1:] for row in eb[j:])

    a0, b0 = da.hull_vertices[0], db.hull_vertices[0]
    x, y = a0[0] + b0[0], a0[1] + b0[1]
    vertices = []
    boundary = []
    for sx, sy, g in merged:
        vertices.append((x, y))  # a vertex of A + B is a sum of vertices
        for _ in range(g - 1):
            x += sx
            y += sy
            if (x, y) in pts:
                boundary.append((x, y))
        x += sx
        y += sy
    boundary.extend(vertices)
    b = len(boundary)
    return SumDecomposition(
        points=pts,
        hull_vertices=tuple(vertices),
        boundary=frozenset(boundary),
        b=b,
        i=len(pts) - b,
    )


def unique_representation(a: PointSet, b: PointSet) -> Tuple[bool, Optional[SumWitness]]:
    """Whether every sum point has exactly one representation.

    Holds exactly when |a + b| = |a| * |b|. On failure returns the
    lexicographically smallest multiply-represented sum point with all of
    its representations.
    """
    s = minkowski_sum(a, b)
    if len(s) == len(a) * len(b):
        return True, None
    reps: dict = {}
    for p in a:
        for q in b:
            reps.setdefault(p + q, []).append((p, q))
    collided = min(pt for pt, pairs in reps.items() if len(pairs) > 1)
    return False, SumWitness(point=collided, pairs=tuple(sorted(reps[collided])))


def _class_key(pts: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """A nonempty set's translation class: its points, sorted, shifted so
    that the smallest is the origin."""
    pts = sorted(pts)
    x0, y0 = pts[0]
    return tuple([(x - x0, y - y0) for x, y in pts])


def canonical_translate(s: PointSet) -> PointSet:
    """Translate so the lexicographically smallest point sits at the origin."""
    if not len(s):
        raise ValueError("canonical_translate of an empty set")
    return PointSet(_class_key(s.points))


def is_translate_of(a: PointSet, b: PointSet) -> bool:
    """Whether the two sets differ by a translation only."""
    if len(a) != len(b):
        return False
    if not len(a):
        return True
    return _class_key(a.points) == _class_key(b.points)
