"""Exact primitives for finite planar point sets with integer coordinates.

All predicates are decided with integer arithmetic only. Python integers are
arbitrary precision, so cross products and dot products are exact at any
coordinate magnitude; there is no overflow to guard against.

Conventions used throughout:

* The walk p -> q -> r turns left (counterclockwise) when the cross product
  ``(q - p) x (r - p)`` is positive, right when it is negative, and the
  three points are collinear when it is 0. Each test computes that product
  inline.
* Convex hulls are vertex cycles in counterclockwise order with no three
  consecutive collinear vertices. For a CCW hull the outward normal of the
  edge ``a -> b`` is ``b - a`` rotated a quarter turn clockwise.
* Directions are primitive integer vectors (gcd of components is 1). A
  direction and its negation are distinct: they matter separately for arc
  decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import CollinearInput, DirectionNotGeneric

Coords = Union["Point", tuple]


class Point(NamedTuple):
    """Lattice point. Tuple-compatible, so ``Point(0, 1) == (0, 1)``."""

    x: int
    y: int

    def __add__(self, other: Coords) -> "Point":
        return Point(self.x + other[0], self.y + other[1])

    def __sub__(self, other: Coords) -> "Point":
        return Point(self.x - other[0], self.y - other[1])

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)


@dataclass(frozen=True, order=True)
class Direction:
    """Primitive nonzero integer vector; construction enforces primitivity."""

    dx: int
    dy: int

    def __post_init__(self):
        if self.dx == 0 and self.dy == 0:
            raise ValueError("direction must be nonzero")
        if math.gcd(abs(self.dx), abs(self.dy)) != 1:
            raise ValueError(f"direction ({self.dx}, {self.dy}) is not primitive")

    @staticmethod
    def of(dx: int, dy: int) -> "Direction":
        """Reduce an arbitrary nonzero vector to its primitive direction."""
        if dx == 0 and dy == 0:
            raise ValueError("direction must be nonzero")
        g = math.gcd(abs(dx), abs(dy))
        return Direction(dx // g, dy // g)

    def __neg__(self) -> "Direction":
        return Direction(-self.dx, -self.dy)

    def dot(self, p: Coords) -> int:
        return self.dx * p[0] + self.dy * p[1]

    def perp_cw(self) -> "Direction":
        """Quarter turn clockwise: (dx, dy) -> (dy, -dx)."""
        return Direction(self.dy, -self.dx)


class PointSet:
    """Immutable set of distinct points, iterated in lexicographic order."""

    __slots__ = ("points", "_members")

    def __init__(self, points: Iterable[Coords]):
        self._store(tuple(sorted({Point(p[0], p[1]) for p in points})))

    @classmethod
    def _sorted(cls, points: Iterable[Point]) -> "PointSet":
        """The set of ``Point``s that the caller knows to be strictly
        increasing, stored as given: no new ``Point`` and no sort."""
        s = object.__new__(cls)
        s._store(tuple(points))
        return s

    def _store(self, points: tuple) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_members", frozenset(points))

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: object) -> bool:
        return p in self._members

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointSet):
            return self.points == other.points
        return NotImplemented

    def __lt__(self, other: "PointSet") -> bool:
        return self.points < other.points

    def __le__(self, other: "PointSet") -> bool:
        return self.points <= other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        inner = ", ".join(f"({p.x}, {p.y})" for p in self.points)
        return f"PointSet([{inner}])"

    def translate(self, v: Coords) -> "PointSet":
        vx, vy = v[0], v[1]
        return PointSet(Point(p.x + vx, p.y + vy) for p in self.points)


def convex_hull(points: Union[PointSet, Iterable[Coords]]) -> tuple:
    """Hull vertices in CCW order, no three consecutive collinear.

    The cycle starts at the lexicographically smallest point. A single point
    hulls to itself; a collinear set hulls to its two lexicographic extremes.
    """
    if isinstance(points, PointSet):
        pts = list(points.points)
    else:
        pts = sorted({Point(p[0], p[1]) for p in points})
    if not pts:
        raise ValueError("convex_hull of an empty set")
    hull = _left_turns(_boundary_chain(pts))
    if len(hull) < 3:
        return (pts[0],) if len(pts) == 1 else (pts[0], pts[-1])
    return hull


def _boundary_chain(pts: Sequence[tuple]) -> list:
    """Monotone chain over distinct points in lexicographic order that pops
    a point only on a strict right turn: for a non-collinear set, every
    point on the hull boundary, collinear ones included, each once, CCW
    from the smallest, of the same type as the input (``Point``s or plain
    int tuples)."""

    def half(seq):
        chain = []
        for p in seq:
            x, y = p
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                # drop chain[-1] only on a strict right turn chain[-2] -> chain[-1] -> p
                if (ax - ox) * (y - oy) >= (ay - oy) * (x - ox):
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _left_turns(cycle: list) -> tuple:
    """The points where a closed cycle turns strictly left, in cycle order:
    the hull vertices of a ``_boundary_chain`` cycle, and none at all when
    the points are collinear."""
    return tuple(q for p, q, r in zip(cycle[-1:] + cycle[:-1], cycle, cycle[1:] + cycle[:1])
                 if (q[0] - p[0]) * (r[1] - p[1]) > (q[1] - p[1]) * (r[0] - p[0]))


def interior_count(coords: Iterable[Coords]) -> int:
    """Number of points of the set strictly inside its convex hull.

    Equals ``classify_points(coords).i`` on a non-collinear set and is 0 on
    a collinear one, but builds no ``Point``, ``PointSet`` or decomposition.
    """
    pts = sorted(set(coords))
    if _collinear(pts):
        return 0
    return len(pts) - len(_boundary_chain(pts))


@dataclass(frozen=True)
class HullDecomposition:
    """A non-collinear point set split into hull-boundary and interior parts.

    ``hull_vertices`` is the cycle as ``convex_hull`` gives it, CCW from the
    lexicographically smallest point. ``cycle`` is every point lying on the
    hull's edge cycle (vertices included) once, CCW from the same point, as
    ``classify_points`` walks them; ``b`` and ``i`` and every per-set table
    below are read off it. ``boundary`` holds the cycle's points and
    ``interior`` the points strictly inside, both built on first use.
    """

    points: PointSet
    hull_vertices: tuple
    cycle: tuple

    @cached_property
    def size(self) -> int:
        """|S|, read as ``SumDecomposition.size`` is read for a sum: an int
        in the instance dict after the first read, where ``len(points)``
        would call ``PointSet.__len__`` on every pair."""
        return len(self.points.points)

    @cached_property
    def b(self) -> int:
        return len(self.cycle)

    @cached_property
    def i(self) -> int:
        return self.size - len(self.cycle)

    @cached_property
    def boundary(self) -> PointSet:
        # the cycle holds each boundary point once, so sorted it is a sorted
        # distinct tuple of Points
        return PointSet._sorted(sorted(self.cycle))

    @cached_property
    def interior(self) -> PointSet:
        # a filter of the sorted points: sorted and distinct already
        on_hull = self.boundary._members
        return PointSet._sorted(p for p in self.points.points if p not in on_hull)

    @cached_property
    def edge_runs(self) -> tuple:
        """The cycle cut at each hull vertex: per CCW hull edge, from the
        first vertex, the boundary points on it from tail to head."""
        cyc = self.cycle + self.cycle[:1]
        runs = []
        j = 0
        # each vertex lies past the previous one, so the walk is linear
        for v in self.hull_vertices[1:]:
            k = cyc.index(v, j + 1)
            runs.append(cyc[j:k + 1])
            j = k
        runs.append(cyc[j:])
        return tuple(runs)

    # Per-set tables for the sum kernel and the checks. They are built on
    # first use, so a summand that never reaches a sum costs nothing extra,
    # and they live as long as the decomposition a sweep caches per set.

    @cached_property
    def edge_table(self) -> tuple:
        """(half, sx, sy, g) per CCW hull edge, from the first vertex.

        The edge vector is g times the primitive step (sx, sy). ``half`` is
        0 for edge angles in (-pi/2, pi/2] and 1 for (pi/2, 3pi/2]. The
        cycle starts at the lexicographically smallest vertex, so the edges
        run through that angle range in increasing order, which is the order
        in which ``sum_decomposition`` merges two hulls.
        """
        rows = []
        for run in self.edge_runs:
            a, b = run[0], run[-1]
            dx, dy = b.x - a.x, b.y - a.y
            g = math.gcd(dx, dy)
            half = 0 if dx > 0 or (dx == 0 and dy > 0) else 1
            rows.append((half, dx // g, dy // g, g))
        return tuple(rows)

    @cached_property
    def box(self) -> tuple:
        """(x0, y0, x1, y1): the set's bounding box, which is its hull
        vertices' box."""
        return _box(self.hull_vertices)

    @cached_property
    def cone_rows(self) -> tuple:
        """(x, y, cone) per point in set order; cone is None for an interior
        point and (lo dx, lo dy, hi dx, hi dy) for a boundary point, the
        closed CCW range of outward edge normals there, which spans less than
        a half turn. The outward normal of an edge with primitive step
        (sx, sy) is (sy, -sx). The tail of edge k's run, the vertex after
        edge k - 1, gets the normals of edges k - 1 and k; the run's inner
        points get edge k's normal alone."""
        normals = [(sy, -sx) for _, sx, sy, _ in self.edge_table]
        cones = {}
        for k, run in enumerate(self.edge_runs):
            u = normals[k]
            cones[run[0]] = normals[k - 1] + u
            for p in run[1:-1]:
                cones[p] = u + u
        return tuple([(p.x, p.y, cones.get(p)) for p in self.points.points])

    @cached_property
    def edge_steps(self) -> dict:
        """Common step of the set's points on each hull edge, keyed by the
        edge's outward normal (sy, -sx); None where those points are not an
        arithmetic progression.

        The points on an edge are its run. Their step is taken in
        lexicographic order (the run reversed on a ``half`` 1 edge), so two
        sets with an edge of the same normal compare their steps directly.
        """
        return {(sy, -sx): _common_step(run[::-1] if half else run)
                for run, (half, sx, sy, _) in zip(self.edge_runs, self.edge_table)}

    @cached_property
    def edge_normals(self) -> frozenset:
        """The outward normals of the hull edges: the keys of ``edge_steps``."""
        return frozenset(self.edge_steps)

    @cached_property
    def edge_progressions(self) -> frozenset:
        """(normal, step) for each hull edge whose points are a progression:
        the items of ``edge_steps`` whose step is not None. A set has one
        edge per normal, so two sets share as many of these pairs as they
        share normals exactly when every shared normal has one common step
        on both sides."""
        return frozenset([(u, step) for u, step in self.edge_steps.items()
                          if step is not None])

    @cached_property
    def rise(self) -> int:
        """The largest |sy| over ``edge_table``: no hull edge is parallel to
        (1, m) for any m > rise (see ``generic_direction``)."""
        return max([abs(sy) for _, _, sy, _ in self.edge_table])

    @cached_property
    def arc_facts(self) -> Tuple[tuple, tuple]:
        """``split_facts`` of the split under (1, rise + 1): the arc facts
        under ``generic_direction`` of every pair that holds this set.

        The extremes l and r of m x - y over the hull change only where
        (1, m) passes an edge direction, and no (1, m) with m > rise is
        parallel to an edge, so every such direction splits the boundary
        alike; ``generic_direction`` picks one of them for both sets.
        """
        return split_facts(arc_decomposition(self, Direction(1, self.rise + 1)))

    # Grid tables, memoised per field layout (h, w): the column height and
    # the field width of a sum's packed grid (see ``sumset``). A sweep meets
    # a handful of layouts per set, so each set keeps a few ints per layout.

    @cached_property
    def _packed(self) -> dict:
        return {}

    @cached_property
    def _cone_masks(self) -> dict:
        return {}

    def packed(self, h: int, w: int) -> int:
        """The set as an int with a 1 at bit w k for each of its cells k,
        column-major with column height h from the corner of its box: the
        factor of the packed product that ``sum_decomposition`` multiplies."""
        key = (h, w)
        bits = self._packed.get(key)
        if bits is None:
            bits = self._packed[key] = _pack(self.points.points, self.box, h, w)
        return bits

    def cone_masks(self, h: int, w: int) -> "_ConeMasks":
        """cone -> the set's cells, packed as ``packed(h, w)`` packs them,
        whose cone in ``cone_rows`` meets that cone; None -> 0. Each mask is
        built on first read."""
        key = (h, w)
        masks = self._cone_masks.get(key)
        if masks is None:
            masks = self._cone_masks[key] = _ConeMasks(self, h, w)
        return masks

    # read as ``SumDecomposition.grid`` is read: a set has no packed sum grid
    grid = None


def _box(pts: Sequence[Coords]) -> tuple:
    """(x0, y0, x1, y1): the bounding box of a nonempty point sequence."""
    xs, ys = zip(*pts)
    return min(xs), min(ys), max(xs), max(ys)


def _pack(pts: Iterable[Coords], box: tuple, h: int, w: int) -> int:
    """An int with a 1 at bit w k for each point's cell k = (x - x0) h +
    (y - y0), where (x0, y0) are the first two entries of ``box``. The
    points may come in any order and repeat."""
    base = box[0] * h + box[1]
    bits = 0
    for x, y in pts:
        bits |= 1 << w * (x * h + y - base)
    return bits


def _cones_meet(ca: tuple, cb: tuple) -> bool:
    """Whether two cones of ``cone_rows`` meet. Both are closed arcs of less
    than a half turn, and two such arcs meet exactly when one contains the
    other's first ray, so two containment tests decide it."""
    alx, aly, ahx, ahy = ca
    blx, bly, bhx, bhy = cb
    # B's first ray in A's cone; a ray cone holds only itself
    if alx == ahx and aly == ahy:
        if blx == alx and bly == aly:
            return True
    elif alx * bly - aly * blx >= 0 and blx * ahy - bly * ahx >= 0:
        return True
    # A's first ray in B's cone, unless B's cone is one ray, when that needs
    # al == bl and the test above already found it
    return ((blx != bhx or bly != bhy)
            and blx * aly - bly * alx >= 0 and alx * bhy - aly * bhx >= 0)


class _ConeMasks(dict):
    """``HullDecomposition.cone_masks`` at one layout: cone -> mask, each
    mask built on first read from the set's boundary cells and cones."""

    __slots__ = ("_rows",)

    def __init__(self, d: HullDecomposition, h: int, w: int):
        super().__init__()
        x0, y0 = d.box[0], d.box[1]
        self._rows = [(1 << w * ((x - x0) * h + y - y0), cone)
                      for x, y, cone in d.cone_rows if cone is not None]

    def __missing__(self, cone: Optional[tuple]) -> int:
        mask = 0
        if cone is not None:
            for bit, c in self._rows:
                if _cones_meet(cone, c):
                    mask |= bit
        self[cone] = mask
        return mask


def classify_points(points: Union[PointSet, Iterable[Coords]]) -> HullDecomposition:
    """Partition a non-collinear set into hull boundary and strict interior.

    The boundary is the monotone chain over the sorted points that
    ``convex_hull`` and ``interior_count`` also run, which pops a point only
    on a strict right turn: it keeps every point on a hull edge,
    collinear ones included, and nothing strictly inside. The interior is
    the rest, and the hull vertices are the boundary points where the cycle
    turns. This is linear after the sort, where testing each point against
    every hull edge costs n times h cross products.
    """
    ps = points if isinstance(points, PointSet) else PointSet(points)
    cycle = _boundary_chain(ps.points)
    hull = _left_turns(cycle)
    if len(hull) < 3:
        convex_hull(ps)  # raises its ValueError on an empty set
        raise CollinearInput(f"{len(ps)} points spanning no area")
    return HullDecomposition(points=ps, hull_vertices=hull, cycle=tuple(cycle))


def generic_direction(a: Union[PointSet, HullDecomposition, Iterable[Coords]],
                      b: Union[PointSet, HullDecomposition, Iterable[Coords]]) -> Direction:
    """(1, m) with m = max(rise of [a], rise of [b]) + 1: a direction
    parallel to no hull edge of [a] or [b].

    A set's rise is the largest |sy| over its primitive hull edge steps
    (sx, sy). A step with sx != 0 is parallel to (1, m) only if sy = m sx,
    so |sy| = m |sx| >= m > rise, which no step has; a vertical step
    (sx = 0) never is. Both sets must be non-collinear; a collinear one
    raises ``CollinearInput``. Decompositions contribute their cached
    ``rise``; other inputs are classified here.
    """
    da = a if isinstance(a, HullDecomposition) else classify_points(a)
    db = b if isinstance(b, HullDecomposition) else classify_points(b)
    return Direction(1, max(da.rise, db.rise) + 1)


@dataclass(frozen=True)
class ArcDecomposition:
    """Boundary split induced by a direction v that no hull edge parallels.

    ``l`` and ``r`` are the unique extreme points against v rotated a quarter
    turn clockwise (the strict minimizer and maximizer). Every other boundary
    point lands in ``upp`` when all its outward normals u have u . v > 0 and
    in ``low`` when they all have u . v < 0, so |upp| + |low| = b - 2. Both
    arcs are tuples of ``Point``s in CCW cycle order: ``low`` from l to r,
    ``upp`` from r to l.
    """

    v: Direction
    l: Point
    r: Point
    upp: tuple
    low: tuple


def arc_decomposition(points: Union[PointSet, HullDecomposition, Iterable[Coords]],
                      v: Direction) -> ArcDecomposition:
    """Split the boundary of a non-collinear set by the generic direction v.

    With no hull edge parallel to v, ``l`` and ``r`` are the unique least
    and greatest ``w . p`` on the boundary cycle, w being v turned a quarter
    turn clockwise. The cycle runs CCW from l to r under the set (``low``)
    and from r back to l over it (``upp``).
    """
    decomp = points if isinstance(points, HullDecomposition) else classify_points(points)
    for run in decomp.edge_runs:
        a, b = run[0], run[-1]
        if (b.x - a.x) * v.dy - (b.y - a.y) * v.dx == 0:
            raise DirectionNotGeneric(
                f"({v.dx}, {v.dy}) is parallel to hull edge {tuple(a)} -> {tuple(b)}"
            )
    w = v.perp_cw()
    cyc = decomp.cycle
    keys = [w.dot(p) for p in cyc]
    li = keys.index(min(keys))
    m = (keys.index(max(keys)) - li) % len(cyc)
    ring = cyc[li:] + cyc[:li]
    return ArcDecomposition(v=v, l=ring[0], r=ring[m], upp=ring[m + 1:], low=ring[1:m])


def split_facts(arc: ArcDecomposition) -> Tuple[tuple, tuple]:
    """The integers the arc checks read off the boundary's splits under
    ``arc.v`` and its negation: for each split, (|upp|, |low|, whether
    ``low`` lies on the segment [l, r], and the two components of r - l).
    l and r are the unique extremes across v, so a point on their line lies
    between them. Negating v swaps l with r and ``upp`` with ``low``, so one
    decomposition gives both tuples."""
    l, r, upp, low = arc.l, arc.r, arc.upp, arc.low
    sx, sy = r.x - l.x, r.y - l.y
    return ((len(upp), len(low), _collinear((l, r, *low)), sx, sy),
            (len(low), len(upp), _collinear((r, l, *upp)), -sx, -sy))


def _collinear(pts: Sequence[Coords]) -> bool:
    if len(pts) <= 2:
        return True
    (x0, y0), (x1, y1) = pts[0], pts[1]
    dx, dy = x1 - x0, y1 - y0
    return all(dx * (y - y0) == dy * (x - x0) for x, y in pts[2:])


def _common_step(pts: Sequence[Point]) -> Optional[tuple]:
    """The one difference of consecutive points in the given order, or None
    when there are several (or none)."""
    steps = {(q.x - p.x, q.y - p.y) for p, q in zip(pts, pts[1:])}
    return steps.pop() if len(steps) == 1 else None
