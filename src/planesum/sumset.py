"""Minkowski sumsets of finite planar point sets and translation normal forms.

``sum_decomposition`` splits A + B into hull boundary and interior from the
summands' decompositions alone. The hull of A + B is the Minkowski sum of
the two hull polygons, whose edge cycle is the two summands' edge cycles
merged by angle, with parallel edges added (de Berg et al., *Computational
Geometry*, ch. 13). The lattice points of a hull edge are walked in gcd
steps, and each one that is in A + B is a boundary point. Every other point
of A + B is interior. ``classify_points(minkowski_sum(a, b))`` decides the
same split from scratch and is the reference the tests hold the kernel to.

Both ``sum_decomposition`` and ``minkowski_sum`` find A + B as a packed
grid where it is dense (``_grid_sum``). Each summand becomes one int with a
field of w = min(|A|, |B|).bit_length() + 1 bits per cell of the sum's
bounding box, cells in column-major order; the product of the two ints
counts every cell's representations a + b, which w bits hold without a
carry, and one add, one shift and one mask leave one bit per cell of
A + B. ``|A + B|`` is then a popcount, a hull-edge point a bit test, and
column-major order is lexicographic order, so ``minkowski_sum`` decodes
the sums sorted. Where the grid would cost more than ``_BITS_PER_PRODUCT``
bits per product |A||B|, as for the far-apart sets of a separated pair,
both keep a set of the |A||B| sums instead.
"""

from __future__ import annotations

from itertools import compress, count
from typing import NamedTuple, Optional, Sequence, Tuple

from .geometry import HullDecomposition, Point, PointSet, _box


def minkowski_sum(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise sums {p + q : p in a, q in b}."""
    if not len(a) or not len(b):
        raise ValueError("minkowski_sum needs nonempty sets")
    grid = _grid_sum(a.points, b.points, _box(a.points), _box(b.points))
    if grid is None:
        # distinct sums as int tuples first: one Point per sum, not per
        # product, made after the sort, which compares plain tuples faster
        sums = {(px + qx, py + qy) for px, py in a.points for qx, qy in b.points}
        return PointSet._sorted(map(Point._make, sorted(sums)))
    bits, w, h, x0, y0 = grid
    # the binary string read backwards in steps of w holds bit w k at k, and
    # column-major cell order is lexicographic order: no sort
    cells = compress(count(), format(bits, "b")[::-w].encode().translate(_ZERO))
    return PointSet._sorted([Point(x0 + k // h, y0 + k % h) for k in cells])


# The packed grid costs a few bignum operations on its w * cells bits, the
# set one insert per product |A||B|, so the grid pays off only while the
# sum's bounding box is dense in sums. Timed on random pairs of 3 to 40
# points from square grids of side 3 to 60 (one core, Python 3.11): at 14
# to 16 bits per product the grid took 0.6x the set's time in
# sum_decomposition and 0.9x in minkowski_sum; they broke even at 24 to 32
# and at 20 to 28 bits, and at 48 to 64 the grid took 1.5x to 2x as long.
# Saturated pairs need under 3 bits per product, separated pairs over 50.
_BITS_PER_PRODUCT = 16

_ZERO = bytes.maketrans(b"0", b"\0")  # '0' to a false byte; '1' stays true


def _grid_sum(a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]],
              a_box: tuple, b_box: tuple) -> Optional[tuple]:
    """A + B as one int on the grid of its bounding box, or None when that
    grid costs more than ``_BITS_PER_PRODUCT`` bits per product |A||B|.

    Cell (x, y) of the box is cell k = (x - x0) h + (y - y0), column-major
    with column height h, and owns the w bits from w k. A set packs to the
    int with a 1 at the low bit of each of its cells, so the product of the
    two ints counts in each cell the representations a + b of that cell. A
    cell has at most min(|A|, |B|) of them, and w = min(|A|, |B|).bit_length()
    + 1 bits hold that count c with the top bit clear, so no field carries
    into the next. Adding 2^(w-1) - 1 to every field sets its top bit exactly
    when c >= 1; one shift and one mask keep that bit alone, at bit w k.
    Returns (bits, w, h, x0, y0): bit w k of ``bits`` is set exactly when
    cell k is in A + B.
    """
    ax0, ay0, ax1, ay1 = a_box
    bx0, by0, bx1, by1 = b_box
    h = ay1 - ay0 + by1 - by0 + 1
    cells = (ax1 - ax0 + bx1 - bx0 + 1) * h
    w = min(len(a), len(b)).bit_length() + 1
    if w * cells > _BITS_PER_PRODUCT * len(a) * len(b):
        return None
    pa = pb = 0
    for x, y in a:
        pa |= 1 << w * ((x - ax0) * h + y - ay0)
    for x, y in b:
        pb |= 1 << w * ((x - bx0) * h + y - by0)
    ones = ((1 << w * cells) - 1) // ((1 << w) - 1)  # a 1 at the low bit of each field
    bits = (pa * pb + ones * ((1 << w - 1) - 1)) >> w - 1 & ones
    return bits, w, h, ax0 + bx0, ay0 + by0


class SumDecomposition(NamedTuple):
    """Hull boundary and interior of A + B, as ``sum_decomposition`` finds them.

    Points are plain ``(x, y)`` tuples, which compare and hash equal to
    ``Point``s. ``size`` is |A + B|. ``hull_vertices`` is in the order that
    ``classify_points`` gives it: CCW from the lexicographically smallest
    vertex. ``b`` and ``i`` are the boundary and interior counts.
    """

    size: int
    hull_vertices: tuple
    boundary: frozenset
    b: int
    i: int


def sum_decomposition(da: HullDecomposition, db: HullDecomposition) -> SumDecomposition:
    """Boundary/interior split of A + B from the decompositions of A and B."""
    grid = _grid_sum(da.points.points, db.points.points, da.box, db.box)
    if grid is None:
        pts = {(ax + bx, ay + by)
               for ax, ay in da.points.points for bx, by in db.points.points}
        size = len(pts)
    else:
        bits, w, h, x0, y0 = grid
        size = bits.bit_count()
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
    edge_points = []  # the lattice points strictly inside the hull's edges
    for sx, sy, g in merged:
        vertices.append((x, y))  # a vertex of A + B is a sum of vertices
        for _ in range(g - 1):
            x += sx
            y += sy
            edge_points.append((x, y))
        x += sx
        y += sy
    if grid is None:
        boundary = [p for p in edge_points if p in pts]
    else:
        boundary = [p for p in edge_points if bits >> w * ((p[0] - x0) * h + p[1] - y0) & 1]
    boundary.extend(vertices)
    b = len(boundary)
    return SumDecomposition(
        size=size,
        hull_vertices=tuple(vertices),
        boundary=frozenset(boundary),
        b=b,
        i=size - b,
    )


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
