"""Minkowski sumsets of finite planar point sets and translation normal forms.

``sum_decomposition`` splits A + B into hull boundary and interior. A sum
kept as a set is split as ``classify_points`` splits it, by the monotone
chain over its sorted sums. On the packed grid the hull of A + B is the
Minkowski sum of the hull polygons, whose edge cycle is the summands' edge
cycles merged by angle, parallel edges added (de Berg et al., *Computational
Geometry*, ch. 13); its lattice points are walked in gcd steps, and those in
A + B are the boundary. ``classify_points(minkowski_sum(a, b))`` is the
reference the tests hold both paths to.

Both ``sum_decomposition`` and ``minkowski_sum`` find A + B as a packed
grid where it is dense, and ``_grid`` alone decides where that is and lays
the grid out. Each summand becomes one int with a field of
w = min(|A|, |B|).bit_length() + 1 bits per cell of the sum's bounding box,
cells in column-major order; the product of the two ints counts every
cell's representations a + b, which w bits hold without a carry, and one
add, one shift and one mask leave one bit per cell of A + B. ``|A + B|`` is
then a popcount, and column-major order is lexicographic order, so
``_decode`` reads the sums off sorted. Where the grid would cost more than
``_BITS_PER_PRODUCT`` bits per product |A||B|, as for the far-apart sets
of a separated pair, both keep a set of the |A||B| sums instead.

On the grid the hull walk depends on the summands' hull shapes alone: the
edge tables of A and B and the field width w fix the grid's column height,
its cell count and the cell of every lattice point on the sum's hull,
counted from the box corner. A caller that sums many pairs passes a dict
``walks`` to ``sum_decomposition``, in which each (edge table of A, edge
table of B, w) keeps ``_grid``'s layout and the walk as one mask of those
cells. A pair then costs the product of the two summands' packed ints,
which ``HullDecomposition.packed`` memoises per set and layout, one AND
and two popcounts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count
from typing import Iterator, List, Optional, Sequence, Tuple

from .geometry import (HullDecomposition, Point, PointSet, _boundary_chain, _box,
                       _left_turns, _pack)


def minkowski_sum(a: PointSet, b: PointSet) -> PointSet:
    """All pairwise sums {p + q : p in a, q in b}."""
    if not len(a) or not len(b):
        raise ValueError("minkowski_sum needs nonempty sets")
    pa, pb = a.points, b.points
    a_box, b_box = _box(pa), _box(pb)
    grid = _grid(a_box, b_box, len(pa), len(pb))
    if grid is None:
        # one Point per distinct sum, not per product, made after the sort,
        # which compares plain tuples faster
        sums = sorted(_sums(pa, pb))
    else:
        h, w, _, ones, fill = grid
        bits = (_pack(pa, a_box, h, w) * _pack(pb, b_box, h, w) + fill) >> w - 1 & ones
        sums = _decode(bits, w, h, a_box, b_box)
    return PointSet._sorted(map(Point._make, sums))


# The packed grid costs a few bignum operations on its w * cells bits, the
# set an insert per product |A||B|, and in sum_decomposition a sort and a
# boundary chain of the sums too. Timed on random pairs of 3 to 40 points
# from square grids of side 3 to 60 (one Xeon core, Python 3.11, summands
# packed per call): at 12 to 16 bits per product the grid took 0.85x the
# set's time in minkowski_sum, broke even at 20 to 24 and took 1.5x at 48
# to 64; in sum_decomposition it took 0.13x and stayed faster past 96.
# Saturated pairs need under 3 bits per product, separated pairs over 50.
_BITS_PER_PRODUCT = 16

_ZERO = bytes.maketrans(b"0", b"\0")  # '0' to a false byte; '1' stays true


def _grid(a_box: tuple, b_box: tuple, na: int, nb: int) -> Optional[tuple]:
    """(h, w, w cells, ones, fill) for the packed grid of the bounding box
    of A + B, or None when that grid costs more than ``_BITS_PER_PRODUCT``
    bits per product |A||B| and the sum is kept as a set.

    Cell (x, y) of the box is cell k = (x - x0) h + (y - y0), column-major
    with column height h, and owns the w bits from w k. A set packs to the
    int with a 1 at the low bit of each of its cells, so the product of the
    two ints counts in each cell the representations a + b of that cell. A
    cell has at most min(|A|, |B|) of them, and w = min(|A|, |B|).bit_length()
    + 1 bits hold that count c with the top bit clear, so no field carries
    into the next. ``fill`` adds 2^(w-1) - 1 to every field, which sets its
    top bit exactly when c >= 1; one shift by w - 1 and an AND with
    ``ones``, a 1 at the low bit of each field, keep that bit alone, at
    bit w k.
    """
    ax0, ay0, ax1, ay1 = a_box
    bx0, by0, bx1, by1 = b_box
    h = ay1 - ay0 + by1 - by0 + 1
    w = min(na, nb).bit_length() + 1
    size = w * (ax1 - ax0 + bx1 - bx0 + 1) * h
    if size > _BITS_PER_PRODUCT * na * nb:
        return None
    ones = ((1 << size) - 1) // ((1 << w) - 1)
    return h, w, size, ones, ones * ((1 << w - 1) - 1)


def _decode(bits: int, w: int, h: int, a_box: tuple, b_box: tuple,
            ) -> Iterator[Tuple[int, int]]:
    """The points (x, y) of the cells k with bit w k of ``bits`` set, in
    increasing k, which is lexicographic order: the binary string read
    backwards in steps of w holds bit w k at k."""
    x0, y0 = a_box[0] + b_box[0], a_box[1] + b_box[1]
    cells = compress(count(), format(bits, "b")[::-w].encode().translate(_ZERO))
    return ((x0 + k // h, y0 + k % h) for k in cells)


def _sums(a: Sequence[Tuple[int, int]], b: Sequence[Tuple[int, int]]) -> set:
    """The set of the sums a + b, as plain int tuples."""
    return {(ax + bx, ay + by) for ax, ay in a for bx, by in b}


class SumDecomposition:
    """Hull boundary and interior of A + B, as ``sum_decomposition`` finds them.

    ``size`` is |A + B|, ``b`` and ``i`` the boundary and interior counts.
    ``grid`` is (bits, w, h) where the sum was found on the packed grid: bit
    w k of ``bits`` is set exactly when cell k of the sum's bounding box,
    column-major with column height h and w bits per cell, is a boundary
    point of A + B; it is None where the sum was kept as a set.
    ``hull_vertices``, CCW from the lexicographically smallest as
    ``classify_points`` gives them, and ``boundary`` are plain ``(x, y)``
    tuples, which compare and hash equal to ``Point``s. The set path sets
    both; on the grid they are built on first read.
    """

    def __init__(self, size: int, b: int, grid: Optional[tuple],
                 da: HullDecomposition, db: HullDecomposition):
        self.size = size
        self.b = b
        self.i = size - b
        self.grid = grid
        self._summands = da, db

    @cached_property
    def hull_vertices(self) -> tuple:
        return _left_turns(_hull_walk(*self._summands))

    @cached_property
    def boundary(self) -> frozenset:
        da, db = self._summands
        return frozenset(_decode(*self.grid, da.box, db.box))


def sum_decomposition(da: HullDecomposition, db: HullDecomposition,
                      walks: Optional[dict] = None) -> SumDecomposition:
    """Boundary/interior split of A + B from the decompositions of A and B.

    ``walks`` is a memo that the caller owns and passes to every call: per
    (edge table of A, edge table of B, field width), ``_grid``'s layout and
    a mask with a 1 at bit w k for each lattice point k on the hull of
    A + B, whether in A + B or not. Translating A or B translates the sum's
    box and hull alike, so the two edge tables and w fix the entry. Without
    a memo each grid call walks the hull afresh; a set sum walks nothing.
    """
    na, nb = da.size, db.size
    key = (da.edge_table, db.edge_table, min(na, nb).bit_length() + 1)
    walk = None if walks is None else walks.get(key)
    # pairs that share an entry differ in |A||B|, so a hit checks the rule
    # again, and a pair too sparse for the entry takes the set path as
    # ``_grid`` would send it there
    if walk is None or walk[2] > _BITS_PER_PRODUCT * na * nb:
        grid = _grid(da.box, db.box, na, nb)
        if grid is None:
            return _set_sum(da, db)
        h, w = grid[:2]
        corner = da.box[0] + db.box[0], da.box[1] + db.box[1]
        walk = (*grid, _pack(_hull_walk(da, db), corner, h, w))
        if walks is not None:
            walks[key] = walk
    h, w, _, ones, fill, hull = walk
    bits = (da.packed(h, w) * db.packed(h, w) + fill) >> w - 1 & ones
    boundary = bits & hull
    return SumDecomposition(bits.bit_count(), boundary.bit_count(), (boundary, w, h),
                            da, db)


def _set_sum(da: HullDecomposition, db: HullDecomposition) -> SumDecomposition:
    """``sum_decomposition`` with A + B kept as a set of its sums: the
    boundary chain of the sorted sums, at a cost set by |A||B|, not by coordinates."""
    pts = sorted(_sums(da.points.points, db.points.points))
    cycle = _boundary_chain(pts)
    d = SumDecomposition(len(pts), len(cycle), None, da, db)
    d.hull_vertices = _left_turns(cycle)
    d.boundary = frozenset(cycle)
    return d


def _hull_walk(da: HullDecomposition, db: HullDecomposition) -> List[Tuple[int, int]]:
    """The lattice points on the hull of A + B, in A + B or not, as one CCW
    cycle from its smallest vertex: a step per point, so only the grid,
    whose density rule bounds the box, walks it."""
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
    cycle = []
    for sx, sy, g in merged:
        for _ in range(g):
            cycle.append((x, y))
            x += sx
            y += sy
    return cycle


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
