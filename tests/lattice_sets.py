"""Hypothesis strategies for large or degenerate lattice point sets, and
the plain references the tests hold the package to.

The strategies feed the differential tests that hold the near-linear
kernels (``classify_points``, ``triangulate_explicit``) and the packed-grid
sum kernels (``minkowski_sum``, ``sum_decomposition``) to their references.
The reference functions decide each fact the direct way, by a scan of every
point or every product, and none of them is part of the package.
"""

from hypothesis import assume
from hypothesis import strategies as st

from planesum import CollinearInput, PointSet, convex_hull, lattice_points_in_hull


@st.composite
def saturated_sets(draw, max_span: int = 30) -> list:
    """Every lattice point of a random polygon with corners in [0, span]^2:
    long collinear runs on the hull and a large interior."""
    span = draw(st.integers(min_value=1, max_value=max_span))
    c = st.integers(min_value=0, max_value=span)
    hull = convex_hull(draw(st.lists(st.tuples(c, c), min_size=3, max_size=8)))
    assume(len(hull) >= 3)
    return lattice_points_in_hull(hull)


@st.composite
def full_column_sets(draw) -> list:
    """Random points plus every lattice point of the first and last columns
    of their bounding box: long vertical runs at both ends of the
    lexicographic order."""
    c = st.integers(min_value=-12, max_value=12)
    pts = draw(st.lists(st.tuples(c, c), min_size=2, max_size=25))
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    return pts + [(x, y) for x in (min(xs), max(xs)) for y in range(min(ys), max(ys) + 1)]


def sums_by_set(a, b) -> set:
    """A + B as a set of ``(x, y)`` tuples, one insert per product |A||B|:
    the reference for the packed grid of ``minkowski_sum`` and
    ``sum_decomposition``."""
    return {(px + qx, py + qy) for px, py in a for qx, qy in b}


def unique_representation(a, b) -> bool:
    """Whether every point of A + B has exactly one representation a + b."""
    return len(sums_by_set(a, b)) == len(a) * len(b)


def orientation(p, q, r) -> int:
    """Sign of (q - p) x (r - p): +1 left turn, -1 right turn, 0 collinear."""
    det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (det > 0) - (det < 0)


def boundary_count(points) -> int:
    """How many points of a non-collinear set lie on its hull boundary.

    Andrew's monotone chain over the points in lexicographic order, popping
    only at strict right turns, so that every point on a hull edge stays in
    one of the two chains: the lower chain keeps the right vertical edge,
    the upper chain the left one, and both hold the first and last point.
    """
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) < 0:
                out.pop()
            out.append(p)
        return out

    return len(chain(pts)) + len(chain(reversed(pts))) - 2


def support_set(points, u) -> PointSet:
    """Points of the set maximizing the dot product with the direction u."""
    ps = PointSet(points)
    best = max(u.dot(p) for p in ps)
    return PointSet(p for p in ps if u.dot(p) == best)


def is_ap_same_difference(c, d) -> bool:
    """Whether two collinear sets are both single points or arithmetic
    progressions with one common difference, taken in lexicographic order."""
    cs, ds = PointSet(c).points, PointSet(d).points
    if len(cs) == 1 or len(ds) == 1:
        return True
    steps = {(q.x - p.x, q.y - p.y) for s in (cs, ds) for p, q in zip(s, s[1:])}
    return len(steps) == 1


def twice_hull_area(points) -> int:
    """Twice the area of the convex hull (shoelace over the CCW hull cycle)."""
    hull = convex_hull(points)
    if len(hull) < 3:
        raise CollinearInput("hull spans no area")
    return sum(p.x * q.y - q.x * p.y for p, q in zip(hull, hull[1:] + hull[:1]))


def is_lattice_saturated(points) -> bool:
    """Whether the set contains every lattice point of its convex hull."""
    ps = PointSet(points)
    hull = convex_hull(ps)
    if len(hull) < 3:
        raise CollinearInput("saturation is defined for non-collinear sets")
    return all(p in ps for p in lattice_points_in_hull(hull))
