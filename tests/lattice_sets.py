"""Hypothesis strategies for large or degenerate lattice point sets, and
the reference Minkowski sum.

They feed the differential tests that hold the near-linear kernels
(``classify_points``, ``triangulate_explicit``) and the packed-grid sum
kernels (``minkowski_sum``, ``sum_decomposition``) to their references.
"""

from hypothesis import assume
from hypothesis import strategies as st

from planesum import convex_hull, lattice_points_in_hull


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
