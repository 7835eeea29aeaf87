import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_sets import (
    full_column_sets,
    is_lattice_saturated,
    orientation,
    saturated_sets,
    twice_hull_area,
)
from planesum import (
    CollinearInput,
    Point,
    PointSet,
    Triangle,
    classify_points,
    convex_hull,
    lattice_points_in_hull,
    minkowski_sum,
    tr_euler,
    triangulate_explicit,
)

TRI = PointSet([(0, 0), (1, 0), (0, 1)])

coords = st.integers(min_value=-12, max_value=12)
points = st.tuples(coords, coords)
point_lists = st.lists(points, min_size=3, max_size=18)
# sums like those ``planesum oracle`` gets: long collinear runs on hull edges
small_lists = st.lists(points, min_size=1, max_size=8)
sums = st.builds(lambda a, b: list(minkowski_sum(PointSet(a), PointSet(b))),
                 st.one_of(small_lists, saturated_sets(max_span=8)),
                 st.one_of(small_lists, saturated_sets(max_span=8)))


def _triangulate_full_scan(points):
    """Lexicographic insertion into a fringe kept as one CCW list, with every
    fringe edge tested against every new point. The reference the two fringe
    chains of ``triangulate_explicit`` are held to, triangle for triangle."""

    def ccw(a, b, c):
        return Triangle(a, b, c) if orientation(a, b, c) > 0 else Triangle(a, c, b)

    pts = list(PointSet(points).points)
    if len(pts) < 3 or all(orientation(pts[0], pts[1], p) == 0 for p in pts[2:]):
        raise CollinearInput("triangulation needs a non-collinear set")
    k = 2
    while orientation(pts[0], pts[1], pts[k]) == 0:
        k += 1
    apex = pts[k]
    triangles = [ccw(pts[j], pts[j + 1], apex) for j in range(k - 1)]
    if orientation(pts[0], pts[1], apex) > 0:
        fringe = pts[:k] + [apex]
    else:
        fringe = list(reversed(pts[:k])) + [apex]
    for p in pts[k + 1:]:
        n = len(fringe)
        visible = [j for j in range(n) if orientation(fringe[j], fringe[(j + 1) % n], p) < 0]
        assert visible and len(visible) < n
        vis = set(visible)
        start = next(j for j in visible if (j - 1) % n not in vis)
        end = next(j for j in visible if (j + 1) % n not in vis)
        j = start
        while True:
            triangles.append(ccw(fringe[j], p, fringe[(j + 1) % n]))
            if j == end:
                break
            j = (j + 1) % n
        new_fringe = [p]
        j = (end + 1) % n
        while True:
            new_fringe.append(fringe[j])
            if j == start:
                break
            j = (j + 1) % n
        fringe = new_fringe
    return tuple(triangles)


def _lattice_points_full_scan(hull_vertices):
    """Every lattice point of the bounding box that ``orientation`` puts on
    or left of every edge, built as a ``Point`` before the test. The
    reference ``lattice_points_in_hull`` is held to, point for point."""
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


small = st.integers(min_value=-6, max_value=6)
# the polygons lattice_points_in_hull may get: hulls of any size, 1- and
# 2-vertex ones included; collinear vertex lists; and any vertex list at all
polygons = st.one_of(
    st.lists(points, min_size=1, max_size=8).map(convex_hull),
    st.builds(lambda x0, y0, dx, dy, ks: [(x0 + k * dx, y0 + k * dy) for k in ks],
              small, small, st.integers(-3, 3), st.integers(-3, 3),
              st.lists(st.integers(-3, 3), min_size=1, max_size=5)),
    st.lists(st.tuples(small, small), min_size=1, max_size=6),
)


def _twice_area(t):
    return (t.b.x - t.a.x) * (t.c.y - t.a.y) - (t.b.y - t.a.y) * (t.c.x - t.a.x)


def _assert_valid_triangulation(pts):
    """Triangle count, vertex coverage, area additivity, and interior emptiness."""
    s = PointSet(pts)
    d = classify_points(s)
    t = triangulate_explicit(s)

    # every input point appears as a vertex, and only input points do
    used = {v for tri in t.triangles for v in tri}
    assert used == set(s.points)

    total = 0
    for tri in t.triangles:
        area2 = _twice_area(tri)
        assert area2 > 0  # CCW and non-degenerate
        total += area2
        # no other point lands inside the triangle or on an edge interior
        for p in s:
            if p in tri:
                continue
            o_ab = orientation(tri.a, tri.b, p)
            o_bc = orientation(tri.b, tri.c, p)
            o_ca = orientation(tri.c, tri.a, p)
            assert min(o_ab, o_bc, o_ca) < 0
    assert total == twice_hull_area(s)
    assert len(t) == tr_euler(d)
    return t


class TestCountFormula:
    def test_plain_triangle(self):
        assert tr_euler(classify_points(TRI)) == 1

    def test_triangle_doubled(self):
        d = minkowski_sum(TRI, TRI)
        assert tr_euler(classify_points(d)) == 4

    def test_square_with_center(self):
        s = PointSet([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert tr_euler(classify_points(s)) == 4

    def test_size_three_simplex(self):
        s = PointSet([(x, y) for x in range(4) for y in range(4) if x + y <= 3])
        assert tr_euler(classify_points(s)) == 9


class TestExplicitTriangulation:
    def test_single_triangle(self):
        t = triangulate_explicit(TRI)
        assert len(t) == 1

    def test_collinear_raises(self):
        with pytest.raises(CollinearInput):
            triangulate_explicit([(0, 0), (2, 2), (5, 5)])

    def test_collinear_prefix_is_handled(self):
        # first three points in lexicographic order share a vertical line
        t = _assert_valid_triangulation([(0, 0), (0, 1), (0, 2), (1, 0)])
        assert len(t) == 2

    def test_collinear_prefix_below_apex(self):
        _assert_valid_triangulation([(0, 0), (0, -1), (0, -2), (1, 0)])

    @pytest.mark.parametrize("pts", [
        [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)],  # horizontal prefix, apex above
        [(0, 0), (1, 0), (2, 0), (3, -1), (4, 1)],  # horizontal prefix, apex below
        [(0, 0), (1, 2), (2, 4), (3, 7), (4, 5), (5, 0)],  # sloped prefix, apex above
    ])
    def test_collinear_prefix_both_sides(self, pts):
        # a vertical prefix always has its apex to the right, hence below it
        t = _assert_valid_triangulation(pts)
        assert t.triangles == _triangulate_full_scan(pts)

    def test_point_flush_on_fringe_segment(self):
        # (2, 1) lies on the segment from (1, 0) to (3, 2) of an earlier hull
        _assert_valid_triangulation([(1, 0), (3, 2), (2, 1), (0, 5), (4, 0)])

    def test_interior_points_are_used(self):
        s = [(0, 0), (4, 0), (0, 4), (4, 4), (1, 1), (2, 2), (3, 1)]
        t = _assert_valid_triangulation(s)
        assert len(t) == 4 + 2 * 3 - 2

    @given(point_lists)
    @settings(max_examples=120, deadline=None)
    def test_validity_properties(self, pts):
        try:
            _assert_valid_triangulation(pts)
        except CollinearInput:
            pass

    @given(saturated_sets(max_span=16))
    @settings(max_examples=40, deadline=None)
    def test_validity_on_saturated_sets(self, pts):
        # the pairwise emptiness check is quadratic, hence the smaller span
        _assert_valid_triangulation(pts)

    @given(st.one_of(point_lists, saturated_sets(), full_column_sets(), sums))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_scan_reference(self, pts):
        try:
            expected = _triangulate_full_scan(pts)
        except CollinearInput:
            with pytest.raises(CollinearInput):
                triangulate_explicit(pts)
            return
        assert triangulate_explicit(pts).triangles == expected

    @given(point_lists, points)
    @settings(max_examples=60, deadline=None)
    def test_count_is_translation_invariant(self, pts, t):
        s = PointSet(pts)
        try:
            n1 = len(triangulate_explicit(s))
        except CollinearInput:
            return
        n2 = len(triangulate_explicit(s.translate(t)))
        assert n1 == n2

    @given(point_lists)
    @settings(max_examples=60, deadline=None)
    def test_count_is_unimodular_invariant(self, pts):
        # shears preserve b, i, and hence the count
        try:
            s = PointSet(pts)
            n1 = len(triangulate_explicit(s))
        except CollinearInput:
            return
        sheared = PointSet((p.x + p.y, p.y) for p in s)
        assert len(triangulate_explicit(sheared)) == n1
        rotated = PointSet((-p.y, p.x) for p in s)
        assert len(triangulate_explicit(rotated)) == n1


class TestLatticeSaturation:
    def test_saturated_simplex(self):
        s = [(x, y) for x in range(4) for y in range(4) if x + y <= 3]
        assert is_lattice_saturated(s)

    def test_missing_interior_point(self):
        s = [(0, 0), (2, 0), (0, 2), (2, 2)]
        assert not is_lattice_saturated(s)  # (1, 1) and edge midpoints absent

    def test_hull_sweep_matches_membership(self):
        hull = [(0, 0), (3, 0), (3, 3), (0, 3)]
        pts = lattice_points_in_hull(hull)
        assert len(pts) == 16

    def test_skinny_triangle_sweep(self):
        pts = lattice_points_in_hull([(0, 0), (5, 1), (1, 1)])
        assert set(pts) == {(0, 0), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)}

    def test_empty_polygon_raises(self):
        with pytest.raises(ValueError):
            lattice_points_in_hull([])

    @given(polygons)
    @example([(2, 3)])
    @example([(1, 1), (1, 1)])
    @example([(0, 0), (4, 2)])
    @example([(4, 2), (0, 0), (2, 1)])
    @example([(0, 0), (0, 3), (3, 3), (3, 0)])  # clockwise
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan(self, polygon):
        got = lattice_points_in_hull(polygon)
        assert got == _lattice_points_full_scan(polygon)
        assert all(type(p) is Point for p in got)

    @given(point_lists)
    @settings(max_examples=60, deadline=None)
    def test_pick_formula_on_saturated_sets(self, pts):
        # for a saturated set, twice the hull area equals b + 2i - 2
        hull = convex_hull(pts)
        if len(hull) < 3:
            return
        filled = PointSet(lattice_points_in_hull(hull))
        d = classify_points(filled)
        assert twice_hull_area(filled) == tr_euler(d)
        assert is_lattice_saturated(filled)
