import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_sets import (
    full_column_sets,
    is_ap_same_difference,
    orientation,
    saturated_sets,
    support_set,
)
from planesum import (
    CollinearInput,
    Direction,
    DirectionNotGeneric,
    Point,
    PointSet,
    arc_decomposition,
    classify_points,
    convex_hull,
    generic_direction,
    interior_count,
    minkowski_sum,
    parse_point_set,
)

TRI = PointSet([(0, 0), (1, 0), (0, 1)])
TRI_DOUBLE = PointSet([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])

coords = st.integers(min_value=-50, max_value=50)
points = st.tuples(coords, coords)
# a small box puts many points on hull edges and inside
near = st.integers(min_value=-3, max_value=3)
small_point_lists = st.lists(st.tuples(near, near), min_size=3, max_size=30)


class TestOrientation:
    def test_left_turn(self):
        assert orientation((0, 0), (1, 0), (0, 1)) == 1

    def test_right_turn(self):
        assert orientation((0, 0), (0, 1), (1, 0)) == -1

    def test_collinear(self):
        assert orientation((0, 0), (1, 1), (3, 3)) == 0

    def test_large_coordinates_stay_exact(self):
        m = 2**20
        assert orientation((0, 0), (m, 1), (2 * m, 2)) == 0
        assert orientation((0, 0), (m, 1), (2 * m, 3)) == 1

    @given(points, points, points)
    def test_swap_flips_sign(self, p, q, r):
        assert orientation(p, q, r) == -orientation(p, r, q)

    @given(points, points, points, points)
    def test_translation_invariant(self, p, q, r, t):
        shifted = [(v[0] + t[0], v[1] + t[1]) for v in (p, q, r)]
        assert orientation(p, q, r) == orientation(*shifted)


class TestPointSet:
    def test_sorted_and_deduped(self):
        s = PointSet([(1, 0), (0, 0), (1, 0), (0, 1)])
        assert s.points == (Point(0, 0), Point(0, 1), Point(1, 0))

    def test_membership_accepts_tuples(self):
        s = PointSet([(0, 0), (2, 3)])
        assert (2, 3) in s
        assert (1, 1) not in s

    def test_order_is_lexicographic(self):
        assert PointSet([(0, 5)]) < PointSet([(1, 0)])


class TestConvexHull:
    def test_triangle(self):
        assert convex_hull(TRI) == (Point(0, 0), Point(1, 0), Point(0, 1))

    def test_single_point(self):
        assert convex_hull([(3, 4)]) == (Point(3, 4),)

    def test_collinear_gives_extremes(self):
        assert convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)]) == (Point(0, 0), Point(3, 3))

    def test_edge_midpoints_are_not_vertices(self):
        hull = convex_hull([(0, 0), (2, 0), (0, 2), (1, 0), (0, 1), (1, 1)])
        assert hull == (Point(0, 0), Point(2, 0), Point(0, 2))

    @given(st.lists(points, min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_hull_is_ccw_and_contains_all(self, pts):
        hull = convex_hull(pts)
        n = len(hull)
        if n < 3:
            return
        for k in range(n):
            a, b = hull[k], hull[(k + 1) % n]
            assert any(orientation(a, b, p) != 0 for p in pts)
            for p in pts:
                assert orientation(a, b, p) >= 0

    @given(st.lists(points, min_size=3, max_size=25))
    @settings(max_examples=60)
    def test_hull_of_hull_is_fixed_point(self, pts):
        hull = convex_hull(pts)
        assert convex_hull(hull) == hull


def _hull_by_orientation(points):
    """The orientation()-based monotone chain that ``convex_hull`` ran before
    its integer chain: the reference that chain is held to."""
    pts = sorted({Point(p[0], p[1]) for p in points})
    if len(pts) == 1:
        return (pts[0],)

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and orientation(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return tuple(lower[:-1] + upper[:-1])


class TestIntegerHull:
    @given(st.one_of(st.lists(points, min_size=1, max_size=30), small_point_lists,
                     saturated_sets(), full_column_sets()))
    @settings(max_examples=150, deadline=None)
    def test_convex_hull_matches_orientation_chain(self, pts):
        hull = convex_hull(pts)
        assert hull == _hull_by_orientation(pts)
        assert all(type(v) is Point for v in hull)

    @given(st.one_of(st.lists(points, min_size=3, max_size=25), small_point_lists,
                     saturated_sets(), full_column_sets()),
           points)
    @settings(max_examples=200, deadline=None)
    def test_interior_count_matches_classify_points(self, pts, shift):
        moved = [(x + shift[0], y + shift[1]) for x, y in pts]
        try:
            d = classify_points(pts)
        except CollinearInput:
            assert interior_count(pts) == interior_count(moved) == 0
            return
        assert interior_count(pts) == interior_count(moved) == d.i
        assert interior_count(d.points) == d.i

    def test_interior_count_examples(self):
        assert interior_count(TRI) == interior_count(TRI_DOUBLE) == 0
        assert interior_count([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]) == 1
        for n, inside in ((3, 1), (4, 4)):
            assert interior_count([(x, y) for x in range(n) for y in range(n)]) == inside
        assert interior_count([(0, 0), (1, 1), (2, 2)]) == 0


def _classify_by_orientation(points):
    """The classification that ``classify_points`` ran before its boundary
    chain: a point is interior when it is strictly left of every hull edge
    (n x h orientation tests). Returns (hull_vertices, boundary, interior)."""
    ps = PointSet(points)
    hull = convex_hull(ps)
    if len(hull) < 3:
        raise CollinearInput(f"{len(ps)} points spanning no area")
    n = len(hull)
    boundary, interior = [], []
    for p in ps:
        strict = all(orientation(hull[k], hull[(k + 1) % n], p) != 0 for k in range(n))
        (interior if strict else boundary).append(p)
    return hull, PointSet(boundary), PointSet(interior)


class TestClassifyPoints:
    def test_triangle_is_all_boundary(self):
        d = classify_points(TRI)
        assert (d.b, d.i) == (3, 0)
        assert len(d.interior) == 0

    def test_simplex_of_size_three(self):
        # every lattice point with coordinate sum at most 3
        pts = [(x, y) for x in range(4) for y in range(4) if x + y <= 3]
        d = classify_points(pts)
        assert (d.b, d.i) == (9, 1)
        assert d.interior == PointSet([(1, 1)])

    def test_point_on_hull_edge_is_boundary(self):
        d = classify_points([(0, 0), (4, 0), (0, 4), (2, 0), (1, 1)])
        assert (2, 0) in d.boundary
        assert (1, 1) in d.interior

    def test_collinear_raises(self):
        with pytest.raises(CollinearInput):
            classify_points([(0, 0), (1, 0), (2, 0)])

    @given(st.lists(points, min_size=3, max_size=25))
    @settings(max_examples=80)
    def test_matches_strictly_left_of_every_edge(self, pts):
        # cross-check: interior means strictly left of every directed hull edge
        try:
            d = classify_points(pts)
        except CollinearInput:
            return
        hull = d.hull_vertices
        n = len(hull)
        for p in PointSet(pts):
            strict = all(
                orientation(hull[k], hull[(k + 1) % n], p) > 0 for k in range(n)
            )
            assert (p in d.interior) == strict
            assert (p in d.boundary) == (not strict)

    @given(st.one_of(st.lists(points, min_size=3, max_size=25), small_point_lists,
                     saturated_sets(), full_column_sets()))
    @settings(max_examples=200, deadline=None)
    def test_matches_orientation_reference(self, pts):
        try:
            hull, boundary, interior = _classify_by_orientation(pts)
        except CollinearInput as exc:
            with pytest.raises(CollinearInput, match=str(exc)):
                classify_points(pts)
            return
        d = classify_points(pts)
        assert d.hull_vertices == hull
        assert all(type(v) is Point for v in d.hull_vertices)
        # the counts come off the cycle, before either set is built
        assert (d.b, d.i) == (len(boundary), len(interior))
        assert d.boundary.points == boundary.points
        assert d.interior.points == interior.points

    def test_partition_is_exact(self):
        d = classify_points(TRI_DOUBLE)
        assert d.b + d.i == len(TRI_DOUBLE)
        assert (d.b, d.i) == (6, 0)


def _assert_built_as_public(s, coords):
    """s is the set that the public ``PointSet(coords)`` builds, and holds what
    it holds: strictly increasing ``Point``s, each a member."""
    assert s == PointSet(coords)
    assert all(p < q for p, q in zip(s.points, s.points[1:]))
    assert all(type(p) is Point for p in s.points)
    assert all(p in s for p in s.points)
    assert all(tuple(c) in s for c in coords)


any_sets = st.one_of(st.lists(points, min_size=1, max_size=25), small_point_lists,
                     saturated_sets(), full_column_sets())
# sums of these stay small enough to build from every pair
summands = st.one_of(st.lists(points, min_size=1, max_size=25), small_point_lists,
                     saturated_sets(max_span=6), full_column_sets())


class TestSortedConstructor:
    """The kernels that store sorted points without a second sort give the
    sets that the public constructor gives."""

    @given(any_sets, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_parse_point_set(self, coords, rnd):
        dups = [rnd.choice(coords) for _ in range(rnd.randrange(4))]
        lines = [rnd.choice(("{} {}", " {}\t{} ", "{}  {}")).format(x, y)
                 for x, y in coords + dups]
        lines += ["# comment", "", "   # indented"]
        rnd.shuffle(lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = parse_point_set("\n".join(lines))
        _assert_built_as_public(s, coords)
        # one warning per line that repeats an earlier point
        assert len(caught) == len(coords) + len(dups) - len(set(coords))
        assert all("duplicate point" in str(w.message) for w in caught)

    @given(summands, summands)
    @settings(max_examples=100, deadline=None)
    def test_minkowski_sum(self, a, b):
        s = minkowski_sum(PointSet(a), PointSet(b))
        _assert_built_as_public(s, [(p[0] + q[0], p[1] + q[1]) for p in a for q in b])

    @given(any_sets)
    @settings(max_examples=150, deadline=None)
    def test_classify_points_parts(self, coords):
        try:
            _, boundary, interior = _classify_by_orientation(coords)
        except CollinearInput:
            return
        d = classify_points(coords)
        _assert_built_as_public(d.boundary, boundary.points)
        _assert_built_as_public(d.interior, interior.points)


class TestSupportSet:
    def test_single_maximizer(self):
        assert support_set(TRI, Direction(1, 0)) == PointSet([(1, 0)])

    def test_edge_maximizers(self):
        assert support_set(TRI_DOUBLE, Direction(1, 1)) == PointSet(
            [(2, 0), (1, 1), (0, 2)]
        )

    @given(st.lists(points, min_size=1, max_size=20),
           st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda d: d != (0, 0)))
    @settings(max_examples=60)
    def test_support_is_collinear(self, pts, d):
        u = Direction.of(d[0], d[1])
        sup = support_set(pts, u)
        assert len(sup) >= 1
        ps = sup.points
        for k in range(2, len(ps)):
            assert orientation(ps[0], ps[1], ps[k]) == 0


def _cone_at(d, p):
    """The cone of ``d.cone_rows`` at the point p of the set."""
    return next(c for x, y, c in d.cone_rows if (x, y) == p)


class TestNormalCone:
    def test_corner_cone(self):
        d = classify_points(TRI)
        assert _cone_at(d, (1, 0)) == (0, -1, 1, 1)

    def test_edge_interior_cone_is_single_ray(self):
        d = classify_points([(0, 0), (2, 0), (0, 2), (1, 0)])
        assert _cone_at(d, (1, 0)) == (0, -1, 0, -1)

    def test_interior_point_has_no_cone(self):
        d = classify_points([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert _cone_at(d, (1, 1)) is None

    def test_cone_spans_less_than_half_turn(self):
        d = classify_points(TRI_DOUBLE)
        for p in d.boundary:
            lx, ly, hx, hy = _cone_at(d, p)
            if (lx, ly) != (hx, hy):
                assert lx * hy - ly * hx > 0


class TestGenericDirection:
    def test_triangle_pair(self):
        # the steepest edge, (-1, 1), rises 1
        assert generic_direction(TRI, TRI) == Direction(1, 2)

    def test_square_pair(self):
        sq = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert generic_direction(sq, sq) == Direction(1, 2)

    def test_skips_occupied_small_directions(self):
        # b's edge (-1, 3) rises 3, so the answer steps past (1, 2) and
        # (1, 3), neither of which is parallel to a hull edge
        a = PointSet([(0, 0), (1, 1), (2, 0)])
        b = PointSet([(0, 0), (1, -1), (0, 2)])
        assert generic_direction(a, b) == generic_direction(b, a) == Direction(1, 4)

    def test_many_blocked_directions(self):
        # a zonogon with an edge along each primitive direction of max-norm
        # at most 5, both ways: the steepest non-vertical edges, along (1, 5)
        # and (1, -5), rise 5, so the answer is (1, 6)
        blocked = [(dx, dy) for dx in range(6) for dy in range(-5, 6)
                   if math.gcd(dx, abs(dy)) == 1 and (dx > 0 or dy == 1)]
        assert len(blocked) == 40
        edges = sorted(blocked + [(-dx, -dy) for dx, dy in blocked],
                       key=lambda e: math.atan2(e[1], e[0]))
        x = y = 0
        corners = []
        for dx, dy in edges:
            corners.append((x, y))
            x, y = x + dx, y + dy
        d = classify_points(corners)
        assert len(d.hull_vertices) == 80
        v = generic_direction(d, d)
        assert v == generic_direction(d.points, d.points) == Direction(1, 6)
        assert all(dx * v.dy != dy * v.dx for dx, dy in edges)

    @given(st.lists(points, min_size=3, max_size=12))
    @settings(max_examples=60)
    def test_postcondition_not_parallel_to_any_edge(self, pts):
        hull = convex_hull(pts)
        if len(hull) < 3:
            return
        s = PointSet(pts)
        v = generic_direction(s, s)
        n = len(hull)
        for k in range(n):
            a, b = hull[k], hull[(k + 1) % n]
            assert (b.x - a.x) * v.dy - (b.y - a.y) * v.dx != 0

    def test_collinear_input_raises(self):
        line = PointSet([(0, 0), (1, 1), (2, 2)])
        for a, b in ((line, TRI), (TRI, line), ([(0, 0), (3, 1)], TRI)):
            with pytest.raises(CollinearInput):
                generic_direction(a, b)


class TestArcDecomposition:
    def test_flat_bottom_kite(self):
        s = PointSet([(0, 0), (1, 0), (2, 0), (1, 2)])
        arc = arc_decomposition(s, Direction(0, 1))
        assert arc.l == Point(0, 0)
        assert arc.r == Point(2, 0)
        assert arc.upp == (Point(1, 2),)
        assert arc.low == (Point(1, 0),)

    def test_triangle_under_steep_direction(self):
        arc = arc_decomposition(TRI, Direction(1, 2))
        assert len(arc.upp) + len(arc.low) == 1

    def test_non_generic_direction_raises(self):
        with pytest.raises(DirectionNotGeneric):
            arc_decomposition(TRI, Direction(1, 0))

    def test_counts_cover_boundary(self):
        s = PointSet([(0, 0), (3, 0), (0, 3), (3, 3), (1, 0), (0, 2), (3, 1)])
        d = classify_points(s)
        v = generic_direction(s, s)
        arc = arc_decomposition(s, v)
        assert len(arc.upp) + len(arc.low) == d.b - 2
        assert arc.l != arc.r
        assert arc.l not in arc.upp and arc.l not in arc.low
        assert arc.r not in arc.upp and arc.r not in arc.low

    def test_negating_direction_swaps_arcs(self):
        s = PointSet([(0, 0), (2, 0), (1, 3), (0, 1), (2, 1)])
        v = generic_direction(s, s)
        fwd = arc_decomposition(s, v)
        rev = arc_decomposition(s, -v)
        assert rev.upp == fwd.low
        assert rev.low == fwd.upp
        assert (rev.l, rev.r) == (fwd.r, fwd.l)

    @given(st.lists(points, min_size=3, max_size=14))
    @settings(max_examples=60)
    def test_arc_partition_property(self, pts):
        try:
            d = classify_points(pts)
        except CollinearInput:
            return
        s = d.points
        v = generic_direction(s, s)
        arc = arc_decomposition(s, v)
        assert len(arc.upp) + len(arc.low) == d.b - 2
        rev = arc_decomposition(s, -v)
        assert rev.upp == arc.low and rev.low == arc.upp


def _on_segment(p, a, b):
    """Whether p lies on the closed segment [a, b]."""
    return orientation(a, b, p) == 0 and (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _cones_by_edge_scan(d):
    """The normal cones as they were found before the boundary cycle was
    kept, as (lo dx, lo dy, hi dx, hi dy) per boundary point: a hull vertex
    gets the primitive outward normals of its two edges, and any other
    boundary point the normal of the first hull edge whose segment holds it."""
    vs = d.hull_vertices
    n = len(vs)
    edges = [(vs[k], vs[(k + 1) % n]) for k in range(n)]
    normals = [Direction.of(b.y - a.y, a.x - b.x) for a, b in edges]
    normals = [(u.dx, u.dy) for u in normals]
    out = {v: normals[k - 1] + normals[k] for k, v in enumerate(vs)}
    for p in d.boundary:
        if p not in out:
            k = next(k for k, (a, b) in enumerate(edges) if _on_segment(p, a, b))
            out[p] = normals[k] + normals[k]
    return out


def _arcs_by_cone_signs(d, v):
    """The arc split as it was found before the boundary cycle was kept, as
    (l, r, upp, low) with the arcs as sets: l and r from a scan of every
    point, and each other boundary point by the signs of v against the two
    ends of its normal cone."""
    vs = d.hull_vertices
    n = len(vs)
    for k in range(n):
        a, b = vs[k], vs[(k + 1) % n]
        if (b.x - a.x) * v.dy - (b.y - a.y) * v.dx == 0:
            raise DirectionNotGeneric(f"parallel to {a} -> {b}")
    w = v.perp_cw()
    keyed = [(w.dot(p), p) for p in d.points]
    lo_key, hi_key = min(keyed)[0], max(keyed)[0]
    lows = [p for k, p in keyed if k == lo_key]
    highs = [p for k, p in keyed if k == hi_key]
    assert len(lows) == len(highs) == 1
    cones = _cones_by_edge_scan(d)
    upp, low = [], []
    for p in d.boundary:
        if p in (lows[0], highs[0]):
            continue
        lx, ly, hx, hy = cones[p]
        s_lo = v.dot((lx, ly))
        s_hi = v.dot((hx, hy))
        if s_lo > 0 and s_hi > 0:
            upp.append(p)
        elif s_lo < 0 and s_hi < 0:
            low.append(p)
        else:
            raise AssertionError(f"straddling cone at non-extreme point {p}")
    return lows[0], highs[0], set(upp), set(low)


class TestCycleTables:
    """The tables read off the boundary cycle match the edge scans they
    replaced."""

    @given(st.one_of(st.lists(points, min_size=3, max_size=25), small_point_lists,
                     saturated_sets(), full_column_sets()),
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6))
                    .filter(lambda t: t != (0, 0)), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_cones_and_arcs_match_edge_scan(self, pts, vectors):
        try:
            d = classify_points(pts)
        except CollinearInput:
            return
        cones = _cones_by_edge_scan(d)
        assert d.cone_rows == tuple((p.x, p.y, cones.get(p)) for p in d.points)
        for v in [generic_direction(d, d)] + [Direction.of(*t) for t in vectors]:
            for u in (v, -v):
                try:
                    l, r, upp, low = _arcs_by_cone_signs(d, u)
                except DirectionNotGeneric:
                    with pytest.raises(DirectionNotGeneric):
                        arc_decomposition(d, u)
                    continue
                arc = arc_decomposition(d, u)
                assert (arc.v, arc.l, arc.r) == (u, l, r)
                assert set(arc.upp) == upp and len(arc.upp) == len(upp)
                assert set(arc.low) == low and len(arc.low) == len(low)
                # the arcs are the cycle in CCW order, cut at l and r
                k = d.cycle.index(l)
                assert (l, *arc.low, r, *arc.upp) == d.cycle[k:] + d.cycle[:k]


class TestSameDifferenceProgressions:
    def test_singleton_always_qualifies(self):
        assert is_ap_same_difference([(0, 0), (3, 0)], [(7, 7)])

    def test_mismatched_steps(self):
        assert not is_ap_same_difference([(0, 0), (1, 0)], [(0, 1), (2, 1)])

    def test_matching_steps(self):
        assert is_ap_same_difference([(0, 0), (1, 0), (2, 0)], [(5, 3), (6, 3)])

    def test_gap_breaks_progression(self):
        assert not is_ap_same_difference([(0, 0), (1, 0), (3, 0)], [(0, 1), (1, 1)])

    def test_vertical_progressions(self):
        assert is_ap_same_difference([(2, 0), (2, 2), (2, 4)], [(9, 1), (9, 3)])
