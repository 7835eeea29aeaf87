import math
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_sets import (
    boundary_count,
    full_column_sets,
    orientation,
    saturated_sets,
    sums_by_set,
    support_set,
    unique_representation,
)
from planesum import (
    CollinearInput,
    Direction,
    Pair,
    Point,
    PointSet,
    arc_decomposition,
    canonical_translate,
    check_sum_boundary,
    classify_points,
    convex_hull,
    generic_direction,
    is_translate_of,
    lattice_points_in_hull,
    minkowski_sum,
    random_point_set,
    random_saturated_set,
    separated_pair,
    sum_decomposition,
)
from planesum import sumset

TRI = PointSet([(0, 0), (1, 0), (0, 1)])

coords = st.integers(min_value=-20, max_value=20)
points = st.tuples(coords, coords)
point_sets = st.lists(points, min_size=1, max_size=10).map(PointSet)


class TestMinkowskiSum:
    def test_triangle_doubled(self):
        d = minkowski_sum(TRI, TRI)
        assert d == PointSet([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])

    def test_singleton_translates(self):
        s = PointSet([(2, 3)])
        assert minkowski_sum(TRI, s) == TRI.translate((2, 3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minkowski_sum(PointSet([]), TRI)

    @given(point_sets, point_sets)
    @settings(max_examples=80)
    def test_size_superadditive(self, a, b):
        # |a + b| >= |a| + |b| - 1, with equality only in degenerate shapes
        s = minkowski_sum(a, b)
        assert len(s) >= len(a) + len(b) - 1
        assert len(s) <= len(a) * len(b)

    @given(point_sets, point_sets)
    @settings(max_examples=60)
    def test_commutative(self, a, b):
        assert minkowski_sum(a, b) == minkowski_sum(b, a)

    @given(point_sets, point_sets, points)
    @settings(max_examples=60)
    def test_translation_moves_sum(self, a, b, t):
        assert minkowski_sum(a.translate(t), b) == minkowski_sum(a, b).translate(t)

    @given(point_sets, point_sets)
    @settings(max_examples=60)
    def test_hull_vertices_sum(self, a, b):
        # every hull vertex of the sum is a sum of hull points of the parts
        s = minkowski_sum(a, b)
        hull_a = set(convex_hull(a))
        hull_b = set(convex_hull(b))
        corner_sums = {Point(p.x + q.x, p.y + q.y) for p in hull_a for q in hull_b}
        for v in convex_hull(s):
            assert v in corner_sums


class TestUniqueRepresentation:
    """``Pair.unique`` reads |A + B| = |A||B| off the sum kernel; the
    reference counts the set of every product."""

    def test_triangle_with_itself_collides(self):
        assert not Pair(TRI, TRI).unique
        assert not unique_representation(TRI, TRI)

    def test_widely_scaled_copy_is_unique(self):
        scaled = PointSet([(0, 0), (10, 0), (0, 10)])
        assert Pair(TRI, scaled).unique
        assert unique_representation(TRI, scaled)

    @given(point_sets, point_sets)
    @settings(max_examples=80)
    def test_flag_matches_cardinality(self, a, b):
        ok = unique_representation(a, b)
        assert ok == (len(minkowski_sum(a, b)) == len(a) * len(b))
        try:
            pair = Pair(a, b)
        except CollinearInput:
            return
        assert pair.unique == ok


class TestCanonicalTranslate:
    def test_moves_lex_min_to_origin(self):
        s = PointSet([(3, 4), (5, 1), (3, 7)])
        c = canonical_translate(s)
        assert c.points[0] == Point(0, 0)
        assert c == PointSet([(0, 0), (0, 3), (2, -3)])

    @given(point_sets)
    def test_idempotent(self, s):
        c = canonical_translate(s)
        assert canonical_translate(c) == c

    @given(point_sets, points)
    def test_translation_invariant(self, s, t):
        assert canonical_translate(s.translate(t)) == canonical_translate(s)


class TestIsTranslateOf:
    def test_detects_translates(self):
        assert is_translate_of(TRI, TRI.translate((-7, 9)))

    def test_rejects_rotations(self):
        rot = PointSet([(0, 0), (0, 1), (1, 0)])  # same set, fine
        assert is_translate_of(TRI, rot)
        mirrored = PointSet([(0, 0), (-1, 0), (0, 1)])
        assert not is_translate_of(TRI, mirrored)

    def test_rejects_different_sizes(self):
        assert not is_translate_of(TRI, PointSet([(0, 0)]))


def _polygon(pts):
    """Decomposition of a non-collinear point list, None for a collinear one."""
    try:
        return classify_points(pts)
    except CollinearInput:
        return None


polygons = st.lists(points, min_size=3, max_size=12).map(_polygon).filter(
    lambda d: d is not None)
triangles = st.lists(points, min_size=3, max_size=3).map(_polygon).filter(
    lambda d: d is not None)
# saturated grids of a random box, so every set has interior points
boxes = st.builds(
    lambda x, y, w, h: classify_points([(x + i, y + j) for i in range(w) for j in range(h)]),
    coords, coords, st.integers(3, 6), st.integers(3, 6))
seeds = st.integers(0, 2**32 - 1)
saturated = seeds.map(lambda seed: classify_points(random_saturated_set(random.Random(seed))))
grid_sets = seeds.map(lambda seed: classify_points(
    random_point_set(random.Random(seed), 4, 4, 3, 16)))
summands = st.one_of(polygons, triangles, boxes, saturated, grid_sets)
# long collinear runs, and long vertical ones at both ends of the lexicographic order
lattice_polygons = st.one_of(saturated_sets(), full_column_sets()).map(_polygon).filter(
    lambda d: d is not None)
separated = seeds.map(lambda seed: tuple(
    classify_points(s) for s in separated_pair(random.Random(seed))))
# a small set beside a dilate of another: at a factor of 100 or more the
# sum's box costs far over ``_BITS_PER_PRODUCT`` bits per product, so the
# sum is kept as a set, with up to about 10^19 lattice points on its hull
small_coords = st.integers(-4, 4)
small_sets = st.lists(st.tuples(small_coords, small_coords), min_size=3, max_size=8).filter(
    lambda pts: _polygon(pts) is not None).map(PointSet)
dilated_pairs = st.builds(
    lambda a, s, k: (a, PointSet((k * x, k * y) for x, y in s)),
    small_sets, small_sets, st.integers(100, 10**18))


class TestSumDecomposition:
    """The merged-hull kernel must split A + B exactly as the oracle does."""

    def _assert_matches_oracle(self, da, db):
        sums = sums_by_set(da.points, db.points)
        ref = classify_points(sums)
        # without a memo, and with one: a fresh walk, then the memoised one
        walks = {}
        for got in (sum_decomposition(da, db), sum_decomposition(da, db, walks),
                    sum_decomposition(da, db, walks)):
            assert (got.b, got.i, got.size) == (ref.b, ref.i, len(sums))
            assert got.boundary == set(ref.boundary)
            assert got.hull_vertices == ref.hull_vertices

    def test_triangle_doubled(self):
        d = classify_points(TRI)
        got = sum_decomposition(d, d)
        assert (got.b, got.i) == (6, 0)
        assert got.hull_vertices == ((0, 0), (2, 0), (0, 2))

    def test_parallel_edges_add(self):
        # both squares have all four edge directions; every sum edge is a sum
        sq = classify_points([(0, 0), (1, 0), (0, 1), (1, 1)])
        big = classify_points([(x, y) for x in range(3) for y in range(3)])
        got = sum_decomposition(sq, big)
        assert got.hull_vertices == ((0, 0), (3, 0), (3, 3), (0, 3))
        assert (got.b, got.i) == (12, 4)

    @given(summands, summands)
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, da, db):
        self._assert_matches_oracle(da, db)

    @given(separated)
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_separated_pairs(self, pair):
        self._assert_matches_oracle(*pair)

    @given(dilated_pairs)
    @settings(max_examples=200, deadline=1000)
    def test_set_path_on_far_apart_dilates(self, pair):
        # the reference spans no lattice step of the hull: the sums' hull,
        # the sums on the lines of its edges and the chain count of them
        a, b = pair
        d = sum_decomposition(classify_points(a), classify_points(b))
        assert d.grid is None
        sums = sums_by_set(a, b)
        hull = convex_hull(sums)
        edges = list(zip(hull, hull[1:] + hull[:1]))
        boundary = {s for s in sums if any(orientation(p, q, s) == 0 for p, q in edges)}
        assert len(boundary) == boundary_count(sums)
        assert ((d.size, d.b, d.i, d.boundary, d.hull_vertices)
                == (len(sums), len(boundary), len(sums) - len(boundary), boundary, hull))
        assert check_sum_boundary(a, b)


# each side of the density rule, forced, and the rule's own choice
PATHS = {"packed": math.inf, "set": 0, "rule": sumset._BITS_PER_PRODUCT}


@contextmanager
def _kernel_path(path):
    with mock.patch.object(sumset, "_BITS_PER_PRODUCT", PATHS[path]):
        yield


def _assert_kernels_match_reference(a, b):
    """``minkowski_sum`` and, for non-collinear summands, ``sum_decomposition``
    agree with the set reference on every path."""
    sums = sums_by_set(a.points, b.points)
    expected = tuple(sorted(sums))
    try:
        da, db = classify_points(a), classify_points(b)
    except CollinearInput:
        da = db = None
    if da is not None:
        ref = classify_points(sums)
        ref_split = (len(sums), ref.b, ref.i, set(ref.boundary), ref.hull_vertices)
    for path in PATHS:
        with _kernel_path(path):
            got = minkowski_sum(a, b)
            assert got.points == expected, path
            assert all(type(p) is Point for p in got.points)
            if da is not None:
                walks = {}
                for d in (sum_decomposition(da, db), sum_decomposition(da, db, walks),
                          sum_decomposition(da, db, walks)):
                    assert (d.size, d.b, d.i, d.boundary, d.hull_vertices) == ref_split, path
                    assert (d.grid is None) == (path == "set"
                                                or path == "rule" and _kept_as_set(a, b)), path


def _kept_as_set(a, b):
    """Whether the density rule keeps A + B as a set."""
    return sumset._grid(sumset._box(a.points), sumset._box(b.points), len(a), len(b)) is None


def _reflected(a, t):
    """B = t - A: t is a sum of every point of A with its mirror, so its cell
    holds min(|A|, |B|) = |A| representations, the most a field must hold."""
    return PointSet((t[0] - x, t[1] - y) for x, y in a)


class TestPackedGrid:
    """The packed grid of both sum kernels against the set reference."""

    @given(saturated_sets(max_span=20), saturated_sets(max_span=20))
    @settings(max_examples=60, deadline=None)
    def test_saturated_span_20(self, a, b):
        _assert_kernels_match_reference(PointSet(a), PointSet(b))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_separated_pairs(self, seed):
        _assert_kernels_match_reference(*separated_pair(random.Random(seed)))

    @given(saturated_sets(max_span=12), point_sets, points, points)
    @settings(max_examples=60, deadline=None)
    def test_negative_coordinates(self, a, b, ta, tb):
        # the sets straddle or lie wholly left of and below the origin
        shift = lambda t: (-abs(t[0]) - 1, -abs(t[1]) - 1)
        _assert_kernels_match_reference(PointSet(a).translate(shift(ta)), b)
        _assert_kernels_match_reference(PointSet(a).translate(shift(ta)),
                                        b.translate(shift(tb)))

    # most of these put 2^k - 1 representations on one cell, the fullest a
    # field of min(|A|, |B|).bit_length() + 1 bits gets
    @pytest.mark.parametrize("a, b", [
        ([(0, 0)], [(0, 0)]),
        ([(-3, 5)], [(2, -7)]),
        ([(0, y) for y in range(5)], [(-2, 3)]),
        ([(x, 0) for x in range(7)], [(x, 0) for x in range(7)]),
        ([(x, 2) for x in range(-4, 4)], [(x, -1) for x in range(0, 6, 2)]),
        ([(0, y) for y in range(15)], [(0, y) for y in range(-9, 6)]),
        ([(x, 0) for x in range(5)], [(0, y) for y in range(5)]),
        ([(x, 0) for x in range(7)], [(x, 0) for x in range(5)] + [(0, 1), (1, 2)]),
        ([(0, y) for y in range(-6, 1)], [(0, y) for y in range(5)] + [(1, 0), (-1, 3)]),
    ])
    def test_one_row_and_one_column_spans(self, a, b):
        _assert_kernels_match_reference(PointSet(a), PointSet(b))

    def test_reflected_translate_fills_a_field(self):
        rng = random.Random(31)
        for n in (7, 8, 15, 16, 31, 32):
            for _ in range(3):
                a = random_point_set(rng, 8, 8, n, n)
                t = (rng.randint(-9, 9), rng.randint(-9, 9))
                b = _reflected(a, t)
                assert sum(a0 + b0 == t for a0 in a for b0 in b) == n == min(len(a), len(b))
                _assert_kernels_match_reference(a, b)

    def test_rule_packs_dense_sums_and_not_sparse_ones(self):
        rng = random.Random(1441)
        for _ in range(20):
            sat = [random_saturated_set(rng, span=rng.randint(10, 20),
                                        corners=rng.randint(4, 8)) for _ in range(2)]
            sep = separated_pair(rng)
            for (a, b), packed in ((sat, True), (sep, False)):
                assert _kept_as_set(a, b) != packed


def _with_hull(vertices, rng, k):
    """The vertices of a lattice polygon plus k more of its lattice points,
    drawn at random: every such set has the polygon's edge table."""
    others = sorted(set(lattice_points_in_hull(vertices)) - set(vertices))
    return PointSet(vertices + rng.sample(others, k))


class TestWalkMemo:
    """One ``walks`` memo shared by many pairs: each pair must split as the
    reference does, whichever earlier pair filled the entry it reads."""

    # a triangle and a square with 12 lattice points each besides their
    # vertices, so summand sizes run from 3 to 16 and min(|A|, |B|) takes
    # field widths w = 3, 4 and 5 where the grid is forced
    @pytest.mark.parametrize("path", PATHS)
    def test_translates_and_sizes_share_one_memo(self, path):
        rng = random.Random(20)
        triangle = [(0, 0), (4, 0), (0, 4)]
        square = [(0, 0), (3, 0), (3, 3), (0, 3)]
        sets = [_with_hull(vertices, rng, k) for vertices in (triangle, square)
                for k in range(0, 13, 2) for _ in range(2)]
        walks = {}
        with _kernel_path(path):
            for _ in range(120):
                a, b = (s.translate((rng.randint(-9, 9), rng.randint(-9, 9)))
                        for s in rng.sample(sets, 2))
                da, db = classify_points(a), classify_points(b)
                sums = sums_by_set(a.points, b.points)
                ref = classify_points(sums)
                d = sum_decomposition(da, db, walks)
                assert ((d.size, d.b, d.i, d.boundary, d.hull_vertices)
                        == (len(sums), ref.b, ref.i, set(ref.boundary), ref.hull_vertices))
        if path == "packed":
            # two edge tables in either role, three widths
            assert {w for _, _, w in walks} == {3, 4, 5} and len(walks) <= 2 * 2 * 3
        if path == "set":
            assert not walks

    def test_sparser_pair_reads_the_shared_entry(self):
        # both pairs have one key: the same square hulls and w = 5; the sum's
        # 7 x 7 grid has 245 bits, under 2 per product for 15 x 15 points and
        # over it for 8 x 8, which a fresh call keeps as a set but which reads
        # the entry the denser pair stored
        rng = random.Random(8)
        square = [(0, 0), (3, 0), (3, 3), (0, 3)]
        walks = {}
        with mock.patch.object(sumset, "_BITS_PER_PRODUCT", 2):
            for n, fresh_packed in ((15, True), (8, False)):
                a, b = (_with_hull(square, rng, n - 4) for _ in range(2))
                assert _kept_as_set(a, b) != fresh_packed
                d = sum_decomposition(classify_points(a), classify_points(b), walks)
                sums = sums_by_set(a.points, b.points)
                ref = classify_points(sums)
                assert d.grid is not None
                assert ((d.size, d.b, d.i, d.boundary, d.hull_vertices)
                        == (len(sums), ref.b, ref.i, set(ref.boundary), ref.hull_vertices))
        assert len(walks) == 1

    def test_rule_at_its_boundary_fresh_and_on_a_memo_hit(self):
        # at exactly w cells / (|A||B|) bits per product a fresh call stays on
        # the grid, and one step below it takes the set path; a hit reads the
        # stored entry at either budget, since the grid splits A + B as the
        # set does
        rng = random.Random(23)
        a, b = (_with_hull([(0, 0), (4, 0), (0, 4)], rng, k) for k in (3, 6))
        da, db = classify_points(a), classify_points(b)
        grid = sumset._grid(da.box, db.box, da.size, db.size)
        assert grid is not None
        h, w = grid[:2]
        bits_needed = w * (da.box[2] - da.box[0] + db.box[2] - db.box[0] + 1) * h
        products = da.size * db.size
        sums = sums_by_set(a.points, b.points)
        ref = classify_points(sums)
        walks = {}
        sum_decomposition(da, db, walks)
        (entry,) = walks.values()
        for bits, packed in ((Fraction(bits_needed, products), True),
                             (Fraction(bits_needed - 1, products), False)):
            with mock.patch.object(sumset, "_BITS_PER_PRODUCT", bits):
                assert _kept_as_set(a, b) != packed
                fresh = sum_decomposition(da, db)
                assert (fresh.grid is not None) == packed
                with mock.patch.object(sumset, "_hull_walk", side_effect=AssertionError):
                    hit = sum_decomposition(da, db, walks)
                assert hit.grid is not None
                for d in (fresh, hit):
                    assert (d.size, d.b, d.boundary) == (len(sums), ref.b, set(ref.boundary))
        # each hit read the entry the first walk stored
        (hit,) = walks.values()
        assert hit is entry


class TestMemoTables:
    """Per-set memo tables must return what the direct calls return."""

    @given(st.one_of(summands, lattice_polygons), st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
        min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_edge_steps_match_support_set(self, d, vectors):
        vs = d.hull_vertices
        normals = [Direction.of(b.y - a.y, a.x - b.x) for a, b in zip(vs, vs[1:] + vs[:1])]
        assert list(d.edge_steps) == [(u.dx, u.dy) for u in normals]
        for u in normals:
            pts = support_set(d.points, u).points
            steps = {(q.x - p.x, q.y - p.y) for p, q in zip(pts, pts[1:])}
            assert len(pts) >= 2
            assert d.edge_steps[(u.dx, u.dy)] == (steps.pop() if len(steps) == 1 else None)
        # any other direction supports a single point, so no table row is missing
        for dx, dy in vectors:
            u = Direction.of(dx, dy)
            if (u.dx, u.dy) not in d.edge_steps:
                assert len(support_set(d.points, u)) == 1

    @given(summands, summands)
    @settings(max_examples=120, deadline=None)
    def test_arc_matches_arc_decomposition(self, da, db):
        v = generic_direction(da, db)
        assert v == generic_direction(da.points, db.points)
        for d in (da, db):
            assert arc_decomposition(d, v) == arc_decomposition(d.points, v)
            assert arc_decomposition(d, -v) == arc_decomposition(d.points, -v)
