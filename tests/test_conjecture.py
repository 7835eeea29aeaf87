import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lattice_sets import (
    full_column_sets,
    is_ap_same_difference,
    orientation,
    saturated_sets,
    sums_by_set,
    support_set,
    unique_representation,
)
from planesum import (
    Case,
    Direction,
    Pair,
    PointSet,
    PreconditionViolated,
    Verdict,
    arc_decomposition,
    check_arc_structure,
    check_boundary_superadditivity,
    check_extremal_classification,
    check_interior_bounds,
    check_pair,
    check_sum_boundary,
    check_unique_rep_bound,
    classify_points,
    convex_hull,
    equality_family,
    generic_direction,
    minkowski_sum,
    sqrt_triple_compare,
    sum_decomposition,
)
from planesum import search, sumset
from planesum.conjecture import (
    CHECKS,
    ArcBoundCheck,
    FailureShape,
    StructureReport,
    _sum_boundary,
)
from planesum.geometry import split_facts

TRI = PointSet([(0, 0), (1, 0), (0, 1)])
TRI_DOUBLE = minkowski_sum(TRI, TRI)
SQUARE = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
PLUS_SQUARE = PointSet([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])

counts = st.integers(min_value=0, max_value=10**6)
coords = st.integers(min_value=-8, max_value=8)
points = st.tuples(coords, coords)
point_lists = st.lists(points, min_size=3, max_size=9)


noncollinear = st.builds(
    PointSet, point_lists
).filter(lambda s: len(s) >= 3 and any(
    (q.x - s.points[0].x) * (r.y - s.points[0].y)
    != (q.y - s.points[0].y) * (r.x - s.points[0].x)
    for q in s for r in s
))

# small boxes, so that summands often share edge directions with several
# points on them
box_noncollinear = st.builds(
    PointSet, st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=3,
                       max_size=12)
).filter(lambda s: len(convex_hull(s)) >= 3)

# long collinear runs on the hull, so many boundary points whose normal cone
# is a single ray
long_runs = st.one_of(saturated_sets(max_span=8), full_column_sets()).map(PointSet).filter(
    lambda s: len(convex_hull(s)) >= 3)

# dropping the interior leaves the hull (hence non-collinearity) intact
boundary_only = noncollinear.map(lambda s: classify_points(s).boundary)


def _sqrt_verdict_by_isqrt(t_ab, t_a, t_b):
    # independent decision route: compare d with isqrt(4 t_a t_b) directly
    d = t_ab - t_a - t_b
    if d < 0:
        return Verdict.FAILS
    s = math.isqrt(4 * t_a * t_b)
    if s * s == 4 * t_a * t_b and d == s:
        return Verdict.EQUALITY
    return Verdict.STRICT_HOLDS if d > s else Verdict.FAILS


class TestSqrtTripleCompare:
    def test_equality_cases(self):
        assert sqrt_triple_compare(9, 1, 4) is Verdict.EQUALITY
        assert sqrt_triple_compare(8, 2, 2) is Verdict.EQUALITY
        assert sqrt_triple_compare(4, 1, 1) is Verdict.EQUALITY

    def test_near_miss_fails(self):
        # 5 >= 1 + 4 linearly but sqrt(5) < 1 + 2
        assert sqrt_triple_compare(5, 1, 4) is Verdict.FAILS

    def test_strict(self):
        assert sqrt_triple_compare(100, 1, 4) is Verdict.STRICT_HOLDS

    def test_zero_parts(self):
        assert sqrt_triple_compare(0, 0, 0) is Verdict.EQUALITY
        assert sqrt_triple_compare(3, 0, 3) is Verdict.EQUALITY
        assert sqrt_triple_compare(2, 0, 3) is Verdict.FAILS

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_triple_compare(-1, 0, 0)

    @given(counts, counts, counts)
    @settings(max_examples=400)
    def test_matches_isqrt_oracle(self, t_ab, t_a, t_b):
        assert sqrt_triple_compare(t_ab, t_a, t_b) is _sqrt_verdict_by_isqrt(t_ab, t_a, t_b)

    @given(counts, counts)
    def test_perfect_square_sums_are_equalities(self, x, y):
        # t_ab = (x + y)^2, t_a = x^2, t_b = y^2
        assert sqrt_triple_compare((x + y) ** 2, x * x, y * y) is Verdict.EQUALITY


class TestCheckPair:
    def test_triangle_with_its_double(self):
        r = check_pair(TRI, TRI_DOUBLE)
        assert (r.tr_a, r.tr_b, r.tr_ab) == (1, 4, 9)
        assert (r.b_a, r.i_a, r.b_b, r.i_b, r.b_ab, r.i_ab) == (3, 0, 6, 0, 9, 1)
        assert r.main is Verdict.EQUALITY
        assert r.strong_holds is False
        assert r.ib_holds is False
        assert r.boundary_form_holds is False
        assert r.case is Case.BOUNDARY_ONLY
        assert r.extremal is True

    def test_triangle_with_itself(self):
        r = check_pair(TRI, TRI)
        assert (r.tr_a, r.tr_b, r.tr_ab) == (1, 1, 4)
        assert r.main is Verdict.EQUALITY
        assert r.strong_holds and r.ib_holds
        assert r.boundary_form_holds is True
        assert r.extremal is None

    def test_interior_pair(self):
        r = check_pair(PLUS_SQUARE, PLUS_SQUARE)
        assert (r.tr_a, r.tr_b, r.tr_ab) == (4, 4, 16)
        assert (r.b_ab, r.i_ab) == (8, 5)
        assert r.main is Verdict.EQUALITY
        assert r.case is Case.ONE_INTERIOR_EACH
        assert r.boundary_form_holds is None

    def test_unique_representation_case_wins(self):
        far = PointSet([(0, 0), (10, 0), (0, 10)])
        r = check_pair(TRI, far)
        assert r.case is Case.UNIQUE_REPRESENTATION
        assert r.boundary_form_holds is not None  # still boundary-only counts

    @given(noncollinear, noncollinear)
    @settings(max_examples=120, deadline=None)
    def test_report_internal_consistency(self, a, b):
        r = check_pair(a, b)
        # the linear strong form and its count form are algebraically the same
        assert r.strong_holds == r.ib_holds
        assert (r.boundary_form_holds is not None) == (r.i_a == 0 and r.i_b == 0)
        assert (r.extremal is not None) == (r.boundary_form_holds is False)
        assert r.tr_a == r.b_a + 2 * r.i_a - 2
        assert r.tr_b == r.b_b + 2 * r.i_b - 2
        assert r.tr_ab == r.b_ab + 2 * r.i_ab - 2
        assert r.main is sqrt_triple_compare(r.tr_ab, r.tr_a, r.tr_b)
        # float sanity: verdicts agree with floating square roots
        gap = math.sqrt(r.tr_ab) - math.sqrt(r.tr_a) - math.sqrt(r.tr_b)
        if r.main is Verdict.STRICT_HOLDS:
            assert gap > -1e-9
        elif r.main is Verdict.EQUALITY:
            assert abs(gap) < 1e-6
        else:
            assert gap < 1e-9

    @given(noncollinear, noncollinear)
    @settings(max_examples=120, deadline=None)
    def test_main_inequality_on_small_sets(self, a, b):
        # no counterexample is known; random small instances must all hold
        assert check_pair(a, b).main is not Verdict.FAILS


class TestPair:
    @given(noncollinear, noncollinear)
    @settings(max_examples=150, deadline=None)
    def test_kernel_and_oracle_sums_give_the_same_facts(self, a, b):
        kernel = Pair(a, b)
        oracle = Pair(a, b, dab=classify_points(minkowski_sum(a, b)))
        for fact in ("case", "boundary_form", "count_form", "extremal", "tr", "main"):
            assert getattr(kernel, fact) == getattr(oracle, fact), fact

    def test_extremal_pair_seen_by_the_oracle_too(self):
        oracle = Pair(TRI_DOUBLE, TRI, dab=classify_points(minkowski_sum(TRI_DOUBLE, TRI)))
        assert (oracle.case, oracle.boundary_form, oracle.extremal) == (
            Case.BOUNDARY_ONLY, False, True)


# every named check but freiman has a public checker
PUBLIC_CHECKERS = {
    "sum_boundary": check_sum_boundary,
    "boundary_counts": lambda *args: check_boundary_superadditivity(*args).ok,
    "unique_rep": check_unique_rep_bound,
    "interior": check_interior_bounds,
    "arcs": lambda a, b, da=None, db=None, dab=None: check_arc_structure(
        a, b, decomp_a=da, decomp_b=db, decomp_ab=dab).ok,
    "classification": check_extremal_classification,
}


def _assert_checks_match_checkers(a, b):
    p = Pair(a, b)
    for name, checker in PUBLIC_CHECKERS.items():
        applies, outcome = CHECKS[name]
        if applies(p):
            assert checker(a, b, p.da, p.db, p.dab) == outcome(p), name
        else:
            with pytest.raises(PreconditionViolated):
                checker(a, b, p.da, p.db, p.dab)
            with pytest.raises(PreconditionViolated):
                checker(a, b)


class TestCheckRegistry:
    def test_record_column_order(self):
        assert tuple(CHECKS) == ("freiman", "sum_boundary", "boundary_counts",
                                 "unique_rep", "interior", "arcs", "classification")
        assert set(PUBLIC_CHECKERS) == set(CHECKS) - {"freiman"}

    @pytest.mark.parametrize("a, b", [
        (TRI, TRI),  # boundary-only
        (TRI, PointSet([(0, 0), (10, 0), (0, 10)])),  # unique, boundary-only
        (PLUS_SQUARE, PLUS_SQUARE),  # interior on both sides
        (TRI, PLUS_SQUARE),  # interior on one side only
    ])
    def test_applies_exactly_where_the_checker_has_no_precondition_error(self, a, b):
        _assert_checks_match_checkers(a, b)

    @given(noncollinear, noncollinear)
    @settings(max_examples=60, deadline=None)
    def test_applies_on_random_pairs(self, a, b):
        _assert_checks_match_checkers(a, b)


class TestSumBoundary:
    def test_triangle_pair(self):
        assert check_sum_boundary(TRI, TRI)

    def test_interior_point_forces_interior_sums(self):
        assert check_sum_boundary(PLUS_SQUARE, PLUS_SQUARE)

    @given(st.one_of(noncollinear, long_runs), st.one_of(noncollinear, long_runs))
    @settings(max_examples=100, deadline=None)
    def test_holds_on_random_pairs(self, a, b):
        da, db = classify_points(a), classify_points(b)
        for dab in (sum_decomposition(da, db), classify_points(minkowski_sum(a, b))):
            assert check_sum_boundary(a, b, da, db, dab)


    @given(st.one_of(noncollinear, long_runs), st.one_of(noncollinear, long_runs),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_grid_path_matches_coordinate_loop(self, a, b, rnd):
        # the same sum on the packed grid and as a set: the check reads the
        # grid's boundary bits on the first and tests each a + b on the second
        da, db = classify_points(a), classify_points(b)
        with mock.patch.object(sumset, "_BITS_PER_PRODUCT", math.inf):
            on_grid = sum_decomposition(da, db)
        with mock.patch.object(sumset, "_BITS_PER_PRODUCT", 0):
            as_set = sum_decomposition(da, db)
        assert on_grid.grid is not None and as_set.grid is None
        assert _sum_boundary(Pair(a, b, da, db, on_grid))
        assert _sum_boundary(Pair(a, b, da, db, as_set))
        # one boundary point off the boundary, or one interior point on it:
        # both paths must then fail
        sums = sums_by_set(a.points, b.points)
        interior = sorted(sums - as_set.boundary)
        bits, w, h = on_grid.grid
        x0, y0 = da.box[0] + db.box[0], da.box[1] + db.box[1]
        for c in [rnd.choice(cells) for cells in (sorted(as_set.boundary), interior) if cells]:
            on_grid.grid = (bits ^ 1 << w * ((c[0] - x0) * h + c[1] - y0), w, h)
            assert not _sum_boundary(Pair(a, b, da, db, on_grid)), c
            mutated = sum_decomposition(da, db)
            mutated.grid = None
            mutated.boundary = as_set.boundary ^ {c}
            assert not _sum_boundary(Pair(a, b, da, db, mutated)), c


class TestBoundarySuperadditivity:
    def test_triangle_pair_equality(self):
        r = check_boundary_superadditivity(TRI, TRI)
        assert r.holds and r.equality and r.ap_condition and r.ok

    def test_strict_when_progressions_differ(self):
        # horizontal segments with different steps on the shared bottom edge
        a = PointSet([(0, 0), (1, 0), (2, 0), (0, 1)])
        b = PointSet([(0, 0), (2, 0), (4, 0), (0, 1)])
        r = check_boundary_superadditivity(a, b)
        assert r.holds and not r.equality and not r.ap_condition and r.ok

    @given(noncollinear, noncollinear)
    @settings(max_examples=100, deadline=None)
    def test_consistent_on_random_pairs(self, a, b):
        assert check_boundary_superadditivity(a, b).ok

    @staticmethod
    def _ap_condition_reference(a, b):
        """The progression condition over every edge normal of the oracle sum:
        where both support sets have two or more points, they must be
        same-difference progressions."""
        vs = convex_hull(minkowski_sum(a, b))
        for p, q in zip(vs, vs[1:] + vs[:1]):
            u = Direction.of(q.y - p.y, p.x - q.x)
            su_a, su_b = support_set(a, u), support_set(b, u)
            if len(su_a) >= 2 and len(su_b) >= 2 and not is_ap_same_difference(su_a, su_b):
                return False
        return True

    @pytest.mark.parametrize("a, b, expected", [
        # bottom edges on y = 0 against {0, 1, 2}: not a progression, another step
        ([(0, 0), (1, 0), (3, 0), (0, 1)], [(0, 0), (1, 0), (2, 0), (0, 1)], False),
        ([(0, 0), (1, 0), (3, 0), (0, 1)], [(0, 0), (1, 0), (3, 0), (0, 2)], False),
        ([(0, 0), (2, 0), (4, 0), (0, 1)], [(0, 0), (1, 0), (2, 0), (0, 1)], False),
        ([(0, 0), (1, 0), (2, 0), (0, 1)], [(5, 3), (6, 3), (7, 3), (5, 4)], True),
        # parallel edges of different lengths, same step or not
        ([(0, 0), (2, 0), (4, 0), (0, 1)], [(0, 0), (2, 0), (1, 2)], True),
        ([(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 0), (1, 0), (0, 1), (0, 2)], True),
        ([(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 0), (1, 0), (0, 2)], False),
        ([(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 0), (2, 0), (0, 1)], False),
        # parallel but opposite normals are not shared directions
        ([(0, 0), (1, 0), (3, 0), (0, 1)], [(0, 1), (1, 1), (2, 1), (1, 0)], True),
    ])
    def test_ap_condition_examples(self, a, b, expected):
        a, b = PointSet(a), PointSet(b)
        r = check_boundary_superadditivity(a, b)
        assert r.ap_condition == self._ap_condition_reference(a, b) == expected
        assert r.ok

    @given(st.one_of(noncollinear, box_noncollinear), box_noncollinear)
    @settings(max_examples=300, deadline=None)
    def test_ap_condition_matches_reference(self, a, b):
        for x, y in ((a, b), (b, a)):
            r = check_boundary_superadditivity(x, y)
            assert r.ap_condition == self._ap_condition_reference(x, y)


class TestUniqueRepBound:
    def test_triangle_apart(self):
        far = PointSet([(0, 0), (10, 0), (0, 10)])
        assert check_unique_rep_bound(TRI, far)

    def test_square_apart(self):
        far = PointSet([(0, 0), (10, 0), (0, 10), (10, 10)])
        assert check_unique_rep_bound(SQUARE, far)

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionViolated):
            check_unique_rep_bound(TRI, TRI)

    @given(noncollinear, st.integers(min_value=12, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_scaled_copies_obey_bound(self, a, scale):
        b = PointSet((scale * p.x, scale * p.y) for p in a)
        assume(unique_representation(a, b))
        assert check_unique_rep_bound(a, b)


class TestInteriorBounds:
    def test_plus_square_pair_is_tight(self):
        assert check_interior_bounds(PLUS_SQUARE, PLUS_SQUARE)

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionViolated):
            check_interior_bounds(TRI, TRI)

    @given(noncollinear, noncollinear)
    @settings(max_examples=100, deadline=None)
    def test_holds_when_applicable(self, a, b):
        da = classify_points(a)
        db = classify_points(b)
        assume(da.i >= 1 and db.i >= 1)
        assert check_interior_bounds(a, b, decomp_a=da, decomp_b=db)


class TestArcStructure:
    def test_triangle_with_itself(self):
        r = check_arc_structure(TRI, TRI)
        assert r.v == Direction(1, 2)
        assert r.eq_boundary_form
        assert r.ok

    def test_triangle_with_double_failure_shape(self):
        r = check_arc_structure(TRI, TRI_DOUBLE)
        assert not r.eq_boundary_form
        assert r.failure_shape is not None
        assert (r.failure_shape.swapped, r.failure_shape.flipped) == (False, True)
        assert r.ok

    def test_rejects_interior_points(self):
        with pytest.raises(PreconditionViolated):
            check_arc_structure(PLUS_SQUARE, PLUS_SQUARE)

    @given(boundary_only, boundary_only)
    @settings(max_examples=100, deadline=None)
    def test_bookkeeping_on_boundary_only_pairs(self, a, b):
        assert check_arc_structure(a, b).ok


def _low_arc_flat(arc):
    return all(orientation(arc.l, arc.r, q) == 0 for q in arc.low)


def _arc_facts_by_split(arc):
    """The arc facts of one split, read off the ``ArcDecomposition``."""
    return len(arc.upp), len(arc.low), _low_arc_flat(arc), arc.r.x - arc.l.x, arc.r.y - arc.l.y


def _structure_by_arc_splits(p, v):
    """The ``StructureReport`` of a boundary-only pair, decided on the four
    ``ArcDecomposition``s of A and B under v and -v: the reference for the
    per-set arc facts and the rules that read them."""
    splits = {}
    for flipped, u in ((False, v), (True, -v)):
        arc_a, arc_b = arc_decomposition(p.da, u), arc_decomposition(p.db, u)
        splits[False, flipped] = arc_a, arc_b, p.da.b, p.db.b
        splits[True, flipped] = arc_b, arc_a, p.db.b, p.da.b
    order = [(False, False), (False, True), (True, False), (True, True)]

    def parallel(x, y):
        return orientation((0, 0), x.r - x.l, y.r - y.l) == 0

    i_ab, form = p.dab.i, p.boundary_form
    x, y, _, _ = splits[False, False]
    nonempty = all([x.upp, x.low, y.upp, y.low])
    bounds = []
    for key in order:
        x, y, _, _ = splits[key]
        if not x.low:
            tight = i_ab == len(y.upp) - 2
            bounds.append(ArcBoundCheck(*key, i_ab >= len(y.upp) - 2, tight,
                                        _low_arc_flat(y) if tight else None,
                                        parallel(x, y) if tight else None))
    shape = None
    for key in order if not form else ():
        x, y, b_x, b_y = splits[key]
        size_relation = ((not y.low and b_y == b_x)
                         or (len(y.upp) == len(x.upp) + len(y.low) + 1 and b_y > b_x))
        if not x.low and _low_arc_flat(y) and parallel(x, y) and size_relation:
            shape = FailureShape(*key)
            break
    return StructureReport(v, form, nonempty, form if nonempty else True, tuple(bounds), shape)


def _pairs_3x3():
    """Every pair of the exhaustive 3x3 sweep, its sums found as the sweep
    finds them."""
    keys = sorted(search._class_keys(3, 3, 3, 9, "translation"))
    ds = [classify_points(k) for k in keys]
    walks = {}
    for i, da in enumerate(ds):
        for db in ds[i:]:
            yield Pair(da.points, db.points, da, db, sum_decomposition(da, db, walks))


class TestPerSetFacts:
    """The sweep's ``boundary_counts`` and ``arcs`` checks read integers each
    set memoises; they must decide as the public checkers and the arc splits
    do."""

    def test_boundary_counts_on_every_3x3_pair(self):
        pairs = equalities = 0
        for p in _pairs_3x3():
            r = check_boundary_superadditivity(p.a, p.b, p.da, p.db, p.dab)
            assert CHECKS["boundary_counts"][1](p) == r.ok, (p.a, p.b)
            pairs += 1
            equalities += r.equality
        assert pairs == 73536 and equalities > 0

    def test_arcs_on_every_boundary_only_3x3_pair(self):
        applies, outcome = CHECKS["arcs"]
        pairs = tight = shapes = 0
        for p in _pairs_3x3():
            if not applies(p):
                continue
            r = check_arc_structure(p.a, p.b, decomp_a=p.da, decomp_b=p.db, decomp_ab=p.dab)
            assert outcome(p) == r.ok, (p.a, p.b)
            assert r == _structure_by_arc_splits(p, generic_direction(p.da, p.db)), (p.a, p.b)
            pairs += 1
            tight += any(c.equality for c in r.arc_bounds)
            shapes += r.failure_shape is not None
        assert pairs == 31878 and tight > 0 and shapes > 0

    @given(boundary_only, st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    @settings(max_examples=150, deadline=None)
    def test_arc_facts_match_the_splits_under_v_and_minus_v(self, s, vector):
        assume(vector != (0, 0))
        d = classify_points(s)
        v = Direction.of(*vector)
        assume(all((q.x - p.x) * v.dy != (q.y - p.y) * v.dx
                   for p, q in zip(d.hull_vertices, d.hull_vertices[1:] + d.hull_vertices[:1])))
        assert split_facts(arc_decomposition(s, v)) == (
            _arc_facts_by_split(arc_decomposition(s, v)),
            _arc_facts_by_split(arc_decomposition(s, -v)))

    @given(boundary_only, boundary_only)
    @settings(max_examples=100, deadline=None)
    def test_cached_facts_hold_for_every_steeper_direction(self, a, b):
        # every (1, m) with m > rise splits a set alike, so the cached facts
        # are the facts under the generic direction of any pair
        for s in (a, b):
            d = classify_points(s)
            for m in range(d.rise + 1, d.rise + 7):
                assert split_facts(arc_decomposition(d, Direction(1, m))) == d.arc_facts, (s, m)
        assert check_arc_structure(a, b) == check_arc_structure(a, b, generic_direction(a, b))

    @given(boundary_only, boundary_only, st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    @settings(max_examples=100, deadline=None)
    def test_structure_matches_the_splits(self, a, b, vector):
        # any generic direction, not only the one the check picks
        assume(vector != (0, 0))
        v = Direction.of(*vector)
        p = Pair(a, b)
        assume(all(dx * v.dy != dy * v.dx for d in (p.da, p.db) for _, dx, dy, _ in d.edge_table))
        assert check_arc_structure(a, b, v) == _structure_by_arc_splits(p, v)


class TestExtremalClassification:
    def test_triangle_double_is_recognized(self):
        assert check_extremal_classification(TRI, TRI_DOUBLE)
        assert check_extremal_classification(TRI_DOUBLE, TRI)

    def test_translated_double_still_counts(self):
        assert check_extremal_classification(TRI, TRI_DOUBLE.translate((5, -3)))

    @given(boundary_only, boundary_only)
    @settings(max_examples=100, deadline=None)
    def test_no_unexplained_failures(self, a, b):
        assert check_extremal_classification(a, b)


class TestEqualityFamily:
    def test_triangle_dilations(self):
        a, b, r = equality_family(TRI, 1, 3)
        assert len(a) == 3 and len(b) == 10
        assert (r.tr_a, r.tr_b, r.tr_ab) == (1, 9, 16)
        assert r.main is Verdict.EQUALITY

    def test_square_dilations(self):
        _, _, r = equality_family(SQUARE, 1, 3)
        assert (r.tr_a, r.tr_b, r.tr_ab) == (2, 18, 32)
        assert r.main is Verdict.EQUALITY

    def test_every_small_combination(self):
        shapes = [TRI, SQUARE, PointSet([(0, 0), (2, 1), (1, 3), (-1, 2)])]
        for shape in shapes:
            for k in (1, 2, 3):
                for m in (1, 2, 3):
                    _, _, r = equality_family(shape, k, m)
                    assert r.main is Verdict.EQUALITY, (shape, k, m)

    def test_degenerate_polygon_rejected(self):
        from planesum import DegeneratePolygon

        with pytest.raises(DegeneratePolygon):
            equality_family([(0, 0), (1, 1), (2, 2)], 1, 2)

    def test_bad_factors_rejected(self):
        with pytest.raises(ValueError):
            equality_family(TRI, 0, 2)

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=16, deadline=None)
    def test_dilation_pairs_always_hit_equality(self, k, m):
        _, _, r = equality_family(PointSet([(0, 0), (3, 1), (1, 2)]), k, m)
        assert r.main is Verdict.EQUALITY
