"""Checkers for triangulation-count inequalities over Minkowski sumsets.

Write tr(S) = b + 2i - 2 for the triangle count of a full triangulation of a
finite non-collinear S. The central claim this package probes is a
square-root superadditivity, a discrete cousin of the Brunn-Minkowski
inequality:

    sqrt(tr(A + B)) >= sqrt(tr(A)) + sqrt(tr(B)).

``sqrt_triple_compare`` decides that comparison exactly in integers: with
d = tr(A+B) - tr(A) - tr(B), the inequality holds iff d >= 0 and
d^2 >= 4 tr(A) tr(B), with equality exactly when d^2 = 4 tr(A) tr(B).

``check_pair`` evaluates the full report for one pair: the main verdict, the
stronger linear form tr(A+B) >= 2(tr(A) + tr(B)), the equivalent count form
2 i_{A+B} + b_{A+B} >= 4 i_A + 4 i_B + 2 b_A + 2 b_B - 6, and, for pairs
with no interior points, the boundary form 2 i_{A+B} >= b_A + b_B - 6.

The remaining checkers verify proved statements on concrete instances, so on
valid inputs they must come back true; a false return is an implementation
bug or a genuine counterexample and either way demands attention:

* ``check_sum_boundary``: a + b lies on the sum's hull boundary exactly when
  the normal cones of a and b intersect.
* ``check_boundary_superadditivity``: b_{A+B} >= b_A + b_B, with equality
  exactly when every shared support direction sees both support sets as
  same-difference progressions (or a singleton).
* ``check_unique_rep_bound``: with unique representation,
  tr(A+B) >= |B| tr(A) + tr(B), larger-tr set in the role of A.
* ``check_interior_bounds``: with interior points on both sides,
  i_{A+B} >= i_A + |B| - 1 and symmetrically.
* ``check_arc_structure``: arc bookkeeping for boundary-only pairs under a
  generic direction, including the forced shape when the boundary form
  fails.
* ``check_extremal_classification``: the boundary form fails only for the
  pairs {|A| = 3 and B a translate of A + A}, up to swapping roles.

Every checker takes ``(a, b)`` plus optional cached decompositions of A, B
and A + B, and reads them through one ``Pair``, which builds whichever is
missing: the summands with ``classify_points``, the sum with the merged-hull
kernel ``sum_decomposition``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DegeneratePolygon, PreconditionViolated
from .geometry import (
    Coords,
    Direction,
    HullDecomposition,
    Point,
    PointSet,
    _on_segment,
    classify_points,
    convex_hull,
    generic_direction,
    is_ap_same_difference,
)
from .sumset import SumDecomposition, is_translate_of, minkowski_sum, sum_decomposition
from .triangulation import lattice_points_in_hull, tr_euler


class Verdict(enum.Enum):
    STRICT_HOLDS = "StrictHolds"
    EQUALITY = "Equality"
    FAILS = "Fails"


class Case(enum.Enum):
    UNIQUE_REPRESENTATION = "UniqueRepresentation"
    ONE_INTERIOR_EACH = "OneInteriorEach"
    BOUNDARY_ONLY = "BoundaryOnly"
    GENERAL = "General"


def sqrt_triple_compare(t_ab: int, t_a: int, t_b: int) -> Verdict:
    """Exact verdict for sqrt(t_ab) >= sqrt(t_a) + sqrt(t_b), integers only."""
    if t_ab < 0 or t_a < 0 or t_b < 0:
        raise ValueError("triangulation counts are nonnegative")
    if t_ab < t_a + t_b:
        return Verdict.FAILS
    d = t_ab - t_a - t_b
    lhs = d * d
    rhs = 4 * t_a * t_b
    if lhs == rhs:
        return Verdict.EQUALITY
    if lhs > rhs:
        return Verdict.STRICT_HOLDS
    return Verdict.FAILS


SumLike = Union[HullDecomposition, SumDecomposition]


class Pair:
    """One pair (A, B) with the decompositions of A, B and A + B.

    Decompositions passed in are used as they are; missing ones are built
    here, once.
    """

    __slots__ = ("a", "b", "da", "db", "dab")

    def __init__(self, a: PointSet, b: PointSet,
                 da: Optional[HullDecomposition] = None,
                 db: Optional[HullDecomposition] = None,
                 dab: Optional[SumLike] = None):
        self.a = a
        self.b = b
        self.da = classify_points(a) if da is None else da
        self.db = classify_points(b) if db is None else db
        self.dab = sum_decomposition(self.da, self.db) if dab is None else dab

    @property
    def unique(self) -> bool:
        """Whether every point of A + B has exactly one representation."""
        return len(self.dab.points) == len(self.a) * len(self.b)


@dataclass(frozen=True)
class ConjectureReport:
    """All counts and verdicts for one pair (A, B)."""

    tr_a: int
    tr_b: int
    tr_ab: int
    b_a: int
    i_a: int
    b_b: int
    i_b: int
    b_ab: int
    i_ab: int
    main: Verdict
    strong_holds: bool
    ib_holds: bool
    boundary_form_holds: Optional[bool]
    case: Case
    extremal: Optional[bool]


def check_pair(a: PointSet, b: PointSet,
               decomp_a: Optional[HullDecomposition] = None,
               decomp_b: Optional[HullDecomposition] = None,
               decomp_ab: Optional[SumLike] = None) -> ConjectureReport:
    """Full report for one pair. Decompositions may be supplied when cached."""
    p = Pair(a, b, decomp_a, decomp_b, decomp_ab)
    da, db, dab = p.da, p.db, p.dab

    tr_a, tr_b, tr_ab = tr_euler(da), tr_euler(db), tr_euler(dab)
    main = sqrt_triple_compare(tr_ab, tr_a, tr_b)
    strong = tr_ab >= 2 * (tr_a + tr_b)
    ib = 2 * dab.i + dab.b >= 4 * da.i + 4 * db.i + 2 * da.b + 2 * db.b - 6

    boundary_only = da.i == 0 and db.i == 0
    boundary_form: Optional[bool] = None
    if boundary_only:
        boundary_form = 2 * dab.i >= da.b + db.b - 6

    if p.unique:
        case = Case.UNIQUE_REPRESENTATION
    elif da.i == 1 and db.i == 1:
        case = Case.ONE_INTERIOR_EACH
    elif boundary_only:
        case = Case.BOUNDARY_ONLY
    else:
        case = Case.GENERAL

    extremal: Optional[bool] = None
    if boundary_form is False:
        extremal = _is_extremal_pair(a, b)

    return ConjectureReport(
        tr_a=tr_a, tr_b=tr_b, tr_ab=tr_ab,
        b_a=da.b, i_a=da.i, b_b=db.b, i_b=db.i, b_ab=dab.b, i_ab=dab.i,
        main=main, strong_holds=strong, ib_holds=ib,
        boundary_form_holds=boundary_form, case=case, extremal=extremal,
    )


def _is_extremal_pair(a: PointSet, b: PointSet) -> bool:
    if len(a) == 3 and is_translate_of(b, minkowski_sum(a, a)):
        return True
    if len(b) == 3 and is_translate_of(a, minkowski_sum(b, b)):
        return True
    return False


def check_sum_boundary(a: PointSet, b: PointSet,
                       decomp_a: Optional[HullDecomposition] = None,
                       decomp_b: Optional[HullDecomposition] = None,
                       decomp_ab: Optional[SumLike] = None) -> bool:
    """Boundary membership of a + b must match normal-cone intersection.

    Points with no cone (interior points) must produce interior sums. The
    cones are the summands' integer cone rows. Two closed arcs of less than
    a half turn meet exactly when one contains the other's first ray, so
    two containment tests give the answer of ``cones_intersect``.
    """
    p = Pair(a, b, decomp_a, decomp_b, decomp_ab)
    sum_boundary = p.dab.boundary
    rows_b = p.db.cone_rows
    for px, py, ca in p.da.cone_rows:
        if ca is None:
            if any((px + qx, py + qy) in sum_boundary for qx, qy, _ in rows_b):
                return False
            continue
        alx, aly, ahx, ahy = ca
        a_ray = alx == ahx and aly == ahy
        for qx, qy, cb in rows_b:
            meet = False
            if cb is not None:
                blx, bly, bhx, bhy = cb
                # B's first ray in A's cone; a ray cone holds only itself
                meet = ((blx == alx and bly == aly) if a_ray else
                        alx * bly - aly * blx >= 0 and blx * ahy - bly * ahx >= 0)
                # A's first ray in B's cone, unless B's cone is one ray, when
                # that needs al == bl and the test above already found it
                if not meet and (blx != bhx or bly != bhy):
                    meet = blx * aly - bly * alx >= 0 and alx * bhy - aly * bhx >= 0
            if ((px + qx, py + qy) in sum_boundary) != meet:
                return False
    return True


class BoundaryCountResult(NamedTuple):
    """Outcome of the boundary-count superadditivity check."""

    holds: bool
    equality: bool
    ap_condition: bool

    @property
    def ok(self) -> bool:
        return self.holds and self.equality == self.ap_condition


def check_boundary_superadditivity(
        a: PointSet, b: PointSet,
        decomp_a: Optional[HullDecomposition] = None,
        decomp_b: Optional[HullDecomposition] = None,
        decomp_ab: Optional[SumLike] = None) -> BoundaryCountResult:
    """b_{A+B} >= b_A + b_B, equality iff the progression condition.

    The progression condition quantifies over the outward edge normals of
    the sum's hull (the only directions whose support sets can contribute
    more than one boundary point): wherever both support sets have at least
    two points they must be same-difference progressions.
    """
    p = Pair(a, b, decomp_a, decomp_b, decomp_ab)
    da, db, dab = p.da, p.db, p.dab
    holds = dab.b >= da.b + db.b
    equality = dab.b == da.b + db.b
    ap = True
    for u in dab.edge_normals:
        su_a = da.support(u)
        su_b = db.support(u)
        if len(su_a) >= 2 and len(su_b) >= 2:
            # support sets are collinear by construction; the test cannot raise
            if not is_ap_same_difference(su_a, su_b):
                ap = False
                break
    return BoundaryCountResult(holds=holds, equality=equality, ap_condition=ap)


def check_unique_rep_bound(a: PointSet, b: PointSet,
                           decomp_a: Optional[HullDecomposition] = None,
                           decomp_b: Optional[HullDecomposition] = None,
                           decomp_ab: Optional[SumLike] = None) -> bool:
    """With unique representation: tr(A+B) >= |B| tr(A) + tr(B).

    The roles are assigned so the larger triangulation count sits in the
    multiplied position. Also requires the main verdict not to fail.
    """
    p = Pair(a, b, decomp_a, decomp_b, decomp_ab)
    if not p.unique:
        raise PreconditionViolated("pair does not have unique representation")
    tr_a, tr_b, tr_ab = tr_euler(p.da), tr_euler(p.db), tr_euler(p.dab)
    if tr_a < tr_b:
        tr_a, tr_b = tr_b, tr_a
        big_other = len(a)
    else:
        big_other = len(b)
    bound_ok = tr_ab >= big_other * tr_a + tr_b
    verdict = sqrt_triple_compare(tr_ab, tr_a, tr_b)
    return bound_ok and verdict is not Verdict.FAILS


def check_interior_bounds(a: PointSet, b: PointSet,
                          decomp_a: Optional[HullDecomposition] = None,
                          decomp_b: Optional[HullDecomposition] = None,
                          decomp_ab: Optional[SumLike] = None) -> bool:
    """With i_A, i_B >= 1: i_{A+B} >= i_A + |B| - 1 and symmetrically.

    When both interiors are singletons the count form
    2 i_{A+B} + b_{A+B} >= 4 i_A + 4 i_B + 2 b_A + 2 b_B - 6 is verified too.
    """
    p = Pair(a, b, decomp_a, decomp_b, decomp_ab)
    da, db, dab = p.da, p.db, p.dab
    if da.i < 1 or db.i < 1:
        raise PreconditionViolated("both sets need at least one interior point")
    ok = dab.i >= da.i + len(b) - 1 and dab.i >= db.i + len(a) - 1
    if ok and da.i == 1 and db.i == 1:
        ok = 2 * dab.i + dab.b >= 4 * da.i + 4 * db.i + 2 * da.b + 2 * db.b - 6
    return ok


@dataclass(frozen=True)
class ArcBoundCheck:
    """One application of the empty-lower-arc interior bound.

    With X_low empty: i_{A+B} >= |Y_upp| - 2. When that is an equality, the
    lower arc of Y must be flat on the segment [l_Y, r_Y] and the extreme
    segments of X and Y must be parallel.
    """

    swapped: bool
    flipped: bool
    bound_ok: bool
    equality: bool
    low_flat_ok: Optional[bool]
    parallel_ok: Optional[bool]

    @property
    def ok(self) -> bool:
        if not self.bound_ok:
            return False
        if self.equality:
            return bool(self.low_flat_ok) and bool(self.parallel_ok)
        return True


@dataclass(frozen=True)
class FailureShape:
    """First role/direction configuration explaining a boundary-form failure."""

    swapped: bool
    flipped: bool
    x_low_empty: bool
    y_low_flat: bool
    segments_parallel: bool
    size_relation: bool

    @property
    def ok(self) -> bool:
        return (self.x_low_empty and self.y_low_flat
                and self.segments_parallel and self.size_relation)


@dataclass(frozen=True)
class StructureReport:
    """Arc-structure verdicts for a boundary-only pair and generic direction."""

    v: Direction
    eq_boundary_form: bool
    all_arcs_nonempty: bool
    nonempty_arcs_imply_form: bool
    arc_bounds: tuple
    failure_shape: Optional[FailureShape]

    @property
    def ok(self) -> bool:
        if not self.nonempty_arcs_imply_form:
            return False
        if not all(c.ok for c in self.arc_bounds):
            return False
        if not self.eq_boundary_form:
            return self.failure_shape is not None and self.failure_shape.ok
        return True


def check_arc_structure(a: PointSet, b: PointSet, v: Optional[Direction] = None,
                        decomp_a: Optional[HullDecomposition] = None,
                        decomp_b: Optional[HullDecomposition] = None,
                        decomp_ab: Optional[SumLike] = None,
                        ) -> StructureReport:
    """Verify the arc bookkeeping of a boundary-only pair under direction v.

    Checks, in order: all four arcs nonempty forces the boundary form; every
    role/direction configuration with an empty lower arc obeys the interior
    bound with its equality consequences; and when the boundary form fails,
    some configuration among (A,B,v), (A,B,-v), (B,A,v), (B,A,-v) exhibits
    the forced failure shape (first match reported).
    """
    p = Pair(a, b, decomp_a, decomp_b, decomp_ab)
    da, db, dab = p.da, p.db, p.dab
    if da.i != 0 or db.i != 0:
        raise PreconditionViolated("arc structure check needs boundary-only sets")
    if v is None:
        v = generic_direction(da, db)
    i_ab = dab.i

    neg_v = -v
    arcs = {
        (False, False): (da.arc(v), db.arc(v)),
        (False, True): (da.arc(neg_v), db.arc(neg_v)),
    }
    arcs[(True, False)] = (arcs[(False, False)][1], arcs[(False, False)][0])
    arcs[(True, True)] = (arcs[(False, True)][1], arcs[(False, True)][0])

    eq_form = 2 * dab.i >= da.b + db.b - 6

    arc_a, arc_b = arcs[(False, False)]
    all_nonempty = all(len(s) for s in (arc_a.upp, arc_a.low, arc_b.upp, arc_b.low))
    nonempty_ok = eq_form if all_nonempty else True

    bound_checks = []
    for swapped in (False, True):
        for flipped in (False, True):
            arc_x, arc_y = arcs[(swapped, flipped)]
            if len(arc_x.low):
                continue
            bound_ok = i_ab >= len(arc_y.upp) - 2
            equality = i_ab == len(arc_y.upp) - 2
            flat = parallel = None
            if equality:
                flat = all(_on_segment(p, arc_y.l, arc_y.r) for p in arc_y.low)
                seg_x = arc_x.r - arc_x.l
                seg_y = arc_y.r - arc_y.l
                parallel = seg_x[0] * seg_y[1] - seg_x[1] * seg_y[0] == 0
            bound_checks.append(ArcBoundCheck(
                swapped=swapped, flipped=flipped, bound_ok=bound_ok,
                equality=equality, low_flat_ok=flat, parallel_ok=parallel,
            ))

    shape: Optional[FailureShape] = None
    if not eq_form:
        bx, by = da.b, db.b
        for swapped, flipped in ((False, False), (False, True), (True, False), (True, True)):
            arc_x, arc_y = arcs[(swapped, flipped)]
            b_x, b_y = (by, bx) if swapped else (bx, by)
            x_low_empty = not len(arc_x.low)
            y_low_flat = all(_on_segment(p, arc_y.l, arc_y.r) for p in arc_y.low)
            seg_x = arc_x.r - arc_x.l
            seg_y = arc_y.r - arc_y.l
            parallel = seg_x[0] * seg_y[1] - seg_x[1] * seg_y[0] == 0
            size_rel = (
                (not len(arc_y.low) and b_y == b_x)
                or (len(arc_y.upp) == len(arc_x.upp) + len(arc_y.low) + 1 and b_y > b_x)
            )
            cand = FailureShape(
                swapped=swapped, flipped=flipped, x_low_empty=x_low_empty,
                y_low_flat=y_low_flat, segments_parallel=parallel,
                size_relation=size_rel,
            )
            if cand.ok:
                shape = cand
                break

    return StructureReport(
        v=v, eq_boundary_form=eq_form, all_arcs_nonempty=all_nonempty,
        nonempty_arcs_imply_form=nonempty_ok, arc_bounds=tuple(bound_checks),
        failure_shape=shape,
    )


def check_extremal_classification(a: PointSet, b: PointSet,
                                  decomp_a: Optional[HullDecomposition] = None,
                                  decomp_b: Optional[HullDecomposition] = None,
                                  decomp_ab: Optional[SumLike] = None) -> bool:
    """Boundary-form failures happen only for the triangle-plus-double family."""
    p = Pair(a, b, decomp_a, decomp_b, decomp_ab)
    da, db, dab = p.da, p.db, p.dab
    if da.i != 0 or db.i != 0:
        raise PreconditionViolated("classification applies to boundary-only sets")
    if 2 * dab.i >= da.b + db.b - 6:
        return True
    return _is_extremal_pair(a, b)


def equality_family(polygon: Union[Sequence[Coords], PointSet], k: int, m: int,
                    ) -> Tuple[PointSet, PointSet, ConjectureReport]:
    """Dilation pair A = Z^2 cap k*P, B = Z^2 cap m*P for a lattice polygon P.

    These pairs land exactly on the equality case of the main inequality.
    """
    if k < 1 or m < 1:
        raise ValueError("dilation factors must be positive")
    vertices = [Point(p[0], p[1]) for p in polygon]
    hull = convex_hull(PointSet(vertices))
    if len(hull) < 3:
        raise DegeneratePolygon("polygon vertices are collinear")
    a = PointSet(lattice_points_in_hull([Point(k * p.x, k * p.y) for p in hull]))
    b = PointSet(lattice_points_in_hull([Point(m * p.x, m * p.y) for p in hull]))
    return a, b, check_pair(a, b)
