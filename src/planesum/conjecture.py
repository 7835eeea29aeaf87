"""Checkers for triangulation-count inequalities over Minkowski sumsets.

Write tr(S) = b + 2i - 2 for the triangle count of a full triangulation of a
finite non-collinear S. The central claim this package probes is a
square-root superadditivity, a discrete cousin of the Brunn-Minkowski
inequality:

    sqrt(tr(A + B)) >= sqrt(tr(A)) + sqrt(tr(B)).

``sqrt_triple_compare`` decides that comparison exactly in integers: with
d = tr(A+B) - tr(A) - tr(B), the inequality holds iff d >= 0 and
d^2 >= 4 tr(A) tr(B), with equality exactly when d^2 = 4 tr(A) tr(B).

``Pair`` owns every fact about one pair: the main verdict, the count form
2 i_{A+B} + b_{A+B} >= 4 i_A + 4 i_B + 2 b_A + 2 b_B - 6 of the stronger
linear form tr(A+B) >= 2(tr(A) + tr(B)), for pairs with no interior points
the boundary form 2 i_{A+B} >= b_A + b_B - 6, the case and the extremal flag.
``check_pair`` collects them into one report.

The remaining checkers verify proved statements on concrete instances, so on
valid inputs they must come back true; a false return is an implementation
bug or a genuine counterexample and either way demands attention:

* ``check_sum_boundary``: a + b lies on the sum's hull boundary exactly when
  the normal cones of a and b intersect. The cones are the summands'
  integer ``cone_rows``, read off each set's boundary cycle.
* ``check_boundary_superadditivity``: b_{A+B} >= b_A + b_B, with equality
  exactly when the support sets of A and B are same-difference
  progressions in every direction where both have two or more points.
  Those are the hull edge normals that A and B share, since a support set
  with two points is a hull edge, so the check compares the summands'
  per-set ``edge_normals`` and ``edge_progressions`` and never walks A + B.
* ``check_unique_rep_bound``: with unique representation,
  tr(A+B) >= |B| tr(A) + tr(B), larger-tr set in the role of A.
* ``check_interior_bounds``: with interior points on both sides,
  i_{A+B} >= i_A + |B| - 1 and symmetrically.
* ``check_arc_structure``: arc bookkeeping for boundary-only pairs under a
  generic direction, including the forced shape when the boundary form
  fails. ``generic_direction`` splits each summand's boundary the same way
  in every pair that holds it, so each set caches one tuple of ints for v
  and one for -v (``HullDecomposition.arc_facts``), and the rules of one
  role/direction configuration are written once on those tuples, for the
  report and for the sweep's ``arcs`` check alike.
* ``check_extremal_classification``: the boundary form fails only for the
  pairs {|A| = 3 and B a translate of A + A}, up to swapping roles.

Every checker takes ``(a, b)`` plus optional cached decompositions of A, B
and A + B, and reads them through one ``Pair``, which builds whichever is
missing: the summands with ``classify_points``, the sum with the merged-hull
kernel ``sum_decomposition``. ``CHECKS`` is the registry of the named side
checks a sweep records: for each, whether it applies to a pair and its
outcome there. The outcomes are the checkers' bodies, which take the
``Pair`` itself, so a sweep builds one ``Pair`` per pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DegeneratePolygon, PreconditionViolated
from .geometry import (
    Coords,
    Direction,
    HullDecomposition,
    Point,
    PointSet,
    _cones_meet,
    arc_decomposition,
    classify_points,
    convex_hull,
    generic_direction,
    split_facts,
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
    here, once. Every fact about the pair that a report or a check needs
    is an attribute or a property here; ``unique`` and ``boundary_only``,
    which the sweep and the check table read on every pair, are set here.
    """

    __slots__ = ("a", "b", "da", "db", "dab", "_tr", "unique", "boundary_only")

    def __init__(self, a: PointSet, b: PointSet,
                 da: Optional[HullDecomposition] = None,
                 db: Optional[HullDecomposition] = None,
                 dab: Optional[SumLike] = None):
        self.a = a
        self.b = b
        self.da = da = classify_points(a) if da is None else da
        self.db = db = classify_points(b) if db is None else db
        self.dab = dab = sum_decomposition(da, db) if dab is None else dab
        self._tr: Optional[Tuple[int, int, int]] = None
        # every point of A + B has exactly one representation
        self.unique = dab.size == da.size * db.size
        self.boundary_only = da.i == 0 and db.i == 0

    @property
    def one_interior_each(self) -> bool:
        return self.da.i == 1 and self.db.i == 1

    @property
    def tr(self) -> Tuple[int, int, int]:
        """(tr(A), tr(B), tr(A + B)), computed on first use."""
        if self._tr is None:
            self._tr = tr_euler(self.da), tr_euler(self.db), tr_euler(self.dab)
        return self._tr

    @property
    def main(self) -> Verdict:
        """Verdict of sqrt(tr(A + B)) >= sqrt(tr(A)) + sqrt(tr(B))."""
        tr_a, tr_b, tr_ab = self.tr
        return sqrt_triple_compare(tr_ab, tr_a, tr_b)

    @property
    def count_form(self) -> bool:
        da, db, dab = self.da, self.db, self.dab
        return 2 * dab.i + dab.b >= 4 * da.i + 4 * db.i + 2 * da.b + 2 * db.b - 6

    @property
    def boundary_form(self) -> Optional[bool]:
        """2 i_{A+B} >= b_A + b_B - 6; None unless the pair is boundary-only."""
        if not self.boundary_only:
            return None
        return 2 * self.dab.i >= self.da.b + self.db.b - 6

    @property
    def case(self) -> Case:
        """The first proved case the pair falls in, else ``GENERAL``."""
        if self.unique:
            return Case.UNIQUE_REPRESENTATION
        if self.one_interior_each:
            return Case.ONE_INTERIOR_EACH
        if self.boundary_only:
            return Case.BOUNDARY_ONLY
        return Case.GENERAL

    @property
    def extremal(self) -> Optional[bool]:
        """Whether the pair is {|A| = 3, B a translate of A + A}, up to roles;
        None unless the boundary form fails."""
        if self.boundary_form is not False:
            return None
        a, b = self.a, self.b
        return ((self.da.size == 3 and is_translate_of(b, minkowski_sum(a, a)))
                or (self.db.size == 3 and is_translate_of(a, minkowski_sum(b, b))))

    def report(self) -> "ConjectureReport":
        """Every count and verdict of the pair, as ``check_pair`` gives it."""
        da, db, dab = self.da, self.db, self.dab
        tr_a, tr_b, tr_ab = self.tr
        return ConjectureReport(
            tr_a=tr_a, tr_b=tr_b, tr_ab=tr_ab,
            b_a=da.b, i_a=da.i, b_b=db.b, i_b=db.i, b_ab=dab.b, i_ab=dab.i,
            main=self.main, strong_holds=tr_ab >= 2 * (tr_a + tr_b),
            ib_holds=self.count_form, boundary_form_holds=self.boundary_form,
            case=self.case, extremal=self.extremal,
        )


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

    def lines(self) -> Tuple[str, ...]:
        """The six ``key=value`` groups in column order: ``planesum check``
        prints one per line, a sweep record joins them with spaces."""
        return (
            f"tr_a={self.tr_a} tr_b={self.tr_b} tr_ab={self.tr_ab}",
            f"b_a={self.b_a} i_a={self.i_a} b_b={self.b_b} i_b={self.i_b}"
            f" b_ab={self.b_ab} i_ab={self.i_ab}",
            f"main={self.main.value}",
            f"strong={_fmt_bool(self.strong_holds)} ib={_fmt_bool(self.ib_holds)}",
            f"boundary_form={_fmt_opt(self.boundary_form_holds)}",
            f"case={self.case.value} extremal={_fmt_opt(self.extremal)}",
        )


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _fmt_opt(v: Optional[bool]) -> str:
    if v is None:
        return "none"
    return "holds" if v else "fails"


def check_pair(a: PointSet, b: PointSet,
               decomp_a: Optional[HullDecomposition] = None,
               decomp_b: Optional[HullDecomposition] = None,
               decomp_ab: Optional[SumLike] = None) -> ConjectureReport:
    """Full report for one pair. Decompositions may be supplied when cached."""
    return Pair(a, b, decomp_a, decomp_b, decomp_ab).report()


def check_sum_boundary(a: PointSet, b: PointSet,
                       decomp_a: Optional[HullDecomposition] = None,
                       decomp_b: Optional[HullDecomposition] = None,
                       decomp_ab: Optional[SumLike] = None) -> bool:
    """Boundary membership of a + b must match normal-cone intersection.

    Points with no cone (interior points) must produce interior sums. The
    cones are the summands' integer cone rows, and two of them meet when
    one holds the other's first ray. Where the sum was found on the packed
    grid, the check reads its boundary bits: the sums p + q of one point p
    of A are a shift of B's packed cells, so for each p one shift and one
    AND give the q with p + q on the boundary, which must equal the cells
    of B whose cone meets p's cone (``HullDecomposition.cone_masks``).
    Otherwise it tests each p + q against the boundary set.
    """
    return _sum_boundary(_pair_for("sum_boundary", a, b, decomp_a, decomp_b, decomp_ab))


def _sum_boundary(p: Pair) -> bool:
    grid = p.dab.grid
    if grid is None:
        sum_boundary = p.dab.boundary
        rows_b = p.db.cone_rows
        for px, py, ca in p.da.cone_rows:
            for qx, qy, cb in rows_b:
                meet = ca is not None and cb is not None and _cones_meet(ca, cb)
                if ((px + qx, py + qy) in sum_boundary) != meet:
                    return False
        return True
    bits, w, h = grid
    da, db = p.da, p.db
    cells_b = db.packed(h, w)
    masks = db.cone_masks(h, w)
    x0, y0 = da.box[0], da.box[1]
    for x, y, cone in da.cone_rows:
        if bits >> w * ((x - x0) * h + y - y0) & cells_b != masks[cone]:
            return False
    return True


class BoundaryCountResult(NamedTuple):
    """Outcome of the boundary-count superadditivity check."""

    holds: bool
    equality: bool
    ap_condition: bool

    @property
    def ok(self) -> bool:
        return _counts_ok(self.holds, self.equality, self.ap_condition)


def check_boundary_superadditivity(
        a: PointSet, b: PointSet,
        decomp_a: Optional[HullDecomposition] = None,
        decomp_b: Optional[HullDecomposition] = None,
        decomp_ab: Optional[SumLike] = None) -> BoundaryCountResult:
    """b_{A+B} >= b_A + b_B, equality iff the progression condition.

    The progression condition asks, for every direction u in which the
    support sets of A and B both have at least two points, that they be
    same-difference progressions. A support set of a finite set is a face
    of its hull, so it has two or more points exactly when u is the outward
    normal of a hull edge of that set. The condition therefore ranges over
    the edge normals that A and B share, and it holds exactly when the two
    sets share as many ``edge_progressions`` as ``edge_normals``; A + B
    enters only through b_{A+B}.
    """
    return BoundaryCountResult(*_boundary_counts(
        _pair_for("boundary_counts", a, b, decomp_a, decomp_b, decomp_ab)))


def _boundary_counts(p: Pair) -> Tuple[bool, bool, bool]:
    """(b_{A+B} >= b_A + b_B, whether that is an equality, the progression
    condition), as a plain tuple: the sweep reads it on every pair."""
    da, db = p.da, p.db
    b_sum, b_ab = da.b + db.b, p.dab.b
    # each shared normal is one shared progression exactly when both sets'
    # points on it step alike
    ap = (len(da.edge_progressions & db.edge_progressions)
          == len(da.edge_normals & db.edge_normals))
    return b_ab >= b_sum, b_ab == b_sum, ap


def _counts_ok(holds: bool, equality: bool, ap_condition: bool) -> bool:
    """Whether ``_boundary_counts`` show the bound, with equality exactly
    under the progression condition."""
    return holds and equality == ap_condition


def check_unique_rep_bound(a: PointSet, b: PointSet,
                           decomp_a: Optional[HullDecomposition] = None,
                           decomp_b: Optional[HullDecomposition] = None,
                           decomp_ab: Optional[SumLike] = None) -> bool:
    """With unique representation: tr(A+B) >= |B| tr(A) + tr(B).

    The roles are assigned so the larger triangulation count sits in the
    multiplied position. Also requires the main verdict not to fail.
    """
    return _unique_rep(_pair_for("unique_rep", a, b, decomp_a, decomp_b, decomp_ab))


def _unique_rep(p: Pair) -> bool:
    tr_a, tr_b, tr_ab = p.tr
    big_other = p.db.size if tr_a >= tr_b else p.da.size
    return (tr_ab >= big_other * max(tr_a, tr_b) + min(tr_a, tr_b)
            and p.main is not Verdict.FAILS)


def check_interior_bounds(a: PointSet, b: PointSet,
                          decomp_a: Optional[HullDecomposition] = None,
                          decomp_b: Optional[HullDecomposition] = None,
                          decomp_ab: Optional[SumLike] = None) -> bool:
    """With i_A, i_B >= 1: i_{A+B} >= i_A + |B| - 1 and symmetrically.

    When both interiors are singletons the count form
    2 i_{A+B} + b_{A+B} >= 4 i_A + 4 i_B + 2 b_A + 2 b_B - 6 is verified too.
    """
    return _interior(_pair_for("interior", a, b, decomp_a, decomp_b, decomp_ab))


def _interior(p: Pair) -> bool:
    da, db, dab = p.da, p.db, p.dab
    ok = dab.i >= da.i + db.size - 1 and dab.i >= db.i + da.size - 1
    if ok and p.one_interior_each:
        ok = p.count_form
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
        return _bound_ok(self.bound_ok, self.equality, self.low_flat_ok, self.parallel_ok)


@dataclass(frozen=True)
class FailureShape:
    """First role/direction configuration explaining a boundary-form
    failure: X's lower arc empty, Y's lower arc flat, the segments [l, r]
    parallel, and the size relation of ``_shape_holds`` all hold there."""

    swapped: bool
    flipped: bool


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
        return (self.nonempty_arcs_imply_form and all(c.ok for c in self.arc_bounds)
                and (self.eq_boundary_form or self.failure_shape is not None))


def check_arc_structure(a: PointSet, b: PointSet, v: Optional[Direction] = None,
                        decomp_a: Optional[HullDecomposition] = None,
                        decomp_b: Optional[HullDecomposition] = None,
                        decomp_ab: Optional[SumLike] = None,
                        ) -> StructureReport:
    """Verify the arc bookkeeping of a boundary-only pair under direction v,
    by default ``generic_direction(a, b)``, which the report gives as ``v``.

    Checks, in order: all four arcs nonempty forces the boundary form; every
    role/direction configuration with an empty lower arc obeys the interior
    bound with its equality consequences; and when the boundary form fails,
    some configuration among (A,B,v), (A,B,-v), (B,A,v), (B,A,-v) exhibits
    the forced failure shape (first match reported).

    Each configuration is read from two tuples of integers per summand, for
    v and -v: under the default direction the set's cached ``arc_facts``,
    under an explicit v the ``split_facts`` of its ``arc_decomposition``.
    The rules of one configuration, the bound (``_bound_facts``,
    ``_bound_ok``) and the failure shape (``_shape_holds``), are written
    once, and the sweep's ``arcs`` check applies the same ones without
    building this report.
    """
    return _arcs(_pair_for("arcs", a, b, decomp_a, decomp_b, decomp_ab), v)


def _configurations(da: HullDecomposition, db: HullDecomposition,
                    v: Optional[Direction] = None) -> tuple:
    """(swapped, flipped, arc facts of X, arc facts of Y, b_X, b_Y) for the
    configurations (A,B,v), (A,B,-v), (B,A,v), (B,A,-v), in that order; v
    defaults to ``generic_direction(da, db)``, under which the facts are the
    sets' cached ``arc_facts``."""
    if v is None:
        (fa, ba), (fb, bb) = da.arc_facts, db.arc_facts
    else:
        (fa, ba), (fb, bb) = (split_facts(arc_decomposition(da, v)),
                              split_facts(arc_decomposition(db, v)))
    b_a, b_b = da.b, db.b
    return ((False, False, fa, fb, b_a, b_b), (False, True, ba, bb, b_a, b_b),
            (True, False, fb, fa, b_b, b_a), (True, True, bb, ba, b_b, b_a))


def _arcs_nonempty(x: tuple, y: tuple) -> bool:
    """Whether the upper and lower arcs of X and Y are all nonempty."""
    return all((x[0], x[1], y[0], y[1]))


def _segments_parallel(x: tuple, y: tuple) -> bool:
    """Whether the segments [l, r] of X and Y are parallel."""
    return x[3] * y[4] == x[4] * y[3]


def _bound_facts(x: tuple, y: tuple, i_ab: int) -> tuple:
    """The empty-lower-arc bound in a configuration whose X has an empty
    lower arc, from the arc facts x and y: (i_{A+B} >= |Y_upp| - 2, whether
    that is an equality, and at equality whether Y's lower arc is flat and
    whether the segments [l, r] are parallel, else None for both)."""
    gap = i_ab - y[0] + 2
    if gap:
        return gap > 0, False, None, None
    return True, True, y[2], _segments_parallel(x, y)


def _bound_ok(bound_ok: bool, equality: bool, low_flat_ok: Optional[bool],
              parallel_ok: Optional[bool]) -> bool:
    """Whether ``_bound_facts`` show the bound and its equality consequences."""
    return bound_ok and (not equality or bool(low_flat_ok and parallel_ok))


def _shape_holds(x: tuple, y: tuple, b_x: int, b_y: int) -> bool:
    """The forced shape of a boundary-form failure in one configuration: X's
    lower arc empty, Y's lower arc flat, the segments [l, r] parallel, and
    either Y's lower arc empty with b_Y = b_X or |Y_upp| = |X_upp| + |Y_low|
    + 1 with b_Y > b_X."""
    return (not x[1] and y[2] and _segments_parallel(x, y)
            and ((not y[1] and b_y == b_x) or (y[0] == x[0] + y[1] + 1 and b_y > b_x)))


def _arcs(p: Pair, v: Optional[Direction] = None) -> StructureReport:
    configs = _configurations(p.da, p.db, v)
    if v is None:
        v = generic_direction(p.da, p.db)
    eq_form = p.boundary_form
    i_ab = p.dab.i
    all_nonempty = _arcs_nonempty(configs[0][2], configs[0][3])
    bounds = tuple([ArcBoundCheck(swapped, flipped, *_bound_facts(x, y, i_ab))
                    for swapped, flipped, x, y, _, _ in configs if not x[1]])
    shape = None
    if not eq_form:
        shape = next((FailureShape(swapped, flipped)
                      for swapped, flipped, x, y, b_x, b_y in configs
                      if _shape_holds(x, y, b_x, b_y)), None)
    return StructureReport(
        v=v, eq_boundary_form=eq_form, all_arcs_nonempty=all_nonempty,
        nonempty_arcs_imply_form=eq_form if all_nonempty else True, arc_bounds=bounds,
        failure_shape=shape,
    )


def _arcs_ok(p: Pair) -> bool:
    """``_arcs(p).ok``, from the same rules, stopping at the first false."""
    configs = _configurations(p.da, p.db)
    eq_form = p.boundary_form
    if not eq_form and _arcs_nonempty(configs[0][2], configs[0][3]):
        return False
    i_ab = p.dab.i
    for _, _, x, y, _, _ in configs:
        if not x[1] and not _bound_ok(*_bound_facts(x, y, i_ab)):
            return False
    return eq_form or any(_shape_holds(x, y, b_x, b_y)
                          for _, _, x, y, b_x, b_y in configs)


def check_extremal_classification(a: PointSet, b: PointSet,
                                  decomp_a: Optional[HullDecomposition] = None,
                                  decomp_b: Optional[HullDecomposition] = None,
                                  decomp_ab: Optional[SumLike] = None) -> bool:
    """Boundary-form failures happen only for the triangle-plus-double family."""
    return _classification(_pair_for("classification", a, b, decomp_a, decomp_b,
                                     decomp_ab))


def _classification(p: Pair) -> bool:
    return p.boundary_form or p.extremal


def _always(p: Pair) -> bool:
    return True


# The named side checks, in record column order: name -> (applies to the
# pair, outcome for the pair). A sweep records a check that does not apply
# as a skip; its public checker raises PreconditionViolated there.
CHECKS: Dict[str, Tuple[Callable[[Pair], bool], Callable[[Pair], bool]]] = {
    "freiman": (_always, lambda p: p.dab.size >= p.da.size + p.db.size - 1),
    "sum_boundary": (_always, _sum_boundary),
    "boundary_counts": (_always, lambda p: _counts_ok(*_boundary_counts(p))),
    "unique_rep": (lambda p: p.unique, _unique_rep),
    "interior": (lambda p: p.da.i >= 1 and p.db.i >= 1, _interior),
    "arcs": (lambda p: p.boundary_only, _arcs_ok),
    "classification": (lambda p: p.boundary_only, _classification),
}


def _pair_for(check: str, a: PointSet, b: PointSet,
              da: Optional[HullDecomposition], db: Optional[HullDecomposition],
              dab: Optional[SumLike]) -> Pair:
    """The pair, once it meets the precondition of the named check."""
    p = Pair(a, b, da, db, dab)
    if not CHECKS[check][0](p):
        raise PreconditionViolated(f"the {check} check does not apply to this pair")
    return p


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
