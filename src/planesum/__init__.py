"""Exact integer geometry for planar point sets and their Minkowski sums."""

from .conjecture import (
    Case,
    ConjectureReport,
    Pair,
    StructureReport,
    Verdict,
    check_arc_structure,
    check_boundary_superadditivity,
    check_extremal_classification,
    check_interior_bounds,
    check_pair,
    check_sum_boundary,
    check_unique_rep_bound,
    equality_family,
    sqrt_triple_compare,
)
from .errors import (
    CapExceeded,
    CollinearInput,
    DegeneratePolygon,
    DirectionNotGeneric,
    NotCollinear,
    ParseError,
    PlanesumError,
    PointNotInSet,
    PreconditionViolated,
    ResumeMismatch,
)
from .geometry import (
    ArcDecomposition,
    Direction,
    HullDecomposition,
    NormalCone,
    Point,
    PointSet,
    arc_decomposition,
    classify_points,
    cones_intersect,
    convex_hull,
    generic_direction,
    interior_count,
    is_ap_same_difference,
    normal_cone,
    orientation,
    support_set,
)
from .ptsfile import (
    load_point_set,
    parse_point_set,
    save_point_set,
    serialize_point_set,
)
from .search import (
    SearchConfig,
    SearchRecord,
    SearchSummary,
    enumerate_point_sets,
    random_point_set,
    random_saturated_set,
    run_search,
    separated_pair,
)
from .sumset import (
    SumDecomposition,
    SumWitness,
    canonical_translate,
    is_translate_of,
    minkowski_sum,
    sum_decomposition,
    unique_representation,
)
from .triangulation import (
    Triangle,
    Triangulation,
    is_lattice_saturated,
    lattice_points_in_hull,
    tr_euler,
    triangulate_explicit,
    twice_hull_area,
)

__version__ = "0.1.0"

__all__ = [
    "ArcDecomposition", "CapExceeded", "Case", "CollinearInput",
    "ConjectureReport", "DegeneratePolygon", "Direction",
    "DirectionNotGeneric", "HullDecomposition", "NormalCone", "NotCollinear",
    "Pair", "ParseError", "PlanesumError", "Point", "PointNotInSet", "PointSet",
    "PreconditionViolated", "ResumeMismatch", "SearchConfig", "SearchRecord",
    "SearchSummary", "StructureReport", "SumDecomposition", "SumWitness",
    "Triangle", "Triangulation", "Verdict", "arc_decomposition",
    "canonical_translate", "check_arc_structure",
    "check_boundary_superadditivity", "check_extremal_classification",
    "check_interior_bounds", "check_pair", "check_sum_boundary",
    "check_unique_rep_bound", "classify_points", "cones_intersect",
    "convex_hull", "enumerate_point_sets", "equality_family",
    "generic_direction", "interior_count", "is_ap_same_difference", "is_lattice_saturated",
    "is_translate_of", "lattice_points_in_hull", "load_point_set",
    "minkowski_sum", "normal_cone", "orientation", "parse_point_set",
    "random_point_set", "random_saturated_set", "run_search",
    "save_point_set", "separated_pair", "serialize_point_set",
    "sqrt_triple_compare", "sum_decomposition", "support_set", "tr_euler",
    "triangulate_explicit", "twice_hull_area", "unique_representation",
]
