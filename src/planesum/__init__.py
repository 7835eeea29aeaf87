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
    ParseError,
    PlanesumError,
    PreconditionViolated,
    ResumeMismatch,
)
from .geometry import (
    ArcDecomposition,
    Direction,
    HullDecomposition,
    Point,
    PointSet,
    arc_decomposition,
    classify_points,
    convex_hull,
    generic_direction,
    interior_count,
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
    canonical_translate,
    is_translate_of,
    minkowski_sum,
    sum_decomposition,
)
from .triangulation import (
    Triangle,
    Triangulation,
    lattice_points_in_hull,
    tr_euler,
    triangulate_explicit,
)

__version__ = "0.1.0"

__all__ = [
    "ArcDecomposition", "CapExceeded", "Case", "CollinearInput",
    "ConjectureReport", "DegeneratePolygon", "Direction",
    "DirectionNotGeneric", "HullDecomposition", "Pair", "ParseError",
    "PlanesumError", "Point", "PointSet", "PreconditionViolated",
    "ResumeMismatch", "SearchConfig", "SearchRecord", "SearchSummary",
    "StructureReport", "SumDecomposition", "Triangle", "Triangulation",
    "Verdict", "arc_decomposition", "canonical_translate",
    "check_arc_structure", "check_boundary_superadditivity",
    "check_extremal_classification", "check_interior_bounds", "check_pair",
    "check_sum_boundary", "check_unique_rep_bound", "classify_points",
    "convex_hull", "enumerate_point_sets", "equality_family",
    "generic_direction", "interior_count", "is_translate_of",
    "lattice_points_in_hull", "load_point_set", "minkowski_sum",
    "parse_point_set", "random_point_set", "random_saturated_set",
    "run_search", "save_point_set", "separated_pair", "serialize_point_set",
    "sqrt_triple_compare", "sum_decomposition", "tr_euler",
    "triangulate_explicit",
]
