"""The public API: every name ``planesum`` exports, written out, so that
adding or removing one shows as a diff here."""

import planesum

PUBLIC_NAMES = [
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


def test_all_is_pinned_and_resolves():
    assert sorted(planesum.__all__) == PUBLIC_NAMES
    for name in planesum.__all__:
        assert getattr(planesum, name) is not None
