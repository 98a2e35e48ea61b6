"""Dimension bounds for polynomial spline spaces on planar T-meshes.

The package computes combinatorial lower and upper bounds, and certified
exact values, for the dimension of bivariate spline spaces of non-uniform
bi-degree over axis-aligned T-meshes, and cross-checks them against an exact
rational linear-algebra oracle.
"""

from .bounds import (Config1Report, DecompositionMismatch, DimReport,
                     LevelRow, bounds, certify_stable, configuration1_holds,
                     constant_complex_dims, euler_characteristic)
from .graded import (IndexOutOfRange, MixedDirectionError, dim_L, dim_M,
                     dim_edge_increment, dim_power_sum, dim_power_sum_in,
                     dim_shift, dim_vertex_increment)
from .levels import (ActiveLevel, AssumptionReport, AssumptionViolated,
                     active_mesh, all_levels, check_assumptions,
                     island_components, relative_betti)
from .mesh import (ChainConflictError, DanglingOverrideError,
                   DisconnectedError, Edge, InvalidSequenceError,
                   LeveledProfile, MalformedError, MeshError,
                   MissingZeroError, NotSimplyConnectedError, OverlapError,
                   Rect, SmoothnessProfile, TMesh, UnorderedDeficitsError,
                   build_profile, build_smoothness, build_tmesh)
from .oracle import oracle_spline_dim, span_dim, span_quotient_dim
from .segments import (ContributionSets, MaxSegment, SegmentAnalysis,
                       SegmentOrdering, TooManyForExhaustive,
                       analyze_segments, contribution_sets,
                       h0_ideal_oracle, h0_ideal_upper, order_segments)

__version__ = "0.1.0"

__all__ = [
    "ActiveLevel", "AssumptionReport", "AssumptionViolated",
    "ChainConflictError", "Config1Report", "ContributionSets",
    "DanglingOverrideError", "DecompositionMismatch", "DimReport",
    "DisconnectedError", "Edge", "IndexOutOfRange", "InvalidSequenceError",
    "LevelRow", "LeveledProfile", "MalformedError", "MaxSegment",
    "MeshError", "MissingZeroError", "MixedDirectionError",
    "NotSimplyConnectedError", "OverlapError", "Rect", "SegmentAnalysis",
    "SegmentOrdering", "SmoothnessProfile", "TMesh", "TooManyForExhaustive",
    "UnorderedDeficitsError", "active_mesh", "all_levels",
    "analyze_segments", "bounds", "build_profile", "build_smoothness",
    "build_tmesh", "certify_stable", "check_assumptions",
    "configuration1_holds", "constant_complex_dims", "contribution_sets",
    "dim_L", "dim_M", "dim_edge_increment", "dim_power_sum",
    "dim_power_sum_in", "dim_shift", "dim_vertex_increment",
    "euler_characteristic", "h0_ideal_oracle", "h0_ideal_upper",
    "island_components", "oracle_spline_dim", "order_segments",
    "relative_betti", "span_dim", "span_quotient_dim",
]
