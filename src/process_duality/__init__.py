"""Exact set-valued Lagrange multipliers for polyhedral convex vector programs.

Builds the separator cone and the Lagrange process of a vector program at a
candidate minimal value, forms the unconstrained dual program, and certifies
minimality and proper-efficiency transfer between the two, all in exact
rational arithmetic.
"""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    EfficiencyStatus,
    ProgramContext,
    brute_force_status,
    certify_multiplier,
    classify_proper,
    dual_image,
    is_minimal,
    is_weak_minimal,
    minimal_frontier,
)
from .exactlp import LinearSystem, LpOutcome, LpStatus, lp_solve, strict_feasible
from .model import (
    AffineVectorProgram,
    DiscretePoint,
    DiscreteVectorProgram,
    OrderCone,
    SetValuedPoint,
    SetValuedProgram,
    affine_map,
    feasible_region,
    slater_point,
    upper_image_graph,
)
from .polyhedra import (
    BoundaryRestrictedPolyhedron,
    BoundaryRestriction,
    Polyhedron,
    PolyhedralCone,
    cone_structure,
    dd_convert,
    intersect_empty,
    member,
    polar_cone,
    project,
)
from .problemfile import emit_problem, load_problem, parse_problem
from .process import (
    LagrangeProcess,
    Separator,
    SeparatorCone,
    check_nonvertical,
    fiber_bar,
    halfspace_process,
    lagrange_process,
    process_eval,
    separator_cone,
)

__all__ = [
    "__version__",
    # exact LP
    "LinearSystem", "LpOutcome", "LpStatus", "lp_solve", "strict_feasible",
    # polyhedra
    "Polyhedron", "PolyhedralCone", "BoundaryRestrictedPolyhedron",
    "BoundaryRestriction", "dd_convert", "polar_cone", "project",
    "cone_structure", "member", "intersect_empty",
    # model
    "OrderCone", "AffineVectorProgram", "DiscreteVectorProgram",
    "SetValuedProgram", "DiscretePoint", "SetValuedPoint", "affine_map",
    "feasible_region", "upper_image_graph", "slater_point",
    # process
    "Separator", "SeparatorCone", "LagrangeProcess", "separator_cone",
    "check_nonvertical", "halfspace_process", "fiber_bar",
    "lagrange_process", "process_eval",
    # certify
    "EfficiencyStatus", "Certificate", "ProgramContext", "is_minimal",
    "is_weak_minimal",
    "dual_image", "classify_proper", "certify_multiplier",
    "brute_force_status", "minimal_frontier",
    # files
    "parse_problem", "emit_problem", "load_problem",
]
