"""Exact-arithmetic angle structures on triangulated 3-manifolds.

The package decides whether a triangulated compact pseudo 3-manifold
admits a (semi-)angle structure with prescribed per-triangle areas and
per-edge curvatures, certifies the negative-quad-area condition that
characterizes strict existence, and upgrades flat semi structures to
strict ones.  All quantities are fractions.Fraction values in units of
pi; every verdict is exact and every infeasibility carries a verifiable
Farkas certificate.
"""

from .angle_structures import (
    AngleAssignment,
    AngleStructureError,
    AreaCurvature,
    ac_from_json,
    ac_to_json,
    angles_to_json,
    area_of_quad,
    area_of_triangle,
    classify,
    is_flat_pair,
    realized_area_curvature,
)
from .existence import (
    EquivalenceReport,
    ExistenceError,
    Fails,
    Holds,
    angle_linear_system,
    certify_condition2,
    check_corollary2,
    find_angle_structure,
    find_semi_angle_structure,
    identity_4_9,
)
from .fixtures import Fixture, FixtureError, fixture, fixture_names
from .lp_core import (
    Certificate,
    Infeasible,
    LinearSystem,
    LPError,
    Optimum,
    Solution,
    Unbounded,
    minimize_linear,
    solve_feasibility_nonneg,
    solve_feasibility_strict,
    verify_certificate,
)
from .normal_coords import (
    BasisVerificationError,
    CompatibilitySystem,
    NormalCoordinate,
    NormalCoordinateError,
    SolutionBasis,
    chi_area_curvature,
    chi_star,
    chi_via_lemma2,
    combine,
    compatibility_system,
    decompose,
    is_in_solution_space,
    solution_space_basis,
    z_functional,
)
from .perturbation import (
    PerturbationError,
    PerturbationFamily,
    Perturbed,
    apply_theorem3,
    build_perturbation,
    edge_angle_census,
    max_perturbation_parameter,
)
from .triangulation import (
    EdgeClass,
    FlatTetrahedron,
    Triangulation,
    TriangulationError,
    VertexClass,
    build_edge_classes,
    build_vertex_classes,
    format_triangulation,
    insert_flat_tetrahedron,
    is_ideal_triangulation,
    is_orientable,
    parse_triangulation,
)

__version__ = "0.1.0"
