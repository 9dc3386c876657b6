"""surfcover: near-optimal placement of omnidirectional sensors covering a
sampled 2D surface in a 3D scene, under visibility, best-quality, and
cumulative-quality coverage models."""

from .clustering import (
    PlaneDeployment,
    clustering_bound,
    coverage_radius,
    farthest_point_clustering,
)
from .coverage import (
    CoverageInstance,
    CoverageReport,
    QualityKind,
    build_instance,
    evaluate,
)
from .drivers import (
    InfeasibleError,
    PipelineReport,
    solve_problem1,
    solve_problem2,
    solve_problem3,
    two_phase_coverage,
    two_phase_quality,
)
from .ilp import (
    IlpModel,
    ModelKind,
    SolveResult,
    SolveStatus,
    build_cumulative_model,
    build_feasibility_model,
    build_visibility_model,
    export_lp,
    solve,
)
from .mesh import (
    CandidateSet,
    SampleSet,
    TriangleMesh,
    generate_candidates_plane,
    load_candidate_set,
    load_obj,
    load_sample_set,
    sample_surface,
    save_json,
    save_obj,
)
from .refine import ConstrainedSphere, improve_quality_max, min_sphere_fixed_plane, refine_grid
from .scenes import gen_room, gen_terrain
from .visibility import (
    Bvh,
    VisibilityMatrix,
    build_bvh,
    load_spvm,
    save_spvm,
    visibility_matrix,
)

__version__ = "0.1.0"
