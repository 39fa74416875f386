"""Double circle packings of planar maps and the discrete-to-continuum
correspondence for harmonic functions of finite Dirichlet energy."""

from .continuum import (
    BoundaryFunction,
    GridDiscField,
    HarmonicDiscField,
    boundary_function_to_csv,
    douglas_energy,
    energy_continuous,
    grid_capacity,
    inner_product_continuous,
    load_boundary_csv,
    oscillation_bound_check,
    poisson_extend,
    sample_grid_field,
)
from .errors import ConfigError, ConvergenceError, InvariantViolation
from .maps import (
    FaceStructure,
    MapData,
    PlanarMap,
    Truncation,
    boundary_truncation,
    build_map,
    canonical_encoding,
    dual_map,
    euler_characteristic,
    is_polyhedral,
    load_map_json,
    map_data,
    map_to_json,
    trace_faces,
    truncate,
)
from .packing import (
    DoublePacking,
    GeometryReport,
    RadiiSolution,
    angle_defect,
    compute_delta0,
    geometry_report,
    layout,
    packing_to_json,
    solve_radii,
)
from .potential import (
    CapacityEstimate,
    CapacityProfile,
    RoydenSplit,
    VertexFunction,
    capacity,
    capacity_to_json,
    energy,
    escape_capacity,
    inner_product,
    load_vertex_function_csv,
    quasi_asymptotic_profile,
    royden_project,
    solve_dirichlet,
    vertex_function_to_csv,
    walk_limit_estimate,
)
from .render import packing_to_svg
from .tilings import generate_grid, generate_tiling
from .transfer import (
    AffineExtension,
    ContinuityCheck,
    HarnackFit,
    TransferReport,
    capacity_comparison,
    cont_operator,
    continuity_bound_check,
    disc_average,
    disc_operator,
    energy_of_extension,
    extend_affine,
    harnack_fit,
    harnack_to_json,
    roundtrip,
    shrunk_discs,
    transfer_report_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
