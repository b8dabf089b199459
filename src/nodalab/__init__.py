"""Computational laboratory for nodal sets of Laplace eigenfunctions.

Explicit separable eigenfunctions on an interval, Dirichlet boxes, and flat
tori; exact oracles and grid estimators for tube volumes, nodal measure, and
nodal density; box-subdivision statistics; Diophantine approximation of
points by nodal sets; and a report harness whose pass/fail gates are pure
functions of the recorded numbers.
"""

from .boxes import (
    Subdivision,
    bad_proportion,
    comparability_set,
    goodness_threshold,
    subdivide,
)
from .components import component_inradii, sign_components
from .dioph import (
    ExponentEstimate,
    borel_cantelli_sum,
    estimate_exponent,
    modes_nodal_distance,
)
from .errors import (
    EmptyNodalSetError,
    ResolutionError,
    ResourceGuardError,
    ValidationError,
)
from .grid import GridSample, ResolutionRule, sample_grid
from .harness import (
    GATE_BUILDERS,
    run_approx_theorem,
    run_comparability_scaling,
    run_density_check,
    run_dim2_checks,
    run_exponent_survey,
    run_tube_scaling,
    run_yau_check,
)
from .measures import density_radius, grid_seeds, streamed_tubes, tube_volume
from .reports import (
    CODE_VERSION,
    CellResult,
    ExperimentReport,
    GateResult,
    gate,
    verify_report,
    write_report,
)
from .spectrum import (
    DomainSpec,
    EigenMode,
    ModeList,
    density_radius_exact,
    enumerate_modes,
    eval_mode,
    nodal_distance_exact,
    nodal_measure_exact,
    tube_volume_exact,
)

__version__ = CODE_VERSION

__all__ = [
    "CODE_VERSION",
    "CellResult",
    "DomainSpec",
    "EigenMode",
    "EmptyNodalSetError",
    "ExperimentReport",
    "ExponentEstimate",
    "GATE_BUILDERS",
    "GateResult",
    "GridSample",
    "ModeList",
    "ResolutionError",
    "ResolutionRule",
    "ResourceGuardError",
    "Subdivision",
    "ValidationError",
    "bad_proportion",
    "borel_cantelli_sum",
    "comparability_set",
    "component_inradii",
    "density_radius",
    "density_radius_exact",
    "enumerate_modes",
    "estimate_exponent",
    "eval_mode",
    "gate",
    "goodness_threshold",
    "grid_seeds",
    "modes_nodal_distance",
    "nodal_distance_exact",
    "nodal_measure_exact",
    "run_approx_theorem",
    "run_comparability_scaling",
    "run_density_check",
    "run_dim2_checks",
    "run_exponent_survey",
    "run_tube_scaling",
    "run_yau_check",
    "sample_grid",
    "sign_components",
    "streamed_tubes",
    "subdivide",
    "tube_volume",
    "tube_volume_exact",
    "verify_report",
    "write_report",
]
