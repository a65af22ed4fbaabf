"""Numerical laboratory for a singular SDE driven by fractional Brownian motion.

The target dynamics combine a time-singular, state-singular attracting drift
``a t^{2H-1} / X_t`` (H < 1/2), a linear restoring term ``-b X_t``, and additive
fractional noise ``sigma B^H_t``.  The library constructs the solution as the
monotone limit of regularized equations (the singular kernel and the reciprocal
are both smoothed by a vanishing parameter), and verifies the structural
properties of that limit pathwise: shared-noise ordering, a uniform upper
bound, decay of the nonpositive-time measure, nonnegativity, a nonnegative
correction process closing the integral identity, continuity in the
regularization parameter, a certified local fixed point, and excursion restart
identities.

Modules
-------
fbm
    Exact fractional Brownian motion sampling by circulant embedding, the
    zero driver, Hoelder-constant estimation, nested refinement by kriging.
sde
    The regularized integrator with exact per-step kernel integration, and
    the batched step loop the ladder runs over many paths and levels.
ladder
    Vanishing-regularization ladders: monotone families solved in batched
    chunks of paths, each keeping exact per-path reductions and the rows
    its ``keep`` choice names (none, the limit row or every level), the
    integral-identity residual, and the pathwise verification operations.
picard
    Horizon certification and contraction iteration for the local problem.
excursions
    Decomposition of the positive set, endpoint diagnostics, and restart /
    initial-window integral residuals.
harness
    Reproducible campaign runner with a strict JSON config and report format.
"""

from .fbm import (
    GENERATOR_TAGS,
    FbmGenerationError,
    FbmPath,
    HolderEstimate,
    HurstParam,
    SeedRecord,
    TimeGrid,
    estimate_holder,
    generate_fbm,
    path_stream,
    refine_fbm,
    zero_path,
)
from .sde import (
    RegularizedPath,
    SdeSpec,
    SolverError,
    kernel_column,
    solve_regularized,
)
from .ladder import (
    EpsilonFamily,
    EpsilonLadder,
    EpsContinuityResult,
    build_families,
    build_family,
    compensator_budget,
    compute_compensator,
    identity_residual,
    nonpositive_measure,
    verify_eps_continuity,
    verify_limit_nonnegativity,
    verify_measure_decay,
    verify_nested_zero_sets,
    verify_upper_bound,
)
from .picard import (
    InfeasibleProblemError,
    LocalProblem,
    PicardBandError,
    contraction_modulus,
    fixed_point_residual,
    picard_solve,
    select_delta,
)
from .excursions import (
    ExcursionSet,
    IntervalTooShortError,
    decompose_excursions,
    residual_window_threshold,
    restart_residual,
    verify_endpoint_limits,
    verify_initial_identity,
)
from .harness import (
    CHECK_ORDER,
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    VerificationReport,
    config_digest,
    config_from_dict,
    load_config,
    render_report_table,
    run_campaign,
)
from .io import (
    read_csv_with_meta,
    write_csv,
    write_family_csv,
    write_fbm_csv,
    write_solution_csv,
)
__version__ = "0.1.0"

__all__ = [
    "CHECK_ORDER",
    "DEFAULT_TOLERANCES",
    "GENERATOR_TAGS",
    "EpsContinuityResult",
    "EpsilonFamily",
    "EpsilonLadder",
    "ExcursionSet",
    "ExperimentConfig",
    "FbmGenerationError",
    "FbmPath",
    "HolderEstimate",
    "HurstParam",
    "InfeasibleProblemError",
    "IntervalTooShortError",
    "LocalProblem",
    "PicardBandError",
    "RegularizedPath",
    "SdeSpec",
    "SeedRecord",
    "SolverError",
    "TimeGrid",
    "VerificationReport",
    "build_families",
    "build_family",
    "config_digest",
    "config_from_dict",
    "compensator_budget",
    "compute_compensator",
    "contraction_modulus",
    "decompose_excursions",
    "estimate_holder",
    "fixed_point_residual",
    "generate_fbm",
    "identity_residual",
    "kernel_column",
    "load_config",
    "nonpositive_measure",
    "path_stream",
    "picard_solve",
    "read_csv_with_meta",
    "refine_fbm",
    "render_report_table",
    "residual_window_threshold",
    "restart_residual",
    "run_campaign",
    "select_delta",
    "solve_regularized",
    "verify_endpoint_limits",
    "verify_eps_continuity",
    "verify_initial_identity",
    "verify_limit_nonnegativity",
    "verify_measure_decay",
    "verify_nested_zero_sets",
    "verify_upper_bound",
    "write_csv",
    "write_family_csv",
    "write_fbm_csv",
    "write_solution_csv",
    "zero_path",
]
