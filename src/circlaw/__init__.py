"""Finite-n circular-law diagnostics for additively perturbed i.i.d. matrices.

The package samples standardized i.i.d. random matrices X, forms the scaled
pair A = X/sqrt(n) and B = (X + M)/sqrt(n) for a deterministic low-rank
perturbation M, and measures every quantity the comparison between their
spectral distributions rests on: normalized log-determinant gaps, singular
value ECDF distances and their rank bound, extreme singular-value scaling,
the rank-one outlier, and the Green identity for polynomial root measures.
"""

from .errors import (
    BudgetViolationError,
    CirclawError,
    DomainError,
    InvalidValueError,
    MeasureError,
    NumericalConsistencyError,
    ShapeError,
    SingularSupportError,
    ValidationError,
)
from .ensemble import (
    DISTRIBUTION_KINDS,
    PERTURBATION_KINDS,
    AssembledPair,
    EntryDistribution,
    MatrixSample,
    Perturbation,
    PerturbationSpec,
    assemble,
    build_perturbation,
    derive_seed,
    numerical_rank,
    perturbed,
    read_matrix_csv,
    sample_matrix,
    scaled,
    write_matrix_csv,
)
from .spectral import (
    ShiftedSpectrum,
    SpectralSummary,
    WeylCheck,
    check_weyl,
    eigenvalues,
    log_abs_det_lu,
    logdet_agree,
    max_dimension,
    shifted,
    singular_values,
    summarize,
)
from .measures import (
    EmpiricalMeasure1D,
    EmpiricalMeasure2D,
    IbpResult,
    angular_disk_distance,
    ecdf_eval,
    ibp_difference,
    kolmogorov_distance,
    log_integral_diff,
    radial_disk_distance,
)
from .diagnostics import (
    BumpFunction,
    ConstantCaseRecord,
    DeltaDiagnostics,
    DimScalingStats,
    GreenIdentityResult,
    LemmaSuiteReport,
    RankCheck,
    Rectangle,
    ScalingReport,
    ZGrid,
    aggregate_scaling,
    constant_case,
    delta_at,
    delta_row,
    delta_scan,
    green_identity_residual,
    ks_distance_brute_force,
    run_lemma_trials,
    verify_rank_inequality,
)
from .harness import (
    DEFAULT_Z_GRID,
    DiskRecord,
    ExperimentConfig,
    RunReport,
    build_pair,
    disk_record,
    load_config,
    parse_config,
    run_experiment,
    serialize_config,
    write_report_files,
)

__version__ = "0.1.0"
