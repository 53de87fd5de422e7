"""Difference-coarray robustness analysis and robust minimum redundancy
array search for sparse linear sensor arrays."""

from .coarray import (
    DuplicatePosition,
    EmptyInput,
    IesVector,
    LagSet,
    NoRepeatedRun,
    NonPositiveSpacing,
    SensorArray,
    WeightTable,
    array_from_ies,
    canonicalize,
    difference_coarray,
    doubly_redundant_span,
    extend_repeated_spacing,
    holes,
    ies_of,
    mirror,
    weight_table,
)
from .robustness import (
    ConstraintVerdict,
    FailureReport,
    Fragility,
    NotASensor,
    RobustnessReport,
    analyze,
    check_failure_robustness,
    check_healthy_weights,
    essential_sensors,
    failure_report,
    fragility,
    rmra_check,
    survivor_weights,
)
from .search import (
    CorruptCheckpoint,
    IndexOutOfRange,
    SearchConfig,
    SearchOutcome,
    StageOutcome,
    StageResult,
    Verdict,
    aperture_upper_bound,
    candidate_count,
    checkpoint_load,
    checkpoint_save,
    loses_search,
    rank_candidate,
    run_stage,
    unrank_candidate,
)
from .catalog import (
    CatalogEntry,
    ComparisonRow,
    OutsideComparison,
    compare_apertures,
    known_arrays,
    verify_catalog,
)
from .kernel import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"
