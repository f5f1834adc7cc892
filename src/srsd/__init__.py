"""srsd: sequential detection of regime shifts in mean, variance, and correlation.

The detectors scan a series one observation at a time, confirm each candidate
shift over the following cut-off-length window, and can run either in batch
or as streaming monitors. Correlation shifts are detected by running the
variance detector on sum and difference channels of normalized inputs, after
mean and variance shifts have been removed — see `run_srsd`.
"""
from .core import (
    ChangePoint,
    DataError,
    DetectionParams,
    MonitorState,
    ParameterError,
    Regime,
    StepStatus,
    TimeSeries,
    regimes_to_stepwise,
)
from .mean_shift import (
    MeanShiftResult,
    detect_mean,
    finalize_mean,
    init_mean_monitor,
    monitor_mean,
    threshold_delta,
)
from .pipeline import (
    CandidateRecord,
    CorrelationResult,
    SrsdResult,
    detect_correlation,
    run_srsd,
    step_skipping_mode,
    sum_diff_channels,
)
from .prewhiten import Ar1Estimate, estimate_ar1, prewhiten
from .stats import (
    CorrelationComparison,
    f_quantile,
    first_differences,
    fisher_ci,
    fisher_compare,
    pearson_r,
    running_avg_variance,
    student_t_quantile,
)
from .synthgen import (
    CANONICAL_SEED,
    RegimeSpec,
    canonical_fixture,
    canonical_spec,
    derive_seeds,
    generate_pair,
)
from .variance_shift import (
    VarianceShiftResult,
    critical_variances,
    detect_variance,
    finalize_variance,
    init_variance_monitor,
    monitor_variance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TimeSeries",
    "DetectionParams",
    "Regime",
    "ChangePoint",
    "MonitorState",
    "StepStatus",
    "ParameterError",
    "DataError",
    "regimes_to_stepwise",
    "student_t_quantile",
    "f_quantile",
    "running_avg_variance",
    "pearson_r",
    "CorrelationComparison",
    "fisher_compare",
    "fisher_ci",
    "first_differences",
    "MeanShiftResult",
    "threshold_delta",
    "detect_mean",
    "init_mean_monitor",
    "monitor_mean",
    "finalize_mean",
    "VarianceShiftResult",
    "critical_variances",
    "detect_variance",
    "init_variance_monitor",
    "monitor_variance",
    "finalize_variance",
    "Ar1Estimate",
    "estimate_ar1",
    "prewhiten",
    "CandidateRecord",
    "CorrelationResult",
    "SrsdResult",
    "sum_diff_channels",
    "detect_correlation",
    "run_srsd",
    "step_skipping_mode",
    "RegimeSpec",
    "generate_pair",
    "derive_seeds",
    "canonical_spec",
    "canonical_fixture",
    "CANONICAL_SEED",
]
