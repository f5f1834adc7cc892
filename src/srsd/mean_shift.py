"""Sequential detection of shifts in the mean of a series.

The detector compares each new observation against critical levels placed a
threshold above and below the open regime's running mean. The threshold is
the minimum difference between two regime means that a two-sample Student
t-test at level p would call significant, assuming both regimes have the
pooled variance of running l-point windows.

The scan itself is the shared engine in `_engine` with the `MEAN` kind; this
module holds the threshold calibration and the public entry points.
"""
from __future__ import annotations

import math
from typing import Sequence

from . import _engine
from ._engine import MEAN, ShiftResult
from .core import (
    DataError,
    DetectionParams,
    MonitorState,
    ParameterError,
    StepStatus,
    TimeSeries,
    as_series,
    validate_params,
)
from .stats import running_avg_variance, student_t_quantile

__all__ = [
    "MeanShiftResult",
    "threshold_delta",
    "detect_mean",
    "init_mean_monitor",
    "monitor_mean",
]

MeanShiftResult = ShiftResult


def threshold_delta(params: DetectionParams, avg_var: float) -> float:
    """Smallest regime-mean difference treated as a shift.

    Equals t * sqrt(2 * avg_var / l) where t is the two-tailed Student t
    quantile at level p with 2l - 2 degrees of freedom and avg_var is the
    average variance of running l-point windows.
    """
    validate_params(params)
    if not 0.0 <= avg_var < math.inf:  # written so that a NaN avg_var fails too
        raise ParameterError(f"avg_var must be finite and non-negative, got {avg_var!r}")
    t = student_t_quantile(1.0 - params.p / 2.0, 2 * params.l - 2)
    return t * math.sqrt(2.0 * avg_var / params.l)


def detect_mean(
    series: TimeSeries | Sequence[float], params: DetectionParams = DetectionParams()
) -> MeanShiftResult:
    """Detect all mean shifts in a series.

    Returns the regime partition, confirmed change-points (provisional when
    the series ended mid-test), the residual series with the stepwise trend
    removed, and the per-index shift-index trace (nonzero at change-points).
    """
    ts = as_series(series)
    return _engine.build_result(MEAN, ts, init_mean_monitor(ts, params))


def init_mean_monitor(
    history: TimeSeries | Sequence[float],
    params: DetectionParams = DetectionParams(),
    avg_var: float | None = None,
) -> MonitorState:
    """Initialize streaming mean monitoring from at least l historical points.

    avg_var is the pooled running-window variance used to calibrate the
    detection threshold; by default it is computed from the supplied history.
    """
    validate_params(params)
    ts = as_series(history)
    if len(ts) < params.l:
        raise DataError(f"series of length {len(ts)} is shorter than l={params.l}")
    if avg_var is None:
        avg_var = running_avg_variance(ts, params.l)
    delta = threshold_delta(params, avg_var)
    scale = params.l * math.sqrt(avg_var)
    return _engine.init_state(MEAN, ts, params.l, delta, scale)


def monitor_mean(
    state: MonitorState, new_value: float, params: DetectionParams
) -> tuple[MonitorState, StepStatus]:
    """Advance a mean monitor by one observation."""
    return _engine.monitor(MEAN, state, new_value, params)


def finalize_mean(series: TimeSeries | Sequence[float], state: MonitorState) -> MeanShiftResult:
    """Build the batch-equivalent result from a stream-fed monitor state.

    series must hold exactly the monitored points; any other raises DataError.
    """
    return _engine.finalize(MEAN, series, state)
