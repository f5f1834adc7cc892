"""Sequential detection of shifts in the variance of zero-mean residuals.

The detector mirrors the mean detector's scan but works on squared values:
the open regime's variance estimate is bracketed by critical variances an
F-quantile factor above and below it, and a squared observation outside the
bracket opens a candidate whose cumulative sum of deviations from the
critical variance must keep its sign through l points to confirm.

Regime variances are means of squares: the inputs are residuals that are
already centered within regimes, so no further mean is estimated.

The scan itself is the shared engine in `_engine` with the `VARIANCE` kind;
this module holds the F-quantile calibration and the public entry points.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _engine
from ._engine import VARIANCE, ShiftResult
from .core import (
    DataError,
    DetectionParams,
    MonitorState,
    StepStatus,
    TimeSeries,
    as_series,
    validate_params,
)
from .stats import f_quantile

__all__ = [
    "VarianceShiftResult",
    "critical_variances",
    "detect_variance",
    "init_variance_monitor",
    "monitor_variance",
]

VarianceShiftResult = ShiftResult


def critical_variances(current_variance: float, params: DetectionParams) -> tuple[float, float]:
    """Upper and lower critical variances around the open regime's variance.

    The bracket is (v * F, v / F) with F the two-tailed F quantile at level p
    with (l - 1, l - 1) degrees of freedom.
    """
    validate_params(params)
    if not 0.0 < current_variance < math.inf:  # written so that a NaN fails too
        raise DataError(f"current variance must be finite and positive, got {current_variance!r}")
    f_crit = f_quantile(1.0 - params.p / 2.0, params.l - 1, params.l - 1)
    return current_variance * f_crit, current_variance / f_crit


def detect_variance(
    residuals: TimeSeries | Sequence[float], params: DetectionParams = DetectionParams()
) -> VarianceShiftResult:
    """Detect all variance shifts in a zero-mean residual series.

    Returns the regime partition, change-points, the residuals normalized by
    each regime's standard deviation (so their mean square is one within
    every regime), and the per-index shift-index trace.
    """
    ts = as_series(residuals)
    state = init_variance_monitor(ts, params)
    if not np.any(ts.values):
        raise DataError("variance detection is undefined for an all-zero series")
    return _engine.build_result(VARIANCE, ts, state)


def init_variance_monitor(
    history: TimeSeries | Sequence[float], params: DetectionParams = DetectionParams()
) -> MonitorState:
    """Initialize streaming variance monitoring from at least l residuals."""
    validate_params(params)
    ts = as_series(history)
    if len(ts) < params.l:
        raise DataError(f"series of length {len(ts)} is shorter than l={params.l}")
    f_crit = f_quantile(1.0 - params.p / 2.0, params.l - 1, params.l - 1)
    return _engine.init_state(VARIANCE, ts, params.l, f_crit, float(params.l))


def monitor_variance(
    state: MonitorState, new_value: float, params: DetectionParams
) -> tuple[MonitorState, StepStatus]:
    """Advance a variance monitor by one residual observation."""
    return _engine.monitor(VARIANCE, state, new_value, params)


def finalize_variance(
    residuals: TimeSeries | Sequence[float], state: MonitorState
) -> VarianceShiftResult:
    """Build the batch-equivalent result from a stream-fed monitor state.

    residuals must hold exactly the monitored points; any other raises DataError.
    """
    return _engine.finalize(VARIANCE, residuals, state)
