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

from . import _engine
from ._engine import VARIANCE, ShiftResult
from .core import (
    DataError,
    DetectionParams,
    MonitorState,
    StepStatus,
    TimeSeries,
    _check_real,
    _check_type,
    as_series,
)
from .stats import _two_tailed, f_quantile

__all__ = [
    "critical_variances",
    "detect_variance",
    "init_variance_monitor",
    "monitor_variance",
    "finalize_variance",
]

def critical_variances(current_variance: float, params: DetectionParams) -> tuple[float, float]:
    """Upper and lower critical variances around the open regime's variance.

    The bracket is (v * F, v / F) with F the two-tailed F quantile at level p
    with (l - 1, l - 1) degrees of freedom.
    """
    current_variance = _check_real(current_variance, "current variance", 0, math.inf, DataError)
    _check_type(params, DetectionParams, "params")
    f_crit = _two_tailed(f_quantile, lambda f: 1 / f, params, "F", params.l - 1, params.l - 1)
    return current_variance * f_crit, current_variance / f_crit


def detect_variance(
    residuals: TimeSeries | Sequence[float], params: DetectionParams = DetectionParams()
) -> ShiftResult:
    """Detect all variance shifts in a zero-mean residual series.

    Returns the regime partition, change-points, the residuals normalized by
    each regime's standard deviation (so their mean square is one within
    every regime), and the per-index shift-index trace.
    """
    ts = as_series(residuals)
    return _engine.build_result(VARIANCE, ts, init_variance_monitor(ts, params))


def init_variance_monitor(
    history: TimeSeries | Sequence[float], params: DetectionParams = DetectionParams()
) -> MonitorState:
    """Initialize streaming variance monitoring from at least l residuals."""
    ts = as_series(history)
    f_crit = critical_variances(1.0, params)[0]  # 1.0 * F is F, bit for bit
    return _engine.init_state(VARIANCE, ts, params.l, f_crit, float(params.l))


def monitor_variance(
    state: MonitorState, new_value: float, params: DetectionParams
) -> tuple[MonitorState, StepStatus]:
    """Advance a variance monitor by one residual observation."""
    return _engine.monitor(VARIANCE, state, new_value, params)


def finalize_variance(
    residuals: TimeSeries | Sequence[float], state: MonitorState
) -> ShiftResult:
    """Build the batch-equivalent result from a stream-fed monitor state.

    residuals must hold exactly the monitored points; any other raises DataError.
    """
    return _engine.finalize(VARIANCE, residuals, state)
