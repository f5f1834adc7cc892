"""The sequential regime-shift detector: one state machine, two kinds.

Both detectors run the same state machine over a stream of observations:

* the open regime keeps a running estimate from its most recent l member
  values (bootstrapped from the first l observations of the series);
* an observation falling outside the regime's critical bounds opens a
  candidate change-point and starts a cumulative shift index over the next
  points (the candidate included, l points in total);
* if the index keeps the candidate's sign through all l points the candidate
  is confirmed and a new regime starts at it; if the sign is lost the
  candidate folds back into the open regime and the points seen during the
  failed test are rescanned as ordinary observations.

One kernel, `_scan`, runs the machine with a cursor over a list of scanned
values; a failed test rewinds the cursor to the point after the candidate.
Batch detection is one scan of the whole history, a monitor step one scan of
the new observation after the values of the candidate it resumes.

Everything that differs between the mean and the variance detector is one
`Kind` record: the engine works on raw values for means and on squared
residuals for variances, and the critical-bound geometry is additive for
means and multiplicative for variances (the STARS geometry, Rodionov 2004).
The result builder, the checked monitor step and the finalize path are shared;
`mean_shift` and `variance_shift` keep only their calibration and thin public
entry points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

import numpy as np

from .core import (
    ChangePoint,
    DataError,
    DetectionParams,
    MonitorState,
    ParameterError,
    PendingCandidate,
    Regime,
    StepStatus,
    TimeSeries,
    as_series,
    regimes_to_stepwise,
    validate_params,
)
from .stats import _pooled_t_p, _variance_ratio_p

_STABLE = StepStatus(state="stable")


def _detrend(values: np.ndarray, regimes: list[Regime]) -> np.ndarray:
    return values - regimes_to_stepwise(len(values), regimes)


def _normalize(values: np.ndarray, regimes: list[Regime]) -> np.ndarray:
    for r in regimes:
        if r.value <= 0.0:
            raise DataError(
                f"regime [{r.start}, {r.end}] has zero variance; normalization is undefined"
            )
    return values / np.sqrt(regimes_to_stepwise(len(values), regimes))


@dataclass(frozen=True)
class Kind:
    """What the mean and the variance detector do differently.

    squared: the engine scans x * x instead of x, so each regime's statistic
        (the mean of the scanned values) is a mean square, not a mean.
    multiplicative: the critical bounds are estimate / F and estimate * F
        instead of estimate - delta and estimate + delta.
    span_test: p-value of the shift between two adjacent regimes, given the
        scanned values of each.
    output: the input series adjusted by the regime statistics.
    series_name, trace_name: what results, files and traces call the output
        series and the shift-index trace.
    """

    name: Literal["mean", "variance"]
    squared: bool
    multiplicative: bool
    span_test: Callable[[np.ndarray, np.ndarray], float | None]
    output: Callable[[np.ndarray, list[Regime]], np.ndarray]
    series_name: str
    trace_name: str


MEAN = Kind("mean", False, False, _pooled_t_p, _detrend, "residuals", "rsi")
VARIANCE = Kind("variance", True, True, _variance_ratio_p, _normalize, "normalized", "rssi")
KINDS = {kind.name: kind for kind in (MEAN, VARIANCE)}


@dataclass(eq=False)
class ShiftResult:
    """Regimes, change-points, the adjusted series and the shift-index trace.

    For the mean detector `series` is the input minus the stepwise trend
    (also readable as `residuals`) and `trace` is the RSI (`rsi`); for the
    variance detector `series` is the input divided by each regime's standard
    deviation (`normalized`) and `trace` is the RSSI (`rssi`).
    """

    regimes: list[Regime]
    change_points: list[ChangePoint]
    series: TimeSeries
    trace: np.ndarray

    residuals = property(lambda self: self.series, doc="Alias of `series`.")
    normalized = property(lambda self: self.series, doc="Alias of `series`.")
    rsi = property(lambda self: self.trace, doc="Alias of `trace`.")
    rssi = property(lambda self: self.trace, doc="Alias of `trace`.")

    @property
    def stepwise(self) -> np.ndarray:
        """Each regime's statistic repeated over its span."""
        return regimes_to_stepwise(len(self.series), self.regimes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShiftResult):
            return NotImplemented
        return (
            self.regimes == other.regimes
            and self.change_points == other.change_points
            and self.series == other.series
            and np.array_equal(self.trace, other.trace)
        )


def init_state(
    kind: Kind, history: TimeSeries, l: int, threshold: float, index_scale: float
) -> MonitorState:
    """Seed a monitor from at least l historical observations.

    The first regime's estimate is bootstrapped from the first l points.
    Those points are then scanned like any later observation, so candidates
    inside the bootstrap window are still found; index 1 alone can never be a
    change-point.
    """
    values = history.values.tolist()
    scanned = (history.values * history.values).tolist() if kind.squared else values
    state = MonitorState(kind.name, l, threshold, index_scale, values, scanned[:l], l, None, [])
    _scan(state, kind.multiplicative, scanned, 1, 1)
    return state


def _scan(
    state: MonitorState, multiplicative: bool, buf: list[float], base: int, i: int
) -> ChangePoint | None:
    """Scan buf[i:], where buf[k] is the scanned value of point base + k.

    A candidate that state holds open starts at buf[0] and has been tested
    on buf[:i]. The window always holds exactly cap values. Returns the
    change-point confirmed at the last point of buf, if any.
    """
    cap, threshold, n = state.cap, state.threshold, len(buf)
    win, last, pend, confirmed = state.window, state.last, state.pending, None
    start = -1 if pend is None else 0
    if pend is not None:
        up, critical, csum = pend.csum > 0.0, pend.critical, pend.csum
    while i < n:
        if start < 0:
            value = buf[i]
            est = sum(win) / cap
            if multiplicative:
                lo, hi = est / threshold, est * threshold
            else:
                lo, hi = est - threshold, est + threshold
            if value > hi:
                up, critical = True, hi
            elif value < lo:
                up, critical = False, lo
            else:
                if base + i > last:  # points of the bootstrap window are members already
                    last = base + i
                    win.append(value)
                    del win[0]
                i += 1
                continue
            if state.index_scale <= 0.0:
                state.last = last
                raise DataError("degenerate series: shift index scale is zero")
            # The candidate's own point is the first one its test counts.
            start, csum = i, 0.0
        while i < n:
            csum += buf[i] - critical
            i += 1
            if csum <= 0.0 if up else csum >= 0.0:
                # Failed test: the candidate joins the open regime and the
                # cursor rewinds to rescan everything after it.
                if base + start > last:
                    last = base + start
                    win.append(buf[start])
                    del win[0]
                i, start = start + 1, -1
                break
            if i - start == cap:
                cp = ChangePoint(index=base + start, index_value=csum / state.index_scale)
                state.change_points.append(cp)
                win = state.window = buf[start:i]
                last = base + i - 1
                confirmed, start = cp if i == n else None, -1
                break
    state.last = last
    if start < 0:
        state.pending = None
    elif pend is not None and start == 0:
        pend.csum = csum
    else:
        state.pending = PendingCandidate(base + start, critical, csum, buf[start:])
    return confirmed


def build_result(kind: Kind, ts: TimeSeries, state: MonitorState) -> ShiftResult:
    """The detector's result for the series ts that state has scanned.

    A candidate still under test when the series ends is emitted as a
    provisional change-point (its index kept its sign through every point
    that was available), but it does not split the open regime: only
    confirmed change-points delimit regime spans, so the last span runs to
    the end of the series. The state itself is not modified.
    """
    cps, pend = list(state.change_points), state.pending
    if pend is not None:
        cps.append(ChangePoint(pend.index, pend.csum / state.index_scale, provisional=True))
    trace = np.zeros(len(ts))
    for cp in cps:
        trace[cp.index - 1] = cp.index_value
    starts = [1] + [cp.index for cp in state.change_points]
    spans = list(zip(starts, [s - 1 for s in starts[1:]] + [len(ts)]))
    scanned = ts.values * ts.values if kind.squared else ts.values
    p_values = [
        None
        if e0 - s0 + 1 < 4 or e1 - s1 + 1 < 4
        else kind.span_test(scanned[s0 - 1 : e0], scanned[s1 - 1 : e1])
        for (s0, e0), (s1, e1) in zip(spans, spans[1:])
    ]
    regimes = [
        Regime(s, e, kind.name, float(scanned[s - 1 : e].mean()), p_values[j - 1] if j else None)
        for j, (s, e) in enumerate(spans)
    ]
    # Confirmed change-points delimit spans in order; a provisional tail
    # candidate has no completed regime on its right, so its p-value stays None.
    confirmed_p = iter(p_values)
    change_points = [
        replace(cp, p_value=None if cp.provisional else next(confirmed_p)) for cp in cps
    ]
    series = TimeSeries(kind.output(ts.values, regimes), labels=ts.labels, name=ts.name)
    return ShiftResult(regimes, change_points, series, trace)


def monitor(
    kind: Kind, state: MonitorState, new_value: float, params: DetectionParams
) -> tuple[MonitorState, StepStatus]:
    """Advance a monitor of this kind by one observation.

    Each params object is checked once per state: DetectionParams is frozen.
    A non-finite observation raises DataError and leaves the state as it was.
    """
    if state.kind != kind.name:
        raise ParameterError(f"state belongs to a {state.kind!r} detector")
    raw_value = float(new_value)
    if not math.isfinite(raw_value):
        raise DataError(f"observation {raw_value!r} at position {len(state.raw) + 1} is not finite")
    if params is not state.checked_params:
        validate_params(params)
        if params.l != state.cap:
            raise ParameterError(f"params.l={params.l} does not match monitor l={state.cap}")
        state.checked_params = params
    state.raw.append(raw_value)
    value = raw_value * raw_value if kind.squared else raw_value
    pend = state.pending
    if pend is None:
        buf, base = [value], len(state.raw)
    else:
        buf, base = pend.values, pend.index
        buf.append(value)
    confirmed = _scan(state, kind.multiplicative, buf, base, len(buf) - 1)
    pend = state.pending
    if pend is not None:
        return state, StepStatus("candidate", pend.index, pend.csum / state.index_scale)
    return state, _STABLE if confirmed is None else StepStatus("confirmed", change_point=confirmed)


def finalize(
    kind: Kind, series: TimeSeries | Sequence[float], state: MonitorState
) -> ShiftResult:
    """Build the batch-equivalent result from a stream-fed monitor state.

    series must be exactly the monitored points, history included: the
    regimes come from the state and the output series from series.
    """
    if state.kind != kind.name:
        raise ParameterError(f"state belongs to a {state.kind!r} detector")
    ts = as_series(series)
    if len(ts) != len(state.raw):
        raise DataError(
            f"series length {len(ts)} does not match {len(state.raw)} monitored points"
        )
    differ = np.flatnonzero(ts.values != np.asarray(state.raw))
    if differ.size:
        i = int(differ[0])
        raise DataError(
            f"series value {float(ts.values[i])!r} at position {i + 1} differs "
            f"from the monitored value {state.raw[i]!r}"
        )
    return build_result(kind, ts, state)
