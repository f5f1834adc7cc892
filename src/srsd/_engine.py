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

Two kernels run the machine. `_scan` moves a cursor over a list of scanned
values and rewinds it to the point after the candidate of a failed test: a
monitor step scans its new observation after the values of the candidate it
resumes, and a batch scan of fewer than `_JUMP_MIN` points the whole history.
Longer batch scans take `_jump_scan`: numpy finds every candidate and its
test's outcome, and a loop jumps between them. Both add each window left to
right from int 0, on every interpreter: `_window_sum` is `sum` where `sum` does.

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
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import add
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
    _check_length,
    _check_type,
    _partition,
    _stepwise,
    as_series,
)
from .stats import _BLOCK, _pooled_t_p, _variance_ratio_p

_STABLE = StepStatus(state="stable")
# From Python 3.12 sum compensates (gh-100425); before it, it is the fastest left-to-right sum.
_window_sum = sum if sum([1e16, 1.0, -1e16]) == 0.0 else lambda win: reduce(add, win, 0)
_JUMP_MIN = 400  # series length from which init_state jumps; the loop wins below about 300 points


def _square_overflow(x: float, position: int) -> DataError:
    """The error for a finite observation x at position (1-based) whose square overflows."""
    why = f"overflows when squared; |x| must lie below {2.0**512:.3g}"
    return DataError(f"observation {x!r} at position {position} {why}")


@np.errstate(over="raise")  # as a decorator it costs about half of what a with statement does
def _squares(values: np.ndarray) -> np.ndarray:
    """values * values, or the error that names the first value whose square overflows."""
    try:
        return values * values
    except FloatingPointError:
        i = int(np.flatnonzero(np.abs(values) >= 2.0**512)[0])  # x * x is finite below 2**512
        raise _square_overflow(float(values[i]), i + 1) from None


def _detrend(values: np.ndarray, regimes: list[Regime]) -> np.ndarray:
    out = _stepwise(regimes)
    return np.subtract(values, out, out=out)


def _normalize(values: np.ndarray, regimes: list[Regime]) -> np.ndarray:
    for r in regimes:
        if r.value <= 0.0:
            raise DataError(
                f"regime [{r.start}, {r.end}] has zero variance; normalization is undefined"
            )
    out = _stepwise(regimes)
    return np.divide(values, np.sqrt(out, out=out), out=out)


@dataclass(frozen=True)
class Kind:
    """What the mean and the variance detector do differently.

    squared: the engine scans x * x instead of x, so a regime's statistic is a mean square,
        and brackets it by estimate / F and estimate * F instead of estimate -/+ delta.
    span_test: p-value of the shift between two adjacent regimes, given the
        scanned values of each; both hold at least 4 points.
    output: the input series adjusted by the regime statistics.
    """

    name: Literal["mean", "variance"]
    squared: bool
    span_test: Callable[[np.ndarray, np.ndarray], float | None]
    output: Callable[[np.ndarray, list[Regime]], np.ndarray]


MEAN = Kind("mean", False, _pooled_t_p, _detrend)
VARIANCE = Kind("variance", True, _variance_ratio_p, _normalize)


@dataclass
class ShiftResult:
    """Regimes, change-points, the adjusted series and the shift-index trace.

    For the mean detector `series` is the input minus the stepwise trend
    (also readable as `residuals`) and `trace` is the RSI (`rsi`); for the
    variance detector `series` is the input divided by each regime's standard
    deviation (`normalized`) and `trace` is the RSSI (`rssi`). The trace is
    computed from the change-points when it is read: each one's index value
    at its index, provisional ones included, and zero elsewhere.
    """

    regimes: list[Regime]
    change_points: list[ChangePoint]
    series: TimeSeries

    @property
    def trace(self) -> np.ndarray:
        """The shift-index trace, a new array on each read: the result stores none."""
        trace = np.zeros(len(self.series))
        for cp in self.change_points:
            trace[cp.index - 1] = cp.index_value
        return trace

    residuals = normalized = property(lambda self: self.series, doc="Alias of `series`.")
    rsi = rssi = trace


def init_state(
    kind: Kind, history: TimeSeries, l: int, threshold: float, index_scale: float
) -> MonitorState:
    """Seed a monitor from at least l historical observations.

    The first regime's estimate is bootstrapped from the first l points.
    Those points are then scanned like any later observation, so candidates
    inside the bootstrap window are still found; index 1 alone can never be a
    change-point.
    """
    _check_length(history, l, "l")
    arr = _squares(history.values) if kind.squared else history.values
    state = MonitorState(kind.name, threshold, index_scale, array("d"), arr[:l].tolist(), None, [])
    if len(arr) >= _JUMP_MIN:
        _jump_scan(state, kind.squared, arr)  # before raw is built: its peak leaves raw out
    else:
        _scan(state, kind.squared, arr.tolist(), 1, 1)
    # One copy of the C-contiguous values, exported through a view: numpy keeps an exported
    # array's buffer info (72 bytes) for as long as the array lives.
    state.raw.frombytes(memoryview(history.values[:]).cast("B"))
    return state


@np.errstate(all="ignore")  # overflow is silent, as in the loop's float arithmetic
def _jump_scan(state: MonitorState, multiplicative: bool, arr: np.ndarray) -> None:
    """What `_scan(state, multiplicative, arr.tolist(), 1, 1)` does to a fresh state.

    Outside a test the estimate at arr[k] is the mean of arr[t : t + cap], t = max(k, cap) - cap,
    whatever the scan did before, so each opener, its bound and its test's outcome follow from k
    alone. Blocks of positions find them with numpy; the loop visits only the openers whose test
    kept its sign, since after a failed test the loop's rescan only walks on to the next opener.
    """
    n, cap, th, cursor = len(arr), len(state.window), state.threshold, 1
    size = _BLOCK // 4  # elements of a test matrix, such as the first 8 points of a block's tests
    for b0 in range(1, n, size // 8):
        b1 = min(n, b0 + size // 8)
        t0, t1 = max(b0, cap) - cap, max(b1 - 1, cap) - cap + 1
        est = np.zeros(t1 - t0) + arr[t0:t1]  # window sums in _window_sum's order, from int 0
        for j in range(1, cap):
            est += arr[t0 + j : t1 + j]
        est = est[np.maximum(np.arange(b0, b1), cap) - cap - t0] / cap
        lo, hi = (est / th, est * th) if multiplicative else (est - th, est + th)
        up = arr[b0:b1] > hi
        rows = np.flatnonzero(up | (arr[b0:b1] < lo))
        if rows.size and state.index_scale <= 0.0:
            raise DataError("degenerate series: shift index scale is zero")
        up, crit, avail = up[rows], np.where(up, hi, lo)[rows], np.minimum(n - b0 - rows, cap)
        seg = np.full(b1 - b0 + cap, np.nan)  # the tested values; past the end NaN loses no sign
        seg[: n - b0] = arr[b0 : b0 + len(seg)]
        # Sum the first 8 points of every test, then the rest of those that kept their sign.
        csum, ok, live, done = np.zeros(rows.size), np.zeros(rows.size, bool), np.arange(rows.size), 0
        while live.size:
            w = min(cap - done, size // live.size if done else 8)
            # d[j, r]: the running sum of test live[r] at its point done + j, in the loop's order.
            d = seg[np.add.outer(np.arange(done, done + w), rows[live])] - crit[live]
            d[0] += csum[live]
            for j in range(1, w):
                d[j] += d[j - 1]
            lost = np.where(up[live], np.fmin.reduce(d) <= 0.0, np.fmax.reduce(d) >= 0.0)
            csum[live] = d[np.minimum(avail[live] - done, w) - 1, np.arange(live.size)]
            done += w
            ok[live[~lost & (avail[live] <= done)]] = True
            live = live[~lost & (avail[live] > done)]
        for s, c, critical in zip((b0 + rows[ok]).tolist(), csum[ok].tolist(), crit[ok].tolist()):
            if s < cursor:
                continue
            if s + cap > n:
                state.pending = PendingCandidate(s + 1, critical, c, arr[s:].tolist())
                state.window = arr[max(s, cap) - cap : max(s, cap)].tolist()
                return
            state.change_points.append(ChangePoint(s + 1, c / state.index_scale))
            cursor = s + cap
    state.window = arr[n - cap :].tolist()


def _scan(
    state: MonitorState, multiplicative: bool, buf: list[float], base: int, i: int
) -> ChangePoint | None:
    """Scan buf[i:], where buf[k] is the scanned value of point base + k.

    A candidate that state holds open starts at buf[0] and has been tested
    on buf[:i]. Outside a test the window holds the cap = l values before the
    cursor, or the bootstrap block, whose points are members already. Returns
    the last change-point confirmed, if any: a monitor step can confirm one
    only at its new point.
    """
    win, threshold, n = state.window, state.threshold, len(buf)
    cap, pend, confirmed = len(win), state.pending, None
    start = -1 if pend is None else 0
    if pend is not None:
        up, critical, csum = pend.csum > 0.0, pend.critical, pend.csum
    while i < n:
        if start < 0:
            value = buf[i]
            est = _window_sum(win) / cap
            if multiplicative:
                lo, hi = est / threshold, est * threshold
            else:
                lo, hi = est - threshold, est + threshold
            if value > hi:
                up, critical = True, hi
            elif value < lo:
                up, critical = False, lo
            else:
                if base + i > cap:  # points of the bootstrap block are members already
                    win.append(value)
                    del win[0]
                i += 1
                continue
            if state.index_scale <= 0.0:
                raise DataError("degenerate series: shift index scale is zero")
            # The candidate's own point is the first one its test counts.
            start, csum = i, 0.0
        while i < n:
            csum += buf[i] - critical
            i += 1
            if csum <= 0.0 if up else csum >= 0.0:
                # Failed test: the candidate joins the open regime and the
                # cursor rewinds to rescan everything after it.
                if base + start > cap:
                    win.append(buf[start])
                    del win[0]
                i, start = start + 1, -1
                break
            if i - start == cap:
                cp = ChangePoint(index=base + start, index_value=csum / state.index_scale)
                state.change_points.append(cp)
                win = state.window = buf[start:i]
                confirmed, start = cp, -1
                break
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
    that was available); like every provisional one, it splits no regime.
    The state itself is not modified.
    """
    scanned = ts.values * ts.values if kind.squared else ts.values
    cps, pend = state.change_points, state.pending
    if pend is not None:
        cps = [*cps, ChangePoint(pend.index, pend.csum / state.index_scale, provisional=True)]

    def regime(s: int, e: int, p: float | None) -> Regime:
        # np.add.reduce / len is ndarray.mean's own sum and division, minus its wrapper.
        return Regime(s, e, kind.name, float(np.add.reduce(scanned[s - 1 : e]) / (e - s + 1)), p)

    def test(a: int, s: int, e: int) -> float | None:
        return kind.span_test(scanned[a - 1 : s - 1], scanned[s - 1 : e])

    regimes, cps = _partition(len(ts), cps, regime, test)
    del scanned  # the squares need not live beside the output
    series = TimeSeries._derived(kind.output(ts.values, regimes), ts.labels, ts.name)
    return ShiftResult(regimes, cps, series)


def monitor(
    kind: Kind, state: MonitorState, new_value: float, params: DetectionParams
) -> tuple[MonitorState, StepStatus]:
    """Advance a monitor of this kind by one observation.

    A DataError (a non-number, a non-finite point or square, a zero index scale) leaves the state.
    """
    try:
        owner, params_l = state.kind, params.l
        window, raw, pend = state.window, state.raw, state.pending  # up to three names build no tuple
    except AttributeError:  # types are checked only here, so that a step pays nothing for them
        _check_type(state, MonitorState, "state")
        _check_type(params, DetectionParams, "params")
        raise
    if owner != kind.name:
        raise ParameterError(f"state belongs to a {owner!r} detector")
    try:
        raw_value = float(new_value)
    except (TypeError, ValueError):
        position = len(raw) + 1
        raise DataError(f"observation {new_value!r} at position {position} is not a number") from None
    value = raw_value * raw_value if kind.squared else raw_value
    if not math.isfinite(value):  # the scanned value
        if math.isfinite(raw_value):
            raise _square_overflow(raw_value, len(raw) + 1)
        raise DataError(f"observation {raw_value!r} at position {len(raw) + 1} is not finite")
    if params_l != len(window):
        raise ParameterError(f"params.l={params_l} does not match monitor l={len(window)}")
    if pend is None:
        buf, base = [value], len(raw) + 1
    else:
        buf, base = pend.values, pend.index
        buf.append(value)
    # _scan raises only before it changes the state, so raw takes the point after it.
    confirmed = _scan(state, kind.squared, buf, base, len(buf) - 1)
    raw.append(raw_value)
    pend = state.pending
    if pend is not None:
        return state, StepStatus("candidate", pend.index, pend.csum / state.index_scale)
    return state, _STABLE if confirmed is None else StepStatus("confirmed", None, None, confirmed)


def finalize(
    kind: Kind, series: TimeSeries | Sequence[float], state: MonitorState
) -> ShiftResult:
    """Build the batch-equivalent result from a stream-fed monitor state.

    series must be exactly the monitored points, history included: the
    regimes come from the state and the output series from series.
    """
    if _check_type(state, MonitorState, "state").kind != kind.name:
        raise ParameterError(f"state belongs to a {state.kind!r} detector")
    ts, raw = as_series(series), state.raw
    if len(ts) != len(raw):
        raise DataError(f"series length {len(ts)} does not match {len(raw)} monitored points")
    # The view of raw dies with the comparison: while one lives, raw.append raises BufferError.
    differ = np.flatnonzero(ts.values != np.frombuffer(raw))
    if differ.size:
        i = int(differ[0])
        raise DataError(
            f"series value {float(ts.values[i])!r} at position {i + 1} differs "
            f"from the monitored value {raw[i]!r}"
        )
    return build_result(kind, ts, state)
