"""The three-step detection pipeline for correlation shifts.

Correlation shifts are found by exploiting that, for series normalized to
unit variance, the variance of the sum channel x + y is 2(1 + r) and that of
the difference channel x - y is 2(1 - r). Mean shifts and variance shifts
masquerade as correlation shifts through those same channels, so the full
procedure removes them first:

1. detect mean shifts in each input and subtract the stepwise trends;
2. detect variance shifts in the residuals and normalize each regime to unit
   variance;
3. run the variance detector on the sum and difference of the normalized
   series and merge the two channels' change-points.

`step_skipping_mode` deliberately skips steps to reproduce the failure modes
the full pipeline exists to prevent.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from ._engine import ShiftResult
from .core import (
    ChangePoint,
    DataError,
    DetectionParams,
    ParameterError,
    Regime,
    RegimeKind,
    TimeSeries,
    _check_type,
    _pair,
    _partition,
)
from .mean_shift import detect_mean
from .stats import Ar1Estimate, _fisher_z_p, _pearson, estimate_ar1, fisher_ci, prewhiten
from .variance_shift import detect_variance

__all__ = [
    "CandidateRecord",
    "CorrelationResult",
    "SrsdResult",
    "sum_diff_channels",
    "detect_correlation",
    "run_srsd",
    "step_skipping_mode",
]


def sum_diff_channels(
    x: TimeSeries | Sequence[float], y: TimeSeries | Sequence[float]
) -> tuple[TimeSeries, TimeSeries]:
    """Pointwise sum and difference of two equal-length series whose labels agree."""
    xs, ys = _pair(x, y)
    labels = xs.labels if xs.labels is not None else ys.labels
    return (
        TimeSeries._derived(xs.values + ys.values, labels, "sum"),
        TimeSeries._derived(xs.values - ys.values, labels, "diff"),
    )


@dataclass(frozen=True)
class CandidateRecord:
    """Audit entry for one channel change-point considered during merging."""

    source: Literal["sum", "diff"]
    index: int
    p_value: float | None
    accepted: bool


@dataclass
class CorrelationResult:
    """Correlation regimes with the full channel-merge audit trail."""

    regimes: list[Regime]
    change_points: list[ChangePoint]
    candidates: list[CandidateRecord]
    sum_channel: ShiftResult | None
    diff_channel: ShiftResult | None


def _segment_r(x: np.ndarray, y: np.ndarray, start: int, end: int) -> float | None:
    """Pearson r over the 1-based inclusive span, None when undefined."""
    return _pearson(x[start - 1 : end], y[start - 1 : end])


# Pearson r of one call's two series over a (start, end) span.
SpanR = Callable[[int, int], float | None]


def _split_p_value(span_r: SpanR, left: int, index: int, right: int) -> float | None:
    """Fisher comparison of the correlations of [left, index - 1] and [index, right]."""
    n_left = index - left
    n_right = right - index + 1
    if n_left < 4 or n_right < 4:
        return None
    r_left = span_r(left, index - 1)
    r_right = span_r(index, right)
    if r_left is None or r_right is None or abs(r_left) >= 1.0 or abs(r_right) >= 1.0:
        return None
    return _fisher_z_p(r_left, n_left, r_right, n_right)[1]


def _merge_candidates(
    span_r: SpanR,
    n: int,
    sum_cps: list[ChangePoint],
    diff_cps: list[ChangePoint],
    l: int,
) -> tuple[list[CandidateRecord], list[ChangePoint]]:
    """Resolve the two channels' change-points into one accepted list.

    A candidate pairs with the previous one when that one is still alone, comes
    from the other channel and lies within l/2. A cluster's winner is its
    feasible candidate whose split has the lowest Fisher p-value of the
    correlation contrast (undefined p last, then the earlier index); the same
    index from both channels is accepted once, as the stronger shift. A
    confirmed split is feasible when it leaves at least two points on each
    side, so the regime correlations stay defined; a provisional one always is.
    """
    tagged = [(c.index, "sum", c) for c in sum_cps] + [(c.index, "diff", c) for c in diff_cps]
    records: list[CandidateRecord] = []
    accepted: list[ChangePoint] = []
    cluster: list[tuple[str, ChangePoint]] = []
    last_boundary = 1
    # A candidate that does not join the open cluster closes it: the cluster's
    # span ends just before the candidate. A sentinel closes the last cluster.
    for index, source, cp in [*sorted(tagged), (n + 1, "", None)]:
        prev = cluster[0] if len(cluster) == 1 else None
        if cp is not None and prev and prev[0] != source and index - prev[1].index <= l / 2:
            cluster.append((source, cp))
            continue
        p = {s: _split_p_value(span_r, last_boundary, c.index, index - 1) for s, c in cluster}
        ok = {s: c.provisional or c.index - last_boundary >= 2 and c.index < n for s, c in cluster}
        winner = min(
            ((p[s] is None, p[s], c.index, c) for s, c in cluster if ok[s]),
            key=lambda t: t[:3],
            default=(None,),
        )[-1]
        same = len(cluster) == 2 and cluster[0][1].index == cluster[1][1].index
        if same and winner is not None:
            # One change-point, two audit rows that both say whether it is feasible.
            winner = max((c for _, c in cluster), key=lambda c: abs(c.index_value))
        for s, c in cluster:
            records.append(CandidateRecord(s, c.index, p[s], ok[s] if same else c is winner))
        if winner is not None:
            accepted.append(winner)
            if not winner.provisional:
                last_boundary = winner.index
        cluster = [(source, cp)]
    return records, accepted


def _correlation_regime(span_r: SpanR, s: int, e: int, p: float | None) -> Regime:
    """The correlation regime [s, e], with its 90 % Fisher-z interval where r allows one."""
    r = span_r(s, e)
    if r is None:
        raise DataError(f"correlation is undefined on regime [{s}, {e}]")
    ci = fisher_ci(r, e - s + 1) if e - s >= 3 and abs(r) < 1.0 else (None, None)
    return Regime(s, e, "correlation", r, p, *ci)


def detect_correlation(
    x: TimeSeries | Sequence[float],
    y: TimeSeries | Sequence[float],
    params: DetectionParams = DetectionParams(),
) -> CorrelationResult:
    """Detect correlation shifts between two normalized series.

    Runs the variance detector on the sum and difference channels and merges
    their change-points. Inputs should be mean-adjusted and normalized (the
    output of the first two pipeline steps); feeding raw series reproduces
    the artifacts that `run_srsd` removes. Each correlation regime carries
    its 90 % Fisher-z confidence interval (`fisher_ci` gives other levels).
    """
    xs, ys = _pair(x, y)
    total, diff = sum_diff_channels(xs, ys)
    n = len(xs)
    # A degenerate channel means the inputs are exactly (anti)proportional:
    # the correlation is +/-1 everywhere and there is nothing to scan.
    sum_zero = not np.count_nonzero(total.values)
    diff_zero = not np.count_nonzero(diff.values)
    if sum_zero and diff_zero:
        raise DataError("both channels are identically zero (all-zero inputs)")
    if sum_zero or diff_zero:
        value = 1.0 if diff_zero else -1.0
        regime = Regime(start=1, end=n, kind="correlation", value=value)
        return CorrelationResult(
            regimes=[regime],
            change_points=[],
            candidates=[],
            sum_channel=None,
            diff_channel=None,
        )
    sum_res = detect_variance(total, params)
    diff_res = detect_variance(diff, params)
    # The merge and the regime statistics share one correlation per span.
    span_r = cache(partial(_segment_r, xs.values, ys.values))
    records, accepted = _merge_candidates(
        span_r, n, sum_res.change_points, diff_res.change_points, params.l
    )
    regime, test = partial(_correlation_regime, span_r), partial(_split_p_value, span_r)
    regimes, change_points = _partition(n, accepted, regime, test)
    return CorrelationResult(
        regimes=regimes,
        change_points=change_points,
        candidates=records,
        sum_channel=sum_res,
        diff_channel=diff_res,
    )


@dataclass
class SrsdResult:
    """Everything the three-step pipeline produced, intermediates included.

    x and y are the series the detectors actually ran on (prewhitened when
    that was requested, in which case positions are 1-based in the filtered
    series and labels identify the original time steps).
    """

    x: TimeSeries
    y: TimeSeries
    params: DetectionParams
    corr_params: DetectionParams
    skipped: frozenset[str]
    ar1: tuple[Ar1Estimate | None, Ar1Estimate | None]
    mean_results: tuple[ShiftResult, ShiftResult]
    variance_results: tuple[ShiftResult, ShiftResult]
    correlation: CorrelationResult

    @property
    def correlation_regimes(self) -> list[Regime]:
        return self.correlation.regimes

    @property
    def correlation_change_points(self) -> list[ChangePoint]:
        return self.correlation.change_points

    @property
    def candidates(self) -> list[CandidateRecord]:
        return self.correlation.candidates


def _adjust(
    ts: TimeSeries, kind: RegimeKind, params: DetectionParams, skip: frozenset[str]
) -> ShiftResult:
    """The mean or variance step on ts, or its identity placeholder when skipped."""
    if kind not in skip:
        return (detect_mean if kind == "mean" else detect_variance)(ts, params)
    # One regime whose value (zero mean, unit variance) leaves ts unchanged.
    regime = Regime(start=1, end=len(ts), kind=kind, value=0.0 if kind == "mean" else 1.0)
    return ShiftResult([regime], [], ts)


def _prewhitened(ts: TimeSeries, params: DetectionParams) -> tuple[TimeSeries, Ar1Estimate | None]:
    """ts filtered by its own AR(1) estimate when params ask for it, and that estimate."""
    if params.prewhiten == "none":
        return ts, None
    est = estimate_ar1(ts, params.m, params.prewhiten)
    return prewhiten(ts, est.alpha), est


def _run_pipeline(
    x: TimeSeries | Sequence[float],
    y: TimeSeries | Sequence[float],
    params: DetectionParams,
    corr_params: DetectionParams | None,
    skip: frozenset[str],
) -> SrsdResult:
    _check_type(params, DetectionParams, "params")
    if corr_params is None:
        corr_params = params
    elif _check_type(corr_params, DetectionParams, "corr_params").m is not None:  # prewhitening sets m
        name = "m" if corr_params.prewhiten == "none" else "prewhiten"
        raise ParameterError(f"corr_params.{name} has no effect: prewhitening is set by params")
    xs, ys = _pair(x, y)
    (xs, est_x), (ys, est_y) = _prewhitened(xs, params), _prewhitened(ys, params)
    mean_x, mean_y = (_adjust(s, "mean", params, skip) for s in (xs, ys))
    var_x, var_y = (_adjust(m.residuals, "variance", params, skip) for m in (mean_x, mean_y))
    correlation = detect_correlation(var_x.normalized, var_y.normalized, corr_params)
    return SrsdResult(
        x=xs,
        y=ys,
        params=params,
        corr_params=corr_params,
        skipped=skip,
        ar1=(est_x, est_y),
        mean_results=(mean_x, mean_y),
        variance_results=(var_x, var_y),
        correlation=correlation,
    )


def run_srsd(
    x: TimeSeries | Sequence[float],
    y: TimeSeries | Sequence[float],
    params: DetectionParams = DetectionParams(),
    corr_params: DetectionParams | None = None,
) -> SrsdResult:
    """Run the full three-step pipeline on a pair of series.

    corr_params overrides p and l of the correlation step (the channel scan
    often benefits from other values than the mean and variance steps); it
    raises ParameterError if it sets prewhiten or m, which `params` alone sets.
    """
    return _run_pipeline(x, y, params, corr_params, frozenset())


def step_skipping_mode(
    x: TimeSeries | Sequence[float],
    y: TimeSeries | Sequence[float],
    params: DetectionParams = DetectionParams(),
    skip: Iterable[str] = ("mean", "variance"),
    corr_params: DetectionParams | None = None,
) -> SrsdResult:
    """Run the pipeline with the named steps replaced by identity transforms.

    Skipping {"mean", "variance"} applies the correlation scan directly to
    the inputs, which is exactly the shortcut whose spurious detections the
    full pipeline is designed to avoid. Useful for demonstrations and for
    quantifying how much the adjustment steps matter on real data.
    """
    skip_set = frozenset(_check_type(skip, Iterable, "skip"))
    bad = skip_set - {"mean", "variance"}
    if bad:
        raise ParameterError(f"unknown steps to skip: {sorted(bad)}")
    return _run_pipeline(x, y, params, corr_params, skip_set)
