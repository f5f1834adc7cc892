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
from typing import Iterable, Literal, Sequence

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
    as_series,
    validate_params,
)
from .mean_shift import detect_mean
from .prewhiten import Ar1Estimate, estimate_ar1, prewhiten
from .stats import fisher_ci, fisher_compare, pearson_r
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
    """Pointwise sum and difference of two equal-length series."""
    xs = as_series(x)
    ys = as_series(y)
    if len(xs) != len(ys):
        raise DataError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    labels = xs.labels if xs.labels is not None else ys.labels
    return (
        TimeSeries(xs.values + ys.values, labels=labels, name="sum"),
        TimeSeries(xs.values - ys.values, labels=labels, name="diff"),
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
    if end - start + 1 < 2:
        return None
    try:
        return pearson_r(x[start - 1 : end], y[start - 1 : end])
    except DataError:
        return None


def _split_p_value(
    x: np.ndarray, y: np.ndarray, index: int, left: int, right: int
) -> float | None:
    """Fisher comparison of the correlations adjacent to a candidate split."""
    n_left = index - left
    n_right = right - index + 1
    if n_left < 4 or n_right < 4:
        return None
    r_left = _segment_r(x, y, left, index - 1)
    r_right = _segment_r(x, y, index, right)
    if r_left is None or r_right is None or abs(r_left) >= 1.0 or abs(r_right) >= 1.0:
        return None
    return fisher_compare(r_left, n_left, r_right, n_right).p_value


def _merge_candidates(
    x: np.ndarray,
    y: np.ndarray,
    sum_cps: list[ChangePoint],
    diff_cps: list[ChangePoint],
    l: int,
) -> tuple[list[CandidateRecord], list[ChangePoint]]:
    """Resolve the two channels' change-points into one accepted list.

    Identical indices are accepted once. A sum and a diff candidate within
    l/2 of each other compete: each is scored by the Fisher p-value of the
    correlation contrast at its split, and the lower p-value wins (an
    undefined score loses to a defined one; two undefined scores go to the
    earlier index). Any accepted confirmed split must leave at least two
    points on each side so the regime correlations stay defined; provisional
    candidates never split a regime, so the guard does not apply to them.
    """
    n = len(x)
    tagged = sorted(
        [(cp.index, "sum", cp) for cp in sum_cps] + [(cp.index, "diff", cp) for cp in diff_cps]
    )
    clusters: list[list[tuple[int, str, ChangePoint]]] = []
    i = 0
    while i < len(tagged):
        cluster = [tagged[i]]
        if (
            i + 1 < len(tagged)
            and tagged[i + 1][1] != tagged[i][1]
            and tagged[i + 1][0] - tagged[i][0] <= l / 2
        ):
            cluster.append(tagged[i + 1])
            i += 2
        else:
            i += 1
        clusters.append(cluster)

    records: list[CandidateRecord] = []
    accepted: list[ChangePoint] = []
    last_boundary = 1
    for c_idx, cluster in enumerate(clusters):
        next_boundary = clusters[c_idx + 1][0][0] - 1 if c_idx + 1 < len(clusters) else n
        scored = []
        for index, source, cp in cluster:
            p = _split_p_value(x, y, index, last_boundary, next_boundary)
            if cp.provisional:
                feasible = True
            else:
                feasible = index - last_boundary >= 2 and n - index + 1 >= 2
            scored.append((index, source, cp, p, feasible))
        winner = None
        if len(scored) == 2 and scored[0][0] == scored[1][0]:
            # Same index from both channels: one change-point, two audit rows.
            index, _, cp_a, p, feasible = scored[0]
            cp_b = scored[1][2]
            if feasible:
                strongest = cp_a if abs(cp_a.index_value) >= abs(cp_b.index_value) else cp_b
                winner = (index, strongest, p)
            for index, source, cp, p, feas in scored:
                records.append(CandidateRecord(source, index, p, feas))
        else:
            feasible_scored = [s for s in scored if s[4]]
            if feasible_scored:
                defined = [s for s in feasible_scored if s[3] is not None]
                if defined:
                    best = min(defined, key=lambda s: (s[3], s[0]))
                else:
                    best = min(feasible_scored, key=lambda s: s[0])
                winner = (best[0], best[2], best[3])
            for index, source, cp, p, feas in scored:
                is_winner = winner is not None and index == winner[0] and cp is winner[1]
                records.append(CandidateRecord(source, index, p, is_winner))
        if winner is not None:
            index, cp, p = winner
            accepted.append(cp)
            if not cp.provisional:
                last_boundary = index
    return records, accepted


def _correlation_regimes(
    x: np.ndarray,
    y: np.ndarray,
    accepted: list[ChangePoint],
    ci_confidence: float,
) -> tuple[list[Regime], list[ChangePoint]]:
    n = len(x)
    confirmed = [cp for cp in accepted if not cp.provisional]
    starts = [1] + [cp.index for cp in confirmed]
    ends = [s - 1 for s in starts[1:]] + [n]
    r_values: list[float] = []
    for s, e in zip(starts, ends):
        r = _segment_r(x, y, s, e)
        if r is None:
            raise DataError(f"correlation is undefined on regime [{s}, {e}]")
        r_values.append(r)
    regimes: list[Regime] = []
    confirmed_cps: list[ChangePoint] = []
    for j, (s, e) in enumerate(zip(starts, ends)):
        length = e - s + 1
        r = r_values[j]
        ci_low = ci_high = None
        if length >= 4 and abs(r) < 1.0:
            ci_low, ci_high = fisher_ci(r, length, ci_confidence)
        shift_p = None
        if j > 0:
            shift_p = _split_p_value(x, y, s, starts[j - 1], e)
            confirmed_cps.append(
                ChangePoint(
                    index=s,
                    index_value=confirmed[j - 1].index_value,
                    p_value=shift_p,
                    provisional=False,
                )
            )
        regimes.append(
            Regime(
                start=s,
                end=e,
                kind="correlation",
                value=r,
                shift_p_value=shift_p,
                ci_low=ci_low,
                ci_high=ci_high,
            )
        )
    # Provisional candidates are reported behind the confirmed ones but do
    # not split the final regime (channel indices sort them after every
    # confirmed change-point by construction).
    change_points = confirmed_cps + [
        ChangePoint(index=cp.index, index_value=cp.index_value, p_value=None, provisional=True)
        for cp in accepted
        if cp.provisional
    ]
    return regimes, change_points


def detect_correlation(
    x: TimeSeries | Sequence[float],
    y: TimeSeries | Sequence[float],
    params: DetectionParams = DetectionParams(),
    ci_confidence: float = 0.90,
) -> CorrelationResult:
    """Detect correlation shifts between two normalized series.

    Runs the variance detector on the sum and difference channels and merges
    their change-points. Inputs should be mean-adjusted and normalized (the
    output of the first two pipeline steps); feeding raw series reproduces
    the artifacts that `run_srsd` removes.
    """
    validate_params(params)
    xs = as_series(x)
    ys = as_series(y)
    total, diff = sum_diff_channels(xs, ys)
    n = len(xs)
    # A degenerate channel means the inputs are exactly (anti)proportional:
    # the correlation is +/-1 everywhere and there is nothing to scan.
    sum_zero = not np.any(total.values)
    diff_zero = not np.any(diff.values)
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
    records, accepted = _merge_candidates(
        xs.values, ys.values, sum_res.change_points, diff_res.change_points, params.l
    )
    regimes, change_points = _correlation_regimes(
        xs.values, ys.values, accepted, ci_confidence
    )
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
    return ShiftResult([regime], [], ts, np.zeros(len(ts)))


def _run_pipeline(
    x: TimeSeries | Sequence[float],
    y: TimeSeries | Sequence[float],
    params: DetectionParams,
    corr_params: DetectionParams | None,
    ci_confidence: float,
    skip: frozenset[str],
) -> SrsdResult:
    validate_params(params)
    corr_params = params if corr_params is None else validate_params(corr_params)
    xs = as_series(x, name="x")
    ys = as_series(y, name="y")
    if len(xs) != len(ys):
        raise DataError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    ar1: tuple[Ar1Estimate | None, Ar1Estimate | None] = (None, None)
    if params.prewhiten != "none":
        est_x = estimate_ar1(xs, params.m, params.prewhiten)
        est_y = estimate_ar1(ys, params.m, params.prewhiten)
        xs = prewhiten(xs, est_x.alpha)
        ys = prewhiten(ys, est_y.alpha)
        ar1 = (est_x, est_y)
    mean_x, mean_y = (_adjust(s, "mean", params, skip) for s in (xs, ys))
    var_x, var_y = (_adjust(m.residuals, "variance", params, skip) for m in (mean_x, mean_y))
    correlation = detect_correlation(
        var_x.normalized, var_y.normalized, corr_params, ci_confidence
    )
    return SrsdResult(
        x=xs,
        y=ys,
        params=params,
        corr_params=corr_params,
        skipped=skip,
        ar1=ar1,
        mean_results=(mean_x, mean_y),
        variance_results=(var_x, var_y),
        correlation=correlation,
    )


def run_srsd(
    x: TimeSeries | Sequence[float],
    y: TimeSeries | Sequence[float],
    params: DetectionParams = DetectionParams(),
    corr_params: DetectionParams | None = None,
    ci_confidence: float = 0.90,
) -> SrsdResult:
    """Run the full three-step pipeline on a pair of series.

    corr_params overrides the parameters of the correlation step only (the
    channel scan often benefits from a different p or l than the mean and
    variance steps); by default all steps share `params`.
    """
    return _run_pipeline(x, y, params, corr_params, ci_confidence, frozenset())


def step_skipping_mode(
    x: TimeSeries | Sequence[float],
    y: TimeSeries | Sequence[float],
    params: DetectionParams = DetectionParams(),
    skip: Iterable[str] = ("mean", "variance"),
    corr_params: DetectionParams | None = None,
    ci_confidence: float = 0.90,
) -> SrsdResult:
    """Run the pipeline with the named steps replaced by identity transforms.

    Skipping {"mean", "variance"} applies the correlation scan directly to
    the inputs, which is exactly the shortcut whose spurious detections the
    full pipeline is designed to avoid. Useful for demonstrations and for
    quantifying how much the adjustment steps matter on real data.
    """
    skip_set = frozenset(skip)
    bad = skip_set - {"mean", "variance"}
    if bad:
        raise ParameterError(f"unknown steps to skip: {sorted(bad)}")
    return _run_pipeline(x, y, params, corr_params, ci_confidence, skip_set)
