"""Shared data model for the sequential regime-shift detectors.

Indices in this package are 1-based and regime spans are inclusive on both
ends, so a series of length n is partitioned as [1, c1-1], [c1, c2-1], ...,
[ck, n] by change-points c1 < c2 < ... < ck.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

__all__ = [
    "ParameterError",
    "DataError",
    "TimeSeries",
    "DetectionParams",
    "Regime",
    "ChangePoint",
    "PendingCandidate",
    "MonitorState",
    "StepStatus",
    "validate_params",
    "regimes_to_stepwise",
]

PrewhitenMethod = Literal["none", "mpk", "ip4"]
RegimeKind = Literal["mean", "variance", "correlation"]


class ParameterError(ValueError):
    """A detection parameter is out of its documented range."""


class DataError(ValueError):
    """Input data cannot be analyzed (too short, malformed, degenerate)."""


def _as_float_array(values: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{what} contains no observations")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0]) + 1
        raise DataError(f"{what} contains a non-finite value at position {bad}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class TimeSeries:
    """An evenly spaced series of float observations with optional time labels.

    Labels (years, typically) must be strictly increasing and are carried
    through transformations so positions can always be mapped back to time.
    """

    __slots__ = ("values", "labels", "name")

    def __init__(
        self,
        values: Sequence[float],
        labels: Sequence[float] | None = None,
        name: str | None = None,
    ):
        self.values = _as_float_array(values, "series values")
        if labels is not None:
            lab = _as_float_array(labels, "series labels")
            if lab.size != self.values.size:
                raise DataError(
                    f"labels length {lab.size} != values length {self.values.size}"
                )
            if np.any(np.diff(lab) <= 0):
                raise DataError("series labels must be strictly increasing")
            self.labels = lab
        else:
            self.labels = None
        self.name = name

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        if self.name != other.name:
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        if self.labels is not None and not np.array_equal(self.labels, other.labels):
            return False
        return np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"TimeSeries(n={len(self)}{label})"


def as_series(data: TimeSeries | Sequence[float], name: str | None = None) -> TimeSeries:
    """Coerce raw sequences to TimeSeries; pass TimeSeries through unchanged."""
    if isinstance(data, TimeSeries):
        return data
    return TimeSeries(data, name=name)


@dataclass(frozen=True)
class DetectionParams:
    """Tuning knobs shared by all detectors.

    p is the target significance level of a single shift decision, l is the
    cut-off length (minimum regime scale the detectors are tuned to), and the
    prewhitening fields control optional AR(1) filtering of the inputs.
    """

    p: float = 0.05
    l: int = 20
    prewhiten: PrewhitenMethod = "none"
    m: int | None = None


def validate_params(params: DetectionParams) -> DetectionParams:
    """Check parameter invariants; returns the params unchanged if valid."""
    if not isinstance(params.p, (int, float)) or not (0.0 < float(params.p) < 1.0):
        raise ParameterError(f"p must lie strictly between 0 and 1, got {params.p!r}")
    if not isinstance(params.l, (int, np.integer)) or isinstance(params.l, bool):
        raise ParameterError(f"l must be an integer, got {params.l!r}")
    if params.l < 3:
        raise ParameterError(f"l must be at least 3, got {params.l}")
    if params.prewhiten not in ("none", "mpk", "ip4"):
        raise ParameterError(
            f"prewhiten must be one of 'none', 'mpk', 'ip4', got {params.prewhiten!r}"
        )
    if params.m is not None:
        if not isinstance(params.m, (int, np.integer)) or isinstance(params.m, bool):
            raise ParameterError(f"m must be an integer, got {params.m!r}")
        if not (5 <= params.m < params.l):
            raise ParameterError(
                f"m must satisfy 5 <= m < l (l={params.l}), got {params.m}"
            )
    elif params.prewhiten != "none":
        raise ParameterError("m must be set when prewhiten is enabled")
    return params


@dataclass(frozen=True)
class Regime:
    """One homogeneous stretch of the series: [start, end], both inclusive.

    value is the regime's statistic (mean, variance, or correlation).
    shift_p_value tests the shift at this regime's start against the previous
    regime and is None for the first regime or when either side is too short
    (< 4 points). ci_low/ci_high are only populated for correlation regimes.
    """

    start: int
    end: int
    kind: RegimeKind
    value: float
    shift_p_value: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None

    def __post_init__(self):
        if self.start < 1 or self.end < self.start:
            raise DataError(f"invalid regime span [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class ChangePoint:
    """A confirmed shift starting at `index` (the first point of the new regime).

    index_value is the cumulative shift index that confirmed the change-point
    (positive for upward shifts, negative for downward ones). provisional is
    True when the series ended before the full confirmation window was seen.
    """

    index: int
    index_value: float
    p_value: float | None = None
    provisional: bool = False


@dataclass
class PendingCandidate:
    """A potential change-point undergoing its confirmation test.

    values are the scanned values tested so far, the candidate's own first,
    so the test length is len(values). The sign of csum, their summed
    deviation from critical, is the direction: a zero or wrong-signed sum
    fails the test.
    """

    index: int
    critical: float
    csum: float
    values: list[float]


@dataclass
class MonitorState:
    """Full streaming state of a mean or variance detector.

    The state is mutated only by the detector that owns it, through one scan
    kernel whose cursor runs over the whole history in batch detection and
    over each new observation in a monitor; a failed candidate test rewinds
    it to the point after the candidate. raw holds every point fed, so the
    newest one's index is len(raw). window holds the scanned values of the
    open regime's newest cap members, whose mean is its estimate, and last
    is the index of the newest of them. Results derive the shift-index trace
    from change_points and pending. checked_params is the last params object
    a monitor call accepted for this state.
    """

    kind: Literal["mean", "variance"]
    cap: int
    threshold: float
    index_scale: float
    raw: list[float]
    window: list[float]
    last: int
    pending: PendingCandidate | None
    change_points: list[ChangePoint]
    checked_params: DetectionParams | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class StepStatus:
    """Outcome of advancing a monitor by one observation."""

    state: Literal["stable", "candidate", "confirmed"]
    candidate_index: int | None = None
    index_value: float | None = None
    change_point: ChangePoint | None = None


def _check_partition(series_length: int, regimes: Sequence[Regime]) -> list[Regime]:
    if series_length < 1:
        raise DataError(f"series_length must be positive, got {series_length}")
    if not regimes:
        raise DataError("regime list is empty")
    ordered = sorted(regimes, key=lambda r: r.start)
    if ordered[0].start != 1:
        raise DataError(f"first regime starts at {ordered[0].start}, expected 1")
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start != prev.end + 1:
            kind = "overlap" if cur.start <= prev.end else "gap"
            raise DataError(
                f"regime {kind} between [{prev.start},{prev.end}] and "
                f"[{cur.start},{cur.end}]"
            )
    if ordered[-1].end != series_length:
        raise DataError(
            f"last regime ends at {ordered[-1].end}, expected {series_length}"
        )
    return ordered


def regimes_to_stepwise(series_length: int, regimes: Sequence[Regime]) -> np.ndarray:
    """Expand a regime partition into a stepwise series of regime values.

    The regimes must exactly partition [1, series_length]; gaps and overlaps
    raise DataError.
    """
    ordered = _check_partition(series_length, regimes)
    out = np.empty(series_length, dtype=float)
    for reg in ordered:
        out[reg.start - 1 : reg.end] = reg.value
    return out
