"""Shared data model for the sequential regime-shift detectors.

Indices in this package are 1-based and regime spans are inclusive on both
ends, so a series of length n is partitioned as [1, c1-1], [c1, c2-1], ...,
[ck, n] by change-points c1 < c2 < ... < ck.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Callable, Literal, Sequence, get_args

import numpy as np

__all__ = [
    "ParameterError",
    "DataError",
    "TimeSeries",
    "DetectionParams",
    "Regime",
    "ChangePoint",
    "MonitorState",
    "StepStatus",
]

PrewhitenMethod = Literal["none", "mpk", "ip4"]
_PREWHITEN_METHODS = get_args(PrewhitenMethod)
RegimeKind = Literal["mean", "variance", "correlation"]


class ParameterError(ValueError):
    """A detection parameter is out of its documented range."""


class DataError(ValueError):
    """Input data cannot be analyzed (too short, malformed, degenerate)."""


def _check_finite(arr: np.ndarray, what: str) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0]) + 1
        raise DataError(f"{what} contains a non-finite value at position {bad}")


def _is_int(value: object) -> bool:
    # An int is an integer; isinstance on the ABC is ~20x slower, as in _check_real.
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def _check_int(value: object, name: str, error: type[ValueError] = ParameterError) -> int:
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_real(
    value: object, name: str, lo: float = -math.inf, hi: float = math.inf, error=ParameterError
) -> float:
    """value as a float: a real number, not a bool, strictly between lo and hi (so not NaN)."""
    # A float (numpy's float64 is one) is a real number; isinstance on the ABC is ~20x slower.
    real = isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool)
    if not (real and lo < value < hi):
        raise error(f"{name} must lie strictly between {lo:g} and {hi:g}, got {value!r}")
    return float(value)


def _check_type(value: Any, cls: type, name: str) -> Any:
    if not isinstance(value, cls):
        raise ParameterError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def _as_float_array(values: Sequence[float], what: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)  # a fresh C-contiguous copy, whatever the input
    except (TypeError, ValueError):
        for i, value in enumerate(np.ravel(np.asarray(values, dtype=object)), 1):
            try:
                float(value)
            except (TypeError, ValueError):
                raise DataError(f"{what}: {value!r} at position {i} is not a number") from None
        raise
    if arr.ndim != 1:
        raise DataError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{what} contains no observations")
    _check_finite(arr, what)
    arr.setflags(write=False)
    return arr


def _labels(labels: Sequence[float], size: int) -> np.ndarray:
    """Checked time labels of a series of size points: finite and strictly increasing."""
    lab = _as_float_array(labels, "series labels")
    if lab.size != size:
        raise DataError(f"labels length {lab.size} != values length {size}")
    falls = np.flatnonzero(np.diff(lab) <= 0)
    if falls.size:
        k = int(falls[0]) + 1  # 0-based index of the first label that does not rise
        at = f"{lab[k]} at position {k + 1} follows {lab[k - 1]}"
        raise DataError(f"series labels must be strictly increasing: {at}")
    return lab


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
        self.labels = None if labels is None else _labels(labels, self.values.size)
        self.name = name

    @classmethod
    def _derived(
        cls, values: np.ndarray, labels: np.ndarray | None, name: str | None
    ) -> TimeSeries:
        """A series computed from checked series; only the new values are checked.

        values must be a fresh one-dimensional float array; it is checked for
        finiteness (arithmetic on finite values can overflow) and made
        read-only. labels must be a checked series's labels, or a slice of
        them, of the same length; they are shared, not copied.
        """
        _check_finite(values, "series values")
        values.setflags(write=False)
        ts = cls.__new__(cls)
        ts.values, ts.labels, ts.name = values, labels, name
        return ts

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


def _pair(
    x: TimeSeries | Sequence[float], y: TimeSeries | Sequence[float]
) -> tuple[TimeSeries, TimeSeries]:
    """x and y as series of one length whose labels agree where both have them."""
    xs = as_series(x, name="x")
    ys = as_series(y, name="y")
    if len(xs) != len(ys):
        raise DataError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    if xs.labels is not None and ys.labels is not None:
        differ = np.flatnonzero(xs.labels != ys.labels)
        if differ.size:
            k = int(differ[0])
            raise DataError(
                f"series labels differ at position {k + 1}: "
                f"{float(xs.labels[k])!r} vs {float(ys.labels[k])!r}"
            )
    return xs, ys


def _check_length(ts: TimeSeries, size: int, name: str) -> TimeSeries:
    if len(ts) < size:
        raise DataError(f"series of length {len(ts)} is shorter than {name}={size}")
    return ts


@dataclass(frozen=True)
class DetectionParams:
    """Tuning knobs shared by all detectors.

    p is the target significance level of a single shift decision, l is the
    cut-off length (minimum regime scale the detectors are tuned to), and the
    prewhitening fields control optional AR(1) filtering of the inputs.
    Construction, `dataclasses.replace` included, raises ParameterError for
    values out of range, so every params object a detector sees is valid.
    """

    p: float = 0.05
    l: int = 20
    prewhiten: PrewhitenMethod = "none"
    m: int | None = None

    def __post_init__(self):
        # Plain Python numbers, so that numpy scalars serialize and print like literals.
        object.__setattr__(self, "p", _check_real(self.p, "p", 0, 1))
        object.__setattr__(self, "l", _check_int(self.l, "l"))
        if self.l < 3:
            raise ParameterError(f"l must be at least 3, got {self.l}")
        if self.prewhiten not in _PREWHITEN_METHODS:
            methods = ", ".join(map(repr, _PREWHITEN_METHODS))
            raise ParameterError(f"prewhiten must be one of {methods}, got {self.prewhiten!r}")
        if self.m is not None:
            object.__setattr__(self, "m", _check_int(self.m, "m"))
            if not (5 <= self.m < self.l):
                raise ParameterError(f"m must satisfy 5 <= m < l (l={self.l}), got {self.m}")
        elif self.prewhiten != "none":
            raise ParameterError("m must be set when prewhiten is enabled")


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
    critical: float  # derivable from the window, but rebuilding it slowed monitor steps ~14 %
    csum: float
    values: list[float]


@dataclass
class MonitorState:
    """Full streaming state of a mean or variance detector.

    The state is mutated only by the detector that owns it, through the
    engine's kernels: a batch scan of the whole history, and one scan of each
    new observation in a monitor, whose cursor a failed candidate test
    rewinds to the point after the candidate. raw holds the value of every
    point fed, 8 bytes each in an array('d') rather than a float object each,
    so the newest one's index is len(raw). window holds the scanned values of the
    open regime's newest l members, whose mean is its estimate, so l is
    len(window). Results derive the shift-index trace from change_points and
    pending.
    """

    kind: Literal["mean", "variance"]
    threshold: float
    index_scale: float
    raw: array
    window: list[float]
    pending: PendingCandidate | None
    change_points: list[ChangePoint]


@dataclass(frozen=True, init=False)
class StepStatus:
    """Outcome of advancing a monitor by one observation."""

    state: Literal["stable", "candidate", "confirmed"]
    candidate_index: int | None = None
    index_value: float | None = None
    change_point: ChangePoint | None = None

    def __init__(
        self,
        state: Literal["stable", "candidate", "confirmed"],
        candidate_index: int | None = None,
        index_value: float | None = None,
        change_point: ChangePoint | None = None,
    ) -> None:
        # A monitor step builds one: the dict fill takes half the generated frozen __init__'s time
        fields = self.__dict__
        fields["state"] = state
        fields["candidate_index"] = candidate_index
        fields["index_value"] = index_value
        fields["change_point"] = change_point


def _stepwise(regimes: Sequence[Regime]) -> np.ndarray:
    """Each regime's statistic repeated over its span; the regimes partition the series."""
    values = np.array([r.value for r in regimes], dtype=float)
    return np.repeat(values, [r.length for r in regimes])


def _partition(
    n: int, change_points: Sequence[ChangePoint], regime: Callable, test: Callable
) -> tuple[list[Regime], list[ChangePoint]]:
    """The regimes that the confirmed change-points cut [1, n] into, and the change-points.

    regime(s, e, p) builds regime [s, e]; p is test(a, s, e), the p-value of the shift
    from [a, s - 1] to [s, e], when both hold at least 4 points, else None. Provisional
    change-points follow the confirmed ones untested, as given, and split no regime.
    """
    confirmed = [cp for cp in change_points if not cp.provisional]
    ends = [cp.index - 1 for cp in confirmed] + [n]
    regimes, tested = [regime(1, ends[0], None)], []
    for cp, e in zip(confirmed, ends[1:]):
        a, s = regimes[-1].start, cp.index
        p = test(a, s, e) if s - a >= 4 and e - s >= 3 else None
        tested.append(ChangePoint(s, cp.index_value, p))
        regimes.append(regime(s, e, p))
    return regimes, tested + [cp for cp in change_points if cp.provisional]
