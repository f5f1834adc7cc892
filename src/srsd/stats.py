"""Distribution quantiles and correlation statistics used by the detectors."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats as _sps

from .core import DataError, ParameterError, TimeSeries, as_series

__all__ = [
    "student_t_quantile",
    "f_quantile",
    "running_avg_variance",
    "pearson_r",
    "CorrelationComparison",
    "fisher_compare",
    "fisher_ci",
    "first_differences",
]


def _check_prob(prob: float) -> float:
    if not (0.0 < prob < 1.0):
        raise ParameterError(f"prob must lie strictly between 0 and 1, got {prob!r}")
    return float(prob)


def student_t_quantile(prob: float, df: int) -> float:
    """Inverse CDF of Student's t distribution with df degrees of freedom."""
    _check_prob(prob)
    if df < 1:
        raise ParameterError(f"df must be a positive integer, got {df!r}")
    return float(_sps.t.ppf(prob, df))


def f_quantile(prob: float, df1: int, df2: int) -> float:
    """Inverse CDF of the F distribution with (df1, df2) degrees of freedom."""
    _check_prob(prob)
    if df1 < 1 or df2 < 1:
        raise ParameterError(f"degrees of freedom must be positive, got ({df1!r}, {df2!r})")
    return float(_sps.f.ppf(prob, df1, df2))


def running_avg_variance(series: TimeSeries | Sequence[float], l: int) -> float:
    """Average sample variance of all running l-point windows of the series.

    This is the pooled noise-scale estimate the mean detector's threshold is
    built from; it is computed once over the full series.
    """
    ts = as_series(series)
    if l < 2:
        raise ParameterError(f"window length l must be at least 2, got {l}")
    if len(ts) < l:
        raise DataError(f"series of length {len(ts)} is shorter than l={l}")
    windows = sliding_window_view(ts.values, l)
    return float(np.mean(np.var(windows, axis=1, ddof=1)))


def pearson_r(x: TimeSeries | Sequence[float], y: TimeSeries | Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length series."""
    xs = as_series(x)
    ys = as_series(y)
    if len(xs) != len(ys):
        raise DataError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise DataError("correlation requires at least 2 observations")
    xd = xs.values - xs.values.mean()
    yd = ys.values - ys.values.mean()
    sx = float(np.sqrt(np.dot(xd, xd)))
    sy = float(np.sqrt(np.dot(yd, yd)))
    if sx == 0.0 or sy == 0.0:
        raise DataError("correlation is undefined for a constant series")
    r = float(np.dot(xd, yd) / (sx * sy))
    return max(-1.0, min(1.0, r))


def _check_fisher_args(r: float, n: int, what: str) -> None:
    if n < 4:
        raise DataError(f"{what}: Fisher transform requires n >= 4, got n={n}")
    if not -1.0 < r < 1.0:
        raise DataError(f"{what}: |r| must be < 1, got r={r}")


@dataclass(frozen=True)
class CorrelationComparison:
    """Two-sample comparison of correlation coefficients via Fisher's z."""

    r1: float
    n1: int
    r2: float
    n2: int
    z: float
    p_value: float


def fisher_compare(r1: float, n1: int, r2: float, n2: int) -> CorrelationComparison:
    """Test whether two sample correlations differ (two-tailed).

    The statistic is (atanh(r1) - atanh(r2)) / sqrt(1/(n1-3) + 1/(n2-3)),
    treated as standard normal.
    """
    _check_fisher_args(r1, n1, "first sample")
    _check_fisher_args(r2, n2, "second sample")
    se = math.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))
    z = (math.atanh(r1) - math.atanh(r2)) / se
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return CorrelationComparison(r1=r1, n1=n1, r2=r2, n2=n2, z=z, p_value=p)


def fisher_ci(r: float, n: int, confidence: float = 0.90) -> tuple[float, float]:
    """Confidence interval for a correlation coefficient via Fisher's z."""
    _check_fisher_args(r, n, "sample")
    _check_prob(confidence)
    z_crit = float(_sps.norm.ppf(0.5 + confidence / 2.0))
    half = z_crit / math.sqrt(n - 3)
    center = math.atanh(r)
    return (math.tanh(center - half), math.tanh(center + half))


def first_differences(series: TimeSeries | Sequence[float]) -> TimeSeries:
    """Series of consecutive differences; drops the first observation's slot."""
    ts = as_series(series)
    if len(ts) < 2:
        raise DataError("first differences require at least 2 observations")
    labels = ts.labels[1:] if ts.labels is not None else None
    return TimeSeries(np.diff(ts.values), labels=labels, name=ts.name)


def _pooled_t_p(a: np.ndarray, b: np.ndarray) -> float | None:
    """Two-tailed pooled two-sample t-test p-value; None when degenerate."""
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        return None
    sp2 = ((n1 - 1) * np.var(a, ddof=1) + (n2 - 1) * np.var(b, ddof=1)) / (n1 + n2 - 2)
    if sp2 <= 0.0:
        return None
    t = (np.mean(b) - np.mean(a)) / math.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
    return float(2.0 * _sps.t.sf(abs(t), n1 + n2 - 2))


def _variance_ratio_p(a: np.ndarray, b: np.ndarray) -> float | None:
    """Two-tailed F-test p-value for the variance ratio of zero-mean samples given as squares."""
    n1, n2 = len(a), len(b)
    if n1 < 1 or n2 < 1:
        return None
    var1, var2 = float(a.mean()), float(b.mean())
    if var1 <= 0.0 or var2 <= 0.0:
        return None
    ratio = var2 / var1
    cdf = float(_sps.f.cdf(ratio, n2, n1))
    return min(1.0, 2.0 * min(cdf, 1.0 - cdf))
