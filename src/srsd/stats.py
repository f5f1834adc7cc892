"""Distribution quantiles and correlation statistics used by the detectors.

The t, F and normal functions are scipy.special's kernels called directly.
scipy's distribution objects call the same kernels, behind a per-call
argument-checking and broadcasting front end that costs 20-300 times the
kernel on a scalar.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import fdtr, fdtri, ndtri, stdtr, stdtrit

from .core import DataError, ParameterError, TimeSeries, as_series

__all__ = [
    "student_t_quantile",
    "f_quantile",
    "running_avg_variance",
    "pearson_r",
    "CorrelationComparison",
    "fisher_compare",
    "fisher_ci",
]


def _check_prob(prob: float, name: str = "prob") -> float:
    if not (0.0 < prob < 1.0):
        raise ParameterError(f"{name} must lie strictly between 0 and 1, got {prob!r}")
    return float(prob)


def student_t_quantile(prob: float, df: int) -> float:
    """Inverse CDF of Student's t distribution with df degrees of freedom."""
    _check_prob(prob)
    if not df >= 1:  # written so that a NaN df fails too
        raise ParameterError(f"df must be a positive integer, got {df!r}")
    return float(stdtrit(df, prob))


def f_quantile(prob: float, df1: int, df2: int) -> float:
    """Inverse CDF of the F distribution with (df1, df2) degrees of freedom."""
    _check_prob(prob)
    if not df1 >= 1:
        raise ParameterError(f"df1 must be positive, got {df1!r}")
    if not df2 >= 1:
        raise ParameterError(f"df2 must be positive, got {df2!r}")
    return float(fdtri(df1, df2, prob))


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
    r = _pearson(xs.values, ys.values)
    if r is None:
        raise DataError("correlation is undefined for a constant series")
    return r


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson r of two finite equal-length float arrays; None if either is constant."""
    xd = x - np.add.reduce(x) / len(x)
    yd = y - np.add.reduce(y) / len(y)
    sx = math.sqrt(np.dot(xd, xd))
    sy = math.sqrt(np.dot(yd, yd))
    if sx == 0.0 or sy == 0.0:
        return None
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
    z, p = _fisher_z_p(r1, n1, r2, n2)
    return CorrelationComparison(r1=r1, n1=n1, r2=r2, n2=n2, z=z, p_value=p)


def _fisher_z_p(r1: float, n1: int, r2: float, n2: int) -> tuple[float, float]:
    """Fisher's z and its two-tailed p-value, for n >= 4 and |r| < 1 already checked."""
    se = math.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))
    z = (math.atanh(r1) - math.atanh(r2)) / se
    return z, math.erfc(abs(z) / math.sqrt(2.0))


def fisher_ci(r: float, n: int, confidence: float = 0.90) -> tuple[float, float]:
    """Confidence interval for a correlation coefficient via Fisher's z."""
    _check_fisher_args(r, n, "sample")
    _check_prob(confidence, "confidence")
    z_crit = float(ndtri(0.5 + confidence / 2.0))
    half = z_crit / math.sqrt(n - 3)
    center = math.atanh(r)
    return (math.tanh(center - half), math.tanh(center + half))


def _pooled_t_p(a: np.ndarray, b: np.ndarray) -> float | None:
    """Two-tailed pooled two-sample t-test p-value; None when degenerate."""
    n1, n2 = len(a), len(b)
    # np.var(ddof=1)'s and np.mean's own sums and divisions, minus their wrappers.
    mean1, mean2 = np.add.reduce(a) / n1, np.add.reduce(b) / n2
    da, db = a - mean1, b - mean2
    var1, var2 = np.add.reduce(da * da) / (n1 - 1), np.add.reduce(db * db) / (n2 - 1)
    sp2 = ((n1 - 1) * var1 + (n2 - 1) * var2) / (n1 + n2 - 2)
    if sp2 <= 0.0:
        return None
    t = (mean2 - mean1) / math.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
    return float(2.0 * stdtr(n1 + n2 - 2, -abs(t)))


def _variance_ratio_p(a: np.ndarray, b: np.ndarray) -> float | None:
    """Two-tailed F-test p-value for the variance ratio of zero-mean samples given as squares."""
    n1, n2 = len(a), len(b)
    var1, var2 = float(np.add.reduce(a) / n1), float(np.add.reduce(b) / n2)
    if var1 <= 0.0 or var2 <= 0.0:
        return None
    ratio = var2 / var1
    cdf = float(fdtr(n2, n1, ratio))
    return min(1.0, 2.0 * min(cdf, 1.0 - cdf))
