"""Distribution quantiles, correlation statistics and AR(1) prewhitening.

The t, F and normal functions are scipy.special's kernels called directly.
scipy's distribution objects call the same kernels, behind a per-call
argument-checking and broadcasting front end that costs 20-300 times the
kernel on a scalar.

Red noise inflates every detector's false-alarm rate, so series can be
filtered with x'_i = x_{i+1} - alpha * x_i before detection. Because regime
shifts themselves bias a whole-series lag-1 estimate upward, alpha is instead
estimated on every contiguous subsample of a small size m (shorter than the
cut-off length, so most subsamples sit inside a single regime) and the median
of the bias-corrected subsample estimates is used.

Two small-sample bias corrections of the ordinary lag-1 estimate are offered:

* "mpk" inverts the first-order bias expansion E[r] ~ alpha - (1 + 4 alpha)/m
  in closed form: (m * r + 1) / (m - 4). Exact to first order, but the
  1 / (m - 4) factor amplifies noise badly for m near 5.
* "ip4" applies the inversely-proportional bias estimate iteratively,
  alpha_{k+1} = r + (1 + 4 * alpha_k) / m, four times starting from the raw
  estimate. Each pass removes most of the remaining bias while keeping the
  noise amplification bounded, which makes it the better choice for m < 10.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Literal, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import fdtr, fdtri, ndtri, stdtr, stdtrit

from .core import DataError, DetectionParams, ParameterError, TimeSeries, _check_int, _check_length
from .core import _check_real, _pair, as_series

__all__ = [
    "student_t_quantile",
    "f_quantile",
    "running_avg_variance",
    "pearson_r",
    "CorrelationComparison",
    "fisher_compare",
    "fisher_ci",
    "Ar1Estimate",
    "estimate_ar1",
    "prewhiten",
]

_BLOCK = 2**16  # elements per block of sliding windows


def student_t_quantile(prob: float, df: int) -> float:
    """Inverse CDF of Student's t distribution with df degrees of freedom."""
    _check_real(prob, "prob", 0, 1)
    if _check_int(df, "df") < 1:
        raise ParameterError(f"df must be a positive integer, got {df!r}")
    t = float(stdtrit(df, prob))
    # The quantile of a prob in (0, 1) is finite, but scipy's kernels fail at tails of about
    # 1e-290 with few degrees of freedom (t is inf at df = 6, F nan at df = 6 to 9).
    if not math.isfinite(t):
        raise ParameterError(f"t quantile at prob={prob!r} with df={df} is not finite")
    return t


def f_quantile(prob: float, df1: int, df2: int) -> float:
    """Inverse CDF of the F distribution with (df1, df2) degrees of freedom."""
    _check_real(prob, "prob", 0, 1)
    if _check_int(df1, "df1") < 1:
        raise ParameterError(f"df1 must be positive, got {df1!r}")
    if _check_int(df2, "df2") < 1:
        raise ParameterError(f"df2 must be positive, got {df2!r}")
    f = float(fdtri(df1, df2, prob))
    if not math.isfinite(f):  # as for t
        raise ParameterError(f"F quantile at prob={prob!r} with df1={df1}, df2={df2} is not finite")
    return f


def _two_tailed(
    quantile: Callable, mirror: Callable, params: DetectionParams, name: str, *df: int
) -> float:
    """The quantile at 1 - p/2 of a law whose tails mirror maps onto each other (t to -t, F to 1/F).

    Where 1 - p/2 rounds to 1 (p below about 2.2e-16), the quantile at p/2 is
    mirrored. A result that is not finite (1/F overflows where F is subnormal) names p and l.
    """
    prob = 1.0 - params.p / 2.0
    try:
        q = quantile(prob, *df) if prob < 1.0 else mirror(quantile(params.p / 2.0, *df))
    except ParameterError:  # prob and df are valid: the kernel failed at a tail of about 1e-290
        q = math.nan
    if not math.isfinite(q):
        raise ParameterError(f"p={params.p!r} is too small for l={params.l}: {name} is not finite")
    return q


def _window_blocks(values: np.ndarray, l: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, rows) blocks of about _BLOCK elements: l-point windows less their means."""
    windows, rows = sliding_window_view(values, l), max(1, _BLOCK // l)
    for start in range(0, len(windows), rows):
        block = windows[start : start + rows]
        yield start, block - np.add.reduce(block, axis=1, keepdims=True) / l


def running_avg_variance(series: TimeSeries | Sequence[float], l: int) -> float:
    """Average sample variance of all running l-point windows of the series.

    The mean detector's threshold is built from this pooled noise scale. Beyond
    the n - l + 1 variances, its memory is one live block of windows, whatever n is.
    """
    ts = as_series(series)
    if _check_int(l, "window length l") < 2:
        raise ParameterError(f"window length l must be at least 2, got {l}")
    _check_length(ts, l, "l")
    variances = np.empty(len(ts) - l + 1)  # np.var(ddof=1), then np.mean, by their own steps
    for row, dev in _window_blocks(ts.values, l):
        variances[row : row + len(dev)] = np.add.reduce(np.square(dev, out=dev), axis=1) / (l - 1)
        del dev  # else it lives on while the generator builds the next block
    return float(np.add.reduce(variances) / len(variances))


def pearson_r(x: TimeSeries | Sequence[float], y: TimeSeries | Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length series whose labels agree."""
    xs, ys = _pair(x, y)
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
    if _check_int(n, f"{what}: n", DataError) < 4:
        raise DataError(f"{what}: Fisher transform requires n >= 4, got n={n}")
    _check_real(r, f"{what}: r", -1, 1, DataError)


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
    _check_real(confidence, "confidence", 0, 1)
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


_CLAMP = 0.99


@dataclass(frozen=True)
class Ar1Estimate:
    """Median bias-corrected AR(1) coefficient over all m-point subsamples."""

    alpha: float
    method: Literal["mpk", "ip4"]
    m: int
    n_subsamples: int
    alpha_ols: float
    clamped: bool


def _subsample_lag1(values: np.ndarray, m: int) -> np.ndarray:
    """Ordinary lag-1 autocorrelation estimate for every m-point window."""
    ratios = []
    for _, dev in _window_blocks(values, m):
        num = np.sum(dev[:, :-1] * dev[:, 1:], axis=1)
        den = np.sum(dev * dev, axis=1)
        keep = den > 0.0
        ratios.append(num[keep] / den[keep])
        del dev  # as in running_avg_variance
    return np.concatenate(ratios)


def _correct_mpk(r: np.ndarray, m: int) -> np.ndarray:
    return (m * r + 1.0) / (m - 4)


def _correct_ip4(r: np.ndarray, m: int) -> np.ndarray:
    alpha = r.copy()
    for _ in range(4):  # alpha = r + (1 + 4 alpha) / m, in place
        alpha *= 4.0
        alpha += 1.0
        alpha /= m
        alpha += r
    return alpha


def estimate_ar1(
    series: TimeSeries | Sequence[float], m: int, method: Literal["mpk", "ip4"]
) -> Ar1Estimate:
    """Estimate the lag-1 autoregression coefficient of a series.

    The estimate is the median over all contiguous m-point subsamples of the
    bias-corrected ordinary estimate, clamped to (-0.99, 0.99); `clamped`
    records whether the clamp was hit.
    """
    methods = {"mpk": _correct_mpk, "ip4": _correct_ip4}  # each method's bias correction
    correct = methods.get(method) if isinstance(method, str) else None  # a list does not hash
    if correct is None:
        raise ParameterError(f"method must be {' or '.join(map(repr, methods))}, got {method!r}")
    if _check_int(m, "m") < 5:
        raise ParameterError(f"subsample size m must be at least 5, got {m}")
    ts = _check_length(as_series(series), m, "m")
    raw = _subsample_lag1(ts.values, m)
    if raw.size == 0:
        raise DataError("AR(1) estimation is undefined: every subsample is constant")
    alpha = float(np.median(correct(raw, m), overwrite_input=True))
    clamped = not (-_CLAMP < alpha < _CLAMP)
    alpha = min(max(alpha, -_CLAMP), _CLAMP)
    return Ar1Estimate(
        alpha=alpha,
        method=method,
        m=int(m),
        n_subsamples=int(raw.size),
        alpha_ols=float(np.median(raw, overwrite_input=True)),
        clamped=clamped,
    )


def prewhiten(series: TimeSeries | Sequence[float], alpha: float) -> TimeSeries:
    """Remove lag-1 autoregression: output value i is x_{i+1} - alpha * x_i.

    The output is one point shorter than the input; with alpha = 0 it is the
    input with the first observation dropped. Labels are carried from the
    surviving (later) points.
    """
    alpha = _check_real(alpha, "alpha", -1, 1)
    ts = as_series(series)
    if len(ts) < 2:
        raise DataError("prewhitening requires at least 2 observations")
    filtered = ts.values[1:] - alpha * ts.values[:-1]
    labels = ts.labels[1:] if ts.labels is not None else None
    return TimeSeries._derived(filtered, labels, ts.name)
