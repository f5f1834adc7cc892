"""Statistical utilities: quantiles, correlation tests, windowed variance.

Quantile accuracy is checked against an independent high-precision oracle
(mpmath regularized incomplete beta + bisection) rather than against the
implementation's own backend. Separately, the scipy.special kernels the
package calls are pinned bit for bit to the scipy.stats distribution calls
they replaced, which the tests import as a reference only.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats as sps

from srsd import (
    DataError,
    ParameterError,
    TimeSeries,
    estimate_ar1,
    f_quantile,
    fisher_ci,
    fisher_compare,
    pearson_r,
    running_avg_variance,
    student_t_quantile,
)
from srsd.stats import _BLOCK, _pooled_t_p, _subsample_lag1, _variance_ratio_p

mpmath.mp.dps = 40


def mp_t_cdf(t, df):
    x = df / (df + t * t)
    half_tail = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
    return float(1 - half_tail) if t >= 0 else float(half_tail)


def mp_f_cdf(q, df1, df2):
    x = df1 * q / (df1 * q + df2)
    return float(mpmath.betainc(df1 / 2, df2 / 2, 0, x, regularized=True))


# ---------------------------------------------------------------------------
# Student t quantile


def test_t_quantile_cauchy_closed_form():
    assert student_t_quantile(0.75, 1) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("df", [1, 5, 19, 38, 100])
def test_t_quantile_median_is_zero(df):
    assert abs(student_t_quantile(0.5, df)) < 1e-9


def test_t_quantile_table_anchor():
    assert student_t_quantile(0.975, 38) == pytest.approx(2.0244, abs=1e-4)


@pytest.mark.parametrize("df", [1, 5, 19, 38, 100])
@pytest.mark.parametrize("prob", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
def test_t_quantile_cdf_round_trip(prob, df):
    q = student_t_quantile(prob, df)
    assert mp_t_cdf(q, df) == pytest.approx(prob, abs=1e-6)


@given(
    prob=st.floats(0.01, 0.99),
    df=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=40, deadline=None)
def test_t_quantile_antisymmetry(prob, df):
    q = student_t_quantile(prob, df)
    q_mirror = student_t_quantile(1.0 - prob, df)
    assert q == pytest.approx(-q_mirror, abs=1e-9 + 1e-9 * abs(q))


@pytest.mark.parametrize(
    "bad",
    [
        (0.0, 5), (1.0, 5), (1.5, 5), (0.5, 0), (0.5, -3), (0.5, float("nan")),
        (0.5, 2.5), (0.5, True), ("0.9", 3),
    ],
)
def test_t_quantile_rejects_bad_inputs(bad):
    with pytest.raises(ParameterError):
        student_t_quantile(*bad)


# ---------------------------------------------------------------------------
# F quantile


def test_f_quantile_equal_df_median():
    assert f_quantile(0.5, 19, 19) == pytest.approx(1.0, abs=1e-9)


def test_f_quantile_table_anchor():
    assert f_quantile(0.975, 19, 19) == pytest.approx(2.526, abs=5e-3)


def test_f_quantile_lower_tail_is_reciprocal():
    up = f_quantile(0.975, 19, 19)
    lo = f_quantile(0.025, 19, 19)
    assert lo == pytest.approx(1.0 / up, rel=1e-9)
    assert lo == pytest.approx(0.3959, abs=5e-4)


@pytest.mark.parametrize("dfs", [(1, 1), (5, 19), (19, 19), (38, 5), (100, 100)])
@pytest.mark.parametrize("prob", [0.01, 0.1, 0.5, 0.9, 0.99])
def test_f_quantile_cdf_round_trip(prob, dfs):
    q = f_quantile(prob, *dfs)
    assert mp_f_cdf(q, *dfs) == pytest.approx(prob, abs=1e-6)


@given(
    prob=st.floats(0.01, 0.99),
    df1=st.integers(min_value=1, max_value=150),
    df2=st.integers(min_value=1, max_value=150),
)
@settings(max_examples=40, deadline=None)
def test_f_quantile_reciprocal_identity(prob, df1, df2):
    q = f_quantile(prob, df1, df2)
    q_swapped = f_quantile(1.0 - prob, df2, df1)
    assert q == pytest.approx(1.0 / q_swapped, rel=1e-6)


def test_f_quantile_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        f_quantile(0.5, 0, 3)
    with pytest.raises(ParameterError, match="^df2 must be an integer >= 1, got 0$"):
        f_quantile(0.9, 3, 0)
    with pytest.raises(ParameterError):
        f_quantile(1.0, 3, 3)
    with pytest.raises(ParameterError, match="df1"):
        f_quantile(0.975, float("nan"), 5)
    with pytest.raises(ParameterError, match="df2"):
        f_quantile(0.975, 5, float("nan"))
    with pytest.raises(ParameterError, match=r"^df2 must be an integer >= 1, got 2\.5$"):
        f_quantile(0.9, 3, 2.5)


def test_quantiles_raise_where_the_kernel_is_not_finite():
    """scipy 1.17's kernels fail near a tail of 1e-290 with few degrees of freedom."""
    with pytest.raises(ParameterError, match=r"^t quantile at prob=5e-301 with df=6 is not fin"):
        student_t_quantile(5e-301, 6)
    for d in range(6, 10):
        with pytest.raises(
            ParameterError, match=rf"^F quantile at prob=5e-301 with df1={d}, df2={d} is not fin"
        ):
            f_quantile(5e-301, d, d)
    assert math.isfinite(student_t_quantile(5e-301, 38))
    assert math.isfinite(f_quantile(5e-301, 19, 19))


# ---------------------------------------------------------------------------
# Running average variance


def test_running_avg_variance_constant_is_zero():
    assert running_avg_variance([3.0] * 12, 5) == 0.0


def test_running_avg_variance_alternating():
    assert running_avg_variance([0.0, 1.0, 0.0, 1.0, 0.0], 2) == pytest.approx(0.5)


def test_running_avg_variance_single_window():
    assert running_avg_variance([0.0, 1.0, 0.0], 3) == pytest.approx(1.0 / 3.0)


def test_running_avg_variance_matches_direct_average():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(40)
    l = 7
    direct = np.mean([np.var(values[i : i + l], ddof=1) for i in range(len(values) - l + 1)])
    assert running_avg_variance(values, l) == pytest.approx(direct, rel=1e-12)


def test_running_avg_variance_needs_full_window():
    with pytest.raises(DataError):
        running_avg_variance([1.0, 2.0], 3)


def test_running_avg_variance_names_an_overflow():
    with pytest.raises(DataError, match=r"^the variance of the window at points 2 to 6 overflows$"):
        running_avg_variance([0.0] * 5 + [1e300, -1e300], 5)
    # Every window's variance is finite; their sum is not.
    with pytest.raises(DataError, match=r"^the average of the 191 window variances overflows$"):
        running_avg_variance(np.tile([4e153, -4e153], 100), 10)


def test_running_avg_variance_needs_two_point_windows():
    with pytest.raises(ParameterError, match="^window length l must be an integer >= 2, got 1$"):
        running_avg_variance([1.0, 2.0, 3.0], 1)
    for l in (20.0, True):
        message = rf"^window length l must be an integer >= 2, got {l!r}$"
        with pytest.raises(ParameterError, match=message):
            running_avg_variance(np.arange(30.0), l)


# ---------------------------------------------------------------------------
# Sliding-window statistics in blocks: the bits of the one-block formulas


def one_block_avg_variance(values, l):
    return float(np.mean(np.var(sliding_window_view(values, l), axis=1, ddof=1)))


def one_block_lag1(values, m):
    windows = sliding_window_view(values, m)
    dev = windows - windows.mean(axis=1, keepdims=True)
    num = np.sum(dev[:, :-1] * dev[:, 1:], axis=1)
    den = np.sum(dev * dev, axis=1)
    keep = den > 0.0
    return num[keep] / den[keep]


def one_block_ar1(values, m, method):
    """(alpha before the clamp, alpha_ols) as estimate_ar1 computed them in one block."""
    raw = one_block_lag1(values, m)
    if method == "mpk":
        corrected = (m * raw + 1.0) / (m - 4)
    else:
        corrected = raw.copy()
        for _ in range(4):
            corrected = raw + (1.0 + 4.0 * corrected) / m
    return float(np.median(corrected)), float(np.median(raw))


WINDOW_COUNTS = {  # windows in the series, against the rows of one block
    "one block": lambda rows: rows,
    "one block + 1": lambda rows: rows + 1,
    "two blocks - 1": lambda rows: 2 * rows - 1,
}
KINDS = ["unit", "1e-5", "1e5", "1e12 offset", "rounded", "constant stretch"]


def block_series(l, count, kind):
    rows = max(1, _BLOCK // l)
    seed = [l, list(WINDOW_COUNTS).index(count), KINDS.index(kind)]
    values = np.random.default_rng(seed).standard_normal(WINDOW_COUNTS[count](rows) + l - 1)
    if kind == "1e-5":
        values *= 1e-5
    elif kind == "1e5":
        values *= 1e5
    elif kind == "1e12 offset":
        values += 1e12
    elif kind == "rounded":
        values = np.round(values)  # ties and repeated windows
    elif kind == "constant stretch":
        values[rows - 3 * l : rows + 3 * l] = 2.5  # constant windows on both sides of a block edge
    return values


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("count", list(WINDOW_COUNTS))
@pytest.mark.parametrize("l", [2, 3, 20, 80])
def test_blocked_running_avg_variance_has_the_one_block_bits(l, count, kind):
    values = block_series(l, count, kind)
    assert running_avg_variance(values, l).hex() == one_block_avg_variance(values, l).hex()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("count", list(WINDOW_COUNTS))
@pytest.mark.parametrize("m", [5, 6, 10, 17])
def test_blocked_subsample_lag1_has_the_one_block_bits(m, count, kind):
    values = block_series(m, count, kind)
    assert _subsample_lag1(values, m).tobytes() == one_block_lag1(values, m).tobytes()


@pytest.mark.parametrize("method", ["mpk", "ip4"])
@pytest.mark.parametrize("m", [5, 6, 10, 17])
def test_estimate_ar1_has_the_one_block_bits(m, method):
    values = block_series(m, "two blocks - 1", "unit")
    values[1:] += 0.3 * values[:-1]
    est = estimate_ar1(values, m, method)
    alpha, alpha_ols = one_block_ar1(values, m, method)
    alpha = min(max(alpha, -0.99), 0.99)
    assert (est.alpha.hex(), est.alpha_ols.hex()) == (alpha.hex(), alpha_ols.hex())


def traced_peak_mib(fn):
    """tracemalloc peak of one call of fn, after a warm-up call."""
    fn()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def long_series():
    return TimeSeries(np.random.default_rng(19).standard_normal(200_000))


def test_running_avg_variance_memory_is_bounded_in_n_times_l(long_series):
    # One (n - l + 1) x l block of deviations would take 30.5 MiB here.
    assert traced_peak_mib(lambda: running_avg_variance(long_series, 20)) < 4.0


@pytest.mark.parametrize("method", ["mpk", "ip4"])
def test_estimate_ar1_memory_is_bounded_in_n_times_m(long_series, method):
    assert traced_peak_mib(lambda: estimate_ar1(long_series, 10, method)) < 4.0


# ---------------------------------------------------------------------------
# Pearson correlation


def test_pearson_perfect_and_anti_perfect():
    x = np.arange(10.0)
    assert pearson_r(x, x) == pytest.approx(1.0)
    assert pearson_r(x, -x) == pytest.approx(-1.0)


def test_pearson_small_example():
    assert pearson_r([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.9820, abs=1e-4)


def test_pearson_rejects_degenerate_inputs():
    with pytest.raises(DataError):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="at least 2 observations"):
        pearson_r([1.0], [2.0])


def test_pearson_rejects_series_whose_labels_differ():
    x = TimeSeries([1.0, 2.0, 4.0], labels=[1.0, 2.0, 3.0])
    y = TimeSeries([1.0, 3.0, 2.0], labels=[1.0, 2.0, 4.0])
    with pytest.raises(DataError, match=r"^series labels differ at position 3: 3\.0 vs 4\.0$"):
        pearson_r(x, y)
    assert pearson_r(x, y.values) == pearson_r(x.values, y.values)  # one side has no labels


def test_pipeline_segment_r_equals_pearson_r_bit_for_bit():
    """The pipeline's unchecked path gives pearson_r's exact bits on any slice."""
    from srsd.pipeline import _segment_r

    rng = np.random.default_rng(4)
    x = rng.standard_normal(300)
    y = 0.3 * x + rng.standard_normal(300)
    for start, end in [(1, 300), (2, 3), (5, 44), (17, 250), (101, 300)]:
        assert _segment_r(x, y, start, end) == pearson_r(x[start - 1 : end], y[start - 1 : end])
    x[10:20] = 1.5
    assert _segment_r(x, y, 11, 20) is None


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(0.01, 100.0),
    shift=st.floats(-50.0, 50.0),
)
@settings(max_examples=30, deadline=None)
def test_pearson_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(25)
    y = rng.standard_normal(25)
    base = pearson_r(x, y)
    assert pearson_r(scale * x + shift, y) == pytest.approx(base, abs=1e-9)
    assert pearson_r(-x, y) == pytest.approx(-base, abs=1e-9)


# ---------------------------------------------------------------------------
# Fisher r-to-z


def test_fisher_compare_identical_inputs():
    cmp = fisher_compare(0.5, 50, 0.5, 50)
    assert cmp.z == 0.0
    assert cmp.p_value == 1.0


def test_fisher_compare_reported_contrast():
    # Contrast between r=0.59 over 19 points and r=-0.01 over 27 points.
    cmp = fisher_compare(0.59, 19, -0.01, 27)
    assert 0.03 <= cmp.p_value <= 0.05


def test_fisher_compare_strong_contrast():
    assert fisher_compare(0.7, 30, -0.7, 30).p_value < 1e-6


def test_fisher_compare_rejects_degenerate():
    with pytest.raises(DataError):
        fisher_compare(1.0, 30, 0.2, 30)
    with pytest.raises(DataError):
        fisher_compare(0.5, 3, 0.2, 30)
    with pytest.raises(DataError, match=r"^first sample: n must be an integer >= 4, got 10\.5$"):
        fisher_compare(0.1, 10.5, 0.2, 12)
    message = "^first sample: r must lie strictly between -1 and 1, got '0.1'$"
    with pytest.raises(DataError, match=message):
        fisher_compare("0.1", 10, 0.2, 12)


@given(
    r1=st.floats(-0.95, 0.95),
    r2=st.floats(-0.95, 0.95),
    n1=st.integers(min_value=4, max_value=500),
    n2=st.integers(min_value=4, max_value=500),
)
@example(r1=0.9375, r2=-0.875, n1=268, n2=390)  # z = 38.52: the p-value underflows
@settings(max_examples=50, deadline=None)
def test_fisher_compare_swap_symmetry(r1, r2, n1, n2):
    a = fisher_compare(r1, n1, r2, n2)
    b = fisher_compare(r2, n2, r1, n1)
    assert a.z == pytest.approx(-b.z, abs=1e-12)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-12)
    assert 0.0 <= a.p_value <= 1.0
    # erfc(|z| / sqrt(2)) is subnormal from |z| near 37.5 and rounds to 0.0 from 38.504.
    if abs(a.z) <= 38.5:
        assert a.p_value > 0.0
    elif abs(a.z) >= 38.51:
        assert a.p_value == 0.0


def test_fisher_compare_matches_closed_form():
    r1, n1, r2, n2 = 0.3, 40, -0.2, 60
    z = (math.atanh(r1) - math.atanh(r2)) / math.sqrt(1 / (n1 - 3) + 1 / (n2 - 3))
    cmp = fisher_compare(r1, n1, r2, n2)
    assert cmp.z == pytest.approx(z, rel=1e-12)
    p = 2 * (1 - float(mpmath.ncdf(abs(z))))
    assert cmp.p_value == pytest.approx(p, abs=1e-12)


def test_fisher_ci_reported_intervals():
    low, high = fisher_ci(0.69, 49, 0.90)
    assert low == pytest.approx(0.54, abs=0.01)
    assert high == pytest.approx(0.80, abs=0.01)
    # Second interval is quoted to two decimals in its source table; the
    # exact transform gives (0.2603, 0.7965), hence the looser bound.
    low, high = fisher_ci(0.59, 19, 0.90)
    assert low == pytest.approx(0.25, abs=0.015)
    assert high == pytest.approx(0.79, abs=0.015)


def test_fisher_ci_zero_is_symmetric():
    low, high = fisher_ci(0.0, 30, 0.9)
    assert low == pytest.approx(-high, abs=1e-12)


@given(
    r=st.floats(-0.95, 0.95),
    n=st.integers(min_value=4, max_value=1000),
    confidence=st.floats(0.5, 0.99),
)
@settings(max_examples=50, deadline=None)
def test_fisher_ci_brackets_r(r, n, confidence):
    low, high = fisher_ci(r, n, confidence)
    assert low <= r <= high


@given(r=st.floats(-0.9, 0.9), n=st.integers(min_value=4, max_value=400))
@settings(max_examples=30, deadline=None)
def test_fisher_ci_width_shrinks_with_n(r, n):
    w_small = np.diff(fisher_ci(r, n, 0.9))[0]
    w_large = np.diff(fisher_ci(r, n + 5, 0.9))[0]
    assert w_large < w_small


def test_fisher_ci_rejects_degenerate():
    with pytest.raises(DataError):
        fisher_ci(1.0, 30, 0.9)
    with pytest.raises(DataError):
        fisher_ci(0.5, 3, 0.9)
    with pytest.raises(ParameterError, match="^confidence must lie strictly between 0 and 1"):
        fisher_ci(0.3, 20, 1.0)
    with pytest.raises(DataError, match="^sample: n must be an integer >= 4, got True$"):
        fisher_ci(0.1, True)
    message = "^sample: r must lie strictly between -1 and 1, got True$"
    with pytest.raises(DataError, match=message):
        fisher_ci(True, 30)
    with pytest.raises(ParameterError, match="^confidence must lie strictly between 0 and 1"):
        fisher_ci(0.1, 10, "x")


# ---------------------------------------------------------------------------
# The scipy.special kernels return the same bits as the scipy.stats dispatch


def _t_statistic(a, b):
    n1, n2 = len(a), len(b)
    sp2 = ((n1 - 1) * np.var(a, ddof=1) + (n2 - 1) * np.var(b, ddof=1)) / (n1 + n2 - 2)
    return (np.mean(b) - np.mean(a)) / math.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))


def _stats_pooled_t_p(a, b):
    """_pooled_t_p as it read on scipy.stats.t.sf."""
    return float(2.0 * sps.t.sf(abs(_t_statistic(a, b)), len(a) + len(b) - 2))


def _stats_variance_ratio_p(a, b):
    """_variance_ratio_p as it read on scipy.stats.f.cdf."""
    cdf = float(sps.f.cdf(float(b.mean()) / float(a.mean()), len(b), len(a)))
    return min(1.0, 2.0 * min(cdf, 1.0 - cdf))


def _stats_fisher_ci(r, n, confidence):
    """fisher_ci as it read on scipy.stats.norm.ppf."""
    half = float(sps.norm.ppf(0.5 + confidence / 2.0)) / math.sqrt(n - 3)
    return (math.tanh(math.atanh(r) - half), math.tanh(math.atanh(r) + half))


def test_special_kernels_match_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(20150101)
    mismatches = []

    def check(what, got, want):
        got = [float(v).hex() for v in np.atleast_1d(got)]
        want = [float(v).hex() for v in np.atleast_1d(want)]
        if got != want:
            mismatches.append((what, got, want))

    # The detectors' calibration grid: (1 - p/2, 2l - 2) and (1 - p/2, l - 1, l - 1).
    for l in range(3, 401):
        for p in (0.001, 0.01, 0.05, 0.1, 0.5):
            prob = 1.0 - p / 2.0
            df = 2 * l - 2
            check(("t", prob, df), student_t_quantile(prob, df), sps.t.ppf(prob, df))
            df = l - 1
            check(("f", prob, df), f_quantile(prob, df, df), sps.f.ppf(prob, df, df))

    # Random arguments, with probabilities spread over the tails too.
    tails = 10.0 ** -rng.uniform(1.0, 12.0, 400)
    probs = np.concatenate([rng.uniform(0.0, 1.0, 400), tails, 1.0 - tails])
    for prob in probs:
        if not 0.0 < prob < 1.0:
            continue
        df1, df2 = (int(d) for d in rng.integers(1, 2000, 2))
        check(("t", prob, df1), student_t_quantile(prob, df1), sps.t.ppf(prob, df1))
        check(("f", prob, df1, df2), f_quantile(prob, df1, df2), sps.f.ppf(prob, df1, df2))
        r, n = float(rng.uniform(-0.99, 0.99)), int(rng.integers(4, 2000))
        check(("ci", r, n, prob), fisher_ci(r, n, prob), _stats_fisher_ci(r, n, prob))

    # The span tests on random samples, including variance ratios from 1e-12 to 1e12.
    for _ in range(600):
        n1, n2 = (int(d) for d in rng.integers(2, 200, 2))
        a = rng.normal(0.0, 1.0, n1)
        b = rng.normal(rng.normal(0.0, 2.0), rng.uniform(0.1, 3.0), n2)
        check(("t-span", n1, n2), _pooled_t_p(a, b), _stats_pooled_t_p(a, b))
        a2 = a * a * 10.0 ** rng.uniform(-6.0, 6.0)
        b2 = b * b * 10.0 ** rng.uniform(-6.0, 6.0)
        check(("f-span", n1, n2), _variance_ratio_p(a2, b2), _stats_variance_ratio_p(a2, b2))

    # Edges: a t of +inf and -inf (the statistic overflows on purpose), and
    # variance ratios of 0 and inf.
    for sign in (1.0, -1.0):
        a, b = np.array([0.0, 1e-160]), np.array([sign * 1e200, sign * 1e200])
        with np.errstate(over="ignore"):
            assert _t_statistic(a, b) == sign * math.inf
            check(("t-span", sign), _pooled_t_p(a, b), _stats_pooled_t_p(a, b))
    for var1, var2 in ((1e300, 1e-300), (1e-300, 1e300)):
        a2, b2 = np.array([var1]), np.array([var2])
        assert var2 / var1 in (0.0, math.inf)
        check(("f-span", var1), _variance_ratio_p(a2, b2), _stats_variance_ratio_p(a2, b2))

    assert mismatches == []
