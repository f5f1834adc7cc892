"""AR(1) estimation (MPK / IP4 bias corrections) and lag-1 filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from srsd import (
    DataError,
    DetectionParams,
    ParameterError,
    TimeSeries,
    canonical_fixture,
    derive_seeds,
    estimate_ar1,
    prewhiten,
    run_srsd,
)


def ar1_series(alpha, n, rng):
    eps = rng.standard_normal(n)
    return signal.lfilter([1.0], [1.0, -alpha], eps)


def lag1_autocorr(values):
    v = values - values.mean()
    return float(np.dot(v[1:], v[:-1]) / np.dot(v, v))


# ---------------------------------------------------------------------------
# Filtering


def test_prewhiten_zero_alpha_is_identity_after_first():
    ts = TimeSeries([3.0, 1.0, 4.0, 1.0, 5.0], labels=[10, 11, 12, 13, 14])
    out = prewhiten(ts, 0.0)
    assert out.values.tolist() == [1.0, 4.0, 1.0, 5.0]
    assert out.labels.tolist() == [11.0, 12.0, 13.0, 14.0]


def test_prewhiten_constant_series_closed_form():
    out = prewhiten([2.0] * 8, 0.3)
    assert np.allclose(out.values, 2.0 * (1 - 0.3))
    assert len(out) == 7


def test_prewhiten_removes_known_autocorrelation():
    rng = np.random.default_rng(14)
    series = ar1_series(0.6, 1000, rng)
    out = prewhiten(series, 0.6)
    assert abs(lag1_autocorr(out.values)) < 0.05


def test_prewhiten_rejects_bad_alpha_and_short_input():
    with pytest.raises(ParameterError):
        prewhiten([1.0, 2.0, 3.0], 1.0)
    with pytest.raises(ParameterError):
        prewhiten([1.0, 2.0, 3.0], -1.5)
    for alpha in ("0.5", True):  # a real number, not a string or a bool
        message = f"^alpha must lie strictly between -1 and 1, got {alpha!r}$"
        with pytest.raises(ParameterError, match=message):
            prewhiten([1.0, 2.0, 3.0], alpha)
    with pytest.raises(DataError):
        prewhiten([1.0], 0.2)


# ---------------------------------------------------------------------------
# Estimation


def test_estimate_requires_minimum_subsample():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        estimate_ar1(rng.standard_normal(30), 4, "mpk")
    with pytest.raises(DataError):
        estimate_ar1(rng.standard_normal(6), 10, "mpk")


def test_estimate_rejects_an_unknown_method_a_float_m_and_a_constant_series():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="method must be 'mpk' or 'ip4'"):
        estimate_ar1(rng.standard_normal(30), 10, "ols")
    with pytest.raises(ParameterError, match=r"^method must be 'mpk' or 'ip4', got \['mpk'\]$"):
        estimate_ar1(rng.standard_normal(30), 10, ["mpk"])  # unhashable
    with pytest.raises(ParameterError, match="m must be an integer"):
        estimate_ar1(rng.standard_normal(30), 10.0, "mpk")
    with pytest.raises(DataError, match="every subsample is constant"):
        estimate_ar1([2.0] * 30, 10, "ip4")


def test_subsample_count_is_sliding():
    rng = np.random.default_rng(1)
    est = estimate_ar1(rng.standard_normal(12), 5, "mpk")
    assert est.n_subsamples == 8


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mpk_single_window_closed_form(seed):
    """With exactly one subsample (n == m) the reported alpha must equal the
    closed-form correction (m * a_ols + 1) / (m - 4); e.g. a_ols = 0.1 at
    m = 10 maps to 1/3."""
    values = np.random.default_rng(seed).standard_normal(10)
    est = estimate_ar1(values, 10, "mpk")
    if est.clamped:
        return
    assert est.alpha == pytest.approx((10 * est.alpha_ols + 1) / 6, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_ip4_single_window_recurrence(seed):
    """Four inverse-proportional corrections re-anchored at the OLS value:
    a_{k+1} = a_ols + (1 + 4 a_k) / m."""
    values = np.random.default_rng(seed).standard_normal(10)
    est = estimate_ar1(values, 10, "ip4")
    if est.clamped:
        return
    a = est.alpha_ols
    for _ in range(4):
        a = est.alpha_ols + (1 + 4 * a) / 10
    assert est.alpha == pytest.approx(a, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_ip4_correction_direction(seed):
    """The correction increments all share the sign of (1 + 4 a_ols), so the
    corrected estimate exceeds OLS exactly when a_ols > -1/4."""
    values = np.random.default_rng(seed).standard_normal(10)
    est = estimate_ar1(values, 10, "ip4")
    if est.clamped or abs(1 + 4 * est.alpha_ols) < 1e-9:
        return
    assert (est.alpha > est.alpha_ols) == (est.alpha_ols > -0.25)


def test_clamp_is_flagged():
    est = estimate_ar1(np.arange(10.0), 10, "mpk")
    assert est.clamped
    assert est.alpha == pytest.approx(0.99)


def test_estimators_unbiased_at_zero_alpha():
    """White noise has alpha = 0; the corrected estimators' average over
    1000 seeded runs (n=100, m=10) must stay within 0.02 of zero."""
    for method in ("ip4", "mpk"):
        values = [
            estimate_ar1(np.random.default_rng(seed).standard_normal(100), 10, method).alpha
            for seed in derive_seeds(7070, 1000)
        ]
        assert abs(np.mean(values)) < 0.02


def test_metadata_fields():
    rng = np.random.default_rng(5)
    est = estimate_ar1(rng.standard_normal(40), 8, "ip4")
    assert est.method == "ip4"
    assert est.m == 8
    assert -0.99 <= est.alpha <= 0.99


# ---------------------------------------------------------------------------
# Pipeline integration


def test_prewhitening_preserves_fixture_detections():
    """On the canonical pair the fitted AR(1) coefficients are near zero, so
    filtering must not move any detected shift: the confirmed change-point
    labels match the unfiltered run exactly (indices shift by one because
    the filtered series starts at the second observation)."""
    x, y, expected = canonical_fixture()
    res = run_srsd(x, y, DetectionParams(p=0.05, l=20, prewhiten="ip4", m=10))
    assert abs(res.ar1[0].alpha) < 0.2
    assert abs(res.ar1[1].alpha) < 0.2

    def labels(ts, cps):
        return tuple(float(ts.labels[c.index - 1]) for c in cps if not c.provisional)

    assert labels(res.mean_results[0].residuals, res.mean_results[0].change_points) == expected["x_mean"]
    assert labels(res.mean_results[1].residuals, res.mean_results[1].change_points) == expected["y_mean"]
    assert labels(res.variance_results[0].normalized, res.variance_results[0].change_points) == expected["x_variance"]
    assert labels(res.variance_results[1].normalized, res.variance_results[1].change_points) == expected["y_variance"]
    assert labels(res.variance_results[0].normalized, res.correlation_change_points) == expected["correlation"]
