"""Sequential mean-shift detector: thresholds, detection, invariances."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from srsd import (
    DataError,
    DetectionParams,
    ParameterError,
    derive_seeds,
    detect_mean,
    init_mean_monitor,
    threshold_delta,
)


# ---------------------------------------------------------------------------
# Threshold


def test_threshold_zero_variance_gives_zero():
    assert threshold_delta(DetectionParams(p=0.05, l=20), 0.0) == 0.0


@pytest.mark.parametrize("avg_var", [-1.0, float("nan"), float("inf"), "1.0", True])
def test_threshold_rejects_bad_avg_var(avg_var):
    if avg_var == -1.0:
        message = "^avg_var must be finite and non-negative, got -1.0$"
    else:  # not a real number, or not finite
        message = f"^avg_var must lie strictly between -inf and inf, got {avg_var!r}$"
    with pytest.raises(ParameterError, match=message):
        threshold_delta(DetectionParams(p=0.05, l=20), avg_var)
    with pytest.raises(ParameterError, match="avg_var"):
        init_mean_monitor(np.zeros(20), DetectionParams(p=0.05, l=20), avg_var=avg_var)


def test_threshold_default_params():
    # t(0.975, 38) * sqrt(2 / 20)
    delta = threshold_delta(DetectionParams(p=0.05, l=20), 1.0)
    assert delta == pytest.approx(0.6402, abs=1e-4)


def test_threshold_alternate_params():
    # t(0.95, 28) * sqrt(2 / 15)
    delta = threshold_delta(DetectionParams(p=0.1, l=15), 1.0)
    assert delta == pytest.approx(0.6212, abs=1e-4)


def test_threshold_scales_with_standard_deviation():
    params = DetectionParams(p=0.05, l=20)
    assert threshold_delta(params, 4.0) == pytest.approx(2 * threshold_delta(params, 1.0))


# ---------------------------------------------------------------------------
# Batch detection


def test_constant_series_has_single_regime():
    res = detect_mean([2.5] * 50, DetectionParams(p=0.05, l=20))
    assert len(res.regimes) == 1
    assert res.change_points == []
    assert res.regimes[0].value == pytest.approx(2.5)


def test_step_series_located_exactly():
    """A 0 -> 10 step against sigma=0.1 noise is found at the true index,
    agreeing with an exhaustive two-sample t scan over every split."""
    rng = np.random.default_rng(11)
    values = np.concatenate([np.zeros(30), np.full(30, 10.0)])
    values += 0.1 * rng.standard_normal(60)
    res = detect_mean(values, DetectionParams(p=0.05, l=10))
    confirmed = [c.index for c in res.change_points if not c.provisional]
    assert confirmed == [31]

    best_split = min(range(2, 60), key=lambda k: sps.ttest_ind(values[: k - 1], values[k - 1 :]).pvalue)
    assert best_split == 31


def test_fixture_mean_shifts(canonical):
    x, y, expected = canonical
    res_x = detect_mean(x)
    res_y = detect_mean(y)
    assert tuple(c.index for c in res_x.change_points if not c.provisional) == expected["x_mean"]
    assert tuple(c.index for c in res_y.change_points if not c.provisional) == expected["y_mean"]


def test_constant_regimes_leave_the_span_test_undefined():
    """Two constant regimes pool to zero variance, so the shift's t-test has no p-value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = detect_mean([0.0] * 30 + [5.0] * 30, DetectionParams(l=20))
    assert [(c.index, c.p_value, c.provisional) for c in res.change_points] == [(31, None, False)]
    assert [r.shift_p_value for r in res.regimes] == [None, None]


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_a_calibration_variance_that_overflows_is_a_data_error(scale):
    """The smooth step sin(6t) + (t > 0.5), scaled up: an error that names the window, no warning."""
    t = np.linspace(0.0, 1.0, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"^the variance of the window at points 1 to 10 overflows$"):
            detect_mean((np.sin(6.0 * t) + (t > 0.5)) * scale, DetectionParams(l=10))


def test_short_series_rejected():
    with pytest.raises(DataError):
        detect_mean([1.0] * 10, DetectionParams(p=0.05, l=20))


def test_rsi_trace_marks_change_points():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(80)
    values[40:] += 2.0
    res = detect_mean(values, DetectionParams())
    assert len(res.rsi) == 80
    nonzero = (np.nonzero(res.rsi)[0] + 1).tolist()
    assert nonzero == [c.index for c in res.change_points]


def test_regime_p_values_present_after_first():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(80)
    values[40:] += 2.0
    res = detect_mean(values, DetectionParams())
    assert res.regimes[0].shift_p_value is None
    for regime in res.regimes[1:]:
        assert 0.0 <= regime.shift_p_value <= 1.0


# ---------------------------------------------------------------------------
# Invariances


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.floats(-100.0, 100.0),
    scale=st.floats(0.01, 50.0),
)
@settings(max_examples=40, deadline=None)
def test_shift_and_scale_equivariance(seed, offset, scale):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(90)
    values[45:] += 1.5
    params = DetectionParams(p=0.05, l=20)
    base = detect_mean(values, params)
    base_idx = [c.index for c in base.change_points]

    shifted = detect_mean(values + offset, params)
    assert [c.index for c in shifted.change_points] == base_idx
    for a, b in zip(shifted.regimes, base.regimes):
        assert a.value == pytest.approx(b.value + offset, abs=1e-9 * max(1.0, abs(offset)))

    scaled = detect_mean(values * scale, params)
    assert [c.index for c in scaled.change_points] == base_idx
    for a, b in zip(scaled.regimes, base.regimes):
        assert a.value == pytest.approx(b.value * scale, rel=1e-9)


def test_stronger_shifts_rarely_lost_at_weaker_thresholds():
    """Raising the target p (weaker threshold) adds triggers whose replay
    rejections can re-fold the window and, rarely, relocate or swallow a
    shift found at a stricter level. The detector's contract is statistical:
    a found +1.5-sigma shift survives weakening in >= 90% of series."""
    lost = 0
    ps = (0.01, 0.05, 0.1, 0.2, 0.3)
    for seed in derive_seeds(778, 400):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(120)
        values[40:] += 1.5
        hits = []
        for p in ps:
            res = detect_mean(values, DetectionParams(p=p, l=20))
            hits.append(
                any(abs(c.index - 41) <= 10 and not c.provisional for c in res.change_points)
            )
        seen = False
        for hit in hits:
            if seen and not hit:
                lost += 1
                break
            seen = seen or hit
    assert lost / 400 <= 0.10  # measured 0.0375-0.06 across reruns


def test_white_noise_false_positive_band():
    """Regression band for the per-series false-positive rate on pure noise
    (n=200, p=0.05, l=20). The committed reference rate is 108/200 from an
    independent seeded run; the replay below must stay within +-3 binomial
    standard errors of it."""
    reference = 108 / 200
    half_width = 3 * np.sqrt(reference * (1 - reference) / 200)
    flagged = 0
    for seed in derive_seeds(424243, 200):
        values = np.random.default_rng(seed).standard_normal(200)
        res = detect_mean(values, DetectionParams(p=0.05, l=20))
        flagged += bool([c for c in res.change_points if not c.provisional])
    assert abs(flagged / 200 - reference) <= half_width
