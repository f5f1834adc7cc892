"""Sequential variance-shift detector on centered residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srsd import (
    DataError,
    DetectionParams,
    critical_variances,
    derive_seeds,
    detect_mean,
    detect_variance,
)


# ---------------------------------------------------------------------------
# Critical variances


def test_critical_variances_default_params():
    up, down = critical_variances(1.0, DetectionParams(p=0.05, l=20))
    assert up == pytest.approx(2.526, abs=5e-3)
    assert down == pytest.approx(0.3959, abs=5e-4)
    assert down == pytest.approx(1.0 / up, rel=1e-12)


def test_critical_variances_scale_linearly():
    up, down = critical_variances(4.0, DetectionParams(p=0.05, l=20))
    assert up == pytest.approx(10.105, abs=2e-2)
    up1, down1 = critical_variances(1.0, DetectionParams(p=0.05, l=20))
    assert up == pytest.approx(4 * up1, rel=1e-12)
    assert down == pytest.approx(4 * down1, rel=1e-12)


def test_critical_variances_degenerate_significance():
    up, down = critical_variances(2.0, DetectionParams(p=0.999999, l=20))
    assert up == pytest.approx(2.0, abs=1e-4)
    assert down == pytest.approx(2.0, abs=1e-4)


def test_critical_variances_bracket_current():
    up, down = critical_variances(3.7, DetectionParams(p=0.2, l=10))
    assert down < 3.7 < up


def test_critical_variances_reject_nonpositive():
    with pytest.raises(DataError):
        critical_variances(0.0, DetectionParams())
    with pytest.raises(DataError):
        critical_variances(-1.0, DetectionParams())
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="finite and positive"):
            critical_variances(bad, DetectionParams())


# ---------------------------------------------------------------------------
# Batch detection


def test_fixture_variance_shifts(canonical):
    x, y, expected = canonical
    res_x = detect_variance(detect_mean(x).residuals)
    res_y = detect_variance(detect_mean(y).residuals)
    assert tuple(c.index for c in res_x.change_points if not c.provisional) == expected["x_variance"]
    assert tuple(c.index for c in res_y.change_points if not c.provisional) == expected["y_variance"]


def test_regime_variances_positive_and_normalization_exact():
    rng = np.random.default_rng(8)
    residuals = rng.standard_normal(100)
    residuals[50:] *= 3.0
    res = detect_variance(residuals, DetectionParams())
    for regime in res.regimes:
        assert regime.value > 0.0
        seg = np.asarray(res.normalized.values)[regime.start - 1 : regime.end]
        assert np.mean(seg**2) == pytest.approx(1.0, abs=1e-9)


def test_variance_step_localization_band():
    """Committed Monte Carlo band for a sigma 1 -> 3 step at index 51
    (n=100, p=0.05, l=20): an independent seeded run scored 152/200 within
    +-2 of the true index; the replay below must land within +-3 binomial
    standard errors of that rate. (An exhaustive two-sample F scan over all
    splits tops out near 80% on this scenario, so rates in the mid-70s are
    close to the information ceiling.)"""
    reference = 152 / 200
    half_width = 3 * np.sqrt(reference * (1 - reference) / 200)
    ok = 0
    for seed in derive_seeds(5152, 200):
        residuals = np.random.default_rng(seed).standard_normal(100)
        residuals[50:] *= 3.0
        res = detect_variance(residuals, DetectionParams(p=0.05, l=20))
        ok += any(abs(c.index - 51) <= 2 and not c.provisional for c in res.change_points)
    assert abs(ok / 200 - reference) <= half_width


def test_white_noise_false_positive_band():
    """Same committed-band scheme as the mean detector: reference 110/200
    flagged series (n=200, p=0.05, l=20) from an independent seeded run."""
    reference = 110 / 200
    half_width = 3 * np.sqrt(reference * (1 - reference) / 200)
    flagged = 0
    for seed in derive_seeds(525253, 200):
        residuals = np.random.default_rng(seed).standard_normal(200)
        res = detect_variance(residuals, DetectionParams(p=0.05, l=20))
        flagged += bool([c for c in res.change_points if not c.provisional])
    assert abs(flagged / 200 - reference) <= half_width


def test_short_series_rejected():
    with pytest.raises(DataError):
        detect_variance([0.5, -0.5] * 5, DetectionParams(p=0.05, l=20))


def test_zero_residuals_rejected():
    with pytest.raises(DataError):
        detect_variance([0.0] * 50, DetectionParams())


def test_rssi_trace_marks_change_points():
    rng = np.random.default_rng(8)
    residuals = rng.standard_normal(100)
    residuals[50:] *= 3.0
    res = detect_variance(residuals, DetectionParams())
    assert len(res.rssi) == 100
    nonzero = (np.nonzero(res.rssi)[0] + 1).tolist()
    assert nonzero == [c.index for c in res.change_points]


# ---------------------------------------------------------------------------
# Invariances


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sign_flip_invariance(seed):
    rng = np.random.default_rng(seed)
    residuals = rng.standard_normal(90)
    residuals[45:] *= 2.5
    base = detect_variance(residuals, DetectionParams())
    flipped = detect_variance(-residuals, DetectionParams())
    assert flipped.regimes == base.regimes
    assert flipped.change_points == base.change_points
    assert np.array_equal(flipped.rssi, base.rssi)
    assert np.array_equal(flipped.normalized.values, -base.normalized.values)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(0.01, 50.0),
)
@settings(max_examples=25, deadline=None)
def test_scale_equivariance(seed, scale):
    rng = np.random.default_rng(seed)
    residuals = rng.standard_normal(90)
    residuals[45:] *= 2.5
    base = detect_variance(residuals, DetectionParams())
    scaled = detect_variance(residuals * scale, DetectionParams())
    assert [c.index for c in scaled.change_points] == [c.index for c in base.change_points]
    for a, b in zip(scaled.regimes, base.regimes):
        assert (a.start, a.end) == (b.start, b.end)
        assert a.value == pytest.approx(b.value * scale * scale, rel=1e-9)
    # The normalized output is scale-free.
    assert np.allclose(scaled.normalized.values, base.normalized.values, atol=1e-9)


@pytest.mark.parametrize(
    "seed",
    [13174850015072765270, 15081874650910574467, 15092510578811479647],
)
def test_normalization_idempotent_without_borderline_candidates(seed):
    """Re-running the detector on its own normalized output finds nothing
    when the input produced a clean single confirmed shift. The three seeds
    are frozen realizations verified to have no borderline candidates."""
    residuals = np.random.default_rng(seed).standard_normal(100)
    residuals[50:] *= 3.0
    first = detect_variance(residuals, DetectionParams())
    assert [c.index for c in first.change_points if not c.provisional] == [51]
    second = detect_variance(np.asarray(first.normalized.values), DetectionParams())
    assert [c for c in second.change_points if not c.provisional] == []
