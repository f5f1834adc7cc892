"""Streaming monitors: single-point advance equals batch detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srsd import (
    DataError,
    DetectionParams,
    ParameterError,
    detect_mean,
    detect_variance,
    finalize_mean,
    finalize_variance,
    init_mean_monitor,
    init_variance_monitor,
    monitor_mean,
    monitor_variance,
    running_avg_variance,
)


def stream_mean(values, params, warmup=None):
    """Feed values one at a time; mirror batch calibration by sharing the
    whole-series threshold variance."""
    warmup = warmup if warmup is not None else params.l
    state = init_mean_monitor(
        values[:warmup], params, avg_var=running_avg_variance(values, params.l)
    )
    statuses = []
    for v in values[warmup:]:
        state, status = monitor_mean(state, float(v), params)
        statuses.append(status)
    return state, statuses


def stream_variance(values, params, warmup=None):
    warmup = warmup if warmup is not None else params.l
    state = init_variance_monitor(values[:warmup], params)
    statuses = []
    for v in values[warmup:]:
        state, status = monitor_variance(state, float(v), params)
        statuses.append(status)
    return state, statuses


# ---------------------------------------------------------------------------
# Batch/stream equivalence


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    warmup=st.integers(min_value=20, max_value=45),
    plant=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_mean_stream_equals_batch(seed, warmup, plant):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(90)
    if plant:
        values[45:] += 1.4
    params = DetectionParams(p=0.05, l=20)
    state, _ = stream_mean(values, params, warmup)
    assert finalize_mean(values, state) == detect_mean(values, params)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    warmup=st.integers(min_value=20, max_value=45),
    plant=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_variance_stream_equals_batch(seed, warmup, plant):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(90)
    if plant:
        values[45:] *= 2.5
    params = DetectionParams(p=0.05, l=20)
    state, _ = stream_variance(values, params, warmup)
    assert finalize_variance(values, state) == detect_variance(values, params)


# ---------------------------------------------------------------------------
# Status lifecycle


def test_status_fields_follow_state():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(60)
    values[30:] += 2.0
    params = DetectionParams(p=0.05, l=20)
    _, statuses = stream_mean(values, params)
    seen = {s.state for s in statuses}
    assert seen == {"stable", "candidate", "confirmed"}

    last_candidate = None
    for pos, status in enumerate(statuses, start=params.l + 1):
        if status.state == "stable":
            assert status.candidate_index is None
            assert status.change_point is None
        elif status.state == "candidate":
            assert 1 <= status.candidate_index <= pos
            assert status.change_point is None
            last_candidate = status.candidate_index
        else:
            assert status.state == "confirmed"
            assert status.candidate_index is None
            assert status.change_point.index == last_candidate
            assert not status.change_point.provisional


def test_fixture_stream_confirms_first_mean_shift(canonical):
    x, _, expected = canonical
    params = DetectionParams(p=0.05, l=20)
    state, statuses = stream_mean(np.asarray(x.values), params)
    confirmed = [s.change_point.index for s in statuses if s.state == "confirmed"]
    assert confirmed[0] == expected["x_mean"][0]
    assert finalize_mean(x.values, state) == detect_mean(x.values, params)


def test_variance_stream_confirms_planted_shift():
    rng = np.random.default_rng(8)
    values = rng.standard_normal(100)
    values[50:] *= 3.0
    params = DetectionParams(p=0.05, l=20)
    _, statuses = stream_variance(values, params)
    confirmed = [s.change_point.index for s in statuses if s.state == "confirmed"]
    assert 51 in confirmed


# ---------------------------------------------------------------------------
# Error handling


def test_init_requires_full_window():
    with pytest.raises(DataError):
        init_mean_monitor([1.0] * 5, DetectionParams(p=0.05, l=20))
    with pytest.raises(DataError):
        init_variance_monitor([1.0, -1.0] * 3, DetectionParams(p=0.05, l=20))


def test_monitor_rejects_foreign_state():
    rng = np.random.default_rng(0)
    params = DetectionParams(p=0.05, l=20)
    mean_state = init_mean_monitor(rng.standard_normal(30), params)
    var_state = init_variance_monitor(rng.standard_normal(30), params)
    with pytest.raises(ParameterError):
        monitor_variance(mean_state, 0.1, params)
    with pytest.raises(ParameterError):
        monitor_mean(var_state, 0.1, params)


def test_monitor_rejects_mismatched_window():
    rng = np.random.default_rng(0)
    state = init_mean_monitor(rng.standard_normal(30), DetectionParams(p=0.05, l=20))
    with pytest.raises(ParameterError):
        monitor_mean(state, 0.1, DetectionParams(p=0.05, l=25))


def test_finalize_checks_series_length():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(40)
    params = DetectionParams(p=0.05, l=20)
    state, _ = stream_mean(values, params)
    with pytest.raises(DataError):
        finalize_mean(values[:-1], state)


def test_finalize_rejects_values_other_than_the_monitored_ones():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(80)
    params = DetectionParams(p=0.05, l=20)
    other = values.copy()
    other[56] += 1.0
    mean_state, _ = stream_mean(values, params)
    variance_state, _ = stream_variance(values, params)
    with pytest.raises(DataError, match="position 57"):
        finalize_mean(other, mean_state)
    with pytest.raises(DataError, match="position 57"):
        finalize_variance(other, variance_state)
    with pytest.raises(DataError, match="position 1"):
        finalize_mean(np.full(80, 5.0), mean_state)
