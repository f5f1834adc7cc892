"""Streaming monitors: single-point advance equals batch detection."""

import copy
import inspect
import pickle
import tracemalloc
from array import array
from dataclasses import FrozenInstanceError, asdict, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srsd import (
    DataError,
    DetectionParams,
    MonitorState,
    ParameterError,
    StepStatus,
    TimeSeries,
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
from srsd import _engine


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


MONITORS = {
    "mean": (init_mean_monitor, monitor_mean),
    "variance": (init_variance_monitor, monitor_variance),
}


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


@pytest.mark.parametrize("kind", MONITORS)
def test_step_statuses_are_the_public_dataclass(kind):
    """A step's status is indistinguishable from one built through StepStatus(...)."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal(60)
    if kind == "mean":
        values[30:] += 2.0
    else:
        values[30:] *= 3.0
    stream = stream_mean if kind == "mean" else stream_variance
    _, statuses = stream(values, DetectionParams(p=0.05, l=20))
    assert {s.state for s in statuses} == {"stable", "candidate", "confirmed"}
    for status in statuses:
        built = StepStatus(
            status.state, status.candidate_index, status.index_value, status.change_point
        )
        assert type(status) is StepStatus and is_dataclass(status)
        assert status == built and hash(status) == hash(built)
        assert repr(status) == repr(built)
        assert asdict(status) == asdict(built)
        assert list(vars(status).items()) == list(vars(built).items())
        assert pickle.loads(pickle.dumps(status)) == built
        with pytest.raises(FrozenInstanceError):
            status.index_value = 0.0
        with pytest.raises(FrozenInstanceError):
            del status.state
        assert StepStatus(
            state=status.state,
            candidate_index=status.candidate_index,
            index_value=status.index_value,
            change_point=status.change_point,
        ) == status
        assert copy.copy(status) == status and copy.deepcopy(status) == status
        moved = replace(status, index_value=-1.0)
        assert type(moved) is StepStatus and moved.index_value == -1.0
        assert (moved.state, moved.candidate_index, moved.change_point) == (
            status.state, status.candidate_index, status.change_point
        )
        match status:
            case StepStatus("candidate", index, value, None):
                assert (index, value) == (status.candidate_index, status.index_value)
            case StepStatus("confirmed", None, None, change_point):
                assert change_point == status.change_point
            case StepStatus("stable", None, None, None):
                pass
            case _:
                pytest.fail(f"unmatched status {status!r}")
    parameters = inspect.signature(StepStatus).parameters
    assert list(parameters) == ["state", "candidate_index", "index_value", "change_point"]
    assert parameters["state"].default is inspect.Parameter.empty
    assert [parameters[name].default for name in list(parameters)[1:]] == [None, None, None]
    assert StepStatus("stable") == StepStatus(state="stable") == StepStatus("stable", None)


def test_a_shift_index_back_at_exactly_zero_fails_the_test():
    """A zero shift index has lost its sign: the candidate folds back at once."""
    params = DetectionParams(l=5)
    state = init_mean_monitor([0.0] * 5, params, avg_var=1.0)
    hi = state.threshold  # the upper critical level around a zero mean
    v1 = hi + 0.5
    v2 = hi - (v1 - hi)
    assert (v1 - hi) + (v2 - hi) == 0.0
    _, status = monitor_mean(state, v1, params)
    assert (status.state, status.candidate_index) == ("candidate", 6)
    assert status.index_value > 0.0
    _, status = monitor_mean(state, v2, params)
    assert status.state == "stable"
    assert state.pending is None and state.change_points == []


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
    params = DetectionParams(p=0.05, l=20)
    with pytest.raises(DataError, match="series of length 5 is shorter than l=20"):
        init_mean_monitor([1.0] * 5, params)
    with pytest.raises(DataError, match="series of length 5 is shorter than l=20"):
        init_mean_monitor([1.0] * 5, params, avg_var=1.0)
    with pytest.raises(DataError, match="series of length 6 is shorter than l=20"):
        init_variance_monitor([1.0, -1.0] * 3, params)


def test_monitor_rejects_foreign_state():
    rng = np.random.default_rng(0)
    params = DetectionParams(p=0.05, l=20)
    mean_state = init_mean_monitor(rng.standard_normal(30), params)
    var_state = init_variance_monitor(rng.standard_normal(30), params)
    with pytest.raises(ParameterError):
        monitor_variance(mean_state, 0.1, params)
    with pytest.raises(ParameterError):
        monitor_mean(var_state, 0.1, params)
    with pytest.raises(ParameterError, match="belongs to a 'variance' detector"):
        finalize_mean(var_state.raw, var_state)


@pytest.mark.parametrize("kind", ["mean", "variance"])
def test_a_valid_call_does_not_vouch_for_other_params(kind):
    rng = np.random.default_rng(0)
    params = DetectionParams(p=0.05, l=20)
    init, step = MONITORS[kind]
    state = init(rng.standard_normal(30), params)
    step(state, 0.1, params)
    with pytest.raises(ParameterError, match="does not match monitor l=20"):
        step(state, 0.1, DetectionParams(p=0.05, l=25))
    with pytest.raises(ParameterError, match="p must lie strictly between 0 and 1"):
        step(state, 0.1, DetectionParams(p=1.5, l=20))
    with pytest.raises(ParameterError, match="l must be an integer"):
        step(state, 0.1, DetectionParams(p=0.05, l=20.0))
    assert len(state.raw) == 31
    # The rejected objects changed nothing: the accepted one and an equal copy still pass.
    step(state, 0.1, params)
    step(state, 0.1, DetectionParams(p=0.05, l=20))
    assert len(state.raw) == 33


def test_monitor_rejects_foreign_state_after_a_valid_call():
    rng = np.random.default_rng(0)
    params = DetectionParams(p=0.05, l=20)
    mean_state = init_mean_monitor(rng.standard_normal(30), params)
    var_state = init_variance_monitor(rng.standard_normal(30), params)
    monitor_mean(mean_state, 0.1, params)
    monitor_variance(var_state, 0.1, params)
    with pytest.raises(ParameterError, match="'mean' detector"):
        monitor_variance(mean_state, 0.1, params)
    with pytest.raises(ParameterError, match="'variance' detector"):
        monitor_mean(var_state, 0.1, params)


def _batch_status(result, t, l):
    """(state, candidate index, index value) that detect_* on the first t points implies."""
    provisional = [cp for cp in result.change_points if cp.provisional]
    if provisional:
        return "candidate", provisional[0].index, provisional[0].index_value
    # A change-point is confirmed by the l-th point of its test.
    last = result.change_points[-1] if result.change_points else None
    if last is not None and last.index + l - 1 == t:
        return "confirmed", last.index, last.index_value
    return "stable", None, None


@pytest.mark.parametrize("kind", ["mean", "variance"])
def test_every_call_matches_detect_on_the_prefix_including_replays(kind):
    """Each call's status is what detect_* on the points fed so far implies,
    also when the call fails a test and rescans several points."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal(120)
    params = DetectionParams(p=0.5, l=8)
    init, step = MONITORS[kind]
    detect = detect_mean if kind == "mean" else detect_variance
    replays = reopened = 0
    for t in range(params.l + 1, len(values) + 1):
        prefix = values[:t]
        if kind == "mean":
            # detect_mean calibrates on the whole prefix; so does this monitor.
            state = init(values[: params.l], params, avg_var=running_avg_variance(prefix, params.l))
        else:
            state = init(values[: params.l], params)
        for v in prefix[params.l : -1]:
            step(state, float(v), params)
        before = state.pending
        _, status = step(state, float(prefix[-1]), params)
        if before is not None and len(before.values) >= 4 and state.pending is not before:
            replays += 1
            reopened += status.state == "candidate"
        if status.state == "confirmed":
            got = ("confirmed", status.change_point.index, status.change_point.index_value)
        else:
            got = (status.state, status.candidate_index, status.index_value)
        assert got == _batch_status(detect(prefix, params), t, params.l), t
    assert replays and reopened


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "abc", None])
@pytest.mark.parametrize("kind", ["mean", "variance"])
def test_monitor_rejects_non_finite_observations_and_stays_usable(kind, bad):
    """A bad value fed mid-candidate raises and changes nothing."""
    rng = np.random.default_rng(3)
    params = DetectionParams(p=0.5, l=8)
    init, step = MONITORS[kind]
    state = init(rng.standard_normal(params.l), params)
    while state.pending is None or len(state.pending.values) < 3:
        step(state, float(rng.standard_normal()), params)
    twin = copy.deepcopy(state)
    with pytest.raises(DataError, match=f"observation {bad!r} at position {len(state.raw) + 1}"):
        step(state, bad, params)
    assert state == twin
    for v in (0.3, -2.5, 4.0, 0.1):
        assert step(state, v, params)[1] == step(twin, v, params)[1]
    assert state == twin


def test_variance_monitor_rejects_a_value_whose_square_overflows():
    """1e200 is finite but squares to inf: the step names it and the bound, and stores nothing."""
    params = DetectionParams()
    state = init_variance_monitor(np.random.default_rng(0).standard_normal(200), params)
    twin = copy.deepcopy(state)
    for big in (1e200, -(2.0**512)):
        with pytest.raises(DataError) as info:
            monitor_variance(state, big, params)
        assert str(info.value) == (
            f"observation {big!r} at position 201 overflows when squared;"
            " |x| must lie below 1.34e+154"
        )
        assert state == twin
    largest = float(np.nextafter(2.0**512, 0.0))  # squares to the largest finite float or below
    assert monitor_variance(state, largest, params)[1].state == "candidate"


def test_monitor_step_on_a_zero_index_scale_raises_and_changes_nothing():
    """The degenerate-series error leaves raw as it was, so positions stay right."""
    params = DetectionParams(l=5)
    state = init_mean_monitor([1.0] * 5, params)
    assert state.index_scale == 0.0
    twin = copy.deepcopy(state)
    with pytest.raises(DataError, match="shift index scale is zero"):
        monitor_mean(state, 2.0, params)
    assert state == twin
    with pytest.raises(DataError, match="at position 6 is not finite"):
        monitor_mean(state, float("nan"), params)


@pytest.mark.parametrize("kind", ["mean", "variance"])
def test_monitor_state_grows_only_by_the_fed_points_and_change_points(kind):
    """Memory per point is one raw value; the window and a candidate stay within l."""
    params = DetectionParams(p=0.5, l=10)
    init, step = MONITORS[kind]

    def fed(n):
        values = np.random.default_rng(5).standard_normal(n)
        state = init(values[: params.l], params)
        for v in values[params.l :]:
            step(state, float(v), params)
            assert state.pending is None or len(state.pending.values) <= params.l
            assert len(state.window) == params.l
        return state

    small, large = fed(2000), fed(4000)
    grown = {
        f.name
        for f in fields(MonitorState)
        if isinstance(getattr(small, f.name), (list, array))
        and len(getattr(large, f.name)) > len(getattr(small, f.name))
    }
    assert grown == {"raw", "change_points"}


def _retained_bytes(build):
    """Bytes that build() allocates and that its result still holds once it returns."""
    tracemalloc.start()
    try:
        kept = build()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return size


@pytest.mark.parametrize("kind", ["mean", "variance"])
def test_a_monitor_keeps_8_bytes_per_fed_point_whoever_owns_the_float(kind):
    """Each point parsed from text is a fresh float; the state keeps its value, not the object."""
    params, n = DetectionParams(p=0.05, l=20), 50_000
    init, step = MONITORS[kind]
    values = np.random.default_rng(11).standard_normal(params.l + n)
    texts = [repr(v) for v in values[params.l :].tolist()]
    state = init(values[: params.l], params)

    def feed():
        for text in texts:
            step(state, float(text), params)
        return state

    assert _retained_bytes(feed) / n < 12
    assert len(state.raw) == params.l + n


def test_a_batch_initialised_state_keeps_8_bytes_per_point():
    """init_mean_monitor on a long series keeps the points' values, not a float object each."""
    series = TimeSeries(np.random.default_rng(12).standard_normal(200_000))
    assert _retained_bytes(lambda: init_mean_monitor(series, DetectionParams())) / len(series) < 12


def test_init_state_fills_raw_with_one_copy_of_the_history(monkeypatch):
    """Beside the scan, seeding a monitor allocates the history's points once, as the raw array,
    and leaves nothing behind on the history's values."""
    monkeypatch.setattr(_engine, "_scan", lambda *args: None)
    monkeypatch.setattr(_engine, "_jump_scan", lambda *args: None)
    series = TimeSeries(np.random.default_rng(14).standard_normal(100_000))
    histories = [TimeSeries(np.arange(30.0)) for _ in range(100)]
    tracemalloc.start()
    try:
        state = _engine.init_state(_engine.MEAN, series, 20, 1.0, 1.0)
        before, peak = tracemalloc.get_traced_memory()
        for history in histories:
            _engine.init_state(_engine.MEAN, history, 20, 1.0, 1.0)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert state.raw.tobytes() == series.values.tobytes()
    assert peak < 1.2 * series.values.nbytes
    assert left < 36 * len(histories)  # an exported array's buffer info takes 72 bytes


def test_finalize_holds_each_series_about_once():
    """finalize_variance holds the input's copy and one more n-point array at a time, not three."""
    params, n = DetectionParams(p=0.05, l=20), 200_000
    values = np.random.default_rng(13).standard_normal(n)
    state = init_variance_monitor(values[: params.l], params)
    for v in values[params.l :].tolist():
        monitor_variance(state, v, params)
    tracemalloc.start()
    try:
        result = finalize_variance(values, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == detect_variance(values, params)
    assert peak < 3 * n * 8


@pytest.mark.parametrize("kind", ["mean", "variance"])
def test_a_monitor_keeps_streaming_after_finalize(kind):
    """finalize reads raw through a view that dies with the call: raw can still grow afterwards."""
    params = DetectionParams(p=0.05, l=20)
    values = np.random.default_rng(14).standard_normal(300)
    values[150:] = values[150:] * 2.5 + 1.5
    if kind == "mean":  # calibrated on the whole series, as detect_mean is
        state = init_mean_monitor(values[:20], params, avg_var=running_avg_variance(values, 20))
        step, finalize, detect = monitor_mean, finalize_mean, detect_mean
    else:
        state = init_variance_monitor(values[:20], params)
        step, finalize, detect = monitor_variance, finalize_variance, detect_variance
    for v in values[20:200].tolist():
        step(state, v, params)
    finalize(values[:200], state)
    other = values[:200].copy()
    other[99] += 1.0
    with pytest.raises(DataError, match="position 100") as failed:
        finalize(other, state)
    for v in values[200:].tolist():  # `failed` keeps the raising call's frames alive meanwhile
        step(state, v, params)
    assert finalize(values, state) == detect(values, params)
