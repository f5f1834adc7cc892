"""Core value types, parameter validation, and partition invariants."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srsd import (
    ChangePoint,
    DataError,
    DetectionParams,
    ParameterError,
    Regime,
    TimeSeries,
    detect_mean,
    detect_variance,
    finalize_mean,
    finalize_variance,
    init_mean_monitor,
    init_variance_monitor,
    monitor_mean,
    monitor_variance,
    run_srsd,
    running_avg_variance,
)
from srsd._engine import ShiftResult
from srsd.core import _partition
from srsd.cli import result_from_json, result_to_json


# ---------------------------------------------------------------------------
# TimeSeries


def test_time_series_arrays_are_immutable():
    ts = TimeSeries([1.0, 2.0], labels=[3, 4])
    assert not ts.values.flags.writeable
    assert not ts.labels.flags.writeable
    with pytest.raises(ValueError):
        ts.values[0] = 9.0


def test_time_series_equality_includes_labels_and_name():
    a = TimeSeries([1.0, 2.0], labels=[3, 4], name="a")
    assert a == TimeSeries([1.0, 2.0], labels=[3, 4], name="a")
    assert a != TimeSeries([1.0, 2.0], labels=[3, 5], name="a")
    assert a != TimeSeries([1.0, 2.0], labels=[3, 4], name="b")
    assert a != TimeSeries([1.0, 2.0], name="a")
    assert TimeSeries([1.0]) != 1.0


def test_time_series_repr_gives_length_and_name():
    assert repr(TimeSeries([1.0, 2.0])) == "TimeSeries(n=2)"
    assert repr(TimeSeries([1.0, 2.0], name="x")) == "TimeSeries(n=2, name='x')"


def test_time_series_rejects_empty_input():
    with pytest.raises(DataError):
        TimeSeries([])


def test_time_series_rejects_a_two_dimensional_input():
    with pytest.raises(DataError, match="one-dimensional"):
        TimeSeries([[1.0, 2.0]])


def test_time_series_rejects_non_finite_values():
    with pytest.raises(DataError, match="position 2"):
        TimeSeries([1.0, np.nan])
    with pytest.raises(DataError):
        TimeSeries([np.inf, 1.0])
    with pytest.raises(DataError, match="^series values: 'abc' at position 2 is not a number$"):
        TimeSeries([1.0, "abc"])
    for values, position in (([1.0, object()], 2), (object(), 1)):  # not even a sequence
        message = f"^series values: <object object at .*> at position {position} is not a number$"
        with pytest.raises(DataError, match=message):
            TimeSeries(values)
    with pytest.raises(DataError, match="^series labels: 'a' at position 1 is not a number$"):
        TimeSeries([1.0, 2.0], labels=["a", "b"])
    assert TimeSeries(["1.5"]).values.tolist() == [1.5]  # float() reads a numeric string


def test_time_series_label_validation():
    with pytest.raises(DataError):
        TimeSeries([1.0, 2.0], labels=[1])
    with pytest.raises(DataError):
        TimeSeries([1.0, 2.0], labels=[2, 1])
    with pytest.raises(DataError):
        TimeSeries([1.0, 2.0], labels=[1, 1])
    message = r"^series labels must be strictly increasing: 3.0 at position 4 follows 5.0$"
    with pytest.raises(DataError, match=message):
        TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0], labels=[1, 2, 5, 3, 4])


def test_time_series_length():
    assert len(TimeSeries([5.0, 6.0, 7.0])) == 3


# ---------------------------------------------------------------------------
# DetectionParams


def test_default_params_are_valid():
    p = DetectionParams()
    assert p.p == 0.05 and p.l == 20 and p.prewhiten == "none"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": 0.0},
        {"p": 1.0},
        {"p": -0.1},
        {"l": 2},
        {"prewhiten": "mpk"},  # m missing
        {"prewhiten": "mpk", "m": 4},
        {"prewhiten": "ip4", "m": 25},  # m >= l
        {"prewhiten": "weird", "m": 10},
        {"l": 20.0},  # l and m must be integers, not floats or bools
        {"l": True},
        {"p": math.nan},
        {"m": True},
        {"p": True},  # p must be a real number, not a bool
        {"p": np.True_},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        DetectionParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": np.float32(0.05)},
        {"p": np.float64(0.1), "l": np.int64(20)},
        {"l": np.int32(15), "prewhiten": "ip4", "m": np.int64(10)},
        {"p": 1 / 4, "l": 20, "m": 10},
    ],
)
def test_numpy_scalar_params_are_stored_as_python_numbers(kwargs):
    params = DetectionParams(**kwargs)
    assert type(params.p) is float and type(params.l) is int
    assert params.m is None or type(params.m) is int
    for name, value in kwargs.items():
        assert getattr(params, name) == value


def test_replace_checks_the_new_params():
    with pytest.raises(ParameterError, match="l must be at least 3"):
        dataclasses.replace(DetectionParams(), l=2)


def test_m_without_prewhitening_is_allowed():
    DetectionParams(m=10)


def test_prewhitening_m_bounds():
    DetectionParams(prewhiten="mpk", m=5)
    DetectionParams(prewhiten="ip4", m=19)


# ---------------------------------------------------------------------------
# Regime


def test_regime_length_is_inclusive():
    assert Regime(start=3, end=7, kind="mean", value=1.5).length == 5


def test_regime_rejects_an_end_before_its_start():
    with pytest.raises(DataError, match=r"invalid regime span \[3, 2\]"):
        Regime(start=3, end=2, kind="mean", value=0.0)


# ---------------------------------------------------------------------------
# The partition rule that every regime kind takes its spans and tests from


def partition_with_log(n, change_points):
    """_partition with a recording test that returns 0.5 and mean-kind regimes."""
    calls = []

    def test(a, s, e):
        calls.append((a, s, e))
        return 0.5

    regimes, cps = _partition(n, change_points, lambda s, e, p: Regime(s, e, "mean", 0.0, p), test)
    return regimes, cps, calls


def test_partition_tests_a_cut_only_with_four_points_on_each_side():
    provisional = ChangePoint(10, 3.0, provisional=True)
    cuts = [ChangePoint(4, 1.0), ChangePoint(8, -2.0), provisional]
    regimes, cps, calls = partition_with_log(11, cuts)
    # [1, 3] holds 3 points, so the cut at 4 is not tested; [4, 7] and [8, 11] hold 4 each.
    assert calls == [(4, 8, 11)]
    assert [(r.start, r.end) for r in regimes] == [(1, 3), (4, 7), (8, 11)]
    assert cps[0] == ChangePoint(4, 1.0, None) and regimes[1].shift_p_value is None
    assert cps[1] == ChangePoint(8, -2.0, 0.5) and regimes[2].shift_p_value == 0.5
    assert regimes[0].shift_p_value is None
    # The provisional change-point comes last, untested, and splits no regime.
    assert cps[2] is provisional and len(cps) == 3


def test_partition_does_not_test_a_cut_with_three_points_on_its_right():
    regimes, cps, calls = partition_with_log(10, [ChangePoint(8, 1.0)])
    assert calls == [] and cps == [ChangePoint(8, 1.0, None)]
    assert [(r.start, r.end, r.shift_p_value) for r in regimes] == [(1, 7, None), (8, 10, None)]


# ---------------------------------------------------------------------------
# ShiftResult: three stored fields, the trace derived on read


def literal_trace(res):
    trace = np.zeros(len(res.series))
    for cp in res.change_points:
        trace[cp.index - 1] = cp.index_value
    return trace


def shifted_pair():
    """x and v each end in a change-point still under test, after a confirmed one."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(80)
    x[30:] += 3.0
    x[-6:] += 6.0
    v = rng.standard_normal(80)
    v[40:] *= 4.0
    v[-5:] *= 6.0
    return x, v


def assert_trace_is_literal(res):
    expected = literal_trace(res).tobytes()
    assert res.trace.tobytes() == expected
    assert res.rsi.tobytes() == res.rssi.tobytes() == expected


def test_shift_result_stores_only_its_three_inputs():
    assert [f.name for f in dataclasses.fields(ShiftResult)] == ["regimes", "change_points", "series"]


def test_shift_result_trace_is_the_literal_one_on_batch_and_finalized_results():
    x, v = shifted_pair()
    params = DetectionParams(p=0.05, l=20)
    mean_state = init_mean_monitor(x[:20], params, avg_var=running_avg_variance(x, 20))
    var_state = init_variance_monitor(v[:20], params)
    for a, b in zip(x[20:], v[20:]):
        mean_state, _ = monitor_mean(mean_state, float(a), params)
        var_state, _ = monitor_variance(var_state, float(b), params)
    for res in (
        detect_mean(x, params),
        detect_variance(v, params),
        finalize_mean(x, mean_state),
        finalize_variance(v, var_state),
    ):
        assert res.change_points[-1].provisional and not res.change_points[0].provisional
        assert_trace_is_literal(res)
        assert res.trace is not res.trace  # built anew on each read


def test_shift_result_trace_survives_the_json_round_trip():
    x, v = shifted_pair()
    rebuilt = result_from_json(result_to_json(run_srsd(x, v)))
    channels = (rebuilt.correlation.sum_channel, rebuilt.correlation.diff_channel)
    results = [*rebuilt.mean_results, *rebuilt.variance_results, *channels]
    assert any(res.change_points and res.change_points[-1].provisional for res in results)
    for res in results:
        assert_trace_is_literal(res)


def test_a_series_from_a_list_is_copied_once():
    """TimeSeries turns a list of floats into its array in one allocation, not two."""
    values = np.random.default_rng(1).standard_normal(100_000).tolist()
    tracemalloc.start()
    try:
        series = TimeSeries(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.values.tolist() == values
    assert peak < 1.2 * 8 * len(values)


def test_shift_result_construction_allocates_no_trace():
    n = 10**6
    series = TimeSeries(np.zeros(n))
    regimes = [Regime(start=1, end=n, kind="mean", value=0.0)]
    tracemalloc.start()
    try:
        res = ShiftResult(regimes, [ChangePoint(index=n, index_value=1.0)], series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert res.trace[-1] == 1.0


def test_a_batch_scan_allocates_blocks_not_windows():
    """A 200 000-point scan at l = 80 holds a few blocks of numpy work, not n * l tests.

    Beyond its inputs, the state's array of raw points (one copy of the
    series) and, for variances, the squares, its peak is a fixed bound; an
    unblocked opener-test matrix would take n * l * 8 bytes, about 128 MB.
    """
    series = TimeSeries(np.random.default_rng(0).standard_normal(200_000))
    params = DetectionParams(l=80)
    raw = series.values.nbytes
    tracemalloc.start()
    try:
        for init, squares in (
            (lambda: init_mean_monitor(series, params, avg_var=1.0), 0),
            (lambda: init_variance_monitor(series, params), series.values.nbytes),
        ):
            tracemalloc.reset_peak()
            state = init()
            peak = tracemalloc.get_traced_memory()[1]
            del state
            assert peak - raw - squares < 2 * 2**20
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Partition invariants of detection output


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=25, max_value=160),
    shift=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_mean_regimes_partition_the_series(seed, n, shift):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    values[n // 2 :] += shift
    res = detect_mean(values, DetectionParams(p=0.05, l=20))

    # Contiguous cover of [1, n]
    assert res.regimes[0].start == 1
    assert res.regimes[-1].end == n
    for prev, cur in zip(res.regimes, res.regimes[1:]):
        assert cur.start == prev.end + 1
    assert sum(r.length for r in res.regimes) == n

    # Confirmed change-points are exactly the non-initial regime starts;
    # provisional ones never open a regime.
    confirmed = [c.index for c in res.change_points if not c.provisional]
    assert confirmed == [r.start for r in res.regimes[1:]]
    assert sorted(confirmed) == confirmed
    for cp in res.change_points:
        if cp.provisional:
            assert cp.p_value is None
            assert cp.index not in confirmed

    # Residuals are the input minus the stepwise regime means.
    stepwise = np.repeat([r.value for r in res.regimes], [r.length for r in res.regimes])
    assert np.allclose(res.residuals.values, values - stepwise, atol=1e-12)

    # Residuals are centered within every regime.
    for regime in res.regimes:
        seg = res.residuals.values[regime.start - 1 : regime.end]
        scale = max(1.0, abs(regime.value))
        assert abs(seg.mean()) <= 1e-9 * scale


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=25, max_value=120),
    decimals=st.sampled_from([None, 0, 1]),
    offset=st.sampled_from([0.0, 1e12, -1e12, 3.5]),
    stretch=st.tuples(st.integers(0, 60), st.integers(0, 40), st.floats(-5.0, 5.0)),
)
@settings(max_examples=80, deadline=None)
def test_regime_values_are_the_slice_means(seed, n, decimals, offset, stretch):
    """Each regime's value has the bits of ndarray.mean over its scanned values.

    Rounding gives ties, the stretch a constant run and the offset a large
    common level, so the summation order of the mean matters.
    """
    rng = np.random.default_rng(seed)
    values = 2.0 * rng.standard_normal(n)
    values[n // 2 :] *= 3.0
    if decimals is not None:
        values = np.round(values, decimals)
    start, length, level = stretch
    values[start : start + length] = level
    values += offset
    params = DetectionParams(p=0.1, l=10)
    for detect, scanned in ((detect_mean, values), (detect_variance, values * values)):
        try:
            res = detect(values, params)
        except DataError:  # a regime of zero variance cannot be normalized
            continue
        for r in res.regimes:
            assert r.value.hex() == float(scanned[r.start - 1 : r.end].mean()).hex()
