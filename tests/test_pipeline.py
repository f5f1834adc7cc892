"""Three-step pipeline: channel construction, merging, and orchestration."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srsd.pipeline
from srsd import (
    ChangePoint,
    DataError,
    DetectionParams,
    ParameterError,
    RegimeSpec,
    TimeSeries,
    canonical_spec,
    derive_seeds,
    detect_correlation,
    generate_pair,
    pearson_r,
    run_srsd,
    step_skipping_mode,
    sum_diff_channels,
)


def clean_spec(n, seed, rho_first=-0.6, rho_second=0.6):
    return RegimeSpec(
        n=n,
        correlation=((1, rho_first), (n // 2 + 1, rho_second)),
        x_mean=((1, 0.0),),
        y_mean=((1, 0.0),),
        x_variance=((1, 1.0),),
        y_variance=((1, 1.0),),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Sum/difference channels


def test_channels_perfect_correlation():
    x = np.array([1.0, -1.0, 2.0, 0.0, -2.0, 1.5])
    s, d = sum_diff_channels(x, x)
    assert np.var(s.values) == pytest.approx(4 * np.var(x), rel=1e-12)
    assert np.all(d.values == 0.0)


def test_channels_perfect_anticorrelation():
    x = np.array([1.0, -1.0, 2.0, 0.0, -2.0, 1.5])
    s, d = sum_diff_channels(x, -x)
    assert np.all(s.values == 0.0)
    assert np.var(d.values) == pytest.approx(4 * np.var(x), rel=1e-12)


def test_channels_independent_unit_variance():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(20000)
    y = rng.standard_normal(20000)
    s, d = sum_diff_channels(x, y)
    tol = 3 * 2.0 * np.sqrt(2 / 20000)
    assert abs(np.var(s.values, ddof=1) - 2.0) <= tol
    assert abs(np.var(d.values, ddof=1) - 2.0) <= tol


def test_channels_require_equal_lengths():
    with pytest.raises(DataError):
        sum_diff_channels([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "call",
    [run_srsd, step_skipping_mode, detect_correlation, sum_diff_channels],
    ids=lambda f: f.__name__,
)
def test_pair_with_different_labels_is_rejected(call):
    x, y, _ = srsd.canonical_fixture()
    labels = x.labels.copy()
    labels[40:] += 0.5
    y = TimeSeries(y.values, labels=labels, name="y")
    with pytest.raises(DataError, match=r"^series labels differ at position 41: 41\.0 vs 41\.5$"):
        call(x, y)


def test_channels_keep_the_labels_of_the_one_labelled_series():
    x, y, _ = srsd.canonical_fixture()
    for a, b in ((x, y.values), (x.values, y)):
        s, d = sum_diff_channels(a, b)
        assert np.array_equal(s.labels, x.labels) and np.array_equal(d.labels, x.labels)


def test_channel_overflow_is_a_data_error_at_its_position():
    """Channels of finite inputs can overflow; the sum's inf is reported like bad input."""
    message = r"^series values contains a non-finite value at position 1$"
    with np.errstate(over="ignore"), pytest.raises(DataError, match=message):
        sum_diff_channels([1e308, 1.0], [1e308, 1.0])
    x = np.ones(70)
    x[0] = 1e308
    with np.errstate(over="ignore"), pytest.raises(DataError, match=message):
        step_skipping_mode(x, x.copy(), skip=("mean", "variance"))


@pytest.mark.parametrize("prewhiten", ["none", "ip4"])
def test_derived_series_are_checked_read_only_and_share_the_input_labels(canonical, prewhiten):
    x, y, _ = canonical
    params = DetectionParams(p=0.05, l=20, prewhiten=prewhiten, m=None if prewhiten == "none" else 10)
    res = run_srsd(x, y, params)
    labels = x.labels if prewhiten == "none" else x.labels[1:]
    derived = [res.x, res.y]
    derived += [r.series for r in (*res.mean_results, *res.variance_results)]
    derived += [res.correlation.sum_channel.series, res.correlation.diff_channel.series]
    derived += sum_diff_channels(*(r.series for r in res.variance_results))
    for s in derived:
        assert s == TimeSeries(s.values, labels=s.labels, name=s.name)
        assert s.values.flags.writeable is False
        assert s.labels.flags.writeable is False
        assert np.array_equal(s.labels, labels)


def test_channel_variances_encode_segment_correlation():
    """On unit-variance segments, var(sum)/2 - 1 and 1 - var(diff)/2 both
    recover the segment's Pearson r. Long segments keep the sampling error
    of the three variance terms below the 5e-2 budget."""
    for seed in derive_seeds(9191, 4):
        x, y = generate_pair(clean_spec(100000, int(seed)))
        s, d = sum_diff_channels(x, y)
        for lo, hi in ((0, 50000), (50000, 100000)):
            seg = slice(lo, hi)
            r = pearson_r(x.values[seg], y.values[seg])
            assert np.var(s.values[seg]) / 2 - 1 == pytest.approx(r, abs=5e-2)
            assert 1 - np.var(d.values[seg]) / 2 == pytest.approx(r, abs=5e-2)


# ---------------------------------------------------------------------------
# Correlation detection


def test_fixture_correlation_regimes(canonical_result):
    res = canonical_result
    confirmed = [c for c in res.correlation_change_points if not c.provisional]
    assert [c.index for c in confirmed] == [36]
    assert confirmed[0].p_value < 1e-3

    regimes = res.correlation_regimes
    assert [(r.start, r.end) for r in regimes] == [(1, 35), (36, 70)]
    assert regimes[0].ci_low < -0.6 < regimes[0].ci_high
    assert regimes[1].ci_low < 0.6 < regimes[1].ci_high
    assert regimes[0].value < 0 < regimes[1].value


def test_regime_values_are_segment_correlations(canonical_result):
    res = canonical_result
    xs = np.asarray(res.variance_results[0].normalized.values)
    ys = np.asarray(res.variance_results[1].normalized.values)
    for regime in res.correlation_regimes:
        seg = slice(regime.start - 1, regime.end)
        assert regime.value == pytest.approx(pearson_r(xs[seg], ys[seg]), abs=1e-9)


def test_degenerate_equal_series():
    t = np.linspace(0.0, 1.0, 40) ** 2 + np.sin(np.arange(40))
    res = detect_correlation(t, t)
    assert len(res.regimes) == 1
    assert res.regimes[0].value == 1.0
    assert res.change_points == []


def test_degenerate_opposite_series():
    t = np.linspace(0.0, 1.0, 40) ** 2 + np.sin(np.arange(40))
    res = detect_correlation(t, -t)
    assert len(res.regimes) == 1
    assert res.regimes[0].value == -1.0
    assert res.change_points == []


def test_clean_correlation_shift_localization_band():
    """Committed band for the clean rho -0.6 -> +0.6 switch at 36 (n=70):
    an independent seeded run localized within +-2 in 124/200 draws; the
    replay below must stay within +-3 binomial standard errors. (Scanning
    every split with a two-sample Fisher-z contrast tops out near 72% on
    this scenario, so rates in the 60s sit close to the ceiling.)"""
    reference = 124 / 200
    half_width = 3 * np.sqrt(reference * (1 - reference) / 200)
    ok = 0
    for seed in derive_seeds(3637, 200):
        x, y = generate_pair(clean_spec(70, int(seed)))
        res = run_srsd(x, y)
        ok += any(
            abs(c.index - 36) <= 2 for c in res.correlation_change_points if not c.provisional
        )
    assert abs(ok / 200 - reference) <= half_width


# ---------------------------------------------------------------------------
# Audit list


def test_audit_covers_every_channel_change_point(canonical_result):
    res = canonical_result
    audit_keys = [(c.source, c.index) for c in res.candidates]
    channel_keys = [("sum", c.index) for c in res.correlation.sum_channel.change_points]
    channel_keys += [("diff", c.index) for c in res.correlation.diff_channel.change_points]
    assert sorted(audit_keys) == sorted(channel_keys)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_audit_completeness_property(seed):
    x, y = generate_pair(clean_spec(70, seed))
    res = run_srsd(x, y)
    audit_keys = [(c.source, c.index) for c in res.candidates]
    channel_keys = [("sum", c.index) for c in res.correlation.sum_channel.change_points]
    channel_keys += [("diff", c.index) for c in res.correlation.diff_channel.change_points]
    assert sorted(audit_keys) == sorted(channel_keys)

    # Every accepted confirmed candidate index opens exactly one regime.
    starts = [r.start for r in res.correlation_regimes[1:]]
    confirmed = [c.index for c in res.correlation_change_points if not c.provisional]
    assert starts == confirmed
    accepted = {c.index for c in res.candidates if c.accepted}
    for idx in confirmed:
        assert idx in accepted


def test_one_call_correlates_each_span_once(canonical, monkeypatch):
    """The merge and the regime statistics share one correlation per span."""
    x, y, _ = canonical
    spec = canonical_spec()
    pairs = [(x, y)] + [generate_pair(replace(spec, seed=s)) for s in derive_seeds(20261018, 20)]
    calls = []

    def counting(x, y, start, end):
        calls.append((start, end))
        return segment_r(x, y, start, end)

    segment_r = srsd.pipeline._segment_r
    monkeypatch.setattr(srsd.pipeline, "_segment_r", counting)
    for px, py in pairs:
        var_x, var_y = run_srsd(px, py).variance_results
        for a, b in ((px, py), (var_x.normalized, var_y.normalized)):
            calls.clear()
            detect_correlation(a, b, DetectionParams(p=0.05, l=20))
            assert calls, "the call correlated no span"
            assert len(calls) == len(set(calls)), sorted(calls)


def step_r(split):
    """A span correlation of a pair whose correlation steps from -0.6 to 0.6 at split."""

    def span_r(start, end):
        below = max(0, min(end, split - 1) - start + 1)
        return 0.6 * (end - start + 1 - 2 * below) / (end - start + 1)

    return span_r


CP = ChangePoint


# Each row: the sum and diff change-points, the span correlation, the expected
# audit rows as (source, index, p defined, accepted) and the accepted
# change-points as (channel, position in that channel's list), on n = 60, l = 20.
MERGE_CASES = {
    "same-index": (
        [CP(31, 3.0)],
        [CP(31, -2.0)],
        step_r(31),
        [("diff", 31, True, True), ("sum", 31, True, True)],
        [("sum", 0)],
    ),
    "competing-pair-later-index-has-lower-p": (
        [CP(28, 2.0)],
        [CP(33, -2.0)],
        step_r(33),
        [("sum", 28, True, False), ("diff", 33, True, True)],
        [("diff", 0)],
    ),
    "competing-pair-earlier-index-has-lower-p": (
        [CP(28, 2.0)],
        [CP(33, -2.0)],
        step_r(28),
        [("sum", 28, True, True), ("diff", 33, True, False)],
        [("sum", 0)],
    ),
    "pair-beyond-half-l-is-two-clusters": (
        [CP(20, 2.0)],
        [CP(45, -2.0)],
        step_r(20),
        [("sum", 20, True, True), ("diff", 45, True, True)],
        [("sum", 0), ("diff", 0)],
    ),
    "paired-candidate-is-not-paired-again": (
        [CP(20, 2.0), CP(28, 2.0)],
        [CP(25, -2.0)],
        step_r(25),
        [("sum", 20, True, True), ("diff", 25, False, False), ("sum", 28, True, True)],
        [("sum", 0), ("sum", 1)],
    ),
    "confirmed-at-2-and-at-n-are-infeasible": (
        [CP(2, 2.0)],
        [CP(60, -2.0)],
        step_r(30),
        [("sum", 2, False, False), ("diff", 60, False, False)],
        [],
    ),
    "provisional-at-n-is-feasible": (
        [],
        [CP(60, -2.0, provisional=True)],
        step_r(30),
        [("diff", 60, False, True)],
        [("diff", 0)],
    ),
    "competing-pair-with-undefined-p-values": (
        [CP(30, 2.0)],
        [CP(25, -2.0)],
        lambda start, end: None,
        [("diff", 25, False, True), ("sum", 30, False, False)],
        [("diff", 0)],
    ),
}


@pytest.mark.parametrize(
    "sum_cps, diff_cps, span_r, rows, accepted",
    MERGE_CASES.values(),
    ids=MERGE_CASES.keys(),
)
def test_merge_rules(sum_cps, diff_cps, span_r, rows, accepted):
    records, merged = srsd.pipeline._merge_candidates(span_r, 60, sum_cps, diff_cps, 20)
    got = [(c.source, c.index, c.p_value is not None, c.accepted) for c in records]
    assert got == rows
    channels = {"sum": sum_cps, "diff": diff_cps}
    assert len(merged) == len(accepted)
    assert all(cp is channels[c][k] for cp, (c, k) in zip(merged, accepted))


def test_candidate_records_are_immutable(canonical_result):
    record = canonical_result.candidates[0]
    with pytest.raises(AttributeError):
        record.index = 99


# ---------------------------------------------------------------------------
# Orchestration


def test_fixture_full_pipeline(canonical, canonical_result):
    _, _, expected = canonical
    res = canonical_result

    def confirmed(cps):
        return tuple(c.index for c in cps if not c.provisional)

    assert confirmed(res.mean_results[0].change_points) == expected["x_mean"]
    assert confirmed(res.mean_results[1].change_points) == expected["y_mean"]
    assert confirmed(res.variance_results[0].change_points) == expected["x_variance"]
    assert confirmed(res.variance_results[1].change_points) == expected["y_variance"]
    assert confirmed(res.correlation_change_points) == expected["correlation"]


def test_channel_complementarity_on_fixture(canonical_result):
    """An upward correlation shift raises the sum channel's variance and
    lowers the diff channel's."""
    res = canonical_result
    sum_res = res.correlation.sum_channel
    diff_res = res.correlation.diff_channel
    assert 36 in [c.index for c in sum_res.change_points]
    assert 36 in [c.index for c in diff_res.change_points]
    sum_at_36 = [r for r in sum_res.regimes if r.start == 36][0]
    sum_before = [r for r in sum_res.regimes if r.end == 35][0]
    diff_at_36 = [r for r in diff_res.regimes if r.start == 36][0]
    diff_before = [r for r in diff_res.regimes if r.end == 35][0]
    assert sum_at_36.value > sum_before.value
    assert diff_at_36.value < diff_before.value


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_argument_order_symmetry(seed):
    x, y = generate_pair(clean_spec(70, seed))
    forward = run_srsd(x, y)
    reverse = run_srsd(y, x)
    assert [c.index for c in forward.correlation_change_points] == [
        c.index for c in reverse.correlation_change_points
    ]
    for a, b in zip(forward.correlation_regimes, reverse.correlation_regimes):
        assert (a.start, a.end) == (b.start, b.end)
        assert a.value == pytest.approx(b.value, abs=1e-12)


def test_empty_skip_equals_full_run(canonical):
    x, y, _ = canonical
    assert step_skipping_mode(x, y, skip=()) == run_srsd(x, y)


def test_skipping_both_steps_finds_spurious_shift(canonical):
    x, y, _ = canonical
    res = step_skipping_mode(x, y, skip=("mean", "variance"))
    assert res.skipped == frozenset({"mean", "variance"})
    confirmed = tuple(c.index for c in res.correlation_change_points if not c.provisional)
    assert confirmed == (21,)


def test_skipping_variance_is_noop_without_variance_shifts():
    """On a pair whose variance step finds nothing, skipping it leaves the
    correlation analysis unchanged: same split indices, same spans, and the
    same regime correlations (the per-series normalizing constant cancels
    inside Pearson r). Frozen seed verified to have no variance shifts."""
    spec = RegimeSpec(
        n=70,
        correlation=((1, -0.6), (36, 0.6)),
        x_mean=((1, 0.5),),
        y_mean=((1, -0.5),),
        x_variance=((1, 1.0),),
        y_variance=((1, 1.0),),
        seed=11864565228514010612,
    )
    x, y = generate_pair(spec)
    full = run_srsd(x, y)
    assert not [c for c in full.variance_results[0].change_points if not c.provisional]
    assert not [c for c in full.variance_results[1].change_points if not c.provisional]

    skipped = step_skipping_mode(x, y, skip=("variance",))
    assert skipped.skipped == frozenset({"variance"})
    assert [c.index for c in skipped.correlation_change_points] == [
        c.index for c in full.correlation_change_points
    ]
    for a, b in zip(skipped.correlation_regimes, full.correlation_regimes):
        assert (a.start, a.end) == (b.start, b.end)
        assert a.value == pytest.approx(b.value, abs=1e-12)


def test_white_noise_pipeline_band():
    """Committed band for independent white noise (n=200): an independent
    seeded run found no confirmed correlation shift in 107/400 runs (each
    channel sees detector-level false positives, so a large no-shift rate
    is not achievable); the replay must stay within +-3 binomial standard
    errors. Runs without a shift report a single near-zero correlation."""
    reference = 107 / 400
    half_width = 3 * np.sqrt(reference * (1 - reference) / 400)
    none_found = 0
    abs_r = []
    for seed in derive_seeds(42425, 400):
        rng = np.random.default_rng(seed)
        res = run_srsd(rng.standard_normal(200), rng.standard_normal(200))
        if not [c for c in res.correlation_change_points if not c.provisional]:
            none_found += 1
            abs_r.append(abs(res.correlation_regimes[0].value))
    assert abs(none_found / 400 - reference) <= half_width
    assert np.mean(abs_r) < 0.15
    assert max(abs_r) < 0.35


def test_a_tiny_p_takes_its_quantiles_from_the_lower_tail(canonical, monkeypatch):
    """Below p of about 2.2e-16, 1 - p/2 rounds to 1; the quantiles then come from p/2."""
    x, y, _ = canonical
    params = DetectionParams(p=1e-300)
    t, f = srsd.student_t_quantile(5e-301, 38), srsd.f_quantile(5e-301, 19, 19)
    assert srsd.threshold_delta(params, 0.1) == -t * np.sqrt(2.0 * 0.1 / 20)
    assert srsd.critical_variances(1.0, params) == (1.0 / f, f)
    assert srsd.detect_mean(x, params).change_points == []
    assert srsd.detect_variance(x, params).change_points == []
    result = run_srsd(x, y, params)
    assert result.correlation.change_points == [] and len(result.correlation.regimes) == 1
    # A kernel that fails so far out (scipy 1.17's t at l = 4 to 7, its F at l = 7 to 10) names p.
    monkeypatch.setattr(srsd.mean_shift, "student_t_quantile", lambda prob, df: np.inf)
    monkeypatch.setattr(srsd.variance_shift, "f_quantile", lambda prob, df1, df2: np.nan)
    for detect, q in ((srsd.detect_mean, "t"), (srsd.detect_variance, "F")):
        with pytest.raises(ParameterError, match=f"^p=1e-300 is too small for l=20: {q} is not"):
            detect(x, params)


def test_a_p_beyond_the_t_kernel_is_named_with_l(canonical):
    """The real kernel's t at l = 4, p = 1e-300 is not finite; the detector names p and l."""
    x, _, _ = canonical
    params = DetectionParams(p=1e-300, l=4)
    with pytest.raises(ParameterError, match="^p=1e-300 is too small for l=4: t is not finite$"):
        srsd.threshold_delta(params, 0.1)
    with pytest.raises(ParameterError, match="^p=1e-300 is too small for l=4: t is not finite$"):
        srsd.detect_mean(x, params)
    assert srsd.detect_variance(x, params).regimes  # F is finite at l = 4


def test_per_step_parameter_override(canonical):
    x, y, _ = canonical
    corr_params = DetectionParams(p=0.3, l=15)
    res = run_srsd(x, y, corr_params=corr_params)
    assert res.corr_params == corr_params
    assert res.params == DetectionParams()


@pytest.mark.parametrize(
    "corr_params, field",
    [
        (DetectionParams(prewhiten="ip4", m=10), "prewhiten"),
        (DetectionParams(prewhiten="mpk", m=12), "prewhiten"),
        (DetectionParams(m=10), "m"),
    ],
)
@pytest.mark.parametrize("entry", [run_srsd, step_skipping_mode])
def test_corr_params_prewhitening_is_rejected(canonical, entry, corr_params, field):
    """The correlation step scans the series params prewhitened; corr_params cannot."""
    x, y, _ = canonical
    with pytest.raises(ParameterError, match=rf"corr_params\.{field} has no effect"):
        entry(x, y, corr_params=corr_params)


def test_pipeline_error_paths():
    with pytest.raises(DataError):
        run_srsd([1.0] * 30, [2.0] * 31)
    with pytest.raises(ParameterError):
        step_skipping_mode([1.0] * 30, [2.0] * 30, skip=("bogus",))
    with pytest.raises(DataError, match="identically zero"):
        detect_correlation([0.0] * 30, [0.0] * 30)
