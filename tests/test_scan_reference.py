"""An executable specification of the sequential scan, checked against `_engine`.

`reference_scan` writes the detector's procedure out literally, with none of
the kernel's shortcuts: every regime keeps the list of its members, the open
regime's estimate is `_window_mean` of its newest l members, and every
candidate's test is summed from scratch over the points after it. It costs
O(n·l) per series and shares no code with `_engine._scan`, which instead runs
a cursor over the scanned values, rewinds it after a failed test, and keeps
only the open regime's newest l members.

The two are compared bit for bit (`float.hex`) on every engine-corpus series,
for both kinds, in batch and as the corpus's monitors: initialised on the
first k points and fed the rest one at a time. On short series with exact
ties and on drawn ones, every `StepStatus` of the monitor is compared too,
against the reference run on the points fed so far. `_window_mean` adds
its window left to right from int 0 itself, as both kernels do on every
interpreter.

Batch scans of long series take a second kernel, `_engine._jump_scan`; every
comparison runs once with each kernel forced, whatever the series length, and
the two kernels are compared with each other on both frozen corpora and on
series past the cut-over. Every batch scan and monitor stream of the corpora
is also recorded and replayed, by `scan_replay.py`, with the real `_scan` and
`monitor` on each other installed CPython: the bits must not depend on the
interpreter.
"""
from __future__ import annotations

import ast
import contextlib
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
from contextlib import contextmanager
from functools import reduce
from glob import glob
from operator import add
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_corpus
import scan_replay
import srsd
from srsd import DataError, DetectionParams, ParameterError, TimeSeries, _engine


@contextmanager
def kernel(name: str):
    """Make init_state scan with the loop kernel, or with the jump kernel whatever the length."""
    with mock.patch.object(_engine, "_JUMP_MIN", 0 if name == "jump" else math.inf):
        yield


def _window_mean(members: list[float], l: int) -> float:
    """The open regime's estimate: the mean of its newest l members, added left to right."""
    return reduce(add, members[-l:], 0) / l


def _bounds(est: float, threshold: float, multiplicative: bool) -> tuple[float, float]:
    if multiplicative:
        return est / threshold, est * threshold
    return est - threshold, est + threshold


def _shift_index(tested: list[float], critical: float, up: bool) -> tuple[float, int, bool]:
    """(sum, points summed, sign lost) of the deviations of tested from critical.

    The sum runs from the candidate's own point until its sign is lost (a
    zero sum has none) or tested ends.
    """
    csum, count = 0.0, 0
    for v in tested:
        csum, count = csum + (v - critical), count + 1
        if csum <= 0.0 if up else csum >= 0.0:
            return csum, count, True
    return csum, count, False


def reference_scan(
    values: list[float], l: int, threshold: float, multiplicative: bool, index_scale: float
):
    """(change-points, pending candidate, window) of the scan of values.

    change-points are (index, index value) pairs; the pending candidate is
    (index, critical level, summed deviation, tested values) or None; the
    window is the open regime's newest l members. Indices are 1-based.
    """
    n = len(values)
    regimes = [values[:l]]  # the members of each regime, the open one last
    change_points = []
    j = 1  # 0-based position of the next point to classify; the first one cannot shift
    while j < n:
        members = regimes[-1]
        # The estimate always averages the l points before j, or the first l.
        first = max(j - l, 0)
        assert members[-l:] == values[first : first + l]
        lo, hi = _bounds(_window_mean(members, l), threshold, multiplicative)
        x = values[j]
        if lo <= x <= hi:
            if j >= l:  # the first l points are members of the first regime already
                members.append(x)
            j += 1
            continue
        if index_scale <= 0.0:
            raise DataError("degenerate series: shift index scale is zero")
        up = x > hi
        critical = hi if up else lo
        tested = values[j : j + l]
        csum, count, lost = _shift_index(tested, critical, up)
        if lost:
            # The test failed: x joins the open regime, and the points after
            # it are classified again against the updated estimate.
            if j >= l:
                members.append(x)
            j += 1
        elif count == l:
            change_points.append((j + 1, csum / index_scale))
            regimes.append(tested)
            j += l
        else:  # the series ends during the test
            return change_points, (j + 1, critical, csum, tested), regimes[-1][-l:]
    return change_points, None, regimes[-1][-l:]


def _hexed(change_points, pending, window):
    pending = (
        None
        if pending is None
        else (pending[0], pending[1].hex(), pending[2].hex(), [v.hex() for v in pending[3]])
    )
    return [(i, v.hex()) for i, v in change_points], pending, [v.hex() for v in window]


def _engine_outcome(state):
    pend = state.pending
    pending = None if pend is None else (pend.index, pend.critical, pend.csum, pend.values)
    cps = [(cp.index, cp.index_value) for cp in state.change_points]
    return _hexed(cps, pending, state.window)


def _calibration(kind, values: np.ndarray, params: DetectionParams):
    """(threshold, index scale) of a detector of this kind on the whole series."""
    if kind is _engine.MEAN:
        avg_var = srsd.running_avg_variance(values, params.l)
        return srsd.threshold_delta(params, avg_var), params.l * math.sqrt(avg_var)
    return srsd.f_quantile(1.0 - params.p / 2.0, params.l - 1, params.l - 1), float(params.l)


def _assert_window_invariants(kind, state, scanned: list[float], l: int) -> None:
    """The window is the l scanned values before the cursor, or the first l.

    The cursor is the candidate's point while one is under test and the point
    after the newest one otherwise; a pending candidate's critical level is
    the bound around the window's mean on the side of its summed deviation.
    """
    pend = state.pending
    cursor = len(state.raw) + 1 if pend is None else pend.index
    first = max(cursor - 1 - l, 0)
    assert state.window == scanned[first : first + l]
    if pend is not None:
        lo, hi = _bounds(_window_mean(state.window, l), state.threshold, kind.squared)
        assert pend.critical == (hi if pend.csum > 0.0 else lo)


def _scanned(kind, values: np.ndarray) -> list[float]:
    return (values * values).tolist() if kind.squared else values.tolist()


def _reference(kind, values: np.ndarray, l: int, threshold: float, index_scale: float):
    scanned = _scanned(kind, values)
    try:
        scan = reference_scan(scanned, l, threshold, kind.squared, index_scale)
    except DataError as exc:
        return str(exc)
    return _hexed(*scan)


def _reference_status(kind, values: np.ndarray, t: int, l: int, threshold: float, scale: float):
    """What a monitor reports after point t: the reference's outcome on the first t points."""
    scanned = _scanned(kind, values[:t])
    cps, pending, _ = reference_scan(scanned, l, threshold, kind.squared, scale)
    if pending is not None:
        return "candidate", pending[0], (pending[2] / scale).hex()
    if cps and cps[-1][0] + l - 1 == t:
        return "confirmed", cps[-1][0], cps[-1][1].hex()
    return "stable", None, None


def _status(status):
    if status.state == "confirmed":
        return "confirmed", status.change_point.index, status.change_point.index_value.hex()
    value = None if status.index_value is None else status.index_value.hex()
    return status.state, status.candidate_index, value


def _check(
    kind, values: np.ndarray, params: DetectionParams, threshold, scale, k=None, statuses=False
) -> bool:
    """The engine's batch scan, and its monitor from k if given, end as the reference does.

    With statuses, every status the monitor reports is the reference's too.
    Returns whether the scan ran; a kernel error must be the reference's.
    """
    l = params.l
    expected = _reference(kind, values, l, threshold, scale)
    scanned = _scanned(kind, values)
    try:
        state = _engine.init_state(kind, TimeSeries(values), l, threshold, scale)
    except DataError as exc:
        assert str(exc) == expected, f"{kind.name} {values.tolist()}"
        return False
    assert _engine_outcome(state) == expected, f"{kind.name} {values.tolist()}"
    _assert_window_invariants(kind, state, scanned, l)
    if k is not None:
        state = _engine.init_state(kind, TimeSeries(values[:k]), l, threshold, scale)
        _assert_window_invariants(kind, state, scanned, l)
        for t in range(k + 1, len(values) + 1):
            _, status = _engine.monitor(kind, state, float(values[t - 1]), params)
            _assert_window_invariants(kind, state, scanned, l)
            if statuses:
                expected_status = _reference_status(kind, values, t, l, threshold, scale)
                assert _status(status) == expected_status, f"point {t} from {k}: {values.tolist()}"
        assert _engine_outcome(state) == expected, f"monitor from {k}: {values.tolist()}"
    return True


KINDS = pytest.mark.parametrize("kind", [_engine.MEAN, _engine.VARIANCE], ids=lambda k: k.name)
# Each kind on the loop kernel, then on the jump kernel (ids "mean-jump", "variance-jump").
KINDS_AND_KERNELS = pytest.mark.parametrize(
    "kind, kernel_name",
    [(kind, name) for name in ("loop", "jump") for kind in (_engine.MEAN, _engine.VARIANCE)],
    ids=["mean", "variance", "mean-jump", "variance-jump"],
)


@pytest.fixture(scope="module")
def corpus_cases():
    return engine_corpus.all_cases()


@KINDS_AND_KERNELS
def test_engine_follows_the_reference_on_the_corpus(kind, kernel_name, corpus_cases):
    """Batch on every series the detectors scan; the corpus's monitors from its k."""
    compared = streamed = 0
    with kernel(kernel_name):
        for meta, values in corpus_cases:
            params = DetectionParams(p=meta["p"], l=meta["l"])
            if len(values) < params.l:
                continue
            k = engine_corpus.stream_start(meta)
            threshold, scale = _calibration(kind, values, params)
            if _check(kind, values, params, threshold, scale, k):
                compared += 1
                streamed += k is not None
    assert compared > 1900 and streamed > 450


@KINDS_AND_KERNELS
def test_engine_follows_the_reference_on_exact_ties(kind, kernel_name):
    """Small integers and a power-of-two threshold keep every sum exact.

    So shift indices land on exactly zero and points on exactly the critical
    levels, which calibrated thresholds on real-valued data almost never do.
    """
    threshold = 2.0 if kind.squared else 1.0
    rng = np.random.default_rng(20261018)
    with kernel(kernel_name):
        for _ in range(150):
            params = DetectionParams(l=int(rng.choice([4, 8])))
            values = rng.integers(-3, 4, size=int(rng.integers(params.l, 50))).astype(float)
            k = int(rng.integers(params.l, len(values) + 1))
            _check(kind, values, params, threshold, 1.0, k, statuses=True)
        # A zero index scale: the first candidate raises, as in the reference.
        assert not _check(kind, np.repeat([0.0, 3.0], 4), DetectionParams(l=4), threshold, 0.0)


@KINDS_AND_KERNELS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_engine_follows_the_reference_on_drawn_series(kind, kernel_name, data):
    """Rounded values with constant stretches, optionally offset by 1e12."""
    l = data.draw(st.integers(3, 8), label="l")
    params = DetectionParams(p=data.draw(st.sampled_from([0.05, 0.5])), l=l)
    n = data.draw(st.integers(l, 40), label="n")
    values = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
    start = data.draw(st.integers(0, n - 1), label="constant from")
    values[start : start + data.draw(st.integers(0, 2 * l))] = values[start]
    values = values * data.draw(st.sampled_from([1.0, 0.1, 1.5])) + data.draw(
        st.sampled_from([0.0, 1e12]), label="offset"
    )
    threshold, scale = _calibration(kind, values, params)
    k = data.draw(st.integers(l, n), label="k")
    with kernel(kernel_name):
        _check(kind, values, params, threshold, scale, k, statuses=True)


def test_both_kernels_agree_on_both_corpora(monkeypatch):
    """Every batch scan of both corpora, jumped and looped: same bits, same errors.

    The corpora's detectors and monitors run on jump-scanned states and must
    reproduce every frozen record, errors included; each of their init_state
    calls (the pipeline's six scans of a pair among them) is also rerun on
    the loop and compared: change-points, pending candidate and window.
    """
    init_state, scans = _engine.init_state, []

    def both(*args):
        outcomes = []
        for name in ("loop", "jump"):  # the caller gets the jump kernel's state
            with kernel(name):
                try:
                    state = init_state(*args)
                    outcomes.append(_engine_outcome(state))
                except DataError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], f"{args[0].name} {args[1].values.tolist()} l={args[2]}"
        scans.append(outcomes[0])
        if isinstance(outcomes[0], str):
            raise DataError(outcomes[0])
        return state

    monkeypatch.setattr(_engine, "init_state", both)
    for record, (meta, values) in zip(engine_corpus.load(), engine_corpus.all_cases()):
        diff = engine_corpus.first_difference(record, engine_corpus.run_case(meta, values))
        assert diff is None, f"{engine_corpus.describe(meta)}: {diff}"
    pipeline = engine_corpus.load(engine_corpus.PIPELINE_CORPUS)
    for record, (meta, x, y) in zip(pipeline, engine_corpus.all_pairs()):
        diff = engine_corpus.pipeline_difference(record, engine_corpus.run_pair_case(meta, x, y))
        assert diff is None, f"{engine_corpus.describe(meta)}: {diff}"
    pending = sum(not isinstance(o, str) and o[1] is not None for o in scans)
    assert len(scans) > 8000 and pending > 5000 and sum(isinstance(o, str) for o in scans) > 50


def _bound_window_sum(builtin_sum):
    """`_engine`'s `_window_sum` as its import binds it where `sum` is `builtin_sum`."""
    tree = ast.parse(Path(_engine.__file__).read_text())
    (binding,) = (
        node for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_window_sum"]
    )
    scope = {"sum": builtin_sum, "reduce": reduce, "add": add}
    exec(compile(ast.Module([binding], []), _engine.__file__, "exec"), scope)
    return scope["_window_sum"]


@pytest.mark.parametrize("plain", [True, False], ids=["plain_sum", "compensated_sum"])
def test_init_state_jumps_only_from_the_cut_over_and_where_sum_adds_plainly(monkeypatch, plain):
    """Whether the interpreter's sum adds left to right (before 3.12) or compensates (from 3.12),
    the window sum adds left to right, and init_state picks its kernel by length alone."""
    # The builtin sum is the window sum exactly where it adds left to right.
    assert (_engine._window_sum is sum) == (sum([1e16, 1.0, -1e16]) == 0.0)
    builtin_sum = (lambda win: reduce(add, win, 0)) if plain else math.fsum
    window_sum = _bound_window_sum(builtin_sum)
    assert (window_sum is builtin_sum) == plain
    win = np.random.default_rng(3).standard_normal(80).tolist() + [1e16, 1.0, -1e16]
    assert window_sum(win).hex() == reduce(add, win, 0).hex() != math.fsum(win).hex()
    taken = []
    monkeypatch.setattr(_engine, "_window_sum", window_sum)
    monkeypatch.setattr(_engine, "_jump_scan", lambda *args: taken.append("jump"))
    monkeypatch.setattr(_engine, "_scan", lambda *args: taken.append("loop"))
    for n in (_engine._JUMP_MIN - 1, _engine._JUMP_MIN, 5 * _engine._JUMP_MIN):
        for kind in (_engine.MEAN, _engine.VARIANCE):
            _engine.init_state(kind, TimeSeries(np.ones(n)), 20, 1.0, 1.0)
    assert taken == ["loop"] * 2 + ["jump"] * 4


def _long_series(n: int, seed: int, l: int = 20) -> np.ndarray:
    """White noise with planted mean and variance shifts, a rounded and a constant stretch.

    For even seeds the last l // 2 points jump up, so the scans end in a candidate's test.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    for a in rng.integers(0, n, size=6):
        x[a:] += rng.normal(0.0, 1.5)
        x[a:] *= rng.uniform(0.5, 2.0)
    a = int(rng.integers(0, n - 100))
    x[a : a + 100] = np.round(x[a : a + 100])
    x[a + 100 : a + 150] = x[a + 100]
    x[n - l // 2 :] += 10.0 * (seed % 2 == 0)
    return x


def _hexed_cps(result):
    return [(cp.index, cp.index_value.hex(), cp.provisional) for cp in result.change_points]


@pytest.mark.parametrize("l", [5, 20, 80])
def test_detectors_past_the_cut_over_jump_to_the_loops_results(l):
    """Series of several blocks of positions, each end hit: pending, confirmed and quiet."""
    params = DetectionParams(p=0.05, l=l)
    pending = 0
    for seed in range(4):
        values = _long_series(_engine._JUMP_MIN + 2500 * seed + 37 * l, seed, l)
        for detect in (srsd.detect_mean, srsd.detect_variance):
            jumped = detect(values, params)
            with kernel("loop"):
                looped = detect(values, params)
            assert jumped == looped
            assert _hexed_cps(jumped) == _hexed_cps(looped)
            pending += jumped.change_points[-1].provisional if jumped.change_points else 0
    assert pending >= 2


@KINDS
def test_a_monitor_continues_a_jump_scanned_history_as_a_looped_one(kind):
    """Histories past the cut-over, some ending inside a candidate's test."""
    params = DetectionParams(p=0.05, l=20)
    values = _long_series(1200, 7)
    threshold, scale = _calibration(kind, values, params)
    resumed = 0
    for k in range(_engine._JUMP_MIN + 500, _engine._JUMP_MIN + 540, 3):
        runs = []
        for name in ("jump", "loop"):
            with kernel(name):
                state = _engine.init_state(kind, TimeSeries(values[:k]), 20, threshold, scale)
            resumed += name == "jump" and state.pending is not None
            steps = (_engine.monitor(kind, state, v, params)[1] for v in values[k:].tolist())
            statuses = [_status(status) for status in steps]
            runs.append((statuses, _engine_outcome(state), state.raw))
        assert runs[0] == runs[1], f"from {k}"
    assert resumed > 0


def _recorded_chunks(corpus_cases):
    """Every batch scan of both corpora and every engine-corpus monitor stream, on the loop kernel.

    A scan is recorded as the state and arguments `_scan` starts from and what it
    leaves; a stream as its initial state, the values fed and each step's status.
    They come in chunks of a few hundred series, each dict of "scans" and
    "streams" yielded as soon as it is recorded, so that replays can start.
    """
    scans, streams, scan, step = [], [], _engine._scan, _engine.monitor
    current, stepping = None, False

    def recorded_scan(state, multiplicative, buf, base, i):
        if stepping:
            return scan(state, multiplicative, buf, base, i)
        before = scan_replay.state_record(state)
        try:
            confirmed = scan(state, multiplicative, buf, base, i)
        except DataError as exc:
            scans.append((before, multiplicative, buf, base, i, scan_replay.error(exc)))
            raise
        scans.append((before, multiplicative, buf, base, i, scan_replay.outcome(state, confirmed)))
        return confirmed

    def recorded_init(init, kind):
        def init_monitor(history, params, **calibration):
            nonlocal current
            current = init(history, params, **calibration)
            record = scan_replay.state_record(current)
            streams.append((kind.name, kind.squared, params.l, record, [], []))
            return current

        return init_monitor

    def recorded_step(kind, state, new_value, params):
        nonlocal stepping
        assert state is current
        values, expected = streams[-1][4:]
        values.append(new_value)
        stepping = True
        try:
            status = step(kind, state, new_value, params)[1]
        except (DataError, ParameterError) as exc:
            expected.append(scan_replay.error(exc))
            raise
        finally:
            stepping = False
        expected.append(scan_replay.status(status))
        return state, status

    with contextlib.ExitStack() as stack:
        stack.enter_context(kernel("loop"))
        stack.enter_context(mock.patch.object(_engine, "_scan", recorded_scan))
        stack.enter_context(mock.patch.object(_engine, "monitor", recorded_step))
        for kind in (_engine.MEAN, _engine.VARIANCE):
            name = f"init_{kind.name}_monitor"
            init = recorded_init(getattr(srsd, name), kind)
            stack.enter_context(mock.patch.object(srsd, name, init))
        for n, (meta, values) in enumerate(corpus_cases, 1):
            engine_corpus.run_case(meta, values)
            if n % 200 == 0 or n == len(corpus_cases):
                yield {"scans": scans, "streams": streams}
                scans, streams = [], []
        for n, (meta, x, y) in enumerate(engine_corpus.all_pairs(), 1):
            for mode in engine_corpus.PIPELINE_MODES:  # run_pair_case's scans, without its JSON
                with contextlib.suppress(DataError):
                    getattr(srsd, mode)(x, y, DetectionParams(p=meta["p"], l=meta["l"]))
            if n % 50 == 0:
                yield {"scans": scans, "streams": streams}
                scans, streams = [], []


def _other_interpreters() -> list[tuple[str, str]]:
    """(binary, version) of each pyenv CPython from 3.10 on that starts, other than this one.

    The binaries are run directly: the version shims on PATH may fail.
    """
    root = os.environ.get("PYENV_ROOT")
    if not root and shutil.which("pyenv"):
        root = subprocess.run(["pyenv", "root"], capture_output=True, text=True).stdout.strip()
    if not root:
        return []
    probes = []
    for binary in sorted(glob(os.path.join(root, "versions", "*", "bin", "python"))):
        try:
            probes.append((binary, subprocess.Popen(
                [binary, "-I", "-c", "import sys; print(*sys.version_info[:3])"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )))
        except OSError:
            continue
    found = []
    for binary, probe in probes:
        out = probe.communicate()[0].split()
        if probe.returncode == 0 and len(out) == 3:
            version = tuple(map(int, out))
            if version >= (3, 10) and version != sys.version_info[:3]:
                found.append((binary, ".".join(out)))
    return found


def test_every_installed_cpython_replays_the_corpora_with_the_same_bits(corpus_cases):
    """The real `_scan` and `monitor`, pulled out of the source, replayed on each other CPython.

    Every batch scan of both corpora and every step of every engine-corpus
    monitor stream must give the bits recorded here, errors the same message.
    """
    interpreters = _other_interpreters()
    print("other interpreters:", ", ".join(f"{v} ({b})" for b, v in interpreters) or "none")
    if not interpreters:
        pytest.skip("no other CPython from 3.10 on starts")
    replay, source = str(Path(scan_replay.__file__).resolve()), str(Path(_engine.__file__).parent)
    pipes = dict.fromkeys(("stdin", "stdout", "stderr"), subprocess.PIPE)
    runs = [
        (version, subprocess.Popen([binary, "-I", replay, source], **pipes))
        for binary, version in interpreters
    ]
    try:
        recorded = np.zeros(3, int)
        for chunk in _recorded_chunks(corpus_cases):
            steps = sum(len(stream[5]) for stream in chunk["streams"])
            recorded += len(chunk["scans"]), len(chunk["streams"]), steps
            data = pickle.dumps(chunk, protocol=4)
            for _, run in runs:
                with contextlib.suppress(BrokenPipeError):  # a replay that stopped reports below
                    run.stdin.write(data)
                    run.stdin.flush()
        assert recorded.tolist() == [8077, 962, 29218]
        for version, run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, f"{version}: {err.decode()}"
            report = json.loads(out)
            print(report)
            assert report["python"] == version
            assert (report["scans"], report["streams"], report["steps"]) == (8077, 962, 29218)
            assert report["scans_differing"] == report["streams_differing"] == 0, report
    finally:
        for _, run in runs:
            if run.poll() is None:
                run.kill()
                run.communicate()
