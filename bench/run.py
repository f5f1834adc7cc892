"""The srsd benchmark: three workloads, end-to-end metrics and a traced run.

Usage (from the repository root)::

    python3 bench/run.py --workload pair_long --seed 0 --seconds 15 --trace 0

The benchmark imports srsd from ``src/`` of the checkout it sits in, builds
the workload's inputs from ``--seed``, repeats the workload's iteration for
``--seconds`` seconds in this one process, checks every output against the
frozen reference in ``bench/reference.json`` and prints one JSON object as
its last line of output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics that the spans give (see ``tracing.py``); the untraced
iterations give the tracing overhead. The line before the result records
the environment, the seed and the workload's reason, and
``bench/out/<workload>-trace<k>.json`` keeps the whole record.
``bench/README.md`` maps each metric to the workload quantity it measures.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import zlib
from array import array
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from tracing import Tracer

# One process, no extra threads: numpy's BLAS must not start a pool, so these
# are set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.signal  # noqa: E402
import scipy.stats  # noqa: E402,F401  srsd's own dependency, imported before set-up is timed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# Inputs are keyed by seed % REFERENCE_SEEDS, so every seed has a frozen reference.
REFERENCE_SEEDS = 16
SETUP_REPEATS = 9
ENSEMBLE_SEED_BASE = 20260819  # criterion 3's seed base, used by key 0

SIZES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "pair_long": {"n": 10_000},
        "ensemble_short": {"draws": 200, "cli_draws": 10, "peak_draws": 20},
        "monitor_stream": {"points": 100_000},
    },
    "tiny": {
        "pair_long": {"n": 1_500},
        "ensemble_short": {"draws": 6, "cli_draws": 2, "peak_draws": 2},
        "monitor_stream": {"points": 2_000},
    },
}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p95": "ms",
    "call_ms_p99": "ms",
    "cli_s": "s",
    "peak_mib": "MiB",
}

# Spans whose self time is reported as "<span>.self_s".
LAYER_SPANS = (
    "bench.iteration",
    "pipeline.entry",
    "prewhiten.estimate_ar1",
    "prewhiten.prewhiten",
    "mean_shift.detect_mean",
    "mean_shift.init_mean_monitor",
    "variance_shift.detect_variance",
    "variance_shift.init_variance_monitor",
    "stats.quantile",
    "stats.running_avg_variance",
    "pipeline.sum_diff_channels",
    "pipeline.detect_correlation",
    "monitor.advance",
    "monitor.finalize",
    "cli.main",
    "cli.parse_csv",
    "cli.result_to_json",
)

PER_LAYER = {
    **{f"{span}.self_s": "s" for span in LAYER_SPANS},
    "stats.quantile.calls": "count",
    "engine.points_scanned": "count",
    "engine.scan_us_per_point": "us",
    "mean_shift.change_points": "count",
    "variance_shift.change_points": "count",
    "pipeline.candidates": "count",
    "pipeline.accepted": "count",
    "pipeline.accept_ratio": "ratio",
    "cli.json_bytes": "bytes",
    "monitor.calls": "count",
    "monitor.change_points": "count",
    "trace.spans": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Loading srsd from this checkout


def import_srsd():
    """Import srsd afresh from src/ of this checkout (earlier imports are dropped)."""
    if not (SRC / "srsd" / "__init__.py").is_file():
        raise FileNotFoundError(f"no srsd package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "srsd" or m.startswith("srsd.")]:
        del sys.modules[name]
    srsd = importlib.import_module("srsd")
    importlib.import_module("srsd.cli")
    if Path(srsd.__file__).resolve().parent != SRC / "srsd":
        raise ImportError(f"srsd was imported from {srsd.__file__}, not from {SRC}")
    return srsd


def seed_for(key: int, workload_tag: int) -> int:
    return int(np.random.SeedSequence([key, workload_tag]).generate_state(1, np.uint64)[0])


def write_csv(path: Path, header: str, columns: list) -> None:
    # repr() round-trips every float, so the CLI parses exactly the in-memory values.
    lists = [column.tolist() for column in columns]
    rows = [header]
    rows += [",".join(map(repr, (i, *values))) for i, values in enumerate(zip(*lists), start=1)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Output signatures checked against the frozen reference


def cp_list(change_points) -> dict[str, list[int]]:
    return {
        "confirmed": [cp.index for cp in change_points if not cp.provisional],
        "provisional": [cp.index for cp in change_points if cp.provisional],
    }


def pair_signature(result) -> dict[str, dict]:
    """Change-points of all six detector passes and the accepted correlation ones."""
    corr = result.correlation
    return {
        "x_mean": cp_list(result.mean_results[0].change_points),
        "y_mean": cp_list(result.mean_results[1].change_points),
        "x_variance": cp_list(result.variance_results[0].change_points),
        "y_variance": cp_list(result.variance_results[1].change_points),
        "sum_channel": cp_list(corr.sum_channel.change_points if corr.sum_channel else []),
        "diff_channel": cp_list(corr.diff_channel.change_points if corr.diff_channel else []),
        "correlation": cp_list(corr.change_points),
    }


def digest(result) -> str:
    text = json.dumps(pair_signature(result), separators=(",", ":"))
    return "%08x" % zlib.crc32(text.encode())


def localization_error(result, planted: int, n: int) -> int:
    """Criterion 3's error: distance of the nearest confirmed correlation shift."""
    confirmed = [cp.index for cp in result.correlation_change_points if not cp.provisional]
    return min(abs(i - planted) for i in confirmed) if confirmed else n


def load_reference(size: str, workload: str, key: int) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[size][workload][str(key)]


# ---------------------------------------------------------------------------
# Bookkeeping


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails by raising or by a wrong output."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def attempt(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one operation; a raised error counts it as failed and returns None."""
        try:
            return fn()
        except Exception as exc:  # the benchmark keeps going and reports the failure
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


def run_cli(srsd, tally: Tally, args: list[str], output: Path, check: Callable[[str], bool], what: str):
    """Run the srsd CLI in-process as one operation; returns (seconds, bytes written)."""
    start = time.perf_counter()
    try:
        code = srsd.cli.main([*args, "--format", "json", "--output", str(output)])
    except Exception as exc:  # counted as a failed operation
        tally.record(False, f"{what}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, 0
    elapsed = time.perf_counter() - start
    text = output.read_text(encoding="utf-8") if code == 0 else ""
    try:
        ok = code == 0 and check(text)
    except Exception as exc:  # an unreadable output is a wrong output
        ok = False
        what = f"{what}: {type(exc).__name__}: {exc}"
    tally.record(ok, f"{what}: exit code {code} or output differs from the reference")
    return elapsed, len(text.encode())


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One workload: inputs built from a seed, a timed library pass and a CLI pass.

    library_pass returns the seconds its timed section took and appends one
    latency per public call to calls_ns (None leaves the calls untimed).
    cli_pass returns the seconds of each CLI run and the bytes they wrote.
    Both record every operation, and its check, against self.reference in the
    tally.
    """

    name = ""
    why = ""
    # A CLI pass follows every passes_per_cli library passes, and the last one.
    passes_per_cli = 1

    reference: dict

    def peak_pass(self, tally: Tally) -> None:
        self.library_pass(tally, None)

    def summary(self) -> dict:
        return {}

    def summary_matches(self) -> bool:
        return True


class PairLong(Workload):
    """One planted-regime red-noise pair of n = 1e4 at l = 80 with ip4 prewhitening."""

    name = "pair_long"
    why = (
        "large l: the engine's O(l) re-sum per point dominates and per-call costs vanish; "
        "the CLI JSON codec runs at a realistic size"
    )
    alpha = 0.3
    # One pass is a single long call, so passes get more of the run than CLI runs.
    passes_per_cli = 2

    def setup(self, srsd, key: int, sizes: dict, work: Path) -> None:
        n = sizes["n"]
        self.srsd = srsd
        self.params = srsd.DetectionParams(p=0.05, l=80, prewhiten="ip4", m=10)
        spec = srsd.RegimeSpec(
            n=n,
            correlation=((1, 0.6), (n // 2 + 1, -0.2)),
            x_variance=((1, 1.0), (2 * n // 5 + 1, 4.0)),
            y_variance=((1, 4.0), (3 * n // 4 + 1, 1.0)),
            seed=seed_for(key, 1),
        )
        x, y = srsd.generate_pair(spec)
        index = np.arange(1, n + 1)
        x_mean = np.where(index > n // 4, 1.0, 0.0)
        y_mean = np.where(index > 13 * n // 20, -2.0, 0.0)
        red = [scipy.signal.lfilter([1.0], [1.0, -self.alpha], s.values) for s in (x, y)]
        self.x = srsd.TimeSeries(red[0] + x_mean, labels=x.labels, name="x")
        self.y = srsd.TimeSeries(red[1] + y_mean, labels=y.labels, name="y")
        csv = work / "pair_long.csv"
        write_csv(csv, "index,x,y", [self.x.values, self.y.values])
        self.output = work / "pair_long.json"
        self.cli_args = [
            "detect-correlation", str(csv), "--columns", "x,y",
            "--p", "0.05", "--l", "80", "--prewhiten", "ip4", "--m", "10",
        ]

    def library_pass(self, tally: Tally, calls_ns: array | None) -> float:
        run_srsd = self.srsd.pipeline.run_srsd
        start = time.perf_counter_ns()
        result = tally.attempt("run_srsd", lambda: run_srsd(self.x, self.y, self.params))
        elapsed = time.perf_counter_ns() - start
        if calls_ns is not None:
            calls_ns.append(elapsed)
        if result is not None:
            tally.record(pair_signature(result) == self.reference, "run_srsd change-points differ")
        return elapsed / 1e9

    def cli_pass(self, tally: Tally) -> tuple[list[float], int]:
        def check(text: str) -> bool:
            return pair_signature(self.srsd.cli.result_from_json(text)) == self.reference

        seconds, size = run_cli(self.srsd, tally, self.cli_args, self.output, check, "cli detect-correlation")
        return [seconds], size

    def freeze(self) -> dict:
        return pair_signature(self.srsd.run_srsd(self.x, self.y, self.params))


class EnsembleShort(Workload):
    """Criterion 3's Monte Carlo ensemble: 200 draws of n = 70, full and skip modes."""

    name = "ensemble_short"
    why = (
        "n = 70 at l = 20: fixed per-call costs (quantiles, validation, copies, results, "
        "merge) are about 40 % of the time, so per-call savings show here"
    )
    planted = 36

    def setup(self, srsd, key: int, sizes: dict, work: Path) -> None:
        self.srsd = srsd
        self.params = srsd.DetectionParams(p=0.05, l=20)
        spec = srsd.canonical_spec()
        self.n = spec.n
        seeds = srsd.derive_seeds(ENSEMBLE_SEED_BASE + key, sizes["draws"])
        self.pairs = [srsd.generate_pair(replace(spec, seed=int(s))) for s in seeds]
        self.peak_draws = sizes["peak_draws"]
        self.csvs = []
        for i, (x, y) in enumerate(self.pairs[: sizes["cli_draws"]]):
            path = work / f"ensemble_{i}.csv"
            write_csv(path, "index,x,y", [x.values, y.values])
            self.csvs.append(path)
        self.output = work / "ensemble.json"
        self.errors: tuple[list[int], list[int]] = ([], [])

    def _draws(self, pairs, tally: Tally, calls_ns: array | None) -> tuple[float, tuple]:
        """Both pipeline modes on every draw; returns the seconds in the calls and the errors.

        A draw's two calls are timed together, as one latency: full and skip
        calls differ in cost, and the median of a mix of the two would fall in
        the gap between them. Each draw is checked outside the timed section
        and its results dropped, as the acceptance test does.
        """
        pipeline = self.srsd.pipeline
        run_srsd, skipping = pipeline.run_srsd, pipeline.step_skipping_mode
        clock = time.perf_counter_ns
        elapsed = 0
        errors: tuple[list[int], list[int]] = ([], [])
        for i, (x, y) in enumerate(pairs):
            start = clock()
            full = tally.attempt("run_srsd", lambda: run_srsd(x, y, self.params))
            skip = tally.attempt(
                "step_skipping_mode",
                lambda: skipping(x, y, self.params, skip=("mean", "variance")),
            )
            ns = clock() - start
            elapsed += ns
            if calls_ns is not None:
                calls_ns.append(ns)
            for mode, res in enumerate((full, skip)):
                if res is not None:
                    ok = digest(res) == self.reference["digests"][2 * i + mode]
                    tally.record(ok, f"draw {i} mode {mode} change-points differ")
                    errors[mode].append(localization_error(res, self.planted, self.n))
        return elapsed / 1e9, errors

    def library_pass(self, tally: Tally, calls_ns: array | None) -> float:
        elapsed, self.errors = self._draws(self.pairs, tally, calls_ns)
        return elapsed

    def peak_pass(self, tally: Tally) -> None:
        # The peak of one call does not grow with the number of draws, and
        # tracemalloc makes a whole pass several times slower.
        self._draws(self.pairs[: self.peak_draws], tally, None)

    def cli_pass(self, tally: Tally) -> tuple[list[float], int]:
        seconds, size = [], 0
        for i, path in enumerate(self.csvs):
            def check(text: str, i=i) -> bool:
                return digest(self.srsd.cli.result_from_json(text)) == self.reference["digests"][2 * i]

            args = ["detect-correlation", str(path), "--columns", "x,y", "--p", "0.05", "--l", "20"]
            s, written = run_cli(self.srsd, tally, args, self.output, check, f"cli draw {i}")
            seconds.append(s)
            size += written
        return seconds, size

    def freeze(self) -> dict:
        digests: list[str] = []
        self.errors = ([], [])
        for x, y in self.pairs:
            full = self.srsd.run_srsd(x, y, self.params)
            skip = self.srsd.step_skipping_mode(x, y, self.params, skip=("mean", "variance"))
            for mode, res in enumerate((full, skip)):
                digests.append(digest(res))
                self.errors[mode].append(localization_error(res, self.planted, self.n))
        return {"digests": digests, **self.summary()}

    def summary(self) -> dict:
        full, skip = self.errors
        return {
            "hits": sum(e <= 2 for e in full),
            "draws": len(full),
            "median_error_full": float(statistics.median(full)) if full else None,
            "median_error_skip": float(statistics.median(skip)) if skip else None,
        }

    def summary_matches(self) -> bool:
        return all(self.reference[k] == v for k, v in self.summary().items())


class MonitorStream(Workload):
    """One caller feeding white noise point by point to monitor_mean and monitor_variance."""

    name = "monitor_stream"
    why = (
        "streaming API at l = 20: per-call validation and failed-candidate replays set the "
        "tail; a batch-only loop must leave it unchanged, bounded-memory monitors must move it"
    )
    l = 20
    # The batch CLI check costs about two passes.
    passes_per_cli = 4

    def setup(self, srsd, key: int, sizes: dict, work: Path) -> None:
        self.srsd = srsd
        self.params = srsd.DetectionParams(p=0.05, l=self.l)
        rng = np.random.default_rng(seed_for(key, 3))
        count = self.l + sizes["points"]
        self.series = {"mean": rng.standard_normal(count), "variance": rng.standard_normal(count)}
        self.streams = {kind: values[self.l :].tolist() for kind, values in self.series.items()}
        self.csvs = {}
        for kind, values in self.series.items():
            self.csvs[kind] = work / f"monitor_{kind}.csv"
            write_csv(self.csvs[kind], "index,value", [values])
        self.output = work / "monitor.json"
        self.results: dict[str, Any] = {}

    def _stream(self, kind: str, calls_ns: array | None):
        """init on l points, one monitor call per later point, finalize."""
        srsd, l, params = self.srsd, self.l, self.params
        values = self.series[kind]
        if kind == "mean":
            avg_var = srsd.stats.running_avg_variance(values, l)
            state = srsd.mean_shift.init_mean_monitor(values[:l], params, avg_var=avg_var)
            advance, finalize = srsd.mean_shift.monitor_mean, srsd.mean_shift.finalize_mean
        else:
            state = srsd.variance_shift.init_variance_monitor(values[:l], params)
            advance, finalize = srsd.variance_shift.monitor_variance, srsd.variance_shift.finalize_variance
        if calls_ns is None:
            for v in self.streams[kind]:
                advance(state, v, params)
        else:
            clock, append = time.perf_counter_ns, calls_ns.append
            for v in self.streams[kind]:
                start = clock()
                advance(state, v, params)
                append(clock() - start)
        return finalize(values, state)

    def library_pass(self, tally: Tally, calls_ns: array | None) -> float:
        elapsed = 0.0
        for kind in ("mean", "variance"):
            start = time.perf_counter()
            result = tally.attempt(f"{kind} stream", lambda: self._stream(kind, calls_ns))
            elapsed += time.perf_counter() - start
            if result is not None:
                ok = cp_list(result.change_points) == self.reference[kind]
                tally.record(ok, f"{kind} monitor change-points differ")
                self.results[kind] = result
        return elapsed

    def cli_pass(self, tally: Tally) -> tuple[list[float], int]:
        """The batch detectors on the monitored series: the streams must equal them."""
        total, size = 0.0, 0
        for kind, command in (("mean", "detect-mean"), ("variance", "detect-variance")):
            args = [command, str(self.csvs[kind]), "--columns", "value", "--p", "0.05", "--l", str(self.l)]
            check = lambda text, kind=kind: self._equals_batch(kind, json.loads(text))
            seconds, size_k = run_cli(self.srsd, tally, args, self.output, check, f"cli {command}")
            total += seconds
            size += size_k
        return [total], size

    def _equals_batch(self, kind: str, doc: dict) -> bool:
        result = self.results.get(kind)
        if result is None:
            return False
        series_key, trace_key = ("residuals", "rsi") if kind == "mean" else ("normalized", "rssi")
        return (
            cp_list(result.change_points) == self.reference[kind]
            and [asdict(r) for r in result.regimes] == doc["regimes"]
            and [asdict(c) for c in result.change_points] == doc["change_points"]
            and np.array_equal(getattr(result, series_key).values, doc[series_key]["values"])
            and np.array_equal(getattr(result, trace_key), doc[trace_key])
        )

    def freeze(self) -> dict:
        return {kind: cp_list(self._stream(kind, None).change_points) for kind in ("mean", "variance")}

    def summary(self) -> dict:
        return {kind: len(res.change_points) for kind, res in self.results.items()}


WORKLOADS = {w.name: w for w in (PairLong, EnsembleShort, MonitorStream)}


# ---------------------------------------------------------------------------
# Tracing patches: module-level names the layers call through


def _count_points(counts, args, kwargs, result) -> None:
    counts["engine.points_scanned"] += len(args[0])


def _count_step(counts, args, kwargs, result) -> None:
    counts["engine.points_scanned"] += 1
    counts["monitor.change_points"] += result[1].state == "confirmed"


def _counter(name: str) -> Callable:
    def count(counts, args, kwargs, result) -> None:
        counts[name] += len(result.change_points)

    return count


def _count_merge(counts, args, kwargs, result) -> None:
    counts["pipeline.candidates"] += len(result.candidates)
    counts["pipeline.accepted"] += sum(c.accepted for c in result.candidates)


PATCHES = [
    ("srsd.pipeline", "run_srsd", "pipeline.entry", None),
    ("srsd.pipeline", "step_skipping_mode", "pipeline.entry", None),
    ("srsd.pipeline", "estimate_ar1", "prewhiten.estimate_ar1", None),
    ("srsd.pipeline", "prewhiten", "prewhiten.prewhiten", None),
    ("srsd.pipeline", "detect_mean", "mean_shift.detect_mean", _counter("mean_shift.change_points")),
    ("srsd.pipeline", "detect_variance", "variance_shift.detect_variance", _counter("variance_shift.change_points")),
    ("srsd.pipeline", "detect_correlation", "pipeline.detect_correlation", _count_merge),
    ("srsd.pipeline", "sum_diff_channels", "pipeline.sum_diff_channels", None),
    ("srsd.mean_shift", "init_mean_monitor", "mean_shift.init_mean_monitor", _count_points),
    ("srsd.mean_shift", "running_avg_variance", "stats.running_avg_variance", None),
    ("srsd.mean_shift", "student_t_quantile", "stats.quantile", None),
    ("srsd.mean_shift", "monitor_mean", "monitor.advance", _count_step),
    ("srsd.mean_shift", "finalize_mean", "monitor.finalize", None),
    ("srsd.variance_shift", "init_variance_monitor", "variance_shift.init_variance_monitor", _count_points),
    ("srsd.variance_shift", "f_quantile", "stats.quantile", None),
    ("srsd.variance_shift", "monitor_variance", "monitor.advance", _count_step),
    ("srsd.variance_shift", "finalize_variance", "monitor.finalize", None),
    ("srsd.stats", "running_avg_variance", "stats.running_avg_variance", None),
    ("srsd.cli", "main", "cli.main", None),
    ("srsd.cli", "parse_csv", "cli.parse_csv", None),
    ("srsd.cli", "run_srsd", "pipeline.entry", None),
    ("srsd.cli", "detect_mean", "mean_shift.detect_mean", _counter("mean_shift.change_points")),
    ("srsd.cli", "detect_variance", "variance_shift.detect_variance", _counter("variance_shift.change_points")),
    ("srsd.cli", "result_to_json", "cli.result_to_json", None),
    ("srsd.cli", "_single_to_json", "cli.result_to_json", None),
]


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    self_s = tracer.self_seconds()
    spans = tracer.span_counts()
    counts = tracer.counts
    out = {f"{span}.self_s": self_s.get(span, 0.0) for span in LAYER_SPANS}
    points = counts["engine.points_scanned"]
    engine_s = sum(
        self_s.get(span, 0.0)
        for span in ("mean_shift.init_mean_monitor", "variance_shift.init_variance_monitor", "monitor.advance")
    )
    candidates = counts["pipeline.candidates"]
    out.update(
        {
            "stats.quantile.calls": spans["stats.quantile"],
            "engine.points_scanned": points,
            "engine.scan_us_per_point": engine_s / points * 1e6 if points else 0.0,
            "mean_shift.change_points": counts["mean_shift.change_points"],
            "variance_shift.change_points": counts["variance_shift.change_points"],
            "pipeline.candidates": candidates,
            "pipeline.accepted": counts["pipeline.accepted"],
            "pipeline.accept_ratio": counts["pipeline.accepted"] / candidates if candidates else 0.0,
            "cli.json_bytes": counts["cli.json_bytes"],
            "monitor.calls": spans["monitor.advance"],
            "monitor.change_points": counts["monitor.change_points"],
            "trace.spans": len(tracer.spans),
        }
    )
    return out


# ---------------------------------------------------------------------------
# Measurement


def traced_iteration(workload, tally: Tally):
    """One library pass and one CLI pass with every layer traced."""
    tracer = Tracer()
    with tracer.installed(PATCHES):
        with tracer.span("bench.iteration"):
            workload.library_pass(tally, None)
            _, json_bytes = workload.cli_pass(tally)
    tracer.counts["cli.json_bytes"] += json_bytes
    _, start, end, _ = tracer.spans[0]
    return tracer, (end - start) / 1e9


def peak_mib(workload, tally: Tally) -> float:
    """tracemalloc peak of one untimed pass."""
    tracemalloc.start()
    try:
        workload.peak_pass(tally)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure_end_to_end(workload, tally: Tally, seconds: float) -> dict[str, float]:
    """Library passes until the deadline, a CLI pass after every few; tracing off."""
    deadline = time.perf_counter() + seconds
    pass_s: list[float] = []
    per_pass: list[list[float]] = []  # p50, p95, p99 of each pass's call latencies
    cli_s: list[float] = []
    calls = 0
    while True:
        calls_ns = array("q")
        pass_s.append(workload.library_pass(tally, calls_ns))
        per_pass.append(list(np.percentile(np.asarray(calls_ns, dtype=np.int64) / 1e6, [50, 95, 99])))
        calls += len(calls_ns)
        done = time.perf_counter() >= deadline
        if done or len(pass_s) % workload.passes_per_cli == 0:
            cli_s += workload.cli_pass(tally)[0]
        if done:
            break
    # Percentiles are taken per pass and then their median over the passes,
    # so that a burst of host noise during one pass does not set the tail.
    p50, p95, p99 = (float(statistics.median(p[k] for p in per_pass)) for k in range(3))
    return {
        "pass_s": statistics.median(pass_s),
        "call_ms_p50": p50,
        "call_ms_p95": p95,
        "call_ms_p99": p99,
        "cli_s": statistics.median(cli_s),
        "peak_mib": peak_mib(workload, tally),
        "passes": len(pass_s),
        "calls": calls,
        "cli_runs": len(cli_s),
    }


def measure_layers(workload, tally: Tally, seconds: float) -> dict[str, float]:
    """Untraced and traced iterations in turn until the deadline; per-layer numbers."""
    deadline = time.perf_counter() + seconds
    untraced, traced, tracers = [], [], []
    while not traced or time.perf_counter() < deadline:
        start = time.perf_counter()
        workload.library_pass(tally, None)
        workload.cli_pass(tally)
        untraced.append(time.perf_counter() - start)
        tracer, seconds_traced = traced_iteration(workload, tally)
        traced.append(seconds_traced)
        tracers.append(tracer)
    # The traced iteration of median length gives every per-layer number, so
    # its self times add up to trace.traced_s exactly.
    pick = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    metrics: dict[str, float] = layer_metrics(tracers[pick])
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.traced_s"] = traced[pick]
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    metrics["iterations"] = len(traced)
    write_spans(OUT / f"spans-{workload.name}.csv", tracers)
    return metrics


def write_spans(path: Path, tracers) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,index,parent,name,start_ns,end_ns\n")
        for k, tracer in enumerate(tracers):
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(f"{k},{index},{parent},{name},{start},{end}\n")


def set_up(name: str, key: int, size: str, work: Path):
    """Import srsd and build the inputs SETUP_REPEATS times; returns (workload, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        srsd = import_srsd()
        workload = WORKLOADS[name]()
        workload.setup(srsd, key, SIZES[size][name], work)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def environment() -> dict[str, Any]:
    sha = "unknown"  # a checkout without .git; git must not search the directories above
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "srsd").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "platform": platform.platform(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full", perturb=None) -> dict:
    """Set up, measure and check one workload; returns the full record.

    perturb, if given, is called with the imported srsd package after set-up
    and may patch it (the benchmark's own test uses it to break a detection).
    """
    OUT.mkdir(exist_ok=True)
    key = seed % REFERENCE_SEEDS
    workload, setup_s = set_up(name, key, size, OUT)
    workload.reference = load_reference(size, name, key)
    if perturb is not None:
        perturb(workload.srsd)
    tally = Tally()
    measured = (measure_layers if trace else measure_end_to_end)(workload, tally, seconds)
    summary_ok = workload.summary_matches()
    if not summary_ok:
        tally.problems.append(f"ensemble summary {workload.summary()} differs from the reference")
    measured["setup_s"] = setup_s
    names = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": measured.pop(k), "unit": u} for k, u in names.items()}
    result = {
        "correct": tally.failed == 0 and summary_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "reference_key": key,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "samples": measured,
        "failed_share": tally.failed / tally.attempted if tally.attempted else 1.0,
        "problems": tally.problems,
        "summary": workload.summary(),
        "environment": environment(),
    }
    return {"details": details, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "srsd" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no srsd sources under {SRC}; run from a full checkout\n")
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    report(record)
    return 0


def report(record: dict) -> None:
    """Print the details line, then the result as the last line."""
    print(json.dumps(record["details"]))
    print(json.dumps(record["result"]))


if __name__ == "__main__":
    sys.exit(main())
