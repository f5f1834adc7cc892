"""tracemalloc peaks of each phase of the benchmark's memory-bound workloads.

`monitor_stream` (see `bench/run.py`): for each kind, a monitor seeded on
l = 20 points and fed the rest one call at a time, then finalized; the mean
monitor's threshold comes from `running_avg_variance` of the whole series.
Tracing starts after the inputs are built, as in the benchmark's peak pass,
so every figure counts what the library allocates, including the live state
and the results that earlier phases left; the largest is the pass's peak.

`pair_long`: one planted-regime red-noise pair of n = 10 000 at l = 80 with
ip4 prewhitening; each layer of `run_srsd` runs alone on inputs built
untraced, and its figure is that call's peak.

    python tests/memory_phases.py [--points 100000] [--seed 0]

imports srsd from ``src/`` of the checkout it sits in and prints one JSON
object of peaks in MiB (2**20 bytes). The name does not match ``test_*``,
so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.signal

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import srsd  # noqa: E402
from srsd import _engine  # noqa: E402

MIB = 2**20


def _mib(size: int) -> float:
    return round(size / MIB, 3)


def monitor_stream(points: int, seed: int) -> dict:
    l = 20
    params = srsd.DetectionParams(p=0.05, l=l)
    rng = np.random.default_rng(seed)
    series = {kind: rng.standard_normal(l + points) for kind in ("mean", "variance")}
    streams = {kind: values[l:].tolist() for kind, values in series.items()}
    out, results = {}, []
    tracemalloc.start()
    try:
        for kind, values in series.items():
            phases = out[kind] = {}
            tracemalloc.reset_peak()
            if kind == "mean":
                avg_var = srsd.running_avg_variance(values, l)
                phases["running_avg_variance"] = _mib(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                state = srsd.init_mean_monitor(values[:l], params, avg_var=avg_var)
                step, finalize = srsd.monitor_mean, srsd.finalize_mean
            else:
                state = srsd.init_variance_monitor(values[:l], params)
                step, finalize = srsd.monitor_variance, srsd.finalize_variance
            for v in streams[kind]:
                step(state, v, params)
            phases["stream"] = _mib(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            # The benchmark keeps each result, so the variance phases count the mean's.
            results.append(finalize(values, state))
            phases["finalize"] = _mib(tracemalloc.get_traced_memory()[1])
            del state
    finally:
        tracemalloc.stop()
    return out


def _peak(call) -> float:
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        del result
    finally:
        tracemalloc.stop()
    return _mib(peak)


def pair_long(seed: int) -> dict:
    n, alpha = 10_000, 0.3
    params = srsd.DetectionParams(p=0.05, l=80, prewhiten="ip4", m=10)
    spec = srsd.RegimeSpec(
        n=n,
        correlation=((1, 0.6), (n // 2 + 1, -0.2)),
        x_variance=((1, 1.0), (2 * n // 5 + 1, 4.0)),
        y_variance=((1, 4.0), (3 * n // 4 + 1, 1.0)),
        seed=seed,
    )
    x, y = srsd.generate_pair(spec)
    index = np.arange(1, n + 1)
    red = [scipy.signal.lfilter([1.0], [1.0, -alpha], s.values) for s in (x, y)]
    x = srsd.TimeSeries(red[0] + np.where(index > n // 4, 1.0, 0.0), labels=x.labels, name="x")
    y = srsd.TimeSeries(red[1] + np.where(index > 13 * n // 20, -2.0, 0.0), labels=y.labels, name="y")

    est = srsd.estimate_ar1(x, params.m, params.prewhiten)
    xw = srsd.prewhiten(x, est.alpha)
    yw = srsd.prewhiten(y, srsd.estimate_ar1(y, params.m, params.prewhiten).alpha)
    mean_x = srsd.detect_mean(xw, params)
    mean_state = srsd.init_mean_monitor(xw, params)
    var_x = srsd.detect_variance(mean_x.residuals, params)
    var_y = srsd.detect_variance(srsd.detect_mean(yw, params).residuals, params)
    total, _ = srsd.sum_diff_channels(var_x.normalized, var_y.normalized)
    layers = {
        "estimate_ar1": lambda: srsd.estimate_ar1(x, params.m, params.prewhiten),
        "prewhiten": lambda: srsd.prewhiten(x, est.alpha),
        "running_avg_variance": lambda: srsd.running_avg_variance(xw, params.l),
        "init_mean_monitor": lambda: srsd.init_mean_monitor(xw, params),
        "build_result_mean": lambda: _engine.build_result(_engine.MEAN, xw, mean_state),
        "detect_mean": lambda: srsd.detect_mean(xw, params),
        "detect_variance": lambda: srsd.detect_variance(mean_x.residuals, params),
        "sum_diff_channels": lambda: srsd.sum_diff_channels(var_x.normalized, var_y.normalized),
        "detect_variance_sum_channel": lambda: srsd.detect_variance(total, params),
        "detect_correlation": lambda: srsd.detect_correlation(var_x.normalized, var_y.normalized, params),
        "run_srsd": lambda: srsd.run_srsd(x, y, params),
    }
    return {name: _peak(call) for name, call in layers.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    report = {
        "unit": "MiB",
        "monitor_stream": monitor_stream(args.points, args.seed),
        "pair_long": pair_long(args.seed),
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
