"""tracemalloc peaks of each phase of the benchmark's memory-bound workloads.

The inputs are the benchmark's own: each workload is set up by
`bench/run.py` (`WORKLOADS[name]().setup(...)`) from the reference key
``--seed % REFERENCE_SEEDS`` at the benchmark size ``--size``, as
`bench/freeze_reference.py` does, so every figure explains the `peak_mib`
that `bench/run.py --seed` reports for the same seed.

`monitor_stream`: for each kind, a monitor seeded on l points and fed the
rest one call at a time, then finalized; the mean monitor's threshold comes
from `running_avg_variance` of the whole series. Tracing starts after the
inputs are built, as in the benchmark's peak pass, so every figure counts
what the library allocates, including the live state and the results that
earlier phases left; the largest is the pass's peak.

`pair_long`: each layer of `run_srsd` runs alone on inputs built untraced,
and its figure is that call's peak.

    python tests/memory_phases.py [--size full|tiny] [--seed 0]

imports srsd from ``src/`` of the checkout it sits in (through
`bench/run.py`'s `import_srsd`) and prints one JSON object of peaks in MiB
(2**20 bytes). The name does not match ``test_*``, so pytest does not
collect it.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402  bench/run.py: the workloads, their sizes and seeds

MIB = 2**20


def _mib(size: int) -> float:
    return round(size / MIB, 3)


def monitor_stream(w) -> dict:
    srsd, l, params = w.srsd, w.l, w.params
    out, results = {}, []
    tracemalloc.start()
    try:
        for kind, values in w.series.items():
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
            for v in w.streams[kind]:
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


def pair_long(w) -> dict:
    srsd, params, x, y = w.srsd, w.params, w.x, w.y
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
        "build_result_mean": lambda: srsd._engine.build_result(srsd._engine.MEAN, xw, mean_state),
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
    parser.add_argument("--size", choices=sorted(run.SIZES), default="full")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    key = args.seed % run.REFERENCE_SEEDS
    srsd = run.import_srsd()
    report = {"unit": "MiB"}
    with tempfile.TemporaryDirectory() as work:  # setup writes the workloads' CSV files
        for name, phases in (("monitor_stream", monitor_stream), ("pair_long", pair_long)):
            w = run.WORKLOADS[name]()
            w.setup(srsd, key, run.SIZES[args.size][name], Path(work))
            report[name] = phases(w)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
