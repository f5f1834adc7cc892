"""`memory_phases.py` runs on the benchmark's own inputs and reports every phase.

The tool runs in a subprocess: `bench/run.py`'s `import_srsd` drops and
re-imports srsd, which would leave the other tests of this process patching a
module that the package no longer is.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "memory_phases.py"

PAIR_LONG_LAYERS = {
    "estimate_ar1",
    "prewhiten",
    "running_avg_variance",
    "init_mean_monitor",
    "build_result_mean",
    "detect_mean",
    "detect_variance",
    "sum_diff_channels",
    "detect_variance_sum_channel",
    "detect_correlation",
    "run_srsd",
}


def test_every_phase_reports_a_positive_peak_in_mib():
    cmd = [sys.executable, str(TOOL), "--size", "tiny", "--seed", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report.pop("unit") == "MiB"
    monitor, pair = report.pop("monitor_stream"), report.pop("pair_long")
    assert report == {}
    assert {kind: set(phases) for kind, phases in monitor.items()} == {
        "mean": {"running_avg_variance", "stream", "finalize"},
        "variance": {"stream", "finalize"},
    }
    assert set(pair) == PAIR_LONG_LAYERS
    for peak in [*monitor["mean"].values(), *monitor["variance"].values(), *pair.values()]:
        assert isinstance(peak, float) and peak > 0.0
