"""Tests of the benchmark itself, run at tiny input sizes.

    python3 -m pytest bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def printed_result(record, capsys):
    run.report(record)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = printed_result(run.run(workload, seed=5, seconds=0.1, trace=trace, size="tiny"), capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_a_perturbed_detection_fails_the_reference_check(workload, capsys):
    def halve_mean_threshold(srsd):
        original = srsd.mean_shift.threshold_delta
        srsd.mean_shift.threshold_delta = lambda params, avg_var: 0.5 * original(params, avg_var)

    record = run.run(
        workload, seed=5, seconds=0.1, trace=False, size="tiny", perturb=halve_mean_threshold
    )
    result = printed_result(record, capsys)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert record["details"]["failed_share"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair_long", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
