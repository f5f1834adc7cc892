"""The public surface, and the module attributes the traced benchmark wraps."""

import importlib
import importlib.util
import os
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import srsd

BENCH = Path(__file__).resolve().parents[1] / "bench"

# The surface may shrink, which edits this list; it may not grow unnoticed.
PUBLIC_NAMES = [
    "__version__",
    "TimeSeries",
    "DetectionParams",
    "Regime",
    "ChangePoint",
    "MonitorState",
    "StepStatus",
    "ParameterError",
    "DataError",
    "validate_params",
    "regimes_to_stepwise",
    "student_t_quantile",
    "f_quantile",
    "running_avg_variance",
    "pearson_r",
    "CorrelationComparison",
    "fisher_compare",
    "fisher_ci",
    "first_differences",
    "MeanShiftResult",
    "threshold_delta",
    "detect_mean",
    "init_mean_monitor",
    "monitor_mean",
    "finalize_mean",
    "VarianceShiftResult",
    "critical_variances",
    "detect_variance",
    "init_variance_monitor",
    "monitor_variance",
    "finalize_variance",
    "Ar1Estimate",
    "estimate_ar1",
    "prewhiten",
    "CandidateRecord",
    "CorrelationResult",
    "SrsdResult",
    "sum_diff_channels",
    "detect_correlation",
    "run_srsd",
    "step_skipping_mode",
    "RegimeSpec",
    "generate_pair",
    "derive_seeds",
    "canonical_spec",
    "canonical_fixture",
    "CANONICAL_SEED",
]


def load_bench_patches():
    """The (module, attribute, span, counting) list of bench/run.py, imported from it."""
    environ = dict(os.environ)  # run.py pins the BLAS thread count on import
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("srsd_bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop("srsd_bench_run", None)
        sys.path.remove(str(BENCH))
        os.environ.clear()
        os.environ.update(environ)
    return [(module_name, attr) for module_name, attr, _, _ in module.PATCHES]


BENCH_PATCHES = load_bench_patches()


@pytest.mark.parametrize("name", srsd.__all__)
def test_every_public_name_imports(name):
    namespace = {}
    exec(f"from srsd import {name}", namespace)
    assert namespace[name] is getattr(srsd, name)


def test_public_surface_is_frozen():
    assert len(set(srsd.__all__)) == len(srsd.__all__)
    assert sorted(srsd.__all__) == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("module_name, attr", BENCH_PATCHES, ids="{0[0]}.{0[1]}".format)
def test_bench_patch_target_is_a_module_global(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(vars(module).get(attr))


def exercise_the_bench_call_paths(tmp_path):
    """Run each layer the way the benchmark's three workloads do, on the fixture."""
    x, y, _ = srsd.canonical_fixture()
    params = srsd.DetectionParams(p=0.05, l=20)
    srsd.pipeline.run_srsd(x, y, srsd.DetectionParams(p=0.05, l=20, prewhiten="ip4", m=10))
    srsd.pipeline.step_skipping_mode(x, y, params, skip=("mean", "variance"))

    values = np.asarray(x.values)
    avg_var = srsd.stats.running_avg_variance(values, params.l)
    state = srsd.mean_shift.init_mean_monitor(values[: params.l], params, avg_var=avg_var)
    for v in values[params.l :]:
        srsd.mean_shift.monitor_mean(state, float(v), params)
    srsd.mean_shift.finalize_mean(values, state)
    state = srsd.variance_shift.init_variance_monitor(values[: params.l], params)
    for v in values[params.l :]:
        srsd.variance_shift.monitor_variance(state, float(v), params)
    srsd.variance_shift.finalize_variance(values, state)

    csv = tmp_path / "canonical.csv"
    csv.write_bytes(resources.files("srsd").joinpath("data/canonical_fixture.csv").read_bytes())
    out = str(tmp_path / "out.json")
    for command, columns in (
        ("detect-correlation", "x,y"),
        ("detect-mean", "x"),
        ("detect-variance", "x"),
    ):
        assert srsd.cli.main([command, str(csv), "--columns", columns, "--output", out]) == 0


def test_bench_patch_targets_are_called_through_their_globals(tmp_path, monkeypatch):
    """Each wrapped name is looked up at call time, so the traced run sees every layer."""
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr in BENCH_PATCHES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting((module_name, attr), getattr(module, attr)))
    exercise_the_bench_call_paths(tmp_path)
    assert [key for key in BENCH_PATCHES if calls[key] == 0] == []
