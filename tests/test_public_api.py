"""The public surface, and the module attributes the traced benchmark wraps."""

import argparse
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import srsd
from srsd import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

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
    "student_t_quantile",
    "f_quantile",
    "running_avg_variance",
    "pearson_r",
    "CorrelationComparison",
    "fisher_compare",
    "fisher_ci",
    "threshold_delta",
    "detect_mean",
    "init_mean_monitor",
    "monitor_mean",
    "finalize_mean",
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

# The parameter names of every public callable but the two error classes, which
# take BaseException's. A removed keyword edits this map; a new one may not
# appear unnoticed either.
PUBLIC_PARAMETERS = {
    "TimeSeries": ["values", "labels", "name"],
    "DetectionParams": ["p", "l", "prewhiten", "m"],
    "Regime": ["start", "end", "kind", "value", "shift_p_value", "ci_low", "ci_high"],
    "ChangePoint": ["index", "index_value", "p_value", "provisional"],
    "MonitorState": [
        "kind",
        "threshold",
        "index_scale",
        "raw",
        "window",
        "pending",
        "change_points",
    ],
    "StepStatus": ["state", "candidate_index", "index_value", "change_point"],
    "student_t_quantile": ["prob", "df"],
    "f_quantile": ["prob", "df1", "df2"],
    "running_avg_variance": ["series", "l"],
    "pearson_r": ["x", "y"],
    "CorrelationComparison": ["r1", "n1", "r2", "n2", "z", "p_value"],
    "fisher_compare": ["r1", "n1", "r2", "n2"],
    "fisher_ci": ["r", "n", "confidence"],
    "threshold_delta": ["params", "avg_var"],
    "detect_mean": ["series", "params"],
    "init_mean_monitor": ["history", "params", "avg_var"],
    "monitor_mean": ["state", "new_value", "params"],
    "finalize_mean": ["series", "state"],
    "critical_variances": ["current_variance", "params"],
    "detect_variance": ["residuals", "params"],
    "init_variance_monitor": ["history", "params"],
    "monitor_variance": ["state", "new_value", "params"],
    "finalize_variance": ["residuals", "state"],
    "Ar1Estimate": ["alpha", "method", "m", "n_subsamples", "alpha_ols", "clamped"],
    "estimate_ar1": ["series", "m", "method"],
    "prewhiten": ["series", "alpha"],
    "CandidateRecord": ["source", "index", "p_value", "accepted"],
    "CorrelationResult": ["regimes", "change_points", "candidates", "sum_channel", "diff_channel"],
    "SrsdResult": [
        "x",
        "y",
        "params",
        "corr_params",
        "skipped",
        "ar1",
        "mean_results",
        "variance_results",
        "correlation",
    ],
    "sum_diff_channels": ["x", "y"],
    "detect_correlation": ["x", "y", "params"],
    "run_srsd": ["x", "y", "params", "corr_params"],
    "step_skipping_mode": ["x", "y", "params", "skip", "corr_params"],
    "RegimeSpec": ["n", "correlation", "x_mean", "y_mean", "x_variance", "y_variance", "seed"],
    "generate_pair": ["spec"],
    "derive_seeds": ["base_seed", "count"],
    "canonical_spec": ["seed"],
    "canonical_fixture": [],
}


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


def test_each_public_object_has_one_name():
    names = {}
    for name in srsd.__all__:
        names.setdefault(id(getattr(srsd, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


# The modules whose __all__ srsd re-exports, in its order.
REEXPORTED = ["core", "stats", "mean_shift", "variance_shift", "pipeline", "synthgen"]


@pytest.mark.parametrize("module_name", REEXPORTED)
def test_star_import_binds_the_module_all_as_srsd_does(module_name):
    namespace = {}
    exec(f"from srsd.{module_name} import *", namespace)
    del namespace["__builtins__"]
    module = importlib.import_module(f"srsd.{module_name}")
    assert sorted(namespace) == sorted(module.__all__)
    assert {name: getattr(srsd, name, None) for name in namespace} == namespace


def test_no_submodule_is_shadowed_by_a_name_srsd_binds():
    submodules = [info.name for info in pkgutil.iter_modules(srsd.__path__)]
    assert "stats" in submodules
    for name in submodules:
        if hasattr(srsd, name):
            assert getattr(srsd, name) is importlib.import_module(f"srsd.{name}"), name


# A module that tests a value's type itself: it imports numbers or names numpy's scalar classes.
TYPE_RULE = re.compile(r"^\s*(import|from)\s+numbers\b|\bnp\.(integer|floating)\b")


_X, _P = np.linspace(-1.0, 1.0, 40), srsd.DetectionParams()
WRONG_TYPES = {
    "detect_mean": (lambda: srsd.detect_mean(_X, None), "params", "NoneType"),
    "run_srsd": (lambda: srsd.run_srsd(_X, _X, _P, corr_params="x"), "corr_params", "str"),
    "monitor_mean": (lambda: srsd.monitor_mean(None, 1.0, _P), "state", "NoneType"),
    "monitor_mean_params": (
        lambda: srsd.monitor_mean(srsd.init_mean_monitor(_X, _P), 1.0, None), "params", "NoneType"
    ),
    "finalize_mean": (lambda: srsd.finalize_mean(_X, None), "state", "NoneType"),
    "generate_pair": (lambda: srsd.generate_pair("spec"), "spec", "str"),
    "step_skipping_mode": (lambda: srsd.step_skipping_mode(_X, _X, _P, skip=5), "skip", "int"),
    "threshold_delta": (lambda: srsd.threshold_delta(None, 1.0), "params", "NoneType"),
    "critical_variances": (lambda: srsd.critical_variances(1.0, None), "params", "NoneType"),
    # A state of another type that has a kind attribute.
    "monitor_mean_regime": (
        lambda: srsd.monitor_mean(srsd.Regime(1, 5, "mean", 0.0), 1.0, _P), "state", "Regime"
    ),
}


@pytest.mark.parametrize("call", WRONG_TYPES)
def test_a_wrong_object_argument_is_named_with_its_type(call):
    run, argument, got = WRONG_TYPES[call]
    with pytest.raises(srsd.ParameterError, match=rf"^{argument} must be of type \w+, got {got}$"):
        run()


def test_type_rules_live_in_core_alone():
    """Only srsd.core decides what an integer or a real number is; other modules call it."""
    hits = [
        f"{path.name}:{number}"
        for path in sorted(Path(srsd.__file__).parent.glob("*.py"))
        if path.name != "core.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if TYPE_RULE.search(line)
    ]
    assert hits == []


# The messages of srsd.core's pair rule (_pair) and length rule (_check_length).
# Each rule's message and the one module that writes it.
MESSAGE_OWNERS = {
    "series lengths differ": "core.py",
    "is shorter than": "core.py",
    "is too small for l=": "stats.py",
}


def test_series_shape_rules_live_in_core_alone():
    """Only each rule's owner writes its message (the pair, the length, the tiny-p rule)."""
    hits = [
        (path.name, message)
        for path in sorted(Path(srsd.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        for message in MESSAGE_OWNERS
        if message in line
    ]
    assert sorted(hits) == sorted((owner, message) for message, owner in MESSAGE_OWNERS.items())


def test_srsd_all_is_the_union_of_its_modules_all():
    names = [n for m in REEXPORTED for n in importlib.import_module(f"srsd.{m}").__all__]
    assert len(set(names)) == len(names)
    assert sorted(srsd.__all__) == sorted(["__version__", *names])


def test_public_parameters_are_frozen():
    parameters = {
        name: list(inspect.signature(obj).parameters)
        for name, obj in ((name, getattr(srsd, name)) for name in srsd.__all__)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert parameters == PUBLIC_PARAMETERS


# srsd.cli's own surface, frozen the same way: its names and their parameters.
CLI_PARAMETERS = {
    "main": ["argv"],
    "parse_csv": ["path", "columns"],
    "result_to_json": ["result"],
    "result_from_json": ["text"],
}


def test_cli_surface_is_frozen():
    assert cli.__all__ == list(CLI_PARAMETERS)
    signatures = {name: inspect.signature(getattr(cli, name)) for name in cli.__all__}
    assert {name: list(sig.parameters) for name, sig in signatures.items()} == CLI_PARAMETERS


def test_every_cli_subcommand_parses_to_a_handler():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert commands.choices
    for name, sub in commands.choices.items():
        # The subcommand and a placeholder for each required argument; parsing reads no file.
        required = [a for a in sub._actions if a.required]
        argv = [name, *(word for a in required for word in (*a.option_strings[:1], "x"))]
        assert callable(getattr(parser.parse_args(argv), "run", None)), name


@pytest.mark.parametrize("module_name, attr", BENCH_PATCHES, ids=[f"{m}.{a}" for m, a in BENCH_PATCHES])
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


def test_cli_import_leaves_scipy_stats_unloaded():
    """A cold `srsd` start pays for scipy.special only, not the scipy.stats import."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, srsd.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
