"""Shared fixtures: the frozen canonical pair and its full pipeline run."""

import platform

import numpy as np
import pytest
import scipy

import srsd
from srsd import _engine


def pytest_report_header(config):
    """Name Python, the scan's window sum, numpy and scipy: the corpora and JSON digests pin bits.

    The scan adds each window left to right on every interpreter: with the
    builtin sum where it does so (before Python 3.12), else with a reduce. The
    corpora and digests also hold the bits of numpy reductions and
    scipy.special kernels.
    """
    rule = "builtin sum" if _engine._window_sum is sum else "reduce(operator.add)"
    return (
        f"python {platform.python_version()}, window sum: {rule}, "
        f"numpy {np.__version__}, scipy {scipy.__version__}"
    )


@pytest.fixture(scope="session")
def canonical():
    """(x, y, expected change-point labels) for the frozen fixture."""
    return srsd.canonical_fixture()


@pytest.fixture(scope="session")
def canonical_result(canonical):
    x, y, _ = canonical
    return srsd.run_srsd(x, y)
