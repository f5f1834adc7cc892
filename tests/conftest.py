"""Shared fixtures: the frozen canonical pair and its full pipeline run."""

import platform

import numpy as np
import pytest
import scipy

import srsd


def pytest_report_header(config):
    """Name Python, its float sum, numpy and scipy: the corpora and JSON digests pin their bits.

    CPython 3.12 made the builtin sum of floats compensated, which moves the
    last bits of some results that the frozen corpora and digests hold; they
    also hold the bits of numpy reductions and scipy.special kernels.
    """
    compensated = sum([0.1] * 10) == 1.0
    return (
        f"python {platform.python_version()}, builtin float sum compensated: {compensated}, "
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
