"""Shared fixtures: the frozen canonical pair and its full pipeline run."""

import platform

import pytest

import srsd


def pytest_report_header(config):
    """Name the interpreter and its float sum: the corpora and JSON digests pin its bits.

    CPython 3.12 made the builtin sum of floats compensated, which moves the
    last bits of some results that the frozen corpora and digests hold.
    """
    compensated = sum([0.1] * 10) == 1.0
    return f"python {platform.python_version()}, builtin float sum compensated: {compensated}"


@pytest.fixture(scope="session")
def canonical():
    """(x, y, expected change-point labels) for the frozen fixture."""
    return srsd.canonical_fixture()


@pytest.fixture(scope="session")
def canonical_result(canonical):
    x, y, _ = canonical
    return srsd.run_srsd(x, y)
