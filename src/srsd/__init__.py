"""srsd: sequential detection of regime shifts in mean, variance, and correlation.

The detectors scan a series one observation at a time, confirm each candidate
shift over the following cut-off-length window, and can run either in batch
or as streaming monitors. Correlation shifts are detected by running the
variance detector on sum and difference channels of normalized inputs, after
mean and variance shifts have been removed — see `run_srsd`.
"""
from . import core, mean_shift, pipeline, stats, synthgen, variance_shift

__version__ = "0.1.0"

# Each module's __all__ is its public list.
_MODULES = (core, stats, mean_shift, variance_shift, pipeline, synthgen)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]

from .core import *  # noqa: E402,F403
from .stats import *  # noqa: E402,F403
from .mean_shift import *  # noqa: E402,F403
from .variance_shift import *  # noqa: E402,F403
from .pipeline import *  # noqa: E402,F403
from .synthgen import *  # noqa: E402,F403
