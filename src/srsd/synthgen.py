"""Seeded generation of bivariate series with known mean/variance/correlation regimes.

Composition order per index: the correlation structure is built first from
two independent standard normal draws (v = rho * z1 + sqrt(1 - rho^2) * z2),
then each component is scaled by its regime standard deviation, then the
regime mean is added. Randomness comes from numpy's default PCG64 generator
(`numpy.random.default_rng(seed)`); the two driver rows are drawn in one
`standard_normal((2, n))` call. Ensemble runs derive per-run seeds with
`derive_seeds`, which hashes the base seed through `numpy.random.SeedSequence`.

The canonical fixture is a frozen realization stored as CSV inside the
package; the CSV (not the seed) is the ground truth, so it survives RNG
implementation changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from .core import DataError, TimeSeries, _check_int, _check_real, _check_type

__all__ = [
    "RegimeSpec",
    "generate_pair",
    "derive_seeds",
    "canonical_spec",
    "canonical_fixture",
    "CANONICAL_SEED",
]

Segments = tuple[tuple[int, float], ...]
_SEGMENT_FIELDS = ("correlation", "x_mean", "y_mean", "x_variance", "y_variance")  # of RegimeSpec

# Seed of the frozen canonical fixture (see data/canonical_fixture.csv).
CANONICAL_SEED = 4580


def _normalize_segments(segments: Sequence[tuple[int, float]], what: str) -> Segments:
    if not isinstance(segments, (tuple, list)):
        raise DataError(f"{what}: segments must be a sequence of (start, value) pairs")
    segs = []
    for item in segments:
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise DataError(f"{what}: segment {item!r} is not a (start, value) pair")
        start, value = item
        start = _check_int(start, f"{what}: segment start", error=DataError)
        segs.append((start, _check_real(value, f"{what} at {start}", error=DataError)))
    if not segs:
        raise DataError(f"{what}: at least one segment is required")
    if segs[0][0] != 1:
        raise DataError(f"{what}: first segment must start at 1, got {segs[0][0]}")
    starts = [s for s, _ in segs]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise DataError(f"{what}: segment starts must be strictly increasing")
    return tuple(segs)


@dataclass(frozen=True)
class RegimeSpec:
    """Piecewise-constant description of a synthetic bivariate pair.

    Each segment list holds (start_index, value) pairs; a segment runs from
    its start to the next segment's start (exclusive), the last one to n.
    """

    n: int
    correlation: Segments
    x_mean: Segments = ((1, 0.0),)
    y_mean: Segments = ((1, 0.0),)
    x_variance: Segments = ((1, 1.0),)
    y_variance: Segments = ((1, 1.0),)
    seed: int = 0

    def __post_init__(self):
        _check_int(self.n, "n", 1, error=DataError)
        _check_int(self.seed, "seed", 0, error=DataError)
        for field_name in _SEGMENT_FIELDS:
            segs = _normalize_segments(getattr(self, field_name), field_name)
            object.__setattr__(self, field_name, segs)
            if segs[-1][0] > self.n:
                raise DataError(f"{field_name}: segment start {segs[-1][0]} exceeds n={self.n}")
        for start, rho in self.correlation:
            if not -1.0 <= rho <= 1.0:
                raise DataError(f"correlation at {start} must lie in [-1, 1], got {rho}")
        for field_name in _SEGMENT_FIELDS[-2:]:  # the variances
            for start, var in getattr(self, field_name):
                _check_real(var, f"{field_name} at {start}", 0, math.inf, DataError)


def _expand(segments: Segments, n: int) -> np.ndarray:
    """Each segment's value repeated over its span, as core._stepwise repeats regimes'."""
    starts, values = zip(*segments)
    return np.repeat(np.array(values, dtype=float), np.diff([*starts, n + 1]))


def generate_pair(spec: RegimeSpec) -> tuple[TimeSeries, TimeSeries]:
    """Draw one realization of the spec; deterministic in spec.seed."""
    rng = np.random.default_rng(_check_type(spec, RegimeSpec, "spec").seed)
    z = rng.standard_normal((2, spec.n))
    rho = _expand(spec.correlation, spec.n)
    u = z[0]
    v = rho * z[0] + np.sqrt(1.0 - rho * rho) * z[1]
    x = _expand(spec.x_mean, spec.n) + np.sqrt(_expand(spec.x_variance, spec.n)) * u
    y = _expand(spec.y_mean, spec.n) + np.sqrt(_expand(spec.y_variance, spec.n)) * v
    labels = np.arange(1, spec.n + 1, dtype=float)
    return (
        TimeSeries(x, labels=labels, name="x"),
        TimeSeries(y, labels=labels, name="y"),
    )


def derive_seeds(base_seed: int, count: int) -> list[int]:
    """Independent per-run seeds for ensembles, split from one base seed."""
    _check_int(count, "count", 1, error=DataError)
    _check_int(base_seed, "base_seed", 0, error=DataError)
    state = np.random.SeedSequence(base_seed).generate_state(count, np.uint64)
    return [int(s) for s in state]


def canonical_spec(seed: int = CANONICAL_SEED) -> RegimeSpec:
    """The toolkit's reference scenario: 70 points, five planted shifts.

    Correlation flips from -0.6 to +0.6 at index 36; x variance rises 1 -> 9
    at 51 while y variance falls 9 -> 1 at 21; x mean steps -1 -> +1 at 26
    and y mean steps +1 -> -1 at 41.
    """
    return RegimeSpec(
        n=70,
        correlation=((1, -0.6), (36, 0.6)),
        x_mean=((1, -1.0), (26, 1.0)),
        y_mean=((1, 1.0), (41, -1.0)),
        x_variance=((1, 1.0), (51, 9.0)),
        y_variance=((1, 9.0), (21, 1.0)),
        seed=seed,
    )


def canonical_fixture() -> tuple[TimeSeries, TimeSeries, dict[str, tuple[int, ...]]]:
    """The frozen canonical realization and its planted change-points.

    Reads the CSV shipped with the package (written by the `generate` CLI
    command from `canonical_spec()`) with the CLI's own reader, so results
    are reproducible even if the RNG stream ever changes. The change-points
    are the segment starts after the first of each field of `canonical_spec()`.
    """
    from .cli import parse_csv  # cli imports this module, so not at module level

    with resources.as_file(resources.files("srsd") / "data/canonical_fixture.csv") as path:
        x, y = parse_csv(str(path), ["x", "y"])
    spec = canonical_spec()
    return x, y, {f: tuple(start for start, _ in getattr(spec, f)[1:]) for f in _SEGMENT_FIELDS}
