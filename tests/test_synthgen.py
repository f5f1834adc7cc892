"""Seeded bivariate generator with piecewise mean/variance/correlation."""

import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from srsd import (
    CANONICAL_SEED,
    DataError,
    RegimeSpec,
    canonical_fixture,
    canonical_spec,
    derive_seeds,
    generate_pair,
    pearson_r,
)


def clean_spec(n, rho, seed, **overrides):
    kwargs = dict(
        n=n,
        correlation=((1, rho),),
        x_mean=((1, 0.0),),
        y_mean=((1, 0.0),),
        x_variance=((1, 1.0),),
        y_variance=((1, 1.0),),
        seed=seed,
    )
    kwargs.update(overrides)
    return RegimeSpec(**kwargs)


# ---------------------------------------------------------------------------
# Determinism and seeding


def test_same_seed_reproduces_bitwise():
    spec = clean_spec(500, 0.4, seed=99)
    x1, y1 = generate_pair(spec)
    x2, y2 = generate_pair(clean_spec(500, 0.4, seed=99))
    assert np.array_equal(x1.values, x2.values)
    assert np.array_equal(y1.values, y2.values)
    half = clean_spec(500, Fraction(1, 2), seed=99)  # any real number, stored as its float
    assert half == clean_spec(500, 0.5, seed=99) and type(half.correlation[0][1]) is float


def test_different_seeds_differ():
    x1, _ = generate_pair(clean_spec(100, 0.0, seed=1))
    x2, _ = generate_pair(clean_spec(100, 0.0, seed=2))
    assert not np.array_equal(x1.values, x2.values)


def test_derive_seeds_is_deterministic_and_distinct():
    seeds = derive_seeds(12345, 50)
    assert seeds == derive_seeds(12345, 50)
    assert len(set(seeds)) == 50
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seeds(12346, 50) != seeds


def test_derive_seeds_needs_a_positive_count():
    with pytest.raises(DataError, match="count must be positive, got 0"):
        derive_seeds(0, 0)
    for count in (2.0, True):
        with pytest.raises(DataError, match=rf"^count must be an integer, got {count!r}$"):
            derive_seeds(1, count)


@pytest.mark.parametrize("base_seed", [-1, 2.0, False])
def test_derive_seeds_needs_an_integer_base_seed_of_at_least_zero(base_seed):
    with pytest.raises(DataError, match=rf"^base_seed must be an integer >= 0, got {base_seed!r}$"):
        derive_seeds(base_seed, 3)


# ---------------------------------------------------------------------------
# Segment statistics


def test_segment_statistics_match_spec():
    spec = RegimeSpec(
        n=4000,
        correlation=((1, -0.5), (2001, 0.7)),
        x_mean=((1, 2.0),),
        y_mean=((1, -1.0), (2001, 3.0)),
        x_variance=((1, 4.0),),
        y_variance=((1, 1.0), (2001, 9.0)),
        seed=31415,
    )
    x, y = generate_pair(spec)
    halves = (slice(0, 2000), slice(2000, 4000))
    n = 2000

    for seg, rho in zip(halves, (-0.5, 0.7)):
        r = pearson_r(x.values[seg], y.values[seg])
        assert abs(r - rho) <= 3 * (1 - rho**2) / np.sqrt(n)

    for seg in halves:
        assert abs(x.values[seg].mean() - 2.0) <= 3 * 2.0 / np.sqrt(n)
        assert abs(x.values[seg].var(ddof=1) - 4.0) <= 3 * 4.0 * np.sqrt(2 / n)
    for seg, mu, var in zip(halves, (-1.0, 3.0), (1.0, 9.0)):
        assert abs(y.values[seg].mean() - mu) <= 3 * np.sqrt(var / n)
        assert abs(y.values[seg].var(ddof=1) - var) <= 3 * var * np.sqrt(2 / n)


def test_zero_correlation_empirically_small():
    x, y = generate_pair(clean_spec(10000, 0.0, seed=777))
    assert abs(pearson_r(x.values, y.values)) < 0.1


def test_perfect_correlation_is_degenerate():
    x, y = generate_pair(clean_spec(200, 1.0, seed=5))
    assert np.allclose(x.values, y.values, atol=1e-12)


def test_generated_values_are_finite():
    x, y = generate_pair(clean_spec(300, -0.9, seed=8))
    assert np.all(np.isfinite(x.values))
    assert np.all(np.isfinite(y.values))


# ---------------------------------------------------------------------------
# Spec validation


@pytest.mark.parametrize(
    "overrides",
    [
        {"n": 0},
        {"correlation": ((2, 0.0),)},  # first segment must start at 1
        {"correlation": ((1, 0.0), (30, 0.1), (20, 0.2))},  # not increasing
        {"correlation": ((1, 1.5),)},  # |rho| > 1
        {"x_variance": ((1, 0.0),)},  # sigma^2 must be positive
        {"correlation": ((1, 0.0), (60, 0.1))},  # start beyond n
        {"n": "70"},  # n must be an int, not a string, float, bool or list
        {"n": 70.5},
        {"n": True},
        {"n": [70]},
        {"x_mean": ((1, math.nan),)},  # means must be finite
        {"y_mean": ((1, 0.0), (20, -math.inf))},
        {"x_variance": ((1, math.nan),)},  # variances must be finite too
        {"y_variance": ((1, math.inf),)},
        {"correlation": ((1, 0.2), (20.9, 0.5))},  # starts are integers, not truncated
        {"correlation": ((1, 0.2), ("20", 0.5))},
        {"x_mean": ((True, 0.5),)},
        {"y_mean": ((1, "0.2"),)},  # values are numbers, not strings
        {"x_variance": ((1,),)},  # each segment is a (start, value) pair
        {"correlation": 5},  # segments are a sequence
        {"correlation": ()},  # of at least one pair
        {"seed": -1},  # seeds are integers >= 0, as numpy's generators need
        {"seed": 1.5},
        {"seed": True},
        {"correlation": ((1, "0.5"),)},
    ],
)
def test_invalid_specs_rejected(overrides):
    kwargs = dict(
        n=50,
        correlation=((1, 0.0),),
        x_mean=((1, 0.0),),
        y_mean=((1, 0.0),),
        x_variance=((1, 1.0),),
        y_variance=((1, 1.0),),
        seed=1,
    )
    kwargs.update(overrides)
    (field_name,) = overrides
    with pytest.raises(DataError, match=rf"^{field_name}\b"):
        RegimeSpec(**kwargs)


# ---------------------------------------------------------------------------
# Canonical fixture


def test_canonical_spec_shape():
    spec = canonical_spec()
    assert spec.n == 70
    assert spec.seed == CANONICAL_SEED
    assert spec.correlation == ((1, -0.6), (36, 0.6))
    assert spec.x_mean == ((1, -1.0), (26, 1.0))
    assert spec.y_mean == ((1, 1.0), (41, -1.0))
    assert spec.x_variance == ((1, 1.0), (51, 9.0))
    assert spec.y_variance == ((1, 9.0), (21, 1.0))


def test_fixture_loads_with_expected_labels(canonical):
    x, y, expected = canonical
    assert len(x) == len(y) == 70
    assert x.labels.tolist() == list(range(1, 71))
    assert expected == {
        "x_mean": (26,),
        "y_mean": (41,),
        "x_variance": (51,),
        "y_variance": (21,),
        "correlation": (36,),
    }


def test_fixture_regenerates_from_seed(canonical):
    """The stored CSV is the generator output at 9 significant digits."""
    x, y, _ = canonical
    gx, gy = generate_pair(canonical_spec())
    assert [float(f"{v:.9g}") for v in gx.values] == x.values.tolist()
    assert [float(f"{v:.9g}") for v in gy.values] == y.values.tolist()


def test_fixture_equals_a_literal_read_of_the_packaged_csv(canonical):
    """canonical_fixture reads the CSV through cli.parse_csv; a row-by-row read agrees."""
    text = resources.files("srsd").joinpath("data/canonical_fixture.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0].split(",") == ["index", "x", "y"]
    rows = [line.split(",") for line in lines[1:]]
    columns = [np.array([float(r[k]) for r in rows]) for k in range(3)]
    x, y, _ = canonical
    for series, name, values in ((x, "x", columns[1]), (y, "y", columns[2])):
        assert series.name == name
        assert series.values.tobytes() == values.tobytes()
        assert series.labels.tobytes() == columns[0].tobytes()


def test_fixture_is_cached_consistently():
    a = canonical_fixture()
    b = canonical_fixture()
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
