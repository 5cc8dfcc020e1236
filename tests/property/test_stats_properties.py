"""Property-based tests for the statistics helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.stats import (
    is_stationary,
    mean,
    mean_confidence_interval,
    relative_difference,
)

# The first interval of a process pays scipy's lazy import (~1 s), which
# would blow the first example's 200 ms deadline when this file runs on
# its own; pay it here instead.
mean_confidence_interval([0.0, 1.0])

values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=100,
)


@given(values)
def test_mean_is_within_min_max(samples):
    m = mean(samples)
    assert min(samples) - 1e-9 <= m <= max(samples) + 1e-9


@given(values)
def test_ci_is_symmetric_and_contains_mean(samples):
    ci = mean_confidence_interval(samples)
    assert ci.half_width >= 0
    assert ci.low <= ci.mean <= ci.high
    scale = max(1.0, abs(ci.mean), ci.half_width)
    assert abs((ci.mean - ci.low) - (ci.high - ci.mean)) <= 1e-9 * scale


@given(values)
def test_ci_of_constant_shift(samples):
    """Shifting all samples shifts the mean, not the width."""
    base = mean_confidence_interval(samples)
    shifted = mean_confidence_interval([v + 10.0 for v in samples])
    assert shifted.mean - base.mean == abs(shifted.mean - base.mean)
    assert abs(shifted.half_width - base.half_width) < max(
        1e-6, 1e-9 * abs(base.mean)
    )


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_relative_difference_is_symmetric_and_bounded(a, b):
    d = relative_difference(a, b)
    assert d == relative_difference(b, a)
    assert d >= 0


@given(values)
def test_identical_halves_are_stationary(samples):
    assert is_stationary(samples, list(samples))
