"""Unit tests for the statistics helpers."""

import math

import pytest

from repro.errors import MetricsError
from repro.metrics.stats import (
    is_stationary,
    mean,
    mean_confidence_interval,
    relative_difference,
)


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_mean_of_empty_raises():
    with pytest.raises(MetricsError):
        mean([])


def test_confidence_interval_contains_the_mean():
    ci = mean_confidence_interval([10.0, 12.0, 11.0, 9.0])
    assert ci.low <= ci.mean <= ci.high
    assert ci.mean == pytest.approx(10.5)
    assert ci.count == 4
    assert ci.confidence == 0.95


def test_single_observation_has_zero_width():
    ci = mean_confidence_interval([5.0])
    assert ci.mean == 5.0
    assert ci.half_width == 0.0


def test_identical_observations_have_zero_width():
    ci = mean_confidence_interval([3.0, 3.0, 3.0])
    assert ci.half_width == pytest.approx(0.0)


def test_wider_spread_gives_wider_interval():
    narrow = mean_confidence_interval([10.0, 10.1, 9.9])
    wide = mean_confidence_interval([5.0, 15.0, 10.0])
    assert wide.half_width > narrow.half_width


def test_empty_confidence_interval_raises():
    with pytest.raises(MetricsError):
        mean_confidence_interval([])


def test_interval_str_format():
    assert "±" in str(mean_confidence_interval([1.0, 2.0]))


def test_single_observation_str_has_no_interval():
    # "5.000 ± 0.000" would misread as measured zero variance; one
    # sample renders as its value flagged with the ensemble size.
    text = str(mean_confidence_interval([5.0]))
    assert "±" not in text
    assert "n=1" in text
    assert "5.000" in text


def test_nan_mean_renders_as_na_and_keeps_width_finite():
    ci = mean_confidence_interval([float("nan")])
    assert str(ci) == "n/a"
    assert ci.half_width == 0.0


def test_nan_values_in_ensemble_never_produce_nan_width():
    ci = mean_confidence_interval([1.0, float("nan"), 2.0])
    assert ci.half_width == ci.half_width  # not NaN
    assert ci.half_width == 0.0
    assert str(ci) == "n/a"


def test_relative_difference():
    assert relative_difference(100.0, 110.0) == pytest.approx(10 / 110)
    assert relative_difference(0.0, 0.0) == 0.0
    assert relative_difference(-10.0, 10.0) == 2.0


def test_stationarity_accepts_similar_halves():
    assert is_stationary([1.0, 1.1], [1.05, 0.95])


def test_stationarity_rejects_drift():
    assert not is_stationary([1.0, 1.0], [2.0, 2.0])


def test_stationarity_with_insufficient_data_passes():
    assert is_stationary([], [1.0])
    assert is_stationary([1.0], [])


@pytest.mark.parametrize("confidence", [1.25, 1.0, 0.0, -0.5, float("nan")])
def test_confidence_outside_the_open_unit_interval_is_refused(confidence):
    # t.ppf(1.125) is NaN and t.ppf(1.0) is inf: the half-width would
    # stop being "always a finite number". Refused before anything else,
    # even for the inputs that would have returned early, naming the value.
    for values in ([1.0, 2.0], [5.0], []):
        with pytest.raises(MetricsError, match=f"confidence.*{confidence}"):
            mean_confidence_interval(values, confidence=confidence)


#: Student-t 0.975 quantiles as ``float.hex``, taken from scipy at the
#: commit before the import moved into the function: the half-width is
#: this times the standard error, so equal bits here and below mean the
#: lazy import changed no published interval.
T_975 = {
    1: "0x1.96993aacc4d1ep+3",
    2: "0x1.135ea98e146b9p+2",
    9: "0x1.218e5dac50b23p+1",
    29: "0x1.05ca15bce286fp+1",
}


@pytest.mark.parametrize("df", sorted(T_975))
def test_t_quantile_bits_are_pinned(df):
    values = [float(i) for i in range(df + 1)]
    centre = sum(values) / len(values)
    variance = sum((v - centre) ** 2 for v in values) / df
    std_error = math.sqrt(variance / len(values))
    half_width = mean_confidence_interval(values).half_width
    assert half_width == float.fromhex(T_975[df]) * std_error


def test_half_width_bits_are_pinned():
    assert mean_confidence_interval([1.0, 2.0]).half_width.hex() == (
        "0x1.96993aacc4d1ep+2"
    )
    assert mean_confidence_interval([1.0, 2.0, 4.0]).half_width.hex() == (
        "0x1.e5b4e597a0951p+1"
    )
