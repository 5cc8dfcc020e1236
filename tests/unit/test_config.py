"""Unit tests for configuration validation and helpers."""

import math
from dataclasses import fields, is_dataclass

import pytest

import repro.config
from repro.config import (
    CpuCosts,
    CrashEvent,
    FaultloadConfig,
    FlowControlConfig,
    LiveSpec,
    RunConfig,
    StackKind,
    WorkloadConfig,
    modular_stack,
    monolithic_stack,
)
from repro.errors import ConfigurationError


def test_defaults_build_a_valid_config():
    config = RunConfig()
    assert config.n == 3
    assert config.total_time == config.warmup + config.duration


def test_group_size_must_be_at_least_two():
    with pytest.raises(ConfigurationError):
        RunConfig(n=1)


def test_duration_must_be_positive():
    with pytest.raises(ConfigurationError):
        RunConfig(duration=0.0)


def test_warmup_may_be_zero_but_not_negative():
    assert RunConfig(warmup=0.0).warmup == 0.0
    with pytest.raises(ConfigurationError):
        RunConfig(warmup=-0.1)


def test_workload_validation():
    with pytest.raises(ConfigurationError):
        WorkloadConfig(offered_load=0.0)
    with pytest.raises(ConfigurationError):
        WorkloadConfig(message_size=-1)


def test_per_process_rate_splits_offered_load():
    workload = WorkloadConfig(offered_load=3000.0)
    assert workload.per_process_rate(3) == 1000.0


def test_flow_control_validation():
    with pytest.raises(ConfigurationError):
        FlowControlConfig(window=0)
    with pytest.raises(ConfigurationError):
        FlowControlConfig(max_batch=0)
    assert FlowControlConfig(max_batch=None).max_batch is None


def test_crash_targets_must_exist():
    faultload = FaultloadConfig(crashes=(CrashEvent(0.1, 5),))
    with pytest.raises(ConfigurationError):
        RunConfig(n=3, faultload=faultload)


def test_majority_must_stay_correct():
    faultload = FaultloadConfig(crashes=(CrashEvent(0.1, 0), CrashEvent(0.2, 1)))
    with pytest.raises(ConfigurationError):
        RunConfig(n=3, faultload=faultload)
    # One crash out of three is fine.
    RunConfig(n=3, faultload=FaultloadConfig(crashes=(CrashEvent(0.1, 0),)))


def test_with_changes_replaces_fields():
    config = RunConfig()
    changed = config.with_changes(n=5, duration=9.0)
    assert changed.n == 5
    assert changed.duration == 9.0
    assert config.n == 3  # original untouched


def test_stack_constructors():
    assert modular_stack().kind is StackKind.MODULAR
    assert monolithic_stack().kind is StackKind.MONOLITHIC


def test_send_cost_serializes_only_first_copy():
    costs = CpuCosts(
        send_fixed=1e-6, send_per_byte=1e-9, serialize_per_byte=10e-9
    )
    first = costs.send_cost(1000, first_copy=True)
    later = costs.send_cost(1000, first_copy=False)
    assert first == pytest.approx(1e-6 + 1e-6 + 10e-6)
    assert later == pytest.approx(1e-6 + 1e-6)


def test_recv_cost_scales_with_size():
    costs = CpuCosts(recv_fixed=1e-6, recv_per_byte=1e-9)
    assert costs.recv_cost(0) == pytest.approx(1e-6)
    assert costs.recv_cost(1000) == pytest.approx(2e-6)


def test_crashed_processes_set():
    faultload = FaultloadConfig(crashes=(CrashEvent(0.1, 2), CrashEvent(0.5, 2)))
    assert faultload.crashed_processes() == frozenset({2})


# -- declared bounds ----------------------------------------------------------


def _declared_bounds():
    """Every ``(class, field, op, bound)`` a config dataclass declares."""
    for cls in vars(repro.config).values():
        if isinstance(cls, type) and is_dataclass(cls):
            for f in fields(cls):
                for op, bound in f.metadata.get("bounds", ()):
                    yield pytest.param(
                        cls, f, op, bound, id=f"{cls.__name__}.{f.name}{op}{bound}"
                    )


def _build(cls, name, value):
    """*cls* with one field set, checked (a live spec checks on validate)."""
    instance = cls(**{name: value})
    if isinstance(instance, LiveSpec):
        instance.validate()
    return instance


def test_the_single_field_ranges_are_declared():
    assert len(list(_declared_bounds())) >= 17


@pytest.mark.parametrize("cls,f,op,bound", _declared_bounds())
def test_every_declared_bound_bites(cls, f, op, bound):
    kind = type(f.default)
    where = rf"{cls.__name__}\.{f.name} must be"
    if op == ">":
        with pytest.raises(ConfigurationError, match=where):
            _build(cls, f.name, kind(bound))
    else:
        assert getattr(_build(cls, f.name, kind(bound)), f.name) == bound
    below = op in (">", ">=")  # the refused side of the bound
    if kind is int:
        beyond = bound - 1 if below else bound + 1
    else:
        beyond = math.nextafter(float(bound), -math.inf if below else math.inf)
    with pytest.raises(ConfigurationError, match=where):
        _build(cls, f.name, beyond)
    if kind is float:
        with pytest.raises(ConfigurationError, match=where):
            _build(cls, f.name, math.nan)


def test_a_range_error_names_the_class_and_field():
    with pytest.raises(ConfigurationError) as caught:
        WorkloadConfig(offered_load=0.0)
    assert str(caught.value) == "WorkloadConfig.offered_load must be > 0: 0.0"


@pytest.mark.parametrize("name", ["fd", "client_arrival"])
def test_a_live_spec_label_outside_its_declared_choices_is_refused(name):
    with pytest.raises(ConfigurationError, match=rf"LiveSpec\.{name} must be one of"):
        LiveSpec(**{name: "bogus"}).validate()


def test_live_spec_validation_is_the_run_configs():
    # Shared knobs are checked once, by the RunConfig the spec maps to.
    with pytest.raises(ConfigurationError, match=r"FlowControlConfig\.window"):
        LiveSpec(window=0).validate()
    with pytest.raises(ConfigurationError, match="cannot cover n=3"):
        LiveSpec(clients=2).validate()
    with pytest.raises(ConfigurationError, match=r"LiveSpec\.senders"):
        LiveSpec(senders=(0, 3)).validate()
    LiveSpec(senders=(2,), clients=3).validate()
