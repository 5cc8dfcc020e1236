"""Unit tests for faultload schedules: scenarios, generation, JSON."""

import json
import random
from dataclasses import MISSING, fields
from typing import get_args, get_type_hints

import pytest

from repro.config import FaultloadConfig, LinkFaultMode, RunConfig
from repro.errors import ConfigurationError
from repro.nemesis.schedule import (
    SCENARIOS,
    dump_faultload,
    faultload_from_dict,
    faultload_to_dict,
    generate_faultload,
    load_faultload,
    named_scenario,
    resolve_faultload,
)


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_named_scenario_builds_a_valid_run_config(name):
    faultload = named_scenario(name, n=3)
    RunConfig(n=3, faultload=faultload)  # __post_init__ validates


def test_unknown_scenario_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown faultload scenario"):
        named_scenario("kitchen-sink")


def test_generation_is_deterministic_in_the_rng_state():
    a = generate_faultload(random.Random(42), n=3)
    b = generate_faultload(random.Random(42), n=3)
    assert a == b


def test_generated_schedules_respect_the_system_model():
    for seed in range(60):
        faultload = generate_faultload(random.Random(seed), n=5)
        # Validates bounds, group membership, minority crashes...
        RunConfig(n=5, faultload=faultload)
        # ...and the swarm promise: only quasi-reliable (HOLD) link
        # faults, so liveness stays checkable.
        assert faultload.liveness_safe
        assert len(faultload.crashed_processes()) <= 2
        for partition in faultload.partitions:
            assert partition.mode is LinkFaultMode.HOLD


def test_benign_only_schedules_contain_only_delay_spikes():
    for seed in range(20):
        faultload = generate_faultload(random.Random(seed), n=3, benign_only=True)
        assert not faultload.crashes
        assert not faultload.partitions
        assert not faultload.loss_bursts
        assert not faultload.wrong_suspicions


def test_faultload_json_round_trip_is_lossless():
    faultload = named_scenario("churn", n=3)
    assert faultload_from_dict(faultload_to_dict(faultload)) == faultload
    generated = generate_faultload(random.Random(7), n=3)
    assert faultload_from_dict(faultload_to_dict(generated)) == generated


def test_faultload_file_round_trip(tmp_path):
    faultload = named_scenario("rolling-partition", n=3)
    path = tmp_path / "fl.json"
    dump_faultload(faultload, path)
    assert load_faultload(path) == faultload


def test_resolve_faultload_accepts_scenario_name_or_json_path(tmp_path):
    assert resolve_faultload("coordinator-crash") == named_scenario(
        "coordinator-crash"
    )
    path = tmp_path / "fl.json"
    dump_faultload(named_scenario("lossy-link"), path)
    assert resolve_faultload(str(path)) == named_scenario("lossy-link")
    with pytest.raises(ConfigurationError, match="neither a named scenario"):
        resolve_faultload("no-such-thing")


# -- one declaration per fault event ----------------------------------------

#: A non-default value for every declared field type. A field of a new
#: type fails here (KeyError) until it has a row in the schedule
#: module's checker table too.
SAMPLES = {
    "float": 0.375,
    "int": 1,
    "int | None": 2,
    "LinkFaultMode": LinkFaultMode.DROP,
    "tuple[tuple[int, ...], ...]": ((0,), (1, 2)),
}


def _sample(cls):
    return cls(**{f.name: SAMPLES[f.type] for f in fields(cls)})


def _event_classes():
    hints = get_type_hints(FaultloadConfig)
    return [(kind.name, get_args(hints[kind.name])[0]) for kind in fields(FaultloadConfig)]


@pytest.mark.parametrize("name,cls", _event_classes())
def test_every_field_of_every_event_survives_the_json_round_trip(name, cls):
    event = _sample(cls)
    for f in fields(cls):
        assert getattr(event, f.name) != f.default  # or the default could hide a loss
    faultload = FaultloadConfig(**{name: (event,)})
    document = json.loads(json.dumps(faultload_to_dict(faultload)))
    assert set(document[name][0]) == {f.name for f in fields(cls)}
    assert faultload_from_dict(document) == faultload


@pytest.mark.parametrize("name,cls", _event_classes())
def test_a_missing_required_key_names_the_entry_and_the_key(name, cls):
    event = _sample(cls)
    document = faultload_to_dict(FaultloadConfig(**{name: (event,)}))
    required = [f.name for f in fields(cls) if f.default is MISSING]
    assert required
    for key in required:
        broken = json.loads(json.dumps(document))
        del broken[name][0][key]
        with pytest.raises(ConfigurationError) as caught:
            faultload_from_dict(broken)
        assert f"{name}[0]" in str(caught.value) and repr(key) in str(caught.value)
    # Optional keys may be left out and take the dataclass's default.
    sparse = {name: [{key: document[name][0][key] for key in required}]}
    (restored,) = getattr(faultload_from_dict(sparse), name)
    for f in fields(cls):
        if f.default is not MISSING:
            assert getattr(restored, f.name) == f.default


def test_faultload_helpers_cover_every_event_list():
    everything = FaultloadConfig(
        **{name: (_sample(cls),) for name, cls in _event_classes()}
    )
    assert len(everything.events()) == len(fields(FaultloadConfig))
    assert not everything.is_empty and FaultloadConfig().is_empty
    remaining = everything
    for event in everything.events():
        remaining = remaining.without(event)
        assert event not in remaining.events()
    assert remaining == FaultloadConfig()
