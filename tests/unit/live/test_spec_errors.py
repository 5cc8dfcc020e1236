"""A live spec error is one ``ConfigurationError``, raised before any
worker process is spawned, and the live runtime's stderr narration has
one switch and one format."""

import re

import pytest

import repro.config
import repro.live.deploy as deploy
import repro.live.orchestrator as orchestrator
import repro.live.transport as transport
from repro.errors import ConfigurationError
from repro.live.deploy import LiveSpec


@pytest.fixture
def no_spawning(monkeypatch):
    def spawn(document):
        raise AssertionError(f"worker {document.pid} spawned for a bad spec")

    monkeypatch.setattr(orchestrator, "_spawn_worker", spawn)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(window=0),
        dict(warmup=-1.0),
        dict(size=-1),
        dict(max_batch=0),
        dict(n=1),
        dict(load=0.0),
        dict(zipf_s=-0.5, clients=300),
        dict(fd="oracle"),
        dict(stack="bogus"),
        dict(senders=()),
    ],
    ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()),
)
def test_run_live_refuses_a_bad_spec_before_spawning(no_spawning, overrides):
    with pytest.raises(ConfigurationError):
        deploy.run_live(LiveSpec(**overrides))


@pytest.mark.parametrize("value", [-1, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("name", ["max_unacked", "unordered_cap", "drain"])
def test_caps_and_drain_are_refused_out_of_range_before_spawning(
    no_spawning, name, value
):
    """A negative cap stalls every arrival, a negative drain stops the
    run before its window closes, and a NaN drain never stops it."""
    with pytest.raises(ConfigurationError, match=rf"LiveSpec\.{name} must be >= 0"):
        deploy.run_live(LiveSpec(**{name: value}))


def test_zero_caps_and_drain_stay_legal():
    LiveSpec(max_unacked=0, unordered_cap=0, drain=0.0).validate()


def test_the_spec_is_importable_from_the_live_api_as_before():
    from repro.live.deploy import (  # noqa: F401
        DEFAULT_DRAIN,
        LIVE_DETECTORS,
        matched_run_config,
        run_live,
    )

    assert LiveSpec is repro.config.LiveSpec
    assert matched_run_config is repro.config.matched_run_config
    assert DEFAULT_DRAIN == LiveSpec().drain


@pytest.mark.parametrize("role", ["transport", "worker"])
def test_narration_prints_one_prefixed_line_only_when_switched_on(
    monkeypatch, capsys, role
):
    monkeypatch.setattr(transport, "_TRACE", False)
    transport.narrate(role, 2, "quiet")
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(transport, "_TRACE", True)
    transport.narrate(role, 2, "SYNC_REQ from=7")
    assert re.fullmatch(
        rf"\[{role} 2 t=\d+\.\d{{3}}\] SYNC_REQ from=7\n", capsys.readouterr().err
    )
