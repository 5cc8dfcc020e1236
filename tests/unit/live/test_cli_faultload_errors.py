"""CLI rejection of malformed --faultload / --replay documents.

Every malformed input must exit with status 2 and an ``error:`` line
that names the offending field — not a traceback, and never a partial
deployment.
"""

import json
from dataclasses import fields

import pytest

from repro.cli import main
from repro.config import (
    CrashEvent,
    DelaySpike,
    FaultloadConfig,
    LossBurst,
    PartitionEvent,
    WrongSuspicion,
)
from repro.errors import ConfigurationError
from repro.nemesis.schedule import faultload_from_dict, plain


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(
        document if isinstance(document, str) else json.dumps(document)
    )
    return str(path)


class TestMalformedFaultload:
    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", "{not json")
        code, captured = run_cli(capsys, "nemesis", "--faultload", path)
        assert code == 2
        assert "error:" in captured.err
        assert "f.json" in captured.err

    def test_non_object_top_level(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", [1, 2, 3])
        code, captured = run_cli(capsys, "nemesis", "--faultload", path)
        assert code == 2
        assert "error:" in captured.err

    def test_unknown_top_level_key_is_named(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", {"crashs": []})
        code, captured = run_cli(capsys, "nemesis", "--faultload", path)
        assert code == 2
        assert "crashs" in captured.err

    def test_missing_crash_time_names_the_field(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", {"crashes": [{"process": 0}]})
        code, captured = run_cli(capsys, "nemesis", "--faultload", path)
        assert code == 2
        assert "crashes[0]" in captured.err and "time" in captured.err

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        path = write(
            tmp_path, "f.json", {"crashes": [{"time": True, "process": 0}]}
        )
        code, captured = run_cli(capsys, "nemesis", "--faultload", path)
        assert code == 2
        assert "crashes[0].time" in captured.err

    def test_partition_groups_must_be_lists_of_ints(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "f.json",
            {"partitions": [{"start": 0.1, "heal": 0.2, "groups": ["a"]}]},
        )
        code, captured = run_cli(capsys, "nemesis", "--faultload", path)
        assert code == 2
        assert "partitions[0].groups" in captured.err

    def test_bad_link_mode_names_valid_modes(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "f.json",
            {
                "partitions": [
                    {"start": 0.1, "heal": 0.2, "groups": [[0]], "mode": "zap"}
                ]
            },
        )
        code, captured = run_cli(capsys, "nemesis", "--faultload", path)
        assert code == 2
        assert "mode" in captured.err
        assert "hold" in captured.err and "drop" in captured.err

    def test_entries_must_be_objects(self, tmp_path, capsys):
        path = write(tmp_path, "f.json", {"delay_spikes": [42]})
        code, captured = run_cli(capsys, "nemesis", "--faultload", path)
        assert code == 2
        assert "delay_spikes[0]" in captured.err

    def test_live_without_schedule_is_a_usage_error(self, capsys):
        code, captured = run_cli(capsys, "nemesis", "--live")
        assert code == 2
        assert "--faultload" in captured.err


class TestMalformedReplayCase:
    def test_invalid_json_case(self, tmp_path, capsys):
        path = write(tmp_path, "case.json", "oops{")
        code, captured = run_cli(capsys, "nemesis", "--replay", path)
        assert code == 2
        assert "case.json" in captured.err

    def test_missing_required_key_is_named(self, tmp_path, capsys):
        path = write(tmp_path, "case.json", {"stack": "modular", "seed": 1})
        code, captured = run_cli(capsys, "nemesis", "--replay", path)
        assert code == 2
        assert "n" in captured.err

    def test_wrong_type_for_seed(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "case.json",
            {"stack": "modular", "seed": "one", "n": 3, "faultload": {}},
        )
        code, captured = run_cli(capsys, "nemesis", "--replay", path)
        assert code == 2
        assert "seed" in captured.err

    def test_unknown_fd_is_rejected(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "case.json",
            {
                "stack": "modular",
                "seed": 1,
                "n": 3,
                "faultload": {},
                "fd": "psychic",
            },
        )
        code, captured = run_cli(capsys, "nemesis", "--replay", path)
        assert code == 2
        assert "fd" in captured.err


#: One valid event for each faultload list, at n = 3.
VALID_EVENTS = {
    "crashes": CrashEvent(time=0.5, process=1),
    "partitions": PartitionEvent(start=0.1, heal=0.2, groups=((0,), (1, 2))),
    "loss_bursts": LossBurst(start=0.1, end=0.2, probability=0.5),
    "delay_spikes": DelaySpike(start=0.1, end=0.2, extra_delay=0.01),
    "wrong_suspicions": WrongSuspicion(time=0.3, observer=1, suspect=0),
}

#: (event list, field) for every float field, read off the dataclasses
#: the way the faultload reader reads them.
FLOAT_FIELDS = [
    (events, f.name)
    for events, event in VALID_EVENTS.items()
    for f in fields(event)
    if f.type == "float"
]


def with_token(events, field, token):
    """A one-event faultload whose *field* is the JSON literal *token*."""
    entry = plain(VALID_EVENTS[events])
    entry[field] = "@"
    return json.dumps({events: [entry]}).replace('"@"', token)


class TestNonFiniteNumbers:
    def test_every_event_list_has_a_valid_example(self):
        assert list(VALID_EVENTS) == [f.name for f in fields(FaultloadConfig)]
        faultload_from_dict({k: [plain(v)] for k, v in VALID_EVENTS.items()})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("events, field", FLOAT_FIELDS)
    def test_refused_at_load_naming_the_field(
        self, tmp_path, capsys, events, field, token
    ):
        text = with_token(events, field, token)
        where = f"{events}[0].{field}"
        with pytest.raises(ConfigurationError, match="must be a finite number") as info:
            faultload_from_dict(json.loads(text))
        assert where in str(info.value)
        path = write(tmp_path, "f.json", text)
        code, captured = run_cli(
            capsys, "nemesis", "--faultload", path, "--stacks", "modular"
        )
        assert code == 2
        assert where in captured.err

    def test_refused_in_a_replay_case(self, tmp_path, capsys):
        text = with_token("crashes", "time", "NaN")
        case = f'{{"stack": "modular", "seed": 1, "n": 3, "faultload": {text}}}'
        code, captured = run_cli(
            capsys, "nemesis", "--replay", write(tmp_path, "case.json", case)
        )
        assert code == 2
        assert "faultload.crashes[0].time" in captured.err
