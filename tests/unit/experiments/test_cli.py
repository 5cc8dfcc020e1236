"""Unit tests for the CLI (with monkeypatched experiment drivers)."""

import pytest

import repro.cli as cli


class FakeReport:
    def __str__(self):
        return "FAKE FIGURE REPORT"


def test_figure_command_routes_to_driver(monkeypatch, capsys):
    calls = {}

    def fake_figure(name, *, fast, seeds, jobs, stacks):
        calls["args"] = (name, fast, seeds, jobs, stacks)
        return FakeReport()

    monkeypatch.setattr(cli, "figure", fake_figure)
    assert cli.main(["figure8", "--fast"]) == 0
    assert calls["args"] == ("figure8", True, None, 1, None)
    assert "FAKE FIGURE REPORT" in capsys.readouterr().out


def test_seeds_flag_builds_seed_tuple(monkeypatch):
    seen = {}
    monkeypatch.setattr(
        cli,
        "figure",
        lambda name, *, fast, seeds, jobs, stacks: seen.update(name=name, seeds=seeds)
        or FakeReport(),
    )
    cli.main(["figure9", "--seeds", "4"])
    assert seen == {"name": "figure9", "seeds": (1, 2, 3, 4)}


def test_figures_command_prints_all(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "all_figures", lambda *, fast, seeds, jobs, stacks: [FakeReport(), FakeReport()]
    )
    cli.main(["figures", "--fast"])
    assert capsys.readouterr().out.count("FAKE FIGURE REPORT") == 2


def test_analysis_command(monkeypatch, capsys):
    monkeypatch.setattr(cli, "analytical_table", lambda: "ANALYTICAL")
    monkeypatch.setattr(cli, "validation_table", lambda: "VALIDATION")
    cli.main(["analysis"])
    out = capsys.readouterr().out
    assert "ANALYTICAL" in out and "VALIDATION" in out


def test_ablation_command(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_ablation", lambda seeds: ["row"])
    monkeypatch.setattr(cli, "ablation_table", lambda rows: "ABLATION TABLE")
    cli.main(["ablation", "--fast"])
    assert "ABLATION TABLE" in capsys.readouterr().out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        cli.main(["not-a-command"])


def test_predict_command_prints_table(capsys):
    cli.main(["predict"])
    out = capsys.readouterr().out
    assert "Design-time prediction" in out
    assert "T modular" in out


def test_repro_errors_exit_with_usage_message(monkeypatch, capsys):
    from repro.errors import ConfigurationError

    def boom(name, *, fast, seeds, jobs, stacks):
        raise ConfigurationError("synthetic config problem")

    monkeypatch.setattr(cli, "figure", boom)
    assert cli.main(["figure8"]) == 2
    err = capsys.readouterr().err
    assert "error: synthetic config problem" in err
    assert "--help" in err
    assert "Traceback" not in err


def test_nemesis_unknown_stack_label_is_a_clean_error(capsys):
    assert cli.main(["nemesis", "--stacks", "no-such-stack"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no-such-stack" in err


def test_sweep_unknown_stack_label_lists_the_registry(capsys):
    from repro.config import STACK_LABELS

    assert cli.main(["sweep", "--fast", "--stacks", "no-such-stack"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no-such-stack" in err
    # The sorted registry is the error's fix-it hint.
    for label in STACK_LABELS:
        assert label in err


def test_sweep_rejects_non_kind_pure_stack_labels(capsys):
    # "indirect" is modular-with-a-variant, not a plain StackKind; the
    # sweep grid is keyed by kind, so it cannot appear there.
    assert cli.main(["sweep", "--fast", "--stacks", "indirect"]) == 2
    assert "not sweepable" in capsys.readouterr().err


def test_nemesis_unknown_faultload_file_is_a_clean_error(capsys):
    assert cli.main(["nemesis", "--faultload", "/nonexistent/faults.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_live_command_routes_to_runner(monkeypatch, capsys):
    import repro.live.deploy as deploy

    seen = {}

    def fake_run_live(spec, observability=None):
        seen["spec"] = spec
        return {
            "mode": "live",
            "config": {
                "n": spec.n, "stack": spec.stack, "load": spec.load,
                "message_size": spec.size, "duration": spec.duration,
                "warmup": spec.warmup,
            },
            "seed": spec.seed,
            "metrics": {
                "throughput": 10.0, "offered_rate": 10.0, "latency_mean": 0.001,
                "latency_p50": 0.001, "latency_p95": 0.002, "latency_p99": 0.002,
                "latency_count": 5, "blocked_attempts": 0, "stationary": True,
            },
            "network": {"messages_sent": 42},
            "cpu_utilization": [0.1, 0.1],
            "instances_decided": 5,
            "events_executed": 0,
        }

    monkeypatch.setattr(deploy, "run_live", fake_run_live)
    assert cli.main(["live", "--n", "2", "--stack", "sequencer", "--load", "20"]) == 0
    assert seen["spec"].n == 2
    assert seen["spec"].stack == "sequencer"
    assert seen["spec"].load == 20.0
    out = capsys.readouterr().out
    assert "live run" in out and "throughput" in out


def test_live_json_output_is_parseable(monkeypatch, capsys):
    import json

    import repro.live.deploy as deploy

    monkeypatch.setattr(
        deploy,
        "run_live",
        lambda spec, observability=None: {
            "mode": "live", "metrics": {"throughput": 1.0}
        },
    )
    assert cli.main(["live", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["mode"] == "live"


def test_sweep_command_writes_canonical_json(monkeypatch, tmp_path, capsys):
    import json

    target = tmp_path / "sweeps.json"
    assert cli.main(["sweep", "--fast", "--json-out", str(target)]) == 0
    document = json.loads(target.read_text())
    assert set(document) == {"offered_load", "message_size"}
    assert document["offered_load"]["points"]
    assert str(target) in capsys.readouterr().out


def test_sweep_command_prints_tables(capsys):
    assert cli.main(["sweep", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "latency" in out and "throughput" in out
    assert "n=3 monolithic" in out


def test_csv_flag_writes_figure_data(monkeypatch, tmp_path, capsys):
    from repro.config import RunConfig
    from repro.experiments.figures import figure8
    from repro.experiments.sweeps import run_load_sweep

    sweep = run_load_sweep(
        loads=(200.0,), message_size=256, group_sizes=(3,), seeds=(1,),
        base=RunConfig(duration=0.3, warmup=0.15),
    )
    monkeypatch.setattr(
        cli, "figure", lambda name, *, fast, seeds, jobs, stacks: figure8(sweep)
    )
    cli.main(["figure8", "--csv", str(tmp_path)])
    target = tmp_path / "figure8.csv"
    assert target.exists()
    assert "offered_load" in target.read_text()
