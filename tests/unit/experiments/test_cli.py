"""Unit tests for the CLI (with monkeypatched experiment drivers)."""

import pytest

import repro.cli as cli
import repro.experiments.ablation as ablation
import repro.experiments.tables as tables


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
    monkeypatch.setattr(tables, "analytical_table", lambda: "ANALYTICAL")
    monkeypatch.setattr(tables, "validation_table", lambda: "VALIDATION")
    cli.main(["analysis"])
    out = capsys.readouterr().out
    assert "ANALYTICAL" in out and "VALIDATION" in out


def test_ablation_command(monkeypatch, capsys):
    monkeypatch.setattr(ablation, "run_ablation", lambda seeds: ["row"])
    monkeypatch.setattr(ablation, "ablation_table", lambda rows: "ABLATION TABLE")
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


# -- one schema: the run point, the population, the stacks, the commands -----


def parse(*argv):
    return cli._build_parser().parse_args(list(argv))


def test_no_flags_give_exactly_the_default_live_spec():
    from repro.config import LiveSpec

    for command in ("live", "profile", "latencydist", "nemesis"):
        assert cli._live_spec(parse(command)) == LiveSpec()


@pytest.mark.parametrize(
    "argv,population",
    [
        # README / EXPERIMENTS latencydist and sweep, CI's population step.
        (
            ["--clients", "100000", "--zipf", "1.2", "--client-arrival", "bursty"],
            (100_000, 1.2, "bursty"),
        ),
        # EXPERIMENTS' live fleet.
        (
            ["--clients", "3600", "--zipf", "1.1", "--client-arrival", "bursty"],
            (3600, 1.1, "bursty"),
        ),
        (["--clients", "5000"], (5000, 1.1, "poisson")),
        # Without --clients the shape flags keep meaning the default size.
        (["--zipf", "1.2"], (100_000, 1.2, "poisson")),
        (["--zipf", "1.1"], (100_000, 1.1, "poisson")),
        (["--client-arrival", "diurnal"], (100_000, 1.1, "diurnal")),
        ([], None),
    ],
)
def test_population_flags_give_the_populations_they_always_gave(argv, population):
    from repro.config import ClientArrival, ClientPopulationConfig, matched_run_config

    expected = None
    if population is not None:
        clients, zipf_s, arrival = population
        expected = ClientPopulationConfig(clients, zipf_s, ClientArrival(arrival))
    for command in ("sweep", "live"):
        spec = cli._live_spec(parse(command, *argv))
        assert matched_run_config(spec).workload.population == expected
    base = cli._grid(parse("sweep", *argv)).get("base")
    assert (base and base.workload.population) == expected


def test_figure_commands_take_the_population_too(monkeypatch):
    seen = {}
    monkeypatch.setattr(
        cli, "figure", lambda name, **grid: seen.update(grid) or FakeReport()
    )
    cli.main(["figure8", "--fast", "--clients", "4000"])
    assert seen["base"].workload.population.clients == 4000


def test_latencydist_simulates_the_whole_run_point(monkeypatch):
    from repro.config import ClientPopulationConfig, StackKind
    from repro.errors import ConfigurationError

    seen = {}

    def fake_sweep(parameter, **options):
        seen.update(options, parameter=parameter)
        raise ConfigurationError("stop here")

    monkeypatch.setattr(cli, "paper_sweep", fake_sweep)
    argv = [
        "latencydist", "--n", "5", "--stack", "sequencer", "--load", "300",
        "--size", "64", "--duration", "1.5", "--warmup", "0.25",
    ]
    assert cli.main(argv) == 2
    assert seen["parameter"] == "offered_load"
    assert seen["group_sizes"] == (5,) and seen["stacks"] == (StackKind.SEQUENCER,)
    assert seen["loads"] == (300.0,) and seen["message_size"] == 64
    base = seen["base"]
    assert (base.duration, base.warmup) == (1.5, 0.25)
    # No population flag: the figure's default fleet.
    assert base.workload.population == ClientPopulationConfig()


def test_latencydist_refuses_a_stack_its_sweep_cannot_name(capsys):
    # "indirect" is the modular kind with another consensus; the sweep
    # behind the figure is keyed by kind and used to run plain modular.
    assert cli.main(["latencydist", "--stack", "indirect", "--fast"]) == 2
    assert "not sweepable" in capsys.readouterr().err


def test_profile_runs_the_command_lines_spec(monkeypatch, capsys):
    import repro.obs.profile as profile

    seen = {}

    def fake_run_profile(labels, spec):
        seen.update(labels=labels, spec=spec)
        return []

    monkeypatch.setattr(profile, "run_profile", fake_run_profile)
    argv =["profile", "--n", "4", "--load", "250", "--clients", "800", "--seeds", "7"]
    assert cli.main(argv) == 0
    assert seen["labels"] == ("monolithic", "modular")
    spec = seen["spec"]
    assert (spec.n, spec.load, spec.clients, spec.seed) == (4, 250.0, 800, 7)
    assert "profile: n=4 load=250 size=1024 duration=5s seed=7" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep", "figure8", "nemesis", "profile"])
def test_one_stacks_reader_for_every_command(command, capsys):
    assert cli.main([command, "--stacks", "no-such-stack"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown stack label(s): no-such-stack (known: " in err
    assert cli.main([command, "--stacks", ","]) == 2
    assert "--stacks must name at least one stack" in capsys.readouterr().err


def test_one_table_of_commands_feeds_the_parser_and_the_dispatch(monkeypatch, capsys):
    parser = cli._build_parser()
    (command,) = [a for a in parser._actions if a.dest == "command"]
    assert list(command.choices) == list(cli.COMMANDS)
    for name, subparser in command.choices.items():
        taken = [
            flag
            for action in subparser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        ]
        assert sorted(taken) == sorted(cli.COMMANDS[name].flags), name
    monkeypatch.setattr(cli, "all_figures", lambda **grid: [FakeReport()])
    monkeypatch.setattr(tables, "prediction_table", lambda: "PREDICTION")
    monkeypatch.setattr(tables, "analytical_table", lambda: "ANALYTICAL")
    monkeypatch.setattr(tables, "validation_table", lambda: "VALIDATION")
    monkeypatch.setattr(ablation, "run_ablation", lambda seeds: ["row"])
    monkeypatch.setattr(ablation, "ablation_table", lambda rows: "ABLATION")
    assert cli.main(["all", "--fast"]) == 0
    out = capsys.readouterr().out
    marks = ["FAKE FIGURE REPORT", "PREDICTION", "ANALYTICAL", "VALIDATION", "ABLATION"]
    assert [out.index(mark) for mark in marks] == sorted(out.index(m) for m in marks)


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--n", "7"],
        ["analysis", "--live"],
        ["live", "--fast"],
        ["figure8", "--trace-out", "t.json"],
        ["nemesis", "--compare"],
        # Not read as an abbreviation of --stacks, which profile takes.
        ["profile", "--stack", "modular"],
    ],
    ids=" ".join,
)
def test_a_flag_the_command_does_not_read_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 2
    assert argv[1] in capsys.readouterr().err
