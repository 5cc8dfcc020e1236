"""Command-line interface: regenerate any of the paper's experiments.

``python -m repro --help`` lists the commands, and ``python -m repro
<command> --help`` the flags that command takes; README.md shows them at
work. :data:`COMMANDS` is the one table of commands: each row names the
handler that runs the command and the flags the handler reads, and the
parser and :func:`_dispatch` are both built from it. A handler imports
what it runs in its own body, so ``--help`` and each command load only
what they use.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Collection, NamedTuple, Sequence

from repro.config import (
    STACK_LABELS,
    STACK_REGISTRY,
    ClientPopulationConfig,
    LiveSpec,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
    matched_run_config,
)
from repro.errors import ConfigurationError, ReproError
from repro.experiments.figures import (
    FIGURES,
    SWEEPS,
    FigureReport,
    all_figures,
    figure,
    latency_distribution,
    paper_sweep,
)
from repro.nemesis.schedule import SCENARIOS, resolve_faultload

#: :class:`LiveSpec`'s fields by name: the type, default and choices of
#: the flag that sets each.
_SPEC_FIELDS = {f.name: f for f in fields(LiveSpec)}


class _ShapesPopulation(argparse.Action):
    """Store the value and remember it was given: ``--zipf`` and
    ``--client-arrival`` without ``--clients`` shape a population of the
    default size rather than being ignored."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        setattr(namespace, self.dest, values)
        namespace.population_shaped = True


def _spec_flag(dest: str, text: str, **options) -> dict:
    """The options of the flag that sets the :class:`LiveSpec` field
    *dest*: that field's type, default and declared choices."""
    spec_field = _SPEC_FIELDS[dest]
    if "choices" in spec_field.metadata:
        options.setdefault("choices", spec_field.metadata["choices"])
    default = spec_field.default
    return dict(dest=dest, type=type(default), default=default, **options,
                help=f"{text} (default: %(default)s)")


#: Every flag, declared once under the group ``<command> --help`` lists
#: it in: group → flag → its ``add_argument`` options. A command takes
#: the flags its :data:`COMMANDS` row names, and no other.
_FLAGS: dict[str, dict[str, dict]] = {
    "grid": {
        "--fast": dict(action="store_true",
                       help="reduced parameter grid and a single seed"),
        "--seeds": dict(type=int, metavar="N", help=(
            "number of seeds per point (default: 3, or 1 with --fast; "
            "nemesis: 20); profile runs seed N (default: 1)")),
        "--jobs": dict(type=int, default=1, metavar="N", help=(
            "worker processes for the grid (default: 1, serial); results "
            "are identical for any value")),
        "--stacks": dict(metavar="A,B,...", help=(
            f"comma-separated stack labels (known: {', '.join(STACK_LABELS)}; "
            "nemesis also takes 'broken'; default: modular,monolithic, and "
            "for nemesis every fault-tolerant stack)")),
    },
    "export": {
        "--csv": dict(type=Path, metavar="DIR",
                      help="also write each regenerated figure's data as CSV into DIR"),
        "--json-out": dict(type=Path, metavar="PATH", help=(
            "write the regenerated sweep data as canonical JSON "
            "(byte-identical across runs and --jobs values)")),
    },
    "run point": {
        "--n": _spec_flag("n", "group size", metavar="N"),
        "--stack": _spec_flag("stack", "protocol stack", choices=STACK_LABELS),
        "--load": _spec_flag("load", "offered load across the group", metavar="MSGS/S"),
        "--size": _spec_flag("size", "message payload size", metavar="BYTES"),
        "--duration": _spec_flag("duration", "measurement window length",
                                 metavar="SECONDS"),
        "--warmup": _spec_flag("warmup", "warm-up before the window opens",
                               metavar="SECONDS"),
    },
    "client population": {
        "--clients": _spec_flag("clients", "logical clients; 0 attaches no "
                                "population (latencydist: 100000)", metavar="N"),
        "--zipf": _spec_flag("zipf_s", "Zipf activity-skew exponent; without "
                             "--clients, of 100000 clients", metavar="S",
                             action=_ShapesPopulation),
        "--client-arrival": _spec_flag("client_arrival", "aggregate arrival law; "
                                       "without --clients, of 100000 clients",
                                       action=_ShapesPopulation),
    },
    "nemesis": {
        "--faultload": dict(metavar="SPEC", help=(
            "fixed faultload instead of randomized schedules: a named "
            f"scenario ({', '.join(SCENARIOS)}) or a JSON file")),
        "--replay": dict(type=Path, metavar="CASE.json", help=(
            "re-run one saved counterexample and report its violations")),
        "--out": dict(type=Path, default=Path("nemesis-failures"), metavar="DIR",
                      help="directory for shrunk counterexample JSON files"),
        "--no-shrink": dict(action="store_true",
                            help="report failures without shrinking them first"),
        "--live": dict(action="store_true", help=(
            "run the faultload against a real TCP deployment (SIGKILL + WAL "
            "recovery) instead of the simulator; needs --faultload or --replay")),
        "--restart-delay": dict(type=float, metavar="SECONDS", help=(
            "delay between a live SIGKILL and the restart (default: 0.4)")),
    },
    "live output": {
        "--compare": dict(action="store_true", help=(
            "also run the matched simulation and print both side by side")),
        "--json": dict(action="store_true", help=(
            "emit the result as RunResult-schema JSON instead of a table")),
    },
    "trace": {
        "--trace-out": dict(type=Path, metavar="PATH", help=(
            "write causal spans as Chrome-trace/Perfetto JSON (open at "
            "https://ui.perfetto.dev)")),
        "--trace-cap": _spec_flag("trace_cap", "span-trace ring-buffer capacity; "
                                  "the oldest records are evicted (and counted) "
                                  "beyond N; 0 means 200000 for profile and with "
                                  "--trace-out, and no trace otherwise", metavar="N"),
    },
}

_GRID = tuple(_FLAGS["grid"])
_EXPORT = tuple(_FLAGS["export"])
_RUN_POINT = tuple(_FLAGS["run point"])
_POPULATION = tuple(_FLAGS["client population"])
_NEMESIS = tuple(_FLAGS["nemesis"])
_LIVE_OUTPUT = tuple(_FLAGS["live output"])
_TRACE = tuple(_FLAGS["trace"])


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per :data:`COMMANDS` row, taking the row's flags."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'On the Cost of Modularity in "
            "Atomic Broadcast' (Rütti et al., DSN 2007)."
        ),
    )
    parser.set_defaults(population_shaped=False)
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        sub = commands.add_parser(
            name, help=command.help, description=command.help, allow_abbrev=False
        )
        for group, flags in _FLAGS.items():
            taken = [flag for flag in flags if flag in command.flags]
            if taken:
                section = sub.add_argument_group(f"{group} options")
                for flag in taken:
                    section.add_argument(flag, **flags[flag])
    return parser


def _live_spec(args: argparse.Namespace) -> LiveSpec:
    """The run point the flags describe: what ``live``, ``nemesis
    --live``, ``profile`` and ``latencydist`` run, and the population the
    sweeps attach."""
    spec = LiveSpec(
        **{name: getattr(args, name) for name in _SPEC_FIELDS if hasattr(args, name)}
    )
    if args.population_shaped and not spec.clients:
        spec = replace(spec, clients=ClientPopulationConfig().clients)
    return spec


def _stacks(
    text: str | None,
    default: Sequence[str] = (),
    known: Collection[str] = STACK_LABELS,
) -> tuple[str, ...]:
    """The one ``--stacks`` reader: comma-separated labels, each one of
    *known*; *default* when the flag was not given."""
    labels = tuple(default if text is None else filter(None, text.split(",")))
    unknown = [label for label in labels if label not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown stack label(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    if not labels:
        raise ConfigurationError("--stacks must name at least one stack")
    return labels


def _kinds(text: str) -> tuple[StackKind, ...]:
    """Stack labels read by :func:`_stacks`, as the kinds a sweep varies.

    Labels must be kind-pure: ``indirect`` is a consensus-variant twist
    on the modular *kind*, so a sweep keyed by :class:`StackKind` cannot
    represent it as a separate curve.
    """
    kinds = []
    for label in _stacks(text):
        config = STACK_REGISTRY[label]
        if config != StackConfig(kind=config.kind):
            raise ConfigurationError(
                f"stack {label!r} is not sweepable: sweeps vary the stack "
                "kind only (pick one of: "
                + ", ".join(sorted(k.value for k in StackKind))
                + ")"
            )
        kinds.append(config.kind)
    return tuple(kinds)


def _seeds(args: argparse.Namespace) -> tuple[int, ...] | None:
    """``--seeds N`` as the seeds 1..N; ``None`` leaves each command's default."""
    return tuple(range(1, args.seeds + 1)) if args.seeds else None


def _grid(args: argparse.Namespace) -> dict:
    """The grid options shared by the sweep and figure commands, with a
    base config carrying the command line's client population, if any."""
    grid = dict(
        fast=args.fast,
        seeds=_seeds(args),
        jobs=args.jobs,
        stacks=None if args.stacks is None else _kinds(args.stacks),
    )
    population = matched_run_config(_live_spec(args)).workload.population
    if population is not None:
        grid["base"] = RunConfig(workload=WorkloadConfig(population=population))
    return grid


def _emit(text: object) -> None:
    print(text)
    print()


def _maybe_export(report: FigureReport, csv_dir: Path | None) -> None:
    if csv_dir is None:
        return
    from repro.experiments.export import write_sweep_csv

    csv_dir.mkdir(parents=True, exist_ok=True)
    name = report.figure.lower().replace(" ", "")
    target = csv_dir / f"{name}.csv"
    write_sweep_csv(report.sweep, target)
    print(f"[csv] wrote {target}")


def _export_json(sweeps: dict, path: Path) -> None:
    from repro.experiments.export import write_sweeps_json

    write_sweeps_json(sweeps, path)
    print(f"[json] wrote {path}")


def _print_violations(violations: Sequence) -> None:
    """The first violation with the trace that led to it; the rest counted."""
    from collections import Counter

    from repro.obs.format import format_trace_slice

    first, *rest = violations
    print(f"  {first}")
    if first.trace_slice:
        print("  trace slice (the events leading up to it):")
        for line in format_trace_slice(first.trace_slice[-12:]).splitlines():
            print(f"    {line}")
    for invariant, count in Counter(v.invariant for v in rest).items():
        print(f"  + {count} further {invariant} violation(s)")


def _run_nemesis_live(args: argparse.Namespace) -> int:
    from repro.live.faults import DEFAULT_RESTART_DELAY, run_nemesis_live
    from repro.nemesis import swarm as nemesis_swarm

    spec = _live_spec(args)
    if args.replay is not None:
        case = nemesis_swarm.load_case(args.replay)
        print(f"replaying live: {case.describe()}")
        faultload, spec = case.faultload, replace(spec, n=case.n, stack=case.stack)
    elif args.faultload is not None:
        faultload = resolve_faultload(args.faultload, n=spec.n)
    else:
        raise ConfigurationError(
            "nemesis --live needs a fixed schedule: pass --faultload SPEC "
            "(named scenario or JSON file) or --replay CASE.json"
        )
    restart_delay = (
        args.restart_delay if args.restart_delay is not None
        else DEFAULT_RESTART_DELAY
    )
    report = run_nemesis_live(spec, faultload, restart_delay=restart_delay)
    print(f"live faultload on stack={spec.stack} n={spec.n}:")
    for line in report.timeline:
        print(f"  {line}")
    recovered = (
        ", ".join(f"worker {pid}" for pid in report.recovered) or "none"
    )
    print(
        f"merged logs: {report.accepted} accepted, {report.deliveries} "
        f"deliveries checked; kills={report.kills} restarts={report.restarts} "
        f"recovered={recovered}"
    )
    if report.wal_truncated_bytes:
        print(f"WAL torn tails truncated: {report.wal_truncated_bytes} bytes")
    if report.backpressure_stalls:
        print(f"backpressure stalls: {report.backpressure_stalls}")
    if report.passed:
        print("PASS: all invariants held across crash and recovery")
        return 0
    print(f"FAIL: {len(report.violations)} violation(s)")
    _print_violations(report.violations)
    return 1


def _run_nemesis(args: argparse.Namespace) -> int:
    if args.live:
        return _run_nemesis_live(args)
    from repro.nemesis import swarm as nemesis_swarm

    if args.replay is not None:
        case = nemesis_swarm.load_case(args.replay)
        print(f"replaying {case.describe()}")
        result = nemesis_swarm.run_case(case)
        if result.passed:
            print(f"PASS: {result.deliveries} deliveries, all invariants held")
            return 0
        print(f"FAIL: {len(result.violations)} violation(s)")
        _print_violations(result.violations)
        return 1

    stacks = _stacks(
        args.stacks, nemesis_swarm.DEFAULT_STACKS, known=nemesis_swarm.STACKS
    )
    seed_count = args.seeds if args.seeds else 20
    seeds = range(1, seed_count + 1)

    if args.faultload is not None:
        faultload = resolve_faultload(args.faultload, n=args.n)
        cases = [
            nemesis_swarm.NemesisCase(
                stack=stack, seed=seed, n=args.n, faultload=faultload
            )
            for seed in seeds
            for stack in stacks
        ]
    else:
        cases = [
            nemesis_swarm.generate_case(stack, seed, args.n)
            for seed in seeds
            for stack in stacks
        ]

    report = nemesis_swarm.sweep_cases(
        cases, shrink=not args.no_shrink, jobs=args.jobs
    )
    print(report.summary())
    if report.ok:
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    for index, ce in enumerate(report.counterexamples):
        case = ce.minimal.case
        path = args.out / f"{case.stack}-seed{case.seed}-{index}.json"
        nemesis_swarm.save_case(case, path)
        print(f"counterexample written: {path}")
        print(f"  replay with: {nemesis_swarm.repro_command(path)}")
        _print_violations(ce.minimal.violations)
    return 1


def _live_summary(result: dict, observability: dict | None = None) -> str:
    from repro.experiments.report import format_table
    from repro.live.compare import result_rows
    from repro.obs.telemetry import telemetry_rows

    config = result["config"]
    rows = result_rows(result, table="summary")
    if observability is not None:
        rows.extend(telemetry_rows(observability.get("telemetry", {})))
        if observability.get("trace_dropped"):
            rows.append(
                ["trace records dropped", str(observability["trace_dropped"])]
            )
    title = (
        f"live run: stack={config['stack']} n={config['n']} "
        f"load={config['load']:g} size={config['message_size']} "
        f"duration={config['duration']:g}s"
    )
    return title + "\n" + format_table(["metric", "value"], rows)


def _run_live(args: argparse.Namespace) -> int:
    from repro.live.compare import comparison_table, run_comparison
    from repro.live.deploy import run_live

    spec = _live_spec(args)
    if args.trace_out is not None and not spec.trace_cap:
        from repro.obs.profile import DEFAULT_TRACE_CAP

        spec = replace(spec, trace_cap=DEFAULT_TRACE_CAP)
    if args.compare:
        results = run_comparison(spec)
        if args.json:
            print(json.dumps(results, indent=2))
        else:
            print("sim vs live, matched parameters:")
            print(comparison_table(results))
        return 0
    observability: dict = {}
    result = run_live(spec, observability=observability)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(_live_summary(result, observability))
    if args.trace_out is not None:
        from repro.obs.perfetto import write_chrome_trace
        from repro.obs.spans import spans_from_serialized

        spans = spans_from_serialized(observability.get("spans", ()))
        target = write_chrome_trace(args.trace_out, spans)
        print(f"[trace] wrote {len(spans)} spans to {target}")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """The cost-of-modularity profiler: traced runs + attribution tables."""
    from repro.obs.profile import (
        critical_path_summary,
        export_chrome_trace,
        layer_table,
        run_profile,
        summary_table,
    )

    labels = _stacks(args.stacks, ("monolithic", "modular"))
    spec = replace(_live_spec(args), seed=args.seeds if args.seeds else 1)
    runs = run_profile(labels, spec)
    print(
        f"profile: n={spec.n} load={spec.load:g} size={spec.size} "
        f"duration={spec.duration:g}s seed={spec.seed}"
    )
    print()
    print(summary_table(runs))
    print()
    print("per-layer CPU attribution over the measurement window:")
    print(layer_table(runs))
    for run in runs:
        print()
        print(critical_path_summary(run))
    if args.trace_out is not None:
        target = export_chrome_trace(runs, args.trace_out)
        print()
        print(f"[trace] wrote Perfetto JSON to {target}")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    """Run the load and size sweeps without the figure rendering."""
    from repro.experiments.report import TABLE_QUANTITIES, sweep_table

    grid = _grid(args)
    sweeps = {p: paper_sweep(p, **grid) for p in SWEEPS}
    if args.json_out is not None:
        _export_json(sweeps, args.json_out)
        return 0
    # The load sweep prints every interval quantity, the size sweep the
    # two the paper plots against size (Figs. 9 and 11).
    blocks = [("offered_load", quantity) for quantity in TABLE_QUANTITIES]
    blocks += [
        (parameter, quantity)
        for parameter, quantity, *_ in FIGURES.values()
        if parameter == "message_size"
    ]
    texts = []
    for parameter, quantity in blocks:
        _, _, x_label, axis = SWEEPS[parameter]
        caption, _, _ = TABLE_QUANTITIES[quantity]
        table = sweep_table(sweeps[parameter], quantity, x_label=x_label)
        texts.append(f"{x_label} sweep: {caption} by {axis}\n{table}")
    print("\n\n".join(texts))
    return 0


def _run_latencydist(args: argparse.Namespace) -> int:
    """Render the latency-distribution histogram of one sweep point.

    Simulates the command line's run point — group, kind-pure stack,
    load, size, duration and warm-up — with its client population (the
    default population when no population flag is given; this figure
    exists to show what a skewed client fleet experiences) and prints
    the full log-bucketed histogram with p50/p99/p999 markers.
    """
    spec = _live_spec(args)
    population = (
        matched_run_config(spec).workload.population or ClientPopulationConfig()
    )
    sweep = paper_sweep(
        "offered_load",
        fast=args.fast,
        seeds=_seeds(args),
        loads=(spec.load,),
        message_size=spec.size,
        group_sizes=(spec.n,),
        stacks=_kinds(spec.stack),
        base=RunConfig(
            workload=WorkloadConfig(population=population),
            duration=spec.duration,
            warmup=spec.warmup,
        ),
        jobs=args.jobs,
    )
    report = latency_distribution(sweep)
    print(report)
    point = sweep.points[0]
    print(
        f"clients={population.clients} zipf_s={population.zipf_s:g} "
        f"arrival={population.arrival.value} active="
        f"{sum(r.metrics.active_clients for r in point.runs)}"
    )
    if args.json_out is not None:
        _export_json({sweep.parameter: sweep}, args.json_out)
    return 0


def _run_figures(args: argparse.Namespace) -> int:
    """One figure, or all four sharing their sweeps (``figures``, ``all``)."""
    grid = _grid(args)
    if args.command in FIGURES:
        reports = [figure(args.command, **grid)]
    else:
        reports = all_figures(**grid)
    for report in reports:
        _emit(report)
        _maybe_export(report, args.csv)
    if args.json_out is not None:
        _export_json(
            {report.sweep.parameter: report.sweep for report in reports},
            args.json_out,
        )
    return 0


def _run_predict(args: argparse.Namespace) -> int:
    from repro.experiments.tables import prediction_table

    print("Design-time prediction (no simulation; repro.analysis.predict_gap):")
    _emit(prediction_table())
    return 0


def _run_analysis(args: argparse.Namespace) -> int:
    from repro.experiments.tables import analytical_table, validation_table

    print("Analytical evaluation (paper §5.2):")
    _emit(analytical_table())
    print("Simulator validation (measured vs closed-form, steady state):")
    _emit(validation_table())
    return 0


def _run_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import ablation_table, run_ablation

    print("Ablation of the monolithic optimizations (n=3, 16 KiB, loaded):")
    rows = run_ablation(seeds=(1,) if args.fast else (1, 2))
    _emit(ablation_table(rows))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    for run in (_run_figures, _run_predict, _run_analysis, _run_ablation):
        run(args)
    return 0


class Command(NamedTuple):
    """One command: its handler, the flags the handler reads, its help line."""

    run: Callable[[argparse.Namespace], int]
    flags: tuple[str, ...]
    help: str


_FIGURE_FLAGS = _GRID + _EXPORT + _POPULATION

#: Every command, in the order ``--help`` lists them: the parser and
#: :func:`_dispatch` both read this table.
COMMANDS: dict[str, Command] = {
    **{
        name: Command(_run_figures, _FIGURE_FLAGS, title)
        for name, (*_, title) in FIGURES.items()
    },
    "figures": Command(
        _run_figures, _FIGURE_FLAGS, "all four figures, sharing their two sweeps"
    ),
    "sweep": Command(
        _run_sweep,
        _GRID + ("--json-out",) + _POPULATION,
        "both sweeps as tables or canonical JSON, without the figures",
    ),
    "analysis": Command(
        _run_analysis, (), "§5.2 analytical tables and simulator validation"
    ),
    "ablation": Command(
        _run_ablation, ("--fast",), "per-optimization ablation of the monolithic stack"
    ),
    "predict": Command(
        _run_predict, (), "design-time performance prediction (no simulation)"
    ),
    "all": Command(
        _run_all, _FIGURE_FLAGS, "the four figures, then predict, analysis and ablation"
    ),
    "latencydist": Command(
        _run_latencydist,
        ("--fast", "--seeds", "--jobs", "--json-out") + _RUN_POINT + _POPULATION,
        "latency histogram of one simulated run point",
    ),
    "nemesis": Command(
        _run_nemesis,
        ("--seeds", "--jobs", "--stacks") + _RUN_POINT + _POPULATION + _NEMESIS,
        "faultloads, randomized or fixed, checked against the abcast invariants",
    ),
    "live": Command(
        _run_live,
        _RUN_POINT + _POPULATION + _LIVE_OUTPUT + _TRACE,
        "one run over real TCP between worker processes on localhost",
    ),
    "profile": Command(
        _run_profile,
        ("--stacks", "--seeds", "--n", "--load", "--size", "--duration", "--warmup")
        + _POPULATION + _TRACE,
        "where each stack's time goes, from traced simulations",
    ),
}


def _dispatch(args: argparse.Namespace) -> int:
    return COMMANDS[args.command].run(args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Configuration and deployment errors (unknown stack labels, bad
    faultload files, a live group failing to come up) exit with status 2
    and a one-line ``error:`` message, not a traceback.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run '{parser.prog} {args.command} --help' for usage", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
