"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro figure8            # early latency vs offered load
    python -m repro figure9            # early latency vs message size
    python -m repro figure10           # throughput vs offered load
    python -m repro figure11           # throughput vs message size
    python -m repro figures            # all four (sharing sweeps)
    python -m repro sweep              # both sweeps, no rendering
    python -m repro analysis           # §5.2 analytical tables + validation
    python -m repro ablation           # per-optimization ablation (§4)
    python -m repro predict            # design-time performance prediction
    python -m repro all                # everything above
    python -m repro latencydist        # latency-distribution histogram figure
    python -m repro nemesis            # adversarial sweep (see below)
    python -m repro live               # run a stack over real TCP (see below)
    python -m repro profile            # cost-of-modularity profiler (see below)

The ``profile`` command runs one traced simulation per stack at a
common configuration point and prints where the CPU time went: a
per-stack/per-layer latency-attribution table, the measured modularity
overhead (boundary-crossing time over total attributed time) and a
representative message's critical path. ``--trace-out trace.json``
additionally writes every span as Chrome-trace/Perfetto JSON — open it
at https://ui.perfetto.dev::

    python -m repro profile --stacks monolithic,modular
    python -m repro profile --stacks modular --trace-out trace.json

``--clients N --zipf S --client-arrival {poisson,bursty,diurnal}``
attach a lazy client-population model (N logical clients, Zipf(S)
activity skew, the chosen aggregate arrival law) to the workload; see
:mod:`repro.workload.population`. These, the run-point flags (``--n
--stack --load --size --duration --warmup``) and ``--trace-cap`` take
their defaults from the :class:`~repro.config.LiveSpec` fields they set.

``--fast`` uses a reduced grid and a single seed (seconds instead of
minutes); ``--seeds N`` controls the ensemble size; ``--csv DIR`` also
writes each regenerated figure's data as CSV into DIR.

``--jobs N`` fans the sweep grid (and the nemesis cases) out over N
worker processes. Results are merged in submission order, so the output
— including a ``--json-out`` export — is byte-identical for every job
count; parallelism only changes the wall-clock time.

The ``nemesis`` command sweeps randomized fault schedules across the
fault-tolerant stacks and checks the four atomic-broadcast properties
online, plus liveness::

    python -m repro nemesis --seeds 50            # randomized sweep
    python -m repro nemesis --faultload churn     # one named scenario
    python -m repro nemesis --faultload fl.json   # schedule from a file
    python -m repro nemesis --replay ce.json      # re-run a counterexample

On failure it shrinks the schedule to a 1-minimal counterexample,
writes it as JSON (``--out DIR``) and prints the replay command; the
exit code is 1 so CI fails loudly.

``nemesis --live`` compiles the *same* faultload onto a real deployment
(OS processes, TCP): crashes become timed ``SIGKILL`` + restart with
write-ahead-log recovery, partitions and delay spikes become transport
link directives. The merged per-worker delivery logs are then checked
against the same four invariants plus liveness::

    python -m repro nemesis --live --faultload crash-leader --stack modular
    python -m repro nemesis --live --replay ce.json

The ``live`` command deploys the *same* protocol stacks over real
asyncio TCP sockets between OS processes on localhost (see
:mod:`repro.live`)::

    python -m repro live --n 3 --stack monolithic --load 100 --duration 5
    python -m repro live --stack modular --compare   # sim vs live, side by side
    python -m repro live --json                      # RunResult-schema JSON
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Collection, Sequence

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
from repro.experiments.ablation import ablation_table, run_ablation
from repro.experiments.export import write_sweep_csv, write_sweeps_json
from repro.experiments.figures import (
    FIGURES,
    SWEEPS,
    FigureReport,
    all_figures,
    figure,
    latency_distribution,
    paper_sweep,
)
from repro.experiments.report import TABLE_QUANTITIES, format_table, sweep_table
from repro.experiments.tables import analytical_table, prediction_table, validation_table
from repro.nemesis import swarm as nemesis_swarm
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


def _spec_option(group, flag: str, text: str, **options) -> None:
    """Add *flag* for the :class:`LiveSpec` field it sets (named after the
    flag unless *options* give a ``dest``), with that field's type,
    default and declared choices."""
    spec_field = _SPEC_FIELDS[options.setdefault("dest", flag[2:].replace("-", "_"))]
    if "choices" in spec_field.metadata:
        options.setdefault("choices", spec_field.metadata["choices"])
    group.add_argument(
        flag,
        type=type(spec_field.default),
        default=spec_field.default,
        help=f"{text} (default: %(default)s)",
        **options,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'On the Cost of Modularity in "
            "Atomic Broadcast' (Rütti et al., DSN 2007)."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.set_defaults(population_shaped=False)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced parameter grid and a single seed",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="number of seeds per point (default: 3, or 1 with --fast)",
    )
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write each regenerated figure's data as CSV into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for sweep/nemesis grids (default: 1, "
            "serial); results are identical for any value"
        ),
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write the regenerated sweep data as canonical JSON "
            "(byte-identical across runs and --jobs values)"
        ),
    )
    parser.add_argument(
        "--stacks",
        default=None,
        metavar="A,B,...",
        help=(
            "comma-separated stacks for sweep/figure/nemesis/profile commands "
            f"(known: {', '.join(nemesis_swarm.STACKS)}; defaults: the "
            "paper's modular+monolithic for sweeps, figures and profile, "
            f"{','.join(nemesis_swarm.DEFAULT_STACKS)} for nemesis)"
        ),
    )
    run = parser.add_argument_group(
        "run point options",
        "one run of live, nemesis --live, profile and latencydist (--n also "
        "sizes nemesis); the defaults are repro.config.LiveSpec's",
    )
    _spec_option(run, "--n", "group size", metavar="N")
    _spec_option(run, "--stack", "protocol stack", choices=STACK_LABELS)
    _spec_option(run, "--load", "offered load across the group", metavar="MSGS/S")
    _spec_option(run, "--size", "message payload size", metavar="BYTES")
    _spec_option(run, "--duration", "measurement window length", metavar="SECONDS")
    _spec_option(
        run, "--warmup", "warm-up before the window opens", metavar="SECONDS"
    )
    population = parser.add_argument_group(
        "client population options",
        "a lazy client-population model on the workload of the sweep, "
        "figure, latencydist, live, nemesis --live and profile commands",
    )
    _spec_option(
        population,
        "--clients",
        "logical clients; 0 attaches no population (latencydist: 100000)",
        metavar="N",
    )
    _spec_option(
        population,
        "--zipf",
        "Zipf activity-skew exponent; without --clients, of 100000 clients",
        metavar="S",
        dest="zipf_s",
        action=_ShapesPopulation,
    )
    _spec_option(
        population,
        "--client-arrival",
        "aggregate arrival law; without --clients, of 100000 clients",
        action=_ShapesPopulation,
    )
    nemesis = parser.add_argument_group("nemesis options")
    nemesis.add_argument(
        "--faultload",
        default=None,
        metavar="SPEC",
        help=(
            "fixed faultload instead of randomized schedules: a named "
            f"scenario ({', '.join(SCENARIOS)}) or a JSON file"
        ),
    )
    nemesis.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="CASE.json",
        help="re-run one saved counterexample and report its violations",
    )
    nemesis.add_argument(
        "--out",
        type=Path,
        default=Path("nemesis-failures"),
        metavar="DIR",
        help="directory for shrunk counterexample JSON files",
    )
    nemesis.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without shrinking them first",
    )
    nemesis.add_argument(
        "--live",
        action="store_true",
        help=(
            "run the faultload against a real TCP deployment (SIGKILL + "
            "WAL recovery) instead of the simulator; needs --faultload "
            "or --replay"
        ),
    )
    nemesis.add_argument(
        "--restart-delay",
        type=float,
        default=None,
        metavar="SECONDS",
        help="delay between a live SIGKILL and the restart (default: 0.4)",
    )
    live = parser.add_argument_group("live options")
    live.add_argument(
        "--compare",
        action="store_true",
        help="also run the matched simulation and print both side by side",
    )
    live.add_argument(
        "--json",
        action="store_true",
        help="emit the result as RunResult-schema JSON instead of a table",
    )
    obs = parser.add_argument_group("observability options")
    obs.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write causal spans as Chrome-trace/Perfetto JSON "
            "(profile and live commands; open at https://ui.perfetto.dev)"
        ),
    )
    _spec_option(
        obs,
        "--trace-cap",
        "span-trace ring-buffer capacity; the oldest records are evicted "
        "(and counted) beyond N; 0 means 200000 for profile and for live "
        "with --trace-out, and no trace otherwise",
        metavar="N",
    )
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
    csv_dir.mkdir(parents=True, exist_ok=True)
    name = report.figure.lower().replace(" ", "")
    target = csv_dir / f"{name}.csv"
    write_sweep_csv(report.sweep, target)
    print(f"[csv] wrote {target}")


def _export_json(sweeps: dict, path: Path) -> None:
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
        *_, x_label, axis = SWEEPS[parameter]
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
    print("Design-time prediction (no simulation; repro.analysis.predict_gap):")
    _emit(prediction_table())
    return 0


def _run_analysis(args: argparse.Namespace) -> int:
    print("Analytical evaluation (paper §5.2):")
    _emit(analytical_table())
    print("Simulator validation (measured vs closed-form, steady state):")
    _emit(validation_table())
    return 0


def _run_ablation(args: argparse.Namespace) -> int:
    print("Ablation of the monolithic optimizations (n=3, 16 KiB, loaded):")
    rows = run_ablation(seeds=(1,) if args.fast else (1, 2))
    _emit(ablation_table(rows))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    for run in (_run_figures, _run_predict, _run_analysis, _run_ablation):
        run(args)
    return 0


#: Every command, in the order ``--help`` lists them, and what runs it:
#: the parser's choices and :func:`_dispatch` both read this table.
COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    **dict.fromkeys(FIGURES, _run_figures),
    "figures": _run_figures,
    "sweep": _run_sweep,
    "analysis": _run_analysis,
    "ablation": _run_ablation,
    "predict": _run_predict,
    "all": _run_all,
    "latencydist": _run_latencydist,
    "nemesis": _run_nemesis,
    "live": _run_live,
    "profile": _run_profile,
}


def _dispatch(args: argparse.Namespace) -> int:
    return COMMANDS[args.command](args)


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
        print(f"run '{parser.prog} --help' for usage", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
