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
activity skew, the chosen aggregate arrival law) to the workload of the
``sweep``, ``latencydist`` and ``live`` commands; see
:mod:`repro.workload.population`.

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
from pathlib import Path
from typing import Sequence

from repro.analysis.performance_model import predict_gap
from repro.config import (
    STACK_LABELS,
    ClientArrival,
    ClientPopulationConfig,
    RunConfig,
    StackConfig,
    StackKind,
    WorkloadConfig,
    stack_from_label,
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
from repro.experiments.tables import analytical_table, validation_table
from repro.nemesis import swarm as nemesis_swarm
from repro.nemesis.schedule import SCENARIOS, resolve_faultload

COMMANDS = (
    *FIGURES,
    "figures",
    "sweep",
    "analysis",
    "ablation",
    "predict",
    "all",
    "latencydist",
    "nemesis",
    "live",
    "profile",
)


def prediction_table(
    group_sizes: tuple[int, ...] = (3, 7),
    sizes: tuple[int, ...] = (64, 1024, 16384),
) -> str:
    """Design-time saturation-throughput predictions (no simulation)."""
    headers = ["n", "size (B)", "T modular (msg/s)", "T monolithic (msg/s)", "gain"]
    rows = []
    for n in group_sizes:
        for size in sizes:
            gap = predict_gap(n, 4, size)
            rows.append(
                [
                    str(n),
                    str(size),
                    f"{gap.modular.saturation_throughput:.0f}",
                    f"{gap.monolithic.saturation_throughput:.0f}",
                    f"+{100 * gap.throughput_gain:.0f}%",
                ]
            )
    return format_table(headers, rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the experiments of 'On the Cost of Modularity in "
            "Atomic Broadcast' (Rütti et al., DSN 2007)."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
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
            "comma-separated stacks for sweep/figure/nemesis commands "
            f"(known: {', '.join(nemesis_swarm.STACKS)}; defaults: the "
            "paper's modular+monolithic for sweeps and figures, "
            f"{','.join(nemesis_swarm.DEFAULT_STACKS)} for nemesis)"
        ),
    )
    population = parser.add_argument_group("client population options")
    population.add_argument(
        "--clients",
        type=int,
        default=None,
        metavar="N",
        help=(
            "attach a lazy client-population model of N logical clients "
            "to the workload (sweep/latencydist/live commands)"
        ),
    )
    population.add_argument(
        "--zipf",
        type=float,
        default=None,
        metavar="S",
        help="Zipf activity-skew exponent of the population (default: 1.1)",
    )
    population.add_argument(
        "--client-arrival",
        choices=tuple(arrival.value for arrival in ClientArrival),
        default=None,
        help="aggregate arrival law of the population (default: poisson)",
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
        "--n",
        type=int,
        default=3,
        metavar="N",
        help="group size for nemesis and live runs (default: 3)",
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
        "--stack",
        choices=STACK_LABELS,
        default="monolithic",
        help="protocol stack to deploy (default: monolithic)",
    )
    live.add_argument(
        "--load",
        type=float,
        default=100.0,
        metavar="MSGS/S",
        help="offered load across the group (default: 100)",
    )
    live.add_argument(
        "--size",
        type=int,
        default=1024,
        metavar="BYTES",
        help="message payload size (default: 1024)",
    )
    live.add_argument(
        "--duration",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="measurement window length (default: 5)",
    )
    live.add_argument(
        "--warmup",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="warm-up before the window opens (default: 0.5)",
    )
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
    obs.add_argument(
        "--trace-cap",
        type=int,
        default=None,
        metavar="N",
        help=(
            "span-trace ring-buffer capacity; the oldest records are "
            "evicted (and counted) beyond N (default: 200000 for "
            "profile, off for live unless --trace-out is given)"
        ),
    )
    return parser


def _maybe_export(report: FigureReport, csv_dir: Path | None) -> None:
    if csv_dir is None:
        return
    csv_dir.mkdir(parents=True, exist_ok=True)
    name = report.figure.lower().replace(" ", "")
    target = csv_dir / f"{name}.csv"
    write_sweep_csv(report.sweep, target)
    print(f"[csv] wrote {target}")


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
    from repro.live.deploy import LiveSpec
    from repro.live.faults import DEFAULT_RESTART_DELAY, run_nemesis_live

    if args.replay is not None:
        case = nemesis_swarm.load_case(args.replay)
        print(f"replaying live: {case.describe()}")
        faultload, stack, n = case.faultload, case.stack, case.n
    elif args.faultload is not None:
        faultload = resolve_faultload(args.faultload, n=args.n)
        stack, n = args.stack, args.n
    else:
        raise ConfigurationError(
            "nemesis --live needs a fixed schedule: pass --faultload SPEC "
            "(named scenario or JSON file) or --replay CASE.json"
        )
    spec = LiveSpec(
        n=n,
        stack=stack,
        load=args.load,
        size=args.size,
        duration=args.duration,
        warmup=args.warmup,
    )
    restart_delay = (
        args.restart_delay if args.restart_delay is not None
        else DEFAULT_RESTART_DELAY
    )
    report = run_nemesis_live(spec, faultload, restart_delay=restart_delay)
    print(f"live faultload on stack={stack} n={n}:")
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

    stacks_arg = (
        args.stacks
        if args.stacks is not None
        else ",".join(nemesis_swarm.DEFAULT_STACKS)
    )
    stacks = tuple(label for label in stacks_arg.split(",") if label)
    unknown = [label for label in stacks if label not in nemesis_swarm.STACKS]
    if unknown:
        raise ConfigurationError(
            f"unknown stack label(s) for --stacks: {', '.join(unknown)} "
            f"(known: {', '.join(nemesis_swarm.STACKS)})"
        )
    seed_count = args.seeds if args.seeds else 20
    seeds = range(1, seed_count + 1)

    if args.faultload is not None:
        faultload = resolve_faultload(args.faultload, n=args.n)
        cases = [
            nemesis_swarm.NemesisCase(
                stack=stack, seed=seed, n=args.n, fd="oracle", faultload=faultload
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
    from repro.live.deploy import LiveSpec, run_live

    population = _population(args)
    trace_cap = args.trace_cap
    if trace_cap is None and args.trace_out is not None:
        from repro.obs.profile import DEFAULT_TRACE_CAP

        trace_cap = DEFAULT_TRACE_CAP
    spec = LiveSpec(
        n=args.n,
        stack=args.stack,
        load=args.load,
        size=args.size,
        duration=args.duration,
        warmup=args.warmup,
        clients=population.clients if population is not None else 0,
        zipf_s=population.zipf_s if population is not None else 1.1,
        client_arrival=population.arrival.value
        if population is not None
        else "poisson",
        trace_cap=trace_cap or 0,
    )
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
        DEFAULT_TRACE_CAP,
        critical_path_summary,
        export_chrome_trace,
        layer_table,
        run_profile,
        summary_table,
    )

    labels = tuple(
        label
        for label in (args.stacks or "monolithic,modular").split(",")
        if label
    )
    if not labels:
        raise ConfigurationError("--stacks must name at least one stack")
    for label in labels:
        stack_from_label(label)  # raises with the sorted registry
    seed = args.seeds if args.seeds else 1
    runs = run_profile(
        labels,
        n=args.n,
        load=args.load,
        size=args.size,
        duration=args.duration,
        warmup=args.warmup,
        seed=seed,
        trace_cap=args.trace_cap or DEFAULT_TRACE_CAP,
    )
    print(
        f"profile: n={args.n} load={args.load:g} size={args.size} "
        f"duration={args.duration:g}s seed={seed}"
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


def _seeds(args: argparse.Namespace) -> tuple[int, ...] | None:
    """``--seeds N`` as the seeds 1..N; ``None`` leaves each command's default."""
    return tuple(range(1, args.seeds + 1)) if args.seeds else None


def _sweep_stacks(args: argparse.Namespace) -> tuple[StackKind, ...] | None:
    """Resolve ``--stacks`` labels to sweepable stack kinds.

    ``None`` (flag not given) keeps each sweep's paper defaults. Labels
    must be kind-pure: ``indirect`` is a consensus-variant twist on the
    modular *kind*, so a sweep keyed by :class:`StackKind` cannot
    represent it as a separate curve.
    """
    if args.stacks is None:
        return None
    kinds = []
    for label in args.stacks.split(","):
        if not label:
            continue
        config = stack_from_label(label)  # raises with the sorted registry
        if config != StackConfig(kind=config.kind):
            raise ConfigurationError(
                f"stack {label!r} is not sweepable: sweeps vary the stack "
                "kind only (pick one of: "
                + ", ".join(sorted(k.value for k in StackKind))
                + ")"
            )
        kinds.append(config.kind)
    if not kinds:
        raise ConfigurationError("--stacks must name at least one stack")
    return tuple(kinds)


def _population(args: argparse.Namespace) -> ClientPopulationConfig | None:
    """The client population requested on the command line, if any."""
    if args.clients is None and args.zipf is None and args.client_arrival is None:
        return None
    kwargs: dict = {}
    if args.clients is not None:
        kwargs["clients"] = args.clients
    if args.zipf is not None:
        kwargs["zipf_s"] = args.zipf
    if args.client_arrival is not None:
        kwargs["arrival"] = ClientArrival(args.client_arrival)
    return ClientPopulationConfig(**kwargs)


def _population_base(args: argparse.Namespace) -> RunConfig | None:
    """A sweep base config carrying the CLI's client population."""
    population = _population(args)
    if population is None:
        return None
    return RunConfig(workload=WorkloadConfig(population=population))


def _grid(args: argparse.Namespace) -> dict:
    """The grid options shared by the sweep and figure commands."""
    return dict(
        fast=args.fast, seeds=_seeds(args), jobs=args.jobs, stacks=_sweep_stacks(args)
    )


def _run_sweep(args: argparse.Namespace) -> int:
    """Run the load and size sweeps without the figure rendering."""
    grid = _grid(args)
    base = _population_base(args)
    sweeps = {p: paper_sweep(p, base=base, **grid) for p in SWEEPS}
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

    Runs one (n, stack, load) point — ``--n``, ``--stack``, ``--load``
    from the live option group — with the CLI's client population (a
    default population when no flags are given; this figure exists to
    show what a skewed client fleet experiences) and prints the full
    log-bucketed histogram with p50/p99/p999 markers.
    """
    population = _population(args) or ClientPopulationConfig()
    base = RunConfig(workload=WorkloadConfig(population=population))
    stack = stack_from_label(args.stack)
    sweep = paper_sweep(
        "offered_load",
        fast=args.fast,
        seeds=_seeds(args),
        loads=(args.load,),
        message_size=args.size,
        group_sizes=(args.n,),
        stacks=(stack.kind,),
        base=base,
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


def _export_json(sweeps: dict, path: Path) -> None:
    write_sweeps_json(sweeps, path)
    print(f"[json] wrote {path}")


def _dispatch(args: argparse.Namespace) -> int:
    def emit(text: object) -> None:
        print(text)
        print()

    command = args.command
    if command == "nemesis":
        return _run_nemesis(args)
    if command == "live":
        return _run_live(args)
    if command == "profile":
        return _run_profile(args)
    if command == "sweep":
        return _run_sweep(args)
    if command == "latencydist":
        return _run_latencydist(args)
    if command in FIGURES or command in ("figures", "all"):
        if command in FIGURES:
            reports = [figure(command, **_grid(args))]
        else:
            reports = all_figures(**_grid(args))
        for report in reports:
            emit(report)
            _maybe_export(report, args.csv)
        if args.json_out is not None:
            _export_json(
                {report.sweep.parameter: report.sweep for report in reports},
                args.json_out,
            )
    if command in ("predict", "all"):
        print("Design-time prediction (no simulation; repro.analysis.predict_gap):")
        emit(prediction_table())
    if command in ("analysis", "all"):
        print("Analytical evaluation (paper §5.2):")
        emit(analytical_table())
        print("Simulator validation (measured vs closed-form, steady state):")
        emit(validation_table())
    if command in ("ablation", "all"):
        print("Ablation of the monolithic optimizations (n=3, 16 KiB, loaded):")
        rows = run_ablation(seeds=(1,) if args.fast else (1, 2))
        emit(ablation_table(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
