"""Parallel execution of sweep grids across worker processes.

A sweep is an embarrassingly parallel bag of independent simulations:
every (config point, seed) pair is a pure function of its arguments, so
the grid can fan out over a :class:`~concurrent.futures.ProcessPoolExecutor`
without changing a single result. Two properties make the fan-out safe:

* **Determinism of each task.** A simulation run depends only on
  ``(config, seed)`` — never on process-global state — so it computes
  the same :class:`~repro.experiments.runner.RunResult` in any worker.
* **Determinism of the merge.** Results are collected in *submission
  order* (``ProcessPoolExecutor.map`` preserves input order), so the
  reduced sweep — and any JSON rendered from it — is byte-identical for
  every ``jobs`` value, including the serial ``jobs=1`` path.

Workers capture :class:`~repro.errors.StationarityWarning` instead of
printing it from the child; the parent re-emits the captured warnings in
submission order, again so serial and parallel runs behave alike.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.config import RunConfig
from repro.errors import StationarityWarning
from repro.experiments.runner import RunResult, run_simulation

_T = TypeVar("_T")
_R = TypeVar("_R")

#: A single simulation task: the fully resolved config plus its seed.
SimTask = tuple[RunConfig, int]


def run_tasks(
    fn: Callable[[_T], _R], tasks: Iterable[_T], *, jobs: int = 1
) -> list[_R]:
    """Apply *fn* to every task, fanning out over worker processes.

    Args:
        fn: A picklable module-level function (workers import it by
            qualified name under the ``spawn`` start method).
        tasks: Picklable task descriptions.
        jobs: Maximum worker processes. ``jobs <= 1`` runs everything
            serially in-process — no pool, no pickling, same results.

    Returns:
        One result per task, in task order regardless of *jobs* — the
        merge is keyed by submission index, not completion time.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def simulate_task(task: SimTask) -> tuple[RunResult, tuple[str, ...]]:
    """Run one simulation; return its result plus captured warnings.

    Stationarity warnings are returned as strings rather than emitted,
    so a worker process never writes to the parent's stderr; the parent
    re-emits them in deterministic (submission) order.
    """
    config, seed = task
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", StationarityWarning)
        result = run_simulation(config, seed=seed)
    messages = tuple(
        str(w.message) for w in caught if issubclass(w.category, StationarityWarning)
    )
    return result, messages


def run_simulations(tasks: Sequence[SimTask], *, jobs: int = 1) -> list[RunResult]:
    """Run a batch of simulations, possibly in parallel, in task order."""
    outcomes = run_tasks(simulate_task, tasks, jobs=jobs)
    results = []
    for result, messages in outcomes:
        for message in messages:
            warnings.warn(message, StationarityWarning, stacklevel=2)
        results.append(result)
    return results
