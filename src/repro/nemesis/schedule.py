"""Faultload schedules: named scenarios, random generation, JSON round-trip.

A *faultload schedule* is just a :class:`~repro.config.FaultloadConfig`
value — a declarative set of timed fault events (crashes, partitions
with heal, loss bursts, delay spikes, wrong suspicions). This module is
the vocabulary layer around it:

* :func:`named_scenario` — a handful of canonical adversarial shapes
  (``coordinator-crash``, ``rolling-partition``, ``lossy-link``, …) that
  examples, tests and the CLI share;
* :func:`generate_faultload` — seeded random schedules for the swarm
  runner (deterministic: same rng state, same schedule);
* :func:`faultload_to_dict` / :func:`faultload_from_dict` and
  :func:`load_faultload` / :func:`dump_faultload` — a JSON form so a
  shrunk counterexample can be saved and replayed with one command;
  both directions are read off the dataclass fields, which is also how
  :mod:`repro.nemesis.swarm` stores a whole replay case.

Everything here is pure data manipulation; :mod:`repro.nemesis.steps`
compiles a faultload into the timed steps the simulator and the live
runner execute.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

from repro.config import (
    CrashEvent,
    DelaySpike,
    FaultloadConfig,
    LinkFaultMode,
    LossBurst,
    PartitionEvent,
    WrongSuspicion,
    plain,
    read_fields,
)
from repro.errors import ConfigurationError

#: Names accepted by ``--faultload`` (see :func:`named_scenario`).
SCENARIOS = (
    "good-run",
    "coordinator-crash",
    "rolling-partition",
    "lossy-link",
    "wrong-suspicion",
    "churn",
)


def named_scenario(name: str, n: int = 3) -> FaultloadConfig:
    """Build one of the canonical faultload scenarios for a group of *n*.

    All times assume the nemesis default run shape (warmup 0.2 s,
    duration ~1.2 s): faults start after warm-up and heal well before
    the run ends, so liveness is checkable.
    """
    others = tuple(range(1, n))
    if name == "good-run":
        return FaultloadConfig()
    if name == "coordinator-crash":
        # p0 coordinates round 1 of every instance; this is the paper's
        # worst single crash.
        return FaultloadConfig(crashes=(CrashEvent(0.45, 0),))
    if name == "rolling-partition":
        # Isolate the coordinator, heal, then isolate another process.
        return FaultloadConfig(
            partitions=(
                PartitionEvent(start=0.3, heal=0.55, groups=((0,), others)),
                PartitionEvent(
                    start=0.7, heal=0.95, groups=((1,), (0, *others[1:]))
                ),
            )
        )
    if name == "lossy-link":
        # The coordinator's link to its first follower retransmits
        # heavily in both directions for half the run.
        return FaultloadConfig(
            loss_bursts=(
                LossBurst(start=0.3, end=0.9, probability=0.35, src=0, dst=1),
                LossBurst(start=0.3, end=0.9, probability=0.35, src=1, dst=0),
            )
        )
    if name == "wrong-suspicion":
        # Two followers wrongly suspect the live coordinator, forcing
        # round changes while p0 keeps participating.
        suspicions = [
            WrongSuspicion(time=0.35, observer=pid, suspect=0, duration=0.25)
            for pid in others[:2]
        ]
        return FaultloadConfig(wrong_suspicions=tuple(suspicions))
    if name == "churn":
        # A crash, a partition and a delay spike overlapping — the
        # roughest minority-safe weather the model allows for small n.
        return FaultloadConfig(
            crashes=(CrashEvent(0.6, n - 1),),
            partitions=(
                PartitionEvent(start=0.3, heal=0.5, groups=((0,), others)),
            ),
            delay_spikes=(
                DelaySpike(start=0.45, end=0.8, extra_delay=0.01, jitter=0.005),
            ),
        )
    raise ConfigurationError(
        f"unknown faultload scenario {name!r}; choose from {', '.join(SCENARIOS)}"
    )


def generate_faultload(
    rng: random.Random,
    n: int,
    *,
    window: tuple[float, float] = (0.25, 1.0),
    benign_only: bool = False,
) -> FaultloadConfig:
    """Draw one random faultload schedule.

    Args:
        rng: Source of randomness (derive it from the run seed for
            reproducibility).
        n: Group size the schedule targets.
        window: ``(earliest, latest)`` bounds on fault activity; heals
            land inside the window so the liveness watchdog has quiet
            time afterwards.
        benign_only: Restrict to delay spikes (no crashes, partitions,
            loss or suspicions). Used for the sequencer stack, which is
            good-run-only by design.

    The schedule respects the system model: at most a minority of
    processes crash, and all partitions/loss bursts are HOLD mode so
    quasi-reliable channels (and hence liveness) are preserved.
    """
    lo, hi = window
    span = hi - lo

    def when(margin: float = 0.0) -> float:
        return lo + rng.random() * max(span - margin, 0.01)

    spikes = []
    for __ in range(rng.randrange(0, 3)):
        start = when(margin=0.1)
        spikes.append(
            DelaySpike(
                start=start,
                end=min(hi, start + 0.05 + rng.random() * 0.25),
                extra_delay=rng.uniform(0.001, 0.02),
                jitter=rng.uniform(0.0, 0.01),
                src=rng.choice([None, rng.randrange(n)]),
            )
        )
    if benign_only:
        return FaultloadConfig(delay_spikes=tuple(spikes))

    max_crashes = (n - 1) // 2
    crashes = []
    for victim in rng.sample(range(n), k=rng.randrange(0, max_crashes + 1)):
        crashes.append(CrashEvent(time=when(), process=victim))

    partitions = []
    if rng.random() < 0.6:
        isolated = frozenset(rng.sample(range(n), k=rng.randrange(1, n // 2 + 1)))
        start = when(margin=0.15)
        partitions.append(
            PartitionEvent(
                start=start,
                heal=min(hi, start + 0.1 + rng.random() * 0.25),
                groups=(
                    tuple(sorted(isolated)),
                    tuple(p for p in range(n) if p not in isolated),
                ),
                mode=LinkFaultMode.HOLD,
            )
        )

    bursts = []
    if rng.random() < 0.5:
        start = when(margin=0.15)
        bursts.append(
            LossBurst(
                start=start,
                end=min(hi, start + 0.1 + rng.random() * 0.3),
                probability=rng.uniform(0.05, 0.5),
                src=rng.choice([None, rng.randrange(n)]),
                dst=rng.choice([None, rng.randrange(n)]),
                mode=LinkFaultMode.HOLD,
                retry_delay=rng.uniform(0.05, 0.25),
            )
        )

    crashed = {c.process for c in crashes}
    suspicions = []
    for __ in range(rng.randrange(0, 3)):
        observer = rng.randrange(n)
        # Bias towards suspecting the round-1 coordinator: that is the
        # suspicion that actually changes protocol behaviour.
        suspect = 0 if rng.random() < 0.6 else rng.randrange(n)
        if observer == suspect or observer in crashed:
            continue
        suspicions.append(
            WrongSuspicion(
                time=when(margin=0.1),
                observer=observer,
                suspect=suspect,
                duration=rng.uniform(0.1, 0.3),
            )
        )

    return FaultloadConfig(
        crashes=tuple(crashes),
        partitions=tuple(partitions),
        loss_bursts=tuple(bursts),
        delay_spikes=tuple(spikes),
        wrong_suspicions=tuple(suspicions),
    )


# -- JSON round-trip --------------------------------------------------------
#
# Both directions are read off the dataclasses — the fault events in
# repro.config and the nemesis replay case — by repro.config's plain and
# read_fields: a new field (or a sixth event list) is one edit there.


def faultload_to_dict(faultload: FaultloadConfig) -> dict[str, Any]:
    """Plain-dict form of a faultload, suitable for ``json.dump``."""
    return plain(faultload)


def faultload_from_dict(data: dict[str, Any]) -> FaultloadConfig:
    """Inverse of :func:`faultload_to_dict`.

    Missing event lists and per-event optional keys take the defaults
    the dataclasses declare; everything present is schema-checked, and a
    violation raises :class:`~repro.errors.ConfigurationError` naming the
    offending field (e.g. ``crashes[0].time``) rather than a bare
    ``KeyError`` — these dicts come from user-supplied
    ``--faultload``/``--replay`` files.
    """
    return read_fields(FaultloadConfig, data)


def read_json(path: str | Path) -> Any:
    """The JSON document in the file at *path* (invalid JSON is a
    :class:`~repro.errors.ConfigurationError` naming the file)."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc


def write_json(document: Any, path: str | Path) -> None:
    """Write *document* to *path* as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_faultload(path: str | Path) -> FaultloadConfig:
    """Read a faultload schedule from a JSON file.

    Raises:
        ConfigurationError: The file is not valid JSON or does not match
            the faultload schema; the message names the problem.
    """
    return faultload_from_dict(read_json(path))


def dump_faultload(faultload: FaultloadConfig, path: str | Path) -> None:
    """Write a faultload schedule to a JSON file."""
    write_json(faultload_to_dict(faultload), path)


def resolve_faultload(spec: str, n: int = 3) -> FaultloadConfig:
    """Resolve a ``--faultload`` argument: scenario name or JSON path."""
    if spec in SCENARIOS:
        return named_scenario(spec, n)
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        return load_faultload(path)
    raise ConfigurationError(
        f"--faultload {spec!r} is neither a named scenario "
        f"({', '.join(SCENARIOS)}) nor a JSON file"
    )
