"""Unit tests for the swarm runner and the shrinker."""

from pathlib import Path

import pytest

from repro.config import CrashEvent, FaultloadConfig, WrongSuspicion
from repro.errors import ConfigurationError
from repro.nemesis.schedule import named_scenario
from repro.nemesis.shrink import shrink_faultload
from repro.nemesis.swarm import (
    DEFAULT_STACKS,
    NemesisCase,
    STACKS,
    case_from_dict,
    case_to_dict,
    generate_case,
    load_case,
    repro_command,
    run_case,
    save_case,
    shrink_case,
    sweep,
    sweep_cases,
)

#: One wrong suspicion at a non-coordinator: exactly the trigger of the
#: seeded bug in repro.nemesis.broken, with nothing else going on.
TRIGGER = FaultloadConfig(
    wrong_suspicions=(WrongSuspicion(time=0.5, observer=1, suspect=0),)
)


# -- shrinker (pure) --------------------------------------------------------


def test_shrinker_reduces_to_the_single_relevant_event():
    culprit = CrashEvent(time=0.6, process=2)
    faultload = named_scenario("churn", n=3)
    assert culprit in faultload.events()
    assert len(faultload.events()) > 1

    runs = []

    def still_fails(candidate):
        runs.append(candidate)
        return culprit in candidate.events()

    minimal = shrink_faultload(faultload, still_fails)
    assert minimal.events() == (culprit,)
    assert runs  # the oracle was actually consulted


def test_shrinker_keeps_everything_when_nothing_can_be_dropped():
    faultload = named_scenario("rolling-partition", n=3)

    def still_fails(candidate):
        return len(candidate.events()) == len(faultload.events())

    assert shrink_faultload(faultload, still_fails) == faultload


def test_shrinker_respects_the_run_budget():
    faultload = named_scenario("churn", n=3)
    calls = []

    def still_fails(candidate):
        calls.append(candidate)
        return False

    shrink_faultload(faultload, still_fails, max_runs=2)
    assert len(calls) == 2


# -- case derivation --------------------------------------------------------


def test_generate_case_is_a_pure_function_of_stack_seed_n():
    assert generate_case("modular", 5) == generate_case("modular", 5)
    assert generate_case("modular", 5) != generate_case("modular", 6)
    # Different stacks draw from different streams: same seed, different
    # schedule (checked over several seeds to dodge coincidences).
    assert any(
        generate_case("modular", seed).faultload
        != generate_case("monolithic", seed).faultload
        for seed in range(5)
    )


def test_sequencer_cases_are_benign_only():
    for seed in range(10):
        case = generate_case("sequencer", seed)
        faultload = case.faultload
        assert not faultload.crashes
        assert not faultload.partitions
        assert not faultload.wrong_suspicions


def test_unknown_stack_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown nemesis stack"):
        generate_case("bogus", 1)


def test_default_sweep_covers_the_fault_tolerant_stacks():
    assert DEFAULT_STACKS == ("modular", "monolithic", "indirect", "ringpaxos")
    assert set(DEFAULT_STACKS) <= set(STACKS)
    assert "broken" not in DEFAULT_STACKS
    # The sequencer family is good-run-only and must stay out of the
    # crash/suspicion sweep (but stays reachable via --stacks).
    assert "sequencer" not in DEFAULT_STACKS
    assert "batched-sequencer" not in DEFAULT_STACKS
    assert STACKS["batched-sequencer"].benign_only


def test_case_json_round_trip(tmp_path):
    case = generate_case("indirect", 9)
    assert case_from_dict(case_to_dict(case)) == case
    path = tmp_path / "case.json"
    save_case(case, path)
    assert load_case(path) == case
    assert str(path) in repro_command(path)


GOLDEN = Path(__file__).resolve().parents[2] / "data" / "nemesis"


def test_a_case_without_fd_or_faultload_takes_the_dataclass_defaults():
    case = case_from_dict({"stack": "modular", "seed": 4, "n": 3})
    assert case == NemesisCase("modular", 4, 3)
    assert case.fd == "oracle" and case.faultload == FaultloadConfig()


def test_an_unknown_fd_is_refused_at_load_naming_the_field():
    with pytest.raises(ConfigurationError, match=r"NemesisCase\.fd must be one of"):
        case_from_dict({"stack": "modular", "seed": 4, "n": 3, "fd": "psychic"})
    with pytest.raises(ConfigurationError, match="'stack' must be a string"):
        case_from_dict({"stack": 7, "seed": 4, "n": 3})


@pytest.mark.parametrize(
    "path",
    sorted(p for p in GOLDEN.glob("*.json") if not p.name.startswith("faultload-")),
    ids=lambda path: path.name,
)
def test_every_saved_case_round_trips_unchanged(path, tmp_path):
    save_case(load_case(path), tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == path.read_bytes()


# -- execution --------------------------------------------------------------


def test_run_case_passes_on_a_correct_stack():
    case = NemesisCase(
        stack="monolithic", seed=3, n=3, fd="oracle", faultload=TRIGGER
    )
    result = run_case(case)
    assert result.passed
    assert result.deliveries > 0


def test_run_case_catches_the_seeded_bug():
    case = NemesisCase(
        stack="broken", seed=3, n=3, fd="oracle", faultload=TRIGGER
    )
    result = run_case(case)
    assert not result.passed
    assert result.violations[0].invariant in ("uniform-integrity", "total-order")


def test_run_case_is_deterministic():
    case = NemesisCase(
        stack="broken", seed=3, n=3, fd="oracle", faultload=TRIGGER
    )
    first, second = run_case(case), run_case(case)
    assert first.violations == second.violations
    assert first.deliveries == second.deliveries
    assert first.events_executed == second.events_executed


def test_shrunk_counterexample_still_fails_and_is_minimal():
    # Bury the trigger among irrelevant faults; the shrinker must dig
    # it back out.
    noisy = FaultloadConfig(
        crashes=(CrashEvent(0.8, 2),),
        wrong_suspicions=TRIGGER.wrong_suspicions,
        delay_spikes=named_scenario("churn").delay_spikes,
    )
    case = NemesisCase(stack="broken", seed=3, n=3, fd="oracle", faultload=noisy)
    assert not run_case(case).passed
    minimal = shrink_case(case)
    assert not minimal.passed
    assert len(minimal.case.faultload.events()) < len(noisy.events())
    # 1-minimality: dropping any remaining event loses the failure.
    for event in minimal.case.faultload.events():
        smaller = NemesisCase(
            stack="broken", seed=3, n=3, fd="oracle",
            faultload=minimal.case.faultload.without(event),
        )
        assert run_case(smaller).passed


def test_sweep_reports_failures_with_shrunk_counterexamples():
    report = sweep([3], stacks=("monolithic", "broken"))
    assert not report.ok
    assert report.cases_run == 2
    failing = report.failures
    assert [r.case.stack for r in failing] == ["broken"]
    assert len(report.counterexamples) == 1
    ce = report.counterexamples[0]
    assert not ce.minimal.passed
    assert ce.dropped_events >= 0
    assert "FAIL" in report.summary()


def test_sweep_cases_takes_prepared_cases_and_can_skip_shrinking():
    # What `nemesis --faultload` does: the caller brings the cases.
    noisy = FaultloadConfig(
        crashes=(CrashEvent(0.8, 2),), wrong_suspicions=TRIGGER.wrong_suspicions
    )
    cases = [
        NemesisCase(stack=stack, seed=3, n=3, fd="oracle", faultload=noisy)
        for stack in ("monolithic", "broken")
    ]
    unshrunk = sweep_cases(cases, shrink=False)
    assert [result.case for result in unshrunk.results] == cases
    (ce,) = unshrunk.counterexamples
    assert ce.minimal is ce.original and ce.dropped_events == 0
    (shrunk,) = sweep_cases(cases).counterexamples
    assert shrunk.original.violations == ce.original.violations
    assert shrunk.minimal.case.faultload == TRIGGER
