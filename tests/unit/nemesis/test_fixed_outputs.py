"""The nemesis layer's fixed outputs, pinned byte for byte.

Every file under ``tests/data/nemesis/`` was written by the commit
*before* the abcast spec, the fault-event schema and the trace rows were
each given one owner (PR 17), so equality here means the refactor moved
no verdict and no byte of a passing output. The one rendering that did
change on purpose — how the CLI prints a *failure* — is checked for its
content instead.
"""

import contextlib
import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.nemesis.schedule import (
    SCENARIOS,
    dump_faultload,
    load_faultload,
    named_scenario,
)
from repro.nemesis.swarm import generate_case, load_case, save_case

GOLDEN = Path(__file__).resolve().parents[2] / "data" / "nemesis"


def run_cli(*argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    return code, stdout.getvalue()


def test_a_passing_sweep_prints_the_same_text():
    code, text = run_cli("nemesis", "--seeds", "3")
    assert code == 0
    assert text == (GOLDEN / "seeds3.txt").read_text()


@pytest.mark.parametrize("name", SCENARIOS)
def test_named_scenarios_dump_to_the_same_bytes(name, tmp_path):
    golden = GOLDEN / f"faultload-{name}.json"
    dump_faultload(named_scenario(name, 3), tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == golden.read_bytes()
    assert load_faultload(golden) == named_scenario(name, 3)


def test_a_saved_case_round_trips_to_the_same_bytes(tmp_path):
    # modular/38 draws all five event kinds and the heartbeat detector.
    golden = GOLDEN / "case-modular-seed38.json"
    case = load_case(golden)
    assert case == generate_case("modular", 38, 3)
    assert all(
        (case.faultload.crashes, case.faultload.partitions,
         case.faultload.loss_bursts, case.faultload.delay_spikes,
         case.faultload.wrong_suspicions)
    )
    save_case(case, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_bytes() == golden.read_bytes()


@pytest.fixture(scope="module")
def broken_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("counterexamples")
    code, text = run_cli(
        "nemesis", "--stacks", "broken", "--seeds", "2", "--out", str(out)
    )
    return code, text, out


def test_counterexample_files_are_the_same_bytes(broken_sweep):
    code, __, out = broken_sweep
    assert code == 1
    names = ["broken-seed1-0.json", "broken-seed2-1.json"]
    assert sorted(path.name for path in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_a_failure_prints_the_first_violation_and_the_slice_that_ends_at_it(
    broken_sweep,
):
    code, text, out = broken_sweep
    assert code == 1
    lines = text.splitlines()
    assert lines[0] == "nemesis: 2 case(s), 2 failing, 527 deliveries checked"
    # Seed 2 cascades into 17 duplicate deliveries; the cause is the first.
    start = lines.index(f"counterexample written: {out}/broken-seed2-1.json")
    report = lines[start + 2 :]
    assert report[0] == "  [uniform-integrity @ t=0.7798] p2 adelivered m(2:31) twice"
    assert report[1].startswith("  trace slice")
    assert report[2].split() == ["t", "proc", "layer", "event"]
    assert report[14].split() == ["0.7798", "p2", "abcast", "adeliver", "m(2:31)"]
    assert report[15] == "  + 16 further uniform-integrity violation(s)"
    assert len(report) == 16
    # The cascade is counted, not listed.
    assert sum("twice" in line for line in report) == 1


def test_replaying_a_counterexample_fails_with_the_same_first_violation(broken_sweep):
    __, __, out = broken_sweep
    code, text = run_cli("nemesis", "--replay", str(out / "broken-seed2-1.json"))
    assert code == 1
    lines = text.splitlines()
    assert lines[1] == "FAIL: 17 violation(s)"
    assert lines[2] == "  [uniform-integrity @ t=0.7798] p2 adelivered m(2:31) twice"
