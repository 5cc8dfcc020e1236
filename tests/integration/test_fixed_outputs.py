"""``results/full_run.txt`` is the project's fixed output — keep it fixed.

The file is what ``python -m repro all`` prints (see "Provenance of the
archive" in EXPERIMENTS.md). Tier-1 re-runs the two cheap blocks of
that command and finds them in the file; ``-m slow`` (and the CI
``fixed-outputs`` job) re-runs all of it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli

ROOT = Path(__file__).resolve().parents[2]
ARCHIVE = ROOT / "results" / "full_run.txt"


@pytest.mark.parametrize("command", ["predict", "analysis"])
def test_cheap_blocks_of_repro_all_match_the_archive(command, capsys):
    assert cli.main([command]) == 0
    block = capsys.readouterr().out
    assert len(block.splitlines()) >= 8
    assert block in ARCHIVE.read_text()


@pytest.mark.slow
def test_repro_all_prints_the_archive():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "all", "--jobs", "2"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == ARCHIVE.read_text()
