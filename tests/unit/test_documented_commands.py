"""Every ``python -m repro …`` command the README and CI show still parses.

A command is read the way a shell would see it: backslash continuations
(and YAML ``run: >`` folded blocks) are joined into one line, and the
command ends at a comment, a pipe, a redirect, a shell operator or the
closing backtick of inline code. Parsing only — nothing is run.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[2]

#: Source file → how many commands it showed when this test was written;
#: fewer means the extraction (or the document) lost some.
SOURCES = {"README.md": 29, ".github/workflows/ci.yml": 13}

_COMMAND = re.compile(r"python -m repro(?![\w.])([^`#|<>&;\n]*)")

#: A YAML folded block scalar: ``key: >`` and the lines indented under it.
_FOLDED = re.compile(r">\n(([ \t]+)\S.*\n(?:\2\S.*\n)*)")


def documented_commands(name: str) -> list[list[str]]:
    text = (ROOT / name).read_text(encoding="utf-8")
    text = re.sub(r"\\\n\s*", " ", text)
    if name.endswith(".yml"):
        text = _FOLDED.sub(lambda m: " ".join(m.group(1).split()) + "\n", text)
    return [shlex.split(match.group(1)) for match in _COMMAND.finditer(text)]


@pytest.mark.parametrize("name", SOURCES)
def test_every_documented_command_parses(name):
    commands = documented_commands(name)
    assert len(commands) >= SOURCES[name]
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as stop:  # --help exits 0, a parse error 2
            if stop.code:
                pytest.fail(f"{name}: python -m repro {shlex.join(argv)} does not parse")


def test_continuations_are_joined():
    readme = documented_commands("README.md")
    assert ["latencydist", "--clients", "100000", "--zipf", "1.2",
            "--client-arrival", "bursty", "--load", "800", "--n", "3",
            "--stack", "monolithic"] in readme
    ci = documented_commands(".github/workflows/ci.yml")
    assert ["profile", "--stacks", "monolithic,modular", "--duration", "2",
            "--trace-out", "profile-trace.json"] in ci
    assert any("--json-out" in argv and "--clients" in argv for argv in ci)
