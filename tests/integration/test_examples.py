"""Smoke tests: the runnable examples must stay runnable.

Each example is loaded as a module from ``examples/`` and its ``main()``
is executed with stdout captured. The slow studies (full evaluation,
WAN sweep, FD QoS sweep) are exercised indirectly through the APIs they
call; here we run the quick ones end to end.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

QUICK_EXAMPLES = (
    "quickstart",
    "replicated_kv_store",
    "fault_injection_demo",
    "protocol_trace_demo",
)


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
@pytest.mark.parametrize("name", QUICK_EXAMPLES)
def test_example_runs_and_produces_output(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100


def test_quickstart_reports_the_modularity_gap(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "modular" in out and "monolithic" in out
    assert "cost of modularity" in out


def test_kv_store_replicas_converge(capsys):
    load_example("replicated_kv_store").main()
    out = capsys.readouterr().out
    assert "identical contents" in out


@pytest.mark.filterwarnings("ignore::repro.errors.StationarityWarning")
def test_fault_demo_verifies_safety(capsys):
    load_example("fault_injection_demo").main()
    out = capsys.readouterr().out
    assert "safety verified" in out


def test_all_examples_have_docstrings_and_main():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        source = path.read_text()
        assert source.lstrip().startswith(('#!/usr/bin/env python3', '"""')), path
        assert "def main()" in source, f"{path} lacks a main()"
        assert '"""' in source.split("def main()")[0], f"{path} lacks a docstring"
