"""Validates the simulator against the paper's §5.2 closed forms.

These are the tests that tie the implementation to the paper: in
steady-state good runs, the network counters must reproduce the
analytical message counts — (n-1)(M + 2 + ⌊(n+1)/2⌋) for the modular
stack, 2(n-1) for the monolithic one — and the §5.2.2 data volumes.
"""

import pytest

from repro.config import StackKind
from repro.experiments.tables import validate_stack


@pytest.mark.parametrize("n", [3, 7])
def test_modular_message_count_matches_formula(n):
    row = validate_stack(n, StackKind.MODULAR, message_size=2048, duration=1.0)
    assert row.measured_m == pytest.approx(4.0, abs=0.3)
    assert row.message_error < 0.05, (
        f"modular n={n}: measured {row.measured_messages:.2f} msgs/consensus, "
        f"formula {row.predicted_messages:.2f}"
    )


@pytest.mark.parametrize("n", [3, 7])
def test_monolithic_message_count_matches_formula(n):
    row = validate_stack(n, StackKind.MONOLITHIC, message_size=2048, duration=1.0)
    assert row.measured_messages == pytest.approx(2 * (n - 1), rel=0.05)


@pytest.mark.parametrize("n", [3, 7])
def test_payload_volumes_match_formulas(n):
    modular = validate_stack(n, StackKind.MODULAR, message_size=4096, duration=1.0)
    mono = validate_stack(n, StackKind.MONOLITHIC, message_size=4096, duration=1.0)
    assert modular.payload_error < 0.10
    assert mono.payload_error < 0.10


@pytest.mark.parametrize("n", [3, 7])
def test_measured_data_overhead_approaches_paper_value(n):
    """(n-1)/(n+1): 50% for n=3, 75% for n=7 — measured on the wire.

    The measured overhead uses each stack's own measured M (they differ
    slightly), so allow a modest tolerance around the closed form.
    """
    modular = validate_stack(n, StackKind.MODULAR, message_size=8192, duration=1.0)
    mono = validate_stack(n, StackKind.MONOLITHIC, message_size=8192, duration=1.0)
    per_message_modular = modular.measured_payload_bytes / modular.measured_m
    per_message_mono = mono.measured_payload_bytes / mono.measured_m
    overhead = (per_message_modular - per_message_mono) / per_message_mono
    assert overhead == pytest.approx((n - 1) / (n + 1), abs=0.12)


def test_modular_sends_4x_the_messages_at_n3():
    """The paper's §5.2.1 example: 16 messages vs 4 to order M=4."""
    modular = validate_stack(3, StackKind.MODULAR, message_size=2048, duration=1.0)
    mono = validate_stack(3, StackKind.MONOLITHIC, message_size=2048, duration=1.0)
    ratio = modular.measured_messages / mono.measured_messages
    assert ratio == pytest.approx(4.0, rel=0.10)
