"""Rendering of nemesis trace slices and per-message timelines."""

from pathlib import Path

from repro.net.message import NetMessage
from repro.obs.format import format_message_path, format_trace_slice
from repro.sim.tracing import TraceRecord
from repro.types import MessageId

DATA = Path(__file__).resolve().parents[2] / "data"


class TestTraceSlice:
    def test_classifies_events_into_layers(self):
        # The monitor tags each row with its layer when it notes the
        # event; the renderer only lays the rows out.
        rows = [
            (1.25, "p0", "abcast", "adeliver m(0:1)"),
            (1.3, "-", "fault", "partition [0|1,2] up"),
            (1.4, "-", "violation", "total-order: p1 diverges at position 0"),
            (0.0, "-", "watchdog", "watchdog disarmed: faultload destroys messages"),
        ]
        assert format_trace_slice(rows).splitlines() == [
            "     t  proc      layer  event",
            "1.2500    p0     abcast  adeliver m(0:1)",
            "1.3000     -      fault  partition [0|1,2] up",
            "1.4000     -  violation  total-order: p1 diverges at position 0",
            "0.0000     -   watchdog  watchdog disarmed: faultload destroys messages",
        ]

    def test_an_empty_slice_is_just_the_header(self):
        assert format_trace_slice(()).split() == ["t", "proc", "layer", "event"]

    def test_rendering_of_a_real_slice_is_unchanged_since_the_parent(self):
        # Golden written by the parent commit's regex-parsing renderer
        # over the string slice of the same violation.
        from repro.nemesis import swarm

        result = swarm.run_case(swarm.generate_case("broken", 2))
        golden = DATA / "nemesis" / "broken_seed2_first_slice.txt"
        rendered = format_trace_slice(result.violations[0].trace_slice)
        assert rendered + "\n" == golden.read_text()


class TestMessagePath:
    def records(self):
        msg = MessageId(0, 3)
        net = NetMessage(
            kind="seq", module="abcast", src=0, dst=1, payload=None,
            payload_size=512, header_size=24,
        )
        return [
            TraceRecord(0.100, "abcast.submit", 0, msg),
            TraceRecord(0.1004, "net.send", 0, net),
            TraceRecord(0.1009, "net.recv", 1, net),
            TraceRecord(0.101, "span.adeliver", 1, ("app", 1e-05, msg)),
            TraceRecord(0.101, "abcast.adeliver", 1, msg),
        ]

    def test_timeline_rows_and_deltas(self):
        out = format_message_path(self.records())
        rows = out.splitlines()
        assert rows[0].split()[:3] == ["t", "(ms)", "+µs"]
        assert "submit" in rows[1]
        assert "seq" in rows[2] and "p0->p1" in rows[2]
        assert "adeliver upcall in app" in rows[4]
        assert "adeliver" in rows[5]
        # Delta column: second row is +400µs after the submit.
        assert "+400" in rows[2]

    def test_empty_path_reads_as_such(self):
        assert "no records" in format_message_path([])
