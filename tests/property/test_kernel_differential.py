"""`Kernel.run` against the loop it inlines.

The ordering and cancellation tests of the calendar go through
`EventQueue.pop()` / `peek_time()`, which production never calls:
`Kernel.run` pops the heap itself. The reference kept here is that same
loop spelled with `pop()` and `peek_time()`; random programs of
post / schedule / schedule_at / cancel / stop / run(until) must drive
both to the same firings, clock, event count, leftovers and errors.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.eventq import EventQueue
from repro.sim.kernel import Kernel


class ReferenceKernel:
    """The run loop, one `peek_time()` and one `pop()` per event."""

    def __init__(self, max_events):
        self.now = 0.0
        self.events_executed = 0
        self._queue = EventQueue()
        self._max_events = max_events
        self._stopped = False
        self.post = self._queue.post

    @property
    def pending_events(self):
        return len(self._queue)

    def schedule(self, delay, callback):
        return self._queue.push(self.now + delay, callback)

    def schedule_at(self, time, callback):
        return self._queue.push(time, callback)

    def stop(self):
        self._stopped = True

    def run(self, until=None):
        self._stopped = False
        while not self._stopped:
            time = self._queue.peek_time()
            if time is None or (until is not None and time > until):
                break
            event = self._queue.pop()
            if event.time < self.now:
                raise SimulationError("past event")
            self.now = event.time
            self.events_executed += 1
            if self.events_executed > self._max_events:
                raise SimulationError("event budget")
            event.callback()
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now


delays = st.floats(min_value=0.0, max_value=4.0) | st.sampled_from([0.0, 1.0])
body_commands = st.one_of(
    st.tuples(st.just("post"), delays),
    st.tuples(st.just("schedule"), delays),
    st.tuples(st.just("schedule_at"), delays),
    # An absolute time on the unchecked path: may lie in the past.
    st.tuples(st.just("post_abs"), st.floats(min_value=0.0, max_value=6.0)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("stop")),
)
bodies = st.lists(st.lists(body_commands, max_size=4), max_size=25)
runs = st.tuples(st.just("run"), st.none() | st.floats(min_value=0.0, max_value=8.0))
programs = st.lists(body_commands | runs, min_size=1, max_size=30)


def execute(kernel, program, bodies):
    """Run *program* on *kernel*; return everything observable."""
    log, handles, next_body = [], [], [0]

    def event():
        index = next_body[0]
        next_body[0] += 1

        def fire():
            log.append(("fire", index, kernel.now))
            if index < len(bodies):
                for command in bodies[index]:
                    step(command)

        return fire

    def step(command):
        op = command[0]
        if op == "post":
            kernel.post(kernel.now + command[1], event())
        elif op == "post_abs":
            kernel.post(command[1], event())
        elif op == "schedule":
            handles.append(kernel.schedule(command[1], event()))
        elif op == "schedule_at":
            handles.append(kernel.schedule_at(kernel.now + command[1], event()))
        elif op == "cancel":
            if command[1] < len(handles):
                handles[command[1]].cancel()
        elif op == "stop":
            kernel.stop()

    for command in program + [("run", None)]:
        if command[0] != "run":
            step(command)
            continue
        try:
            returned = kernel.run(until=command[1])
        except SimulationError as exc:
            kind = "budget" if "budget" in str(exc) else "past"
            log.append(("raised", kind, kernel.now, kernel.events_executed))
            break
        log.append(
            ("ran", returned, kernel.now, kernel.events_executed, kernel.pending_events)
        )
    return log


@settings(max_examples=400, deadline=None)
@given(programs, bodies, st.integers(min_value=1, max_value=60))
def test_kernel_run_is_the_pop_loop(program, bodies, max_events):
    ours = execute(Kernel(max_events=max_events), program, bodies)
    reference = execute(ReferenceKernel(max_events), program, bodies)
    assert ours == reference


def test_run_until_leaves_later_events_queued_and_past_events_raise():
    for kernel in (Kernel(), ReferenceKernel(10**9)):
        fired = []
        kernel.post(1.0, lambda: fired.append(1.0))
        kernel.schedule(3.0, lambda: fired.append(3.0))
        assert kernel.run(until=2.0) == 2.0
        assert fired == [1.0] and kernel.pending_events == 1
        assert kernel.events_executed == 1
        kernel.post(0.5, lambda: fired.append(0.5))  # unchecked, in the past
        try:
            kernel.run()
        except SimulationError:
            pass
        else:
            raise AssertionError("a past event must raise")
        # Raised at the past event itself: nothing ran, the clock stood.
        assert fired == [1.0] and kernel.now == 2.0
        assert kernel.events_executed == 1 and kernel.pending_events == 1
