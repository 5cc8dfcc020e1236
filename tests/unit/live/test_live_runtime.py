"""The live backend: wall-clock epoch, `on_crash`, FD timer hygiene.

What `LiveRuntime` shares with the simulated backend (routing, action
execution, timers, crash, FD plumbing) is in
`tests/unit/stack/test_runtime_contract.py`.
"""

import asyncio
import time

from repro.live.runtime import LiveRuntime
from repro.stack.actions import StartTimer

from tests.conftest import FakeTransport, Probe, Recorder, make_ctx


def make_runtime(n=3, crashes=None, **kwargs):
    module = Recorder(make_ctx(pid=0, n=n))
    transport = FakeTransport()
    runtime = LiveRuntime(
        0,
        n,
        [module],
        transport,
        on_crash=((lambda: crashes.append(1)) if crashes is not None else None),
        **kwargs,
    )
    return runtime, module, transport


class TestCrash:
    def test_crash_invokes_the_observer_exactly_once(self):
        crashes = []
        runtime, module, __ = make_runtime(crashes=crashes)
        runtime.crash()
        runtime.crash()
        assert len(crashes) == 1
        assert not runtime.alive

    def test_crash_without_an_observer_is_allowed(self):
        runtime, __, __t = make_runtime()
        runtime.crash()
        assert not runtime.alive

    def test_crash_cancels_pending_protocol_and_fd_timers(self):
        async def run():
            crashes = []
            runtime, module, __ = make_runtime(crashes=crashes)
            module.next_actions = [StartTimer("tick", 0.01)]
            runtime.inject(Probe("go"))
            fired = []
            handle = runtime.fd_schedule(0.01, lambda: fired.append(1))
            runtime.crash()
            assert handle.cancelled() and runtime._fd_timers == []
            await asyncio.sleep(0.05)
            assert fired == [] and len(module.log) == 1

        asyncio.run(run())

    def test_fired_fd_timers_are_pruned_not_accumulated(self):
        async def run():
            runtime, __, __t = make_runtime()
            for __i in range(64):
                runtime.fd_schedule(0.0, lambda: None)
            await asyncio.sleep(0.01)
            runtime.fd_schedule(10.0, lambda: None)
            assert len(runtime._fd_timers) == 1
            runtime.crash()

        asyncio.run(run())


class TestClock:
    def test_now_is_relative_to_epoch(self):
        runtime, __, __t = make_runtime()
        runtime.set_epoch(time.monotonic() - 100.0)
        assert runtime.now >= 100.0

    def test_adeliver_and_timers_use_the_injected_clock_and_loop(self):
        loop = asyncio.new_event_loop()
        try:
            runtime, module, __ = make_runtime(clock=lambda: 42.0, loop=loop)
            assert runtime.loop is loop and runtime.now == 42.0
            module.next_actions = [StartTimer("tick", 0.0, payload="p")]
            runtime.inject(Probe("go"))
            loop.run_until_complete(asyncio.sleep(0.01))
            assert ("timer", "tick", "p") in module.log
        finally:
            loop.close()
