"""Worker-death triage: fault-injected kills vs unexpected crashes."""

import asyncio
import io
import signal
import time

import pytest

from repro.errors import DeploymentError
from repro.live.orchestrator import _watch, _worker_failure
from repro.live.worker import CRASH_EXIT_CODE


class FakeWorker:
    """Just enough of subprocess.Popen for the failure triage."""

    def __init__(self, code, stderr=b""):
        self._code = code
        self.stderr = io.BytesIO(stderr) if stderr is not None else None

    def poll(self):
        return self._code


class TestWorkerFailure:
    def test_running_workers_are_fine(self):
        assert _worker_failure([FakeWorker(None), FakeWorker(None)], set()) is None

    def test_clean_exit_is_fine(self):
        assert _worker_failure([FakeWorker(0)], set()) is None

    def test_scheduled_sigkill_is_tolerated(self):
        workers = [FakeWorker(None), FakeWorker(-signal.SIGKILL)]
        assert _worker_failure(workers, {1}) is None

    def test_unscheduled_sigkill_fails_fast(self):
        workers = [FakeWorker(None), FakeWorker(-signal.SIGKILL)]
        failure = _worker_failure(workers, set())
        assert failure is not None
        assert "worker 1" in failure

    def test_crash_exit_code_fails_fast_with_stderr_tail(self):
        workers = [FakeWorker(CRASH_EXIT_CODE, stderr=b"boom\ntrace line\n")]
        failure = _worker_failure(workers, set())
        assert failure is not None
        assert str(CRASH_EXIT_CODE) in failure
        assert "trace line" in failure

    def test_expected_dead_with_wrong_code_still_fails(self):
        """A scheduled victim that exits on its own (not our SIGKILL) is
        a real bug, not fault injection."""
        workers = [FakeWorker(1)]
        failure = _worker_failure(workers, {0})
        assert failure is not None
        assert "scheduled-kill worker 0" in failure


def watch(workers, seconds, expected_dead=frozenset(), *, event=False, dies=None):
    """Run ``_watch``: how long it took, and its error text if it raised.
    *event* waits on an event nobody sets; the worker in *dies* =
    (worker, status) exits 50 ms into the wait."""

    async def main():
        if dies is not None:
            asyncio.get_running_loop().call_later(0.05, setattr, dies[0], "_code", dies[1])
        waited = asyncio.Event() if event else None
        await _watch(workers, seconds, expected_dead, waited, "workers ready")

    started, error = time.monotonic(), None
    try:
        asyncio.run(main())
    except DeploymentError as raised:
        error = str(raised)
    return time.monotonic() - started, error


class TestWatch:
    @pytest.mark.parametrize(
        "event,context,poll",
        [
            (False, "during the measurement window: ", 0.1),
            (True, "while waiting for workers ready: ", 0.2),
        ],
    )
    def test_unexpected_exit_aborts_within_one_poll(self, event, context, poll):
        victim = FakeWorker(None, stderr=b"boom\ntrace line\n")
        elapsed, error = watch(
            [FakeWorker(None), victim], 30.0, event=event, dies=(victim, CRASH_EXIT_CODE)
        )
        assert error.startswith(
            f"{context}worker 1 exited unexpectedly with status {CRASH_EXIT_CODE}"
        )
        assert "trace line" in error
        assert elapsed < 0.05 + poll + 0.25  # not the 30 s asked for

    @pytest.mark.parametrize(
        "event,error", [(False, None), (True, "timed out waiting for workers ready")]
    )
    def test_scheduled_sigkill_does_not_end_the_wait(self, event, error):
        victim = FakeWorker(None)
        outcome = watch(
            [FakeWorker(None), victim], 0.3, {1}, event=event, dies=(victim, -signal.SIGKILL)
        )
        assert outcome[0] >= 0.3 and outcome[1] == error
