"""Wall-clock runtime: the same stacks over real asyncio TCP sockets.

The simulator (:mod:`repro.sim`, :mod:`repro.experiments.runner`)
executes the protocol stacks in virtual time with modelled CPU and
network costs; this package executes the *unchanged*
:class:`~repro.stack.module.Microprotocol` stacks between real OS
processes on localhost (or a LAN), matching the paper's Fortika-over-TCP
testbed methodology:

* :mod:`repro.live.transport` — length-prefixed framing over asyncio TCP
  with per-peer FIFO streams and reconnect-with-backoff;
* :mod:`repro.live.runtime` — :class:`~repro.live.runtime.LiveRuntime`,
  the wall-clock backend of the stack interpreter
  (:class:`~repro.stack.runtime.StackRuntime`);
* :mod:`repro.live.worker` — one protocol process (spawned as
  ``python -m repro.live.worker``);
* :mod:`repro.live.deploy` — the orchestrator: spawns workers, drives
  the open-loop workload, collects samples over a control channel and
  reduces them to the same schema as the simulator's ``RunResult``; it
  declares every document of that channel, and each worker's spec, as
  a dataclass that :func:`repro.config.read_fields` reads back;
* :mod:`repro.live.wal` — the per-worker write-ahead delivery log
  (CRC-framed, fsync-batched) crash recovery reads back;
* :mod:`repro.live.faults` — ``nemesis --live``: compile a faultload
  onto the deployment (SIGKILL + WAL recovery, link directives) and
  check the merged delivery logs against the abcast invariants;
* :mod:`repro.live.compare` — sim-vs-live side-by-side reports.
"""

from repro.live.deploy import LiveSpec, run_live
from repro.live.faults import LiveNemesisReport, run_nemesis_live
from repro.live.runtime import LiveRuntime
from repro.live.transport import FrameDecoder, Transport, encode_frame
from repro.live.wal import WalState, WalWriter, load_wal_state, read_wal

__all__ = [
    "FrameDecoder",
    "LiveNemesisReport",
    "LiveRuntime",
    "LiveSpec",
    "Transport",
    "WalState",
    "WalWriter",
    "encode_frame",
    "load_wal_state",
    "read_wal",
    "run_live",
    "run_nemesis_live",
]
