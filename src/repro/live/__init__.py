"""Wall-clock runtime: the same stacks over real asyncio TCP sockets.

The simulator (:mod:`repro.sim`, :mod:`repro.experiments.runner`)
executes the protocol stacks in virtual time with modelled CPU and
network costs; this package executes the *unchanged*
:class:`~repro.stack.module.Microprotocol` stacks between real OS
processes on localhost (or a LAN), matching the paper's Fortika-over-TCP
testbed methodology:

* :mod:`repro.live.framing` — the length-prefixed framing of every live
  stream, with no event loop;
* :mod:`repro.live.transport` — per-peer FIFO streams over asyncio TCP
  with acks and reconnect-with-backoff;
* :mod:`repro.live.runtime` — :class:`~repro.live.runtime.LiveRuntime`,
  the wall-clock backend of the stack interpreter
  (:class:`~repro.stack.runtime.StackRuntime`);
* :mod:`repro.live.worker` — one protocol process (spawned as
  ``python -m repro.live.worker``);
* :mod:`repro.live.deploy` — what a deployment is: it declares every
  document of the control channel (the link fault verbs among them),
  and each worker's spec, as a dataclass, writes and reads those
  documents for both ends, and reduces the collected samples to the
  same schema as the simulator's ``RunResult``; it imports no asyncio;
* :mod:`repro.live.orchestrator` — what runs one: spawns the workers,
  serves the control channel and watches the run;
* :mod:`repro.live.wal` — the per-worker write-ahead delivery log
  (CRC-framed, fsync-batched), one record class per record type, which
  both crash recovery and the merged-log check read back;
* :mod:`repro.live.faults` — ``nemesis --live``: compile a faultload
  onto the deployment (SIGKILL + WAL recovery, link directives) and
  check the merged delivery logs against the abcast invariants;
* :mod:`repro.live.compare` — sim-vs-live side-by-side reports.
"""

from repro._lazy import lazy_exports

# A name loads its submodule on first use: describing a deployment
# (``LiveSpec``) must not load asyncio, the transport or the WAL.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".deploy": ("LiveSpec", "run_live"),
        ".faults": ("LiveNemesisReport", "run_nemesis_live"),
        ".framing": ("FrameDecoder", "encode_frame"),
        ".runtime": ("LiveRuntime",),
        ".transport": ("Transport",),
        ".wal": ("WalState", "WalWriter", "load_wal_state", "read_wal"),
    },
)
