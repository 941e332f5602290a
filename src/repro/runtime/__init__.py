"""Execution backends behind one runtime seam.

:class:`RuntimeBackend` abstracts *how* a cluster workload executes — clock
source, scheduling, channel delivery, endpoint lifecycle — so the same
frozen :class:`ClusterWorkload` runs on

* :class:`~repro.runtime.sim.SimBackend` — every shard hosted in this
  process on its own virtual-time loop (the parity oracle), and
* :class:`~repro.runtime.procs.ProcBackend` — shards hosted in worker
  processes under a supervisor (restart-with-replay; throughput scales with
  cores),

both through the one :class:`~repro.runtime.procs.ShardCoordinator`
(cursor-gated streaming merge) and the one shard host of
:mod:`repro.runtime.host`, with a bitwise-equal merged order
(``RuntimeOutcome.fingerprint()``) asserted across backends in
``tests/runtime``.

Workloads come in two shapes: the frozen :class:`ClusterWorkload`
(messages generated once, replayed at their recorded virtual times — the
parity oracle's input) and the live path
(:class:`~repro.runtime.live.LiveDispatcher`), where traffic is submitted
one message at a time by the socket edge (:mod:`repro.edge`) and sequenced
incrementally under a per-source watermark discipline.  Both are shaped by
one :class:`LiveClusterSpec`, and on either runtime both drive the same
coordinator and the same wave-driven shard host: a frozen replay is a live
dispatch whose only source is already closed.  The parity guarantee extends
to the live path: a frozen workload streamed through ``submit()`` — or
through real sockets — produces the same fingerprint as the one-shot
replay, on either runtime.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.runtime.base": (
            "RUNTIME_NAMES",
            "ClockHandle",
            "ClusterWorkload",
            "LiveClusterSpec",
            "RuntimeBackend",
            "RuntimeOutcome",
            "Scheduler",
            "SchedulerClock",
            "WallClock",
            "clock_of",
            "resolve_backend",
        ),
        "repro.runtime.sim": ("SimBackend",),
        "repro.runtime.procs": (
            "ProcBackend",
            "RestartPolicy",
            "WorkerCrashed",
            "WorkerSupervisor",
        ),
        "repro.runtime.live": ("LIVE_RUNTIMES", "LiveDispatcher"),
    },
)

__all__ = [
    "RUNTIME_NAMES",
    "ClockHandle",
    "Scheduler",
    "SchedulerClock",
    "WallClock",
    "clock_of",
    "ClusterWorkload",
    "RuntimeBackend",
    "RuntimeOutcome",
    "resolve_backend",
    "SimBackend",
    "ProcBackend",
    "RestartPolicy",
    "WorkerCrashed",
    "WorkerSupervisor",
    "LIVE_RUNTIMES",
    "LiveClusterSpec",
    "LiveDispatcher",
]
