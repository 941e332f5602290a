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
``tests/runtime`` and ``benchmarks/test_bench_runtime.py``.

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

from repro.runtime.base import (
    RUNTIME_NAMES,
    ClockHandle,
    ClusterWorkload,
    LiveClusterSpec,
    RuntimeBackend,
    RuntimeOutcome,
    Scheduler,
    SchedulerClock,
    WallClock,
    clock_of,
    resolve_backend,
)

# The concrete backends import cluster/harness modules that themselves type
# against repro.runtime.base, so they are re-exported lazily (PEP 562) to
# keep the package importable from either direction.
_LAZY = {
    "SimBackend": ("repro.runtime.sim", "SimBackend"),
    "ProcBackend": ("repro.runtime.procs", "ProcBackend"),
    "RestartPolicy": ("repro.runtime.procs", "RestartPolicy"),
    "WorkerCrashed": ("repro.runtime.procs", "WorkerCrashed"),
    "WorkerSupervisor": ("repro.runtime.procs", "WorkerSupervisor"),
    "LIVE_RUNTIMES": ("repro.runtime.live", "LIVE_RUNTIMES"),
    "LiveDispatcher": ("repro.runtime.live", "LiveDispatcher"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value

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
