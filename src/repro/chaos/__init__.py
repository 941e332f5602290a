"""Deterministic fault injection for the fair-sequencing cluster.

``repro.chaos`` turns the healthy-network evaluation harness into a chaos
harness: a :class:`FaultSchedule` composes timed, seeded fault primitives
(link partitions, loss, duplication, reordering, delay spikes, clock steps,
sync-probe blackouts, shard crash/rejoin) and a :class:`ChaosController`
arms the schedule against a live run — hooking the per-client channels, the
clients' drift models and the sharded cluster.  Same schedule + same seed =
bit-identical run.

See :mod:`repro.workloads.chaos` for the packaged chaos workload and
:mod:`repro.experiments.chaos_sweep` for the fault × intensity × shards
scenario matrix behind ``python -m repro.cli chaos``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.chaos.controller": ("ChaosController", "ChaosStats", "FaultDecision"),
        "repro.chaos.faults": (
            "ClientFault",
            "ClockStep",
            "DelaySpike",
            "Fault",
            "FaultSchedule",
            "LinkPartition",
            "MessageDuplication",
            "MessageLoss",
            "MessageReorder",
            "ShardCrash",
            "SyncBlackout",
        ),
    },
)

__all__ = [
    "ChaosController",
    "ChaosStats",
    "ClientFault",
    "ClockStep",
    "DelaySpike",
    "Fault",
    "FaultDecision",
    "FaultSchedule",
    "LinkPartition",
    "MessageDuplication",
    "MessageLoss",
    "MessageReorder",
    "ShardCrash",
    "SyncBlackout",
]
