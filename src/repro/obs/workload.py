"""Run an existing workload with full instrumentation switched on.

The ``repro telemetry`` CLI subcommand and the nightly trace-artifact job
both funnel through :func:`run_instrumented_workload`, which maps the three
workload names onto the live chaos harness (the only runner that exercises
every lifecycle stage — replay workloads bypass the transports entirely):

* ``cluster`` — the healthy sharded cluster (``fault="none"``, no learning);
* ``learned`` — the same cluster with the probe-driven learning loop on;
* ``chaos``   — any named fault family at a given intensity, learning on.

``runtime="procs"`` reroutes the ``cluster`` workload through the
real-process backend (:class:`~repro.runtime.procs.ProcBackend`): shard
sequencers run in worker processes, their telemetry records are absorbed
into the same hub, and the resulting perfetto export carries genuinely
concurrent wall-clock stamps next to the shared sim-time track.  The
``learned`` and ``chaos`` workloads stay sim-only (faults and probe
scheduling need the deterministic clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.telemetry import Telemetry
from repro.runtime.base import ClusterWorkload, RuntimeOutcome, resolve_backend
from repro.workloads.chaos import ChaosReport, ChaosSettings, run_chaos_scenario
from repro.workloads.cluster import build_cluster_scenario

#: Workload names accepted by :func:`run_instrumented_workload`.
WORKLOAD_NAMES: Tuple[str, ...] = ("cluster", "learned", "chaos")


@dataclass(frozen=True)
class InstrumentedRun:
    """One instrumented workload run: the report plus its telemetry.

    ``report`` is populated on the sim path (the chaos harness); runs on a
    non-sim backend carry their :class:`~repro.runtime.base.RuntimeOutcome`
    in ``runtime_outcome`` instead.
    """

    workload: str
    report: Optional[ChaosReport]
    telemetry: Telemetry
    runtime: str = "sim"
    runtime_outcome: Optional[RuntimeOutcome] = None


def run_instrumented_workload(
    workload: str = "cluster",
    num_shards: int = 4,
    num_clients: int = 24,
    messages_per_client: int = 4,
    seed: int = 7,
    fault: str = "delay",
    intensity: float = 1.0,
    merge_topology: str = "flat",
    merge_fanout: int = 2,
    runtime: str = "sim",
    num_workers: Optional[int] = None,
    max_restarts: Optional[int] = None,
    on_shard_loss: str = "raise",
    inject_crash: Optional[int] = None,
) -> InstrumentedRun:
    """Run the named workload with a fresh :class:`Telemetry` hub injected.

    ``max_restarts``/``on_shard_loss`` tune the procs supervisor
    (:class:`~repro.runtime.procs.RestartPolicy` budget and the degraded
    mode once it is exhausted); ``inject_crash`` kills the worker owning
    that shard mid-stream so the recovery path shows up in the trace.  All
    three are procs-only and ignored on the sim runtime.
    """
    if workload not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOAD_NAMES}")
    telemetry = Telemetry()
    if runtime != "sim":
        if workload != "cluster":
            raise ValueError(
                f"workload {workload!r} requires the sim runtime "
                "(faults and probe scheduling need the deterministic clock)"
            )
        scenario = build_cluster_scenario(
            num_clients, messages_per_client=messages_per_client, seed=seed
        )
        cluster_workload = ClusterWorkload.from_scenario(
            scenario,
            num_shards=num_shards,
            merge_topology=merge_topology,
            merge_fanout=merge_fanout,
        )
        kwargs: dict = {}
        if num_workers is not None:
            kwargs["num_workers"] = num_workers
        if max_restarts is not None:
            from repro.runtime.procs import RestartPolicy

            kwargs["restart_policy"] = RestartPolicy(max_restarts=max_restarts)
        if on_shard_loss != "raise":
            kwargs["on_shard_loss"] = on_shard_loss
        if inject_crash is not None:
            kwargs["inject_crash"] = inject_crash
            kwargs["crash_point"] = "mid"
        with resolve_backend(runtime, telemetry=telemetry, **kwargs) as backend:
            outcome = backend.run(cluster_workload)
        return InstrumentedRun(
            workload=workload,
            report=None,
            telemetry=telemetry,
            runtime=runtime,
            runtime_outcome=outcome,
        )
    settings = ChaosSettings(
        num_clients=num_clients,
        num_shards=num_shards,
        messages_per_client=messages_per_client,
        seed=seed,
        merge_topology=merge_topology,
        merge_fanout=merge_fanout,
    )
    if workload == "cluster":
        fault, intensity, learning = "none", 1.0, False
    elif workload == "learned":
        fault, intensity, learning = "none", 1.0, True
    else:
        learning = True
    report = run_chaos_scenario(
        fault=fault,
        intensity=intensity,
        settings=settings,
        learning=learning,
        telemetry=telemetry,
    )
    return InstrumentedRun(workload=workload, report=report, telemetry=telemetry)
