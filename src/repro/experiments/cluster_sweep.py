"""Cluster scaling experiment: shard count × client count sweep.

For every combination the sweep builds a multi-region cluster scenario,
runs it through an execution backend (:mod:`repro.runtime`) with
region-affine placement, re-merges the per-shard streams, and reports:

* cross-shard fairness — the Rank Agreement Score of the *merged* order
  against ground truth (and the single-sequencer delta a 1-shard row gives);
* merge latency — wall-clock cost of the probabilistic cross-shard merge;
* per-shard throughput — messages sequenced per wall-clock second of
  simulation divided by the shard count (the scale-out payoff: each shard's
  O(pending^2) tentative batching shrinks as clients spread out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.merge import MergeOutcome, merge_fingerprint
from repro.cluster.recipe import build_merge
from repro.cluster.router import HashSharding, ShardingPolicy
from repro.core.config import TommyConfig
from repro.experiments.runner import SequencerComparison, evaluate_result
from repro.runtime.base import ClusterWorkload, resolve_backend
from repro.workloads.cluster import build_cluster_scenario, region_affine_policy


@dataclass(frozen=True)
class ClusterRunOutcome:
    """One cluster run: merged-order metrics plus runtime accounting."""

    comparison: SequencerComparison
    merge: MergeOutcome
    num_shards: int
    num_clients: int
    policy_name: str
    run_wall_seconds: float
    message_count: int
    per_shard_emitted: List[int]
    failovers: int
    streaming_wall_seconds: float
    streaming_parity: bool
    #: The backend's run details under ``"runtime"`` (:attr:`RuntimeOutcome.details`).
    observability: Optional[Dict[str, object]] = None
    merge_topology: str = "flat"
    #: Which execution backend ran the scenario (``"sim"`` or ``"procs"``).
    runtime: str = "sim"
    #: Worker-process count (1 on the sim backend).
    num_workers: int = 1
    #: Dead workers respawned by the procs supervisor (0 on sim).
    worker_restarts: int = 0
    #: Shards dropped after an exhausted restart budget (empty on sim).
    lost_shards: Tuple[int, ...] = ()

    @property
    def per_shard_throughput(self) -> float:
        """Messages per wall second per shard during the sequencing run."""
        if self.run_wall_seconds <= 0:
            return 0.0
        return self.message_count / self.run_wall_seconds / self.num_shards

    @property
    def total_throughput(self) -> float:
        """Messages per wall second across the whole cluster."""
        if self.run_wall_seconds <= 0:
            return 0.0
        return self.message_count / self.run_wall_seconds

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for report tables."""
        return {
            "shards": self.num_shards,
            "clients": self.num_clients,
            "policy": self.policy_name,
            "runtime": self.runtime,
            "workers": self.num_workers,
            "merge_topology": self.merge_topology,
            "ras": self.comparison.ras.score,
            "ras_normalized": round(self.comparison.ras.normalized_score, 4),
            "incorrect_pairs": self.comparison.ras.incorrect_pairs,
            "batches": self.comparison.batches.batch_count,
            "merged_cross_shard": self.merge.merged_cross_shard,
            "merge_latency_ms": round(self.merge.wall_seconds * 1e3, 3),
            "pruned_pairs": self.merge.cross_pairs_pruned,
            "streaming_ms": round(self.streaming_wall_seconds * 1e3, 3),
            "streaming_parity": self.streaming_parity,
            "restarts": self.worker_restarts,
            "lost_shards": list(self.lost_shards),
            "shard_throughput": round(self.per_shard_throughput, 1),
            "total_throughput": round(self.total_throughput, 1),
            "wall_seconds": round(self.run_wall_seconds, 4),
        }


def run_cluster_scenario(
    num_clients: int,
    num_shards: int,
    seed: int = 21,
    config: Optional[TommyConfig] = None,
    policy: Optional[ShardingPolicy] = None,
    num_regions: int = 4,
    merge_topology: str = "flat",
    merge_fanout: int = 2,
    runtime: str = "sim",
    num_workers: Optional[int] = None,
    max_restarts: Optional[int] = None,
    on_shard_loss: str = "raise",
) -> ClusterRunOutcome:
    """Replay one multi-region scenario through an N-shard cluster.

    ``policy`` defaults to region-affine placement derived from the
    generated scenario (pass e.g. :class:`HashSharding` to ablate it).
    ``merge_topology``/``merge_fanout`` select the merge tree the priced
    pairs are attributed to (``"binary"`` or ``"region"``; same pricing and
    merged order as ``"flat"``).

    ``runtime`` selects the execution backend: ``"sim"``
    (:class:`~repro.runtime.sim.SimBackend`, every shard hosted in process)
    or ``"procs"`` (each shard sequences in its own worker process via
    :class:`~repro.runtime.procs.ProcBackend`; ``num_workers`` caps the
    process count).  Same seed ⇒ bitwise-identical merged order either way.
    ``max_restarts``/``on_shard_loss`` tune the procs supervisor's
    :class:`~repro.runtime.procs.RestartPolicy` budget and its degraded mode
    once that budget is exhausted (ignored on the sim backend).

    ``run_wall_seconds`` is the backend's wall time on every runtime.  The
    reported merge (``merge_latency_ms``, ``pruned_pairs``) is one offline
    re-merge of the emitted shard streams; ``streaming_ms`` is the cost of
    the backend's live merge at drain time and ``streaming_parity`` checks
    the two orders are equal.
    """
    placement = build_cluster_scenario(num_clients, num_regions=num_regions, seed=seed)
    if policy is None:
        policy = region_affine_policy(placement) if num_shards > 1 else HashSharding()
    workload = ClusterWorkload.from_scenario(
        placement,
        num_shards=num_shards,
        config=config,
        policy=policy,
        merge_topology=merge_topology,
        merge_fanout=merge_fanout,
    )
    kwargs: Dict[str, object] = {}
    if num_workers is not None:
        kwargs["num_workers"] = num_workers
    if max_restarts is not None:
        from repro.runtime.procs import RestartPolicy

        kwargs["restart_policy"] = RestartPolicy(max_restarts=max_restarts)
    if on_shard_loss != "raise":
        kwargs["on_shard_loss"] = on_shard_loss
    with resolve_backend(runtime, **kwargs) as backend:
        outcome = backend.run(workload)
    merger = build_merge(workload.client_distributions, workload.config, workload.build_router())[0]
    merge = merger.merge(outcome.shard_batches)
    messages = list(workload.messages)
    comparison = evaluate_result(f"cluster@{num_shards}-{runtime}", merge.result, messages)
    return ClusterRunOutcome(
        comparison=comparison,
        merge=merge,
        num_shards=num_shards,
        num_clients=num_clients,
        policy_name=policy.name,
        run_wall_seconds=outcome.wall_seconds,
        message_count=outcome.message_count,
        per_shard_emitted=[
            sum(batch.size for batch in batches) for batches in outcome.shard_batches
        ],
        failovers=0,
        streaming_wall_seconds=outcome.merge.wall_seconds,
        streaming_parity=merge_fingerprint(merge) == outcome.fingerprint(),
        observability={"runtime": outcome.details},
        merge_topology=merge_topology,
        runtime=runtime,
        num_workers=outcome.num_workers,
        worker_restarts=int(outcome.details.get("worker_restarts", 0) or 0),
        lost_shards=outcome.lost_shards,
    )


def run_cluster_sweep(
    shard_counts: Sequence[int] = (1, 2, 4),
    client_counts: Sequence[int] = (32, 64),
    seed: int = 21,
    config: Optional[TommyConfig] = None,
    merge_topology: str = "flat",
    merge_fanout: int = 2,
    runtime: str = "sim",
    num_workers: Optional[int] = None,
    max_restarts: Optional[int] = None,
    on_shard_loss: str = "raise",
) -> List[Dict[str, object]]:
    """Sweep shard count × client count and return one row per combination."""
    rows: List[Dict[str, object]] = []
    for num_clients in client_counts:
        for num_shards in shard_counts:
            outcome = run_cluster_scenario(
                num_clients=num_clients,
                num_shards=num_shards,
                seed=seed,
                config=config,
                merge_topology=merge_topology if num_shards > 1 else "flat",
                merge_fanout=merge_fanout,
                runtime=runtime,
                num_workers=num_workers,
                max_restarts=max_restarts,
                on_shard_loss=on_shard_loss,
            )
            rows.append(outcome.as_row())
    return rows
