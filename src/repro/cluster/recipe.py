"""The one cluster recipe: routing table and merge stack for a client population.

Every execution path — the in-process
:class:`~repro.cluster.sharded.ShardedSequencer`, the procs coordinator in
:mod:`repro.runtime.procs` (frozen replay and live dispatch alike) and
:class:`~repro.runtime.base.ClusterWorkload`'s shard assignments — builds its
router and its merger here, so shard ownership and merge pricing agree by
construction instead of by hand-copied code.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.merge import CrossShardMerger, StreamingMerger
from repro.cluster.router import ShardingPolicy, ShardRouter
from repro.cluster.tree import MergeTopology
from repro.core.config import TommyConfig
from repro.core.probability import PrecedenceModel
from repro.distributions.base import OffsetDistribution
from repro.obs.telemetry import Telemetry


def build_router(
    client_distributions: Dict[str, OffsetDistribution],
    num_shards: int,
    policy: Optional[ShardingPolicy] = None,
) -> ShardRouter:
    """The routing table: every provisioned client assigned in sorted order."""
    router = ShardRouter(num_shards, policy)
    for client_id in sorted(client_distributions):
        router.assign(client_id)
    return router


def build_merge(
    client_distributions: Dict[str, OffsetDistribution],
    config: TommyConfig,
    router: ShardRouter,
    merge_topology: str = "flat",
    merge_fanout: int = 2,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[CrossShardMerger, Optional[MergeTopology], StreamingMerger]:
    """The merge stack: ``(merger, topology, streaming merger)``.

    ``"binary"``/``"region"`` topologies arrange the shards as leaves of a
    bounded-fanout tree and attribute every priced cross-shard batch pair to
    its lowest common ancestor — same pricing, same merged order, plus a
    per-aggregator work report; ``topology`` is ``None`` for the flat merge.
    """
    model = PrecedenceModel(
        method=config.probability_method,
        convolution_points=config.convolution_points,
    )
    for client_id, distribution in client_distributions.items():
        model.register_client(client_id, distribution)
    merger = CrossShardMerger(
        model,
        threshold=config.threshold,
        cycle_policy=config.cycle_policy,
        seed=config.seed if config.seed is not None else 0,
        telemetry=telemetry,
    )
    topology: Optional[MergeTopology] = None
    if merge_topology != "flat":
        topology = MergeTopology.build(
            merge_topology,
            router.num_shards,
            fanout=merge_fanout,
            region_map=router.region_map(),
        )
    streaming = merger.streaming_merger(num_shards=router.num_shards, topology=topology)
    return merger, topology, streaming


__all__ = ["build_router", "build_merge"]
