"""Sharded fair-sequencing cluster.

Scales the single :class:`~repro.core.online.OnlineTommySequencer` out to a
cluster: a :class:`ShardRouter` partitions clients over shards (hash,
region-affine, or load-aware), a :class:`ShardedSequencer` runs one online
sequencer per shard on a shared event loop with heartbeat-driven failover,
and a :class:`CrossShardMerger` recovers one cluster-wide fair order by
applying the paper's probabilistic machinery at batch granularity across
shard boundaries — one window rule and one pair-list kernel price every
cross-shard batch pair, offline and streaming alike.  A
:class:`MergeTopology` arranges the shards as leaves of a log-depth tree and
attributes each priced pair to its lowest common ancestor (which aggregator
of a hierarchy carries how much work); it never changes the merged order.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cluster.harness": ("ClusterTransport",),
        "repro.cluster.intake": ("IntakeDedupeGate",),
        "repro.cluster.merge": (
            "CertaintyWindows",
            "CrossShardMerger",
            "MergeOutcome",
            "StreamingMerger",
        ),
        "repro.cluster.recipe": ("build_merge", "build_router"),
        "repro.cluster.router": (
            "HashSharding",
            "LoadAwareSharding",
            "RegionAffineSharding",
            "ShardRouter",
            "ShardingPolicy",
            "stable_shard_hash",
        ),
        "repro.cluster.sharded": (
            "FailoverEvent",
            "RejoinEvent",
            "ShardedSequencer",
            "ShardState",
        ),
        "repro.cluster.tree": ("MergeTopology", "TreeNode"),
    },
)

__all__ = [
    "ShardingPolicy",
    "HashSharding",
    "RegionAffineSharding",
    "LoadAwareSharding",
    "ShardRouter",
    "stable_shard_hash",
    "CrossShardMerger",
    "StreamingMerger",
    "CertaintyWindows",
    "MergeOutcome",
    "ShardedSequencer",
    "ShardState",
    "FailoverEvent",
    "RejoinEvent",
    "MergeTopology",
    "TreeNode",
    "ClusterTransport",
    "IntakeDedupeGate",
    "build_router",
    "build_merge",
]
