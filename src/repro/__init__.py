"""repro: a reproduction of "Beyond Lamport, Towards Probabilistic Fair Ordering".

The package implements Tommy, a probabilistic fair sequencer, together with
every substrate it needs: a discrete-event simulator, clock and clock-drift
models, clock-offset distributions (parametric and learned), a
clock-synchronization probe exchange, a network substrate with ordered and
unordered channels, baseline sequencers (FIFO, WaitsForOne, TrueTime),
auction-app workloads, downstream applications (limit order book,
replicated log), fairness metrics (Rank Agreement Score and friends), the
experiment harness that regenerates the paper's evaluation, a sharded
fair-sequencing cluster (:mod:`repro.cluster`) that scales the online
sequencer out over many shards with a probabilistic cross-shard merge, and a
deterministic fault-injection chaos subsystem (:mod:`repro.chaos`) that
measures all of it under partitions, loss, duplication, reordering, delay
spikes, clock steps, sync blackouts and shard crash/rejoin.

Quickstart
----------
>>> from repro import quick_sequence
>>> from repro.distributions import GaussianDistribution
>>> from repro.network.message import TimestampedMessage
>>> dists = {"a": GaussianDistribution(0, 1.0), "b": GaussianDistribution(0, 1.0)}
>>> messages = [
...     TimestampedMessage(client_id="a", timestamp=10.0, true_time=10.0),
...     TimestampedMessage(client_id="b", timestamp=17.0, true_time=17.0),
... ]
>>> result = quick_sequence(messages, dists)
>>> result.batch_count
2

Learned distributions (paper §3.3, §5)
--------------------------------------
Clients learn their offset distribution ``f_theta`` from sync probes and
refresh the *running* sequencer live; the engine serves the learned
(empirical) estimates through vectorized difference-CDF tables:

>>> from repro.core.online import OnlineTommySequencer
>>> from repro.simulation import EventLoop
>>> from repro.sync import DistributionRefreshLoop
>>> from repro.workloads import synthesize_probe
>>> loop = EventLoop()
>>> online = OnlineTommySequencer(
...     loop, {"a": GaussianDistribution(0, 10.0), "b": GaussianDistribution(0, 10.0)}
... )
>>> refresh = DistributionRefreshLoop(online, refresh_every=8, min_observations=8)
>>> for k in range(8):
...     _ = refresh.observe_probe(
...         synthesize_probe("a", offset=0.001 * k, round_trip=0.0001)
...     )
>>> online.distribution_refreshes
1
>>> online.model.distribution_for("a").family
'empirical'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.config import TommyConfig
    from repro.distributions.base import OffsetDistribution
    from repro.network.message import TimestampedMessage
    from repro.sequencers.base import SequencingResult

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.byzantine": ("ByzantineAuditor",),
        "repro.core.config": ("TommyConfig",),
        "repro.core.online": ("OnlineTommySequencer",),
        "repro.core.probability": ("PrecedenceModel",),
        "repro.core.relation": ("LikelyHappenedBefore",),
        "repro.core.sequencer": ("TommySequencer",),
        "repro.core.total_order": ("FairTotalOrder",),
        "repro.cluster.router": (
            "HashSharding",
            "LoadAwareSharding",
            "RegionAffineSharding",
            "ShardRouter",
        ),
        "repro.cluster.sharded": ("ShardedSequencer",),
        "repro.distributions.base": ("OffsetDistribution",),
        "repro.distributions.parametric": ("GaussianDistribution",),
        "repro.metrics.ras": ("rank_agreement_score",),
        "repro.network.message": ("Heartbeat", "SequencedBatch", "TimestampedMessage"),
        "repro.sequencers.base": ("SequencingResult",),
        "repro.sequencers.fifo": ("FifoSequencer",),
        "repro.sequencers.truetime": ("TrueTimeSequencer",),
        "repro.sequencers.wfo": ("WaitsForOneSequencer",),
    },
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TommyConfig",
    "TommySequencer",
    "OnlineTommySequencer",
    "PrecedenceModel",
    "LikelyHappenedBefore",
    "FairTotalOrder",
    "ByzantineAuditor",
    "OffsetDistribution",
    "GaussianDistribution",
    "TimestampedMessage",
    "Heartbeat",
    "SequencedBatch",
    "SequencingResult",
    "FifoSequencer",
    "WaitsForOneSequencer",
    "TrueTimeSequencer",
    "rank_agreement_score",
    "quick_sequence",
    "ShardRouter",
    "ShardedSequencer",
    "HashSharding",
    "RegionAffineSharding",
    "LoadAwareSharding",
]


def quick_sequence(
    messages: Sequence[TimestampedMessage],
    client_distributions: Dict[str, OffsetDistribution],
    threshold: float = 0.75,
    config: Optional[TommyConfig] = None,
) -> SequencingResult:
    """One-call fair sequencing of ``messages`` with Tommy.

    Parameters
    ----------
    messages:
        The timestamped messages to order.
    client_distributions:
        Clock-error distribution (of ``reported - true`` time) per client.
    threshold:
        Batch-boundary confidence threshold (ignored when ``config`` given).
    config:
        Full :class:`TommyConfig` overriding ``threshold``.
    """
    from repro.core.config import TommyConfig
    from repro.core.sequencer import TommySequencer

    config = config if config is not None else TommyConfig(threshold=threshold)
    sequencer = TommySequencer(client_distributions=client_distributions, config=config)
    return sequencer.sequence(list(messages))
