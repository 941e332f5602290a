"""Downstream applications consuming sequencer output.

The paper motivates fair sequencing with *auction-apps*: financial exchanges,
ad exchanges and competitive marketplaces where the order of writes decides
who wins.  Three concrete consumers are provided so the examples and
fairness-impact experiments exercise a realistic end-to-end path:

* :class:`LimitOrderBook` — a price-time-priority matching engine (financial
  exchange),
* :class:`SealedBidAuction` — a second-price auction resolved per batch (ad
  exchange / marketplace),
* :class:`ReplicatedLog` — a deterministic state-machine log that records the
  batch order (the general sequencing consumer of NOPaxos/Hydra-style
  systems).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.apps.orderbook": ("LimitOrderBook", "Order", "OrderSide", "Trade"),
        "repro.apps.auction": ("AuctionOutcome", "Bid", "SealedBidAuction"),
        "repro.apps.replicated_log": ("LogEntry", "ReplicatedLog"),
    },
)

__all__ = [
    "LimitOrderBook",
    "Order",
    "OrderSide",
    "Trade",
    "SealedBidAuction",
    "Bid",
    "AuctionOutcome",
    "ReplicatedLog",
    "LogEntry",
]
