"""Downstream applications consuming sequencer output.

The paper motivates fair sequencing with *auction-apps*: financial exchanges,
ad exchanges and competitive marketplaces where the order of writes decides
who wins.  Two concrete consumers are provided so the examples exercise a
realistic end-to-end path:

* :class:`LimitOrderBook` — a price-time-priority matching engine (financial
  exchange),
* :class:`ReplicatedLog` — a deterministic state-machine log that records the
  batch order (the general sequencing consumer of NOPaxos/Hydra-style
  systems).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.apps.orderbook": ("LimitOrderBook", "Order", "OrderSide", "Trade"),
        "repro.apps.replicated_log": ("LogEntry", "ReplicatedLog"),
    },
)

__all__ = [
    "LimitOrderBook",
    "Order",
    "OrderSide",
    "Trade",
    "ReplicatedLog",
    "LogEntry",
]
