"""Fairness and ordering quality metrics.

The headline metric is the paper's Rank Agreement Score (RAS, §4): for every
pair of messages, +1 when the sequencer orders them as the omniscient
observer would, -1 when it inverts them, and 0 when it is indifferent (same
batch).  Supporting metrics: normalised RAS, pairwise accuracy/inversion
rates, Kendall-tau distance against the ground-truth order, batch-size
statistics, per-client fairness summaries and emission-latency summaries for
online sequencing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.ras": ("RankAgreementBreakdown", "rank_agreement_score"),
        "repro.metrics.pairwise": ("PairwiseStats", "pairwise_stats"),
        "repro.metrics.kendall": ("kendall_tau_distance", "kendall_tau_from_result"),
        "repro.metrics.batching_stats": ("BatchStatistics", "batch_statistics"),
        "repro.metrics.fairness": ("ClientFairness", "per_client_fairness"),
        "repro.metrics.latency": ("LatencySummary", "summarize_latencies"),
    },
)

__all__ = [
    "RankAgreementBreakdown",
    "rank_agreement_score",
    "PairwiseStats",
    "pairwise_stats",
    "kendall_tau_distance",
    "kendall_tau_from_result",
    "BatchStatistics",
    "batch_statistics",
    "ClientFairness",
    "per_client_fairness",
    "LatencySummary",
    "summarize_latencies",
]
