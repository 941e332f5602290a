"""The reference oracle for threshold batching (paper §3.4): a relation read pair by pair.

``form_batches`` is the batching ``TommySequencer`` ran before it ordered and
batched on the engine's matrix, moved here verbatim: it reads every boundary
probability from a :class:`~repro.core.relation.LikelyHappenedBefore` by key,
and ``_strict_boundary_strengths`` folds the strict rule's straddling minima
one pair at a time.  The graph-pipeline parity tests batch with it, so the
oracle shares no batching code with the sequencer it checks.

Given the extracted linear order and the preceding-probabilities of adjacent
messages, a batch boundary is inserted between messages ``i`` and ``j``
whenever ``P(i precedes j) > threshold``.  Messages that cannot be separated
confidently share a batch; batches receive consecutive ranks starting at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.relation import LikelyHappenedBefore, MessageKey
from repro.network.message import SequencedBatch, TimestampedMessage


@dataclass(frozen=True)
class BatchingOutcome:
    """Batches plus the boundary decisions that produced them."""

    batches: Tuple[SequencedBatch, ...]
    boundary_probabilities: Tuple[float, ...]
    threshold: float

    @property
    def batch_count(self) -> int:
        """Number of batches."""
        return len(self.batches)

    @property
    def batch_sizes(self) -> Tuple[int, ...]:
        """Batch sizes in rank order."""
        return tuple(batch.size for batch in self.batches)

    @property
    def largest_batch(self) -> int:
        """Size of the largest batch (0 when there are no batches)."""
        return max(self.batch_sizes, default=0)

    @property
    def singleton_fraction(self) -> float:
        """Fraction of batches containing exactly one message (ideal fairness)."""
        if not self.batches:
            return 0.0
        singles = sum(1 for batch in self.batches if batch.size == 1)
        return singles / len(self.batches)


def _strict_boundary_strengths(
    order: Sequence[MessageKey], relation: LikelyHappenedBefore
) -> List[float]:
    """Strength of every potential boundary under the strict (all-pairs) rule.

    The strength of the boundary after position ``k`` is
    ``min_{i <= k < j} P(order[i] precedes order[j])`` — the least confident
    pair straddling the boundary.  Each row ``i`` is folded right-to-left so
    that ``suffix_min`` equals ``min_{j' >= j} P(order[i], order[j'])`` when
    visiting column ``j``; that value is row ``i``'s exact contribution to
    the boundary after ``j - 1``.  One O(1) update per pair — the previous
    implementation re-scanned an O(n) slice per boundary on top of the pair
    loop (src of the hot-path regression this replaced).
    """
    n = len(order)
    if n < 2:
        return []
    strengths = [float("inf")] * (n - 1)
    for i in range(n - 1):
        suffix_min = float("inf")
        for j in range(n - 1, i, -1):
            probability = relation.probability(order[i], order[j])
            if probability < suffix_min:
                suffix_min = probability
            if suffix_min < strengths[j - 1]:
                strengths[j - 1] = suffix_min
    return strengths


def form_batches(
    order: Sequence[MessageKey],
    relation: LikelyHappenedBefore,
    threshold: float,
    mode: str = "adjacent",
) -> BatchingOutcome:
    """Split ``order`` into ranked batches at confident boundaries.

    Parameters
    ----------
    order:
        Linear order of message keys (from the tournament stage).
    relation:
        The likely-happened-before relation supplying pair probabilities.
    threshold:
        Boundary confidence threshold in ``[0.5, 1)``; the paper uses 0.75.
    mode:
        ``"adjacent"`` (paper §3.4): a boundary is created between adjacent
        messages ``i, j`` whenever ``P(i precedes j) > threshold``.
        ``"strict"`` (paper Appendix C / online sequencing): a boundary is
        only created when *every* pair straddling it exceeds the threshold,
        so a single high-uncertainty message pulls otherwise-separable
        messages into its batch.
    """
    if not 0.5 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0.5, 1), got {threshold!r}")
    if mode not in {"adjacent", "strict"}:
        raise ValueError(f"unknown batching mode {mode!r}")
    order = list(order)
    if not order:
        return BatchingOutcome(batches=(), boundary_probabilities=(), threshold=threshold)

    if mode == "adjacent":
        boundary_strengths = [
            relation.probability(earlier_key, later_key)
            for earlier_key, later_key in zip(order, order[1:])
        ]
    else:
        boundary_strengths = _strict_boundary_strengths(order, relation)

    groups: List[List[TimestampedMessage]] = [[relation.message(order[0])]]
    for strength, later_key in zip(boundary_strengths, order[1:]):
        if strength > threshold:
            groups.append([relation.message(later_key)])
        else:
            groups[-1].append(relation.message(later_key))

    batches = tuple(
        SequencedBatch(rank=rank, messages=tuple(group)) for rank, group in enumerate(groups)
    )
    return BatchingOutcome(
        batches=batches,
        boundary_probabilities=tuple(boundary_strengths),
        threshold=threshold,
    )
