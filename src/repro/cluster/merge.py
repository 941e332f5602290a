"""Probabilistic cross-shard merge of per-shard batch streams.

Each shard emits a totally ordered stream of fair batches over *its own*
clients.  The cluster-wide order is recovered by a batch-level instance of
the same probabilistic machinery the sequencer itself uses:

* every emitted shard batch becomes a node of a directed graph;
* within a shard, consecutive batches keep their emission order with
  probability 1 (the shard already separated them confidently);
* across shards, the likely-happened-before probability of two batches is
  the mean pairwise :class:`~repro.core.probability.PrecedenceModel`
  probability over their message cross pairs — the batch-level analogue of
  :class:`~repro.core.relation.LikelyHappenedBefore` (the mean preserves
  complementarity: ``P(A<B) + P(B<A) = 1``);
* the kept directions are never materialised as a graph: a Kahn pass with
  the sequencer's deterministic tie-break (highest score first, then by
  node; see :func:`~repro.core.engine.tournament_order`)
  reads them off the certainty windows and the pair store, and only when
  that pass stalls on a cycle is a boolean direction matrix built, in which
  :func:`~repro.core.cycles.break_cycles` clears victims under the
  configured policy — within-shard chain edges are never candidates
  (``merge_cycle`` telemetry names each victim);
* finally, adjacent batches from *different* shards whose precedence
  probability does not exceed the threshold are coalesced into one
  cluster-wide rank — the probabilistic merge: the cluster refuses to
  invent an order between shard batches it cannot justify.

Every cross-shard batch pair is priced by **one window rule and one
pair-list kernel**, whoever asks:

* :func:`window_rule` compares the *certainty windows*
  (:class:`CertaintyWindows`) of two node sets: a pair whose windows cannot
  overlap resolves to exactly ``1.0``/``0.0`` with no kernel work — the
  windows are sized so the kernel itself would have saturated to the same
  float;
* the remaining *band* goes through :meth:`StreamingMerger._price_pairs`,
  which prices exactly the requested ``(a, b)`` node pairs: all-Gaussian
  message sets in 1-D closed-form passes over slices of whole rows,
  anything grid-backed in chunked rectangles through
  :func:`~repro.core.engine.cross_probability_matrix` (shared
  :class:`~repro.core.engine.PairTableCache` difference-CDF tables); the
  closed-form passes are bounded by ``_SLICE_ELEMENTS``.  Either way a
  pair's mean is two sequential ``np.add.reduceat`` segment sums over the
  same floats, so it is bit-identical whichever call or slice computes it.

:class:`StreamingMerger` holds the priced state — per-node window arrays,
the flattened per-message kernel parameters and the *pair store*: exactly
the band pairs the kernel priced, O(band) not O(nodes²).  A pruned pair is
never stored — ``earliest <= latest`` makes ``before`` and ``after`` exclusive,
so ``result()``, ``forward_matrix()`` and a refresh read its exact 0/1 off the
stored windows.  The rule and the kernel have two callers: the *block flush*
``_price_pending`` (every observed-but-unpriced row against every earlier
cross-shard node, enumerating only the window where the band can lie) and
``refresh_client`` (the rows a distribution refresh can move).
``observe_batch`` only appends: a pair's float does not depend on
which call computes it, so pricing waits until pending rows × observed nodes
reach the flush cadence (``_CHUNK_ELEMENTS``) or until priced state is
*read* — ``result()``, ``forward_matrix()``, the pair counters,
``stats``, ``node_report()``, ``refresh_client``,
:attr:`CrossShardMerger.engine_stats` and (before the model changes)
:meth:`CrossShardMerger.register_client` all settle the pending block first.
No reader can see a state that pricing on arrival would not have shown, the
priced prefix trails observation by at most one block.  The offline
:meth:`CrossShardMerger.merge` is the same walk over whole streams.
``result()`` linearises windows plus store in O(nodes + band) — one N×N
*bool* direction matrix only on the cyclic path, for ``break_cycles``, which
reads edge weights through a view over the store — byte-identical to a fresh
:meth:`CrossShardMerger.merge` over the same streams in any observation
interleaving, under any flush cadence and any slice.  ``forward_matrix()``
materialises the dense matrix for ``tests/reference``, the unpruned per-pair
oracle both are checked against; nothing in ``src/`` reads it.  A
:class:`~repro.cluster.tree.MergeTopology` changes none of this: it only
attributes the priced pairs to tree nodes.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.cluster.tree import MergeTopology
from repro.core.cycles import RemovedEdge, break_cycles, check_policy
from repro.core.engine import (
    EngineStats,
    PairTableCache,
    _cached_gaussian_params,
    batched_gaussian_pairs,
    cross_probability_matrix,
)
from repro.core.probability import PrecedenceModel
from repro.distributions.base import OffsetDistribution
from repro.network.message import SequencedBatch, TimestampedMessage
from repro.obs.telemetry import NO_TELEMETRY, Telemetry, resolve
from repro.sequencers.base import SequencingResult

#: A batch node: (shard index, position of the batch in that shard's stream).
BatchNode = Tuple[int, int]

#: z-score beyond which the Gaussian closed form saturates to exactly 0/1 in
#: float64 (``erf`` rounds to ±1 past ~5.9 standard deviations; 9 adds a
#: comfortable margin, verified by the pruning soundness tests).
_GAUSSIAN_SATURATION_Z = 9.0

#: Flush cadence: the pending block is priced once pending rows × observed
#: nodes reach this many node pairs.  It decides *when* pricing runs; the
#: closed-form pass is bounded by ``_SLICE_ELEMENTS`` instead.  It also still
#: caps a grid-backed rectangle: there the pair tables, not the rectangle,
#: set the footprint, and a 4096-element cap made the table-backed merge of
#: the 64 × 22 cluster population about 30% slower (per-call cost).
_CHUNK_ELEMENTS = 1 << 18

#: Slice size (row·col message pairs) of one closed-form kernel pass, which
#: walks a block in slices of whole rows this large.  Large enough to
#: amortise per-call overhead, small enough that an all-Gaussian flush's
#: temporaries stay near 1 MiB however wide the block is, as long as no
#: single row is longer than a slice (such a row is priced whole); what
#: still grows with the block is one row-sum float per row.  It only groups
#: work: no pair's additions are ever regrouped.
_SLICE_ELEMENTS = 1 << 12


def window_rule(
    earliest_a: np.ndarray, latest_a: np.ndarray, earliest_b: np.ndarray, latest_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify every (a, b) node pair of two node sets by certainty window.

    Returns the ``(before, after, band)`` masks of shape ``(len(a), len(b))``:
    ``before`` — a's window closes before b's opens, so ``P(a before b)`` is
    exactly ``1.0``; ``after`` — the reverse, exactly ``0.0``; ``band`` —
    the windows overlap and the pair needs the kernel.  ``refresh_client``
    and ``forward_matrix()`` classify through it; the block flush and
    ``result()`` apply the same two comparisons to the pairs they enumerate.
    """
    before = earliest_b[None, :] > latest_a[:, None]
    after = earliest_a[:, None] > latest_b[None, :]
    return before, after, ~(before | after)


class CertaintyWindows:
    """Per-client certainty radii for timestamp-window pruning.

    For client ``c`` the radius ``r_c`` is chosen so that for *any* ordered
    client pair ``(a, b)`` served by the engine kernels, a timestamp gap
    ``T_b - T_a > r_a + r_b`` makes the preceding probability exactly
    ``1.0`` (and ``< -(r_a + r_b)`` exactly ``0.0``) in float64:

    * Gaussian closed form: ``r = 9*std + |mean|`` gives
      ``z = (gap - Δmu)/sqrt(var_a + var_b) > 9`` (since
      ``sqrt(var_a + var_b) <= std_a + std_b``), deep inside ``erf``
      saturation;
    * difference-CDF tables: the convolution grid spans at most
      ``max(hi) - min(lo)`` of the two supports, and ``r = 2*max(|lo|, |hi|)``
      bounds that from above, so the gap lands past the grid end where
      ``np.interp`` returns its exact 0/1 fill values.

    The radius is the max of both bounds (a pair's serving kernel depends on
    the model method and the *other* client), cached per client and
    version-checked against the model so distribution refreshes are picked
    up.  Clients whose distribution has no finite support report an infinite
    radius — pairs involving them are never pruned.
    """

    def __init__(self, model: PrecedenceModel) -> None:
        self._model = model
        self._radii: Dict[str, Tuple[int, float]] = {}

    def radius(self, client_id: str) -> float:
        """Certainty radius of ``client_id`` (``inf`` when not prunable)."""
        version = self._model.client_version(client_id)
        cached = self._radii.get(client_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        radius = self._compute(client_id)
        self._radii[client_id] = (version, radius)
        return radius

    def _compute(self, client_id: str) -> float:
        distribution = self._model.distribution_for(client_id)
        try:
            lo, hi = distribution.support()
            std = distribution.std
            mean = distribution.mean
        except Exception:
            return float("inf")
        bounds = (lo, hi, std, mean)
        if not all(np.isfinite(value) for value in bounds):
            return float("inf")
        gaussian_radius = _GAUSSIAN_SATURATION_Z * std + abs(mean)
        table_radius = 2.0 * max(abs(lo), abs(hi))
        return float(max(gaussian_radius, table_radius))

    def batch_window(self, batch: SequencedBatch) -> Tuple[float, float]:
        """``(earliest, latest)`` certainty window over the batch's messages."""
        earliest = float("inf")
        latest = -float("inf")
        for message in batch.messages:
            radius = self.radius(message.client_id)
            earliest = min(earliest, message.timestamp - radius)
            latest = max(latest, message.timestamp + radius)
        return earliest, latest

    def invalidate_client(self, client_id: str) -> None:
        """Drop the cached radius of ``client_id`` (distribution refresh)."""
        self._radii.pop(client_id, None)


@dataclass(frozen=True)
class MergeOutcome:
    """Result of one cross-shard merge pass."""

    result: SequencingResult
    merged_cross_shard: int
    cross_pairs_evaluated: int
    cycles_broken: int
    wall_seconds: float
    cross_pairs_pruned: int = 0

    @property
    def batch_count(self) -> int:
        """Number of cluster-wide batches after merging."""
        return self.result.batch_count


def merge_fingerprint(outcome: MergeOutcome) -> List[Tuple[int, Tuple[Tuple[str, int], ...]]]:
    """Rank + message keys per merged batch — the canonical parity comparison.

    Two merge outcomes are considered byte-identical (streaming vs offline,
    fast vs reference) exactly when their fingerprints are equal.
    """
    return [
        (batch.rank, tuple(message.key for message in batch.messages))
        for batch in outcome.result.batches
    ]


def _empty_outcome(start: float) -> MergeOutcome:
    empty = SequencingResult(batches=(), metadata={"sequencer": "cluster-merge"})
    return MergeOutcome(
        result=empty,
        merged_cross_shard=0,
        cross_pairs_evaluated=0,
        cycles_broken=0,
        wall_seconds=time.perf_counter() - start,
        cross_pairs_pruned=0,
    )


class _NodeLayout:
    """Shard-major node enumeration of the linearisation stage.

    One construction per merge: the node list, its shard lookup array, each
    shard's first id and every node's within-shard chain successor (``-1``
    for a shard's last batch).  Shard-major ids make "lower shard" and
    "lower id" the same thing for a cross-shard pair: the canonical pair
    orientation.
    """

    def __init__(self, streams: Sequence[Sequence[SequencedBatch]]) -> None:
        self.nodes: List[BatchNode] = [
            (shard, index) for shard, stream in enumerate(streams) for index in range(len(stream))
        ]
        self.node_shard = np.asarray([shard for shard, _ in self.nodes], dtype=np.int64)
        self.shard_lengths = [len(stream) for stream in streams]
        bounds = np.cumsum([0] + self.shard_lengths)
        self.bases: List[int] = bounds[:-1].tolist()
        ids = np.arange(len(self.nodes), dtype=np.int64)
        ends = np.repeat(bounds[1:], self.shard_lengths)
        self.chain_next = np.where(ids + 1 < ends, ids + 1, -1)


class _Band(NamedTuple):
    """What the linearise/coalesce core reads of the priced pairs, by shard-major id.

    A cross-shard pair is either *pruned* — ``earliest[v] > latest[u]`` is
    the kept edge ``u -> v`` with probability exactly 1 — or *stored*:
    ``forward`` of the pair ``(a, b)``, lower id on the a-side, under
    ``keys = a * n + b`` in ascending order.
    """

    earliest: np.ndarray
    latest: np.ndarray
    keys: np.ndarray
    forward: np.ndarray

    @classmethod
    def of(
        cls, earliest: np.ndarray, latest: np.ndarray, keys: np.ndarray, forward: np.ndarray
    ) -> "_Band":
        """The band of stored pairs given by key in any order."""
        by_key = np.argsort(keys)
        return cls(earliest, latest, keys[by_key], forward[by_key])

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(pair_a, pair_b)`` of the stored pairs, in key order."""
        return np.divmod(self.keys, self.earliest.size)

    def stored(self, sources: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(found, P(source before target))`` of each pair, read off the store:
        ``found`` marks the stored pairs, and only their entries are meaningful."""
        lower, upper = np.minimum(sources, targets), np.maximum(sources, targets)
        wanted = lower * self.earliest.size + upper
        slot = np.searchsorted(self.keys, wanted)
        found = slot < self.keys.size
        found[found] = self.keys[slot[found]] == wanted[found]
        forward = np.full(found.shape, np.nan)
        stored = self.forward[slot[found]]
        forward[found] = np.where(sources[found] < targets[found], stored, 1.0 - stored)
        return found, forward

    def forward_of(self, previous: np.ndarray, node: np.ndarray) -> np.ndarray:
        """``P(previous before node)`` of cross-shard pairs: the exact 0/1 of a
        pruned pair, the stored mean of a band pair, NaN for neither."""
        earliest, latest = self.earliest, self.latest
        pruned = [earliest[node] > latest[previous], earliest[previous] > latest[node]]
        forwards = np.select(pruned, [1.0, 0.0], np.nan)
        found, stored = self.stored(previous, node)
        forwards[found] = stored[found]
        return forwards


class _EdgeWeights:
    """``probability[sources, targets]`` of kept edges, for ``break_cycles``.

    A view over the store: a stored pair weighs its ``forward`` or
    ``1 - forward`` by orientation, and a pruned kept edge weighs exactly
    ``1.0`` whichever way it points.  Nothing of size N² is built.
    """

    def __init__(self, band: _Band) -> None:
        self._band = band

    def __getitem__(self, index: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        sources, targets = (np.atleast_1d(side) for side in index)
        found, stored = self._band.stored(sources, targets)
        weights = np.where(found, stored, 1.0)
        return weights if np.ndim(index[0]) else weights[0]


def _matrix_band(layout: _NodeLayout, forward_matrix: np.ndarray) -> _Band:
    """A dense shard-major forward matrix as a band: nothing prunes (infinite
    windows) and every cross-shard pair is stored with its entry above the
    diagonal."""
    pair_a, pair_b = np.triu_indices(len(layout.nodes), k=1)
    cross = layout.node_shard[pair_a] != layout.node_shard[pair_b]
    pair_a, pair_b = pair_a[cross], pair_b[cross]
    unbounded = np.full(len(layout.nodes), np.inf)
    keys = pair_a * unbounded.size + pair_b
    return _Band.of(-unbounded, unbounded, keys, forward_matrix[pair_a, pair_b])


def _kahn(
    layout: _NodeLayout,
    earliest: np.ndarray,
    latest: np.ndarray,
    out_degree: np.ndarray,
    in_degree: np.ndarray,
    successors: Callable[[int], np.ndarray],
) -> Optional[List[int]]:
    """Kahn's algorithm with the reference lexicographical tie-break.

    Kept cross-shard edges come two ways: *explicit* ones — ``in_degree``
    counts them (and is consumed), ``successors(u)`` lists their targets out
    of ``u`` — and *pruned* ones, ``y -> h`` for every ``y`` in another shard
    whose window closes before ``h``'s opens.  The within-shard chains are
    modelled implicitly: only the earliest unplaced batch of each shard, its
    head, is ever a candidate.  A shard's unplaced nodes are therefore a
    suffix of it, so a head has an unplaced pruned predecessor iff another
    shard's *floor* — the minimum ``latest`` over that suffix — is below the
    head's ``earliest``.  Returns node ids in order, or ``None`` when the
    graph is cyclic.  The candidate choice minimises ``(-out_degree, node)``
    — the key of a lexicographical topological sort over the materialised
    graph (``tests/reference/linearise_reference.py``); shard-major ids
    order like the nodes, so both orders agree node for node.
    """
    heads = list(layout.bases)
    ends = [base + length for base, length in zip(heads, layout.shard_lengths)]
    floors = [
        np.minimum.accumulate(latest[base:end][::-1])[::-1].tolist() + [np.inf]
        for base, end in zip(heads, ends)
    ]
    floor = [suffix[0] for suffix in floors]
    rank = (-out_degree).tolist()
    opens = earliest.tolist()
    shards = range(len(heads))
    order: List[int] = []
    for _ in range(len(layout.nodes)):
        # a head is blocked by the lowest floor of the *other* shards
        low, low_shard, second = np.inf, -1, np.inf
        for shard in shards:
            if floor[shard] < low:
                low, low_shard, second = floor[shard], shard, low
            elif floor[shard] < second:
                second = floor[shard]
        best = best_shard = -1
        for shard in shards:
            head = heads[shard]
            if head == ends[shard] or in_degree[head]:
                continue
            if (second if shard == low_shard else low) < opens[head]:
                continue
            if best < 0 or (rank[head], head) < (rank[best], best):
                best, best_shard = head, shard
        if best < 0:
            return None  # cyclic: some unplaced head still has predecessors
        order.append(best)
        heads[best_shard] += 1
        floor[best_shard] = floors[best_shard][heads[best_shard] - layout.bases[best_shard]]
        in_degree[successors(best)] -= 1
    return order


def _band_order(layout: _NodeLayout, band: _Band) -> Optional[List[int]]:
    """:func:`_kahn` straight off the windows and the store, in O(nodes + band).

    Every cross-shard pair keeps exactly one direction, so of any two shard
    heads one precedes the other: at most one head at a time is free of
    unplaced predecessors.  The ``(-out_degree, node)`` tie-break therefore
    never decides on this pass, and no out-degree is computed; it decides
    only once ``break_cycles`` has removed edges (see :func:`_kept_order`).
    The band's edges are CSR arrays.
    """
    n = len(layout.nodes)
    band_out, in_degree, by_source = _band_edges(band)
    bounds = np.concatenate(([0], np.cumsum(band_out))).tolist()
    return _kahn(
        layout,
        band.earliest,
        band.latest,
        np.zeros(n, dtype=np.int64),
        in_degree,
        lambda node: by_source[bounds[node] : bounds[node + 1]],
    )


def _band_edges(band: _Band) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(out_degree, in_degree, targets)`` of the stored pairs' kept edges,
    the targets grouped by source in ascending source order (CSR).  A
    function of its own so its temporaries are freed before the walk."""
    n = band.earliest.size
    sources, targets = band.pairs()
    losers = ~(band.forward >= 0.5)  # the b-side precedes
    sources[losers], targets[losers] = targets[losers], sources[losers]
    by_source = targets[np.argsort(sources, kind="stable")]
    return np.bincount(sources, minlength=n), np.bincount(targets, minlength=n), by_source


def _direction_matrix(layout: _NodeLayout, band: _Band) -> np.ndarray:
    """``edge[u, v]`` is the kept edge ``u -> v``: one bool square, built only
    for ``break_cycles`` on the cyclic path."""
    n = len(layout.nodes)
    edge = band.earliest[None, :] > band.latest[:, None]
    for base, length in zip(layout.bases, layout.shard_lengths):
        edge[base : base + length, base : base + length] = False
    # neither window comparison holds for a stored pair: set its kept
    # direction, a row's worth of pairs at a time so no transient outgrows O(n)
    flat = edge.reshape(-1)
    for lo in range(0, band.keys.size, n):
        keys = band.keys[lo : lo + n]
        pair_a, pair_b = np.divmod(keys, n)
        flat[np.where(band.forward[lo : lo + n] >= 0.5, keys, pair_b * n + pair_a)] = True
    return edge


def _linear_order(
    layout: _NodeLayout, forward_matrix: np.ndarray, cycle_policy: str, rng: np.random.Generator
) -> Tuple[List[int], List[RemovedEdge]]:
    """:func:`_kept_order` over a dense forward matrix."""
    return _kept_order(layout, _matrix_band(layout, forward_matrix), cycle_policy, rng)


def _kept_order(
    layout: _NodeLayout, band: _Band, cycle_policy: str, rng: np.random.Generator
) -> Tuple[List[int], List[RemovedEdge]]:
    """Node ids in merged order, and the kept edges a cyclic tournament lost.

    An acyclic tournament is one :func:`_band_order` pass.  A cyclic one
    stalls there; then, and only then, the direction matrix of every kept
    edge is built, :func:`~repro.core.cycles.break_cycles` clears victims in
    it (within-shard chain edges are never candidates; weights come through
    :class:`_EdgeWeights`) and the same Kahn core runs over what is left.
    """
    order = _band_order(layout, band)
    if order is not None:
        return order, []
    chain_next = layout.chain_next
    edge = _direction_matrix(layout, band)
    removed = break_cycles(edge, _EdgeWeights(band), cycle_policy, rng, first_successor=chain_next)
    unbounded = np.full(len(layout.nodes), np.inf)
    order = _kahn(
        layout,
        -unbounded,
        unbounded,
        edge.sum(axis=1) + (chain_next >= 0),
        edge.sum(axis=0),
        lambda node: np.flatnonzero(edge[node]),
    )
    return order, removed


def _emit_cycle_events(
    obs: Telemetry,
    streams: Sequence[Sequence[SequencedBatch]],
    nodes: Sequence[BatchNode],
    cycle_policy: str,
    removed: Sequence[RemovedEdge],
) -> None:
    """One ``merge_cycle`` event per precedence the merge refused to honour.

    Stamped with the later emission of the two batches (sim time, so reruns
    with the same seed record identical events).
    """
    for victim in removed:
        (shard, index), (target_shard, target_index) = nodes[victim.source], nodes[victim.target]
        emitted = [
            batch.emitted_at
            for batch in (streams[shard][index], streams[target_shard][target_index])
            if batch.emitted_at is not None
        ]
        obs.event(
            "merge_cycle",
            cycle_policy,
            max(emitted, default=0.0),
            shard=shard,
            source_index=index,
            target_shard=target_shard,
            target_index=target_index,
            probability=victim.probability,
            cycle_length=victim.cycle_length,
        )
    obs.count("merge.cycle_edges_removed", len(removed))


def _merge_from_matrix(
    streams: Sequence[Sequence[SequencedBatch]], forward_matrix: np.ndarray, *args, **kwargs
) -> MergeOutcome:
    """:func:`_merge_edges` (whose arguments follow) over a dense forward matrix,
    indexed shard-major (:class:`_NodeLayout`).  The streaming merger never
    builds one; tests and oracles hand arbitrary matrices to the core here."""
    layout = _NodeLayout(streams)
    return _merge_edges(streams, layout, _matrix_band(layout, forward_matrix), *args, **kwargs)


def _merge_edges(
    streams: Sequence[Sequence[SequencedBatch]],
    layout: _NodeLayout,
    band: _Band,
    threshold: float,
    cycle_policy: str,
    rng: np.random.Generator,
    cross_pairs_evaluated: int,
    cross_pairs_pruned: int,
    start: float,
    stats: Optional[EngineStats] = None,
    obs=NO_TELEMETRY,
) -> MergeOutcome:
    """Linearise + coalesce: the one core every merge ends in.

    The pair store and a dense matrix describe the same floats through
    ``band``, so they produce byte-identical output.
    """
    nodes = layout.nodes
    order_ids, removed = _kept_order(layout, band, cycle_policy, rng)
    cycles_broken = len(removed)
    if removed:
        if stats is not None:
            stats.cycle_resolutions += 1
        if obs.enabled:
            _emit_cycle_events(obs, streams, nodes, cycle_policy, removed)

    # probabilistic coalescing: a cross-shard boundary needs confidence.
    # Within-shard adjacency is rank-certain *by construction* (the shard
    # emitted the batches in order and the chain edges enforce it), so it is
    # checked explicitly instead of hiding behind a default; a cross-shard
    # pair with no recorded precedence is a hard error.
    order = np.asarray(order_ids, dtype=np.int64)
    previous, following = order[:-1], order[1:]
    crossing = layout.node_shard[previous] != layout.node_shard[following]
    forwards = np.full(previous.size, np.nan)  # P(previous before following) across shards
    forwards[crossing] = band.forward_of(previous[crossing], following[crossing])
    unrecorded = crossing & np.isnan(forwards)
    reversed_chain = ~crossing & (previous >= following)  # shard-major ids follow the rank
    broken = np.flatnonzero(unrecorded | reversed_chain)
    if broken.size:
        step = int(broken[0])
        first, second = nodes[previous[step]], nodes[following[step]]
        if unrecorded[step]:
            raise AssertionError(
                f"no precedence recorded for cross-shard pair {first} -> {second}"
            )
        raise AssertionError(
            f"within-shard emission order violated: {first} placed before {second}"
        )
    coalesce = crossing & ~(forwards > threshold)
    merged_cross_shard = int(coalesce.sum())
    starts = np.flatnonzero(np.concatenate(([True], ~coalesce)))[: order.size]
    bounds = starts.tolist() + [order.size]
    groups: List[List[BatchNode]] = [
        [nodes[node_id] for node_id in order_ids[lo:hi]] for lo, hi in zip(bounds, bounds[1:])
    ]

    batches: List[SequencedBatch] = []
    for rank, group in enumerate(groups):
        messages = tuple(
            message
            for shard, index in group
            for message in streams[shard][index].messages
        )
        emitted = [
            streams[shard][index].emitted_at
            for shard, index in group
            if streams[shard][index].emitted_at is not None
        ]
        commit_time = max(emitted) if emitted else None
        batches.append(
            SequencedBatch(
                rank=rank,
                messages=messages,
                emitted_at=commit_time,
            )
        )
        if obs.enabled:
            # a message's commit time is when its merged batch became final:
            # the latest source-batch emission inside the group (sim time, so
            # reruns with the same seed stamp identical commits)
            for shard, index in group:
                for message in streams[shard][index].messages:
                    obs.stage(
                        "merge_commit",
                        message,
                        commit_time if commit_time is not None else 0.0,
                        shard=shard,
                    )

    wall = time.perf_counter() - start
    result = SequencingResult(
        batches=tuple(batches),
        metadata={
            "sequencer": "cluster-merge",
            "shards": len(streams),
            "threshold": threshold,
            "cycle_policy": cycle_policy,
            "merged_cross_shard": merged_cross_shard,
            "cross_pairs_evaluated": cross_pairs_evaluated,
            "cross_pairs_pruned": cross_pairs_pruned,
            "cycles_broken": cycles_broken,
            "merge_wall_seconds": wall,
        },
    )
    return MergeOutcome(
        result=result,
        merged_cross_shard=merged_cross_shard,
        cross_pairs_evaluated=cross_pairs_evaluated,
        cycles_broken=cycles_broken,
        wall_seconds=wall,
        cross_pairs_pruned=cross_pairs_pruned,
    )


class CrossShardMerger:
    """Merges per-shard emitted batches into one cluster-wide fair order."""

    def __init__(
        self,
        model: PrecedenceModel,
        threshold: float = 0.75,
        cycle_policy: str = "greedy",
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not 0.5 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0.5, 1), got {threshold!r}")
        check_policy(cycle_policy)
        self._model = model
        self._threshold = float(threshold)
        self._cycle_policy = cycle_policy
        self._seed = int(seed)
        self._telemetry = telemetry
        self._engine_stats = EngineStats()
        # difference-CDF tables shared across every batch_precedence call, so
        # empirical/learned client pairs convolve once per pair, not per batch
        self._tables = PairTableCache(model, stats=self._engine_stats)
        self._windows = CertaintyWindows(model)
        # live streaming mergers share the model and the counters above: their
        # pending rows are priced before either is changed or read
        self._streaming: "weakref.WeakSet[StreamingMerger]" = weakref.WeakSet()

    def _settle(self) -> None:
        for streaming in self._streaming:
            streaming._price_pending()

    @property
    def model(self) -> PrecedenceModel:
        """The cluster-wide precedence model (all clients registered)."""
        return self._model

    @property
    def pair_tables(self) -> PairTableCache:
        """The shared per-client-pair difference-CDF table cache."""
        return self._tables

    @property
    def certainty_windows(self) -> CertaintyWindows:
        """The per-client certainty radii used for window pruning."""
        return self._windows

    def register_client(self, client_id: str, distribution: OffsetDistribution) -> None:
        """Register or refresh a client's distribution on the merge model.

        Drops the cached difference-CDF tables involving the client so the
        next merge prices its cross-shard pairs with the new distribution.
        Rows a streaming merger has observed but not priced yet are priced
        first, by the model they were observed under.
        """
        self._settle()
        self._model.register_client(client_id, distribution)
        self._tables.invalidate_client(client_id)
        self._windows.invalidate_client(client_id)
        for streaming in self._streaming:
            # rows observed from here on read the new closed-form parameters
            streaming._client_params.pop(client_id, None)

    def streaming_merger(
        self, num_shards: Optional[int] = None, topology: Optional[MergeTopology] = None
    ) -> "StreamingMerger":
        """A :class:`StreamingMerger` sharing this merger's model and caches.

        Its :meth:`StreamingMerger.result` is byte-identical to
        :meth:`merge` over the observed streams.  ``topology`` (a
        :class:`~repro.cluster.tree.MergeTopology`) makes the merger
        attribute every priced pair to its lowest common ancestor
        (:meth:`StreamingMerger.node_report`, ``merge_tree`` telemetry); it
        never changes a priced float.
        """
        streaming = StreamingMerger(
            self._model,
            threshold=self._threshold,
            cycle_policy=self._cycle_policy,
            seed=self._seed,
            tables=self._tables,
            stats=self._engine_stats,
            windows=self._windows,
            num_shards=num_shards,
            telemetry=self._telemetry,
            topology=topology,
        )
        self._streaming.add(streaming)
        return streaming

    # ---------------------------------------------------------- probabilities
    @property
    def engine_stats(self) -> EngineStats:
        """Counters for the vectorized cross-pair computations performed.

        Shared with every :meth:`streaming_merger`; pending rows settle first.
        """
        self._settle()
        return self._engine_stats

    def batch_precedence(self, batch_a: SequencedBatch, batch_b: SequencedBatch) -> float:
        """``P(batch_a generated before batch_b)`` at batch granularity.

        The mean over message cross pairs of the pairwise preceding
        probability (one vectorized engine evaluation of the cross matrix).
        The mean (rather than min or max) keeps the batch-level relation
        complementary, which the tournament construction requires.
        """
        matrix = cross_probability_matrix(
            batch_a.messages,
            batch_b.messages,
            self._model,
            stats=self._engine_stats,
            tables=self._tables,
        )
        if matrix.size == 0:
            return 0.5
        return float(matrix.mean())

    # ----------------------------------------------------------------- merge
    def _priced(self, shard_batches: Sequence[Sequence[SequencedBatch]]) -> "StreamingMerger":
        """The priced state of an offline merge: whole streams observed at once.

        ``observe_batch`` over the streams taken shard by shard (same appends,
        same block flushes; the last block settles at the first read) minus
        the observation telemetry: this is a repricing.
        """
        priced = self.streaming_merger(num_shards=len(shard_batches))
        for shard, batches in enumerate(shard_batches):
            for batch in batches:
                priced._append(shard, batch)
        return priced

    def merge(self, shard_batches: Sequence[Sequence[SequencedBatch]]) -> MergeOutcome:
        """Merge per-shard batch streams into one cluster-wide order.

        ``shard_batches[s]`` is shard ``s``'s emitted batches in rank order.
        Pricing is the streaming merger's own block schedule (:meth:`_priced`);
        linearisation draws from a generator seeded per call, so repeated
        merges of the same streams are equal (and equal
        :meth:`StreamingMerger.result` over them).
        """
        start = time.perf_counter()
        return self._priced(shard_batches)._linearise(start)


def _fitted(arrays: Sequence[np.ndarray], needed: int) -> Sequence[np.ndarray]:
    """Equal-length ``arrays``, zero-extended by doubling until they hold ``needed``."""
    capacity = arrays[0].size
    if needed <= capacity:
        return arrays
    while capacity < needed:
        capacity *= 2
    fresh = [np.zeros(capacity, dtype=array.dtype) for array in arrays]
    for grown, array in zip(fresh, arrays):
        grown[: array.size] = array
    return fresh


def _row_cuts(
    rows: np.ndarray, spans: np.ndarray, budget: int
) -> Iterator[Tuple[int, int, int, int]]:
    """Cut one kernel call's pair-major rows into slices of whole rows.

    Pair ``k`` contributes ``rows[k]`` rows of ``spans[k]`` elements each.
    Yields ``(k, r, k_end, r_end)``: a slice runs from row ``r`` of pair ``k``
    up to, excluding, row ``r_end`` of pair ``k_end`` (``(len(rows), 0)`` is
    the end) and holds at most ``budget`` elements — or one row, where a row
    alone is longer.
    """
    bounds = np.concatenate(([0], np.cumsum(rows * spans)))
    total = int(bounds[-1])
    k = r = 0
    while k < rows.size:
        target = int(bounds[k]) + r * int(spans[k]) + budget
        if target >= total:
            k_end, r_end = rows.size, 0
        else:
            k_end = int(np.searchsorted(bounds, target, side="right")) - 1
            r_end = (target - int(bounds[k_end])) // int(spans[k_end])
            if (k_end, r_end) == (k, r):
                r_end += 1
                if r_end == rows[k]:
                    k_end, r_end = k + 1, 0
        yield k, r, k_end, r_end
        k, r = k_end, r_end


def _slice_indices(
    offsets: np.ndarray,
    p_a: np.ndarray,
    p_b: np.ndarray,
    first_row: int,
    rows: np.ndarray,
    spans: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row_index, col_index, row_starts)`` of one kernel slice.

    The slice holds ``rows[k]`` rows of pair ``(p_a[k], p_b[k])``, the first
    pair's starting at its row ``first_row``; ``spans[k]`` is the size of
    ``p_b[k]``.  Returns the message slots of every (row message, col message)
    element in pair-major / row-major / col-within order and the row
    ``reduceat`` boundaries.
    """
    row_base = offsets[p_a] - (np.cumsum(rows) - rows)
    row_base[0] += first_row
    row_slot = np.repeat(row_base, rows) + np.arange(int(rows.sum()))
    row_span = np.repeat(spans, rows)
    row_starts = np.cumsum(row_span) - row_span
    row_index = np.repeat(row_slot, row_span)
    col_index = np.repeat(np.repeat(offsets[p_b], rows) - row_starts, row_span)
    col_index += np.arange(col_index.size)
    return row_index, col_index, row_starts


class StreamingMerger:
    """Incrementally maintained cross-shard merge.

    ``observe_batch(shard, batch)`` appends one node; its pairs against
    every earlier cross-shard node are priced with its *block*, in one pass:
    the pairs whose certainty windows cannot overlap resolve to exact 0/1 —
    most without being enumerated — and only the overlapping band reaches
    the pair-list kernel, so time-localised streams only ever classify and
    evaluate a band of recent batches.  A block is flushed when pending rows × observed nodes
    reach ``_CHUNK_ELEMENTS`` and whenever priced state is read, so the
    schedule depends on the node count alone (not on telemetry, not on the
    interleaving) and no reader can tell it from pricing on arrival.
    Only the band is stored (:attr:`stored_pairs`); ``result()`` linearises it
    together with the windows, and for the same observed streams the output
    is byte-identical to :meth:`CrossShardMerger.merge` (which is this class
    observing whole streams at once), regardless of the order batches were
    observed in.

    A row is priced by the model it was observed under; a mid-stream
    distribution refresh must be propagated with :meth:`refresh_client`,
    which reprices every maintained pair the refresh can move and rewrites
    the client's entries in the kernel's flattened parameter arrays.

    A :class:`~repro.cluster.tree.MergeTopology` adds an attribution, not a
    computation: every priced pair is also counted at the lowest common
    ancestor of its two shards, which feeds :meth:`node_report`, the
    ``merge_tree`` telemetry events (recorded when the node's block is
    priced, stamped with its own observation time) and the
    ``merge.tree.level*`` counters.
    """

    def __init__(
        self,
        model: PrecedenceModel,
        threshold: float = 0.75,
        cycle_policy: str = "greedy",
        seed: int = 0,
        tables: Optional[PairTableCache] = None,
        stats: Optional[EngineStats] = None,
        windows: Optional[CertaintyWindows] = None,
        num_shards: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        topology: Optional[MergeTopology] = None,
    ) -> None:
        if not 0.5 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0.5, 1), got {threshold!r}")
        check_policy(cycle_policy)
        if topology is not None:
            if num_shards is None:
                num_shards = topology.num_shards
            elif num_shards != topology.num_shards:
                raise ValueError(
                    f"num_shards={num_shards} does not match the "
                    f"{topology.num_shards}-leaf topology"
                )
        self._model = model
        self._threshold = float(threshold)
        self._cycle_policy = cycle_policy
        self._seed = int(seed)
        self._obs = resolve(telemetry)
        self._stats = stats if stats is not None else EngineStats()
        self._tables = tables if tables is not None else PairTableCache(model, stats=self._stats)
        self._windows = windows if windows is not None else CertaintyWindows(model)
        # pre-creating the shard streams keeps result() metadata identical to
        # an offline merge over a fixed-size cluster even when trailing
        # shards have not emitted anything yet
        self._streams: List[List[SequencedBatch]] = [
            [] for _ in range(num_shards if num_shards is not None else 0)
        ]
        self._nodes: List[BatchNode] = []  # observation order
        self._priced = 0  # nodes below this position have their pairs priced
        self._node_messages: List[Tuple[TimestampedMessage, ...]] = []
        # per-node state the window rule and the kernel read, indexed by
        # observation position
        self._shard = np.zeros(16, dtype=np.int64)
        self._size = np.zeros(16, dtype=np.int64)
        self._offset = np.zeros(16, dtype=np.int64)  # first message slot
        self._earliest = np.zeros(16)
        self._latest = np.zeros(16)
        # the pair store: exactly the band pairs the kernel priced, by
        # observation position, a-side = lower shard; P(a before b)
        self._stored = 0
        self._pair_a = np.zeros(64, dtype=np.int64)
        self._pair_b = np.zeros(64, dtype=np.int64)
        self._forward = np.zeros(64)
        # the kernel's flattened per-message parameters, node-major: a cache
        # of the model, appended per observed node and rewritten per client
        # by refresh_client.  mean/variance are only meaningful while no
        # observed client is grid-backed (then every pair takes the
        # closed-form pass); otherwise the kernel asks the model itself.
        self._message_count = 0
        self._timestamp = np.zeros(64)
        self._mean = np.zeros(64)
        self._variance = np.zeros(64)
        self._message_node = np.zeros(64, dtype=np.int64)
        self._client_slots: Dict[str, List[int]] = {}
        # closed-form parameters per client; refresh_client drops the entry
        self._client_params: Dict[str, Optional[Tuple[float, float]]] = {}
        self._grid_clients: Set[str] = set()
        self._cross_pairs_evaluated = 0
        self._cross_pairs_pruned = 0
        self._refresh_pairs_skipped = 0
        # the attribution: pruned/kernel pair counts per topology node
        self._topology = topology
        tree_nodes = len(topology.nodes) if topology is not None else 0
        self._node_pruned_pairs = np.zeros(tree_nodes, dtype=np.int64)
        self._node_kernel_pairs = np.zeros(tree_nodes, dtype=np.int64)

    # ------------------------------------------------------------- properties
    @property
    def node_count(self) -> int:
        """Number of shard batches observed so far."""
        return len(self._nodes)

    @property
    def pending_nodes(self) -> int:
        """Observed nodes whose pairs are not priced yet (under one block)."""
        return len(self._nodes) - self._priced

    @property
    def cross_pairs_evaluated(self) -> int:
        """Cross-shard batch pairs of the observed nodes that need the kernel."""
        self._price_pending()
        return self._cross_pairs_evaluated

    @property
    def cross_pairs_pruned(self) -> int:
        """Cross-shard batch pairs of the observed nodes resolved by window pruning."""
        self._price_pending()
        return self._cross_pairs_pruned

    @property
    def stored_pairs(self) -> int:
        """Pairs held in the pair store: the band, ``cross_pairs_evaluated``."""
        self._price_pending()
        return self._stored

    @property
    def stats(self) -> EngineStats:
        """Engine counters for the kernel work of every observed node."""
        self._price_pending()
        return self._stats

    @property
    def topology(self) -> Optional[MergeTopology]:
        """The merge topology (``None`` in flat mode)."""
        return self._topology

    @property
    def refresh_pairs_skipped(self) -> int:
        """Pairs left untouched by window pruning across every refresh."""
        return self._refresh_pairs_skipped

    def node_report(self) -> List[Dict[str, object]]:
        """Per-merge-node pruned/kernel pair counts (one pseudo-node flat)."""
        self._price_pending()
        if self._topology is None:
            return [
                {
                    "node": 0,
                    "label": "flat",
                    "level": 1,
                    "shards": len(self._streams),
                    "pruned_pairs": self._cross_pairs_pruned,
                    "kernel_pairs": self._cross_pairs_evaluated,
                }
            ]
        return [
            {
                "node": tree_node.node_id,
                "label": tree_node.label,
                "level": tree_node.level,
                "shards": len(tree_node.shards),
                "pruned_pairs": int(self._node_pruned_pairs[tree_node.node_id]),
                "kernel_pairs": int(self._node_kernel_pairs[tree_node.node_id]),
            }
            for tree_node in self._topology.interior_nodes
        ]

    def _shard_major(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(order, pair_a, pair_b, forward)``: the observation position of
        every shard-major node id (:class:`_NodeLayout`'s enumeration; a shard
        is observed in rank order) and the store in those ids."""
        order = np.argsort(self._shard[: len(self._nodes)], kind="stable")
        ids = np.empty_like(order)
        ids[order] = np.arange(order.size)
        stored = self._stored
        return order, ids[self._pair_a[:stored]], ids[self._pair_b[:stored]], self._forward[:stored]

    def _band(self) -> _Band:
        """The priced state as the linearisation core reads it."""
        order, keys, pair_b, forward = self._shard_major()
        keys *= order.size
        keys += pair_b  # in place: a * n + b
        return _Band.of(self._earliest[order], self._latest[order], keys, forward)

    def forward_matrix(self) -> np.ndarray:
        """The forward probabilities, shard-major, materialised.

        ``matrix[a][b]`` is ``P(a before b)`` for every cross-shard node
        pair, nodes enumerated shard by shard in rank order whatever order
        they were observed in; within-shard entries are NaN.  A view for
        tests and oracles — the window rule's exact 0/1 for every pruned
        pair plus the stored band; ``result()`` never builds it.
        """
        self._price_pending()
        order, pair_a, pair_b, forward = self._shard_major()
        earliest, latest, shard = self._earliest[order], self._latest[order], self._shard[order]
        before, after, _ = window_rule(earliest, latest, earliest, latest)
        cross = shard[:, None] != shard[None, :]
        matrix = np.full(cross.shape, np.nan)
        matrix[before & cross] = 1.0
        matrix[after & cross] = 0.0
        matrix[pair_a, pair_b] = forward
        matrix[pair_b, pair_a] = 1.0 - forward
        return matrix

    # ----------------------------------------------------------------- intake
    def observation_cursor(self, shard: int) -> int:
        """Number of batches observed from ``shard`` so far.

        Per-shard emission ranks are consecutive from zero, so this cursor is
        also the rank of the *next* batch the merger expects from the shard.
        Recovery coordinators (:class:`~repro.runtime.procs.ProcBackend`) use
        it as a bounded exactly-once gate: a restarted shard replays its
        frozen slice from the start, and every re-streamed batch whose rank
        is below the cursor was already observed and is dropped — one integer
        per shard instead of a per-batch seen-set.
        """
        if shard < 0:
            raise ValueError(f"shard index must be non-negative, got {shard!r}")
        if shard < len(self._streams):
            return len(self._streams[shard])
        return 0

    def observe_batch(self, shard: int, batch: SequencedBatch) -> BatchNode:
        """Append the next emitted batch of ``shard``; its block prices it."""
        position = self._append(shard, batch)
        if self._obs.enabled:
            observed_at = batch.emitted_at if batch.emitted_at is not None else 0.0
            for message in batch.messages:
                self._obs.stage("merge_observe", message, observed_at, shard=shard)
            self._obs.count("merge.batches_observed")
            self._obs.gauge("merge.pending_nodes", self.pending_nodes)
        return self._nodes[position]

    def _append(self, shard: int, batch: SequencedBatch) -> int:
        """Record ``batch`` as ``shard``'s next node; returns its position.

        Flushes the pending block once it reaches the flush cadence.
        """
        if shard < 0:
            raise ValueError(f"shard index must be non-negative, got {shard!r}")
        if self._topology is not None and shard >= self._topology.num_shards:
            raise ValueError(
                f"shard {shard} outside the {self._topology.num_shards}-leaf topology"
            )
        while len(self._streams) <= shard:
            self._streams.append([])
        node: BatchNode = (shard, len(self._streams[shard]))
        self._streams[shard].append(batch)
        position = len(self._nodes)
        self._nodes.append(node)
        self._node_messages.append(tuple(batch.messages))
        start = self._message_count
        self._message_count = start + batch.size
        self._grow(position + 1, self._message_count)
        self._shard[position] = shard
        self._size[position] = batch.size
        self._offset[position] = start
        self._earliest[position], self._latest[position] = self._windows.batch_window(batch)
        self._message_node[start : self._message_count] = position
        for slot, message in enumerate(batch.messages, start):
            self._timestamp[slot] = message.timestamp
            self._client_slots.setdefault(message.client_id, []).append(slot)
            self._store_params(message.client_id, slot)
        if self.pending_nodes * len(self._nodes) >= _CHUNK_ELEMENTS:
            self._price_pending()
        return position

    def _store_params(self, client_id: str, slots: Union[int, np.ndarray]) -> None:
        """Write ``client_id``'s closed-form parameters into ``slots``."""
        params = _cached_gaussian_params(self._model, self._client_params, client_id)
        if params is None:
            self._grid_clients.add(client_id)
        else:
            self._grid_clients.discard(client_id)
            self._mean[slots], self._variance[slots] = params

    def _grow(self, nodes: int, messages: int) -> None:
        """Double the per-node arrays or the per-message arrays."""
        self._shard, self._size, self._offset, self._earliest, self._latest = _fitted(
            (self._shard, self._size, self._offset, self._earliest, self._latest), nodes
        )
        self._timestamp, self._mean, self._variance, self._message_node = _fitted(
            (self._timestamp, self._mean, self._variance, self._message_node), messages
        )

    # ---------------------------------------------------------------- pricing
    def _price_pending(self) -> None:
        """Price every observed node past the cursor: the one flush.

        ``_append`` calls it when the block reaches the flush cadence, every
        reader of priced state before anything else.  Telemetry rides along;
        it never decides when a block is priced.
        """
        if not self.pending_nodes:
            return
        first = self._priced
        deltas = self._price_from(first)
        self._priced = len(self._nodes)
        if self._obs.enabled:
            self._obs.count("merge.price_blocks")
            self._obs.gauge("merge.pending_nodes", 0)
            self._obs.gauge("merge.stored_pairs", self._stored)
            if deltas is not None:
                self._emit_tree_events(first, *deltas)

    def _price_from(self, first: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Price nodes ``first..`` against every earlier cross-shard node.

        Only the window :meth:`_window_from` enumerates is classified, by the
        two comparisons of :func:`window_rule`; its band is stored in
        row-major order — the order a full ``rows x nodes`` mask lists it —
        and every other earlier cross-shard node counts as pruned.  Returns
        what :meth:`_count` does for the block.
        """
        row, node, earlier = self._window_from(first)
        position = first + row
        earliest, latest = self._earliest, self._latest
        band = ~((earliest[node] > latest[position]) | (earliest[position] > latest[node]))
        row, node = row[band], node[band]
        row_major = np.lexsort((node, row))
        row, node = row[row_major], node[row_major]
        self._store_band(first + row, node)
        num_shards = earlier.shape[1]
        kernel = np.bincount(row * num_shards + self._shard[node], minlength=earlier.size)
        kernel = kernel.reshape(earlier.shape)
        return self._count(np.arange(first, len(self._nodes)), earlier - kernel, kernel, 1)

    def _window_from(self, first: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the band of nodes ``first..`` can lie among the earlier nodes.

        For a row and another shard, a running maximum of ``latest`` over
        that shard's nodes in observation order bounds where the band can
        start: every node before the first one whose running maximum reaches
        the row's ``earliest`` closes before the row opens, a pruned pair
        that is never looked at.  Returns ``(row, node, earlier)``: the pairs
        from there up to the row — row index (counted from ``first``) and
        node position — and ``earlier[i, s]``, how many nodes of shard ``s``
        precede row ``i`` (zero for its own shard).  A one-shard run has no
        window at all.
        """
        count = len(self._nodes)
        shard, latest = self._shard[:count], self._latest[:count]
        row_shard, row_opens = shard[first:], self._earliest[first:count]
        num_shards = len(self._streams)
        earlier = np.zeros((count - first, num_shards), dtype=np.int64)
        by_shard = np.argsort(shard, kind="stable")
        bounds = np.cumsum(np.bincount(shard, minlength=num_shards)).tolist()
        rows = [np.zeros(0, dtype=np.int64)]
        nodes = [np.zeros(0, dtype=np.int64)]
        for other, (lo, hi) in enumerate(zip([0] + bounds, bounds)):
            positions = by_shard[lo:hi]
            index = np.flatnonzero(row_shard != other)
            if not (positions.size and index.size):
                continue
            seen = np.searchsorted(positions, first + index)
            reach = np.maximum.accumulate(latest[positions])
            start = np.minimum(np.searchsorted(reach, row_opens[index]), seen)
            earlier[index, other] = seen
            # row k's window is positions[start[k]:seen[k]], laid end to end
            lengths = seen - start
            offset = np.cumsum(lengths) - lengths
            rows.append(np.repeat(index, lengths))
            nodes.append(positions[np.arange(lengths.sum()) + np.repeat(start - offset, lengths)])
        return np.concatenate(rows), np.concatenate(nodes), earlier

    def _store_band(self, node: np.ndarray, other: np.ndarray) -> None:
        """Price the band pairs ``(node[k], other[k])`` and append them to the
        store in canonical orientation (the lower-shard node is the a-side)."""
        if not node.size:
            return
        flipped = self._shard[other] < self._shard[node]
        pair_a = np.where(flipped, other, node)
        pair_b = np.where(flipped, node, other)
        fresh = slice(self._stored, self._stored + node.size)
        self._pair_a, self._pair_b, self._forward = _fitted(
            (self._pair_a, self._pair_b, self._forward), fresh.stop
        )
        self._pair_a[fresh], self._pair_b[fresh] = pair_a, pair_b
        self._forward[fresh] = self._price_pairs(pair_a, pair_b)
        self._stored = fresh.stop

    def _by_shard(self, mask: np.ndarray) -> np.ndarray:
        """Pair counts of a ``(rows, nodes)`` mask per row and node shard."""
        index, other = np.nonzero(mask)
        num_shards = len(self._streams)
        counts = np.bincount(
            index * num_shards + self._shard[other], minlength=mask.shape[0] * num_shards
        )
        return counts.reshape(mask.shape[0], num_shards)

    def _count(
        self, rows: np.ndarray, pruned: np.ndarray, kernel: np.ndarray, sign: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Add (``sign=-1``: retract) pair counts to the totals and the tree.

        ``pruned`` and ``kernel`` count the pairs of each row per partner
        shard, shape ``(len(rows), shards)``.  Returns them per tree node
        instead, each of shape ``(len(rows), tree nodes)``; ``None`` without
        a topology.
        """
        pruned_total = int(pruned.sum())
        self._cross_pairs_pruned += sign * pruned_total
        self._cross_pairs_evaluated += sign * int(kernel.sum())
        if sign > 0:
            self._stats.pruned_pairs += pruned_total
        if self._topology is None:
            return None
        index, partner = np.nonzero(pruned + kernel)
        row_shard = self._shard[rows[index]]
        pruned_by_row, kernel_by_row = (
            self._topology.attribute(
                row_shard, partner, row=index, num_rows=rows.size, weights=counts[index, partner]
            )
            for counts in (pruned, kernel)
        )
        self._node_pruned_pairs += sign * pruned_by_row.sum(axis=0)
        self._node_kernel_pairs += sign * kernel_by_row.sum(axis=0)
        return pruned_by_row, kernel_by_row

    def _emit_tree_events(self, first: int, pruned: np.ndarray, kernel: np.ndarray) -> None:
        """``merge_tree`` events of the block of nodes ``first..`` just priced.

        One per (node, ancestor that gained pairs), leaf upwards, carrying
        that node's own counts and stamped with its own observation time.
        """
        for row in np.flatnonzero((pruned + kernel).any(axis=1)).tolist():
            shard, index = self._nodes[first + row]
            emitted_at = self._streams[shard][index].emitted_at
            observed_at = emitted_at if emitted_at is not None else 0.0
            for ancestor_id in self._topology.path(shard)[1:]:
                node_pruned = int(pruned[row, ancestor_id])
                node_kernel = int(kernel[row, ancestor_id])
                if not (node_pruned or node_kernel):
                    continue
                ancestor = self._topology.nodes[ancestor_id]
                self._obs.event(
                    "merge_tree",
                    ancestor.label,
                    observed_at,
                    client_id=f"level-{ancestor.level}",
                    shard=shard,
                    node=ancestor_id,
                    level=ancestor.level,
                    pruned_pairs=node_pruned,
                    kernel_pairs=node_kernel,
                )
                self._obs.count(f"merge.tree.level{ancestor.level}.pruned_pairs", node_pruned)
                self._obs.count(f"merge.tree.level{ancestor.level}.kernel_pairs", node_kernel)

    # ----------------------------------------------------------------- kernel
    def _price_pairs(self, pair_a: np.ndarray, pair_b: np.ndarray) -> np.ndarray:
        """Batch-precedence means ``P(a before b)`` of the given node pairs.

        The one kernel: the mean of the pairwise preceding probability over
        the message cross pairs of each ``(pair_a[k], pair_b[k])``, reduced
        as sequential column sums per row message and then a sequential sum
        over the row totals.  That addition sequence is the same in both
        passes below and for every grouping of pairs into calls, so a pair's
        mean is bit-identical whoever prices it.
        """
        if self._grid_clients:
            return self._price_pairs_tables(pair_a, pair_b)
        return self._price_pairs_gaussian(pair_a, pair_b)

    def _price_pairs_gaussian(self, pair_a: np.ndarray, pair_b: np.ndarray) -> np.ndarray:
        """Closed-form pair pricing without rectangle slack, in bounded slices.

        Walks the exact (row message, col message) index pairs of every
        requested node pair in slices of whole rows — a row is one a-side
        message against its partner's b-side messages — of at most
        ``_SLICE_ELEMENTS`` elements, so a block's temporaries are a slice's,
        not the block's.  Each slice is one 1-D closed-form pass whose row
        sums come from one ``np.add.reduceat`` into a buffer of one float per
        row of the call; one second-stage ``reduceat`` over that buffer then
        sums each pair's complete row-sum vector, however many slices its
        rows spanned.  Slicing never regroups a pair's additions.
        """
        ts, mu, var = self._timestamp, self._mean, self._variance
        sizes_a = self._size[pair_a]
        sizes_b = self._size[pair_b]
        row_sums = np.empty(int(sizes_a.sum()))
        filled = 0
        for k, r, k_end, r_end in _row_cuts(sizes_a, sizes_b, _SLICE_ELEMENTS):
            stop = k_end + 1 if r_end else k_end
            rows = sizes_a[k:stop].copy()
            if r_end:
                rows[-1] = r_end
            rows[0] -= r
            row_index, col_index, row_starts = _slice_indices(
                self._offset, pair_a[k:stop], pair_b[k:stop], r, rows, sizes_b[k:stop]
            )
            probabilities = batched_gaussian_pairs(
                ts[row_index],
                mu[row_index],
                var[row_index],
                ts[col_index],
                mu[col_index],
                var[col_index],
            )
            self._stats.vectorized_evaluations += probabilities.size
            row_sums[filled : filled + row_starts.size] = np.add.reduceat(probabilities, row_starts)
            filled += row_starts.size
        pair_sums = np.add.reduceat(row_sums, np.cumsum(sizes_a) - sizes_a)
        return pair_sums / (sizes_a * sizes_b)

    def _price_pairs_tables(self, pair_a: np.ndarray, pair_b: np.ndarray) -> np.ndarray:
        """Pair pricing through chunked rectangular engine calls.

        Pairs are grouped by a-side node, a-side groups are chunked in
        certainty-window order (so each rectangle's b-side union stays
        inside the time-local band) up to ``_CHUNK_ELEMENTS``, and each chunk
        is one :func:`cross_probability_matrix` call reduced by two
        ``np.add.reduceat`` segment reductions — each pair's mean is the
        identical float sequence no matter which chunk computes it.  One
        a-side group always stays one rectangle, of its rows × its b-side
        union, because its axis-0 sum runs over the group's rows in sequence.
        A group that shares no partner with the open chunk starts its own rectangle:
        joining would add nothing but unrequested pairs (one observed batch
        is two exact rectangles, its lower-shard partners × itself and
        itself × its higher-shard partners).
        """
        order = np.lexsort((pair_b, pair_a))
        sorted_b = pair_b[order]
        a_ids, group_starts, group_counts = np.unique(
            pair_a[order], return_index=True, return_counts=True
        )
        # the chunking walk runs on plain lists: a streamed row has one group
        # per lower-shard partner, each far too small to amortise numpy calls
        starts = group_starts.tolist()
        stops = (group_starts + group_counts).tolist()
        partner = sorted_b.tolist()
        partner_size = self._size[sorted_b].tolist()
        group_rows = self._size[a_ids].tolist()
        forwards = np.empty(pair_a.size)
        chunk: List[int] = []
        chunk_slots: List[int] = []
        chunk_rows = 0
        b_union: Set[int] = set()
        b_messages = 0

        def flush() -> None:
            nonlocal chunk, chunk_slots, chunk_rows, b_union, b_messages
            slots = np.asarray(chunk_slots)
            row_of_pair = np.repeat(np.arange(len(chunk)), group_counts[chunk])
            forwards[order[slots]] = self._price_rectangle(
                a_ids[chunk], row_of_pair, sorted_b[slots]
            )
            chunk, chunk_slots, chunk_rows, b_union, b_messages = [], [], 0, set(), 0

        for group in np.lexsort((a_ids, self._earliest[a_ids])).tolist():
            span = range(starts[group], stops[group])
            fresh = [slot for slot in span if partner[slot] not in b_union]
            projected = (chunk_rows + group_rows[group]) * (
                b_messages + sum(partner_size[slot] for slot in fresh)
            )
            if chunk and (projected > _CHUNK_ELEMENTS or len(fresh) == len(span)):
                flush()
                fresh = span
            chunk.append(group)
            chunk_slots.extend(span)
            chunk_rows += group_rows[group]
            b_union.update(partner[slot] for slot in fresh)
            b_messages += sum(partner_size[slot] for slot in fresh)
        flush()
        return forwards

    def _price_rectangle(
        self, chunk_a: np.ndarray, row_of_pair: np.ndarray, partners: np.ndarray
    ) -> np.ndarray:
        """One rectangle: a-side nodes ``chunk_a`` × the union of ``partners``.

        Returns the mean of every requested pair ``(chunk_a[row_of_pair[k]],
        partners[k])``.
        """
        b_set = np.unique(partners)
        sizes = self._size
        row_starts = np.concatenate(([0], np.cumsum(sizes[chunk_a])[:-1]))
        col_starts = np.concatenate(([0], np.cumsum(sizes[b_set])[:-1]))
        row_messages = [m for a in chunk_a.tolist() for m in self._node_messages[a]]
        col_messages = [m for b in b_set.tolist() for m in self._node_messages[b]]
        probabilities = cross_probability_matrix(
            row_messages, col_messages, self._model, stats=self._stats, tables=self._tables
        )
        column_sums = np.add.reduceat(probabilities, col_starts, axis=1)
        pair_sums = np.add.reduceat(column_sums, row_starts, axis=0)
        means = pair_sums / np.outer(sizes[chunk_a], sizes[b_set])
        return means[row_of_pair, np.searchsorted(b_set, partners)]

    # ---------------------------------------------------------------- refresh
    def refresh_client(self, client_id: str) -> int:
        """Reprice maintained pairs involving ``client_id``.

        Call after the client's distribution was re-registered on the model
        (the shared table cache and certainty windows detect the new version
        themselves).  Only pairs the refresh can actually change are
        repriced: a pair that was window-pruned before and remains
        window-pruned in the same direction keeps its exact 0/1 value, so
        the kernel (and even the recount) is skipped — with
        time-localised streams the bulk of a long run's history prunes
        against the refreshed batches, turning the refresh from O(history)
        kernel work into O(overlapping window).  Returns the number of
        repriced node pairs.
        """
        self._price_pending()
        self._windows.invalidate_client(client_id)
        self._client_params.pop(client_id, None)
        slots = np.asarray(self._client_slots.get(client_id, ()), dtype=np.int64)
        if not slots.size:
            return 0
        self._store_params(client_id, slots)
        rows = np.unique(self._message_node[slots])
        count = len(self._nodes)
        earliest, latest = self._earliest[:count], self._latest[:count]
        # a pair's evaluated/pruned classification is the rule over the stored
        # windows (every window change reprices the pairs it can move), so the
        # windows about to be replaced say how each pair is counted today
        was_before, was_after, _ = window_rule(earliest[rows], latest[rows], earliest, latest)
        for position in rows.tolist():
            shard, index = self._nodes[position]
            earliest[position], latest[position] = self._windows.batch_window(
                self._streams[shard][index]
            )
        before, after, band = window_rule(earliest[rows], latest[rows], earliest, latest)
        shard = self._shard[:count]
        refreshed = np.zeros(count, dtype=bool)
        refreshed[rows] = True
        # every cross-shard pair with a refreshed node, once: a pair of two
        # refreshed nodes belongs to the later-observed one
        candidates = (shard[None, :] != shard[rows, None]) & ~(
            refreshed[None, :] & (np.arange(count)[None, :] > rows[:, None])
        )
        # window-pruned before, still pruned the same way: the new windows
        # say the same exact saturated float and nothing can move
        unmoved = candidates & ((was_before & before) | (was_after & after))
        self._refresh_pairs_skipped += int(unmoved.sum())
        candidates &= ~unmoved
        # replace, don't double-count: retract each pair's previous
        # classification before repricing it
        was_pruned = candidates & (was_before | was_after)
        self._count(rows, self._by_shard(was_pruned), self._by_shard(candidates & ~was_pruned), -1)
        # ... and leave the store: a stored pair is band, so never ``unmoved``,
        # and every one with a refreshed end is a candidate stored anew below
        stored = self._stored
        keep = ~(refreshed[self._pair_a[:stored]] | refreshed[self._pair_b[:stored]])
        self._stored = int(keep.sum())
        for array in (self._pair_a, self._pair_b, self._forward):
            array[: self._stored] = array[:stored][keep]
        band &= candidates
        index, other = np.nonzero(band)
        self._store_band(rows[index], other)
        self._count(rows, self._by_shard((before | after) & candidates), self._by_shard(band), 1)
        return int(candidates.sum())

    # ---------------------------------------------------------------- results
    def result(self) -> MergeOutcome:
        """Linearise the maintained state into the cluster-wide order.

        Uses a fresh RNG seeded from the merger's seed, so repeated calls
        are deterministic and each equals :meth:`CrossShardMerger.merge`
        over the observed streams.
        """
        return self._linearise(time.perf_counter())

    def _linearise(self, start: float) -> MergeOutcome:
        """``result()`` with the caller's start time (an offline merge's
        wall clock includes its pricing)."""
        self._price_pending()
        if not self._nodes:
            return _empty_outcome(start)
        streams = [list(stream) for stream in self._streams]
        return _merge_edges(
            streams,
            _NodeLayout(streams),
            self._band(),
            self._threshold,
            self._cycle_policy,
            np.random.default_rng(self._seed),
            self._cross_pairs_evaluated,
            self._cross_pairs_pruned,
            start,
            stats=self._stats,
            obs=self._obs,
        )
