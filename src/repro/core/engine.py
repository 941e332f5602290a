"""Incremental, vectorized precedence engine (the online hot path).

The online sequencer must know its first tentative batch after every arrival.
The original implementation rebuilt the full
:class:`~repro.core.relation.LikelyHappenedBefore` relation, the kept-edge
tournament and the strict-boundary minima from scratch each time — ``O(n^2)``
scalar probability evaluations per arrival over the pending set.  This module
keeps all of that state *incremental* and evaluates it in batched numpy:

* the pairwise preceding-probability matrix gains one row/column per arrival.
  Gaussian client pairs are a single vectorized evaluation of the §3.2
  closed form; **empirical/learned/mixture pairs** are a vectorized
  ``np.interp`` against the pair's cached difference-CDF table
  (:class:`PairTableCache` — one FFT convolution per client pair, shared by
  every message of that pair), so non-Gaussian clients no longer fall back
  to per-pair scalar FFT evaluations;
* the kept-edge tournament is maintained as a boolean *direction matrix*
  plus an out-degree (score) vector — pure numpy per arrival.
  :func:`tournament_order` linearises it — the one lineariser, and the one
  relation: offline :class:`~repro.core.sequencer.TommySequencer` appends
  its whole message set to an engine and orders and batches on that
  engine's matrix.  When the tournament is intransitive (cyclic),
  :func:`~repro.core.cycles.break_cycles` clears victims in a copy of that
  matrix, drawing from the shared generator, and a Kahn pass with the
  message-key tie-break orders what is left;
* the strict batching rule's boundary strengths are vectorized
  cumulative-minimum passes; the emission check uses
  :meth:`IncrementalPrecedenceEngine.first_tentative_group`, an ``O(k·n)``
  prefix scan (``k`` = first-batch size) that avoids materialising the full
  permuted matrix — and that runs only when an arrival could have changed
  its answer: while every member of the batch confidently precedes each
  newcomer the engine keeps the batch (the rule and its proof are on the
  class), so a futile check costs ``O(k)``, not ``O(pending)``;
* the safe-emission quantile ``Q_eps(1 - p_safe)`` is cached per
  ``(client, p_safe)`` so :meth:`safe_emission_time` is a subtraction, not a
  quantile search per message.

The engine is *behavior preserving*: for the same arrival stream it yields
byte-identical tentative groups, safe-emission times and therefore emitted
batches as the recompute-everything path it replaced (kept as the test
oracle ``ReferenceOnlineSequencer`` in ``tests/reference/online_reference.py``
and property-tested against it).  Gaussian probabilities reuse the exact
floating-point expression of
:func:`~repro.core.probability.gaussian_preceding_probability`; table-backed
probabilities evaluate ``np.interp`` against the *same* grid/CDF arrays the
scalar :class:`~repro.distributions.difference.DifferenceDistribution` path
reads, so both agree bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import special

from repro.core.cycles import RemovedEdge, break_cycles
from repro.core.probability import PrecedenceModel
from repro.core.relation import MessageKey
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage

_SQRT2 = math.sqrt(2.0)

#: Element budget per column block of the closed-form Gaussian broadcast
#: (~2 MB of float64 per temporary keeps the whole evaluation in cache).
_GAUSSIAN_BLOCK_ELEMENTS = 1 << 18


@dataclass
class EngineStats:
    """Counters describing how the engine computed its probabilities."""

    vectorized_evaluations: int = 0
    table_evaluations: int = 0
    scalar_evaluations: int = 0
    pair_tables_built: int = 0
    rows_appended: int = 0
    rows_removed: int = 0
    group_computations: int = 0
    candidate_reuses: int = 0
    cycle_resolutions: int = 0
    rebuilds: int = 0
    quantile_cache_hits: int = 0
    quantile_cache_misses: int = 0
    pruned_pairs: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary view (for result metadata and benchmarks)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Element-wise sum with ``other`` (for cluster-wide aggregation)."""
        return EngineStats(
            **{key: getattr(self, key) + getattr(other, key) for key in self.as_dict()}
        )


def batched_gaussian_probabilities(
    timestamps_i: np.ndarray,
    means_i: np.ndarray,
    variances_i: np.ndarray,
    timestamp_j: float,
    mean_j: float,
    variance_j: float,
) -> np.ndarray:
    """Vectorized §3.2 closed form: ``P(i precedes j)`` for arrays of ``i``.

    Bit-for-bit identical to calling
    :func:`~repro.core.probability.gaussian_preceding_probability` per
    element — the same operation order and the same ``erf`` kernel.
    """
    variance = variances_i + variance_j
    gap = (timestamp_j - timestamps_i) - (mean_j - means_i)
    if variance_j > 0:
        # a registered variance is finite-or-infinite and non-negative
        # (GaussianDistribution rejects NaN), so every summed variance is
        # positive and the selection below would return ``phi`` throughout
        return 0.5 * (1.0 + special.erf(gap / np.sqrt(variance) / _SQRT2))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = gap / np.sqrt(variance)
        phi = 0.5 * (1.0 + special.erf(z / _SQRT2))
    degenerate = np.where(gap > 0, 1.0, np.where(gap < 0, 0.0, 0.5))
    return np.where(variance > 0, phi, degenerate)


def batched_gaussian_pairs(
    timestamps_i: np.ndarray,
    means_i: np.ndarray,
    variances_i: np.ndarray,
    timestamps_j: np.ndarray,
    means_j: np.ndarray,
    variances_j: np.ndarray,
) -> np.ndarray:
    """Element-aligned §3.2 closed form: ``P(i_k precedes j_k)`` per index.

    The 1-D sibling of :func:`batched_gaussian_matrix`: both sides are
    message-parameter arrays of equal length and entry ``k`` pairs
    ``i[k]`` with ``j[k]``.  Element-wise identical to the broadcast form —
    the same operation order and the same ``erf`` kernel per entry.
    """
    variance = variances_i + variances_j
    gap = (timestamps_j - timestamps_i) - (means_j - means_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = gap / np.sqrt(variance)
        phi = 0.5 * (1.0 + special.erf(z / _SQRT2))
    degenerate = np.where(gap > 0, 1.0, np.where(gap < 0, 0.0, 0.5))
    return np.where(variance > 0, phi, degenerate)


def batched_gaussian_matrix(
    timestamps_i: np.ndarray,
    means_i: np.ndarray,
    variances_i: np.ndarray,
    timestamps_j: np.ndarray,
    means_j: np.ndarray,
    variances_j: np.ndarray,
) -> np.ndarray:
    """2-D broadcast of the §3.2 closed form: ``M[i][j] = P(i precedes j)``.

    Element-wise identical to :func:`batched_gaussian_probabilities` called
    once per column ``j`` — the same operation order per element, broadcast
    over the outer product instead of looped.
    """
    variance = variances_i[:, None] + variances_j[None, :]
    gap = (timestamps_j[None, :] - timestamps_i[:, None]) - (
        means_j[None, :] - means_i[:, None]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        z = gap / np.sqrt(variance)
        phi = 0.5 * (1.0 + special.erf(z / _SQRT2))
    degenerate = np.where(gap > 0, 1.0, np.where(gap < 0, 0.0, 0.5))
    return np.where(variance > 0, phi, degenerate)


def _gaussian_params(model: PrecedenceModel, client_id: str) -> Optional[Tuple[float, float]]:
    """``(mean, variance)`` when the closed form applies to ``client_id``."""
    if model.method not in {"auto", "gaussian"}:
        return None
    distribution = model.distribution_for(client_id)
    if not isinstance(distribution, GaussianDistribution):
        return None
    return (distribution.mean, distribution.variance)


def _cached_gaussian_params(
    model: PrecedenceModel,
    cache: Dict[str, Optional[Tuple[float, float]]],
    client_id: str,
) -> Optional[Tuple[float, float]]:
    """Memoized :func:`_gaussian_params` (shared by every vectorized path)."""
    if client_id not in cache:
        cache[client_id] = _gaussian_params(model, client_id)
    return cache[client_id]


class PairTableCache:
    """Per-client-pair difference-CDF tables for vectorized evaluation.

    ``table(i, j)`` returns the ``(grid, cdf)`` arrays of the pair's
    difference distribution (``None`` for closed-form Gaussian pairs, which
    the Gaussian kernel serves instead).  The table is the *exact* array pair
    the scalar model interpolates, so ``np.interp`` against it reproduces
    ``model.preceding_probability`` bit-for-bit.  The underlying FFT
    convolution runs once per ordered client pair (cached here *and* inside
    the model) regardless of how many messages the pair exchanges.
    """

    def __init__(self, model: PrecedenceModel, stats: Optional[EngineStats] = None) -> None:
        self._model = model
        self._stats = stats
        # key -> (version_i, version_j, table): the versions pin the client
        # registrations the table was derived from, so a distribution refresh
        # through *any* path (including model.register_client directly) is
        # detected on the next lookup instead of serving a stale table
        self._tables: Dict[
            Tuple[str, str], Tuple[int, int, Optional[Tuple[np.ndarray, np.ndarray]]]
        ] = {}

    @property
    def model(self) -> PrecedenceModel:
        """The model whose pair differences back the tables."""
        return self._model

    def table(self, client_i: str, client_j: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(grid, cdf)`` for the ordered pair, or ``None`` if closed form."""
        key = (client_i, client_j)
        version_i = self._model.client_version(client_i)
        version_j = self._model.client_version(client_j)
        cached = self._tables.get(key)
        if cached is not None and cached[0] == version_i and cached[1] == version_j:
            return cached[2]
        table = self._model.pair_cdf_table(client_i, client_j)
        self._tables[key] = (version_i, version_j, table)
        if table is not None and self._stats is not None:
            self._stats.pair_tables_built += 1
        return table

    def invalidate_client(self, client_id: str) -> None:
        """Drop every cached table involving ``client_id`` (distribution refresh)."""
        self._tables = {
            pair: table for pair, table in self._tables.items() if client_id not in pair
        }

    def clear(self) -> None:
        """Drop every cached table."""
        self._tables.clear()

    def __len__(self) -> int:
        return sum(1 for table in self._tables.values() if table is not None)


# np.interp's Python wrapper costs ~5us per call (asarray / iscomplexobj
# bookkeeping) — significant when the hot row loop interpolates one small
# group per client pair.  For real-valued fp the wrapper delegates verbatim
# to this compiled kernel, so calling it directly is bit-identical.  The
# kernel is a numpy internal with no stability guarantee, so it is
# feature-probed once at import (signature AND output vs np.interp) and any
# surprise falls back to the public wrapper.
def _wrapped_interp(x, xp, fp, left, right):
    return np.interp(x, xp, fp, left=left, right=right)


def _resolve_compiled_interp():
    try:  # numpy >= 2.0 layout
        from numpy._core.multiarray import interp as candidate
    except ImportError:  # pragma: no cover - numpy < 2.0 layout
        try:
            from numpy.core.multiarray import interp as candidate  # type: ignore
        except ImportError:
            return _wrapped_interp
    try:
        probe_x = np.array([-1.0, 0.25, 2.0])
        probe_xp = np.array([0.0, 0.5, 1.0])
        probe_fp = np.array([0.0, 0.25, 1.0])
        expected = np.interp(probe_x, probe_xp, probe_fp, left=0.0, right=1.0)
        if np.array_equal(candidate(probe_x, probe_xp, probe_fp, 0.0, 1.0), expected):
            return candidate
    except Exception:  # pragma: no cover - private signature drifted
        pass
    return _wrapped_interp  # pragma: no cover - private behaviour drifted


_compiled_interp = _resolve_compiled_interp()


def _interp_table(
    diffs: np.ndarray, table: Tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Vectorized pair-table probability: bit-equal to the scalar CDF path."""
    grid, cdf = table
    return np.clip(_compiled_interp(diffs, grid, cdf, 0.0, 1.0), 0.0, 1.0)


def cross_probability_matrix(
    messages_a: Sequence[TimestampedMessage],
    messages_b: Sequence[TimestampedMessage],
    model: PrecedenceModel,
    stats: Optional[EngineStats] = None,
    tables: Optional[PairTableCache] = None,
) -> np.ndarray:
    """Matrix ``M[i][j] = P(messages_a[i] precedes messages_b[j])``.

    Gaussian-eligible pairs are evaluated in one vectorized closed-form pass;
    grid-backed (empirical/learned/mixture) pairs are evaluated per client
    pair against the shared difference-CDF table; only pairs with no table
    (exotic difference types) fall back to the scalar model.  Pass ``tables``
    to share the pair-table cache across calls (the cross-shard merger does).
    """
    rows, cols = len(messages_a), len(messages_b)
    matrix = np.empty((rows, cols), dtype=float)
    if not rows or not cols:
        return matrix
    if tables is None:
        tables = PairTableCache(model, stats=stats)
    cache: Dict[str, Optional[Tuple[float, float]]] = {}

    def params(client_id: str) -> Optional[Tuple[float, float]]:
        return _cached_gaussian_params(model, cache, client_id)

    gauss_a = np.array([params(m.client_id) is not None for m in messages_a])
    gauss_b = np.array([params(m.client_id) is not None for m in messages_b])
    if gauss_a.any() and gauss_b.any():
        idx_a = np.flatnonzero(gauss_a)
        idx_b = np.flatnonzero(gauss_b)
        ts_a = np.array([messages_a[i].timestamp for i in idx_a])
        mu_a = np.array([params(messages_a[i].client_id)[0] for i in idx_a])
        var_a = np.array([params(messages_a[i].client_id)[1] for i in idx_a])
        ts_b = np.array([messages_b[j].timestamp for j in idx_b])
        mu_b = np.array([params(messages_b[j].client_id)[0] for j in idx_b])
        var_b = np.array([params(messages_b[j].client_id)[1] for j in idx_b])
        # column-blocked broadcast: one 2-D closed-form evaluation per block
        # of ~_GAUSSIAN_BLOCK_ELEMENTS entries, so the temporaries stay
        # cache-resident instead of streaming multi-hundred-MB arrays
        # through memory on wide flat merges
        step = max(1, _GAUSSIAN_BLOCK_ELEMENTS // max(idx_a.size, 1))
        full = idx_a.size == rows and idx_b.size == cols
        for lo in range(0, idx_b.size, step):
            hi = min(lo + step, idx_b.size)
            block = batched_gaussian_matrix(
                ts_a, mu_a, var_a, ts_b[lo:hi], mu_b[lo:hi], var_b[lo:hi]
            )
            if full:
                matrix[:, lo:hi] = block
            else:
                matrix[np.ix_(idx_a, idx_b[lo:hi])] = block
        if stats is not None:
            stats.vectorized_evaluations += idx_a.size * idx_b.size
    if not (gauss_a.all() and gauss_b.all()):
        timestamps_a = np.array([m.timestamp for m in messages_a])
        timestamps_b = np.array([m.timestamp for m in messages_b])
        rows_by_client: Dict[str, List[int]] = {}
        for i, message in enumerate(messages_a):
            rows_by_client.setdefault(message.client_id, []).append(i)
        cols_by_client: Dict[str, List[int]] = {}
        for j, message in enumerate(messages_b):
            cols_by_client.setdefault(message.client_id, []).append(j)
        for client_a, row_list in rows_by_client.items():
            for client_b, col_list in cols_by_client.items():
                if params(client_a) is not None and params(client_b) is not None:
                    continue  # served by the closed-form block above
                table = tables.table(client_a, client_b)
                if table is not None:
                    block = np.ix_(row_list, col_list)
                    diffs = timestamps_b[col_list][None, :] - timestamps_a[row_list][:, None]
                    matrix[block] = _interp_table(diffs, table)
                    if stats is not None:
                        stats.table_evaluations += diffs.size
                else:
                    for i in row_list:
                        for j in col_list:
                            matrix[i, j] = model.preceding_probability(
                                messages_a[i], messages_b[j]
                            )
                            if stats is not None:
                                stats.scalar_evaluations += 1
    return matrix


def strict_boundary_strengths_matrix(matrix: np.ndarray) -> np.ndarray:
    """Strict-rule boundary strengths from an order-permuted matrix.

    ``matrix[a][b]`` is ``P(order[a] precedes order[b])``; the returned
    ``strengths[k] = min_{a <= k < b} matrix[a][b]`` is the least confident
    pair straddling the boundary after position ``k``, computed by two
    cumulative-minimum passes (down the columns, then right-to-left along the
    rows) instead of a per-boundary scan.  The per-pair fold it replaced is
    the test oracle in ``tests/reference/batching_reference.py``.
    """
    n = matrix.shape[0]
    if n < 2:
        return np.empty(0, dtype=float)
    column_min = np.minimum.accumulate(matrix, axis=0)
    suffix_min = np.minimum.accumulate(column_min[:, ::-1], axis=1)[:, ::-1]
    positions = np.arange(n - 1)
    return suffix_min[positions, positions + 1]


def kept_edges(forward: np.ndarray, tie_epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(wins, ties)`` of the tournament's pairs ``forward[k] = P(i_k precedes j_k)``.

    ``wins[k]`` keeps the edge ``i_k -> j_k``: the direction with the larger
    probability.  ``ties[k]`` marks a pair within ``tie_epsilon`` of 0.5,
    which the caller orients by message key instead (``i_k -> j_k`` iff
    ``key(i_k) <= key(j_k)``), so the result stays a tournament.
    ``forward > 0.5`` is the comparison ``forward > 1.0 - forward`` for every
    float: rounding is monotone, so ``forward > 0.5`` gives
    ``fl(1 - forward) <= 0.5 < forward`` and ``forward < 0.5`` gives
    ``fl(1 - forward) >= 0.5 > forward``; at 0.5 and for NaN both are false.
    Likewise ``|forward - 0.5| <= 0`` is ``forward == 0.5``.
    """
    wins = forward > 0.5
    if tie_epsilon:
        return wins, np.abs(forward - 0.5) <= tie_epsilon
    return wins, forward == 0.5


def _topological_order(edge: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Kahn's algorithm over an acyclic direction matrix.

    Among the nodes with no unplaced predecessor the next is the one
    minimising ``(-out_degree, rank)``: the highest remaining score first,
    ties by ``rank`` (unique per node).
    """
    n = edge.shape[0]
    priority = np.empty(n, dtype=np.intp)
    priority[np.lexsort((rank, -edge.sum(axis=1)))] = np.arange(n)
    indegree = edge.sum(axis=0)
    order = np.empty(n, dtype=np.intp)
    for slot in range(n):
        ready = np.flatnonzero(indegree == 0)
        node = ready[np.argmin(priority[ready])]
        order[slot] = node
        indegree[node] = -1  # placed
        indegree[edge[node]] -= 1
    return order


def tournament_order(
    direction: np.ndarray,
    scores: np.ndarray,
    probability: np.ndarray,
    messages: Sequence[TimestampedMessage],
    cycle_policy: str,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, Optional[List[RemovedEdge]]]:
    """The linear order of a tournament, and the edges cycle breaking removed.

    ``direction[u, v]`` is the kept edge ``u -> v``, ``scores`` its row sums
    and ``probability[u, v]`` the edge's weight; ``messages`` supply the keys
    that rank ties.  A tournament is transitive exactly when its score
    sequence is ``{0, .., n-1}``; its unique topological order is then the
    score-descending order, an ``O(n)`` bucket placement, and the removed
    edges are ``None``.  Otherwise the tournament is cyclic:
    :func:`~repro.core.cycles.break_cycles` clears victims in a copy of
    ``direction`` (drawing from ``rng``) and a Kahn pass orders what is left,
    the highest remaining score first, ties by message key.
    """
    n = scores.size
    counts = np.bincount(scores, minlength=n)
    if counts.size == n and bool((counts == 1).all()):
        permutation = np.empty(n, dtype=np.intp)
        permutation[n - 1 - scores] = np.arange(n, dtype=np.intp)
        return permutation, None
    key_rank = np.empty(n, dtype=np.intp)
    key_rank[sorted(range(n), key=lambda position: messages[position].key)] = np.arange(n)
    edge = direction.copy()
    removed = break_cycles(edge, probability, cycle_policy, rng, rank=key_rank)
    return _topological_order(edge, key_rank), removed


class IncrementalPrecedenceEngine:
    """Incrementally maintained precedence state over a pending message set.

    One engine instance backs one online sequencer: :meth:`add_message` on
    arrival, :meth:`remove_messages` on emission,
    :meth:`first_tentative_group` whenever an emission check needs the next
    candidate batch (:meth:`tentative_groups` for the full batching, e.g. at
    flush), and :meth:`safe_emission_time` for the cached-quantile ``T^F``
    computation.

    **The emission candidate stands until an arrival can change it.**
    :meth:`first_tentative_group` keeps the batch ``G`` it computed when the
    tournament was transitive and ``G`` ended at a real boundary (something
    is pending behind it).  An arrival ``m`` with row ``P[a, m]`` keeps it
    iff (i) every member of ``G`` is oriented before ``m`` (orientation, not
    probability: inside ``tie_epsilon`` of 0.5 the message key decides),
    (ii) ``min_{a in G} P[a, m] > threshold`` and (iii) the tournament is
    still transitive — its old scores are a permutation of ``0..n-1``, so
    with ``s`` nodes beating ``m`` that is ``scores @ wins == s(2n-s-1)/2``:
    the beaters are exactly the top ``s``.  Why that is exact: under (iii)
    the new order is the old one with ``m`` inserted after its beaters, under
    (i) that is after ``G``, so ``G`` is still the prefix; a boundary
    strength is a minimum over straddling pairs, so ``m`` can only lower it —
    positions inside ``G`` stay at or below the threshold and ``G``'s own
    boundary becomes ``min(old, min_{a in G} P[a, m])``, which (ii) keeps
    above it.  Everything else drops the candidate: a removal (positions
    shift) and any distribution refresh, tracked rows or not (a rebuild
    replays the rows, and the safe-emission time the sequencer keeps per
    :attr:`candidate_epoch` reads the quantiles a refresh replaces; refreshes
    are rare, so the untracked case gets no branch of its own).  A cyclic
    tournament is never cached: every check on one runs
    :func:`~repro.core.cycles.break_cycles` and so draws from the shared
    generator exactly as often as a recompute would.
    """

    def __init__(
        self,
        model: PrecedenceModel,
        threshold: float,
        tie_epsilon: float = 0.0,
        cycle_policy: str = "greedy",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.5 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0.5, 1), got {threshold!r}")
        self._model = model
        self._threshold = float(threshold)
        self._tie_epsilon = float(tie_epsilon)
        self._cycle_policy = cycle_policy
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = EngineStats()
        self._tables = PairTableCache(model, stats=self.stats)

        self._messages: List[TimestampedMessage] = []
        # key -> arrival ordinal; ``ordinal - _base`` is the row position, so
        # emitting the oldest k arrivals pops k keys and adds k to ``_base``
        # instead of renumbering every survivor
        self._index: Dict[MessageKey, int] = {}
        self._base = 0
        self._capacity = 16
        self._matrix = np.empty((self._capacity, self._capacity), dtype=float)
        self._direction = np.zeros((self._capacity, self._capacity), dtype=bool)
        self._scores = np.zeros(self._capacity, dtype=np.int64)
        self._timestamps = np.empty(self._capacity, dtype=float)
        self._means = np.empty(self._capacity, dtype=float)
        self._variances = np.empty(self._capacity, dtype=float)
        self._gaussian = np.empty(self._capacity, dtype=bool)
        # tracked rows whose client has no closed form (``~_gaussian[:n]``)
        self._grid_rows = 0
        self._candidate: Optional[np.ndarray] = None
        #: Increases every time :meth:`first_tentative_group` computes (rather
        #: than reuses) its result: equal epochs mean the same candidate under
        #: the same distributions.
        self.candidate_epoch = 0
        # client -> arrival ordinals of its tracked messages, ascending
        self._positions_by_client: Dict[str, List[int]] = {}
        self._client_params: Dict[str, Optional[Tuple[float, float]]] = {}
        self._quantiles: Dict[Tuple[str, float], float] = {}

    # ------------------------------------------------------------- properties
    @property
    def model(self) -> PrecedenceModel:
        """The scalar model backing quantiles and table-less pairs."""
        return self._model

    @property
    def pair_tables(self) -> PairTableCache:
        """The per-client-pair difference-CDF table cache."""
        return self._tables

    @property
    def size(self) -> int:
        """Number of messages currently tracked."""
        return len(self._messages)

    @property
    def message_keys(self) -> List[MessageKey]:
        """Keys of the tracked messages, in arrival order."""
        return [message.key for message in self._messages]

    def probability(self, key_a: MessageKey, key_b: MessageKey) -> float:
        """``P(key_a precedes key_b)`` from the maintained matrix."""
        index, base = self._index, self._base
        return float(self._matrix[index[key_a] - base, index[key_b] - base])

    def probability_matrix(self) -> np.ndarray:
        """Copy of the live pairwise matrix (arrival order, diagonal 0.5)."""
        n = self.size
        return self._matrix[:n, :n].copy()

    def tournament(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(direction, scores, matrix)`` of the tracked messages, in arrival order.

        Views of the live kept-edge direction matrix, its row sums and the
        pairwise matrix, as :func:`tournament_order` takes them; the next
        update overwrites them.
        """
        n = self.size
        return self._direction[:n, :n], self._scores[:n], self._matrix[:n, :n]

    # ---------------------------------------------------------------- updates
    def _params_for(self, client_id: str) -> Optional[Tuple[float, float]]:
        return _cached_gaussian_params(self._model, self._client_params, client_id)

    def _grow(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        n = self.size
        for name in ("_matrix", "_direction"):
            old = getattr(self, name)
            fresh = (
                np.empty((capacity, capacity), dtype=old.dtype)
                if name == "_matrix"
                else np.zeros((capacity, capacity), dtype=old.dtype)
            )
            fresh[:n, :n] = old[:n, :n]
            setattr(self, name, fresh)
        for name in ("_scores", "_timestamps", "_means", "_variances", "_gaussian"):
            old = getattr(self, name)
            fresh = np.zeros(capacity, dtype=old.dtype)
            fresh[:n] = old[:n]
            setattr(self, name, fresh)
        self._capacity = capacity

    def add_message(self, message: TimestampedMessage) -> None:
        """Append one arrival: one vectorized row/column plus its edge directions.

        With the row and its orientation in hand, the emission candidate is
        kept or dropped by the survival rule in the class docstring.
        """
        key = message.key
        if key in self._index:
            raise ValueError(f"message {key!r} already tracked by the engine")
        params = self._params_for(message.client_id)
        if params is None:
            # raises KeyError for unregistered clients, mirroring the model
            self._model.distribution_for(message.client_id)
        n = self.size
        self._grow(n + 1)
        row = self._compute_row(message, params, n)
        if n:
            wins = self._orient(row, n, key)
            beaters = np.count_nonzero(wins)
            candidate = self._candidate
            if candidate is not None and not (
                np.count_nonzero(wins[candidate]) == candidate.size
                and row[candidate].min() > self._threshold
                and int(self._scores[:n] @ wins) * 2 == beaters * (2 * n - beaters - 1)
            ):
                self._candidate = None
            self._scores[:n] += wins
            self._scores[n] = n - beaters
        else:
            self._scores[n] = 0
        self._matrix[n, n] = 0.5
        self._direction[n, n] = False
        self._timestamps[n] = message.timestamp
        if params is not None:
            self._means[n], self._variances[n] = params
            self._gaussian[n] = True
        else:
            self._means[n] = self._variances[n] = 0.0
            self._gaussian[n] = False
            self._grid_rows += 1
        self._messages.append(message)
        ordinal = self._base + n
        self._index[key] = ordinal
        self._positions_by_client.setdefault(message.client_id, []).append(ordinal)
        self.stats.rows_appended += 1

    def _orient(self, row: np.ndarray, n: int, key: MessageKey) -> np.ndarray:
        """Write column/row ``n`` from ``row[i] = P(i precedes n)``; return the wins.

        ``wins[i]`` is the kept edge ``i -> n`` under :func:`kept_edges`.
        """
        matrix, direction = self._matrix, self._direction
        matrix[:n, n] = row
        np.subtract(1.0, row, out=matrix[n, :n])
        wins, ties = kept_edges(row, self._tie_epsilon)
        if np.count_nonzero(ties):
            messages = self._messages
            for position in np.flatnonzero(ties):
                wins[position] = messages[position].key <= key
        direction[:n, n] = wins
        np.logical_not(wins, out=direction[n, :n])
        return wins

    def _compute_row(
        self,
        message: TimestampedMessage,
        params: Optional[Tuple[float, float]],
        n: int,
    ) -> np.ndarray:
        """``row[i] = P(existing_i precedes message)`` over current messages."""
        if params is not None and not self._grid_rows:
            # every pair is closed-form: the kernel reads the contiguous
            # views, no mask gathers and no scatter into a staged row
            mean_j, variance_j = params
            self.stats.vectorized_evaluations += n
            return batched_gaussian_probabilities(
                self._timestamps[:n],
                self._means[:n],
                self._variances[:n],
                message.timestamp,
                mean_j,
                variance_j,
            )
        row = np.empty(n, dtype=float)
        if not n:
            return row
        gauss = self._gaussian[:n] if params is not None else np.zeros(n, dtype=bool)
        if gauss.any():
            mean_j, variance_j = params
            row[gauss] = batched_gaussian_probabilities(
                self._timestamps[:n][gauss],
                self._means[:n][gauss],
                self._variances[:n][gauss],
                message.timestamp,
                mean_j,
                variance_j,
            )
            self.stats.vectorized_evaluations += int(gauss.sum())
        if gauss.all():
            return row
        client_j = message.client_id
        timestamp_j = message.timestamp
        interpolated = False
        base = self._base
        for client_i, ordinals in self._positions_by_client.items():
            if params is not None and self._params_for(client_i) is not None:
                continue  # covered by the closed-form block above
            table = self._tables.table(client_i, client_j)
            if table is not None:
                pos = np.asarray(ordinals, dtype=np.intp) - base
                # raw interpolation per pair group; the scalar path's clip is
                # applied once over the whole row below (bit-equal: clipping
                # is idempotent and a no-op on the closed-form entries)
                row[pos] = _compiled_interp(
                    timestamp_j - self._timestamps[pos], table[0], table[1], 0.0, 1.0
                )
                interpolated = True
                self.stats.table_evaluations += pos.size
            else:
                for ordinal in ordinals:
                    row[ordinal - base] = self._model.preceding_probability(
                        self._messages[ordinal - base], message
                    )
                    self.stats.scalar_evaluations += 1
        if interpolated:
            np.clip(row, 0.0, 1.0, out=row)
        return row

    def remove_messages(self, keys: Set[MessageKey]) -> None:
        """Drop emitted messages: compact the matrix and direction state.

        Only the *front* — rows up to the newest emitted one — is renumbered:
        ``_base`` moves past the ``k`` emitted rows, which shifts every row
        behind the front down by ``k`` without touching it, and the front's
        survivors take fresh ordinals in front of those.  An emission of the
        oldest ``k`` arrivals (the common case) therefore costs ``O(k)``
        Python, and any emission ``O(front)``, never ``O(pending)``.
        """
        index, base = self._index, self._base
        dropped = sorted({index[key] - base for key in keys if key in index})
        if not dropped:
            return
        self._candidate = None
        n = self.size
        k = len(dropped)
        m = n - k
        front = self._messages[: dropped[-1] + 1]
        gone = set(dropped)
        self._base = ordinal = base + k
        kept: List[int] = []
        counts: Dict[str, int] = {}
        renumbered: Dict[str, List[int]] = {}
        for position, message in enumerate(front):
            client_id = message.client_id
            counts[client_id] = counts.get(client_id, 0) + 1
            if position in gone:
                del index[message.key]
            else:
                index[message.key] = ordinal
                renumbered.setdefault(client_id, []).append(ordinal)
                kept.append(position)
                ordinal += 1
        # a client's ordinals ascend, so its front rows are a prefix of its
        # list, and the renumbered ones still precede the rest
        by_client = self._positions_by_client
        for client_id, count in counts.items():
            ordinals = by_client[client_id]
            ordinals[:count] = renumbered.get(client_id, ())
            if not ordinals:
                del by_client[client_id]
        self._messages[: len(front)] = [front[position] for position in kept]
        if kept:
            keep = np.concatenate((kept, np.arange(len(front), n)))
            block = np.ix_(keep, keep)
        else:
            # the oldest k arrivals: the survivors are one contiguous block,
            # slid down with slices
            keep = slice(k, n)
            block = (keep, keep)
        if m:
            self._matrix[:m, :m] = self._matrix[block]
            self._direction[:m, :m] = self._direction[block]
            self._scores[:m] = self._direction[:m, :m].sum(axis=1)
            for array in (self._timestamps, self._means, self._variances, self._gaussian):
                array[:m] = array[:n][keep]
        if self._grid_rows:
            self._grid_rows = m - int(np.count_nonzero(self._gaussian[:m]))
        self.stats.rows_removed += k

    def invalidate_client(self, client_id: str) -> None:
        """React to a (re)registered client distribution (single client)."""
        self.invalidate_clients([client_id])

    def invalidate_clients(self, client_ids: Iterable[str]) -> None:
        """React to refreshed client distributions.

        Parameter, pair-table and quantile caches for the clients and the
        emission candidate are dropped; when any of them has tracked
        messages, the matrix, direction state and scores are rebuilt once so
        every affected pair reflects the new distributions (the reference
        path recomputes everything per arrival and picks the change up
        implicitly).
        """
        self._candidate = None  # unconditionally: see the class docstring
        affected = False
        for client_id in set(client_ids):
            self._client_params.pop(client_id, None)
            self._tables.invalidate_client(client_id)
            self._quantiles = {
                cache_key: value
                for cache_key, value in self._quantiles.items()
                if cache_key[0] != client_id
            }
            affected = affected or bool(self._positions_by_client.get(client_id))
        if affected:
            self._rebuild()

    def _rebuild(self) -> None:
        """Recompute all state by replaying the tracked messages in order."""
        messages = self._messages
        self._messages = []
        self._index = {}
        self._base = 0
        self._positions_by_client = {}
        self._grid_rows = 0
        for message in messages:
            self.add_message(message)
        self.stats.rebuilds += 1

    # ------------------------------------------------------------ hot queries
    def safe_emission_time(self, message: TimestampedMessage, p_safe: float) -> float:
        """Cached-quantile ``T^F = T - Q_eps(1 - p_safe)`` (paper §3.5)."""
        if not 0.5 < p_safe < 1.0:
            raise ValueError(f"p_safe must be in (0.5, 1), got {p_safe!r}")
        cache_key = (message.client_id, p_safe)
        quantile = self._quantiles.get(cache_key)
        if quantile is None:
            quantile = self._model.distribution_for(message.client_id).quantile(1.0 - p_safe)
            self._quantiles[cache_key] = quantile
            self.stats.quantile_cache_misses += 1
        else:
            self.stats.quantile_cache_hits += 1
        return message.timestamp - quantile

    def _order_permutation(self) -> Tuple[np.ndarray, bool]:
        """Message positions in :func:`tournament_order`'s linear order, and
        whether the tournament was transitive (the cyclic case draws from the
        shared generator and counts a cycle resolution)."""
        direction, scores, matrix = self.tournament()
        permutation, removed = tournament_order(
            direction,
            scores,
            matrix,
            self._messages,
            self._cycle_policy,
            self._rng,
        )
        if removed is None:
            return permutation, True
        self.stats.cycle_resolutions += 1
        return permutation, False

    def first_tentative_group(self) -> Optional[List[TimestampedMessage]]:
        """The first strict-rule batch (the emission candidate), or ``None``.

        Equal to ``tentative_groups()[0]`` — same order, same boundary
        minima, same threshold comparison — but computed by an ``O(k·n)``
        prefix scan over the first ``k`` order positions instead of the full
        ``O(n^2)`` permuted-matrix pass, since the emission check only ever
        consumes the first batch.  A candidate no arrival since could have
        changed (class docstring) is returned as it stands, in a fresh list:
        ``stats.group_computations`` counts the computations,
        ``stats.candidate_reuses`` the rest.
        """
        n = self.size
        if n == 0:
            return None
        if self._candidate is not None:
            self.stats.candidate_reuses += 1
            return [self._messages[position] for position in self._candidate]
        self.stats.group_computations += 1
        self.candidate_epoch += 1
        if n == 1:
            return [self._messages[0]]
        permutation, transitive = self._order_permutation()
        matrix = self._matrix
        threshold = self._threshold
        boundary = n - 1
        combined: Optional[np.ndarray] = None
        for k in range(n - 1):
            row = matrix[permutation[k], :n][permutation]
            # suffix minima of row k: entry c is min_{b >= c} P[order_k, order_b]
            row_suffix = np.minimum.accumulate(row[::-1])[::-1]
            if combined is None:
                combined = row_suffix
            else:
                np.minimum(combined, row_suffix, out=combined)
            # combined[k+1] = min_{a <= k < b} P[order_a, order_b]: the exact
            # strict boundary strength the full pass computes at position k
            if combined[k + 1] > threshold:
                boundary = k
                break
        group = permutation[: boundary + 1]
        if transitive and boundary < n - 1:
            self._candidate = group
        return [self._messages[position] for position in group]

    def tentative_groups(self) -> List[List[TimestampedMessage]]:
        """Strict-rule batching of the tracked set (online tentative groups)."""
        n = self.size
        if n == 0:
            return []
        self.stats.group_computations += 1
        if n == 1:
            return [[self._messages[0]]]
        permutation, _ = self._order_permutation()
        permuted = self._matrix[:n, :n][np.ix_(permutation, permutation)]
        strengths = strict_boundary_strengths_matrix(permuted)
        groups: List[List[TimestampedMessage]] = [[self._messages[permutation[0]]]]
        for boundary, position in enumerate(permutation[1:]):
            message = self._messages[position]
            if strengths[boundary] > self._threshold:
                groups.append([message])
            else:
                groups[-1].append(message)
        return groups
