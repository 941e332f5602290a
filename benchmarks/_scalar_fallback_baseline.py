"""FROZEN BASELINE — the scalar-fallback precedence engine, as it shipped.

This is a verbatim copy of ``repro/core/engine.py`` from the PR that
introduced the incremental engine (commit ``0e86236``), kept *only* as the
baseline for ``benchmarks/test_bench_empirical.py``.  On empirical/learned
client distributions this implementation silently drops to ``O(n)`` scalar
FFT-grid evaluations per arrival (one ``model.preceding_probability`` call
per pending message) and maintains its tournament as an incremental
:mod:`networkx` graph — exactly the hot-path behaviour the empirical
pair-table kernel replaced.  Do not modify except to keep it importable;
the live engine lives in :mod:`repro.core.engine`.

Original module docstring follows.

---

The online sequencer must re-derive its tentative batching on every arrival.
The original implementation rebuilt the full
:class:`~repro.core.relation.LikelyHappenedBefore` relation, the kept-edge
tournament and the strict-boundary minima from scratch each time — ``O(n^2)``
scalar probability evaluations per arrival over the pending set.  This module
keeps all of that state *incremental*:

* the pairwise preceding-probability matrix gains one row/column per arrival,
  computed as a single vectorized numpy evaluation of the §3.2 Gaussian
  closed form (scalar fallback through the
  :class:`~repro.core.probability.PrecedenceModel` for non-Gaussian clients,
  so FFT/direct methods keep working), and loses the emitted rows/columns on
  emission;
* the kept-edge tournament graph is maintained alongside the matrix — node
  and edge insertion order matches what
  :meth:`~repro.core.tournament.TournamentGraph.from_relation` would produce
  for the same pending set, so cycle detection and cycle-breaking walk the
  graph in exactly the same order as a from-scratch rebuild;
* the strict batching rule's boundary strengths are a pair of vectorized
  cumulative-minimum passes over the (order-permuted) matrix instead of a
  per-boundary scan;
* the safe-emission quantile ``Q_eps(1 - p_safe)`` is cached per
  ``(client, p_safe)`` so :meth:`safe_emission_time` is a subtraction, not a
  quantile search per message.

The engine is *behavior preserving*: for the same arrival stream it yields
byte-identical tentative groups, safe-emission times and therefore emitted
batches as the reference recompute-everything path (kept available via
``OnlineTommySequencer(..., use_engine=False)`` and property-tested against
it).  All probabilities reuse the exact floating-point expression of
:func:`~repro.core.probability.gaussian_preceding_probability`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np
from scipy import special

from graph_reference import resolve_cycles
from repro.core.probability import PrecedenceModel
from repro.core.relation import LikelyHappenedBefore, MessageKey
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage

_SQRT2 = math.sqrt(2.0)


@dataclass
class EngineStats:
    """Counters describing how the engine computed its probabilities."""

    vectorized_evaluations: int = 0
    scalar_evaluations: int = 0
    rows_appended: int = 0
    rows_removed: int = 0
    group_computations: int = 0
    cycle_resolutions: int = 0
    rebuilds: int = 0
    quantile_cache_hits: int = 0
    quantile_cache_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary view (for result metadata and benchmarks)."""
        return {
            "vectorized_evaluations": self.vectorized_evaluations,
            "scalar_evaluations": self.scalar_evaluations,
            "rows_appended": self.rows_appended,
            "rows_removed": self.rows_removed,
            "group_computations": self.group_computations,
            "cycle_resolutions": self.cycle_resolutions,
            "rebuilds": self.rebuilds,
            "quantile_cache_hits": self.quantile_cache_hits,
            "quantile_cache_misses": self.quantile_cache_misses,
        }

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


def cross_probability_matrix(
    messages_a: Sequence[TimestampedMessage],
    messages_b: Sequence[TimestampedMessage],
    model: PrecedenceModel,
    stats: Optional[EngineStats] = None,
) -> np.ndarray:
    """Matrix ``M[i][j] = P(messages_a[i] precedes messages_b[j])``.

    Gaussian-eligible pairs are evaluated in one vectorized pass; other pairs
    fall back to the scalar model (preserving FFT/direct methods and their
    ``probability_evaluations`` accounting).
    """
    rows, cols = len(messages_a), len(messages_b)
    matrix = np.empty((rows, cols), dtype=float)
    if not rows or not cols:
        return matrix
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
        for j in idx_b:
            message_j = messages_b[j]
            mu_j, var_j = params(message_j.client_id)
            matrix[idx_a, j] = batched_gaussian_probabilities(
                ts_a, mu_a, var_a, message_j.timestamp, mu_j, var_j
            )
        if stats is not None:
            stats.vectorized_evaluations += idx_a.size * idx_b.size
    if not (gauss_a.all() and gauss_b.all()):
        scalar_b = np.flatnonzero(~gauss_b)
        for i in range(rows):
            # a Gaussian row only misses the non-Gaussian columns; a
            # non-Gaussian row misses every column
            columns = scalar_b if gauss_a[i] else range(cols)
            for j in columns:
                matrix[i, j] = model.preceding_probability(messages_a[i], messages_b[j])
                if stats is not None:
                    stats.scalar_evaluations += 1
    return matrix


def build_relation(
    messages: Sequence[TimestampedMessage],
    model: PrecedenceModel,
    stats: Optional[EngineStats] = None,
) -> LikelyHappenedBefore:
    """Vectorized drop-in for :meth:`LikelyHappenedBefore.from_model`.

    Produces the same probabilities (the backward direction is stored as
    ``1 - p`` of the canonical ``i < j`` pair, exactly like ``from_model``)
    without the per-pair scalar evaluations for Gaussian clients.  Only the
    strict upper triangle is evaluated: non-Gaussian pairs cost exactly one
    scalar model call per unordered pair, the same as ``from_model``.
    """
    messages = list(messages)
    n = len(messages)
    cache: Dict[str, Optional[Tuple[float, float]]] = {}

    def params(client_id: str) -> Optional[Tuple[float, float]]:
        return _cached_gaussian_params(model, cache, client_id)

    gaussian = np.array([params(m.client_id) is not None for m in messages], dtype=bool)
    gaussian_matrix = None
    gaussian_positions: Dict[int, int] = {}
    if gaussian.any():
        indices = np.flatnonzero(gaussian)
        gaussian_positions = {int(index): slot for slot, index in enumerate(indices)}
        timestamps = np.array([messages[i].timestamp for i in indices])
        means = np.array([params(messages[i].client_id)[0] for i in indices])
        variances = np.array([params(messages[i].client_id)[1] for i in indices])
        gaussian_matrix = np.empty((indices.size, indices.size), dtype=float)
        for slot, index in enumerate(indices):
            # one batched column per message over the rows above it: the
            # strict upper triangle, exactly the entries consumed below
            message_j = messages[index]
            mean_j, variance_j = params(message_j.client_id)
            gaussian_matrix[:slot, slot] = batched_gaussian_probabilities(
                timestamps[:slot],
                means[:slot],
                variances[:slot],
                message_j.timestamp,
                mean_j,
                variance_j,
            )
        if stats is not None:
            stats.vectorized_evaluations += indices.size * (indices.size - 1) // 2

    probabilities: Dict[Tuple[MessageKey, MessageKey], float] = {}
    for index_i in range(n):
        key_i = messages[index_i].key
        for index_j in range(index_i + 1, n):
            key_j = messages[index_j].key
            if gaussian[index_i] and gaussian[index_j]:
                p = float(
                    gaussian_matrix[gaussian_positions[index_i], gaussian_positions[index_j]]
                )
            else:
                p = model.preceding_probability(messages[index_i], messages[index_j])
                if stats is not None:
                    stats.scalar_evaluations += 1
            probabilities[(key_i, key_j)] = p
            probabilities[(key_j, key_i)] = 1.0 - p
    return LikelyHappenedBefore(messages, probabilities)


def strict_boundary_strengths_matrix(matrix: np.ndarray) -> np.ndarray:
    """Strict-rule boundary strengths from an order-permuted matrix.

    ``matrix[a][b]`` is ``P(order[a] precedes order[b])``; the returned
    ``strengths[k] = min_{a <= k < b} matrix[a][b]`` matches
    :func:`repro.core.batching._strict_boundary_strengths` via two
    cumulative-minimum passes (down the columns, then right-to-left along the
    rows) instead of a per-boundary scan.
    """
    n = matrix.shape[0]
    if n < 2:
        return np.empty(0, dtype=float)
    column_min = np.minimum.accumulate(matrix, axis=0)
    suffix_min = np.minimum.accumulate(column_min[:, ::-1], axis=1)[:, ::-1]
    positions = np.arange(n - 1)
    return suffix_min[positions, positions + 1]


class IncrementalPrecedenceEngine:
    """Incrementally maintained precedence state over a pending message set.

    One engine instance backs one online sequencer: :meth:`add_message` on
    arrival, :meth:`remove_messages` on emission, :meth:`tentative_groups`
    whenever an emission check needs the strict batching of the current
    pending set, and :meth:`safe_emission_time` for the cached-quantile
    ``T^F`` computation.
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

        self._messages: List[TimestampedMessage] = []
        self._index: Dict[MessageKey, int] = {}
        self._capacity = 16
        self._matrix = np.empty((self._capacity, self._capacity), dtype=float)
        self._timestamps = np.empty(self._capacity, dtype=float)
        self._means = np.empty(self._capacity, dtype=float)
        self._variances = np.empty(self._capacity, dtype=float)
        self._gaussian = np.empty(self._capacity, dtype=bool)
        self._graph = nx.DiGraph()
        self._client_params: Dict[str, Optional[Tuple[float, float]]] = {}
        self._quantiles: Dict[Tuple[str, float], float] = {}

    # ------------------------------------------------------------- properties
    @property
    def model(self) -> PrecedenceModel:
        """The scalar model backing non-Gaussian pairs and quantiles."""
        return self._model

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
        return float(self._matrix[self._index[key_a], self._index[key_b]])

    def probability_matrix(self) -> np.ndarray:
        """Copy of the live pairwise matrix (arrival order, diagonal 0.5)."""
        n = self.size
        return self._matrix[:n, :n].copy()

    # ---------------------------------------------------------------- updates
    def _params_for(self, client_id: str) -> Optional[Tuple[float, float]]:
        return _cached_gaussian_params(self._model, self._client_params, client_id)

    def _grow(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        matrix = np.empty((capacity, capacity), dtype=float)
        n = self.size
        matrix[:n, :n] = self._matrix[:n, :n]
        self._matrix = matrix
        for name in ("_timestamps", "_means", "_variances", "_gaussian"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[:n] = old[:n]
            setattr(self, name, fresh)
        self._capacity = capacity

    def add_message(self, message: TimestampedMessage) -> None:
        """Append one arrival: one vectorized row/column plus its edges."""
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
            self._matrix[:n, n] = row
            self._matrix[n, :n] = 1.0 - row
        self._matrix[n, n] = 0.5
        self._timestamps[n] = message.timestamp
        if params is not None:
            self._means[n], self._variances[n] = params
            self._gaussian[n] = True
        else:
            self._means[n] = self._variances[n] = 0.0
            self._gaussian[n] = False
        self._graph.add_node(key)
        for position in range(n):
            self._orient(self._messages[position].key, key, float(row[position]))
        self._messages.append(message)
        self._index[key] = n
        self.stats.rows_appended += 1

    def _compute_row(
        self,
        message: TimestampedMessage,
        params: Optional[Tuple[float, float]],
        n: int,
    ) -> np.ndarray:
        """``row[i] = P(existing_i precedes message)`` over current messages."""
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
        if not gauss.all():
            for position in np.flatnonzero(~gauss):
                row[position] = self._model.preceding_probability(
                    self._messages[position], message
                )
                self.stats.scalar_evaluations += 1
        return row

    def _orient(self, key_i: MessageKey, key_j: MessageKey, forward: float) -> None:
        """Keep one direction per pair, exactly like ``TournamentGraph.from_relation``."""
        backward = 1.0 - forward
        if abs(forward - 0.5) <= self._tie_epsilon:
            source, target, weight = (
                (key_i, key_j, forward) if key_i <= key_j else (key_j, key_i, backward)
            )
        elif forward > backward:
            source, target, weight = key_i, key_j, forward
        else:
            source, target, weight = key_j, key_i, backward
        self._graph.add_edge(source, target, probability=float(weight))

    def remove_messages(self, keys: Set[MessageKey]) -> None:
        """Drop emitted messages: compact the matrix, prune graph nodes."""
        drop = {key for key in keys if key in self._index}
        if not drop:
            return
        keep_positions = [
            position
            for position, message in enumerate(self._messages)
            if message.key not in drop
        ]
        n = self.size
        m = len(keep_positions)
        if m:
            keep = np.asarray(keep_positions, dtype=int)
            self._matrix[:m, :m] = self._matrix[np.ix_(keep, keep)]
            for name in ("_timestamps", "_means", "_variances", "_gaussian"):
                array = getattr(self, name)
                array[:m] = array[:n][keep]
        self._messages = [self._messages[position] for position in keep_positions]
        self._index = {message.key: position for position, message in enumerate(self._messages)}
        self._graph.remove_nodes_from(drop)
        self.stats.rows_removed += len(drop)

    def invalidate_client(self, client_id: str) -> None:
        """React to a (re)registered client distribution.

        Parameter and quantile caches for the client are dropped; when the
        client has tracked messages the whole matrix/graph is rebuilt so its
        pairs reflect the new distribution (the reference path recomputes
        everything per arrival and picks the change up implicitly).
        """
        self._client_params.pop(client_id, None)
        self._quantiles = {
            cache_key: value
            for cache_key, value in self._quantiles.items()
            if cache_key[0] != client_id
        }
        if any(message.client_id == client_id for message in self._messages):
            self._rebuild()

    def _rebuild(self) -> None:
        """Recompute all state by replaying the tracked messages in order."""
        messages = self._messages
        self._messages = []
        self._index = {}
        self._graph = nx.DiGraph()
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

    def _linear_order(self) -> List[MessageKey]:
        """The tournament's linear order, matching the reference pipeline.

        A tournament is transitive exactly when its out-degree (score)
        sequence is ``{0, .., n-1}``; in that case the unique topological
        order is the score-descending order and no graph copy is needed.
        Otherwise the graph is cyclic and the reference behaviour is
        replicated verbatim on a throwaway copy: ``resolve_cycles`` (which
        consumes the shared RNG identically) followed by the deterministic
        lexicographical topological sort.
        """
        n = self.size
        out_degree = dict(self._graph.out_degree())
        if sorted(out_degree.values()) == list(range(n)):
            return sorted(self._graph.nodes, key=lambda node: (-out_degree[node], node))
        working = self._graph.copy()
        resolve_cycles(working, self._cycle_policy, rng=self._rng)
        self.stats.cycle_resolutions += 1
        resolved_degree = dict(working.out_degree())
        return list(
            nx.lexicographical_topological_sort(
                working, key=lambda node: (-resolved_degree.get(node, 0), node)
            )
        )

    def tentative_groups(self) -> List[List[TimestampedMessage]]:
        """Strict-rule batching of the tracked set (online tentative groups)."""
        n = self.size
        if n == 0:
            return []
        self.stats.group_computations += 1
        if n == 1:
            return [[self._messages[0]]]
        order = self._linear_order()
        permutation = np.asarray([self._index[key] for key in order], dtype=int)
        permuted = self._matrix[np.ix_(permutation, permutation)]
        strengths = strict_boundary_strengths_matrix(permuted)
        groups: List[List[TimestampedMessage]] = [[self._messages[permutation[0]]]]
        for boundary, position in enumerate(permutation[1:]):
            message = self._messages[position]
            if strengths[boundary] > self._threshold:
                groups.append([message])
            else:
                groups[-1].append(message)
        return groups
