"""The offline Tommy sequencer (paper §3.1–§3.4).

``TommySequencer`` assumes all messages are present (the paper's §3
assumption, lifted by :mod:`repro.core.online`).  It appends them to one
:class:`~repro.core.engine.IncrementalPrecedenceEngine`, which prices every
pair into the likely-happened-before matrix and orients the kept-edge
tournament, then orders and batches on that engine's state: a linear order
from :func:`~repro.core.engine.tournament_order` (breaking cycles per the
configured policy when the relation is intransitive) and ranked batches at
the confidence threshold (§3.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import TommyConfig
from repro.core.engine import (
    EngineStats,
    IncrementalPrecedenceEngine,
    kept_edges,
    strict_boundary_strengths_matrix,
    tournament_order,
)
from repro.core.probability import PrecedenceModel
from repro.core.relation import LikelyHappenedBefore
from repro.distributions.base import OffsetDistribution
from repro.network.message import TimestampedMessage
from repro.sequencers.base import OfflineSequencer, SequencingResult, batches_from_groups


class TommySequencer(OfflineSequencer):
    """Probabilistic fair sequencer operating on a complete message set."""

    name = "tommy"

    def __init__(
        self,
        client_distributions: Optional[Dict[str, OffsetDistribution]] = None,
        config: Optional[TommyConfig] = None,
    ) -> None:
        self._config = config if config is not None else TommyConfig()
        self._model = PrecedenceModel(
            method=self._config.probability_method,
            convolution_points=self._config.convolution_points,
        )
        self._rng = np.random.default_rng(self._config.seed if self._config.seed is not None else 0)
        self._engine_stats = EngineStats()
        for client_id, distribution in (client_distributions or {}).items():
            self._model.register_client(client_id, distribution)

    # ----------------------------------------------------------- registration
    @property
    def config(self) -> TommyConfig:
        """The sequencer's configuration."""
        return self._config

    @property
    def model(self) -> PrecedenceModel:
        """The underlying preceding-probability model."""
        return self._model

    @property
    def engine_stats(self) -> EngineStats:
        """Counters for the vectorized relation computations performed."""
        return self._engine_stats

    def register_client(self, client_id: str, distribution: OffsetDistribution) -> None:
        """Register or update a client's clock-error distribution."""
        self._model.register_client(client_id, distribution)

    # ------------------------------------------------------------- sequencing
    def _filled_engine(self, messages: List[TimestampedMessage]) -> IncrementalPrecedenceEngine:
        """An engine holding ``messages`` in input order.

        Every client is checked before the first append, and the engine's
        counters join :attr:`engine_stats` only after the last, so an
        unregistered client leaves the counters and the generator untouched.
        """
        for message in messages:
            if not self._model.has_client(message.client_id):
                raise KeyError(
                    f"client {message.client_id!r} has no registered clock-error distribution"
                )
        config = self._config
        engine = IncrementalPrecedenceEngine(
            self._model, config.threshold, config.tie_epsilon, config.cycle_policy, self._rng
        )
        engine._grow(len(messages))  # one allocation instead of log2(n) doublings
        for message in messages:
            engine.add_message(message)
        self._engine_stats = self._engine_stats.merge(engine.stats)
        return engine

    def relation_for(self, messages: Sequence[TimestampedMessage]) -> LikelyHappenedBefore:
        """Likely-happened-before relation over ``messages``.

        Read off the matrix :meth:`sequence` orders on: the same
        probabilities as :meth:`LikelyHappenedBefore.from_model`, with the
        backward direction of each pair ``i < j`` stored as ``1 - p``.
        """
        messages = list(messages)
        matrix = self._filled_engine(messages).tournament()[2].tolist()
        keys = [message.key for message in messages]
        probabilities = {}
        for i, key_i in enumerate(keys):
            for j in range(i + 1, len(keys)):
                probabilities[(key_i, keys[j])] = matrix[i][j]
                probabilities[(keys[j], key_i)] = matrix[j][i]
        return LikelyHappenedBefore(messages, probabilities)

    def sequence(self, messages: Sequence[TimestampedMessage]) -> SequencingResult:
        messages = self._validate(messages)
        if not messages:
            return SequencingResult(batches=(), metadata={"sequencer": self.name})
        direction, scores, matrix = self._filled_engine(messages).tournament()
        return self._order_and_batch(messages, direction, scores, matrix, matrix)

    def sequence_relation(self, relation: LikelyHappenedBefore) -> SequencingResult:
        """Sequence messages given an already-computed relation.

        This entry point supports the Appendix-B style workflow where the
        pairwise probabilities are supplied directly as a matrix.  Each pair
        ``i < j`` (in the relation's message order) is oriented and weighed
        for cycle breaking by ``forward = P(i precedes j)``, the reverse
        direction by ``1 - forward``.  Batch boundaries read the relation's
        own value in each direction, which a :meth:`~LikelyHappenedBefore.from_matrix`
        relation need only make complementary to within ``1e-6``.
        """
        messages = relation.messages()
        keys = [message.key for message in messages]
        n = len(keys)
        values = np.full((n, n), 0.5)
        for i, source in enumerate(keys):
            for j, target in enumerate(keys):
                if i != j:
                    values[i, j] = relation.probability(source, target)
        rows, cols = np.triu_indices(n, 1)
        forward = values[rows, cols]
        wins, ties = kept_edges(forward, self._config.tie_epsilon)
        for pair in np.flatnonzero(ties):
            wins[pair] = keys[rows[pair]] <= keys[cols[pair]]
        direction = np.zeros((n, n), dtype=bool)
        direction[rows, cols] = wins
        direction[cols, rows] = ~wins
        weights = values.copy()
        weights[cols, rows] = 1.0 - forward
        return self._order_and_batch(messages, direction, direction.sum(axis=1), weights, values)

    def _order_and_batch(
        self,
        messages: List[TimestampedMessage],
        direction: np.ndarray,
        scores: np.ndarray,
        weights: np.ndarray,
        values: np.ndarray,
    ) -> SequencingResult:
        """Linearise the tournament and batch the order at the threshold.

        ``direction``, ``scores`` and ``weights`` (the edge weights cycle
        breaking reads, ``weights[i, j] = P(i precedes j)`` with the strict
        upper triangle as each pair's forward value) are
        :func:`tournament_order`'s inputs over ``messages``; ``values``
        supplies the boundary strengths.  A tournament is transitive exactly
        when it is acyclic, so ``transitive`` and ``was_cyclic`` are one test.
        """
        config = self._config
        permutation, removed = tournament_order(
            direction, scores, weights, messages, config.cycle_policy, self._rng
        )
        if config.batching_mode == "adjacent":
            strengths = values[permutation[:-1], permutation[1:]]
        else:
            strengths = strict_boundary_strengths_matrix(values[np.ix_(permutation, permutation)])
        boundaries = strengths.tolist()
        ordered = [messages[position] for position in permutation]
        groups = [[ordered[0]]] if ordered else []
        for strength, message in zip(boundaries, ordered[1:]):
            if strength > config.threshold:
                groups.append([message])
            else:
                groups[-1].append(message)
        batches = batches_from_groups(groups)
        ties = kept_edges(weights, config.tie_epsilon)[1]
        transitive = removed is None
        removed = removed or []
        metadata = {
            "sequencer": self.name,
            "threshold": config.threshold,
            "transitive": transitive,
            "was_cyclic": not transitive,
            "cycle_policy": config.cycle_policy,
            "removed_edges": len(removed),
            "removed_probability_mass": float(sum(edge.probability for edge in removed)),
            "tie_count": int(np.count_nonzero(np.triu(ties, 1))),
            "linear_order": [message.key for message in ordered],
            "boundary_probabilities": boundaries,
            "batch_sizes": [batch.size for batch in batches],
        }
        return SequencingResult(batches=batches, metadata=metadata)
