"""The offline Tommy sequencer (paper §3.1–§3.4).

``TommySequencer`` assumes all messages are present (the paper's §3
assumption, lifted by :mod:`repro.core.online`), computes the
likely-happened-before relation over them, extracts a linear order from the
kept-edge tournament (breaking cycles per the configured policy when the
relation is intransitive) and forms ranked batches at the confidence
threshold.  The tournament is linearised by the online engine's own path,
:func:`~repro.core.engine.tournament_order` over a direction matrix.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.batching import form_batches
from repro.core.config import TommyConfig
from repro.core.engine import EngineStats, build_relation, kept_edges, tournament_order
from repro.core.probability import PrecedenceModel
from repro.core.relation import LikelyHappenedBefore
from repro.distributions.base import OffsetDistribution
from repro.network.message import TimestampedMessage
from repro.sequencers.base import OfflineSequencer, SequencingResult


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
    def relation_for(self, messages: Sequence[TimestampedMessage]) -> LikelyHappenedBefore:
        """Likely-happened-before relation over ``messages``.

        Computed through the vectorized engine path
        (:func:`repro.core.engine.build_relation`): same probabilities as
        :meth:`LikelyHappenedBefore.from_model`, but Gaussian client pairs
        are evaluated in one numpy pass instead of per-pair scalar calls.
        """
        return build_relation(list(messages), self._model, stats=self._engine_stats)

    def sequence(self, messages: Sequence[TimestampedMessage]) -> SequencingResult:
        messages = self._validate(messages)
        if not messages:
            return SequencingResult(batches=(), metadata={"sequencer": self.name})
        for message in messages:
            if not self._model.has_client(message.client_id):
                raise KeyError(
                    f"client {message.client_id!r} has no registered clock-error distribution"
                )

        relation = self.relation_for(messages)
        return self.sequence_relation(relation)

    def sequence_relation(self, relation: LikelyHappenedBefore) -> SequencingResult:
        """Sequence messages given an already-computed relation.

        This entry point supports the Appendix-B style workflow where the
        pairwise probabilities are supplied directly as a matrix.  Each pair
        ``i < j`` (in the relation's message order) is read once, as
        ``forward = P(i precedes j)``; the reverse direction weighs
        ``1 - forward``.  A tournament is transitive exactly when it is
        acyclic, so ``transitive`` and ``was_cyclic`` are one test.
        """
        keys = relation.message_keys
        n = len(keys)
        rows, cols = np.triu_indices(n, 1)
        forward = np.array(
            [relation.probability(keys[i], keys[j]) for i, j in zip(rows.tolist(), cols.tolist())],
            dtype=float,
        )
        wins, ties = kept_edges(forward, self._config.tie_epsilon)
        for pair in np.flatnonzero(ties):
            wins[pair] = keys[rows[pair]] <= keys[cols[pair]]
        direction = np.zeros((n, n), dtype=bool)
        direction[rows, cols] = wins
        direction[cols, rows] = ~wins
        probability = np.full((n, n), 0.5)
        probability[rows, cols] = forward
        probability[cols, rows] = 1.0 - forward
        permutation, removed = tournament_order(
            direction,
            direction.sum(axis=1),
            probability,
            relation.messages(),
            self._config.cycle_policy,
            self._rng,
        )
        order = [keys[position] for position in permutation]
        outcome = form_batches(
            order, relation, self._config.threshold, mode=self._config.batching_mode
        )
        transitive = removed is None
        removed = removed or []
        metadata = {
            "sequencer": self.name,
            "threshold": self._config.threshold,
            "transitive": transitive,
            "was_cyclic": not transitive,
            "cycle_policy": self._config.cycle_policy,
            "removed_edges": len(removed),
            "removed_probability_mass": float(sum(edge.probability for edge in removed)),
            "tie_count": int(np.count_nonzero(ties)),
            "linear_order": order,
            "boundary_probabilities": list(outcome.boundary_probabilities),
            "batch_sizes": list(outcome.batch_sizes),
        }
        return SequencingResult(batches=outcome.batches, metadata=metadata)
