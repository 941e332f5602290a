"""Tommy: probabilistic fair ordering (the paper's primary contribution).

Pipeline (paper §3):

1. :class:`PrecedenceModel` computes the *preceding-probability*
   ``P(T*_i < T*_j | T_i, T_j)`` for message pairs from the clients' clock
   error distributions (§3.2 Gaussian closed form, §3.3 FFT convolution for
   arbitrary distributions).
2. :class:`LikelyHappenedBefore` wraps those probabilities as the
   ``likely-happened-before`` relation.
3. A boolean direction matrix keeps, for every pair, the direction with
   the higher probability (the kept-edge tournament), and
   :func:`~repro.core.engine.tournament_order` extracts a linear order
   (topological order of the transitive tournament;
   :func:`~repro.core.cycles.break_cycles` first otherwise, §3.4).
4. :func:`form_batches` inserts a batch boundary between adjacent messages
   whose preceding-probability exceeds the confidence threshold (§3.4).
5. :class:`TommySequencer` packages 1–4 as an offline sequencer;
   :class:`OnlineTommySequencer` adds safe batch emission and arrival
   completeness tracking (§3.5, Appendix C).

Extensions sketched by the paper and implemented here: fair total order via
stochastic tie-breaking (:mod:`repro.core.total_order`) and Byzantine
timestamp auditing (:mod:`repro.core.byzantine`).

Timestamp-error convention
--------------------------
Throughout this package a client's *clock error distribution* is the
distribution of ``epsilon = reported_timestamp - true_time`` — exactly what
:class:`repro.clocks.LocalClock` samples and what probe-based learners
estimate.  The paper's ``theta`` (true minus reported) is the negation; all
formulas here are derived for the ``epsilon`` convention so that clocks,
learners and the sequencer agree without sign gymnastics at call sites.
"""

from repro.core.config import TommyConfig
from repro.core.probability import PrecedenceModel, gaussian_preceding_probability
from repro.core.relation import LikelyHappenedBefore, PairProbability
from repro.core.batching import BatchingOutcome, form_batches
from repro.core.engine import (
    EngineStats,
    IncrementalPrecedenceEngine,
    PairTableCache,
    build_relation,
    cross_probability_matrix,
    strict_boundary_strengths_matrix,
)
from repro.core.sequencer import TommySequencer
from repro.core.online import EmittedBatch, OnlineTommySequencer
from repro.core.total_order import FairTotalOrder, TieBreakRecord
from repro.core.byzantine import ByzantineAuditor, TimestampAuditVerdict

__all__ = [
    "TommyConfig",
    "PrecedenceModel",
    "gaussian_preceding_probability",
    "LikelyHappenedBefore",
    "PairProbability",
    "BatchingOutcome",
    "form_batches",
    "EngineStats",
    "IncrementalPrecedenceEngine",
    "PairTableCache",
    "build_relation",
    "cross_probability_matrix",
    "strict_boundary_strengths_matrix",
    "TommySequencer",
    "OnlineTommySequencer",
    "EmittedBatch",
    "FairTotalOrder",
    "TieBreakRecord",
    "ByzantineAuditor",
    "TimestampAuditVerdict",
]
