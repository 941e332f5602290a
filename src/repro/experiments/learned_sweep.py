"""Static-Gaussian vs live-learned distributions through the online sequencer.

The paper's §5 claim, run end to end: clients with genuinely non-Gaussian
clocks stream messages into an :class:`~repro.core.online.OnlineTommySequencer`
while their sync probes flow through a
:class:`~repro.sync.refresh.DistributionRefreshLoop` that re-estimates each
client's offset distribution and pushes it into the *running* sequencer.
Three configurations are scored per probe budget:

* ``static-gaussian`` — the naive bootstrap: a Gaussian moment-matched to a
  few early (unfiltered) probes, never refreshed;
* ``live-learned`` — starts from the same static guess, then refreshes live
  from RTT-filtered probes (empirical estimates, served by the engine's
  vectorized pair-table kernel);
* ``oracle-seeded`` — the ground-truth distributions (upper bound).

The Rank Agreement Score of the emitted order quantifies how much fairness
the live pipeline recovers.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.base import OffsetDistribution
from repro.experiments.runner import evaluate_result
from repro.simulation.event_loop import EventLoop
from repro.sync.estimator import OffsetEstimator
from repro.sync.refresh import DistributionRefreshLoop
from repro.workloads.learned import LearnedWorkload, build_learned_workload


def _replay(
    workload: LearnedWorkload,
    distributions: Dict[str, OffsetDistribution],
    config: TommyConfig,
    learn: bool,
) -> Dict[str, object]:
    """Stream the workload once; optionally refresh distributions live.

    The live refresh re-estimates a client every 16 probes from the half of
    its window with the shortest round trips.
    """
    loop = EventLoop()
    sequencer = OnlineTommySequencer(
        loop, dict(distributions), config=config, name="tommy-learned"
    )
    refresh: Optional[DistributionRefreshLoop] = None
    if learn:
        refresh = DistributionRefreshLoop(
            sequencer,
            method="empirical",
            refresh_every=16,
            estimator=OffsetEstimator(best_fraction=0.5),
        )

    messages = list(workload.scenario.messages)
    horizon = max(message.true_time for message in messages) if messages else 0.0
    for message in messages:
        loop.schedule_at(message.true_time, sequencer.receive, message)
    if refresh is not None:
        # spread each client's probe stream across the run so estimates
        # genuinely refresh mid-stream
        for client_id, stream in sorted(workload.probe_streams.items()):
            for index, probe in enumerate(stream):
                when = horizon * (index + 1) / (len(stream) + 1)
                loop.schedule_at(when, refresh.observe_probe, probe)

    start = time.perf_counter()
    loop.run(until=horizon + 1.0)
    sequencer.flush()
    wall = time.perf_counter() - start

    comparison = evaluate_result("tommy-learned", sequencer.result(), messages)
    engine = sequencer.engine_stats()
    row: Dict[str, object] = {
        "ras": comparison.ras.score,
        "ras_normalized": round(comparison.ras.normalized_score, 4),
        "incorrect_pairs": comparison.ras.incorrect_pairs,
        "batches": comparison.batches.batch_count,
        "refreshes": sequencer.distribution_refreshes,
        "table_evals": engine.table_evaluations,
        "scalar_evals": engine.scalar_evaluations,
        "wall_seconds": round(wall, 4),
    }
    return row


def run_learned_sweep(
    probe_budgets: Sequence[int] = (24, 96),
    num_clients: int = 16,
    messages_per_client: int = 2,
    seed: int = 23,
) -> List[Dict[str, object]]:
    """One row per (probe budget, configuration): the live-learning payoff.

    Deterministic for fixed parameters; the ``oracle-seeded`` row is the
    ceiling, ``static-gaussian`` the floor, and ``live-learned`` should climb
    from the floor toward the ceiling as the probe budget grows.  The
    sequencer runs at ``p_safe=0.99`` with no completeness wait.
    """
    config = TommyConfig(p_safe=0.99, completeness_mode="none")
    rows: List[Dict[str, object]] = []
    for probes in probe_budgets:
        workload = build_learned_workload(
            num_clients=num_clients,
            messages_per_client=messages_per_client,
            probes_per_client=probes,
            seed=seed,
        )
        runs = {
            "static-gaussian": (workload.static_gaussians, False),
            "live-learned": (workload.static_gaussians, True),
            "oracle-seeded": (workload.truth, False),
        }
        for mode, (distributions, learn) in runs.items():
            row: Dict[str, object] = {"mode": mode, "probes_per_client": probes}
            row.update(
                _replay(workload, distributions, config, learn=learn)
            )
            rows.append(row)
    return rows
