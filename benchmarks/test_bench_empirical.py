"""EMPIRICAL — pair-table kernel vs the scalar fallback on learned clients.

Streams one seeded arrival workload of 64 *empirical* clients (histogram
distributions with a tight bulk and symmetric far outliers, the shape a
probe-learned estimate takes) through two engine-backed online sequencers:

* **fast** — the current engine: empirical pairs served by the vectorized
  difference-CDF pair tables, tournament kept as a numpy direction matrix,
  emission checks answered by the prefix first-group scan;
* **scalar fallback** — the engine implementation this PR replaced
  (``benchmarks/_scalar_fallback_baseline.py``, a frozen copy of the
  previous ``repro.core.engine``): every empirical pair is one scalar
  FFT-grid evaluation per arrival, the tournament an incremental networkx
  graph, every emission check a full ``O(n^2)`` boundary pass.

Asserted:

* **parity** — byte-identical emitted batch streams (ranks, message keys,
  emission times, safe-emission times);
* **work** — the fast path performs *zero* scalar probability evaluations
  (the fallback performs one per pending pair per arrival).

The per-client-pair FFT convolutions (identical one-time cost on both
variants, cached in the model) are warmed outside the timed window so the
measurement isolates the streaming hot path.  ``EMPIRICAL_BENCH_MESSAGES``
overrides the stream length (the CI smoke step runs a small size); the
wall-clock ``speedup`` is recorded in the row and gated against
``baselines.json`` by ``check_regression.py``, like the engine bench.
"""

import os
import time

import numpy as np

# _bench_utils first: it makes the baseline's graph oracle importable
from _bench_utils import BENCH_CLUSTER_CLIENTS, BENCH_SEED, emit

import _scalar_fallback_baseline as baseline

from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.empirical import EmpiricalDistribution
from repro.network.message import TimestampedMessage
from repro.simulation.event_loop import EventLoop

NUM_MESSAGES = int(os.environ.get("EMPIRICAL_BENCH_MESSAGES", "2000"))
NUM_CLIENTS = BENCH_CLUSTER_CLIENTS

CONFIG = TommyConfig(p_safe=0.999, completeness_mode="none", seed=BENCH_SEED)


def build_workload():
    """Deterministic empirical-client arrival stream shared by both variants.

    Each client's histogram has a tight Gaussian bulk (2-6 ms) plus ~3%
    symmetric outlier mass at +-0.6 s: the deep ``p_safe`` quantile keeps a
    few hundred messages pending (a realistic hot sequencer), while the
    median-zero bulk keeps the tournament transitive and emissions flowing.
    """
    rng = np.random.default_rng(BENCH_SEED)
    distributions = {}
    for i in range(NUM_CLIENTS):
        sigma = float(rng.uniform(0.002, 0.006))
        bulk = rng.normal(0.0, sigma, 2000)
        outliers_low = -0.6 + rng.normal(0.0, 0.05, 30)
        outliers_high = 0.6 + rng.normal(0.0, 0.05, 30)
        samples = np.concatenate([bulk, outliers_low, outliers_high])
        samples -= np.median(samples)
        distributions[f"client-{i:03d}"] = EmpiricalDistribution.from_samples(
            samples, bins=256
        )
    clients = sorted(distributions)
    arrivals = []
    t = 0.0
    for k in range(NUM_MESSAGES):
        t += float(rng.exponential(0.002))
        client = clients[int(rng.integers(NUM_CLIENTS))]
        noise = float(distributions[client].sample(rng))
        arrivals.append(
            (
                t,
                TimestampedMessage(
                    client_id=client,
                    timestamp=t + noise,
                    true_time=t,
                    message_id=20_000_000 + k,
                ),
            )
        )
    return distributions, arrivals


def run_variant(distributions, arrivals, fast):
    loop = EventLoop()
    if fast:
        sequencer = OnlineTommySequencer(loop, distributions, CONFIG)
    else:
        # the frozen scalar-fallback engine, attached behind the same online
        # sequencer so both variants share intake/emission machinery
        sequencer = OnlineTommySequencer(loop, distributions, CONFIG)
        engine = baseline.IncrementalPrecedenceEngine(
            sequencer.model,
            threshold=CONFIG.threshold,
            tie_epsilon=CONFIG.tie_epsilon,
            cycle_policy=CONFIG.cycle_policy,
            rng=sequencer._rng,
        )
        # the baseline predates the first-group prefix scan and the kept
        # candidate: its emission candidate is the head of the full tentative
        # batching, recomputed (a new epoch) on every check, as it was
        engine.candidate_epoch = 0

        def first_tentative_group():
            engine.candidate_epoch += 1
            return (engine.tentative_groups() or [None])[0]

        engine.first_tentative_group = first_tentative_group
        sequencer._engine = engine
    # warm the per-pair FFT convolutions outside the timed window: a
    # one-time cost identical for both variants (cached in the model)
    clients = sorted(distributions)
    for client_a in clients:
        for client_b in clients:
            sequencer.model.pair_difference(client_a, client_b)
    for arrival_time, message in arrivals:
        loop.schedule_at(arrival_time, sequencer.receive, message)
    start = time.perf_counter()
    loop.run(until=arrivals[-1][0] + 30.0)
    sequencer.flush()
    wall = time.perf_counter() - start
    fingerprint = [
        (
            emitted.batch.rank,
            tuple(message.key for message in emitted.batch.messages),
            emitted.emitted_at,
            emitted.safe_emission_time,
        )
        for emitted in sequencer.emitted_batches
    ]
    return sequencer, wall, fingerprint


def run_once():
    distributions, arrivals = build_workload()
    fast_seq, fast_wall, fast_fp = run_variant(distributions, arrivals, fast=True)
    scalar_seq, scalar_wall, scalar_fp = run_variant(distributions, arrivals, fast=False)
    fast_stats = fast_seq.engine_stats()
    return {
        "messages": NUM_MESSAGES,
        "clients": NUM_CLIENTS,
        "batches": len(fast_fp),
        "parity": fast_fp == scalar_fp,
        "fast_wall_s": round(fast_wall, 4),
        "scalar_wall_s": round(scalar_wall, 4),
        "speedup": round(scalar_wall / max(fast_wall, 1e-9), 2),
        "fast_scalar_evals": fast_stats.scalar_evaluations,
        "fast_table_evals": fast_stats.table_evaluations,
        "pair_tables_built": fast_stats.pair_tables_built,
        "fallback_scalar_evals": scalar_seq._engine.stats.scalar_evaluations,
        "cycle_resolutions": fast_stats.cycle_resolutions,
    }


def test_empirical_kernel_matches_scalar_fallback_and_is_faster(benchmark):
    row = benchmark.pedantic(run_once, rounds=1, iterations=1)
    emit(
        "Empirical pair-table kernel vs scalar fallback",
        [row],
        benchmark="empirical_kernel",
        wall_time=row["fast_wall_s"] + row["scalar_wall_s"],
    )
    assert row["parity"], "fast path diverged from the scalar fallback"
    assert row["batches"] > 0
    # the whole point: zero scalar FFT evaluations on the fast path, while
    # the fallback performs one per pending pair per arrival
    assert row["fast_scalar_evals"] == 0
    assert row["fast_table_evals"] > 0
    assert row["fallback_scalar_evals"] > 10 * NUM_MESSAGES
