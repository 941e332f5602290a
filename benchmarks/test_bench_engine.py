"""ENGINE — incremental engine vs reference online hot path.

Streams the same seeded arrival workload (64 clients, 2k messages by
default) through the engine-backed online sequencer and through the original
recompute-everything reference path (``ReferenceOnlineSequencer`` in
``tests/reference/online_reference.py``), then asserts:

* **parity** — the emitted batch streams are byte-identical (ranks, message
  keys, emission times, safe-emission times);
* **work** — the engine performs at least 5x fewer scalar probability
  evaluations (it performs none on this Gaussian workload).

``ENGINE_BENCH_MESSAGES`` overrides the stream length (the CI smoke step
runs a small size).  The wall-clock ``speedup`` is recorded in the row and
gated against ``baselines.json`` by ``check_regression.py``, not asserted
here: parity and evaluation counts are deterministic, timing is not.
"""

import os
import time

import numpy as np

from _bench_utils import BENCH_CLUSTER_CLIENTS, BENCH_SEED, emit
from online_reference import ReferenceOnlineSequencer

from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage
from repro.simulation.event_loop import EventLoop

NUM_MESSAGES = int(os.environ.get("ENGINE_BENCH_MESSAGES", "2000"))
NUM_CLIENTS = BENCH_CLUSTER_CLIENTS

CONFIG = TommyConfig(p_safe=0.99, completeness_mode="none", seed=BENCH_SEED)


def build_workload():
    """Deterministic arrival stream shared by both sequencer variants."""
    rng = np.random.default_rng(BENCH_SEED)
    distributions = {
        f"client-{i:03d}": GaussianDistribution(
            float(rng.normal(0.0, 0.002)), float(rng.uniform(0.002, 0.04))
        )
        for i in range(NUM_CLIENTS)
    }
    clients = sorted(distributions)
    arrivals = []
    t = 0.0
    for k in range(NUM_MESSAGES):
        t += float(rng.exponential(0.01))
        client = clients[int(rng.integers(NUM_CLIENTS))]
        sigma = distributions[client].std
        arrivals.append(
            (
                t,
                TimestampedMessage(
                    client_id=client,
                    timestamp=t + float(rng.normal(0.0, sigma)),
                    true_time=t,
                    message_id=10_000_000 + k,
                ),
            )
        )
    return distributions, arrivals


def run_variant(distributions, arrivals, use_engine):
    loop = EventLoop()
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop, distributions, CONFIG
    )
    for arrival_time, message in arrivals:
        loop.schedule_at(arrival_time, sequencer.receive, message)
    start = time.perf_counter()
    loop.run(until=arrivals[-1][0] + 10.0)
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
    engine_seq, engine_wall, engine_fp = run_variant(distributions, arrivals, True)
    reference_seq, reference_wall, reference_fp = run_variant(distributions, arrivals, False)
    return {
        "messages": NUM_MESSAGES,
        "clients": NUM_CLIENTS,
        "batches": len(engine_fp),
        "parity": engine_fp == reference_fp,
        "engine_wall_s": round(engine_wall, 4),
        "reference_wall_s": round(reference_wall, 4),
        "speedup": round(reference_wall / max(engine_wall, 1e-9), 2),
        "engine_scalar_evals": engine_seq.model.probability_evaluations,
        "reference_scalar_evals": reference_seq.model.probability_evaluations,
        "engine_vectorized_evals": engine_seq.engine_stats().vectorized_evaluations,
    }


def test_engine_matches_reference_and_is_faster(benchmark):
    row = benchmark.pedantic(run_once, rounds=1, iterations=1)
    emit(
        "Incremental engine vs reference online path",
        [row],
        benchmark="engine_parity",
        wall_time=row["engine_wall_s"] + row["reference_wall_s"],
    )
    assert row["parity"], "engine diverged from the reference implementation"
    assert row["batches"] > 0
    # >=5x fewer scalar probability evaluations (none at all on Gaussians)
    assert row["reference_scalar_evals"] >= 5 * max(row["engine_scalar_evals"], 1)
    assert row["engine_scalar_evals"] == 0
