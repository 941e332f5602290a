"""Layer replays timed in the benchmark process, on a workload's own inputs.

These are the frozen baselines beside the live path: the oracle's per-shard
batches pushed through a streaming merger (flat, and as a fanout-2 tree), and
the frozen ``ProcBackend`` run.  Each asserts its fingerprint against the
oracle's, so a replay that got faster by merging differently fails.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict

from repro.cluster.merge import CrossShardMerger, StreamingMerger, merge_fingerprint
from repro.cluster.tree import MergeTopology
from repro.core.probability import PrecedenceModel
from repro.runtime.procs import ProcBackend
from tommybench_trace import SpanRecorder
from tommybench_workloads import Inputs


class ReplayMismatch(Exception):
    """A replay's merged order differs from the oracle's."""


def merge_replay_seconds(inputs: Inputs, tree: bool) -> float:
    """Time ``observe_batch`` per oracle batch (emission order), then ``result()``."""
    workload = inputs.workload
    config = workload.config
    model = PrecedenceModel(
        method=config.probability_method, convolution_points=config.convolution_points
    )
    for client_id, distribution in workload.client_distributions.items():
        model.register_client(client_id, distribution)
    merger = CrossShardMerger(
        model,
        threshold=config.threshold,
        cycle_policy=config.cycle_policy,
        seed=config.seed if config.seed is not None else 0,
    )
    topology = MergeTopology.balanced(workload.num_shards, fanout=2) if tree else None
    streams = [
        [(batch.emitted_at, shard, batch) for batch in batches]
        for shard, batches in enumerate(inputs.oracle.shard_batches)
    ]
    started = time.perf_counter()
    streaming = merger.streaming_merger(num_shards=workload.num_shards, topology=topology)
    for _, shard, batch in heapq.merge(*streams, key=lambda entry: entry[:2]):
        streaming.observe_batch(shard, batch)
    outcome = streaming.result()
    seconds = time.perf_counter() - started
    if merge_fingerprint(outcome) != inputs.oracle.fingerprint():
        raise ReplayMismatch(f"{'tree' if tree else 'flat'} merge replay differs from the oracle")
    return seconds


def procs_replay(inputs: Inputs) -> Dict[str, float]:
    """The frozen ``ProcBackend`` run, with the coordinator's merge time split out."""
    recorder = SpanRecorder([(StreamingMerger, "observe_batch", "observe")])
    recorder.install()
    try:
        started = time.perf_counter()
        with ProcBackend(num_workers=inputs.shape.workers) as backend:
            outcome = backend.run(inputs.workload)
        seconds = time.perf_counter() - started
    finally:
        recorder.uninstall()
    if outcome.fingerprint() != inputs.oracle.fingerprint():
        raise ReplayMismatch("ProcBackend run differs from the oracle")
    return {
        "run_s": seconds,
        "worker_busy_s": sum(
            shard["wall_seconds"] for shard in outcome.details["per_shard"].values()
        ),
        "coordinator_observe_s": recorder.layers()["observe"]["self_s"],
    }
