"""Cross-backend parity: sim and procs must produce one merged order.

The contract this file pins is the PR's acceptance criterion: the same
frozen workload (message timestamps generated once) run through the
deterministic sim backend and through real worker processes yields a
bitwise-equal merged order — per-shard batch streams included — for any
worker count and merge topology.
"""

from __future__ import annotations

import pytest

from repro.cluster.merge import merge_fingerprint, merge_streams
from repro.cluster.recipe import build_merge
from repro.core.config import TommyConfig
from repro.obs.telemetry import Telemetry
from repro.runtime.base import ClusterWorkload
from repro.runtime.live import LiveClusterSpec, LiveDispatcher
from repro.runtime.procs import ProcBackend
from repro.runtime.sim import SimBackend
from repro.workloads.cluster import build_cluster_scenario


def _workload(num_shards=4, num_clients=8, messages_per_client=4, **kwargs):
    scenario = build_cluster_scenario(
        num_clients, messages_per_client=messages_per_client, seed=13
    )
    return ClusterWorkload.from_scenario(
        scenario, num_shards=num_shards, config=TommyConfig(seed=13), **kwargs
    )


def _batch_stream_fingerprint(shard_batches):
    return [
        [(batch.rank, tuple(m.key for m in batch.messages)) for batch in stream]
        for stream in shard_batches
    ]


def test_sim_vs_procs_merged_order_bitwise_equal():
    workload = _workload(num_shards=4)
    sim = SimBackend().run(workload)
    with ProcBackend() as backend:
        procs = backend.run(workload)
    assert procs.num_workers == 4
    assert sim.fingerprint() == procs.fingerprint()
    # parity holds at per-shard stream granularity too, not just post-merge
    assert _batch_stream_fingerprint(sim.shard_batches) == _batch_stream_fingerprint(
        procs.shard_batches
    )


@pytest.mark.parametrize("num_workers", [1, 2, 4])
def test_worker_count_never_changes_the_order(num_workers):
    workload = _workload(num_shards=4)
    sim = SimBackend().run(workload)
    with ProcBackend(num_workers=num_workers) as backend:
        procs = backend.run(workload)
    assert procs.num_workers == num_workers
    assert sim.fingerprint() == procs.fingerprint()


@pytest.mark.parametrize(
    "num_workers,merge_topology",
    [(1, "flat"), (None, "flat"), (None, "binary")],
    ids=["serial", "worker-per-shard", "worker-per-shard-binary"],
)
def test_sixteen_clients_by_twelve_messages_match_sim(num_workers, merge_topology):
    # a denser workload than the rest of this file: every shard streams
    # dozens of batches, so the coordinator merges while workers still run
    workload = _workload(
        num_shards=4, num_clients=16, messages_per_client=12, merge_topology=merge_topology
    )
    assert len(workload.messages) == 192
    sim = SimBackend().run(workload)
    with ProcBackend(num_workers=num_workers) as backend:
        procs = backend.run(workload)
    assert procs.num_workers == (num_workers or 4)
    assert sim.fingerprint() == procs.fingerprint()


def test_tree_topology_parity_across_backends():
    workload = _workload(num_shards=4, merge_topology="binary", merge_fanout=2)
    sim = SimBackend().run(workload)
    with ProcBackend() as backend:
        procs = backend.run(workload)
    assert sim.fingerprint() == procs.fingerprint()


def test_procs_matches_offline_oracle_merge():
    """The streamed coordinator merge equals an offline re-merge of the
    collected per-shard streams on the one cluster recipe's merge model."""
    workload = _workload(num_shards=2, num_clients=6, messages_per_client=3)
    with ProcBackend() as backend:
        procs = backend.run(workload)
    router = workload.build_router()
    model = build_merge(workload.client_distributions, workload.config, router).model
    offline = merge_streams(procs.shard_batches, model, seed=13)
    assert merge_fingerprint(offline) == procs.fingerprint()


def test_single_shard_degenerate_parity():
    workload = _workload(num_shards=1, num_clients=4, messages_per_client=3)
    sim = SimBackend().run(workload)
    with ProcBackend() as backend:
        procs = backend.run(workload)
    assert sim.fingerprint() == procs.fingerprint()


def test_telemetry_absorbed_from_workers_covers_pipeline_stages():
    workload = _workload(num_shards=2, num_clients=6, messages_per_client=3)
    telemetry = Telemetry()
    with ProcBackend(telemetry=telemetry) as backend:
        backend.run(workload)
    stages = {record.stage for record in telemetry.stage_records}
    # worker-side sequencing stages and coordinator-side merge stages all
    # land in the one absorbed hub
    assert {"shard_intake", "engine_append", "batch_emit"} <= stages
    assert {"merge_observe", "merge_commit"} <= stages
    shards = {record.shard for record in telemetry.stage_records if record.shard is not None}
    assert shards == {0, 1}

    # stage parity: one worker and one recipe, so every backend's per-stage
    # table has the same rows
    def live_outcome(runtime, workload, **kwargs):
        spec = LiveClusterSpec.from_workload(workload)
        with LiveDispatcher(spec, runtime=runtime, telemetry=Telemetry(), **kwargs) as dispatcher:
            dispatcher.open_source("a")
            for message in workload.messages_by_true_time():
                dispatcher.submit("a", message)
            dispatcher.close_source("a")
            return dispatcher.finish()

    for runtime in ("sim", "procs"):
        outcome = live_outcome(runtime, workload)
        assert {record.stage for record in outcome.telemetry.stage_records} == stages, runtime

    # per-shard wall_seconds is busy time inside the shard's own calls, not
    # time since its worker started: four shards sharing one worker cannot
    # add up to more than that worker's wall time
    serial = live_outcome("procs", _workload(num_shards=4), num_workers=1)
    busy = sum(shard["wall_seconds"] for shard in serial.details["per_shard"].values())
    assert sorted(serial.details["per_shard"]) == [0, 1, 2, 3]
    assert 0.0 < busy <= serial.wall_seconds * serial.num_workers


def test_every_runtime_drives_each_shard_through_the_same_events():
    """One shard host under one coordinator: beyond the merged order, each
    shard's loop schedules, cancels and executes the same events and emits
    the same batches whichever runtime hosts it."""
    workload = _workload(num_shards=4, num_clients=12, messages_per_client=5)
    outcomes = {"sim": SimBackend().run(workload)}
    for num_workers in (1, 2):
        with ProcBackend(num_workers=num_workers) as backend:
            outcomes[f"procs-{num_workers}"] = backend.run(workload)
    for runtime in ("sim", "procs"):
        spec = LiveClusterSpec.from_workload(workload)
        with LiveDispatcher(spec, runtime=runtime) as dispatcher:
            sources = [f"src-{index}" for index in range(3)]
            for source in sources:
                dispatcher.open_source(source)
            for index, message in enumerate(workload.messages_by_true_time()):
                dispatcher.submit(sources[index % 3], message)
                if index % 4 == 3:
                    dispatcher.advance()
            for source in sources:
                dispatcher.close_source(source)
            outcomes[f"live-{runtime}"] = dispatcher.finish()

    def per_shard(outcome):
        return {
            shard: (summary["loop"], summary["batch_count"])
            for shard, summary in outcome.details["per_shard"].items()
        }

    reference = outcomes["sim"]
    assert sorted(reference.details["per_shard"]) == [0, 1, 2, 3]
    assert all(shard["loop"]["executed"] > 0 for shard in reference.details["per_shard"].values())
    for name, outcome in outcomes.items():
        assert outcome.fingerprint() == reference.fingerprint(), name
        assert per_shard(outcome) == per_shard(reference), name
        assert outcome.details["loop"] == reference.details["loop"], name
        assert [len(stream) for stream in outcome.shard_batches] == [
            summary["batch_count"] for summary in reference.details["per_shard"].values()
        ], name
