"""CLUSTER — shard-count scaling of the sharded fair-sequencing cluster.

The single online sequencer re-runs tentative batching over its whole
pending set on every arrival, so its cost grows super-linearly with the
client count.  Sharding splits the client population over independent
sequencers; this benchmark replays one >=64-client multi-region scenario
through 1, 2 and 4 shards and checks that cluster throughput scales while
the merged cross-shard order keeps its fairness.

The scenario seed and size are shared with the client-count scaling
benchmark via ``_bench_utils`` so the curves stay comparable across PRs.
"""

import time

from _bench_utils import BENCH_CLUSTER_CLIENTS, BENCH_SEED, emit, record_result

from repro.experiments.cluster_sweep import run_cluster_sweep

SHARD_COUNTS = (1, 2, 4)


def test_cluster_shard_scaling(benchmark):
    start = time.perf_counter()
    rows = benchmark.pedantic(
        lambda: run_cluster_sweep(
            shard_counts=SHARD_COUNTS,
            client_counts=(BENCH_CLUSTER_CLIENTS,),
            seed=BENCH_SEED,
        ),
        rounds=1,
        iterations=1,
    )
    wall = time.perf_counter() - start
    by_shards = {row["shards"]: row for row in rows}
    assert set(by_shards) == set(SHARD_COUNTS)
    # Scale-out keeps the cluster competitive.  The original gate demanded
    # 4 shards beat 1 outright (~8x at the time): the engine's direction-
    # matrix tournament, first-group prefix scan and pair-table kernel have
    # since made the *single* sequencer so fast at this fixed 64-client size
    # that per-shard constants + the cross-shard merge eat the quadratic
    # advantage, leaving 1 vs 4 shards within run-to-run noise.  Sharding
    # still must not *cost* more than a modest factor at this size (it pays
    # again once pending sets grow).  The two throughput ratios are wall
    # clock: they go into every row and are gated against ``baselines.json``
    # by ``check_regression.py``; asserted here they made tier-1 depend on
    # how busy the machine was.
    scaling = {
        f"scaling_{shards}_to_1": round(
            by_shards[shards]["total_throughput"] / by_shards[1]["total_throughput"], 3
        )
        for shards in (2, 4)
    }
    for row in rows:
        row.update(scaling)
    emit(
        f"Cluster shard-count scaling ({BENCH_CLUSTER_CLIENTS} clients)",
        rows,
        benchmark="bench_cluster_shard_scaling",
        wall_time=wall,
    )
    # the merged cross-shard order stays fair (no worse than ~2% of the
    # single-sequencer pair agreement)
    assert by_shards[4]["ras_normalized"] >= by_shards[1]["ras_normalized"] - 0.02
    # every shard count sequenced the whole message set
    assert all(row["clients"] == BENCH_CLUSTER_CLIENTS for row in rows)


def test_bench_results_json_records(tmp_path, monkeypatch):
    path = tmp_path / "bench.jsonl"
    monkeypatch.setenv("BENCH_RESULTS_JSON", str(path))
    rows = [{"shards": 1, "ras": 10}, {"shards": 2, "ras": 11}]
    record_result("bench_smoke", rows, wall_time=1.25)
    record_result("bench_smoke_again", rows)

    import json

    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["benchmark"] == "bench_smoke"
    assert first["rows"] == rows
    assert first["wall_time"] == 1.25
    assert json.loads(lines[1])["wall_time"] is None
