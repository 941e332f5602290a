"""Tests for the instrumented-workload runner and the telemetry CLI."""

import json

import pytest

from repro.cli import main
from repro.obs.spans import stage_latency_rows
from repro.obs.telemetry import LIFECYCLE_STAGES
from repro.obs.workload import WORKLOAD_NAMES, run_instrumented_workload


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        run_instrumented_workload("nope")


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_workload_records_every_lifecycle_stage(workload):
    run = run_instrumented_workload(workload, num_shards=2, num_clients=6, seed=9)
    assert run.workload == workload
    recorded = {record.stage for record in run.telemetry.stage_records}
    assert recorded == set(LIFECYCLE_STAGES)
    if workload in ("cluster", "learned"):
        assert run.report.fault == "none"
    else:
        assert run.report.fault == "delay"


def test_cluster_workload_skips_learning_and_chaos_sources():
    run = run_instrumented_workload("cluster", num_shards=2, num_clients=6, seed=9)
    sources = run.telemetry.registry.source_names
    assert "cluster.engine" in sources
    assert "refresh" not in sources  # learning is off for the plain cluster
    learned = run_instrumented_workload("learned", num_shards=2, num_clients=6, seed=9)
    assert "refresh" in learned.telemetry.registry.source_names


def test_latency_table_covers_the_full_pipeline():
    run = run_instrumented_workload("cluster", num_shards=2, num_clients=6, seed=9)
    rows = stage_latency_rows(run.telemetry)
    stages = [row["stage"] for row in rows]
    assert stages[0] == "client_send->channel_deliver"
    assert stages[-1].startswith("total (client_send->merge_commit")
    assert len(stages) == len(LIFECYCLE_STAGES)  # 7 hops + 1 total row


def test_observability_report_unifies_every_stats_surface():
    run = run_instrumented_workload("learned", num_shards=2, num_clients=6, seed=9)
    snapshot = run.telemetry.registry.snapshot()
    assert {"cluster.engine", "cluster.learning", "cluster.loop", "refresh"} <= set(
        snapshot["sources"]
    )
    assert snapshot["sources"]["cluster.loop"]["executed"] > 0


def test_cli_telemetry_writes_artifacts_and_prints_table(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    exit_code = main(
        [
            "--num-clients", "6",
            "--shards", "2",
            "--seed", "4",
            "--workload", "cluster",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "telemetry",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "TELEMETRY" in out
    assert "client_send->channel_deliver" in out
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    assert {event["ph"] for event in trace["traceEvents"]} >= {"M", "X"}
    metrics = json.loads(metrics_path.read_text())
    assert metrics["records"]["stages"] > 0
    # how often an arrival left the emission candidate standing is an
    # operator-visible count, next to the computations it saved
    engine = metrics["registry"]["sources"]["cluster.engine"]
    assert engine["candidate_reuses"] > 0 and engine["group_computations"] > 0


def test_cli_telemetry_chaos_fault_all_falls_back(capsys):
    exit_code = main(
        ["--num-clients", "6", "--shards", "2", "--workload", "chaos", "telemetry"]
    )
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "falls back to 'delay'" in captured.err


def test_cluster_workload_report_is_pinned():
    """Four messages per client on the healthy, learning-free cluster."""
    run = run_instrumented_workload("cluster", num_shards=2, num_clients=6, seed=9)
    row = run.report.as_row()
    assert (row["sent"], row["delivered"], row["refreshes"], row["failovers"]) == (24, 24, 0, 0)
    assert (row["batches"], row["merged_cross_shard"], row["pruned_pairs"]) == (21, 3, 50)
    assert row["ras_normalized"] == 0.9891
    assert row["exactly_once"] and row["streaming_parity"]
    assert len(run.telemetry.sim_fingerprint()) == 216


def test_procs_crash_injection_restarts_the_worker_and_keeps_the_order():
    """The nightly recovery trace's call: a mid-stream crash shows one restart."""
    kwargs = dict(workload="cluster", num_shards=4, num_clients=16, seed=7)
    crashed = run_instrumented_workload(
        **kwargs, runtime="procs", num_workers=2, max_restarts=2, inject_crash=2
    ).runtime_outcome
    assert crashed.details["worker_restarts"] == 1, crashed.details
    assert crashed.details["shards_recovered"] == [2]
    clean = run_instrumented_workload(**kwargs, runtime="procs", num_workers=2).runtime_outcome
    assert clean.details["worker_restarts"] == 0

    def client_order(outcome):
        # Message ids come from a process-wide counter, so two builds differ in
        # them; the merged order of clients does not.
        return [[client for client, _ in batch] for _, batch in outcome.fingerprint()]

    assert client_order(crashed) == client_order(clean)
