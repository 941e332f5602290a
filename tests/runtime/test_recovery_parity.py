"""Crash-matrix recovery parity: restarted procs runs stay bitwise equal to sim.

The supervision layer's contract is that worker death and restart-with-replay
are invisible in the output: the frozen ``ShardTask`` replays
deterministically, the coordinator's observation-cursor gate drops the
already-observed prefix, and the merged order comes out bitwise equal to
``SimBackend`` on the same workload.  The default parametrization covers each
crash mode (hard kill / exception / clean-exit-with-unfinished-shards), each
worker count (1/2/4), both merge topologies, and both crash points
(mid-stream / after the last batch) at least once; set ``RECOVERY_MATRIX=full``
for the exhaustive product (nightly soak).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os

import pytest

from repro.core.config import TommyConfig
from repro.obs.telemetry import Telemetry
from repro.runtime.base import ClusterWorkload
from repro.runtime.procs import ProcBackend, RestartPolicy, WorkerCrashed
from repro.runtime.sim import SimBackend
from repro.workloads.cluster import build_cluster_scenario

FAST_POLICY = RestartPolicy(max_restarts=2, backoff_base=0.01, backoff_cap=0.05)

# (crash_mode, num_workers, merge_topology, crash_point) — the reduced matrix
# touches every value of every axis at least once
_DEFAULT_CELLS = [
    ("exit", 1, "flat", "mid"),
    ("error", 2, "flat", "mid"),
    ("clean", 2, "flat", "mid"),
    ("exit", 4, "binary", "mid"),
    ("error", 1, "binary", "end"),
    ("clean", 4, "flat", "end"),
]
_FULL_CELLS = list(
    itertools.product(("exit", "error", "clean"), (1, 2, 4), ("flat", "binary"), ("mid", "end"))
)
CELLS = _FULL_CELLS if os.environ.get("RECOVERY_MATRIX") == "full" else _DEFAULT_CELLS

#: shard whose worker gets killed: non-zero so single-worker runs crash
#: mid-assignment (shards 0..1 finished, 2..3 pending) rather than up front
CRASH_SHARD = 2


def _workload(num_shards=4, num_clients=8, messages_per_client=3, merge_topology="flat"):
    scenario = build_cluster_scenario(
        num_clients, messages_per_client=messages_per_client, seed=13
    )
    return ClusterWorkload.from_scenario(
        scenario,
        num_shards=num_shards,
        config=TommyConfig(seed=13),
        merge_topology=merge_topology,
    )


def _no_orphans():
    for child in mp.active_children():
        child.join(timeout=2.0)
    return not mp.active_children()


def _sim_fingerprint(workload):
    with SimBackend() as backend:
        return backend.run(workload).fingerprint()


@pytest.mark.parametrize("crash_mode,num_workers,merge_topology,crash_point", CELLS)
def test_crash_recovery_is_bitwise_equal_to_sim(
    crash_mode, num_workers, merge_topology, crash_point
):
    workload = _workload(merge_topology=merge_topology)
    expected = _sim_fingerprint(workload)
    with ProcBackend(
        num_workers=num_workers,
        inject_crash=CRASH_SHARD,
        crash_mode=crash_mode,
        crash_point=crash_point,
        restart_policy=FAST_POLICY,
        poll_timeout=0.05,
    ) as backend:
        outcome = backend.run(workload)
    assert outcome.fingerprint() == expected
    assert outcome.details["worker_restarts"] >= 1
    assert CRASH_SHARD in outcome.details["shards_recovered"]
    assert outcome.lost_shards == ()
    assert _no_orphans()


@pytest.mark.parametrize("inject_crash", [None, CRASH_SHARD], ids=["clean", "crashed"])
def test_sixteen_client_run_restarts_exactly_the_crashed_worker(inject_crash):
    workload = _workload(num_clients=16, messages_per_client=12)
    with ProcBackend(
        num_workers=2,
        inject_crash=inject_crash,
        crash_mode="exit",
        crash_point="mid",
        restart_policy=FAST_POLICY,
        poll_timeout=0.05,
    ) as backend:
        outcome = backend.run(workload)
    assert outcome.fingerprint() == _sim_fingerprint(workload)
    crashed = inject_crash is not None
    assert outcome.details["worker_restarts"] == int(crashed)
    assert (CRASH_SHARD in outcome.details["shards_recovered"]) == crashed
    assert outcome.lost_shards == ()
    assert _no_orphans()


def test_recovery_counters_reach_telemetry_registry():
    workload = _workload()
    telemetry = Telemetry()
    with ProcBackend(
        num_workers=2,
        telemetry=telemetry,
        inject_crash=CRASH_SHARD,
        crash_mode="exit",
        crash_point="mid",
        restart_policy=FAST_POLICY,
        poll_timeout=0.05,
    ) as backend:
        outcome = backend.run(workload)
    assert outcome.fingerprint() == _sim_fingerprint(workload)
    counters = telemetry.registry.snapshot()["counters"]
    assert counters["runtime.worker_restarts"] >= 1
    assert counters["runtime.shards_recovered"] >= 1
    names = [record.name for record in telemetry.event_records if record.kind == "runtime"]
    for expected_event in ("worker_spawn", "worker_death", "worker_backoff", "worker_restart"):
        assert expected_event in names
    assert _no_orphans()


def test_exhausted_budget_excludes_lost_shards_without_raising():
    workload = _workload()
    with ProcBackend(
        num_workers=4,
        inject_crash=CRASH_SHARD,
        crash_mode="exit",
        crash_point="start",
        restart_policy=RestartPolicy(max_restarts=0),
        on_shard_loss="exclude",
        poll_timeout=0.05,
    ) as backend:
        outcome = backend.run(workload)
    # one worker per shard: exactly the crashed shard is excluded, and the
    # merge finalizes over the three survivors
    assert outcome.lost_shards == (CRASH_SHARD,)
    assert outcome.details["lost_shards"] == [CRASH_SHARD]
    merged_keys = {
        message.key for batch in outcome.merge.result.batches for message in batch.messages
    }
    survivor_keys = {
        message.key
        for shard, batches in enumerate(outcome.shard_batches)
        if shard != CRASH_SHARD
        for batch in batches
        for message in batch.messages
    }
    assert merged_keys == survivor_keys
    assert _no_orphans()


def test_clean_exit_with_unfinished_shards_does_not_hang():
    # regression: a worker exiting with code 0 while other workers stay alive
    # used to be skipped by the per-process `exitcode not in (0, None)` check
    # and the all-dead fallback never fired — the poll loop spun forever.
    # With a zero restart budget the supervisor must now surface the crash.
    workload = _workload()
    backend = ProcBackend(
        num_workers=2,
        inject_crash=CRASH_SHARD,
        crash_mode="clean",
        crash_point="start",
        restart_policy=RestartPolicy(max_restarts=0),
        poll_timeout=0.05,
    )
    with pytest.raises(WorkerCrashed) as excinfo:
        backend.run(workload)
    assert CRASH_SHARD in excinfo.value.shard_ids
    backend.close()
    backend.close()  # idempotent after a failed, partially drained run
    assert _no_orphans()


def test_restart_policy_validates_and_backs_off_exponentially():
    policy = RestartPolicy(max_restarts=3, backoff_base=0.1, backoff_cap=0.3)
    assert policy.backoff_for(0) == pytest.approx(0.1)
    assert policy.backoff_for(1) == pytest.approx(0.2)
    assert policy.backoff_for(2) == pytest.approx(0.3)  # capped
    assert RestartPolicy(backoff_base=0.0).backoff_for(5) == 0.0
    with pytest.raises(ValueError):
        RestartPolicy(max_restarts=-1)
    with pytest.raises(ValueError):
        RestartPolicy(backoff_base=-0.1)
    with pytest.raises(ValueError):
        ProcBackend(crash_point="sideways")
    with pytest.raises(ValueError):
        ProcBackend(on_shard_loss="shrug")
    with pytest.raises(ValueError):
        ProcBackend(crash_mode="unplug")
