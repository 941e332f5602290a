"""Runtime seam: protocols, clock handles and the workload container."""

from __future__ import annotations

import pytest

from repro.core.config import TommyConfig
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage
from repro.runtime.base import (
    HEARTBEAT_SLACK,
    RUNTIME_NAMES,
    ClockHandle,
    ClusterWorkload,
    Scheduler,
    SchedulerClock,
    WallClock,
    clock_of,
    resolve_backend,
)
from repro.runtime.procs import ProcBackend
from repro.runtime.sim import SimBackend
from repro.simulation.event_loop import EventLoop


def _workload(num_clients=4, num_shards=2, messages_per_client=2):
    distributions = {
        f"c{i}": GaussianDistribution(0.0, 0.001 * (i + 1)) for i in range(num_clients)
    }
    messages = []
    for i in range(num_clients):
        for j in range(messages_per_client):
            t = 0.01 * (j * num_clients + i)
            messages.append(
                TimestampedMessage(client_id=f"c{i}", timestamp=t, true_time=t)
            )
    return ClusterWorkload(
        messages=tuple(messages),
        client_distributions=distributions,
        num_shards=num_shards,
        config=TommyConfig(seed=5),
    )


def test_event_loop_satisfies_scheduler_protocol():
    loop = EventLoop()
    assert isinstance(loop, Scheduler)


def test_loop_clock_handle_tracks_simulated_time():
    loop = EventLoop()
    clock = clock_of(loop)
    assert isinstance(clock, ClockHandle)
    assert clock.now() == 0.0
    loop.schedule_at(1.25, lambda: None)
    loop.run()
    assert clock.now() == 1.25
    # the native handle is cached on the loop
    assert clock_of(loop) is clock


def test_scheduler_clock_wraps_foreign_schedulers():
    class Bare:
        now = 3.5

        def schedule_at(self, *a, **k):
            raise NotImplementedError

        def schedule_after(self, *a, **k):
            raise NotImplementedError

        def cancel(self, event):
            raise NotImplementedError

    clock = clock_of(Bare())
    assert isinstance(clock, SchedulerClock)
    assert clock.now() == 3.5


def test_wall_clock_is_monotone():
    clock = WallClock()
    assert isinstance(clock, ClockHandle)
    first = clock.now()
    assert clock.now() >= first


def test_workload_validation():
    with pytest.raises(ValueError, match="num_shards"):
        _workload(num_shards=0)
    with pytest.raises(ValueError, match="unregistered"):
        ClusterWorkload(
            messages=(TimestampedMessage(client_id="ghost", timestamp=0.0, true_time=0.0),),
            client_distributions={},
            num_shards=1,
        )


def test_closing_heartbeat_covers_whole_workload():
    workload = _workload()
    end_time, beacon = workload.closing_heartbeat()
    latest = max(m.true_time for m in workload.messages)
    assert end_time == pytest.approx(latest + HEARTBEAT_SLACK)
    assert beacon == pytest.approx(
        max(m.timestamp for m in workload.messages) + HEARTBEAT_SLACK
    )
    silent = ClusterWorkload(
        messages=workload.messages,
        client_distributions=workload.client_distributions,
        num_shards=2,
        final_heartbeats=False,
    )
    assert silent.closing_heartbeat() is None


def test_router_assignments_cover_every_client_exactly_once():
    workload = _workload(num_clients=7, num_shards=3)
    assignments = workload.shard_assignments()
    flat = [client for shard in assignments for client in shard]
    assert sorted(flat) == sorted(workload.client_ids)
    assert len(flat) == len(set(flat))


def test_resolve_backend_names():
    assert isinstance(resolve_backend("sim"), SimBackend)
    assert isinstance(resolve_backend("procs"), ProcBackend)
    assert isinstance(resolve_backend("procs", num_workers=2), ProcBackend)
    with pytest.raises(ValueError, match="unknown runtime"):
        resolve_backend("threads")
    assert RUNTIME_NAMES == ("sim", "procs")


def test_backends_are_context_managers():
    with resolve_backend("sim") as backend:
        assert backend.name == "sim"
    with resolve_backend("procs") as backend:
        assert backend.name == "procs"


def test_runtime_outcome_throughput():
    workload = _workload()
    outcome = SimBackend().run(workload)
    assert outcome.message_count == len(workload.messages)
    assert outcome.messages_per_second > 0
    assert outcome.fingerprint()  # non-empty merged order
