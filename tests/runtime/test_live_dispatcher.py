"""LiveDispatcher semantics: watermark discipline, dedupe, late arrivals,
and bitwise parity with the frozen ``SimBackend`` path."""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.core.config import TommyConfig
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import Heartbeat, TimestampedMessage
from repro.obs import Telemetry
from repro.runtime.base import ClusterWorkload
from repro.runtime.live import LIVE_RUNTIMES, LiveClusterSpec, LiveDispatcher
from repro.runtime.procs import DRAIN_GRACE, WorkerCrashed
from repro.runtime.sim import SimBackend
from repro.workloads.cluster import build_cluster_scenario


def _workload(num_clients: int = 10, num_shards: int = 3, seed: int = 29) -> ClusterWorkload:
    scenario = build_cluster_scenario(
        num_clients=num_clients, messages_per_client=5, seed=seed
    )
    return ClusterWorkload.from_scenario(
        scenario, num_shards=num_shards, config=TommyConfig(seed=seed)
    )


def _feed(dispatcher: LiveDispatcher, workload: ClusterWorkload, sources: int = 3) -> None:
    """Round-robin the frozen messages over several sources, advancing the
    watermark every few submissions like a real intake loop would."""
    names = [f"src-{index}" for index in range(sources)]
    for name in names:
        dispatcher.open_source(name)
    for index, message in enumerate(workload.messages_by_true_time()):
        dispatcher.submit(names[index % sources], message)
        if index % 4 == 3:
            dispatcher.advance()
    for name in names:
        dispatcher.close_source(name)
    dispatcher.advance()


@pytest.mark.parametrize("runtime", LIVE_RUNTIMES)
def test_dispatcher_parity_with_sim_backend(runtime):
    workload = _workload()
    reference = SimBackend().run(workload).fingerprint()

    spec = LiveClusterSpec.from_workload(workload)
    kwargs = {"num_workers": 2} if runtime == "procs" else {}
    with LiveDispatcher(spec, runtime=runtime, **kwargs) as dispatcher:
        _feed(dispatcher, workload)
        outcome = dispatcher.finish()

    assert outcome.backend == f"live-{runtime}"
    assert outcome.message_count == len(workload.messages)
    assert outcome.fingerprint() == reference
    assert outcome.details["late_arrivals"] == 0


def test_spec_from_workload_mirrors_frozen_parameters():
    workload = _workload(num_clients=6, num_shards=2)
    spec = LiveClusterSpec.from_workload(workload)
    assert spec.num_shards == 2
    assert sorted(spec.client_ids()) == sorted(workload.client_ids)
    assert spec.config == workload.config


def test_duplicate_submit_rejected_before_routing():
    spec = LiveClusterSpec.from_workload(_workload(num_clients=4, num_shards=2))
    client = sorted(spec.client_ids())[0]
    with LiveDispatcher(spec, runtime="sim") as dispatcher:
        dispatcher.open_source("a")
        first = TimestampedMessage(
            client_id=client, timestamp=1.0, true_time=1.0, message_id=7
        )
        assert dispatcher.submit("a", first) is True
        assert dispatcher.submit("a", first) is False
        assert dispatcher.gate.duplicates_suppressed == 1
        assert dispatcher.admitted == 1
        dispatcher.close_source("a")
        outcome = dispatcher.finish()
    assert outcome.message_count == 1


def test_unknown_client_raises_key_error():
    spec = LiveClusterSpec.from_workload(_workload(num_clients=4, num_shards=2))
    with LiveDispatcher(spec, runtime="sim") as dispatcher:
        dispatcher.open_source("a")
        with pytest.raises(KeyError):
            dispatcher.submit(
                "a",
                TimestampedMessage(
                    client_id="nobody", timestamp=1.0, true_time=1.0, message_id=1
                ),
            )
        dispatcher.close_source("a")
        dispatcher.finish()


def test_unknown_client_heartbeat_raises_key_error():
    spec = LiveClusterSpec.from_workload(_workload(num_clients=4, num_shards=2))
    with LiveDispatcher(spec, runtime="sim") as dispatcher:
        dispatcher.open_source("a")
        with pytest.raises(KeyError):
            dispatcher.submit_heartbeat(
                "a", Heartbeat(client_id="nobody", timestamp=1.0, true_time=1.0)
            )
        # the invented id neither moved the watermark nor entered the routing table
        assert math.isinf(dispatcher.watermark)
        dispatcher.close_source("a")
        dispatcher.finish()


@pytest.mark.parametrize(
    "timestamp, true_time",
    [(math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf), (1.0, math.nan)],
)
def test_non_finite_times_raise_value_error_and_leave_the_run_intact(timestamp, true_time):
    # a NaN timestamp has the certainty window (+inf, -inf) -- before *and*
    # after every other batch -- and an infinite vtime pins a watermark: one
    # such message used to cost finish() the whole run
    workload = _workload(num_clients=8, num_shards=2)
    reference = SimBackend().run(workload).fingerprint()
    spec = LiveClusterSpec.from_workload(workload)
    client = sorted(spec.client_ids())[0]
    with LiveDispatcher(spec, runtime="sim") as dispatcher:
        dispatcher.open_source("a")
        with pytest.raises(ValueError, match="non-finite"):
            dispatcher.submit(
                "a",
                TimestampedMessage(
                    client_id=client, timestamp=timestamp, true_time=true_time, message_id=10**9
                ),
            )
        with pytest.raises(ValueError, match="non-finite"):
            dispatcher.submit_heartbeat(
                "a", Heartbeat(client_id=client, timestamp=timestamp, true_time=true_time)
            )
        # refused before anything was noted, gated or buffered
        assert dispatcher.admitted == 0
        assert math.isinf(dispatcher.watermark) and dispatcher.watermark < 0
        dispatcher.close_source("a")
        _feed(dispatcher, workload)
        outcome = dispatcher.finish()
    assert outcome.message_count == len(workload.messages)
    assert outcome.fingerprint() == reference


def test_watermark_is_min_over_open_sources():
    spec = LiveClusterSpec.from_workload(_workload(num_clients=4, num_shards=2))
    clients = sorted(spec.client_ids())
    with LiveDispatcher(spec, runtime="sim") as dispatcher:
        dispatcher.open_source("fast")
        dispatcher.open_source("slow")
        assert math.isinf(dispatcher.watermark) and dispatcher.watermark < 0

        dispatcher.submit(
            "fast",
            TimestampedMessage(
                client_id=clients[0], timestamp=9.0, true_time=9.0, message_id=1
            ),
        )
        # the slow source has seen nothing: the global watermark holds at -inf
        assert math.isinf(dispatcher.watermark) and dispatcher.watermark < 0

        dispatcher.submit(
            "slow",
            TimestampedMessage(
                client_id=clients[1], timestamp=4.0, true_time=4.0, message_id=2
            ),
        )
        assert dispatcher.watermark == 4.0

        dispatcher.close_source("slow")
        assert dispatcher.watermark == 9.0
        dispatcher.close_source("fast")
        assert math.isinf(dispatcher.watermark)
        outcome = dispatcher.finish()
    assert outcome.message_count == 2


def test_late_arrival_is_clamped_and_counted():
    telemetry = Telemetry()
    spec = LiveClusterSpec.from_workload(_workload(num_clients=4, num_shards=2))
    clients = sorted(spec.client_ids())
    with LiveDispatcher(spec, runtime="sim", telemetry=telemetry) as dispatcher:
        dispatcher.open_source("a")
        dispatcher.submit(
            "a",
            TimestampedMessage(
                client_id=clients[0], timestamp=5.0, true_time=5.0, message_id=1
            ),
        )
        dispatcher.advance()
        # FIFO contract violated: vtime below the already-advanced watermark
        dispatcher.submit(
            "a",
            TimestampedMessage(
                client_id=clients[1], timestamp=1.0, true_time=1.0, message_id=2
            ),
        )
        dispatcher.close_source("a")
        outcome = dispatcher.finish()
    assert dispatcher.late_arrivals == 1
    assert outcome.details["late_arrivals"] == 1
    # the late message is clamped to "now", not dropped
    assert outcome.message_count == 2


def test_finish_is_idempotent_and_submit_after_finish_raises():
    spec = LiveClusterSpec.from_workload(_workload(num_clients=4, num_shards=2))
    client = sorted(spec.client_ids())[0]
    dispatcher = LiveDispatcher(spec, runtime="sim")
    dispatcher.open_source("a")
    dispatcher.submit(
        "a",
        TimestampedMessage(client_id=client, timestamp=1.0, true_time=1.0, message_id=1),
    )
    dispatcher.close_source("a")
    first = dispatcher.finish()
    second = dispatcher.finish()
    assert first is second
    with pytest.raises(RuntimeError):
        dispatcher.submit(
            "a",
            TimestampedMessage(
                client_id=client, timestamp=2.0, true_time=2.0, message_id=2
            ),
        )


def test_heartbeat_advances_source_watermark():
    spec = LiveClusterSpec.from_workload(_workload(num_clients=4, num_shards=2))
    clients = sorted(spec.client_ids())
    with LiveDispatcher(spec, runtime="sim") as dispatcher:
        dispatcher.open_source("a")
        dispatcher.submit_heartbeat(
            "a", Heartbeat(client_id=clients[0], timestamp=7.0, true_time=7.0)
        )
        assert dispatcher.watermark == 7.0
        dispatcher.close_source("a")
        dispatcher.finish()


def _finish_after_trailing_heartbeat(workload, runtime):
    """Stream the workload, then one ordinary heartbeat 50 ms past the last
    message (an idle client keeping its session alive), then drain."""
    messages = workload.messages_by_true_time()
    last = messages[-1]
    spec = LiveClusterSpec.from_workload(workload)
    kwargs = {"num_workers": 2} if runtime == "procs" else {}
    with LiveDispatcher(spec, runtime=runtime, **kwargs) as dispatcher:
        dispatcher.open_source("a")
        for message in messages:
            dispatcher.submit("a", message)
        dispatcher.submit_heartbeat(
            "a",
            Heartbeat(
                client_id=last.client_id,
                timestamp=last.timestamp + 0.05,
                true_time=last.true_time + 0.05,
            ),
        )
        # the runtime's clock is now past the closing-heartbeat horizon,
        # which is computed over admitted *messages* only
        dispatcher.advance()
        dispatcher.close_source("a")
        return dispatcher.finish()


@pytest.mark.parametrize("runtime", LIVE_RUNTIMES)
def test_trailing_heartbeat_does_not_break_finish(runtime):
    # regression: the procs worker scheduled the closing heartbeats at the
    # unclamped horizon and died with "cannot schedule event ... time is
    # already ..."; the one close routine clamps to the loop's now
    workload = _workload()
    outcome = _finish_after_trailing_heartbeat(workload, runtime)
    assert outcome.message_count == len(workload.messages)
    reference = _finish_after_trailing_heartbeat(workload, "sim")
    assert outcome.fingerprint() == reference.fingerprint()


def test_procs_worker_death_is_detected_on_advance():
    workload = _workload()
    messages = workload.messages_by_true_time()
    spec = LiveClusterSpec.from_workload(workload)
    with LiveDispatcher(spec, runtime="procs", num_workers=2) as dispatcher:
        dispatcher.open_source("a")
        for message in messages[: len(messages) // 2]:
            dispatcher.submit("a", message)
        dispatcher.advance()
        time.sleep(0.3)  # let the wave settle: the kill must not land mid-write
        victim = next(
            child for child in mp.active_children() if child.name == "repro-shard-worker-1"
        )
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        assert not victim.is_alive()
        with pytest.raises(WorkerCrashed) as excinfo:
            for message in messages[len(messages) // 2 :][: DRAIN_GRACE + 1]:
                dispatcher.submit("a", message)
                dispatcher.advance()
        # worker 1 of 2 hosts shard 1 of 3
        assert excinfo.value.shard_ids == (1,)
        # not a one-off: a caller that keeps polling keeps getting the crash
        with pytest.raises(WorkerCrashed):
            dispatcher.advance()
    for child in mp.active_children():
        child.join(timeout=2.0)
    assert not mp.active_children()


def test_a_source_that_is_not_open_is_refused_before_any_state_changes():
    # regression: submit / submit_heartbeat re-registered a closed or never
    # opened source, which then held the watermark until finish()
    spec = LiveClusterSpec.from_workload(_workload(num_clients=4, num_shards=2))
    clients = sorted(spec.client_ids())
    with LiveDispatcher(spec, runtime="sim") as dispatcher:
        dispatcher.open_source("a")
        dispatcher.open_source("b")
        first = TimestampedMessage(client_id=clients[0], timestamp=1.0, true_time=1.0, message_id=1)
        dispatcher.submit("a", first)
        dispatcher.close_source("a")
        late = TimestampedMessage(client_id=clients[1], timestamp=2.0, true_time=2.0, message_id=2)
        for source in ("a", "ghost"):
            with pytest.raises(KeyError, match="not open"):
                dispatcher.submit(source, late)
            with pytest.raises(KeyError, match="not open"):
                dispatcher.submit_heartbeat(
                    source, Heartbeat(client_id=clients[1], timestamp=2.0, true_time=2.0)
                )
        assert dispatcher.open_sources == 1
        assert dispatcher.admitted == 1
        # the refused message never reached the exactly-once gate
        assert dispatcher.submit("b", late) is True
        dispatcher.close_source("b")
        # the last open source is closed: nothing pins the watermark
        assert dispatcher.watermark == math.inf
        outcome = dispatcher.finish()
    assert outcome.message_count == 2
