"""Loopback parity: the frozen workload through real sockets must merge
bitwise-identically to ``SimBackend`` — the edge cannot reorder traffic."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import TommyConfig
from repro.edge import protocol
from repro.edge.client import EdgeClient, EdgeError, replay_workload
from repro.edge.server import EdgeServer
from repro.network.message import Heartbeat
from repro.obs import Telemetry
from repro.runtime.base import ClusterWorkload
from repro.runtime.live import LiveClusterSpec, LiveDispatcher
from repro.runtime.sim import SimBackend
from repro.workloads.cluster import build_cluster_scenario


def _workload(num_clients: int = 12, num_shards: int = 3) -> ClusterWorkload:
    scenario = build_cluster_scenario(
        num_clients=num_clients, messages_per_client=4, seed=13
    )
    return ClusterWorkload.from_scenario(
        scenario, num_shards=num_shards, config=TommyConfig(seed=13)
    )


@pytest.mark.parametrize("runtime", ["sim", "procs"])
def test_loopback_socket_parity(runtime):
    workload = _workload()
    reference = SimBackend().run(workload).fingerprint()

    async def run():
        spec = LiveClusterSpec.from_workload(workload)
        dispatcher = LiveDispatcher(
            spec, runtime=runtime, num_workers=2 if runtime == "procs" else None
        )
        async with EdgeServer(dispatcher, max_inflight=8) as server:
            admitted = await replay_workload(
                "127.0.0.1", server.port, workload, connections=3
            )
            outcome = await server.finish()
        return admitted, outcome

    admitted, outcome = asyncio.run(run())
    assert admitted == len(workload.messages)
    assert outcome.backend == f"live-{runtime}"
    assert outcome.message_count == len(workload.messages)
    assert outcome.fingerprint() == reference
    assert outcome.details["late_arrivals"] == 0


def test_firehose_single_connection_parity():
    """Pipelined firehose through a tiny intake bound: backpressure engages
    and the merged order is still bitwise equal to the one-shot replay."""
    workload = _workload(num_clients=8, num_shards=2)
    reference = SimBackend().run(workload).fingerprint()

    async def run():
        telemetry = Telemetry()
        spec = LiveClusterSpec.from_workload(workload)
        dispatcher = LiveDispatcher(spec, runtime="sim", telemetry=telemetry)
        async with EdgeServer(dispatcher, max_inflight=4, telemetry=telemetry) as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="hose")
            acks = await client.stream(workload.messages_by_true_time())
            await client.close()
            outcome = await server.finish()
        return acks, outcome, server, telemetry

    acks, outcome, server, telemetry = asyncio.run(run())
    assert all(ack["admitted"] for ack in acks)
    assert outcome.fingerprint() == reference
    assert server.intake_depth_peak <= 4


def test_retransmitted_frames_do_not_change_the_merge():
    """Exactly-once through the socket: resending every frame (duplicate
    delivery) is acked as rejected and leaves the merged order untouched."""
    workload = _workload(num_clients=6, num_shards=2)
    reference = SimBackend().run(workload).fingerprint()

    async def run():
        spec = LiveClusterSpec.from_workload(workload)
        dispatcher = LiveDispatcher(spec, runtime="sim")
        async with EdgeServer(dispatcher, max_inflight=8) as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="dup")
            duplicates = 0
            for message in workload.messages_by_true_time():
                first = await client.send_message(message)
                second = await client.send_message(message)  # network duplicate
                assert first["admitted"] is True
                duplicates += 0 if second["admitted"] else 1
            await client.close()
            outcome = await server.finish()
        return duplicates, outcome

    duplicates, outcome = asyncio.run(run())
    assert duplicates == len(workload.messages)
    assert outcome.message_count == len(workload.messages)
    assert outcome.fingerprint() == reference


@pytest.mark.parametrize(
    "frame_type, field, value",
    [
        (protocol.MSG, "ts", float("nan")),
        (protocol.MSG, "ts", float("inf")),
        (protocol.MSG, "vtime", float("-inf")),
        (protocol.HEARTBEAT, "ts", float("nan")),
    ],
)
def test_non_finite_time_costs_its_connection_not_the_run(frame_type, field, value):
    """``json.loads`` accepts NaN / Infinity.  A ``ts: NaN`` MSG used to be
    acked ``admitted: true`` and then fail ``finish()`` for everyone ("no
    precedence recorded": its certainty window is before *and* after every
    other batch); now the frame gets ``bad-payload`` and the run goes on."""
    workload = _workload(num_clients=8, num_shards=2)
    reference = SimBackend().run(workload).fingerprint()
    template = workload.messages_by_true_time()[len(workload.messages) // 2]
    if frame_type == protocol.MSG:
        payload = protocol.message_payload(template)
        payload["id"] = 10**9
    else:
        payload = protocol.heartbeat_payload(
            Heartbeat(template.client_id, template.timestamp, template.true_time)
        )
    payload[field] = value

    async def run():
        spec = LiveClusterSpec.from_workload(workload)
        dispatcher = LiveDispatcher(spec, runtime="sim")
        async with EdgeServer(dispatcher, max_inflight=8) as server:
            offender = await EdgeClient.connect("127.0.0.1", server.port, source="offender")
            offender.write_frame(frame_type, payload)
            await offender.drain()
            with pytest.raises(EdgeError) as excinfo:
                await offender.read_frame()
            await offender.abort()
            admitted = await replay_workload("127.0.0.1", server.port, workload, connections=2)
            outcome = await server.finish()
        return excinfo.value, admitted, outcome

    error, admitted, outcome = asyncio.run(run())
    assert error.code == protocol.ERR_BAD_PAYLOAD
    assert "must be finite" in error.detail
    assert admitted == len(workload.messages)
    assert outcome.message_count == len(workload.messages)
    assert outcome.fingerprint() == reference
