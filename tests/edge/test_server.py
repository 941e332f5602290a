"""Socket-level edge behaviour: handshake rejections, dedup acks,
disconnect policy, and bounded-queue backpressure."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core.config import TommyConfig
from repro.distributions.parametric import GaussianDistribution
from repro.edge import protocol
from repro.edge.client import EdgeClient, EdgeError
from repro.edge.server import EdgeServer
from repro.network.message import Heartbeat, TimestampedMessage
from repro.obs import Telemetry
from repro.runtime.live import LiveClusterSpec, LiveDispatcher

CLIENTS = {f"client-{index}": GaussianDistribution(0.0, 0.01) for index in range(4)}


def make_server(telemetry=None, max_inflight=64, **dispatcher_kwargs) -> EdgeServer:
    spec = LiveClusterSpec(
        client_distributions=dict(CLIENTS),
        num_shards=2,
        config=TommyConfig(seed=5),
    )
    dispatcher = LiveDispatcher(spec, runtime="sim", telemetry=telemetry, **dispatcher_kwargs)
    return EdgeServer(dispatcher, max_inflight=max_inflight, telemetry=telemetry)


def message(client: str, vtime: float, message_id: int, seq: int = 0) -> TimestampedMessage:
    return TimestampedMessage(
        client_id=client,
        timestamp=vtime,
        true_time=vtime,
        message_id=message_id,
        sequence_number=seq,
    )


def test_unknown_protocol_version_rejected_with_typed_error():
    async def run():
        async with make_server() as server:
            client = await EdgeClient.connect(
                "127.0.0.1", server.port, handshake=False
            )
            with pytest.raises(EdgeError) as excinfo:
                await client.hello(version=99)
            assert excinfo.value.code == protocol.ERR_UNSUPPORTED_VERSION
            await client.abort()
            # the server survives the rejection and serves the next client
            survivor = await EdgeClient.connect("127.0.0.1", server.port, source="ok")
            await survivor.close()

    asyncio.run(run())


def test_duplicate_hello_rejected():
    async def run():
        async with make_server() as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="dup")
            with pytest.raises(EdgeError) as excinfo:
                await client.hello(source="dup")
            assert excinfo.value.code == protocol.ERR_DUPLICATE_HELLO
            await client.abort()

    asyncio.run(run())


def test_message_before_hello_rejected():
    async def run():
        async with make_server() as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, handshake=False)
            with pytest.raises(EdgeError) as excinfo:
                await client.send_message(message("client-0", 1.0, message_id=1))
            assert excinfo.value.code == protocol.ERR_HELLO_REQUIRED
            await client.abort()

    asyncio.run(run())


def test_unknown_frame_type_rejected():
    async def run():
        async with make_server() as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="c")
            client.write_frame(0x42, {})
            await client.drain()
            with pytest.raises(EdgeError) as excinfo:
                await client.read_frame()
            assert excinfo.value.code == protocol.ERR_UNKNOWN_TYPE
            await client.abort()

    asyncio.run(run())


def test_oversized_length_prefix_rejected_not_hung():
    async def run():
        async with make_server() as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="big")
            client.write_bytes(struct.pack(">I", 1 << 30) + b"junk")
            await client.drain()
            with pytest.raises(EdgeError) as excinfo:
                await client.read_frame()
            assert excinfo.value.code == protocol.ERR_OVERSIZED_FRAME
            await client.abort()

    asyncio.run(run())


def test_unknown_client_rejected():
    async def run():
        async with make_server() as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="c")
            with pytest.raises(EdgeError) as excinfo:
                await client.send_message(message("intruder", 1.0, message_id=1))
            assert excinfo.value.code == protocol.ERR_UNKNOWN_CLIENT
            await client.abort()

    asyncio.run(run())


def test_unknown_client_heartbeat_rejected():
    """A HEARTBEAT for an unprovisioned client is refused like a MSG is: it
    must not be acked, buffered, or grow the routing table."""

    async def run():
        async with make_server() as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="c")
            with pytest.raises(EdgeError) as excinfo:
                await client.send_heartbeat(
                    Heartbeat(client_id="intruder", timestamp=1.0, true_time=1.0)
                )
            assert excinfo.value.code == protocol.ERR_UNKNOWN_CLIENT
            await client.abort()

    asyncio.run(run())


def test_duplicate_message_id_acked_as_rejected():
    async def run():
        telemetry = Telemetry()
        async with make_server(telemetry=telemetry) as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="c")
            first = await client.send_message(message("client-0", 1.0, message_id=77))
            second = await client.send_message(message("client-0", 1.0, message_id=77))
            assert first["admitted"] is True
            assert second["admitted"] is False
            await client.close()
            outcome = await server.finish()
        assert outcome.message_count == 1
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["edge.duplicates_rejected"] == 1

    asyncio.run(run())


def test_disconnect_mid_stream_still_sequences_admitted_messages():
    """Documented policy: admission is a promise — an acked message is
    sequenced even if its connection dies before CLOSE."""

    async def run():
        async with make_server() as server:
            dying = await EdgeClient.connect("127.0.0.1", server.port, source="dying")
            ack = await dying.send_message(message("client-0", 1.0, message_id=1, seq=1))
            assert ack["admitted"] is True
            await dying.abort()  # no CLOSE frame: mid-stream death

            steady = await EdgeClient.connect("127.0.0.1", server.port, source="steady")
            await steady.send_message(message("client-1", 2.0, message_id=2, seq=1))
            await steady.send_message(message("client-1", 3.0, message_id=3, seq=2))
            await steady.close()
            outcome = await server.finish()
        # all three admitted messages made it into the merged order
        merged = [m.key for batch in outcome.merge.result.batches for m in batch.messages]
        assert sorted(merged) == [("client-0", 1), ("client-1", 2), ("client-1", 3)]

    asyncio.run(run())


def test_disconnect_releases_watermark_hold():
    async def run():
        async with make_server() as server:
            silent = await EdgeClient.connect("127.0.0.1", server.port, source="silent")
            assert server.dispatcher.open_sources == 1
            await silent.abort()
            # the handler notices EOF and releases the source
            for _ in range(50):
                if server.dispatcher.open_sources == 0:
                    break
                await asyncio.sleep(0.02)
            assert server.dispatcher.open_sources == 0
            await server.finish()

    asyncio.run(run())


def test_firehose_backpressure_bounds_queue_depth():
    """A pipelined burst far larger than --max-inflight never pushes the
    intake queue past its bound (the gauge high-water mark proves it)."""

    async def run():
        telemetry = Telemetry()
        max_inflight = 4
        async with make_server(telemetry=telemetry, max_inflight=max_inflight) as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="hose")
            burst = [
                message("client-0", vtime=float(index), message_id=1000 + index, seq=index + 1)
                for index in range(200)
            ]
            acks = await client.stream(burst)
            assert all(ack["admitted"] for ack in acks)
            await client.close()
            outcome = await server.finish()

        assert outcome.message_count == 200
        assert server.intake_depth_peak <= max_inflight
        snapshot = telemetry.registry.snapshot()
        assert snapshot["gauges"]["edge.intake_depth_peak"] <= max_inflight
        # the burst actually hit the bound (otherwise this test proves nothing)
        assert snapshot["counters"]["edge.backpressure_stalls"] > 0

    asyncio.run(run())


def test_heartbeat_advances_watermark_and_acks():
    async def run():
        async with make_server() as server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="hb")
            from repro.network.message import Heartbeat

            ack = await client.send_heartbeat(
                Heartbeat(client_id="client-0", timestamp=5.0, true_time=5.0)
            )
            assert ack["vtime"] == 5.0
            await client.close()
            await server.finish()

    asyncio.run(run())


def test_dispatcher_failure_is_terminal_and_loud():
    """A dispatcher exception kills the intake pump; that must end the run
    with a typed error for the clients and an exception for the operator —
    not a finish() blocked forever on a queue nobody drains."""

    class Boom(RuntimeError):
        pass

    async def run():
        server = make_server()

        def explode():
            raise Boom("worker died")

        server.dispatcher.advance = explode
        async with server:
            client = await EdgeClient.connect("127.0.0.1", server.port, source="c")
            with pytest.raises(EdgeError) as excinfo:
                await client.send_message(message("client-0", 1.0, message_id=1))
                await client.read_frame()  # the MSG was acked before advance() blew up
            assert excinfo.value.code == protocol.ERR_SERVER_FAILURE
            await client.abort()
            with pytest.raises(Boom):
                await asyncio.wait_for(server.finish(), timeout=5.0)
            with pytest.raises(Boom):
                await asyncio.wait_for(server.serve_until_idle(idle_grace=0.01), timeout=5.0)

    asyncio.run(run())
