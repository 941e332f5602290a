"""Socket-level rules between connections: one holder per source name, and
a client that does not read its acks is not read from."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.core.config import TommyConfig
from repro.distributions.parametric import GaussianDistribution
from repro.edge import protocol
from repro.edge.client import EdgeClient, EdgeError
from repro.edge.server import EdgeServer
from repro.network.message import TimestampedMessage
from repro.runtime.live import LiveClusterSpec, LiveDispatcher

CLIENTS = {f"client-{index}": GaussianDistribution(0.0, 0.01) for index in range(4)}


def make_server(max_inflight: int = 64) -> EdgeServer:
    spec = LiveClusterSpec(
        client_distributions=dict(CLIENTS),
        num_shards=2,
        config=TommyConfig(seed=5),
        heartbeat_slack=1e-3,
    )
    return EdgeServer(LiveDispatcher(spec, runtime="sim"), max_inflight=max_inflight)


def message(client: str, vtime: float, message_id: int, seq: int = 0) -> TimestampedMessage:
    return TimestampedMessage(
        client_id=client,
        timestamp=vtime,
        true_time=vtime,
        message_id=message_id,
        sequence_number=seq,
    )


async def released(server: EdgeServer, open_sources: int) -> None:
    """Wait for the server to notice a dropped connection."""
    for _ in range(50):
        if server.dispatcher.open_sources == open_sources:
            return
        await asyncio.sleep(0.02)
    assert server.dispatcher.open_sources == open_sources


def test_two_open_connections_may_not_share_a_source_name():
    """``open_source`` is a ``setdefault`` and the first CLOSE pops the hold for
    both: the second holder's next MSG used to come in behind the watermark."""

    async def run():
        async with make_server() as server:
            holder = await EdgeClient.connect("127.0.0.1", server.port, source="same")
            other = await EdgeClient.connect("127.0.0.1", server.port, source="other")
            intruder = await EdgeClient.connect("127.0.0.1", server.port, handshake=False)
            with pytest.raises(EdgeError) as excinfo:
                await intruder.hello(source="same")
            assert excinfo.value.code == protocol.ERR_DUPLICATE_SOURCE
            with pytest.raises(ConnectionResetError):  # refused, then closed
                await intruder.read_frame()
            await intruder.abort()
            # the first holder is untouched: it still holds the watermark back
            assert server.dispatcher.open_sources == 2
            await other.send_message(message("client-1", 5.0, message_id=2, seq=1))
            ack = await holder.send_message(message("client-0", 1.0, message_id=1, seq=1))
            assert ack["admitted"] is True
            await holder.close()
            await other.close()
            outcome = await server.finish()
        assert outcome.message_count == 2
        assert outcome.details["late_arrivals"] == 0

    asyncio.run(run())


def test_a_source_name_is_free_again_once_its_connection_is_gone():
    async def run():
        async with make_server() as server:
            first = await EdgeClient.connect("127.0.0.1", server.port, source="same")
            await first.close()
            second = await EdgeClient.connect("127.0.0.1", server.port, source="same")
            await second.abort()  # mid-stream death frees it too
            await released(server, open_sources=0)
            third = await EdgeClient.connect("127.0.0.1", server.port, source="same")
            ack = await third.send_message(message("client-0", 1.0, message_id=1, seq=1))
            assert ack["admitted"] is True
            await third.close()
            await server.finish()

    asyncio.run(run())


def test_an_unnamed_connection_cannot_collide_with_a_claimed_default_name():
    """The server's own ``conn-N`` default goes through the same check."""

    async def run():
        async with make_server() as server:
            squatter = await EdgeClient.connect("127.0.0.1", server.port, source="conn-1")
            unnamed = await EdgeClient.connect("127.0.0.1", server.port, handshake=False)
            with pytest.raises(EdgeError) as excinfo:
                await unnamed.hello(source="")
            assert excinfo.value.code == protocol.ERR_DUPLICATE_SOURCE
            await unnamed.abort()
            await squatter.close()
            await server.finish()

    asyncio.run(run())


def test_a_frame_no_validation_foresaw_costs_its_sender_alone():
    """``"seq": Infinity`` is an OverflowError in ``int()``, and the ERROR that
    quotes a client name as long as a frame may be would not fit in one: each
    used to be answered with ``server-failure`` on every connection."""
    overflowing = {**protocol.message_payload(message("client-0", 1.0, 1)), "seq": float("inf")}
    fields = {"ts": 0, "vtime": 0, "seq": 0, "id": 0}
    empty = protocol.encode_frame(protocol.MSG, {"client": "", **fields})
    name = "x" * (protocol.MAX_FRAME_BYTES - (len(empty) - 4))

    async def run():
        async with make_server() as server:
            bystander = await EdgeClient.connect("127.0.0.1", server.port, source="bystander")
            for source, payload, code in (
                ("overflow", overflowing, protocol.ERR_BAD_PAYLOAD),
                ("longname", {"client": name, **fields}, protocol.ERR_UNKNOWN_CLIENT),
            ):
                hostile = await EdgeClient.connect("127.0.0.1", server.port, source=source)
                hostile.write_bytes(protocol.encode_frame(protocol.MSG, payload))
                with pytest.raises(EdgeError) as excinfo:
                    await hostile.read_frame()
                assert excinfo.value.code == code
                await hostile.abort()
                await released(server, open_sources=1)
            ack = await bystander.send_message(message("client-1", 2.0, message_id=2, seq=1))
            assert ack["admitted"] is True
            await bystander.close()
            outcome = await server.finish()  # does not raise
        assert outcome.message_count == 1

    asyncio.run(run())


def test_a_pipeliner_that_never_reads_its_acks_is_pushed_back_not_buffered():
    """``transport.write`` never blocks, so only ``pause_writing`` can stop a
    non-reading client from growing the server's write buffer without bound."""
    burst = 20_000

    async def run():
        async with make_server() as server:
            # small kernel buffers on both ends, so the acks back up into the
            # server's transport after a few thousand frames instead of a million
            server._server.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", server.port))
            client = EdgeClient(*await asyncio.open_connection(sock=sock))
            await client.hello(source="hose")
            (conn,) = server._conns
            transport = conn.transport
            _, high_water = transport.get_write_buffer_limits()

            # one MSG retransmitted: cheap to gate (a duplicate), acked every time
            frame = protocol.encode_frame(
                protocol.MSG, protocol.message_payload(message("client-0", 1.0, 7, seq=1))
            )
            for _ in range(burst):
                client.write_bytes(frame)
            peak = 0
            for _ in range(500):
                peak = max(peak, transport.get_write_buffer_size())
                if conn.write_paused:
                    break
                await asyncio.sleep(0.01)
            # pause_writing fired (a stall at the intake bound stops reading too,
            # and is not what is under test): over the mark the socket is left alone
            assert conn.write_paused
            assert not transport.is_reading()
            admitted = 0
            for index in range(burst):
                admitted += (await client.read_frame()).payload["admitted"]
                if index % 250 == 0:
                    peak = max(peak, transport.get_write_buffer_size())
            assert admitted == 1
            # the mark, plus the acks of the chunk that was being handled when it was crossed
            assert peak <= 3 * high_water
            ack = await client.close()  # reading resumed: the CLOSE was seen
            assert ack is not None and ack.payload["messages"] == burst
            await server.finish()

    asyncio.run(run())
