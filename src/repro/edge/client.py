"""In-repo asyncio client for the ingestion edge (tests + examples).

:class:`EdgeClient` opens one connection, performs the versioned HELLO
handshake, and streams messages/heartbeats with either per-message acks
(:meth:`send_message`) or pipelined writes with deferred ack collection
(:meth:`stream` — the firehose mode the backpressure tests use).  A typed
ERROR frame from the server raises :class:`EdgeError` carrying the error
code, so misbehaving-client tests can assert the exact rejection.

:func:`replay_workload` drives a frozen
:class:`~repro.runtime.base.ClusterWorkload` through real sockets — clients
split round-robin across N connections, each connection sending its clients'
messages in ``true_time`` order (the per-source FIFO watermark contract) —
which is the loopback half of the bitwise parity test.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional

from repro.edge import protocol
from repro.edge.protocol import Frame, FrameDecoder, ProtocolError
from repro.network.message import Heartbeat, TimestampedMessage
from repro.runtime.base import ClusterWorkload


class EdgeError(Exception):
    """The server answered with a typed ERROR frame."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class EdgeClient:
    """One framed connection to an :class:`~repro.edge.server.EdgeServer`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._pending: List[Frame] = []

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        source: str = "",
        version: int = protocol.PROTOCOL_VERSION,
        handshake: bool = True,
    ) -> "EdgeClient":
        """Open a connection and (by default) complete the HELLO handshake."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        if handshake:
            await client.hello(source=source, version=version)
        return client

    # -------------------------------------------------------------- raw frames
    def write_frame(self, frame_type: int, payload: Optional[Dict[str, object]] = None) -> None:
        """Queue one encoded frame on the transport (no flush)."""
        self._writer.write(protocol.encode_frame(frame_type, payload))

    def write_bytes(self, data: bytes) -> None:
        """Queue raw bytes — lets tests send truncated/corrupt frames."""
        self._writer.write(data)

    async def drain(self) -> None:
        """Flush the transport write buffer."""
        await self._writer.drain()

    async def read_frame(self, timeout: float = 5.0) -> Frame:
        """Read the next frame; raises :class:`EdgeError` on ERROR frames."""
        while not self._pending:
            data = await asyncio.wait_for(self._reader.read(65536), timeout=timeout)
            if not data:
                raise ConnectionResetError("server closed the connection")
            self._pending.extend(self._decoder.feed(data))
        frame = self._pending.pop(0)
        if frame.type == protocol.ERROR:
            raise EdgeError(
                str(frame.payload.get("code", "unknown")),
                str(frame.payload.get("detail", "")),
            )
        return frame

    async def _expect(self, frame_type: int) -> Frame:
        frame = await self.read_frame()
        if frame.type != frame_type:
            raise ProtocolError(
                protocol.ERR_UNKNOWN_TYPE,
                f"expected {protocol.FRAME_NAMES.get(frame_type)}, got {frame.name}",
            )
        return frame

    # --------------------------------------------------------------- handshake
    async def hello(self, source: str = "", version: int = protocol.PROTOCOL_VERSION) -> Frame:
        """Send HELLO and await HELLO_ACK (raises :class:`EdgeError` on refusal)."""
        self.write_frame(protocol.HELLO, protocol.hello_payload(source, version=version))
        await self.drain()
        return await self._expect(protocol.HELLO_ACK)

    # ----------------------------------------------------------------- traffic
    async def send_message(self, message: TimestampedMessage) -> Dict[str, object]:
        """Send one MSG and await its MSG_ACK payload (``{"id", "admitted"}``)."""
        self.write_frame(protocol.MSG, protocol.message_payload(message))
        await self.drain()
        return dict((await self._expect(protocol.MSG_ACK)).payload)

    async def send_heartbeat(self, heartbeat: Heartbeat) -> Dict[str, object]:
        """Send one HEARTBEAT and await its ack."""
        self.write_frame(protocol.HEARTBEAT, protocol.heartbeat_payload(heartbeat))
        await self.drain()
        return dict((await self._expect(protocol.HEARTBEAT_ACK)).payload)

    async def stream(self, messages: Iterable[TimestampedMessage]) -> List[Dict[str, object]]:
        """Pipeline a burst: write every MSG first, then collect the acks.

        This is the firehose mode — nothing throttles the writes except the
        server's intake bound (it stops reading a connection once
        ``max_inflight`` items wait for an advance) and TCP flow control.
        """
        count = 0
        for message in messages:
            self.write_frame(protocol.MSG, protocol.message_payload(message))
            count += 1
        await self.drain()
        acks = []
        for _ in range(count):
            acks.append(dict((await self._expect(protocol.MSG_ACK)).payload))
        return acks

    async def close(self, wait_ack: bool = True) -> Optional[Frame]:
        """Send CLOSE, optionally await CLOSE_ACK, and tear down the socket."""
        ack: Optional[Frame] = None
        try:
            self.write_frame(protocol.CLOSE)
            await self.drain()
            if wait_ack:
                ack = await self._expect(protocol.CLOSE_ACK)
        finally:
            await self.abort()
        return ack

    async def abort(self) -> None:
        """Drop the connection without the CLOSE exchange (mid-stream death)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def replay_workload(
    host: str,
    port: int,
    workload: ClusterWorkload,
    connections: int = 2,
) -> int:
    """Stream a frozen workload through real sockets; returns admitted count.

    Clients are split round-robin (sorted order) over ``connections``
    sockets; each socket sends its clients' messages in ``true_time`` order,
    honouring the per-source FIFO watermark contract, then closes cleanly.
    Connections interleave their sends message-by-message so the server
    genuinely multiplexes sources (rather than draining one connection at a
    time).
    """
    ids = list(workload.client_ids)
    connections = max(1, min(connections, len(ids) or 1))
    owner = {client: index % connections for index, client in enumerate(sorted(ids))}
    slices: List[List[TimestampedMessage]] = [[] for _ in range(connections)]
    for message in workload.messages_by_true_time():
        slices[owner[message.client_id]].append(message)

    clients = [
        await EdgeClient.connect(host, port, source=f"replay-{index}")
        for index in range(connections)
    ]
    admitted = 0
    try:
        cursors = [0] * connections
        # interleave by virtual time across connections: always send the
        # globally-earliest unsent message next, on its owner connection
        while True:
            best = -1
            for index in range(connections):
                if cursors[index] < len(slices[index]):
                    candidate = slices[index][cursors[index]]
                    if best < 0 or candidate.true_time < slices[best][cursors[best]].true_time:
                        best = index
            if best < 0:
                break
            ack = await clients[best].send_message(slices[best][cursors[best]])
            cursors[best] += 1
            if ack.get("admitted"):
                admitted += 1
    finally:
        for client in clients:
            try:
                await client.close()
            except (ConnectionResetError, EdgeError, OSError):
                await client.abort()
    return admitted


__all__ = ["EdgeClient", "EdgeError", "replay_workload"]
