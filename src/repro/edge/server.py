"""Asyncio socket front door feeding the live dispatcher.

:class:`EdgeServer` accepts client connections on a TCP socket, speaks the
length-prefixed frame protocol (:mod:`repro.edge.protocol`), and feeds
admitted traffic into a :class:`~repro.runtime.live.LiveDispatcher`.

Backpressure: every decoded MSG/HEARTBEAT goes through one *bounded* global
intake queue (``max_inflight`` items).  When the queue is full the
connection handler blocks on ``await queue.put(...)`` — it stops reading its
socket, the kernel receive buffer fills, and TCP flow control pushes back to
the client.  The queue depth is exported as the ``edge.intake_depth`` gauge
(with ``edge.intake_depth_peak`` as its high-water mark), so "bounded" is an
observable invariant: the peak can never exceed ``max_inflight``.  Each
stall is counted in ``edge.backpressure_stalls``.

Disconnect policy (documented contract, tested in ``tests/edge``): messages
*admitted* before a mid-stream disconnect are still sequenced — admission is
a promise — while the dead connection's watermark hold is released so the
rest of the cluster keeps advancing.  Protocol violations are answered with
a typed ERROR frame and a close; the server never hangs on bad input.

Failure policy: an exception out of the dispatcher (a dead procs worker
surfaces on ``advance()``) kills the intake pump, and a dead pump is
terminal and loud — every open connection gets a typed ``server-failure``
ERROR frame and is closed, the listener stops accepting, and
:meth:`EdgeServer.finish` / :meth:`EdgeServer.serve_until_idle` re-raise the
pump's exception instead of waiting on a queue nobody drains.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional

from repro.edge import protocol
from repro.edge.protocol import Frame, FrameDecoder, ProtocolError
from repro.obs.telemetry import Telemetry, resolve
from repro.runtime.base import RuntimeOutcome
from repro.runtime.live import LiveDispatcher


class _Connection:
    """Per-connection state: source identity, writer, handshake progress."""

    def __init__(self, index: int, writer: asyncio.StreamWriter) -> None:
        self.source = f"conn-{index}"
        self.writer = writer
        self.hello_seen = False
        self.peer = writer.get_extra_info("peername")
        self.closed = asyncio.Event()
        self.messages = 0


class EdgeServer:
    """Live ingestion edge: socket accept loop + bounded intake pump."""

    def __init__(
        self,
        dispatcher: LiveDispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        telemetry: Optional[Telemetry] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        read_chunk: int = 65536,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self._dispatcher = dispatcher
        self._host = host
        self._port = port
        self._max_inflight = int(max_inflight)
        self._max_frame_bytes = int(max_frame_bytes)
        self._read_chunk = int(read_chunk)
        self._obs = resolve(telemetry)
        self._started_at = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._intake: Optional[asyncio.Queue] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._handlers: Dict[_Connection, asyncio.Task] = {}
        self._failure: Optional[BaseException] = None
        self._next_conn = 0
        self._open_conns = 0
        self._served_conns = 0
        self._depth_peak = 0
        self._finished: Optional[RuntimeOutcome] = None

    # ------------------------------------------------------------- properties
    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` in tests)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        """The listening host."""
        return self._host

    @property
    def max_inflight(self) -> int:
        """Bound of the global intake queue (the backpressure knob)."""
        return self._max_inflight

    @property
    def intake_depth_peak(self) -> int:
        """High-water mark of the intake queue depth (never > ``max_inflight``)."""
        return self._depth_peak

    @property
    def dispatcher(self) -> LiveDispatcher:
        """The live dispatcher this edge feeds."""
        return self._dispatcher

    # -------------------------------------------------------------- telemetry
    def _event(self, name: str, **details: object) -> None:
        if self._obs.enabled:
            self._obs.event("edge", name, time.monotonic() - self._started_at, **details)

    def _count(self, name: str, value: int = 1) -> None:
        if self._obs.enabled:
            self._obs.count(name, value)

    def _gauge_depth(self) -> None:
        depth = self._intake.qsize() if self._intake is not None else 0
        if depth > self._depth_peak:
            self._depth_peak = depth
        if self._obs.enabled:
            self._obs.gauge("edge.intake_depth", depth)
            self._obs.gauge("edge.intake_depth_peak", self._depth_peak)

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> "EdgeServer":
        """Bind the listening socket and start the intake pump."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._intake = asyncio.Queue(maxsize=self._max_inflight)
        self._pump_task = asyncio.create_task(self._pump())
        self._server = await asyncio.start_server(self._handle, self._host, self._port)
        self._event("listening", host=self._host, port=self.port)
        return self

    async def __aenter__(self) -> "EdgeServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def finish(self) -> RuntimeOutcome:
        """Stop accepting, drain the intake queue, finalize the dispatcher.

        Waits for every open connection to wind down, pushes the remaining
        queue contents through the dispatcher, then runs the drain protocol
        (closing heartbeats + final flush) and returns the
        :class:`RuntimeOutcome`.  Idempotent.
        """
        if self._finished is not None:
            return self._finished
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._handlers:
            await asyncio.gather(*self._handlers.values(), return_exceptions=True)
        if self._intake is not None and self._pump_task is not None:
            # the pump only ever returns by failing: wait for whichever comes
            # first, a drained queue or a dead pump that will never drain it
            drained = asyncio.ensure_future(self._intake.join())
            await asyncio.wait(
                {drained, self._pump_task}, return_when=asyncio.FIRST_COMPLETED
            )
            drained.cancel()
        if self._failure is not None:
            raise self._failure
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        # the dispatcher drain can do real sequencing work (procs workers,
        # closing heartbeats) — keep the event loop responsive
        self._finished = await asyncio.to_thread(self._dispatcher.finish)
        return self._finished

    async def serve_until_idle(self, idle_grace: float = 0.2) -> RuntimeOutcome:
        """Serve until every connection (at least one) has come and gone.

        Returns the finalized outcome once the server has been idle — no
        open connections, empty intake queue — for ``idle_grace`` seconds
        after serving at least one connection.  This is the ``repro serve``
        CLI's default lifecycle (and what the loopback example drives).  A
        dead intake pump ends the wait at once: :meth:`finish` re-raises it.
        """
        while True:
            await asyncio.sleep(idle_grace)
            if self._failure is not None or (
                self._served_conns > 0
                and self._open_conns == 0
                and (self._intake is None or self._intake.empty())
            ):
                return await self.finish()

    async def close(self) -> None:
        """Tear the server down without finalizing a result (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers.values()):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers.values(), return_exceptions=True)
        self._handlers.clear()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        self._dispatcher.close()

    # ------------------------------------------------------------- accept path
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        conn = _Connection(self._next_conn, writer)
        self._next_conn += 1
        self._open_conns += 1
        self._served_conns += 1
        self._count("edge.connections")
        if self._obs.enabled:
            self._obs.gauge("edge.connections_open", self._open_conns)
        self._event("connection_open", source=conn.source, peer=str(conn.peer))
        self._handlers[conn] = asyncio.current_task()
        decoder = FrameDecoder(self._max_frame_bytes)
        clean_close = False
        try:
            while True:
                data = await reader.read(self._read_chunk)
                if not data:
                    break  # EOF: mid-stream disconnect (or post-CLOSE teardown)
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    await self._fail(conn, exc.code, exc.detail)
                    return
                for frame in frames:
                    self._count("edge.frames")
                    done = await self._on_frame(conn, frame)
                    if done:
                        clean_close = True
                        return
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._handlers.pop(conn, None)
            self._open_conns -= 1
            if self._obs.enabled:
                self._obs.gauge("edge.connections_open", self._open_conns)
            if conn.hello_seen and not clean_close:
                # mid-stream disconnect: admitted messages stay sequenced,
                # but the dead source must stop holding the watermark
                self._count("edge.disconnects")
                await self._enqueue(("close", conn, False))
            self._event(
                "connection_close",
                source=conn.source,
                clean=clean_close,
                messages=conn.messages,
            )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _on_frame(self, conn: _Connection, frame: Frame) -> bool:
        """Process one frame; returns ``True`` when the connection is done."""
        if self._failure is not None:
            await self._fail(conn, protocol.ERR_SERVER_FAILURE, repr(self._failure))
            return True
        if frame.type == protocol.HELLO:
            if conn.hello_seen:
                await self._fail(conn, protocol.ERR_DUPLICATE_HELLO, "HELLO already received")
                return True
            version = frame.payload.get("version")
            if version != protocol.PROTOCOL_VERSION:
                await self._fail(
                    conn,
                    protocol.ERR_UNSUPPORTED_VERSION,
                    f"server speaks version {protocol.PROTOCOL_VERSION}, client sent {version!r}",
                )
                return True
            conn.hello_seen = True
            requested = frame.payload.get("source")
            if isinstance(requested, str) and requested:
                conn.source = requested
            self._dispatcher.open_source(conn.source)
            self._event("hello", source=conn.source)
            conn.writer.write(
                protocol.encode_frame(
                    protocol.HELLO_ACK,
                    {"version": protocol.PROTOCOL_VERSION, "source": conn.source},
                )
            )
            await conn.writer.drain()
            return False
        if not conn.hello_seen:
            await self._fail(
                conn, protocol.ERR_HELLO_REQUIRED, f"{frame.name} before HELLO"
            )
            return True
        if frame.type == protocol.MSG:
            try:
                message, _ = protocol.parse_message(frame.payload)
            except ProtocolError as exc:
                await self._fail(conn, exc.code, exc.detail)
                return True
            if message.client_id not in self._dispatcher.spec.client_distributions:
                await self._fail(
                    conn,
                    protocol.ERR_UNKNOWN_CLIENT,
                    f"client {message.client_id!r} is not provisioned",
                )
                return True
            conn.messages += 1
            await self._enqueue(("msg", conn, message))
            return False
        if frame.type == protocol.HEARTBEAT:
            try:
                heartbeat, _ = protocol.parse_heartbeat(frame.payload)
            except ProtocolError as exc:
                await self._fail(conn, exc.code, exc.detail)
                return True
            if heartbeat.client_id not in self._dispatcher.spec.client_distributions:
                await self._fail(
                    conn,
                    protocol.ERR_UNKNOWN_CLIENT,
                    f"client {heartbeat.client_id!r} is not provisioned",
                )
                return True
            await self._enqueue(("hb", conn, heartbeat))
            return False
        if frame.type == protocol.CLOSE:
            await self._enqueue(("close", conn, True))
            await conn.closed.wait()
            return True
        await self._fail(
            conn, protocol.ERR_UNKNOWN_TYPE, f"unexpected frame type {frame.name}"
        )
        return True

    async def _enqueue(self, item) -> None:
        """Bounded put: a full queue suspends this handler (TCP pushback)."""
        assert self._intake is not None
        if self._failure is not None:
            return  # nobody drains the queue any more
        try:
            self._intake.put_nowait(item)
        except asyncio.QueueFull:
            self._count("edge.backpressure_stalls")
            self._event("backpressure_stall", depth=self._intake.qsize())
            await self._intake.put(item)
        self._gauge_depth()

    async def _fail(self, conn: _Connection, code: str, detail: str) -> None:
        """Reject-don't-hang: typed ERROR frame, then close the transport."""
        self._count("edge.protocol_errors")
        self._event("protocol_error", source=conn.source, code=code)
        try:
            conn.writer.write(protocol.error_frame(code, detail))
            await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        if conn.hello_seen:
            await self._enqueue(("close", conn, False))

    # -------------------------------------------------------------- intake pump
    async def _pump(self) -> None:
        """Single consumer of the intake queue: gate, route, ack, advance.

        Drains the queue in bursts — one ``dispatcher.advance()`` per burst
        instead of per message — mirroring the burst-coalescing intake the
        sim transport uses.
        """
        assert self._intake is not None
        try:
            while True:
                batch = [await self._intake.get()]
                while True:
                    try:
                        batch.append(self._intake.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                for kind, conn, payload in batch:
                    if kind == "msg":
                        admitted = self._dispatcher.submit(conn.source, payload)
                        self._count(
                            "edge.messages_admitted" if admitted else "edge.duplicates_rejected"
                        )
                        self._ack(
                            conn,
                            protocol.MSG_ACK,
                            {"id": int(payload.message_id), "admitted": admitted},
                        )
                    elif kind == "hb":
                        self._dispatcher.submit_heartbeat(conn.source, payload)
                        self._count("edge.heartbeats")
                        self._ack(conn, protocol.HEARTBEAT_ACK, {"vtime": payload.true_time})
                    elif kind == "close":
                        self._dispatcher.close_source(conn.source)
                        if payload:  # clean CLOSE: acknowledge before teardown
                            self._ack(conn, protocol.CLOSE_ACK, {"messages": conn.messages})
                        conn.closed.set()
                self._dispatcher.advance()
                for _ in batch:
                    self._intake.task_done()
                self._gauge_depth()
        except Exception as exc:
            self._on_pump_failure(exc)

    def _on_pump_failure(self, exc: Exception) -> None:
        """Terminal: tell every open connection, stop accepting, wake finish()."""
        self._failure = exc
        self._count("edge.server_failures")
        self._event("server_failure", error=repr(exc))
        if self._server is not None:
            self._server.close()
        for conn, handler in list(self._handlers.items()):
            try:
                conn.writer.write(
                    protocol.error_frame(protocol.ERR_SERVER_FAILURE, repr(exc))
                )
            except (ConnectionResetError, BrokenPipeError, OSError, RuntimeError):
                pass
            # the handler's teardown closes the transport, flushing the frame
            handler.cancel()

    def _ack(self, conn: _Connection, frame_type: int, payload: Dict[str, object]) -> None:
        try:
            conn.writer.write(protocol.encode_frame(frame_type, payload))
            self._count("edge.acks")
        except (ConnectionResetError, BrokenPipeError, OSError, RuntimeError):
            pass  # receiver gone; admitted traffic is still sequenced


__all__ = ["EdgeServer"]
