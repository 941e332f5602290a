"""Asyncio socket front door feeding the live dispatcher.

:class:`EdgeServer` accepts client connections on a TCP socket, speaks the
length-prefixed frame protocol (:mod:`repro.edge.protocol`), and feeds
admitted traffic into a :class:`~repro.runtime.live.LiveDispatcher`.

Admit first: every connection is one :class:`asyncio.Protocol`.  The
``data_received`` callback that reads a chunk decodes its frames, validates
them, gates each MSG/HEARTBEAT through the dispatcher and writes its ack —
all before it returns, with no task and no queue between the socket and the
gate.  Sequence when the sockets go quiet: the first gated item arms one
``call_soon`` callback.  When it runs and items were gated since it last
looked, it re-arms itself, so the loop polls the sockets once more first;
when a whole poll gated nothing new — or the intake bound is reached — it
calls ``dispatcher.advance()``.

Backpressure: ``max_inflight`` bounds the items gated since the last
``advance()``.  At the bound a connection keeps the frames it has decoded,
stops reading its socket (the kernel receive buffer fills and TCP flow
control pushes back to the client) and is drained and resumed after the
advance, in the order the connections stalled.  The depth is exported as the
``edge.intake_depth`` gauge (with ``edge.intake_depth_peak`` as its
high-water mark), so "bounded" is an observable invariant: the peak can
never exceed ``max_inflight``.  Each stall is counted in
``edge.backpressure_stalls``.  An ack waits at most one bound's worth of
sequencing.  A client that does not read its acks is not read from either
while its transport's write buffer is over the high-water mark.

Disconnect policy (documented contract, tested in ``tests/edge``): messages
*admitted* before a mid-stream disconnect are still sequenced — admission is
a promise — while the dead connection's watermark hold is released so the
rest of the cluster keeps advancing.  Protocol violations are answered with
a typed ERROR frame and a close; the server never hangs on bad input.  Two
open connections may not share a source name: the second HELLO is refused
(``duplicate-source``) and the first holder is untouched.

Failure policy: an exception out of the dispatcher (a dead procs worker
surfaces on ``advance()``) is caught in the callback it was raised in and is
terminal and loud — every open connection gets a typed ``server-failure``
ERROR frame and is closed, the listener stops accepting, and
:meth:`EdgeServer.finish` / :meth:`EdgeServer.serve_until_idle` re-raise the
exception.  Only the dispatcher's own calls are terminal: anything else
raised while decoding or validating what one peer sent costs that peer its
connection (typed ERROR, close) and nobody else's.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Deque, Dict, Optional, Set

from repro.edge import protocol
from repro.edge.protocol import Frame, FrameDecoder, ProtocolError
from repro.obs.telemetry import Telemetry, resolve
from repro.runtime.base import RuntimeOutcome
from repro.runtime.live import LiveDispatcher


class _ServerFailed(Exception):
    """A dispatcher call raised: ``_on_failure`` has run and every connection is shut."""


class _Connection(asyncio.Protocol):
    """One client connection: decode, validate, gate and ack in the read callback."""

    def __init__(self, server: "EdgeServer", index: int) -> None:
        self._server = server
        self._decoder = FrameDecoder(server._max_frame_bytes)
        # decoded frames not yet handled: non-empty only at the intake bound
        self._frames: Deque[Frame] = deque()
        self.transport: Optional[asyncio.Transport] = None
        self.source = f"conn-{index}"
        self.hello_seen = False
        # HELLO accepted and the dispatcher not yet told the source is closed
        self.holds_source = False
        # CLOSE answered, failed or torn down: nothing more is handled
        self.done = False
        self.clean_close = False
        self.stalled = False
        self.write_paused = False
        self.messages = 0

    # ------------------------------------------------------ transport callbacks
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self._server._on_open(self)

    def data_received(self, data: bytes) -> None:
        if self.done:
            return
        try:
            frames = self._decoder.feed(data)
        except ProtocolError as exc:
            self._fail(exc.code, exc.detail)
            return
        except Exception as exc:  # bytes the decoder did not foresee: this peer's alone
            self._fail(protocol.ERR_MALFORMED_FRAME, f"undecodable input: {exc!r}")
            return
        self._server._count("edge.frames", len(frames))
        self._frames.extend(frames)
        self.process()

    def pause_writing(self) -> None:
        """The peer is not reading its acks: read no more frames from it."""
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        if not self.stalled:
            self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._frames.clear()
        self.done = True
        self._server._on_lost(self)

    # ------------------------------------------------------------------ frames
    def process(self) -> None:
        """Handle held frames in order; at the intake bound keep the rest and stall.

        Never raises: what one peer sent can cost that peer its connection
        (typed ERROR, close), and only an exception out of the dispatcher is
        the server's failure.
        """
        server = self._server
        frames = self._frames
        while frames and not self.done:
            # a HELLO gates nothing and never waits: its source must hold the
            # watermark before the other connections' items are sequenced
            if server._depth >= server._max_inflight and frames[0].type != protocol.HELLO:
                server._stall(self)
                return
            try:
                self._on_frame(frames.popleft())
            except _ServerFailed:
                return  # every connection, this one included, has been told and shut
            except Exception as exc:  # input the validation did not foresee
                self._fail(protocol.ERR_BAD_PAYLOAD, f"unhandled input: {exc!r}")

    def _on_frame(self, frame: Frame) -> None:
        server = self._server
        dispatcher = server._dispatcher
        if frame.type == protocol.HELLO:
            self._on_hello(frame.payload)
        elif not self.hello_seen:
            self._fail(protocol.ERR_HELLO_REQUIRED, f"{frame.name} before HELLO")
        elif frame.type == protocol.MSG:
            message = self._parsed(protocol.parse_message, frame.payload)
            if message is None:
                return
            self.messages += 1
            admitted = server._dispatch(dispatcher.submit, self.source, message)
            server._count("edge.messages_admitted" if admitted else "edge.duplicates_rejected")
            self._ack(protocol.MSG_ACK, {"id": int(message.message_id), "admitted": admitted})
            server._gated()
        elif frame.type == protocol.HEARTBEAT:
            heartbeat = self._parsed(protocol.parse_heartbeat, frame.payload)
            if heartbeat is None:
                return
            server._dispatch(dispatcher.submit_heartbeat, self.source, heartbeat)
            server._count("edge.heartbeats")
            self._ack(protocol.HEARTBEAT_ACK, {"vtime": heartbeat.true_time})
            server._gated()
        elif frame.type == protocol.CLOSE:
            server._release(self)
            self.clean_close = True
            # clean CLOSE: acknowledge before teardown
            self._ack(protocol.CLOSE_ACK, {"messages": self.messages})
            self.shut()
        else:
            self._fail(protocol.ERR_UNKNOWN_TYPE, f"unexpected frame type {frame.name}")

    def _parsed(self, parse, payload: Dict[str, object]):
        """The MSG / HEARTBEAT the payload carries, or ``None`` once it has been refused."""
        try:
            item, _ = parse(payload)
        except ProtocolError as exc:
            self._fail(exc.code, exc.detail)
            return None
        if item.client_id not in self._server._dispatcher.spec.client_distributions:
            self._fail(
                protocol.ERR_UNKNOWN_CLIENT, f"client {item.client_id!r} is not provisioned"
            )
            return None
        return item

    def _on_hello(self, payload: Dict[str, object]) -> None:
        server = self._server
        if self.hello_seen:
            self._fail(protocol.ERR_DUPLICATE_HELLO, "HELLO already received")
            return
        version = payload.get("version")
        if version != protocol.PROTOCOL_VERSION:
            self._fail(
                protocol.ERR_UNSUPPORTED_VERSION,
                f"server speaks version {protocol.PROTOCOL_VERSION}, client sent {version!r}",
            )
            return
        requested = payload.get("source")
        source = requested if isinstance(requested, str) and requested else self.source
        if any(other.holds_source and other.source == source for other in server._conns):
            # one CLOSE would release the watermark hold of both
            self._fail(
                protocol.ERR_DUPLICATE_SOURCE,
                f"source {source!r} is held by another open connection",
            )
            return
        # encoded before anything is held: a name that escapes past the frame cap is refused
        ack = protocol.encode_frame(
            protocol.HELLO_ACK, {"version": protocol.PROTOCOL_VERSION, "source": source}
        )
        self.source = source
        self.hello_seen = self.holds_source = True
        server._dispatch(server._dispatcher.open_source, source)
        server._event("hello", source=source)
        self.transport.write(ack)

    def _ack(self, frame_type: int, payload: Dict[str, object]) -> None:
        if self.transport.is_closing():
            return  # receiver gone; admitted traffic is still sequenced
        self.transport.write(protocol.encode_frame(frame_type, payload))
        self._server._count("edge.acks")

    def _fail(self, code: str, detail: str) -> None:
        """Reject-don't-hang: typed ERROR frame, then close the transport."""
        server = self._server
        server._count("edge.protocol_errors")
        server._event("protocol_error", source=self.source, code=code)
        if self.holds_source:
            server._release(self)
        self.shut(protocol.error_frame(code, detail))

    def shut(self, farewell: bytes = b"") -> None:
        """Handle nothing more; flush ``farewell`` and what is buffered, then close."""
        if self.done:
            return
        self.done = True
        self._frames.clear()
        if farewell:
            self.transport.write(farewell)
        self.transport.close()


class EdgeServer:
    """Live ingestion edge: admit in the read callback, sequence when the sockets go quiet."""

    def __init__(
        self,
        dispatcher: LiveDispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        telemetry: Optional[Telemetry] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self._dispatcher = dispatcher
        self._host = host
        self._port = port
        self._max_inflight = int(max_inflight)
        self._max_frame_bytes = int(max_frame_bytes)
        self._obs = resolve(telemetry)
        self._started_at = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Set[_Connection] = set()
        # connections holding frames at the intake bound, in the order they stalled
        self._stalled: Deque[_Connection] = deque()
        self._depth = 0  # items gated since the last advance()
        self._depth_peak = 0
        self._turn: Optional[asyncio.Handle] = None  # the armed advance callback
        self._fresh = False  # an item was gated since the armed callback last looked
        self._no_conns: Optional[asyncio.Future] = None  # finish() waiting for the last close
        self._failure: Optional[BaseException] = None
        self._next_conn = 0
        self._served_conns = 0  # counted with connection_made, so never ahead of _conns
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
        """Bound on the items gated between two advances (the backpressure knob)."""
        return self._max_inflight

    @property
    def intake_depth_peak(self) -> int:
        """High-water mark of the intake depth (never > ``max_inflight``)."""
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

    def _gauge_connections(self) -> None:
        if self._obs.enabled:
            self._obs.gauge("edge.connections_open", len(self._conns))

    def _gauge_depth(self) -> None:
        if self._depth > self._depth_peak:
            self._depth_peak = self._depth
        if self._obs.enabled:
            self._obs.gauge("edge.intake_depth", self._depth)
            self._obs.gauge("edge.intake_depth_peak", self._depth_peak)

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> "EdgeServer":
        """Bind the listening socket and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(self._accept, self._host, self._port)
        self._event("listening", host=self._host, port=self.port)
        return self

    async def __aenter__(self) -> "EdgeServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def finish(self) -> RuntimeOutcome:
        """Stop accepting, sequence what was gated, finalize the dispatcher.

        Waits for every open connection to wind down, flushes an armed
        advance, then runs the drain protocol (closing heartbeats + final
        flush) and returns the :class:`RuntimeOutcome`.  Idempotent.
        """
        if self._finished is not None:
            return self._finished
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conns:
            # a failure closes every connection too, so this wait always ends
            self._no_conns = asyncio.get_running_loop().create_future()
            await self._no_conns
        if self._turn is not None:
            self._turn.cancel()
            self._advance()
        if self._failure is not None:
            raise self._failure
        # the dispatcher drain can do real sequencing work (procs workers,
        # closing heartbeats) — keep the event loop responsive
        self._finished = await asyncio.to_thread(self._dispatcher.finish)
        return self._finished

    async def serve_until_idle(self, idle_grace: float = 0.2) -> RuntimeOutcome:
        """Serve until every connection (at least one) has come and gone.

        Returns the finalized outcome once the server has been idle — no
        open connections — for ``idle_grace`` seconds after serving at least
        one connection.  This is the ``repro serve`` CLI's default lifecycle
        (and what the loopback example drives).  A dispatcher failure ends
        the wait at once: :meth:`finish` re-raises it.
        """
        while True:
            await asyncio.sleep(idle_grace)
            if self._failure is not None or (self._served_conns > 0 and not self._conns):
                return await self.finish()

    async def close(self) -> None:
        """Tear the server down without finalizing a result (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._conns):
            conn.holds_source = False  # no dispatcher left to tell
            conn.shut()
        if self._turn is not None:
            self._turn.cancel()
            self._turn = None
        self._dispatcher.close()

    # ------------------------------------------------------------- connections
    def _accept(self) -> _Connection:
        conn = _Connection(self, self._next_conn)
        self._next_conn += 1
        return conn

    def _on_open(self, conn: _Connection) -> None:
        self._conns.add(conn)
        self._served_conns += 1
        self._count("edge.connections")
        self._gauge_connections()
        self._event(
            "connection_open",
            source=conn.source,
            peer=str(conn.transport.get_extra_info("peername")),
        )
        if self._failure is not None:  # accepted while the failure was closing the listener
            conn.shut(protocol.error_frame(protocol.ERR_SERVER_FAILURE, repr(self._failure)))

    def _on_lost(self, conn: _Connection) -> None:
        self._conns.discard(conn)
        self._gauge_connections()
        if conn.hello_seen and not conn.clean_close:
            # mid-stream disconnect (or a protocol error after HELLO): admitted
            # messages stay sequenced
            self._count("edge.disconnects")
        if conn.holds_source:
            # the dead source must stop holding the watermark
            self._release(conn)
        self._event(
            "connection_close",
            source=conn.source,
            clean=conn.clean_close,
            messages=conn.messages,
        )
        if not self._conns and self._no_conns is not None and not self._no_conns.done():
            self._no_conns.set_result(None)

    def _release(self, conn: _Connection) -> None:
        """Close the connection's source; the watermark it held back can be sequenced."""
        conn.holds_source = False
        try:
            self._dispatcher.close_source(conn.source)
        except Exception as exc:
            self._on_failure(exc)
        else:
            self._arm()

    def _dispatch(self, call, *args):
        """``call(*args)`` on the dispatcher; an exception out of it is the server's failure."""
        try:
            return call(*args)
        except Exception as exc:
            self._on_failure(exc)
            raise _ServerFailed from exc

    # ------------------------------------------------------------------ intake
    def _gated(self) -> None:
        """One more item went through the gate since the last ``advance()``."""
        self._depth += 1
        self._gauge_depth()
        self._arm()

    def _arm(self) -> None:
        self._fresh = True
        if self._turn is None and self._failure is None:
            self._turn = asyncio.get_running_loop().call_soon(self._on_turn)

    def _stall(self, conn: _Connection) -> None:
        """``conn`` holds frames at the bound: stop reading it until the advance."""
        if conn.stalled:
            return
        conn.stalled = True
        self._stalled.append(conn)
        self._count("edge.backpressure_stalls")
        self._event("backpressure_stall", depth=self._depth)
        conn.transport.pause_reading()

    def _on_turn(self) -> None:
        """Sequence once a whole poll of the sockets gated nothing, or at the bound."""
        if self._fresh and self._depth < self._max_inflight:
            self._fresh = False
            self._turn = asyncio.get_running_loop().call_soon(self._on_turn)
            return
        self._advance()

    def _advance(self) -> None:
        """``dispatcher.advance()``, then drain the connections held at the bound."""
        self._turn = None
        self._fresh = False
        try:
            self._dispatcher.advance()
        except Exception as exc:
            self._on_failure(exc)
            return
        self._depth = 0
        self._gauge_depth()
        # first stalled, first drained; whoever reaches the bound again
        # goes to the back, and the rest keep their place for the next advance
        while self._stalled and self._depth < self._max_inflight:
            conn = self._stalled.popleft()
            conn.stalled = False
            conn.process()
            if not (conn.stalled or conn.write_paused):
                conn.transport.resume_reading()

    def _on_failure(self, exc: Exception) -> None:
        """Terminal: tell every open connection, stop accepting, let finish() raise."""
        if self._failure is not None:
            return
        self._failure = exc
        self._count("edge.server_failures")
        self._event("server_failure", error=repr(exc))
        if self._server is not None:
            self._server.close()
        if self._turn is not None:
            self._turn.cancel()
            self._turn = None
        self._stalled.clear()
        farewell = protocol.error_frame(protocol.ERR_SERVER_FAILURE, repr(exc))
        for conn in list(self._conns):
            conn.holds_source = False  # the dispatcher is dead: nothing to release
            conn.shut(farewell)


__all__ = ["EdgeServer"]
