"""The edge's callback protocol, driven without sockets.

A frame is admitted (gated, acked) in the ``data_received`` call that read
it; ``dispatcher.advance()`` runs from one ``call_soon`` callback once a whole
loop turn gated nothing new, or at the intake bound.  Every test here feeds
connection protocols by hand over a recording transport, so "one loop turn"
is exactly ``await asyncio.sleep(0)`` and nothing depends on wall time.
"""

from __future__ import annotations

import asyncio
from typing import List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import TommyConfig
from repro.edge import protocol
from repro.edge.protocol import Frame, FrameDecoder
from repro.edge.server import EdgeServer
from repro.network.message import TimestampedMessage
from repro.obs import Telemetry
from repro.runtime.base import ClusterWorkload
from repro.runtime.live import LiveClusterSpec, LiveDispatcher
from repro.runtime.sim import SimBackend
from repro.workloads.cluster import build_cluster_scenario

WORKLOAD = ClusterWorkload.from_scenario(
    build_cluster_scenario(num_clients=6, messages_per_client=3, seed=13),
    num_shards=2,
    config=TommyConfig(seed=13),
)
REFERENCE = SimBackend().run(WORKLOAD).fingerprint()


class RecordingTransport(asyncio.Transport):
    """What a socket transport shows its protocol, with the bytes kept."""

    def __init__(self, conn) -> None:
        super().__init__()
        self._conn = conn
        self.written = bytearray()
        self.reading = True
        self.closing = False

    def write(self, data: bytes) -> None:
        assert not self.closing
        self.written += data

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_reading(self) -> bool:
        return self.reading and not self.closing

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        if not self.closing:  # a socket transport reports the loss on the next turn
            self.closing = True
            asyncio.get_running_loop().call_soon(self._conn.connection_lost, None)

    def frames(self) -> List[Frame]:
        return FrameDecoder().feed(bytes(self.written))


class RecordingDispatcher(LiveDispatcher):
    """A real dispatcher that also lists the calls the edge made, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: List[str] = []

    def submit(self, source_id, message):
        self.calls.append(f"submit {message.message_id}")
        return super().submit(source_id, message)

    def close_source(self, source_id):
        self.calls.append(f"close_source {source_id}")
        super().close_source(source_id)

    def advance(self):
        self.calls.append("advance")
        return super().advance()

    def finish(self):
        self.calls.append("finish")
        return super().finish()

    @property
    def advances(self) -> int:
        return self.calls.count("advance")


def make_server(max_inflight: int = 64, telemetry=None, dispatcher_type=RecordingDispatcher):
    dispatcher = dispatcher_type(LiveClusterSpec.from_workload(WORKLOAD), telemetry=telemetry)
    return EdgeServer(dispatcher, max_inflight=max_inflight, telemetry=telemetry), dispatcher


def attach(server: EdgeServer):
    """A connection as ``loop.create_server`` would make it, on a recording transport."""
    conn = server._accept()
    conn.connection_made(RecordingTransport(conn))
    return conn


def hello(source: str) -> bytes:
    return protocol.encode_frame(protocol.HELLO, protocol.hello_payload(source))


def msg(message: TimestampedMessage) -> bytes:
    return protocol.encode_frame(protocol.MSG, protocol.message_payload(message))


CLOSE = protocol.encode_frame(protocol.CLOSE)


def connect(server: EdgeServer, source: str):
    conn = attach(server)
    conn.data_received(hello(source))
    assert [frame.type for frame in conn.transport.frames()] == [protocol.HELLO_ACK]
    return conn


def acked_ids(conn) -> List[int]:
    return [f.payload["id"] for f in conn.transport.frames() if f.type == protocol.MSG_ACK]


def open_all(server: EdgeServer, connections: int) -> list:
    """Every source says HELLO before any traffic flows, as ``replay_workload`` does."""
    return [connect(server, f"s{index}") for index in range(connections)]


def streams(connections: int) -> List[bytes]:
    """The workload as one byte stream per connection: its MSGs in time order, then CLOSE."""
    owner = {client: index % connections for index, client in enumerate(WORKLOAD.client_ids)}
    out = [bytearray() for _ in range(connections)]
    for message in WORKLOAD.messages_by_true_time():
        out[owner[message.client_id]] += msg(message)
    return [bytes(stream + CLOSE) for stream in out]


async def settle(conns: Sequence) -> None:
    """Turn the loop until every connection has been closed by the server."""
    for _ in range(10_000):
        if all(conn.transport.closing for conn in conns):
            return
        await asyncio.sleep(0)
    raise AssertionError("connections never wound down")


MESSAGES = WORKLOAD.messages_by_true_time()


def test_frames_are_acked_in_the_callback_and_sequenced_once_when_a_turn_is_empty():
    async def run():
        server, dispatcher = make_server()
        conn = connect(server, "a")
        conn.data_received(msg(MESSAGES[0]) + msg(MESSAGES[1]))
        # both acks are written before data_received returns, nothing is sequenced yet
        assert acked_ids(conn) == [MESSAGES[0].message_id, MESSAGES[1].message_id]
        assert dispatcher.advances == 0
        await asyncio.sleep(0)  # the armed callback saw new items: it polls once more
        assert dispatcher.advances == 0
        await asyncio.sleep(0)  # a whole turn gated nothing
        assert dispatcher.advances == 1
        for _ in range(3):
            await asyncio.sleep(0)
        assert dispatcher.advances == 1
        assert dispatcher.calls == [
            f"submit {MESSAGES[0].message_id}",
            f"submit {MESSAGES[1].message_id}",
            "advance",
        ]

    asyncio.run(run())


def test_a_frame_between_turns_re_arms_the_advance():
    async def run():
        server, dispatcher = make_server()
        conn = connect(server, "a")
        conn.data_received(msg(MESSAGES[0]))
        await asyncio.sleep(0)
        conn.data_received(msg(MESSAGES[1]))
        await asyncio.sleep(0)  # would have sequenced, but an item was gated since
        assert dispatcher.advances == 0
        conn.data_received(msg(MESSAGES[2]))
        await asyncio.sleep(0)
        assert dispatcher.advances == 0
        await asyncio.sleep(0)
        assert dispatcher.advances == 1
        assert dispatcher.calls[-1] == "advance" and len(dispatcher.calls) == 4
        assert server.intake_depth_peak == 3

    asyncio.run(run())


def test_at_the_bound_the_advance_does_not_wait_and_held_frames_follow_it():
    async def run():
        telemetry = Telemetry()
        server, dispatcher = make_server(max_inflight=2, telemetry=telemetry)
        conn = connect(server, "a")
        conn.data_received(b"".join(msg(message) for message in MESSAGES[:3]))
        # two gated and acked, the third is held and the socket is not read
        assert acked_ids(conn) == [m.message_id for m in MESSAGES[:2]]
        assert not conn.transport.is_reading()
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["edge.backpressure_stalls"] == 1
        await asyncio.sleep(0)  # depth == max_inflight: no second poll
        assert dispatcher.advances == 1
        assert acked_ids(conn) == [m.message_id for m in MESSAGES[:3]]
        assert conn.transport.is_reading()
        assert dispatcher.calls[-2:] == ["advance", f"submit {MESSAGES[2].message_id}"]
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert dispatcher.advances == 2
        assert server.intake_depth_peak == 2

    asyncio.run(run())


def test_a_hello_at_the_bound_is_answered_at_once():
    """Holding it would let the others' items be sequenced past a source that has connected."""

    async def run():
        server, dispatcher = make_server(max_inflight=1)
        first = connect(server, "a")
        first.data_received(msg(MESSAGES[0]))  # depth == max_inflight
        second = connect(server, "b")  # asserts the HELLO_ACK
        assert dispatcher.open_sources == 2
        assert second.transport.is_reading() and not second.stalled

    asyncio.run(run())


def test_finish_flushes_an_armed_advance_before_the_dispatcher_finishes():
    async def run():
        server, dispatcher = make_server()
        conn = connect(server, "a")
        conn.data_received(msg(MESSAGES[0]))
        conn.connection_lost(None)  # mid-stream disconnect, advance still armed
        outcome = await server.finish()
        assert dispatcher.calls == [
            f"submit {MESSAGES[0].message_id}",
            "close_source a",
            "advance",
            "finish",
        ]
        for _ in range(3):  # the cancelled callback never runs on a finished dispatcher
            await asyncio.sleep(0)
        assert dispatcher.advances == 1
        assert outcome.message_count == 1

    asyncio.run(run())


def test_an_exception_from_submit_fails_the_server_not_the_callback():
    class Boom(RuntimeError):
        pass

    class Exploding(RecordingDispatcher):
        def submit(self, source_id, message):
            raise Boom("gate died")

    async def run():
        server, _ = make_server(dispatcher_type=Exploding)
        first, second = connect(server, "a"), connect(server, "b")
        first.data_received(msg(MESSAGES[0]))  # must not raise into asyncio
        for conn in (first, second):
            last = conn.transport.frames()[-1]
            assert last.type == protocol.ERROR
            assert last.payload["code"] == protocol.ERR_SERVER_FAILURE
            assert conn.transport.closing
        late = attach(server)  # accepted while the listener was going down
        assert late.transport.frames()[-1].payload["code"] == protocol.ERR_SERVER_FAILURE
        with pytest.raises(Boom):
            await server.finish()

    asyncio.run(run())


def _raw(frame_type: int, body: str) -> bytes:
    """A frame whose JSON the encoder would not produce (raw UTF-8, any nesting)."""
    data = body.encode("utf-8")
    return (1 + len(data)).to_bytes(4, "big") + bytes([frame_type]) + data


def _at_the_cap(frame_type: int, payload: dict) -> bytes:
    """``payload`` with its ``client`` padded until the frame is exactly as long as allowed."""
    empty = protocol.encode_frame(frame_type, {"client": "", **payload})
    spare = protocol.MAX_FRAME_BYTES - (len(empty) - 4)
    return protocol.encode_frame(frame_type, {"client": "x" * spare, **payload})


HOSTILE_FRAMES = {
    # json.loads reads Infinity / 1e999 as inf, and int(inf) is an OverflowError
    "msg-seq-infinity": (
        protocol.encode_frame(
            protocol.MSG, {**protocol.message_payload(MESSAGES[0]), "seq": float("inf")}
        ),
        protocol.ERR_BAD_PAYLOAD,
    ),
    "heartbeat-seq-1e999": (
        _raw(protocol.HEARTBEAT, '{"client":"x","ts":1.0,"vtime":1.0,"seq":1e999}'),
        protocol.ERR_BAD_PAYLOAD,
    ),
    # the ERROR quotes the name: uncut, it would not fit in a frame itself
    "unknown-client-near-the-cap": (
        _at_the_cap(protocol.MSG, {"ts": 0, "vtime": 0, "seq": 0, "id": 0}),
        protocol.ERR_UNKNOWN_CLIENT,
    ),
    "heartbeat-unknown-client-near-the-cap": (
        _at_the_cap(protocol.HEARTBEAT, {"ts": 0, "vtime": 0}),
        protocol.ERR_UNKNOWN_CLIENT,
    ),
    # RecursionError out of json.loads, not a JSONDecodeError
    "nesting-past-the-recursion-limit": (
        _raw(protocol.MSG, '{"data":' + "[" * 200_000 + "]" * 200_000 + "}"),
        protocol.ERR_MALFORMED_FRAME,
    ),
    # 3 bytes a character in, 6 a character out: the HELLO_ACK echoing it is over the cap
    "hello-source-that-escapes-past-the-cap": (
        _raw(protocol.HELLO, '{"version":1,"source":"' + "€" * 300_000 + '"}'),
        protocol.ERR_BAD_PAYLOAD,
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_what_one_peer_sends_costs_only_that_peer(name):
    """Only a dispatcher exception is the server's failure: input no validation
    foresaw gets a typed ERROR and a close on its own connection."""
    frame, code = HOSTILE_FRAMES[name]

    async def run():
        telemetry = Telemetry()
        server, dispatcher = make_server(telemetry=telemetry)
        bystander = connect(server, "bystander")
        hostile = attach(server) if frame[4] == protocol.HELLO else connect(server, "hostile")
        hostile.data_received(frame)  # must not raise into asyncio
        last = hostile.transport.frames()[-1]
        assert (last.type, last.payload["code"]) == (protocol.ERROR, code)
        assert len(last.payload["detail"]) <= 256
        assert hostile.transport.closing
        assert dispatcher.open_sources == 1  # the bystander's; the hostile hold is released
        # nobody else noticed
        assert not bystander.transport.closing
        bystander.data_received(msg(MESSAGES[0]) + CLOSE)
        assert acked_ids(bystander) == [MESSAGES[0].message_id]
        await settle([bystander, hostile])
        outcome = await server.finish()
        assert outcome.message_count == 1
        counters = telemetry.registry.snapshot()["counters"]
        assert counters.get("edge.server_failures", 0) == 0
        assert counters["edge.protocol_errors"] == 1
        # a protocol error after an accepted HELLO is a disconnect, a refused HELLO is not
        assert counters.get("edge.disconnects", 0) == (frame[4] != protocol.HELLO)

    asyncio.run(run())


def _replay(chunks_of, max_inflight: int = 64):
    """Feed each connection's stream cut by ``chunks_of``; returns (ack bytes, outcome)."""

    async def run():
        server, _ = make_server(max_inflight=max_inflight)
        conns = open_all(server, 2)
        for conn, stream in zip(conns, streams(2)):
            for chunk in chunks_of(stream):
                conn.data_received(chunk)
        await settle(conns)
        outcome = await server.finish()
        return [bytes(conn.transport.written) for conn in conns], outcome, server

    return asyncio.run(run())


def test_one_byte_per_callback_gives_the_same_acks_and_order():
    whole_acks, whole, _ = _replay(lambda stream: [stream])
    byte_acks, bytewise, _ = _replay(lambda stream: [stream[i : i + 1] for i in range(len(stream))])
    assert byte_acks == whole_acks
    assert bytewise.fingerprint() == whole.fingerprint() == REFERENCE
    assert bytewise.details["late_arrivals"] == 0


def test_bound_of_one_with_two_pipelining_connections():
    async def run():
        telemetry = Telemetry()
        server, dispatcher = make_server(max_inflight=1, telemetry=telemetry)
        conns = open_all(server, 2)
        for conn, stream in zip(conns, streams(2)):
            conn.data_received(stream)  # everything at once: every MSG and the CLOSE
        await settle(conns)
        outcome = await server.finish()
        assert server.intake_depth_peak == 1
        assert telemetry.registry.snapshot()["counters"]["edge.backpressure_stalls"] > 0
        assert outcome.fingerprint() == REFERENCE
        assert outcome.details["late_arrivals"] == 0
        # while both hold frames they take turns at the bound, one item per advance
        connection_of = {
            f"submit {message.message_id}": WORKLOAD.client_ids.index(message.client_id) % 2
            for message in MESSAGES
        }
        turns = [connection_of[call] for call in dispatcher.calls if call in connection_of]
        contended = 2 * min(turns.count(0), turns.count(1)) - 1
        assert contended > 2
        assert all(a != b for a, b in zip(turns[1:contended], turns[2:contended]))

    asyncio.run(run())


@settings(max_examples=30, deadline=None)
@given(
    connections=st.integers(1, 3),
    max_inflight=st.integers(1, 8),
    schedule=st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 300), st.integers(0, 2)), max_size=60
    ),
)
def test_any_chunking_and_interleaving_merges_like_the_oracle(connections, max_inflight, schedule):
    """Whatever the sockets deliver and whenever the loop turns, the order is the oracle's."""

    async def run():
        server, _ = make_server(max_inflight=max_inflight)
        conns = open_all(server, connections)
        pending = [memoryview(stream) for stream in streams(connections)]

        def feed(index: int, size: int) -> None:
            # a paused transport delivers nothing: the bytes stay in the socket
            if pending[index] and conns[index].transport.is_reading():
                conns[index].data_received(bytes(pending[index][:size]))
                pending[index] = pending[index][size:]

        for index, size, turns in schedule:
            feed(index % connections, size)
            for _ in range(turns):
                await asyncio.sleep(0)
        for _ in range(10_000):
            if not any(pending):
                break
            for index in range(connections):
                feed(index, len(pending[index]))
            await asyncio.sleep(0)
        await settle(conns)
        outcome = await server.finish()
        assert server.intake_depth_peak <= max_inflight
        assert outcome.message_count == len(MESSAGES)
        assert outcome.details["late_arrivals"] == 0
        assert outcome.fingerprint() == REFERENCE

    asyncio.run(run())


def test_a_peer_that_stops_reading_its_acks_is_not_read_from():
    async def run():
        server, _ = make_server(max_inflight=1)
        conn = connect(server, "a")
        conn.pause_writing()  # the transport's write buffer went over its high-water mark
        assert not conn.transport.is_reading()
        conn.resume_writing()
        assert conn.transport.is_reading()
        # stalled at the intake bound and over the mark: both must clear before reading resumes
        conn.data_received(msg(MESSAGES[0]) + msg(MESSAGES[1]))
        assert conn.stalled and not conn.transport.is_reading()
        conn.pause_writing()
        conn.resume_writing()
        assert not conn.transport.is_reading()  # still held at the bound
        conn.pause_writing()
        await asyncio.sleep(0)  # the advance drains the held frame
        assert not conn.stalled and not conn.transport.is_reading()  # still over the mark
        conn.resume_writing()
        assert conn.transport.is_reading()
        assert acked_ids(conn) == [MESSAGES[0].message_id, MESSAGES[1].message_id]

    asyncio.run(run())
