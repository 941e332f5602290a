"""The load generator: one process, one asyncio loop, two connections.

Closed loop: the wire protocol acks every frame and a connection keeps at most
``window`` frames unacknowledged, so a slower server receives less load.  Each
connection sends its clients' messages in ``true_time`` order, as the wire
contract requires.  Everything reported from here is measured at the client
socket or read from the result line the server child prints.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.edge import protocol
from repro.edge.protocol import FrameDecoder
from tommybench_workloads import Inputs, Shape

#: Connections the generator opens (= cores of the reference box).
CONNECTIONS = 2

_BENCH_DIR = Path(__file__).resolve().parent
_SRC_DIR = _BENCH_DIR.parent / "src"


class ChildFailed(Exception):
    """The server child died, hung, or printed something unexpected."""


class ServerChild:
    """One server child process and its JSON-lines control channel."""

    def __init__(self, clients: int, scenario_seed: int, shards: int, reply_timeout: float) -> None:
        self._argv = [
            sys.executable,
            str(_BENCH_DIR / "tommybench_server.py"),
            *("--clients", str(clients)),
            *("--seed", str(scenario_seed)),
            *("--shards", str(shards)),
        ]
        self._reply_timeout = reply_timeout
        self._process: Optional[asyncio.subprocess.Process] = None
        self.spawned_at = 0.0
        self.import_s = 0.0  # the child's cold import time, from its `listening` lines

    @property
    def alive(self) -> bool:
        """Whether a child is running."""
        return self._process is not None and self._process.returncode is None

    async def spawn(self) -> None:
        """Start a fresh child in its own process group (its procs workers join it)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(_SRC_DIR), str(_BENCH_DIR), *filter(None, [env.get("PYTHONPATH")])]
        )
        self.spawned_at = time.perf_counter()
        self._process = await asyncio.create_subprocess_exec(
            *self._argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
            start_new_session=True,
            limit=1 << 24,
        )

    async def _send(self, command: Dict[str, object]) -> None:
        assert self._process is not None and self._process.stdin is not None
        try:
            self._process.stdin.write((json.dumps(command) + "\n").encode())
            await self._process.stdin.drain()
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise ChildFailed(f"child gone: {exc}") from exc

    async def _reply(self, event: str) -> Dict[str, object]:
        assert self._process is not None and self._process.stdout is not None
        try:
            line = await asyncio.wait_for(self._process.stdout.readline(), self._reply_timeout)
        except asyncio.TimeoutError as exc:
            raise ChildFailed(f"no {event!r} line within {self._reply_timeout}s") from exc
        if not line:
            raise ChildFailed(f"child exited before its {event!r} line")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ChildFailed(f"expected {event!r}, child printed {line!r}") from exc
        if reply.get("event") != event:
            raise ChildFailed(f"expected {event!r}, child said {reply!r}")
        return reply

    async def start_pass(
        self, shape: Shape, mode: str = "plain", trace_out: Optional[str] = None
    ) -> dict:
        """Begin a pass; returns the ``listening`` line (port, cold import time)."""
        command = {
            "op": "pass",
            "mode": mode,
            "runtime": shape.runtime,
            "workers": shape.workers,
            "max_inflight": shape.max_inflight,
            "trace_out": trace_out,
        }
        await self._send(command)
        listening = await self._reply("listening")
        self.import_s = float(listening["import_s"])
        return listening

    async def finish_pass(self) -> dict:
        """Have the child run ``await server.finish()``; returns its result line."""
        await self._send({"op": "finish"})
        return await self._reply("result")

    async def close(self) -> None:
        """End the child and everything in its process group (idempotent).

        End of input is the child's quit signal in every state; whatever has
        not left after a grace period, procs workers included, is killed.
        """
        process, self._process = self._process, None
        if process is None:
            return
        try:
            if process.stdin is not None:
                process.stdin.close()
            await asyncio.wait_for(process.wait(), 5.0)
        except (asyncio.TimeoutError, OSError):
            pass
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            await process.wait()


#: One MSG frame of the plan: wire bytes, message id, and whether this is the
#: message's first send (a retransmit must come back ``admitted: false``).
PlannedFrame = Tuple[bytes, int, bool]


@dataclass(frozen=True)
class FramePlan:
    """The frames of one pass, per connection, encoded once."""

    connections: Tuple[Tuple[PlannedFrame, ...], ...]

    @property
    def attempted(self) -> int:
        """MSG frames per pass, retransmits included."""
        return sum(len(frames) for frames in self.connections)


def plan_frames(inputs: Inputs, seed: int) -> FramePlan:
    """Encode the workload's MSG frames and place them on the connections.

    ``seed`` decides how the fixed population of messages reaches the server:
    which connection carries which client (an even split of a seeded shuffle)
    and which frames are sent twice.  Each connection sends in ``true_time``
    order whatever the split, so the merged order stays the oracle's.
    """
    shape = inputs.shape
    rng = random.Random(seed)
    clients = list(inputs.workload.client_ids)
    rng.shuffle(clients)
    owner = {client: index % CONNECTIONS for index, client in enumerate(clients)}
    resent = set(rng.sample(range(shape.messages), shape.duplicates))
    connections: List[List[PlannedFrame]] = [[] for _ in range(CONNECTIONS)]
    for message in inputs.workload.messages_by_true_time():
        encoded = protocol.encode_frame(protocol.MSG, protocol.message_payload(message))
        frames = connections[owner[message.client_id]]
        frames.append((encoded, message.message_id, True))
        if message.message_id in resent:
            frames.append((encoded, message.message_id, False))
    return FramePlan(connections=tuple(map(tuple, connections)))


@dataclass
class _ConnectionLog:
    """What one connection saw during a pass."""

    sent_at: List[float] = field(default_factory=list)
    acked_at: List[float] = field(default_factory=list)
    wrong_verdicts: int = 0
    wire_bytes: int = 0


async def _read_frames(reader: asyncio.StreamReader, decoder: FrameDecoder, log: _ConnectionLog):
    data = await reader.read(65536)
    if not data:
        raise ConnectionResetError("server closed the connection")
    log.wire_bytes += len(data)
    frames = decoder.feed(data)
    for frame in frames:
        if frame.type == protocol.ERROR:
            raise ChildFailed(f"ERROR frame: {frame.payload}")
    return frames


async def _handshake(port: int, index: int, log: _ConnectionLog):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    decoder = FrameDecoder()
    hello = protocol.encode_frame(protocol.HELLO, protocol.hello_payload(f"bench-{index}"))
    writer.write(hello)
    log.wire_bytes += len(hello)
    frames = await _read_frames(reader, decoder, log)
    if [frame.type for frame in frames] != [protocol.HELLO_ACK]:
        raise ChildFailed(f"expected HELLO_ACK, got {frames!r}")
    return reader, writer, decoder


async def _stream(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    decoder: FrameDecoder,
    frames: Sequence[PlannedFrame],
    window: int,
    log: _ConnectionLog,
) -> None:
    """Keep ``window`` frames in flight until every frame is acked, then CLOSE."""
    total = len(frames)
    sent = acked = 0
    while acked < total:
        while sent < total and sent - acked < window:
            writer.write(frames[sent][0])
            log.sent_at.append(time.perf_counter())
            log.wire_bytes += len(frames[sent][0])
            sent += 1
        replies = await _read_frames(reader, decoder, log)
        now = time.perf_counter()
        for frame in replies:
            if frame.type != protocol.MSG_ACK or acked >= sent:
                raise ChildFailed(f"unexpected frame {frame!r}")
            _, message_id, first_send = frames[acked]
            # a first send must be admitted, a retransmit rejected
            if frame.payload.get("id") != message_id or (
                frame.payload.get("admitted") is not first_send
            ):
                log.wrong_verdicts += 1
            log.acked_at.append(now)
            acked += 1
    close = protocol.encode_frame(protocol.CLOSE)
    writer.write(close)
    log.wire_bytes += len(close)
    closed = False
    while not closed:
        replies = await _read_frames(reader, decoder, log)
        closed = any(frame.type == protocol.CLOSE_ACK for frame in replies)


@dataclass
class PassOutcome:
    """One pass as the generator saw it."""

    attempted: int
    failed: int
    parity: bool
    wall_s: float = 0.0
    ack_ms: List[float] = field(default_factory=list)
    wire_bytes: int = 0
    result: Dict[str, object] = field(default_factory=dict)
    error: str = ""


async def run_pass(
    child: ServerChild,
    inputs: Inputs,
    plan: FramePlan,
    timeout: float,
    mode: str = "plain",
    trace_out: Optional[str] = None,
) -> PassOutcome:
    """Stream the frozen workload through a fresh server and collect the order.

    Never hangs and never raises for a failure of the system under test: a
    dead child, a missing ack within ``timeout`` or an ERROR frame ends the
    pass and fails every frame of it, as does a fingerprint other than the
    oracle's.  In a pass that completes, a frame fails on a wrong verdict.
    """
    logs = [_ConnectionLog() for _ in range(CONNECTIONS)]
    writers: List[asyncio.StreamWriter] = []
    result: Dict[str, object] = {}
    error = ""
    finished_at = 0.0
    try:
        if not child.alive:
            await child.spawn()
        port = (await child.start_pass(inputs.shape, mode, trace_out))["port"]

        async def drive() -> None:
            links = [await _handshake(port, index, logs[index]) for index in range(CONNECTIONS)]
            writers.extend(writer for _, writer, _ in links)
            streams = [
                asyncio.ensure_future(
                    _stream(*link, plan.connections[index], inputs.shape.window, logs[index])
                )
                for index, link in enumerate(links)
            ]
            try:
                await asyncio.gather(*streams)
            finally:  # one connection failing (or the timeout) ends the other too
                for stream in streams:
                    stream.cancel()
                await asyncio.gather(*streams, return_exceptions=True)

        await asyncio.wait_for(drive(), timeout)
        result = await child.finish_pass()
        finished_at = time.perf_counter()
    except (ChildFailed, OSError, asyncio.TimeoutError, protocol.ProtocolError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        await child.close()  # the next pass starts from a fresh child
    finally:
        for writer in writers:
            writer.close()

    parity = not error and result.get("digest") == inputs.oracle_digest
    if not parity:  # no merged order, or the wrong one: every message is missing from it
        return PassOutcome(
            attempted=plan.attempted,
            failed=plan.attempted,
            parity=False,
            result=result,
            error=error or "fingerprint differs from the oracle's",
        )
    return PassOutcome(
        attempted=plan.attempted,
        failed=sum(log.wrong_verdicts for log in logs),
        parity=True,
        wall_s=finished_at - min(log.sent_at[0] for log in logs if log.sent_at),
        ack_ms=[
            (acked - sent) * 1e3
            for log in logs
            for sent, acked in zip(log.sent_at, log.acked_at)
        ],
        wire_bytes=sum(log.wire_bytes for log in logs),
        result=result,
    )
