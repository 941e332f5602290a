"""Length-prefixed, versioned frame protocol for the live ingestion edge.

Wire format — one frame is::

    +----------------+----------+----------------------+
    | length (4B BE) | type(1B) | JSON payload (UTF-8) |
    +----------------+----------+----------------------+

``length`` counts the type byte plus the payload, so an empty-payload frame
has length 1.  Frames are versioned at the session level: the first frame on
a connection must be ``HELLO`` carrying ``{"version": PROTOCOL_VERSION}``;
any other version is rejected with a typed ``ERROR`` frame (code
``unsupported-version``) and the connection is closed — the server never
hangs on bad input, it answers then disconnects.

Message identity on the wire: ``MSG`` frames carry the client-assigned
``id`` (mirroring :attr:`repro.network.message.TimestampedMessage.message_id`)
as the exactly-once idempotency token.  The edge reconstructs messages with
that id, so (a) a retransmitted frame maps to the same ``(client_id, id)``
key and is rejected by the intake gate, and (b) a frozen workload replayed
over sockets reproduces the exact same merge fingerprint as the in-process
backends (``RuntimeOutcome.fingerprint()`` keys on ``message.key``).

:class:`FrameDecoder` is an incremental, transport-free byte feeder so the
edge cases (truncated frames, oversized length prefixes, unknown types) are
testable without sockets.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.network.message import Heartbeat, TimestampedMessage

#: Current protocol version; HELLO frames carrying anything else are refused.
PROTOCOL_VERSION = 1

#: Hard per-frame ceiling.  A length prefix above this is unrecoverable (the
#: stream cannot be resynchronised) so the connection is failed with an
#: ``oversized-frame`` error.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

# ------------------------------------------------------------- frame types
HELLO = 0x01
HELLO_ACK = 0x02
MSG = 0x03
MSG_ACK = 0x04
HEARTBEAT = 0x05
HEARTBEAT_ACK = 0x06
CLOSE = 0x07
CLOSE_ACK = 0x08
ERROR = 0x7F

FRAME_NAMES: Dict[int, str] = {
    HELLO: "HELLO",
    HELLO_ACK: "HELLO_ACK",
    MSG: "MSG",
    MSG_ACK: "MSG_ACK",
    HEARTBEAT: "HEARTBEAT",
    HEARTBEAT_ACK: "HEARTBEAT_ACK",
    CLOSE: "CLOSE",
    CLOSE_ACK: "CLOSE_ACK",
    ERROR: "ERROR",
}

# -------------------------------------------------------------- error codes
ERR_UNSUPPORTED_VERSION = "unsupported-version"
ERR_DUPLICATE_HELLO = "duplicate-hello"
#: HELLO named a source another open connection holds (one CLOSE would release both)
ERR_DUPLICATE_SOURCE = "duplicate-source"
ERR_HELLO_REQUIRED = "hello-required"
ERR_OVERSIZED_FRAME = "oversized-frame"
ERR_MALFORMED_FRAME = "malformed-frame"
ERR_UNKNOWN_TYPE = "unknown-frame-type"
ERR_UNKNOWN_CLIENT = "unknown-client"
ERR_BAD_PAYLOAD = "bad-payload"
#: the server itself failed (intake pump / dispatcher died); the run is over
ERR_SERVER_FAILURE = "server-failure"


class ProtocolError(Exception):
    """A framing violation that must fail the connection with a typed error.

    ``code`` is one of the ``ERR_*`` constants and is echoed to the peer in
    an :data:`ERROR` frame before the transport is closed.
    """

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class Frame:
    """One decoded frame: a type code plus its JSON payload."""

    type: int
    payload: Dict[str, object]

    @property
    def name(self) -> str:
        """Human-readable frame-type name (``"MSG"``, ``"HELLO"``, ...)."""
        return FRAME_NAMES.get(self.type, f"0x{self.type:02x}")


#: One compact-separator encoder for every frame (what ``json.dumps(...,
#: separators=(",", ":"))`` would build again on each call).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(frame_type: int, payload: Optional[Dict[str, object]] = None) -> bytes:
    """Serialise one frame to wire bytes (length prefix + type + JSON)."""
    body = _encode_json(payload or {}).encode("utf-8")
    if 1 + len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(ERR_OVERSIZED_FRAME, f"frame body {len(body)}B exceeds cap")
    return _LENGTH.pack(1 + len(body)) + bytes([frame_type]) + body


class FrameDecoder:
    """Incremental frame decoder over an unframed byte stream.

    Feed arbitrary chunks with :meth:`feed`; complete frames come back in
    order.  A truncated frame is simply *not yet* a frame — the decoder
    buffers and waits.  A length prefix above :data:`MAX_FRAME_BYTES` (or a
    frame body that fails to parse) raises :class:`ProtocolError`, after
    which the stream is poisoned and must be closed.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = int(max_frame_bytes)
        self._poisoned = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decodable into a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb ``data`` and return every frame it completes.

        With nothing buffered the frames are decoded straight from ``data``;
        only a trailing partial frame is copied into the buffer.
        """
        if self._poisoned:
            raise ProtocolError(ERR_MALFORMED_FRAME, "decoder already failed")
        buffer = self._buffer
        if buffer:
            buffer.extend(data)
            data = buffer
        frames: List[Frame] = []
        offset = 0
        end = len(data)
        header = _LENGTH.size
        while end - offset >= header:
            (length,) = _LENGTH.unpack_from(data, offset)
            if length > self._max:
                raise self._poison(
                    ERR_OVERSIZED_FRAME, f"length prefix {length}B exceeds {self._max}B cap"
                )
            if length < 1:
                raise self._poison(ERR_MALFORMED_FRAME, "zero-length frame")
            body = offset + header
            stop = body + length
            if stop > end:
                break  # truncated: wait for more bytes
            try:
                payload = json.loads(data[body + 1 : stop].decode("utf-8")) if length > 1 else {}
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise self._poison(ERR_MALFORMED_FRAME, f"bad JSON payload: {exc}") from exc
            if not isinstance(payload, dict):
                raise self._poison(ERR_MALFORMED_FRAME, "payload must be a JSON object")
            frames.append(Frame(type=data[body], payload=payload))
            offset = stop
        if data is buffer:
            del buffer[:offset]
        elif offset < end:
            buffer.extend(memoryview(data)[offset:])
        return frames

    def _poison(self, code: str, detail: str) -> ProtocolError:
        self._poisoned = True
        return ProtocolError(code, detail)


# ---------------------------------------------------------- payload helpers
def hello_payload(source: str, version: int = PROTOCOL_VERSION) -> Dict[str, object]:
    """HELLO payload: session version + a source name for watermark tracking."""
    return {"version": int(version), "source": str(source)}


def message_payload(message: TimestampedMessage) -> Dict[str, object]:
    """MSG payload for one message.

    ``vtime`` is the message's virtual (true) send time — the live
    dispatcher's watermark currency; ``id`` is the exactly-once idempotency
    token (see module docstring).
    """
    return {
        "client": message.client_id,
        "ts": message.timestamp,
        "vtime": message.true_time,
        "seq": int(message.sequence_number),
        "id": int(message.message_id),
        "data": message.payload,
    }


def heartbeat_payload(heartbeat: Heartbeat) -> Dict[str, object]:
    """HEARTBEAT payload mirroring :class:`~repro.network.message.Heartbeat`."""
    return {
        "client": heartbeat.client_id,
        "ts": heartbeat.timestamp,
        "vtime": heartbeat.true_time,
        "seq": int(heartbeat.sequence_number),
    }


def _require(payload: Dict[str, object], fields: Tuple[str, ...]) -> Iterator[object]:
    for name in fields:
        if name not in payload:
            raise ProtocolError(ERR_BAD_PAYLOAD, f"missing field {name!r}")
        yield payload[name]


def _finite(value: object, name: str) -> float:
    """``float(value)``, refusing the NaN / ±Infinity ``json.loads`` accepts: a
    batch with such a timestamp is both before and after every other, and such
    a vtime pins its source's watermark — either costs the run, not the frame."""
    number = float(value)  # type: ignore[arg-type]
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


def parse_message(payload: Dict[str, object]) -> Tuple[TimestampedMessage, float]:
    """Reconstruct a :class:`TimestampedMessage` (and its vtime) from a MSG payload.

    The wire ``id`` becomes ``message_id`` verbatim so socket-delivered
    traffic is bitwise-identical (fingerprint-wise) to in-process delivery.
    """
    client, ts, vtime, seq, mid = _require(payload, ("client", "ts", "vtime", "seq", "id"))
    try:
        message = TimestampedMessage(
            client_id=str(client),
            timestamp=_finite(ts, "ts"),
            true_time=_finite(vtime, "vtime"),
            payload=payload.get("data"),
            message_id=int(mid),  # type: ignore[arg-type]
            sequence_number=int(seq),  # type: ignore[arg-type]
        )
    except (TypeError, ValueError, OverflowError) as exc:  # int(1e999) overflows
        raise ProtocolError(ERR_BAD_PAYLOAD, f"bad MSG field: {exc}") from exc
    return message, message.true_time


def parse_heartbeat(payload: Dict[str, object]) -> Tuple[Heartbeat, float]:
    """Reconstruct a :class:`Heartbeat` (and its vtime) from a HEARTBEAT payload."""
    client, ts, vtime = _require(payload, ("client", "ts", "vtime"))
    try:
        heartbeat = Heartbeat(
            client_id=str(client),
            timestamp=_finite(ts, "ts"),
            true_time=_finite(vtime, "vtime"),
            sequence_number=int(payload.get("seq", 0)),  # type: ignore[arg-type]
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(ERR_BAD_PAYLOAD, f"bad HEARTBEAT field: {exc}") from exc
    return heartbeat, heartbeat.true_time


def error_frame(code: str, detail: str = "") -> bytes:
    """Encode a typed ERROR frame (the reject-don't-hang contract).

    ``detail`` is for a human and may quote what the peer sent: it is cut to
    256 characters so the answer to a near-cap frame cannot itself exceed the cap.
    """
    return encode_frame(ERROR, {"code": code, "detail": detail[:256]})
