"""Live ingestion edge: the socket front door for the cluster runtimes.

Contract: the edge accepts framed client connections
(:mod:`repro.edge.protocol` — length-prefixed, versioned HELLO/MSG/
HEARTBEAT/CLOSE with typed ERROR rejections), admits each message through
the same exactly-once gate the cluster uses
(:class:`~repro.cluster.intake.IntakeDedupeGate`, decision acked back to
the sender) in the callback that read its frame, and bounds the items gated
between two ``advance()`` calls — at the bound connections stop reading
their sockets and TCP flow control pushes back
(:class:`~repro.edge.server.EdgeServer`).

Parity guarantee: a frozen workload streamed through real loopback sockets
into either live runtime (``sim`` or ``procs``) yields a merge fingerprint
bitwise equal to :class:`~repro.runtime.sim.SimBackend` on the same
workload (``tests/edge/test_live_parity.py``) — the edge cannot silently
reorder admitted traffic.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.edge.client": ("EdgeClient", "EdgeError", "replay_workload"),
        "repro.edge.protocol": (
            "FRAME_NAMES",
            "MAX_FRAME_BYTES",
            "PROTOCOL_VERSION",
            "Frame",
            "FrameDecoder",
            "ProtocolError",
            "encode_frame",
        ),
        "repro.edge.server": ("EdgeServer",),
    },
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FRAME_NAMES",
    "Frame",
    "FrameDecoder",
    "ProtocolError",
    "encode_frame",
    "EdgeServer",
    "EdgeClient",
    "EdgeError",
    "replay_workload",
]
