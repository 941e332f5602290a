"""Timing wrappers the benchmark installs around the program's public calls.

The program under ``src/`` is not instrumented.  For the traced pass the
server child replaces each public entry point listed in :data:`TARGETS` with
a wrapper, on the class (or module) that owns it, records one span per call
— name, start, end, parent — in memory, and restores the originals after the
pass.  A layer's *self* time is its spans' duration minus the part their
direct children cover, so the self times of one pass add up to the time spent
inside wrapped calls and the rest of the pass is asyncio, sockets and the pump.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.intake import IntakeDedupeGate
from repro.cluster.merge import StreamingMerger
from repro.cluster.router import ShardRouter
from repro.cluster.sharded import ShardedSequencer
from repro.core.engine import IncrementalPrecedenceEngine
from repro.core.online import OnlineTommySequencer
from repro.edge import protocol
from repro.edge.protocol import FrameDecoder
from repro.runtime.live import LiveDispatcher
from repro.simulation.event_loop import EventLoop

#: (owner, attribute, span name).  Module functions are patched on the module:
#: ``repro.edge.server`` calls them as ``protocol.<name>``.
TARGETS: Tuple[Tuple[object, str, str], ...] = (
    (FrameDecoder, "feed", "edge.protocol.decode"),
    (protocol, "encode_frame", "edge.protocol.encode"),
    (protocol, "parse_message", "edge.protocol.parse"),
    (LiveDispatcher, "submit", "runtime.live.submit"),
    (LiveDispatcher, "advance", "runtime.live.advance"),
    (LiveDispatcher, "finish", "runtime.live.finish"),
    (IntakeDedupeGate, "is_duplicate", "cluster.intake.is_duplicate"),
    (ShardRouter, "shard_of", "cluster.router.shard_of"),
    (ShardedSequencer, "receive", "cluster.sharded.receive"),
    (OnlineTommySequencer, "receive", "core.online.receive"),
    (IncrementalPrecedenceEngine, "add_message", "core.engine.add_message"),
    (IncrementalPrecedenceEngine, "first_tentative_group", "core.engine.first_tentative_group"),
    (IncrementalPrecedenceEngine, "remove_messages", "core.engine.remove_messages"),
    (EventLoop, "run", "simulation.event_loop.run"),
    (StreamingMerger, "observe_batch", "cluster.merge.observe_batch"),
    (StreamingMerger, "result", "cluster.merge.result"),
)

# span tuple: (name, start, end, parent index or -1, thread id)
Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, targets: Sequence[Tuple[object, str, str]] = TARGETS) -> None:
        self.spans: List[Optional[Span]] = []
        self._targets = tuple(targets)
        self._open = threading.local()  # dispatcher.finish runs in a worker thread
        self._originals: List[Tuple[object, str, object]] = []

    def _wrap(self, owner: object, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        spans = self.spans
        local = self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, threading.get_ident())

        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def install(self) -> None:
        """Replace every target with its timing wrapper."""
        for owner, attribute, name in self._targets:
            self._wrap(owner, attribute, name)

    def uninstall(self) -> None:
        """Restore the originals (idempotent)."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed self time and number of calls."""
        done = [span for span in self.spans if span is not None]
        layers: Dict[str, Dict[str, float]] = {
            name: {"self_s": 0.0, "calls": 0} for _, _, name in self._targets
        }
        for name, start, end, parent, _ in done:
            layers[name]["self_s"] += end - start
            layers[name]["calls"] += 1
            if parent >= 0 and self.spans[parent] is not None:
                layers[self.spans[parent][0]]["self_s"] -= end - start
        return layers

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome ``trace_event`` JSON (ui.perfetto.dev loads it)."""
        done = [span for span in self.spans if span is not None]
        origin = min((span[1] for span in done), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": thread,
                "args": {"parent": self.spans[parent][0] if parent >= 0 else None},
            }
            for name, start, end, parent, thread in done
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
