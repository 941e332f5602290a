"""repro.obs — the unified telemetry layer.

Message-lifecycle tracing, a cluster-wide metrics registry, perfetto-ready
trace export and an instrumented-workload runner.

Contract: every traced message passes through the eight lifecycle stages in
:data:`LIFECYCLE_STAGES` — ``client_send → channel_deliver → shard_intake →
engine_append → emission_check → batch_emit → merge_observe → merge_commit``
— each recorded with both its simulated time and a wall-clock stamp; instant
happenings (fault firings, distribution refreshes, dedupe-gate hits, runtime
worker lifecycle, edge connections) land as :class:`EventRecord`\\ s.

Parity guarantees, pinned by ``tests/obs/``: same seed ⇒ identical
simulated-time trace (``Telemetry.sim_fingerprint()``; wall stamps are the
only permitted rerun difference), and telemetry off is bitwise free —
components default to the :data:`~repro.obs.telemetry.NO_TELEMETRY` no-op
singleton, hot paths gate on one ``enabled`` attribute read, and an
uninstrumented run produces the same merged order, counters and RNG
consumption as an instrumented one.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.registry": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "SnapshotSource",
            "StatsSnapshot",
        ),
        "repro.obs.telemetry": (
            "LIFECYCLE_STAGES",
            "NO_TELEMETRY",
            "EventRecord",
            "NullTelemetry",
            "StageRecord",
            "Telemetry",
            "resolve",
        ),
        "repro.obs.spans": ("Transition", "message_timelines", "stage_latency_rows", "transitions"),
        "repro.obs.export": (
            "chrome_trace_events",
            "metrics_snapshot",
            "write_chrome_trace",
            "write_metrics_json",
        ),
        "repro.obs.workload": ("WORKLOAD_NAMES", "InstrumentedRun", "run_instrumented_workload"),
    },
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SnapshotSource",
    "StatsSnapshot",
    "LIFECYCLE_STAGES",
    "NO_TELEMETRY",
    "EventRecord",
    "NullTelemetry",
    "StageRecord",
    "Telemetry",
    "resolve",
    "Transition",
    "message_timelines",
    "stage_latency_rows",
    "transitions",
    "chrome_trace_events",
    "metrics_snapshot",
    "write_chrome_trace",
    "write_metrics_json",
    "WORKLOAD_NAMES",
    "InstrumentedRun",
    "run_instrumented_workload",
]
