"""Clock-synchronization substrate.

Clients learn their clock-offset distributions by accumulating
synchronization probes (paper §1 footnote 1, §3.3, §5).  This package
provides the probe exchange (NTP-style four-timestamp round trips), offset
estimators operating on probes, and a per-client learner that turns a window
of probe-derived offsets into a :class:`~repro.distributions.estimation.DistributionEstimate`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sync.probe": ("ProbeExchange", "SyncProbe"),
        "repro.sync.estimator": ("OffsetEstimator", "offset_from_probe"),
        "repro.sync.learner": ("OffsetDistributionLearner",),
        "repro.sync.refresh": ("DistributionRefreshLoop", "RefreshStats"),
        "repro.sync.protocol": ("SyncProtocol", "SyncSession"),
        "repro.sync.drift": (
            "AdaptiveOffsetLearner",
            "DriftFit",
            "DriftTracker",
            "RegimeShiftDetector",
            "RegimeShiftReport",
        ),
    },
)

__all__ = [
    "SyncProbe",
    "ProbeExchange",
    "OffsetEstimator",
    "offset_from_probe",
    "OffsetDistributionLearner",
    "DistributionRefreshLoop",
    "RefreshStats",
    "SyncProtocol",
    "SyncSession",
    "DriftTracker",
    "DriftFit",
    "RegimeShiftDetector",
    "RegimeShiftReport",
    "AdaptiveOffsetLearner",
]
