"""Configuration for the Tommy sequencer."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class TommyConfig:
    """Hyper-parameters of the Tommy sequencer.

    Attributes
    ----------
    threshold:
        Confidence threshold for inserting a batch boundary between adjacent
        messages in the extracted linear order (paper §3.4; 0.75 in the
        paper's evaluation).  Values closer to 1 create fewer, larger batches
        (more confidence, less fairness granularity); values closer to 0.5
        approach a total order.
    p_safe:
        Confidence level for the safe-emission time of a batch in online
        sequencing (paper §3.5; e.g. 0.999).
    probability_method:
        ``"auto"`` (Gaussian closed form when possible, FFT otherwise),
        ``"gaussian"``, ``"fft"`` or ``"direct"`` — forwarded to
        :func:`repro.distributions.difference_distribution`.
    convolution_points:
        Grid resolution used by the numerical convolution paths.
    cycle_policy:
        How to handle an intransitive (cyclic) tournament: ``"greedy"``
        removes minimum-probability edges until acyclic, ``"stochastic"``
        removes cycle edges randomly weighted toward low-probability edges
        (long-run stochastic fairness), ``"eades"`` uses the Eades–Lin–Smyth
        linear-arrangement heuristic.
    batching_mode:
        ``"adjacent"`` applies the paper's §3.4 rule (boundary between
        adjacent messages whose preceding probability exceeds the
        threshold); ``"strict"`` additionally requires every pair straddling
        the boundary to be confident (the Appendix C behaviour, and the rule
        the online sequencer always uses for its tentative batches).
    completeness_mode:
        Online sequencing completeness rule (Q2): ``"heartbeat"`` waits for a
        message/heartbeat with a later timestamp from every client (requires
        ordered channels); ``"bounded_delay"`` waits ``max_network_delay``
        after a message's timestamp; ``"none"`` disables the check.
    max_network_delay:
        Bound used by the ``"bounded_delay"`` completeness mode.
    max_batch_age:
        Liveness guard for online sequencing (paper §3.5 notes that an
        adverse arrival pattern or a failed client can block emission
        indefinitely; the heartbeat rule "may cost liveness").  When set, a
        candidate batch whose oldest message has been pending longer than
        this many seconds is force-emitted even if the completeness rule or
        the safe-emission wait has not been satisfied.  ``None`` (default)
        preserves the paper's blocking behaviour.
    tie_epsilon:
        Probabilities within ``tie_epsilon`` of 0.5 are treated as exact ties
        when building the tournament (the paper assumes no ties; we break
        them deterministically by message id and record the count).
    """

    threshold: float = 0.75
    p_safe: float = 0.999
    probability_method: str = "auto"
    convolution_points: int = 2048
    cycle_policy: str = "greedy"
    batching_mode: str = "adjacent"
    completeness_mode: str = "heartbeat"
    max_network_delay: float = 0.0
    max_batch_age: Optional[float] = None
    tie_epsilon: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.5 <= self.threshold < 1.0:
            raise ValueError(f"threshold must be in [0.5, 1), got {self.threshold!r}")
        if self.batching_mode not in {"adjacent", "strict"}:
            raise ValueError(f"unknown batching_mode {self.batching_mode!r}")
        if not 0.5 < self.p_safe < 1.0:
            raise ValueError(f"p_safe must be in (0.5, 1), got {self.p_safe!r}")
        if self.probability_method not in {"auto", "gaussian", "fft", "direct"}:
            raise ValueError(f"unknown probability_method {self.probability_method!r}")
        if self.convolution_points < 16:
            raise ValueError("convolution_points must be at least 16")
        if self.cycle_policy not in {"greedy", "stochastic", "eades"}:
            raise ValueError(f"unknown cycle_policy {self.cycle_policy!r}")
        if self.completeness_mode not in {"heartbeat", "bounded_delay", "none"}:
            raise ValueError(f"unknown completeness_mode {self.completeness_mode!r}")
        if self.max_network_delay < 0:
            raise ValueError("max_network_delay must be non-negative")
        if self.max_batch_age is not None and self.max_batch_age <= 0:
            raise ValueError("max_batch_age must be positive when given")
        if not 0.0 <= self.tie_epsilon < 0.5:
            raise ValueError("tie_epsilon must be in [0, 0.5)")

    def _replace(self, **overrides: object) -> "TommyConfig":
        return replace(self, **overrides)

    def with_threshold(self, threshold: float) -> "TommyConfig":
        """Copy of this configuration with a different batching threshold."""
        return self._replace(threshold=threshold)

    def with_p_safe(self, p_safe: float) -> "TommyConfig":
        """Copy of this configuration with a different safe-emission confidence."""
        return self._replace(p_safe=p_safe)
