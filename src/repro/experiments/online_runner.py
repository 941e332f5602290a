"""End-to-end online sequencing experiments on the simulated network.

Used by the p_safe ablation and the online examples: clients on a simulated
network send a burst of messages plus heartbeats to an
:class:`~repro.core.online.OnlineTommySequencer`; the run reports both
fairness of the emitted batches and the emission latency distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.clocks.local import LocalClock
from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.parametric import GaussianDistribution
from repro.experiments.runner import SequencerComparison, evaluate_result
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.network.link import UniformJitterDelay
from repro.network.message import TimestampedMessage
from repro.network.transport import Transport
from repro.simulation.event_loop import EventLoop
from repro.simulation.random_source import RandomSource


#: Spacing (seconds) between one client's consecutive messages.
MESSAGE_SPACING = 0.002
#: Per-client channel delay: ``NETWORK_BASE_DELAY`` plus up to ``NETWORK_JITTER``.
NETWORK_BASE_DELAY = 0.001
NETWORK_JITTER = 0.0005
#: Interval (seconds) of every client's heartbeats.
HEARTBEAT_INTERVAL = 0.001


@dataclass(frozen=True)
class OnlineExperimentSettings:
    """Configuration for one online sequencing run.

    Message spacing, channel delay and heartbeat interval are the module
    constants above; the population, clock spread, sequencer configuration,
    run length and seed vary.
    """

    num_clients: int = 10
    messages_per_client: int = 3
    clock_std: float = 0.0005
    run_duration: float = 5.0
    config: TommyConfig = TommyConfig()
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be at least 1")
        if self.messages_per_client < 1:
            raise ValueError("messages_per_client must be at least 1")
        if self.run_duration <= 0:
            raise ValueError("run_duration must be positive")


@dataclass(frozen=True)
class OnlineExperimentOutcome:
    """Fairness and latency outcome of one online run."""

    comparison: SequencerComparison
    latency: LatencySummary
    emitted_batches: int
    flushed_messages: int
    extensions: int

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for report tables."""
        row = self.comparison.as_row()
        row.update(
            {
                "mean_latency": round(self.latency.mean, 6),
                "p95_latency": round(self.latency.p95, 6),
                "emitted_batches": self.emitted_batches,
                "flushed_messages": self.flushed_messages,
                "extensions": self.extensions,
            }
        )
        return row


def run_online_experiment(
    settings: Optional[OnlineExperimentSettings] = None,
) -> OnlineExperimentOutcome:
    """Simulate clients on a jittery network feeding the online sequencer."""
    settings = settings if settings is not None else OnlineExperimentSettings()
    loop = EventLoop()
    random_source = RandomSource(settings.seed)
    transport = Transport(loop, rng_factory=random_source.stream)

    distributions = {}
    clients = []
    for index in range(settings.num_clients):
        client_id = f"client-{index:03d}"
        sigma = max(settings.clock_std, 1e-9)
        distribution = GaussianDistribution(0.0, sigma)
        distributions[client_id] = distribution
        clock = LocalClock(loop, distribution, random_source.stream(f"clock:{client_id}"))
        client = transport.add_client(
            client_id,
            clock,
            delay_model=UniformJitterDelay(NETWORK_BASE_DELAY, NETWORK_JITTER),
            ordered=True,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        )
        clients.append(client)

    sequencer = OnlineTommySequencer(
        loop,
        client_distributions=distributions,
        config=settings.config,
        known_clients=list(distributions),
    )
    transport.sequencer.on_arrival(sequencer.receive)

    workload_rng = random_source.stream("workload")
    for client_index, client in enumerate(clients):
        for message_index in range(settings.messages_per_client):
            offset = (
                client_index * MESSAGE_SPACING / max(settings.num_clients, 1)
                + message_index * MESSAGE_SPACING
                + float(workload_rng.uniform(0.0, MESSAGE_SPACING * 0.25))
            )
            loop.schedule_at(0.001 + offset, client.send, {"index": message_index})
        client.start_heartbeats()

    loop.run(until=settings.run_duration)
    pending_before_flush = len(sequencer.pending_messages)
    sequencer.flush()

    sent_messages: List[TimestampedMessage] = []
    for client in clients:
        sent_messages.extend(client.sent_messages)

    comparison = evaluate_result("tommy-online", sequencer.result(), sent_messages)
    latency = summarize_latencies(sequencer.emission_latencies())
    return OnlineExperimentOutcome(
        comparison=comparison,
        latency=latency,
        emitted_batches=len(sequencer.emitted_batches),
        flushed_messages=pending_before_flush,
        extensions=sequencer.extension_count,
    )
