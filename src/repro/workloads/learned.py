"""The *learned* workload: non-Gaussian clocks plus sync-probe streams.

Paper §3.3/§5: clients do not know their offset distribution f_theta — they
learn it from synchronization probes while traffic flows.  This workload
generates exactly that situation:

* every client's ground-truth clock-error distribution is non-Gaussian
  (a skewed two-component mixture, per-client parameters), so the static
  Gaussian assumption is genuinely wrong;
* alongside the timestamped messages, each client carries a stream of
  :class:`~repro.sync.probe.SyncProbe` observations of its own offsets.
  A configurable fraction of probes is congested: inflated round-trip delay
  *and* an asymmetry-biased offset reading — the probes the estimator's
  ``best_fraction`` RTT filter exists to discard;
* a deliberately mis-fitted static Gaussian guess per client (moment-matched
  to a handful of early probes, congested ones included) provides the
  baseline the live-learned pipeline is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.distributions.base import OffsetDistribution
from repro.distributions.mixtures import MixtureDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.sync.probe import SyncProbe
from repro.workloads.arrivals import UniformGapArrivals
from repro.workloads.scenario import Scenario, ScenarioConfig, build_scenario


def synthesize_probe(
    client_id: str,
    offset: float,
    round_trip: float,
    when: float = 0.0,
) -> SyncProbe:
    """A four-timestamp probe with exact offset and RTT readings.

    The timestamps are constructed so that
    ``probe.client_offset_estimate == offset`` and
    ``probe.round_trip_delay == round_trip`` — handy for workloads and tests
    that want to drive the estimator/learner with controlled observations.
    """
    if round_trip < 0:
        raise ValueError(f"round_trip must be non-negative, got {round_trip!r}")
    t2 = when + 0.5 * round_trip
    return SyncProbe(
        client_id=client_id,
        t1=when + offset,
        t2=t2,
        t3=t2,
        t4=when + round_trip + offset,
        true_offset_forward=offset,
        true_offset_backward=offset,
    )


@dataclass(frozen=True)
class LearnedWorkload:
    """A learned-pipeline scenario: messages, probes and distribution guesses."""

    scenario: Scenario
    probe_streams: Dict[str, List[SyncProbe]]
    static_gaussians: Dict[str, OffsetDistribution]

    @property
    def truth(self) -> Dict[str, OffsetDistribution]:
        """Ground-truth (non-Gaussian) client error distributions."""
        return self.scenario.client_distributions

    @property
    def probe_count(self) -> int:
        """Total probes across all clients."""
        return sum(len(stream) for stream in self.probe_streams.values())


def _mixture_factory(clock_std: float):
    """Per-client skewed bimodal clock errors (distinct parameters each)."""

    def factory(client_index: int, rng: np.random.Generator) -> OffsetDistribution:
        scale = max(float(rng.uniform(0.5, 1.5)) * clock_std, 1e-9)
        tail_shift = float(rng.uniform(1.0, 2.5)) * scale
        weight = float(rng.uniform(0.65, 0.9))
        return MixtureDistribution(
            [
                GaussianDistribution(float(rng.normal(0.0, 0.1 * scale)), 0.5 * scale),
                GaussianDistribution(tail_shift, 0.8 * scale),
            ],
            [weight, 1.0 - weight],
        )

    return factory


def build_learned_workload(
    num_clients: int = 24,
    messages_per_client: int = 2,
    probes_per_client: int = 96,
    gap: float = 10.0,
    clock_std: float = 30.0,
    base_rtt: float = 1e-3,
    congested_fraction: float = 0.25,
    congestion_delay: float = 50e-3,
    seed: int = 0,
) -> LearnedWorkload:
    """Generate a learned-pipeline workload.

    ``congested_fraction`` of each client's probes suffer an inflated RTT and
    an offset reading biased by 1.5 to 4.5 ``clock_std`` (queueing
    asymmetry); clean probes observe true offset samples at ``base_rtt``.
    The static Gaussian guess per client is moment-matched to the first 8
    probes *without* RTT filtering — the naive bootstrap a client would do
    before the learned pipeline exists.
    """
    if not 0.0 <= congested_fraction < 1.0:
        raise ValueError(f"congested_fraction must be in [0, 1), got {congested_fraction!r}")
    scenario = build_scenario(
        ScenarioConfig(
            num_clients=num_clients,
            arrivals=UniformGapArrivals(
                messages_per_client=messages_per_client, gap=gap, jitter_fraction=0.2
            ),
            distribution_factory=_mixture_factory(clock_std),
            seed=seed,
        )
    )
    rng = np.random.default_rng(seed + 1)
    probe_streams: Dict[str, List[SyncProbe]] = {}
    static_gaussians: Dict[str, OffsetDistribution] = {}
    for client_id, truth in scenario.client_distributions.items():
        stream: List[SyncProbe] = []
        for probe_index in range(probes_per_client):
            offset = float(truth.sample(rng))
            if float(rng.uniform()) < congested_fraction:
                round_trip = base_rtt + float(rng.exponential(congestion_delay))
                offset += 3.0 * clock_std * float(rng.uniform(0.5, 1.5))
            else:
                round_trip = base_rtt * float(rng.uniform(0.8, 1.2))
            stream.append(
                synthesize_probe(client_id, offset, round_trip, when=float(probe_index))
            )
        probe_streams[client_id] = stream
        bootstrap = np.asarray(
            [probe.client_offset_estimate for probe in stream[:8]], dtype=float
        )
        std = float(bootstrap.std(ddof=1)) if bootstrap.size > 1 else clock_std
        static_gaussians[client_id] = GaussianDistribution(
            float(bootstrap.mean()), max(std, 1e-9)
        )
    return LearnedWorkload(
        scenario=scenario,
        probe_streams=probe_streams,
        static_gaussians=static_gaussians,
    )
