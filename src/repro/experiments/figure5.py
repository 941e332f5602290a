"""Reproduction of Figure 5: fairness (RAS) of Tommy vs TrueTime.

The paper's Figure 5 plots the Rank Agreement Score of Tommy and of the
TrueTime baseline as the clock standard deviation sweeps from 0 to 120 (time
units), with the marker size proportional to the inter-message gap across
clients.  Expected shape: the two systems are comparable when clock errors
are small relative to the gap; Tommy scores higher as the gap shrinks and/or
the clock error grows; under extreme uncertainty Tommy's probabilistic
decisions can push its RAS below zero while TrueTime degrades to zero by
refusing to order anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TommyConfig
from repro.core.sequencer import TommySequencer
from repro.distributions.parametric import GaussianDistribution
from repro.experiments.runner import evaluate_result
from repro.sequencers.truetime import TrueTimeSequencer
from repro.workloads.arrivals import UniformGapArrivals
from repro.workloads.scenario import ScenarioConfig, build_scenario


@dataclass(frozen=True)
class Figure5Settings:
    """Sweep settings for the Figure 5 reproduction.

    The paper simulates 500 clients, one message each; the default here is
    smaller so the benchmark finishes quickly — pass ``num_clients=500`` for
    paper scale.  TrueTime's uncertainty interval is its default ±3σ.
    """

    num_clients: int = 80
    sigma_values: Tuple[float, ...] = (1.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0)
    gap_values: Tuple[float, ...] = (5.0, 20.0, 80.0)
    threshold: float = 0.75
    sigma_heterogeneity: float = 0.5
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_clients < 2:
            raise ValueError("num_clients must be at least 2")
        if not 0.0 <= self.sigma_heterogeneity < 1.0:
            raise ValueError("sigma_heterogeneity must be in [0, 1)")


@dataclass(frozen=True)
class Figure5Point:
    """One (clock std-dev, inter-message gap) point of the figure."""

    clock_std: float
    message_gap: float
    tommy_ras: int
    truetime_ras: int
    tommy_ras_normalized: float
    truetime_ras_normalized: float
    tommy_batches: int
    truetime_batches: int
    message_count: int

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for tables / CSV output."""
        return {
            "clock_std": self.clock_std,
            "gap": self.message_gap,
            "tommy_ras": self.tommy_ras,
            "truetime_ras": self.truetime_ras,
            "tommy_ras_norm": round(self.tommy_ras_normalized, 4),
            "truetime_ras_norm": round(self.truetime_ras_normalized, 4),
            "tommy_batches": self.tommy_batches,
            "truetime_batches": self.truetime_batches,
            "messages": self.message_count,
        }


def _gaussian_factory(clock_std: float, heterogeneity: float):
    def factory(client_index: int, rng: np.random.Generator) -> GaussianDistribution:
        if clock_std <= 0:
            return GaussianDistribution(0.0, 1e-9)
        low = clock_std * (1.0 - heterogeneity)
        high = clock_std * (1.0 + heterogeneity)
        sigma = float(rng.uniform(low, high)) if heterogeneity > 0 else clock_std
        mean = float(rng.normal(0.0, clock_std * 0.1))
        return GaussianDistribution(mean, max(sigma, 1e-9))

    return factory


def run_figure5_point(
    clock_std: float,
    gap: float,
    settings: Figure5Settings,
) -> Figure5Point:
    """Evaluate Tommy and the TrueTime baseline at one sweep point."""
    scenario = build_scenario(
        ScenarioConfig(
            num_clients=settings.num_clients,
            arrivals=UniformGapArrivals(
                messages_per_client=1, gap=gap, jitter_fraction=0.2
            ),
            distribution_factory=_gaussian_factory(clock_std, settings.sigma_heterogeneity),
            seed=settings.seed + int(clock_std * 1000) + int(gap * 17),
        )
    )
    distributions = scenario.client_distributions
    tommy = TommySequencer(
        client_distributions=distributions,
        config=TommyConfig(threshold=settings.threshold),
    )
    truetime = TrueTimeSequencer(client_distributions=distributions)
    messages = list(scenario.messages)
    tommy_eval = evaluate_result("tommy", tommy.sequence(messages), messages)
    truetime_eval = evaluate_result("truetime", truetime.sequence(messages), messages)
    return Figure5Point(
        clock_std=clock_std,
        message_gap=gap,
        tommy_ras=tommy_eval.ras.score,
        truetime_ras=truetime_eval.ras.score,
        tommy_ras_normalized=tommy_eval.ras.normalized_score,
        truetime_ras_normalized=truetime_eval.ras.normalized_score,
        tommy_batches=tommy_eval.batches.batch_count,
        truetime_batches=truetime_eval.batches.batch_count,
        message_count=len(messages),
    )


def run_figure5(settings: Optional[Figure5Settings] = None) -> List[Figure5Point]:
    """Run the full Figure 5 sweep and return one point per (std, gap) pair."""
    settings = settings if settings is not None else Figure5Settings()
    points: List[Figure5Point] = []
    for gap in settings.gap_values:
        for clock_std in settings.sigma_values:
            points.append(run_figure5_point(clock_std, gap, settings))
    return points


def figure5_rows(points: Sequence[Figure5Point]) -> List[Dict[str, object]]:
    """Row dictionaries for :func:`repro.experiments.reporting.format_table`."""
    return [point.as_row() for point in points]
