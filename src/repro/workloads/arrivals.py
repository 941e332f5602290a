"""Arrival processes: when (in true time) clients generate messages."""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Sequence

import numpy as np


class ArrivalProcess(abc.ABC):
    """Produces per-client ground-truth generation times."""

    @abc.abstractmethod
    def generate(
        self, client_ids: Sequence[str], rng: np.random.Generator
    ) -> Dict[str, List[float]]:
        """Return a sorted list of generation times for every client."""


class UniformGapArrivals(ArrivalProcess):
    """Global event stream with a fixed mean gap, dealt round-robin to clients.

    This is the Figure 5 workload: the *inter-messages gap across clients*
    controls how temporally close competing messages are.  Each consecutive
    global event is separated by ``gap`` seconds (optionally jittered) and
    assigned to the next client in round-robin order.
    """

    def __init__(
        self,
        messages_per_client: int,
        gap: float,
        jitter_fraction: float = 0.0,
        start_time: float = 0.0,
    ) -> None:
        if messages_per_client < 1:
            raise ValueError("messages_per_client must be at least 1")
        if gap < 0:
            raise ValueError("gap must be non-negative")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        self._per_client = int(messages_per_client)
        self._gap = float(gap)
        self._jitter = float(jitter_fraction)
        self._start = float(start_time)

    @property
    def gap(self) -> float:
        """Mean spacing between consecutive events across all clients."""
        return self._gap

    def generate(
        self, client_ids: Sequence[str], rng: np.random.Generator
    ) -> Dict[str, List[float]]:
        client_ids = list(client_ids)
        total = self._per_client * len(client_ids)
        times: Dict[str, List[float]] = {client: [] for client in client_ids}
        current = self._start
        for index in range(total):
            client = client_ids[index % len(client_ids)]
            times[client].append(current)
            step = self._gap
            if self._jitter > 0 and self._gap > 0:
                step = self._gap * float(rng.uniform(1.0 - self._jitter, 1.0 + self._jitter))
            # keep strictly increasing even at gap == 0 (no two events share an instant)
            current += max(step, 1e-12)
        return times


class PoissonArrivals(ArrivalProcess):
    """Independent Poisson arrivals per client over ``[0, horizon]``."""

    def __init__(self, rate_per_client: float, horizon: float) -> None:
        # a NaN or infinite bound never ends the loop in generate()
        if not (math.isfinite(rate_per_client) and rate_per_client > 0):
            raise ValueError("rate_per_client must be finite and positive")
        if not (math.isfinite(horizon) and horizon > 0):
            raise ValueError("horizon must be finite and positive")
        self._rate = float(rate_per_client)
        self._horizon = float(horizon)

    def generate(
        self, client_ids: Sequence[str], rng: np.random.Generator
    ) -> Dict[str, List[float]]:
        times: Dict[str, List[float]] = {}
        for client in client_ids:
            arrivals: List[float] = []
            current = 0.0
            while True:
                current += float(rng.exponential(1.0 / self._rate))
                if current > self._horizon:
                    break
                arrivals.append(current)
            times[client] = arrivals
        return times


class BurstArrivals(ArrivalProcess):
    """Auction-app burst: all clients react to one broadcast event.

    A sensitive event (e.g. market volatility broadcast) occurs at
    ``event_time``; every client reacts after an independent reaction delay
    drawn from a log-normal distribution, then optionally sends a short
    follow-up burst of messages.
    """

    def __init__(
        self,
        event_time: float = 0.0,
        reaction_median: float = 100e-6,
        reaction_sigma: float = 0.5,
        followups: int = 0,
        followup_gap: float = 50e-6,
    ) -> None:
        if reaction_median <= 0:
            raise ValueError("reaction_median must be positive")
        if reaction_sigma < 0:
            raise ValueError("reaction_sigma must be non-negative")
        if followups < 0:
            raise ValueError("followups must be non-negative")
        if followup_gap <= 0:
            raise ValueError("followup_gap must be positive")
        self._event_time = float(event_time)
        self._median = float(reaction_median)
        self._sigma = float(reaction_sigma)
        self._followups = int(followups)
        self._followup_gap = float(followup_gap)

    @property
    def event_time(self) -> float:
        """True time of the broadcast event triggering the burst."""
        return self._event_time

    def generate(
        self, client_ids: Sequence[str], rng: np.random.Generator
    ) -> Dict[str, List[float]]:
        times: Dict[str, List[float]] = {}
        for client in client_ids:
            reaction = float(rng.lognormal(np.log(self._median), self._sigma))
            first = self._event_time + reaction
            burst = [first]
            for k in range(self._followups):
                burst.append(first + (k + 1) * self._followup_gap * float(rng.uniform(0.8, 1.2)))
            times[client] = burst
        return times
