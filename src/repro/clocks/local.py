"""A client's local clock: true time + stochastic offset + drift + read jitter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.clocks.drift import DriftModel, NoDrift
from repro.distributions.base import OffsetDistribution
from repro.simulation.event_loop import EventLoop


@dataclass(frozen=True)
class ClockReading:
    """One clock read: the reported timestamp plus ground-truth bookkeeping."""

    reported: float
    true_time: float
    offset: float
    drift: float
    jitter: float

    @property
    def error(self) -> float:
        """Total error of the reported timestamp relative to true time."""
        return self.reported - self.true_time


class LocalClock:
    """A client's clock.

    At every read the clock reports ``true_time + theta`` where ``theta`` is
    a fresh draw from the client's offset distribution (matching the paper's
    evaluation methodology, §4: "At message generation, a client reads the
    wall-clock time t, samples noise eps from the distribution, and tags the
    message with T = t + eps"), plus accumulated drift and optional
    host-data-path read jitter.

    Parameters
    ----------
    loop:
        The event loop providing true time.
    offset_distribution:
        Distribution of the synchronization offset ``theta``.
    rng:
        Random generator for offset and jitter draws.
    drift:
        Optional :class:`DriftModel`; defaults to no drift.
    read_jitter_std:
        Standard deviation of additional zero-mean Gaussian read jitter.
    resample_every_read:
        When ``True`` (the default, and the paper's model) a fresh offset is
        drawn on every read; when ``False`` the offset is drawn once and held
        fixed, modelling a stable but unknown offset.
    """

    def __init__(
        self,
        loop: EventLoop,
        offset_distribution: OffsetDistribution,
        rng: np.random.Generator,
        drift: Optional[DriftModel] = None,
        read_jitter_std: float = 0.0,
        resample_every_read: bool = True,
    ) -> None:
        if read_jitter_std < 0:
            raise ValueError(f"read_jitter_std must be non-negative, got {read_jitter_std!r}")
        self._loop = loop
        self._distribution = offset_distribution
        self._rng = rng
        self._drift = drift if drift is not None else NoDrift()
        self._read_jitter_std = float(read_jitter_std)
        self._resample = bool(resample_every_read)
        self._fixed_offset: Optional[float] = None
        self._reads = 0

    @property
    def offset_distribution(self) -> OffsetDistribution:
        """The (ground truth) offset distribution this clock samples from."""
        return self._distribution

    @property
    def reads(self) -> int:
        """Number of reads performed so far."""
        return self._reads

    def _draw_offset(self) -> float:
        if self._resample:
            return float(self._distribution.sample(self._rng))
        if self._fixed_offset is None:
            self._fixed_offset = float(self._distribution.sample(self._rng))
        return self._fixed_offset

    def read(self) -> ClockReading:
        """Read the clock, returning the reported timestamp and ground truth."""
        true_time = self._loop.now
        offset = self._draw_offset()
        drift = self._drift.offset_at(true_time)
        jitter = (
            float(self._rng.normal(0.0, self._read_jitter_std))
            if self._read_jitter_std > 0
            else 0.0
        )
        self._reads += 1
        return ClockReading(
            reported=true_time + offset + drift + jitter,
            true_time=true_time,
            offset=offset,
            drift=drift,
            jitter=jitter,
        )

    def now(self) -> float:
        """Convenience: the reported timestamp of a fresh read."""
        return self.read().reported
