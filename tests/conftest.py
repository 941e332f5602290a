"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage
from repro.simulation.event_loop import EventLoop

# the reference oracles (``merge_reference``) import by bare module name
sys.path.insert(0, str(Path(__file__).parent / "reference"))

# Tier-1 is deterministic: every property test draws the same examples on
# every run, and no example database replays what an earlier run found.  The
# nightly run searches afresh with ``--hypothesis-profile randomized``; a
# case it finds is fixed in the code or pinned with ``@example``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False, database=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def loop() -> EventLoop:
    """Fresh event loop starting at t=0."""
    return EventLoop()


@pytest.fixture
def two_client_distributions():
    """Two zero-mean Gaussian error distributions keyed by client id."""
    return {
        "alice": GaussianDistribution(0.0, 1.0),
        "bob": GaussianDistribution(0.0, 2.0),
    }


def make_message(client_id: str, timestamp: float, true_time: float = None, seq: int = 0) -> TimestampedMessage:
    """Helper to build a message with sensible defaults."""
    return TimestampedMessage(
        client_id=client_id,
        timestamp=timestamp,
        true_time=timestamp if true_time is None else true_time,
        sequence_number=seq,
    )


@pytest.fixture
def message_factory():
    """Expose :func:`make_message` as a fixture."""
    return make_message
