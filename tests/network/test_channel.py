"""Tests for ordered and unordered channels."""

import numpy as np
import pytest

from repro.network.channel import OrderedChannel, UnorderedChannel
from repro.network.link import ConstantDelay, UniformJitterDelay
from repro.simulation.event_loop import EventLoop


def test_unordered_channel_delivers_after_delay():
    loop = EventLoop()
    received = []
    channel = UnorderedChannel(
        loop, "chan", ConstantDelay(0.5), np.random.default_rng(0), received.append
    )
    channel.send("hello")
    loop.run()
    assert received == ["hello"]
    assert loop.now == pytest.approx(0.5)
    assert channel.sent == 1
    assert channel.delivered == 1


def test_unordered_channel_can_reorder():
    loop = EventLoop()
    received = []
    # large jitter relative to send spacing forces occasional reordering
    channel = UnorderedChannel(
        loop, "chan", UniformJitterDelay(0.0, 1.0), np.random.default_rng(2), received.append
    )
    for index in range(30):
        loop.schedule_at(index * 0.01, channel.send, index)
    loop.run()
    assert sorted(received) == list(range(30))
    assert received != list(range(30))


def test_ordered_channel_preserves_fifo_despite_jitter():
    loop = EventLoop()
    received = []
    channel = OrderedChannel(
        loop, "chan", UniformJitterDelay(0.0, 1.0), np.random.default_rng(2), received.append
    )
    for index in range(30):
        loop.schedule_at(index * 0.01, channel.send, index)
    loop.run()
    assert received == list(range(30))


class _DropEveryOther:
    """A fault hook that drops every second item it sees."""

    drop = True
    copies = 1
    extra_delay = 0.0
    not_before = None

    def __init__(self):
        self.seen = 0

    def __call__(self, item, now):
        self.seen += 1
        return self if self.seen % 2 == 0 else None


def test_fault_hook_is_the_only_loss_and_is_counted():
    loop = EventLoop()
    received = []
    channel = UnorderedChannel(
        loop, "chan", ConstantDelay(0.0), np.random.default_rng(7), received.append
    )
    channel.set_fault_hook(_DropEveryOther())
    for index in range(20):
        channel.send(index)
    loop.run()
    assert channel.sent == 20
    assert channel.fault_dropped == 10
    assert channel.delivered == len(received) == 10
    assert received == list(range(0, 20, 2))
