"""Liveness of online sequencing (paper §3.5 liveness caveat).

The heartbeat completeness rule "may cost liveness: a failed client may halt
the sequencer from emitting any messages".  The sequencer keeps the paper's
blocking rule: it has no guard that force-emits an old batch.
"""

from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.parametric import GaussianDistribution
from repro.simulation.event_loop import EventLoop
from tests.conftest import make_message


def build(loop, completeness="heartbeat", p_safe=0.9):
    distributions = {
        "alive": GaussianDistribution(0.0, 0.1),
        "failed": GaussianDistribution(0.0, 0.1),
    }
    config = TommyConfig(completeness_mode=completeness, p_safe=p_safe)
    return OnlineTommySequencer(loop, distributions, config)


def test_failed_client_blocks_emission_forever():
    loop = EventLoop()
    sequencer = build(loop)
    sequencer.receive(make_message("alive", 0.0), arrival_time=0.0)
    loop.run(until=1000.0)
    assert sequencer.emitted_batches == []
    assert len(sequencer.pending_messages) == 1
