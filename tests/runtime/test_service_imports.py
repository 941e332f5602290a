"""What a serving process imports: numpy, ``scipy.special``, asyncio, ``repro``.

``scipy.stats`` (+46 MiB resident, +0.65 s of import) and ``networkx``
(+12.7 MiB) are needed by tests and their reference oracles only.  The probe runs in a fresh interpreter and drives every layer a request
touches, the non-Gaussian families included, then reads ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SERVICE_IMPORT_PROBE = """
import sys

import numpy as np

import repro.edge
import repro.runtime.live
from repro.cluster.merge import CrossShardMerger
from repro.core.config import TommyConfig
from repro.core.engine import PairTableCache
from repro.core.probability import PrecedenceModel
from repro.distributions.parametric import (
    GaussianDistribution,
    LaplaceDistribution,
    ShiftedLogNormalDistribution,
    StudentTDistribution,
    UniformDistribution,
)
from repro.network.message import SequencedBatch, TimestampedMessage
from repro.runtime.live import LiveClusterSpec, LiveDispatcher

families = {
    "gaussian": GaussianDistribution(0.0, 0.5),
    "laplace": LaplaceDistribution(0.0, 0.5),
    "lognormal": ShiftedLogNormalDistribution(-1.0, 0.0, 0.5),
    "student-t": StudentTDistribution(0.0, 0.5, 5.0),
    "uniform": UniformDistribution(-1.0, 1.0),
}
xs = np.linspace(-2.0, 2.0, 9)
for dist in families.values():
    low, high = dist.support()
    assert low < dist.quantile(0.5) < high
    assert dist.pdf(xs).shape == dist.cdf(xs).shape == xs.shape

# a cyclic merge: the matrix breaker, not the graph one
model = PrecedenceModel()
for client in ("a", "b"):
    model.register_client(client, GaussianDistribution(0.0, 0.5))
streaming = CrossShardMerger(model).streaming_merger(num_shards=2)
for shard, client, timestamp in ((0, "a", 10.0), (0, "a", 0.0), (1, "b", 5.0)):
    message = TimestampedMessage(client_id=client, timestamp=timestamp)
    rank = streaming.observation_cursor(shard)
    streaming.observe_batch(shard, SequencedBatch(rank=rank, messages=(message,)))
assert streaming.result().cycles_broken == 1

# a grid-backed pair table: pdf grids, FFT convolution, no closed form
model = PrecedenceModel()
for client in ("laplace", "student-t"):
    model.register_client(client, families[client])
grid, cdf = PairTableCache(model).table("laplace", "student-t")
assert grid.shape == cdf.shape and cdf[0] < 0.5 < cdf[-1]

# a two-shard live dispatch over all five families
spec = LiveClusterSpec(client_distributions=families, num_shards=2, config=TommyConfig(seed=0))
with LiveDispatcher(spec, runtime="sim") as dispatcher:
    dispatcher.open_source("edge")
    for index, client in enumerate(sorted(families)):
        message = TimestampedMessage(
            client_id=client, timestamp=float(index), true_time=float(index), message_id=index
        )
        dispatcher.submit("edge", message)
        dispatcher.advance()
    dispatcher.close_source("edge")
    outcome = dispatcher.finish()
assert outcome.message_count == len(families)

assert "scipy.stats" not in sys.modules, "the service path imported scipy.stats"
assert "networkx" not in sys.modules, "the service path imported networkx"
stray = [name for name in sys.modules if name.startswith(("scipy.stats.", "networkx."))]
assert not stray, stray
"""


def test_the_service_path_imports_neither_scipy_stats_nor_networkx():
    source = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", SERVICE_IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


OFFLINE_IMPORT_PROBE = """
import sys

from repro.core.config import TommyConfig
from repro.core.relation import LikelyHappenedBefore
from repro.core.sequencer import TommySequencer
from repro.network.message import TimestampedMessage

messages = [TimestampedMessage(client_id=c, timestamp=0.0, message_id=i) for i, c in enumerate("abc")]
relation = LikelyHappenedBefore.from_matrix(
    messages, [[0.0, 0.9, 0.2], [0.1, 0.0, 0.8], [0.8, 0.2, 0.0]]
)
for policy in ("greedy", "stochastic", "eades"):
    config = TommyConfig(cycle_policy=policy)
    assert TommySequencer(config=config).sequence_relation(relation).metadata["was_cyclic"]
assert "networkx" not in sys.modules, "offline sequencing imported networkx"
"""


def test_offline_sequencing_of_a_cycle_imports_no_networkx():
    source = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", OFFLINE_IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
