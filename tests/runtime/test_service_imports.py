"""What a serving process imports: numpy, ``scipy.special``, asyncio and the
serving layers of ``repro``.

``scipy.stats`` (+46 MiB resident, +0.65 s of import) and ``networkx``
(+12.7 MiB) are needed by tests and their reference oracles only.  The
chaos harness, the experiments, metrics, apps, the sync stack, the chaos
harness's cluster (``cluster.sharded``) and the baseline sequencers are not
on the serve path either: packages export lazily, so importing one module of
a package does not load its siblings.  The probes run in a fresh
interpreter, drive every layer a request touches, the non-Gaussian families
included, then read ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[2] / "src"

#: Layers a serving process never loads (each with its submodules).
NOT_SERVED = (
    "repro.chaos",
    "repro.experiments",
    "repro.metrics",
    "repro.apps",
    "repro.cli",
    "repro.sync",
    "repro.cluster.sharded",
    "repro.sequencers.fifo",
    "repro.sequencers.wfo",
    "repro.sequencers.truetime",
    "repro.sequencers.oracle",
    "repro.sequencers.lamport",
)


def loaded_modules(probe: str) -> list:
    """Run ``probe`` in a fresh interpreter; the JSON list it prints last."""
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SOURCE)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def not_served(modules: list) -> list:
    nested = tuple(f"{layer}." for layer in NOT_SERVED)
    return [m for m in modules if m in NOT_SERVED or m.startswith(nested)]


SERVICE_IMPORT_PROBE = """
import json
import sys

import numpy as np

import repro.edge.server
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

print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def service_modules():
    return loaded_modules(SERVICE_IMPORT_PROBE)


def test_the_service_path_imports_neither_scipy_stats_nor_networkx(service_modules):
    stray = [m for m in service_modules if m.startswith(("scipy.stats", "networkx"))]
    assert not stray, stray


def test_the_service_path_loads_only_the_serving_layers(service_modules):
    assert not not_served(service_modules)
    assert "repro.edge.server" in service_modules and "repro.runtime.live" in service_modules


SERVE_CLI_PROBE = """
import json
import sys

from repro import cli
from repro.core.config import TommyConfig
from repro.edge.client import replay_workload
from repro.edge.server import EdgeServer
from repro.runtime.base import ClusterWorkload
from repro.workloads.cluster import build_cluster_scenario

serve_until_idle = EdgeServer.serve_until_idle
served = []


async def with_one_client(self, idle_grace=0.2):
    scenario = build_cluster_scenario(num_clients=8, seed=7)
    workload = ClusterWorkload.from_scenario(scenario, num_shards=2, config=TommyConfig(seed=7))
    await replay_workload("127.0.0.1", self.port, workload, connections=2)
    outcome = await serve_until_idle(self, idle_grace)
    served.extend(sys.modules)  # before the summary table is printed
    return outcome


EdgeServer.serve_until_idle = with_one_client
assert cli.main(["--num-clients", "8", "--shards", "2", "--idle-grace", "0.05", "serve"]) == 0
print(json.dumps(sorted(served)))
"""


def test_repro_serve_loads_only_the_serving_layers():
    served = loaded_modules(SERVE_CLI_PROBE)
    assert "repro.edge.server" in served
    assert not_served(served) == ["repro.cli"]  # the entry point itself


OFFLINE_IMPORT_PROBE = """
import json
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
print(json.dumps(sorted(sys.modules)))
"""


def test_offline_sequencing_of_a_cycle_imports_no_networkx():
    assert "networkx" not in loaded_modules(OFFLINE_IMPORT_PROBE)
