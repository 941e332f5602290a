"""Workload shapes, frozen inputs and the regime guard of the socket benchmark.

Every workload draws from ``build_cluster_scenario`` and is frozen by
``ClusterWorkload.from_scenario``; the program under test receives only these
generated inputs.  A workload's *regime* is a property of its input: whether
the merged batch tournament of the oracle run has a cycle
(``MergeOutcome.cycles_broken``), which decides between the fast linearisation
and the graph fallback of ``StreamingMerger.result()``.  Rows of different
regimes must never be compared, so the guard below advances the scenario seed
until the oracle run has the regime the workload is defined by.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.config import TommyConfig
from repro.runtime.base import ClusterWorkload, RuntimeOutcome
from repro.runtime.sim import SimBackend
from repro.workloads.cluster import build_cluster_scenario

#: Scenario seeds tried before the regime guard gives up.
MAX_SEED_TRIES = 64


@dataclass(frozen=True)
class Shape:
    """One workload: the input shape plus how the generator drives it."""

    name: str
    why: str
    msgs_per_client: int
    shards: int
    clients: int = 64
    runtime: str = "sim"
    workers: int = 2
    window: int = 1  # frames in flight per connection
    max_inflight: int = 64  # the server's intake bound
    retransmit_every: int = 0  # one MSG in n is sent twice (0 = none)
    cyclic: bool = False
    base_seed: int = 13  # scenario seed of --scenario 0, verified to have the regime

    @property
    def messages(self) -> int:
        """Unique messages per pass."""
        return self.clients * self.msgs_per_client

    @property
    def duplicates(self) -> int:
        """Retransmitted frames per pass (each must be rejected)."""
        return self.messages // self.retransmit_every if self.retransmit_every else 0


SHAPES: Tuple[Shape, ...] = (
    Shape(
        name="acked-4shard",
        why="Merge-bound: 4 shards, one acked frame per connection; observe_batch is the "
        "largest share of the pass, so a merge change must show here.",
        msgs_per_client=22,
        shards=4,
    ),
    Shape(
        name="acked-1shard",
        why="Merge-bypass: one shard has no cross-shard pairs, so engine, edge and dispatcher "
        "do the work; a merge change must leave this flat.",
        msgs_per_client=50,
        shards=1,
    ),
    Shape(
        name="firehose-4shard",
        why="Same layers used differently: window 32 against an intake bound of 16 and every "
        "10th frame retransmitted, so bursts coalesce, readers stall and the gate rejects.",
        msgs_per_client=22,
        shards=4,
        window=32,
        max_inflight=16,
        retransmit_every=10,
    ),
    Shape(
        name="procs-4shard",
        why="acked-4shard on the procs runtime with 2 workers: the cost of the IPC and "
        "coordinator-side merge path on a 2-core box.",
        msgs_per_client=22,
        shards=4,
        runtime="procs",
    ),
    Shape(
        name="cyclic-4shard",
        why="The intransitivity cliff: a cycle in the merged tournament sends result() down "
        "the graph fallback, which then dominates the pass.",
        msgs_per_client=20,
        shards=4,
        cyclic=True,
        base_seed=4,
    ),
)

SHAPE_BY_NAME: Dict[str, Shape] = {shape.name: shape for shape in SHAPES}


@dataclass(frozen=True)
class Inputs:
    """A workload's frozen inputs and what the oracle made of them."""

    shape: Shape
    workload: ClusterWorkload
    oracle: RuntimeOutcome
    oracle_digest: str
    oracle_seconds: float
    seed_used: int
    seeds_skipped: int


def fingerprint_digest(outcome: RuntimeOutcome) -> str:
    """SHA-256 of the merged order's fingerprint (what ``repro serve`` prints)."""
    return hashlib.sha256(repr(outcome.fingerprint()).encode()).hexdigest()


def freeze(shape: Shape, scenario_seed: int) -> ClusterWorkload:
    """The frozen workload of one scenario seed.

    Message ids are renumbered 0..n-1 in ``true_time`` order: the library draws
    them from a process-wide counter, and the wire bytes per message must not
    depend on how many scenarios this process built before.
    """
    scenario = build_cluster_scenario(
        num_clients=shape.clients, messages_per_client=shape.msgs_per_client, seed=scenario_seed
    )
    workload = ClusterWorkload.from_scenario(
        scenario, num_shards=shape.shards, config=TommyConfig(seed=scenario_seed)
    )
    messages = tuple(
        dataclasses.replace(message, message_id=index)
        for index, message in enumerate(workload.messages)
    )
    return dataclasses.replace(workload, messages=messages)


def prepare(shape: Shape, scenario: int, enforce_regime: bool = True) -> Inputs:
    """Freeze the population ``--scenario`` selects and run the oracle on it.

    Starts from ``base_seed + 1000 * scenario`` and advances the scenario seed
    until the oracle run has the workload's regime.  With ``--scenario 0`` the
    first seed is pinned: if it lost its regime the library's behaviour
    changed, and comparing against earlier results would be wrong.
    ``enforce_regime=False`` is for smoke sizes, which are too small to cycle.
    """
    first = shape.base_seed + 1000 * scenario
    for skipped in range(MAX_SEED_TRIES):
        workload = freeze(shape, first + skipped)
        started = time.perf_counter()
        oracle = SimBackend().run(workload)
        seconds = time.perf_counter() - started
        if not enforce_regime or (oracle.merge.cycles_broken >= 1) == shape.cyclic:
            break
        if scenario == 0:
            raise RuntimeError(
                f"{shape.name}: pinned scenario seed {first} no longer has its "
                f"{'cyclic' if shape.cyclic else 'acyclic'} regime "
                f"(cycles_broken={oracle.merge.cycles_broken})"
            )
    else:
        raise RuntimeError(
            f"{shape.name}: no scenario seed in [{first}, {first + MAX_SEED_TRIES}) "
            f"has the {'cyclic' if shape.cyclic else 'acyclic'} regime"
        )
    merged = [key for _, keys in oracle.fingerprint() for key in keys]
    if sorted(merged) != sorted(message.key for message in workload.messages):
        raise RuntimeError(f"{shape.name}: the oracle's merged order is not a permutation")
    return Inputs(
        shape=shape,
        workload=workload,
        oracle=oracle,
        oracle_digest=fingerprint_digest(oracle),
        oracle_seconds=seconds,
        seed_used=first + skipped,
        seeds_skipped=skipped,
    )
