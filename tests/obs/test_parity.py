"""The telemetry layer's headline guarantees.

* **Disabled parity** — a run without telemetry is bitwise identical to an
  instrumented run: same merged order, same engine counters, same RNG
  consumption (the ``duplication`` fault would diverge on any stray draw).
* **Determinism** — same seed, same simulated-time trace; wall-clock stamps
  are the only permitted difference between reruns.
* **Overhead** — with telemetry disabled the residual cost is one no-op
  guard per call site, and the number of guards a run passes is bounded per
  processed message.  The *time* they cost is a ledger row
  (``obs.telemetry_overhead_share`` in ``bench/``), not a tier-1 assertion.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.merge import CrossShardMerger, merge_fingerprint
from repro.core.config import TommyConfig
from repro.core.probability import PrecedenceModel
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import SequencedBatch, TimestampedMessage
from repro.obs.telemetry import Telemetry
from repro.obs.workload import run_instrumented_workload
from repro.runtime.base import ClusterWorkload
from repro.runtime.sim import SimBackend
from repro.workloads import build_cluster_scenario
from repro.workloads.chaos import ChaosSettings, run_chaos_scenario

SMALL = ChaosSettings(num_clients=6, num_shards=2, messages_per_client=3, seed=11)


def test_disabled_run_is_bitwise_identical_to_instrumented_run():
    # duplication consumes one RNG draw per in-window send: any telemetry
    # draw would shift the stream and change the report
    bare = run_chaos_scenario(fault="duplication", settings=SMALL, telemetry=None)
    instrumented = run_chaos_scenario(
        fault="duplication", settings=SMALL, telemetry=Telemetry()
    )
    assert bare == instrumented  # frozen dataclass: field-wise equality


def test_engine_counters_match_with_and_without_telemetry():
    settings = ChaosSettings(num_clients=6, num_shards=2, messages_per_client=3, seed=3)
    reports = [
        run_chaos_scenario(fault="reorder", settings=settings, telemetry=telemetry)
        for telemetry in (None, Telemetry())
    ]
    assert reports[0].as_row() == reports[1].as_row()


def test_kept_emission_candidate_does_not_depend_on_telemetry():
    # `repro serve` hard-wires Telemetry(): a saving that only exists with
    # telemetry off (or on) would never reach the service
    scenario = build_cluster_scenario(num_clients=16, messages_per_client=8, seed=13)
    workload = ClusterWorkload.from_scenario(scenario, num_shards=4, config=TommyConfig(seed=13))
    telemetry = Telemetry()
    bare = SimBackend().run(workload)
    traced = SimBackend(telemetry=telemetry).run(workload)
    assert traced.fingerprint() == bare.fingerprint()
    engine = traced.details["observability"]["engine"]
    assert engine == bare.details["observability"]["engine"]
    assert engine["candidate_reuses"] > 0
    snapshot = telemetry.registry.snapshot()
    assert snapshot["sources"]["cluster.engine"]["candidate_reuses"] == engine["candidate_reuses"]
    # the counter keeps counting checks, not the computations that are left
    assert snapshot["counters"]["sequencer.emission_checks"] > engine["group_computations"]


def test_merge_cycle_event_names_the_refused_precedence():
    # a@10 -> a@0 (shard 0's emission order) -> b@5 -> a@10, every cross edge
    # saturated: the greedy victim would be the chain edge, so the weakest
    # cross-shard edge goes instead — and the trace says which one
    model = PrecedenceModel()
    for client in ("a", "b"):
        model.register_client(client, GaussianDistribution(0.0, 0.1))
    streams = [
        [
            SequencedBatch(0, (TimestampedMessage(client_id="a", timestamp=10.0),), emitted_at=1.0),
            SequencedBatch(1, (TimestampedMessage(client_id="a", timestamp=0.0),), emitted_at=2.0),
        ],
        [SequencedBatch(0, (TimestampedMessage(client_id="b", timestamp=5.0),), emitted_at=3.0)],
    ]
    telemetry = Telemetry()
    traced = CrossShardMerger(model, telemetry=telemetry).merge(streams)
    assert traced.cycles_broken == 1
    [event] = [record for record in telemetry.event_records if record.kind == "merge_cycle"]
    assert (event.name, event.shard, event.sim_time) == ("greedy", 0, 3.0)
    assert dict(event.details) == {
        "cycle_length": 3,
        "probability": 1.0,
        "source_index": 1,
        "target_index": 0,
        "target_shard": 1,
    }
    assert telemetry.registry.counter("merge.cycle_edges_removed").value == 1
    rerun = Telemetry()
    CrossShardMerger(model, telemetry=rerun).merge(streams)
    assert rerun.sim_fingerprint() == telemetry.sim_fingerprint()
    bare = CrossShardMerger(model).merge(streams)
    assert merge_fingerprint(bare) == merge_fingerprint(traced)


def test_same_seed_same_sim_trace():
    first = run_instrumented_workload("chaos", num_shards=2, num_clients=6, seed=5)
    second = run_instrumented_workload("chaos", num_shards=2, num_clients=6, seed=5)
    fingerprint = first.telemetry.sim_fingerprint()
    assert fingerprint  # the run actually recorded something
    assert fingerprint == second.telemetry.sim_fingerprint()


def test_different_seeds_differ():
    first = run_instrumented_workload("chaos", num_shards=2, num_clients=6, seed=5)
    second = run_instrumented_workload("chaos", num_shards=2, num_clients=6, seed=6)
    assert first.telemetry.sim_fingerprint() != second.telemetry.sim_fingerprint()


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    fault=st.sampled_from(["none", "duplication", "delay", "crash"]),
)
def test_sim_trace_determinism_property(seed, fault):
    settings_ = ChaosSettings(num_clients=4, num_shards=2, messages_per_client=2, seed=seed)
    fingerprints = []
    for _ in range(2):
        telemetry = Telemetry()
        run_chaos_scenario(fault=fault, settings=settings_, telemetry=telemetry)
        fingerprints.append(telemetry.sim_fingerprint())
    assert fingerprints[0] == fingerprints[1]


#: Telemetry records + counter bumps a run may make per processed message.
#: Every one sits behind an ``if obs.enabled:`` guard (a guard may cover
#: several), so with telemetry off the same run pays at most this many no-op
#: guards that would have recorded something (the pinned scenario below makes
#: 23.8 per message, probes and refreshes included).
GUARDED_CALLS_PER_MESSAGE = 32


def test_disabled_overhead_is_a_bounded_guard_count():
    """The disabled cost is a count, not a wall-clock ratio.

    Timing a spin loop of guards against a timed run compares two phases of
    a noisy machine and gets tighter with every speed-up of the run itself;
    what the design actually promises is countable: a bounded number of
    guarded call sites per message, the same number on every run.
    """
    settings = ChaosSettings(num_clients=8, num_shards=2, messages_per_client=4, seed=7)
    messages = settings.num_clients * settings.messages_per_client
    runs = []
    for _ in range(2):
        telemetry = Telemetry()
        run_chaos_scenario(fault="delay", settings=settings, telemetry=telemetry)
        recorded = len(telemetry.stage_records) + len(telemetry.event_records)
        counter_bumps = sum(telemetry.registry.snapshot()["counters"].values())
        runs.append((recorded, counter_bumps))
    assert runs[0] == runs[1]
    recorded, counter_bumps = runs[0]
    assert recorded >= messages  # the run was instrumented at all
    assert recorded + counter_bumps <= GUARDED_CALLS_PER_MESSAGE * messages
