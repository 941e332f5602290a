"""Properties of the sharded cluster: equivalence, determinism, routing."""

from repro.cluster import ClusterTransport, HashSharding, LoadAwareSharding, ShardedSequencer
from repro.clocks.local import LocalClock
from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.parametric import GaussianDistribution
from repro.network.link import UniformJitterDelay
from repro.runtime.base import ClusterWorkload
from repro.runtime.host import run_close, run_wave
from repro.simulation.event_loop import EventLoop
from repro.simulation.random_source import RandomSource
from repro.workloads.arrivals import UniformGapArrivals
from repro.workloads.scenario import ScenarioConfig, build_scenario


def seeded_scenario(num_clients=18, seed=5, gap=5.0, sigma=8.0, per_client=2):
    return build_scenario(
        ScenarioConfig(
            num_clients=num_clients,
            arrivals=UniformGapArrivals(messages_per_client=per_client, gap=gap, jitter_fraction=0.2),
            default_sigma=sigma,
            seed=seed,
        )
    )


def fingerprint(result):
    return [(batch.rank, tuple(message.key for message in batch.messages)) for batch in result.batches]


def replay(loop, target, scenario):
    """Sequence the scenario as every runtime does: one wave from an already
    closed source, then the close at the workload's heartbeat horizon."""
    workload = ClusterWorkload.from_scenario(scenario, num_shards=1)
    run_wave(loop, target, workload.messages_by_true_time(), delay=0.0, run_to=None)
    run_close(loop, target, workload.client_ids, *workload.closing_heartbeat())


def run_cluster(scenario, num_shards, config=None, policy=None):
    loop = EventLoop()
    cluster = ShardedSequencer(
        loop,
        scenario.client_distributions,
        num_shards=num_shards,
        config=config if config is not None else TommyConfig(),
        policy=policy,
    )
    replay(loop, cluster, scenario)
    cluster.flush()
    return cluster


# ------------------------------------------------------------------ properties
def test_one_shard_cluster_is_byte_identical_to_single_sequencer():
    """A 1-shard cluster must reproduce the single sequencer's order exactly."""
    scenario = seeded_scenario()

    loop = EventLoop()
    single = OnlineTommySequencer(loop, scenario.client_distributions, config=TommyConfig())
    replay(loop, single, scenario)
    single.flush()

    cluster = run_cluster(scenario, num_shards=1)
    assert fingerprint(cluster.result()) == fingerprint(single.result())


def test_n_shard_cluster_is_deterministic_under_fixed_seed():
    """Two identical N-shard runs must produce the same merged order."""
    scenario = seeded_scenario(num_clients=24, seed=9)
    first = run_cluster(scenario, num_shards=4)
    second = run_cluster(scenario, num_shards=4)
    assert fingerprint(first.result()) == fingerprint(second.result())


def test_merged_order_contains_every_message_exactly_once():
    scenario = seeded_scenario(num_clients=20, seed=3)
    cluster = run_cluster(scenario, num_shards=3)
    result = cluster.result()
    merged_keys = sorted(message.key for batch in result.batches for message in batch.messages)
    assert merged_keys == sorted(message.key for message in scenario.messages)


def test_result_linearises_the_live_merge_without_repricing():
    """``result()`` reads the streaming merger; it adds no pricing work."""
    scenario = seeded_scenario(num_clients=16, seed=2)
    cluster = run_cluster(scenario, num_shards=2, policy=LoadAwareSharding())
    before = cluster.engine_stats().as_dict()
    cluster.result()
    cluster.result()
    assert cluster.engine_stats().as_dict() == before
    assert fingerprint(cluster.result()) == fingerprint(cluster.merge().result)


def test_shards_only_sequence_their_own_clients():
    scenario = seeded_scenario(num_clients=12, seed=7)
    cluster = run_cluster(scenario, num_shards=3, policy=LoadAwareSharding())
    for shard in cluster.shards:
        owned = set(cluster.router.clients_of(shard.index))
        emitted_clients = {
            message.client_id
            for emitted in shard.sequencer.emitted_batches
            for message in emitted.batch.messages
        }
        assert emitted_clients <= owned


def test_receive_routes_by_router_assignment(loop):
    distributions = {f"c{i}": GaussianDistribution(0.0, 1.0) for i in range(6)}
    from repro.network.message import TimestampedMessage

    cluster = ShardedSequencer(loop, distributions, num_shards=2, policy=LoadAwareSharding())
    message = TimestampedMessage(client_id="c0", timestamp=1.0, true_time=1.0)
    cluster.receive(message, arrival_time=0.0)
    owner = cluster.router.shard_of("c0")
    assert [m.key for m in cluster.sequencer_of(owner).pending_messages] == [message.key]
    assert cluster.sequencer_of(1 - owner).pending_messages == []


def test_register_client_after_construction(loop):
    cluster = ShardedSequencer(
        loop, {"a": GaussianDistribution(0.0, 1.0)}, num_shards=2, policy=LoadAwareSharding()
    )
    cluster.register_client("b", GaussianDistribution(0.0, 2.0))
    shard = cluster.router.shard_of("b")
    assert cluster.sequencer_of(shard).model.has_client("b")
    assert cluster.merger.model.has_client("b")


# ----------------------------------------------------------- transport fan-in
def test_cluster_transport_wires_each_shard_endpoint():
    loop = EventLoop()
    source = RandomSource(17)
    distributions = {f"c{i:02d}": GaussianDistribution(0.0, 0.001) for i in range(6)}
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=2,
        policy=LoadAwareSharding(),
        config=TommyConfig(completeness_mode="bounded_delay", max_network_delay=0.01),
    )
    net = ClusterTransport(loop, cluster, source.stream)
    endpoints = {}
    for client_id, distribution in distributions.items():
        clock = LocalClock(loop, distribution, source.stream(f"clock:{client_id}"))
        endpoints[client_id] = net.add_client(
            client_id, clock, delay_model=UniformJitterDelay(0.001, 0.0005)
        )
    for index, endpoint in enumerate(endpoints.values()):
        loop.schedule_at(0.01 + 0.001 * index, endpoint.send, {"n": index})
    loop.run(until=1.0)
    cluster.flush()

    # every shard transport only carried its own clients
    for shard_index in range(2):
        owned = set(cluster.router.clients_of(shard_index))
        transport_clients = set(net.transport_of(shard_index).clients)
        assert transport_clients == owned

    result = cluster.result()
    assert result.message_count == len(distributions)
    assert set(net.clients()) == set(distributions)
