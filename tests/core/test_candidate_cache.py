"""The engine's kept emission candidate is unobservable.

``IncrementalPrecedenceEngine.first_tentative_group`` keeps the batch it
computed while no arrival since could have changed it.  Nothing a caller can
see may depend on that: after any sequence of appends, emissions and
distribution refreshes the returned group equals the head of a full
``tentative_groups()`` pass on a deep copy — the full pass never reads the
candidate, so the copy is a cache-free oracle with no knob — the shared
generator has been drawn from exactly as often, and an engine-backed
sequencer still matches ``ReferenceOnlineSequencer`` down to the loop's event counts.
"""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)
from online_reference import ReferenceOnlineSequencer
from test_engine import fingerprint, skewed_mixtures

from repro.core.config import TommyConfig
from repro.core.engine import EngineStats, IncrementalPrecedenceEngine
from repro.core.online import OnlineTommySequencer
from repro.core.probability import PrecedenceModel
from repro.distributions.base import DistributionError
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import Heartbeat, TimestampedMessage
from repro.runtime.base import ClusterWorkload
from repro.runtime.sim import SimBackend
from repro.simulation.event_loop import EventLoop
from repro.workloads import build_cluster_scenario

CLIENTS = [f"c{i}" for i in range(5)]
#: registered everywhere, never sends: a refresh of it finds no tracked row
IDLE = "idle"


def keys(group):
    return None if group is None else [message.key for message in group]


def counts(engine):
    return (engine.stats.group_computations, engine.stats.candidate_reuses)


def check_against_oracle(engine):
    """``first_tentative_group()`` against a deep copy's full pass, which never
    reads the candidate; a reused candidate skipped no draw a recompute makes."""
    oracle = copy.deepcopy(engine)
    expected = oracle.tentative_groups()
    group = engine.first_tentative_group()
    assert keys(group) == (keys(expected[0]) if expected else None)
    assert engine._rng.bit_generator.state == oracle._rng.bit_generator.state
    return group


# ------------------------------------------------------------------ populations
def gaussian_population(rng):
    return {
        client: GaussianDistribution(float(rng.normal(0.0, 0.01)), float(rng.uniform(0.005, 0.05)))
        for client in CLIENTS + [IDLE]
    }


def mixed_population(rng):
    """Closed-form, histogram and skewed-mixture clients: the kept direction is
    not a function of the corrected timestamp alone, so cycles occur."""
    population = skewed_mixtures(rng, len(CLIENTS))
    population["c0"] = GaussianDistribution(0.0, 0.1)
    population["c1"] = EmpiricalDistribution.from_samples(rng.normal(0.0, 0.15, 300), bins=32)
    population[IDLE] = GaussianDistribution(0.0, 0.2)
    return population


def tie_population(rng):
    """One distribution for everybody and timestamps on a coarse grid: exact
    0.5 entries, entries inside ``tie_epsilon``, entries either side of every
    threshold."""
    return {client: GaussianDistribution(0.0, 0.01) for client in CLIENTS + [IDLE]}


#: name -> (factory, timestamp of one grid tick, ticks)
POPULATIONS = {
    "gaussian": (gaussian_population, 1e-3, 1000),
    "mixed": (mixed_population, 1e-2, 200),
    "ties": (tie_population, 5e-4, 40),
}


def refreshed(distribution, rng):
    """A different distribution for a live refresh; flips closed-form clients to
    a histogram and back so a rebuild changes which rows are grid-backed."""
    if isinstance(distribution, GaussianDistribution):
        if rng.random() < 0.5:
            return GaussianDistribution(distribution.mean, distribution.std * 1.5)
        return EmpiricalDistribution.from_samples(
            rng.normal(distribution.mean, distribution.std, 300), bins=32
        )
    return GaussianDistribution(float(distribution.mean), float(distribution.std))


# ---------------------------------------------------------------- state machine
class CandidateMachine(RuleBasedStateMachine):
    """Random engine traffic, checked against a cache-free copy after every step."""

    def __init__(self, population, policy, tally):
        super().__init__()
        self.factory, self.tick, self.ticks = POPULATIONS[population]
        self.policy = policy
        self.tally = tally
        self.engine = None
        self.next_id = 0

    @initialize(
        seed=st.integers(0, 3),
        tie_epsilon=st.sampled_from([0.0, 0.05]),
        threshold=st.sampled_from([0.5, 0.52, 0.75]),
    )
    def build(self, seed, tie_epsilon, threshold):
        self.rng = np.random.default_rng(seed)
        self.model = PrecedenceModel(convolution_points=128)
        for client, distribution in self.factory(self.rng).items():
            self.model.register_client(client, distribution)
        self.engine = IncrementalPrecedenceEngine(
            self.model,
            threshold=threshold,
            tie_epsilon=tie_epsilon,
            cycle_policy=self.policy,
            rng=np.random.default_rng(seed),
        )

    def message(self, client, tick):
        self.next_id += 1
        return TimestampedMessage(
            client_id=CLIENTS[client], timestamp=tick * self.tick, message_id=self.next_id
        )

    def tracked_clients(self):
        return sorted({key[0] for key in self.engine.message_keys})

    arrival = st.tuples(st.integers(0, 4), st.integers(0, 1000))

    @rule(arrival=arrival)
    def add_message(self, arrival):
        client, tick = arrival
        self.engine.add_message(self.message(client, tick % self.ticks))

    @rule(arrivals=st.lists(arrival, min_size=2, max_size=4))
    def add_several_messages(self, arrivals):
        """Several arrivals with no check between them, as a same-instant burst lands."""
        for client, tick in arrivals:
            self.engine.add_message(self.message(client, tick % self.ticks))

    @precondition(lambda self: self.engine.size)
    @rule()
    def emit_first_batch(self):
        batch = self.engine.first_tentative_group()
        self.engine.remove_messages({message.key for message in batch})

    def refresh(self, client):
        self.model.register_client(
            client, refreshed(self.model.distribution_for(client), self.rng)
        )
        self.engine.invalidate_clients([client])

    @precondition(lambda self: self.engine.size)
    @rule(data=st.data())
    def refresh_tracked_client(self, data):
        self.refresh(data.draw(st.sampled_from(self.tracked_clients())))

    @rule(data=st.data())
    def refresh_untracked_client(self, data):
        untracked = sorted(set(CLIENTS + [IDLE]) - set(self.tracked_clients()))
        self.refresh(data.draw(st.sampled_from(untracked)))

    @invariant()
    def candidate_is_unobservable(self):
        check_against_oracle(self.engine)
        n = self.engine.size
        assert self.engine._grid_rows == n - int(self.engine._gaussian[:n].sum())

    def teardown(self):
        self.tally.append(self.engine.stats)


@pytest.mark.parametrize("policy", ["greedy", "stochastic", "eades"])
@pytest.mark.parametrize("population", sorted(POPULATIONS))
def test_candidate_matches_cache_free_oracle_under_any_traffic(population, policy):
    tally = []
    run_state_machine_as_test(
        lambda: CandidateMachine(population, policy, tally),
        settings=settings(max_examples=20, stateful_step_count=30, deadline=None),
    )
    total = EngineStats()
    for stats in tally:
        total = total.merge(stats)
    # the property is not vacuous: candidates were kept, and dropped
    assert total.candidate_reuses > 0
    assert total.group_computations > 0
    if population != "gaussian":
        assert total.cycle_resolutions > 0


# --------------------------------------------------------------- directed cases
def directed_engine(threshold=0.75, tie_epsilon=0.0, policy="greedy", clients="abcdvwx"):
    """Every client ``N(0, 0.01)``: ``P(i precedes j) = Phi(gap / 0.01414)``, so a
    gap of 0.005 is 0.638, 0.012 is 0.802, 0.1 is 1.0."""
    model = PrecedenceModel()
    for client in list(clients) + [IDLE]:
        model.register_client(client, GaussianDistribution(0.0, 0.01))
    return IncrementalPrecedenceEngine(
        model,
        threshold=threshold,
        tie_epsilon=tie_epsilon,
        cycle_policy=policy,
        rng=np.random.default_rng(5),
    )


def at(client, timestamp):
    return TimestampedMessage(client_id=client, timestamp=timestamp, message_id=1)


def open_batch_then_far_message():
    """``a`` and ``b`` share a batch (0.638 <= 0.75); ``c`` sits behind a real boundary."""
    engine = directed_engine()
    a, b, c = at("a", 0.0), at("b", 0.005), at("c", 0.1)
    for message in (a, b, c):
        engine.add_message(message)
    assert engine.first_tentative_group() == [a, b]
    assert counts(engine) == (1, 0)
    return engine, a, b


def test_newcomer_confidently_after_the_batch_keeps_the_candidate():
    engine, a, b = open_batch_then_far_message()
    epoch = engine.candidate_epoch
    engine.add_message(at("d", 0.2))
    assert check_against_oracle(engine) == [a, b]
    assert counts(engine) == (1, 1)
    assert engine.candidate_epoch == epoch


def test_returned_group_is_a_fresh_list():
    engine, a, b = open_batch_then_far_message()
    engine.first_tentative_group().clear()
    assert engine.first_tentative_group() == [a, b]
    assert counts(engine) == (1, 2)


@pytest.mark.parametrize(
    "timestamp,expected",
    [
        (0.002, "adb"),  # inside the batch: b does not precede it
        (-0.1, "d"),  # before the batch
        (0.012, "abd"),  # after it, but P(b precedes d) = 0.69 <= 0.75
    ],
)
def test_newcomer_that_can_change_the_batch_drops_the_candidate(timestamp, expected):
    engine, _, _ = open_batch_then_far_message()
    epoch = engine.candidate_epoch
    engine.add_message(at("d", timestamp))
    group = check_against_oracle(engine)
    assert [message.client_id for message in group] == list(expected)
    assert counts(engine) == (2, 0)
    assert engine.candidate_epoch == epoch + 1


def test_newcomer_above_threshold_but_oriented_against_a_member_by_key():
    # P(b precedes a) = 0.53 > threshold, yet inside tie_epsilon the key
    # decides and "a" < "b": the newcomer is ordered *before* the candidate
    engine = directed_engine(threshold=0.52, tie_epsilon=0.05)
    b, c = at("b", 0.0), at("c", 0.1)
    engine.add_message(b)
    engine.add_message(c)
    assert engine.first_tentative_group() == [b]
    a = at("a", 0.001064)
    engine.add_message(a)
    assert 0.52 < engine.probability(b.key, a.key) < 0.55
    assert check_against_oracle(engine) == [a, b]
    assert counts(engine) == (2, 0)


@pytest.mark.parametrize("policy", ["greedy", "stochastic", "eades"])
def test_cycle_among_later_messages_drops_an_untouched_candidate(policy):
    # x -> z by probability (0.584), z -> y and y -> x by key (0.542 is inside
    # tie_epsilon): the newcomer z closes a 3-cycle behind the candidate [a],
    # which every member of [a] precedes with probability 1
    engine = directed_engine(threshold=0.52, tie_epsilon=0.05, policy=policy)
    a, x, y = at("a", 0.0), at("x", 1.0), at("w", 1.0015)
    for message in (a, x, y):
        engine.add_message(message)
    assert engine.first_tentative_group() == [a]
    assert counts(engine) == (1, 0)
    engine.add_message(at("v", 1.003))
    assert check_against_oracle(engine) == [a]
    assert counts(engine) == (2, 0)
    assert engine.stats.cycle_resolutions == 1
    # and while the tournament is cyclic nothing is kept: every check breaks
    # the cycle again and draws what a recompute draws
    assert check_against_oracle(engine) == [a]
    assert counts(engine) == (3, 0)
    assert engine.stats.cycle_resolutions == 2


def test_open_group_and_single_message_are_recomputed():
    engine = directed_engine()
    a, b = at("a", 0.0), at("b", 0.005)
    engine.add_message(a)
    assert engine.first_tentative_group() == [a]
    assert engine.first_tentative_group() == [a]
    engine.add_message(b)
    # everything pending is one batch: no boundary the proof could stand on
    assert engine.first_tentative_group() == [a, b]
    assert engine.first_tentative_group() == [a, b]
    assert counts(engine) == (4, 0)


def test_refresh_of_a_client_with_no_tracked_row_drops_the_candidate():
    engine, a, b = open_batch_then_far_message()
    epoch = engine.candidate_epoch
    engine.model.register_client(IDLE, GaussianDistribution(0.0, 0.5))
    engine.invalidate_clients([IDLE])
    assert engine.stats.rebuilds == 0
    assert check_against_oracle(engine) == [a, b]
    assert counts(engine) == (2, 0)
    assert engine.candidate_epoch == epoch + 1


def test_emission_drops_the_candidate():
    engine, a, b = open_batch_then_far_message()
    engine.remove_messages({a.key, b.key})
    assert [message.client_id for message in check_against_oracle(engine)] == ["c"]
    assert counts(engine) == (2, 0)


# -------------------------------------------------------------- sequencer level
def refresh_one_pending_and_one_idle_client(sequencer):
    """Both refresh paths mid-stream: a rebuild, and a client with no tracked row."""
    pending = sorted({message.client_id for message in sequencer.pending_messages})
    sequencer.update_client_distribution(pending[0], GaussianDistribution(0.0, 0.2))
    sequencer.update_client_distribution(IDLE, GaussianDistribution(0.0, 0.004))


def timed_run(use_engine, seed, completeness_mode, max_batch_age, num_messages=70):
    """A seeded arrival stream with a mid-stream distribution refresh."""
    rng = np.random.default_rng(seed)
    distributions = {
        f"c{i}": GaussianDistribution(float(rng.normal(0.0, 0.01)), float(rng.uniform(0.001, 0.1)))
        for i in range(8)
    }
    distributions[IDLE] = GaussianDistribution(0.0, 0.01)  # heartbeats only
    loop = EventLoop()
    config = TommyConfig(
        p_safe=0.99,
        completeness_mode=completeness_mode,
        max_network_delay=0.5,
        max_batch_age=max_batch_age,
        cycle_policy="stochastic",
        seed=7,
    )
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop, distributions, config
    )
    t = 0.0
    for k in range(num_messages):
        t += float(rng.exponential(0.05))
        client = f"c{int(rng.integers(8))}"
        message = TimestampedMessage(
            client_id=client,
            timestamp=t + float(rng.normal(0.0, 0.02)),
            true_time=t,
            message_id=seed * 1_000_000 + k,
        )
        arrival = t + float(rng.uniform(0.0, 0.01))
        loop.schedule_at(arrival, sequencer.receive, message)
        if k % 5 == 0:
            # a check with no arrival in the engine at all
            loop.schedule_at(t, sequencer.receive, Heartbeat(client_id=IDLE, timestamp=t))
        if k == num_messages // 2:
            loop.schedule_at(arrival + 1e-6, refresh_one_pending_and_one_idle_client, sequencer)
    if completeness_mode == "heartbeat":
        for client in distributions:
            loop.schedule_at(
                t + 1.0, sequencer.receive, Heartbeat(client_id=client, timestamp=t + 10.0)
            )
    loop.run(until=t + 30.0)
    observed = (
        fingerprint(sequencer),
        sequencer.extension_count,
        sequencer.forced_emissions,
        loop.stats(),
        sequencer._rng.bit_generator.state,
    )
    sequencer.flush()
    return sequencer, observed + (fingerprint(sequencer),)


@pytest.mark.parametrize("max_batch_age", [None, 0.4])
@pytest.mark.parametrize("completeness_mode", ["heartbeat", "bounded_delay", "none"])
@pytest.mark.parametrize("seed", [0, 1])
def test_timed_run_matches_reference_down_to_the_event_counts(
    seed, completeness_mode, max_batch_age
):
    engine_run, engine_observed = timed_run(True, seed, completeness_mode, max_batch_age)
    _, reference_observed = timed_run(False, seed, completeness_mode, max_batch_age)
    assert engine_observed == reference_observed
    stats = engine_run.engine_stats()
    assert stats.candidate_reuses > 0
    assert stats.rebuilds >= 1


def test_restored_sequencer_starts_without_a_candidate_and_continues_identically():
    def sequencer_on(loop):
        distributions = {client: GaussianDistribution(0.0, 0.01) for client in "abc"}
        return OnlineTommySequencer(
            loop, distributions, TommyConfig(completeness_mode="none", p_safe=0.99, seed=3)
        )

    early = [at("a", 0.0), at("b", 0.005), at("c", 0.1)]
    late = [at("a", 0.2), at("b", 0.3), at("c", 0.3001)]
    late = [dataclasses.replace(message, message_id=2) for message in late]

    loop = EventLoop()
    original = sequencer_on(loop)
    for message in early:
        original.receive(message, arrival_time=0.0)
    loop.run(until=0.001)  # the check ran; safe time not reached, nothing emitted
    assert original.engine._candidate is not None
    state = original.snapshot()
    assert len(state["pending"]) == 3

    restored_loop = EventLoop()
    restored_loop.run(until=0.001)
    restored = sequencer_on(restored_loop)
    restored.restore(state)
    assert restored.engine._candidate is None
    for sequencer, its_loop in ((original, loop), (restored, restored_loop)):
        for message in late:
            its_loop.schedule_at(message.timestamp, sequencer.receive, message)
        its_loop.run(until=5.0)
        sequencer.flush()
    assert fingerprint(restored) == fingerprint(original)
    assert len(fingerprint(original)) >= 4
    assert restored.engine_stats().candidate_reuses > 0


# ---------------------------------------------------------- invariants relied on
@pytest.mark.parametrize("mean,std", [(float("nan"), 1.0), (0.0, float("nan"))])
def test_gaussian_rejects_nan_parameters(mean, std):
    with pytest.raises(DistributionError):
        GaussianDistribution(mean, std)


def test_registered_population_has_finite_non_negative_variances():
    # what lets the scalar-j kernel return ``phi`` without the degenerate
    # selection whenever the arriving client's own variance is positive
    assert GaussianDistribution(0.0, float("inf")).variance == float("inf")
    engine = directed_engine()
    engine.model.register_client("wide", GaussianDistribution(0.0, float("inf")))
    engine.model.register_client("exact", GaussianDistribution(0.0, 0.0))
    for client in ("a", "wide", "exact", "b"):
        engine.add_message(at(client, 0.0))
    variances = engine._variances[: engine.size]
    assert not np.isnan(variances).any() and (variances >= 0).all()
    assert engine.probability(("wide", 1), ("b", 1)) == 0.5


def test_engine_stats_dict_and_merge_cover_every_field():
    names = {field.name for field in dataclasses.fields(EngineStats)}
    assert set(EngineStats().as_dict()) == names
    assert {"candidate_reuses", "group_computations", "rows_appended"} <= names
    left = EngineStats(**{name: index + 1 for index, name in enumerate(sorted(names))})
    right = EngineStats(**{name: 100 for name in names})
    assert left.merge(right).as_dict() == {
        name: index + 101 for index, name in enumerate(sorted(names))
    }


# ------------------------------------------------------------------------ pinned
#: ``bench/``'s ``acked-1shard`` oracle digest, computed at the last commit
#: that rebuilt the first batch on every check
PINNED_ACKED_1SHARD_DIGEST = "1daf14d7df6537718e18415a654da5ca926e6e0a90d4206f2d9985045dc2bfda"


def test_pinned_acked_1shard_run_at_ledger_size():
    scenario = build_cluster_scenario(num_clients=64, messages_per_client=50, seed=13)
    workload = ClusterWorkload.from_scenario(scenario, num_shards=1, config=TommyConfig(seed=13))
    workload = dataclasses.replace(
        workload,
        messages=tuple(
            dataclasses.replace(message, message_id=index)
            for index, message in enumerate(workload.messages)
        ),
    )
    outcome = SimBackend().run(workload)
    digest = hashlib.sha256(repr(outcome.fingerprint()).encode()).hexdigest()
    assert digest == PINNED_ACKED_1SHARD_DIGEST
    assert sum(len(stream) for stream in outcome.shard_batches) == 579
    loop = outcome.details["loop"]
    assert (loop["scheduled"], loop["cancelled"], loop["executed"]) == (6539, 72, 6467)
    engine = outcome.details["observability"]["engine"]
    # counts, not times: the checks are the parent's 3781, the rebuilds are not
    assert engine["group_computations"] + engine["candidate_reuses"] == 3781
    assert engine["group_computations"] <= 600
    assert engine["vectorized_evaluations"] == 216_183
    assert engine["rows_appended"] == 3200
