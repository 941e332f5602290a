"""The procs runtime: one shard worker, one coordinator, two thin drivers.

Every shard's :class:`~repro.core.online.OnlineTommySequencer` runs on a
private event loop inside a worker process (:func:`_shard_worker_main`) that
is driven by *waves*: ``("wave", items_by_shard, run_to)`` schedules new
arrivals and advances every hosted shard strictly below ``run_to + delay``;
``("close", heartbeat_time, heartbeat_timestamp)`` injects the global closing
heartbeats, runs to completion and flushes.  Emissions stream back as
``("batch", shard, batch)`` and the :class:`ShardCoordinator` folds them into
the recipe's :class:`~repro.cluster.merge.StreamingMerger`.

A frozen replay is a live dispatch whose only source is already closed:
:class:`ProcBackend` sends one wave carrying the whole
:class:`~repro.runtime.base.ClusterWorkload` (no watermark) and then the
close, while ``LiveDispatcher(runtime="procs")`` drives the very same
coordinator wave by wave.  The merged order is *bitwise equal* to
:class:`~repro.runtime.sim.SimBackend` because

* arrivals are scheduled at their frozen ``true_time + delay`` ahead of
  same-instant emission checks, so each shard executes the event sequence
  :func:`~repro.cluster.harness.replay_messages` would have scheduled;
* every shard receives the *global* closing-heartbeat instant/beacon;
* per-shard sequencer RNG streams depend only on ``config.seed``, and router
  and merger come from the one recipe in :mod:`repro.cluster.recipe`;
* the streaming merger's result is invariant to the order batches from
  *different* shards are observed in, so the nondeterministic queue arrival
  interleaving cannot change the output.

Failure model: the coordinator's :class:`WorkerSupervisor` is ticked on every
drain poll.  Any worker that dies while its shards are unfinished — hard
kill, exception, *or* a clean exit that left work behind — is respawned under
a bounded-restart exponential-backoff :class:`RestartPolicy` and re-sent its
slot's command log.  Replay is deterministic, so the replacement re-emits the
exact same batch stream and the coordinator's per-shard cursor gate (the
:meth:`~repro.cluster.merge.StreamingMerger.observation_cursor` high-water
mark) drops the already-observed prefix: ``observe_batch`` sees every batch
exactly once.  An exhausted budget degrades per ``on_shard_loss``:
``"raise"`` surfaces :class:`WorkerCrashed` on the poll that sees the death
(and on every later poll), ``"exclude"`` finalizes the merge over the
surviving streams and records the loss in
``RuntimeOutcome.details["lost_shards"]``.  :meth:`ShardCoordinator.close`
terminates and joins every child and drains/closes every queue, so no
orphaned processes or stuck feeder threads outlive a run.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from queue import Empty
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.cluster.merge import MergeOutcome
from repro.cluster.recipe import build_merge, build_router
from repro.core.online import OnlineTommySequencer
from repro.network.message import Heartbeat, SequencedBatch, TimestampedMessage
from repro.obs.telemetry import Telemetry, resolve
from repro.runtime.base import (
    ClockHandle,
    ClusterWorkload,
    LiveClusterSpec,
    RuntimeBackend,
    RuntimeOutcome,
    WallClock,
)
from repro.simulation.event_loop import EventLoop

#: Crash-injection modes: ``exit`` (hard non-zero death, models OOM-kill /
#: segfault), ``error`` (exception inside the shard loop, shipped back as a
#: traceback), ``clean`` (exit code 0 with unfinished shards — the silent
#: failure mode the supervisor's liveness rule exists for).
CRASH_MODES: Tuple[str, ...] = ("exit", "error", "clean")

#: Crash-injection points: ``start`` (before the shard replays anything),
#: ``mid`` (right after the first batch streamed back — mid-recovery state),
#: ``end`` (after the final flush, before the completion summary).
CRASH_POINTS: Tuple[str, ...] = ("start", "mid", "end")

#: Shard-loss modes once the restart budget is exhausted.
SHARD_LOSS_MODES: Tuple[str, ...] = ("raise", "exclude")

#: Consecutive empty polls a dead worker must stay silent for before the
#: death verdict (its buffered queue items are consumed first).
DRAIN_GRACE = 3

Arrival = Union[TimestampedMessage, Heartbeat]


class WorkerCrashed(RuntimeError):
    """A shard worker died before finishing its shards."""

    def __init__(self, shard_ids: Sequence[int], detail: str = "") -> None:
        self.shard_ids: Tuple[int, ...] = tuple(sorted(shard_ids))
        message = f"worker process crashed; unfinished shards: {list(self.shard_ids)}"
        if detail:
            message = f"{message}\n{detail}"
        super().__init__(message)


@dataclass(frozen=True)
class RestartPolicy:
    """Bounded-restart, exponential-backoff policy for dead workers.

    A replacement for a dead worker is spawned after
    ``min(backoff_base * 2**restarts_used, backoff_cap)`` seconds; after
    ``max_restarts`` replacements of the same worker slot the slot's
    unfinished shards are handled per the backend's ``on_shard_loss`` mode.
    ``max_restarts=0`` is fail-fast (and keeps no command log).
    """

    max_restarts: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be non-negative, got {self.max_restarts!r}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be non-negative")

    def backoff_for(self, restarts_used: int) -> float:
        """Backoff delay (seconds) before restart number ``restarts_used + 1``."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_base * (2.0 ** restarts_used), self.backoff_cap)


# ------------------------------------------------------------ wave semantics
def run_wave(
    loop: EventLoop, receiver, items: Iterable[Arrival], delay: float, run_to: Optional[float]
) -> None:
    """Schedule ``items`` as arrivals, then advance strictly below ``run_to + delay``.

    Arrivals land at ``max(true_time + delay, now)`` — the clamp of
    :func:`~repro.cluster.harness.replay_messages` — with priority ``-1`` so
    they beat same-instant emission checks, exactly as pre-scheduled arrivals
    beat mid-run-scheduled checks in a one-shot replay.  The advance is
    exclusive: a well-behaved source may still send another message *at* its
    current watermark, and that twin must be schedulable before anything at
    that instant executes.  ``run_to=None`` schedules without advancing.
    """
    now = loop.now
    for item in items:
        loop.schedule_at(max(item.true_time + delay, now), receiver.receive, item, priority=-1)
    if run_to is not None:
        loop.run(until=math.nextafter(run_to + delay, -math.inf))


def run_close(
    loop: EventLoop,
    receiver,
    client_ids: Iterable[str],
    heartbeat_time: Optional[float],
    heartbeat_timestamp: Optional[float],
) -> None:
    """Inject the closing heartbeats (sorted clients) and run to completion.

    The heartbeat instant is clamped to ``max(heartbeat_time, now)``: a
    source's ordinary trailing ``HEARTBEAT`` may already have advanced the
    loop past the closing horizon computed over admitted *messages*.
    """
    if heartbeat_time is not None and heartbeat_timestamp is not None:
        when = max(heartbeat_time, loop.now)
        for client_id in sorted(client_ids):
            heartbeat = Heartbeat(
                client_id=client_id, timestamp=heartbeat_timestamp, true_time=heartbeat_time
            )
            loop.schedule_at(when, receiver.receive, heartbeat, priority=-1)
    loop.run()


# -------------------------------------------------------------------- worker
#: Crash injection spec shipped to first-incarnation workers only:
#: ``(shard_index, mode, point)``.  Replacements never receive one — a
#: respawned worker must be able to finish the replayed shard.
_CrashSpec = Optional[Tuple[int, str, str]]


def _injected_crash(mode: str, shard: int, results) -> None:
    # "exit": hard death (simulates OOM-kill/segfault) — no error message
    # escapes, the coordinator must notice the corpse.  "clean": exit code 0
    # with the shard unfinished — the silent failure a per-process exitcode
    # check would skip.  Anything else raises inside the shard loop.
    exit_code = {"exit": 3, "clean": 0}.get(mode)
    if exit_code is None:
        raise RuntimeError(f"injected failure on shard {shard}")
    # Die between queue writes, never inside one: the result queue's write
    # lock is shared by every worker, and a process that exits while its
    # feeder thread holds it wedges all the others (a real SIGKILL can still
    # land there — the residual hazard of one shared queue).  Flushing first
    # also makes the injection deterministic: everything put so far arrives.
    results.close()
    results.join_thread()
    os._exit(exit_code)


class _ShardHost:
    """One shard sequencer on a private loop inside a worker process."""

    def __init__(
        self,
        shard: int,
        spec: LiveClusterSpec,
        clients: Sequence[str],
        collect_telemetry: bool,
        results,
        crash: Optional[Tuple[str, str]],
    ) -> None:
        self.shard = shard
        self._clients = clients
        self._delay = spec.delay
        self._results = results
        self._crash = crash
        self._crash_at("start")
        self._loop = EventLoop()
        self._telemetry = Telemetry() if collect_telemetry else None
        self._obs = resolve(self._telemetry)
        self._sequencer = OnlineTommySequencer(
            self._loop,
            {client: spec.client_distributions[client] for client in clients},
            config=spec.config,
            known_clients=list(clients),
            name=f"cluster-shard-{shard}",
            telemetry=self._telemetry,
            shard_index=shard,
        )
        self._sequencer.subscribe_emissions(self._on_emit)
        self._received = 0
        self._streamed = 0
        self._busy = 0.0

    def _crash_at(self, point: str) -> None:
        if self._crash is not None and self._crash[1] == point:
            _injected_crash(self._crash[0], self.shard, self._results)

    def _on_emit(self, emitted) -> None:
        self._results.put(("batch", self.shard, emitted.batch))
        self._streamed += 1
        if self._streamed == 1:
            self._crash_at("mid")

    def receive(self, item: Arrival, arrival_time: Optional[float] = None) -> None:
        """Shard intake: record the stage the cluster router records on the
        sim path, then forward into the sequencer — per-stage tables stay
        comparable across backends."""
        if self._obs.enabled and isinstance(item, TimestampedMessage):
            self._obs.stage("shard_intake", item, self._sequencer.now, shard=self.shard)
        self._sequencer.receive(item, arrival_time)

    def wave(self, items: Sequence[Arrival], run_to: Optional[float]) -> None:
        started = time.perf_counter()
        self._received += sum(isinstance(item, TimestampedMessage) for item in items)
        run_wave(self._loop, self, items, self._delay, run_to)
        self._busy += time.perf_counter() - started

    def close(self, heartbeat_time: Optional[float], heartbeat_timestamp: Optional[float]) -> None:
        started = time.perf_counter()
        run_close(self._loop, self, self._clients, heartbeat_time, heartbeat_timestamp)
        self._sequencer.flush()
        self._crash_at("end")
        telemetry = self._telemetry
        summary = {
            "message_count": self._received,
            "batch_count": len(self._sequencer.emitted_batches),
            # busy time: spent inside this shard's schedule/run/flush calls
            "wall_seconds": self._busy + time.perf_counter() - started,
            "loop": self._loop.stats(),
            "stages": telemetry.stage_records if telemetry is not None else [],
            "events": telemetry.event_records if telemetry is not None else [],
        }
        self._results.put(("done", self.shard, summary))


def _shard_worker_main(
    spec: LiveClusterSpec,
    clients_of: Dict[int, Sequence[str]],
    collect_telemetry: bool,
    commands,
    results,
    crash_spec: _CrashSpec,
) -> None:
    """Worker entry point: host the slot's shard sequencers, consume commands.

    ``("wave", items_by_shard, run_to)`` feeds every hosted shard its new
    arrivals and advances it; ``("close", heartbeat_time,
    heartbeat_timestamp)`` closes every hosted shard in turn (each ships its
    ``("done", shard, summary)``) and ends the process.  Any exception is
    shipped back as ``("error", shard, traceback)`` naming the shard at work.
    """
    current = next(iter(clients_of))
    try:
        hosts: List[_ShardHost] = []
        for current, clients in clients_of.items():
            crash = crash_spec[1:] if crash_spec is not None and crash_spec[0] == current else None
            hosts.append(_ShardHost(current, spec, clients, collect_telemetry, results, crash))
        while True:
            command = commands.get()
            if command[0] == "wave":
                _, items_by_shard, run_to = command
                for host in hosts:
                    current = host.shard
                    host.wave(items_by_shard.get(current, ()), run_to)
            else:
                _, heartbeat_time, heartbeat_timestamp = command
                for host in hosts:
                    current = host.shard
                    host.close(heartbeat_time, heartbeat_timestamp)
                return
    except Exception:
        results.put(("error", current, traceback.format_exc()))


# ---------------------------------------------------------------- supervisor
def _discard_queue(queue) -> None:
    """Close a queue so a terminated run can never deadlock on its feeder thread."""
    try:
        queue.close()
        queue.cancel_join_thread()
    except (OSError, ValueError):
        pass


@dataclass
class _WorkerSlot:
    """Supervision state for one worker slot (stable across incarnations)."""

    index: int
    shards: List[int]
    #: command queue of the current incarnation
    commands: Optional[object] = None
    #: every command sent so far (``None`` when the policy never restarts)
    log: Optional[List[tuple]] = None
    process: Optional[multiprocessing.process.BaseProcess] = None
    incarnation: int = 0
    restarts_used: int = 0
    drain_polls: int = 0
    #: monotonic deadline of a scheduled respawn (``None`` = not backing off)
    respawn_at: Optional[float] = None
    #: last incarnation whose death has already been absorbed
    handled_incarnation: int = -1
    lost: bool = False


class WorkerSupervisor:
    """Spawns workers, tracks liveness/progress, orchestrates restart-with-replay.

    Owned by the :class:`ShardCoordinator` and ticked from its drain loop
    (single-threaded — no locks).  It owns each slot's command queue and,
    when ``policy.max_restarts > 0``, the slot's command log.  On worker
    death with unfinished shards it schedules a backoff, respawns a
    replacement hosting only the unfinished shards (never carrying the
    crash-injection spec) and re-sends it the log, and — once the
    :class:`RestartPolicy` budget is spent — either raises
    :class:`WorkerCrashed` or excludes the shards from the run per
    ``on_shard_loss``.  Death detection deliberately ignores the exit code:
    any dead worker with unfinished shards is treated as crashed after a
    short drain grace (``drain_grace`` consecutive empty polls, which also
    guarantees the dead incarnation's buffered queue items were consumed
    before the verdict).
    """

    def __init__(
        self,
        ctx,
        results,
        spec: LiveClusterSpec,
        router,
        shards_of: Sequence[Sequence[int]],
        done: Set[int],
        policy: RestartPolicy,
        on_shard_loss: str,
        crash_spec: _CrashSpec,
        telemetry: Optional[Telemetry],
        drain_grace: int = DRAIN_GRACE,
    ) -> None:
        self._ctx = ctx
        self._results = results
        self._spec = spec
        self._router = router
        self._done = done
        self._policy = policy
        self._on_shard_loss = on_shard_loss
        self._crash_spec = crash_spec
        self._collect_telemetry = telemetry is not None
        self._obs = resolve(telemetry)
        self._drain_grace = max(int(drain_grace), 1)
        self._started_at = time.perf_counter()
        self._slots = [
            _WorkerSlot(
                index=index,
                shards=list(shards),
                log=[] if policy.max_restarts > 0 else None,
            )
            for index, shards in enumerate(shards_of)
        ]
        self._slot_of_shard: Dict[int, _WorkerSlot] = {
            shard: slot for slot in self._slots for shard in slot.shards
        }
        #: every process ever started (all incarnations), for the teardown
        self.processes: List[multiprocessing.process.BaseProcess] = []
        self.worker_restarts = 0
        self.lost_shards: Set[int] = set()
        self.recovering_shards: Set[int] = set()
        self.shards_recovered: Set[int] = set()

    # --------------------------------------------------------------- telemetry
    def _event(self, name: str, **details: object) -> None:
        if self._obs.enabled:
            self._obs.event(
                "runtime", name, time.perf_counter() - self._started_at, **details
            )

    # ---------------------------------------------------------------- spawning
    def start(self) -> None:
        """Spawn every worker slot's first incarnation."""
        for slot in self._slots:
            self._spawn(slot, slot.shards, self._crash_spec)
            self._event("worker_spawn", worker=slot.index, shards=list(slot.shards))

    def _spawn(self, slot: _WorkerSlot, shard_ids: Sequence[int], crash_spec: _CrashSpec) -> None:
        if slot.commands is not None:
            # the dead incarnation may have left commands unread: the
            # replacement starts from a fresh queue and the replayed log
            _discard_queue(slot.commands)
        slot.commands = self._ctx.Queue()
        suffix = f"-r{slot.incarnation}" if slot.incarnation else ""
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                self._spec,
                {shard: self._router.clients_of(shard) for shard in shard_ids},
                self._collect_telemetry,
                slot.commands,
                self._results,
                crash_spec,
            ),
            name=f"repro-shard-worker-{slot.index}{suffix}",
            daemon=True,
        )
        process.start()
        self.processes.append(process)
        slot.process = process
        slot.drain_polls = 0
        slot.respawn_at = None
        for command in slot.log or ():
            slot.commands.put(command)

    def send(self, worker: int, command: tuple) -> None:
        """Send (and, under a restarting policy, log) one command to a slot."""
        slot = self._slots[worker]
        if slot.log is not None:
            slot.log.append(command)
        slot.commands.put(command)

    def command_queues(self) -> List[object]:
        """The live command queue of every slot (for the teardown)."""
        return [slot.commands for slot in self._slots if slot.commands is not None]

    # -------------------------------------------------------------- liveness
    def _unfinished(self, slot: _WorkerSlot) -> List[int]:
        return [shard for shard in slot.shards if shard not in self._done]

    def note_queue_activity(self, shard: int) -> None:
        """An item for ``shard`` arrived: restart its slot's drain-grace countdown.

        The item could have come from a dead incarnation's buffer, so that
        slot's death verdict must wait for a fresh run of consecutive empty
        polls.  Other slots' countdowns keep running: survivors streaming
        under steady traffic must not postpone a dead peer's verdict.
        """
        self._slot_of_shard[shard].drain_polls = 0

    def note_shard_done(self, shard: int) -> None:
        """Completion bookkeeping for a shard (first ``done`` only)."""
        if shard in self.recovering_shards and shard not in self.shards_recovered:
            self.shards_recovered.add(shard)
            if self._obs.enabled:
                self._obs.count("runtime.shards_recovered")

    def on_error(self, shard: int, detail: str) -> None:
        """A worker shipped a traceback for ``shard`` and is exiting."""
        slot = self._slot_of_shard[shard]
        self._handle_death(slot, detail)

    def tick(self) -> None:
        """Empty-poll heartbeat: detect corpses after the drain grace."""
        for slot in self._slots:
            if slot.lost or slot.respawn_at is not None:
                continue
            if slot.handled_incarnation >= slot.incarnation:
                continue
            process = slot.process
            if process is None or process.is_alive():
                slot.drain_polls = 0
                continue
            if not self._unfinished(slot):
                continue
            slot.drain_polls += 1
            if slot.drain_polls >= self._drain_grace:
                self._handle_death(
                    slot, detail=f"{process.name} exited with code {process.exitcode}"
                )

    def pump(self) -> None:
        """Spawn any replacement whose backoff deadline has passed."""
        now = time.monotonic()
        for slot in self._slots:
            if slot.respawn_at is None or now < slot.respawn_at:
                continue
            unfinished = self._unfinished(slot)
            if not unfinished:
                # the missing results surfaced while we were backing off
                slot.respawn_at = None
                continue
            slot.incarnation += 1
            slot.restarts_used += 1
            self.worker_restarts += 1
            self.recovering_shards.update(unfinished)
            self._spawn(slot, unfinished, crash_spec=None)
            self._event(
                "worker_restart",
                worker=slot.index,
                shards=unfinished,
                incarnation=slot.incarnation,
            )
            if self._obs.enabled:
                self._obs.count("runtime.worker_restarts")

    def _handle_death(self, slot: _WorkerSlot, detail: str) -> None:
        if slot.lost or slot.handled_incarnation >= slot.incarnation:
            return
        unfinished = self._unfinished(slot)
        if not unfinished:
            return
        exitcode = slot.process.exitcode if slot.process is not None else None
        self._event(
            "worker_death",
            worker=slot.index,
            shards=unfinished,
            exitcode=exitcode,
            incarnation=slot.incarnation,
        )
        budget_left = slot.restarts_used < self._policy.max_restarts
        if not budget_left and self._on_shard_loss == "raise":
            # not marked handled: every later poll sees the corpse again, so
            # a caller that keeps polling keeps getting the crash
            raise WorkerCrashed(unfinished, detail=detail)
        slot.handled_incarnation = slot.incarnation
        if budget_left:
            delay = self._policy.backoff_for(slot.restarts_used)
            slot.respawn_at = time.monotonic() + delay
            self._event(
                "worker_backoff",
                worker=slot.index,
                delay=delay,
                restarts_used=slot.restarts_used,
            )
            return
        # exclude: the run degrades instead of aborting — the lost shards'
        # already-observed batches stay in the merge (mirroring the sim
        # cluster's failover semantics, where pre-crash emissions remain
        # part of the history) and the loss is reported in the outcome
        slot.lost = True
        self.lost_shards.update(unfinished)
        self._done.update(unfinished)
        self._event("shard_loss", worker=slot.index, shards=unfinished)


# --------------------------------------------------------------- coordinator
def worker_count(requested: Optional[int], num_shards: int) -> int:
    """Worker processes used for ``num_shards`` shards (one per shard by default)."""
    if requested is None:
        return num_shards
    return max(min(requested, num_shards), 1)


class ShardCoordinator:
    """The one procs coordinator: workers, queues, cursor-gated merge, teardown.

    Built from a :class:`~repro.runtime.base.LiveClusterSpec`; drivers feed
    it :meth:`wave` commands, :meth:`drain` worker results into the streaming
    merge between waves, then :meth:`close_shards` and :meth:`finish`.
    """

    def __init__(
        self,
        spec: LiveClusterSpec,
        num_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        mp_context: str = "fork",
        poll_timeout: float = 0.1,
        join_timeout: float = 5.0,
        restart_policy: Optional[RestartPolicy] = None,
        on_shard_loss: str = "raise",
        crash_spec: _CrashSpec = None,
    ) -> None:
        self._telemetry = telemetry
        self._poll_timeout = poll_timeout
        self._join_timeout = join_timeout
        self._num_shards = spec.num_shards
        self.num_workers = worker_count(num_workers, spec.num_shards)
        self.router = build_router(spec.client_distributions, spec.num_shards, spec.policy)
        _, _, self._streaming = build_merge(
            spec.client_distributions,
            spec.config,
            self.router,
            merge_topology=spec.merge_topology,
            merge_fanout=spec.merge_fanout,
            telemetry=telemetry,
        )
        self.shard_batches: List[List[SequencedBatch]] = [[] for _ in range(spec.num_shards)]
        self._summaries: Dict[int, dict] = {}
        self._done: Set[int] = set()
        self._replayed_deduped = 0
        try:
            ctx = multiprocessing.get_context(mp_context)
        except ValueError:
            ctx = multiprocessing.get_context()
        self._results = ctx.Queue()
        self._shards_of = [
            list(range(worker, spec.num_shards, self.num_workers))
            for worker in range(self.num_workers)
        ]
        self._supervisor = WorkerSupervisor(
            ctx,
            self._results,
            spec,
            self.router,
            self._shards_of,
            self._done,
            policy=restart_policy if restart_policy is not None else RestartPolicy(),
            on_shard_loss=on_shard_loss,
            crash_spec=crash_spec,
            telemetry=telemetry,
        )
        self._closed = False
        try:
            self._supervisor.start()
        except BaseException:
            self.close()
            raise

    # --------------------------------------------------------------- commands
    def wave(self, items: Iterable[Arrival], run_to: Optional[float]) -> None:
        """Route ``items`` (kept in order per shard) to their workers as one wave."""
        by_worker: List[Dict[int, List[Arrival]]] = [{} for _ in range(self.num_workers)]
        for item in items:
            shard = self.router.shard_of(item.client_id)
            # round-robin placement: shard s lives on worker s mod W
            by_worker[shard % self.num_workers].setdefault(shard, []).append(item)
        for worker, items_by_shard in enumerate(by_worker):
            self._supervisor.send(worker, ("wave", items_by_shard, run_to))

    def close_shards(
        self, heartbeat_time: Optional[float], heartbeat_timestamp: Optional[float]
    ) -> None:
        """Tell every worker to close its shards at the global heartbeat horizon."""
        for worker in range(self.num_workers):
            self._supervisor.send(worker, ("close", heartbeat_time, heartbeat_timestamp))

    # ------------------------------------------------------------------ drain
    def drain(self, block: bool) -> None:
        """Fold worker results into the merge; supervise on every poll.

        ``block=True`` polls until every shard is done (or lost);
        ``block=False`` consumes what is already queued and returns.  Either
        way an empty poll ticks the supervisor, so a dead worker is noticed
        by whichever call polls next.
        """
        supervisor = self._supervisor
        streaming = self._streaming
        while len(self._done) < self._num_shards:
            supervisor.pump()
            try:
                if block:
                    kind, shard, payload = self._results.get(timeout=self._poll_timeout)
                else:
                    kind, shard, payload = self._results.get_nowait()
            except Empty:
                supervisor.tick()
                if not block:
                    return
                continue
            supervisor.note_queue_activity(shard)
            if kind == "batch":
                expected = streaming.observation_cursor(shard)
                if shard in self._done or payload.rank < expected:
                    # a late buffered emission of a finished or lost shard,
                    # or a restarted shard replaying its already-observed
                    # prefix: deterministic replay makes it byte-identical
                    # to what the merger already holds — drop it
                    self._replayed_deduped += 1
                    continue
                if payload.rank > expected:
                    raise WorkerCrashed(
                        [shard],
                        detail=(
                            f"shard {shard} streamed batch rank {payload.rank} "
                            f"but the merger expected rank {expected}"
                        ),
                    )
                self.shard_batches[shard].append(payload)
                streaming.observe_batch(shard, payload)
            elif kind == "done":
                if shard in self._done:
                    continue
                self._done.add(shard)
                self._summaries[shard] = payload
                supervisor.note_shard_done(shard)
            elif kind == "error":
                supervisor.on_error(shard, payload)

    def finish(self) -> MergeOutcome:
        """Drain to completion, tear down, and return the final merge."""
        try:
            self.drain(block=True)
            for process in self._supervisor.processes:
                process.join(timeout=self._join_timeout)
        finally:
            self.close()
        merge = self._streaming.result()
        if self._telemetry is not None:
            for shard in sorted(self._summaries):
                summary = self._summaries[shard]
                self._telemetry.absorb(summary["stages"], summary["events"])
        return merge

    def details(self) -> Dict[str, object]:
        """Supervision counters and per-shard summaries for the outcome."""
        supervisor = self._supervisor
        return {
            "shards_per_worker": [len(shards) for shards in self._shards_of],
            "worker_restarts": supervisor.worker_restarts,
            "shards_recovered": sorted(supervisor.shards_recovered),
            "lost_shards": sorted(supervisor.lost_shards),
            "replayed_batches_deduped": self._replayed_deduped,
            "per_shard": {
                shard: {
                    key: summary[key]
                    for key in ("message_count", "batch_count", "wall_seconds", "loop")
                }
                for shard, summary in sorted(self._summaries.items())
            },
        }

    # --------------------------------------------------------------- teardown
    def close(self) -> None:
        """Tear down workers and queues (idempotent).

        Only processes that were actually started are tracked, so a
        partially started pool tears down safely.  The result queue is
        drained before the joins (a child blocked on a full pipe must be
        released) and every queue is closed with ``cancel_join_thread``.
        """
        if self._closed:
            return
        self._closed = True
        processes = self._supervisor.processes
        for process in processes:
            if process.is_alive():
                process.terminate()
        try:
            while True:
                self._results.get_nowait()
        except (Empty, OSError, ValueError):
            pass
        for process in processes:
            process.join(timeout=self._join_timeout)
        for queue in [self._results, *self._supervisor.command_queues()]:
            _discard_queue(queue)


# -------------------------------------------------------------------- backend
class ProcBackend(RuntimeBackend):
    """Replay a frozen workload through the procs coordinator: one wave, one close."""

    name = "procs"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        mp_context: str = "fork",
        poll_timeout: float = 0.1,
        join_timeout: float = 5.0,
        inject_crash: Optional[int] = None,
        crash_mode: str = "exit",
        crash_point: str = "start",
        restart_policy: Optional[RestartPolicy] = None,
        on_shard_loss: str = "raise",
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be positive when given")
        if crash_mode not in CRASH_MODES:
            raise ValueError(f"unknown crash_mode {crash_mode!r}; expected one of {CRASH_MODES}")
        if crash_point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash_point {crash_point!r}; expected one of {CRASH_POINTS}"
            )
        if on_shard_loss not in SHARD_LOSS_MODES:
            raise ValueError(
                f"unknown on_shard_loss {on_shard_loss!r}; expected one of {SHARD_LOSS_MODES}"
            )
        self._num_workers = num_workers
        self._telemetry = telemetry
        self._coordinator_options = dict(
            mp_context=mp_context,
            poll_timeout=poll_timeout,
            join_timeout=join_timeout,
            restart_policy=restart_policy if restart_policy is not None else RestartPolicy(),
            on_shard_loss=on_shard_loss,
            crash_spec=(
                (inject_crash, crash_mode, crash_point) if inject_crash is not None else None
            ),
        )
        self._clock = WallClock()
        self._coordinator: Optional[ShardCoordinator] = None

    @property
    def clock(self) -> ClockHandle:
        """Wall-clock handle (real processes run in real time)."""
        return self._clock

    @property
    def restart_policy(self) -> RestartPolicy:
        """The supervision policy applied to dead workers."""
        return self._coordinator_options["restart_policy"]

    def workers_for(self, num_shards: int) -> int:
        """Actual worker-process count used for an ``num_shards`` workload."""
        return worker_count(self._num_workers, num_shards)

    def run(self, workload: ClusterWorkload) -> RuntimeOutcome:
        """Execute the workload across worker processes and merge live."""
        started = time.perf_counter()
        coordinator = self._coordinator = ShardCoordinator(
            LiveClusterSpec.from_workload(workload),
            num_workers=self._num_workers,
            telemetry=self._telemetry,
            **self._coordinator_options,
        )
        # the whole workload is one wave from an already-closed source:
        # nothing to wait for, so no watermark — the close runs it all
        coordinator.wave(workload.messages_by_true_time(), run_to=None)
        coordinator.close_shards(*(workload.closing_heartbeat() or (None, None)))
        merge = coordinator.finish()
        return RuntimeOutcome(
            backend=self.name,
            merge=merge,
            shard_batches=coordinator.shard_batches,
            message_count=len(workload.messages),
            wall_seconds=time.perf_counter() - started,
            num_workers=coordinator.num_workers,
            telemetry=self._telemetry,
            details=coordinator.details(),
        )

    def close(self) -> None:
        """Terminate any worker processes still alive (idempotent)."""
        if self._coordinator is not None:
            self._coordinator.close()


__all__ = [
    "CRASH_MODES",
    "CRASH_POINTS",
    "DRAIN_GRACE",
    "SHARD_LOSS_MODES",
    "ProcBackend",
    "RestartPolicy",
    "ShardCoordinator",
    "WorkerCrashed",
    "WorkerSupervisor",
    "run_close",
    "run_wave",
]
