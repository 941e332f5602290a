"""The procs runtime and the one coordinator every runtime drives shards through.

Every shard runs on the one shard host of :mod:`repro.runtime.host`: its
:class:`~repro.core.online.OnlineTommySequencer` on a private event loop,
driven by *waves* — ``("wave", items_by_shard, run_to)`` schedules new
arrivals and advances strictly below ``run_to``; ``("close",
heartbeat_time, heartbeat_timestamp)`` injects the global closing
heartbeats, runs to completion and flushes.  Emissions stream back as
``("batch", shard, batch)`` and the :class:`ShardCoordinator` folds them into
the recipe's :class:`~repro.cluster.merge.StreamingMerger`.

The coordinator places the hosts.  On the procs runtime they live in worker
processes (:func:`_shard_worker_main`) under a :class:`WorkerSupervisor`;
with ``num_workers=0`` — the sim runtimes — they live in the coordinator's
own process and a command is a direct call.  A frozen replay is a live
dispatch whose only source is already closed: :class:`ProcBackend` and
:class:`~repro.runtime.sim.SimBackend` send one wave carrying the whole
:class:`~repro.runtime.base.ClusterWorkload` (no watermark) and then the
close (:meth:`ShardCoordinator.run_frozen`), while
:class:`~repro.runtime.live.LiveDispatcher` drives the very same coordinator
wave by wave.  The merged order is *bitwise equal* across all of them
because

* every runtime executes each shard on the same host with the same waves;
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

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.cluster.merge import MergeOutcome
from repro.cluster.recipe import build_merge, build_router
from repro.core.engine import EngineStats
from repro.network.message import SequencedBatch
from repro.obs.telemetry import Telemetry, resolve
from repro.runtime.base import ClusterWorkload, LiveClusterSpec, RuntimeBackend, RuntimeOutcome
from repro.runtime.host import Arrival, Checkpoint, _ShardHost

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

#: Seconds to wait for each worker process to exit at teardown.
JOIN_TIMEOUT = 5.0


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


def _crash_checkpoint(crash_spec: _CrashSpec, shard: int, results) -> Optional[Checkpoint]:
    """The host checkpoint that dies at the injected point (``None`` elsewhere)."""
    if crash_spec is None or crash_spec[0] != shard:
        return None
    _, mode, point = crash_spec

    def checkpoint(reached: str) -> None:
        if reached == point:
            _injected_crash(mode, shard, results)

    return checkpoint


def _shard_worker_main(
    spec: LiveClusterSpec,
    clients_of: Dict[int, Sequence[str]],
    collect_telemetry: bool,
    commands,
    results,
    crash_spec: _CrashSpec,
) -> None:
    """Worker entry point: host the slot's shards, execute commands.

    Every command runs on every hosted shard in turn; a ``"close"`` posts each
    shard's ``("done", shard, summary)`` — with the stage and event records of
    the shard's private telemetry hub — and ends the process.  Any exception
    is shipped back as ``("error", shard, traceback)`` naming the shard at
    work.
    """
    current = next(iter(clients_of))
    try:
        hosts: List[_ShardHost] = []
        for current, clients in clients_of.items():
            telemetry = Telemetry() if collect_telemetry else None
            checkpoint = _crash_checkpoint(crash_spec, current, results)
            hosts.append(_ShardHost(current, spec, clients, telemetry, results.put, checkpoint))
        while True:
            command = commands.get()
            for host in hosts:
                current = host.shard
                summary = host.execute(command)
                if summary is None:
                    continue
                if host.telemetry is not None:
                    summary["stages"] = host.telemetry.stage_records
                    summary["events"] = host.telemetry.event_records
                results.put(("done", host.shard, summary))
            if command[0] == "close":
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
    short drain grace (:data:`DRAIN_GRACE` consecutive empty polls, which also
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

    def queues(self) -> List[object]:
        """The result queue and every slot's live command queue (for the teardown)."""
        commands = [slot.commands for slot in self._slots if slot.commands is not None]
        return [self._results, *commands]

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
            if slot.drain_polls >= DRAIN_GRACE:
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


class _InProcessHosts:
    """The supervisor of ``num_workers=0``: every shard hosted in this process.

    A command is a direct call into each shard's
    :class:`~repro.runtime.host._ShardHost`, and results land on the
    coordinator's local channel before the call returns.  There is no process
    to spawn, watch, restart or join, so the supervision hooks are no-ops and
    a failing shard raises in the caller.
    """

    processes: Tuple[multiprocessing.process.BaseProcess, ...] = ()
    worker_restarts = 0
    lost_shards: FrozenSet[int] = frozenset()
    shards_recovered: FrozenSet[int] = frozenset()

    def __init__(self, spec: LiveClusterSpec, router, telemetry: Optional[Telemetry], results):
        self._results = results
        self._hosts = [
            _ShardHost(shard, spec, router.clients_of(shard), telemetry, results.put)
            for shard in range(spec.num_shards)
        ]

    def send(self, worker: int, command: tuple) -> None:
        """Execute ``command`` on every shard now."""
        for host in self._hosts:
            summary = host.execute(command)
            if summary is not None:
                self._results.put(("done", host.shard, summary))

    def queues(self) -> List[object]:
        """Nothing to close: the local channel holds no process resources."""
        return []

    def start(self) -> None:
        """Nothing to spawn."""

    def pump(self) -> None:
        """Nothing to respawn."""

    def tick(self) -> None:
        """Nothing can die unnoticed."""

    def note_queue_activity(self, shard: int) -> None:
        """No drain grace to restart."""

    def note_shard_done(self, shard: int) -> None:
        """No recovery to record."""


# --------------------------------------------------------------- coordinator
def worker_count(requested: Optional[int], num_shards: int) -> int:
    """Worker processes used for ``num_shards`` shards (one per shard by default)."""
    if requested is None:
        return num_shards
    return max(min(requested, num_shards), 1)


class ShardCoordinator:
    """The one coordinator: shard hosts, cursor-gated merge, teardown.

    Built from a :class:`~repro.runtime.base.LiveClusterSpec`; drivers feed
    it :meth:`wave` commands, :meth:`drain` shard results into the streaming
    merge between waves, then :meth:`close_shards` and :meth:`finish`.

    ``num_workers`` places the shard hosts: ``None`` is one worker process
    per shard, ``n`` spreads the shards round-robin over ``min(n, shards)``
    worker processes under a :class:`WorkerSupervisor`, and ``0`` hosts every
    shard in this process (no fork; the ``sim`` runtimes), where the
    supervision options do not apply.
    """

    def __init__(
        self,
        spec: LiveClusterSpec,
        num_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        poll_timeout: float = 0.1,
        restart_policy: Optional[RestartPolicy] = None,
        on_shard_loss: str = "raise",
        crash_spec: _CrashSpec = None,
    ) -> None:
        self._telemetry = telemetry
        self._poll_timeout = poll_timeout
        self._num_shards = spec.num_shards
        in_process = num_workers == 0
        self.num_workers = 0 if in_process else worker_count(num_workers, spec.num_shards)
        self.router = build_router(spec.client_distributions, spec.num_shards, spec.policy)
        self._streaming = build_merge(
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
        # shard s is hosted by slot s mod slots; in process, one slot hosts all
        slots = max(self.num_workers, 1)
        self._shards_of = [list(range(slot, spec.num_shards, slots)) for slot in range(slots)]
        self._closed = False
        self._supervisor: Union[WorkerSupervisor, _InProcessHosts]
        if in_process:
            self._results = SimpleQueue()
            self._supervisor = _InProcessHosts(spec, self.router, telemetry, self._results)
        else:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context()
            self._results = ctx.Queue()
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
        if telemetry is not None:
            telemetry.attach("cluster.engine", self.engine_stats)
        try:
            self._supervisor.start()
        except BaseException:
            self.close()
            raise

    # --------------------------------------------------------------- commands
    def wave(self, items: Iterable[Arrival], run_to: Optional[float]) -> None:
        """Route ``items`` (kept in order per shard) to their hosts as one wave."""
        slots = len(self._shards_of)
        by_slot: List[Dict[int, List[Arrival]]] = [{} for _ in range(slots)]
        for item in items:
            shard = self.router.shard_of(item.client_id)
            by_slot[shard % slots].setdefault(shard, []).append(item)
        for slot, items_by_shard in enumerate(by_slot):
            self._supervisor.send(slot, ("wave", items_by_shard, run_to))

    def close_shards(
        self, heartbeat_time: Optional[float], heartbeat_timestamp: Optional[float]
    ) -> None:
        """Close every shard at the global heartbeat horizon."""
        for slot in range(len(self._shards_of)):
            self._supervisor.send(slot, ("close", heartbeat_time, heartbeat_timestamp))

    # ------------------------------------------------------------------ drain
    def drain(self, block: bool) -> None:
        """Fold shard results into the merge; supervise on every poll.

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
                process.join(timeout=JOIN_TIMEOUT)
        finally:
            self.close()
        merge = self._streaming.result()
        if self._telemetry is not None:
            # records a worker kept in its private hub (in-process hosts
            # recorded straight into this one and ship none)
            for shard in sorted(self._summaries):
                summary = self._summaries[shard]
                self._telemetry.absorb(summary.get("stages", ()), summary.get("events", ()))
        return merge

    def run_frozen(self, workload: ClusterWorkload, backend: str, started: float) -> RuntimeOutcome:
        """Sequence a frozen workload and collect the outcome.

        The workload is one wave from an already-closed source: nothing to
        wait for, so no watermark — the close runs it all.  ``started`` is
        the ``perf_counter`` reading the outcome's wall time counts from.
        """
        self.wave(workload.messages_by_true_time(), run_to=None)
        self.close_shards(*(workload.closing_heartbeat() or (None, None)))
        merge = self.finish()
        return RuntimeOutcome(
            backend=backend,
            merge=merge,
            shard_batches=self.shard_batches,
            message_count=len(workload.messages),
            wall_seconds=time.perf_counter() - started,
            num_workers=self.num_workers,
            telemetry=self._telemetry,
            details=self.details(),
        )

    def engine_stats(self) -> EngineStats:
        """Engine counters of every finished shard plus the merger's.

        Reading the merger's settles its pending rows first.
        """
        combined = EngineStats()
        for shard in sorted(self._summaries):
            combined = combined.merge(self._summaries[shard]["engine"])
        return combined.merge(self._streaming.stats)

    def details(self) -> Dict[str, object]:
        """Supervision counters, per-shard summaries and their totals for the outcome.

        ``loop`` sums the per-shard event-loop stats and
        ``observability["engine"]`` is :meth:`engine_stats`.
        """
        supervisor = self._supervisor
        keys = ("message_count", "batch_count", "wall_seconds", "loop")
        per_shard = {
            shard: {key: summary[key] for key in keys}
            for shard, summary in sorted(self._summaries.items())
        }
        loop: Dict[str, int] = {}
        for summary in per_shard.values():
            for key, value in summary["loop"].items():
                loop[key] = loop.get(key, 0) + value
        return {
            "shards_per_worker": [len(shards) for shards in self._shards_of],
            "worker_restarts": supervisor.worker_restarts,
            "shards_recovered": sorted(supervisor.shards_recovered),
            "lost_shards": sorted(supervisor.lost_shards),
            "replayed_batches_deduped": self._replayed_deduped,
            "per_shard": per_shard,
            "loop": loop,
            "observability": {"engine": self.engine_stats().as_dict()},
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
            process.join(timeout=JOIN_TIMEOUT)
        for queue in self._supervisor.queues():
            _discard_queue(queue)


# -------------------------------------------------------------------- backend
class ProcBackend(RuntimeBackend):
    """Replay a frozen workload through the procs coordinator: one wave, one close."""

    name = "procs"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        poll_timeout: float = 0.1,
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
            poll_timeout=poll_timeout,
            restart_policy=restart_policy if restart_policy is not None else RestartPolicy(),
            on_shard_loss=on_shard_loss,
            crash_spec=(
                (inject_crash, crash_mode, crash_point) if inject_crash is not None else None
            ),
        )
        self._coordinator: Optional[ShardCoordinator] = None

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
        self._coordinator = ShardCoordinator(
            LiveClusterSpec.from_workload(workload),
            num_workers=self._num_workers,
            telemetry=self._telemetry,
            **self._coordinator_options,
        )
        return self._coordinator.run_frozen(workload, self.name, started)

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
]
