"""The distributed campaign runner: N supervised workers over a lease queue.

:class:`CampaignRunner` is the parent-side supervisor.  It materializes the
campaign's chunk stream once, registers every (scope, chunk) with a
:class:`~repro.distrib.queue.LeaseQueue`, and spawns N worker processes
**directly** via ``multiprocessing.Process`` — never a ``Pool``, whose
shared queues a SIGKILLed worker can leave holding an orphaned lock.  Each
worker talks to the parent over its *own* duplex pipe: a worker killed
mid-send corrupts only its private channel (the parent reads EOF and moves
on), and no lock is shared across processes at all.

Workers are plain chunk executors: receive ``(ChunkTask, token)``, run it
through the ordinary :func:`~repro.explorer.worker.execute_chunk`
trie/batch-kernel path, send back the records.  All policy — granting,
heartbeat renewal, expiry reclaim, backoff, poison quarantine, in-order
fenced commits, death detection, respawn — lives in the parent loop, which
is also the only process that ever touches the store.

A worker holds :data:`PREFETCH` leases, the chunk it executes and one
queued, so its next task waits in the worker while the parent commits; and
:meth:`~repro.distrib.queue.LeaseQueue.acquire` keeps it on one scope, whose
transition table and history classes it then reuses.  A beat renews every
lease its worker holds, so the queued one cannot lapse behind a long chunk;
when beats stop (a hang) both lapse under the expiry rule.  A dead worker is
charged one attempt, for the chunk it was running (read what it sent before
dying first); its queued lease is released free (``leases_released``).

Determinism: the records a chunk produces are a pure function of the
campaign config (the explorer's contract), the chunk stream is fixed before
any worker starts, and commits land in stream order under the contiguous
cursor.  Faults, worker counts, and lease timing decide only *which worker
executes a chunk when* — never what the chunk produces — so the final
store contents are byte-identical to a serial run's.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from queue import SimpleQueue
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.isolation import IsolationLevelName
from ..explorer.explorer import DEFAULT_LEVELS, _resolve_worker_count
from ..explorer.options import distinct_levels
from ..explorer.schedules import Interleaving, schedule_space
from ..explorer.worker import ChunkTask, execute_chunk
from ..persist.records import default_campaign_id, merge_stats
from ..persist.session import campaign_config
from ..persist.sqlite_store import SqliteStore
from ..workloads.program_sets import ProgramSetSpec, resolve_program_set
from .faults import (
    FaultPlan,
    WorkerFaultInjector,
    busy_hook_for,
    commit_hook_for,
)
from .heartbeats import HeartbeatSender
from .queue import LeaseQueue, PoisonedChunk

__all__ = ["CampaignRunner", "CampaignRunResult"]

#: Leases a worker holds at once: the chunk it executes plus one queued.
PREFETCH = 2


@dataclass(frozen=True)
class CampaignRunResult:
    """What one distributed campaign run did, and how it degraded."""

    campaign_id: str
    success: bool                #: every chunk of every scope committed
    timed_out: bool
    committed_chunks: int
    committed_records: int
    fenced_results: int          #: zombie results rejected by the fence
    respawns: int
    poisoned: Tuple[PoisonedChunk, ...]
    stats: Dict[str, int]        #: lease + worker cache + store counters
    duration: float
    #: Worst observed gap between detecting a lost worker and durably
    #: committing its reclaimed chunk — ``None`` when nothing was lost.
    recovery_latency_s: Optional[float]


@dataclass
class _WorkerHandle:
    index: int
    incarnation: int
    process: multiprocessing.Process
    conn: Any                                 #: parent end of the duplex pipe
    leases: List[Tuple[str, int, int]] = field(default_factory=list)  #: pipe order, [0] runs
    last_seen: float = 0.0
    broken: bool = False                      #: pipe hit EOF; await death


def _worker_main(worker_index: int, incarnation: int, conn,
                 heartbeat_interval: float,
                 fault_specs: Sequence) -> None:
    """Worker process body: pull tasks, execute, heartbeat, report.  A reader
    thread drains the pipe, so sending a queued task never blocks the parent."""
    injector = WorkerFaultInjector(fault_specs)
    send_lock = threading.Lock()
    inbox: SimpleQueue = SimpleQueue()

    def read() -> None:
        message: Any = ()
        while message is not None:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = None
            inbox.put(message)

    def post(payload: Tuple) -> None:
        with send_lock:
            try:
                conn.send(payload)
            except (BrokenPipeError, OSError):   # parent is gone; die quietly
                pass

    heartbeat = HeartbeatSender(
        lambda scope, chunk, token: post(
            ("hb", worker_index, incarnation, scope, chunk, token)),
        heartbeat_interval)
    heartbeat.start()
    threading.Thread(target=read, daemon=True).start()
    ordinal = 0
    try:
        while True:
            message = inbox.get()
            if message is None:
                break
            _, task, token = message
            scope = task.level.value
            heartbeat.begin(scope, task.chunk_index, token)
            injector.fire(ordinal, "pre", heartbeat)
            result = execute_chunk(task)
            injector.fire(ordinal, "post", heartbeat)
            heartbeat.end()
            post(("result", worker_index, incarnation, scope,
                  task.chunk_index, token, result.records,
                  result.cache_stats))
            ordinal += 1
    finally:
        heartbeat.stop()


class CampaignRunner:
    """Supervise N leased workers until the campaign commits (or degrades)."""

    def __init__(self, store: SqliteStore, spec: ProgramSetSpec, *,
                 levels: Sequence[IsolationLevelName] = DEFAULT_LEVELS,
                 mode: str = "auto", max_schedules: int = 1000, seed: int = 0,
                 chunk_size: int = 64,
                 workers: Union[int, str] = 2,
                 campaign_id: Optional[str] = None,
                 lease_duration: float = 2.0,
                 heartbeat_interval: float = 0.5,
                 max_attempts: int = 5,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 jitter_seed: int = 0,
                 faults: Optional[FaultPlan] = None,
                 requeue_poisoned: bool = False,
                 stall_timeout: Optional[float] = None,
                 max_respawns: int = 16,
                 tick: float = 0.02,
                 deadline_s: Optional[float] = 300.0) -> None:
        self.store = store
        # Canonical param order (what ProgramSetSpec.make produces): the
        # store round-trips specs through sorted params, so the runner
        # normalizes up front to keep stored-config renders byte-identical
        # however the caller ordered the tuple.
        self.spec = ProgramSetSpec.make(spec.name, **spec.kwargs())
        self.levels = distinct_levels(levels)
        self.mode = mode
        self.max_schedules = int(max_schedules)
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)
        self.workers = _resolve_worker_count(workers)
        self.lease_duration = float(lease_duration)
        self.heartbeat_interval = float(heartbeat_interval)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.jitter_seed = int(jitter_seed)
        self.faults = faults or FaultPlan()
        self.requeue_poisoned = requeue_poisoned
        self.stall_timeout = (float(stall_timeout) if stall_timeout is not None
                              else max(4.0 * self.lease_duration,
                                       10.0 * self.heartbeat_interval))
        self.max_respawns = int(max_respawns)
        self.tick = float(tick)
        self.deadline_s = deadline_s
        # The same config a serial explore(store=...) of this campaign
        # writes, so either path may resume the other's campaign.
        self.config = campaign_config(spec, mode=mode,
                                      max_schedules=self.max_schedules,
                                      seed=self.seed,
                                      chunk_size=self.chunk_size)
        self.campaign_id = campaign_id or default_campaign_id(self.config)

    # -- orchestration ----------------------------------------------------------------

    def run(self) -> CampaignRunResult:
        started = time.monotonic()
        self.store.open_campaign(self.campaign_id, self.config)
        builder = resolve_program_set(self.spec)
        _, programs = builder(**self.spec.kwargs())
        space = schedule_space(programs, mode=self.mode,
                               max_schedules=self.max_schedules,
                               seed=self.seed)
        chunks: List[Tuple[int, Tuple[Interleaving, ...]]] = \
            list(space.iter_chunks(self.chunk_size))
        total_chunks = len(chunks)
        payloads = {index: schedules for index, schedules in chunks}
        level_of = {level.value: level for level in self.levels}

        queue = LeaseQueue(
            self.store, self.campaign_id,
            lease_duration=self.lease_duration,
            max_attempts=self.max_attempts,
            backoff_base=self.backoff_base, backoff_cap=self.backoff_cap,
            jitter_seed=self.jitter_seed)
        queue.commit_hook = commit_hook_for(self.faults.specs)
        busy_hook = busy_hook_for(self.faults.specs)
        if busy_hook is not None:
            self.store.busy_fault_hook = busy_hook

        progress = self.store.scope_progress(self.campaign_id)
        already_complete = set()
        for level in self.levels:
            scope = level.value
            state = progress.get(scope)
            cursor = state.cursor if state is not None else 0
            if state is not None and state.complete:
                already_complete.add(scope)
                cursor = total_chunks
            queue.register_scope(scope, total_chunks, cursor)
        if self.requeue_poisoned:
            queue.drain_poisoned(requeue=True)

        handles: List[_WorkerHandle] = []
        respawns = 0
        worker_stats: Dict[str, int] = {}
        pending_recovery: Dict[Tuple[str, int], float] = {}
        latencies: List[float] = []
        timed_out = False

        def spawn(index: int, incarnation: int) -> _WorkerHandle:
            parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
            process = multiprocessing.Process(
                target=_worker_main,
                args=(index, incarnation, child_conn, self.heartbeat_interval,
                      self.faults.worker_specs(index, incarnation)),
                daemon=True)
            process.start()
            child_conn.close()
            return _WorkerHandle(index, incarnation, process, parent_conn,
                                 last_seen=time.monotonic())

        def assign(handle: _WorkerHandle) -> bool:
            lease = queue.acquire(f"w{handle.index}")
            if lease is None:
                return False
            level = level_of[lease.scope]
            task = ChunkTask(lease.chunk_index, self.spec, level,
                             payloads[lease.chunk_index], builder)
            try:
                handle.conn.send(("chunk", task, lease.token))
            except (BrokenPipeError, OSError):
                # Worker died before the task reached it: the lease goes
                # back free, and the death path below respawns the worker.
                handle.broken = True
                queue.release(lease.scope, lease.chunk_index, lease.token)
                return False
            handle.leases.append((lease.scope, lease.chunk_index, lease.token))
            return True

        def note_lost(scope: str, chunk: int) -> None:
            pending_recovery.setdefault((scope, chunk), time.monotonic())

        def handle_message(handle: _WorkerHandle, message: Tuple) -> None:
            kind = message[0]
            if kind == "hb":
                _, windex, inc, scope, chunk, token = message
                if inc == handle.incarnation:
                    handle.last_seen = time.monotonic()
                for held in {(scope, chunk, token), *handle.leases}:
                    queue.renew(*held)
            elif kind == "result":
                (_, windex, inc, scope, chunk, token, records,
                 cache_stats) = message
                if inc == handle.incarnation:
                    handle.last_seen = time.monotonic()
                    if (scope, chunk, token) in handle.leases:
                        handle.leases.remove((scope, chunk, token))
                accepted = queue.complete(scope, chunk, token, records)
                if accepted:
                    merge_stats(worker_stats, cache_stats)
                    lost_at = pending_recovery.pop((scope, chunk), None)
                    if lost_at is not None:
                        latencies.append(time.monotonic() - lost_at)

        def receive(handle: _WorkerHandle) -> None:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                handle.broken = True
                return
            handle_message(handle, message)

        if not queue.all_committed():
            handles = [spawn(index, 0) for index in range(self.workers)]
        try:
            while not queue.all_committed():
                if not queue.has_open_work():
                    break               # only poisoned gaps remain
                if self.deadline_s is not None and \
                        time.monotonic() - started > self.deadline_s:
                    timed_out = True
                    break
                live_conns = [handle.conn for handle in handles
                              if not handle.broken
                              and handle.process.is_alive()]
                for ready in mp_connection.wait(live_conns,
                                                timeout=self.tick) if live_conns else ():
                    receive(next(h for h in handles if h.conn is ready))

                now = time.monotonic()
                for reclaimed in queue.reclaim_expired():
                    note_lost(reclaimed.scope, reclaimed.chunk_index)

                for position, handle in enumerate(handles):
                    if not handle.process.is_alive():
                        # Dead worker: read what it sent, charge the chunk it
                        # was running, free the queued one, and respawn.
                        while not handle.broken and handle.conn.poll():
                            receive(handle)
                        if handle.leases:
                            (scope, chunk, token), *queued = handle.leases
                            if queue.force_expire(scope, chunk, token) is not None:
                                note_lost(scope, chunk)
                            for lease in queued:
                                queue.release(*lease)
                            handle.leases.clear()
                        handle.conn.close()
                        if respawns < self.max_respawns:
                            respawns += 1
                            handles[position] = spawn(handle.index,
                                                      handle.incarnation + 1)
                    elif handle.leases and \
                            now - handle.last_seen > self.stall_timeout:
                        # Hung past any plausible slow chunk: kill it; the
                        # death path above reclaims and respawns next tick.
                        handle.process.kill()

                # Every worker lost AND the respawn budget spent: nothing
                # will ever execute again, stop instead of spinning to the
                # deadline.  (A merely-dead worker with budget remaining is
                # respawned by the death pass next tick, so no break.)
                if handles and respawns >= self.max_respawns \
                        and not any(handle.process.is_alive()
                                    for handle in handles):
                    break

                granting = True
                for handle in handles:
                    if handle.broken or not handle.process.is_alive():
                        continue
                    while granting and len(handle.leases) < PREFETCH:
                        granting = assign(handle)
        finally:
            for handle in handles:
                if handle.process.is_alive():
                    try:
                        handle.conn.send(None)
                    except (BrokenPipeError, OSError):
                        pass
            deadline = time.monotonic() + 2.0
            for handle in handles:
                handle.process.join(timeout=max(0.0,
                                                deadline - time.monotonic()))
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
                handle.conn.close()

        success = queue.all_committed()
        if success:
            for level in self.levels:
                scope = level.value
                if scope not in already_complete:
                    self.store.mark_scope_complete(
                        self.campaign_id, scope, total_chunks)
        stats = queue.lease_stats()
        merge_stats(stats, {f"worker_{key}": value
                            for key, value in worker_stats.items()})
        merge_stats(stats, {f"store_{key}": value
                            for key, value in self.store.stats().items()})
        stats["respawns"] = respawns
        return CampaignRunResult(
            campaign_id=self.campaign_id,
            success=success,
            timed_out=timed_out,
            committed_chunks=stats.get("chunks_committed", 0),
            committed_records=stats.get("records_committed", 0),
            fenced_results=stats.get("fenced_results", 0),
            respawns=respawns,
            poisoned=queue.poisoned(),
            stats=stats,
            duration=time.monotonic() - started,
            recovery_latency_s=max(latencies) if latencies else None,
        )
