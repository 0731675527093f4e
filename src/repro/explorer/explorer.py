"""The schedule-space explorer: orchestration, parallel fan-out, determinism.

``explore()`` resolves the interleaving space of a registered program set
(exhaustive for small spaces, seeded uniform sampling for large ones), streams
it in fixed-size chunks, executes every chunk through the prefix-sharing
:class:`~repro.explorer.trie_executor.TrieExecutor` — in process, or fanned
out over a ``multiprocessing`` pool — and reassembles the per-schedule records
in schedule order.

Four scaling layers sit on the hot path:

* **Streaming** — the schedule stream is generated lazily and dispatched with
  ``imap`` over indexed chunks, so exploring (or sampling) millions of
  schedules holds O(chunk) interleavings in memory, never the full list.
* **Prefix-sharing execution** — each worker keeps one testbed per
  (spec, level) and walks its chunks as a DFS over their shared-prefix trie:
  a schedule re-executes only the suffix past the deepest checkpoint it
  shares with its predecessor (see :mod:`repro.explorer.trie_executor`).
* **Partial-order reduction** (``reduction="sleep-set"``) — equivalent
  interleavings (differing only by commuting adjacent steps of transactions
  with disjoint footprints) are executed once and their classification reused
  for the whole equivalence class.  Canonicalization is *streamed*: chunks are
  reduced as they are generated (:class:`~repro.explorer.reduction.StreamingReducer`),
  so reduction composes with sampled streams of any size without
  materializing the schedule list up front.
* **One classification memo per run and process** — a history's
  classification is defined on the history, not on the level or chunk that
  realized it, so the serial path keeps one
  :class:`~repro.explorer.memo.BatchClassifier` for the whole ``explore()``
  call (all levels) and every pool worker keeps one for its lifetime, which
  is the run.  Workers exchange nothing: no manager process, no per-chunk
  round trips.

Determinism contract: the full output (every record, in order) is a pure
function of ``(spec, levels, mode, max_schedules, seed, reduction)``.  Worker
count, chunk size, batch-kernel mode, classification-memo warmth and the
classifications an attached store already holds only change wall-clock time,
never results — the schedule stream is fixed by the seed before any
execution, chunks are indexed, records are reassembled by chunk index,
execution is byte-equal to from-scratch runs (the trie executor's contract),
and classification is a pure function of the realized history.  Without
reduction every record is its own schedule's execution; with it, the one
executed representative of each class is fixed by the stream, not by which
process met the class first.
``ExplorationResult.fingerprint()`` hashes the record stream so tests can
assert byte-identical serial/parallel output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import time
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.isolation import IsolationLevelName
from ..workloads.program_sets import ProgramSetSpec, resolve_program_set
from .memo import BatchClassifier
from .options import DEFAULT_LEVELS, REDUCTIONS, ExploreOptions
from .reduction import StreamingReducer, terminal_scope_for
from .schedules import Interleaving, ScheduleSpace, schedule_space
from .worker import (
    ChunkResult,
    ChunkTask,
    ScheduleRecord,
    _initial_items,
    execute_chunk,
)

__all__ = [
    "DEFAULT_LEVELS",
    "ExploreOptions",
    "LevelExploration",
    "ExplorationResult",
    "available_workers",
    "terminal_scope_for",
    "explore",
]

# DEFAULT_LEVELS and REDUCTIONS are defined in .options (the consolidated
# configuration surface) and re-exported here for their historical importers.


def available_workers() -> int:
    """The usable CPU count (affinity-aware where the platform supports it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class LevelExploration:
    """Every schedule record for one isolation level, in schedule order."""

    level: IsolationLevelName
    records: Tuple[ScheduleRecord, ...]
    cache_stats: Dict[str, int]
    duration: float
    executed: int = -1

    def __post_init__(self) -> None:
        if self.executed < 0:
            object.__setattr__(self, "executed", len(self.records))

    @property
    def schedules_per_second(self) -> float:
        """Execution + classification throughput for this level."""
        return len(self.records) / self.duration if self.duration > 0 else float("inf")


@dataclass(frozen=True)
class ExplorationResult:
    """The full outcome of one ``explore()`` call."""

    spec: ProgramSetSpec
    space: ScheduleSpace
    workers: int
    chunk_size: int
    levels: Dict[IsolationLevelName, LevelExploration]
    reduction: str = "none"

    def fingerprint(self) -> str:
        """SHA-256 over every record, in order — identical runs hash identically.

        Timing and cache statistics are deliberately excluded; they vary with
        worker count while the records may not.
        """
        digest = hashlib.sha256()
        for level in sorted(self.levels, key=lambda lvl: lvl.value):
            digest.update(level.value.encode())
            for record in self.levels[level].records:
                digest.update(repr((
                    record.interleaving, record.history, record.serializable,
                    record.phenomena, record.committed, record.aborted,
                    record.blocked_events, record.deadlocks, record.stalled,
                )).encode())
        return digest.hexdigest()

    def total_schedules(self) -> int:
        """Schedules covered (executed or reduction-reused), summed over levels."""
        return sum(len(exploration.records) for exploration in self.levels.values())

    def executed_schedules(self) -> int:
        """Schedules actually run through an engine, summed over levels."""
        return sum(exploration.executed for exploration in self.levels.values())

    def reduction_ratio(self) -> float:
        """Schedules covered per schedule executed (1.0 without reduction)."""
        executed = self.executed_schedules()
        return self.total_schedules() / executed if executed else 1.0


# -- streamed reduction plans -------------------------------------------------------


class _ScopePlan:
    """Per-terminal-scope reduction state, built while the first level streams.

    The first level using a scope drives :class:`StreamingReducer` chunk by
    chunk and records the slot assignment (one compact integer per schedule);
    subsequent levels of the same scope replay the stored plan — representing
    chunks as contiguous slices of the representative list — without paying
    canonicalization again.
    """

    def __init__(self, programs, scope: str):
        self.reducer = StreamingReducer(programs, terminal_scope=scope)
        self.assignment = array("q")
        self.complete = False

    def building_stream(self, chunks: Iterable[Tuple[int, Tuple[Interleaving, ...]]]
                        ) -> Iterator[Tuple[Tuple[Interleaving, ...], Tuple[Interleaving, ...]]]:
        """Reduce chunks as they stream; yields (chunk, fresh representatives)."""
        for _, chunk in chunks:
            fresh, slots = self.reducer.reduce(chunk)
            self.assignment.extend(slots)
            yield chunk, fresh
        self.complete = True

    def replay_stream(self, chunks: Iterable[Tuple[int, Tuple[Interleaving, ...]]]
                      ) -> Iterator[Tuple[Tuple[Interleaving, ...], Tuple[Interleaving, ...]]]:
        """Replay the recorded plan: fresh representatives are a contiguous
        suffix of the representative list within each chunk (first-encounter
        order guarantees it)."""
        executed = self.reducer.executed
        cursor = 0
        position = 0
        for _, chunk in chunks:
            slots = self.assignment[position:position + len(chunk)]
            position += len(chunk)
            top = max(slots) + 1 if len(slots) else cursor
            fresh = tuple(executed[cursor:max(cursor, top)])
            cursor = max(cursor, top)
            yield chunk, fresh

    def stream(self, chunks: Iterable[Tuple[int, Tuple[Interleaving, ...]]]
               ) -> Iterator[Tuple[Tuple[Interleaving, ...], Tuple[Interleaving, ...]]]:
        if self.complete:
            return self.replay_stream(chunks)
        return self.building_stream(chunks)


class _ChunkStreamCache:
    """Replay a space's chunk stream across levels without re-sampling.

    ``explore`` iterates the same schedule stream once per isolation level;
    for sampled spaces that pays the full RNG cost per level.  This cache
    materializes the chunk list the first time a (chunk size) stream is
    drained and replays it for later levels — but only for small runs:
    ``limit`` caps the cached schedule count, so million-schedule streams keep
    the O(chunk) memory contract and simply stream again per level.  Purely an
    optimization: the stream is a pure function of the space, so replaying the
    cache is indistinguishable from regenerating it.
    """

    def __init__(self, space: ScheduleSpace, limit: int = 100_000):
        self._space = space
        self._limit = limit
        self._chunks: Dict[int, List[Tuple[int, Tuple[Interleaving, ...]]]] = {}

    def iter_chunks(self, chunk_size: int
                    ) -> Iterator[Tuple[int, Tuple[Interleaving, ...]]]:
        cached = self._chunks.get(chunk_size)
        if cached is not None:
            return iter(cached)
        return self._build(chunk_size)

    def _build(self, chunk_size: int
               ) -> Iterator[Tuple[int, Tuple[Interleaving, ...]]]:
        collected: List[Tuple[int, Tuple[Interleaving, ...]]] = []
        total = 0
        keep = True
        for indexed_chunk in self._space.iter_chunks(chunk_size):
            if keep:
                collected.append(indexed_chunk)
                total += len(indexed_chunk[1])
                if total > self._limit:
                    keep = False
                    collected.clear()
            yield indexed_chunk
        if keep:
            self._chunks[chunk_size] = collected


def _merge_stats(stats_list: Iterable[Dict[str, int]]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for stats in stats_list:
        for key, value in stats.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _assemble_chunk(records: List[ScheduleRecord],
                    executed_records: List[ScheduleRecord],
                    chunk: Tuple[Interleaving, ...],
                    slots: Sequence[int]) -> None:
    """Expand one chunk's representative records over its schedule stream."""
    for interleaving, slot in zip(chunk, slots):
        record = executed_records[slot]
        if record.interleaving != interleaving:
            record = dataclasses.replace(record, interleaving=interleaving)
        records.append(record)


# -- level exploration (serial and parallel share the chunk pipeline) ----------------


def _explore_level(spec: ProgramSetSpec, level: IsolationLevelName,
                   chunks: _ChunkStreamCache, plan: Optional[_ScopePlan],
                   chunk_size: int, builder,
                   pool, classifier: Optional[BatchClassifier],
                   batch_kernel: Optional[str] = None,
                   persistence=None) -> LevelExploration:
    """Stream one level's chunks through execution (in-process or pooled).

    ``classifier`` is the run's classification memo when the chunks execute
    in this process (``pool`` is None); pool workers use their own.

    With a reduction plan, chunks are canonicalized as they stream (or the
    recorded plan replayed) and only fresh representatives are executed;
    assembly interleaves with result consumption, so no stage materializes
    the schedule stream.

    With ``persistence`` (a :class:`repro.persist.session.LevelPersistence`)
    attached, chunks below the stored cursor are *loaded* instead of
    executed, every freshly executed chunk is committed atomically as its
    result arrives — results come back in chunk-index order, so the cursor
    stays a contiguous high-water mark — together with the classifications
    it newly computed, and the serial classification memo is preloaded from
    the store.  The stored prefix of the stream always comes before every
    live chunk, so loaded records land in stream order.
    """
    if persistence is not None and classifier is not None:
        persistence.preload_classifier(classifier)
    started = time.perf_counter()
    records: List[ScheduleRecord] = []
    executed_records: List[ScheduleRecord] = []
    stats_parts: List[Dict[str, int]] = []
    executed = 0
    cursor = persistence.cursor if persistence is not None else 0
    # Entries appear in stream order; stored entries (chunk index < cursor)
    # form a strict prefix of the stream, so draining them before each live
    # result (and after the last) reassembles records in stream order.  The
    # list is appended by the task generator (the pool's feeder thread when
    # parallel — same single-producer pattern as ``pending`` below) and
    # consumed only by this parent loop.
    order: List[Tuple] = []
    consumed = 0
    loaded_records = 0
    loaded_reps = 0
    export_fresh = persistence is not None

    if plan is None:
        # In-process execution has no load-balancing constraint, so batch the
        # stream coarser than chunk_size: bigger sorted batches share longer
        # prefixes in the trie executor.  Records are identical either way —
        # per-schedule outcomes are independent of batching by the trie
        # executor's byte-equality contract.  A campaign store pins the batch
        # to chunk_size: the progress cursor counts *campaign* chunks, which
        # must mean the same boundaries in every run that touches the store.
        if persistence is not None or pool is not None:
            batch_size = chunk_size
        else:
            batch_size = max(chunk_size, 2048)
        chunk_schedules = chunks.iter_chunks(batch_size)

        def tasks() -> Iterator[ChunkTask]:
            for index, chunk in chunk_schedules:
                if index < cursor:
                    order.append(("stored", index, len(chunk)))
                    continue
                order.append(("live", index))
                yield ChunkTask(index, spec, level, chunk, builder,
                                batch_kernel=batch_kernel,
                                export_fresh=export_fresh)

        def drain_stored() -> None:
            nonlocal consumed, loaded_records
            while consumed < len(order) and order[consumed][0] == "stored":
                _, index, _length = order[consumed]
                stored_records, _reps = persistence.load_chunk(index)
                records.extend(stored_records)
                loaded_records += len(stored_records)
                consumed += 1

        for result in _run_tasks(tasks(), pool, classifier):
            drain_stored()
            entry = order[consumed]
            consumed += 1
            records.extend(result.records)
            stats_parts.append(result.cache_stats)
            if persistence is not None:
                persistence.commit_chunk(
                    entry[1], result.records,
                    fresh_classifications=result.fresh_classifications)
        drain_stored()
        executed = len(records) - loaded_records
    else:
        plan_stream = plan.stream(chunks.iter_chunks(chunk_size))
        # The task generator advances the plan stream; assembly pulls the
        # matching (chunk, slots) pairs from this parent-side queue, which
        # only ever holds the chunks the pool has prefetched ahead of their
        # results — O(pool prefetch), not O(stream).
        pending: List[Tuple[Tuple[Interleaving, ...], int]] = []

        def tasks() -> Iterator[ChunkTask]:
            for index, (chunk, fresh) in enumerate(plan_stream):
                if index < cursor:
                    order.append(("stored", index, len(chunk)))
                    continue
                order.append(("live", index))
                pending.append((chunk, len(chunk)))
                yield ChunkTask(index, spec, level, fresh, builder,
                                batch_kernel=batch_kernel,
                                export_fresh=export_fresh)

        position = 0

        def drain_stored() -> None:
            nonlocal consumed, position, loaded_records, loaded_reps
            while consumed < len(order) and order[consumed][0] == "stored":
                _, index, length = order[consumed]
                stored_records, stored_reps = persistence.load_chunk(index)
                records.extend(stored_records)
                executed_records.extend(stored_reps)
                loaded_records += len(stored_records)
                loaded_reps += len(stored_reps)
                position += length
                consumed += 1

        for result in _run_tasks(tasks(), pool, classifier):
            drain_stored()
            entry = order[consumed]
            consumed += 1
            executed_records.extend(result.records)
            stats_parts.append(result.cache_stats)
            chunk, length = pending.pop(0)
            slots = plan.assignment[position:position + length]
            position += length
            assembled_start = len(records)
            _assemble_chunk(records, executed_records, chunk, slots)
            if persistence is not None:
                persistence.commit_chunk(
                    entry[1], records[assembled_start:],
                    rep_records=result.records,
                    fresh_classifications=result.fresh_classifications)
        drain_stored()
        executed = len(executed_records) - loaded_reps

    stats = _merge_stats(stats_parts)
    if persistence is not None:
        persistence.finish(len(order))
        stats.update(persistence.stats)
    duration = time.perf_counter() - started
    return LevelExploration(level, tuple(records), stats, duration,
                            executed=executed)


def _run_tasks(tasks: Iterator[ChunkTask], pool,
               classifier: Optional[BatchClassifier]) -> Iterator[ChunkResult]:
    """Run chunk tasks in submission order, in-process or on the pool."""
    if pool is None:
        for task in tasks:
            yield execute_chunk(task, classifier)
    else:
        # imap pulls tasks from the lazy generator as workers free up, so the
        # parent never materializes the full schedule list; results arrive in
        # submission order, which *is* chunk-index order.
        for result in pool.imap(execute_chunk, tasks):
            yield result


def _resolve_worker_count(workers: Union[int, str]) -> int:
    if workers == "auto":
        return max(1, available_workers())
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be an int or 'auto', got {workers!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def explore(spec: ProgramSetSpec,
            options: Optional[ExploreOptions] = None) -> ExplorationResult:
    """Explore the schedule space of a program set under several isolation levels.

    Every knob travels in one :class:`~repro.explorer.options.ExploreOptions`
    parameter object: ``explore(spec, ExploreOptions(workers=4, seed=7))``
    (``None`` means the defaults).  Anything else in that position raises
    ``TypeError``.

    Parameters
    ----------
    spec:
        A :class:`~repro.workloads.program_sets.ProgramSetSpec` naming a
        registered builder (workers rebuild the programs from it).
    options:
        An :class:`~repro.explorer.options.ExploreOptions` carrying every
        knob below (build one with :meth:`ExploreOptions.from_env` to read
        the ``EXPLORER_*`` environment variables).
    levels:
        Isolation levels to run every schedule under (default: the Table 4 rows
        every engine implements).
    mode, max_schedules, seed:
        Passed to :func:`~repro.explorer.schedules.schedule_space` — exhaustive
        enumeration, seeded sampling, or automatic choice between them.  The
        stream is lazy: schedules are generated chunk by chunk, never held as
        one list.
    workers:
        ``1`` runs in-process with one classification memo for the whole
        call; ``N > 1`` fans chunks out over a process pool whose workers
        each keep their own for the run and exchange nothing; ``"auto"`` uses
        every usable core (:func:`available_workers`).  Results are identical
        in all cases.
    chunk_size:
        Schedules per work unit.  Affects only load balancing and streaming
        granularity.
    reduction:
        ``"none"`` executes every schedule, and every record carries the
        history its own schedule realized.  ``"sleep-set"`` is the one
        equivalence-class dedupe: it executes one representative per
        commutation-equivalence class and reuses its classification for the
        rest (see :mod:`repro.explorer.reduction`).
        Canonicalization streams chunk by chunk; at most one plan per
        terminal scope is built and replayed across the levels of that kind.
        The commutation oracle is level-aware: single-version locking levels
        drop the component-wide snapshot-boundary terminal rule multiversion
        engines need, so their equivalence classes are coarser and their
        executed counts lower.  Coverage reports are unchanged either way;
        only executed-schedule counts drop.
        Note the record semantics: a reduced schedule's record keeps its own
        interleaving but carries its *representative's* realized history
        (equivalent up to the order of commuting adjacent steps), so a
        coverage witness pair under reduction shows the class's
        representative history, not a replay of that exact interleaving.
        On an exhaustive stream the representative is the first class member
        in lexicographic order, which is also the class's
        :meth:`~repro.explorer.reduction.CommutationOracle.canonical_key`.
    batch_kernel:
        Batch-drain kernel mode for the executors: ``"auto"`` uses the
        transition-memoized flat kernel when the (level, workload) is
        supported, falling back to the stepwise trie walk otherwise;
        ``"on"`` raises when the kernel cannot be built; ``"off"`` disables it.  ``None`` (the default) defers to the
        ``EXPLORER_BATCH_KERNEL`` environment variable (default ``"auto"``).
        Pure optimization — records are byte-identical in every mode.
    store:
        An optional :class:`repro.persist.SqliteStore` making the run a
        **persistent campaign**: every chunk of every level commits
        atomically (records + progress cursor) as its result arrives, so a
        killed run resumes from its last durable chunk — skipping the stored
        prefix of the stream by *loading* its records — and produces a
        byte-identical result to an uninterrupted run.  The store also backs
        one dedupe tier across runs and workloads: history classifications
        (keyed by shorthand, shared by every workload).  Whatever a chunk
        newly classifies is saved with that chunk, serial and parallel
        alike, so the tier holds exactly what the committed chunks learned.
        The serial path also *preloads* the tier, once per run, so a new
        campaign on a warm store skips what the store already knows.  Pool
        workers are not seeded from the store at all: the pool is created by
        ``multiprocessing.Pool(processes=workers)`` with no initializer, and
        the only other channel — a tier parked in module globals for ``fork``
        to copy — would make a run's cost depend on the start method.  A
        parallel run still resumes from the cursor and a re-run of a complete
        campaign executes 0 schedules; what it gives up is the stored tier
        on a *new* campaign.  Measured on the ledger's spec, seed 977 after
        seed 42 on one store, ``chunk_size=256``: 3,008 of the second
        campaign's 17,569 distinct histories (17%) are already stored; the
        serial preload turns them into 14,561 misses instead of 17,569
        (classification 1.89 -> 1.61 s), two workers recompute them (20,685
        misses warm, 20,759 cold) — about 0.2 s of a 4.2 s run, which the
        wall clock could not resolve either way.
        ``cache_stats`` gains ``store_*`` counters.  With a store attached
        the serial path pins its execution batches to ``chunk_size`` (the
        cursor must mean the same chunk boundaries in every run), so prefer
        a generous ``chunk_size`` (512+) for serial campaigns.
    campaign_id:
        Identifies the campaign within the store (default: derived from the
        campaign config, so identical explore() inputs resume the same
        campaign).  Resuming an existing campaign validates that the
        record-affecting inputs (spec, mode, max_schedules, seed, reduction,
        chunk_size) match the stored config and raises
        :class:`repro.persist.CampaignConfigMismatch` otherwise.  Requires
        ``store``.
    """
    if options is None:
        options = ExploreOptions()
    elif not isinstance(options, ExploreOptions):
        raise TypeError(
            f"options must be an ExploreOptions, got {type(options).__name__}")
    levels = options.levels
    mode = options.mode
    max_schedules = options.max_schedules
    seed = options.seed
    chunk_size = options.chunk_size
    reduction = options.reduction
    batch_kernel = options.batch_kernel
    store = options.store
    campaign_id = options.campaign_id
    workers = _resolve_worker_count(options.workers)
    # Resolve the builder here, in the caller's process, so sets registered by
    # the calling script reach spawn-started workers (pickled by reference).
    builder = resolve_program_set(spec)
    database, programs = builder(**spec.kwargs())
    initial_items = _initial_items(database)
    space = schedule_space(programs, mode=mode, max_schedules=max_schedules, seed=seed)

    # The reduction plan depends on the level only through the terminal rule;
    # at most two plans are built (one per scope in use) and shared across the
    # levels of each kind.  Plans are streamed: the first level of a scope
    # reduces chunks as they are generated, later levels replay the recorded
    # assignment — O(representatives + one int per schedule) memory, never the
    # materialized stream.
    plans: Dict[str, _ScopePlan] = {}

    def _plan_for(level: IsolationLevelName) -> Optional[_ScopePlan]:
        if reduction != "sleep-set":
            return None
        scope = terminal_scope_for(level)
        if scope not in plans:
            plans[scope] = _ScopePlan(programs, scope)
        return plans[scope]

    session = None
    if store is not None:
        # Imported lazily: repro.persist imports this package at module
        # scope, so the dependency must point one way only.
        from ..persist.session import CampaignSession, campaign_config
        session = CampaignSession(
            store,
            campaign_config(spec, mode=mode, max_schedules=max_schedules,
                            seed=seed, reduction=reduction,
                            chunk_size=chunk_size),
            campaign_id=campaign_id)

    chunk_cache = _ChunkStreamCache(space)

    def _run_levels(pool, classifier: Optional[BatchClassifier]
                    ) -> Dict[IsolationLevelName, LevelExploration]:
        return {
            level: _explore_level(
                spec, level, chunk_cache, _plan_for(level), chunk_size, builder,
                pool, classifier, batch_kernel=batch_kernel,
                persistence=session.level(level) if session is not None else None)
            for level in levels
        }

    if workers == 1:
        # This call's own memo, not the process's: a classification learned
        # by an earlier explore() in this process would be missing from the
        # fresh set a new store is filled from.
        explorations = _run_levels(
            None, BatchClassifier(initial_items=initial_items))
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            explorations = _run_levels(pool, None)
    return ExplorationResult(spec=spec, space=space, workers=workers,
                             chunk_size=chunk_size, levels=explorations,
                             reduction=reduction)
