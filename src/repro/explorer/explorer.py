"""The schedule-space explorer: orchestration, parallel fan-out, determinism.

``explore()`` resolves the interleaving space of a registered program set
(exhaustive for small spaces, seeded uniform sampling for large ones), streams
it in fixed-size chunks, executes every chunk through the prefix-sharing
:class:`~repro.explorer.trie_executor.TrieExecutor` — in process, or fanned
out over a ``multiprocessing`` pool — and reassembles the per-schedule records
in schedule order.

Four scaling layers sit on the hot path:

* **Streaming** — the schedule stream is generated lazily and dispatched with
  ``imap`` over batches of indexed chunks, so exploring (or sampling)
  millions of schedules holds O(batch) interleavings and records in memory
  (:data:`BATCH_SCHEDULES` at most per batch), never the full list.
* **Whole levels per worker** — one ``imap`` carries every executed level's
  batches in (level, chunk) order, and a level splits into only as many
  batches as it takes to keep every worker busy, so a worker builds and
  warms the testbeds of the levels it takes and no others, and a free worker
  starts the next level while the others finish theirs.
* **Prefix-sharing execution** — each worker keeps one testbed per
  (spec, level) and walks its chunks as a DFS over their shared-prefix trie:
  a schedule re-executes only the suffix past the deepest checkpoint it
  shares with its predecessor (see :mod:`repro.explorer.trie_executor`).
* **One classification memo per run and process** — a history's
  classification is defined on the history, not on the level or chunk that
  realized it, so the serial path keeps one
  :class:`~repro.explorer.memo.BatchClassifier` for the whole ``explore()``
  call (all levels) and every pool worker keeps one for its lifetime, which
  is the run.  Workers exchange nothing: no manager process, no per-chunk
  round trips.

A level is identified by the machine it runs
(:func:`~repro.locking.policy.machine_key`), not by its name: on
item-only programs REPEATABLE READ and SERIALIZABLE take the same locks, and
so do READ COMMITTED and Cursor Stability, so a level whose machine an
earlier level of the call already ran is not executed and gets that level's
records.

Determinism contract: the full output (every record, in order) is a pure
function of ``(spec, levels, mode, max_schedules, seed)``.  Worker count,
chunk size and classification-memo warmth only change wall-clock time,
never results — the
schedule stream is fixed by the seed before any execution, chunks are
indexed, records are reassembled by chunk index, execution is byte-equal to
from-scratch runs (the trie executor's contract), and classification is a
pure function of the realized history.  Every record is its own schedule's
execution on its level's machine.
``ExplorationResult.fingerprint()`` hashes the record stream so tests can
assert byte-identical serial/parallel output.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.isolation import IsolationLevelName
from ..locking.policy import machine_key
from ..workloads.program_sets import ProgramSetSpec, resolve_program_set
from .memo import BatchClassifier
from .options import DEFAULT_LEVELS, ExploreOptions
from .schedules import Interleaving, ScheduleSpace, schedule_space
from .worker import (
    ChunkResult,
    ChunkTask,
    ScheduleRecord,
    _initial_items,
    execute_chunk,
)

__all__ = [
    "BATCH_SCHEDULES",
    "DEFAULT_LEVELS",
    "ExploreOptions",
    "LevelExploration",
    "ExplorationResult",
    "available_workers",
    "explore",
]

# DEFAULT_LEVELS is defined in .options (the consolidated configuration
# surface) and re-exported here for its historical importers.

#: The most schedules one pool task (a batch of consecutive chunks of one
#: level) carries, so the most a worker holds before it returns.  Measured
#: on the ledger's spec (4 transactions x 5 steps, chunks of 256): a full
#: batch pickles to 0.7 MB of tasks and 3.7 MB of results, and the results
#: take 9.7 MB as objects once the parent has unpickled them.
BATCH_SCHEDULES = 16_384


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
    #: Wall seconds the caller spent on this level; with a pool, levels
    #: overlap, so it is the wait for this level's batches.
    duration: float
    executed: int = -1
    #: The earlier level of the same call whose records these are (same
    #: machine key), or None when this level executed.  A reused level's
    #: ``cache_stats`` keep the source's keys, at 0.
    reused_from: Optional[IsolationLevelName] = None

    def __post_init__(self) -> None:
        if self.executed < 0:
            object.__setattr__(self, "executed", len(self.records))


@dataclass(frozen=True)
class ExplorationResult:
    """The full outcome of one ``explore()`` call."""

    spec: ProgramSetSpec
    space: ScheduleSpace
    workers: int
    chunk_size: int
    levels: Dict[IsolationLevelName, LevelExploration]

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
        """Schedules covered (executed or loaded from a store), summed over levels."""
        return sum(len(exploration.records) for exploration in self.levels.values())

    def executed_schedules(self) -> int:
        """Schedules run through an engine by this call, summed over levels."""
        return sum(exploration.executed for exploration in self.levels.values())


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


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


# -- level exploration (serial and parallel share the chunk pipeline) ----------------


def _execute_batch(batch: Tuple[ChunkTask, ...]) -> Tuple[ChunkResult, ...]:
    """A pool worker's unit of work: consecutive chunks of one level, in order."""
    return tuple(execute_chunk(task) for task in batch)


def _batched(tasks: Iterator[ChunkTask], size: int
             ) -> Iterator[Tuple[ChunkTask, ...]]:
    while True:
        batch = tuple(itertools.islice(tasks, size))
        if not batch:
            return
        yield batch


def _until(stop: threading.Event, batches: Iterator[Tuple[ChunkTask, ...]]
           ) -> Iterator[Tuple[ChunkTask, ...]]:
    """The batches, until ``stop`` is set (read on the pool's feeder thread)."""
    for batch in batches:
        if stop.is_set():
            return
        yield batch


def _wait_out(results: Iterator[Tuple[ChunkResult, ...]]) -> None:
    """Consume every result still due, discarding results and task errors."""
    while True:
        try:
            next(results)
        except StopIteration:
            return
        except Exception:
            pass


def _collect_level(level: IsolationLevelName, results: Iterable[ChunkResult],
                   stored_chunks: int, persistence=None) -> LevelExploration:
    """Assemble one executed level from its stored prefix and live results.

    With ``persistence`` (a :class:`repro.persist.session.LevelPersistence`)
    attached, chunks below the stored cursor are *loaded*, and every live
    chunk is committed atomically as its result arrives — results come back
    in chunk-index order, so the cursor stays a contiguous high-water mark.
    The stored chunks are a strict prefix of the stream, so they load before
    the first live result is read.
    """
    started = time.perf_counter()
    records: List[ScheduleRecord] = []
    for index in range(stored_chunks):
        records.extend(persistence.load_chunk(index))
    loaded = len(records)
    stats_parts: List[Dict[str, int]] = []
    for result in results:
        records.extend(result.records)
        stats_parts.append(result.cache_stats)
        if persistence is not None:
            persistence.commit_chunk(result.chunk_index, result.records)
    stats = _merge_stats(stats_parts)
    if persistence is not None:
        persistence.finish(stored_chunks + len(stats_parts))
        stats.update(persistence.stats)
    duration = time.perf_counter() - started
    return LevelExploration(level, tuple(records), stats, duration,
                            executed=len(records) - loaded)


def _reuse_level(level: IsolationLevelName, source: LevelExploration,
                 unit: int, stored_chunks: int,
                 persistence=None) -> LevelExploration:
    """``level`` is the same machine as ``source``'s: take its records.

    Nothing executes and nothing is classified.  With a store, the chunks
    above the level's own cursor are committed from those records, at the
    campaign's chunk boundaries; they count as executed, as they would have
    been.  The counters keep the source's keys, at 0.
    """
    started = time.perf_counter()
    records = source.records
    stats = dict.fromkeys(source.cache_stats, 0)
    if persistence is not None:
        chunks = _ceil_div(len(records), unit)
        for index in range(stored_chunks, chunks):
            persistence.commit_chunk(
                index, records[index * unit:(index + 1) * unit])
        persistence.finish(chunks)
        stats.update(persistence.stats)
    stored = min(len(records), stored_chunks * unit)
    return LevelExploration(level, records, stats,
                            time.perf_counter() - started,
                            executed=len(records) - stored,
                            reused_from=source.level)


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
        knob below.
    levels:
        Isolation levels to run every schedule under (default: the Table 4 rows
        every engine implements).  A level that is the same lock machine as
        an earlier one (equal :func:`~repro.locking.policy.machine_key`:
        REPEATABLE READ and SERIALIZABLE, or READ COMMITTED and Cursor
        Stability, on item-only programs) is not executed: it gets that
        level's records, and its :class:`LevelExploration` names the level in
        ``reused_from``.
    mode, max_schedules, seed:
        Passed to :func:`~repro.explorer.schedules.schedule_space` — exhaustive
        enumeration, seeded sampling, or automatic choice between them.  The
        stream is lazy: schedules are generated chunk by chunk, never held as
        one list.
    workers:
        ``1`` runs in-process with one classification memo for the whole
        call; ``N > 1`` fans the executed levels out over a process pool as
        batches of consecutive chunks — each level splits into
        ``ceil(N / executed levels)`` batches of at most
        :data:`BATCH_SCHEDULES` schedules — so a worker keeps one level's
        transition table and memo warm, and a free worker starts the next
        level while the others finish theirs.  Workers keep their own memos
        for the run and exchange nothing; ``"auto"`` uses every usable core
        (:func:`available_workers`).  Results are identical in all cases.
    chunk_size:
        Schedules per work unit.  Affects only load balancing and streaming
        granularity.
    store:
        An optional :class:`repro.persist.SqliteStore` making the run a
        **persistent campaign**: every chunk of every level commits
        atomically (records + progress cursor) as its result arrives, so a
        killed run resumes from its last durable chunk — skipping the stored
        prefix of the stream by *loading* its records — and produces a
        byte-identical result to an uninterrupted run.  A level reused from
        an earlier one commits its chunks from that level's records.  The
        store keeps no classifications: they live in the run's memo, so a
        new campaign on a warm store classifies its histories afresh.
        ``cache_stats`` gains ``store_*`` counters.  With a store attached
        the serial path pins its execution batches to ``chunk_size`` (the
        cursor must mean the same chunk boundaries in every run), so prefer
        a generous ``chunk_size`` (512+) for serial campaigns.
    campaign_id:
        Identifies the campaign within the store (default: derived from the
        campaign config, so identical explore() inputs resume the same
        campaign).  Resuming an existing campaign validates that the
        record-affecting inputs (spec, mode, max_schedules, seed, chunk_size)
        match the stored config and raises
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
    store = options.store
    campaign_id = options.campaign_id
    workers = _resolve_worker_count(options.workers)
    # Resolve the builder here, in the caller's process, so sets registered by
    # the calling script reach spawn-started workers (pickled by reference).
    builder = resolve_program_set(spec)
    database, programs = builder(**spec.kwargs())
    initial_items = _initial_items(database)
    space = schedule_space(programs, mode=mode, max_schedules=max_schedules, seed=seed)

    session = None
    if store is not None:
        # Imported lazily: repro.persist imports this package at module
        # scope, so the dependency must point one way only.
        from ..persist.session import CampaignSession, campaign_config
        session = CampaignSession(
            store,
            campaign_config(spec, mode=mode, max_schedules=max_schedules,
                            seed=seed, chunk_size=chunk_size),
            campaign_id=campaign_id)

    # In-process execution has no load-balancing constraint, so it runs the
    # stream in units coarser than chunk_size: bigger sorted units share
    # longer prefixes in the trie executor.  Records are identical either way
    # — per-schedule outcomes are independent of batching by the trie
    # executor's byte-equality contract.  A campaign store pins the unit to
    # chunk_size: the progress cursor counts *campaign* chunks, which must
    # mean the same boundaries in every run that touches the store.
    if session is not None or workers > 1:
        unit = chunk_size
    else:
        unit = max(chunk_size, 2048)
    chunk_count = _ceil_div(len(space), unit)
    persistence = {level: session.level(level) if session is not None else None
                   for level in levels}
    # Chunks below a level's cursor are already durable: they load instead
    # of executing (a cursor past the stream's end loads what the stream has).
    stored = {level: min(part.cursor, chunk_count) if part is not None else 0
              for level, part in persistence.items()}
    first_of_machine: Dict[object, IsolationLevelName] = {}
    source = {level: first_of_machine.setdefault(machine_key(programs, level), level)
              for level in levels}
    chunk_cache = _ChunkStreamCache(space)

    def level_tasks(level: IsolationLevelName) -> Iterator[ChunkTask]:
        stream = itertools.islice(chunk_cache.iter_chunks(unit), stored[level], None)
        return (ChunkTask(index, spec, level, chunk, builder)
                for index, chunk in stream)

    def run_levels(results_of) -> Dict[IsolationLevelName, LevelExploration]:
        explorations: Dict[IsolationLevelName, LevelExploration] = {}
        for level in levels:
            if source[level] is level:
                explorations[level] = _collect_level(
                    level, results_of(level), stored[level], persistence[level])
            else:
                explorations[level] = _reuse_level(
                    level, explorations[source[level]], unit, stored[level],
                    persistence[level])
        return explorations

    if workers == 1:
        # This call's own memo, not the process's: hits and misses in
        # cache_stats then count this call's stream alone, whatever earlier
        # explore() calls in this process classified.
        classifier = BatchClassifier(initial_items=initial_items)
        explorations = run_levels(lambda level: (
            execute_chunk(task, classifier) for task in level_tasks(level)))
    else:
        live = {level: chunk_count - stored[level]
                for level in levels if source[level] is level
                and chunk_count > stored[level]}
        parts = _ceil_div(workers, max(1, len(live)))
        per_batch = {level: max(1, min(_ceil_div(count, parts),
                                       BATCH_SCHEDULES // unit))
                     for level, count in live.items()}
        batches = (batch for level in live
                   for batch in _batched(level_tasks(level), per_batch[level]))
        stop = threading.Event()
        with multiprocessing.Pool(processes=workers) as pool:
            # One imap over every level's batches: it pulls them from the
            # lazy generator as workers free up, and returns them in
            # submission order, which is (level, chunk index) order.
            results = pool.imap(_execute_batch, _until(stop, batches))

            def pooled(level: IsolationLevelName) -> Iterator[ChunkResult]:
                count = (_ceil_div(live[level], per_batch[level])
                         if level in live else 0)
                for batch in itertools.islice(results, count):
                    yield from batch

            try:
                explorations = run_levels(pooled)
            except Exception:
                # Leaving the pool terminates its workers.  One killed while
                # sending a result that nobody reads any more holds the result
                # queue's lock for good, and the pool's task thread then
                # blocks on it: the exit hangs.  So feed no further batch and
                # wait out the ones already sent before leaving.
                stop.set()
                _wait_out(results)
                raise
    return ExplorationResult(spec=spec, space=space, workers=workers,
                             chunk_size=chunk_size, levels=explorations)
