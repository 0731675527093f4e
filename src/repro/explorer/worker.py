"""Process-pool work units for the schedule-space explorer.

Everything that crosses the process boundary lives here and is picklable by
construction: a :class:`ChunkTask` names a registered program set (by spec),
an isolation level (an enum), and a chunk of interleavings; the worker
executes the chunk through a **per-process cached**
:class:`~repro.explorer.trie_executor.TrieExecutor` — the testbed (database +
programs + engine + runner) is built once per ``(spec, level)`` per process
and every subsequent schedule is a checkpoint restore, never a rebuild — and
classifies the realized histories with a chunk-local
:class:`~repro.explorer.memo.BatchClassifier`.

Results come back as :class:`ScheduleRecord` values (shorthand strings and
tuples, no live engine state), tagged with the chunk index so the parent can
reassemble them in schedule order — making output independent of worker
count and chunk scheduling.

Cross-process cache sharing uses an **append-only log** (a manager list of
classification batches) instead of a shared dict: a worker pulls only the
batches it has not consumed yet (one slice read) and publishes its fresh
classifications as one appended batch (one write) — a single batched exchange
per chunk in each direction.  Freshness is keyed on the log length, which
grows monotonically with every publish; the earlier dict-based design keyed
freshness on ``len(dict)`` and went stale whenever a concurrent worker
overwrote existing keys without changing the size.

The logs are bounded: once a log holds ``EXPLORER_SHARED_LOG_CAP`` entries
(default 200,000; ``-1`` disables the cap), further publishes are dropped
instead of appended, so a long campaign cannot grow the manager log without
limit.  True compaction is off the table by design — workers key their
incremental pulls on batch indices, which rewriting the log would invalidate.
Dropped entries are surfaced per chunk in ``cache_stats`` as
``shared_evicted`` / ``outcomes_evicted``; the cap is approximate under
concurrency (each worker checks it against its own snapshot of the log
length).  Dropping a publish is always sound: the log is a pure cache, and a
worker that misses an entry simply recomputes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.isolation import IsolationLevelName
from ..engine.programs import TransactionProgram
from ..storage.database import Database
from ..workloads.program_sets import ProgramSet, ProgramSetSpec, resolve_program_set
from .memo import (
    BatchClassifier,
    HistoryClassification,
    ScheduleOutcome,
    ScheduleOutcomeMemo,
)
from .options import env_int
from .reduction import terminal_scope_for
from .schedules import Interleaving
from .trie_executor import TrieExecutor

__all__ = ["ChunkTask", "ScheduleRecord", "ChunkResult", "execute_chunk",
           "preload_outcome_entries", "SHARED_LOG_CAP_DEFAULT"]

#: Default entry cap for the append-only shared logs (see module docstring).
SHARED_LOG_CAP_DEFAULT = 200_000

#: Per-process testbeds, one per (spec, level, batch-kernel mode): the trie
#: executor, the workload's initial item set (captured *before* any execution
#: mutates the database), and the programs.  Builders are deterministic by the
#: explorer's contract, so a cached testbed is equivalent to a fresh build.
_TESTBED_CACHE: Dict[Tuple[ProgramSetSpec, IsolationLevelName, Optional[str]],
                     Tuple[TrieExecutor, Tuple[str, ...],
                           Tuple[TransactionProgram, ...]]] = {}

#: Per-process schedule-outcome memos, one per (spec, level) — the canonical
#: form is level-scope-dependent, and outcomes are level-dependent.
_OUTCOME_MEMO_CACHE: Dict[Tuple[ProgramSetSpec, IsolationLevelName],
                          ScheduleOutcomeMemo] = {}

#: Per-process shared-log cursors, keyed by the log proxy's manager token:
#: (batches consumed so far, merged entries, total entries seen across those
#: batches).  The batch count only grows, so freshness checks cannot go
#: stale; the entry total backs the publish-side size cap.
_SHARED_LOG_STATE: Dict[str, Tuple[int, Dict[str, HistoryClassification], int]] = {}


def _shared_log_key(proxy: Any) -> Optional[str]:
    try:
        return str(proxy._token)
    except AttributeError:  # plain list in tests
        return None


def _shared_snapshot(proxy: Any) -> Dict[str, HistoryClassification]:
    """Merged view of a shared classification log, pulled incrementally.

    One slice read fetches exactly the batches this process has not seen;
    the merged dict is memoized per log so converged steady state costs one
    empty slice per chunk.
    """
    key = _shared_log_key(proxy)
    consumed, merged, total = (_SHARED_LOG_STATE.get(key, (0, {}, 0))
                               if key is not None else (0, {}, 0))
    fresh_batches = list(proxy[consumed:])
    if fresh_batches:
        merged = dict(merged)
        for batch in fresh_batches:
            merged.update(batch)
            total += len(batch)
    if key is not None:
        _SHARED_LOG_STATE[key] = (consumed + len(fresh_batches), merged, total)
    return merged


def _shared_log_total(proxy: Any) -> int:
    """Entries this process knows the log to hold (exact for plain lists)."""
    key = _shared_log_key(proxy)
    if key is None:
        return sum(len(batch) for batch in list(proxy))
    return _SHARED_LOG_STATE.get(key, (0, {}, 0))[2]


def _publish_shared(proxy: Any, fresh: Dict[str, HistoryClassification]) -> bool:
    """Append one batch of locally computed classifications to the log.

    Returns ``False`` (dropping the batch) when the log has reached the
    ``EXPLORER_SHARED_LOG_CAP`` entry cap — see the module docstring.
    """
    # Read per publish (cheap); ``-1`` disables the cap.
    cap = env_int("EXPLORER_SHARED_LOG_CAP", SHARED_LOG_CAP_DEFAULT)
    if cap >= 0 and _shared_log_total(proxy) + len(fresh) > cap:
        return False
    proxy.append(fresh)
    return True


@dataclass(frozen=True)
class ChunkTask:
    """One unit of parallel work: run these schedules under this level.

    ``builder`` is the program-set builder itself, resolved from the registry
    in the parent process and pickled by reference — so specs registered by
    the calling script keep working in workers even under the ``spawn`` start
    method, where a worker's re-imported registry holds only the built-ins.
    ``None`` falls back to a registry lookup in the worker.

    ``shared_cache`` is an optional append-only log (a
    ``multiprocessing.Manager().list()`` proxy) of classification batches
    keyed by shorthand.  A worker pulls the unseen batches once before
    executing the chunk and publishes its fresh classifications as one
    appended batch afterwards — one batched exchange per chunk in each
    direction.
    """

    chunk_index: int
    spec: ProgramSetSpec
    level: IsolationLevelName
    schedules: Tuple[Interleaving, ...]
    builder: Optional[Callable[..., ProgramSet]] = None
    shared_cache: Optional[Any] = None
    #: Route the chunk through the schedule-level outcome memo: schedules are
    #: canonicalized, only one canonical member per commutation-equivalence
    #: class executes, and every member reuses its outcome (see
    #: :class:`repro.explorer.memo.ScheduleOutcomeMemo`).
    outcome_memo: bool = False
    #: Optional append-only log (manager list) of outcome batches shared
    #: across workers, exactly like ``shared_cache`` but for schedule-level
    #: outcomes keyed by canonical interleaving.
    shared_outcomes: Optional[Any] = None
    #: Phenomenon codes the classifier should detect; ``None`` means all.
    #: Set by the static pruning pass, which drops the codes proven
    #: impossible for (spec, level) — sound because a pruned code occurs in
    #: no history realizable at this level, so restricted and full
    #: classifications agree on every history the chunk can produce (and the
    #: cross-level shared cache stays coherent).
    codes: Optional[Tuple[str, ...]] = None
    #: Batch-drain kernel mode for the executor ("auto"/"on"/"off"); ``None``
    #: defers to ``EXPLORER_BATCH_KERNEL`` (default "auto").  Pure
    #: optimization — the kernel is byte-equal to the stepwise trie walk.
    batch_kernel: Optional[str] = None
    #: Return the chunk's freshly executed outcome-memo entries in
    #: ``ChunkResult.fresh_outcomes``.  The serial persistence path needs
    #: them in the result (its shared classifier suppresses the chunk-local
    #: publish path), so the parent can write them to a campaign store.
    export_outcomes: bool = False


@dataclass(frozen=True)
class ScheduleRecord:
    """The outcome of executing and classifying one interleaving."""

    interleaving: Interleaving
    history: str
    serializable: bool
    phenomena: Tuple[str, ...]
    committed: Tuple[int, ...]
    aborted: Tuple[int, ...]
    blocked_events: int
    deadlocks: int
    stalled: bool


@dataclass(frozen=True)
class ChunkResult:
    """Records for one chunk, plus the worker-local cache statistics."""

    chunk_index: int
    records: Tuple[ScheduleRecord, ...]
    cache_stats: Dict[str, int]
    #: Outcome-memo entries executed by this chunk, present only when the
    #: task set ``export_outcomes`` (the serial campaign-store path).
    fresh_outcomes: Optional[Dict[Interleaving, ScheduleOutcome]] = None


def _initial_items(database: Database) -> Tuple[str, ...]:
    """Every item (and ``table/key`` row) name present in the initial database."""
    names = list(database.items())
    for table_name, table in database.tables().items():
        names.extend(f"{table_name}/{row.key}" for row in table)
    return tuple(names)


def _testbed_for(task: ChunkTask) -> Tuple[TrieExecutor, Tuple[str, ...],
                                           Tuple[TransactionProgram, ...], int]:
    """The cached (executor, initial items, programs) for a task.

    Returns the build time in microseconds as the fourth element (0 on a
    cache hit) for the benchmark's phase breakdown.
    """
    key = (task.spec, task.level, task.batch_kernel)
    cached = _TESTBED_CACHE.get(key)
    if cached is not None:
        return cached[0], cached[1], cached[2], 0
    started = time.perf_counter()
    builder = task.builder if task.builder is not None else resolve_program_set(task.spec)
    database, programs = builder(**task.spec.kwargs())
    items = _initial_items(database)
    # EXPLORER_CHECKPOINT_SPACING bounds live checkpoints to roughly
    # total_slots/spacing per testbed, trading re-executed slots for memory
    # (see README "Performance knobs"); 1 checkpoints at every branch point.
    spacing = env_int("EXPLORER_CHECKPOINT_SPACING", 1, minimum=1)
    executor = TrieExecutor(database, programs, task.level,
                            checkpoint_spacing=spacing,
                            batch_kernel=task.batch_kernel)
    build_us = int((time.perf_counter() - started) * 1e6)
    programs = tuple(programs)
    _TESTBED_CACHE[key] = (executor, items, programs)
    return executor, items, programs, build_us


def _outcome_memo_for(task: ChunkTask,
                      programs: Tuple[TransactionProgram, ...]) -> ScheduleOutcomeMemo:
    """The per-process outcome memo for a task, building on first use.

    The oracle's terminal scope is level-aware, exactly like the reduction
    layer's (single-version locking levels take the relaxed ``"footprint"``
    rule, multiversion engines the component-wide one).
    """
    key = (task.spec, task.level)
    memo = _OUTCOME_MEMO_CACHE.get(key)
    if memo is None:
        memo = _OUTCOME_MEMO_CACHE[key] = ScheduleOutcomeMemo(
            programs, terminal_scope=terminal_scope_for(task.level))
    return memo


def preload_outcome_entries(spec: ProgramSetSpec, level: IsolationLevelName,
                            programs: Tuple[TransactionProgram, ...],
                            entries) -> int:
    """Seed this process's outcome memo for (spec, level) with stored entries.

    The campaign store's serial path runs in the parent process, where the
    memo lives in this module's per-process cache; preloading it here lets a
    resumed or repeated campaign answer whole equivalence classes from the
    store without executing them.  Sound for the same reason worker preloads
    are: an entry is a pure function of (programs, level, canonical key).
    """
    key = (spec, level)
    memo = _OUTCOME_MEMO_CACHE.get(key)
    if memo is None:
        memo = _OUTCOME_MEMO_CACHE[key] = ScheduleOutcomeMemo(
            programs, terminal_scope=terminal_scope_for(level))
    memo.preload(entries)
    return len(entries)


def execute_chunk(task: ChunkTask,
                  classifier: Optional[BatchClassifier] = None) -> ChunkResult:
    """Execute every schedule of a chunk through the prefix-sharing executor.

    ``classifier`` lets the serial path share one memoization context across
    chunks; worker processes leave it ``None`` and get a chunk-local one
    (seeded with the workload's initial item set for MV version completion,
    and with a snapshot of ``task.shared_cache`` when one is attached).

    With ``task.outcome_memo`` set, schedules are first canonicalized and the
    per-process :class:`~repro.explorer.memo.ScheduleOutcomeMemo` answers
    every schedule whose equivalence class has already executed; only one
    canonical member per unseen class runs through the engine.  Executing the
    *canonical* member (rather than the first-encountered one) keeps records
    a pure function of the schedule, independent of worker count, chunking,
    and memo warmth.

    Schedules are *executed* in lexicographic order — the DFS order of their
    shared-prefix trie — and the records reassembled in input order; the trie
    executor's byte-equality contract makes the two orders indistinguishable
    in the output.
    """
    chunk_local = classifier is None
    executor, initial_items, programs, build_us = _testbed_for(task)
    if classifier is None:
        classifier = BatchClassifier(codes=task.codes, initial_items=initial_items)
        if task.shared_cache is not None:
            classifier.preload(_shared_snapshot(task.shared_cache))
    memo: Optional[ScheduleOutcomeMemo] = None
    canonical_us = 0
    executed_keys: List[Interleaving] = []
    if task.outcome_memo:
        memo = _outcome_memo_for(task, programs)
        if task.shared_outcomes is not None:
            memo.preload(_shared_snapshot(task.shared_outcomes))
        started = time.perf_counter()
        canonical = memo.canonical
        keys = [canonical(schedule) for schedule in task.schedules]
        seen_misses = set()
        for key in keys:
            if memo.peek(key) is None and key not in seen_misses:
                seen_misses.add(key)
                executed_keys.append(key)
        canonical_us = int((time.perf_counter() - started) * 1e6)
        to_execute: Sequence[Interleaving] = executed_keys
    else:
        keys = None
        to_execute = task.schedules
    trie_before = executor.stats.as_dict()
    batch_before = executor.batch_stats.as_dict()
    records: List[Optional[ScheduleRecord]] = [None] * len(task.schedules)
    execute_us = 0
    classify_us = 0
    batch = executor.run_batch(to_execute)
    while True:
        started = time.perf_counter()
        try:
            index, outcome = next(batch)
        except StopIteration:
            execute_us += int((time.perf_counter() - started) * 1e6)
            break
        mid = time.perf_counter()
        classification = classifier.classify(outcome.history)
        ended = time.perf_counter()
        execute_us += int((mid - started) * 1e6)
        classify_us += int((ended - mid) * 1e6)
        if memo is not None:
            memo.put(executed_keys[index], ScheduleOutcome(
                history=classification.shorthand,
                serializable=classification.serializable,
                phenomena=classification.phenomena,
                committed=classification.committed,
                aborted=classification.aborted,
                blocked_events=outcome.blocked_events,
                deadlocks=len(outcome.deadlocks),
                stalled=outcome.stalled,
            ))
        else:
            records[index] = ScheduleRecord(
                interleaving=tuple(task.schedules[index]),
                history=classification.shorthand,
                serializable=classification.serializable,
                phenomena=classification.phenomena,
                committed=classification.committed,
                aborted=classification.aborted,
                blocked_events=outcome.blocked_events,
                deadlocks=len(outcome.deadlocks),
                stalled=outcome.stalled,
            )
    if memo is not None:
        for position, key in enumerate(keys):
            outcome_record = memo.peek(key)
            records[position] = ScheduleRecord(
                interleaving=tuple(task.schedules[position]),
                history=outcome_record.history,
                serializable=outcome_record.serializable,
                phenomena=outcome_record.phenomena,
                committed=outcome_record.committed,
                aborted=outcome_record.aborted,
                blocked_events=outcome_record.blocked_events,
                deadlocks=outcome_record.deadlocks,
                stalled=outcome_record.stalled,
            )
    stats = dict(classifier.stats)
    stats["us_testbed_build"] = build_us
    stats["us_step_execution"] = execute_us
    stats["us_classification"] = classify_us
    if memo is not None:
        stats["us_canonicalization"] = canonical_us
        stats["outcome_executed"] = len(executed_keys)
        stats["outcome_hits"] = len(task.schedules) - len(executed_keys)
    trie_after = executor.stats.as_dict()
    for name in ("slots_total", "slots_executed", "checkpoints_created", "restores"):
        stats[f"trie_{name}"] = trie_after[name] - trie_before[name]
    batch_after = executor.batch_stats.as_dict()
    for name in ("schedules", "rows_fast", "rows_ejected",
                 "slots_total", "slots_executed"):
        stats[f"batch_{name}"] = batch_after[name] - batch_before[name]
    if chunk_local and task.shared_cache is not None:
        fresh = classifier.exports()
        if fresh and not _publish_shared(task.shared_cache, fresh):
            stats["shared_evicted"] = len(fresh)
            fresh = {}
        stats["shared_published"] = len(fresh)
    exported_outcomes: Optional[Dict[Interleaving, ScheduleOutcome]] = None
    if memo is not None:
        # Drain unconditionally: the memo is per-process and long-lived, and
        # an undrained fresh set would retain every outcome twice forever.
        fresh_outcomes = memo.drain_fresh()
        if task.export_outcomes:
            exported_outcomes = fresh_outcomes
        if chunk_local and task.shared_outcomes is not None:
            if fresh_outcomes and not _publish_shared(task.shared_outcomes,
                                                      fresh_outcomes):
                stats["outcomes_evicted"] = len(fresh_outcomes)
                fresh_outcomes = {}
            stats["outcomes_published"] = len(fresh_outcomes)
    return ChunkResult(task.chunk_index, tuple(records), stats,
                       fresh_outcomes=exported_outcomes)
