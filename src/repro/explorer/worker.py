"""Chunk work units for the schedule-space explorer, and the state they reuse.

Everything that crosses the process boundary lives here and is picklable by
construction: a :class:`ChunkTask` names a registered program set (by spec),
an isolation level (an enum), and a chunk of interleavings;
:func:`execute_chunk` runs the chunk through a **per-process cached**
:class:`~repro.explorer.trie_executor.TrieExecutor` — the testbed (database +
programs + engine + runner) is built once per ``(spec, level)`` per process
and every subsequent schedule is a checkpoint restore, never a rebuild — and
classifies the realized histories through the process's
:class:`~repro.explorer.memo.BatchClassifier`.

Results come back as :class:`ScheduleRecord` values (shorthand strings and
tuples, no live engine state), tagged with the chunk index so the supervisor
can reassemble them in schedule order — making output independent of worker
count and chunk scheduling.

``execute_chunk(task)`` is the one seam both supervisors share (the
``multiprocessing.Pool`` of ``explore(workers=N)`` and the leased workers of
:class:`repro.distrib.runner.CampaignRunner`), and it is stateless towards
them: nothing but the task goes in and nothing but the :class:`ChunkResult`
comes out.  What a process keeps between chunks — testbeds and the
classification memo below — is a cache of pure functions of the task, so it
can change how long a chunk takes and never what it returns.  Every schedule
of a task executes, through the batch kernel where it supports the (level,
workload) and through the real engines otherwise.  Worker
processes live exactly one run, so these caches do too; nothing is exchanged
between workers while they run.  Each worker therefore meets a history, and
classifies a history class, the first time *it* sees one.  ``explore()``
hands a worker whole levels, so a level's testbed is built and its
transition table filled in one process only: on the ledger's stream (30,000
records, 24,000 executed: SERIALIZABLE reuses REPEATABLE READ's) two
workers compute the serial run's 22,812 kernel transitions, miss their
memos 18,556-18,951 times and run 1,591-1,599 classification passes (six
runs; the spread is which worker took which level), where one process
misses 17,492 times and runs 1,509, which costs less than moving the
answers between processes did.  A memo is never saved either: a record
carries its own classification, and a campaign store keeps records only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.isolation import IsolationLevelName
from ..storage.database import Database
from ..workloads.program_sets import ProgramSet, ProgramSetSpec, resolve_program_set
from .memo import BatchClassifier
from .schedules import Interleaving
from .trie_executor import TrieExecutor

__all__ = ["ChunkTask", "ScheduleRecord", "ChunkResult", "execute_chunk"]

#: Per-process testbeds, one per (spec, level): the trie executor and the
#: workload's initial item set (captured *before* any execution mutates the
#: database).  Builders are deterministic by the explorer's contract, so a
#: cached testbed is equivalent to a fresh build.
_TESTBED_CACHE: Dict[Tuple[ProgramSetSpec, IsolationLevelName],
                     Tuple[TrieExecutor, Tuple[str, ...]]] = {}

#: Per-process classification memos, one per initial item set: an entry is
#: level-independent, but multiversion version completion depends on which
#: items pre-exist, so workloads with different initial databases never share.
#: Used when ``execute_chunk`` is not handed a classifier — in pool and
#: ``CampaignRunner`` workers, whose processes live one run.  ``explore()``
#: does not use it in the caller's process (it owns one memo per call).
_CLASSIFIER_CACHE: Dict[Tuple[str, ...], BatchClassifier] = {}


@dataclass(frozen=True)
class ChunkTask:
    """One unit of work: run these schedules under this level.

    ``builder`` is the program-set builder itself, resolved from the registry
    in the parent process and pickled by reference — so specs registered by
    the calling script keep working in workers even under the ``spawn`` start
    method, where a worker's re-imported registry holds only the built-ins.
    ``None`` falls back to a registry lookup in the worker.
    """

    chunk_index: int
    spec: ProgramSetSpec
    level: IsolationLevelName
    schedules: Tuple[Interleaving, ...]
    builder: Optional[Callable[..., ProgramSet]] = None


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
    """Records for one chunk, plus this chunk's share of the cache statistics."""

    chunk_index: int
    records: Tuple[ScheduleRecord, ...]
    #: Counters and microsecond timers of this chunk alone (deltas, not the
    #: process's running totals), so summing results gives the run's totals.
    cache_stats: Dict[str, int]


def _initial_items(database: Database) -> Tuple[str, ...]:
    """Every item (and ``table/key`` row) name present in the initial database."""
    names = list(database.items())
    for table_name, table in database.tables().items():
        names.extend(f"{table_name}/{row.key}" for row in table)
    return tuple(names)


def _testbed_for(task: ChunkTask) -> Tuple[TrieExecutor, Tuple[str, ...], int]:
    """The cached (executor, initial items) for a task.

    Returns the build time in microseconds as the third element (0 on a
    cache hit) for the benchmark's phase breakdown.
    """
    key = (task.spec, task.level)
    cached = _TESTBED_CACHE.get(key)
    if cached is not None:
        return cached[0], cached[1], 0
    started = time.perf_counter()
    builder = task.builder if task.builder is not None else resolve_program_set(task.spec)
    database, programs = builder(**task.spec.kwargs())
    items = _initial_items(database)
    executor = TrieExecutor(database, programs, task.level)
    build_us = int((time.perf_counter() - started) * 1e6)
    _TESTBED_CACHE[key] = (executor, items)
    return executor, items, build_us


def execute_chunk(task: ChunkTask,
                  classifier: Optional[BatchClassifier] = None) -> ChunkResult:
    """Execute every schedule of a chunk through the prefix-sharing executor.

    ``classifier`` is the classification memo to use: ``explore()`` hands
    its own (one per call, across levels) to the chunks it runs in the
    caller's process; worker processes pass nothing and get the process's memo
    for the workload's initial item set, which lives as long as the worker.

    Schedules are *executed* in lexicographic order — the DFS order of their
    shared-prefix trie — and the records reassembled in input order; the trie
    executor's byte-equality contract makes the two orders indistinguishable
    in the output.
    """
    executor, initial_items, build_us = _testbed_for(task)
    if classifier is None:
        classifier = _CLASSIFIER_CACHE.get(initial_items)
        if classifier is None:
            classifier = _CLASSIFIER_CACHE[initial_items] = BatchClassifier(
                initial_items=initial_items)
    memo_before = classifier.stats
    trie_before = executor.stats.as_dict()
    batch_before = executor.batch_stats.as_dict()
    records: List[Optional[ScheduleRecord]] = [None] * len(task.schedules)
    execute_us = 0
    classify_us = 0
    batch = executor.run_batch(task.schedules)
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
    stats = {name: count - memo_before[name]
             for name, count in classifier.stats.items()}
    stats["us_testbed_build"] = build_us
    stats["us_step_execution"] = execute_us
    stats["us_classification"] = classify_us
    trie_after = executor.stats.as_dict()
    for name in ("slots_total", "slots_executed", "checkpoints_created", "restores",
                 "transitions_reused", "transitions_computed", "states"):
        stats[f"trie_{name}"] = trie_after[name] - trie_before[name]
    batch_after = executor.batch_stats.as_dict()
    # The kernel's schedule count, under the name the ledger reads.
    stats["batch_rows_fast"] = batch_after["schedules"] - batch_before["schedules"]
    for name in ("slots_total", "slots_executed", "transitions_reused",
                 "transitions_computed", "states"):
        stats[f"batch_{name}"] = batch_after[name] - batch_before[name]
    return ChunkResult(task.chunk_index, tuple(records), stats)
