"""The trie executor's determinism contract: byte-equal to from-scratch runs.

Every schedule executed through :class:`TrieExecutor` — whatever checkpoints
it reused, whatever order the batch was walked in — must produce an outcome
byte-identical to building a fresh testbed and running that schedule from
scratch.  Gated here for every engine level, for exhaustive (enumeration
order) and sampled (random order) streams, across checkpoint spacings, with
duplicate schedules in the stream, and across batch boundaries (the worker
reuses one executor for many chunks).
"""

from __future__ import annotations

import pytest

from repro.analysis.matrix import TABLE_4_LEVELS
from repro.core.isolation import IsolationLevelName
from repro.engine.scheduler import ScheduleRunner
from repro.explorer.schedules import schedule_space
from repro.explorer.trie_executor import TrieExecutor
from repro.testbed import make_engine
from repro.workloads.program_sets import ProgramSetSpec, build_program_set

ALL_LEVELS = TABLE_4_LEVELS + (IsolationLevelName.ORACLE_READ_CONSISTENCY,)

CONTENTION = ProgramSetSpec.make("contention", transactions=3, items=3,
                                 hot_items=2, operations_per_transaction=2)


def outcome_key(outcome):
    return (
        outcome.history.to_shorthand(),
        tuple(sorted((txn, state.value) for txn, state in outcome.statuses.items())),
        tuple(sorted(outcome.abort_reasons.items())),
        outcome.blocked_events,
        tuple((deadlock.cycle, deadlock.victim) for deadlock in outcome.deadlocks),
        outcome.stalled,
        outcome.database.snapshot(),
    )


def from_scratch_keys(spec, level, schedules):
    keys = []
    runner = None
    for schedule in schedules:
        database, programs = build_program_set(spec)
        engine = make_engine(database, level)
        if runner is None:
            runner = ScheduleRunner(engine, programs, schedule, collect_traces=False)
            keys.append(outcome_key(runner.run()))
        else:
            keys.append(outcome_key(runner.replay(engine, schedule)))
    return keys


def trie_keys(spec, level, schedules, **executor_kwargs):
    database, programs = build_program_set(spec)
    executor = TrieExecutor(database, programs, level, **executor_kwargs)
    keys = [None] * len(schedules)
    for index, outcome in executor.run_batch(schedules):
        keys[index] = outcome_key(outcome)
    return keys, executor


@pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda level: level.value)
def test_sampled_stream_byte_equal_to_from_scratch(level):
    _, programs = build_program_set(CONTENTION)
    schedules = schedule_space(programs, mode="sample", max_schedules=60,
                               seed=11).schedules
    expected = from_scratch_keys(CONTENTION, level, schedules)
    # This module gates the real engines behind the table; the batch kernel
    # (the default run_batch route) has its own suite in test_batch_kernel.py.
    actual, executor = trie_keys(CONTENTION, level, schedules,
                                 batch_kernel="off")
    assert actual == expected
    # Prefix sharing actually happened: strictly fewer slots executed than fed.
    assert executor.stats.slots_executed < executor.stats.slots_total
    assert executor.stats.schedules == len(schedules)


@pytest.mark.parametrize("spec", [
    ProgramSetSpec.make("bank-transfer"),
    ProgramSetSpec.make("write-skew"),
    ProgramSetSpec.make("dirty-abort"),
], ids=lambda spec: spec.name)
def test_exhaustive_stream_byte_equal_across_key_levels(spec):
    _, programs = build_program_set(spec)
    schedules = schedule_space(programs, mode="exhaustive",
                               max_schedules=500).schedules
    for level in (IsolationLevelName.READ_COMMITTED,
                  IsolationLevelName.SNAPSHOT_ISOLATION,
                  IsolationLevelName.SERIALIZABLE):
        expected = from_scratch_keys(spec, level, schedules)
        actual, executor = trie_keys(spec, level, schedules,
                                     batch_kernel="off")
        assert actual == expected, (spec.name, level)
        assert executor.stats.replayed_ratio < 1.0


def test_duplicate_schedules_in_the_stream():
    _, programs = build_program_set(CONTENTION)
    schedules = schedule_space(programs, mode="sample", max_schedules=10,
                               seed=2).schedules
    stream = schedules + schedules[:4] + (schedules[0],)
    level = IsolationLevelName.REPEATABLE_READ
    expected = from_scratch_keys(CONTENTION, level, stream)
    actual, _ = trie_keys(CONTENTION, level, stream)
    assert actual == expected


def test_executor_reuse_across_batches_matches_fresh_executors():
    """The worker keeps one executor per (spec, level) across chunks."""
    _, programs = build_program_set(CONTENTION)
    schedules = schedule_space(programs, mode="sample", max_schedules=48,
                               seed=9).schedules
    level = IsolationLevelName.SERIALIZABLE
    database, programs = build_program_set(CONTENTION)
    reused = TrieExecutor(database, programs, level)
    chunked = [None] * len(schedules)
    for start in range(0, len(schedules), 16):
        batch = schedules[start:start + 16]
        for index, outcome in reused.run_batch(batch):
            chunked[start + index] = outcome_key(outcome)
    assert chunked == from_scratch_keys(CONTENTION, level, schedules)


def test_unsorted_batch_matches_sorted_batch():
    _, programs = build_program_set(CONTENTION)
    schedules = schedule_space(programs, mode="sample", max_schedules=30,
                               seed=4).schedules
    level = IsolationLevelName.READ_COMMITTED
    sorted_keys, _ = trie_keys(CONTENTION, level, schedules)
    unsorted_keys = [None] * len(schedules)
    database, programs = build_program_set(CONTENTION)
    executor = TrieExecutor(database, programs, level)
    for index, outcome in executor.run_batch(schedules, sort=False):
        unsorted_keys[index] = outcome_key(outcome)
    assert unsorted_keys == sorted_keys


@pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda level: level.value)
def test_rows_driven_to_the_attempt_budget_match(level):
    """The table reuses a record only where the attempt budget cannot run
    out inside it: slots past ``max_attempts`` are dropped exactly as a
    fresh runner drops them, on a cold table and on a warm one."""
    spec = ProgramSetSpec.make("increments", transactions=3)
    database, programs = build_program_set(spec)
    limit = ScheduleRunner(make_engine(database, level), programs).max_attempts
    schedules = [(1, 2, 3) + (1,) * extra
                 for extra in range(limit - 10, limit + 3)]
    schedules += [(1, 2, 3) + (2, 1) * (extra // 2)
                  for extra in range(limit - 10, limit + 3)]
    expected = from_scratch_keys(spec, level, schedules)
    database, programs = build_program_set(spec)
    executor = TrieExecutor(database, programs, level, batch_kernel="off")
    for _ in range(2):
        keys = [None] * len(schedules)
        for index, outcome in executor.run_batch(schedules):
            keys[index] = outcome_key(outcome)
        assert keys == expected
