"""The batch-drain kernel's determinism contract: byte-equal to the trie walk.

The vectorized flat-array kernel (:mod:`repro.explorer.batch_kernel`) is a
pure optimization: for every engine level and every registered workload, a
kernel-executed schedule must produce an :class:`ExecutionOutcome` that is
byte-identical — history, statuses, contexts, abort reasons, blocked-event
counts, deadlocks, stall flag, final database — to the stepwise trie
executor's, including stalled and deadlock-aborted prefix schedules.  Rows the
kernel cannot handle eject to the stepwise path; without numpy the kernel
never builds and everything falls back, byte-equal by construction.
"""

from __future__ import annotations

import random

import pytest

from repro.core.isolation import IsolationLevelName
from repro.explorer import ExploreOptions, explore
from repro.explorer import batch_kernel as batch_kernel_module
from repro.explorer.batch_kernel import BatchStats, build_batch_kernel, numpy_available
from repro.explorer.schedules import schedule_space
from repro.explorer.trie_executor import TrieExecutor
from repro.testbed import ALL_ENGINE_LEVELS
from repro.workloads.program_sets import (
    ProgramSetSpec,
    available_program_sets,
    build_program_set,
)

KERNEL_LEVELS = (IsolationLevelName.READ_COMMITTED,
                 IsolationLevelName.REPEATABLE_READ,
                 IsolationLevelName.SERIALIZABLE,
                 IsolationLevelName.SNAPSHOT_ISOLATION,
                 IsolationLevelName.ORACLE_READ_CONSISTENCY)

CONTENTION = ProgramSetSpec.make("contention", transactions=3, items=3,
                                 hot_items=2, operations_per_transaction=2)


def outcome_key(outcome):
    return (
        outcome.engine_name,
        outcome.history.to_shorthand(),
        tuple(sorted((txn, state.value) for txn, state in outcome.statuses.items())),
        tuple(sorted((txn, tuple(sorted(ctx.items())))
                     for txn, ctx in outcome.contexts.items())),
        tuple(sorted(outcome.abort_reasons.items())),
        outcome.blocked_events,
        tuple((deadlock.cycle, deadlock.victim) for deadlock in outcome.deadlocks),
        outcome.stalled,
        tuple(sorted(outcome.database.items())),
    )


def randomized_schedules(programs, rng, count):
    """Shuffled full interleavings mixed with prefixes and over-long rows.

    Prefixes leave transactions holding locks when the drain starts (the
    stalled / deadlock-aborted cases); over-long rows exercise slots past a
    transaction's last step (no-op attempts).
    """
    slots = []
    for program in programs:
        slots.extend([program.txn] * len(program.steps))
    out = []
    for _ in range(count):
        row = list(slots)
        rng.shuffle(row)
        roll = rng.random()
        if roll < 0.2:
            row = row[:rng.randrange(len(row) + 1)]
        elif roll < 0.3 and row:
            row = row + [rng.choice(row)]
        out.append(tuple(row))
    return out


def build_pair(spec, level):
    """A (stepwise executor, kernel) pair over fresh identical testbeds."""
    db_trie, programs_trie = build_program_set(spec)
    trie = TrieExecutor(db_trie, programs_trie, level, batch_kernel="off")
    db_kernel, programs_kernel = build_program_set(spec)
    fallback_host = TrieExecutor(db_kernel, programs_kernel, level,
                                 batch_kernel="off")
    kernel = build_batch_kernel(db_kernel, programs_kernel, level,
                                fallback_host._engine.name,
                                fallback=fallback_host.run_one)
    return trie, kernel


needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="batch kernel needs numpy")


@needs_numpy
@pytest.mark.parametrize("level", KERNEL_LEVELS, ids=lambda level: level.value)
def test_randomized_sweep_byte_equal_across_workloads(level):
    """Seeded sweep: every registered workload, full/prefix/over-long rows."""
    rng = random.Random(20260808)
    for name in available_program_sets():
        spec = ProgramSetSpec.make(name)
        _, programs = build_program_set(spec)
        schedules = randomized_schedules(programs, rng, 30)
        trie, kernel = build_pair(spec, level)
        assert kernel is not None, (name, level)
        expected = {}
        for index, outcome in trie.run_batch(schedules):
            expected[index] = outcome_key(outcome)
        for index, outcome in kernel.run_batch(schedules):
            assert outcome_key(outcome) == expected[index], (name, level, index)
        assert kernel.stats.rows_ejected == 0
        assert kernel.stats.occupancy == 1.0


@needs_numpy
def test_deadlock_aborted_rows_match():
    """The sweep must actually cover deadlock resolution, not dodge it."""
    spec = ProgramSetSpec.make("increments")
    level = IsolationLevelName.REPEATABLE_READ
    _, programs = build_program_set(spec)
    schedules = schedule_space(programs, mode="sample", max_schedules=200,
                               seed=7).schedules
    trie, kernel = build_pair(spec, level)
    expected = {index: outcome_key(outcome)
                for index, outcome in trie.run_batch(schedules)}
    deadlocks = 0
    for index, outcome in kernel.run_batch(schedules):
        assert outcome_key(outcome) == expected[index]
        deadlocks += len(outcome.deadlocks)
    assert deadlocks > 0, "workload produced no deadlocks; pick another gate"


@needs_numpy
def test_unknown_transaction_rows_eject_to_fallback():
    """Slots naming foreign transactions route the row to the stepwise path."""
    level = IsolationLevelName.READ_COMMITTED
    _, programs = build_program_set(CONTENTION)
    schedules = list(schedule_space(programs, mode="sample", max_schedules=20,
                                    seed=3).schedules)
    alien = tuple([999] + list(schedules[0]))
    schedules.append(alien)
    db, progs = build_program_set(CONTENTION)
    reference = TrieExecutor(db, progs, level, batch_kernel="off")
    expected = {index: outcome_key(outcome)
                for index, outcome in reference.run_batch(schedules)}
    trie, kernel = build_pair(CONTENTION, level)
    for index, outcome in kernel.run_batch(schedules):
        assert outcome_key(outcome) == expected[index]
    assert kernel.stats.rows_ejected == 1
    assert kernel.stats.rows_fast == len(schedules) - 1
    assert kernel.stats.occupancy < 1.0


@needs_numpy
def test_without_fallback_unknown_rows_raise():
    _, programs = build_program_set(CONTENTION)
    schedules = schedule_space(programs, mode="sample", max_schedules=4,
                               seed=1).schedules
    db, progs = build_program_set(CONTENTION)
    host = TrieExecutor(db, progs, IsolationLevelName.READ_COMMITTED,
                        batch_kernel="off")
    kernel = build_batch_kernel(db, progs, IsolationLevelName.READ_COMMITTED,
                                host._engine.name, fallback=None)
    with pytest.raises(ValueError):
        kernel.run_one((999,) + tuple(schedules[0]))


@needs_numpy
@pytest.mark.parametrize("level", KERNEL_LEVELS, ids=lambda level: level.value)
def test_checkpoint_restore_round_trip_of_in_flight_state(level):
    """Revisiting a schedule after others restores byte-identical state."""
    _, programs = build_program_set(CONTENTION)
    schedules = schedule_space(programs, mode="sample", max_schedules=24,
                               seed=13).schedules
    _, kernel = build_pair(CONTENTION, level)
    first = [outcome_key(outcome)
             for _, outcome in sorted(kernel.run_batch(schedules))]
    # Re-running the same batch pops the checkpoint stack back through every
    # in-flight prefix the first pass created; results must not drift.
    second = [outcome_key(outcome)
              for _, outcome in sorted(kernel.run_batch(schedules))]
    assert first == second


@needs_numpy
def test_emulator_checkpoint_restore_mid_drain():
    """A raw emulator checkpoint taken mid-schedule restores exactly."""
    level = IsolationLevelName.SERIALIZABLE
    _, programs = build_program_set(CONTENTION)
    schedule = schedule_space(programs, mode="sample", max_schedules=1,
                              seed=5).schedules[0]
    _, kernel = build_pair(CONTENTION, level)
    emulator = kernel._emulator
    half = len(schedule) // 2
    emulator.apply_slots(schedule[:half])
    token = emulator.checkpoint()
    emulator.apply_slots(schedule[half:])
    emulator.drain()
    first = emulator.build_outcome(kernel.engine_name, kernel._database)
    first_key = outcome_key(first)
    emulator.restore(token)
    emulator.apply_slots(schedule[half:])
    emulator.drain()
    second = emulator.build_outcome(kernel.engine_name, kernel._database)
    assert outcome_key(second) == first_key


@needs_numpy
def test_explore_records_identical_with_and_without_kernel():
    """explore(batch_kernel=...) never changes records, only speed."""
    levels = (IsolationLevelName.READ_COMMITTED,
              IsolationLevelName.SNAPSHOT_ISOLATION)
    on = explore(CONTENTION, ExploreOptions(
        levels=levels, mode="sample", max_schedules=200, seed=6, batch_kernel="on"))
    off = explore(CONTENTION, ExploreOptions(
        levels=levels, mode="sample", max_schedules=200, seed=6, batch_kernel="off"))
    assert on.fingerprint() == off.fingerprint()


def test_pure_python_fallback_without_numpy(monkeypatch):
    """With numpy unavailable the kernel never builds and auto falls back."""
    monkeypatch.setattr(batch_kernel_module, "_NUMPY", False)
    assert not numpy_available()
    db, programs = build_program_set(CONTENTION)
    executor = TrieExecutor(db, programs, IsolationLevelName.READ_COMMITTED,
                            batch_kernel="auto")
    assert executor._batch is None
    schedules = schedule_space(programs, mode="sample", max_schedules=12,
                               seed=2).schedules
    db2, progs2 = build_program_set(CONTENTION)
    reference = TrieExecutor(db2, progs2, IsolationLevelName.READ_COMMITTED,
                             batch_kernel="off")
    expected = {index: outcome_key(outcome)
                for index, outcome in reference.run_batch(schedules)}
    for index, outcome in executor.run_batch(schedules):
        assert outcome_key(outcome) == expected[index]
    assert executor.batch_stats.schedules == 0
    with pytest.raises(ValueError):
        db3, progs3 = build_program_set(CONTENTION)
        TrieExecutor(db3, progs3, IsolationLevelName.READ_COMMITTED,
                     batch_kernel="on")


def test_batch_stats_occupancy_and_dict_shape():
    stats = BatchStats()
    assert stats.occupancy == 1.0
    stats.schedules = 4
    stats.rows_fast = 3
    stats.rows_ejected = 1
    assert stats.occupancy == 0.75
    as_dict = stats.as_dict()
    for key in ("schedules", "rows_fast", "rows_ejected", "slots_total",
                "slots_executed", "checkpoints_created", "restores",
                "occupancy"):
        assert key in as_dict


def test_invalid_batch_kernel_mode_rejected():
    db, programs = build_program_set(CONTENTION)
    with pytest.raises(ValueError):
        TrieExecutor(db, programs, IsolationLevelName.READ_COMMITTED,
                     batch_kernel="sometimes")
