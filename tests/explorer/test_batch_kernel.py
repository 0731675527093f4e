"""The batch-drain kernel's determinism contract: byte-equal to the real engines.

The transition-memoized kernel (:mod:`repro.explorer.batch_kernel`) is a
pure optimization: for every engine level and every registered workload, a
kernel-executed schedule must produce an :class:`ExecutionOutcome` that is
byte-identical — history, statuses, contexts, abort reasons, blocked-event
counts, deadlocks, stall flag, final database — to the stepwise trie
executor's, including stalled and deadlock-aborted prefix schedules, whether
the transition table is cold, warm, capped or bypassed.  Rows the kernel
cannot handle eject to the stepwise path.
"""

from __future__ import annotations

import random

import pytest

from repro.core.isolation import IsolationLevelName
from repro.engine.programs import (
    Abort,
    Commit,
    Fetch,
    OpenCursor,
    ReadItem,
    TransactionProgram,
    WriteItem,
)
from repro.engine.scheduler import ScheduleRunner
from repro.explorer import ExploreOptions, explore
from repro.explorer import transition_table
from repro.explorer.batch_kernel import (
    _OP_ABORT,
    _OP_COMMIT,
    _OP_READ,
    _OP_WRITE,
    BatchStats,
    _FlatPrograms,
    build_batch_kernel,
)
from repro.explorer.schedules import enumerate_interleavings, schedule_space
from repro.explorer.trie_executor import TrieExecutor
from repro.storage.database import Database
from repro.testbed import make_engine
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
#: The levels whose kernel is a flat emulator behind a transition table
#: (`_LockingFlat` for the Table 2 levels, `_ReadConsistencyFlat` for ORC).
TABLE_LEVELS = (IsolationLevelName.READ_UNCOMMITTED,
                IsolationLevelName.READ_COMMITTED,
                IsolationLevelName.REPEATABLE_READ,
                IsolationLevelName.SERIALIZABLE,
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


def build_pair(spec, level, builder=None):
    """A (stepwise executor, kernel) pair over fresh identical testbeds."""
    if builder is None:
        def builder():
            return build_program_set(spec)
    db_trie, programs_trie = builder()
    trie = TrieExecutor(db_trie, programs_trie, level, batch_kernel="off")
    db_kernel, programs_kernel = builder()
    fallback_host = TrieExecutor(db_kernel, programs_kernel, level,
                                 batch_kernel="off")
    # The host owns db_kernel: the kernel shows its outcomes in a copy.
    kernel = build_batch_kernel(db_kernel.clone(), programs_kernel, level,
                                fallback_host._engine.name,
                                fallback=fallback_host.run_one)
    return trie, kernel


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


@pytest.mark.parametrize("level", KERNEL_LEVELS, ids=lambda level: level.value)
def test_checkpoint_restore_round_trip_of_in_flight_state(level):
    """The same batch twice: a cold table the first time, a warm one after.

    The second pass pops the checkpoint stack back through every in-flight
    prefix the first pass created and answers every lookup from the table;
    results must not drift, and both must be the stepwise runner's.
    """
    _, programs = build_program_set(CONTENTION)
    schedules = randomized_schedules(programs, random.Random(13), 40)
    trie, kernel = build_pair(CONTENTION, level)
    expected = [outcome_key(outcome)
                for _, outcome in sorted(trie.run_batch(schedules))]
    cold = [outcome_key(outcome)
            for _, outcome in sorted(kernel.run_batch(schedules))]
    computed, reused = (kernel.stats.transitions_computed,
                        kernel.stats.transitions_reused)
    warm = [outcome_key(outcome)
            for _, outcome in sorted(kernel.run_batch(schedules))]
    assert cold == expected
    assert warm == expected
    if level in TABLE_LEVELS:
        assert computed > 0
        assert kernel.stats.transitions_computed == computed
        assert kernel.stats.transitions_reused > reused
        assert 0 < kernel.stats.states <= computed


def test_emulator_checkpoint_restore_mid_drain():
    """A raw emulator checkpoint taken mid-schedule restores exactly."""
    _, programs = build_program_set(CONTENTION)
    schedule = schedule_space(programs, mode="sample", max_schedules=1,
                              seed=5).schedules[0]
    for level in TABLE_LEVELS:
        _, kernel = build_pair(CONTENTION, level)
        emulator = kernel
        half = len(schedule) // 2
        emulator.apply_slots(schedule[:half])
        token = emulator.checkpoint()
        emulator.apply_slots(schedule[half:])
        emulator.drain()
        first = emulator.build_outcome()
        first_key = outcome_key(first)
        emulator.restore(token)
        emulator.apply_slots(schedule[half:])
        emulator.drain()
        second = emulator.build_outcome()
        assert outcome_key(second) == first_key, level


@pytest.mark.parametrize("cap", [0, 1, 7])
@pytest.mark.parametrize("level", TABLE_LEVELS, ids=lambda level: level.value)
def test_capped_table_computes_without_storing(level, cap, monkeypatch):
    """Past the cap rows run on the emulator, unstored, with equal outcomes."""
    monkeypatch.setattr(transition_table, "TRANSITION_STATE_CAP", cap)
    _, programs = build_program_set(CONTENTION)
    schedules = randomized_schedules(programs, random.Random(cap), 40)
    trie, kernel = build_pair(CONTENTION, level)
    expected = {index: outcome_key(outcome)
                for index, outcome in trie.run_batch(schedules)}
    for _ in range(2):  # the second pass restores through raw-state tokens
        for index, outcome in kernel.run_batch(schedules):
            assert outcome_key(outcome) == expected[index], (level, cap, index)
    assert kernel.stats.states == cap
    assert kernel.stats.rows_ejected == 0


def unhashable_values():
    """A list travels through the database, a context and a history."""
    database = Database()
    database.set_item("x", 1)
    database.set_item("y", 2)
    return database, [
        TransactionProgram(1, [WriteItem("x", [1, 2]), ReadItem("y"),
                               WriteItem("x", 3), Commit()]),
        TransactionProgram(2, [ReadItem("x"),
                               WriteItem("y", lambda ctx: ctx["x"]), Commit()]),
    ]


@pytest.mark.parametrize("level", TABLE_LEVELS, ids=lambda level: level.value)
def test_unhashable_values_stay_off_the_table_and_match(level):
    _, programs = unhashable_values()
    schedules = list(schedule_space(programs, mode="exhaustive").schedules)
    schedules += randomized_schedules(programs, random.Random(4), 20)
    trie, kernel = build_pair(None, level, builder=unhashable_values)
    expected = {index: outcome_key(outcome)
                for index, outcome in trie.run_batch(schedules)}
    for index, outcome in kernel.run_batch(schedules):
        assert outcome_key(outcome) == expected[index], (level, index)
    assert kernel.stats.rows_ejected == 0
    # States holding the list were never interned, yet rows rejoined the
    # table once the list was overwritten or rolled back.
    assert all(isinstance(hash(state), int) for state in kernel._states)
    assert kernel.stats.transitions_reused > 0


def unterminated_writer():
    """T1 never commits, so whoever needs its lock stalls; x and z start absent."""
    database = Database()
    database.set_item("y", 5)
    return database, [
        TransactionProgram(1, [ReadItem("y"), WriteItem("x", 1)]),
        TransactionProgram(2, [ReadItem("x"), WriteItem("x", 2), Commit()]),
        TransactionProgram(3, [ReadItem("z"), WriteItem("y", 6), Commit()]),
    ]


@pytest.mark.parametrize("level", TABLE_LEVELS, ids=lambda level: level.value)
def test_stalled_drains_and_absent_items_match(level):
    _, programs = unterminated_writer()
    schedules = list(schedule_space(programs, mode="exhaustive").schedules)
    schedules += randomized_schedules(programs, random.Random(9), 20)
    trie, kernel = build_pair(None, level, builder=unterminated_writer)
    expected = {}
    stalled = 0
    for index, outcome in trie.run_batch(schedules):
        expected[index] = outcome_key(outcome)
        stalled += outcome.stalled
    assert stalled > 0, "no schedule stalled; pick another gate"
    for _ in range(2):
        for index, outcome in kernel.run_batch(schedules):
            assert outcome_key(outcome) == expected[index], (level, index)


@pytest.mark.parametrize("level", TABLE_LEVELS, ids=lambda level: level.value)
def test_rows_driven_to_the_attempt_budget_match(level):
    """Slots past ``max_attempts`` are dropped, mid-row or mid-drain, exactly
    as the runner drops them — on a cold table and on a warm one."""
    spec = ProgramSetSpec.make("increments", transactions=3)
    trie, kernel = build_pair(spec, level)
    limit = kernel.flat.max_attempts
    # All three read, then T1 retries its write: blocked by the others' read
    # locks where reads lock, a finished transaction's no-op where they do
    # not.  The sweep puts the budget's end in the slots, at the drain's
    # first attempt, and between two transactions of one drain round.
    schedules = [(1, 2, 3) + (1,) * extra
                 for extra in range(limit - 10, limit + 3)]
    schedules += [(1, 2, 3) + (2, 1) * (extra // 2)
                  for extra in range(limit - 10, limit + 3)]
    expected = {index: outcome_key(outcome)
                for index, outcome in trie.run_batch(schedules)}
    for _ in range(2):
        for index, outcome in kernel.run_batch(schedules):
            assert outcome_key(outcome) == expected[index], (level, index)


def test_different_prefixes_share_one_state():
    """The property the speedup rests on: a state is what the engine can
    still do, not how it got there or what it has emitted so far."""
    spec = ProgramSetSpec.make("increments")
    level = IsolationLevelName.SERIALIZABLE
    _, kernel = build_pair(spec, level)
    emulator = kernel
    root = emulator.checkpoint()

    def reach(slots):
        emulator.restore(root)
        emulator.apply_slots(slots)
        return (emulator._sid, [op.to_shorthand() for op in emulator.ops],
                emulator.blocked_events, emulator.attempts)

    # Two Share locks commute; the lock manager's version counters say who
    # went first, the state does not.
    first, first_ops, _, _ = reach((1, 2))
    second, second_ops, _, _ = reach((2, 1))
    assert first == second >= 0
    assert first_ops != second_ops
    # A replayed blocked attempt moves the outputs and nothing else.
    once, _, blocked_once, attempts_once = reach((1, 2, 1))
    twice, _, blocked_twice, attempts_twice = reach((1, 2, 1, 1))
    assert once == twice >= 0
    assert (blocked_twice, attempts_twice) == (blocked_once + 1, attempts_once + 1)


def test_explore_records_identical_with_and_without_kernel():
    """explore(batch_kernel=...) never changes records, only speed."""
    levels = (IsolationLevelName.READ_COMMITTED,
              IsolationLevelName.SNAPSHOT_ISOLATION)
    on = explore(CONTENTION, ExploreOptions(
        levels=levels, mode="sample", max_schedules=200, seed=6, batch_kernel="on"))
    off = explore(CONTENTION, ExploreOptions(
        levels=levels, mode="sample", max_schedules=200, seed=6, batch_kernel="off"))
    assert on.fingerprint() == off.fingerprint()


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
                "transitions_reused", "transitions_computed", "states",
                "occupancy"):
        assert key in as_dict


def test_invalid_batch_kernel_mode_rejected():
    db, programs = build_program_set(CONTENTION)
    with pytest.raises(ValueError):
        TrieExecutor(db, programs, IsolationLevelName.READ_COMMITTED,
                     batch_kernel="sometimes")


class _TracingRead(ReadItem):
    """A ReadItem subclass: its own perform() is outside the kernel's tables."""

    def perform(self, engine, txn, context):
        return super().perform(engine, txn, context)


@pytest.mark.parametrize("steps", [
    [_TracingRead("x"), Commit()],
    [OpenCursor("c", ["x"]), Fetch("c"), Commit()],
], ids=["subclassed-read", "cursor"])
def test_build_refuses_step_types_outside_its_tables(steps):
    level = IsolationLevelName.READ_COMMITTED
    database = Database()
    database.set_item("x", 0)
    plain = [TransactionProgram(1, [ReadItem("x"), Commit()])]
    assert build_batch_kernel(database, plain, level, "engine") is not None
    programs = [TransactionProgram(1, steps)]
    assert build_batch_kernel(database, programs, level, "engine") is None
    with pytest.raises(ValueError, match="no batch kernel"):
        TrieExecutor(database, programs, level, batch_kernel="on")


ALL_LEVELS = (IsolationLevelName.READ_UNCOMMITTED,
              IsolationLevelName.READ_COMMITTED,
              IsolationLevelName.CURSOR_STABILITY,
              IsolationLevelName.REPEATABLE_READ,
              IsolationLevelName.SERIALIZABLE,
              IsolationLevelName.SNAPSHOT_ISOLATION,
              IsolationLevelName.ORACLE_READ_CONSISTENCY)


def contended_pair():
    """A read-modify-write racing a blind overwrite of the same item."""
    database = Database()
    database.set_item("x", 0)
    database.set_item("y", 0)
    return database, [
        TransactionProgram(1, [ReadItem("x", into="v"),
                               WriteItem("x", lambda ctx: ctx["v"] + 1),
                               WriteItem("y", 7), Commit()]),
        TransactionProgram(2, [ReadItem("x"), WriteItem("x", 99), Commit()]),
    ]


def aborting_writer():
    """T1 writes then aborts; T2 may read the dirty value before the rollback."""
    database = Database()
    database.set_item("x", 10)
    database.set_item("y", 20)
    return database, [
        TransactionProgram(1, [WriteItem("x", 11), ReadItem("y"), Abort()]),
        TransactionProgram(2, [ReadItem("x", into="v"),
                               WriteItem("y", lambda ctx: ctx["v"] + 1), Commit()]),
    ]


@pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda level: level.value)
def test_every_interleaving_of_a_contended_pair(level):
    schedules = list(enumerate_interleavings([1, 2], [4, 3]))
    trie, kernel = build_pair(None, level, builder=contended_pair)
    assert kernel is not None
    expected = {index: outcome_key(outcome)
                for index, outcome in trie.run_batch(schedules)}
    for index, outcome in kernel.run_batch(schedules):
        assert outcome_key(outcome) == expected[index], (level, schedules[index])
    assert kernel.stats.rows_fast == len(schedules)


@pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda level: level.value)
def test_program_aborts_roll_back_as_the_engine_does(level):
    schedules = list(enumerate_interleavings([1, 2], [3, 3]))
    trie, kernel = build_pair(None, level, builder=aborting_writer)
    expected = {index: outcome_key(outcome)
                for index, outcome in trie.run_batch(schedules)}
    for index, outcome in kernel.run_batch(schedules):
        assert outcome_key(outcome) == expected[index], (level, schedules[index])
        assert outcome.abort_reasons.get(1) == "program abort"
        assert outcome.database.get_item("x") == 10
    assert kernel.stats.rows_ejected == 0


def test_build_refuses_custom_engine_options():
    database, programs = contended_pair()
    level = IsolationLevelName.SNAPSHOT_ISOLATION
    assert build_batch_kernel(database, programs, level, "engine") is not None
    assert build_batch_kernel(database, programs, level, "engine",
                              engine_options={"first_committer_wins": False}) is None


def test_build_refuses_an_empty_program_set():
    database, _ = contended_pair()
    assert build_batch_kernel(database, [], IsolationLevelName.SERIALIZABLE,
                              "engine") is None


class TestFlatPrograms:
    """The per-step tables the kernel builds straight from the step objects."""

    def _flat(self):
        return _FlatPrograms([
            TransactionProgram(1, [ReadItem("y"), WriteItem("x", 1),
                                   ReadItem("x", into="seen"), Commit()]),
            TransactionProgram(2, [WriteItem("z", lambda ctx: 2),
                                   ReadItem("y"), Abort()]),
        ])

    def test_opcodes_follow_the_step_types(self):
        flat = self._flat()
        assert flat.opcodes == [(_OP_READ, _OP_WRITE, _OP_READ, _OP_COMMIT),
                                (_OP_WRITE, _OP_READ, _OP_ABORT)]
        assert flat.totals == [4, 3]
        assert flat.txns == [1, 2] and flat.tindex == {1: 0, 2: 1}

    def test_items_are_interned_in_first_encounter_order(self):
        flat = self._flat()
        assert flat.item_names == ("y", "x", "z")
        # One table across programs; terminal steps name no item.
        assert flat.items == [(0, 1, 1, -1), (2, 0, -1)]

    def test_read_bindings_default_to_the_item_name(self):
        assert self._flat().into == [("y", None, "seen", None),
                                     (None, "y", None)]

    def test_write_values_keep_constants_and_flag_callables(self):
        flat = self._flat()
        assert flat.values[0] == (None, 1, None, None)
        assert flat.calls == [(False, False, False, False),
                              (True, False, False)]
        # Every step owns its operation cache; no cache is shared.
        caches = [cache for per_txn in flat.op_caches for cache in per_txn]
        assert len(caches) == 7
        assert len({id(cache) for cache in caches}) == 7

    def test_attempt_budget_is_the_runners(self):
        programs = contended_pair()[1]
        runner = ScheduleRunner(make_engine(contended_pair()[0],
                                            IsolationLevelName.SERIALIZABLE),
                                programs)
        assert _FlatPrograms(programs).max_attempts == runner._max_attempts
