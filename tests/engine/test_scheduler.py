"""Unit tests for the schedule runner (repro.engine.scheduler)."""

from __future__ import annotations

import pytest

from repro.core.isolation import IsolationLevelName
from repro.core.phenomena import P0_DIRTY_WRITE, P1_DIRTY_READ
from repro.engine.interface import TransactionState
from repro.engine.programs import (
    Abort,
    Commit,
    ReadItem,
    TransactionProgram,
    WriteItem,
)
from repro.engine.scheduler import ScheduleRunner, run_schedule
from repro.explorer.schedules import enumerate_interleavings
from repro.locking.engine import LockingEngine
from repro.mvcc.snapshot import SnapshotIsolationEngine
from repro.storage.database import Database
from repro.testbed import make_engine


def _database() -> Database:
    database = Database()
    database.set_item("x", 100)
    database.set_item("y", 100)
    return database


def _transfer_programs():
    return [
        TransactionProgram(1, [
            ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] - 40),
            ReadItem("y"),
            WriteItem("y", lambda ctx: ctx["y"] + 40),
            Commit(),
        ]),
        TransactionProgram(2, [
            ReadItem("x", into="seen_x"),
            ReadItem("y", into="seen_y"),
            Commit(),
        ]),
    ]


class TestBasicExecution:
    def test_single_program_runs_to_completion(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        outcome = run_schedule(engine, [
            TransactionProgram(1, [ReadItem("x"), WriteItem("x", 7), Commit()]),
        ])
        assert outcome.committed(1)
        assert outcome.database.get_item("x") == 7
        assert outcome.history.to_shorthand() == "r1[x=100] w1[x=7] c1"

    def test_default_interleaving_is_round_robin(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        outcome = run_schedule(engine, _transfer_programs())
        assert outcome.all_committed(1, 2)
        assert not outcome.stalled

    def test_explicit_interleaving_is_followed_when_possible(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.READ_UNCOMMITTED)
        outcome = ScheduleRunner(engine, _transfer_programs(),
                                 interleaving=[1, 1, 2, 2, 2, 1, 1, 1]).run()
        # Under READ UNCOMMITTED the audit slips between T1's two writes.
        assert outcome.observed(2, "seen_x") == 60
        assert outcome.observed(2, "seen_y") == 100
        assert P1_DIRTY_READ.occurs_in(outcome.history)

    def test_contexts_are_reported_per_transaction(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        outcome = run_schedule(engine, _transfer_programs())
        assert set(outcome.reads_observed(2)) == {"seen_x", "seen_y"}

    def test_program_abort_is_recorded(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        outcome = run_schedule(engine, [
            TransactionProgram(1, [WriteItem("x", 1), Abort()]),
        ])
        assert outcome.aborted(1)
        assert outcome.history.aborts(1)
        assert outcome.database.get_item("x") == 100

    def test_traces_record_every_attempt(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        outcome = run_schedule(engine, _transfer_programs())
        assert len(outcome.traces) >= 8
        assert outcome.summary()


class TestBlockingAndDeadlock:
    def test_blocking_defers_but_eventually_completes(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        programs = [
            TransactionProgram(1, [WriteItem("x", 1), WriteItem("y", 1), Commit()]),
            TransactionProgram(2, [WriteItem("x", 2), WriteItem("y", 2), Commit()]),
        ]
        outcome = ScheduleRunner(engine, programs,
                                 interleaving=[1, 2, 2, 2, 1, 1]).run()
        assert outcome.all_committed(1, 2)
        assert outcome.blocked_events > 0
        # No dirty write in the realized history: T2 waited for T1.
        assert not P0_DIRTY_WRITE.occurs_in(outcome.history)
        assert outcome.database.get_item("x") == outcome.database.get_item("y")

    def test_deadlock_is_broken_by_aborting_a_victim(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.REPEATABLE_READ)
        programs = [
            TransactionProgram(1, [ReadItem("x"),
                                   WriteItem("x", lambda ctx: ctx["x"] + 30), Commit()]),
            TransactionProgram(2, [ReadItem("x"),
                                   WriteItem("x", lambda ctx: ctx["x"] + 20), Commit()]),
        ]
        outcome = ScheduleRunner(engine, programs,
                                 interleaving=[1, 2, 2, 2, 1, 1]).run()
        assert outcome.deadlocked()
        assert outcome.aborted(2) and outcome.committed(1)
        assert outcome.abort_reasons[2] == "deadlock victim"
        assert outcome.database.get_item("x") == 130

    def test_engine_initiated_abort_terminates_the_program(self):
        engine = SnapshotIsolationEngine(_database())
        programs = [
            TransactionProgram(1, [ReadItem("x"),
                                   WriteItem("x", lambda ctx: ctx["x"] + 30), Commit()]),
            TransactionProgram(2, [ReadItem("x"),
                                   WriteItem("x", lambda ctx: ctx["x"] + 20), Commit()]),
        ]
        outcome = ScheduleRunner(engine, programs,
                                 interleaving=[1, 2, 2, 2, 1, 1]).run()
        # First committer (T2) wins; T1's commit is refused.
        assert outcome.committed(2) and outcome.aborted(1)
        assert "first-committer-wins" in outcome.abort_reasons[1]
        assert outcome.database.get_item("x") == 120

    def test_statuses_reflect_engine_state(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        outcome = run_schedule(engine, _transfer_programs())
        assert outcome.statuses[1] is TransactionState.COMMITTED
        assert outcome.statuses[2] is TransactionState.COMMITTED


class TestRunnerValidation:
    def test_duplicate_transaction_ids_rejected(self):
        engine = LockingEngine(_database())
        with pytest.raises(ValueError):
            ScheduleRunner(engine, [
                TransactionProgram(1, [Commit()]),
                TransactionProgram(1, [Commit()]),
            ])

    def test_empty_program_list_rejected(self):
        engine = LockingEngine(_database())
        with pytest.raises(ValueError):
            ScheduleRunner(engine, [])

    def test_unknown_interleaving_entries_are_ignored(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        outcome = ScheduleRunner(engine, [
            TransactionProgram(1, [ReadItem("x"), Commit()]),
        ], interleaving=[9, 1, 9, 1]).run()
        assert outcome.committed(1)

    def test_reset_returns_the_runner_and_clears_the_run(self):
        engine = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        runner = ScheduleRunner(engine, _transfer_programs())
        runner.run()
        fresh = LockingEngine(_database(), level=IsolationLevelName.SERIALIZABLE)
        assert runner.reset(fresh, [2, 2, 2]) is runner
        assert runner.engine is fresh
        outcome = runner.run()
        assert outcome.history.to_shorthand().startswith("r2[x=100] r2[y=100] c2")

    def test_there_is_no_compiled_runner(self):
        engine = LockingEngine(_database())
        with pytest.raises(TypeError, match="compiled"):
            ScheduleRunner(engine, [TransactionProgram(1, [Commit()])],
                           compiled=True)


ALL_LEVELS = (
    IsolationLevelName.READ_UNCOMMITTED,
    IsolationLevelName.READ_COMMITTED,
    IsolationLevelName.CURSOR_STABILITY,
    IsolationLevelName.REPEATABLE_READ,
    IsolationLevelName.SERIALIZABLE,
    IsolationLevelName.SNAPSHOT_ISOLATION,
    IsolationLevelName.ORACLE_READ_CONSISTENCY,
)


def _outcome_key(outcome):
    """Everything observable about an execution, traces included."""
    return (
        outcome.history.to_shorthand(),
        tuple(sorted((txn, state.value) for txn, state in outcome.statuses.items())),
        tuple(sorted((txn, tuple(sorted(ctx.items())))
                     for txn, ctx in outcome.contexts.items())),
        tuple(sorted(outcome.abort_reasons.items())),
        outcome.blocked_events,
        tuple((d.cycle, d.victim) for d in outcome.deadlocks),
        tuple((t.txn, t.step, t.status.value, t.reason) for t in outcome.traces),
        outcome.stalled,
        tuple(sorted(outcome.database.items())),
    )


class TestReplay:
    @pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda lvl: lvl.value)
    def test_replay_matches_a_fresh_runner(self, level):
        """One runner replayed over every interleaving of a contended pair
        leaves nothing behind between runs."""
        programs = [
            TransactionProgram(1, [ReadItem("x", into="v"),
                                   WriteItem("x", lambda ctx: ctx["v"] + 1),
                                   WriteItem("y", 7), Commit()]),
            TransactionProgram(2, [ReadItem("x"), WriteItem("x", 99), Commit()]),
        ]
        reused = ScheduleRunner(make_engine(_database(), level), programs)
        for interleaving in enumerate_interleavings([1, 2], [4, 3]):
            fresh = ScheduleRunner(make_engine(_database(), level), programs,
                                   interleaving).run()
            replayed = reused.replay(make_engine(_database(), level), interleaving)
            assert _outcome_key(replayed) == _outcome_key(fresh), interleaving
