"""The scheduler's reset/replay entry point (the from-scratch reference path)."""

from __future__ import annotations

from repro.core.isolation import IsolationLevelName
from repro.engine.scheduler import ScheduleRunner, run_schedule
from repro.testbed import make_engine
from repro.workloads.program_sets import ProgramSetSpec, build_program_set


def _fresh(level=IsolationLevelName.READ_COMMITTED):
    database, programs = build_program_set(ProgramSetSpec.make("increments",
                                                               transactions=2))
    return make_engine(database, level), programs


class TestReplay:
    def test_replay_matches_a_fresh_runner(self):
        interleavings = [(1, 2, 1, 2, 1, 2), (1, 1, 1, 2, 2, 2), (2, 2, 2, 1, 1, 1)]
        engine, programs = _fresh()
        runner = ScheduleRunner(engine, programs, interleavings[0])
        replayed = [runner.run()]
        for interleaving in interleavings[1:]:
            engine, _ = _fresh()
            replayed.append(runner.replay(engine, interleaving))

        for interleaving, outcome in zip(interleavings, replayed):
            engine, fresh_programs = _fresh()
            expected = run_schedule(engine, fresh_programs, interleaving)
            assert outcome.history.to_shorthand() == expected.history.to_shorthand()
            assert outcome.statuses == expected.statuses
            assert outcome.blocked_events == expected.blocked_events

    def test_reset_clears_all_run_state(self):
        engine, programs = _fresh()
        runner = ScheduleRunner(engine, programs, (1, 2, 1, 2, 1, 2))
        first = runner.run()
        assert first.history.operations
        engine, _ = _fresh()
        runner.reset(engine, (1, 1, 1, 2, 2, 2))
        second = runner.run()
        assert second.blocked_events == 0
        assert not second.deadlocks
        assert len(second.history.operations) == len(first.history.operations)
