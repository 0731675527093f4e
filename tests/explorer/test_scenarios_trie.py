"""The scenario bridge runs on the trie executor, byte-equal to from-scratch.

``explore_variant`` walks each (variant, level) space through one
:class:`~repro.explorer.trie_executor.TrieExecutor`: the real engines behind
a transition table.  The oracle below is the loop it replaced — a fresh
database, a fresh engine and a ``ScheduleRunner.replay`` per schedule — kept
here as the from-scratch reference, at two grains: every field of every
``VariantExploration`` must agree, and so must every executed schedule's
outcome (history, statuses, contexts, abort reasons, blocked events,
deadlocks, stall flag, and the database's items and rows at yield time) —
for every engine-backed level, every curated variant and both reductions,
with the table cold, warm and capped.  Outcome-level equality is what keeps
a wrong merge from hiding inside the totals.
"""

from __future__ import annotations

import pytest

from repro.engine.scheduler import ScheduleRunner
from repro.explorer import transition_table
from repro.explorer.explorer import terminal_scope_for
from repro.explorer.reduction import build_execution_plan
from repro.explorer.scenarios import (
    DEFAULT_MAX_SCHEDULES,
    VariantExploration,
    explore_variant,
)
from repro.explorer.schedules import schedule_space
from repro.explorer.trie_executor import TrieExecutor
from repro.engine.programs import (
    Abort,
    Commit,
    CursorUpdate,
    Fetch,
    OpenCursor,
    ReadItem,
    TransactionProgram,
    UpdateRow,
    WriteItem,
)
from repro.storage.database import Database
from repro.storage.rows import Row
from repro.testbed import ALL_ENGINE_LEVELS, make_engine
from repro.workloads.scenarios import ALL_SCENARIOS, ScenarioVariant

VARIANTS = [(scenario.code, variant)
            for scenario in ALL_SCENARIOS for variant in scenario.variants]


def _probe(name, items, *programs, rows=None):
    """A hand-built variant whose spaces reach two states that differ in one
    state-key component alone; the component's absence merges them."""
    def build_database():
        database = Database()
        for item, value in items.items():
            database.set_item(item, value)
        if rows is not None:
            database.create_table("t", [Row(key, dict(attributes))
                                        for key, attributes in rows.items()])
        return database

    def build_programs():
        return [TransactionProgram(txn, list(steps))
                for txn, steps in enumerate(programs, 1)]

    return ("probe", ScenarioVariant(name, build_database, build_programs,
                                     interleaving=[],
                                     manifests=lambda outcome: False))


#: The curated variants keep many key components redundant (locks follow
#: from step counters, write sets from bindings, ...), so each probe makes
#: one of them carry information nothing else in the key holds.
PROBES = [
    # The step counter: re-reading an unchanged item leaves no other trace.
    _probe("repeat-read", {"x": 1},
           [ReadItem("x"), ReadItem("x"),
            WriteItem("x", lambda ctx: ctx["x"] + 1), Commit()],
           [WriteItem("x", 5), Commit()]),
    # The finished flag: an update of a missing row ends the program and
    # leaves the engine untouched.
    _probe("missing-row", {"x": 1},
           [ReadItem("x"), UpdateRow("t", "ghost", {"v": 2}), Commit()],
           [WriteItem("x", 2), Commit()],
           rows={"a": {"v": 1}}),
    # The lock table (Cursor Stability): a fetch that blocks has already
    # dropped the cursor lock on the row it leaves.
    _probe("cursor-release", {"x": 1, "y": 1},
           [OpenCursor("c", ["x", "y"]), Fetch("c"), Fetch("c"), Commit()],
           [WriteItem("y", 2), Commit()],
           [WriteItem("x", 3), Commit()]),
    # The undo log (Degree 0): equal writes in either order leave equal
    # items but swapped before-images, which the abort restores.
    _probe("same-value-writes", {"x": 1},
           [WriteItem("x", 5), Abort()],
           [WriteItem("x", 5), Commit()]),
    # Commit timestamps (Read Consistency): two disjoint commits around a
    # cursor's open decide whether its update conflicts.
    _probe("commit-order", {"x": 1, "y": 1},
           [OpenCursor("c", ["x"]), Fetch("c"), CursorUpdate("c", 9), Commit()],
           [WriteItem("x", 2), Commit()],
           [WriteItem("y", 3), Commit()]),
    # A buffered write (Read Consistency): the binding it was computed from
    # is re-read before commit.
    _probe("stale-binding", {"x": 1, "y": 0},
           [ReadItem("x"), WriteItem("y", lambda ctx: ctx["x"]), ReadItem("x"),
            Commit()],
           [WriteItem("x", 5), Commit()]),
    # The same for a row, which also makes row contents the only
    # difference in place (the locking levels).
    _probe("stale-row", {"x": 1},
           [ReadItem("x"), UpdateRow("t", "a", lambda ctx: {"v": ctx["x"]}),
            ReadItem("x"), Commit()],
           [WriteItem("x", 5), Commit()],
           rows={"a": {"v": 0}}),
]


def outcome_key(outcome):
    """Everything an outcome shows, the database as it stands at yield time."""
    database = outcome.database
    return (
        outcome.history.to_shorthand(),
        dict(outcome.statuses),
        outcome.contexts,
        outcome.abort_reasons,
        outcome.blocked_events,
        [(deadlock.cycle, deadlock.victim) for deadlock in outcome.deadlocks],
        outcome.stalled,
        database.items(),
        {name: [(row.key, dict(row.attributes)) for row in table]
         for name, table in database.tables().items()},
    )


def executed_schedules(variant, level, reduction):
    """The schedules ``explore_variant`` executes, in stream order."""
    programs = variant.build_programs()
    schedules = schedule_space(programs, mode="auto",
                               max_schedules=DEFAULT_MAX_SCHEDULES,
                               seed=0).schedules
    if reduction == "sleep-set":
        return build_execution_plan(
            schedules, programs,
            terminal_scope=terminal_scope_for(level)).executed
    return schedules


def walked(executor, schedules):
    """Outcome keys of one run_batch, in input order."""
    keys = [None] * len(schedules)
    for index, outcome in executor.run_batch(schedules):
        keys[index] = outcome_key(outcome)
    return keys


def from_scratch(variant, level, scenario_code, reduction, outcomes=None):
    """The per-schedule loop ``explore_variant`` used to run.

    ``outcomes``, when given, collects every executed schedule's
    :func:`outcome_key`, in execution order.
    """
    programs = variant.build_programs()
    space = schedule_space(programs, mode="auto",
                           max_schedules=DEFAULT_MAX_SCHEDULES, seed=0)
    schedules = space.schedules
    plan = None
    to_execute = schedules
    if reduction == "sleep-set":
        plan = build_execution_plan(schedules, programs,
                                    terminal_scope=terminal_scope_for(level))
        to_execute = plan.executed

    runner = None
    verdicts = []
    for schedule in to_execute:
        engine = make_engine(variant.build_database(), level)
        if runner is None:
            runner = ScheduleRunner(engine, programs, schedule)
            outcome = runner.run()
        else:
            outcome = runner.replay(engine, schedule)
        if outcomes is not None:
            outcomes.append(outcome_key(outcome))
        verdicts.append((
            False if outcome.stalled else variant.manifests(outcome),
            outcome.stalled,
            bool(outcome.deadlocks),
            any(reason != "program abort"
                for reason in outcome.abort_reasons.values()),
            outcome.history.to_shorthand(),
        ))

    manifested = stalled = deadlocked = engine_aborted = 0
    witness = witness_history = None
    for position, schedule in enumerate(schedules):
        verdict = verdicts[plan.assignment[position] if plan else position]
        if verdict[0]:
            manifested += 1
            if witness is None:
                witness, witness_history = schedule, verdict[4]
        stalled += verdict[1]
        deadlocked += verdict[2]
        engine_aborted += verdict[3]
    return VariantExploration(
        scenario_code=scenario_code, variant_name=variant.name, level=level,
        mode=space.mode, space_size=space.total, schedules=len(schedules),
        executed=len(to_execute), manifested=manifested, stalled=stalled,
        deadlocked=deadlocked, engine_aborted=engine_aborted,
        witness=witness, witness_history=witness_history,
    )


@pytest.mark.parametrize("reduction", ["sleep-set", "none"])
@pytest.mark.parametrize("code,variant", VARIANTS + PROBES,
                         ids=[f"{code}-{variant.name}"
                              for code, variant in VARIANTS + PROBES])
@pytest.mark.parametrize("level", ALL_ENGINE_LEVELS, ids=lambda level: level.name)
def test_equals_from_scratch(level, code, variant, reduction, monkeypatch):
    explored = explore_variant(variant, level, scenario_code=code,
                               reduction=reduction)
    expected = []
    # Dataclass equality is field for field: counts, witness, witness_history,
    # stalled / deadlocked / engine_aborted included.
    assert explored == from_scratch(variant, level, code, reduction, expected)
    # No executor, outcome or verdict outlives a call: a second one agrees.
    assert explore_variant(variant, level, scenario_code=code,
                           reduction=reduction) == explored

    # Schedule by schedule, on the executor explore_variant builds: a cold
    # table, the same table warm, and a capped one — no state at all (the
    # runner's checkpoints alone) or a few (on and off the table in a row).
    schedules = executed_schedules(variant, level, reduction)
    executor = TrieExecutor(variant.build_database(), variant.build_programs(),
                            level, batch_kernel="off")
    assert walked(executor, schedules) == expected, "cold"
    computed = executor.stats.transitions_computed
    assert walked(executor, schedules) == expected, "warm"
    assert executor.stats.transitions_computed == computed
    cap = 0 if reduction == "none" else 3
    monkeypatch.setattr(transition_table, "TRANSITION_STATE_CAP", cap)
    capped = TrieExecutor(variant.build_database(), variant.build_programs(),
                          level, batch_kernel="off")
    assert walked(capped, schedules) == expected, f"cap {cap}"
    assert capped.stats.states == cap


def test_the_table_hits_on_table_4():
    """Different prefixes meet in one engine state: most lookups are hits,
    and the engines execute a fraction of the slots the schedules hold."""
    reused = computed = executed = total = 0
    for level in ALL_ENGINE_LEVELS:
        for _, variant in VARIANTS:
            executor = TrieExecutor(variant.build_database(),
                                    variant.build_programs(), level,
                                    batch_kernel="off")
            for _ in executor.run_batch(
                    executed_schedules(variant, level, "sleep-set")):
                pass
            stats = executor.stats
            reused += stats.transitions_reused
            computed += stats.transitions_computed
            executed += stats.slots_executed
            total += stats.slots_total
    assert reused > 5 * computed
    assert executed < total / 4


def test_the_oracle_exercises_every_verdict_field():
    """The equality above is only as strong as the spaces are varied.

    (No curated variant stalls — deadlocks are broken — so the stalled path
    is pinned by ``test_scenario_explore``'s hand-built stalling variant.)
    """
    explorations = [explore_variant(variant, level, scenario_code=code)
                    for level in ALL_ENGINE_LEVELS for code, variant in VARIANTS]
    for field in ("manifested", "deadlocked", "engine_aborted"):
        assert any(getattr(e, field) for e in explorations), field
    assert any(e.witness_history for e in explorations)
