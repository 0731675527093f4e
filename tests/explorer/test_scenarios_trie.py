"""The scenario bridge runs on the trie executor, byte-equal to from-scratch.

``explore_variant`` walks each (variant, level) space through one
prefix-sharing :class:`~repro.explorer.trie_executor.TrieExecutor`.  The
oracle below is the loop it replaced — a fresh database, a fresh engine and a
``ScheduleRunner.replay`` per schedule — kept here as the from-scratch
reference: every field of every ``VariantExploration`` must agree, for every
engine-backed level, every curated variant and both reductions.
"""

from __future__ import annotations

import pytest

from repro.engine.scheduler import ScheduleRunner
from repro.explorer.explorer import terminal_scope_for
from repro.explorer.reduction import build_execution_plan
from repro.explorer.scenarios import (
    DEFAULT_MAX_SCHEDULES,
    VariantExploration,
    explore_variant,
)
from repro.explorer.schedules import schedule_space
from repro.testbed import ALL_ENGINE_LEVELS, make_engine
from repro.workloads.scenarios import ALL_SCENARIOS

VARIANTS = [(scenario.code, variant)
            for scenario in ALL_SCENARIOS for variant in scenario.variants]


def from_scratch(variant, level, scenario_code, reduction):
    """The per-schedule loop ``explore_variant`` used to run."""
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
@pytest.mark.parametrize("code,variant", VARIANTS,
                         ids=[f"{code}-{variant.name}" for code, variant in VARIANTS])
@pytest.mark.parametrize("level", ALL_ENGINE_LEVELS, ids=lambda level: level.name)
def test_equals_from_scratch(level, code, variant, reduction):
    explored = explore_variant(variant, level, scenario_code=code,
                               reduction=reduction)
    # Dataclass equality is field for field: counts, witness, witness_history,
    # stalled / deadlocked / engine_aborted included.
    assert explored == from_scratch(variant, level, code, reduction)
    # No executor, outcome or verdict outlives a call: a second one agrees.
    assert explore_variant(variant, level, scenario_code=code,
                           reduction=reduction) == explored


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
