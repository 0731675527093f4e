"""Unit tests for the scenarios → explorer bridge (repro.explorer.scenarios)."""

from __future__ import annotations

import pytest

from repro.core.isolation import IsolationLevelName, Possibility
from repro.engine.programs import Commit, ReadItem, TransactionProgram, WriteItem
from repro.explorer.scenarios import explore_scenario, explore_variant
from repro.storage.database import Database
from repro.testbed import engine_factory
from repro.workloads.scenarios import (
    AnomalyScenario,
    ScenarioVariant,
    run_variant,
    scenario_by_code,
)

RC = IsolationLevelName.READ_COMMITTED
RR = IsolationLevelName.REPEATABLE_READ
SI = IsolationLevelName.SNAPSHOT_ISOLATION


class TestExploreVariant:
    def test_covers_the_whole_space_and_finds_witnesses(self):
        scenario = scenario_by_code("P4")
        variant = scenario.variant("plain-read-modify-write")
        exploration = explore_variant(variant, RC, scenario_code="P4")
        # Two 3-step programs: C(6, 3) = 20 interleavings, all explored.
        assert exploration.space_size == 20
        assert exploration.schedules == 20
        assert exploration.mode == "exhaustive"
        assert not exploration.pruned
        assert exploration.manifests
        assert 0.0 < exploration.frequency <= 1.0
        assert exploration.witness is not None
        assert exploration.witness_history

    def test_witness_replays_through_run_variant(self):
        scenario = scenario_by_code("P4")
        variant = scenario.variant("plain-read-modify-write")
        exploration = explore_variant(variant, RC, scenario_code="P4")
        replay = run_variant(variant, engine_factory(RC), "P4",
                             interleaving=exploration.witness)
        assert replay.manifested

    def test_prevented_variant_has_no_witness_anywhere(self):
        scenario = scenario_by_code("P4")
        variant = scenario.variant("plain-read-modify-write")
        exploration = explore_variant(variant, RR, scenario_code="P4")
        assert not exploration.manifests
        assert exploration.witness is None
        assert exploration.frequency == 0.0
        # Blocking engines deadlock freely out here — none of that is fatal.
        assert exploration.deadlocked > 0

    def test_stalled_schedules_are_counted_not_fatal(self):
        def build_database() -> Database:
            database = Database()
            database.set_item("x", 0)
            return database

        variant = ScenarioVariant(
            name="hung-writer",
            build_database=build_database,
            build_programs=lambda: [
                TransactionProgram(1, [WriteItem("x", 1)], label="never ends"),
                TransactionProgram(2, [ReadItem("x"), Commit()], label="reader"),
            ],
            interleaving=[1, 2, 2],
            manifests=lambda outcome: True,  # must never be consulted on stalls
        )
        exploration = explore_variant(variant, RC, scenario_code="TEST")
        # Of the 3 interleavings, only w1[x] before r2[x] wedges the reader on
        # the never-released write lock; the two schedules where T2 reads
        # first run to completion.
        assert exploration.schedules == 3
        assert exploration.stalled == 1
        # manifests returns True unconditionally, yet stalled schedules are
        # never counted: the predicate is only consulted on completed runs.
        assert exploration.manifested == exploration.schedules - exploration.stalled


class TestExploreScenario:
    def test_aggregates_variants_into_a_cell(self):
        scenario = scenario_by_code("P4")
        exploration = explore_scenario(scenario, IsolationLevelName.CURSOR_STABILITY,
                                       static_pruning=False)
        assert exploration.possibility is Possibility.SOMETIMES_POSSIBLE
        by_name = {variant.variant_name: variant for variant in exploration.variants}
        assert by_name["plain-read-modify-write"].manifests
        assert not by_name["both-through-cursors"].manifests
        witness = exploration.witness
        assert witness is not None
        assert witness[0] == "plain-read-modify-write"

    def test_not_possible_cell_has_no_witness(self):
        scenario = scenario_by_code("A5A")
        exploration = explore_scenario(scenario, SI, static_pruning=False)
        assert exploration.possibility is Possibility.NOT_POSSIBLE
        assert exploration.witness is None
        assert exploration.pruned_variants == 0
        assert all(variant.schedules > 0 and not variant.pruned
                   for variant in exploration.variants)

    def test_default_skips_statically_impossible_spaces(self):
        """A5A at SI is ruled out statically: same cell, nothing executed."""
        scenario = scenario_by_code("A5A")
        pruned = explore_scenario(scenario, SI)
        full = explore_scenario(scenario, SI, static_pruning=False)
        assert pruned.possibility is full.possibility is Possibility.NOT_POSSIBLE
        assert pruned.pruned_variants == len(scenario.variants)
        for variant in pruned.variants:
            assert variant.pruned and variant.mode == "pruned"
            assert variant.schedules == 0
            assert variant.static_reason

    def test_empty_scenario_raises(self):
        empty = AnomalyScenario(code="PX", name="empty", description="",
                                variants=[])
        with pytest.raises(ValueError, match="no variants"):
            explore_scenario(empty, RC)
