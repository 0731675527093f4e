"""Unit tests for the anomaly scenarios (repro.workloads.scenarios)."""

from __future__ import annotations

import pytest

from repro.analysis.matrix import compute_table4_explored
from repro.core.isolation import IsolationLevelName, Possibility
from repro.explorer.scenarios import explore_scenario
from repro.testbed import engine_factory
from repro.workloads.scenarios import (
    ALL_SCENARIOS,
    AnomalyScenario,
    run_variant,
    scenario_by_code,
)

L = IsolationLevelName
RU = engine_factory(L.READ_UNCOMMITTED)
RC = engine_factory(L.READ_COMMITTED)
CS = engine_factory(L.CURSOR_STABILITY)
RR = engine_factory(L.REPEATABLE_READ)
SER = engine_factory(L.SERIALIZABLE)
SI = engine_factory(L.SNAPSHOT_ISOLATION)

POSSIBLE = Possibility.POSSIBLE
NOT_POSSIBLE = Possibility.NOT_POSSIBLE
SOMETIMES = Possibility.SOMETIMES_POSSIBLE


@pytest.fixture(scope="module")
def cells():
    """Every scenario's whole-space cell under Degree 0 and the Table 4 levels."""
    return compute_table4_explored(
        (L.DEGREE_0, L.READ_UNCOMMITTED, L.READ_COMMITTED, L.CURSOR_STABILITY,
         L.REPEATABLE_READ, L.SERIALIZABLE, L.SNAPSHOT_ISOLATION),
    ).possibilities()


class TestScenarioRegistry:
    def test_all_table4_columns_have_scenarios(self):
        assert [scenario.code for scenario in ALL_SCENARIOS] == [
            "P0", "P1", "P4C", "P4", "P2", "P3", "A5A", "A5B"]

    def test_lookup_by_code(self):
        assert scenario_by_code("p4c").name == "Cursor Lost Update"
        with pytest.raises(KeyError):
            scenario_by_code("P9")

    def test_variant_lookup(self):
        scenario = scenario_by_code("P2")
        assert scenario.variant("plain-reread").name == "plain-reread"
        with pytest.raises(KeyError):
            scenario.variant("nope")

    def test_every_variant_has_interleaving_and_description(self):
        for scenario in ALL_SCENARIOS:
            assert scenario.variants
            for variant in scenario.variants:
                assert variant.interleaving
                assert variant.description


class TestVariantExecution:
    def test_variants_never_stall(self):
        for scenario in ALL_SCENARIOS:
            for variant in scenario.variants:
                for factory in (RU, RC, CS, RR, SER, SI):
                    result = run_variant(variant, factory, scenario.code)
                    assert not result.outcome.stalled

    def test_dirty_read_manifests_under_read_uncommitted_only(self, cells):
        assert cells[L.READ_UNCOMMITTED]["P1"] is POSSIBLE
        assert cells[L.READ_COMMITTED]["P1"] is NOT_POSSIBLE
        assert cells[L.SNAPSHOT_ISOLATION]["P1"] is NOT_POSSIBLE

    def test_lost_update_sometimes_possible_under_cursor_stability(self, cells):
        assert cells[L.CURSOR_STABILITY]["P4"] is SOMETIMES
        assert cells[L.READ_COMMITTED]["P4"] is POSSIBLE
        assert cells[L.REPEATABLE_READ]["P4"] is NOT_POSSIBLE
        assert cells[L.SNAPSHOT_ISOLATION]["P4"] is NOT_POSSIBLE

    def test_cursor_lost_update_prevented_by_cursor_stability(self, cells):
        assert cells[L.READ_COMMITTED]["P4C"] is POSSIBLE
        assert cells[L.CURSOR_STABILITY]["P4C"] is NOT_POSSIBLE

    def test_phantom_sometimes_possible_under_snapshot_isolation(self, cells):
        assert cells[L.SNAPSHOT_ISOLATION]["P3"] is SOMETIMES
        assert cells[L.REPEATABLE_READ]["P3"] is POSSIBLE
        assert cells[L.SERIALIZABLE]["P3"] is NOT_POSSIBLE

    def test_write_skew_distinguishes_snapshot_from_repeatable_read(self, cells):
        assert cells[L.SNAPSHOT_ISOLATION]["A5B"] is POSSIBLE
        assert cells[L.REPEATABLE_READ]["A5B"] is NOT_POSSIBLE

    def test_read_skew_prevented_by_snapshot_isolation(self, cells):
        assert cells[L.SNAPSHOT_ISOLATION]["A5A"] is NOT_POSSIBLE
        assert cells[L.READ_COMMITTED]["A5A"] is POSSIBLE

    def test_dirty_write_prevented_everywhere_above_degree0(self, cells):
        assert cells[L.DEGREE_0]["P0"] is POSSIBLE
        for level, row in cells.items():
            if level is not L.DEGREE_0:
                assert row["P0"] is NOT_POSSIBLE, level

    def test_serializable_prevents_every_scenario(self, cells):
        assert set(cells[L.SERIALIZABLE].values()) == {NOT_POSSIBLE}

    def test_variant_results_expose_outcome_details(self):
        scenario = scenario_by_code("P4")
        result = run_variant(scenario.variants[0], RC, scenario.code)
        assert result.manifested
        assert result.engine_name == "Locking READ COMMITTED"
        assert result.outcome.all_committed(1, 2)
        assert result.outcome.database.get_item("x") == 130

    def test_fresh_databases_per_run(self):
        scenario = scenario_by_code("P4")
        first = run_variant(scenario.variants[0], RC, scenario.code)
        second = run_variant(scenario.variants[0], RC, scenario.code)
        assert first.outcome.database is not second.outcome.database
        assert first.manifested == second.manifested

    def test_curated_runs_report_not_stalled(self):
        scenario = scenario_by_code("P4")
        result = run_variant(scenario.variants[0], RC, scenario.code)
        assert result.stalled is False

    def test_run_variant_accepts_an_interleaving_override(self):
        """The explorer replays arbitrary schedules through run_variant."""
        scenario = scenario_by_code("P4")
        variant = scenario.variants[0]
        # A serial schedule: T1 runs to completion before T2 starts, so the
        # lost update cannot manifest even at READ COMMITTED.
        serial = run_variant(variant, RC, scenario.code,
                             interleaving=[1, 1, 1, 2, 2, 2])
        assert not serial.manifested
        assert serial.outcome.database.get_item("x") == 150
        # The curated adversarial schedule still manifests.
        curated = run_variant(variant, RC, scenario.code)
        assert curated.manifested

    def test_empty_scenario_raises_instead_of_reporting_possible(self):
        """all([]) is True — an empty scenario must not claim POSSIBLE."""
        empty = AnomalyScenario(code="PX", name="empty", description="",
                                variants=[])
        with pytest.raises(ValueError, match="no variants"):
            explore_scenario(empty, L.READ_COMMITTED)
