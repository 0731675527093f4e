"""The static/dynamic cross-validation gate.

Two directions, both load-bearing for the soundness contract of
``repro.static_analysis``:

* **No false impossibility** — a (variant, level) scope the analyzer calls
  ``IMPOSSIBLE`` must never manifest its anomaly in the *exhaustively
  explored* schedule space.  One dynamic witness inside a statically-pruned
  scope would mean the pruning silently corrupts Table 4.
* **No lost witnesses** — every cell the paper's Table 4 (and our extension
  rows) marks possible must have at least one variant the analyzer leaves
  unpruned (``POSSIBLE`` or ``UNKNOWN``), so the explorer still gets to find
  the witness.

The gate also pins the headline end-to-end property: the explored Table 4,
which prunes by default, reproduces ``EXPECTED_TABLE_4`` exactly while
actually skipping a substantial share of the variant spaces.

The first direction executes every scope through ``explore_variant``, which
never prunes, so it cannot pass by skipping the spaces it checks.
"""

from __future__ import annotations

from repro.analysis.matrix import (
    EXPECTED_TABLE_4,
    EXTENSION_EXPECTATIONS,
    TABLE_4_LEVELS,
    compute_table4_explored,
)
from repro.core.isolation import IsolationLevelName, Possibility
from repro.explorer.scenarios import explore_variant
from repro.static_analysis import Verdict, analyze_scenario_programs
from repro.workloads.scenarios import ALL_SCENARIOS, scenario_by_code

EXTENSION_LEVELS = (IsolationLevelName.DEGREE_0,
                    IsolationLevelName.ORACLE_READ_CONSISTENCY)
ALL_EXPECTATIONS = {**EXPECTED_TABLE_4, **EXTENSION_EXPECTATIONS}
ALL_LEVELS = tuple(TABLE_4_LEVELS) + EXTENSION_LEVELS


def _static_verdict(scenario_code, variant, level):
    return analyze_scenario_programs(variant.build_programs(), scenario_code,
                                     level)


class TestNoFalseImpossibility:
    def test_impossible_scopes_never_manifest_dynamically(self):
        """Exhaustively explore every statically-IMPOSSIBLE scope: 0 witnesses.

        This is the expensive direction done honestly: the unpruned explorer
        covers the *whole* interleaving space of each scope the analyzer
        claims impossible, so a single manifesting schedule anywhere would
        fail the gate.
        """
        checked = 0
        for level in ALL_LEVELS:
            for scenario in ALL_SCENARIOS:
                for variant in scenario.variants:
                    verdict = _static_verdict(scenario.code, variant, level)
                    if verdict.verdict is not Verdict.IMPOSSIBLE:
                        continue
                    explored = explore_variant(variant, level,
                                               scenario_code=scenario.code)
                    checked += 1
                    assert explored.schedules > 0 and not explored.pruned
                    assert explored.schedules == explored.space_size
                    assert explored.manifested == 0, (
                        f"{scenario.code}/{variant.name} at "
                        f"{level.value}: statically impossible "
                        f"({verdict.reason}) but dynamically witnessed")
        # The gate must actually exercise a large set of scopes, or a
        # regression that stops producing IMPOSSIBLE verdicts would pass
        # vacuously.
        assert checked >= 30

    def test_witnessed_cells_are_statically_reachable(self):
        """Every expected-possible cell keeps at least one unpruned variant."""
        for level, row in ALL_EXPECTATIONS.items():
            for code, expected in row.items():
                if expected is Possibility.NOT_POSSIBLE:
                    continue
                scenario = scenario_by_code(code)
                verdicts = [
                    _static_verdict(code, variant, level)
                    for variant in scenario.variants
                ]
                unpruned = [v for v in verdicts
                            if v.verdict is not Verdict.IMPOSSIBLE]
                assert unpruned, (
                    f"{code} at {level.value}: expected {expected} but every "
                    f"variant is statically pruned")
                if expected is Possibility.POSSIBLE:
                    # POSSIBLE means *every* variant manifests, so none may
                    # be pruned.
                    assert len(unpruned) == len(verdicts), (
                        f"{code} at {level.value}: expected POSSIBLE but some "
                        f"variant is statically pruned")


class TestPrunedTable4:
    def test_pruned_table_reproduces_the_paper_and_skips_work(self):
        pruned = compute_table4_explored()
        assert pruned.possibilities() == EXPECTED_TABLE_4
        assert pruned.static_pruning
        assert pruned.total_pruned_variants() > 0
        # Pruned scopes execute nothing, so the pruned table must cover
        # strictly fewer schedules than the seed's full count.
        assert pruned.total_schedules() < 1367 * len(TABLE_4_LEVELS)
        # Pruned cells surface their static proof sketches.
        rendered = pruned.render()
        assert "statically impossible" in rendered
        for row in pruned.cells.values():
            for cell in row.values():
                if cell.pruned_variants:
                    assert len(cell.static_reasons) == cell.pruned_variants
                    assert all(reason for _, reason in cell.static_reasons)
